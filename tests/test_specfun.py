"""Cylinder-function suite: frozen oracle values, identities, asymptotics."""
import cmath
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastodisk import specfun
from elastodisk.specfun import CylPair, bessel_j, cyl_pair, hankel1

# 60-term ascending series at 50 digits, frozen (see mp_series_j below).
J5_2_05J = complex(0.0034621099584312315, 0.0075258129009681530)


def mp_series_j(n, z, terms=60):
    mp.mp.dps = 50
    z = mp.mpc(z)
    pref = (z / 2) ** n / mp.factorial(n)
    q = -(z * z) / 4
    term = mp.mpf(1)
    total = mp.mpf(1)
    for k in range(1, terms):
        term *= q / (k * (n + k))
        total += term
    return complex(pref * total)


def assert_matches_mpmath(n, z):
    # dps must cover the exp(2|Im z|) cancellation inside mpmath's own
    # J + iY evaluation of H at strongly imaginary arguments.
    mp.mp.dps = 150
    p = cyl_pair(n, z)
    zr = mp.mpc(z)
    for mine, ref in (
        (p.j, mp.besselj(n, zr)),
        (p.h, mp.hankel1(n, zr)),
        (p.jp, (mp.besselj(n - 1, zr) - mp.besselj(n + 1, zr)) / 2),
        (p.hp, (mp.hankel1(n - 1, zr) - mp.hankel1(n + 1, zr)) / 2),
    ):
        ref = complex(ref)
        assert abs(mine - ref) <= 5e-12 * max(abs(ref), sys.float_info.min)


def wronskian_resid(p: CylPair) -> float:
    z = p.arg
    w = (p.j * p.hp - p.jp * p.h - 2j / (math.pi * z)) * (math.pi * z / 2.0)
    return abs(w)


class TestBesselJ:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0) == 1.0 + 0j

    def test_jn_at_zero(self):
        assert bessel_j(3, 0) == 0.0 + 0j

    def test_series_oracle_value(self):
        # independent extended-precision series oracle, frozen above
        assert mp_series_j(5, 2 + 0.5j) == pytest.approx(J5_2_05J, rel=1e-15)
        v = bessel_j(5, 2 + 0.5j)
        assert abs(v - J5_2_05J) <= 1e-14 * abs(J5_2_05J)

    def test_negative_order(self):
        for z in (0.7 + 0.1j, 5.0 + 0j, 30.0 + 3j):
            assert bessel_j(-4, z) == pytest.approx(bessel_j(4, z), rel=1e-14)
            assert bessel_j(-3, z) == pytest.approx(-bessel_j(3, z), rel=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            bessel_j(2, complex("inf"))
        with pytest.raises(ValueError):
            bessel_j(2, complex("nan"))


class TestHankel1:
    def test_small_argument_leading_term(self):
        # H_n(t) ~ -i 2^n (n-1)!/(pi t^n) (1 + t^2/(4(n-1))) for small t;
        # n = 2 at t = 0.01 agrees to far better than the 1e-3 target.
        t = 0.01
        ref = -1j * (2**2) * math.factorial(1) / (math.pi * t**2) * (1 + t**2 / 4)
        assert hankel1(2, t) == pytest.approx(ref, rel=1e-3)

    def test_outgoing_asymptotics(self):
        for z in (40.0 + 0j, 80.0 + 4j):
            lead = cmath.sqrt(2.0 / (math.pi * z)) * cmath.exp(1j * (z - math.pi / 4))
            assert abs(hankel1(0, z) - lead) <= 0.01 * abs(lead)

    def test_wronskian_closure(self):
        p = cyl_pair(5, 3 - 0.2j)
        resid = abs(p.j * p.hp - p.jp * p.h - 2j / (math.pi * (3 - 0.2j)))
        assert resid < 1e-10

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hankel1(0, 0)


class TestCylPair:
    def test_derivative_ladder_n1(self):
        p0, p1 = cyl_pair(0, 1.0), cyl_pair(1, 1.0)
        assert p1.jp == pytest.approx(p0.j - p1.j / 1.0, rel=1e-14)

    def test_wronskian_invariant(self):
        assert wronskian_resid(cyl_pair(4, 2.7)) < 1e-10

    def test_negative_order_parity(self):
        p, m = cyl_pair(3, 1 + 1j), cyl_pair(-3, 1 + 1j)
        for a, b in ((p.j, m.j), (p.jp, m.jp), (p.h, m.h), (p.hp, m.hp)):
            assert -a == pytest.approx(b, rel=1e-15)

    @pytest.mark.slow
    def test_against_mpmath(self):
        for n, z in [(0, 0.05 + 0.01j), (7, 4 - 1j), (25, 12 + 9j), (60, 70 + 20j),
                     (3, 90j), (40, 15.0 + 0j)]:
            assert_matches_mpmath(n, z)

    # Orders up to 200 on every evaluation path; n = 1 makes the top rungs
    # n-1, n coincide with the seed rungs 0, 1.
    @pytest.mark.parametrize("n, z", [
        pytest.param(n, z, id=f"{path}-n{n}")
        for path, points in (
            ("series_jiy", [(1, 3 + 0.5j), (61, 6 + 1j), (120, 7.5 + 2j), (200, 5 + 0.5j)]),
            ("series_cf", [(1, 2 + 6j), (61, 3 + 7j), (150, 1 + 7.5j)]),
            ("miller_ja", [(1, 10 + 2j), (61, 12 + 1j), (120, 15 + 4j), (200, 9 + 0.5j)]),
            ("miller_j0", [(1, 9 + 6j), (61, 10 + 8j), (150, 8 + 13j)]),
            ("asymptotic", [(1, 30 + 2j), (61, 40 + 5j), (120, 60 + 3j), (200, 90 + 1j)]),
            # screened points next to the branch switches, 4.8e-12 and 3.7e-12
            ("jiy_corner", [(2, 6.275320584440288 + 3.96875j)]),
            ("miller_j0_switch", [(0, 15.963471160615178 + 5.341011306448887j)]),
        )
        for n, z in points
    ] + [
        # H_2 is 7.9e-12 off here: the J + iY subtraction near its Im z = 4
        # limit at |z| ~ 8 (a known excess, see the specfun docstring)
        pytest.param(2, 6.837507518909508 + 3.9844556386916774j,
                     id="jiy_corner_excess-n2",
                     marks=pytest.mark.xfail(strict=True, reason="known 7.9e-12 excess")),
    ])
    @pytest.mark.slow
    def test_against_mpmath_high_order(self, n, z):
        assert_matches_mpmath(n, z)

    def test_pair_cache_is_inspectable(self):
        # Benchmark tracing reads the hit ratio of this cache.
        assert callable(specfun._pair_upper.cache_info)
        assert callable(specfun._pair_upper.cache_clear)
        assert specfun._pair_upper.cache_parameters()["maxsize"] == 1 << 14


PHYSICAL_ARGS = (0.0, 0.7, 1.2, math.pi / 2)


class TestIdentityGrids:
    def test_wronskian_physical_sector(self):
        # Im z >= 0: the identity is representable and must hold tightly.
        worst = 0.0
        for n in range(0, 61, 3):
            for r in np.logspace(-2, 2, 13):
                for a in PHYSICAL_ARGS:
                    worst = max(worst, wronskian_resid(cyl_pair(n, r * cmath.exp(1j * a))))
        assert worst < 1e-10

    def test_wronskian_lower_sector_small_modulus(self):
        # Im z < 0: |J||H| ~ exp(2|Im z|) caps the representable residual;
        # below |z| ~ 7 the identity still holds at the stated bound.
        worst = 0.0
        for n in range(0, 61, 5):
            for r in np.logspace(-2, math.log10(7.0), 9):
                worst = max(worst, wronskian_resid(cyl_pair(n, r * cmath.exp(-1.2j))))
        assert worst < 1e-10

    def test_three_term_recurrence(self):
        worst = 0.0
        for n in range(1, 61, 3):
            for r in np.logspace(-2, 2, 13):
                for a in (-1.2, 0.0, 0.7, 1.2):
                    z = r * cmath.exp(1j * a)
                    pm, p0, pp = cyl_pair(n - 1, z), cyl_pair(n, z), cyl_pair(n + 1, z)
                    for f0, f1, f2 in ((pm.j, p0.j, pp.j), (pm.h, p0.h, pp.h)):
                        den = max(abs(f0), abs(f2))
                        if den == 0 or not math.isfinite(den):
                            continue
                        worst = max(worst, abs(f0 + f2 - (2.0 * n / z) * f1) / den)
        assert worst < 1e-9

    def test_ode_residual(self):
        # f'' from the derivative ladder (orders n-2, n-1, n), then the
        # Bessel equation residual.  Points with n/|z| huge are skipped:
        # there |f_{n-2}| ~ (2n/z)^2 |f_n|, so merely storing f_{n-2} to
        # half an ulp perturbs the identity beyond the 1e-8 |z^2 f| bound;
        # the restriction keeps the measurement floor two orders under it.
        worst = 0.0
        for n in range(2, 61, 4):
            for r in np.logspace(-2, 2, 9):
                if r < n / 250.0:
                    continue
                for a in (0.0, 0.7, 1.2):
                    z = r * cmath.exp(1j * a)
                    p1, p0 = cyl_pair(n - 1, z), cyl_pair(n, z)
                    for fm1p, f, fp in ((p1.jp, p0.j, p0.jp), (p1.hp, p0.h, p0.hp)):
                        fpp = fm1p - fp * n / z + f * n / (z * z)
                        res = abs(z * z * fpp + z * fp + (z * z - n * n) * f)
                        scale = abs(z * z * f)
                        if scale == 0 or not math.isfinite(scale):
                            continue
                        worst = max(worst, res / scale)
        assert worst < 1e-8

    def test_large_order_asymptotic_form(self):
        # Coarse large-order references (no stated remainder bounds); the
        # H bracket's second coefficient is imprecise, so its tolerance
        # covers a full first-order correction.
        for n in (25, 40):
            for t in (0.5, 1.0):
                ref_h = -1j * math.factorial(n) / (math.pi * (t / 2) ** n) * (
                    1.0 / n + t * t / n**2
                )
                assert hankel1(n, t) == pytest.approx(ref_h, rel=5.0 / n)
                ref_j = (t / 2) ** n / math.factorial(n) * (
                    1 - t * t / (4 * n) + (8 * t * t + t**4) / (32 * n**2)
                )
                assert bessel_j(n, t) == pytest.approx(ref_j, rel=20.0 / n**3)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=60),
    logr=st.floats(min_value=-2.0, max_value=2.0),
    arg=st.floats(min_value=0.0, max_value=math.pi / 2),
)
def test_wronskian_property(n, logr, arg):
    z = 10.0**logr * cmath.exp(1j * arg)
    assert wronskian_resid(cyl_pair(n, z)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=-40, max_value=40),
    re=st.floats(min_value=0.1, max_value=30.0),
    im=st.floats(min_value=-5.0, max_value=30.0),
)
def test_pair_parity_property(n, re, im):
    z = complex(re, im)
    p, m = cyl_pair(n, z), cyl_pair(-n, z)
    sign = -1.0 if n % 2 else 1.0
    assert m.j == pytest.approx(sign * p.j, rel=1e-12, abs=1e-280)
    assert m.hp == pytest.approx(sign * p.hp, rel=1e-12, abs=1e-280)
