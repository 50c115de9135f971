"""Cylinder-function suite: frozen oracle values, identities, asymptotics."""
import cmath
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastodisk import selfcheck, specfun
from elastodisk.calr import recipe_config, shifted_shell
from elastodisk.media import AnnulusGeometry, LameParams, wavenumbers
from elastodisk.specfun import bessel_j, cyl_pair, cyl_pairs
from library_helpers import hankel1

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


def assert_matches_mpmath(n, z, dps=150):
    """J_n, J_n', H_n, H_n' at z within 5e-12 relative of mpmath, on the
    scalar path and on the array path."""
    # dps must cover the exp(2|Im z|) cancellation inside mpmath's own
    # J + iY evaluation of H at strongly imaginary arguments.
    mp.mp.dps = dps
    zr = mp.mpc(z)
    j = [mp.besselj(m, zr) for m in (n - 1, n, n + 1)]
    h = [mp.hankel1(m, zr) for m in (n - 1, n, n + 1)]
    refs = [complex(x) for x in (j[1], (j[0] - j[2]) / 2, h[1], (h[0] - h[2]) / 2)]
    for values in (cyl_pair(n, z), [a[0] for a in cyl_pairs(n, [z])]):
        for mine, ref in zip(values, refs):
            assert abs(mine - ref) <= 5e-12 * max(abs(ref), sys.float_info.min), (n, z)


def wronskian_resid(n, z) -> float:
    p = cyl_pair(n, z)
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


def bits(*values):
    return np.array(values, dtype=complex).view(np.uint64).tolist()


def former_series_j(n, z):
    """The ascending series that `bessel_j` once ran itself for |z| <= 8,
    conjugated into the lower half plane."""
    m = abs(n)
    w = z if z.imag >= 0.0 else z.conjugate()
    val = specfun._j_series((m,), w, cmath.log(0.5 * w))[m]
    if z.imag < 0.0:
        val = val.conjugate()
    return -val if n < 0 and m % 2 == 1 else val


def test_bessel_j_is_the_pair_value_bit_for_bit():
    # both half planes and |z| on both sides of 8, at negative odd orders too
    zs = [r * cmath.exp(1j * a) for r in (1e-3, 0.4, 3.0, 7.9, 8.0, 8.1, 13.0, 40.0)
          for a in np.linspace(-3.1, 3.1, 15)]
    for n in (-199, -25, -7, -4, -1, 0, 1, 6, 25, 200):
        for z in zs:
            got = bessel_j(n, z)
            assert bits(got) == bits(cyl_pair(n, z).j), (n, z)
            if abs(z) <= 8.0:
                assert bits(got) == bits(former_series_j(n, z)), (n, z)


class TestSignedZeros:
    """A -0.0 part of the argument reads as +0.0, whatever the cache holds."""

    def test_cache_order_does_not_matter(self):
        minus, plus = complex(-7.0, -0.0), complex(-7.0, 0.0)
        specfun._pair_upper.cache_clear()
        cold = cyl_pair(200, minus)
        specfun._pair_upper.cache_clear()
        cyl_pair(200, plus)
        warm = cyl_pair(200, minus)
        assert bits(cold.j, cold.jp, cold.h, cold.hp) == bits(
            warm.j, warm.jp, warm.h, warm.hp
        )

    def test_array_path_reads_plus_zero(self):
        # as a list or an ndarray, on both sides of |z| = 8
        zs = [complex(-7.0, -0.0), complex(-0.0, 3.0), complex(-0.0, -3.0),
              complex(-12.0, -0.0), complex(-0.0, 9.0)]
        twins = cyl_pairs(200, [complex(z.real + 0.0, z.imag + 0.0) for z in zs])
        for got in (cyl_pairs(200, zs), cyl_pairs(200, np.array(zs))):
            for a, b in zip(got, twins):
                assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()


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
        assert wronskian_resid(4, 2.7) < 1e-10

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
            # screened points next to the branch switches: 3.0e-12 at the
            # corner of the J + iY strip Im z <= 3, 3.7e-12 at |z| = 17
            ("jiy_corner3", [(0, 7.4073289293156535 + 2.8947591944805833j)]),
            ("miller_j0_switch", [(0, 15.963471160615178 + 5.341011306448887j)]),
            # 4.8e-12 and 7.9e-12 on the J + iY path, now continued fraction
            ("jiy_corner", [(2, 6.275320584440288 + 3.96875j)]),
            ("cf_corner", [(2, 6.837507518909508 + 3.9844556386916774j)]),
        )
        for n, z in points
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
                    worst = max(worst, wronskian_resid(n, r * cmath.exp(1j * a)))
        assert worst < 1e-10

    def test_wronskian_lower_sector_small_modulus(self):
        # Im z < 0: |J||H| ~ exp(2|Im z|) caps the representable residual;
        # below |z| ~ 7 the identity still holds at the stated bound.
        worst = 0.0
        for n in range(0, 61, 5):
            for r in np.logspace(-2, math.log10(7.0), 9):
                worst = max(worst, wronskian_resid(n, r * cmath.exp(-1.2j)))
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
    assert wronskian_resid(n, z) < 1e-10


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


def branch_arguments(count, seed=7):
    """Seeded arguments on every branch of `_jh_top` and its edges, both
    half planes, the axes with either sign of zero, and some repeats."""
    rng = np.random.default_rng(seed)
    r = 10.0 ** rng.uniform(-2.0, 1.5, count)
    z = list(r * np.exp(1j * rng.uniform(-math.pi / 2, math.pi, count)))
    z += [complex(x, 4.0) for x in np.linspace(0.05, 6.9, 12)]  # Im z = 4
    z += [complex(x, y) for x in (1.0, 6.5) for y in np.nextafter(4.0, (0.0, 9.0))]
    z += list(8.0 * np.exp(1j * np.linspace(-1.5, 3.1, 12)))  # |z| = 8
    z += [complex(x, s * 0.0) for x in (-7.0, 0.3, 5.0, 8.0) for s in (1.0, -1.0)]
    z += [complex(s * 0.0, y) for y in (-3.0, 0.02, 6.0) for s in (1.0, -1.0)]
    return [complex(w) for w in z] + [complex(w) for w in z[:9]]


def workload_arguments():
    """The shell arguments of a disk Re c sweep and of a CALR p scan."""
    p11 = LameParams(1.0, 1.0)
    disk = [wavenumbers(p11.scaled(complex(c, 2.08e-9)), 1.0)
            for c in np.linspace(-2.05, -1.85, 60)]
    cfg = recipe_config(AnnulusGeometry(0.8, 1.0), p11, p11, 5.0, 25)
    calr = [wavenumbers(shifted_shell(cfg, p), 5.0)
            for p in np.linspace(-0.16, 0.16, 40)]
    return (
        [k for wn in disk for k in (wn.ks, wn.kp)],
        [k * x for wn in calr for x in (0.8, 1.0) for k in (wn.ks, wn.kp)],
    )


def scalar_pairs(n, zs):
    return np.array([cyl_pair(n, z) for z in zs], dtype=complex).T


def relative_gap(got, want) -> float:
    """Largest |got - want| / |want| over the entries; the finiteness
    pattern must match, and entries equal on both paths count as 0."""
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    with np.errstate(all="ignore"):
        gap = np.abs(got - want) / np.abs(want)
    gap[got == want] = 0.0
    return float(np.max(gap[finite], initial=0.0))


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestCylPairs:
    """The array path: within 1e-12 relative of the scalar path, whose
    algorithms it runs in numpy arithmetic, and for every argument the same
    bits whatever else the batch holds."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 25, 60, 200, -3])
    def test_branches_bit_for_bit(self, n):
        # every branch and edge; the same bits reversed and cut in two
        zs = branch_arguments(400)
        got = np.array(cyl_pairs(n, zs))
        assert relative_gap(got, scalar_pairs(n, zs)) <= 1e-12
        assert same_bits(np.array(cyl_pairs(n, zs[::-1]))[:, ::-1], got)
        cut = len(zs) // 2 + 1
        halves = [np.array(cyl_pairs(n, part)) for part in (zs[:cut], zs[cut:])]
        assert same_bits(np.concatenate(halves, axis=1), got)

    @pytest.mark.parametrize("size", [1, 2, 7, 95, 96, 97, 300])
    def test_batch_sizes_bit_for_bit(self, size):
        # each argument alone, in this batch, and shuffled among others
        zs = branch_arguments(size, seed=size)[:size]
        pool = zs + branch_arguments(150, seed=size + 1)
        order = np.random.default_rng(size).permutation(len(pool))
        at = np.argsort(order)[:size]
        for n in (1, 5, -3):
            got = np.array(cyl_pairs(n, zs))
            assert relative_gap(got, scalar_pairs(n, zs)) <= 1e-12
            alone = np.concatenate([np.array(cyl_pairs(n, [z])) for z in zs], axis=1)
            assert same_bits(alone, got)
            shuffled = np.array(cyl_pairs(n, [pool[i] for i in order]))
            assert same_bits(shuffled[:, at], got)

    def test_workload_arguments_bit_for_bit(self):
        # a disk sweep's and a CALR scan's arguments, apart and in one batch
        disk, calr = workload_arguments()
        assert any(z.imag > 3.0 for z in calr)  # the continued-fraction branch
        for n in (5, 25):
            apart = [np.array(cyl_pairs(n, zs)) for zs in (disk, calr)]
            for got, zs in zip(apart, (disk, calr)):
                assert relative_gap(got, scalar_pairs(n, zs)) <= 1e-12
            assert same_bits(np.array(cyl_pairs(n, disk + calr)),
                             np.concatenate(apart, axis=1))

    def test_empty_batch(self):
        assert all(a.shape == (0,) for a in cyl_pairs(3, []))

    @pytest.mark.parametrize("bad", [complex("nan"), complex(1.0, math.inf), 0j])
    def test_bad_element_raises_the_scalar_error(self, bad):
        zs = branch_arguments(50)
        zs.insert(17, bad)
        with pytest.raises(ValueError) as scalar:
            cyl_pair(4, bad)
        with pytest.raises(ValueError) as array:
            cyl_pairs(4, zs)
        assert str(array.value) == str(scalar.value)

    def test_array_input_raises_the_first_bad_argument_error(self):
        # non-finite arguments before zeros, each named as the scalar path
        # names it, the first one in the batch
        zs = np.array(branch_arguments(50))
        zs[[5, 17, 30]] = 0j, complex(1.0, math.inf), complex("nan")
        for fixed, bad in ((None, 17), (17, 30), (30, 5)):
            if fixed is not None:
                zs[fixed] = 1.0
            with pytest.raises(ValueError) as scalar:
                cyl_pair(4, zs[bad])
            with pytest.raises(ValueError) as array:
                cyl_pairs(4, zs)
            assert str(array.value) == str(scalar.value)


def corner_arguments(count, seed=3):
    """Random z with |z| in [7.6, 8] and Im z in [3.6, 4]: the corner of the
    former Im z <= 4 J + iY strip, where the subtraction lost exp(2 Im z)."""
    rng = np.random.default_rng(seed)
    im = rng.uniform(3.6, 4.0, count)
    r = rng.uniform(7.6, 8.0, count)
    return [complex(math.sqrt(a * a - b * b), b) for a, b in zip(r, im)]


@pytest.mark.slow
def test_corner_within_envelope():
    for z in corner_arguments(300):
        assert_matches_mpmath(2, z, dps=40)


def test_selfcheck_flags_a_perturbed_entry(monkeypatch):
    assert selfcheck.array_path_check().passed
    cyl_pairs_ = selfcheck.cyl_pairs

    def perturbed(n, zs):
        j, jp, h, hp = (a.copy() for a in cyl_pairs_(n, zs))
        h[3] *= 1.0 + 1e-10
        return j, jp, h, hp

    monkeypatch.setattr(selfcheck, "cyl_pairs", perturbed)
    result = selfcheck.array_path_check(orders=(0, 7))
    assert result.worst == pytest.approx(1e-10, rel=0.01) and not result.passed
