"""Material parameters, wavenumbers, branch rule, geometry."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastodisk.media import (
    AnnulusGeometry,
    Convexity,
    DegenerateMaterialError,
    LameParams,
    convexity_check,
    wavenumbers,
)


class TestWavenumbers:
    def test_unit_material(self):
        wn = wavenumbers(LameParams(1.0, 1.0), 1.0)
        assert wn.ks == pytest.approx(1.0)
        assert wn.kp == pytest.approx(1.0 / math.sqrt(3.0))

    def test_high_frequency(self):
        wn = wavenumbers(LameParams(1.0, 1.0), 20.0)
        assert wn.ks == pytest.approx(20.0)
        assert wn.kp == pytest.approx(20.0 / math.sqrt(3.0))

    def test_negative_shear_branch(self):
        # both root candidates checked; the Im >= 0 one is returned
        wn = wavenumbers(LameParams(1.0, -0.5 + 0.01j), 1.0)
        assert wn.ks.imag > 0
        assert wn.kp.imag >= 0
        assert wn.ks**2 * (-0.5 + 0.01j) == pytest.approx(1.0, rel=1e-14)

    def test_degenerate(self):
        with pytest.raises(DegenerateMaterialError):
            wavenumbers(LameParams(1.0, 0.0), 1.0)
        with pytest.raises(DegenerateMaterialError):
            wavenumbers(LameParams(-2.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            wavenumbers(LameParams(1.0, 1.0), -1.0)

    def test_tie_resolution(self):
        # real positive material: real k with Re k > 0
        wn = wavenumbers(LameParams(2.0, 3.0), 5.0)
        assert wn.ks.imag == 0 and wn.ks.real > 0

    @settings(max_examples=60, deadline=None)
    @given(
        lam_re=st.floats(-3.0, 3.0),
        lam_im=st.floats(0.0, 1.0),
        mu_re=st.floats(-3.0, 3.0),
        mu_im=st.floats(0.0, 1.0),
        omega=st.floats(0.1, 30.0),
    )
    def test_branch_consistency(self, lam_re, lam_im, mu_re, mu_im, omega):
        p = LameParams(complex(lam_re, lam_im), complex(mu_re, mu_im))
        try:
            wn = wavenumbers(p, omega)
        except DegenerateMaterialError:
            # exact zeros and overflow-scale moduli are rejected, not nan'd
            return
        assert wn.ks**2 * p.mu == pytest.approx(omega**2, rel=1e-14)
        assert wn.kp**2 * (p.lam + 2 * p.mu) == pytest.approx(omega**2, rel=1e-14)
        assert wn.ks.imag >= 0 and wn.kp.imag >= 0

    def test_subnormal_modulus_rejected(self):
        with pytest.raises(DegenerateMaterialError):
            wavenumbers(LameParams(0.0, complex(0.0, 5e-313)), 1.0)

    def test_frequency_scaling(self):
        p = LameParams(1.3 + 0.2j, 0.7 + 0.1j)
        a = 3.7
        w1, w2 = wavenumbers(p, 1.1), wavenumbers(p, a * 1.1)
        assert w2.ks == pytest.approx(a * w1.ks, rel=1e-14)
        assert w2.kp == pytest.approx(a * w1.kp, rel=1e-14)

    def test_batch_agrees_with_single_calls(self):
        # numpy arithmetic: each entry within a few ulp of its material's own
        # call, on the Im k >= 0 branch, with the same bits in a batch of one
        rng = np.random.default_rng(7)
        ps = [LameParams(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
              for _ in range(33)] + [LameParams(2.0, 3.0), LameParams(-1.9, -0.6)]
        for omega in (1e-3, 1.0, 20.0):
            batch = wavenumbers(ps, omega)
            for i, p in enumerate(ps):
                one, alone = wavenumbers(p, omega), wavenumbers([p], omega)
                for got, want, solo in zip((batch.ks[i], batch.kp[i]),
                                           (one.ks, one.kp), (alone.ks, alone.kp)):
                    assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)
                    assert got.imag >= 0
                    assert solo.view(np.uint64).tolist() == np.array(
                        [got]).view(np.uint64).tolist()


class TestConvexity:
    def test_regular(self):
        assert convexity_check(LameParams(1.0, 1.0)) is Convexity.REGULAR

    def test_negative(self):
        assert convexity_check(LameParams(1.0, -2.0)) is Convexity.NEGATIVE

    def test_lossy_with_negative_real_part(self):
        p = LameParams(-2.0, complex(-2.0, 2.08e-9))
        assert convexity_check(p) is Convexity.LOSSY
        real_part = LameParams(p.lam.real, p.mu.real)
        assert convexity_check(real_part) is Convexity.NEGATIVE

    def test_boundary_is_not_regular(self):
        # 2 lam + 2 mu = 0 exactly fails strong convexity
        assert convexity_check(LameParams(-1.0, 1.0)) is Convexity.NEGATIVE


class TestGeometry:
    def test_critical_radius_paper_config(self):
        g = AnnulusGeometry(0.8, 1.0)
        assert g.critical_radius == pytest.approx(1.1180, abs=5e-5)

    def test_critical_radius_exact(self):
        assert AnnulusGeometry(0.25, 1.0).critical_radius == pytest.approx(2.0)

    def test_thin_shell_limit(self):
        for eps in (1e-3, 1e-6, 1e-9):
            g = AnnulusGeometry(1.0 - eps, 1.0)
            assert abs(g.critical_radius - 1.0) < 2 * eps

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            AnnulusGeometry(1.0, 0.8)
        with pytest.raises(ValueError):
            AnnulusGeometry(0.0, 1.0)


def test_lame_params_rejects_nonfinite():
    with pytest.raises(ValueError):
        LameParams(float("nan"), 1.0)
