"""Mode-restricted N-P operator: matrix ties, eigensystem cases, limits."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastodisk.media import LameParams
from elastodisk.np_spectrum import (
    EigCase,
    NpModeMatrix,
    np_eigensystem,
    np_matrix,
    quasistatic_reference,
)
from elastodisk.potentials import traction_matrix

P11 = LameParams(1.0, 1.0)


def synthetic(t: np.ndarray, n: int = 3) -> NpModeMatrix:
    return NpModeMatrix(np.asarray(t, dtype=complex), n, P11, 1.0, 1.0)


class TestNpMatrix:
    def test_jump_tie(self):
        m = np_matrix(P11, 1.0, 1.0, 4)
        g = traction_matrix(P11, 1.0, 1.0, 4, "exterior_limit")
        assert np.array_equal(g - m.entries, 0.5 * np.eye(2))

    def test_quasistatic_offdiagonal(self):
        m = np_matrix(P11, 1e-3, 1.0, 3)
        assert abs(abs(m.a2) - 1.0 / 6.0) < 1e-2

    def test_generic_case_at_unit_frequency(self):
        m = np_matrix(P11, 1.0, 1.0, 5)
        assert abs(m.a2) > 1e-8
        assert np_eigensystem(m).case_tag is EigCase.GENERIC


class TestEigensystem:
    def test_diagonal_equal(self):
        es = np_eigensystem(synthetic([[0.3, 0], [0, 0.3]]))
        assert es.case_tag is EigCase.DIAGONAL_EQUAL
        assert es.eigenvalues == (0.3, 0.3)
        assert np.array_equal(es.eigenvectors[0], [1, 0])
        assert np.array_equal(es.eigenvectors[1], [0, 1])

    def test_jordan(self):
        es = np_eigensystem(synthetic([[0.3, 1.0], [0, 0.3]]))
        assert es.case_tag is EigCase.JORDAN
        t = np.array([[0.3, 1.0], [0, 0.3]])
        resid = (t - es.eigenvalues[0] * np.eye(2)) @ es.eigenvectors[1] - es.eigenvectors[0]
        assert np.max(np.abs(resid)) == 0.0

    def test_non_finite_matrix_not_jordan(self):
        # mode 80 at omega = 1e-3 overflows; nan compares false everywhere,
        # which used to land in the Jordan branch
        m = np_matrix(P11, 1e-3, 1.0, 80)
        assert not np.all(np.isfinite(m.entries))
        es = np_eigensystem(m)
        assert es.case_tag is EigCase.NON_FINITE
        assert all(np.isnan(xi) for xi in es.eigenvalues)
        es = np_eigensystem(synthetic([[0.3, 1.0], [np.inf, 0.3]]))
        assert es.case_tag is EigCase.NON_FINITE

    @pytest.mark.parametrize("n, omega, lam, xi", [
        (2, 1.0, -1.19106 + 3.25034j, 0.0334017 - 0.1409487j),
        (3, 3.4055, 0.728018 - 0.038501j, 0.3398801 - 0.1305776j),
        (5, 5.6, 2.10465 + 1.42257j, 0.3569751 - 0.1525953j),
    ], ids=["n2", "n3", "n5"])
    def test_defective_at_exceptional_points(self, n, omega, lam, xi):
        # a secant on the discriminant over complex lam (mu = 1, R = 1)
        # from the 6-digit table values; the located matrix has a2 != 0
        def disc(lam):
            t = np_matrix(LameParams(lam, 1.0), omega, 1.0, n).entries
            return (t[0, 0] - t[1, 1]) ** 2 + 4.0 * t[1, 0] * t[0, 1]

        x0, x1 = lam, lam * (1.0 + 1e-6)
        f0, f1 = disc(x0), disc(x1)
        best = min((abs(f0), x0), (abs(f1), x1), key=lambda v: v[0])
        for _ in range(40):
            if f1 == f0:
                break
            x0, x1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0)
            f0, f1 = f1, disc(x1)
            best = min(best, (abs(f1), x1), key=lambda v: v[0])
        lam = best[1]
        m = np_matrix(LameParams(lam, 1.0), omega, 1.0, n)
        t = m.entries
        assert abs(m.a2) > 1e-2 * np.linalg.norm(t)
        es = np_eigensystem(m)
        assert es.case_tag is EigCase.DEFECTIVE
        xi1, xi2 = es.eigenvalues
        assert xi1 == xi2 and abs(xi1 - xi) < 1e-6
        p1, p2 = es.eigenvectors
        shifted = t - xi1 * np.eye(2)
        assert np.max(np.abs(shifted @ p1)) < 1e-13 * np.linalg.norm(t)
        assert np.max(np.abs(shifted @ p2 - p1)) < 1e-13 * np.max(np.abs(p1))

    def test_unit_material_modes_not_defective(self):
        # the spectrum benchmark's frequencies and a few more, modes 0-200;
        # the overflowed rows are non-finite
        omegas = (*np.geomspace(1e-3, 30.0, 6), 0.5, 1.0, 5.0, 20.0)
        with np.errstate(all="ignore"):
            for omega in omegas:
                for n in range(201):
                    es = np_eigensystem(np_matrix(P11, omega, 1.0, n))
                    assert es.case_tag is not EigCase.DEFECTIVE

    def test_diagonal_distinct(self):
        es = np_eigensystem(synthetic([[0.3, 0.2], [0, 0.5]]))
        assert es.case_tag is EigCase.DIAGONAL_DISTINCT
        assert es.eigenvalues == (0.3, 0.5)
        t = np.array([[0.3, 0.2], [0, 0.5]])
        for xi, v in zip(es.eigenvalues, es.eigenvectors):
            assert np.max(np.abs(t @ v - xi * v)) < 1e-15

    def test_quasistatic_pair(self):
        es = np_eigensystem(np_matrix(P11, 1e-3, 1.0, 4))
        assert abs(es.eigenvalues[0] + 1.0 / 6.0) < 1e-4
        assert abs(es.eigenvalues[1] - 1.0 / 6.0) < 1e-4

    def test_residuals_random_material_draws(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 40))
            omega = float(rng.uniform(0.2, 3.0))
            p = LameParams(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5))
            m = np_matrix(p, omega, 1.0, n)
            es = np_eigensystem(m)
            scale = np.linalg.norm(m.entries)
            for xi, v in zip(es.eigenvalues, es.eigenvectors):
                if es.case_tag is EigCase.JORDAN and v is es.eigenvectors[1]:
                    continue
                r = np.max(np.abs(m.entries @ v - xi * v))
                assert r < 1e-12 * scale * max(1.0, np.max(np.abs(v)))

    def test_trace_det_identity(self, rng):
        for _ in range(50):
            p = LameParams(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5))
            m = np_matrix(p, float(rng.uniform(0.2, 3.0)), 1.0, int(rng.integers(1, 30)))
            es = np_eigensystem(m)
            tr = np.trace(m.entries)
            det = np.linalg.det(m.entries)
            assert es.eigenvalues[0] + es.eigenvalues[1] == pytest.approx(tr, rel=1e-12)
            assert es.eigenvalues[0] * es.eigenvalues[1] == pytest.approx(det, rel=1e-10)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            np_eigensystem(np_matrix(P11, 1.0, 1.0, 3), tol=-1.0)


@settings(max_examples=60, deadline=None)
@given(
    a1=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    b1=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    a2=st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False),
    b2=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_generic_eigensystem_property(a1, b1, a2, b2):
    t = np.array([[a1, b1], [a2, b2]])
    es = np_eigensystem(synthetic(t), tol=1e-8 * np.linalg.norm(t))
    if es.case_tag is not EigCase.GENERIC:
        return
    for xi, v in zip(es.eigenvalues, es.eigenvectors):
        r = np.max(np.abs(t @ v - xi * v))
        assert r < 1e-10 * np.linalg.norm(t) * max(1.0, np.max(np.abs(v)))


class TestQuasistaticReference:
    def test_high_modes(self):
        assert quasistatic_reference(P11, 3) == pytest.approx((-1 / 6, 1 / 6))

    def test_mode_one(self):
        assert quasistatic_reference(P11, 1) == pytest.approx((1 / 6, 0.5))

    def test_mode_zero(self):
        assert quasistatic_reference(P11, 0) == pytest.approx((-1 / 6, 0.5))

    def test_requires_regular(self):
        with pytest.raises(ValueError):
            quasistatic_reference(LameParams(1.0, -2.0), 3)

    def test_matches_low_frequency_limit(self):
        for n in (0, 1, 2, 5):
            ref = quasistatic_reference(P11, n)
            es = np_eigensystem(np_matrix(P11, 1e-3, 1.0, n))
            assert abs(es.eigenvalues[0] - ref[0]) < 1e-3
            assert abs(es.eigenvalues[1] - ref[1]) < 1e-3


def test_spectral_accumulation():
    # eigenvalues over n approach +-mu/(2(lam+2mu)); the gap shrinks
    # monotonically for n >= 20 and is below 0.02 at n = 60
    k0 = 1.0 / 6.0
    gaps = []
    for n in range(20, 61):
        es = np_eigensystem(np_matrix(P11, 1.0, 1.0, n))
        gaps.append(max(abs(es.eigenvalues[0] + k0), abs(es.eigenvalues[1] - k0)))
    assert all(gaps[i + 1] <= gaps[i] * (1 + 1e-12) for i in range(len(gaps) - 1))
    assert gaps[-1] < 0.02
