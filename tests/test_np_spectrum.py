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
