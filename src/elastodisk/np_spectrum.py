"""Neumann-Poincare operator restricted to a single angular mode.

On a circle the traction N-P operator maps the span of
(e^{in theta} nu, e^{in theta} t) to itself; its 2x2 matrix in that basis is
the exterior SLP traction matrix minus half the identity.  The closed-form
eigensystem covers five degeneracy cases, including Jordan blocks with no
static counterpart (a2 = 0, or a2 != 0 at an exceptional point), and tags
overflowed matrices (high orders at low frequency) as non-finite instead.
"""
from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .media import Convexity, LameParams, convexity_check
from .potentials import traction_matrix

_I2 = np.eye(2, dtype=complex)
# |(a1 - b2)^2 + 4 a2 b1| <= C eps ||T||^2, C = 64, with a2 != 0 is an
# exceptional point: secant-located ones read up to about 16 eps ||T||^2,
# the modes 0-200 of the unit material at least 0.036 ||T||^2.
_DEFECTIVE_TOL = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class NpModeMatrix:
    """Mode-n matrix of the N-P operator with its provenance."""

    entries: np.ndarray
    order: int
    params: LameParams
    omega: float
    radius: float

    @property
    def a1(self) -> complex:
        return complex(self.entries[0, 0])

    @property
    def b1(self) -> complex:
        return complex(self.entries[0, 1])

    @property
    def a2(self) -> complex:
        return complex(self.entries[1, 0])

    @property
    def b2(self) -> complex:
        return complex(self.entries[1, 1])


class EigCase(enum.Enum):
    GENERIC = "generic"                    # a2 != 0
    DEFECTIVE = "defective"                # a2 != 0, zero discriminant
    DIAGONAL_DISTINCT = "diagonal_distinct"  # a2 = 0, a1 != b2
    DIAGONAL_EQUAL = "diagonal_equal"      # a2 = 0, a1 = b2, b1 = 0
    JORDAN = "jordan"                      # a2 = 0, a1 = b2, b1 != 0
    NON_FINITE = "non_finite"              # an entry is inf or nan


@dataclass(frozen=True)
class NpEigenSystem:
    """Eigenvalues/eigenvectors of one mode matrix in the (nu, t) basis.

    In the JORDAN and DEFECTIVE cases the second vector is the generalized
    eigenvector: (T - xi1 I) p2 = p1.  In the NON_FINITE case eigenvalues
    and vectors are nan.
    """

    case_tag: EigCase
    eigenvalues: tuple[complex, complex]
    eigenvectors: tuple[np.ndarray, np.ndarray]
    order: int


def np_matrix(p: LameParams, omega: float, R: float, n: int) -> NpModeMatrix:
    """T_n = exterior traction matrix - I/2 (the traction jump average)."""
    entries = traction_matrix(p, omega, R, n, side="exterior_limit") - 0.5 * _I2
    return NpModeMatrix(
        entries=entries, order=int(n), params=p, omega=float(omega), radius=float(R)
    )


def np_eigensystem(m: NpModeMatrix, tol: float | None = None) -> NpEigenSystem:
    """Closed-form eigensystem of the mode matrix, all five degeneracy cases.

    `tol` governs the a2 ~ 0 and a1 ~ b2 classifications; it defaults to
    1e-10 * ||T||.  Near-degenerate matrices above the threshold go through
    the generic branch with the principal square root (continuity over case
    purity), so regression values are stable under parameter jitter; only a
    discriminant at rounding level (`_DEFECTIVE_TOL`) reads as defective.
    """
    t = m.entries
    a1, b1 = complex(t[0, 0]), complex(t[0, 1])
    a2, b2 = complex(t[1, 0]), complex(t[1, 1])
    scale = float(np.linalg.norm(t))
    if tol is None:
        tol = 1e-10 * scale
    if tol < 0:
        raise ValueError("tol must be nonnegative")

    if not np.all(np.isfinite(t)):
        # every comparison below is false for nan, which would read as JORDAN
        nan = complex(cmath.nan, cmath.nan)
        vecs = (np.full(2, nan), np.full(2, nan))
        return NpEigenSystem(EigCase.NON_FINITE, (nan, nan), vecs, m.order)

    if abs(a2) > tol:
        sq = a1 * a1 - 2.0 * a1 * b2 + 4.0 * a2 * b1 + b2 * b2
        if abs(sq) <= _DEFECTIVE_TOL * scale * scale:
            xi = 0.5 * (a1 + b2)
            p1 = np.array([(a1 - b2) / (2.0 * a2), 1.0])
            p2 = np.array([1.0 / a2, 0.0])
            return NpEigenSystem(EigCase.DEFECTIVE, (xi, xi), (p1, p2), m.order)
        disc = cmath.sqrt(sq)
        xi1 = 0.5 * (a1 + b2 - disc)
        xi2 = 0.5 * (a1 + b2 + disc)
        p1 = np.array([(a1 - b2 - disc) / (2.0 * a2), 1.0])
        p2 = np.array([(a1 - b2 + disc) / (2.0 * a2), 1.0])
        return NpEigenSystem(EigCase.GENERIC, (xi1, xi2), (p1, p2), m.order)

    if abs(a1 - b2) > tol:
        p1 = np.array([1.0 + 0j, 0.0 + 0j])
        p2 = np.array([b1 / (b2 - a1), 1.0])
        return NpEigenSystem(
            EigCase.DIAGONAL_DISTINCT, (a1, b2), (p1, p2), m.order
        )

    if abs(b1) <= tol:
        p1 = np.array([1.0 + 0j, 0.0 + 0j])
        p2 = np.array([0.0 + 0j, 1.0 + 0j])
        return NpEigenSystem(EigCase.DIAGONAL_EQUAL, (a1, a1), (p1, p2), m.order)

    # Jordan block: one eigenvector plus a generalized one.
    p1 = np.array([1.0 + 0j, 0.0 + 0j])
    p2 = np.array([0.0 + 0j, 1.0 / b1])
    return NpEigenSystem(EigCase.JORDAN, (a1, a1), (p1, p2), m.order)


def quasistatic_reference(p: LameParams, n: int) -> tuple[float, float]:
    """Static-limit eigenvalue pair of the mode-n N-P matrix.

    (-k0, k0) for |n| >= 2 with k0 = mu/(2(lam + 2 mu)); (k0, 1/2) for
    |n| = 1; (-lam/(2(lam + 2 mu)), 1/2) for n = 0.
    """
    if convexity_check(p) is not Convexity.REGULAR:
        raise ValueError("quasistatic reference is defined for regular materials")
    lam, mu = p.lam.real, p.mu.real
    k0 = mu / (2.0 * (lam + 2.0 * mu))
    m = abs(int(n))
    if m >= 2:
        return (-k0, k0)
    if m == 1:
        return (k0, 0.5)
    return (-lam / (2.0 * (lam + 2.0 * mu)), 0.5)
