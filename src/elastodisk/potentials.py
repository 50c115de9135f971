"""Closed-form single-layer-potential machinery on circles.

Everything is expressed in the per-mode boundary frame: a density
a_nu e^{in theta} nu + a_t e^{in theta} t on a circle is the coefficient
pair (a_nu, a_t), and every 2x2 matrix here maps such pairs to pairs of the
same form (columns act on the nu- and t-components respectively).

The vector single-layer potential is evaluated through its decomposition
into shear/pressure wave basis fields (Q and P families) rather than the
raw two-sideband Hankel expressions: fewer cancellations, and one code path
serves field evaluation, boundary matrices and the two-radius couplings of
the core-shell system alike.  `layered_system` assembles the transmission
system of any number of concentric interfaces from these blocks, and
`region_energy` reads a region's dissipation back off that system.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple, Sequence

import numpy as np

from .media import LameParams, wavenumbers
from .specfun import cyl_pair

_I2 = np.eye(2, dtype=complex)


class WaveKind(enum.Enum):
    """Shear (Q) and pressure (P) cylinder-wave families.

    Interior kinds are entire (Bessel radial part), exterior kinds are
    radiating (first-kind Hankel radial part).
    """

    Q_INTERIOR = "q_interior"
    P_INTERIOR = "p_interior"
    Q_EXTERIOR = "q_exterior"
    P_EXTERIOR = "p_exterior"

    @property
    def is_interior(self) -> bool:
        return self in (WaveKind.Q_INTERIOR, WaveKind.P_INTERIOR)

    @property
    def is_shear(self) -> bool:
        return self in (WaveKind.Q_INTERIOR, WaveKind.Q_EXTERIOR)


def _radial_pair(kind: WaveKind, n: int, z: complex) -> tuple[complex, complex]:
    pair = cyl_pair(n, z)
    if kind.is_interior:
        return pair.j, pair.jp
    return pair.h, pair.hp


def wave_coeffs(kind: WaveKind, n: int, k: complex, r: float) -> np.ndarray:
    """(nu, t) displacement coefficients of Q_n or P_n at radius r.

    Q_n = 2n f_n(kr)/(kr) e^{in t} nu + 2i f_n'(kr) e^{in t} t,
    P_n = 2 f_n'(kr) e^{in t} nu + 2in f_n(kr)/(kr) e^{in t} t,
    with f = J for interior kinds and f = H for exterior kinds.
    """
    if r <= 0.0:
        raise ValueError("evaluation radius must be positive")
    z = k * r
    f, fp = _radial_pair(kind, n, z)
    if kind.is_shear:
        return np.array([2.0 * n * f / z, 2j * fp])
    return np.array([2.0 * fp, 2j * n * f / z])


def wave_traction_coeffs(
    kind: WaveKind, n: int, k: complex, r: float, p: LameParams
) -> np.ndarray:
    """(nu, t) coefficients of the traction of Q_n or P_n at radius r.

    The material enters through mu and through omega^2 r^2 (recovered from
    k and the Lame pair, so callers never pass an inconsistent frequency).
    """
    if r <= 0.0:
        raise ValueError("evaluation radius must be positive")
    z = k * r
    f, fp = _radial_pair(kind, n, z)
    mu = p.mu
    omega2 = (mu if kind.is_shear else (p.lam + 2.0 * mu)) * k * k
    edge = 4.0 * n * mu * (z * fp - f) / (k * r * r)
    body = 2.0 * ((2.0 * mu * n * n - omega2 * r * r) * f - 2.0 * mu * z * fp) / (
        k * r * r
    )
    if kind.is_shear:
        return np.array([edge, 1j * body])
    return np.array([body, 1j * edge])


def _radius(x) -> float:
    r = math.hypot(float(x[0]), float(x[1]))
    if r == 0.0:
        raise ValueError("fields are evaluated away from the origin")
    return r


def polar_to_cartesian(c, n: int, x) -> np.ndarray:
    """Map (nu, t) coefficients at x to the Cartesian displacement vector."""
    theta = math.atan2(float(x[1]), float(x[0]))
    phase = complex(math.cos(n * theta), math.sin(n * theta))
    ct, st = math.cos(theta), math.sin(theta)
    nu = np.array([ct, st])
    t = np.array([-st, ct])
    return phase * (c[0] * nu + c[1] * t)


def scalar_slp_mode(k: complex, R: float, n: int, x) -> complex:
    """Acoustic single-layer potential of e^{in theta} on the circle of radius R."""
    if k == 0:
        raise ValueError("static (k = 0) potentials are not supported")
    r = _radius(x)
    theta = math.atan2(float(x[1]), float(x[0]))
    if r >= R:
        radial = cyl_pair(n, k * R).j * cyl_pair(n, k * r).h
    else:
        radial = cyl_pair(n, k * r).j * cyl_pair(n, k * R).h
    return -0.5j * math.pi * R * radial * complex(
        math.cos(n * theta), math.sin(n * theta)
    )


def _source_factors(
    p: LameParams, omega: float, src_radius: float, n: int, exterior: bool
):
    """Weights multiplying the Q/P eval-side coefficient vectors.

    Returns (ks, kp, wQ_nu, wP_nu, wQ_t, wP_t): column `nu` of the trace or
    traction matrix is wQ_nu * Q(eval) + wP_nu * P(eval), column `t` is
    wQ_t * Q(eval) + wP_t * P(eval).
    """
    wn = wavenumbers(p, omega)
    ks, kp = wn.ks, wn.kp
    R = src_radius
    zs, zp_ = ks * R, kp * R
    pair_s, pair_p = cyl_pair(n, zs), cyl_pair(n, zp_)
    if exterior:
        fs, fsp = pair_s.j, pair_s.jp
        fp_, fpp = pair_p.j, pair_p.jp
    else:
        fs, fsp = pair_s.h, pair_s.hp
        fp_, fpp = pair_p.h, pair_p.hp
    om2 = complex(omega) * complex(omega)
    pref_nu = -1j * math.pi / (4.0 * om2 * R)
    pref_t = -math.pi / (4.0 * om2 * R)
    wq_nu = pref_nu * n * zs * fs
    wp_nu = pref_nu * zp_ * zp_ * fpp
    wq_t = pref_t * zs * zs * fsp
    wp_t = pref_t * n * zp_ * fp_
    return ks, kp, wq_nu, wp_nu, wq_t, wp_t


def slp_trace(
    p: LameParams,
    omega: float,
    src_radius: float,
    n: int,
    eval_radius: float,
    exterior: bool | None = None,
) -> np.ndarray:
    """2x2 displacement matrix of the SLP on the circle src_radius at eval_radius.

    `exterior` selects the representation when eval_radius == src_radius
    (the trace is continuous, so both give the same value); off the circle
    it is inferred from the radii.
    """
    if exterior is None:
        exterior = eval_radius >= src_radius
    ks, kp, wq_nu, wp_nu, wq_t, wp_t = _source_factors(
        p, omega, src_radius, n, exterior
    )
    qk = WaveKind.Q_EXTERIOR if exterior else WaveKind.Q_INTERIOR
    pk = WaveKind.P_EXTERIOR if exterior else WaveKind.P_INTERIOR
    q = wave_coeffs(qk, n, ks, eval_radius)
    pp = wave_coeffs(pk, n, kp, eval_radius)
    col_nu = wq_nu * q + wp_nu * pp
    col_t = wq_t * q + wp_t * pp
    return np.column_stack([col_nu, col_t])


def slp_traction_offboundary(
    p: LameParams,
    omega: float,
    src_radius: float,
    n: int,
    eval_radius: float,
) -> np.ndarray:
    """Traction matrix of the SLP away from its own circle (no jump there)."""
    if eval_radius == src_radius:
        raise ValueError("use traction_matrix for the on-boundary limits")
    exterior = eval_radius > src_radius
    ks, kp, wq_nu, wp_nu, wq_t, wp_t = _source_factors(
        p, omega, src_radius, n, exterior
    )
    qk = WaveKind.Q_EXTERIOR if exterior else WaveKind.Q_INTERIOR
    pk = WaveKind.P_EXTERIOR if exterior else WaveKind.P_INTERIOR
    q = wave_traction_coeffs(qk, n, ks, eval_radius, p)
    pp = wave_traction_coeffs(pk, n, kp, eval_radius, p)
    col_nu = wq_nu * q + wp_nu * pp
    col_t = wq_t * q + wp_t * pp
    return np.column_stack([col_nu, col_t])


def mode_matrix_boundary(p: LameParams, omega: float, R: float, n: int) -> np.ndarray:
    """Boundary trace of the vector SLP: the (alpha_1..alpha_4) mode matrix."""
    return slp_trace(p, omega, R, n, R, exterior=True)


def traction_matrix(
    p: LameParams, omega: float, R: float, n: int, side: str = "exterior_limit"
) -> np.ndarray:
    """One-sided traction of the vector SLP on its own circle.

    The exterior limit is the (g_1..g_4) matrix; the interior limit is the
    exterior one minus the identity (traction jump of the single layer).
    """
    ks, kp, wq_nu, wp_nu, wq_t, wp_t = _source_factors(p, omega, R, n, True)
    q = wave_traction_coeffs(WaveKind.Q_EXTERIOR, n, ks, R, p)
    pp = wave_traction_coeffs(WaveKind.P_EXTERIOR, n, kp, R, p)
    g = np.column_stack([wq_nu * q + wp_nu * pp, wq_t * q + wp_t * pp])
    if side in ("exterior_limit", "exterior"):
        return g
    if side in ("interior_limit", "interior"):
        return g - _I2
    raise ValueError(f"unknown side {side!r}")


def vector_slp_eval(
    p: LameParams,
    omega: float,
    R: float,
    n: int,
    density: str,
    x,
    side: str | None = None,
) -> np.ndarray:
    """Displacement of the vector SLP with density e^{in theta} nu or t at x.

    Points on the circle need `side` ("interior" or "exterior") only for
    symmetry with the traction API; the displacement itself is continuous.
    """
    if density not in ("nu", "t"):
        raise ValueError(f"density must be 'nu' or 't', got {density!r}")
    r = _radius(x)
    if side is None:
        exterior = r >= R
    else:
        exterior = side in ("exterior", "exterior_limit")
    m = slp_trace(p, omega, R, n, r, exterior=exterior)
    col = m[:, 0] if density == "nu" else m[:, 1]
    return polar_to_cartesian(col, n, x)


class TwoRadiusBlocks(NamedTuple):
    """Couplings between the two circles of a core-shell structure.

    trace_inner / traction_inner: SLP living on r_outer evaluated on r_inner;
    trace_outer / traction_outer: SLP living on r_inner evaluated on r_outer.
    """

    trace_inner: np.ndarray
    traction_inner: np.ndarray
    trace_outer: np.ndarray
    traction_outer: np.ndarray


def two_radius_coupling(
    p: LameParams, omega: float, r_inner: float, r_outer: float, n: int
) -> TwoRadiusBlocks:
    """All four cross-circle blocks for a shell material p."""
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    return TwoRadiusBlocks(
        trace_inner=slp_trace(p, omega, r_outer, n, r_inner),
        traction_inner=slp_traction_offboundary(p, omega, r_outer, n, r_inner),
        trace_outer=slp_trace(p, omega, r_inner, n, r_outer),
        traction_outer=slp_traction_offboundary(p, omega, r_inner, n, r_outer),
    )


def _per_material(build, p):
    """Blocks `build(p)` of one material; for a batch of them, each block
    built entry by entry and stacked along a leading batch axis."""
    if isinstance(p, LameParams):
        return build(p)
    stacks = None
    for k, q in enumerate(p):
        blocks = build(q)
        if stacks is None:
            stacks = np.empty((len(blocks), len(p), 2, 2), dtype=complex)
        stacks[:, k] = blocks
    return stacks


def layered_system(
    materials: Sequence[LameParams | Sequence[LameParams]],
    radii: Sequence[float],
    omega: float,
    n: int,
) -> np.ndarray:
    """4L x 4L transmission system of L concentric interfaces for mode n.

    materials[0] fills the disk inside radii[0], materials[j] the annulus
    between radii[j-1] and radii[j], materials[L] the exterior.  Unknowns are
    (psi_j^in, psi_j^out) per circle j: the densities on radii[j] of the
    regions inside and outside it.  Row block j is the field of region j
    minus that of region j+1 at radii[j], trace rows then traction rows, so
    the incident data enter the right-hand side of the last block only.

    Batch axis: each materials[j] is one `LameParams`, shared by every
    system, or a sequence of B of them, one per system; with any sequence
    the result is the (B, 4L, 4L) stack.  A shared material's blocks are
    built once and broadcast over the stack; a batched material's blocks are
    built entry by entry with the same scalar block functions, so every
    system in the stack is bit for bit the one its entries give alone.
    """
    L = len(radii)
    if L < 1 or len(materials) != L + 1:
        raise ValueError("need at least one radius and one more material than radii")
    sizes = {len(p) for p in materials if not isinstance(p, LameParams)}
    if len(sizes) > 1 or 0 in sizes:
        raise ValueError("batched materials need one common, nonzero length")
    m = np.zeros((*sizes, 4 * L, 4 * L), dtype=complex)
    for j, r in enumerate(radii):
        a, b = 4 * j, 4 * j + 2  # trace/traction rows; psi_j^in/psi_j^out columns
        trace_in, traction_in = _per_material(
            lambda p: (
                mode_matrix_boundary(p, omega, r, n),
                traction_matrix(p, omega, r, n, "interior_limit"),
            ),
            materials[j],
        )
        trace_out, traction_out = _per_material(
            lambda p: (
                mode_matrix_boundary(p, omega, r, n),
                traction_matrix(p, omega, r, n, "exterior_limit"),
            ),
            materials[j + 1],
        )
        m[..., a : a + 2, a : a + 2] = trace_in
        m[..., b : b + 2, a : a + 2] = traction_in
        m[..., a : a + 2, b : b + 2] = -trace_out
        m[..., b : b + 2, b : b + 2] = -traction_out
    for j in range(1, L):  # annulus j couples psi_{j-1}^out and psi_j^in
        c = TwoRadiusBlocks(
            *_per_material(
                lambda p: two_radius_coupling(p, omega, radii[j - 1], radii[j], n),
                materials[j],
            )
        )
        a = 4 * j
        m[..., a - 4 : a - 2, a : a + 2] = -c.trace_inner
        m[..., a - 2 : a, a : a + 2] = -c.traction_inner
        m[..., a : a + 2, a - 2 : a] = c.trace_outer
        m[..., a + 2 : a + 4, a - 2 : a] = c.traction_outer
    return m


def region_energy(
    system: np.ndarray, densities: np.ndarray, radii: Sequence[float], k: int
) -> float:
    """Im of the boundary form of bounded region k of a solved layered system.

    2 pi r Im <traction, conj(trace)> on the region's outer circle minus the
    same on its inner one (none for the disk k = 0).  Both one-sided limits
    of region k's field are its columns of `system` applied to its two
    densities (psi_{k-1}^out, psi_k^in): row block k on the outer circle,
    row block k-1, where they enter negated, on the inner one.  Mode
    orthogonality keeps the circle integrals exact.
    """
    if not 0 <= k < len(radii):
        raise ValueError("region index must name a bounded region")
    x = np.ravel(densities)
    lo, hi = max(4 * k - 2, 0), 4 * k + 2
    total = 0.0
    for i, sign in ((k, 1.0), (k - 1, -1.0)):
        if i >= 0:
            rows = system[4 * i : 4 * i + 4, lo:hi]
            u, w = rows[:2] @ x[lo:hi], rows[2:] @ x[lo:hi]
            total += sign * 2.0 * math.pi * radii[i] * float(np.imag(np.vdot(u, w)))
    return total
