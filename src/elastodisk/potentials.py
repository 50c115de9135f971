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

Every block comes from one kernel, `_slp_blocks`, in two stages: a scalar
stage per material (wavenumbers, cylinder pairs, weights and entries in
Python complex arithmetic) and an array stage over the whole batch (the
weighted sums and the traction jump in numpy).  Each step stays in the stage
it ran in before the batch axis existed: on an AVX-512 CPU numpy's complex
multiply and divide (FMA) differ from Python's in the last bit for about 43%
of random operands, while numpy agrees with itself for any length or stride
as long as the operand order is kept.
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


def _trace_entries(shear: bool, n: int, z: complex, f: complex, fp: complex):
    """(nu, t) displacement entries of Q_n (shear) or P_n from f_n(z), f_n'(z)."""
    if shear:
        return 2.0 * n * f / z, 2j * fp
    return 2.0 * fp, 2j * n * f / z


def _traction_entries(
    shear: bool, n: int, k: complex, r: float, z: complex, f: complex, fp: complex,
    p: LameParams,
):
    """(nu, t) traction entries of Q_n (shear) or P_n at r, z = k r."""
    mu = p.mu
    omega2 = (mu if shear else (p.lam + 2.0 * mu)) * k * k
    edge = 4.0 * n * mu * (z * fp - f) / (k * r * r)
    body = 2.0 * ((2.0 * mu * n * n - omega2 * r * r) * f - 2.0 * mu * z * fp) / (
        k * r * r
    )
    if shear:
        return edge, 1j * body
    return body, 1j * edge


def _radial(pair, entire: bool) -> tuple[complex, complex]:
    """(f, f') of a `CylPair`: J for entire fields, H for radiating ones."""
    return (pair.j, pair.jp) if entire else (pair.h, pair.hp)


def wave_coeffs(kind: WaveKind, n: int, k: complex, r: float) -> np.ndarray:
    """(nu, t) displacement coefficients of Q_n or P_n at radius r.

    Q_n = 2n f_n(kr)/(kr) e^{in t} nu + 2i f_n'(kr) e^{in t} t,
    P_n = 2 f_n'(kr) e^{in t} nu + 2in f_n(kr)/(kr) e^{in t} t,
    with f = J for interior kinds and f = H for exterior kinds.
    """
    if r <= 0.0:
        raise ValueError("evaluation radius must be positive")
    z = k * r
    f, fp = _radial(cyl_pair(n, z), kind.is_interior)
    return np.array(_trace_entries(kind.is_shear, n, z, f, fp))


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
    f, fp = _radial(cyl_pair(n, z), kind.is_interior)
    return np.array(_traction_entries(kind.is_shear, n, k, r, z, f, fp, p))


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


def _slp_blocks(p, omega: float, n: int, links) -> np.ndarray:
    """Trace and traction blocks of the vector SLP for each link, per material.

    A link (R, r, exterior, jump) is the SLP on the circle R read at radius
    r, in the exterior representation (Bessel source weights, Hankel fields;
    needed when r > R) or the interior one; `jump` takes the interior limit
    of the traction on the SLP's own circle.  Returns (K, 4, 2), the 2x2
    trace over the 2x2 traction per link, or (B, K, 4, 2) for a sequence of
    B materials.  Scalar stage, per entry: one `wavenumbers`, one `cyl_pair`
    per distinct k r, and per link 12 Python scalars, the weights (wq_nu,
    wq_t, wp_nu, wp_t) then the Q and P entries (trace nu, t, traction nu,
    t), in a preallocated (B, K, 12) array.  Array stage: the column of
    density c is wq_c Q + wp_c P, then - I.
    """
    batch = not isinstance(p, LameParams)
    for R, r, _, _ in links:
        if R <= 0.0 or r <= 0.0:
            raise ValueError("evaluation radius must be positive")
    om2 = complex(omega) * complex(omega)
    rows = np.empty((len(p) if batch else 1, len(links), 12), dtype=complex)
    for b, q in enumerate(p if batch else (p,)):
        wn = wavenumbers(q, omega)
        ks, kp = wn.ks, wn.kp
        pairs = {}
        for i, (R, r, exterior, _) in enumerate(links):
            for x in (R, r):
                if x not in pairs:
                    pairs[x] = (cyl_pair(n, ks * x), cyl_pair(n, kp * x))
            fs, fsp = _radial(pairs[R][0], exterior)
            fp, fpp = _radial(pairs[R][1], exterior)
            pref_nu = -1j * math.pi / (4.0 * om2 * R)
            pref_t = -math.pi / (4.0 * om2 * R)
            zs, zp = ks * R, kp * R
            g, gp = _radial(pairs[r][0], not exterior)
            h, hp = _radial(pairs[r][1], not exterior)
            ws, wp = ks * r, kp * r
            rows[b, i] = (
                pref_nu * n * zs * fs,
                pref_t * zs * zs * fsp,
                pref_nu * zp * zp * fpp,
                pref_t * n * zp * fp,
                *_trace_entries(True, n, ws, g, gp),
                *_traction_entries(True, n, ks, r, ws, g, gp, q),
                *_trace_entries(False, n, wp, h, hp),
                *_traction_entries(False, n, kp, r, wp, h, hp, q),
            )
    # Weights first: numpy's complex multiply (FMA) is not commutative bitwise.
    blocks = rows[..., None, 0:2] * rows[..., 4:8, None]
    blocks += rows[..., None, 2:4] * rows[..., 8:12, None]
    jumps = [i for i, link in enumerate(links) if link[3]]
    if jumps:
        blocks[:, jumps, 2:] -= _I2
    return blocks if batch else blocks[0]


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
    return _slp_blocks(p, omega, n, [(src_radius, eval_radius, exterior, False)])[0, :2]


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
    link = (src_radius, eval_radius, eval_radius > src_radius, False)
    return _slp_blocks(p, omega, n, [link])[0, 2:]


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
    if side not in ("exterior_limit", "exterior", "interior_limit", "interior"):
        raise ValueError(f"unknown side {side!r}")
    jump = side.startswith("interior")
    return _slp_blocks(p, omega, n, [(R, R, True, jump)])[0, 2:]


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
    links = [(r_outer, r_inner, False, False), (r_inner, r_outer, True, False)]
    inner, outer = _slp_blocks(p, omega, n, links)
    return TwoRadiusBlocks(inner[:2], inner[2:], outer[:2], outer[2:])


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
    built by the same kernel, entry by entry up to the array stage, so every
    system in the stack is bit for bit the one its entries give alone.
    """
    L = len(radii)
    if L < 1 or len(materials) != L + 1:
        raise ValueError("need at least one radius and one more material than radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("need 0 < r_inner < r_outer")
    sizes = {len(p) for p in materials if not isinstance(p, LameParams)}
    if len(sizes) > 1 or 0 in sizes:
        raise ValueError("batched materials need one common, nonzero length")
    m = np.zeros((*sizes, 4 * L, 4 * L), dtype=complex)
    for j, p in enumerate(materials):
        # Region j meets circle j-1 from outside and circle j from inside.
        # The SLP of circle s read on circle e fills row block e (negated
        # when region j is the outer side of e) and the columns of
        # psi_s^in (s == j) or psi_s^out (s == j-1).
        circles = [i for i in (j - 1, j) if 0 <= i < L]
        pairs = [(e, s) for e in circles for s in circles]
        links = [(radii[s], radii[e], e >= s, e == s == j) for e, s in pairs]
        blocks = _slp_blocks(p, omega, n, links)
        for k, (e, s) in enumerate(pairs):
            col = 4 * s + 2 * (s < j)
            blk = blocks[..., k, :, :]
            m[..., 4 * e : 4 * e + 4, col : col + 2] = blk if e == j else -blk
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
