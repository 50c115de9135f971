"""Closed-form single-layer-potential machinery on circles.

Everything is expressed in the per-mode boundary frame: a density
a_nu e^{in theta} nu + a_t e^{in theta} t on a circle is the coefficient
pair (a_nu, a_t), and every 2x2 matrix here maps such pairs to pairs of the
same form (columns act on the nu- and t-components respectively).

The vector single-layer potential is evaluated through its decomposition
into shear/pressure wave basis fields (Q and P families) rather than the
raw two-sideband Hankel expressions: fewer cancellations, and one code path
serves field evaluation, boundary matrices and the two-radius couplings of
the core-shell system alike; the incident field of `nocore` is built from
the same Q/P entry formulas.  `layered_system` assembles the transmission
system of any number of concentric interfaces from these blocks, and
`region_energy` reads a region's dissipation back off that system.

Every block comes from one kernel, `_slp_blocks`.  Its entry stage
(wavenumbers, cylinder values, one per-link text for the weights and the
Q/P entries) runs on Python complex values and the cached `cyl_pair` for a
single material, the scalar path bit for bit, and on numpy arrays with one
`cyl_pairs` call for a batch; its array stage sums and jumps in numpy.  As
every step works entry by entry, a batched system has the same bits in any
batch, a batch of one included, and is its single-material build to the
rounding of cylinder values and entries.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .media import LameParams, wavenumbers
from .specfun import cyl_pair, cyl_pairs

_I2 = np.eye(2, dtype=complex)


def _trace_entries(shear: bool, n: int, z: complex, f: complex, fp: complex):
    """(nu, t) displacement entries of Q_n (shear) or P_n from f_n(z), f_n'(z).

    Q_n = 2n f_n(kr)/(kr) e^{in t} nu + 2i f_n'(kr) e^{in t} t,
    P_n = 2 f_n'(kr) e^{in t} nu + 2in f_n(kr)/(kr) e^{in t} t,
    with f = J for entire (interior) fields and f = H for radiating ones.
    """
    if shear:
        return 2.0 * n * f / z, 2j * fp
    return 2.0 * fp, 2j * n * f / z


def _traction_entries(
    shear: bool, n: int, k: complex, r: float, z: complex, f: complex, fp: complex,
    lam: complex, mu: complex,
):
    """(nu, t) traction entries of Q_n (shear) or P_n at r, z = k r.

    The material enters through mu and through omega^2 r^2, recovered from
    k and the Lame pair, so callers never pass an inconsistent frequency.
    """
    omega2 = (mu if shear else (lam + 2.0 * mu)) * k * k
    edge = 4.0 * n * mu * (z * fp - f) / (k * r * r)
    body = 2.0 * ((2.0 * mu * n * n - omega2 * r * r) * f - 2.0 * mu * z * fp) / (
        k * r * r
    )
    if shear:
        return edge, 1j * body
    return body, 1j * edge


def _radial(pair, entire: bool) -> tuple[complex, complex]:
    """(f, f') of a cylinder pair, one or (4, B): J if entire, else H."""
    return pair[:2] if entire else pair[2:]


def _radius(x) -> float:
    r = math.hypot(float(x[0]), float(x[1]))
    if r == 0.0:
        raise ValueError("fields are evaluated away from the origin")
    return r


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
    B materials.  Entry stage: the wavenumbers, the cylinder values at k r
    for each distinct radius, then per link 12 entries, the weights (wq_nu,
    wq_t, wp_nu, wp_t) then the Q and P entries (trace nu, t, traction nu,
    t): Python scalars for one material, (B,) arrays for a sequence, which
    raises as a whole for a degenerate entry.  Array stage: the column of
    density c is wq_c Q + wp_c P, then - I.
    """
    single = isinstance(p, LameParams)
    radii = list(dict.fromkeys(x for link in links for x in link[:2]))
    if min(radii) <= 0.0:
        raise ValueError("evaluation radius must be positive")
    om2 = complex(omega) * complex(omega)
    wn = wavenumbers(p, omega)
    ks, kp = wn.ks, wn.kp
    if single:
        lam, mu = p.lam, p.mu
        pairs = {x: (cyl_pair(n, ks * x), cyl_pair(n, kp * x)) for x in radii}
    else:
        lam, mu = np.array([(q.lam, q.mu) for q in p], dtype=complex).T.copy()
        args = np.concatenate([k * x for x in radii for k in (ks, kp)])
        values = np.reshape(cyl_pairs(n, args), (4, len(radii), 2, -1))
        pairs = dict(zip(radii, values.transpose(1, 2, 0, 3)))
    # B outermost, as for the array stage; a batch is filled through (K, 12, B)
    rows = np.empty((len(links), 12) if single else (len(ks), len(links), 12), complex)
    fill = rows if single else rows.transpose(1, 2, 0)
    for i, (R, r, exterior, _) in enumerate(links):
        fs, fsp = _radial(pairs[R][0], exterior)
        fp, fpp = _radial(pairs[R][1], exterior)
        pref_nu = -1j * math.pi / (4.0 * om2 * R)
        pref_t = -math.pi / (4.0 * om2 * R)
        zs, zp = ks * R, kp * R
        g, gp = _radial(pairs[r][0], not exterior)
        h, hp = _radial(pairs[r][1], not exterior)
        ws, wp = ks * r, kp * r
        fill[i] = (
            pref_nu * n * zs * fs,
            pref_t * zs * zs * fsp,
            pref_nu * zp * zp * fpp,
            pref_t * n * zp * fp,
            *_trace_entries(True, n, ws, g, gp),
            *_traction_entries(True, n, ks, r, ws, g, gp, lam, mu),
            *_trace_entries(False, n, wp, h, hp),
            *_traction_entries(False, n, kp, r, wp, h, hp, lam, mu),
        )
    # Weights first: numpy's complex multiply (FMA) is not commutative bitwise.
    blocks = rows[..., None, 0:2] * rows[..., 4:8, None]
    blocks += rows[..., None, 2:4] * rows[..., 8:12, None]
    jumps = [i for i, link in enumerate(links) if link[3]]
    if jumps:
        blocks[..., jumps, 2:, :] -= _I2
    return blocks


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


def traction_matrix(
    p: LameParams, omega: float, R: float, n: int, side: str = "exterior_limit"
) -> np.ndarray:
    """One-sided traction of the vector SLP on its own circle.

    The exterior limit is the (g_1..g_4) matrix; the interior limit is the
    exterior one minus the identity (traction jump of the single layer).
    """
    if side not in ("exterior_limit", "interior_limit"):
        raise ValueError(f"unknown side {side!r}")
    return _slp_blocks(p, omega, n, [(R, R, True, side == "interior_limit")])[0, 2:]


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
    built by the same kernel in array arithmetic end to end.  A batched
    system has the same bits in any batch, a batch of one included; a
    build from single materials alone is the scalar path bit for bit, and
    agrees with the batched one to the rounding of the cylinder values and
    the entries.
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
) -> float | np.ndarray:
    """Im of the boundary form of bounded region k of a solved layered system.

    2 pi r Im <traction, conj(trace)> on the region's outer circle minus the
    same on its inner one (none for the disk k = 0).  Both one-sided limits
    of region k's field are its columns of `system` applied to its two
    densities (psi_{k-1}^out, psi_k^in): row block k on the outer circle,
    row block k-1, where they enter negated, on the inner one.  Mode
    orthogonality keeps the circle integrals exact.

    Stacks: (..., 4L, 4L) systems with (..., 2L, 2) densities give one
    energy per system, a float for one system.  The products are matmuls in
    one operand order, so a system's energy has the same bits in any stack.
    """
    if not 0 <= k < len(radii):
        raise ValueError("region index must name a bounded region")
    lo, hi = max(4 * k - 2, 0), 4 * k + 2
    x = np.reshape(densities, (*np.shape(densities)[:-2], -1, 1))[..., lo:hi, :]
    total = 0.0
    for i, sign in ((k, 1.0), (k - 1, -1.0)):
        if i >= 0:
            rows = system[..., 4 * i : 4 * i + 4, lo:hi]
            u, w = rows[..., :2, :] @ x, rows[..., 2:, :] @ x
            uw = np.swapaxes(u.conj(), -1, -2) @ w
            total += sign * 2.0 * math.pi * radii[i] * uw[..., 0, 0].imag
    return total if np.ndim(total) else float(total)
