"""Block-by-block reference for `potentials._slp_blocks` and `layered_system`.

This is the composition the library used before its block kernel: per block,
the Q/P source weights, the two eval-side coefficient vectors (each built
with its own `cyl_pair` lookups) and a `column_stack` of the weighted sums;
per layered system, the blocks placed one interface and one annulus at a
time.  The kernel must reproduce it bit for bit, so every expression keeps
its operand order and its Python-scalar or numpy evaluation.
"""
from __future__ import annotations

import math

import numpy as np

from elastodisk.media import LameParams, wavenumbers
from elastodisk.specfun import cyl_pair

_I2 = np.eye(2, dtype=complex)


def wave_coeffs(shear: bool, interior: bool, n: int, k: complex, r: float):
    z = k * r
    pair = cyl_pair(n, z)
    f, fp = (pair.j, pair.jp) if interior else (pair.h, pair.hp)
    if shear:
        return np.array([2.0 * n * f / z, 2j * fp])
    return np.array([2.0 * fp, 2j * n * f / z])


def wave_traction_coeffs(
    shear: bool, interior: bool, n: int, k: complex, r: float, p: LameParams
):
    z = k * r
    pair = cyl_pair(n, z)
    f, fp = (pair.j, pair.jp) if interior else (pair.h, pair.hp)
    mu = p.mu
    omega2 = (mu if shear else (p.lam + 2.0 * mu)) * k * k
    edge = 4.0 * n * mu * (z * fp - f) / (k * r * r)
    body = 2.0 * ((2.0 * mu * n * n - omega2 * r * r) * f - 2.0 * mu * z * fp) / (
        k * r * r
    )
    if shear:
        return np.array([edge, 1j * body])
    return np.array([body, 1j * edge])


def source_factors(p: LameParams, omega: float, R: float, n: int, exterior: bool):
    wn = wavenumbers(p, omega)
    ks, kp = wn.ks, wn.kp
    zs, zp_ = ks * R, kp * R
    pair_s, pair_p = cyl_pair(n, zs), cyl_pair(n, zp_)
    if exterior:
        fs, fsp, fp_, fpp = pair_s.j, pair_s.jp, pair_p.j, pair_p.jp
    else:
        fs, fsp, fp_, fpp = pair_s.h, pair_s.hp, pair_p.h, pair_p.hp
    om2 = complex(omega) * complex(omega)
    pref_nu = -1j * math.pi / (4.0 * om2 * R)
    pref_t = -math.pi / (4.0 * om2 * R)
    return (
        ks,
        kp,
        pref_nu * n * zs * fs,
        pref_nu * zp_ * zp_ * fpp,
        pref_t * zs * zs * fsp,
        pref_t * n * zp_ * fp_,
    )


def blocks(p: LameParams, omega: float, R: float, n: int, r: float, exterior: bool):
    """(trace, traction) of the SLP on the circle R read at r, no jump."""
    ks, kp, wq_nu, wp_nu, wq_t, wp_t = source_factors(p, omega, R, n, exterior)
    out = []
    for coeffs in (wave_coeffs, wave_traction_coeffs):
        extra = (p,) if coeffs is wave_traction_coeffs else ()
        q = coeffs(True, not exterior, n, ks, r, *extra)
        pp = coeffs(False, not exterior, n, kp, r, *extra)
        out.append(np.column_stack([wq_nu * q + wp_nu * pp, wq_t * q + wp_t * pp]))
    return tuple(out)


def traction_interior(p: LameParams, omega: float, R: float, n: int):
    return blocks(p, omega, R, n, R, True)[1] - _I2


def layered_system(materials, radii, omega: float, n: int) -> np.ndarray:
    """One unbatched system, placed as the library placed it block by block."""
    L = len(radii)
    m = np.zeros((4 * L, 4 * L), dtype=complex)
    for j, r in enumerate(radii):
        a, b = 4 * j, 4 * j + 2
        trace_in = blocks(materials[j], omega, r, n, r, True)[0]
        traction_in = traction_interior(materials[j], omega, r, n)
        trace_out, traction_out = blocks(materials[j + 1], omega, r, n, r, True)
        m[a : a + 2, a : a + 2] = trace_in
        m[b : b + 2, a : a + 2] = traction_in
        m[a : a + 2, b : b + 2] = -trace_out
        m[b : b + 2, b : b + 2] = -traction_out
    for j in range(1, L):
        p, r_in, r_out = materials[j], radii[j - 1], radii[j]
        trace_inner, traction_inner = blocks(p, omega, r_out, n, r_in, False)
        trace_outer, traction_outer = blocks(p, omega, r_in, n, r_out, True)
        a = 4 * j
        m[a - 4 : a - 2, a : a + 2] = -trace_inner
        m[a - 2 : a, a : a + 2] = -traction_inner
        m[a : a + 2, a - 2 : a] = trace_outer
        m[a + 2 : a + 4, a - 2 : a] = traction_outer
    return m
