"""Integer-order Bessel J_n and first-kind Hankel H_n for complex arguments.

Pure double precision.  The evaluation region is split so that every path
stays below 5e-12 relative error, the bound the mpmath checks enforce, on
the validated envelope |n| <= 200 (values permitting), |z| in [1e-2, 1e2],
arg z in (-pi/2, pi/2].  Screened against mpmath, the worst points sit at
the branch switches: 3.7e-12 near |z| = 17 with Im z ~ 5.3, and 3.0e-12 at
the corner of the J + iY path (|z| ~ 7.6-8, Im z ~ 2.6-3):

* Im z < 0 is mapped to the upper half plane through
  J_n(z) = conj(J_n(conj z)) and H_n(z) = 2 J_n(z) - conj(H_n(conj z));
  both are additions of like-sized quantities there.
* |z| <= 8:   ascending series for J_n; H_n = J_n + i Y_n with the Y_0/Y_1
  log series and upward recurrence while Im z <= 3 (the J + iY subtraction
  loses a factor exp(2 Im z), harmless in that strip), else H_0 through the
  continued fraction for H_0'/H_0 closed with the Wronskian (below 1e-14
  against mpmath for 3 < Im z <= 4, |z| in 2-8).
* 8 < |z| < 17: Miller backward recurrence for J.  The normalising value
  is the Jacobi-Anger sum J_0 + 2 sum J_2k = 1 when Im z <= 5 and the
  (cancellation-free there) J_0 series otherwise.  H_0 again from the
  continued fraction plus Wronskian closure.
* |z| >= 17:  H_0, H_1 from the outgoing asymptotic series (truncation error
  below exp(-2|z|)); the Miller J rungs are normalised against them through
  the cross Wronskian J_1 H_0 - J_0 H_1 = 2i/(pi z), which never cancels.

A pair at order n reads J and H at rungs n-1 and n (0 and 1 when n = 0).
Every branch evaluates J only at those rungs and the seed rungs 0 and 1, and
the recurrences (H upward from H_0, H_1; Miller downward) carry two running
values, so a cache miss costs O(n) recurrence steps but at most four series.

Derivatives always come from the three-term ladder f_n' = f_{n-1} - n f_n/z,
never from finite differences.  Orders so large that the true value
over/underflows double precision propagate inf/0 in the IEEE way.

`cyl_pair` is the scalar path, in Python complex arithmetic and cached.
`cyl_pairs` is the array path: one numpy pass over many arguments at a
common order for the two |z| <= 8 branches; arguments with |z| > 8 go
through `cyl_pair` one at a time.  It runs the scalar algorithms, and every
element's series, continued fraction and recurrence stops at the step
where the scalar loop breaks, so an element's value depends on that
argument alone, whatever else the batch holds.  numpy's complex arithmetic
rounds differently from Python's (FMA on AVX-512 hosts), so the two paths
agree to rounding, not bit for bit: within 1e-12 relative, except at the
J + iY corner above, where the cancellation lifts the gap to about 3e-12.
`elastodisk selfcheck` checks that agreement.

All functions are pure and safe to call from any number of threads.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_SERIES_RADIUS = 8.0
_ASYMP_RADIUS = 17.0
_JIY_IM_LIMIT = 3.0
_JA_IM_LIMIT = 5.0
_RESCALE_LIMIT = 1e250
_MAX_CF_ITER = 5000


class CylPair(NamedTuple):
    """J_n, H_n and their derivatives at a common complex argument."""

    j: complex
    jp: complex
    h: complex
    hp: complex


def _checked(z) -> complex:
    """z as a finite complex with any -0.0 part made +0.0, so the cache,
    keyed by value, never hands one signed-zero twin the other's results."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite argument z={z!r}")
    if z.real and z.imag:
        return z
    return complex(z.real + 0.0, z.imag + 0.0)


def _j_series(n: int, z: complex) -> complex:
    """Ascending series for J_n, n >= 0.  Reliable for |z| <~ 10."""
    if z == 0:
        return 1.0 + 0j if n == 0 else 0.0 + 0j
    # (z/2)^n / n! via exp/lgamma so large n neither overflows nor loses
    # the phase; principal log is fine in our argument sector.
    pref = cmath.exp(n * cmath.log(0.5 * z) - math.lgamma(n + 1))
    q = -0.25 * z * z
    term = 1.0 + 0j
    total = term
    for k in range(1, 80):
        term *= q / (k * (n + k))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return pref * total


def _y01_series(z: complex, j0: complex, j1: complex) -> tuple[complex, complex]:
    """Y_0 and Y_1 from their log expansions; companion to _j_series."""
    lg = cmath.log(0.5 * z) + EULER_GAMMA
    mq = -0.25 * z * z  # (-z^2/4)
    # Y0 = (2/pi) (lg*J0 - sum_{k>=1} h_k (-z^2/4)^k / (k!)^2)
    s = 0.0 + 0j
    t = 1.0 + 0j
    h = 0.0
    for k in range(1, 80):
        t *= mq / (k * k)
        h += 1.0 / k
        s += h * t
        if abs(t) <= 1e-18 * max(1.0, abs(s)):
            break
    y0 = (2.0 / math.pi) * (lg * j0 - s)
    # Y1 = (2/pi) lg*J1 - 2/(pi z)
    #      - (1/pi) sum_{k>=0} (h_k + h_{k+1}) (z/2)(-z^2/4)^k / (k! (k+1)!)
    r = 0.5 * z
    h_k = 0.0
    h_k1 = 1.0
    s1 = r * (h_k + h_k1)
    for k in range(1, 80):
        r *= mq / (k * (k + 1))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1)
        s1 += (h_k + h_k1) * r
        if abs(r) <= 1e-18 * max(1.0, abs(s1)):
            break
    y1 = (2.0 / math.pi) * lg * j1 - 2.0 / (math.pi * z) - s1 / math.pi
    return y0, y1


def _h01_asymptotic(z: complex) -> tuple[complex, complex]:
    """H_0 and H_1 from the outgoing large-|z| expansion, |z| >= 17."""
    out = []
    for nu in (0, 1):
        fournu2 = 4.0 * nu * nu
        term = 1.0 + 0j
        total = term
        prev = abs(term)
        for k in range(1, 40):
            term *= 1j * (fournu2 - (2 * k - 1) ** 2) / (8.0 * k * z)
            mag = abs(term)
            if mag >= prev:  # past the optimal truncation point
                break
            total += term
            prev = mag
            if mag <= 1e-18 * abs(total):
                break
        phase = cmath.exp(1j * (z - 0.5 * nu * math.pi - 0.25 * math.pi))
        out.append(cmath.sqrt(2.0 / (math.pi * z)) * phase * total)
    return out[0], out[1]


def _cf2_direct(z: complex) -> complex:
    """H_0'(z)/H_0(z): -1/(2z) + i + (i/z) * K_{k>=1} a_k / b_k.

    a_k = (k - 1/2)^2, b_k = 2(z + k i); modified Lentz.  Converges for
    |z| >~ 2 with Im z >= 0 (the only regime it is called in).
    """
    tiny = 1e-290
    # modified Lentz for K = a1/(b1 + a2/(b2 + ...))
    f = tiny
    c = f
    d = 0.0 + 0j
    for k in range(1, _MAX_CF_ITER + 1):
        a = (k - 0.5) ** 2
        b = 2.0 * (z + k * 1j)
        d = b + a * d
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return -0.5 / z + 1j + (1j / z) * f


def _miller_down(nmax: int, z: complex) -> tuple[dict[int, complex], complex]:
    """Unnormalised J rungs f[0, 1, nmax-1, nmax] plus the Jacobi-Anger sum."""
    absz = abs(z)
    top = max(nmax, int(absz))
    start = top + 24 + int(1.6 * math.sqrt(top + 1.0))
    f = dict.fromkeys((0, 1, nmax - 1, nmax), 0j)
    fp1 = 0.0 + 0j  # f_{m+1}
    fc = 1e-290 + 0j  # f_m
    ja = 0.0 + 0j
    m = start
    while m > 0:
        fm1 = (2.0 * m / z) * fc - fp1  # f_{m-1}
        fp1 = fc
        fc = fm1
        m -= 1
        if m in f:
            f[m] = fc
        if m >= 2 and m % 2 == 0:
            ja += 2.0 * fc
        if abs(fc.real) > _RESCALE_LIMIT or abs(fc.imag) > _RESCALE_LIMIT:
            scale = 1e-250
            fc *= scale
            fp1 *= scale
            ja *= scale
            for i in f:
                if i >= m:
                    f[i] *= scale
    ja += f[0]
    return f, ja


def _upward_top(nmax: int, z: complex,
                f0: complex, f1: complex) -> tuple[complex, complex]:
    """f_{nmax-1}, f_nmax by upward recurrence (stable for the dominant solution).

    Runs unchanged on the complex arrays of the array path.
    """
    for m in range(1, nmax):
        f0, f1 = f1, (2.0 * m / z) * f1 - f0
    return f0, f1


def _jh_top(nmax: int, z: complex) -> tuple[complex, complex, complex, complex]:
    """J_{nmax-1}, J_nmax, H_{nmax-1}, H_nmax for nmax >= 1, Im z >= 0, z != 0."""
    absz = abs(z)
    if absz <= _SERIES_RADIUS:
        j = {m: _j_series(m, z) for m in (0, 1, nmax - 1, nmax)}
        if z.imag <= _JIY_IM_LIMIT:
            y0, y1 = _y01_series(z, j[0], j[1])
            ya, yb = _upward_top(nmax, z, y0, y1)
            return j[nmax - 1], j[nmax], j[nmax - 1] + 1j * ya, j[nmax] + 1j * yb
        r2 = _cf2_direct(z)
        h0 = (2j / (math.pi * z)) / (j[0] * r2 + j[1])  # J0' = -J1
        return j[nmax - 1], j[nmax], *_upward_top(nmax, z, h0, -r2 * h0)

    f, ja = _miller_down(nmax, z)
    if absz >= _ASYMP_RADIUS:
        h0, h1 = _h01_asymptotic(z)
        scale = (2j / (math.pi * z)) / (f[1] * h0 - f[0] * h1)
    else:
        if z.imag <= _JA_IM_LIMIT:
            scale = 1.0 / ja
        else:
            scale = _j_series(0, z) / f[0]
        j0 = scale * f[0]
        j1 = scale * f[1]
        r2 = _cf2_direct(z)
        h0 = (2j / (math.pi * z)) / (j0 * r2 + j1)
        h1 = -r2 * h0
    return scale * f[nmax - 1], scale * f[nmax], *_upward_top(nmax, z, h0, h1)


@lru_cache(maxsize=1 << 14)
def _pair_upper(n: int, z: complex) -> CylPair:
    """(J_n, J_n', H_n, H_n') for n >= 0, Im z >= 0, z != 0."""
    j_lo, j_hi, h_lo, h_hi = _jh_top(max(n, 1), z)
    if n == 0:
        return CylPair(j_lo, -j_hi, h_lo, -h_hi)
    return CylPair(j_hi, j_lo - (n / z) * j_hi, h_hi, h_lo - (n / z) * h_hi)


def cyl_pair(n: int, z) -> CylPair:
    """J_n(z), H_n(z) and derivatives; negative orders via (-1)^n symmetry.

    A -0.0 part of z counts as +0.0.
    """
    z = _checked(z)
    if z == 0:
        raise ValueError("Hankel functions are singular at z = 0")
    m = abs(int(n))
    if z.imag >= 0.0:
        pair = _pair_upper(m, z)
    else:
        cj, cjp, ch, chp = _pair_upper(m, z.conjugate())
        jv = cj.conjugate()
        jd = cjp.conjugate()
        pair = CylPair(jv, jd, 2.0 * jv - ch.conjugate(), 2.0 * jd - chp.conjugate())
    if n < 0 and m % 2 == 1:
        pair = CylPair(*(-v for v in pair))
    return pair


def bessel_j(n: int, z) -> complex:
    """J_n(z) for integer n and finite complex z: `cyl_pair`'s J, and the
    exact values at z = 0."""
    z = _checked(z)
    if z != 0:
        return cyl_pair(n, z).j
    val = 1.0 + 0j if n == 0 else 0.0 + 0j
    return -val if n < 0 and n % 2 == 1 else val


# -- array path --------------------------------------------------------------


def _loop(step, ks, *state):
    """A scalar loop with a data-dependent `break`, run element by element.

    For k in ks, step(k, *state) returns the new state and a mask of the
    elements whose loop breaks at this k; those elements keep that state
    and take no further step.  Returns state[0] per element.
    """
    live = np.arange(state[0].size)
    out = np.full(live.size, np.nan, dtype=complex)
    for k in ks:
        state, done = step(k, *state)
        if done.any():
            out[live[done]] = state[0][done]
            keep = ~done
            live, state = live[keep], [x[keep] for x in state]
            if not live.size:
                return out
    out[live] = state[0]
    return out


def _j_series_arr(orders, z: np.ndarray, logs: np.ndarray) -> dict[int, np.ndarray]:
    """`_j_series` at each order for every element of z (|z| <= 8), given
    logs = log(z/2)."""

    def step(k, total, term, q, m):
        term = term * (q / (k * (m + k)))
        total = total + term
        return (total, term, q, m), np.abs(term) <= 1e-18 * np.abs(total)

    q = np.tile(-0.25 * z * z, len(orders))
    m = np.repeat(np.asarray(orders, dtype=float), z.size)
    one = np.ones(q.size, dtype=complex)
    total = _loop(step, range(1, 80), one, one, q, m)
    return {
        n: np.exp(n * logs - math.lgamma(n + 1)) * t
        for n, t in zip(orders, np.split(total, len(orders)))
    }


def _y01_series_arr(z, lg, j0, j1) -> tuple[np.ndarray, np.ndarray]:
    """`_y01_series` for every element of z, given lg = log(z/2) + gamma."""
    h = h_k = 0.0
    h_k1 = 1.0

    def y0_step(k, s, t, q):
        nonlocal h
        t = t * (q / (k * k))
        h += 1.0 / k
        s = s + h * t
        return (s, t, q), np.abs(t) <= 1e-18 * np.fmax(np.abs(s), 1.0)

    def y1_step(k, s1, r, q):
        nonlocal h_k, h_k1
        r = r * (q / (k * (k + 1)))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1)
        s1 = s1 + (h_k + h_k1) * r
        return (s1, r, q), np.abs(r) <= 1e-18 * np.fmax(np.abs(s1), 1.0)

    mq = -0.25 * z * z
    s = _loop(y0_step, range(1, 80), np.zeros_like(z), np.ones_like(z), mq)
    y0 = (2.0 / math.pi) * (lg * j0 - s)
    r = 0.5 * z
    s1 = _loop(y1_step, range(1, 80), r * (h_k + h_k1), r, mq)
    y1 = (2.0 / math.pi) * lg * j1 - 2.0 / (math.pi * z) - s1 / math.pi
    return y0, y1


def _cf2_direct_arr(z: np.ndarray) -> np.ndarray:
    """`_cf2_direct` for every element of z."""
    tiny = 1e-290

    def step(k, f, c, d, z):
        a = (k - 0.5) ** 2
        b = 2.0 * (z + k * 1j)
        d = b + a * d
        d[d == 0] = tiny
        c = b + a / c
        c[c == 0] = tiny
        d = 1.0 / d
        delta = c * d
        return (f * delta, c, d, z), np.abs(delta - 1.0) < 1e-16

    start = np.full(z.size, tiny, dtype=complex)
    f = _loop(step, range(1, _MAX_CF_ITER + 1), start, start, np.zeros_like(z), z)
    return -0.5 / z + 1j + (1j / z) * f


def _jh_top_arr(nmax: int, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_jh_top` for arguments with Im z >= 0 and 0 < |z| <= 8."""
    logs = np.log(0.5 * z)
    j = _j_series_arr(list(dict.fromkeys((0, 1, nmax - 1, nmax))), z, logs)
    h = np.empty((2, z.size), dtype=complex)
    jiy = z.imag <= _JIY_IM_LIMIT
    for sel in (jiy, ~jiy):
        if not sel.any():
            continue
        zs, j0, j1 = z[sel], j[0][sel], j[1][sel]
        if sel is jiy:
            y0, y1 = _y01_series_arr(zs, logs[sel] + EULER_GAMMA, j0, j1)
            ya, yb = _upward_top(nmax, zs, y0, y1)
            h[:, sel] = j[nmax - 1][sel] + 1j * ya, j[nmax][sel] + 1j * yb
        else:
            r2 = _cf2_direct_arr(zs)
            h0 = (2j / (math.pi * zs)) / (j0 * r2 + j1)
            h[:, sel] = _upward_top(nmax, zs, h0, -r2 * h0)
    return j[nmax - 1], j[nmax], h[0], h[1]


def cyl_pairs(n: int, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """J_n, J_n', H_n, H_n' at every argument of zs, as four complex arrays.

    Entry i agrees with `cyl_pair(n, zs[i])` to rounding (see the module
    notes) and has the same bits in any batch.  A -0.0 part of an argument
    counts as +0.0 here too; a non-finite or zero argument raises that
    call's ValueError for the whole batch.
    """
    zs = [_checked(z) for z in zs]
    if 0 in zs:
        cyl_pair(n, 0j)  # raises the scalar path's error
    m = abs(int(n))
    z = np.array(zs, dtype=complex)
    lower = z.imag < 0.0
    w = np.where(lower, z.conjugate(), z)
    small = np.abs(w) <= _SERIES_RADIUS
    out = np.empty((4, z.size), dtype=complex)
    with np.errstate(all="ignore"):
        if small.any():
            # the tails of `_pair_upper` and `cyl_pair`, on arrays
            ws = w[small]
            j_lo, j_hi, h_lo, h_hi = _jh_top_arr(max(m, 1), ws)
            if m == 0:
                jv, jd, hv, hd = j_lo, -j_hi, h_lo, -h_hi
            else:
                jv, jd = j_hi, j_lo - (m / ws) * j_hi
                hv, hd = h_hi, h_lo - (m / ws) * h_hi
            low = lower[small]
            jv = np.where(low, jv.conjugate(), jv)
            jd = np.where(low, jd.conjugate(), jd)
            hv = np.where(low, 2.0 * jv - hv.conjugate(), hv)
            hd = np.where(low, 2.0 * jd - hd.conjugate(), hd)
            out[:, small] = jv, jd, hv, hd
        for i in np.flatnonzero(~small):
            out[:, i] = cyl_pair(m, zs[i])
    if n < 0 and m % 2 == 1:
        out = -out
    return tuple(out)
