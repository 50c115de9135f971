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

One code runs in two arithmetics.  Each |z| <= 8 algorithm (the J series,
the Y_0/Y_1 series, the continued fraction and the closure `_jh_series`)
is written once and runs on a Python complex or on a numpy array.
`cyl_pair` is the scalar path: Python complex arithmetic, cached, and each
loop a plain `break`.  `cyl_pairs` is the array path: one numpy pass over
many arguments at a common order for the two |z| <= 8 branches; arguments
with |z| > 8 go through `cyl_pair` one at a time.  On an array the stop
test is a mask, and `_Lanes` records the finished elements and carries
only the live ones forward, so every element stops at the step where the
scalar loop breaks and its value depends on that argument alone, whatever
else the batch holds.  numpy's complex arithmetic rounds differently from
Python's (FMA on AVX-512 hosts), so the two paths agree to rounding, not
bit for bit: within 1e-12 relative, except at the J + iY corner above,
where the cancellation lifts the gap to about 3e-12.  `elastodisk
selfcheck` checks that agreement.

All functions are pure and safe to call from any number of threads.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

EULER_GAMMA = 0.5772156649015328606
# Relative error bound of every path, as the mpmath checks enforce it.
RELATIVE_ENVELOPE = 5e-12

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


class _Lanes:
    """Element bookkeeping for a loop run on an array (on a Python complex
    `lanes` is False and the loop a plain `break`).

    `carry` records the result of every element whose stop test is met and
    drops it from the result and the state, so the loop goes on with the
    live elements alone and each element stops at the step where the
    scalar loop breaks.
    """

    def __init__(self, z: np.ndarray):
        self.at = np.arange(z.size)
        self.out = np.empty(z.size, dtype=complex)

    def carry(self, done, result, *state):
        """(whether no element is left, result, *state) of the live elements."""
        if not done.any():
            return False, result, *state
        self.out[self.at[done]] = result[done]
        keep = ~done
        self.at = self.at[keep]
        return not self.at.size, result[keep], *(x[keep] for x in state)

    def close(self, result):
        self.out[self.at] = result
        return self.out


def _j_sum(q: complex, m: int) -> complex:
    """sum_k q^k / (k! (m+1)...(m+k)), the ascending series of J_m without
    its (z/2)^m / m! prefactor, q = -z^2/4."""
    lanes = isinstance(q, np.ndarray) and _Lanes(q)
    term = total = 1.0 + 0j
    for k in range(1, 80):
        term = term * (q / (k * (m + k)))
        total = total + term
        done = abs(term) <= 1e-18 * abs(total)
        if lanes:
            done, total, term, q, m = lanes.carry(done, total, term, q, m)
        if done:
            break
    return lanes.close(total) if lanes else total


def _j_series(orders, z: complex, logs: complex) -> dict[int, complex]:
    """J_n at each of the distinct orders n >= 0 from the ascending series,
    given logs = log(z/2).  Reliable for 0 < |z| <~ 10.  On an array the
    orders run as one loop, z tiled once per order."""
    xp = np if isinstance(z, np.ndarray) else cmath
    q = -0.25 * z * z
    if xp is np:
        m = np.repeat(np.asarray(orders, dtype=float), z.size)
        sums = np.split(_j_sum(np.tile(q, len(orders)), m), len(orders))
    else:
        sums = [_j_sum(q, n) for n in orders]
    # (z/2)^n / n! via exp/lgamma so large n neither overflows nor loses
    # the phase; principal log is fine in our argument sector.
    return {n: xp.exp(n * logs - math.lgamma(n + 1)) * s
            for n, s in zip(orders, sums)}


def _y01_series(z: complex, lg: complex, j0: complex,
                j1: complex) -> tuple[complex, complex]:
    """Y_0 and Y_1 from their log expansions, given lg = log(z/2) + gamma;
    companion to _j_series."""
    q = mq = -0.25 * z * z  # (-z^2/4)
    # Y0 = (2/pi) (lg*J0 - sum_{k>=1} h_k (-z^2/4)^k / (k!)^2)
    lanes = isinstance(z, np.ndarray) and _Lanes(z)
    s = 0.0 + 0j
    t = 1.0 + 0j
    h = 0.0
    for k in range(1, 80):
        t = t * (q / (k * k))
        h += 1.0 / k
        s = s + h * t
        at = abs(t)  # stop at |t| <= 1e-18 max(1, |s|)
        done = (at <= 1e-18) | (at <= 1e-18 * abs(s))
        if lanes:
            done, s, t, q = lanes.carry(done, s, t, q)
        if done:
            break
    s = lanes.close(s) if lanes else s
    y0 = (2.0 / math.pi) * (lg * j0 - s)
    # Y1 = (2/pi) lg*J1 - 2/(pi z)
    #      - (1/pi) sum_{k>=0} (h_k + h_{k+1}) (z/2)(-z^2/4)^k / (k! (k+1)!)
    lanes = isinstance(z, np.ndarray) and _Lanes(z)
    q = mq
    r = 0.5 * z
    h_k = 0.0
    h_k1 = 1.0
    s1 = r * (h_k + h_k1)
    for k in range(1, 80):
        r = r * (q / (k * (k + 1)))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1)
        s1 = s1 + (h_k + h_k1) * r
        ar = abs(r)  # stop at |r| <= 1e-18 max(1, |s1|)
        done = (ar <= 1e-18) | (ar <= 1e-18 * abs(s1))
        if lanes:
            done, s1, r, q = lanes.carry(done, s1, r, q)
        if done:
            break
    s1 = lanes.close(s1) if lanes else s1
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
    lanes = isinstance(z, np.ndarray) and _Lanes(z)
    x = z
    f = c = tiny
    d = 0.0 + 0j
    for k in range(1, _MAX_CF_ITER + 1):
        a = (k - 0.5) ** 2
        b = 2.0 * (x + k * 1j)
        d = b + a * d
        c = b + a / c
        if lanes:  # Lentz's guard: a zero denominator becomes tiny
            d[d == 0] = tiny
            c[c == 0] = tiny
        else:
            d = d or tiny
            c = c or tiny
        d = 1.0 / d
        delta = c * d
        f = f * delta
        done = abs(delta - 1.0) < 1e-16
        if lanes:
            done, f, c, d, x = lanes.carry(done, f, c, d, x)
        if done:
            break
    f = lanes.close(f) if lanes else f
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


def _jh_series(nmax: int, z: complex, jiy: bool) -> tuple[complex, ...]:
    """J_{nmax-1}, J_nmax, H_{nmax-1}, H_nmax for nmax >= 1, Im z >= 0 and
    0 < |z| <= 8: H = J + iY when jiy (Im z <= 3), else H_0 from the
    continued fraction closed with the Wronskian."""
    logs = (np if isinstance(z, np.ndarray) else cmath).log(0.5 * z)
    j = _j_series(list(dict.fromkeys((0, 1, nmax - 1, nmax))), z, logs)
    if jiy:
        y0, y1 = _y01_series(z, logs + EULER_GAMMA, j[0], j[1])
        ya, yb = _upward_top(nmax, z, y0, y1)
        return j[nmax - 1], j[nmax], j[nmax - 1] + 1j * ya, j[nmax] + 1j * yb
    r2 = _cf2_direct(z)
    h0 = (2j / (math.pi * z)) / (j[0] * r2 + j[1])  # J0' = -J1
    return j[nmax - 1], j[nmax], *_upward_top(nmax, z, h0, -r2 * h0)


def _jh_top(nmax: int, z: complex) -> tuple[complex, complex, complex, complex]:
    """J_{nmax-1}, J_nmax, H_{nmax-1}, H_nmax for nmax >= 1, Im z >= 0, z != 0."""
    absz = abs(z)
    if absz <= _SERIES_RADIUS:
        return _jh_series(nmax, z, z.imag <= _JIY_IM_LIMIT)

    f, ja = _miller_down(nmax, z)
    if absz >= _ASYMP_RADIUS:
        h0, h1 = _h01_asymptotic(z)
        scale = (2j / (math.pi * z)) / (f[1] * h0 - f[0] * h1)
    else:
        if z.imag <= _JA_IM_LIMIT:
            scale = 1.0 / ja
        else:
            scale = _j_series((0,), z, cmath.log(0.5 * z))[0] / f[0]
        j0 = scale * f[0]
        j1 = scale * f[1]
        r2 = _cf2_direct(z)
        h0 = (2j / (math.pi * z)) / (j0 * r2 + j1)
        h1 = -r2 * h0
    return scale * f[nmax - 1], scale * f[nmax], *_upward_top(nmax, z, h0, h1)


def _ladder(n: int, z: complex, j_lo, j_hi, h_lo, h_hi) -> tuple[complex, ...]:
    """(J_n, J_n', H_n, H_n') from the rungs n-1 and n (0 and 1 when n = 0)."""
    if n == 0:
        return j_lo, -j_hi, h_lo, -h_hi
    return j_hi, j_lo - (n / z) * j_hi, h_hi, h_lo - (n / z) * h_hi


@lru_cache(maxsize=1 << 14)
def _pair_upper(n: int, z: complex) -> CylPair:
    """(J_n, J_n', H_n, H_n') for n >= 0, Im z >= 0, z != 0."""
    return CylPair(*_ladder(n, z, *_jh_top(max(n, 1), z)))


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


def cyl_pairs(n: int, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """J_n, J_n', H_n, H_n' at every argument of zs, as four complex arrays.

    Entry i agrees with `cyl_pair(n, zs[i])` to rounding (see the module
    notes) and has the same bits in any batch.  A -0.0 part of an argument
    counts as +0.0 here too; a non-finite or zero argument raises that
    call's ValueError for the whole batch, the first such argument's.
    """
    z = np.array(zs, dtype=complex)
    if not np.isfinite(z).all():
        _checked(z[np.argmin(np.isfinite(z))])  # raises the scalar path's error
    if not z.all():
        cyl_pair(n, 0j)  # likewise
    z = z + 0.0  # -0.0 parts read as +0.0, exact for nonzero parts
    m = abs(int(n))
    lower = z.imag < 0.0
    w = np.where(lower, z.conjugate(), z)
    small = np.abs(w) <= _SERIES_RADIUS
    out = np.empty((4, z.size), dtype=complex)
    with np.errstate(all="ignore"):
        if small.any():
            # `_pair_upper` and the tail of `cyl_pair`, on arrays
            ws = w[small]
            top = np.empty((4, ws.size), dtype=complex)
            jiy = ws.imag <= _JIY_IM_LIMIT
            for sel in (jiy, ~jiy):
                if sel.any():
                    top[:, sel] = _jh_series(max(m, 1), ws[sel], sel is jiy)
            jv, jd, hv, hd = _ladder(m, ws, *top)
            low = lower[small]
            jv = np.where(low, jv.conjugate(), jv)
            jd = np.where(low, jd.conjugate(), jd)
            hv = np.where(low, 2.0 * jv - hv.conjugate(), hv)
            hd = np.where(low, 2.0 * jd - hd.conjugate(), hd)
            out[:, small] = jv, jd, hv, hd
        for i in np.flatnonzero(~small):
            out[:, i] = cyl_pair(m, z[i])
    if n < 0 and m % 2 == 1:
        out = -out
    return tuple(out)
