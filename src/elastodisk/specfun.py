"""Integer-order Bessel J_n and first-kind Hankel H_n for complex arguments.

Scalar, pure double precision.  The evaluation region is split so that every
path stays below ~1e-12 relative error on the validated envelope
|n| <= 200 (values permitting), |z| in [1e-2, 1e2], arg z in (-pi/2, pi/2]:

* Im z < 0 is mapped to the upper half plane through
  J_n(z) = conj(J_n(conj z)) and H_n(z) = 2 J_n(z) - conj(H_n(conj z));
  both are additions of like-sized quantities there.
* |z| <= 8:   ascending series for J_n; H_n = J_n + i Y_n with the Y_0/Y_1
  log series and upward recurrence while Im z <= 4 (the J + iY subtraction
  loses a factor exp(2 Im z), harmless in that strip), else H_0 through the
  continued fraction for H_0'/H_0 closed with the Wronskian.
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

All functions are pure and safe to call from any number of threads.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

EULER_GAMMA = 0.5772156649015328606

_SERIES_RADIUS = 8.0
_ASYMP_RADIUS = 17.0
_JIY_IM_LIMIT = 4.0
_JA_IM_LIMIT = 5.0
_RESCALE_LIMIT = 1e250
_MAX_CF_ITER = 5000


@dataclass(frozen=True)
class CylPair:
    """J_n, H_n and their derivatives at a common complex argument."""

    j: complex
    jp: complex
    h: complex
    hp: complex
    order: int
    arg: complex


def _checked(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite argument z={z!r}")
    return z


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
    """f_{nmax-1}, f_nmax by upward recurrence (stable for the dominant solution)."""
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
def _pair_upper(n: int, z: complex) -> tuple[complex, complex, complex, complex]:
    """(J_n, J_n', H_n, H_n') for n >= 0, Im z >= 0, z != 0."""
    j_lo, j_hi, h_lo, h_hi = _jh_top(max(n, 1), z)
    if n == 0:
        return j_lo, -j_hi, h_lo, -h_hi
    jp = j_lo - (n / z) * j_hi
    hp = h_lo - (n / z) * h_hi
    return j_hi, jp, h_hi, hp


def cyl_pair(n: int, z) -> CylPair:
    """J_n(z), H_n(z) and derivatives; negative orders via (-1)^n symmetry."""
    z = _checked(z)
    if z == 0:
        raise ValueError("Hankel functions are singular at z = 0")
    m = abs(int(n))
    if z.imag >= 0.0:
        jv, jd, hv, hd = _pair_upper(m, z)
    else:
        cj, cjp, ch, chp = _pair_upper(m, z.conjugate())
        jv = cj.conjugate()
        jd = cjp.conjugate()
        hv = 2.0 * jv - ch.conjugate()
        hd = 2.0 * jd - chp.conjugate()
    if n < 0 and m % 2 == 1:
        jv, jd, hv, hd = -jv, -jd, -hv, -hd
    return CylPair(j=jv, jp=jd, h=hv, hp=hd, order=int(n), arg=z)


def bessel_j(n: int, z) -> complex:
    """J_n(z) for integer n and finite complex z."""
    z = _checked(z)
    m = abs(int(n))
    if z == 0:
        val = 1.0 + 0j if m == 0 else 0.0 + 0j
    elif abs(z) <= _SERIES_RADIUS:
        w = z if z.imag >= 0.0 else z.conjugate()
        val = _j_series(m, w)
        if z.imag < 0.0:
            val = val.conjugate()
    else:
        val = cyl_pair(m, z).j
    if n < 0 and m % 2 == 1:
        val = -val
    return val


def hankel1(n: int, z) -> complex:
    """H_n(z) = J_n(z) + i Y_n(z), first kind; z = 0 is rejected."""
    return cyl_pair(n, z).h
