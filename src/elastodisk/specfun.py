"""Integer-order Bessel J_n and first-kind Hankel H_n for complex arguments.

Scalar, pure double precision.  The evaluation region is split so that every
path stays below 5e-12 relative error, the bound the mpmath checks enforce,
on the validated envelope |n| <= 200 (values permitting), |z| in [1e-2, 1e2],
arg z in (-pi/2, pi/2].  Screened against mpmath, the worst points sit at
the branch switches: 3.7e-12 near |z| = 17 with Im z ~ 5.3, and one known
excess, H at the corner of the J + iY path (|z| ~ 7.6-8, Im z ~ 3.6-4),
which reaches 7.9e-12:

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

`cyl_pairs` is the array path: one pass over many arguments at a common
order, each result bit for bit what `cyl_pair` returns for that argument.
It covers the two |z| <= 8 branches (the J + iY series with the upward Y
recurrence, and the continued-fraction closure for Im z > 4); arguments
with |z| > 8 go through the cached scalar path one at a time.  numpy's
complex multiply and divide use FMA on AVX-512 hosts and differ from
Python's in the last bit for a large share of operands, so the array path
keeps real and imaginary parts in separate float64 arrays and replays
CPython 3.11's complex arithmetic on them (`_Cx`): products without FMA,
Smith's division, abs through hypot, and real operands promoted to
complex(x, 0.0).  The transcendentals (cmath.log, cmath.exp,
math.lgamma) stay Python scalar calls, and every element's series,
continued fraction and recurrence stops at the step where the scalar loop
breaks.  The emulation rests on the interpreter's complex rules (Python
3.14 changed the mixed real/complex ones); `elastodisk selfcheck` counts
the mismatches on a fixed grid and fails on any.

All functions are pure and safe to call from any number of threads.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    Runs unchanged on `_Cx` arrays, the array path's complex type.
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
def _pair_upper(n: int, z: complex) -> tuple[complex, complex, complex, complex]:
    """(J_n, J_n', H_n, H_n') for n >= 0, Im z >= 0, z != 0."""
    j_lo, j_hi, h_lo, h_hi = _jh_top(max(n, 1), z)
    if n == 0:
        return j_lo, -j_hi, h_lo, -h_hi
    jp = j_lo - (n / z) * j_hi
    hp = h_lo - (n / z) * h_hi
    return j_hi, jp, h_hi, hp


def cyl_pair(n: int, z) -> CylPair:
    """J_n(z), H_n(z) and derivatives; negative orders via (-1)^n symmetry.

    A -0.0 part of z counts as +0.0.
    """
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
    """J_n(z) for integer n and finite complex z: `cyl_pair`'s J, and the
    exact values at z = 0."""
    z = _checked(z)
    if z != 0:
        return cyl_pair(n, z).j
    val = 1.0 + 0j if n == 0 else 0.0 + 0j
    return -val if n < 0 and n % 2 == 1 else val


def hankel1(n: int, z) -> complex:
    """H_n(z) = J_n(z) + i Y_n(z), first kind; z = 0 is rejected."""
    return cyl_pair(n, z).h


# -- array path --------------------------------------------------------------


def _quot(ar, ai, br, bi) -> "_Cx":
    """a / b as CPython 3.11's _Py_c_quot computes it (Smith's algorithm):
    scaled by b.real where |b.real| >= |b.imag|, else by b.imag where
    |b.imag| >= |b.real|, else (a NaN part) NaN."""
    abs_br, abs_bi = np.abs(br), np.abs(bi)
    if np.any((abs_br == 0.0) & (abs_bi == 0.0)):
        raise ZeroDivisionError("complex division by zero")
    by_re, by_im = abs_br >= abs_bi, abs_bi > abs_br
    if not np.all(by_im):
        ratio = bi / br
        denom = br + bi * ratio
        first = _Cx((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)
        if np.all(by_re):
            return first
    ratio = br / bi
    denom = br * ratio + bi
    second = _Cx((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)
    if np.all(by_im):
        return second
    return _Cx(
        np.where(by_re, first.re, np.where(by_im, second.re, np.nan)),
        np.where(by_re, first.im, np.where(by_im, second.im, np.nan)),
    )


def _parts(o):
    if isinstance(o, _Cx):
        return o.re, o.im
    if isinstance(o, complex):
        return o.real, o.imag
    return (float(o) if np.ndim(o) == 0 else np.asarray(o, dtype=float)), 0.0


class _Cx:
    """A complex array as two float64 arrays, with CPython 3.11's complex
    arithmetic: a real or int operand is complex(x, 0.0), products are
    ar*br - ai*bi and ar*bi + ai*br (no FMA), division is `_quot`, abs is
    hypot.  Both products and sums are commutative bit for bit in IEEE
    arithmetic, so the reflected operators reuse the forward ones."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    @classmethod
    def full(cls, size: int, x: float) -> "_Cx":
        return cls(np.full(size, x), np.zeros(size))

    @classmethod
    def of(cls, values) -> "_Cx":
        a = np.array(values, dtype=complex)
        return cls(a.real.copy(), a.imag.copy())

    def __add__(self, o):
        br, bi = _parts(o)
        return _Cx(self.re + br, self.im + bi)

    __radd__ = __add__

    def __sub__(self, o):
        br, bi = _parts(o)
        return _Cx(self.re - br, self.im - bi)

    def __rsub__(self, o):
        ar, ai = _parts(o)
        return _Cx(ar - self.re, ai - self.im)

    def __mul__(self, o):
        br, bi = _parts(o)
        ar, ai = self.re, self.im
        return _Cx(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _quot(self.re, self.im, *_parts(o))

    def __rtruediv__(self, o):
        return _quot(*_parts(o), self.re, self.im)

    def __neg__(self):
        return _Cx(-self.re, -self.im)

    def __abs__(self):
        return np.hypot(self.re, self.im)

    def __getitem__(self, k):
        return _Cx(self.re[k], self.im[k])

    def __setitem__(self, k, v):
        self.re[k], self.im[k] = _parts(v)

    def conjugate(self):
        return _Cx(self.re, -self.im)

    def complex(self) -> np.ndarray:
        out = np.empty(np.shape(self.re), dtype=complex)
        out.real, out.imag = self.re, self.im
        return out


def _loop(step, ks, *state):
    """A scalar loop with a data-dependent `break`, run element by element.

    For k in ks, step(k, *state) returns the new state and a mask of the
    elements whose loop breaks at this k; those elements keep that state
    and take no further step.  Returns state[0] per element.
    """
    live = np.arange(state[0].re.size)
    out = _Cx.full(live.size, np.nan)
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


def _at_least_one(x):
    return np.where(x > 1.0, x, 1.0)  # max(1.0, x), which maps NaN to 1.0


def _j_series_arr(orders, z: _Cx, logs) -> dict[int, _Cx]:
    """`_j_series` at each order for every element of z (|z| <= 8)."""
    nz = len(logs)

    def step(k, total, term, q, m):
        term = term * (q / (k * (m + k)))
        total = total + term
        return (total, term, q, m), abs(term) <= 1e-18 * abs(total)

    q = -0.25 * z * z
    q = _Cx(np.tile(q.re, len(orders)), np.tile(q.im, len(orders)))
    one = _Cx.full(q.re.size, 1.0)
    m = np.repeat(np.asarray(orders, dtype=float), nz)
    total = _loop(step, range(1, 80), one, one, q, m)
    res = {}
    for i, n in enumerate(orders):
        lg = math.lgamma(n + 1)
        pref = _Cx.of([cmath.exp(n * x - lg) for x in logs])
        res[n] = pref * total[i * nz:(i + 1) * nz]
    return res


def _y01_series_arr(z: _Cx, logs, j0: _Cx, j1: _Cx) -> tuple[_Cx, _Cx]:
    """`_y01_series` for every element of z."""
    h = h_k = 0.0
    h_k1 = 1.0

    def y0_step(k, s, t, q):
        nonlocal h
        t = t * (q / (k * k))
        h += 1.0 / k
        s = s + h * t
        return (s, t, q), abs(t) <= 1e-18 * _at_least_one(abs(s))

    def y1_step(k, s1, r, q):
        nonlocal h_k, h_k1
        r = r * (q / (k * (k + 1)))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1)
        s1 = s1 + (h_k + h_k1) * r
        return (s1, r, q), abs(r) <= 1e-18 * _at_least_one(abs(s1))

    lg = _Cx.of([x + EULER_GAMMA for x in logs])
    mq = -0.25 * z * z
    size = len(logs)
    s = _loop(y0_step, range(1, 80), _Cx.full(size, 0.0), _Cx.full(size, 1.0), mq)
    y0 = (2.0 / math.pi) * (lg * j0 - s)
    r = 0.5 * z
    s1 = _loop(y1_step, range(1, 80), r * (h_k + h_k1), r, mq)
    y1 = (2.0 / math.pi) * lg * j1 - 2.0 / (math.pi * z) - s1 / math.pi
    return y0, y1


def _cf2_direct_arr(z: _Cx) -> _Cx:
    """`_cf2_direct` for every element of z."""
    tiny = 1e-290

    def step(k, f, c, d, z):
        a = (k - 0.5) ** 2
        b = 2.0 * (z + k * 1j)
        d = _reset_zeros(b + a * d, tiny)
        c = _reset_zeros(b + a / c, tiny)
        d = 1.0 / d
        delta = c * d
        f = f * delta
        return (f, c, d, z), abs(delta - 1.0) < 1e-16

    # f and c start as the float tiny and d as 0j; a float x acts as
    # complex(x, 0.0) in every operation it meets here
    start, zero = _Cx.full(z.re.size, tiny), _Cx.full(z.re.size, 0.0)
    f = _loop(step, range(1, _MAX_CF_ITER + 1), start, start, zero, z)
    return -0.5 / z + 1j + (1j / z) * f


def _reset_zeros(x: _Cx, tiny: float) -> _Cx:
    """`if x == 0: x = tiny` of the Lentz loop, element by element."""
    zero = (x.re == 0.0) & (x.im == 0.0)
    if zero.any():
        x.re[zero], x.im[zero] = tiny, 0.0
    return x


def _jh_top_arr(nmax: int, w: list[complex]) -> tuple[_Cx, _Cx, _Cx, _Cx]:
    """`_jh_top` for arguments with Im w >= 0 and 0 < |w| <= 8."""
    z = _Cx.of(w)
    logs = [cmath.log(0.5 * x) for x in w]
    j = _j_series_arr(list(dict.fromkeys((0, 1, nmax - 1, nmax))), z, logs)
    jiy = z.im <= _JIY_IM_LIMIT
    h = [_Cx.full(len(w), np.nan) for _ in range(2)]
    for sel, series in ((np.flatnonzero(jiy), True), (np.flatnonzero(~jiy), False)):
        if not sel.size:
            continue
        zs = z[sel]
        j0, j1 = j[0][sel], j[1][sel]
        if series:
            y0, y1 = _y01_series_arr(zs, [logs[i] for i in sel], j0, j1)
            ya, yb = _upward_top(nmax, zs, y0, y1)
            lo = j[nmax - 1][sel] + 1j * ya
            hi = j[nmax][sel] + 1j * yb
        else:
            r2 = _cf2_direct_arr(zs)
            h0 = (2j / (math.pi * zs)) / (j0 * r2 + j1)
            lo, hi = _upward_top(nmax, zs, h0, -r2 * h0)
        h[0][sel], h[1][sel] = lo, hi
    return j[nmax - 1], j[nmax], h[0], h[1]


def cyl_pairs(n: int, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """J_n, J_n', H_n, H_n' at every argument of zs, as four complex arrays.

    Entry i is bit for bit `cyl_pair(n, zs[i])`, a -0.0 part of the
    argument counting as +0.0 there too; a non-finite or zero argument
    raises that call's ValueError for the whole batch.
    """
    zs = [_checked(z) for z in zs]
    if 0 in zs:
        cyl_pair(n, 0j)  # raises the scalar path's error
    m = abs(int(n))
    lower = np.array([z.imag < 0.0 for z in zs], dtype=bool)
    w = [z.conjugate() if z.imag < 0.0 else z for z in zs]
    small = np.array([abs(x) <= _SERIES_RADIUS for x in w], dtype=bool)
    out = [_Cx.full(len(zs), np.nan) for _ in range(4)]
    sel = np.flatnonzero(small)
    with np.errstate(all="ignore"):
        if sel.size:
            ws = [w[i] for i in sel]
            # the tails of `_pair_upper` and `cyl_pair`, on arrays
            j_lo, j_hi, h_lo, h_hi = _jh_top_arr(max(m, 1), ws)
            if m == 0:
                quad = [j_lo, -j_hi, h_lo, -h_hi]
            else:
                zw = _Cx.of(ws)
                quad = [j_hi, j_lo - (m / zw) * j_hi, h_hi, h_lo - (m / zw) * h_hi]
            low = lower[sel]
            if low.any():
                cj, cjp, ch, chp = (x[low] for x in quad)
                jv = cj.conjugate()
                jd = cjp.conjugate()
                for x, v in zip(quad, (jv, jd, 2.0 * jv - ch.conjugate(),
                                       2.0 * jd - chp.conjugate())):
                    x[low] = v
            for o, x in zip(out, quad):
                o[sel] = x
        for i in np.flatnonzero(~small):
            p = cyl_pair(m, zs[i])
            for o, v in zip(out, (p.j, p.jp, p.h, p.hp)):
                o[i] = v
        if n < 0 and m % 2 == 1:
            out = [-o for o in out]
    return tuple(o.complex() for o in out)
