"""Material parameters, wavenumbers and branch conventions.

All lengths are relative to the reference radius supplied by the caller;
no unit normalisation happens here.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DegenerateMaterialError(ValueError):
    """mu = 0 or lambda + 2 mu = 0: wavenumbers are undefined."""


class Convexity(enum.Enum):
    REGULAR = "regular"
    NEGATIVE = "negative"
    LOSSY = "lossy"


@dataclass(frozen=True)
class LameParams:
    """Complex Lame pair (lam, mu); mu is the shear modulus."""

    lam: complex
    mu: complex

    def __post_init__(self):
        for name in ("lam", "mu"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"non-finite Lame parameter {name}={v!r}")
            object.__setattr__(self, name, v)

    def scaled(self, c: complex) -> "LameParams":
        """Both parameters multiplied by the same contrast factor c."""
        return LameParams(c * self.lam, c * self.mu)


def convexity_check(p: LameParams) -> Convexity:
    """Classify a parameter pair.

    REGULAR: real pair satisfying mu > 0 and 2*lam + 2*mu > 0 (plane strain,
    N = 2).  NEGATIVE: real pair violating either condition.  LOSSY: any
    nonzero imaginary part (the real part may additionally be NEGATIVE; use
    `convexity_check(LameParams(p.lam.real, p.mu.real))` to interrogate it).
    """
    if p.lam.imag != 0.0 or p.mu.imag != 0.0:
        return Convexity.LOSSY
    if p.mu.real > 0.0 and 2.0 * p.lam.real + 2.0 * p.mu.real > 0.0:
        return Convexity.REGULAR
    return Convexity.NEGATIVE


@dataclass(frozen=True)
class Wavenumbers:
    """Shear and pressure wavenumbers at frequency omega (arrays for a batch)."""

    ks: complex
    kp: complex
    omega: float


def _branch_root(w: complex) -> complex:
    # Principal square root flipped so that Im >= 0; exact ties resolved
    # to Re > 0 (outgoing Hankel fields decay under losses); per entry.
    array = isinstance(w, np.ndarray)
    r = (np if array else cmath).sqrt(w)
    flip = (r.imag < 0.0) | ((r.imag == 0.0) & (r.real < 0.0))
    return np.where(flip, -r, r) if array else (-r if flip else r)


def wavenumbers(p: LameParams | Sequence[LameParams], omega: float) -> Wavenumbers:
    """ks = omega/sqrt(mu), kp = omega/sqrt(lam + 2 mu), branch Im k >= 0.

    A sequence of materials gives arrays, the same roots in numpy: each
    entry has the same bits in any batch and is its material's own call to
    rounding, except a non-finite entry, which is that call and raises.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not isinstance(p, LameParams):
        lam, mu = np.array([(q.lam, q.mu) for q in p], dtype=complex).T.copy()
        with np.errstate(all="ignore"):
            ks = _branch_root(omega * omega / mu)
            kp = _branch_root(omega * omega / (lam + 2.0 * mu))
        for i in np.flatnonzero(~(np.isfinite(ks) & np.isfinite(kp))):
            wn = wavenumbers(p[i], omega)  # raises, unless numpy alone overflowed
            ks[i], kp[i] = wn.ks, wn.kp
        return Wavenumbers(ks=ks, kp=kp, omega=float(omega))
    if p.mu == 0:
        raise DegenerateMaterialError("mu = 0")
    if p.lam + 2.0 * p.mu == 0:
        raise DegenerateMaterialError("lam + 2 mu = 0")
    ks = _branch_root(omega * omega / p.mu)
    kp = _branch_root(omega * omega / (p.lam + 2.0 * p.mu))
    if not (cmath.isfinite(ks) and cmath.isfinite(kp)):
        raise DegenerateMaterialError(
            f"wavenumbers overflow for moduli {p.mu!r}, {p.lam + 2 * p.mu!r}"
        )
    return Wavenumbers(ks=ks, kp=kp, omega=float(omega))


@dataclass(frozen=True)
class AnnulusGeometry:
    """Core radius r_inner and shell radius r_outer, 0 < r_inner < r_outer."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not (0.0 < self.r_inner < self.r_outer):
            raise ValueError(
                f"need 0 < r_inner < r_outer, got ({self.r_inner}, {self.r_outer})"
            )

    @property
    def critical_radius(self) -> float:
        """sqrt(r_outer**3 / r_inner): sources inside it trigger CALR; always
        exceeds r_outer."""
        return math.sqrt(self.r_outer**3 / self.r_inner)
