"""Built-in invariant suite: cylinder-function identities and quadrature
agreement, runnable from the command line without the test harness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import LayeredField
from .media import LameParams
from .potentials import scalar_slp_mode
from .quadrature import scalar_slp_quadrature, vector_slp_quadrature
from .specfun import cyl_pair, cyl_pairs


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.worst < self.bound


def wronskian_check(
    orders=range(0, 61, 4),
    radii=None,
    args=(0.0, 0.7, 1.2),
    bound: float = 1e-10,
) -> CheckResult:
    """Scaled Wronskian residual over the physical argument sector.

    Negative-argument rays are excluded here: for Im z < 0 both J and H
    grow like exp|Im z| and the identity is not representable in doubles
    (see the package notes); the library self-check covers the sector
    actually reached by physical wavenumbers.
    """
    if radii is None:
        radii = np.logspace(-2, 2, 13)
    worst = 0.0
    for n in orders:
        for r in radii:
            for a in args:
                z = complex(r * math.cos(a), r * math.sin(a))
                p = cyl_pair(n, z)
                w = (p.j * p.hp - p.jp * p.h - 2j / (math.pi * z)) * (
                    math.pi * z / 2.0
                )
                worst = max(worst, abs(w))
    return CheckResult("wronskian", worst, bound)


def recurrence_check(
    orders=range(1, 61, 4),
    radii=None,
    args=(-1.2, 0.0, 0.7, 1.2),
    bound: float = 1e-9,
) -> CheckResult:
    """Relative three-term recurrence residual for J and H."""
    if radii is None:
        radii = np.logspace(-2, 2, 13)
    worst = 0.0
    for n in orders:
        for r in radii:
            for a in args:
                z = complex(r * math.cos(a), r * math.sin(a))
                pm, p0, pp = cyl_pair(n - 1, z), cyl_pair(n, z), cyl_pair(n + 1, z)
                for f0, f1, f2 in ((pm.j, p0.j, pp.j), (pm.h, p0.h, pp.h)):
                    den = max(abs(f0), abs(f2))
                    if den == 0 or not math.isfinite(den):
                        continue
                    res = abs(f0 + f2 - (2.0 * n / z) * f1) / den
                    worst = max(worst, res)
    return CheckResult("recurrence", worst, bound)


def array_path_check(
    orders=(0, 1, 5, 25, 60, 200, -3),
    radii=None,
    args=(-1.2, 0.0, 0.7, 1.2, math.pi / 2, 2.5),
    bound: float = 1e-12,
) -> CheckResult:
    """Largest relative difference between `cyl_pairs` and `cyl_pair`.

    One code runs in two arithmetics: each |z| <= 8 algorithm is written
    once and runs in numpy for `cyl_pairs` and in Python complex arithmetic
    for `cyl_pair`, so the paths differ by rounding alone.  The grid covers both
    |z| <= 8 branches, the Im z = 3 switch and the arguments beyond |z| = 8
    that the array path hands back to `cyl_pair`.  It stays off the corner
    |z| > 7, Im z ~ 3, where the J + iY cancellation lifts the difference
    to about 3e-12 (both paths within 5e-12 of mpmath there).  An entry
    equal (or nan) on both paths counts as 0, one finite on one path only
    as inf.
    """
    if radii is None:
        radii = np.logspace(-2, 1.2, 17)
    zs = [complex(r * math.cos(a), r * math.sin(a)) for r in radii for a in args]
    zs += [complex(x, 3.0) for x in (0.5, 3.0, 6.0)]
    worst = 0.0
    with np.errstate(all="ignore"):
        for n in orders:
            have = np.array(cyl_pairs(n, zs))
            want = np.array([cyl_pair(n, z) for z in zs]).T
            gap = np.abs(have - want) / np.abs(want)
            same = (have == want) | (np.isnan(have) & np.isnan(want))
            gap = np.where(same, 0.0, np.nan_to_num(gap, nan=np.inf))
            worst = max(worst, float(np.max(gap)))
    return CheckResult("array_path", worst, bound)


def scalar_quadrature_check(trials: int = 6, seed: int = 11, bound: float = 1e-8):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(-4, 7))
        k = complex(rng.uniform(0.5, 3.0), rng.uniform(0.0, 0.3))
        R = float(rng.uniform(0.5, 1.5))
        r = float(rng.uniform(1.2, 2.0)) * R if rng.random() < 0.5 else float(
            rng.uniform(0.2, 0.8)
        ) * R
        th = float(rng.uniform(0, 2 * math.pi))
        x = (r * math.cos(th), r * math.sin(th))
        a = scalar_slp_mode(k, R, n, x)
        b = scalar_slp_quadrature(k, R, n, x)
        worst = max(worst, abs(a - b))
    return CheckResult("scalar_slp_quadrature", worst, bound)


def vector_quadrature_check(trials: int = 4, seed: int = 12, bound: float = 1e-6):
    """The raw SLP field of `LayeredField` (a unit mode density on both
    sides of one circle in one material, the field `elastodisk field`
    writes for kind slp) against the kernel quadrature."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = LameParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        omega = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(0, 7))
        R = float(rng.uniform(0.7, 1.3))
        r = float(rng.uniform(1.3, 1.9)) * R if rng.random() < 0.5 else float(
            rng.uniform(0.25, 0.75)
        ) * R
        th = float(rng.uniform(0, 2 * math.pi))
        x = (r * math.cos(th), r * math.sin(th))
        dens = "nu" if rng.random() < 0.5 else "t"
        unit = [1.0, 0.0] if dens == "nu" else [0.0, 1.0]
        phi = np.array([unit, unit], dtype=complex)
        a = LayeredField((p, p), (R,), omega, {n: phi}).evaluate([x])[0]
        b = vector_slp_quadrature(p, omega, R, n, dens, x)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult("vector_slp_quadrature", worst, bound)


def run_all() -> list[CheckResult]:
    return [
        wronskian_check(),
        recurrence_check(),
        array_path_check(),
        scalar_quadrature_check(),
        vector_quadrature_check(),
    ]
