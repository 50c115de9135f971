"""Displacement fields of layered structures, evaluated on point arrays.

Every field of the package is a finite sum over angular modes,
u(x) = sum_n e^{in theta} (A_n(r) nu + B_n(r) t): the single-layer
potentials of the solved transmission densities of
`potentials.layered_system`, plus the incident potential outside the
structure.  `LayeredField` computes each mode's (A_n, B_n) pair once per
distinct radius and applies the angles with array operations.  Grids are
caller-specified; points falling inside a small tube around an interface
are skipped and tagged rather than evaluated.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .media import LameParams
from .nocore import NewtonianPotential, SourceModes
from .potentials import slp_trace

INTERFACE_TAG = "interface"
TUBE = 1e-6  # interface tube half-width, relative to the largest radius


@dataclass(frozen=True)
class FieldGrid:
    """Evaluated displacements with a region tag per point."""

    points: np.ndarray  # (N, 2) float
    values: np.ndarray  # (N, 2) complex; rows of skipped points are nan
    regions: tuple[str, ...]


def _polar(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius and angle of each point, rounded as math.hypot/math.atan2 round.

    The radius enters the low-frequency coefficients through a 1/omega^2
    cancellation that magnifies its last bit, so it is taken from
    math.hypot, whatever numpy's hypot would round it to.
    """
    xy = pts.tolist()
    return (
        np.array([math.hypot(x, y) for x, y in xy]),
        np.array([math.atan2(y, x) for x, y in xy]),
    )


@dataclass(frozen=True)
class LayeredField:
    """Field of L concentric interfaces carrying solved per-mode densities.

    `materials` and `radii` are those of `layered_system`; `densities` maps
    each mode n to its (2L, 2) array of (nu, t) density pairs in that
    system's unknown order, (psi_j^in, psi_j^out) per circle.  Region j
    (between radii[j-1] and radii[j]) carries the potentials of
    psi_{j-1}^out and psi_j^in in materials[j]; the exterior also carries
    the incident field of `source`, normalized on the outermost circle.
    """

    materials: tuple[LameParams, ...]
    radii: tuple[float, ...]
    omega: float
    densities: Mapping[int, np.ndarray]
    source: SourceModes | None = None

    @property
    def region_names(self) -> tuple[str, ...]:
        """Region labels, inside out, for one or two interfaces (the disk of
        a single interface is the 'shell')."""
        return ("core", "shell", "exterior")[-(len(self.radii) + 1):]

    def region(self, r: float) -> int:
        """Index j of the region holding radius r (r == radii[j] is outside)."""
        return bisect.bisect_right(self.radii, r)

    def coeffs(self, n: int, r: float) -> np.ndarray:
        """(nu, t) coefficient pair of mode n at radius r."""
        j, L, om = self.region(r), len(self.radii), self.omega
        c = np.zeros(2, dtype=complex)
        phi = self.densities.get(n)
        if phi is not None:
            mat = self.materials[j]
            if j > 0:  # psi_{j-1}^out on the inner circle
                m = slp_trace(mat, om, self.radii[j - 1], n, r, exterior=True)
                c = c + m @ phi[2 * j - 1]
            if j < L:  # psi_j^in on the outer circle
                m = slp_trace(mat, om, self.radii[j], n, r, exterior=False)
                c = c + m @ phi[2 * j]
        if j == L and self.source is not None:
            pot = NewtonianPotential(self.source, self.materials[L], om, self.radii[-1])
            for term in self.source.terms:
                if term.n == n:
                    c = c + pot.coeffs(term, r)
        return c

    def evaluate(self, points) -> np.ndarray:
        """Cartesian displacements, shape (N, 2) complex, at (N, 2) points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        r, theta = _polar(pts)
        modes = list(self.densities)
        if self.source is not None:
            modes += [t.n for t in self.source.terms if t.n not in self.densities]
        radii, at = np.unique(r, return_inverse=True)
        coef = np.empty((len(radii), len(modes), 2), dtype=complex)
        for i, q in enumerate(radii.tolist()):
            for m, n in enumerate(modes):
                coef[i, m] = self.coeffs(n, q)
        c = coef[at]
        nth = theta[:, None] * np.array(modes, dtype=float)
        phase = np.cos(nth) + 1j * np.sin(nth)
        ct, st = np.cos(theta)[:, None], np.sin(theta)[:, None]
        u1 = phase * (c[..., 0] * ct - c[..., 1] * st)
        u2 = phase * (c[..., 0] * st + c[..., 1] * ct)
        return np.column_stack([u1.sum(axis=1), u2.sum(axis=1)])


def eval_total_field(field: LayeredField, points: Iterable) -> FieldGrid:
    """Evaluate a layered field on points, skipping interface tubes.

    A point whose radius lies within TUBE times the largest interface
    radius of an interface is tagged INTERFACE_TAG and left nan.
    """
    pts = np.asarray(list(points), dtype=float).reshape(-1, 2)
    r, _ = _polar(pts)
    eps = TUBE * max(field.radii)
    tube = np.any(np.abs(r[:, None] - np.asarray(field.radii)) <= eps, axis=1)
    values = np.full((len(pts), 2), np.nan, dtype=complex)
    values[~tube] = field.evaluate(pts[~tube])
    names = field.region_names
    regions = tuple(
        INTERFACE_TAG if skip else names[field.region(q)]
        for q, skip in zip(r.tolist(), tube.tolist())
    )
    return FieldGrid(points=pts, values=values, regions=regions)


def polar_grid(radii: Sequence[float], thetas: Sequence[float]) -> np.ndarray:
    """Cartesian points of the tensor polar grid, radius-major order."""
    out = []
    for r in radii:
        for th in thetas:
            out.append((r * math.cos(th), r * math.sin(th)))
    return np.asarray(out, dtype=float)
