"""Compositions of library functions that only the tests use.

`mode_matrix_boundary` and `two_radius_coupling` are B = 1 views of the
block kernel that no package code calls, `dissipation_energy` is the disk
energy of a set of solved modes that the sweep rows are checked against,
and `hankel1` is `cyl_pair`'s H.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from elastodisk.media import LameParams
from elastodisk.nocore import ModeSolution
from elastodisk.potentials import _slp_blocks, region_energy, slp_trace
from elastodisk.specfun import cyl_pair


def hankel1(n: int, z) -> complex:
    """H_n(z) = J_n(z) + i Y_n(z), first kind; z = 0 is rejected."""
    return cyl_pair(n, z).h


def mode_matrix_boundary(p: LameParams, omega: float, R: float, n: int) -> np.ndarray:
    """Boundary trace of the vector SLP: the (alpha_1..alpha_4) mode matrix."""
    return slp_trace(p, omega, R, n, R, exterior=True)


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


def dissipation_energy(solutions: Iterable[ModeSolution], R: float) -> float:
    """Im of the interior boundary form of the disk, summed over modes.

    Each mode contributes 2 pi R Im <traction, conj(trace)> with both
    factors taken from the interior columns of its solved system.
    """
    total = 0.0
    for sol in solutions:
        total += region_energy(sol.system, sol.phi, (R,), 0)
    return total
