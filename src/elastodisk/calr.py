"""Core-shell structure: anomalous localized resonance and cloaking detection.

Per angular mode the four transmission conditions (two per interface) close
into an 8x8 system for the densities on the core and shell circles.  The
shell's shear modulus is tuned so the system determinant nearly vanishes at
the working mode; sources expanded inside the critical radius
sqrt(r_outer^3/r_inner) then blow up the dissipation energy while the
exterior field stays bounded: cloaking by anomalous localized resonance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .fields import LayeredField, polar_grid
from .media import AnnulusGeometry, LameParams
from .nocore import (
    ModeSolution,
    NewtonianPotential,
    SourceModes,
    SourceTerm,
    solve_mode,
)
from .potentials import layered_system, region_energy

MIN_SCAN_STEPS = 8  # fewest real-p samples tune_p scans
BOUND_SAMPLES = 128  # angles of the exterior-bound circle
REFINE_TOL = 1e-9  # tune_p's final bracket, relative to the scan width


class TuningFailedError(RuntimeError):
    """The determinant scan shows no dip (regular/elliptic configuration)."""


class Verdict(Enum):
    CALR = "calr"
    RESONANT_ONLY = "resonant_only"
    NO_RESONANCE = "no_resonance"


@dataclass(frozen=True)
class CoreShellConfig:
    """Geometry, three materials, frequency and working mode of a structure."""

    geometry: AnnulusGeometry
    core: LameParams
    shell: LameParams
    matrix: LameParams
    omega: float
    n0: int

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError(f"the working mode n0 must be >= 1, got {self.n0}")

    @property
    def rho(self) -> float:
        """Radius ratio r_inner/r_outer (the loss scale is rho**n0)."""
        return self.geometry.r_inner / self.geometry.r_outer

    @property
    def layers(self) -> tuple[tuple[LameParams, ...], tuple[float, float]]:
        """(materials, radii) in the order of `layered_system`."""
        g = self.geometry
        return (self.core, self.shell, self.matrix), (g.r_inner, g.r_outer)

    def with_shell(self, shell: LameParams) -> "CoreShellConfig":
        return replace(self, shell=shell)


def shell_modulus(matrix: LameParams, delta: float, p_tune: complex = 0.0) -> complex:
    """Tuned shear modulus -(lam + mu)/(lam + 3 mu) + i delta + p."""
    lam, mu = matrix.lam, matrix.mu
    return -(lam + mu) / (lam + 3.0 * mu) + 1j * delta + p_tune


def recipe_config(
    geometry: AnnulusGeometry,
    matrix: LameParams,
    core: LameParams,
    omega: float,
    n0: int,
    p_tune: complex = 0.0,
    delta: float | None = None,
) -> CoreShellConfig:
    """Structure with the shell built by the negative-modulus recipe.

    delta defaults to (r_inner/r_outer)**n0.  The shell is the matrix pair
    scaled by the complex factor mu_hat/mu (both parameters carry the loss
    and the tuning offset); under this convention the determinant dip sits
    at an O(1/n0) offset from the -(lam+mu)/(lam+3mu) anchor.
    """
    rho = geometry.r_inner / geometry.r_outer
    if delta is None:
        delta = rho**n0
    mu_hat = shell_modulus(matrix, delta, p_tune)
    c = mu_hat / matrix.mu
    shell = LameParams(c * matrix.lam, mu_hat)
    return CoreShellConfig(
        geometry=geometry,
        core=core,
        shell=shell,
        matrix=matrix,
        omega=float(omega),
        n0=int(n0),
    )


def calr_rhs(cfg: CoreShellConfig, term: SourceTerm) -> np.ndarray:
    """(0, 0, f_n, ftilde_n) incident data on the shell circle."""
    pot = NewtonianPotential(
        SourceModes((term,)), cfg.matrix, cfg.omega, cfg.geometry.r_outer
    )
    f, ft = pot.boundary_coeffs(term)
    return np.concatenate([np.zeros(4, dtype=complex), f, ft])


def solve_calr_mode(cfg: CoreShellConfig, term: SourceTerm) -> ModeSolution:
    """Densities phi1..phi4 of one mode (rows of `phi`, as (nu, t) pairs)."""
    system = layered_system(*cfg.layers, cfg.omega, term.n)
    return solve_mode(system, calr_rhs(cfg, term), n=term.n)


def shifted_shell(cfg: CoreShellConfig, p: complex) -> LameParams:
    """Shell with its shear modulus offset by p, lam/mu ratio preserved."""
    mu_hat = cfg.shell.mu + p
    return LameParams(cfg.shell.lam * mu_hat / cfg.shell.mu, mu_hat)


def det_m(cfg: CoreShellConfig, p: complex, n: int | None = None) -> complex:
    """Determinant of the mode system with the shell modulus offset by p."""
    n = cfg.n0 if n is None else n
    shifted = cfg.with_shell(shifted_shell(cfg, p))
    return complex(np.linalg.det(layered_system(*shifted.layers, cfg.omega, n)))


def scan_interval(n0: int, lo: float | None = None,
                  hi: float | None = None) -> tuple[float, float]:
    """The real-p interval of `tune_p`'s scan, by default [-4/n0, 4/n0].

    Raises ValueError unless lo < hi.
    """
    lo = -4.0 / n0 if lo is None else lo
    hi = 4.0 / n0 if hi is None else hi
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo = {lo}, hi = {hi}")
    return lo, hi


@dataclass(frozen=True)
class TuneResult:
    p: complex
    abs_det: float
    scan_p: np.ndarray
    scan_abs_det: np.ndarray
    dip_ratio: float  # min/median over the scan


def tune_p(
    cfg: CoreShellConfig,
    lo: float | None = None,
    hi: float | None = None,
    steps: int = 241,
    min_dip_ratio: float = 0.1,
) -> TuneResult:
    """Coarse |det M| scan over real p plus golden-section refinement.

    The search interval is `scan_interval(n0, lo, hi)`.  A scan whose minimum is
    not well below its median (ratio > min_dip_ratio) has no resonance dip
    and raises TuningFailedError; the real-axis dip depth scales with the
    loss delta, so low working modes need the threshold relaxed.

    The scan is one batch: `layered_system` gets the scan's shells as one
    batched material, with the core and matrix blocks built once and
    shared, and one `np.linalg.det` runs over the (steps, 8, 8) stack.  A
    scan point has the same bits in any scan, and is the scalar-path
    `abs(det_m(cfg, p))` to the rounding of the batch's cylinder values and
    entries.  The golden-section refinement calls `det_m` point by point.
    """
    lo, hi = scan_interval(cfg.n0, lo, hi)
    if steps < MIN_SCAN_STEPS:
        raise ValueError("steps too small for a meaningful scan")
    ps = np.linspace(lo, hi, steps)
    (core, _, matrix), radii = cfg.layers
    shells = [shifted_shell(cfg, p) for p in ps]
    stack = layered_system((core, shells, matrix), radii, cfg.omega, cfg.n0)
    vals = np.abs(np.linalg.det(stack))
    imin = int(np.argmin(vals))
    dip_ratio = float(vals[imin] / np.median(vals))
    if dip_ratio > min_dip_ratio:
        raise TuningFailedError(
            f"no determinant dip in [{lo}, {hi}]: min/median = {dip_ratio:.3f}"
        )
    p_best, v_best = float(ps[imin]), float(vals[imin])

    a = ps[max(imin - 1, 0)]
    b = ps[min(imin + 1, steps - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = abs(det_m(cfg, x1)), abs(det_m(cfg, x2))
    for _ in range(200):
        if b - a < REFINE_TOL * (hi - lo):
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = abs(det_m(cfg, x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = abs(det_m(cfg, x2))
    for x, fx in ((x1, f1), (x2, f2)):
        if fx < v_best:
            p_best, v_best = float(x), float(fx)

    return TuneResult(
        p=p_best, abs_det=v_best, scan_p=ps, scan_abs_det=vals, dip_ratio=dip_ratio
    )


def shell_dissipation(cfg: CoreShellConfig, solutions) -> float:
    """Im of the shell boundary form: outer-circle term minus inner-circle term.

    Read per mode off the solved system's shell columns (region 1 of the
    layered system).
    """
    radii = (cfg.geometry.r_inner, cfg.geometry.r_outer)
    total = 0.0
    for sol in solutions:
        total += region_energy(sol.system, sol.phi, radii, 1)
    return total


@dataclass(frozen=True)
class CalrReport:
    """Outcome of a core-shell run: tuning, energy and cloaking verdict."""

    det_m: complex
    abs_det: float
    critical_radius: float
    energy: float
    exterior_bound: float
    reference_bound: float
    verdict: Verdict
    solutions: tuple[ModeSolution, ...]


def calr_energy(
    cfg: CoreShellConfig,
    src: SourceModes,
    energy_threshold: float = 1e4,
    bound_factor: float = 10.0,
) -> CalrReport:
    """Solve all source modes and classify the outcome.

    Sources must be shear-type (kappa2 = 0).  The exterior field is sampled
    at BOUND_SAMPLES angles on the circle |x| = r_outer^2/r_inner against
    the incident potential alone (the same field with no densities); CALR
    requires blown-up energy together with a bounded exterior.
    """
    for term in src.terms:
        if term.kappa2 != 0:
            raise ValueError("core-shell path accepts shear-type sources only")
    sols = tuple(solve_calr_mode(cfg, term) for term in src.terms)
    energy = shell_dissipation(cfg, sols)
    field = LayeredField(*cfg.layers, cfg.omega, {s.n: s.phi for s in sols}, src)
    g = cfg.geometry
    ring = polar_grid(
        [g.r_outer**2 / g.r_inner],
        np.linspace(0.0, 2.0 * math.pi, BOUND_SAMPLES, endpoint=False),
    )
    u_max = float(np.max(np.linalg.norm(field.evaluate(ring), axis=1)))
    incident = replace(field, densities={})
    f_max = float(np.max(np.linalg.norm(incident.evaluate(ring), axis=1)))
    solved = {s.n: s.system for s in sols}  # reused when n0 is a source mode
    system = solved.get(cfg.n0)
    if system is None:
        system = layered_system(*cfg.layers, cfg.omega, cfg.n0)
    detval = complex(np.linalg.det(system))
    resonant = energy >= energy_threshold
    bounded = u_max <= bound_factor * f_max
    if resonant and bounded:
        verdict = Verdict.CALR
    elif resonant:
        verdict = Verdict.RESONANT_ONLY
    else:
        verdict = Verdict.NO_RESONANCE
    return CalrReport(
        det_m=detval,
        abs_det=abs(detval),
        critical_radius=g.critical_radius,
        energy=energy,
        exterior_bound=u_max,
        reference_bound=f_max,
        verdict=verdict,
        solutions=sols,
    )
