"""Transmission problem for a metamaterial disk (no core) driven by a
mode-expanded incident potential.

Per angular mode n the two transmission conditions on the circle reduce to a
4x4 complex system for the interior/exterior layer densities: the one-interface
case of `potentials.layered_system`.  `_solve_stack` is the one dense solve
with residual and condition diagnostics, for a stack of layered systems of
any size: `solve_mode` is its stack of one, for every layered system, the
core-shell one included, and `sweep` solves each source mode's stack of
sweep points with it and returns the rows as columns (`SweepResult`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .media import LameParams, wavenumbers
from .potentials import _trace_entries, _traction_entries, layered_system, region_energy
from .specfun import bessel_j, cyl_pair

CONDITION_NEAR_SINGULAR = 1e14


class NormalizationSingularError(ValueError):
    """J_n(k R) = 0 for a wavenumber used in the source normalization."""


@dataclass(frozen=True)
class SourceTerm:
    """One angular mode of the incident potential.

    kappa1 weights the normalized shear (Q) basis field, kappa2 the
    normalized pressure (P) one; the normalization divides by n, so n = 0
    is excluded.
    """

    n: int
    kappa1: complex = 0.0
    kappa2: complex = 0.0

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("source terms with n = 0 are not representable")


@dataclass(frozen=True)
class SourceModes:
    terms: tuple[SourceTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        seen = set()
        for t in self.terms:
            if t.n in seen:
                raise ValueError(f"duplicate source mode n={t.n}")
            seen.add(t.n)

    @staticmethod
    def single(n: int, kappa1: complex = 1.0, kappa2: complex = 0.0) -> "SourceModes":
        return SourceModes((SourceTerm(n, kappa1, kappa2),))


def _norm_constants(term: SourceTerm, p: LameParams, omega: float, R: float):
    """kappa-weighted normalizations kappa_j * k R / (n J_n(k R)).

    Wave families with a zero kappa never touch their normalization, so a
    vanishing J_n for the unused family cannot poison the term.
    """
    wn = wavenumbers(p, omega)
    out = []
    for kap, k in ((term.kappa1, wn.ks), (term.kappa2, wn.kp)):
        if kap == 0:
            out.append(0j)
            continue
        jn = bessel_j(term.n, k * R)
        cval = kap * k * R / (term.n * jn) if jn != 0 else complex("inf")
        if not (math.isfinite(cval.real) and math.isfinite(cval.imag)):
            # exact/denormal zeros of J_n(kR) blow the normalization up
            raise NormalizationSingularError(
                f"J_{term.n}(kR) = {jn} in the source normalization (kR = {k * R})"
            )
        out.append(cval)
    return out[0], out[1], wn


@dataclass(frozen=True)
class NewtonianPotential:
    """Incident field defined by its interior wave-basis expansion.

    Entire in the disk of analyticity of the true potential; with finitely
    many modes it is entire everywhere, which is what the solvers and the
    exterior sampling rely on.
    """

    source: SourceModes
    params: LameParams
    omega: float
    radius: float

    def _waves(self, term: SourceTerm, r: float, traction: bool) -> np.ndarray:
        """cs Q_n + cp P_n of the interior wave fields at radius r.

        Row 0 holds the (nu, t) displacement entries, row 1 (with
        `traction`) the traction entries; each family reads one `cyl_pair`.
        """
        cs, cp, wn = _norm_constants(term, self.params, self.omega, self.radius)
        if r <= 0.0:
            raise ValueError("evaluation radius must be positive")
        n, sums = term.n, []
        for shear, k, c in ((True, wn.ks, cs), (False, wn.kp, cp)):
            z = k * r
            pair = cyl_pair(n, z)
            rows = [_trace_entries(shear, n, z, pair.j, pair.jp)]
            if traction:
                rows.append(_traction_entries(shear, n, k, r, z, pair.j, pair.jp,
                                              self.params.lam, self.params.mu))
            sums.append(c * np.array(rows))
        return sums[0] + sums[1]

    def coeffs(self, term: SourceTerm, r: float) -> np.ndarray:
        """(nu, t) displacement coefficient pair of one source mode at radius r."""
        return self._waves(term, r, traction=False)[0]

    def boundary_coeffs(self, term: SourceTerm) -> tuple[np.ndarray, np.ndarray]:
        """(f_n, ftilde_n): trace and traction coefficient pairs on the circle."""
        trace, traction = self._waves(term, self.radius, traction=True)
        return trace, traction


def source_boundary_data(
    src: SourceModes, p_matrix: LameParams, omega: float, R: float
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per-mode (f_n, ftilde_n) boundary data of the incident potential."""
    pot = NewtonianPotential(src, p_matrix, omega, R)
    return {term.n: pot.boundary_coeffs(term) for term in src.terms}


@dataclass(frozen=True)
class ModeSolution:
    """Densities of one solved mode of a layered system plus solve diagnostics.

    `phi` holds the (nu, t) density pairs in the unknown order of
    `layered_system`, (psi_j^in, psi_j^out) per circle; `system` is the
    matrix that was solved, kept for the region energies.
    """

    n: int
    system: np.ndarray
    phi: np.ndarray
    residual: float
    condition: float
    near_singular: bool

    @property
    def psi1(self) -> np.ndarray:
        """Disk: the interior density psi1."""
        return self.phi[0]

    @property
    def psi2(self) -> np.ndarray:
        """Disk: the exterior density psi2."""
        return self.phi[1]


def _norms(a: np.ndarray) -> np.ndarray:
    """2-norms over the last axis, each in the arithmetic `np.linalg.norm`
    uses for one flat vector: sqrt(re . re + im . im), each dot a matmul of
    a row by a column."""
    re, im = a.real, a.imag
    dots = re[..., None, :] @ re[..., None] + im[..., None, :] @ im[..., None]
    return np.sqrt(dots[..., 0, 0])


def _solve_stack(stack: np.ndarray, rhs: np.ndarray):
    """Solutions (B, 4L), conditions (B,) and residuals (B,) of a
    (B, 4L, 4L) stack sharing one right-hand side: one `np.linalg.solve`,
    one `np.linalg.cond` and one stacked matmul for the residual vectors.

    The residual of a row is ||M x - b|| / (||M||_F ||x|| + ||b||), or
    ||M x - b|| when that scale is 0.  Every row has the bits it has in a
    stack of one, which is `solve_mode`.  rhs enters as a (1, 4L, 1) stack
    of columns, which numpy 1.x and 2.x both broadcast over the batch.  A
    singular row raises LinAlgError for the whole stack.
    """
    sol = np.linalg.solve(stack, rhs[None, :, None])[..., 0]
    res = _norms((stack @ sol[..., None])[..., 0] - rhs)
    scale = _norms(stack.reshape(len(stack), -1)) * _norms(sol) + _norms(rhs)
    np.divide(res, scale, out=res, where=scale > 0)
    return sol, np.linalg.cond(stack), res


def solve_mode(system: np.ndarray, rhs: np.ndarray, n: int = 0) -> ModeSolution:
    """Dense partial-pivoting solve with residual and condition diagnostics:
    `_solve_stack` of the stack of one.

    A condition estimate beyond 1e14 sets the near-singular flag: that is
    the resonance signal, not a failure.
    """
    sol, cond, res = _solve_stack(system[None], rhs)
    cond = float(cond[0])
    return ModeSolution(n, system, sol[0].reshape(-1, 2), float(res[0]), cond,
                        cond > CONDITION_NEAR_SINGULAR)


def solve_modes(
    p_in: LameParams,
    p_out: LameParams,
    omega: float,
    R: float,
    src: SourceModes,
) -> list[ModeSolution]:
    """Solve every source mode of the disk."""
    data = source_boundary_data(src, p_out, omega, R)
    out = []
    for term in src.terms:
        f, ft = data[term.n]
        system = layered_system((p_in, p_out), (R,), omega, term.n)
        rhs = np.concatenate([f, ft])
        out.append(solve_mode(system, rhs, n=term.n))
    return out


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as columns, one entry per axis point, in axis order.

    `value` is a point's axis value and `c` its contrast; `abs_psi11`,
    `energy`, `condition` and `residual` are its diagnostics, NaN on an
    error row; `error` is the repr of a row's failure, "" for a healthy row.
    """

    axis: str
    value: np.ndarray
    c: np.ndarray
    abs_psi11: np.ndarray
    energy: np.ndarray
    condition: np.ndarray
    residual: np.ndarray
    error: list[str]

    @property
    def ok(self) -> np.ndarray:
        """Mask of the healthy rows."""
        return np.array([not e for e in self.error], dtype=bool)

    @property
    def peak(self) -> int:
        """Index of the first healthy row of largest |psi11|."""
        rows = np.flatnonzero(self.ok)
        if not len(rows):
            raise RuntimeError("sweep produced no valid points")
        return int(rows[np.argmax(self.abs_psi11[rows])])

    @property
    def health(self) -> dict:
        """The number of error rows; of the healthy rows, the number whose
        condition exceeds CONDITION_NEAR_SINGULAR and the largest condition
        and residual (-inf when no row is healthy)."""
        ok = self.ok
        cond = self.condition[ok]
        return {
            "error_rows": int(np.count_nonzero(~ok)),
            "near_singular_rows": int(np.count_nonzero(cond > CONDITION_NEAR_SINGULAR)),
            "worst_condition": float(np.max(cond, initial=-math.inf)),
            "worst_residual": float(np.max(self.residual[ok], initial=-math.inf)),
        }


def _axis_values(start: float, stop: float, steps: int, scale: str) -> np.ndarray:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if scale not in ("linear", "log"):
        raise ValueError(f"unknown scale {scale!r}")
    if scale == "log" and (start <= 0 or stop <= 0):
        raise ValueError("log-scaled sweeps need positive endpoints")
    if steps == 1:
        return np.array([start], dtype=float)
    if scale == "log":
        return np.logspace(math.log10(start), math.log10(stop), steps)
    return np.linspace(start, stop, steps)


def _batched(fn, ids: np.ndarray, errors: dict[int, str]):
    """fn over a batch of rows, leaving out the rows that fail alone.

    fn takes a slice of positions in `ids` and returns a tuple of arrays
    whose leading axis runs over the selected rows.  A numeric failure
    (ValueError, which covers LinAlgError, or ArithmeticError) of a slice
    splits it in halves, recursively, so the rows around a failing one stay
    batched: a row that fails alone gets its repr in `errors`, and the
    results of the slices that pass are stacked in row order.  Returns the
    rows kept and fn's arrays over them, or None when no row is kept.
    """
    kept, parts = [], []

    def run(lo: int, hi: int) -> None:
        try:
            parts.append(fn(slice(lo, hi)))
            kept.extend(range(lo, hi))
        except (ValueError, ArithmeticError) as exc:
            if hi - lo > 1:
                run(lo, (lo + hi) // 2)
                run((lo + hi) // 2, hi)
            elif hi > lo:
                errors[ids[lo]] = repr(exc)

    run(0, len(ids))
    if not kept:
        return ids[:0], None
    if len(parts) == 1:
        return ids[kept], parts[0]
    return ids[kept], tuple(np.concatenate(a) for a in zip(*parts))


def sweep(
    axis: str,
    start: float,
    stop: float,
    steps: int,
    *,
    matrix: LameParams,
    omega: float,
    R: float,
    source: SourceModes,
    c_other: float,
    scale: str = "linear",
) -> SweepResult:
    """Contrast sweep: shell parameters are c * (lam, mu) of the matrix.

    axis "re_c" sweeps Re c with Im c = c_other; axis "im_c" sweeps Im c
    (usually log-scaled) with Re c = c_other.  Numeric failures of a point
    (ValueError, which covers LinAlgError and the degenerate-material and
    normalization errors, and ArithmeticError) are recorded in-row and the
    sweep continues; any other exception propagates.

    The sweep points form one batch: the source data and, per source mode,
    the matrix-material blocks are built once, the shells enter
    `layered_system` as one batched material, and `_solve_stack`, the path
    of `solve_mode`, solves and diagnoses the stack.  When the batched
    build or solve fails, it is redone on halves of the batch, recursively,
    so only the failing points become error rows, with the error of their
    first failing source mode.  A failure of the source data marks every
    row, and so does an empty `source`.

    A row's energy is its modes' disk `region_energy` summed from 0.0 in
    mode order, its |psi11|, condition and residual their maxima over the
    modes.  Every row has the same bits whatever else its batch holds, so
    it is the one-point sweep's row bit for bit however the batch was
    split; it is the result of `solve_modes` at that point alone to the
    rounding of the batch's cylinder values and entries, times the
    condition (see `potentials.layered_system`).
    """
    if axis not in ("re_c", "im_c"):
        raise ValueError(f"axis must be 're_c' or 'im_c', got {axis!r}")
    values = _axis_values(float(start), float(stop), int(steps), scale)
    cs = [complex(v, c_other) if axis == "re_c" else complex(c_other, v)
          for v in values]
    errors: dict[int, str] = {}
    shells = np.empty(len(cs), dtype=object)
    for i, c in enumerate(cs):
        try:
            shells[i] = matrix.scaled(c)
        except (ValueError, ArithmeticError) as exc:
            errors[i] = repr(exc)
    ids = np.array([i for i in range(len(cs)) if i not in errors], dtype=int)
    try:
        data = source_boundary_data(source, matrix, omega, R)
    except (ValueError, ArithmeticError) as exc:
        errors.update((i, repr(exc)) for i in ids)
        ids = ids[:0]
    if not source.terms:
        errors.update((i, repr(ValueError("no source modes"))) for i in ids)
    energy = np.zeros(len(cs))
    maxima = np.full((3, len(cs)), -math.inf)  # |psi11|, condition, residual
    for term in source.terms:
        if not len(ids):
            break
        batch, rhs = shells[ids], np.concatenate(data[term.n])
        ids, built = _batched(
            lambda sel: (layered_system((batch[sel], matrix), (R,), omega, term.n),),
            ids, errors,
        )
        if built is None:
            break
        ids, solved = _batched(
            lambda sel: (built[0][sel], *_solve_stack(built[0][sel], rhs)), ids, errors
        )
        if solved is None:
            break
        stack, sol, cond, res = solved
        energy[ids] += region_energy(stack, sol.reshape(len(ids), -1, 2), (R,), 0)
        psi11 = np.hypot(sol[:, 0].real, sol[:, 0].imag)
        maxima[:, ids] = np.maximum(maxima[:, ids], [psi11, cond, res])
    bad = list(errors)
    energy[bad] = maxima[:, bad] = math.nan
    return SweepResult(
        axis, values, np.array(cs), maxima[0], energy, maxima[1], maxima[2],
        [errors.get(i, "") for i in range(len(cs))],
    )
