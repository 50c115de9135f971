"""Command line driver: configuration in, deterministic artifacts out.

Subcommands: spectrum, sweep, field, calr, selfcheck.  One YAML config per
run; no interactive mode.  Exit codes: 0 success, 2 configuration errors
(with location where the parser provides one), 3 numeric failures.  A
manifest.json with the config hash, library version, wall time and status
is written to the output directory even when a run fails.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .artifacts import (
    ManifestWriter,
    write_csv,
    write_heatmap_svg,
    write_json,
    write_line_svg,
)
from .calr import (
    MIN_SCAN_STEPS,
    calr_energy,
    recipe_config,
    scan_interval,
    solve_calr_mode,
    tune_p,
)
from .fields import LayeredField, eval_total_field, polar_grid
from .media import AnnulusGeometry, LameParams
from .nocore import SourceModes, SourceTerm, solve_modes, sweep
from .np_spectrum import np_eigensystem, np_matrix
from .specfun import RELATIVE_ENVELOPE


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def _get(cfg: dict, path: str, cast=None, default=..., choices=None):
    node = cfg
    parts = path.split(".")
    for key in parts:
        if not isinstance(node, dict) or key not in node:
            if default is not ...:
                return default
            raise ConfigError(f"missing required key '{path}'")
        node = node[key]
    if choices is not None and node not in choices:
        raise ConfigError(f"key '{path}' must be one of {sorted(choices)}, got {node!r}")
    return node if cast is None else _cast(node, path, cast)


def _cast(value, path: str, cast):
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key '{path}': {exc}") from exc


def _integer(v) -> int:
    """An int, or a float with an integral value, as an int."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"expected an integer, got {v!r}")


def _count(cfg: dict, path: str, least: int = 1, default=...) -> int:
    """The integer at path, at least `least`."""
    value = _get(cfg, path, _integer, default)
    if value < least:
        raise ConfigError(f"key '{path}' must be >= {least}")
    return value


def _positive(cfg: dict, path: str) -> float:
    value = _get(cfg, path, float)
    if not value > 0.0:
        raise ConfigError(f"key '{path}' must be > 0, got {value!r}")
    return value


def _as_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValueError(f"expected a number or [re, im] pair, got {v!r}")


def _annulus(cfg: dict) -> AnnulusGeometry:
    radii = _get(cfg, "geometry.r_inner", float), _get(cfg, "geometry.r_outer", float)
    try:
        return AnnulusGeometry(*radii)
    except ValueError as exc:
        raise ConfigError(f"key 'geometry.r_inner': {exc}") from exc


def _material(cfg: dict, path: str) -> LameParams:
    lam = _get(cfg, f"{path}.lam", _as_complex)
    mu = _get(cfg, f"{path}.mu", _as_complex)
    return LameParams(lam, mu)


def _modes(cfg: dict) -> list[int]:
    node = _get(cfg, "modes")
    if isinstance(node, dict):
        start = _get(cfg, "modes.start", _integer)
        modes = list(range(start, _get(cfg, "modes.stop", _integer) + 1))
    elif isinstance(node, list):
        modes = [_cast(v, f"modes[{i}]", _integer) for i, v in enumerate(node)]
    else:
        raise ConfigError("key 'modes' must be a list or {start, stop}")
    if not modes:
        raise ConfigError("key 'modes' selects no modes")
    return modes


def _source(cfg: dict, path: str = "source") -> SourceModes:
    terms_node = _get(cfg, f"{path}.terms")
    if not isinstance(terms_node, list) or not terms_node:
        raise ConfigError(f"key '{path}.terms' must be a nonempty list")
    terms = []
    for i, t in enumerate(terms_node):
        key = f"{path}.terms[{i}]"
        if not isinstance(t, dict):
            raise ConfigError(f"key '{key}' must be a mapping")
        if "n" not in t:
            raise ConfigError(f"missing required key '{key}.n'")
        n = _cast(t["n"], f"{key}.n", _integer)
        k1 = _cast(t.get("kappa1", 0.0), f"{key}.kappa1", _as_complex)
        k2 = _cast(t.get("kappa2", 0.0), f"{key}.kappa2", _as_complex)
        try:
            terms.append(SourceTerm(n, k1, k2))
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}") from exc
    try:
        return SourceModes(tuple(terms))
    except ValueError as exc:
        raise ConfigError(f"key '{path}.terms': {exc}") from exc


def _run_spectrum(cfg: dict, out: Path, manifest: ManifestWriter, args) -> None:
    p = _material(cfg, "materials.matrix")
    omega = _positive(cfg, "omega")
    radius = _positive(cfg, "geometry.radius")
    rows = []
    for n in _modes(cfg):
        es = np_eigensystem(np_matrix(p, omega, radius, n))
        x1, x2 = es.eigenvalues
        rows.append((n, x1.real, x1.imag, x2.real, x2.imag, es.case_tag.value))
    path = write_csv(
        out / "spectrum.csv",
        ["n", "re_xi1", "im_xi1", "re_xi2", "im_xi2", "case"],
        rows,
    )
    manifest.add_output(path)
    if args.svg:
        ns = [r[0] for r in rows]
        manifest.add_output(
            write_line_svg(out / "spectrum.svg", ns, [r[1] for r in rows],
                           title="re_xi1 vs n")
        )


def _run_sweep(cfg: dict, out: Path, manifest: ManifestWriter, args) -> None:
    p = _material(cfg, "materials.matrix")
    omega = _positive(cfg, "omega")
    radius = _positive(cfg, "geometry.radius")
    src = _source(cfg)
    axis = _get(cfg, "sweep.axis", str, choices={"re_c", "im_c"})
    steps = _count(cfg, "sweep.steps")
    scale = _get(cfg, "sweep.scale", str, default="linear", choices={"linear", "log"})
    start, stop = (_positive(cfg, key) if scale == "log" else _get(cfg, key, float)
                   for key in ("sweep.start", "sweep.stop"))
    result = sweep(axis, start, stop, steps, matrix=p, omega=omega, R=radius,
                   source=src, c_other=_get(cfg, "sweep.c_other", float), scale=scale)
    cols = (result.value, result.abs_psi11, result.energy, result.condition,
            result.residual)
    rows = list(zip(*(col.tolist() for col in cols)))
    path = write_csv(
        out / "sweep.csv",
        ["axis_value", "abs_psi11", "energy", "condition", "residual"],
        rows,
    )
    manifest.add_output(path)
    bad = [(r[0], e) for r, e in zip(rows, result.error) if e]
    if bad:
        manifest.add_output(
            write_csv(out / "sweep_errors.csv", ["axis_value", "error"], bad)
        )
    low = result.condition[result.ok] * RELATIVE_ENVELOPE > 1e-6  # < 6 good digits
    manifest.data["health"] = {**result.health, "low_digit_rows": int(low.sum())}
    peak = rows[result.peak]
    manifest.data["peak"] = {"axis_value": peak[0], "abs_psi11": peak[1]}
    if args.svg:
        manifest.add_output(
            write_line_svg(out / "sweep.svg", [r[0] for r in rows],
                           [r[1] for r in rows], log_y=True,
                           title=f"|psi11| vs {axis}")
        )


def _field_object(cfg: dict) -> LayeredField:
    kind = _get(cfg, "field.kind", str, choices={"slp", "nocore", "calr"})
    omega = _positive(cfg, "omega")
    if kind in ("slp", "nocore"):
        p = _material(cfg, "materials.matrix")
        radius = _positive(cfg, "geometry.radius")
    if kind == "slp":
        # the unit mode density on both sides of one circle in one material
        n = _get(cfg, "field.n", _integer)
        density = _get(cfg, "field.density", str, default="nu", choices={"nu", "t"})
        unit = [1.0, 0.0] if density == "nu" else [0.0, 1.0]
        phi = np.array([unit, unit], dtype=complex)
        return LayeredField((p, p), (radius,), omega, {n: phi})
    if kind == "nocore":
        shell = _material(cfg, "materials.shell")
        src = _source(cfg)
        phis = {s.n: s.phi for s in solve_modes(shell, p, omega, radius, src)}
        return LayeredField((shell, p), (radius,), omega, phis, src)
    geo = _annulus(cfg)
    cs_cfg, p = _calr_config(cfg, geo, omega)
    if p is None:
        raise ConfigError(
            "field kind 'calr' needs an explicit 'calr.p' (run the calr "
            "command first to tune it)"
        )
    src = _source(cfg)
    phis = {t.n: solve_calr_mode(cs_cfg, t).phi for t in src.terms}
    return LayeredField(*cs_cfg.layers, omega, phis, src)


def _run_field(cfg: dict, out: Path, manifest: ManifestWriter, args) -> None:
    rsteps = _count(cfg, "field.radii.steps")
    start = _get(cfg, "field.radii.start", float)
    stop = _get(cfg, "field.radii.stop", float)
    radii = np.linspace(start, stop, rsteps)
    if not np.all(radii > 0.0):  # fields are evaluated away from the origin
        raise ConfigError(
            f"key 'field.radii' must hold only positive radii, got {start}..{stop}"
        )
    ntheta = _count(cfg, "field.thetas", default=64)
    thetas = [2.0 * math.pi * k / ntheta for k in range(ntheta)]
    grid = eval_total_field(_field_object(cfg), polar_grid(radii, thetas))
    rows = []
    for pt, val, reg in zip(grid.points, grid.values, grid.regions):
        amp = float(np.hypot(abs(val[0]), abs(val[1])))
        rows.append(
            (pt[0], pt[1], val[0].real, val[0].imag, val[1].real, val[1].imag,
             amp, reg)
        )
    path = write_csv(
        out / "field.csv",
        ["x", "y", "re_u1", "im_u1", "re_u2", "im_u2", "abs_u", "region"],
        rows,
    )
    manifest.add_output(path)
    if args.svg:
        finite = [r for r in rows if math.isfinite(r[6])]
        manifest.add_output(
            write_heatmap_svg(out / "field.svg", [r[0] for r in finite],
                              [r[1] for r in finite], [r[6] for r in finite],
                              title="|u|")
        )


def _calr_config(cfg: dict, geo: AnnulusGeometry, omega: float, p=None):
    """Recipe structure with tuning offset p, by default the pinned 'calr.p'.

    Returns the structure and the offset it was built with (None when the
    config pins none and p is not given).
    """
    if p is None:
        p_node = _get(cfg, "calr.p", default=None)
        p = _as_complex(p_node) if p_node is not None else None
    cs = recipe_config(
        geo,
        _material(cfg, "materials.matrix"),
        _material(cfg, "materials.core"),
        omega,
        _count(cfg, "calr.n0"),
        p_tune=0.0 if p is None else p,
        delta=_get(cfg, "calr.delta", float, default=None),
    )
    return cs, p


def _run_calr(cfg: dict, out: Path, manifest: ManifestWriter, args) -> None:
    geo = _annulus(cfg)
    omega = _positive(cfg, "omega")
    cs_cfg, p = _calr_config(cfg, geo, omega)
    scan_rows = None
    if p is None:
        steps = _count(cfg, "calr.scan.steps", MIN_SCAN_STEPS, default=241)
        lo = _get(cfg, "calr.scan.lo", float, default=None)
        hi = _get(cfg, "calr.scan.hi", float, default=None)
        try:
            lo, hi = scan_interval(cs_cfg.n0, lo, hi)
        except ValueError as exc:
            raise ConfigError(f"key 'calr.scan.lo': {exc}") from exc
        tuned = tune_p(
            cs_cfg,
            lo=lo,
            hi=hi,
            steps=steps,
            min_dip_ratio=_get(cfg, "calr.scan.min_dip_ratio", float, default=0.1),
        )
        scan_rows = list(zip(tuned.scan_p.tolist(), tuned.scan_abs_det.tolist()))
        cs_cfg, p = _calr_config(cfg, geo, omega, tuned.p)
    report = calr_energy(
        cs_cfg,
        _source(cfg),
        energy_threshold=_get(cfg, "calr.energy_threshold", float, default=1e4),
        bound_factor=_get(cfg, "calr.bound_factor", float, default=10.0),
    )
    payload = {
        "det_m": [report.det_m.real, report.det_m.imag],
        "abs_det": report.abs_det,
        "tuned_p": [complex(p).real, complex(p).imag],
        "critical_radius": report.critical_radius,
        "energy": report.energy,
        "exterior_bound": report.exterior_bound,
        "reference_bound": report.reference_bound,
        "verdict": report.verdict.value,
        "per_mode": [
            {
                "n": s.n,
                "condition": s.condition,
                "residual": s.residual,
                "near_singular": s.near_singular,
            }
            for s in report.solutions
        ],
    }
    manifest.add_output(write_json(out / "calr_report.json", payload))
    if scan_rows is not None:
        manifest.add_output(
            write_csv(out / "det_scan.csv", ["p", "abs_det"], scan_rows)
        )
        if args.svg:
            manifest.add_output(
                write_line_svg(out / "det_scan.svg", [r[0] for r in scan_rows],
                               [r[1] for r in scan_rows], log_y=True,
                               title="|det M| vs p")
            )


def _run_selfcheck(cfg: dict, out: Path, manifest: ManifestWriter, args) -> None:
    from .selfcheck import run_all

    results = run_all()
    rows = []
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:28s} worst {r.worst:.3e}  bound {r.bound:.1e}  {status}")
        rows.append((r.name, r.worst, r.bound, status))
        ok = ok and r.passed
    manifest.add_output(
        write_csv(out / "selfcheck.csv", ["check", "worst", "bound", "status"], rows)
    )
    if not ok:
        raise ArithmeticError("self-check failed")


_COMMANDS = {
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "field": _run_field,
    "calr": _run_calr,
    "selfcheck": _run_selfcheck,
}


def _load_config(path: str | None, command: str) -> tuple[dict, bytes]:
    if path is None:
        if command == "selfcheck":
            return {}, b""
        raise ConfigError("--config is required for this command")
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elastodisk",
        description="Elastodynamic resonance computations for disks and core-shell structures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="YAML run configuration")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--svg", action="store_true", help="also emit SVG plots")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        cfg, raw = _load_config(args.config, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest = ManifestWriter(out, args.command, b"")
        manifest.finish(2, str(exc))
        return 2

    manifest = ManifestWriter(out, args.command, raw)
    try:
        _COMMANDS[args.command](cfg, out, manifest, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest.finish(2, str(exc))
        return 2
    except Exception as exc:  # numeric / runtime failure
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        manifest.finish(3, f"{type(exc).__name__}: {exc}")
        return 3
    manifest.finish(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
