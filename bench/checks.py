"""Output checks and failure accounting for one benchmark pass.

A check reads only the artifacts a pass wrote and compares them with
invariants that hold for any seed: known physical values, counts fixed by
the inputs, and the library's quadrature cross-check (not a production
path).  A violated invariant raises `CheckError` and fails the run.

Separately each check counts failed items, the numerator of `error_rate`:
sweep error rows, non-finite spectrum rows, non-finite field values off the
interface tube, and every item of a run whose CLI exit status is non-zero.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import (
    CALR_STEPS,
    DISK_PEAK_RE_C,
    DISK_STEPS,
    SPECTRUM_MODES,
    Pass,
    Run,
)

PEAK_TOL = 1e-4
RESIDUAL_MAX = 1e-12
CALR_ENERGY_MIN = 1e4
CALR_BOUND_RATIO_MAX = 10.0
CALR_P_MAX = 0.16
FIELD_QUAD_TOL = 1e-6
FIELD_PROBES = 2
FIELD_PROBE_MIN_GAP = 0.3  # |r - R| of a quadrature probe
QUASISTATIC_TOL = 1e-4
QUASISTATIC_MODES = range(2, 11)


class CheckError(Exception):
    """An artifact violates one of its workload's invariants."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _status(out: Path) -> int | None:
    try:
        return json.loads((out / "manifest.json").read_text())["status"]
    except (OSError, ValueError, KeyError):
        return None


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(row: dict, keys) -> bool:
    return all(math.isfinite(float(row[k])) for k in keys)


def _exit_failures(run: Run, out: Path) -> int:
    """All items of a run count as failed when the CLI did not exit with 0."""
    return 0 if _status(out) == 0 else run.items


def check_disk_sweep(p: Pass, root: Path) -> int:
    (run,) = p.runs
    out = root / run.label
    failed = _exit_failures(run, out)
    errors = out / "sweep_errors.csv"
    if errors.exists():
        failed += len(_rows(errors))
    _require(failed == 0, f"sweep failed {failed} of {run.items} points")
    rows = _rows(out / "sweep.csv")
    _require(len(rows) == DISK_STEPS, f"sweep has {len(rows)} rows, want {DISK_STEPS}")
    worst = max(float(r["residual"]) for r in rows)
    _require(worst < RESIDUAL_MAX, f"worst residual {worst:.3e} >= {RESIDUAL_MAX}")
    peak = max(rows, key=lambda r: float(r["abs_psi11"]))
    dev = abs(float(peak["axis_value"]) - DISK_PEAK_RE_C)
    _require(dev <= PEAK_TOL, f"peak at Re c = {peak['axis_value']}, {dev:.2e} off")
    return failed


def check_calr_tune(p: Pass, root: Path) -> int:
    (run,) = p.runs
    out = root / run.label
    failed = _exit_failures(run, out)
    _require(failed == 0, "calr run exited with a non-zero status")
    rep = json.loads((out / "calr_report.json").read_text())
    _require(rep["verdict"] == "calr", f"verdict {rep['verdict']!r}, want 'calr'")
    _require(rep["energy"] >= CALR_ENERGY_MIN, f"energy {rep['energy']:.3e} < 1e4")
    ratio = rep["exterior_bound"] / rep["reference_bound"]
    _require(ratio <= CALR_BOUND_RATIO_MAX, f"exterior/reference bound {ratio:.3g} > 10")
    tuned = abs(complex(*rep["tuned_p"]))
    _require(tuned <= CALR_P_MAX, f"|tuned p| = {tuned:.4g} > {CALR_P_MAX}")
    scan = _rows(out / "det_scan.csv")
    _require(len(scan) == CALR_STEPS, f"scan has {len(scan)} rows, want {CALR_STEPS}")
    return failed


_U_KEYS = ("re_u1", "im_u1", "re_u2", "im_u2")


def _field_failures(run: Run, out: Path) -> tuple[int, list[dict]]:
    failed = _exit_failures(run, out)
    if failed:
        return failed, []
    rows = _rows(out / "field.csv")
    bad = sum(1 for r in rows if r["region"] != "interface" and not _finite(r, _U_KEYS))
    return bad, rows


def _slp_oracle(cfg: dict, x: tuple[float, float]):
    from elastodisk.media import LameParams
    from elastodisk.quadrature import vector_slp_quadrature

    mat = cfg["materials"]["matrix"]
    return vector_slp_quadrature(
        LameParams(mat["lam"], mat["mu"]),
        cfg["omega"],
        cfg["geometry"]["radius"],
        cfg["field"]["n"],
        cfg["field"]["density"],
        x,
    )


def check_field_map(p: Pass, root: Path) -> int:
    slp, core_shell = p.runs
    bad_slp, slp_rows = _field_failures(slp, root / slp.label)
    bad_cs, cs_rows = _field_failures(core_shell, root / core_shell.label)
    for run, rows in ((slp, slp_rows), (core_shell, cs_rows)):
        _require(len(rows) == run.items, f"{run.label}: {len(rows)} rows, want {run.items}")
    _require(bad_cs == 0, f"core-shell field: {bad_cs} non-finite values off the interface tube")
    radius = slp.config["geometry"]["radius"]
    probes = [
        slp_rows[i]
        for i in p.params["probe_candidates"]
        if slp_rows[i]["region"] != "interface"
        and abs(math.hypot(float(slp_rows[i]["x"]), float(slp_rows[i]["y"])) - radius)
        >= FIELD_PROBE_MIN_GAP
    ][:FIELD_PROBES]
    _require(len(probes) == FIELD_PROBES, "too few quadrature probe points")
    for row in probes:
        x = (float(row["x"]), float(row["y"]))
        want = _slp_oracle(slp.config, x)
        got = (complex(float(row["re_u1"]), float(row["im_u1"])),
               complex(float(row["re_u2"]), float(row["im_u2"])))
        dev = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
        _require(dev <= FIELD_QUAD_TOL, f"slp field at {x} is {dev:.2e} off quadrature")
    return bad_slp + bad_cs


_XI_KEYS = ("re_xi1", "im_xi1", "re_xi2", "im_xi2")


def check_mode_spectrum(p: Pass, root: Path) -> int:
    failed = 0
    for run in p.runs:
        out = root / run.label
        exit_failed = _exit_failures(run, out)
        failed += exit_failed
        if exit_failed:
            continue
        rows = _rows(out / "spectrum.csv")
        _require(len(rows) == SPECTRUM_MODES, f"{run.label}: {len(rows)} rows")
        failed += sum(1 for r in rows if not _finite(r, _XI_KEYS))
    low = min(p.runs, key=lambda r: r.config["omega"])
    _require(_status(root / low.label) == 0, f"{low.label} spectrum run failed")
    by_n = {int(r["n"]): r for r in _rows(root / low.label / "spectrum.csv")}
    for n in QUASISTATIC_MODES:
        r = by_n[n]
        xi1 = complex(float(r["re_xi1"]), float(r["im_xi1"]))
        xi2 = complex(float(r["re_xi2"]), float(r["im_xi2"]))
        dev = max(abs(xi1 + 1.0 / 6.0), abs(xi2 - 1.0 / 6.0))
        _require(dev <= QUASISTATIC_TOL, f"mode {n} pair is {dev:.2e} off (-1/6, 1/6)")
    return failed


CHECKS = {
    "disk_sweep": check_disk_sweep,
    "calr_tune": check_calr_tune,
    "field_map": check_field_map,
    "mode_spectrum": check_mode_spectrum,
}
