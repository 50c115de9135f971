"""Tests of the benchmark itself: span arithmetic, wrapping, output checks.

    python3 -m pytest bench -q          (from the repository root)

Each output check is run on a genuine pass, then on a copy of its
artifacts with one defect planted; the check must reject the copy.
"""
from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from checks import CHECKS, CheckError  # noqa: E402
from run import Runner  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import DISK_STEP, make_pass  # noqa: E402

SEED = 7


def test_self_times_subtract_direct_children_only():
    # root [0, 100] holds a [10, 40] (which holds b [20, 30]) and c [50, 70].
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 70])
    parent = np.array([-1, 0, 1, 0])
    own = self_times(start, end, parent)
    assert own.tolist() == [50, 20, 10, 20]
    assert own.sum() == end[0] - start[0]


def test_calls_through_consumer_namespaces_are_traced():
    import elastodisk.potentials as potentials
    import elastodisk.specfun as specfun
    from elastodisk.media import LameParams

    original = potentials.cyl_pair
    tracer = Tracer()
    with tracer.installed():
        assert potentials.cyl_pair is not original
        tracer.begin_pass()
        potentials.slp_trace(LameParams(1.0, 1.0), 1.3, 1.0, 3, 1.5)
        trace = tracer.end_pass()
    assert potentials.cyl_pair is original and specfun.cyl_pair is original
    assert trace.key_calls["potentials.slp_trace"] == 1
    assert trace.boundary_calls["specfun"] == trace.key_calls["specfun.cyl_pair"] > 0
    assert trace.boundary_calls["media"] >= 1  # wavenumbers, via potentials
    assert trace.self_ns["potentials"] > 0 and trace.self_ns["specfun"] > 0


def test_deleted_names_are_reported_absent(monkeypatch):
    import elastodisk.nocore as nocore
    import elastodisk.specfun as specfun

    monkeypatch.delattr(nocore, "closed_form_coeffs")
    monkeypatch.delattr(specfun, "_pair_upper")
    tracer = Tracer()
    with tracer.installed():
        tracer.begin_pass()
        trace = tracer.end_pass()
    metrics, absent = layer_metrics(trace, 1, tracer)
    assert "nocore.closed_form_coeffs" in absent
    assert "specfun._pair_upper" in absent
    assert metrics["nocore.closed_form_s"] == 0.0


# -- output checks -------------------------------------------------------


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """One checked pass of each workload, keyed by workload name."""
    out = {}
    for workload in CHECKS:
        root = tmp_path_factory.mktemp(workload)
        runner = Runner(workload, SEED, pass_dir=root)
        runner.one()  # runs the check; raises if a genuine pass fails it
        out[workload] = (root, runner.failed)
    return out


@pytest.fixture
def copy_of(genuine, tmp_path):
    def make(workload: str) -> Path:
        dst = tmp_path / workload
        shutil.copytree(genuine[workload][0], dst)
        return dst

    return make


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(r[h] for h in header) + "\n")


def _check(workload: str, root: Path) -> int:
    return CHECKS[workload](make_pass(workload, SEED, 0), root)


def test_genuine_passes_count_only_known_failures(genuine):
    assert genuine["disk_sweep"][1] == 0
    assert genuine["calr_tune"][1] == 0
    assert genuine["field_map"][1] == 0
    root = genuine["mode_spectrum"][0]
    nonfinite = 0
    for path in root.glob("*/spectrum.csv"):
        with open(path, newline="") as fh:
            nonfinite += sum(
                1 for r in csv.DictReader(fh)
                if not all(math.isfinite(float(r[k]))
                           for k in ("re_xi1", "im_xi1", "re_xi2", "im_xi2"))
            )
    assert genuine["mode_spectrum"][1] == nonfinite > 0


def test_disk_sweep_rejects_shifted_peak(copy_of):
    root = copy_of("disk_sweep")

    def shift(rows):
        i = max(range(len(rows)), key=lambda k: float(rows[k]["abs_psi11"]))
        j = i + round(1e-3 / DISK_STEP)
        rows[j]["abs_psi11"] = repr(2.0 * float(rows[i]["abs_psi11"]))

    _edit_csv(root / "sweep" / "sweep.csv", shift)
    with pytest.raises(CheckError, match="peak"):
        _check("disk_sweep", root)


def test_disk_sweep_rejects_error_rows(copy_of):
    root = copy_of("disk_sweep")
    (root / "sweep" / "sweep_errors.csv").write_text("axis_value,error\n-2.0,boom\n")
    with pytest.raises(CheckError):
        _check("disk_sweep", root)


def test_calr_tune_rejects_flipped_verdict(copy_of):
    root = copy_of("calr_tune")
    path = root / "calr" / "calr_report.json"
    rep = json.loads(path.read_text())
    rep["verdict"] = "resonant_only"
    path.write_text(json.dumps(rep))
    with pytest.raises(CheckError, match="verdict"):
        _check("calr_tune", root)


def test_field_map_rejects_perturbed_slp_value(copy_of):
    root = copy_of("field_map")

    def perturb(rows):
        for r in rows:
            if r["region"] != "interface":
                r["re_u1"] = repr(float(r["re_u1"]) + 1e-5)

    _edit_csv(root / "slp" / "field.csv", perturb)
    with pytest.raises(CheckError, match="quadrature"):
        _check("field_map", root)


def test_field_map_rejects_nan_off_the_interface(copy_of):
    root = copy_of("field_map")

    def poison(rows):
        row = next(r for r in rows if r["region"] == "exterior")
        row["re_u1"] = "nan"

    _edit_csv(root / "core_shell" / "field.csv", poison)
    with pytest.raises(CheckError, match="non-finite"):
        _check("field_map", root)


def test_mode_spectrum_rejects_moved_pair(copy_of):
    root = copy_of("mode_spectrum")
    low = min(make_pass("mode_spectrum", SEED, 0).runs, key=lambda r: r.config["omega"])

    def move(rows):
        row = next(r for r in rows if r["n"] == "5")
        row["re_xi1"] = repr(float(row["re_xi1"]) + 1e-3)

    _edit_csv(root / low.label / "spectrum.csv", move)
    with pytest.raises(CheckError, match="mode 5"):
        _check("mode_spectrum", root)


def test_nonzero_exit_fails_every_item_of_the_run(copy_of, genuine):
    root = copy_of("mode_spectrum")
    high = max(make_pass("mode_spectrum", SEED, 0).runs, key=lambda r: r.config["omega"])
    manifest = root / high.label / "manifest.json"
    data = json.loads(manifest.read_text())
    data["status"] = 3
    manifest.write_text(json.dumps(data))
    before = genuine["mode_spectrum"][1]
    assert _check("mode_spectrum", root) == before + high.items
