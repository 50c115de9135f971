"""Command line driver: config validation, artifacts, determinism, exits."""
import json
import math
from pathlib import Path

import pytest

from elastodisk.artifacts import ManifestWriter, write_json
from elastodisk.cli import main
from elastodisk.nocore import CONDITION_NEAR_SINGULAR
from elastodisk.specfun import RELATIVE_ENVELOPE


def write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SPECTRUM_YAML = """
omega: 1.0e-3
geometry: {radius: 1.0}
materials:
  matrix: {lam: 1.0, mu: 1.0}
modes: {start: 0, stop: 60}
"""

SWEEP_YAML = """
omega: 1.0
geometry: {radius: 1.0}
materials:
  matrix: {lam: 1.0, mu: 1.0}
source:
  terms:
    - {n: 5, kappa1: 1.0}
sweep:
  axis: re_c
  start: -2.05
  stop: -1.85
  steps: 101
  c_other: 2.08e-9
"""

FIELD_YAML = """
omega: 20.0
geometry: {radius: 1.0}
materials:
  matrix: {lam: 1.0, mu: 1.0}
field:
  kind: slp
  n: 5
  density: nu
  radii: {start: 0.3, stop: 2.5, steps: 5}
  thetas: 8
"""

CALR_YAML = """
omega: 5.0
geometry: {r_inner: 0.8, r_outer: 1.0}
materials:
  matrix: {lam: 1.0, mu: 1.0}
  core: {lam: 1.0, mu: 1.0}
source:
  terms: [{n: 25, kappa1: 1.0}]
calr:
  n0: 25
  scan: {steps: 81}
"""


class TestSpectrumCommand:
    def test_quasistatic_tail(self, tmp_path):
        cfg = write(tmp_path, "s.yaml", SPECTRUM_YAML)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().strip().splitlines()
        assert rows[0] == "n,re_xi1,im_xi1,re_xi2,im_xi2,case"
        last = rows[-1].split(",")
        assert int(last[0]) == 60
        assert abs(float(last[1]) + 1 / 6) < 1e-3
        assert abs(float(last[3]) - 1 / 6) < 1e-3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == 0
        assert manifest["command"] == "spectrum"
        assert len(manifest["config_sha256"]) == 64

    def test_non_finite_rows_kept_and_tagged(self, tmp_path):
        cfg = write(tmp_path, "nf.yaml",
                    SPECTRUM_YAML.replace("{start: 0, stop: 60}", "[5, 80]"))
        out = tmp_path / "nf"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == ["generic", "non_finite"]

    def test_missing_key_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.yaml", SPECTRUM_YAML.replace("omega: 1.0e-3\n", ""))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "omega" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == 2

    @pytest.mark.parametrize("modes", ["{start: 10, stop: 2}", "[]"])
    def test_empty_mode_selection_exits_2(self, tmp_path, capsys, modes):
        cfg = write(tmp_path, "e.yaml",
                    SPECTRUM_YAML.replace("{start: 0, stop: 60}", modes))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        assert "modes" in capsys.readouterr().err

    def test_yaml_syntax_error_reports_location(self, tmp_path, capsys):
        cfg = write(tmp_path, "syntax.yaml", "omega: [1.0\nmodes: [3]\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line" in capsys.readouterr().err

    def test_numeric_failure_exits_3_with_manifest(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "deg.yaml", SPECTRUM_YAML.replace("mu: 1.0", "mu: 0.0")
        )
        out = tmp_path / "out3"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == 3
        assert manifest["error"]


class TestSweepCommand:
    def test_peak_location_and_determinism(self, tmp_path):
        cfg = write(tmp_path, "sw.yaml", SWEEP_YAML)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sweep", "--config", cfg, "--out", str(out), "--svg"]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]  # byte-identical across runs
        rows = outs[0].decode().strip().splitlines()[1:]
        data = [tuple(map(float, r.split(","))) for r in rows]
        peak = max(data, key=lambda q: q[1])
        assert abs(peak[0] - (-1.9643771578)) < 2e-3
        assert (tmp_path / "a" / "sweep.svg").exists()

    def test_threads_flag_rejected(self, tmp_path):
        cfg = write(tmp_path, "t.yaml", SWEEP_YAML)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "t"),
                  "--threads", "2"])
        assert exc.value.code == 2

    def test_zero_steps_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "zero.yaml",
                    SWEEP_YAML.replace("steps: 101", "steps: 0"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "z0")]) == 2
        assert "sweep.steps" in capsys.readouterr().err

    def test_manifest_health_from_the_columns(self, tmp_path):
        cfg = Path(__file__).resolve().parent.parent / "configs" / "resonance_im_sweep.yaml"
        out = tmp_path / "im"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=_reject_constant)
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        condition, residual = zip(*(map(float, r.split(",")[3:]) for r in lines))
        assert manifest["health"] == {
            "error_rows": 0,
            "near_singular_rows": sum(c > CONDITION_NEAR_SINGULAR for c in condition),
            "worst_condition": max(condition),
            "worst_residual": max(residual),
            "low_digit_rows": sum(c * RELATIVE_ENVELOPE > 1e-6 for c in condition),
        }
        # the loss sweep passes the resonance: its worst row is ill-conditioned
        assert manifest["health"]["worst_condition"] > 1e10
        assert not (out / "sweep_errors.csv").exists()

    def test_manifest_counts_low_digit_rows(self, tmp_path):
        # a healthy row whose condition times the special-function envelope
        # exceeds 1e-6 keeps fewer than 6 digits: every row of the loss
        # sweep (its best condition is about 6e7), no row of a sweep far
        # from the resonance
        cfg = Path(__file__).resolve().parent.parent / "configs" / "resonance_im_sweep.yaml"
        far = write(tmp_path, "far.yaml",
                    SWEEP_YAML.replace("-2.05", "-1.5").replace("-1.85", "-1.0"))
        counts = []
        for name, config in (("im", str(cfg)), ("far", far)):
            out = tmp_path / name
            assert main(["sweep", "--config", config, "--out", str(out)]) == 0
            lines = (out / "sweep.csv").read_text().splitlines()[1:]
            condition = [float(r.split(",")[3]) for r in lines]
            manifest = json.loads((out / "manifest.json").read_text())
            low = sum(c * RELATIVE_ENVELOPE > 1e-6 for c in condition)
            assert manifest["health"]["low_digit_rows"] == low
            counts.append((low, len(condition)))
        assert counts == [(121, 121), (0, 101)]

    def test_single_step(self, tmp_path):
        cfg = write(tmp_path, "one.yaml",
                    SWEEP_YAML.replace("steps: 101", "steps: 1"))
        out = tmp_path / "one"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 2


class TestFieldCommand:
    def test_slp_profile_csv(self, tmp_path):
        cfg = write(tmp_path, "f.yaml", FIELD_YAML)
        out = tmp_path / "f"
        assert main(["field", "--config", cfg, "--out", str(out), "--svg"]) == 0
        rows = (out / "field.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,re_u1,im_u1,re_u2,im_u2,abs_u,region"
        assert len(rows) == 1 + 5 * 8
        regions = {r.rsplit(",", 1)[1] for r in rows[1:]}
        assert regions == {"shell", "exterior"}

    def test_interface_point_tagged(self, tmp_path):
        cfg = write(tmp_path, "f2.yaml", """
omega: 1.0
geometry: {radius: 1.0}
materials:
  matrix: {lam: 1.0, mu: 1.0}
  shell: {lam: [-1.9, 1.0e-4], mu: [-1.9, 1.0e-4]}
source:
  terms: [{n: 5, kappa1: 1.0}]
field:
  kind: nocore
  radii: {start: 1.0, stop: 1.0, steps: 1}
  thetas: 4
""")
        out = tmp_path / "f2"
        assert main(["field", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "field.csv").read_text().strip().splitlines()[1:]
        assert all(r.endswith("interface") for r in rows)

    @pytest.mark.parametrize("thetas", [0, -3])
    def test_empty_angle_grid_exits_2(self, tmp_path, capsys, thetas):
        cfg = write(tmp_path, "ft.yaml",
                    FIELD_YAML.replace("thetas: 8", f"thetas: {thetas}"))
        assert main(["field", "--config", cfg, "--out", str(tmp_path / "ft")]) == 2
        assert "field.thetas" in capsys.readouterr().err


    @pytest.mark.parametrize("radii", [
        "{start: 0.0, stop: 2.0, steps: 3}",  # the origin
        "{start: 1.0, stop: -1.0, steps: 4}",  # negative radii
    ])
    def test_nonpositive_radius_exits_2_before_solving(
        self, tmp_path, capsys, monkeypatch, radii
    ):
        import elastodisk.cli as cli

        def no_solve(*args):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(cli, "solve_modes", no_solve)
        cfg = write(tmp_path, "fr.yaml", """
omega: 1.0
geometry: {radius: 1.0}
materials:
  matrix: {lam: 1.0, mu: 1.0}
  shell: {lam: -1.9, mu: -1.9}
source:
  terms: [{n: 5, kappa1: 1.0}]
field:
  kind: nocore
  radii: RADII
""".replace("RADII", radii))
        out = tmp_path / "fr"
        assert main(["field", "--config", cfg, "--out", str(out)]) == 2
        assert "'field.radii'" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == 2


class TestCalrCommand:
    def test_report_and_scan(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", CALR_YAML)
        out = tmp_path / "c"
        assert main(["calr", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "calr_report.json").read_text())
        assert rep["verdict"] == "calr"
        assert rep["energy"] > 1e4
        assert rep["critical_radius"] == pytest.approx(math.sqrt(1.0 / 0.8))
        assert (out / "det_scan.csv").exists()

    def test_pinned_p_skips_scan(self, tmp_path):
        cfg = write(tmp_path, "cp.yaml", """
omega: 5.0
geometry: {r_inner: 0.8, r_outer: 1.0}
materials:
  matrix: {lam: 1.0, mu: 1.0}
  core: {lam: 1.0, mu: 1.0}
source:
  terms: [{n: 25, kappa1: 1.0}]
calr:
  n0: 25
  p: 0.015957
""")
        out = tmp_path / "cp"
        assert main(["calr", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "det_scan.csv").exists()
        rep = json.loads((out / "calr_report.json").read_text())
        assert rep["tuned_p"][0] == pytest.approx(0.015957)

    def test_pinned_complex_p_reported_exactly(self, tmp_path):
        cfg = write(tmp_path, "cc.yaml", """
omega: 5.0
geometry: {r_inner: 0.8, r_outer: 1.0}
materials:
  matrix: {lam: 1.0, mu: 1.0}
  core: {lam: 1.0, mu: 1.0}
source:
  terms: [{n: 25, kappa1: 1.0}]
calr:
  n0: 25
  p: [0.016, 0.001]
""")
        out = tmp_path / "cc"
        assert main(["calr", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "calr_report.json").read_text())
        assert rep["tuned_p"] == [0.016, 0.001]

    def test_short_scan_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "cs.yaml", CALR_YAML.replace("steps: 81", "steps: 4"))
        assert main(["calr", "--config", cfg, "--out", str(tmp_path / "cs")]) == 2
        assert "calr.scan.steps" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "sweep", "field", "calr"])
def test_nonpositive_omega_exits_2(tmp_path, capsys, command):
    text = {"spectrum": SPECTRUM_YAML, "sweep": SWEEP_YAML,
            "field": FIELD_YAML, "calr": CALR_YAML}[command]
    bad = "\n".join("omega: -1.0" if line.startswith("omega:") else line
                    for line in text.splitlines())
    cfg = write(tmp_path, "w.yaml", bad)
    out = tmp_path / "w"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "'omega'" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == 2


@pytest.mark.parametrize("key, command, old, new", [
    ("modes.start", "spectrum", "start: 0", "start: zero"),
    ("field.radii.start", "field", "start: 0.3", "start: a"),
    ("calr.scan.steps", "calr", "steps: 81", "steps: many"),
    ("source.terms[0].n", "sweep", "n: 5", "n: five"),
    ("modes[0]", "spectrum", "{start: 0, stop: 60}", "[x]"),
    ("modes[1]", "spectrum", "{start: 0, stop: 60}", "[1, 2.7]"),
    ("modes.stop", "spectrum", "stop: 60", "stop: 60.5"),
    ("source.terms[0].n", "sweep", "n: 5", "n: 5.5"),
    ("sweep.steps", "sweep", "steps: 101", "steps: 100.5"),
    ("field.n", "field", "n: 5", "n: true"),
    ("field.radii.steps", "field", "steps: 5", "steps: 4.5"),
    ("field.thetas", "field", "thetas: 8", "thetas: 2.5"),
    ("calr.n0", "calr", "n0: 25", "n0: 25.5"),
    ("calr.scan.steps", "calr", "steps: 81", "steps: 81.5"),
    ("geometry.radius", "spectrum", "radius: 1.0", "radius: 0.0"),
    ("geometry.radius", "sweep", "radius: 1.0", "radius: -1.0"),
    ("geometry.r_inner", "calr", "r_inner: 0.8", "r_inner: 1.0"),
    ("calr.n0", "calr", "n0: 25", "n0: 0"),
    ("sweep.start", "sweep", "c_other: 2.08e-9", "c_other: 2.08e-9\n  scale: log"),
    ("sweep.stop", "sweep", "start: -2.05\n  stop: -1.85",
     "start: 0.5\n  stop: 0.0\n  scale: log"),
    ("calr.scan.lo", "calr", "{steps: 81}", "{steps: 81, lo: 0.16, hi: -0.16}"),
    ("calr.scan.lo", "calr", "{steps: 81}", "{steps: 81, lo: 0.1, hi: 0.1}"),
    ("calr.scan.lo", "calr", "{steps: 81}", "{steps: 81, lo: 0.5}"),  # above 4/n0
])
def test_nested_key_errors_name_the_full_key(tmp_path, capsys, key, command, old, new):
    text = {"spectrum": SPECTRUM_YAML, "sweep": SWEEP_YAML,
            "field": FIELD_YAML, "calr": CALR_YAML}[command]
    assert old in text
    cfg = write(tmp_path, "k.yaml", text.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "k")]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_integral_float_counts_as_integer(tmp_path):
    cfg = write(tmp_path, "i.yaml",
                SPECTRUM_YAML.replace("{start: 0, stop: 60}", "[2.0, 3]"))
    out = tmp_path / "i"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["2", "3"]


def test_selfcheck_passes(tmp_path, capsys):
    assert main(["selfcheck", "--out", str(tmp_path / "sc")]) == 0
    out = capsys.readouterr().out
    assert "wronskian" in out and "pass" in out


def test_unknown_source_mode_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "z.yaml", SWEEP_YAML.replace("n: 5", "n: 0"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "z")]) == 2
    assert "terms[0]" in capsys.readouterr().err


class TestShippedConfigs:
    """Every config under configs/ runs to completion, twice with the same
    bytes: everything but the manifest is deterministic."""

    @pytest.mark.parametrize("name", [
        "spectrum_quasistatic", "resonance_re_sweep", "resonance_im_sweep",
        "field_beyond_quasistatic", "field_quasistatic",
        "calr_tuned", "field_core_shell",
    ])
    def test_config_runs(self, tmp_path, name):
        cfg = Path(__file__).resolve().parent.parent / "configs" / f"{name}.yaml"
        command = {
            "spectrum_quasistatic": "spectrum",
            "resonance_re_sweep": "sweep",
            "resonance_im_sweep": "sweep",
            "field_beyond_quasistatic": "field",
            "field_quasistatic": "field",
            "calr_tuned": "calr",
            "field_core_shell": "field",
        }[name]
        runs = []
        for out in (tmp_path / "first", tmp_path / "second"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"] == 0 and manifest["outputs"]
            runs.append({
                p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "manifest.json"
            })
        first, second = runs
        assert first and first == second


def test_malformed_source_entries_exit_2(tmp_path, capsys):
    bad_term = SWEEP_YAML.replace("- {n: 5, kappa1: 1.0}", "- [5, 1.0]")
    cfg = write(tmp_path, "m1.yaml", bad_term)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "m1")]) == 2
    assert "terms[0]" in capsys.readouterr().err

    bad_kappa = SWEEP_YAML.replace("kappa1: 1.0", "kappa1: [1.0, 2.0, 3.0]")
    cfg = write(tmp_path, "m2.yaml", bad_kappa)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "m2")]) == 2

    dup = SWEEP_YAML.replace(
        "    - {n: 5, kappa1: 1.0}",
        "    - {n: 5, kappa1: 1.0}\n    - {n: 5, kappa1: 2.0}",
    )
    cfg = write(tmp_path, "m3.yaml", dup)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "m3")]) == 2
    assert "duplicate" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_manifest_is_strict_json(tmp_path):
    m = ManifestWriter(tmp_path, "sweep", b"")
    m.data["peak"] = {"axis_value": -1.9, "abs_psi11": float("nan")}
    m.finish(0)
    loaded = json.loads((tmp_path / "manifest.json").read_text(),
                        parse_constant=_reject_constant)
    assert loaded["peak"] == {"axis_value": -1.9, "abs_psi11": None}


def test_json_writer_maps_non_finite_to_null(tmp_path):
    data = {"a": [1.0, float("inf"), (float("-inf"), 2)], "b": {"c": float("nan")}}
    path = write_json(tmp_path / "r.json", data)
    loaded = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert loaded == {"a": [1.0, None, [None, 2]], "b": {"c": None}}
    finite = {"x": [0.1, 1e-300, 3], "y": "z"}
    assert write_json(tmp_path / "f.json", finite).read_text() == (
        json.dumps(finite, indent=2, sort_keys=True) + "\n"
    )
