"""elastodisk benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from `src/` and
driven through its public CLI entry point, `elastodisk.cli.main`, in this
one process, with BLAS limited to one thread and no `--threads` flag.
Each pass writes YAML configs generated from the seed and the pass index,
then runs the workload's CLI commands on them; only those calls are timed.
Every pass's artifacts are checked (`checks.py`) outside the timed region.

`--trace 0` times passes for S seconds and reports the end-to-end metrics
of BENCHMARK.json.  `setup_s` is the median wall time of fresh interpreter
processes that import numpy, yaml and the CLI and generate the first
pass's inputs.  `items_per_s` divides the items of a pass by the median
pass time in reference seconds: each CLI call is bracketed by a fixed
calibration loop, and its wall time is scaled by CALIBRATION_REF_S over the
calibration time, which cancels the speed state of a shared host
(`calibration_s`); the wall-clock figure is printed and recorded too.  `peak_rss_mb` is this process's peak resident memory after its
first pass, the memory one CLI process reaches.  `success_ratio` is one
minus `error_rate`, the share of failed items, which is printed too.

`--trace 1` times untraced passes for S/2 seconds, then traced passes
(`tracing.py`) for S/2 seconds, and reports the per-layer metrics: the
median over the traced passes, and the traced over the untraced items/s.

The last line of standard output is one JSON object; the lines before it
print every metric by name with its unit.  A run record (machine, versions,
BLAS threads, seed, pass times, line count of `src/elastodisk`) and, for
traced runs, the spans go to `.bench_out/<workload>/`.

Exit status: 0 when every check passed, 1 when an output check failed,
2 when the library or its dependencies cannot be imported.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS, Pass, make_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Calibration time that defines one reference second (see calibration_s).
CALIBRATION_REF_S = 0.020


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def write_configs(p: Pass, root: Path) -> list[Path]:
    """Fresh pass directory holding one YAML config per run."""
    import yaml

    shutil.rmtree(root, ignore_errors=True)
    (root / "config").mkdir(parents=True)
    paths = []
    for run in p.runs:
        path = root / "config" / f"{run.label}.yaml"
        path.write_text(yaml.safe_dump(run.config, sort_keys=True))
        paths.append(path)
    return paths


def probe(workload: str, seed: int) -> None:
    """Set-up as one CLI process pays it: imports plus input generation."""
    import numpy  # noqa: F401
    import yaml  # noqa: F401

    import elastodisk.cli  # noqa: F401

    write_configs(make_pass(workload, seed, 0), OUT / workload / "probe")


def calibration_s(iterations: int = 60_000) -> float:
    """Wall time of a fixed pure-Python loop: how fast this host runs now.

    Shared hosts switch between speed states for seconds at a time (pass
    times differing by a factor of two within one run have been seen on a
    2-CPU sandbox).  The loop runs right before and after each CLI call, so
    dividing the call's time by the calibration time cancels the host's
    state; no library code runs in it, so a change to the library cannot
    move it.  Process start-up (`setup_s`) is dominated by file and kernel
    work this loop does not track, so set-up times stay wall-clock.
    """
    t0 = time.perf_counter()
    z = 0.5 + 0.25j
    ring = {}
    for i in range(iterations):
        z = z * z * 0.5 + 0.25j if abs(z) < 2.0 else 0.3 + 0.1j
        ring[i & 255] = z
    return time.perf_counter() - t0


class ProbeError(Exception):
    """A set-up probe process failed or did not finish."""


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds of each set-up probe process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        try:
            res = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                 text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ProbeError(f"set-up probe exceeded {PROBE_TIMEOUT_S} s") from exc
        times.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise ProbeError(f"set-up probe failed: {res.stderr.strip()}")
    return times


class PassResult(NamedTuple):
    seconds: float
    ref_seconds: float  # see Runner._timed
    trace: object  # tracing.PassTrace of a traced pass, else None
    bytes_written: int
    items: int
    peak_rss_mb: float  # of this process, right after the pass's CLI calls


class Runner:
    """Runs, times and checks consecutive passes of one workload."""

    def __init__(self, workload: str, seed: int, pass_dir: Path | None = None):
        import elastodisk.cli
        from checks import CHECKS

        self.cli = elastodisk.cli
        self.check = CHECKS[workload]
        self.workload = workload
        self.seed = seed
        self.pass_dir = pass_dir or OUT / workload / "pass"
        self.next_index = 0
        self.attempted = 0
        self.failed = 0

    def _timed(self, argvs) -> tuple[float, float]:
        """Wall seconds and reference seconds of the pass's CLI calls.

        Each call is bracketed by calibration loops and rescaled to a host
        whose loop takes CALIBRATION_REF_S.
        """
        main = self.cli.main  # looked up here so a traced pass gets the wrapper
        wall = ref = 0.0
        before = calibration_s()
        for argv in argvs:
            t0 = time.perf_counter()
            main(argv)
            dt = time.perf_counter() - t0
            after = calibration_s()
            wall += dt
            ref += dt * CALIBRATION_REF_S / ((before + after) / 2.0)
            before = after
        return wall, ref

    def one(self, tracer=None) -> PassResult:
        p = make_pass(self.workload, self.seed, self.next_index)
        self.next_index += 1
        configs = write_configs(p, self.pass_dir)
        argvs = [[run.command, "--config", str(cfg), "--out", str(self.pass_dir / run.label)]
                 for run, cfg in zip(p.runs, configs)]
        trace = None
        if tracer is None:
            dt, ref = self._timed(argvs)
        else:
            with tracer.installed():
                tracer.begin_pass()
                dt, ref = self._timed(argvs)
                trace = tracer.end_pass()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.attempted += p.items
        self.failed += self.check(p, self.pass_dir)
        written = sum(f.stat().st_size for run in p.runs
                      for f in (self.pass_dir / run.label).rglob("*") if f.is_file())
        return PassResult(dt, ref, trace, written, p.items, rss)

    def until(self, seconds: float, tracer=None, min_passes: int = 1) -> list[PassResult]:
        """Passes until their timed seconds add up to `seconds`."""
        out = []
        spent = 0.0
        while spent < seconds or len(out) < min_passes:
            out.append(self.one(tracer))
            spent += out[-1].seconds
        return out


def timing_summary(passes: list[PassResult]) -> dict:
    """Median and tail pass time, wall and in reference seconds."""
    import numpy as np

    wall = [r.seconds for r in passes]
    ref = [r.ref_seconds for r in passes]
    items = passes[0].items
    n = len(passes)
    tail = next((q for q in PERCENTILES if n * (1.0 - q / 100.0) >= 10), None)
    return {
        "samples": n,
        "items_per_pass": items,
        "median_pass_s": statistics.median(wall),
        "median_pass_ref_s": statistics.median(ref),
        "wall_items_per_s": items / statistics.median(wall),
        "items_per_s": items / statistics.median(ref),
        "tail_percentile": tail,
        "tail_pass_s": float(np.percentile(wall, tail)) if tail is not None else None,
        "tail_pass_ref_s": float(np.percentile(ref, tail)) if tail is not None else None,
        "pass_s": wall,
        "pass_ref_s": ref,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def machine_record(args) -> dict:
    import numpy
    import yaml

    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted((SRC / "elastodisk").glob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "pyyaml": yaml.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    try:
        import numpy  # noqa: F401
        import yaml  # noqa: F401

        import elastodisk.cli
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(elastodisk.cli.__file__).resolve().parent != SRC / "elastodisk":
        print(f"error: elastodisk was imported from {elastodisk.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    from checks import CheckError

    record = machine_record(args)
    runner = Runner(args.workload, args.seed)
    metrics: dict[str, float] = {}
    correct = True
    try:
        if args.trace == 0:
            setup = measure_setup(args.workload, args.seed)
            passes = runner.until(args.seconds, min_passes=3)
            timing = timing_summary(passes)
            record.update(setup_probe_s=setup, timing=timing,
                          peak_rss_mb_per_pass=[r.peak_rss_mb for r in passes])
            metrics = {
                "setup_s": statistics.median(setup),
                "items_per_s": timing["items_per_s"],
                # A CLI process runs one pass; later passes here only grow
                # the special-function cache, by an amount that depends on
                # how many passes fit in the run.
                "peak_rss_mb": passes[0].peak_rss_mb,
                "success_ratio": 1.0 - runner.failed / runner.attempted,
            }
        else:
            from tracing import Tracer, layer_metrics

            plain = runner.until(args.seconds / 2.0, min_passes=2)
            tracer = Tracer()
            traced = runner.until(args.seconds / 2.0, tracer=tracer)
            items = traced[0].items
            per_pass, absent = [], set()
            for r in traced:
                m, gone = layer_metrics(r.trace, items, tracer)
                m["artifacts.bytes_per_item"] = r.bytes_written / items
                per_pass.append(m)
                absent.update(gone)
            metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
            plain_t = timing_summary(plain)
            traced_t = timing_summary(traced)
            metrics["trace.overhead_ratio"] = traced_t["items_per_s"] / plain_t["items_per_s"]
            record.update(untraced=plain_t, traced=traced_t, absent=sorted(absent),
                          spans_per_pass=[r.trace.spans for r in traced],
                          layers_per_pass=per_pass)
            tracer.save(OUT / args.workload / f"spans-seed{args.seed}.npz")
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    except ProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record.update(correct=correct, passes=runner.next_index, attempted=runner.attempted,
                  failed=runner.failed, metrics=metrics)
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    (OUT / args.workload / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} passes {runner.next_index}; "
          f"nproc {record['nproc']}, cpu {record['cpu_model']}, python {record['python']}, "
          f"numpy {record['numpy']}, scipy {record['scipy']}, "
          f"blas threads {os.environ['OPENBLAS_NUM_THREADS']}, src lines {record['src_lines']}")
    if args.trace == 0 and correct:
        t = record["timing"]
        tail = (f", p{t['tail_percentile']:g} {t['tail_pass_s']:.4f} s"
                if t["tail_percentile"] is not None else "")
        print(f"wall-clock pass time: median {t['median_pass_s']:.4f} s{tail}, "
              f"{t['samples']} samples, {t['items_per_pass']} items per pass")
        print(f"wall-clock items_per_s {t['wall_items_per_s']:.6g} items/s; "
              f"items_per_s below is in reference seconds")
    print(f"error_rate {runner.failed / max(runner.attempted, 1):.6g} ratio "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
