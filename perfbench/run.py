#!/usr/bin/env python3
"""fdsic benchmark: one closed-loop client driving ``fdsic.cli.main``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload {sweep40,trials10,tone} \
        --seed N --seconds S --trace {0,1}

Each op is one in-process CLI invocation whose outputs are checked
against ``perfbench/reference.json``. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A record of the run and its environment is
written under ``.perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(SRC))

from trace_layers import Tracer  # noqa: E402  (beside this file)

# Outputs must match the reference to this many dB, value by value.
TOLERANCE_DB = 0.01

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7

# op_s_p90 needs ten ops beyond it to be a measured tail; shorter runs
# report the slowest op instead.
P90_MIN_OPS = 100


@dataclass(frozen=True)
class Workload:
    command: str
    preset: str
    extra: tuple
    # Op seeds cycle through range(n_seeds), the seeds held in the reference.
    n_seeds: int
    output: str

    def argv(self, seed: int, out: Path) -> list[str]:
        return [self.command, "--preset", self.preset, *self.extra,
                "--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    # The acceptance sweep with CLI defaults: 9 powers x 4 cancellers,
    # 100 frames; 36 LS fits on 4 distinct regressor matrices per op.
    "sweep40": Workload("sweep", "sweep_40db", (), 8, "suppression.csv"),
    # Monte-Carlo trials: one power, 10 frames, fresh frames every op,
    # including the rank-deficient joint-dac-iq fit.
    "trials10": Workload(
        "sweep", "sweep_55db", ("--powers", "22", "--frames", "10"), 256, "suppression.csv"
    ),
    # Tone test: impairment chain, spectrum and file output, no LS fit.
    "tone": Workload("tone-test", "fig5_m10dbm", (), 1024, "harmonics.csv"),
}


def read_output(workload: Workload, out_dir: Path) -> list:
    """The checked part of an op's output, as JSON-ready rows.

    sweep: [tx_power_dbm, method, mean_db, std_db, floor_dbfs] per row;
    tone-test: [m, pass|fail, [measured_dbc...]] per order.
    """
    with (out_dir / workload.output).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if workload.command == "sweep":
        return [
            [float(r["tx_power_dbm"]), r["method"], float(r["mean_residual_above_noise_db"]),
             float(r["std_db"]), float(r["apparent_floor_dbfs"])]
            for r in rows
        ]
    return [
        [int(r["m"]), r["pass"], [float(v) for v in r["measured_dbc"].split(";")]]
        for r in rows
    ]


def compare(expected, got, where: str = "") -> str | None:
    """First difference between two output trees, or None if they match."""
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return f"{where}: expected {len(expected)} items, got {got!r}"
        for i, (e, g) in enumerate(zip(expected, got)):
            diff = compare(e, g, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(expected, float):
        if not isinstance(got, float) or not abs(got - expected) <= TOLERANCE_DB:
            return f"{where}: expected {expected!r} +- {TOLERANCE_DB}, got {got!r}"
        return None
    if got != expected:
        return f"{where}: expected {expected!r}, got {got!r}"
    return None


@dataclass
class OpResult:
    op: int
    seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    error: str | None


class Runner:
    """Runs ops of one workload in this process, one at a time."""

    def __init__(self, workload: Workload, reference: dict | None, work_dir: Path):
        import fdsic.cli

        self.cli = fdsic.cli
        self.workload = workload
        self.reference = reference
        self.work_dir = work_dir

    def run_op(self, op: int, seed: int, traced: bool = False) -> tuple[OpResult, list | None]:
        """One CLI invocation. Failures are recorded, never raised."""
        out = self.work_dir / f"op{op}{'t' if traced else ''}"
        argv = self.workload.argv(seed, out)
        captured = io.StringIO()
        error = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            code = None
            error = f"raised {exc!r}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        rows = None
        if error is None and code != 0:
            error = f"exit code {code}: {captured.getvalue().strip()[-300:]}"
        if error is None:
            try:
                rows = read_output(self.workload, out)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {exc!r}"
        if error is None and self.reference is not None:
            expected = self.reference.get(str(seed))
            if expected is None:
                error = f"no reference for seed {seed}"
            else:
                diff = compare(expected, rows, where=self.workload.output)
                if diff:
                    error = f"output differs from reference: {diff}"
        shutil.rmtree(out, ignore_errors=True)
        return OpResult(op, seed, traced, wall, cpu, error), rows


def run_loop(runner: Runner, seed: int, seconds: float, tracer=None, max_ops=None) -> list[OpResult]:
    """Closed loop: start ops back to back until ``seconds`` have passed.

    Op k uses seed (seed + k) mod n_seeds. With a tracer, each k runs an
    untraced op and then a traced op on the same seed, so the two
    medians give the tracing overhead.
    """
    results = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        op_seed = (seed + k) % runner.workload.n_seeds
        results.append(runner.run_op(k, op_seed)[0])
        if tracer is not None:
            with tracer.tracing(op=k):
                results.append(runner.run_op(k, op_seed, traced=True)[0])
        k += 1
        if (max_ops is not None and k >= max_ops) or time.perf_counter() >= deadline:
            return results


def measure_setup(preset: str) -> list[float]:
    """Wall time of fresh processes that import fdsic.cli and load a preset."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fdsic.cli; "
        "from fdsic.presets import load_preset; load_preset(sys.argv[2])"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), preset], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment(trace: bool) -> dict:
    import numpy as np
    import scipy

    blas = None
    with contextlib.suppress(AttributeError, KeyError, TypeError):  # layout varies by numpy version
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = dep.get("openblas configuration", "")
        max_threads = next((w.split("=", 1)[1] for w in config.split()
                            if w.startswith("MAX_THREADS=")), None)
        blas = {"name": dep.get("name"), "version": dep.get("version"),
                "max_threads": max_threads}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "git_commit": commit,
        "trace": trace,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list[OpResult], setup: list[float]) -> dict:
    walls = [r.wall_s for r in results]
    p90 = statistics.quantiles(walls, n=10)[-1] if len(walls) >= P90_MIN_OPS else max(walls)
    ok = sum(r.error is None for r in results)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(len(walls) / sum(walls), "1/s"),
        "op_s_p50": metric(statistics.median(walls), "s"),
        "op_s_p90": metric(p90, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "ok_ratio": metric(ok / len(results), "ratio"),
    }


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())["workloads"][workload]


def run(workload_name: str, seed: int, seconds: float, trace: bool, max_ops=None) -> dict:
    """One benchmark run; returns the record written under .perfbench/results."""
    workload = WORKLOADS[workload_name]
    setup = [] if trace else measure_setup(workload.preset)
    reference = load_reference(workload_name)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
    try:
        runner = Runner(workload, reference, work_dir)
        tracer = Tracer() if trace else None
        results = run_loop(runner, seed, seconds, tracer, max_ops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = sum(r.error is not None for r in results)
    if trace:
        plain = [r for r in results if not r.traced]
        traced = [r for r in results if r.traced]
        metrics = tracer.layer_metrics(n_ops=len(traced))
        cpu_per_op = statistics.median(r.cpu_s for r in plain)
        metrics["process.cpu_s_per_op"] = metric(cpu_per_op, "s")
        metrics["process.cpu_util"] = metric(
            sum(r.cpu_s for r in plain) / sum(r.wall_s for r in plain), "ratio")
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in plain), "ratio")
    else:
        metrics = end_to_end(results, setup)
    summary = {"correct": failed == 0, "attempted": len(results), "failed": failed,
               "metrics": metrics}
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "environment": environment(trace),
        "setup_s": setup,
        "ops": [vars(r) for r in results],
        "spans": tracer.spans if trace else None,
        "count_errors": tracer.count_errors if trace else None,
        "result": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fdsic" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"error: no fdsic sources under {SRC} or no {REFERENCE.name}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for op in record["ops"]:
        if op["error"]:
            print(f"op {op['op']} (seed {op['seed']}) failed: {op['error']}", file=sys.stderr)
    for error in record["count_errors"] or ():
        print(f"counter not read: {error}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
