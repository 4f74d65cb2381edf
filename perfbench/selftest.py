#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of fdsic).

    python3 perfbench/selftest.py

1. Exact counts: on every workload, two traced runs of one op with the
   same seed give identical count metrics and read every counter
   without error. sweep40 makes this take about three minutes.
2. Failures: an op that raises, exits nonzero or differs from the
   reference is counted as failed and the run goes on; after the
   traced run no wrapper is left in any fdsic module.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path

import run
from trace_layers import Tracer

EXACT = (
    "cancellers.ls_estimate.calls", "cancellers.run_comparison.calls",
    "cancellers.build_basis.calls", "cancellers.cancel.calls",
    "impairments.simulate_received.calls", "signals.gen_ofdm_frames.calls",
    "signals.gen_tone.calls", "signals.fir_convolve.calls", "spectral.spectrum.calls",
    "cancellers.ls_estimate.rows", "cancellers.ls_estimate.cols",
    "cancellers.ls_estimate.regressor_mb", "cancellers.ls_estimate.full_rank_ratio",
    "impairments.simulate_received.samples", "spectral.spectrum.segments",
    "impairments.clipped_samples",
)
FOREVER = 1e9  # op count, not time, ends the self-test runs
COUNTED_WORKLOADS = ("tone", "trials10", "sweep40")


def leftover_wrappers() -> list[str]:
    """fdsic module attributes that are still benchmark wrappers."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "fdsic" or name.startswith("fdsic."):
            for attr, value in vars(module).items():
                if hasattr(value, "__perfbench_original__"):
                    found.append(f"{name}.{attr}")
    return found


def check_exact_counts(workload: str, seed: int = 7) -> list[str]:
    values = []
    for _ in range(2):
        record = run.run(workload, seed, FOREVER, trace=True, max_ops=1)
        if record["result"]["failed"]:
            return [f"{workload}: traced run had failed ops"]
        if record["count_errors"]:
            return [f"{workload}: counter errors {record['count_errors']}"]
        values.append({k: record["result"]["metrics"][k]["value"] for k in EXACT})
    return [f"{workload}: {k} differs between runs: {values[0][k]!r} != {values[1][k]!r}"
            for k in EXACT if values[0][k] != values[1][k]]


class FlakyCli:
    """Stands in for fdsic.cli: op seed 2 raises, seed 3 exits nonzero."""

    def main(self, argv):
        import fdsic.cli

        seed = argv[argv.index("--seed") + 1]
        if seed == "2":
            raise RuntimeError("injected failure")
        if seed == "3":
            argv = argv + ["--n-fft", "1"]  # rejected inside spectrum: exit code 1
        return fdsic.cli.main(argv)


def check_failures() -> list[str]:
    workload = run.WORKLOADS["tone"]
    reference = copy.deepcopy(run.load_reference("tone"))
    reference["1"][-1][2][0] += 10 * run.TOLERANCE_DB  # op seed 1 now mismatches
    (run.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=run.OUT / "tmp")
    try:
        runner = run.Runner(workload, reference, Path(work_dir))
        runner.cli = FlakyCli()
        results = run.run_loop(runner, 0, FOREVER, Tracer(), max_ops=5)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = []
    failed = {(r.seed, r.traced): r.error for r in results if r.error}
    if len(results) != 10:
        problems.append(f"expected 10 ops (5 plain, 5 traced), got {len(results)}")
    for traced in (False, True):
        for seed, reason in ((1, "differs from reference"), (2, "injected failure"),
                             (3, "exit code 1")):
            if reason not in (failed.get((seed, traced)) or ""):
                problems.append(f"seed {seed} traced={traced}: expected failure "
                                f"{reason!r}, got {failed.get((seed, traced))!r}")
    if len(failed) != 6:
        problems.append(f"expected 6 failed ops, got {sorted(failed)}")
    problems += [f"wrapper left behind: {w}" for w in leftover_wrappers()]
    if tracemalloc.is_tracing():
        problems.append("tracemalloc still running")
    return problems


def main() -> int:
    problems = check_failures()
    for workload in COUNTED_WORKLOADS:
        problems += check_exact_counts(workload)
    problems += [f"wrapper left behind: {w}" for w in leftover_wrappers()]
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
