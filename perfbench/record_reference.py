#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every op against.

    python3 perfbench/record_reference.py

Runs every workload's op once for each seed in range(n_seeds) and writes
the checked outputs (suppression.csv values, harmonics.csv pass/fail and
levels) to perfbench/reference.json, replacing it whole. Re-record only
in a change that alters these outputs on purpose, and say so in that
change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import OUT, REFERENCE, WORKLOADS, Runner, environment


def main() -> int:
    data = {"workloads": {}}
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT / "tmp")
    try:
        for name, workload in sorted(WORKLOADS.items()):
            runner = Runner(workload, None, Path(work_dir))
            entries = {}
            t0 = time.perf_counter()
            for seed in range(workload.n_seeds):
                result, rows = runner.run_op(seed, seed)
                if result.error:
                    print(f"error: {name} seed {seed}: {result.error}", file=sys.stderr)
                    return 1
                entries[str(seed)] = rows
            data["workloads"][name] = entries
            print(f"{name}: {len(entries)} seeds in {time.perf_counter() - t0:.1f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    data["environment"] = environment(trace=False)
    REFERENCE.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
