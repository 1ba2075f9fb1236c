#!/usr/bin/env python3
"""Checks that `record_bench.py --check-solvers` still rejects broken
records: the committed BENCH_solvers.json must pass, and each mutated copy
below must fail.

    solver_gate_test.py <repo root>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def set_first_block_unproven(record):
    record["maxsat"][0]["cdcl_optimal"] = False


def set_warm_speedup_below_floor(record):
    record["hardt_lp"]["warm_speedup"] = 1.5


def set_debug_build(record):
    record["context"]["build_type"] = "debug"


MUTATIONS = {
    "cdcl_optimal: false": set_first_block_unproven,
    "warm_speedup: 1.5": set_warm_speedup_below_floor,
    "build_type: debug": set_debug_build,
}


def check(checker, record, workdir, name):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as f:
        json.dump(record, f)
    return subprocess.run([sys.executable, checker, "--check-solvers", path],
                          capture_output=True, text=True)


def main():
    root = sys.argv[1]
    checker = os.path.join(root, "tools", "record_bench.py")
    with open(os.path.join(root, "BENCH_solvers.json")) as f:
        committed = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        clean = check(checker, committed, workdir, "committed")
        if clean.returncode != 0:
            failures.append("committed record rejected:\n" + clean.stderr)
        for i, (label, mutate) in enumerate(MUTATIONS.items()):
            record = copy.deepcopy(committed)
            mutate(record)
            result = check(checker, record, workdir, f"mutant{i}")
            if result.returncode == 0:
                failures.append(f"gate did not fire for {label}")
            else:
                print(f"{label}: rejected ({result.stderr.strip()})")
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
