#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. Runs every workload of BENCHMARK.json for about a second, untraced and
   traced, and checks that each run is correct and emits exactly the
   metric names and units that BENCHMARK.json lists, all matching
   [A-Za-z0-9_.-]+.
2. Runs one real op per workload and checks that it passes against its
   golden report, and that it is counted as a failed op once one numeric
   golden value is moved by 1e-6.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

from envinfo import pin_blas_threads
from run import ROOT, SRC, WORK_DIR

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_workload(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def first_numeric_path(value, path=()):
    """Path of the first float in a JSON value, depth first."""
    if isinstance(value, float):
        return path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        found = first_numeric_path(child, path + (key,))
        if found is not None:
            return found
    return None


def perturbed(report: dict, delta: float) -> dict:
    out = copy.deepcopy(report)
    path = first_numeric_path(out["trials"])
    target = out["trials"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] += delta
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for group in ("workloads", "end_to_end", "per_layer"):
        problems += [f"{group}: bad name {m['name']!r}" for m in spec[group] if not NAME.fullmatch(m["name"])]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run_workload(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{workload} trace={trace}: not correct: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != BENCHMARK.json {expected[trace]}")
            problems += [f"{workload}: bad metric name {n!r}" for n in got if not NAME.fullmatch(n)]
            print(f"{workload} trace={trace}: {result['attempted']} ops, {len(got)} metrics", flush=True)

    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from locclab import cli

    import checks
    import workloads
    from layers import run_cli

    for workload in (w["name"] for w in spec["workloads"]):
        golden = checks.load_golden(workload)
        work = WORK_DIR / f"selfcheck-{workload}"
        try:
            op = workloads.generate(workload, 7, work)[0][0]
            _, code, text = run_cli(cli, op)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        results = [(op, code, text)]
        if checks.count_failures(results, golden):
            problems.append(f"{workload}: a correct op was counted as failed")
        bad = {op["key"]: perturbed(golden[op["key"]], 1e-6)}
        if len(checks.count_failures(results, bad)) != 1:
            problems.append(f"{workload}: a golden value moved by 1e-6 was not counted as a failed op")
        print(f"{workload}: golden check passes the op and fails it against a perturbed golden", flush=True)

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
