#!/usr/bin/env python3
"""Per-layer profile over a fixed grid of inputs; not gated.

    python3 perfbench/profile_grid.py --out perfbench/BENCH_<label>.json

The grid is depth {1, 2, 4, 6, 8} x members {2, 8} for bounds-verify on
adaptive projective 2x2 protocols, and Bell-diagonal d in {2, 4, 8} with
Dirichlet weights for distill-report. Each point gets one count op
(numpy.linalg wrapped) and REPEATS untraced/traced pairs; the file holds
the per-layer medians and the untraced CLI latency in nominal seconds (see
reference.py), and the raw fresh-process import time of locclab, with the
environment block. A perf change quotes its numbers against the committed
file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

from envinfo import environment, pin_blas_threads
from run import LAYER_METRICS, ROOT, SRC, WORK_DIR

DEPTHS = (1, 2, 4, 6, 8)
MEMBERS = (2, 8)
BELL_DIMS = (2, 4, 8)
REPEATS = 5
IMPORT_REPEATS = 5


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports locclab."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import locclab", str(SRC)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_*.json file to write")
    args = parser.parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from locclab import cli

    import workloads
    from layers import LayerProfile
    from reference import SpeedSampler

    work = WORK_DIR / "grid"
    points = []
    try:
        grid = [(f"protocol-d{d}-m{m}", workloads.protocol_scenario(0, d, m), "bounds-verify")
                for d in DEPTHS for m in MEMBERS]
        grid += [(f"bell-d{d}", workloads.bell_scenario(d, "generic", 0), "distill-report") for d in BELL_DIMS]
        work.mkdir(parents=True, exist_ok=True)
        for name, payload, command in grid:
            path = work / f"{name}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            op = {"command": command, "argv": [command, str(path), "--format", "json"],
                  "path": str(path), "seed": None, "key": name}
            sampler = SpeedSampler(dense=command == "distill-report")
            profile = LayerProfile(cli, sampler)
            profile.count(op)
            with sampler:
                for _ in range(REPEATS):
                    profile.pair(op)
            bad = [(code, text[:200]) for _, code, text, _ in profile.results
                   if code != 0 or json.loads(text)["passed"] is not True]
            if bad:
                print(f"error: {name}: {bad[0]}", file=sys.stderr)
                return 1
            metrics = profile.metrics()
            points.append({"name": name, "command": command, "repeats": REPEATS,
                           "latency_p50_s": metrics["untraced_latency_p50_s"],
                           "layers": {k: metrics[k] for k in LAYER_METRICS}})
            print(f"{name:<22} latency_p50_s={metrics['untraced_latency_p50_s']:.6f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"env": environment(ROOT, None), "import_s": import_seconds(), "points": points}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"import_s={record['import_s']:.4f} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
