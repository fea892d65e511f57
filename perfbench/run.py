#!/usr/bin/env python3
"""Benchmark of the locclab CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload deep_tree --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  deep_tree     bounds-verify on adaptive depth-8, 8-member 2x2 protocols
  sweep         bounds-verify --trials 1 on random_sweep.json, seed advancing per op
  bell_distill  distill-report on Bell-diagonal states, d in {4, 8, 16}

Each op is an in-process call of ``locclab.cli.main([..., "--format",
"json"])`` with stdout captured, one client in a closed loop, BLAS pinned
to one thread. Every op's report is checked against its golden report.

--trace 0 times ops for ``--seconds`` of CLI time and reports the
end-to-end metrics, in nominal seconds (see reference.py): wall time
rescaled by a reference kernel sampled around each op, which cancels the
host's speed drift. --trace 1 is the separate traced run: a fixed count
pass with numpy.linalg wrapped, then, for ``--seconds``, each input once as
an untraced CLI op and once as the same op with a span around every layer
call; it reports the per-layer metrics, times in nominal seconds except
``linalg.eig_s``, which the count pass measures in raw seconds.

Standard output ends with one JSON line: correct, attempted, failed and
metrics. A table comes before it, and the full results, with the
environment block and any spans, go to perfbench/results/. Exit code 0
when every op is correct, 1 when one is not, 2 when the program or the
benchmark's data cannot be found.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "_work"

WORKLOADS = ("deep_tree", "sweep", "bell_distill")
SETUP_REPEATS = 7
SETUP_KERNEL_RUNS = 20
# Ops in the traced run's count pass: a fixed number, so that counts repeat
# exactly for a given seed.
COUNT_OPS = {"deep_tree": 1, "sweep": 64, "bell_distill": 7}
# Workloads whose speed-sampling kernel includes a dense eigensolve, because
# their time is in dense LAPACK eigensolves (see reference.py).
DENSE_KERNEL = {"bell_distill"}

END_TO_END = {
    "latency_p50_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_METRICS = {
    "scenario.load_s": "s",
    "scenario.materialize_s": "s",
    "protocol.run_protocol_s": "s",
    "protocol.tree_nodes": "count",
    "protocol.pruned_frac": "ratio",
    "protocol.chain_mi_s": "s",
    "protocol.bound_suite_s": "s",
    "protocol.audit_rounds_s": "s",
    "distillation.bell_diagonal_s": "s",
    "distillation.report_s": "s",
    "linalg.eigvalsh_calls": "count",
    "linalg.eigh_calls": "count",
    "linalg.svd_calls": "count",
    "linalg.eig_s": "s",
    "cli.residual_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

# Runs in a fresh interpreter: the set-up a user of the benchmark's inputs
# pays, import of locclab plus generation of the scenario files.
SETUP_SCRIPT = """
import json, sys
src, bench, workload, seed, out = sys.argv[1:]
sys.path[:0] = [src, bench]
import locclab
import workloads
schedule = workloads.generate(workload, int(seed), out)
with open(out + "/schedule.json", "w") as fh:
    json.dump(schedule, fh)
"""


def fresh_setup(workload: str, seed: int, work: Path) -> None:
    subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(BENCH_DIR), workload, str(seed), str(work)],
        check=True,
        timeout=120,
    )


def timed_setup(sampler, workload: str, seed: int, work: Path, repeats: int) -> tuple[list, list]:
    """Raw and nominal seconds of each fresh-process set-up."""
    raw, nominal = [], []
    for _ in range(repeats):
        before = sampler.measure(SETUP_KERNEL_RUNS)
        start = time.perf_counter()
        fresh_setup(workload, seed, work)
        raw.append(time.perf_counter() - start)
        after = sampler.measure(SETUP_KERNEL_RUNS)
        nominal.append(raw[-1] * sampler.nominal_s / ((before + after) / 2))
    return raw, nominal


def timed_run(cli, sampler, schedule, golden, seconds: float) -> dict:
    """Untraced ops for ``seconds`` of CLI time; whole blocks only.

    Each op's time excludes the sampler's own time inside it and is
    rescaled to nominal seconds by the kernel times sampled around it.
    """
    import checks
    from layers import run_cli

    failures = []

    def run_checked(op) -> tuple[float, float]:
        start = time.perf_counter()
        _, code, text = run_cli(cli, op)
        end = time.perf_counter()
        failures.extend(checks.count_failures([(op, code, text)], golden))
        own = end - start - sampler.busy(start, end)
        return own, own * sampler.scale(start, end)

    run_checked(schedule[0][0])  # warm-up: checked and counted, not timed
    blocks = []
    busy = 0.0
    for block in itertools.cycle(schedule):
        blocks.append([run_checked(op) for op in block])
        busy += sum(raw for raw, _ in blocks[-1])
        if busy >= seconds:
            break
    latencies = [raw for block in blocks for raw, _ in block]
    nominal = [nom for block in blocks for _, nom in block]
    metrics = {
        "latency_p50_s": statistics.median(nominal),
        "ops_per_s": len(nominal) / sum(nominal),
    }
    extra = {
        "ops_timed": len(latencies),
        "raw_latency_p50_s": statistics.median(latencies),
        "raw_ops_per_s": len(latencies) / busy,
        "speed_samples": len(sampler.seconds),
        "speed_kernel_mean_s": statistics.mean(sampler.seconds),
    }
    if len(latencies) >= 100:
        extra["latency_p90_s"] = statistics.quantiles(nominal, n=10)[-1]
    return {"metrics": metrics, "extra": extra, "attempted": len(latencies) + 1,
            "failures": failures, "latencies": latencies, "nominal_latencies": nominal}


def traced_run(cli, sampler, schedule, golden, seconds: float, workload: str) -> dict:
    """Count pass over a fixed number of ops, then untraced/traced pairs for
    ``seconds``, in nominal seconds; whole blocks only."""
    from layers import LayerProfile

    profile = LayerProfile(cli, sampler)
    ops = (op for block in itertools.cycle(schedule) for op in block)
    for op in itertools.islice(ops, COUNT_OPS[workload]):
        profile.count(op)
    busy = 0.0
    with sampler:
        for block in itertools.cycle(schedule):
            busy += sum(profile.pair(op) for op in block)
            if busy >= seconds:
                break
    metrics = profile.metrics()
    extra = {
        "ops_timed": len(profile.untraced),
        "count_ops": profile.counted,
        "untraced_latency_p50_s": metrics["untraced_latency_p50_s"],
        "layer_spans_plus_residual_s": metrics["untraced_latency_p50_s"] - metrics["trace.unaccounted_s"],
    }
    return {"metrics": {k: metrics[k] for k in LAYER_METRICS}, "extra": extra,
            "attempted": len(profile.results), "failures": profile.failures(golden),
            "latencies": profile.untraced, "spans": profile.tracer.spans}


def render_table(args, env: dict, result: dict, units: dict) -> str:
    lines = [
        f"locclab benchmark  workload={args.workload}  seed={args.seed}  "
        f"seconds={args.seconds}  trace={args.trace}",
        f"env: python {env['python']}  numpy {env['numpy']}  blas {env['blas']['name']} "
        f"{env['blas']['version']} threads={env['blas']['threads']}  nproc={env['nproc']}  "
        f"git={env['git_sha'] or 'n/a'}  src={env['source_sha256'][:12]}",
        f"{'metric':<30}{'value':>16}  unit",
    ]
    for name, value in result["metrics"].items():
        lines.append(f"{name:<30}{value:>16.6g}  {units[name]}")
    attempted, failed = result["attempted"], len(result["failures"])
    lines.append(f"{'fail_frac':<30}{failed / attempted:>16.6g}  ratio  ({failed} of {attempted} ops)")
    for name, value in result["extra"].items():
        lines.append(f"{name:<30}{value:>16.6g}  (not gated)")
    lines.extend(f"FAILED {reason}" for reason in result["failures"][:20])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from envinfo import environment, pin_blas_threads

    pin_blas_threads()
    if not (SRC / "locclab" / "__init__.py").is_file():
        print(f"error: locclab sources not found under {SRC}", file=sys.stderr)
        return 2
    import checks

    if not checks.golden_path(args.workload).is_file():
        print(f"error: golden reports missing: {checks.golden_path(args.workload)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from reference import SpeedSampler

    sampler = SpeedSampler(dense=args.workload in DENSE_KERNEL)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_raw, setup_nominal = timed_setup(sampler, args.workload, args.seed, work, repeats)
        schedule = json.loads((work / "schedule.json").read_text(encoding="utf-8"))
        from locclab import cli

        golden = checks.load_golden(args.workload)
        if args.trace:
            result = traced_run(cli, sampler, schedule, golden, args.seconds, args.workload)
            units = LAYER_METRICS
        else:
            with sampler:
                result = timed_run(cli, sampler, schedule, golden, args.seconds)
            result["metrics"]["setup_s"] = statistics.median(setup_nominal)
            result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["extra"]["raw_setup_s"] = statistics.median(setup_raw)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(ROOT, args.seed)
    failed = len(result["failures"])
    summary = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]} for name in units},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "reference_nominal_s": sampler.nominal_s,
        "setup_raw_s": setup_raw,
        "setup_nominal_s": setup_nominal,
        "nominal_latencies_s": result.get("nominal_latencies", []),
        **summary,
        "fail_frac": failed / result["attempted"],
        "failures": result["failures"],
        "extra": result["extra"],
        "latencies_s": result["latencies"],
        "spans": result.get("spans", []),
    }
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(render_table(args, env, result, units))
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
