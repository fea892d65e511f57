"""Workload inputs and op schedules.

The benchmark draws every input from a fixed pool of cases whose golden
reports are committed in ``golden/``. The workload seed picks which cases
a run uses and in what order, so the same seed always gives the same
inputs, and every op can be checked against a golden report.

Inputs are written by this module's own generator, never by locclab's,
so a change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

SCHEMA = "locclab/scenario-v1"

# deep_tree: ROADMAP item 2's target, depth 8 and 8 members (511 nodes).
DEEP_DEPTH = 8
DEEP_MEMBERS = 8
DEEP_POOL = 64
DEEP_PER_RUN = 16

# sweep: the bundled random_sweep.json, one trial per op.
SWEEP_POOL = 512
SWEEP_SCENARIO = {
    "schema": SCHEMA,
    "kind": "random",
    "name": "random-2x2-sweep",
    "dims": [2, 2],
    "random": {
        "n_members": [2, 4],
        "protocol_depth": [1, 3],
        "instrument_family": "projective-random-basis",
    },
    "selectors": {"input": "auto", "output": "auto"},
}

# bell_distill: one block holds one case of each type below. d = 8 generic
# appears twice so that the median op falls inside one homogeneous cluster
# (d = 8 generic) rather than on the gap between two clusters.
BELL_BLOCK = (
    (4, "generic"),
    (4, "isotropic"),
    (8, "generic"),
    (8, "generic"),
    (8, "isotropic"),
    (16, "generic"),
    (16, "isotropic"),
)
BELL_VARIANTS = 16

WORKLOADS = ("deep_tree", "sweep", "bell_distill")


def _pairs(vector) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vector).reshape(-1)]


def _haar_2x2(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def protocol_scenario(case: int, depth: int, members: int) -> dict:
    """Adaptive projective 2x2 protocol on random pure two-qubit members.

    Every outcome history gets its own Haar-random basis; each round's
    party is drawn once, so all branches of a round agree on it.
    """
    rng = np.random.default_rng([depth, members, case])
    probs = rng.dirichlet(np.ones(members))
    ensemble = []
    for p in probs:
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ensemble.append({"probability": float(p), "vector": _pairs(vec / np.linalg.norm(vec))})
    steps = []
    for level in range(depth):
        party = "AB"[int(rng.integers(2))]
        overrides = {}
        for history in itertools.product("01", repeat=level):
            basis = _haar_2x2(rng).T
            overrides[",".join(history)] = {
                "labels": ["0", "1"],
                "projective": [_pairs(basis[0]), _pairs(basis[1])],
            }
        default = overrides.pop("", None)
        steps.append({"party": party, "instrument": default, "overrides": overrides})
    return {
        "schema": SCHEMA,
        "kind": "protocol",
        "name": f"protocol-d{depth}-m{members}-{case}",
        "dims": [2, 2],
        "ensemble": ensemble,
        "protocol": steps,
    }


def bell_scenario(d: int, kind: str, variant: int) -> dict:
    """Bell-diagonal state: Dirichlet weights, or an isotropic state whose
    d^2 - 1 equal weights give a degenerate spectrum."""
    rng = np.random.default_rng([d, 0 if kind == "generic" else 1, variant])
    n = d * d
    if kind == "generic":
        probs = rng.dirichlet(np.ones(n)).tolist()
    else:
        fidelity = float(rng.uniform(1.0 / d, 1.0))
        probs = [fidelity] + [(1.0 - fidelity) / (n - 1)] * (n - 1)
    return {
        "schema": SCHEMA,
        "kind": "bell_diagonal",
        "name": f"bell-{d}-{kind}-{variant}",
        "bell": {"d": d, "probs": probs},
    }


def deep_case(case: int) -> dict:
    return protocol_scenario(case, DEEP_DEPTH, DEEP_MEMBERS)


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return str(path.resolve())


def _bounds_op(path: str, key: str, seed: int | None = None) -> dict:
    argv = ["bounds-verify", path, "--format", "json"]
    if seed is not None:
        argv[2:2] = ["--trials", "1", "--seed", str(seed)]
    return {"command": "bounds-verify", "argv": argv, "path": path, "seed": seed, "key": key}


def _distill_op(path: str, key: str) -> dict:
    argv = ["distill-report", path, "--format", "json"]
    return {"command": "distill-report", "argv": argv, "path": path, "seed": None, "key": key}


def generate(workload: str, seed: int, out_dir) -> list[list[dict]]:
    """Write the run's scenario files and return its schedule.

    The schedule is a list of blocks, each a list of ops; a run cycles
    through it and stops only at block boundaries, so every run holds whole
    blocks of the workload's mix.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "deep_tree":
        cases = rng.permutation(DEEP_POOL)[:DEEP_PER_RUN]
        return [
            [_bounds_op(_write(out / f"deep-{c}.json", deep_case(int(c))), str(int(c)))]
            for c in cases
        ]
    if workload == "sweep":
        path = _write(out / "random_sweep.json", SWEEP_SCENARIO)
        start = int(rng.integers(SWEEP_POOL))
        return [
            [_bounds_op(path, str(s), seed=s)]
            for s in ((start + k) % SWEEP_POOL for k in range(SWEEP_POOL))
        ]
    if workload == "bell_distill":
        order = {t: rng.permutation(BELL_VARIANTS) for t in dict.fromkeys(BELL_BLOCK)}
        blocks = []
        for b in range(BELL_VARIANTS):
            block = []
            for slot, (d, kind) in enumerate(BELL_BLOCK):
                # A type that appears twice in a block takes two variants.
                repeat = BELL_BLOCK[:slot].count((d, kind))
                variant = int(order[(d, kind)][(b + repeat * BELL_VARIANTS // 2) % BELL_VARIANTS])
                key = f"{d}-{kind}-{variant}"
                block.append(_distill_op(_write(out / f"bell-{key}.json", bell_scenario(d, kind, variant)), key))
            blocks.append([block[i] for i in rng.permutation(len(block))])
        return blocks
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def golden_cases(workload: str, out_dir) -> list[dict]:
    """Every case of a workload's pool, as ops; used to build the goldens."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "deep_tree":
        return [_bounds_op(_write(out / f"deep-{c}.json", deep_case(c)), str(c)) for c in range(DEEP_POOL)]
    if workload == "sweep":
        path = _write(out / "random_sweep.json", SWEEP_SCENARIO)
        return [_bounds_op(path, str(s), seed=s) for s in range(SWEEP_POOL)]
    if workload == "bell_distill":
        ops = []
        for d, kind in dict.fromkeys(BELL_BLOCK):
            for v in range(BELL_VARIANTS):
                key = f"{d}-{kind}-{v}"
                ops.append(_distill_op(_write(out / f"bell-{key}.json", bell_scenario(d, kind, v)), key))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
