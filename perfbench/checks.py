"""Correctness gate: golden reports and an independent I_locc oracle.

The golden reports were produced by ``make_golden.py`` from the program at
the commit that added the benchmark. Every numeric field of an op's report
must lie within ``TOL`` of its golden value; every other field must be
equal.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

TOL = 1e-9

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load_golden(workload: str) -> dict[str, dict]:
    """Golden report per case key."""
    with gzip.open(golden_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def mismatches(actual, expected, path: str = "$") -> list[str]:
    """Differences between two JSON values; numbers compare within TOL."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if actual is expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(expected, int) and isinstance(actual, int):
            return [] if actual == expected else [f"{path}: {actual} != {expected}"]
        if math.isfinite(expected) and math.isfinite(actual):
            ok = abs(actual - expected) <= TOL
        else:
            ok = actual == expected or (math.isnan(actual) and math.isnan(expected))
        return [] if ok else [f"{path}: {actual!r} differs from golden {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != golden {sorted(expected)}"]
        return [m for k in expected for m in mismatches(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != golden {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in mismatches(a, e, f"{path}[{i}]")]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def check_cli_output(code, text: str, golden: dict) -> str | None:
    """Why one CLI op's output is wrong, or None when it is correct."""
    if code != 0:
        return f"exit code {code!r}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if report.get("passed") is not True:
        return "report not passed"
    found = mismatches(report, golden)
    return "; ".join(found[:3]) if found else None


def flat_mutual_information(transcript) -> float:
    """I(X; record) from the flattened joint distribution over leaves.

    Independent of the tree-entropy route of chain_mutual_information.
    """
    joint: dict[tuple[int, tuple[str, ...]], float] = {}
    for leaf in transcript.leaves():
        for x, (q, _) in enumerate(leaf.ensemble.members):
            p = leaf.probability * q
            if p > 0.0:
                joint[(x, leaf.path)] = joint.get((x, leaf.path), 0.0) + p
    px: dict[int, float] = {}
    py: dict[tuple[str, ...], float] = {}
    for (x, y), p in joint.items():
        px[x] = px.get(x, 0.0) + p
        py[y] = py.get(y, 0.0) + p
    return float(sum(p * math.log2(p / (px[x] * py[y])) for (x, y), p in joint.items()))


def count_failures(results, golden: dict[str, dict]) -> list[str]:
    """Check every (op, exit code, stdout) of a run; one reason per failed op."""
    reasons = []
    for op, code, text in results:
        expected = golden.get(op["key"])
        reason = "no golden report" if expected is None else check_cli_output(code, text, expected)
        if reason is not None:
            reasons.append(f"{op['key']}: {reason}")
    return reasons
