"""Single-fault corpus of the scenario parser, and its golden.

Each input file is read as ``json.loads`` reads it. A fault changes one
node of that tree: every node, the root included, is replaced in turn by
each value of ``VALUES``, and every node but the root is deleted. The
hashing-step file's 16 members share one structure, so only member 0 is
given faults; the nodes of members 1-15 (9,180 faults, most of the parse
time of the full set) are left out. Each faulty tree is parsed with
``parse_scenario`` under the file's name, and its outcome is the
ScenarioError's message, "accepted", or, for any other exception, its
type name and message.

``tests/golden/faults.json.gz`` maps each file name, then each fault id
(``<path> = <value as JSON>`` or ``<path> del``), to its outcome.
``tests/test_fault_corpus.py`` compares the parser with it. Regenerate it
with ``PYTHONPATH=src python tests/fault_corpus.py`` only when a message
changes on purpose, and list each change, before -> after.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from locclab import ScenarioError, bundled_scenario_path, parse_scenario

from test_bound_values import hashing_step_file, pairs

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "faults.json.gz"
BUNDLED = (
    "bell_diagonal_09.json", "four_bell_uniform.json", "maximally_mixed.json", "phi_mixture_xx.json", "random_sweep.json"
)
# The replacement values, each written into its fault id as JSON.
VALUES = (None, "x", True, 0, -1, 1e300, 2**70, [], {}, [[]], 0.5)
ACCEPTED = "accepted"
# File name -> the paths whose nodes, and the nodes below them, get no fault.
LEFT_OUT = {"hashing-step.json": tuple(f'$["ensemble"][{i}]' for i in range(1, 16))}


def _basis(rng: np.random.Generator, dim: int) -> list:
    """A random orthonormal basis of C^dim, one ket per row, as pairs."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return pairs(q.T)


def _projective(rng: np.random.Generator, dim: int) -> dict:
    return {"labels": [str(k) for k in range(dim)], "projective": _basis(rng, dim)}


def two_by_three() -> dict:
    """A depth-4 protocol on dims [2, 3] with projective override tables on
    both parties: A's default; B's table on both outcomes; A's table on all
    six histories; B's default with two overrides."""
    rng = np.random.default_rng(23)
    members = []
    for p in (0.25, 0.75):
        vector = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        members.append({"probability": p, "vector": pairs(vector / np.linalg.norm(vector))})
    histories_2 = [f"{a},{b}" for a in "01" for b in "012"]
    return {
        "kind": "protocol",
        "name": "two-by-three",
        "dims": [2, 3],
        "ensemble": members,
        "protocol": [
            {"party": "A", "instrument": _projective(rng, 2)},
            {"party": "B", "overrides": {key: _projective(rng, 3) for key in "01"}},
            {"party": "A", "overrides": {key: _projective(rng, 2) for key in histories_2}},
            {
                "party": "B",
                "instrument": _projective(rng, 3),
                "overrides": {f"{key},{c}": _projective(rng, 3) for key in ("0,2", "1,1") for c in "01"},
            },
        ],
    }


def corpus_files() -> dict[str, object]:
    """File name -> the tree ``json.loads`` reads from the file."""
    files = {name: json.loads(bundled_scenario_path(name).read_text(encoding="utf-8")) for name in BUNDLED}
    files["protocol-d3-m2-0.json"] = workloads.protocol_scenario(0, 3, 2)
    files["hashing-step.json"] = hashing_step_file((0.7, 0.1, 0.1, 0.1))
    files["two-by-three.json"] = two_by_three()
    # Through JSON text, so that every file is a tree of JSON types only.
    return {name: json.loads(json.dumps(data)) for name, data in files.items()}


def _nodes(value, path: str = "$", left_out: tuple[str, ...] = ()):
    """(parent, key, path) of every node below ``value`` in document order,
    but for those at or below a path in ``left_out``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in list(items):
        child_path = f"{path}[{json.dumps(key)}]"
        if child_path not in left_out:
            yield value, key, child_path
            yield from _nodes(child, child_path, left_out)


def _fresh(value):
    return json.loads(json.dumps(value))


def outcome(data, source: str) -> str:
    try:
        parse_scenario(data, source=source)
    except ScenarioError as exc:
        return str(exc)
    except Exception as exc:  # noqa: BLE001 - any other exception is an outcome to pin
        return f"{type(exc).__name__}: {exc}"
    return ACCEPTED


def faults(data, left_out: tuple[str, ...] = ()):
    """(fault id, faulty tree) for every single fault of ``data``. A fault
    below the root is made in ``data`` itself and undone when the next one
    is asked for, so each tree is to be read before the next."""
    for value in VALUES:
        yield f"$ = {json.dumps(value)}", _fresh(value)
    for parent, key, path in list(_nodes(data, left_out=left_out)):
        old = parent[key]
        try:
            for value in VALUES:
                parent[key] = _fresh(value)
                yield f"{path} = {json.dumps(value)}", data
        finally:
            parent[key] = old
        if isinstance(parent, list):
            del parent[key]
            try:
                yield f"{path} del", data
            finally:
                parent.insert(key, old)
        else:
            items = list(parent.items())
            del parent[key]
            try:
                yield f"{path} del", data
            finally:
                parent.clear()
                parent.update(items)


def outcomes(name: str, data) -> dict[str, str]:
    """Fault id -> outcome for the faults of file ``name``."""
    return {fault: outcome(tree, name) for fault, tree in faults(data, LEFT_OUT.get(name, ()))}


def load_golden() -> dict[str, dict[str, str]]:
    return json.loads(gzip.decompress(GOLDEN.read_bytes()))


def main() -> None:
    golden = {name: outcomes(name, data) for name, data in corpus_files().items()}
    text = json.dumps(golden, indent=0, ensure_ascii=True) + "\n"
    GOLDEN.write_bytes(gzip.compress(text.encode("ascii"), mtime=0))
    counts = list(itertools.chain.from_iterable(table.values() for table in golden.values()))
    print(f"{len(counts)} faults, {counts.count(ACCEPTED)} accepted, written to {GOLDEN}")


if __name__ == "__main__":
    main()
