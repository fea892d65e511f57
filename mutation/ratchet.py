"""Mutation ratchet for ``locclab.protocol``, the zero band and purity
rule of ``locclab.entropy``, the integer rule and the block solve of
``locclab.linalg``, the Bell-diagonal build, the ``Scenario``
constructor, the parser's per-party batch read and the CLI's JSON writer:
35 mutants of the bound suite, the round audit, the tree expansion and its
prune edge, the rows a ``StepChooser`` reads, the argument checks of
``run_protocol`` and ``_outcome_labels``, the cross terms of the
closed-form average marginals of pure 2x2 members, the weight floor, the
Shannon zero rule, the purity judged at unit trace, the shift of the Bell
build's blocks, the Hermitian check of every block size, the phase fix of
rebuilt cluster columns, the union pattern of a stack, the value of a
1 x 1 block, the unit-vector walk of a cluster that fills its block, a
scenario's derived kind and its walk of the override histories, the slice
of a party's batch that each step takes, and the writer's key order and
nested indent.

Each mutant in ``mutants.json`` is one exact text replacement in one file
of ``src/locclab/``: the file its ``file`` names, ``protocol.py`` when it
names none. For each one this script copies ``src/``, ``tests/``,
``perfbench/`` (whose input generator and golden reader some tests
import) and ``pyproject.toml`` to a temporary directory, applies the
replacement there, and runs tier-1 without the three files that compare
with a second copy of the engine's formulas or with its recorded output:
``test_engine_properties.py`` (which imports ``reference_engine.py``),
``test_cli.py`` (which reads the golden reports) and
``test_golden_pools.py`` (which reads the benchmark's golden reports). A
mutant survives when those tests still pass.

``known_survivors.json`` lists the mutants that are known to survive. The
run fails (exit 1):

- when a mutant's old text is not found exactly once in the file;
- when the unmutated copy does not pass the tests;
- when a mutant survives that is not on the list;
- when a listed mutant is now killed, or is not a mutant at all.

So the list can only shrink: a test that kills a listed survivor must take
it off the list in the same change.

Run from anywhere: ``python mutation/ratchet.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SURVIVORS = HERE / "known_survivors.json"
PACKAGE = Path("src/locclab")
DEFAULT_FILE = "protocol.py"
EXCLUDED = ("tests/test_engine_properties.py", "tests/test_cli.py", "tests/test_golden_pools.py")


def target(mutant: dict) -> Path:
    """The file a mutant replaces text in, relative to the repository root."""
    return PACKAGE / mutant.get("file", DEFAULT_FILE)


def run_tests(mutant: dict | None = None) -> bool:
    """True when the tests pass on a copy of the tree, with ``mutant``'s
    replacement applied to the copy when one is given."""
    with tempfile.TemporaryDirectory(prefix="ratchet-") as work:
        work = Path(work)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        bench_ignore = shutil.ignore_patterns("__pycache__", "_work", "results")
        shutil.copytree(ROOT / "perfbench", work / "perfbench", ignore=bench_ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            path = work / target(mutant)
            path.write_text(path.read_text(encoding="utf-8").replace(mutant["old"], mutant["new"]), encoding="utf-8")
        # No bytecode is written, so no stale .pyc can stand in for the
        # mutated source.
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        command += [f"--ignore={path}" for path in EXCLUDED]
        result = subprocess.run(command, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode not in (0, 1):
        sys.exit(f"pytest did not run the tests (exit {result.returncode}):\n{result.stdout}")
    return result.returncode == 0


def main() -> int:
    mutants = json.loads((HERE / "mutants.json").read_text(encoding="utf-8"))
    known = set(json.loads(SURVIVORS.read_text(encoding="utf-8")))

    for mutant in mutants:
        count = (ROOT / target(mutant)).read_text(encoding="utf-8").count(mutant["old"])
        if count != 1:
            sys.exit(f"mutant {mutant['id']}: old text found {count} times in {target(mutant)}, not once")
    started = time.perf_counter()
    if not run_tests():
        sys.exit("the unmutated tree fails the tests; no mutant can be judged")
    print(f"unmutated tree passes ({time.perf_counter() - started:.1f} s)")

    survivors = set()
    for mutant in mutants:
        started = time.perf_counter()
        survived = run_tests(mutant)
        if survived:
            survivors.add(mutant["id"])
        print(f"mutant {mutant['id']}: {'SURVIVED' if survived else 'killed'} ({time.perf_counter() - started:.1f} s)")

    ids = {mutant["id"] for mutant in mutants}
    failures = [f"mutant {name} survives and is not a known survivor" for name in sorted(survivors - known)]
    failures += [
        f"known survivor {name} is now killed: take it off {SURVIVORS.name}"
        for name in sorted((known & ids) - survivors)
    ]
    failures += [f"known survivor {name} is not a mutant" for name in sorted(known - ids)]
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed; survivors: {sorted(survivors) or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
