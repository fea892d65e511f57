"""Mutation ratchet for the bound suite, the round audit and the tree expansion.

Each mutant in ``mutants.json`` is one exact text replacement in
``src/locclab/protocol.py``. For each one this script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, applies the
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
TARGET = Path("src/locclab/protocol.py")
EXCLUDED = ("tests/test_engine_properties.py", "tests/test_cli.py", "tests/test_golden_pools.py")


def run_tests(text: str) -> bool:
    """True when the tests pass on a copy of the tree whose TARGET holds ``text``."""
    with tempfile.TemporaryDirectory(prefix="ratchet-") as work:
        work = Path(work)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        (work / TARGET).write_text(text, encoding="utf-8")
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
    source = (ROOT / TARGET).read_text(encoding="utf-8")

    for mutant in mutants:
        count = source.count(mutant["old"])
        if count != 1:
            sys.exit(f"mutant {mutant['id']}: old text found {count} times in {TARGET}, not once")
    started = time.perf_counter()
    if not run_tests(source):
        sys.exit("the unmutated tree fails the tests; no mutant can be judged")
    print(f"unmutated tree passes ({time.perf_counter() - started:.1f} s)")

    survivors = set()
    for mutant in mutants:
        started = time.perf_counter()
        survived = run_tests(source.replace(mutant["old"], mutant["new"]))
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
