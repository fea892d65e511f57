"""Every case of every benchmark pool, run through the CLI, against its pool golden.

The benchmark checks only the cases its seed picks, within 1e-9. Here
every case of each pool (64 deep_tree, 512 sweep and 96 bell_distill) is
run through ``cli.main`` with the benchmark's own argv, and every number of
its report must lie within 1e-12 of the golden report in
``perfbench/golden``, the gate a numeric refactor of the engine must pass.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from locclab import cli

from helpers import json_mismatches

# The benchmark's own input generator and golden reader, imported as they are.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402

POOL_SIZES = {"deep_tree": 64, "sweep": 512, "bell_distill": 96}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_case_matches_its_golden(workload, tmp_path):
    golden = checks.load_golden(workload)
    cases = workloads.golden_cases(workload, tmp_path)
    assert len(cases) == POOL_SIZES[workload]
    assert sorted(op["key"] for op in cases) == sorted(golden)
    failed = {}
    for op in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op["argv"])
        assert code == 0, op["key"]
        mismatches = json_mismatches(json.loads(out.getvalue()), golden[op["key"]], 1e-12)
        if mismatches:
            failed[op["key"]] = mismatches[:3]
    assert failed == {}
