"""End-to-end CLI runs on the bundled scenarios, checked against golden reports.

The golden reports in ``golden/cli`` were written by the node-by-node
engine that the level-array engine replaced; every number must agree
within 1e-12. The golden tables in ``golden/table`` were written by the
payload-parsing random generator that the typed one replaced; they must
match character for character once the wall-time suffix is removed.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from locclab import bundled_scenario_path, cli

from helpers import json_mismatches

GOLDEN = Path(__file__).parent / "golden" / "cli"
GOLDEN_TABLES = Path(__file__).parent / "golden" / "table"
SCENARIOS = ("bell_diagonal_09", "four_bell_uniform", "maximally_mixed", "phi_mixture_xx", "random_sweep")
# Options that every golden run of a scenario used.
EXTRA_ARGS = {"random_sweep": ["--seed", "11", "--trials", "4"]}


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def scenario_argv(command: str, stem: str) -> list[str]:
    path = bundled_scenario_path(f"{stem}.json")
    return [command, str(path), "--format", "json", *EXTRA_ARGS.get(stem, [])]


@pytest.mark.parametrize("stem", SCENARIOS)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_report_matches_golden(command, stem):
    code, out, _ = run(scenario_argv(command, stem))
    assert code == 0
    expected = json.loads((GOLDEN / f"{stem}.{command}.json").read_text(encoding="utf-8"))
    assert json_mismatches(json.loads(out), expected, 1e-12) == []


@pytest.mark.parametrize("stem", SCENARIOS)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_table_matches_golden(command, stem):
    argv = scenario_argv(command, stem)
    argv[argv.index("json")] = "table"
    code, out, _ = run(argv)
    assert code == 0
    table = re.sub(r"  \(\d+\.\d+ s\)$", "", out.rstrip("\n"))
    assert table + "\n" == (GOLDEN_TABLES / f"{stem}.{command}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", SCENARIOS)
def test_table_format_exits_zero(stem):
    argv = scenario_argv("bounds-verify", stem)
    argv[argv.index("json")] = "table"
    code, out, _ = run(argv)
    assert code == 0
    assert out.rstrip().splitlines()[-1].startswith("overall: PASS")


def test_failed_check_exits_one():
    # A tolerance far below rounding turns inequalities that the protocols
    # saturate (e.g. equal entropy drops on both sides of pure members)
    # into FAIL verdicts.
    argv = scenario_argv("bounds-verify", "random_sweep")
    argv[argv.index("4")] = "16"
    code, out, _ = run([*argv, "--tol", "1e-300"])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    failed = [c for t in report["trials"] for c in t["checks"] if not c["passed"]]
    assert failed
    assert all(abs(c["value"]) < 1e-12 for c in failed)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-7"])
def test_bad_tolerance_exits_two(tol):
    code, out, err = run([*scenario_argv("entropy", "phi_mixture_xx"), f"--tol={tol}"])
    assert code == 2
    assert out == ""
    assert "tol must be a positive finite number" in err


def test_missing_file_exits_two(tmp_path):
    code, out, err = run(["entropy", tmp_path / "absent.json"])
    assert code == 2 and out == "" and err.startswith("error:")


def test_invalid_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "ensemble",\n  "dims": [2, 2', encoding="utf-8")
    code, _, err = run(["entropy", path])
    assert code == 2
    assert "invalid JSON at line 2" in err


@pytest.mark.parametrize("command", ["entropy", "bounds-verify"])
def test_non_finite_probability_exits_two(tmp_path, command):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"kind": "ensemble", "dims": [2, 2], "ensemble": ['
        '{"probability": NaN, "vector": [[1, 0], [0, 0], [0, 0], [0, 0]]},'
        '{"probability": 1.0, "vector": [[0, 0], [0, 0], [0, 0], [1, 0]]}]}',
        encoding="utf-8",
    )
    code, out, err = run([command, path, "--format", "json"])
    assert code == 2 and out == ""
    assert "ensemble[0].probability: expected a finite number" in err


def test_unreachable_override_exits_two(tmp_path):
    z = {"projective": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    scenario = {
        "kind": "protocol",
        "dims": [2, 2],
        "ensemble": [{"probability": 1.0, "vector": [[1, 0], [0, 0], [0, 0], [0, 0]]}],
        "protocol": [
            {"party": "A", "instrument": z},
            {"party": "B", "instrument": z, "overrides": {"zz": z}},
        ],
    }
    path = tmp_path / "zz.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(["bounds-verify", path])
    assert code == 2 and out == ""
    assert "protocol[1].overrides['zz']" in err


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command", bundled_scenario_path("phi_mixture_xx.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "value, text", [(-1e-17, "0.000000000"), (0.5, "0.500000000"), (-2e-9, "-0.000000002")]
)
def test_table_value_prints_rounded_zero_unsigned(value, text):
    assert cli._format_value(value) == text


@pytest.mark.parametrize("value, text", [(float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf")])
def test_table_value_prints_non_finite_as_itself(value, text):
    assert cli._format_value(value) == text
    assert cli._format_value(np.float64(value)) == text


@pytest.mark.parametrize(
    "value, text",
    [(0.0, "<=1.0e-09"), (2.2e-16, "<=1.0e-09"), (2e-8, "=2.00e-08"), (float("nan"), "=nan")],
)
def test_table_deviation_prints_threshold_when_it_passes(value, text):
    assert cli._format_deviation(value) == text
