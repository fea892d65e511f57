"""The CLI's JSON writer against ``json.dumps(report, sort_keys=True,
indent=2, allow_nan=False)``: the same bytes on every CLI golden report,
every benchmark pool golden and a hand-made report of edge values, and the
same ValueError on a NaN or an infinity."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from locclab import cli

# The benchmark's golden reader and workload names, imported as they are.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "cli"


def stdlib_text(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
def test_json_writer_matches_the_stdlib_on_every_golden_report(path):
    text = path.read_text(encoding="utf-8")
    report = json.loads(text)
    assert cli._json_text(report) == stdlib_text(report)
    assert cli._json_text(report) + "\n" == text


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_json_writer_matches_the_stdlib_on_every_pool_golden(workload):
    reports = checks.load_golden(workload).values()
    assert [cli._json_text(report) for report in reports] == [stdlib_text(report) for report in reports]


def test_json_writer_matches_the_stdlib_on_edge_values():
    report = {
        "floats": [-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 123456789.0, -1.5e300, np.float64(0.1), np.float64(-0.0)],
        "ints": [0, -1, 2**70],
        "flags": [True, False, None],
        "empty": {"list": [], "dict": {}, "tuple": ()},
        "nested_empty": [[], [{}], {"a": [[]]}],
        "tuple": (1.0, "a", (2, ())),
        "strings": ["", "plain", "quote \" and \\ backslash", "tab\tnewline\n", "\u00e9\u4e2d\U0001f600", "\ud800"],
        "\u00e9 key": {"b": 1, "a": 2, "\ud800": 3, "B": 4},
    }
    assert cli._json_text(report) == stdlib_text(report)
    for value in (0.5, "x", None, True, 7, [], {}):
        assert cli._json_text(value) == stdlib_text(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
def test_json_writer_rejects_what_the_stdlib_rejects(value):
    for report in (value, [1.0, value], {"a": {"b": [value]}}):
        with pytest.raises(ValueError) as stdlib:
            stdlib_text(report)
        with pytest.raises(ValueError) as ours:
            cli._json_text(report)
        assert str(ours.value) == str(stdlib.value)


@pytest.mark.parametrize("value", [{1: 2}, {None: 1}, {"a": {(1,): 2}}, object(), np.int64(1), {1, 2}])
def test_json_writer_raises_type_error_on_a_non_json_value_or_key(value):
    with pytest.raises(TypeError):
        cli._json_text(value)
