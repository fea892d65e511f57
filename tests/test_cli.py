"""End-to-end CLI runs on the bundled scenarios, checked against golden reports.

The golden reports in ``golden/cli`` were written by the node-by-node
engine that the level-array engine replaced; every number must agree
within 1e-12. The golden tables in ``golden/table`` were written by the
payload-parsing random generator that the typed one replaced; they must
match character for character once the wall-time suffix is removed.
``golden/cli_bytes.sha256`` pins the exact bytes of every JSON report as
the current engine prints it (sha256, ``sha256sum`` format), so a change
that moves a report's last digits fails even within 1e-12. Last digits
also move with the numpy build, its BLAS and the CPU kernels it picks, so
the file's ``#`` line records the environment the pin was taken in
(``numeric_environment``); elsewhere a mismatch skips with both
environments named, and the 1e-12 goldens remain the portable check.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from locclab import ScenarioError, bundled_scenario_path, cli, load_scenario, run_protocol
from locclab import scenario as scenario_module
from locclab.scenario import dump_scenario, parse_scenario, random_scenario

from helpers import json_mismatches

# The benchmark's modules, imported as they are: the traced run's surface is
# checked below.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "cli"
GOLDEN_TABLES = Path(__file__).parent / "golden" / "table"
GOLDEN_BYTES = Path(__file__).parent / "golden" / "cli_bytes.sha256"
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


def openblas_core() -> str:
    """The kernel set that OpenBLAS picked on this CPU at run time, read
    from the library numpy bundles in ``numpy.libs``; "unknown" when there
    is no such library or it lacks the symbol."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def numeric_environment() -> str:
    """numpy's version, its BLAS build, the SIMD extensions it found on
    this CPU and the OpenBLAS kernels that run: what decides a report's
    last digits besides the code."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 can only print its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = " ".join(config.get("SIMD Extensions", {}).get("found", []))
    return (
        f"numpy {np.__version__}; blas {blas.get('name')} {blas.get('version')}; simd {simd}; "
        f"machine {platform.machine()}; openblas core {openblas_core()}"
    )


def test_reports_match_their_byte_pin():
    lines = GOLDEN_BYTES.read_text(encoding="utf-8").splitlines()
    recorded = [line.removeprefix("# ") for line in lines if line.startswith("#")]
    pinned = dict(line.split("  ")[::-1] for line in lines if not line.startswith("#"))
    printed = {}
    for stem in SCENARIOS:
        for command in cli.COMMANDS:
            code, out, _ = run(scenario_argv(command, stem))
            assert code == 0
            printed[f"{stem}.{command}.json"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    environment = numeric_environment()
    if printed != pinned and recorded != [environment]:
        where = "; ".join(recorded) or "an unrecorded environment"
        pytest.skip(f"reports differ from the byte pin taken under [{where}], this run is under [{environment}]")
    assert printed == pinned


@pytest.mark.parametrize("stem", SCENARIOS)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_table_matches_golden(command, stem):
    argv = scenario_argv(command, stem)
    argv[argv.index("json")] = "table"
    code, out, _ = run(argv)
    assert code == 0
    table = re.sub(r"  \(\d+\.\d+ s\)$", "", out.rstrip("\n"))
    assert table + "\n" == (GOLDEN_TABLES / f"{stem}.{command}.txt").read_text(encoding="utf-8")


def test_random_trials_are_built_as_they_run(monkeypatch):
    # Each trial's scenario is materialized just before it runs, not all up front.
    events = []
    materialize, (body, lines) = cli.materialize_random, cli.COMMAND_TABLE["entropy"]

    def materializing(scenario, seed, trial):
        events.append(("build", trial))
        return materialize(scenario, seed, trial)

    def running(scenario, tol):
        events.append(("run", int(scenario.name.rsplit("trial", 1)[1])))
        return body(scenario, tol)

    monkeypatch.setattr(cli, "materialize_random", materializing)
    monkeypatch.setitem(cli.COMMAND_TABLE, "entropy", (running, lines))
    report = cli.run_scenario(bundled_scenario_path("random_sweep.json"), "entropy", seed=11, trials=3)
    assert [t["seed"] for t in report["trials"]] == [11, 12, 13]
    assert events == [(step, trial) for trial in range(3) for step in ("build", "run")]


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


def test_negative_seed_exits_two():
    code, out, err = run(["bounds-verify", bundled_scenario_path("random_sweep.json"), "--seed", "-1"])
    assert code == 2 and out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_missing_file_exits_two(tmp_path):
    path = tmp_path / "absent.json"
    code, out, err = run(["entropy", path])
    assert code == 2 and out == "" and err.startswith("error:")
    assert err == f"error: {path}: No such file or directory\n"


def test_directory_path_exits_two_naming_it(tmp_path):
    code, out, err = run(["entropy", tmp_path])
    assert code == 2 and out == ""
    assert err == f"error: {tmp_path}: Is a directory\n"


def test_invalid_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "ensemble",\n  "dims": [2, 2', encoding="utf-8")
    code, _, err = run(["entropy", path])
    assert code == 2
    assert "invalid JSON at line 2" in err


def test_non_utf8_file_exits_two_naming_the_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"kind": "ensemble"}')
    code, out, err = run(["entropy", path])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: not UTF-8: ")
    assert "can't decode byte 0xff in position 0" in err


@pytest.mark.parametrize("depth", [3000, 100000])
def test_json_nested_too_deeply_exits_two_naming_the_file(tmp_path, depth):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth, encoding="utf-8")
    code, out, err = run(["entropy", path])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: invalid JSON: nested too deeply\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit in this Python")
def test_integer_over_the_digit_limit_exits_two_naming_the_file(tmp_path):
    path = tmp_path / "digits.json"
    path.write_text('{"kind": "ensemble", "dims": [2, 2], "name": ' + "9" * 5000 + "}", encoding="utf-8")
    code, out, err = run(["entropy", path])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: invalid JSON: Exceeds the limit (4300 digits)")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["entropy", "protocol-run"])
def test_table_escapes_what_the_output_encoding_cannot_write(tmp_path, command):
    # JSON's "\ud800" escape reads as a lone surrogate, which has no UTF-8
    # encoding; the table prints it backslash-escaped, as stderr would.
    scenario = {
        "kind": "protocol",
        "name": "\ud800",
        "dims": [2, 2],
        "ensemble": [{"probability": 1.0, "vector": [[1, 0], [0, 0], [0, 0], [0, 0]]}],
        "protocol": [
            {"party": "A", "instrument": {"labels": ["\ud800", "x"], "projective": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}
        ],
    }
    path = write_json(tmp_path, scenario)
    assert "\\ud800" in path.read_text(encoding="utf-8")
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, str(path)])
    stdout.flush()
    table = raw.getvalue().decode("utf-8")
    assert code == 0
    assert table.startswith(f"command: {command}   scenario: \\ud800   seed: 0")
    if command == "protocol-run":
        assert "  leaf \\ud800  p=1.000000000" in table


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


Z = {"projective": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
Z3 = {"projective": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]}
R = 0.7071067811865476
X = {"projective": [[[R, 0], [R, 0]], [[R, 0], [-R, 0]]]}


def ket(index: int) -> list:
    """Two-qubit basis ket |index> as [re, im] pairs."""
    return [[1, 0] if i == index else [0, 0] for i in range(4)]


def write_protocol(tmp_path, steps, members=((1.0, 0),)) -> Path:
    scenario = {
        "kind": "protocol",
        "dims": [2, 2],
        "ensemble": [{"probability": p, "vector": ket(i)} for p, i in members],
        "protocol": steps,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("selectors", {"input": "eof_two_qubit"}, "selectors.input"),
        ("selectors", {"output": "entropy_of_entanglement"}, "selectors.output"),
        ("tolerance", 1e-6, "tolerance"),
    ],
    ids=["selector_input", "selector_output", "tolerance"],
)
def test_removed_scenario_knob_exits_two(tmp_path, field, value, path):
    scenario_path = write_protocol(tmp_path, [{"party": "A", "instrument": Z}])
    scenario = json.loads(scenario_path.read_text(encoding="utf-8"))
    scenario[field] = value
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(["bounds-verify", scenario_path])
    assert code == 2 and out == ""
    assert f"{scenario_path}.{path}: " in err
    if field == "tolerance":
        assert "--tol" in err


def write_bell(tmp_path, d: int, probs) -> Path:
    path = tmp_path / f"bell-{d}.json"
    path.write_text(json.dumps({"kind": "bell_diagonal", "bell": {"d": d, "probs": list(probs)}}), encoding="utf-8")
    return path


def test_mixed_bell_diagonal_above_two_qubits_is_rejected_before_any_ensemble(tmp_path, monkeypatch):
    # Its one leaf, the state itself, is mixed and 4x4: no entanglement
    # measure applies, so bounds-verify fails before building anything.
    def unreachable(*args, **kwargs):
        raise AssertionError("the ensemble or the tree was built")

    monkeypatch.setattr(cli, "SpectralEnsemble", unreachable)
    monkeypatch.setattr(cli, "run_protocol", unreachable)
    path = write_bell(tmp_path, 4, [0.7] + [0.02] * 15)
    code, out, err = run(["bounds-verify", path])
    assert code == 2 and out == ""
    assert f"{path}.bell: measure unavailable" in err


def test_pure_bell_diagonal_above_two_qubits_passes_bounds_verify(tmp_path):
    code, out, _ = run(["bounds-verify", write_bell(tmp_path, 3, [1.0] + [0.0] * 8), "--format", "json"])
    assert code == 0
    trial = json.loads(out)["trials"][0]
    assert trial["e_in_avg"] == pytest.approx(np.log2(3), abs=1e-12)
    assert trial["e_out_avg"] == pytest.approx(np.log2(3), abs=1e-12)


@pytest.mark.parametrize("command", ["protocol-run", "entropy"])
def test_mixed_bell_diagonal_above_two_qubits_other_commands_run(tmp_path, command):
    code, _, err = run([command, write_bell(tmp_path, 4, [0.7] + [0.02] * 15)])
    assert code == 0 and err == ""


def test_integer_too_large_for_a_float_exits_two(tmp_path):
    path = write_protocol(tmp_path, [{"party": "A", "instrument": Z}], members=((10**400, 0),))
    code, out, err = run(["entropy", path])
    assert code == 2 and out == ""
    assert "ensemble[0].probability: expected a finite number, got an integer too large for a float" in err


def test_integer_too_large_for_a_float_in_override_table_exits_two(tmp_path):
    huge = {"projective": [[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]]}
    steps = [{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0": Z, "1": huge}}]
    code, out, err = run(["bounds-verify", write_protocol(tmp_path, steps)])
    assert code == 2 and out == ""
    assert "protocol[1].overrides['1'].projective[1][1][0]: expected a finite number" in err


@pytest.mark.parametrize(
    "steps, field",
    [
        ([{"party": "A", "instrument": Z3}], "protocol[0].instrument"),
        ([{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0": Z, "1": Z3}}], "protocol[1].overrides['1']"),
    ],
    ids=["default", "override"],
)
def test_instrument_size_mismatch_exits_two(tmp_path, steps, field):
    code, out, err = run(["bounds-verify", write_protocol(tmp_path, steps)])
    assert code == 2 and out == ""
    assert f"{field}: dimension mismatch: instrument on {steps[-1]['party']} has size 3, party dimension is 2" in err


@pytest.mark.parametrize("command", ["bounds-verify", "protocol-run"])
def test_protocol_gap_names_the_file_and_step(tmp_path, command):
    # Step 2 has no instrument for the reachable history '1'; the file
    # parses, and the run names the field the way the parser would.
    steps = [{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0": Z}}]
    path = write_protocol(tmp_path, steps, members=((0.5, 0), (0.5, 3)))
    code, out, err = run([command, path])
    assert code == 2 and out == ""
    assert err == f"error: {path}.protocol[1]: no instrument for history '1'\n"


def product_state(tmp_path) -> Path:
    path = tmp_path / "product.json"
    path.write_text(
        json.dumps({"kind": "ensemble", "dims": [2, 2], "ensemble": [{"probability": 1.0, "vector": ket(0)}]}),
        encoding="utf-8",
    )
    return path


def test_vacuous_bounds_are_json_null(tmp_path):
    code, out, _ = run(["distill-report", product_state(tmp_path), "--format", "json"])
    assert code == 0

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    report = json.loads(out, parse_constant=reject)["trials"][0]["report"]
    assert report["partial_distinguish_bound"] is None
    assert report["max_keep_fraction"] is None


def test_vacuous_bounds_print_dash_in_table(tmp_path):
    code, out, _ = run(["distill-report", product_state(tmp_path)])
    assert code == 0
    assert "  partial_distinguish_bound   -\n" in out
    assert "  max_keep_fraction           -\n" in out


def test_json_writer_rejects_an_infinity(monkeypatch):
    # The report is written as built: a +inf that a command body lets through
    # makes the strict writer raise instead of printing null or Infinity.
    body, lines = cli.COMMAND_TABLE["entropy"]

    def infinite(scenario, tol):
        fields, checks = body(scenario, tol)
        return {**fields, "holevo": float("inf")}, checks

    monkeypatch.setitem(cli.COMMAND_TABLE, "entropy", (infinite, lines))
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        run(["entropy", bundled_scenario_path("phi_mixture_xx.json"), "--format", "json"])


class ClosedPipe(io.TextIOBase):
    """Standard output whose reader has gone, as after ``| head``."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_broken_pipe_exits_quietly(tmp_path, fmt):
    with open(tmp_path / "stdout", "w") as stand_in:
        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedPipe(stand_in.fileno())), contextlib.redirect_stderr(err):
            code = cli.main(["distill-report", str(bundled_scenario_path("bell_diagonal_09.json")), "--format", fmt])
        # stdout now points at the null device, so the flush at exit is silent.
        assert os.path.samestat(os.fstat(stand_in.fileno()), os.stat(os.devnull))
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert err.getvalue() == ""


def test_protocol_run_leaves_on_pruned_tree(tmp_path):
    # |10> has weight zero, so after A reads 1 only |11> is left and B's
    # outcome 0 has probability zero: leaf (1, 0) is pruned.
    steps = [{"party": "A", "instrument": Z}, {"party": "B", "overrides": {"0": X, "1": Z}}]
    path = write_protocol(tmp_path, steps, members=((0.5, 0), (0.2, 1), (0.0, 2), (0.3, 3)))
    code, out, _ = run(["protocol-run", path, "--format", "json"])
    assert code == 0
    leaves = json.loads(out)["trials"][0]["leaves"]
    scenario = load_scenario(path)
    nodes = run_protocol(scenario.ensemble, scenario.chooser, scenario.depth).leaves()
    assert [leaf["path"] for leaf in leaves] == [["0", "0"], ["0", "1"], ["1", "1"]]
    assert leaves == [
        {
            "path": list(node.path),
            "probability": node.probability,
            "member_probabilities": node.ensemble.probabilities().tolist(),
        }
        for node in nodes
    ]


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


R = 2**-0.5
# A 2x3 ensemble of (|00> + |11>)/sqrt2 and |02>: its depth-zero leaf, the
# average state, is mixed outside 2x2, so the engine finds no measure.
MIXED_2X3 = {
    "kind": "ensemble",
    "dims": [2, 3],
    "ensemble": [
        {"probability": 0.5, "vector": [[R, 0], [0, 0], [0, 0], [0, 0], [R, 0], [0, 0]]},
        {"probability": 0.5, "vector": [[0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0]]},
    ],
}
MEASURE_UNAVAILABLE = "only pure states or 2x2 mixed states are measurable"


def write_json(tmp_path, payload) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "payload, command, options, message",
    [
        (MIXED_2X3, "nope", {}, f"unknown command 'nope'; expected one of {cli.COMMANDS}"),
        (MIXED_2X3, "entropy", {"trials": 0}, "trials must be >= 1, got 0"),
        (
            MIXED_2X3,
            "bounds-verify",
            {},
            f"{{path}}: measure unavailable: mixed state with dims (2, 3); {MEASURE_UNAVAILABLE}",
        ),
        (
            {"kind": "bell_diagonal", "bell": {"d": 4, "probs": [0.7] + [0.02] * 15}},
            "bounds-verify",
            {},
            f"{{path}}.bell: measure unavailable: mixed state with dims (4, 4); {MEASURE_UNAVAILABLE}",
        ),
    ],
    ids=["unknown_command", "no_trials", "engine_error", "bell_measure"],
)
def test_run_scenario_rejection_names_the_file(tmp_path, payload, command, options, message):
    path = write_json(tmp_path, payload)
    with pytest.raises(ScenarioError) as excinfo:
        cli.run_scenario(path, command, **options)
    assert str(excinfo.value) == message.format(path=path)


def test_engine_error_exits_two_naming_the_file(tmp_path):
    path = write_json(tmp_path, MIXED_2X3)
    code, out, err = run(["bounds-verify", path])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: measure unavailable: mixed state with dims (2, 3); {MEASURE_UNAVAILABLE}\n"


def traced_op(tmp_path, text: str):
    """(chooser, transcript) that a traced bounds-verify op on ``text``
    keeps, as the benchmark keeps them, and the op's report."""
    path = tmp_path / "case.json"
    path.write_text(text, encoding="utf-8")
    transcripts = []
    out = io.StringIO()
    with layers.spans_installed(tracing.Tracer(), transcripts), contextlib.redirect_stdout(out):
        assert cli.main(["bounds-verify", str(path), "--format", "json"]) == 0
    ((chooser, transcript),) = transcripts
    return chooser, transcript, json.loads(out.getvalue())


# perfbench/layers.py binds run_protocol's ``chooser`` argument by name and
# counts the tree by walking the node view, calling
# ``chooser(node.path).outcomes``; perfbench/checks.py recomputes I_locc from
# the leaves of that view.
@pytest.mark.parametrize(
    "text, counts",
    [
        *((json.dumps(workloads.deep_case(case)), (511, 510, 0)) for case in range(3)),
        (dump_scenario(random_scenario(11)), (3, 2, 0)),
    ],
    ids=["deep_case_0", "deep_case_1", "deep_case_2", "random_11"],
)
def test_benchmark_tree_counts_and_flat_oracle(tmp_path, text, counts):
    chooser, transcript, report = traced_op(tmp_path, text)
    assert layers.tree_counts(chooser, transcript) == counts
    assert abs(checks.flat_mutual_information(transcript) - report["trials"][0]["i_locc"]) <= 1e-12


def test_the_parser_walks_each_override_key_once(monkeypatch):
    # A deep_tree file's 254 override histories are walked once each, in
    # file order, by the Scenario constructor alone.
    data = workloads.deep_case(0)
    calls = []
    walk = scenario_module._check_history

    def counting(history, *args):
        calls.append(",".join(history))
        return walk(history, *args)

    monkeypatch.setattr(scenario_module, "_check_history", counting)
    parse_scenario(data)
    keys = [key for step in data["protocol"] for key in step.get("overrides", {})]
    assert len(keys) == 254
    assert calls == keys


def test_parser_reuse_keeps_every_exit(capsys):
    # main builds its argument parser once per process; a usage error, the
    # help text and a good run read the same on every call.
    path = bundled_scenario_path("phi_mixture_xx.json")
    first, again = ([], [])
    for seen in (first, again):
        for argv in (["no-such-command", path], ["--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([str(a) for a in argv])
            seen.append((exc.value.code, *capsys.readouterr()))
        seen.append((cli.main(["entropy", str(path), "--format", "json"]), *capsys.readouterr()))
    assert first == again
    assert [code for code, _, _ in first] == [2, 0, 0]
