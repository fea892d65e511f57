"""Command-line entry point: scenario dispatch and report emission.

Commands
--------
bounds-verify   build the protocol transcript, evaluate every bound and
                per-round audit, and grade each inequality PASS/FAIL.
protocol-run    emit the transcript summary and chain mutual information.
distill-report  emit the distillation-yield report for the scenario state.
entropy         emit S, S_A, S_B and the Holevo quantity of the ensemble.

``COMMAND_TABLE`` maps each command to a body function and a renderer. The
body function turns one concrete scenario into the command's report fields and
its checks, read off the result dataclasses (``BoundReport``,
``RoundAudit``, ``DistillationReport``) one field at a time under their
own field names, with no copy: every field is a scalar, a tuple of floats
or a flat dict. ``bounds-verify`` adds only ``BoundReport.slacks()``.
``run_scenario`` wraps each trial in the same envelope (trial, scenario,
seed, dims, checks, passed). The renderer turns one trial into its table
lines. ``COMMANDS`` and the argparse choices come from the table.

``--tol`` (default 1e-7) is the one slack tolerance of every check; a
scenario file sets none, and the entanglement measure follows each state
(``entropy.entanglements``). ``bounds-verify`` checks a Bell-diagonal
state's one leaf, the state itself, by the engine's measurability rule
from its purity at unit trace, sum_k p_k^2 / (sum_k p_k)^2, before
building any ensemble, naming the file's ``bell`` field.

Exit codes: 0 success, 1 at least one failed check, 2 input or usage error
(an input error names the file: one that cannot be read, one that cannot
be decoded, however deep its nesting, a field that breaks a rule, or an
engine error while a trial is built), 141 (128 + SIGPIPE, as a shell
reports it) when the reader closes stdout early, as ``| head`` does: the
rest of the output is dropped without a traceback. JSON reports are
canonical (sorted keys) and contain no timing data, so identical inputs
produce byte-identical output; wall time goes to the table format only.
The JSON text is that of ``json.dumps(report, sort_keys=True, indent=2,
allow_nan=False)``, byte for byte, from a small recursive writer
(``_json_text``) that skips the stdlib's pure-Python indent encoder and
reuses its string escaper and ``float.__repr__``.
The table backslash-escapes what stdout's encoding cannot write, such as
the lone surrogate of a "\\ud800" escape. A report is written as built,
as strict JSON: an absent value, such as a vacuous bound
(``partial_distinguish_bound`` and ``max_keep_fraction`` of a pure
product state), is None in the result dataclass, ``null`` in JSON and
``-`` in the table, and a non-finite number makes the writer raise rather
than print a non-standard token.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import fields
from json.encoder import encode_basestring_ascii

import numpy as np

from .distillation import bell_diagonal, distillation_report
from .entropy import BipartiteEnsemble, SpectralEnsemble, _require_measurable
from .linalg import DensityOperator, _frozen
from .protocol import audit_rounds, bound_suite, chain_mutual_information, entropy_summary, run_protocol
from .scenario import Scenario, ScenarioError, _at, load_scenario, materialize_random

# A bound or audit slack of at least -tol passes; the default of --tol.
DEFAULT_SLACK_TOL = 1e-7
# A round leaves the distant party's conditional average state unchanged when no entry moves more than this.
MARGINAL_DEVIATION_TOL = 1e-9
# A Bell-diagonal report's generic bounds agree with their closed forms within this.
AGREEMENT_TOL = 1e-7
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE
_INF = float("inf")
# Per-round audit checks, report key -> comparison: a slack must be >= -tol,
# the distant marginal deviation <= MARGINAL_DEVIATION_TOL.
_AUDIT_CHECKS = {"holevo_slack": ">=", "entropy_drop_slack": ">=", "distant_marginal_deviation": "<="}
# Table verdict of a check outcome; None when a bound has no check.
_VERDICT = {True: "PASS", False: "FAIL", None: "-"}


def _fields(result) -> dict:
    """A result dataclass's fields under their own names; no value is
    copied, as each is a scalar, a tuple of floats or a flat dict."""
    return {field.name: getattr(result, field.name) for field in fields(result)}


def _check(name: str, value: float, threshold: float, comparison: str) -> dict:
    passed = value >= threshold if comparison == ">=" else value <= threshold
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "comparison": comparison,
        "passed": bool(passed),
    }


def _scenario_state(scenario: Scenario) -> DensityOperator:
    """Average state of a concrete scenario, built as ``bell_diagonal``
    builds its own: ``distillation_report``'s solve checks it."""
    if scenario.bell is not None:
        return bell_diagonal(scenario.bell)
    ens = scenario.ensemble
    return DensityOperator(ens.dim_a, ens.dim_b, _frozen(ens.average_matrix()))


def _scenario_ensemble(scenario: Scenario) -> BipartiteEnsemble | SpectralEnsemble:
    """Hypothesis ensemble of a concrete scenario; a Bell-diagonal state's is
    its spectral ensemble, whose kets the tree takes as they are."""
    if scenario.bell is not None:
        return SpectralEnsemble(bell_diagonal(scenario.bell))
    return scenario.ensemble


def _transcript(scenario: Scenario):
    """Protocol transcript of the scenario, and the report fields of its tree."""
    transcript = run_protocol(_scenario_ensemble(scenario), scenario.chooser, scenario.depth)
    return transcript, {"depth": transcript.depth, "round_parties": list(transcript.round_parties)}


def _bounds_body(scenario: Scenario, tol: float):
    transcript, body = _transcript(scenario)
    report = bound_suite(transcript)
    body.update(_fields(report), slacks=report.slacks())
    body["audits"] = [_fields(a) for a in audit_rounds(transcript)]
    checks = [
        _check(f"slack:{name}", slack, -tol, ">=") for name, slack in body["slacks"].items() if slack is not None
    ]
    for row in body["audits"]:
        for key, comparison in _AUDIT_CHECKS.items():
            threshold = -tol if comparison == ">=" else MARGINAL_DEVIATION_TOL
            checks.append(_check(f"round{row['round']}:{key}", row[key], threshold, comparison))
    return body, checks


def _bounds_lines(trial: dict, verdicts: dict) -> list[str]:
    measured = _format_value(trial["i_locc"])
    lines = [
        f"  measured  I_locc={measured}  E_in={_format_value(trial['e_in_avg'])}  "
        f"E_out={_format_value(trial['e_out_avg'])}  N={_format_value(trial['n_qubits'])}",
        f"  {'bound':<22}{'value':>14}{'measured':>14}{'slack':>14}  verdict",
    ]
    for name, value in trial["bounds"].items():
        lines.append(
            f"  {name:<22}{_format_value(value):>14}{measured:>14}"
            f"{_format_value(trial['slacks'][name]):>14}  {_VERDICT[verdicts.get(f'slack:{name}')]}"
        )
    for audit in trial["audits"]:
        passed = all(verdicts[f"round{audit['round']}:{key}"] for key in _AUDIT_CHECKS)
        lines.append(
            f"  round {audit['round']} ({audit['party']}): info={_format_value(audit['info'])} "
            f"holevo_slack={_format_value(audit['holevo_slack'])} "
            f"drop_slack={_format_value(audit['entropy_drop_slack'])} "
            f"distant_dev{_format_deviation(audit['distant_marginal_deviation'])}  {_VERDICT[passed]}"
        )
    return lines


def _protocol_body(scenario: Scenario, tol: float):
    transcript, body = _transcript(scenario)
    body["per_round_info"], body["i_locc"] = chain_mutual_information(transcript)
    leaves = transcript.levels[-1]
    body["leaves"] = [
        {"path": list(path), "probability": p, "member_probabilities": q}
        for path, p, q in zip(leaves.paths, leaves.prob.tolist(), leaves.q.tolist())
    ]
    return body, []


def _protocol_lines(trial: dict, verdicts: dict) -> list[str]:
    lines = [
        f"  depth {trial['depth']}  parties {','.join(trial['round_parties']) or '-'}  "
        f"I_locc={_format_value(trial['i_locc'])}  per_round={[_round9(v) for v in trial['per_round_info']]}"
    ]
    for leaf in trial["leaves"]:
        lines.append(
            f"  leaf {','.join(leaf['path']) or '(root)'}  p={_format_value(leaf['probability'])}  "
            f"posterior={[_round9(v) for v in leaf['member_probabilities']]}"
        )
    return lines


def _distill_body(scenario: Scenario, tol: float):
    report = distillation_report(_scenario_state(scenario), spec=scenario.bell)
    checks = []
    if scenario.bell is not None and not report.degenerate_spectrum:
        hashing = abs(report.full_distinguish_bound - report.closed_form_hashing)
        partial = abs(report.partial_distinguish_bound - report.closed_form_partial)
        checks.append(_check("closed_form_agreement:hashing", hashing, AGREEMENT_TOL, "<="))
        checks.append(_check("closed_form_agreement:partial", partial, AGREEMENT_TOL, "<="))
    if scenario.bell is not None:
        checks.append(_check("partial_bound_positive", report.closed_form_partial, 0.0, ">="))
    return {"report": _fields(report)}, checks


def _distill_lines(trial: dict, verdicts: dict) -> list[str]:
    lines = [f"  {key:<28}{_format_value(value)}" for key, value in trial["report"].items()]
    for check in trial["checks"]:
        lines.append(
            f"  check {check['name']}: {_format_value(check['value'])} "
            f"{check['comparison']} {check['threshold']:.1e}  {_VERDICT[check['passed']]}"
        )
    return lines


def _entropy_body(scenario: Scenario, tol: float):
    summary = entropy_summary(_scenario_ensemble(scenario))
    return {**summary, "n_qubits": float(np.log2(scenario.dim_a * scenario.dim_b))}, []


def _entropy_lines(trial: dict, verdicts: dict) -> list[str]:
    keys = ("entropy_average", "entropy_a", "entropy_b", "holevo", "n_qubits")
    return [f"  {key:<18}{_format_value(trial[key])}" for key in keys]


COMMAND_TABLE = {
    "bounds-verify": (_bounds_body, _bounds_lines),
    "protocol-run": (_protocol_body, _protocol_lines),
    "distill-report": (_distill_body, _distill_lines),
    "entropy": (_entropy_body, _entropy_lines),
}
COMMANDS = tuple(COMMAND_TABLE)


def run_scenario(path, command: str, seed: int = 0, trials: int = 1, tol: float = DEFAULT_SLACK_TOL) -> dict:
    """Execute one command against a scenario file and return the report."""
    if command not in COMMANDS:
        raise ScenarioError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise ScenarioError(f"trials must be >= 1, got {trials}")
    if not (np.isfinite(tol) and tol > 0):
        raise ScenarioError(f"tol must be a positive finite number, got {tol!r}")
    scenario = load_scenario(path)
    if command == "bounds-verify" and scenario.bell is not None:
        with _at(f"{path}.bell"):
            probs = scenario.bell.probs
            _require_measurable([sum(p * p for p in probs)], [sum(probs)], scenario.dim_a, scenario.dim_b)

    if scenario.kind == "random":
        # Built as each trial runs, so that only one is held at a time.
        concrete = ((materialize_random(scenario, seed, trial), seed + trial) for trial in range(trials))
    else:
        concrete = [(scenario, None)]

    build = COMMAND_TABLE[command][0]
    results = []
    for trial, (instance, trial_seed) in enumerate(concrete):
        try:
            body, checks = build(instance, tol)
        except ScenarioError as exc:
            # Scenario.chooser names the step of a protocol gap, not the file.
            raise ScenarioError(f"{path}.{exc}") from None
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
        results.append(
            {
                "trial": trial,
                "scenario": instance.name,
                "seed": trial_seed,
                "dims": [instance.dim_a, instance.dim_b],
                **body,
                "checks": checks,
                "passed": all(c["passed"] for c in checks),
            }
        )

    return {
        "schema": "locclab/report-v1",
        "command": command,
        "scenario": scenario.name,
        "seed": seed,
        "trials": results,
        "tolerance": tol,
        "passed": all(r["passed"] for r in results),
    }


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{_round9(value):.9f}"
    return str(value)


def _round9(value: float) -> float:
    # round() keeps the sign of a rounding-level negative such as -1e-17
    # (-0.0); "or" turns either zero into an unsigned one.
    return round(value, 9) or 0.0


def _format_deviation(value: float) -> str:
    # A passing deviation prints as its check's threshold: its own digits
    # (about 1e-16 on the bundled scenarios) follow the engine's rounding.
    # The JSON report keeps the value.
    if value <= MARGINAL_DEVIATION_TOL:
        return f"<={MARGINAL_DEVIATION_TOL:.1e}"
    return f"={value:.2e}"


def render_table(report: dict, elapsed: float) -> str:
    render = COMMAND_TABLE[report["command"]][1]
    lines = [
        f"command: {report['command']}   scenario: {report['scenario']}   "
        f"seed: {report['seed']}   tol: {report['tolerance']:.1e}"
    ]
    for trial in report["trials"]:
        lines.append(f"trial {trial['trial']}: {trial['scenario']}  dims {trial['dims']}")
        lines += render(trial, {check["name"]: check["passed"] for check in trial["checks"]})
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}  ({elapsed:.3f} s)")
    return "\n".join(lines)


def _write_json(value, newline: str, parts: list[str]) -> None:
    """Append ``value``'s JSON text to ``parts``; ``newline`` is the line
    break and indent of the level that holds it. An array is written one
    item a line, an object one key a line in sorted order, each line two
    spaces deeper than ``newline``."""
    # The type tests run in json.encoder's order: bool before int, and a
    # float subclass such as np.float64 is a float.
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        # Chained comparison: false for NaN as well as for +-inf.
        if not -_INF < value < _INF:
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        parts.append(float.__repr__(value))
    elif not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
    else:
        inner = newline + "  "
        if isinstance(value, dict):
            for key in value:
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
            separator = "{" + inner
            for key in sorted(value):
                parts.append(separator + encode_basestring_ascii(key) + ": ")
                _write_json(value[key], inner, parts)
                separator = "," + inner
            parts.append(newline + "}")
        else:
            separator = "[" + inner
            for item in value:
                parts.append(separator)
                _write_json(item, inner, parts)
                separator = "," + inner
            parts.append(newline + "]")


def _json_text(report) -> str:
    """``json.dumps(report, sort_keys=True, indent=2, allow_nan=False)``,
    byte for byte, without the stdlib's pure-Python indent encoder: a NaN
    or an infinity raises ValueError, and a key that is not a str, or a
    value of no JSON type, TypeError."""
    parts: list[str] = []
    _write_json(report, "\n", parts)
    return "".join(parts)


def _encodable(text: str, stream) -> str:
    """``text`` with every character that ``stream``'s encoding (UTF-8 if it
    has none) cannot write backslash-escaped, as Python writes stderr: a
    lone surrogate in a scenario name or an outcome label prints as
    ``\\ud800``. JSON output needs no such step: ``_json_text`` escapes
    every non-ASCII character."""
    encoding = getattr(stream, "encoding", None) or "utf-8"
    return text.encode(encoding, "backslashreplace").decode(encoding)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first ``main`` call and reused
    by every later call in the process."""
    parser = argparse.ArgumentParser(
        prog="locclab",
        description="Bipartite ensembles, LOCC protocols, and information-entanglement bounds.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--seed", type=int, default=0, help="base seed for random scenarios")
    parser.add_argument("--trials", type=int, default=1, help="trial count for random scenarios")
    parser.add_argument("--tol", type=float, default=DEFAULT_SLACK_TOL, help="slack tolerance (default 1e-7)")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    started = time.perf_counter()
    try:
        report = run_scenario(
            args.scenario, args.command, seed=args.seed, trials=args.trials, tol=args.tol
        )
    except OSError as exc:
        # Reading the file failed (missing, a directory, no permission): name
        # it first, as every other input error does.
        print(f"error: {args.scenario}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    try:
        if args.format == "json":
            print(_json_text(report))
        else:
            print(_encodable(render_table(report, elapsed), sys.stdout))
        sys.stdout.flush()
    except BrokenPipeError:
        # The Python docs' recipe: point stdout at devnull, so that the
        # flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
