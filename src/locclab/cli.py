"""Command-line entry point: scenario dispatch and report emission.

Commands
--------
bounds-verify   build the protocol transcript, evaluate every bound and
                per-round audit, and grade each inequality PASS/FAIL.
protocol-run    emit the transcript summary and chain mutual information.
distill-report  emit the distillation-yield report for the scenario state.
entropy         emit S, S_A, S_B and the Holevo quantity of the ensemble.

Exit codes: 0 success, 1 at least one failed check, 2 input or usage error.
JSON reports are canonical (sorted keys) and contain no timing data, so
identical inputs produce byte-identical output; wall time goes to the table
format only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from .distillation import bell_diagonal, distillation_report, spectral_ensemble
from .entropy import BipartiteEnsemble, entropy_summary
from .linalg import DensityOperator, pure_state_density, validate_density
from .protocol import audit_rounds, bound_suite, chain_mutual_information, run_protocol
from .scenario import Scenario, ScenarioError, load_scenario, materialize_random

DEFAULT_SLACK_TOL = 1e-7
MARGINAL_DEVIATION_TOL = 1e-9
AGREEMENT_TOL = 1e-7

COMMANDS = ("bounds-verify", "protocol-run", "distill-report", "entropy")


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
    """Average state of the scenario, whatever its kind."""
    if scenario.bell is not None:
        return bell_diagonal(scenario.bell)
    if scenario.ensemble is not None:
        ens = scenario.ensemble
        return validate_density(ens.average_matrix(), ens.dim_a, ens.dim_b)
    raise ScenarioError(f"{scenario.name}: random scenarios must be materialized before use")


def _scenario_ensemble(scenario: Scenario) -> BipartiteEnsemble:
    """Hypothesis ensemble of the scenario; Bell-diagonal states use their
    spectral decomposition."""
    if scenario.ensemble is not None:
        return scenario.ensemble
    if scenario.bell is not None:
        state = bell_diagonal(scenario.bell)
        members = tuple(
            (weight, pure_state_density(vector, scenario.dim_a, scenario.dim_b))
            for weight, vector in spectral_ensemble(state).members
        )
        return BipartiteEnsemble(members)
    raise ScenarioError(f"{scenario.name}: random scenarios must be materialized before use")


def _bounds_trial(scenario: Scenario, tol: float, trial: int, seed) -> dict:
    ensemble = _scenario_ensemble(scenario)
    transcript = run_protocol(ensemble, scenario.chooser, scenario.depth)
    report = bound_suite(transcript, scenario.selector_in, scenario.selector_out)
    audits = audit_rounds(transcript)

    checks = []
    for bound_name, slack in report.slacks().items():
        if slack is not None:
            checks.append(_check(f"slack:{bound_name}", slack, -tol, ">="))
    for audit in audits:
        prefix = f"round{audit.round_index}"
        checks.append(_check(f"{prefix}:holevo_slack", audit.holevo_slack, -tol, ">="))
        checks.append(_check(f"{prefix}:entropy_drop_slack", audit.entropy_drop_slack, -tol, ">="))
        checks.append(
            _check(
                f"{prefix}:distant_marginal_deviation",
                audit.distant_marginal_deviation,
                MARGINAL_DEVIATION_TOL,
                "<=",
            )
        )

    return {
        "trial": trial,
        "scenario": scenario.name,
        "seed": seed,
        "dims": [scenario.dim_a, scenario.dim_b],
        "depth": transcript.depth,
        "round_parties": list(transcript.round_parties),
        "i_locc": report.i_locc,
        "per_round_info": list(report.per_round_info),
        "e_in_avg": report.e_in_avg,
        "e_out_avg": report.e_out_avg,
        "n_qubits": report.n_qubits,
        "bounds": report.bounds(),
        "slacks": report.slacks(),
        "audits": [
            {("round" if key == "round_index" else key): value for key, value in dataclasses.asdict(a).items()}
            for a in audits
        ],
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _protocol_trial(scenario: Scenario, trial: int, seed) -> dict:
    ensemble = _scenario_ensemble(scenario)
    transcript = run_protocol(ensemble, scenario.chooser, scenario.depth)
    per_round, total = chain_mutual_information(transcript)
    return {
        "trial": trial,
        "scenario": scenario.name,
        "seed": seed,
        "dims": [scenario.dim_a, scenario.dim_b],
        "depth": transcript.depth,
        "round_parties": list(transcript.round_parties),
        "per_round_info": per_round,
        "i_locc": total,
        "leaves": [
            {
                "path": list(leaf.path),
                "probability": leaf.probability,
                "member_probabilities": leaf.ensemble.probabilities().tolist(),
            }
            for leaf in transcript.leaves()
        ],
        "checks": [],
        "passed": True,
    }


def _distill_trial(scenario: Scenario, tol: float, trial: int, seed) -> dict:
    state = _scenario_state(scenario)
    report = distillation_report(state, spec=scenario.bell)
    checks = []
    if scenario.bell is not None and not report.degenerate_spectrum:
        checks.append(
            _check(
                "closed_form_agreement:hashing",
                abs(report.full_distinguish_bound - report.closed_form_hashing),
                AGREEMENT_TOL,
                "<=",
            )
        )
        checks.append(
            _check(
                "closed_form_agreement:partial",
                abs(report.partial_distinguish_bound - report.closed_form_partial),
                AGREEMENT_TOL,
                "<=",
            )
        )
    if scenario.bell is not None:
        checks.append(_check("partial_bound_positive", report.closed_form_partial, 0.0, ">="))
    return {
        "trial": trial,
        "scenario": scenario.name,
        "seed": seed,
        "dims": [scenario.dim_a, scenario.dim_b],
        "report": dataclasses.asdict(report),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _entropy_trial(scenario: Scenario, trial: int, seed) -> dict:
    summary = entropy_summary(_scenario_ensemble(scenario))
    return {
        "trial": trial,
        "scenario": scenario.name,
        "seed": seed,
        "dims": [scenario.dim_a, scenario.dim_b],
        **summary,
        "n_qubits": float(np.log2(scenario.dim_a * scenario.dim_b)),
        "checks": [],
        "passed": True,
    }


def run_scenario(path, command: str, seed: int = 0, trials: int = 1, tol: float | None = None) -> dict:
    """Execute one command against a scenario file and return the report."""
    if command not in COMMANDS:
        raise ScenarioError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if trials < 1:
        raise ScenarioError(f"trials must be >= 1, got {trials}")
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise ScenarioError(f"tol must be a positive finite number, got {tol!r}")
    scenario = load_scenario(path)
    slack_tol = tol if tol is not None else (scenario.tolerance or DEFAULT_SLACK_TOL)

    if scenario.kind == "random":
        concrete = [
            (materialize_random(scenario, seed, trial), seed + trial) for trial in range(trials)
        ]
    else:
        concrete = [(scenario, None)]

    results = []
    for trial, (instance, trial_seed) in enumerate(concrete):
        if command == "bounds-verify":
            results.append(_bounds_trial(instance, slack_tol, trial, trial_seed))
        elif command == "protocol-run":
            results.append(_protocol_trial(instance, trial, trial_seed))
        elif command == "distill-report":
            results.append(_distill_trial(instance, slack_tol, trial, trial_seed))
        else:
            results.append(_entropy_trial(instance, trial, trial_seed))

    return {
        "schema": "locclab/report-v1",
        "command": command,
        "scenario": scenario.name,
        "seed": seed,
        "trials": results,
        "tolerance": slack_tol,
        "passed": all(r["passed"] for r in results),
    }


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{_round9(value):.9f}" if np.isfinite(value) else str(value)
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
    lines = [
        f"command: {report['command']}   scenario: {report['scenario']}   "
        f"seed: {report['seed']}   tol: {report['tolerance']:.1e}"
    ]
    for result in report["trials"]:
        lines.append(f"trial {result['trial']}: {result['scenario']}  dims {result['dims']}")
        if "bounds" in result:
            lines.append(
                f"  measured  I_locc={_format_value(result['i_locc'])}  "
                f"E_in={_format_value(result['e_in_avg'])}  "
                f"E_out={_format_value(result['e_out_avg'])}  N={_format_value(result['n_qubits'])}"
            )
            lines.append(f"  {'bound':<22}{'value':>14}{'measured':>14}{'slack':>14}  verdict")
            for name, value in result["bounds"].items():
                slack = result["slacks"][name]
                verdict = "-"
                for check in result["checks"]:
                    if check["name"] == f"slack:{name}":
                        verdict = "PASS" if check["passed"] else "FAIL"
                lines.append(
                    f"  {name:<22}{_format_value(value):>14}{_format_value(result['i_locc']):>14}"
                    f"{_format_value(slack):>14}  {verdict}"
                )
            for audit in result["audits"]:
                audit_checks = [
                    c for c in result["checks"] if c["name"].startswith(f"round{audit['round']}:")
                ]
                verdict = "PASS" if all(c["passed"] for c in audit_checks) else "FAIL"
                lines.append(
                    f"  round {audit['round']} ({audit['party']}): info={_format_value(audit['info'])} "
                    f"holevo_slack={_format_value(audit['holevo_slack'])} "
                    f"drop_slack={_format_value(audit['entropy_drop_slack'])} "
                    f"distant_dev{_format_deviation(audit['distant_marginal_deviation'])}  {verdict}"
                )
        elif "report" in result:
            for key, value in result["report"].items():
                lines.append(f"  {key:<28}{_format_value(value)}")
            for check in result["checks"]:
                lines.append(
                    f"  check {check['name']}: {_format_value(check['value'])} "
                    f"{check['comparison']} {check['threshold']:.1e}  "
                    f"{'PASS' if check['passed'] else 'FAIL'}"
                )
        elif "leaves" in result:
            lines.append(
                f"  depth {result['depth']}  parties {','.join(result['round_parties']) or '-'}  "
                f"I_locc={_format_value(result['i_locc'])}  "
                f"per_round={[_round9(v) for v in result['per_round_info']]}"
            )
            for leaf in result["leaves"]:
                lines.append(
                    f"  leaf {','.join(leaf['path']) or '(root)'}  p={_format_value(leaf['probability'])}  "
                    f"posterior={[_round9(v) for v in leaf['member_probabilities']]}"
                )
        else:
            for key in ("entropy_average", "entropy_a", "entropy_b", "holevo", "n_qubits"):
                lines.append(f"  {key:<18}{_format_value(result[key])}")
    lines.append(
        f"overall: {'PASS' if report['passed'] else 'FAIL'}  ({elapsed:.3f} s)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="locclab",
        description="Bipartite ensembles, LOCC protocols, and information-entanglement bounds.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--seed", type=int, default=0, help="base seed for random scenarios")
    parser.add_argument("--trials", type=int, default=1, help="trial count for random scenarios")
    parser.add_argument("--tol", type=float, default=None, help="slack tolerance (default 1e-7)")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        report = run_scenario(
            args.scenario, args.command, seed=args.seed, trials=args.trials, tol=args.tol
        )
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_table(report, elapsed))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
