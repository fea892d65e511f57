"""The package's public namespace."""

from types import ModuleType

import locclab

PUBLIC_NAMES = [
    "BellDiagonalSpec",
    "BipartiteEnsemble",
    "BoundReport",
    "DensityOperator",
    "DistillationReport",
    "HermitianSpectrum",
    "KrausInstrument",
    "ProtocolNode",
    "ProtocolTranscript",
    "RoundAudit",
    "Scenario",
    "ScenarioError",
    "SpectralEnsemble",
    "audit_rounds",
    "average_output_entanglement",
    "bell_diagonal",
    "bell_hashing_bound",
    "bell_partial_bound",
    "bound_suite",
    "bundled_scenario_path",
    "chain_mutual_information",
    "distillation_report",
    "dump_scenario",
    "entropy_summary",
    "hermitian_eig",
    "is_ppt",
    "load_scenario",
    "materialize_random",
    "parse_scenario",
    "partial_trace",
    "partial_transpose",
    "pure_state_density",
    "random_scenario",
    "run_protocol",
    "shannon_entropy",
    "validate_density",
]


def test_all_names_resolve_and_hold_no_module():
    assert locclab.__all__ == PUBLIC_NAMES
    for name in locclab.__all__:
        assert not isinstance(getattr(locclab, name), ModuleType), name
