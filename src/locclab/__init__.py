"""Bipartite ensembles, LOCC measurement protocols, and the
information-entanglement bounds they obey, plus distillation-yield bounds
for distinguishing-based protocols."""

from types import ModuleType as _ModuleType

from .linalg import (
    DensityOperator,
    HermitianSpectrum,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    pure_state_density,
    validate_density,
)
from .entropy import (
    BipartiteEnsemble,
    MEASURE_AUTO,
    MEASURE_EOF,
    MEASURE_PURE,
    concurrence,
    entanglement,
    entropy_summary,
    holevo_chi,
    is_ppt,
    purity,
    resolve_measure,
    shannon_entropy,
    von_neumann_entropy,
)
from .protocol import (
    BoundReport,
    KrausInstrument,
    ProtocolNode,
    ProtocolTranscript,
    RoundAudit,
    audit_rounds,
    average_input_entanglement,
    average_output_entanglement,
    bound_suite,
    chain_mutual_information,
    measure_branch,
    run_protocol,
)
from .distillation import (
    BellDiagonalSpec,
    DistillationReport,
    SpectralEnsemble,
    bell_basis,
    bell_diagonal,
    bell_hashing_bound,
    bell_partial_bound,
    distillation_report,
    full_distinguish_bound,
    mean_local_entropy,
    partial_distinguish_bound,
    spectral_ensemble,
)
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    dump_scenario,
    load_scenario,
    materialize_random,
    parse_scenario,
    random_scenario,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves are not part of it.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
