"""Numerical laboratory for temporal correlations in multitime quantum processes."""

from .config import DEFAULT_TOL, max_dense_dim
from .linalg import (
    DensityMatrix,
    DimensionLimitError,
    LinalgError,
    NotAStateError,
    NotHermitianError,
    kron,
    max_entangled_state,
    maximally_mixed,
    mutual_information,
    partial_trace,
    permute_subsystems,
    relative_entropy,
    trace_distance,
    von_neumann_entropies,
    von_neumann_entropy,
)
from .processes import (
    CausalityError,
    CausalityReport,
    CircuitProcessSpec,
    ProcessTensor,
    RandomSpec,
    build_from_circuit,
    build_stack,
    cnot_swap_process,
    fredkin_dilation,
    fredkin_env,
    fredkin_unitary,
    haar_unitary,
    nm_depolarizing_process,
    nm_depolarizing_spec,
    random_process,
    swap_chain_process,
    swap_unitary,
    verify_causality,
)
from .channels import (
    EtaDiagnostics,
    channel_M,
    depolarizing_choi,
    eta_diagnostics,
)
from .metrics import (
    BoundAudit,
    CorrelationReport,
    audit_bounds,
    correlation_report,
    implication_checks,
    non_markovianity_crosscheck,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
