"""Numerical laboratory for temporal correlations in multitime quantum processes."""

from .config import DEFAULT_TOL, max_dense_dim
from .linalg import (
    DensityMatrix,
    DimensionLimitError,
    LinalgError,
    NotAStateError,
    NotHermitianError,
    eigenvalues_hermitian,
    kron,
    max_entangled_state,
    maximally_mixed,
    mutual_information,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .channels import (
    ChannelChoi,
    DilationSpec,
    EtaDiagnostics,
    apply_channel,
    channel_M,
    choi_from_dilation,
    depolarizing_choi,
    eta_diagnostics,
    fredkin_dilation,
    fredkin_unitary,
    swap_unitary,
)
from .processes import (
    CausalityError,
    CausalityReport,
    CircuitProcessSpec,
    ProcessTensor,
    RandomSpec,
    build_from_circuit,
    cnot_swap_process,
    haar_unitary,
    nm_depolarizing_process,
    random_process,
    swap_chain_process,
    verify_causality,
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
