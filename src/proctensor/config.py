"""Numerical tolerances and global limits; ``DEFAULT_TOL`` is the one source of tolerances."""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Type of ``DEFAULT_TOL``, whose values are fixed: nothing accepts a bundle.

    The values suit double-precision eigensolvers at the supported dense
    dimensions. ``causal`` and ``xcheck`` are the defaults of the per-call
    overrides: ``tol_causal`` of ``build_from_circuit``,
    ``ProcessTensor.from_state`` and ``io.load_process``,
    ``verify_causality(state, tol)``, ``causality_holds(residuals, tol)``,
    ``audit_bounds(report, tol)`` and the CLI's ``--tol``.
    """

    herm: float = 1e-10     # Hermiticity residual
    tr: float = 1e-10       # trace deviation from 1
    psd: float = 1e-10      # allowed negative eigenvalue magnitude
    eig: float = 1e-9       # unitarity residual ||U^dag U - I||_F of a step unitary
    supp: float = 1e-10     # support-leakage threshold for relative entropy
    xcheck: float = 1e-8    # cross-checks between independent formulas
    causal: float = 1e-9    # trace distance per causality hierarchy level


DEFAULT_TOL = Tolerances()

# Hard cap on any dense matrix dimension produced by tensor products.
_DEFAULT_MAX_DIM = 2**20


def max_dense_dim() -> int:
    """Largest allowed dense dimension; overridable via PROCTENSOR_MAX_DIM."""
    return int(os.environ.get("PROCTENSOR_MAX_DIM", _DEFAULT_MAX_DIM))
