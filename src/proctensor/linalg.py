"""Dense complex linear algebra and entropy functionals over multipartite states.

Index convention: the leftmost tensor factor is the slowest-varying
(big-endian) index, matching ``numpy.kron`` with the left operand first.
All entropic quantities are in nats.

Every state carries a factor F with rho = F F^dag. A dense input gets it
from a diagonally pivoted Cholesky factorization, certified by its
residual, with ``eigh`` only where the certificate is undecided (see
``DensityMatrix``). Partial traces and permutations reshape F,
spectra come from the small Gram matrix F^dag F when F is narrow, and the
dense matrix is only materialized on demand, which keeps
large-but-low-rank states cheap. Stacked spectra of side 2, such as the
qubit single slots of a correlation report, are taken in closed form
(``_hermitian_spectra``), as accurately as ``eigvalsh`` takes them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, max_dense_dim


class LinalgError(Exception):
    """Base error for state/operator contract violations."""


class DimensionLimitError(LinalgError):
    """A tensor product would exceed the configured dense dimension cap."""


class NotHermitianError(LinalgError):
    """Input violates the Hermiticity contract."""


class NotAStateError(LinalgError):
    """Input is not a valid density matrix (PSD, unit trace)."""


def hermiticity_residual(m: np.ndarray) -> float:
    """Max-abs deviation of a square m from its adjoint.

    Compared by row blocks of about 2^14 entries against the matching column
    blocks, as ``_certified_factor`` sums its residual, so no temporary of
    the input's size is formed; the max is the full-array one, NaN included.
    """
    block = max(1, 2**14 // max(len(m), 1))
    res = np.float64(0.0)
    for r in range(0, len(m), block):
        res = np.maximum(res, np.max(np.abs(m[r:r + block] - m[:, r:r + block].conj().T)))
    return float(res)


def unitarity_residual(u: np.ndarray) -> float | np.ndarray:
    """Frobenius norm ||U^dag U - I||_F, an upper bound on the operator norm.

    ||G||_op <= ||G||_F <= sqrt(D) ||G||_op for G = U^dag U - I of side D,
    so the residual bounds max |sigma^2 - 1| over U's singular values, which
    is all the causality certificate needs, and costs one sum of squares
    instead of an SVD. It is exactly 0 for a permutation matrix.

    ``u`` may be a stack (..., D, D), with leading axes such as (sample,
    step); the residuals then come back with those axes, each the same bits
    as for its matrix alone. A single matrix gives an ``np.float64``, which
    is a float.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or NaN: a failure
        gram = u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])
        return np.linalg.norm(gram, axis=(-2, -1))


def _certified_factor(mat: np.ndarray, tr: float) -> np.ndarray | None:
    """Diagonally pivoted Cholesky factor F of a dense input A, or None if undecided.

    Columns are added while the largest remaining pivot exceeds the rounding
    level c = tr dim eps, and each pivot's own entry is exactly its square
    root, so a diagonal input gets the square roots of its entries (Higham,
    "Analysis of the Cholesky decomposition of a semi-definite matrix",
    1990; LAPACK's ``?pstrf``). F, with its columns in ascending pivot order
    as ``eigh`` orders eigenvalues, is returned only when its residual
    ||A - F F^dag||_F is at most min(c, ``DEFAULT_TOL.psd``). By Weyl's
    inequality every eigenvalue of A's Hermitian part is then at least
    -``DEFAULT_TOL.psd``, and F holds A at the rounding level. F is built
    column by column and the residual row block by row block, so no
    dim x dim work array is formed for a low-rank input.
    """
    dim = mat.shape[0]
    cut = tr * dim * np.finfo(float).eps
    pivots = mat.diagonal().real.copy()
    rows = np.empty((min(dim, 16), dim), dtype=complex)  # row k is column k of F
    k = 0
    while True:
        i = int(np.argmax(pivots))
        pivot = pivots[i]
        if not pivot > cut:  # a NaN pivot, from overflowed entries, stops too
            break
        if k == len(rows):
            rows = np.concatenate([rows, np.empty((min(k, dim - k), dim), dtype=complex)])
        col = (mat[:, i] - rows[:k].T @ rows[:k, i].conj()) / math.sqrt(pivot)
        col[i] = math.sqrt(pivot)
        pivots -= col.real**2 + col.imag**2
        pivots[i] = 0.0
        rows[k] = col
        k += 1
    factor = np.ascontiguousarray(rows[:k][::-1].T)
    del rows  # a full-rank input's buffer is as large as its factor
    fh = factor.conj().T
    block = max(1, 2**14 // dim)
    sq = 0.0
    for r in range(0, dim, block):
        e = mat[r:r + block] - factor[r:r + block] @ fh
        sq += np.vdot(e, e).real
    return factor if math.sqrt(sq) <= min(cut, DEFAULT_TOL.psd) else None


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with a subsystem-shape annotation.

    ``dims`` lists the subsystem dimensions, slowest-varying first; their
    product must equal the matrix dimension. Construct from exactly one of
    a dense matrix or a factor F with rho = F F^dag.

    A dense matrix A is fully validated. Its factor is the pivoted Cholesky
    factor of ``_certified_factor``, with columns down to the rounding level
    c = tr dim eps, kept when ||A - F F^dag||_F <= min(c,
    ``DEFAULT_TOL.psd``), which certifies positivity. An input that this
    leaves undecided (a small negative eigenvalue that ``DEFAULT_TOL.psd``
    allows, positive eigenvalues below the pivot cut, an anti-Hermitian
    part within ``DEFAULT_TOL.herm``) falls back to the eigendecomposition
    w, V: w.min() < -``DEFAULT_TOL.psd`` is refused, and the factor is the
    eigenpairs with w above the rounding level w.max() dim eps
    (``numpy.linalg.matrix_rank``'s cut-off). Either way no tolerance sets
    the rank; ``mat`` is the validated input array. A
    given factor is checked for shape, and ``mat`` is F F^dag, formed on
    first use. Either way the factor must be finite with unit trace
    (``factor_traces``), so an
    input whose negative eigenvalues, allowed by ``DEFAULT_TOL.psd`` but
    dropped, sum beyond ``DEFAULT_TOL.tr`` is rejected.
    """

    __slots__ = ("_mat", "_factor", "_trace", "dims")

    def __init__(
        self, mat: np.ndarray | None, dims: Sequence[int], *, factor: np.ndarray | None = None
    ) -> None:
        tol = DEFAULT_TOL
        self.dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.dims}")
        dim = math.prod(self.dims)
        if sum(arg is None for arg in (mat, factor)) != 1:
            raise ValueError("provide exactly one of a dense matrix or a factor")
        if mat is not None:
            mat = np.asarray(mat, dtype=complex)
            if mat.ndim != 2 or mat.shape != (dim, dim):
                raise ValueError(
                    f"expected a {dim}x{dim} matrix for dims {self.dims}, "
                    f"got shape {mat.shape}"
                )
            if not np.all(np.isfinite(mat)):
                raise ValueError("matrix entries must be finite")
            # Huge finite entries overflow to inf or NaN here, which the checks below refuse.
            with np.errstate(over="ignore", invalid="ignore"):
                res = hermiticity_residual(mat)
                if res > tol.herm:
                    raise NotHermitianError(
                        f"Hermiticity residual {res:.3e} > {tol.herm:.1e}"
                    )
                tr = complex(np.trace(mat))
                if not abs(tr - 1.0) <= tol.tr:  # a NaN trace fails too
                    raise NotAStateError(f"trace {tr} deviates from 1 beyond {tol.tr:.1e}")
                factor = _certified_factor(mat, tr.real)
                if factor is None:
                    w, v = np.linalg.eigh(mat)
                    if w[0] < -tol.psd:
                        raise NotAStateError(f"minimum eigenvalue {w[0]:.3e} < -{tol.psd:.1e}")
                    keep = w > w[-1] * dim * np.finfo(float).eps
                    factor = v[:, keep] * np.sqrt(w[keep])
            mat.setflags(write=False)
        else:
            factor = np.asarray(factor, dtype=complex)
            if factor.ndim != 2 or factor.shape[0] != dim:
                raise ValueError(
                    f"factor shape {factor.shape} does not match dimension {dim}"
                )
        (tr,) = factor_traces(factor[None]).tolist()
        factor.setflags(write=False)
        self._factor = factor
        self._trace = tr
        self._mat = mat

    @property
    def mat(self) -> np.ndarray:
        """Dense matrix: the validated input, or F F^dag formed on first use."""
        if self._mat is None:
            mat = self._factor @ self._factor.conj().T
            mat.setflags(write=False)
            self._mat = mat
        return self._mat

    @property
    def factor(self) -> np.ndarray:
        """Factor F with rho = F F^dag, shape (dim, rank)."""
        return self._factor

    @property
    def trace(self) -> float:
        """tr rho as validated: the sum of |F|^2 over the factor, in its memory order."""
        return self._trace

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.dims})"


def factor_traces(factors: np.ndarray) -> np.ndarray:
    """Traces sum |F|^2 of a stack (S, dim, k) of factors F, each checked as ``DensityMatrix`` would.

    The first factor in stack order with a non-finite entry raises
    ``ValueError``, and the first whose trace is off 1 beyond
    ``DEFAULT_TOL.tr`` raises ``NotAStateError``. A non-finite entry makes
    its trace non-finite, so the entries are inspected only where a trace
    fails. Each trace is summed over its factor in memory order, so a
    C-contiguous stack gives each factor the bits it gets alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a huge or NaN entry fails its trace below
        traces = np.sum(np.abs(factors) ** 2, axis=(-2, -1))
    ok = np.abs(traces - 1.0) <= DEFAULT_TOL.tr  # false for NaN too
    if not ok.all():
        k = np.argmin(ok)  # the first failing factor
        if not np.all(np.isfinite(factors[k])):
            raise ValueError("factor entries must be finite")
        raise NotAStateError(
            f"factor trace {float(traces[k])} deviates from 1 beyond {DEFAULT_TOL.tr:.1e}"
        )
    return traces


def check_dense(what: str, size: int) -> None:
    """Raise ``DimensionLimitError`` if a dense ``what`` of side ``size`` exceeds ``max_dense_dim()``.

    The one dense-side check of the package's arrays; ``io.load_choi``
    checks a file's header itself, before it forms d^(2n).
    """
    limit = max_dense_dim()
    if size > limit:
        raise DimensionLimitError(f"{what} {size} exceeds dense limit {limit}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the left factor as the slowest-varying index."""
    check_dense("product dimension", a.shape[0] * b.shape[0])
    return np.kron(a, b)


def maximally_mixed(dims: Sequence[int] | int) -> DensityMatrix:
    """Identity over the given subsystem dims, normalized to unit trace."""
    dims = (dims,) if isinstance(dims, int) else tuple(dims)
    n = math.prod(dims)
    return DensityMatrix(None, dims, factor=np.eye(n) / math.sqrt(n))


def max_entangled_state(d: int) -> DensityMatrix:
    """Normalized maximally entangled two-qudit state, amplitudes I/sqrt(d)."""
    v = np.eye(d).reshape(-1, 1) / math.sqrt(d)
    return DensityMatrix(None, (d, d), factor=v)


def _check_subset(subset: Sequence[int], n: int, *, name: str) -> tuple[int, ...]:
    subset = tuple(int(i) for i in subset)
    if len(set(subset)) != len(subset):
        raise ValueError(f"{name} has repeated indices: {subset}")
    for i in subset:
        if not 0 <= i < n:
            raise ValueError(f"{name} index {i} out of range for {n} subsystems")
    return subset


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out all subsystems not in ``keep``; kept slots stay in original order."""
    keep = _check_subset(keep, rho.num_subsystems, name="keep")
    if not keep:
        raise ValueError("keep must be nonempty")
    keep = tuple(sorted(keep))
    k = rho.num_subsystems
    out_dims = tuple(rho.dims[i] for i in keep)
    traced = tuple(i for i in range(k) if i not in keep)
    rank = rho.factor.shape[1]
    t = rho.factor.reshape(rho.dims + (rank,))
    t = t.transpose(keep + traced + (k,))
    new_factor = t.reshape(math.prod(out_dims), -1)
    return DensityMatrix(None, out_dims, factor=new_factor)


def permute_subsystems(rho: DensityMatrix, perm: Sequence[int]) -> DensityMatrix:
    """Reorder subsystems so that new slot j carries old slot perm[j]."""
    perm = _check_subset(perm, rho.num_subsystems, name="perm")
    k = rho.num_subsystems
    if len(perm) != k:
        raise ValueError("perm must cover every subsystem")
    new_dims = tuple(rho.dims[p] for p in perm)
    rank = rho.factor.shape[1]
    t = rho.factor.reshape(rho.dims + (rank,))
    new_factor = t.transpose(tuple(perm) + (k,)).reshape(rho.dim, rank)
    return DensityMatrix(None, new_dims, factor=new_factor)


def state_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Zero-padded spectrum of a state, from the Gram matrix F^dag F when F is narrow."""
    if rho.factor.shape[1] < rho.dim:
        return _factor_spectra(rho.factor)
    return np.linalg.eigvalsh(rho.mat)


def _factor_spectra(factors: np.ndarray) -> np.ndarray:
    """Zero-padded spectra of F F^dag for a stack (..., dim, k) of factors F.

    From the Gram matrices F^dag F when F is narrow, as ``state_spectrum``.
    """
    dim, k = factors.shape[-2:]
    fh = factors.conj().swapaxes(-1, -2)
    if k >= dim:
        return _hermitian_spectra(factors @ fh)
    w = _hermitian_spectra(fh @ factors)
    return np.concatenate([np.zeros(w.shape[:-1] + (dim - k,)), w], axis=-1)


def _hermitian_spectra(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack (..., k, k) of Hermitian matrices, read from the lower triangle.

    At side 2 in closed form, lambda = h -+ hypot((a - c)/2, |b|) with
    h = (a + c)/2, from the real diagonal a, c and the lower entry b, as
    ``eigvalsh`` reads them. Over 4e5 random qubit states, pure and mixed,
    each eigenvalue was within 1.3 eps max|lambda| of the same formula in
    extended precision, and ``eigvalsh``'s within 6 eps. Any other side
    calls ``np.linalg.eigvalsh``.
    """
    if mats.shape[-1] != 2:
        return np.linalg.eigvalsh(mats)
    a, c = mats[..., 0, 0].real, mats[..., 1, 1].real
    h = 0.5 * (a + c)
    r = np.hypot(0.5 * (a - c), np.abs(mats[..., 1, 0]))
    return np.stack([h - r, h + r], axis=-1)


def _entropy_from_spectrum(w: np.ndarray) -> np.ndarray:
    """-sum(lambda ln lambda) along the last axis of ``w``, with 0 ln 0 := 0."""
    if float(w.min(initial=0.0)) < -DEFAULT_TOL.psd:
        raise NotAStateError(f"negative eigenvalue {w.min():.3e} beyond -{DEFAULT_TOL.psd:.1e}")
    w = np.where(w > 0.0, w, 1.0)  # 1 ln 1 = 0 stands in for 0 ln 0 and rounding below 0
    return -np.sum(w * np.log(w), axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum(lambda ln lambda) in nats, with 0 ln 0 := 0."""
    return float(_entropy_from_spectrum(state_spectrum(rho)))


def von_neumann_entropies(mats: np.ndarray) -> np.ndarray:
    """Entropies in nats of a stack (..., k, k) of small positive semidefinite matrices.

    For states given densely rather than as a ``DensityMatrix``, such as
    the step marginals of ``processes.Transfer``; each spectrum is read from
    the lower triangle, in closed form at k = 2 (``_hermitian_spectra``),
    where the entropies agree with those of ``eigvalsh`` to 1e-13.
    """
    return _entropy_from_spectrum(_hermitian_spectra(mats))


def factor_entropies(factors: np.ndarray) -> np.ndarray:
    """Entropies in nats of the states F F^dag of a stack (..., dim, k) of factors F.

    Each spectrum is taken as ``state_spectrum`` takes it; for factors
    validated at a boundary other than ``DensityMatrix``, such as the final
    environment states of ``processes._transfer``.
    """
    return _entropy_from_spectrum(_factor_spectra(factors))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr[rho (ln rho - ln sigma)] in nats, evaluated on sigma's support.

    Returns ``math.inf`` when rho has weight beyond ``DEFAULT_TOL.supp``
    outside sigma's support.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    s, v = np.linalg.eigh(sigma.mat)
    support = s > DEFAULT_TOL.supp
    # <v_i| rho |v_i> = row norms of V^dag F
    diag = np.sum(np.abs(v.conj().T @ rho.factor) ** 2, axis=1)
    leakage = float(np.sum(diag[~support]))
    if leakage > DEFAULT_TOL.supp:
        return math.inf
    tr_rho_ln_rho = -von_neumann_entropy(rho)
    tr_rho_ln_sigma = float(np.sum(diag[support] * np.log(s[support])))
    return tr_rho_ln_rho - tr_rho_ln_sigma


def mutual_information(
    rho: DensityMatrix, partition: Sequence[Sequence[int]]
) -> float:
    """Multipartite mutual information over a disjoint cover of the subsystems.

    sum of block-marginal entropies minus the global entropy, in nats.
    """
    blocks = [tuple(_check_subset(b, rho.num_subsystems, name="block")) for b in partition]
    flat = [i for b in blocks for i in b]
    if len(set(flat)) != len(flat) or set(flat) != set(range(rho.num_subsystems)):
        raise ValueError("partition blocks must be disjoint and cover every subsystem")
    total = 0  # added left to right, as ``sum`` added floats before Python 3.12
    for b in blocks:
        total += von_neumann_entropy(partial_trace(rho, b))
    return total - von_neumann_entropy(rho)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b, from their factors (``factor_trace_distance``)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return factor_trace_distance(a.factor, b.factor)


def factor_trace_distance(fa: np.ndarray, fb: np.ndarray) -> float:
    """Half the trace norm of Fa Fa^dag - Fb Fb^dag, for factors with equal row counts.

    Narrow factors are projected first onto their joint column space, where
    the difference acts: with [Fa Fb] = QR, Q^dag [Fa Fb] = R, so R's column
    blocks are the projected factors and Q itself is never formed.
    """
    ka = fa.shape[1]
    if ka + fb.shape[1] < fa.shape[0]:
        r = np.linalg.qr(np.concatenate([fa, fb], axis=1), mode="r")
        fa, fb = r[:, :ka], r[:, ka:]
    w = np.linalg.eigvalsh(fa @ fa.conj().T - fb @ fb.conj().T)
    return float(0.5 * np.sum(np.abs(w)))

