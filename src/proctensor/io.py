"""File formats: process-spec documents, serialized Choi states, reports, CSV.

``load_process`` opens either kind of process file as a verified process.

Process specs are JSON; complex matrices are nested arrays of [re, im]
pairs in the package's big-endian index convention. Choi states use a plain
text format: one header line with the step count, dimension and slot
labels, then one matrix row per line as whitespace-separated re/im pairs.
Numeric output uses shortest-roundtrip decimals for byte-stable files.
"""

from __future__ import annotations

import itertools
import json
import warnings
from pathlib import Path
from typing import Any, Iterable, TextIO, get_args

import numpy as np

from .config import DEFAULT_TOL, max_dense_dim
from .linalg import DensityMatrix, DimensionLimitError
from .metrics import PER_STEP, BoundAudit, CorrelationReport
from .processes import CausalityReport, CircuitProcessSpec, EnvInit, ProcessTensor
from .processes import build_from_circuit, checked_unitaries, random_env, slot_shape

CHOI_MAGIC = "proctensor-choi"
SPEC_FIELDS = ("n", "d", "d_env", "env", "env_init", "seed", "unitaries")  # all a spec may hold
_QUOTED = 120  # most characters of a Choi header that an error message quotes


class SpecFileError(ValueError):
    """A process-spec file is malformed; the message names the field."""


def fmt(x: float) -> str:
    """Shortest decimal that round-trips the double."""
    return repr(float(x))


def complex_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def pairs_to_complex(data: Any, fieldname: str) -> np.ndarray:
    """The complex square matrix of a parsed JSON field of [re, im] pairs of numbers.

    Leaves that are not JSON numbers (int or float), such as strings or
    booleans, raise ``SpecFileError`` naming ``fieldname`` and their types.
    """
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"field '{fieldname}' is not a nested [re, im] array") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise SpecFileError(
            f"field '{fieldname}' must be a square matrix of [re, im] pairs, "
            f"got shape {arr.shape}"
        )
    kinds = set(map(type, itertools.chain.from_iterable(itertools.chain.from_iterable(data))))
    if not kinds <= {int, float}:  # "1" and true would read as 1.0
        names = ", ".join(sorted(kind.__name__ for kind in kinds - {int, float}))
        raise SpecFileError(
            f"field '{fieldname}' has [re, im] entries that are not numbers: {names}"
        )
    with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j; the object refuses it
        return arr[:, :, 0] + 1j * arr[:, :, 1]


def _require(doc: dict, key: str, kind: type) -> Any:
    if key not in doc:
        raise SpecFileError(f"missing required field '{key}'")
    value = doc[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise SpecFileError(f"field '{key}' must be an integer, got {value!r}")
    return value


def _require_at_least(doc: dict, key: str, least: int) -> int:
    value = _require(doc, key, int)
    if value < least:
        raise SpecFileError(f"field '{key}' must be >= {least}, got {value}")
    return value


def load_process_spec(path: str | Path) -> CircuitProcessSpec:
    """Parse a JSON process-spec document into a circuit description."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per nesting level
        raise SpecFileError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError("top-level document must be an object")
    unknown = [key for key in doc if key not in SPEC_FIELDS]
    if unknown:
        fields = ", ".join(SPEC_FIELDS)
        raise SpecFileError(f"unknown field {unknown[0]!r}; a spec has only the fields {fields}")
    n = _require_at_least(doc, "n", 1)
    d = _require_at_least(doc, "d", 2)
    d_env = _require_at_least(doc, "d_env", 1)
    if "env" in doc:
        for key in ("env_init", "seed"):
            if key in doc:
                raise SpecFileError(f"field 'env' gives the environment, so '{key}' must not")
        mat = pairs_to_complex(doc["env"], "env")
        if mat.shape[0] != d_env:
            raise SpecFileError(f"field 'env' has dimension {mat.shape[0]}, expected {d_env}")
        try:
            env = DensityMatrix(mat, (d_env,))
        except Exception as exc:
            raise SpecFileError(f"field 'env' is not a valid density matrix: {exc}") from exc
    else:
        env_init = doc.get("env_init", "maximally-mixed")
        if env_init not in get_args(EnvInit):
            raise SpecFileError(f"field 'env_init' has unknown value {env_init!r}")
        if "seed" in doc and env_init != "seeded-random":
            raise SpecFileError(f"field 'seed' needs env_init 'seeded-random', not {env_init!r}")
        seed = _require_at_least(doc, "seed", 0) if "seed" in doc else 0
        env = None
    raw_us = _require(doc, "unitaries", list)
    if not isinstance(raw_us, list) or len(raw_us) != n:
        raise SpecFileError(f"field 'unitaries' must list exactly n = {n} matrices")
    us = tuple(pairs_to_complex(u, f"unitaries[{j}]") for j, u in enumerate(raw_us))
    try:
        if env is None:
            # Unitary 0's side is checked against d * d_env before a default environment
            # of side d_env is built, so what a spec allocates is bounded by its file.
            if len(us[0]) != d * d_env:
                checked_unitaries(us, n, d * d_env)  # raises as CircuitProcessSpec would
            rng = np.random.default_rng(seed) if env_init == "seeded-random" else None
            env = DensityMatrix(None, (d_env,), factor=random_env(rng, d_env, env_init))
        return CircuitProcessSpec(n=n, d=d, env_state=env, unitaries=us)
    except ValueError as exc:
        raise SpecFileError(f"field 'unitaries': {exc}") from exc


def load_process(path: str | Path, tol_causal: float = DEFAULT_TOL.causal) -> ProcessTensor:
    """The verified process of a Choi file (``is_choi_file``) or else of a process spec.

    A Choi file gives ``ProcessTensor.from_state``, a spec
    ``build_from_circuit``; either raises ``CausalityError``, carrying the
    hierarchy's report, if the process fails it at ``tol_causal``.
    """
    if is_choi_file(path):
        return ProcessTensor.from_state(load_choi(path), tol_causal)
    return build_from_circuit(load_process_spec(path), tol_causal)


def slot_labels(n: int) -> str:
    """The ``slots=`` value of an n-step Choi file: i0,o1,i1,o2,...,i{n-1},o{n}."""
    return ",".join(f"i{m // 2}" if m % 2 == 0 else f"o{(m + 1) // 2}" for m in range(2 * n))


def save_choi(state: DensityMatrix, path: str | Path) -> None:
    """Write a 2n-slot Choi state in the text interchange format.

    A state whose slots are not 2n of one dimension raises ``ValueError``
    (``slot_shape``) before the file is opened.
    """
    n, d = slot_shape(state)
    lines = [f"{CHOI_MAGIC} n={n} d={d} slots={slot_labels(n)}"]
    for row in state.mat:
        lines.append(" ".join(f"{fmt(z.real)} {fmt(z.imag)}" for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _at_choi_magic(fh: TextIO) -> bool:
    """Whether ``CHOI_MAGIC`` follows the leading whitespace of ``fh``; reads past both, no further."""
    char = fh.read(1)
    while char.isspace():
        char = fh.read(1)
    return char + fh.read(len(CHOI_MAGIC) - 1) == CHOI_MAGIC


def is_choi_file(path: str | Path) -> bool:
    """Whether ``path`` is a serialized Choi file by ``load_choi``'s rule (``_at_choi_magic``)."""
    with Path(path).open(encoding="utf-8", errors="replace") as fh:
        return _at_choi_magic(fh)


def load_choi(path: str | Path) -> DensityMatrix:
    """Read a Choi state written by ``save_choi``; its slots must be in canonical order.

    A header that declares more than ``max_dense_dim()`` rows raises
    ``DimensionLimitError`` before its slots are checked or any row is read;
    errors quote at most ``_QUOTED`` characters of it or of its expected
    slots. The rows are parsed from the open file in one ``np.loadtxt`` pass
    over exactly the d^(2n) lines after the header, and only blank lines may
    follow them (or precede the header). A row error is worded by
    ``_row_error``, which reads the lines again.
    """
    with Path(path).open() as fh:
        if not _at_choi_magic(fh):
            raise SpecFileError(f"{path} is not a serialized Choi file")
        header = CHOI_MAGIC + fh.readline().rstrip("\n")
        try:
            fields = dict(tok.split("=", 1) for tok in header.split()[1:])
            n = int(fields["n"])
            d = int(fields["d"])
        except (KeyError, ValueError) as exc:
            raise SpecFileError(f"malformed Choi header: {_clip(header)!r}") from exc
        for name, value, least in (("n", n, 1), ("d", d, 2)):
            if value < least:
                raise SpecFileError(
                    f"malformed Choi header: {name} must be >= {least}, got {value}: "
                    f"{_clip(header)!r}"
                )
        # d >= 2, so d^(2n) >= 2^(2n) exceeds the limit once 2n reaches its bit length;
        # d^(2n) is formed only below that, or while it fits in 64 bits for the message.
        limit = max_dense_dim()
        dim = d ** (2 * n) if 2 * n < max(limit.bit_length(), 64 // d.bit_length()) else None
        if dim is None or dim > limit:
            raise DimensionLimitError(
                f"Choi matrix dimension {dim or f'{d}^{2 * n}'} exceeds dense limit {limit}"
            )
        if fields.get("slots") != slot_labels(n):
            raise SpecFileError(
                f"Choi header must list slots={_clip(slot_labels(n))}: {_clip(header)!r}"
            )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body warns; the shape check names it
                vals = np.loadtxt(itertools.islice(fh, dim), dtype=float, comments=None, ndmin=2)
        except ValueError:
            vals = None
        if vals is None or vals.shape != (dim, 2 * dim) or any(line.strip() for line in fh):
            raise _row_error(path, dim)
    return DensityMatrix(vals.view(complex), (d,) * (2 * n))


def _clip(text: str) -> str:
    """``text`` cut to ``_QUOTED`` characters, the cut marked by "..."."""
    return text if len(text) <= _QUOTED else text[: _QUOTED - 3] + "..."


def _row_error(path: str | Path, dim: int) -> SpecFileError:
    """The error of a Choi file whose d^(2n) = ``dim`` rows did not parse, worded from its lines.

    The rows are the lines after the header, without the blank lines that
    end the file. A wrong row count comes first, then the first malformed
    row, named by its file line (the header is line 1, unless blank lines
    precede it) and the column of its first bad token, or of its first
    missing or extra one; ``np.loadtxt`` on that line alone judges its
    tokens. Last comes a blank line among the rows, which ``np.loadtxt``
    skips.
    """
    lines = Path(path).read_text().split("\n")
    head = next(i for i, line in enumerate(lines) if line.strip())
    rows = lines[head + 1:]
    while rows and not rows[-1].strip():
        rows.pop()
    if len(rows) != dim:
        return SpecFileError(f"expected {dim} matrix rows, found {len(rows)}{_blank_note(rows)}")
    for lineno, row in enumerate(rows, start=head + 2):
        tokens = row.split()
        if tokens and not _parses(row):
            for col, token in enumerate(tokens, start=1):
                if not _parses(token):
                    return SpecFileError(
                        f"malformed Choi matrix row at line {lineno}, column {col}: "
                        f"{token!r} is not a number"
                    )
        if tokens and len(tokens) != 2 * dim:
            return SpecFileError(
                f"malformed Choi matrix row at line {lineno}, column "
                f"{min(len(tokens), 2 * dim) + 1}: expected {2 * dim} numbers, found {len(tokens)}"
            )
    found = sum(1 for row in rows if row.strip())
    return SpecFileError(
        f"expected {dim} rows of {2 * dim} numbers, found {found} rows of {2 * dim}"
        f"{_blank_note(rows)}"
    )


def _parses(text: str) -> bool:
    """Whether ``np.loadtxt`` reads the nonblank ``text`` as one row of numbers."""
    try:
        np.loadtxt([text], dtype=float, comments=None)
    except ValueError:
        return False
    return True


def _blank_note(rows: list[str]) -> str:
    """Names the first blank matrix row, which ``np.loadtxt`` would skip."""
    blank = [i for i, row in enumerate(rows) if not row.strip()]
    return f" (matrix row {blank[0]} is blank)" if blank else ""


def report_lines(report: CorrelationReport) -> list[str]:
    lines = [
        f"n = {report.n}",
        f"d = {report.d}",
        f"total = {fmt(report.total)}",
    ]
    for j, (m, c) in enumerate(zip(report.step_markov, report.step_complement), start=1):
        lines.append(f"step_markov[{j}] = {fmt(m)}")
        lines.append(f"step_complement[{j}] = {fmt(c)}")
    lines += [
        f"markov = {fmt(report.markov)}",
        f"non_markov = {fmt(report.non_markov)}",
        f"additivity_residual = {fmt(report.additivity_residual)}",
    ]
    return lines


def audit_lines(audit: BoundAudit) -> list[str]:
    lines = []
    for name, per_step in PER_STEP.items():
        ends = [f"[{k}]" for k in range(1, audit.n + 1)] if per_step else [""]
        pairs = zip(ends, audit.slack(name), strict=True)
        lines += [f"{name}_slack{end} = {fmt(x)}" for end, x in pairs]
    for which, s in zip(("first", "second"), audit.slack("two_step")):
        lines.append(f"two_step_slack_{which} = {fmt(s)}")
    lines.append(f"bounds_pass = {audit.passed}")
    return lines


def causality_lines(report: CausalityReport) -> list[str]:
    lines = []
    for j, res in enumerate(report.residuals, start=1):
        lines.append(f"causality_residual[{j}] = {fmt(res)}")
    lines.append(f"causality_base_residual = {fmt(report.base_residual)}")
    lines.append(f"causality_pass = {report.passed}")
    return lines


def csv_lines(header: Iterable[str], rows: Iterable[Iterable[float]]) -> list[str]:
    """Comma-delimited lines with shortest-roundtrip decimals, header first."""
    return [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
