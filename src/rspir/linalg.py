"""Dense linear algebra over GF(2^m): products, row reduction, rank, solving, nullspaces.

Matrices here are tiny (answer maps of small retrieval schemes), so
elimination is straightforward Gaussian elimination on lists of ints that
indexes the field's multiplication and inverse tables directly.

Every matrix product goes through one kernel, ``mat_batch``: it multiplies
a matrix by a batch of inputs held column-wise, one ``bytes`` per input
with one symbol per batch position (so q <= 256). Each nonzero coefficient
e costs one ``bytes.translate`` through the multiply-by-e table and one
big-int XOR over the whole batch. ``mat_vec`` is a batch of width 1 and
``mat_mul`` takes the rows of its right factor as the batch.

Operands are range-checked once per call, by a single min/max pass, and
out-of-field entries raise ``ValueError``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .field import FieldSpec


@dataclass(frozen=True)
class FieldMatrix:
    """Immutable row-major matrix with entries in a binary extension field."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(f"expected {self.rows * self.cols} entries, got {len(self.entries)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> FieldMatrix:
        if not rows:
            raise ValueError("matrix needs at least one row")
        cols = len(rows[0])
        flat: list[int] = []
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(len(rows), cols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> FieldMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> FieldMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> FieldMatrix:
        return FieldMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def drop_cols(self, cols: Iterable[int]) -> FieldMatrix:
        drop = set(cols)
        keep = [j for j in range(self.cols) if j not in drop]
        return FieldMatrix(
            self.rows,
            len(keep),
            tuple(self.entry(i, j) for i in range(self.rows) for j in keep),
        )


def vstack(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    if a.cols != b.cols:
        raise ValueError("column counts differ")
    return FieldMatrix(a.rows + b.rows, a.cols, a.entries + b.entries)


def _check_all(field: FieldSpec, values: Sequence[int]) -> None:
    if len(values):
        field.check(min(values))
        field.check(max(values))


def mat_batch(field: FieldSpec, a: FieldMatrix, batch: Sequence[bytes], width: int) -> list[bytes]:
    """Rows of A times a batch of ``width`` inputs, held column-wise.

    ``batch[j]`` holds input symbol j for every batch position; row i of
    the result holds output symbol i for every position, in the same layout.
    """
    if len(batch) != a.cols:
        raise ValueError(f"batch has {len(batch)} inputs, expected {a.cols}")
    if any(len(col) != width for col in batch):
        raise ValueError(f"every batch input must hold {width} symbols")
    _check_all(field, a.entries)
    _check_all(field, b"".join(batch))
    mul = field.mul_rows
    out = []
    for i in range(a.rows):
        acc = 0
        for e, col in zip(a.entries[i * a.cols : (i + 1) * a.cols], batch):
            if e:
                acc ^= int.from_bytes(col if e == 1 else col.translate(mul[e]), "little")
        out.append(acc.to_bytes(width, "little"))
    return out


def mat_vec(field: FieldSpec, a: FieldMatrix, x: Sequence[int]) -> tuple[int, ...]:
    if len(x) != a.cols:
        raise ValueError(f"vector length {len(x)} does not match {a.cols} columns")
    _check_all(field, x)
    return tuple(row[0] for row in mat_batch(field, a, [bytes((v,)) for v in x], 1))


def mat_mul(field: FieldSpec, a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    _check_all(field, b.entries)
    rows = mat_batch(field, a, [bytes(b.row(k)) for k in range(b.rows)], b.cols)
    return FieldMatrix(a.rows, b.cols, tuple(v for row in rows for v in row))


@dataclass(frozen=True)
class RowReduced:
    """Reduced row echelon form with its pivot columns."""

    matrix: FieldMatrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def row_reduce(field: FieldSpec, a: FieldMatrix) -> RowReduced:
    """Reduced row echelon form over the field (pivots normalized to 1)."""
    _check_all(field, a.entries)
    mul, inv = field.mul_rows, field.inverses
    work = a.to_rows()
    m, n = a.rows, a.cols
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        scale = inv[work[r][c]]
        if scale != 1:
            work[r] = [mul[scale][v] for v in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                f = mul[work[i][c]]
                work[i] = [vi ^ f[vr] for vi, vr in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return RowReduced(FieldMatrix.from_rows(work), tuple(pivots))


def rank(field: FieldSpec, a: FieldMatrix) -> int:
    return row_reduce(field, a).rank


def reduce_vector(field: FieldSpec, red: RowReduced, v: Sequence[int]) -> tuple[int, ...]:
    """Residue of v after elimination against the reduced rows."""
    _check_all(field, v)
    mul = field.mul_rows
    res = list(v)
    for i, c in enumerate(red.pivots):
        if res[c] != 0:
            f = mul[res[c]]
            res = [x ^ f[r] for x, r in zip(res, red.matrix.row(i))]
    return tuple(res)


def in_row_space(field: FieldSpec, red: RowReduced, v: Sequence[int]) -> bool:
    return not any(reduce_vector(field, red, v))


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of solving A x = b."""

    kind: Literal["unique", "underdetermined", "inconsistent"]
    solution: tuple[int, ...] | None

    @property
    def unique(self) -> bool:
        return self.kind == "unique"


def solve_linear(field: FieldSpec, a: FieldMatrix, b: Sequence[int]) -> LinearSolution:
    """Solve A x = b by Gaussian elimination on the augmented matrix.

    Returns a particular solution (free variables set to 0) unless the
    system is inconsistent.
    """
    if len(b) != a.rows:
        raise ValueError(f"right-hand side length {len(b)} does not match {a.rows} rows")
    aug = FieldMatrix(
        a.rows,
        a.cols + 1,
        tuple(v for i in range(a.rows) for v in (*a.row(i), b[i])),
    )
    red = row_reduce(field, aug)
    if a.cols in red.pivots:
        return LinearSolution("inconsistent", None)
    x = [0] * a.cols
    for i, c in enumerate(red.pivots):
        x[c] = red.matrix.entry(i, a.cols)
    kind = "unique" if len(red.pivots) == a.cols else "underdetermined"
    return LinearSolution(kind, tuple(x))


def nullspace(field: FieldSpec, a: FieldMatrix) -> list[tuple[int, ...]]:
    """Basis vectors of the right nullspace (empty list for full column rank)."""
    red = row_reduce(field, a)
    pivots = set(red.pivots)
    free = [c for c in range(a.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * a.cols
        v[fc] = 1
        for i, c in enumerate(red.pivots):
            coeff = red.matrix.entry(i, fc)
            if coeff:
                # pivot row gives x_c + ... + coeff * x_fc + ... = 0
                v[c] = coeff
        basis.append(tuple(v))
    return basis
