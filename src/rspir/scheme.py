"""Two-database RSPIR scheme model and the shipped constructions.

A scheme stores K messages of L symbols per block plus R shared randomness
symbols, and one public answer set per database. Every answer is a linear
map applied to the concatenated column vector (W_1 .. W_K, S_1 .. S_R), so
the whole protocol is a pair of coefficient matrices per answer index.

Builders:

* ``build_rotation_scheme`` -- answers of database 1 are one-time-padded
  copies of all K messages with the pad assignment rotated per index;
  database 2 serves single pad symbols. Download cost (K+1) per block.
* ``build_pairwise_scheme`` -- database 1 serves padded pairwise sums
  W_j + W_rot(j), database 2 serves one padded message symbol. Download
  cost K per block. Decoding relies on characteristic 2 (self-cancelling
  sums), which is why only GF(2^m) fields are supported here.
* ``build_k4_scheme`` -- the special K=4, L=2 construction with download
  cost 6 per block (rate 1/3, better than the pairwise 1/4).
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .field import FieldSpec
from .linalg import FieldMatrix

VARIANTS = (
    "rotation-randomness",
    "rotation-messages",
    "pairwise-sum",
    "k4-special",
)


@dataclass(frozen=True)
class LinearAnswer:
    """One publishable answer: index within its set and its coefficient map.

    ``map`` has one row per transmitted symbol and K*L + R columns.
    """

    index: int
    map: FieldMatrix


@dataclass(frozen=True)
class Scheme:
    """Complete public description of a two-database RSPIR protocol block."""

    K: int
    L: int
    R: int
    field: FieldSpec
    answers_db1: tuple[LinearAnswer, ...]
    answers_db2: tuple[LinearAnswer, ...]

    @property
    def M1(self) -> int:
        return len(self.answers_db1)

    @property
    def M2(self) -> int:
        return len(self.answers_db2)

    @property
    def n_cols(self) -> int:
        return self.K * self.L + self.R

    def message_col(self, k: int, l: int = 1) -> int:
        """Column of symbol l of message k (both 1-based)."""
        return (k - 1) * self.L + (l - 1)

    def randomness_col(self, r: int) -> int:
        """Column of randomness symbol r (1-based)."""
        return self.K * self.L + (r - 1)

    def answer(self, db: int, index: int) -> LinearAnswer:
        answers = self.answers_db1 if db == 1 else self.answers_db2
        return answers[index - 1]

    @property
    def download_cost(self) -> int:
        """Worst-case downloaded symbols per block over both databases."""
        return max(a.map.rows for a in self.answers_db1) + max(b.map.rows for b in self.answers_db2)


def answer_index_bits(s: Scheme) -> int:
    """Bits needed to transmit both selected answer indices (sent once per run)."""
    return (s.M1 - 1).bit_length() + (s.M2 - 1).bit_length()


def validate_shape(s: Scheme) -> list[str]:
    """Structural violations of the scheme model; empty list means well formed.

    Checked: answer-set sizes are positive multiples of K (a consequence of
    the uniform decoded-index law), every map covers exactly the K*L + R
    inputs, and all coefficients lie in the field.
    """
    violations = []
    if s.K < 2:
        violations.append(f"K must be at least 2, got {s.K}")
    if s.L < 1:
        violations.append(f"L must be at least 1, got {s.L}")
    if s.R < 0:
        violations.append(f"R must be nonnegative, got {s.R}")
    for db, answers in ((1, s.answers_db1), (2, s.answers_db2)):
        m = len(answers)
        if m == 0 or m % s.K != 0:
            violations.append(f"database {db} has {m} answers, not a positive multiple of K={s.K}")
        for pos, ans in enumerate(answers, start=1):
            if ans.index != pos:
                violations.append(f"database {db} answer at position {pos} carries index {ans.index}")
            if ans.map.cols != s.n_cols:
                violations.append(
                    f"database {db} answer {pos} maps {ans.map.cols} columns, expected {s.n_cols}"
                )
            if ans.map.rows < 1:
                violations.append(f"database {db} answer {pos} transmits no symbols")
            if any(not 0 <= e < s.field.q for e in ans.map.entries):
                violations.append(f"database {db} answer {pos} has coefficients outside GF(2^{s.field.m})")
    return violations


_TERM = re.compile(r"^(?:W(\d+)(?:\.(\d+))?|S(\d+))$")


def row_from_expr(expr: str, K: int, L: int, R: int) -> tuple[int, ...]:
    """Coefficient row for a sum like ``"W1.2+W3.1+S4"`` (``"W1+S1"`` when L=1).

    Repeated terms cancel, matching characteristic-2 sums.
    """
    row = [0] * (K * L + R)
    expr = expr.replace(" ", "")
    if expr in ("", "0"):
        return tuple(row)
    for term in expr.split("+"):
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"bad term {term!r} in {expr!r}")
        if m.group(3) is not None:
            r = int(m.group(3))
            if not 1 <= r <= R:
                raise ValueError(f"randomness index out of range in {term!r}")
            col = K * L + (r - 1)
        else:
            k = int(m.group(1))
            l = int(m.group(2)) if m.group(2) else 1
            if not (1 <= k <= K and 1 <= l <= L):
                raise ValueError(f"message index out of range in {term!r}")
            col = (k - 1) * L + (l - 1)
        row[col] ^= 1
    return tuple(row)


def _answers(maps: list[list[tuple[int, ...]]]) -> tuple[LinearAnswer, ...]:
    return tuple(
        LinearAnswer(i + 1, FieldMatrix.from_rows(rows)) for i, rows in enumerate(maps)
    )


def build_rotation_scheme(K: int, variant: str = "rotation-randomness", m: int = 1) -> Scheme:
    """Rotation scheme: R=K pads, database 1 answers have K symbols, database 2 one.

    ``rotation-randomness`` rotates which pad covers which message per answer
    index; ``rotation-messages`` rotates the messages instead. Database 2 is
    identical under both variants (plain pad symbols).
    """
    if K < 2:
        raise ValueError(f"rotation scheme needs K >= 2, got {K}")
    if variant not in ("rotation-randomness", "rotation-messages"):
        raise ValueError(f"unknown rotation variant {variant!r}")
    field = FieldSpec(m)
    L, R = 1, K
    db1 = []
    for a in range(1, K + 1):
        rows = []
        for j in range(1, K + 1):
            if variant == "rotation-randomness":
                w, s = j, ((j + a - 2) % K) + 1
            else:
                w, s = ((j + a - 2) % K) + 1, j
            rows.append(row_from_expr(f"W{w}+S{s}", K, L, R))
        db1.append(rows)
    db2 = [[row_from_expr(f"S{b}", K, L, R)] for b in range(1, K + 1)]
    return Scheme(K, L, R, field, _answers(db1), _answers(db2))


def build_pairwise_scheme(K: int, m: int = 1) -> Scheme:
    """Pairwise-sum scheme: R=K-1 pads, download cost K symbols per block."""
    if K < 2:
        raise ValueError(f"pairwise scheme needs K >= 2, got {K}")
    field = FieldSpec(m)
    L, R = 1, K - 1
    db1 = [[row_from_expr(f"S{j}", K, L, R) for j in range(1, K)]]
    for a in range(2, K + 1):
        rows = []
        for j in range(1, K):
            other = ((j + a - 2) % K) + 1
            rows.append(row_from_expr(f"W{j}+W{other}+S{j}", K, L, R))
        db1.append(rows)
    db2 = [[row_from_expr(f"W{b}+S{b}", K, L, R)] for b in range(1, K)]
    db2.append([row_from_expr("W" + str(K) + "+" + "+".join(f"S{j}" for j in range(1, K)), K, L, R)])
    return Scheme(K, L, R, field, _answers(db1), _answers(db2))


# Answer listings of the special K=4, L=2 construction. Message symbols are
# W<k>.<position>, pads are S1..S4; each tuple is one answer (3 symbols).
_K4_DB1 = (
    ("S1", "S2", "S3"),
    ("W1.1+W3.1+W3.2+S1", "W2.2+W4.1+S1+S3", "W3.2+S4"),
    ("W1.1+W4.2+S1+S4", "W1.2+W4.1+W4.2+S2", "W2.1+W3.2+S2+S3"),
    ("W2.1+S4", "W1.1+W1.2+W2.1+W2.2+S1+S2", "W3.1+W4.2+S1+S2+S3"),
)
_K4_DB2 = (
    ("W1.1+S1", "W1.2+S2", "S4"),
    ("W2.1+W2.2+S1+S2", "W2.1+S2+S3", "W1.1+W3.1+W4.2+S1+S4"),
    ("W4.1+W4.2+S2", "W2.1+W3.2+S4", "W4.1+S1+S3"),
    ("W3.2+S2+S3", "W3.1+W3.2+S1", "W1.1+W1.2+W2.2+W3.1+W4.1+S3+S4"),
)


def build_k4_scheme(m: int = 1) -> Scheme:
    """Special K=4 scheme: L=2, R=4, download cost 6 symbols per block (rate 1/3)."""
    field = FieldSpec(m)
    K, L, R = 4, 2, 4
    db1 = [[row_from_expr(e, K, L, R) for e in ans] for ans in _K4_DB1]
    db2 = [[row_from_expr(e, K, L, R) for e in ans] for ans in _K4_DB2]
    return Scheme(K, L, R, field, _answers(db1), _answers(db2))


def build_scheme(variant: str, K: int | None = None, m: int = 1) -> Scheme:
    """Build a shipped scheme by variant tag."""
    if variant in ("rotation-randomness", "rotation-messages"):
        if K is None:
            raise ValueError(f"{variant} needs K")
        return build_rotation_scheme(K, variant, m)
    if variant == "pairwise-sum":
        if K is None:
            raise ValueError("pairwise-sum needs K")
        return build_pairwise_scheme(K, m)
    if variant == "k4-special":
        if K not in (None, 4):
            raise ValueError(f"k4-special is fixed at K=4, got K={K}")
        return build_k4_scheme(m)
    raise ValueError(f"unknown variant {variant!r}")


def permute_answers(s: Scheme, perm1: tuple[int, ...] | None = None, perm2: tuple[int, ...] | None = None) -> Scheme:
    """Relabel answer indices: position i serves the old answer perm[i] (0-based)."""
    def apply(answers: tuple[LinearAnswer, ...], perm: tuple[int, ...] | None) -> tuple[LinearAnswer, ...]:
        if perm is None:
            return answers
        if sorted(perm) != list(range(len(answers))):
            raise ValueError(f"bad permutation {perm} for {len(answers)} answers")
        return tuple(LinearAnswer(i + 1, answers[p].map) for i, p in enumerate(perm))

    return Scheme(s.K, s.L, s.R, s.field, apply(s.answers_db1, perm1), apply(s.answers_db2, perm2))


def permute_randomness(s: Scheme, perm: tuple[int, ...]) -> Scheme:
    """Relabel the shared randomness symbols: new symbol i is old symbol perm[i] (0-based)."""
    if sorted(perm) != list(range(s.R)):
        raise ValueError(f"bad permutation {perm} for R={s.R}")
    col_order = list(range(s.K * s.L)) + [s.K * s.L + p for p in perm]

    def remap(ans: LinearAnswer) -> LinearAnswer:
        rows = [[ans.map.entry(i, c) for c in col_order] for i in range(ans.map.rows)]
        return LinearAnswer(ans.index, FieldMatrix.from_rows(rows))

    return Scheme(
        s.K, s.L, s.R, s.field,
        tuple(remap(a) for a in s.answers_db1),
        tuple(remap(b) for b in s.answers_db2),
    )


def with_field(s: Scheme, m: int) -> Scheme:
    """Same coefficient matrices over a larger (or smaller, if legal) alphabet."""
    field = FieldSpec(m)
    for answers in (s.answers_db1, s.answers_db2):
        for ans in answers:
            if any(e >= field.q for e in ans.map.entries):
                raise ValueError(f"coefficients do not fit in GF(2^{m})")
    return Scheme(s.K, s.L, s.R, field, s.answers_db1, s.answers_db2)
