"""Derives which message each answer pair determines, and how to recover it.

For a pair (a, b) the user sees obs = [A_a; B_b] * (W, S). Message k is a
deterministic function of obs exactly when every unit vector selecting a
symbol of W_k lies in the row space of the stacked map; the recovery
combination is then a left inverse restricted to those unit rows, so its
composition with the stacked map touches no randomness column and no other
message column.

Derivation never aborts on a broken scheme: pairs that decode nothing or
decode several messages are recorded as diagnostics so the verifier can
still produce a complete report. Accessing decoding for an undecodable
pair raises ``NotReliableError``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import FieldMatrix, in_row_space, mat_vec, row_reduce, solve_linear, vstack
from .scheme import Scheme, validate_shape


class NotReliableError(Exception):
    """Answer pair (a, b) determines no message."""

    def __init__(self, a: int, b: int) -> None:
        super().__init__(f"answer pair ({a}, {b}) decodes no message")
        self.pair = (a, b)


class DatabasePrivacyBreach(Exception):
    """Answer pair (a, b) fully determines more than one message."""

    def __init__(self, a: int, b: int, decodable: tuple[int, ...]) -> None:
        super().__init__(f"answer pair ({a}, {b}) decodes messages {decodable}")
        self.pair = (a, b)
        self.decodable = decodable


@dataclass(frozen=True)
class PairDecode:
    """Decoding facts for one answer pair."""

    decodable: tuple[int, ...]
    theta: int | None
    recovery: FieldMatrix | None


@dataclass(frozen=True)
class DecodeTable:
    """Per-pair decoded message index and recovery map, M1 x M2."""

    K: int
    L: int
    pairs: tuple[tuple[PairDecode, ...], ...]

    def entry(self, a: int, b: int) -> PairDecode:
        return self.pairs[a - 1][b - 1]

    def theta(self, a: int, b: int) -> int:
        t = self.entry(a, b).theta
        if t is None:
            raise NotReliableError(a, b)
        return t

    def theta_grid(self) -> tuple[tuple[int | None, ...], ...]:
        return tuple(tuple(p.theta for p in row) for row in self.pairs)

    def problems(self) -> list[tuple[str, int, int]]:
        """(kind, a, b) for every pair that is not cleanly one-message decodable."""
        out = []
        for a, row in enumerate(self.pairs, start=1):
            for b, p in enumerate(row, start=1):
                if p.theta is None:
                    out.append(("not-reliable", a, b))
                elif len(p.decodable) > 1:
                    out.append(("multi-decodable", a, b))
        return out

    def require_clean(self) -> None:
        """Raise the first diagnostic, if any."""
        for kind, a, b in self.problems():
            if kind == "not-reliable":
                raise NotReliableError(a, b)
            raise DatabasePrivacyBreach(a, b, self.entry(a, b).decodable)


def derive_decode_table(s: Scheme) -> DecodeTable:
    """Algebraic derivation of the decoded-index table and recovery maps.

    theta is the lowest fully decodable message index per pair (there is
    exactly one for a valid scheme); ``problems()`` lists the exceptions.
    """
    _require_valid_shape(s)
    grid = tuple(
        tuple(pair_decode(s, ans_a.map, ans_b.map) for ans_b in s.answers_db2)
        for ans_a in s.answers_db1
    )
    return DecodeTable(s.K, s.L, grid)


def derive_pair_decode(s: Scheme, a: int, b: int) -> PairDecode:
    """The decode table's entry for answer pair (a, b), derived on its own."""
    _require_valid_shape(s)
    return pair_decode(s, s.answer(1, a).map, s.answer(2, b).map)


def _require_valid_shape(s: Scheme) -> None:
    violations = validate_shape(s)
    if violations:
        raise ValueError("scheme shape is invalid: " + "; ".join(violations))


def pair_decode(s: Scheme, map_a: FieldMatrix, map_b: FieldMatrix) -> PairDecode:
    """Decoding facts for the pair of maps (map_a, map_b); ``s`` supplies only K, L and the field."""
    stacked = vstack(map_a, map_b)
    red = row_reduce(s.field, stacked)
    decodable = tuple(
        k
        for k in range(1, s.K + 1)
        if all(
            in_row_space(s.field, red, _unit(s.n_cols, s.message_col(k, l)))
            for l in range(1, s.L + 1)
        )
    )
    if not decodable:
        return PairDecode((), None, None)
    return PairDecode(decodable, decodable[0], _recovery_map(s, stacked, decodable[0]))


def _unit(n: int, col: int) -> tuple[int, ...]:
    return tuple(1 if j == col else 0 for j in range(n))


def _recovery_map(s: Scheme, stacked: FieldMatrix, k: int) -> FieldMatrix:
    # One combination row per message symbol: solve stacked^T u = e_col.
    t = stacked.transpose()
    rows = []
    for l in range(1, s.L + 1):
        sol = solve_linear(s.field, t, _unit(s.n_cols, s.message_col(k, l)))
        assert sol.solution is not None  # guaranteed by the row-space test
        rows.append(sol.solution)
    return FieldMatrix.from_rows(rows)


def decode(
    s: Scheme, table: DecodeTable, a: int, b: int, observed: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Decoded message index and its L symbols for one observed answer pair."""
    expected = s.answer(1, a).map.rows + s.answer(2, b).map.rows
    if len(observed) != expected:
        raise ValueError(f"observation has {len(observed)} symbols, expected {expected}")
    entry = table.entry(a, b)
    if entry.theta is None or entry.recovery is None:
        raise NotReliableError(a, b)
    return entry.theta, mat_vec(s.field, entry.recovery, observed)
