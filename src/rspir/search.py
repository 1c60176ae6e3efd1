"""Exhaustive search for valid schemes over small spaces of linear answers.

Every candidate answer is a matrix with up to ``max_len`` rows over the
K*L + R input columns; a candidate scheme is one answer per slot. Two
sound prunes keep the space workable:

* answer-set sizes that are not multiples of K admit no valid scheme,
  so such spaces are exhausted immediately;
* a single answer that reveals anything about a single message (rank of
  its map drops when that message's columns are removed) can never appear
  in a valid scheme, because some pair using it must keep that message
  private, and mutual information only shrinks under marginalization.

Schemes are counted up to relabeling of answer indices within each
database and of randomness symbols; verification is invariant under both,
so one representative per class is enough.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import FieldSpec
from .linalg import FieldMatrix
from .scheme import LinearAnswer, Scheme, permute_answers, permute_randomness
from .schemeio import serialize_scheme
from .verify import leaked_symbols, verify_scheme


@dataclass(frozen=True)
class SearchSpace:
    K: int
    L: int
    R: int
    m: int
    max_len: int
    M1: int
    M2: int

    def __post_init__(self) -> None:
        FieldSpec(self.m)  # rejects unsupported degrees
        bounds = (("K", self.K, 2), ("L", self.L, 1), ("R", self.R, 0), ("max_len", self.max_len, 1))
        for name, value, least in bounds:
            if value < least:
                raise ValueError(f"search space needs {name} >= {least}, got {value}")

    @property
    def n_cols(self) -> int:
        return self.K * self.L + self.R


@dataclass(frozen=True)
class SearchResult:
    schemes: tuple[Scheme, ...]
    examined: int
    space: SearchSpace

    @property
    def exhausted_with_none(self) -> bool:
        return not self.schemes


class BudgetExceededError(Exception):
    """Search stopped early; carries the resume cursor and partial finds."""

    def __init__(self, cursor: int, examined: int, partial: tuple[Scheme, ...]) -> None:
        super().__init__(
            f"budget exhausted after {examined} candidates, resume at cursor {cursor}"
        )
        self.cursor = cursor
        self.examined = examined
        self.partial = partial


def answer_reveals_single_message(space: SearchSpace, field: FieldSpec, m: FieldMatrix) -> bool:
    """True when the answer alone leaks about some individual message."""
    return any(
        leaked_symbols(field, m, range(k * space.L, (k + 1) * space.L))
        for k in range(space.K)
    )


def candidate_answers(space: SearchSpace) -> list[FieldMatrix]:
    """All per-slot answer maps surviving the single-answer leak prune."""
    field = FieldSpec(space.m)
    n = space.n_cols
    rows = list(itertools.product(range(field.q), repeat=n))
    out = []
    for nrows in range(1, space.max_len + 1):
        for combo in itertools.product(rows, repeat=nrows):
            m = FieldMatrix.from_rows(combo)
            if not answer_reveals_single_message(space, field, m):
                out.append(m)
    return out


def canonical_key(s: Scheme) -> str:
    """Least serialization over answer-index and randomness relabelings."""
    best = None
    perms1 = itertools.permutations(range(s.M1))
    for p1 in perms1:
        s1 = permute_answers(s, tuple(p1), None)
        for p2 in itertools.permutations(range(s.M2)):
            s2 = permute_answers(s1, None, tuple(p2))
            for ps in itertools.permutations(range(s.R)):
                text = serialize_scheme(permute_randomness(s2, tuple(ps)))
                if best is None or text < best:
                    best = text
    assert best is not None
    return best


def search_schemes(space: SearchSpace, budget: int = 1_000_000, start: int = 0) -> SearchResult:
    """Enumerate the space in a fixed order and return every valid scheme.

    ``budget`` caps the number of candidate schemes examined; exceeding it
    raises ``BudgetExceededError`` with a cursor that can be passed back
    as ``start`` to resume. An empty result means the space is exhausted
    and provably contains no valid scheme.
    """
    if space.M1 % space.K or space.M2 % space.K or space.M1 == 0 or space.M2 == 0:
        return SearchResult((), 0, space)
    field = FieldSpec(space.m)
    pool = candidate_answers(space)
    slots = space.M1 + space.M2
    total = len(pool) ** slots

    found: list[Scheme] = []
    seen: set[str] = set()
    examined = 0
    for cursor in range(start, total):
        if examined >= budget:
            raise BudgetExceededError(cursor, examined, tuple(found))
        examined += 1
        idx = cursor
        choice = []
        for _ in range(slots):
            choice.append(pool[idx % len(pool)])
            idx //= len(pool)
        db1 = tuple(LinearAnswer(i + 1, m) for i, m in enumerate(choice[: space.M1]))
        db2 = tuple(LinearAnswer(i + 1, m) for i, m in enumerate(choice[space.M1 :]))
        scheme = Scheme(space.K, space.L, space.R, field, db1, db2)
        key = canonical_key(scheme)
        if key in seen:
            continue
        seen.add(key)
        if verify_scheme(scheme).all_passed:
            found.append(scheme)
    return SearchResult(tuple(found), examined, space)
