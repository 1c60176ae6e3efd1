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

The surviving answers form a pool, and a candidate is a tuple of pool
indices: M1 for database 1, then M2 for database 2. Candidates are never
serialized or fully verified one by one:

* Schemes are counted up to relabeling of answer indices within each
  database and of randomness symbols; verification is invariant under
  both, so one representative per class is enough. A class is keyed by
  its index tuples alone: the least ``(sorted(t2), sorted(t1))`` over the
  R! randomness relabelings, each precomputed once as a map from pool
  index to pool index (the pool is closed under them). ``canonical_key``
  defines the same classes on scheme text.
* Reliability and database privacy depend only on the pair of answers, so
  a pool x pool table holds each pair's verdict: the decoded message theta,
  or invalid when the pair decodes nothing or leaks about another message.
  Cells are derived on first use, so a small budget pays for few of them.
  A class is valid when all of its M1 x M2 cells hold a theta and every
  message appears M2/K times in each row and M1/K times in each column,
  the user-privacy rule. Determinism holds by construction and
  independence is the constant K*L + R of the uniform model, so this is
  exactly ``verify_scheme(...).all_passed``.

Only the first member of a valid class in cursor order is built into a
``Scheme``. Database 2's last slot is a cursor's most significant digit, so
the key is also the digits of the class's least cursor, read from the top.
A run resumed at ``start`` skips every class whose key is below the digits
of ``start``: the stopped run already met it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .decode import pair_decode
from .field import FieldSpec
from .linalg import FieldMatrix
from .scheme import LinearAnswer, Scheme, permute_answers, permute_randomness
from .schemeio import serialize_scheme
from .verify import leaked_symbols, pair_leak


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
        bounds = (
            ("K", self.K, 2), ("L", self.L, 1), ("R", self.R, 0),
            ("max_len", self.max_len, 1), ("M1", self.M1, 0), ("M2", self.M2, 0),
        )
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


class SearchPlan:
    """The pool of one space, its randomness relabelings and its lazy pair table."""

    def __init__(self, space: SearchSpace) -> None:
        self.space = space
        self.field = FieldSpec(space.m)
        self.pool = candidate_answers(space)
        self.total = len(self.pool) ** (space.M1 + space.M2)
        # K, L, R and the field, for the per-pair derivations
        self._shape = self.scheme((), ())
        self._cells: dict[tuple[int, int], int | None] = {}
        self.relabelings = self._randomness_relabelings()
        # the sorted thetas of a uniform row (M2 pairs) and column (M1 pairs)
        self._row_law = sorted(list(range(1, space.K + 1)) * (space.M2 // space.K))
        self._col_law = sorted(list(range(1, space.K + 1)) * (space.M1 // space.K))

    def _randomness_relabelings(self) -> list[tuple[int, ...]]:
        """Every non-identity randomness permutation as a pool-index map."""
        index = {m: i for i, m in enumerate(self.pool)}
        whole_pool = self.scheme(tuple(range(len(self.pool))), ())
        return [
            tuple(index[a.map] for a in permute_randomness(whole_pool, perm).answers_db1)
            for perm in list(itertools.permutations(range(self.space.R)))[1:]
        ]

    def indices(self, cursor: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Pool indices of database 1's and database 2's answers; slot 1 varies fastest."""
        n = len(self.pool)
        digits = []
        for _ in range(self.space.M1 + self.space.M2):
            cursor, d = divmod(cursor, n)
            digits.append(d)
        return tuple(digits[: self.space.M1]), tuple(digits[self.space.M1 :])

    def class_key(self, t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Least sorted index tuples, database 2's first, over the randomness relabelings."""
        key = (tuple(sorted(t2)), tuple(sorted(t1)))
        for p in self.relabelings:
            alt = (tuple(sorted([p[i] for i in t2])), tuple(sorted([p[i] for i in t1])))
            if alt < key:
                key = alt
        return key

    def theta(self, i: int, j: int) -> int | None:
        """The pair's decoded message, or None when it decodes nothing or leaks."""
        cell = (i, j)
        if cell not in self._cells:
            a, b = self.pool[i], self.pool[j]
            theta = pair_decode(self._shape, a, b).theta
            if theta is not None and pair_leak(self._shape, a, b, theta):
                theta = None
            self._cells[cell] = theta
        return self._cells[cell]

    def is_valid(self, t1: tuple[int, ...], t2: tuple[int, ...]) -> bool:
        """Every pair is a theta and each message is balanced per row and per column."""
        grid = []
        for i in t1:
            row = [self.theta(i, j) for j in t2]
            if None in row or sorted(row) != self._row_law:
                return False
            grid.append(row)
        return all(sorted(col) == self._col_law for col in zip(*grid))

    def scheme(self, t1: tuple[int, ...], t2: tuple[int, ...]) -> Scheme:
        space = self.space
        db1 = tuple(LinearAnswer(i + 1, self.pool[p]) for i, p in enumerate(t1))
        db2 = tuple(LinearAnswer(i + 1, self.pool[p]) for i, p in enumerate(t2))
        return Scheme(space.K, space.L, space.R, self.field, db1, db2)


def search_schemes(space: SearchSpace, budget: int = 1_000_000, start: int = 0) -> SearchResult:
    """Enumerate the space in a fixed order and return every valid scheme.

    ``budget`` caps the number of candidate schemes examined; exceeding it
    raises ``BudgetExceededError`` with a cursor that can be passed back
    as ``start`` to resume, which reports only classes first met from that
    cursor on. A space pruned by its answer-set sizes has no
    candidates, so its only cursor is 0. An empty result means the space
    is exhausted and provably contains no valid scheme.
    """
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    if space.M1 % space.K or space.M2 % space.K or space.M1 == 0 or space.M2 == 0:
        plan = None
        total = 0
    else:
        plan = SearchPlan(space)
        total = plan.total
    if not 0 <= start <= total:
        raise ValueError(f"search start must be in 0..{total}, got {start}")
    if plan is None:
        return SearchResult((), 0, space)

    found: list[Scheme] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    s1, s2 = plan.indices(start)
    start_digits = (s2[::-1], s1[::-1])
    examined = 0
    for cursor in range(start, total):
        if examined >= budget:
            raise BudgetExceededError(cursor, examined, tuple(found))
        examined += 1
        t1, t2 = plan.indices(cursor)
        key = plan.class_key(t1, t2)
        if key in seen:
            continue
        seen.add(key)
        if key >= start_digits and plan.is_valid(t1, t2):
            found.append(plan.scheme(t1, t2))
    return SearchResult(tuple(found), examined, space)
