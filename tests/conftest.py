"""Shared test helpers: scheme mutation and independent enumeration oracles."""
from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from rspir import (
    BudgetExceededError,
    CheckRecord,
    FieldSpec,
    JointDistribution,
    Scheme,
    SearchResult,
    SearchSpace,
    mutual_information,
    verify_scheme,
)
from rspir.linalg import FieldMatrix
from rspir.scheme import LinearAnswer
from rspir.search import candidate_answers, canonical_key


def replace_answer(s: Scheme, db: int, index: int, rows: list[tuple[int, ...]]) -> Scheme:
    """Scheme with one answer's map swapped out."""
    answers = list(s.answers_db1 if db == 1 else s.answers_db2)
    answers[index - 1] = LinearAnswer(index, FieldMatrix.from_rows(rows))
    if db == 1:
        return Scheme(s.K, s.L, s.R, s.field, tuple(answers), s.answers_db2)
    return Scheme(s.K, s.L, s.R, s.field, s.answers_db1, tuple(answers))


def mutate_coefficient(s: Scheme, db: int, index: int, pos: int, value: int) -> Scheme:
    ans = s.answer(db, index)
    entries = list(ans.map.entries)
    entries[pos] = value
    rows = [tuple(entries[i * ans.map.cols : (i + 1) * ans.map.cols]) for i in range(ans.map.rows)]
    return replace_answer(s, db, index, rows)


def random_mutation(s: Scheme, rng: random.Random) -> Scheme:
    """One uniformly chosen single-coefficient change."""
    db = rng.choice((1, 2))
    answers = s.answers_db1 if db == 1 else s.answers_db2
    ai = rng.randrange(len(answers))
    ans = answers[ai]
    pos = rng.randrange(len(ans.map.entries))
    old = ans.map.entries[pos]
    new = rng.choice([v for v in range(s.field.q) if v != old])
    return mutate_coefficient(s, db, ai + 1, pos, new)


def all_single_mutations(s: Scheme):
    """Every single-coefficient change, with its location."""
    for db in (1, 2):
        answers = s.answers_db1 if db == 1 else s.answers_db2
        for ans in answers:
            for pos in range(len(ans.map.entries)):
                for value in range(s.field.q):
                    if value != ans.map.entries[pos]:
                        yield (db, ans.index, pos, value), mutate_coefficient(s, db, ans.index, pos, value)


def oracle_observation(s: Scheme, a: int, b: int, x: tuple[int, ...]) -> tuple[int, ...]:
    """Transmitted symbols computed longhand, independent of the linalg module."""
    field = s.field
    out = []
    for ans in (s.answer(1, a), s.answer(2, b)):
        for i in range(ans.map.rows):
            acc = 0
            for j in range(ans.map.cols):
                acc = field.add(acc, field.mul(ans.map.entry(i, j), x[j]))
            out.append(acc)
    return tuple(out)


def _oracle_buckets(s: Scheme, a: int, b: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every realization of (W, S), grouped by the observation it gives pair (a, b)."""
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for x in itertools.product(range(s.field.q), repeat=s.n_cols):
        buckets.setdefault(oracle_observation(s, a, b, x), []).append(x)
    return buckets


def _constant_messages(s: Scheme, buckets) -> dict[int, dict[tuple[int, ...], tuple[int, ...]]]:
    result: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for k in range(1, s.K + 1):
        lo = (k - 1) * s.L
        mapping = {}
        constant = True
        for obs, xs in buckets.items():
            values = {x[lo : lo + s.L] for x in xs}
            if len(values) != 1:
                constant = False
                break
            mapping[obs] = next(iter(values))
        if constant:
            result[k] = mapping
    return result


def oracle_decodable(s: Scheme, a: int, b: int) -> dict[int, dict[tuple[int, ...], tuple[int, ...]]]:
    """Brute-force decodability: which messages are constant given the observation.

    Returns {k: {obs: value}} for exactly the fully determined messages.
    Buckets every realization of (W, S) by its observation and keeps message
    k only if its L symbols never vary within any bucket.
    """
    return _constant_messages(s, _oracle_buckets(s, a, b))


def _oracle_leak(s: Scheme, buckets, theta: int) -> Fraction:
    """Exact I(W_others; observation) in q-ary units, W_others = every message but theta."""
    q = s.field.q
    joint: Counter = Counter()
    for obs, xs in buckets.items():
        for x in xs:
            others = tuple(
                v for k in range(1, s.K + 1) if k != theta for v in x[(k - 1) * s.L : k * s.L]
            )
            joint[(others, obs)] += 1
    return mutual_information(JointDistribution.from_counts(joint, q**s.n_cols, q))


def oracle_check_records(s: Scheme) -> tuple[CheckRecord, CheckRecord]:
    """Reliability and database-privacy records as realization enumeration decides them.

    Pairs are visited in (a, b) order. A pair decodes the lowest message that
    is constant within every observation bucket; the first pair that decodes
    none fails both checks, and the first pair whose observation carries
    information about the other messages fails database privacy with that
    leak as ``measured``.
    """
    rel = dbp = None
    for a in range(1, s.M1 + 1):
        for b in range(1, s.M2 + 1):
            buckets = _oracle_buckets(s, a, b)
            decodable = _constant_messages(s, buckets)
            if not decodable:
                witness = f"pair ({a},{b}) decodes no message"
                rel = rel or CheckRecord("reliability", False, witness=witness)
                dbp = dbp or CheckRecord("database-privacy", False, witness=witness)
            elif dbp is None:
                leak = _oracle_leak(s, buckets, min(decodable))
                if leak:
                    dbp = CheckRecord(
                        "database-privacy", False,
                        witness=f"pair ({a},{b}) leaks about non-decoded messages",
                        measured=str(leak),
                    )
            if rel is not None and dbp is not None:
                return rel, dbp
    return (
        rel or CheckRecord("reliability", True, measured="0"),
        dbp or CheckRecord("database-privacy", True, measured="0"),
    )


def oracle_draws(rng: random.Random, q: int, n: int) -> bytes:
    """``n`` symbols drawn one ``randrange`` call at a time."""
    return bytes(rng.randrange(q) for _ in range(n))


def oracle_random_messages(s: Scheme, seed: int | str, blocks: int) -> list[list[int]]:
    """Message content drawn longhand from the simulator's ``messages`` stream."""
    rng, q = random.Random(f"{seed}/messages"), s.field.q
    return [[rng.randrange(q) for _ in range(s.L * blocks)] for _ in range(s.K)]


def oracle_shared_randomness(s: Scheme, seed: int | str, blocks: int) -> list[tuple[int, ...]]:
    """Per-block randomness drawn longhand from the ``common-randomness`` stream."""
    rng, q = random.Random(f"{seed}/common-randomness"), s.field.q
    return [tuple(rng.randrange(q) for _ in range(s.R)) for _ in range(blocks)]


def oracle_model_joint(s: Scheme) -> JointDistribution:
    """The uniform (W, S) joint of the model, listed outcome by outcome."""
    q = s.field.q
    split = s.K * s.L
    p = Fraction(1, q**s.n_cols)
    outcomes = tuple(
        ((x[:split], x[split:]), p) for x in itertools.product(range(q), repeat=s.n_cols)
    )
    return JointDistribution(outcomes, q)


def oracle_search_schemes(space: SearchSpace, budget: int = 1_000_000, start: int = 0) -> SearchResult:
    """The search as one scheme per candidate: text-key dedup, then the full verifier.

    Same cursor order, budget and resume contract as ``search_schemes``; each
    candidate is built as a ``Scheme``, deduplicated by ``canonical_key`` and,
    when its class is new, kept if ``verify_scheme`` passes every check. A
    resumed run first keys every cursor before ``start`` without verifying,
    so classes the stopped run already met count as seen.
    """
    if space.M1 % space.K or space.M2 % space.K or space.M1 == 0 or space.M2 == 0:
        return SearchResult((), 0, space)
    field = FieldSpec(space.m)
    pool = candidate_answers(space)
    slots = space.M1 + space.M2

    def candidate(cursor: int) -> Scheme:
        choice = []
        for _ in range(slots):
            choice.append(pool[cursor % len(pool)])
            cursor //= len(pool)
        db1 = tuple(LinearAnswer(i + 1, m) for i, m in enumerate(choice[: space.M1]))
        db2 = tuple(LinearAnswer(i + 1, m) for i, m in enumerate(choice[space.M1 :]))
        return Scheme(space.K, space.L, space.R, field, db1, db2)

    found: list[Scheme] = []
    seen = {canonical_key(candidate(cursor)) for cursor in range(start)}
    examined = 0
    for cursor in range(start, len(pool) ** slots):
        if examined >= budget:
            raise BudgetExceededError(cursor, examined, tuple(found))
        examined += 1
        scheme = candidate(cursor)
        key = canonical_key(scheme)
        if key in seen:
            continue
        seen.add(key)
        if verify_scheme(scheme).all_passed:
            found.append(scheme)
    return SearchResult(tuple(found), examined, space)
