import itertools
from collections import Counter

import pytest
from conftest import oracle_check_records, oracle_decodable, oracle_search_schemes

from rspir import (
    BudgetExceededError,
    FieldSpec,
    Scheme,
    build_pairwise_scheme,
    serialize_scheme,
    validate_shape,
    verify_scheme,
)
from rspir.linalg import FieldMatrix
from rspir.scheme import LinearAnswer
from rspir.search import SearchPlan, SearchSpace, candidate_answers, canonical_key, search_schemes

NO_RANDOMNESS = SearchSpace(K=2, L=1, R=0, m=1, max_len=2, M1=2, M2=2)
ONE_PAD = SearchSpace(K=2, L=1, R=1, m=1, max_len=1, M1=2, M2=2)
# R=1 has only the identity randomness relabeling; R=2 also has the swap
TWO_PADS = SearchSpace(K=2, L=1, R=2, m=1, max_len=1, M1=2, M2=2)
ONE_PAD_GF4 = SearchSpace(K=2, L=1, R=1, m=2, max_len=1, M1=2, M2=2)


def test_no_randomness_space_is_exhausted_empty():
    # without shared randomness the constraints are jointly unsatisfiable,
    # and the exhaustive search demonstrates it at this scale
    result = search_schemes(NO_RANDOMNESS, budget=1_000_000)
    assert result.exhausted_with_none
    assert result.examined > 0


def test_no_randomness_pool_prune():
    # the only per-answer maps that leak nothing about single messages are
    # built from the zero row and the both-messages row
    pool = candidate_answers(NO_RANDOMNESS)
    allowed = {(0, 0), (1, 1)}
    assert pool
    for m in pool:
        assert {tuple(r) for r in m.to_rows()} <= allowed


def test_one_pad_space_rediscovers_pairwise_template():
    result = search_schemes(ONE_PAD, budget=10_000)
    keys = {canonical_key(s) for s in result.schemes}
    assert canonical_key(build_pairwise_scheme(2)) in keys
    for s in result.schemes:
        assert validate_shape(s) == []
        assert verify_scheme(s).all_passed


def test_cardinality_pruned_spaces_exhaust_immediately():
    for m1, m2 in ((3, 2), (2, 3), (0, 2)):
        result = search_schemes(SearchSpace(K=2, L=1, R=0, m=1, max_len=1, M1=m1, M2=m2), budget=10)
        assert result.examined == 0
        assert result.exhausted_with_none


def test_budget_exceeded_carries_cursor_and_partial():
    with pytest.raises(BudgetExceededError) as exc:
        search_schemes(ONE_PAD, budget=300)
    err = exc.value
    assert err.examined == 300
    assert err.cursor == 300

    resumed = search_schemes(ONE_PAD, budget=10_000, start=err.cursor)
    full = search_schemes(ONE_PAD, budget=10_000)
    combined = {canonical_key(s) for s in err.partial} | {canonical_key(s) for s in resumed.schemes}
    assert combined == {canonical_key(s) for s in full.schemes}
    assert err.examined + resumed.examined == full.examined


def test_search_deterministic():
    a = search_schemes(ONE_PAD, budget=10_000)
    b = search_schemes(ONE_PAD, budget=10_000)
    assert [serialize_scheme(s) for s in a.schemes] == [serialize_scheme(s) for s in b.schemes]
    assert a.examined == b.examined


def test_canonical_key_invariant_under_relabeling():
    from rspir import permute_answers, permute_randomness

    s = build_pairwise_scheme(3)
    k = canonical_key(s)
    assert canonical_key(permute_answers(s, (2, 0, 1), (1, 0, 2))) == k
    assert canonical_key(permute_randomness(s, (1, 0))) == k
    assert canonical_key(build_pairwise_scheme(2)) != canonical_key(build_pairwise_scheme(3))


def test_search_matches_pure_enumeration_oracle_on_slice():
    # independent oracle: fix database 1's first answer to the bare pad and
    # enumerate the other three slots over all 8 rows with no pruning at all
    field = FieldSpec(1)
    fixed = FieldMatrix.from_rows([(0, 0, 1)])
    rows = list(itertools.product((0, 1), repeat=3))
    passing_keys = set()
    for r1, r2, r3 in itertools.product(rows, repeat=3):
        scheme = Scheme(
            2, 1, 1, field,
            (LinearAnswer(1, fixed), LinearAnswer(2, FieldMatrix.from_rows([r1]))),
            (LinearAnswer(1, FieldMatrix.from_rows([r2])), LinearAnswer(2, FieldMatrix.from_rows([r3]))),
        )
        if verify_scheme(scheme).all_passed:
            passing_keys.add(canonical_key(scheme))

    search_keys = {canonical_key(s) for s in search_schemes(ONE_PAD, budget=10_000).schemes}
    assert passing_keys  # the slice does contain valid schemes
    assert passing_keys <= search_keys


def _outcome(search, space, budget, start=0):
    """Everything a search returns or raises, with schemes as their text."""
    try:
        r = search(space, budget=budget, start=start)
    except BudgetExceededError as e:
        return ("budget", e.cursor, e.examined, [serialize_scheme(s) for s in e.partial])
    return ("done", r.examined, [serialize_scheme(s) for s in r.schemes])


@pytest.mark.parametrize(
    "space, budget",
    [
        (ONE_PAD, 1_000_000),
        (NO_RANDOMNESS, 1_000_000),
        (ONE_PAD, 1),
        (ONE_PAD, 300),
        (ONE_PAD, 777),
        (TWO_PADS, 2_000),
        (ONE_PAD_GF4, 5_000),
    ],
    ids=["one-pad", "no-randomness", "one-pad-b1", "one-pad-b300", "one-pad-b777", "two-pads-b2000", "gf4-b5000"],
)
def test_search_matches_per_candidate_oracle(space, budget):
    # the pair table and index-tuple classes against a Scheme per candidate,
    # canonical_key dedup and the full verifier: same schemes in the same
    # order, same examined count, same cursor and partial finds
    got = _outcome(search_schemes, space, budget)
    assert got == _outcome(oracle_search_schemes, space, budget)
    if got[0] == "budget" and space == ONE_PAD:
        cursor = got[1]
        resumed = _outcome(search_schemes, space, 1_000_000, start=cursor)
        assert resumed == _outcome(oracle_search_schemes, space, 1_000_000, start=cursor)
        assert resumed[0] == "done" and got[2] + resumed[1] == 1296


def _found_cursors(space):
    """The cursor at which the full search met each class it reports."""
    plan = SearchPlan(space)
    index = {m: i for i, m in enumerate(plan.pool)}
    cursors = []
    for s in search_schemes(space).schemes:
        digits = [index[a.map] for a in (*s.answers_db1, *s.answers_db2)]
        cursors.append(sum(d * len(plan.pool) ** i for i, d in enumerate(digits)))
    return cursors


@pytest.mark.parametrize("budget", [1, 300, 500, 777, *_found_cursors(ONE_PAD)])
def test_resumed_search_reports_only_new_classes(budget):
    # stopping anywhere, including right at a valid class's first cursor, and
    # resuming there finds exactly the full run's classes in the full run's
    # order, none of them twice
    full = search_schemes(ONE_PAD, budget=10_000)
    with pytest.raises(BudgetExceededError) as exc:
        search_schemes(ONE_PAD, budget=budget)
    resumed = search_schemes(ONE_PAD, budget=10_000, start=exc.value.cursor)
    combined = [*exc.value.partial, *resumed.schemes]
    assert [serialize_scheme(s) for s in combined] == [serialize_scheme(s) for s in full.schemes]


def _partitions_agree(plan: SearchPlan, cursors) -> int:
    """Assert the index-tuple key and canonical_key split ``cursors`` alike; return the class count."""
    pairs = set()
    for cursor in cursors:
        t1, t2 = plan.indices(cursor)
        pairs.add((plan.class_key(t1, t2), canonical_key(plan.scheme(t1, t2))))
    assert len({k for k, _ in pairs}) == len({t for _, t in pairs}) == len(pairs)
    return len(pairs)


def test_index_class_key_partitions_like_canonical_key():
    plan = SearchPlan(ONE_PAD)
    assert plan.relabelings == []
    assert _partitions_agree(plan, range(plan.total)) == 441

    # every candidate whose answers come from a relabeling-closed part of
    # the R=2 pool, so each class met is met whole
    plan = SearchPlan(TWO_PADS)
    assert len(plan.relabelings) == 1
    part = set(range(7))
    for p in plan.relabelings:
        part |= {p[i] for i in part}
    part = sorted(part)
    assert len(part) ** 4 <= 3_000
    n = len(plan.pool)
    cursors = [
        sum(d * n**slot for slot, d in enumerate(digits))
        for digits in itertools.product(part, repeat=4)
    ]
    classes = _partitions_agree(plan, cursors)
    assert classes < len(cursors)


@pytest.mark.parametrize(
    "space, kwargs, message",
    [
        (ONE_PAD, {"start": -3}, "start must be in 0..1296, got -3"),
        (ONE_PAD, {"start": 1297}, "start must be in 0..1296, got 1297"),
        (ONE_PAD, {"budget": -1}, "budget must be >= 0, got -1"),
        (SearchSpace(K=2, L=1, R=0, m=1, max_len=1, M1=3, M2=2), {"start": 1}, "start must be in 0..0, got 1"),
    ],
)
def test_search_rejects_out_of_range_start_and_budget(space, kwargs, message):
    with pytest.raises(ValueError, match=message):
        search_schemes(space, **kwargs)


def test_search_start_at_end_examines_nothing():
    result = search_schemes(ONE_PAD, start=1296)
    assert result.examined == 0 and result.schemes == ()
    with pytest.raises(BudgetExceededError) as exc:
        search_schemes(ONE_PAD, budget=0, start=1295)
    assert exc.value.cursor == 1295 and exc.value.examined == 0


def test_pair_table_fills_lazily():
    # judging one candidate derives at most its own M1 x M2 cells
    plan = SearchPlan(ONE_PAD_GF4)
    t1, t2 = plan.indices(12_345)
    plan.is_valid(t1, t2)
    assert 1 <= len(plan._cells) <= len(t1) * len(t2)


def test_pair_table_matches_enumeration_oracle():
    # with two-row answers some pairs decode one message and leak the other,
    # so every rule of a cell decides some verdict here
    plan = SearchPlan(SearchSpace(K=2, L=1, R=1, m=1, max_len=2, M1=2, M2=2))
    verdicts = Counter()
    for i, a in enumerate(plan.pool):
        for j, b in enumerate(plan.pool):
            pair = Scheme(2, 1, 1, plan.field, (LinearAnswer(1, a),), (LinearAnswer(1, b),))
            rel, dbp = oracle_check_records(pair)
            want = min(oracle_decodable(pair, 1, 1)) if rel.passed and dbp.passed else None
            assert plan.theta(i, j) == want, (i, j)
            verdicts[rel.passed, dbp.passed] += 1
    assert verdicts[True, False] and verdicts[True, True] and verdicts[False, False]

