import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspir.field import GF2, FieldSpec
from rspir.linalg import (
    FieldMatrix,
    in_row_space,
    mat_batch,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    row_reduce,
    solve_linear,
    vstack,
)
from rspir.scheme import build_k4_scheme, build_pairwise_scheme


def matrices(max_dim=4, m=1):
    q = 2**m
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.integers(0, q - 1), min_size=r * c, max_size=r * c
            ).map(lambda e: FieldMatrix(r, c, tuple(e)))
        )
    )


def test_solve_identity():
    a = FieldMatrix.identity(2)
    sol = solve_linear(GF2, a, (1, 0))
    assert sol.kind == "unique"
    assert sol.solution == (1, 0)


def test_solve_underdetermined():
    a = FieldMatrix.from_rows([[1, 1]])
    sol = solve_linear(GF2, a, (0,))
    assert sol.kind == "underdetermined"
    assert mat_vec(GF2, a, sol.solution) == (0,)


def test_solve_inconsistent():
    a = FieldMatrix.from_rows([[1, 1], [1, 1]])
    sol = solve_linear(GF2, a, (0, 1))
    assert sol.kind == "inconsistent"
    assert sol.solution is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(GF2, FieldMatrix.identity(2), (1,))


def test_pairwise_k3_pair_a2_b1_recovers_w2():
    # Stack answers A_2 and B_1 of the pairwise K=3 scheme and enumerate all
    # 2^5 inputs: every observation must pin down a single W_2 value, and that
    # value must solve the linear system.
    s = build_pairwise_scheme(3)
    stacked = vstack(s.answer(1, 2).map, s.answer(2, 1).map)
    by_obs = {}
    for x in itertools.product((0, 1), repeat=5):
        obs = mat_vec(GF2, stacked, x)
        by_obs.setdefault(obs, set()).add(x[1])  # x[1] is W_2
    assert all(len(v) == 1 for v in by_obs.values())
    # W_2 is in the row space, W_1 and W_3 are not: the pair decodes only W_2
    red = row_reduce(GF2, stacked)
    units = [tuple(1 if j == c else 0 for j in range(5)) for c in range(3)]
    assert [in_row_space(GF2, red, u) for u in units] == [False, True, False]


def test_rank_examples():
    assert rank(GF2, FieldMatrix.zero(2, 2)) == 0
    assert rank(GF2, FieldMatrix.identity(3)) == 3
    assert rank(GF2, build_k4_scheme().answer(1, 2).map) == 3


def test_rank_row_operations_invariance():
    a = FieldMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    r = rank(GF2, a)
    swapped = FieldMatrix.from_rows([list(a.row(1)), list(a.row(0)), list(a.row(2))])
    assert rank(GF2, swapped) == r
    added = FieldMatrix.from_rows(
        [list(a.row(0)), [x ^ y for x, y in zip(a.row(1), a.row(0))], list(a.row(2))]
    )
    assert rank(GF2, added) == r


@given(matrices(), st.data())
@settings(max_examples=150)
def test_solve_consistent_systems(a, data):
    v = tuple(data.draw(st.integers(0, 1)) for _ in range(a.cols))
    b = mat_vec(GF2, a, v)
    sol = solve_linear(GF2, a, b)
    assert sol.solution is not None
    assert mat_vec(GF2, a, sol.solution) == b


@given(matrices(m=2), st.data())
@settings(max_examples=100)
def test_solve_consistent_systems_gf4(a, data):
    field = FieldSpec(2)
    v = tuple(data.draw(st.integers(0, 3)) for _ in range(a.cols))
    b = mat_vec(field, a, v)
    sol = solve_linear(field, a, b)
    assert sol.solution is not None
    assert mat_vec(field, a, sol.solution) == b


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_rank_invariance_random_row_ops(a, rng):
    r = rank(GF2, a)
    rows = a.to_rows()
    for _ in range(5):
        i, j = rng.randrange(a.rows), rng.randrange(a.rows)
        if i == j:
            rows[i], rows[(i + 1) % a.rows] = rows[(i + 1) % a.rows], rows[i]
        else:
            rows[i] = [x ^ y for x, y in zip(rows[i], rows[j])]
    assert rank(GF2, FieldMatrix.from_rows(rows)) == r


@given(matrices(max_dim=5))
@settings(max_examples=150)
def test_nullspace_annihilates(a):
    basis = nullspace(GF2, a)
    assert len(basis) == a.cols - rank(GF2, a)
    for v in basis:
        assert mat_vec(GF2, a, v) == (0,) * a.rows


def test_mat_mul_matches_mat_vec():
    a = FieldMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    b = FieldMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    prod = mat_mul(GF2, a, b)
    for col in range(2):
        x = tuple(b.entry(r, col) for r in range(3))
        assert mat_vec(GF2, a, x) == tuple(prod.entry(r, col) for r in range(2))


def test_row_reduce_gf4_normalizes_pivots():
    field = FieldSpec(2)
    a = FieldMatrix.from_rows([[2, 1], [3, 2]])
    red = row_reduce(field, a)
    for i, c in enumerate(red.pivots):
        assert red.matrix.entry(i, c) == 1


@given(matrices(m=4), st.integers(1, 5), st.data())
@settings(max_examples=100)
def test_mat_batch_matches_longhand_products(a, width, data):
    field = FieldSpec(4)
    symbols = st.lists(st.integers(0, 15), min_size=width, max_size=width)
    batch = [bytes(data.draw(symbols)) for _ in range(a.cols)]
    expected = []
    for i in range(a.rows):
        row = []
        for p in range(width):
            acc = 0
            for j in range(a.cols):
                acc = field.add(acc, field.mul(a.entry(i, j), batch[j][p]))
            row.append(acc)
        expected.append(bytes(row))
    assert mat_batch(field, a, batch, width) == expected


@pytest.mark.parametrize("m", [1, 2, 4])
def test_products_reject_out_of_field_entries(m):
    field = FieldSpec(m)
    q = field.q
    good = FieldMatrix.identity(2)
    bad = FieldMatrix.from_rows([[1, q], [0, 1]])
    negative = FieldMatrix.from_rows([[1, 0], [-1, 1]])
    for x in [(0, q), (-1, 0), (0, 256)]:
        with pytest.raises(ValueError):
            mat_vec(field, good, x)
    for a, b in [(bad, good), (good, bad), (negative, good), (good, negative)]:
        with pytest.raises(ValueError):
            mat_mul(field, a, b)
    with pytest.raises(ValueError):
        mat_vec(field, bad, (0, 1))
    with pytest.raises(ValueError):
        mat_batch(field, bad, [b"\0", b"\0"], 1)
    with pytest.raises(ValueError):
        mat_batch(field, good, [bytes([0, q - 1]), bytes([q, 0])], 2)
    with pytest.raises(ValueError):
        mat_batch(field, good, [b"\0", b"\0\0"], 1)  # ragged batch
