import itertools
from fractions import Fraction

import pytest

from conftest import (
    all_single_mutations,
    oracle_check_records,
    oracle_model_joint,
    replace_answer,
)
from rspir import (
    FieldSpec,
    JointDistribution,
    Scheme,
    audit_randomness,
    audit_rate,
    build_k4_scheme,
    build_pairwise_scheme,
    build_rotation_scheme,
    build_scheme,
    check_database_privacy,
    check_determinism_and_independence,
    check_reliability,
    check_user_privacy,
    derive_decode_table,
    permute_answers,
    row_from_expr,
    verify_scheme,
    with_field,
)
from rspir.linalg import FieldMatrix
from rspir.scheme import LinearAnswer
from rspir.verify import CHECK_ORDER


def zero_column(s: Scheme, col: int) -> Scheme:
    def z(ans):
        rows = [list(ans.map.row(i)) for i in range(ans.map.rows)]
        for r in rows:
            r[col] = 0
        return LinearAnswer(ans.index, FieldMatrix.from_rows(rows))

    return Scheme(
        s.K, s.L, s.R, s.field,
        tuple(z(a) for a in s.answers_db1),
        tuple(z(b) for b in s.answers_db2),
    )


def second_pad_k2() -> Scheme:
    def answers(exprs):
        return tuple(
            LinearAnswer(i + 1, FieldMatrix.from_rows([row_from_expr(e, 2, 1, 2)]))
            for i, e in enumerate(exprs)
        )

    return Scheme(2, 1, 2, FieldSpec(1), answers(["S1", "W1+W2+S1"]), answers(["W1+S1", "W2+S2"]))


@pytest.mark.parametrize(
    "scheme",
    [
        build_rotation_scheme(3),
        build_rotation_scheme(3, "rotation-messages"),
        build_pairwise_scheme(2),
        build_pairwise_scheme(3),
        build_k4_scheme(),
    ],
)
def test_shipped_schemes_pass_all_checks(scheme):
    report = verify_scheme(scheme)
    assert report.all_passed
    assert [c.name for c in report.checks] == list(CHECK_ORDER)


def test_reliability_fails_on_second_pad_k2():
    s = second_pad_k2()
    t = derive_decode_table(s)
    rec = check_reliability(s, t)
    assert not rec.passed
    assert "(1,2)" in rec.witness


def test_database_privacy_fails_without_second_pad():
    s = build_pairwise_scheme(3)
    broken = zero_column(s, s.randomness_col(2))
    t = derive_decode_table(broken)
    rec = check_database_privacy(broken, t)
    assert not rec.passed
    assert "leaks" in rec.witness
    assert rec.measured == "1"  # exactly one symbol of a second message


def test_database_privacy_passes_rotation():
    s = build_rotation_scheme(3)
    rec = check_database_privacy(s, derive_decode_table(s))
    assert rec.passed
    assert rec.measured == "0"


def test_user_privacy_fails_on_duplicated_db2_answer():
    # B_2 := B_1 makes the decoded index constant along row a=1
    s = build_rotation_scheme(2)
    broken = replace_answer(s, 2, 2, [list(s.answer(2, 1).map.row(0))])
    rec1, rec2 = check_user_privacy(broken, derive_decode_table(broken))
    assert not rec1.passed
    assert "a=1" in rec1.witness and "1:2" in rec1.witness


def test_user_privacy_fails_on_duplicated_db1_answer():
    s = build_rotation_scheme(2)
    broken = replace_answer(
        s, 1, 2, [list(s.answer(1, 1).map.row(0)), list(s.answer(1, 1).map.row(1))]
    )
    rec1, rec2 = check_user_privacy(broken, derive_decode_table(broken))
    assert rec1.passed  # each row still covers both messages
    assert not rec2.passed
    assert "b=1" in rec2.witness


def test_user_privacy_passes_k4_latin():
    rec1, rec2 = check_user_privacy(build_k4_scheme(), derive_decode_table(build_k4_scheme()))
    assert rec1.passed and rec2.passed


def test_independence_model_entropy():
    s = build_pairwise_scheme(2)
    det, ind = check_determinism_and_independence(s)
    assert det.passed and ind.passed
    assert ind.measured == "3"  # K*L + R = 3 field symbols


def test_independence_fails_on_correlated_joint():
    # simulate a miswired generator where the pad always copies W_1
    s = build_pairwise_scheme(2)
    outcomes = []
    for w in itertools.product((0, 1), repeat=2):
        outcomes.append(((w, (w[0],)), Fraction(1, 4)))
    joint = JointDistribution(tuple(outcomes), 2)
    det, ind = check_determinism_and_independence(s, joint)
    assert det.passed
    assert not ind.passed
    assert "factorize" in ind.witness


def test_determinism_fails_on_bad_shape():
    s = build_pairwise_scheme(3)
    broken = Scheme(s.K, s.L, s.R, s.field, s.answers_db1[:2], s.answers_db2)
    det, _ = check_determinism_and_independence(broken)
    assert not det.passed
    assert "multiple of K" in det.witness


def test_relabeling_invariance():
    s = build_pairwise_scheme(3)
    base = verify_scheme(s)
    for p1 in itertools.permutations(range(3)):
        relabeled = permute_answers(s, p1, (2, 1, 0))
        report = verify_scheme(relabeled)
        assert [c.passed for c in report.checks] == [c.passed for c in base.checks]


def test_relabeling_invariance_broken_scheme():
    s = zero_column(build_pairwise_scheme(3), 4)
    base = [c.passed for c in verify_scheme(s).checks]
    relabeled = permute_answers(s, (1, 2, 0), (0, 2, 1))
    assert [c.passed for c in verify_scheme(relabeled).checks] == base


@pytest.mark.parametrize(
    "scheme",
    [build_rotation_scheme(2), build_rotation_scheme(3), build_pairwise_scheme(2), build_pairwise_scheme(3)],
)
def test_field_lift_to_gf4_still_passes(scheme):
    assert verify_scheme(with_field(scheme, 2)).all_passed


SHIPPED_UP_TO_K4 = [
    (variant, k)
    for variant in ("rotation-randomness", "rotation-messages", "pairwise-sum")
    for k in (2, 3, 4)
] + [("k4-special", None)]


def rank_checks(s: Scheme) -> tuple:
    report = verify_scheme(s)
    return report.check("reliability"), report.check("database-privacy")


@pytest.mark.parametrize("variant,k", SHIPPED_UP_TO_K4, ids=str)
def test_rank_checks_match_enumeration_oracle(variant, k):
    scheme = build_scheme(variant, k)
    assert rank_checks(scheme) == oracle_check_records(scheme)
    closed_form = check_determinism_and_independence(scheme)
    assert closed_form == check_determinism_and_independence(scheme, oracle_model_joint(scheme))
    assert closed_form[1].measured == str(scheme.K * scheme.L + scheme.R)


@pytest.mark.parametrize(
    "base",
    [build_pairwise_scheme(3), build_rotation_scheme(2), with_field(build_rotation_scheme(2), 2)],
    ids=["pairwise-k3", "rotation-k2", "rotation-k2-gf4"],
)
def test_rank_checks_match_enumeration_oracle_on_mutations(base):
    undecodable = leaking = 0
    for _where, mutated in all_single_mutations(base):
        expected = oracle_check_records(mutated)
        assert rank_checks(mutated) == expected
        undecodable += not expected[0].passed
        leaking += expected[1].measured not in (None, "0")
    # both witness kinds occur, so the comparison covers each failure path
    assert undecodable and leaking


def test_report_lines_format():
    lines = verify_scheme(build_pairwise_scheme(2)).to_lines()
    assert lines[0] == "CHECK determinism PASS"
    assert "CHECK reliability PASS" in lines
    assert "MEASURE download-cost-symbols 2" in lines
    assert "MEASURE rate 1/2" in lines
    assert "MEASURE randomness-symbols 1" in lines
    assert "MEASURE capacity 1/2" in lines
    assert "MEASURE capacity-gap 0" in lines


def test_report_deterministic_across_runs():
    a = verify_scheme(build_k4_scheme()).to_text()
    b = verify_scheme(build_k4_scheme()).to_text()
    assert a == b


def test_report_summary():
    good = verify_scheme(build_pairwise_scheme(2)).summary()
    assert good.startswith("6/6 checks passed")
    assert "rate 1/2 (capacity 1/2, gap 0)" in good
    bad = verify_scheme(second_pad_k2()).summary()
    assert "failed" in bad


def test_audit_rate_values():
    assert audit_rate(build_pairwise_scheme(2)).rate == Fraction(1, 2)
    assert audit_rate(build_pairwise_scheme(2)).meets_capacity

    k4pair = audit_rate(build_pairwise_scheme(4))
    assert k4pair.rate == Fraction(1, 4)
    assert k4pair.capacity == Fraction(1, 3)
    assert k4pair.capacity_gap == Fraction(1, 12)
    assert k4pair.meets_capacity is False

    assert audit_rate(build_k4_scheme()).rate == Fraction(1, 3)
    assert audit_rate(build_k4_scheme()).meets_capacity
    assert audit_rate(build_rotation_scheme(3)).rate == Fraction(1, 4)

    k5 = audit_rate(build_pairwise_scheme(5))
    assert k5.rate == Fraction(1, 5)
    assert k5.capacity is None and k5.capacity_gap is None


def test_audit_rate_finite_blocks():
    # 64 blocks of the rotation K=2 scheme: 3 symbols per block plus two
    # one-time index bits
    audit = audit_rate(build_rotation_scheme(2), blocks=64)
    assert audit.finite_block_rate == Fraction(64, 64 * 3 + 2)
    with pytest.raises(ValueError):
        audit_rate(build_rotation_scheme(2), blocks=0)


def test_audit_randomness_values():
    a = audit_randomness(build_pairwise_scheme(2))
    assert (a.randomness_symbols, a.per_message_length, a.gap) == (1, 1, 0)
    assert a.matches_minimum

    b = audit_randomness(build_pairwise_scheme(3))
    assert (b.per_message_length, b.gap) == (2, 0)

    c = audit_randomness(build_k4_scheme())
    assert c.randomness_symbols == 4
    assert c.per_message_length == 2  # 4 symbols over L=2
    assert c.gap == 0

    d = audit_randomness(build_rotation_scheme(2))
    assert d.per_message_length == 2
    assert d.gap == 1  # above the minimum, not matching it

    e = audit_randomness(build_pairwise_scheme(5))
    assert e.minimum_per_message_length is None and e.gap is None


def test_verify_reports_failures_with_witnesses():
    report = verify_scheme(second_pad_k2())
    assert not report.all_passed
    failing = [c for c in report.checks if not c.passed]
    assert failing
    assert all(c.witness for c in failing)


def test_single_coefficient_mutations_pairwise_k3():
    # Exhaustive scan: almost every single-coefficient change breaks a check.
    # The only exceptions re-encode the bare-pad answer A_1 by adding the
    # other pad to one of its rows, which is an invertible change of what
    # A_1 transmits and yields a different but equally valid scheme.
    s = build_pairwise_scheme(3)
    survivors = []
    for (db, index, pos, _value), mutated in all_single_mutations(s):
        if verify_scheme(mutated).all_passed:
            survivors.append((db, index, pos))
    assert survivors == [(1, 1, 4), (1, 1, 8)]  # S2 into row S1, S1 into row S2
    pad_cols = {s.randomness_col(1), s.randomness_col(2)}
    for db, index, pos in survivors:
        assert db == 1 and index == 1
        assert pos % s.n_cols in pad_cols


def test_single_coefficient_mutations_rotation_k2_all_break():
    s = build_rotation_scheme(2)
    for _where, mutated in all_single_mutations(s):
        assert not verify_scheme(mutated).all_passed
