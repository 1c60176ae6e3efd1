import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspir import (
    FieldSpec,
    Scheme,
    build_k4_scheme,
    build_pairwise_scheme,
    build_rotation_scheme,
    parse_scheme,
    serialize_scheme,
)
from rspir.linalg import FieldMatrix
from rspir.scheme import LinearAnswer
from rspir.schemeio import SchemeParseError


@pytest.mark.parametrize(
    "scheme",
    [
        build_rotation_scheme(2),
        build_rotation_scheme(4, "rotation-messages"),
        build_pairwise_scheme(2),
        build_pairwise_scheme(5),
        build_k4_scheme(),
        build_pairwise_scheme(3, m=2),
    ],
)
def test_round_trip(scheme):
    text = serialize_scheme(scheme)
    assert parse_scheme(text) == scheme
    assert serialize_scheme(parse_scheme(text)) == text


def test_comments_and_blank_lines_ignored():
    text = serialize_scheme(build_pairwise_scheme(2))
    noisy = "# a scheme\n\n" + text.replace("answer 2 1 1", "# db2 next\nanswer 2 1 1")
    assert parse_scheme(noisy) == build_pairwise_scheme(2)


def test_k4_header():
    assert serialize_scheme(build_k4_scheme()).splitlines()[0] == "rspir 4 2 4 1 4 4"


def test_parse_error_bad_header():
    with pytest.raises(SchemeParseError, match="line 1"):
        parse_scheme("rspir 2 1 1 1 2\n")
    with pytest.raises(SchemeParseError, match="header"):
        parse_scheme("spir 2 1 1 1 2 2\n")


def test_parse_error_cardinality():
    # M1 = 3 with K = 2 violates the multiple-of-K cardinality law
    with pytest.raises(SchemeParseError, match="multiple"):
        parse_scheme("rspir 2 1 1 1 3 2\n")


def test_parse_error_coefficient_range():
    text = serialize_scheme(build_pairwise_scheme(2)).replace("0 0 1", "0 0 2", 1)
    with pytest.raises(SchemeParseError, match="outside GF"):
        parse_scheme(text)


def test_parse_error_wrong_coefficient_count():
    text = serialize_scheme(build_pairwise_scheme(2)).replace("0 0 1", "0 1", 1)
    with pytest.raises(SchemeParseError, match="expected 3 coefficients"):
        parse_scheme(text)


def test_parse_error_truncated():
    text = serialize_scheme(build_pairwise_scheme(2))
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(SchemeParseError):
        parse_scheme(truncated)


def test_parse_error_answer_count_mismatch():
    lines = serialize_scheme(build_pairwise_scheme(2)).splitlines()
    missing = "\n".join(lines[:-2]) + "\n"  # drop the final answer
    with pytest.raises(SchemeParseError, match="M2"):
        parse_scheme(missing)


def test_parse_error_names_offending_line():
    text = serialize_scheme(build_pairwise_scheme(2)).replace("0 0 1", "0 0 2", 1)
    with pytest.raises(SchemeParseError) as exc:
        parse_scheme(text)
    assert exc.value.line == 3  # first coefficient row sits below header + answer line


def test_parse_error_bad_database_index():
    text = serialize_scheme(build_pairwise_scheme(2)).replace("answer 2 1 1", "answer 3 1 1")
    with pytest.raises(SchemeParseError, match="database must be 1 or 2"):
        parse_scheme(text)


def test_parse_error_negative_coefficient():
    text = serialize_scheme(build_pairwise_scheme(2)).replace("0 0 1", "0 0 -1", 1)
    with pytest.raises(SchemeParseError, match="outside GF"):
        parse_scheme(text)


@pytest.mark.parametrize("token", ["+0", "0_1", "-0", "\uff10"])  # last: full-width zero
def test_parse_error_non_decimal_token(token):
    text = serialize_scheme(build_pairwise_scheme(2)).replace("0 0 1", f"0 {token} 1", 1)
    with pytest.raises(SchemeParseError, match="coefficients must be decimal integers") as exc:
        parse_scheme(text)
    assert exc.value.line == 3


def test_parse_error_out_of_order_answer():
    text = serialize_scheme(build_pairwise_scheme(2)).replace("answer 1 2 1", "answer 1 3 1")
    with pytest.raises(SchemeParseError, match="out of order"):
        parse_scheme(text)


def test_parse_error_trailing_garbage():
    text = serialize_scheme(build_pairwise_scheme(2)) + "leftover tokens\n"
    with pytest.raises(SchemeParseError, match="expected 'answer"):
        parse_scheme(text)


@st.composite
def random_schemes(draw):
    K = draw(st.integers(2, 3))
    L = draw(st.integers(1, 2))
    R = draw(st.integers(0, 2))
    m = draw(st.sampled_from([1, 2]))
    q = 2**m
    n = K * L + R
    field = FieldSpec(m)

    def answers(count):
        out = []
        for i in range(count):
            rows = draw(st.integers(1, 2))
            entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * n, max_size=rows * n))
            out.append(LinearAnswer(i + 1, FieldMatrix(rows, n, tuple(entries))))
        return tuple(out)

    return Scheme(K, L, R, field, answers(K), answers(2 * K))


@given(random_schemes())
@settings(max_examples=80)
def test_round_trip_random(scheme):
    assert parse_scheme(serialize_scheme(scheme)) == scheme
