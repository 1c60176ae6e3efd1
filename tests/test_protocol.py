from collections import Counter

import pytest

from conftest import oracle_observation
from rspir import (
    FieldSpec,
    Scheme,
    answer_index_bits,
    build_k4_scheme,
    build_pairwise_scheme,
    build_rotation_scheme,
    build_scheme,
    derive_decode_table,
    parse_messages,
    random_messages,
    run_protocol,
    shared_randomness,
    with_field,
)
from rspir.linalg import FieldMatrix
from rspir.protocol import draw_indices, format_messages, scheme_id
from rspir.scheme import LinearAnswer


def true_message(messages, theta, L, blocks):
    return tuple(messages[theta - 1][i] for i in range(L * blocks))


def test_transcript_reproducible_bytes():
    s = build_pairwise_scheme(3)
    messages = [[1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 0, 0]]
    a = run_protocol(s, messages, seed="alpha", blocks=4)
    b = run_protocol(s, messages, seed="alpha", blocks=4)
    assert a == b
    assert a.to_text() == b.to_text()
    c = run_protocol(s, messages, seed="beta", blocks=4)
    assert c.to_text() != a.to_text()


@pytest.mark.parametrize(
    "scheme",
    [
        build_rotation_scheme(2),
        build_rotation_scheme(4, "rotation-messages"),
        build_pairwise_scheme(2),
        build_pairwise_scheme(4),
        build_k4_scheme(),
    ],
)
def test_decoded_equals_true_message(scheme):
    table = derive_decode_table(scheme)
    for seed in range(12):
        blocks = 3
        messages = random_messages(scheme, f"content-{seed}", blocks)
        t = run_protocol(scheme, messages, seed=seed, blocks=blocks, table=table)
        assert t.theta == table.theta(t.a, t.b)
        assert t.decoded == true_message(messages, t.theta, scheme.L, blocks)


def test_zero_messages_decode_to_zero():
    s = build_k4_scheme()
    messages = [[0] * 2 for _ in range(4)]
    t = run_protocol(s, messages, seed=7)
    assert t.decoded == (0, 0)


def test_download_accounting_rotation_k2():
    s = build_rotation_scheme(2)
    messages = [[0] * 64, [1] * 64]
    t = run_protocol(s, messages, seed=3, blocks=64)
    assert t.download_symbols == 64 * 3  # K symbols from db1, 1 from db2, per block
    assert t.download_index_bits == 2  # charged once, not per block
    assert t.download_index_bits == answer_index_bits(s)


def test_indices_reused_across_blocks():
    s = build_pairwise_scheme(3)
    messages = random_messages(s, "m", 8)
    t = run_protocol(s, messages, seed=11, blocks=8)
    assert len(t.db1_symbols) == 8
    assert all(len(v) == 2 for v in t.db1_symbols)  # same answer (K-1 symbols) every block
    assert all(len(v) == 1 for v in t.db2_symbols)


def test_theta_empirically_uniform_pairwise_k3():
    # sanity only: exactness is the verifier's job
    s = build_pairwise_scheme(3)
    table = derive_decode_table(s)
    messages = [[1], [0], [1]]
    counts = Counter()
    n = 1000
    for seed in range(n):
        t = run_protocol(s, messages, seed=seed, table=table)
        counts[t.theta] += 1
    bound = 3 / n**0.5
    for k in (1, 2, 3):
        assert abs(counts[k] / n - 1 / 3) < bound


def test_randomness_stream_independent_of_messages():
    s = build_pairwise_scheme(3)
    r = shared_randomness(s, seed=5, blocks=4)
    t1 = run_protocol(s, [[0, 0, 0, 0]] * 3, seed=5, blocks=4)
    t2 = run_protocol(s, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0]], seed=5, blocks=4)
    # same seed: same answer pair and same pads regardless of content
    assert (t1.a, t1.b) == (t2.a, t2.b)
    assert r == shared_randomness(s, seed=5, blocks=4)
    # db1's first answer transmits the raw pads, so they are visible when a=1
    if t1.a == 1:
        assert t1.db1_symbols == tuple(r_i[: s.K - 1] for r_i in r)


def test_index_streams_differ_between_databases():
    s = build_pairwise_scheme(5)
    draws = [draw_indices(s, seed) for seed in range(40)]
    assert any(a != b for a, b in draws)


def test_run_protocol_validates_arguments():
    s = build_pairwise_scheme(2)
    with pytest.raises(ValueError):
        run_protocol(s, [[0], [0]], blocks=0)
    with pytest.raises(ValueError):
        run_protocol(s, [[0]], blocks=1)
    with pytest.raises(ValueError):
        run_protocol(s, [[0, 1], [0, 1]], blocks=1)
    with pytest.raises(ValueError):
        run_protocol(s, [[2], [0]], blocks=1)


def test_scheme_id_stable_and_distinct():
    assert scheme_id(build_pairwise_scheme(2)) == scheme_id(build_pairwise_scheme(2))
    assert scheme_id(build_pairwise_scheme(2)) != scheme_id(build_pairwise_scheme(3))


def test_transcript_text_shape():
    s = build_pairwise_scheme(2)
    t = run_protocol(s, [[1, 0], [0, 1]], seed=1, blocks=2)
    lines = t.to_text().splitlines()
    assert lines[0].startswith("scheme ")
    assert lines[1] == "blocks 2"
    assert lines[2] == f"indices {t.a} {t.b}"
    assert lines[-1] == f"download symbols {t.download_symbols} index-bits {t.download_index_bits}"


def test_messages_file_round_trip():
    s = build_k4_scheme()
    messages = random_messages(s, "files", 3)
    text = format_messages(messages)
    assert parse_messages(text, s, 3) == messages


def test_parse_messages_errors():
    s = build_pairwise_scheme(2)
    with pytest.raises(ValueError, match="rows"):
        parse_messages("0 1\n", s, 2)
    with pytest.raises(ValueError, match="expected L"):
        parse_messages("0 1\n0\n", s, 2)
    with pytest.raises(ValueError, match="outside"):
        parse_messages("0 2\n0 1\n", s, 2)
    with pytest.raises(ValueError, match="decimal"):
        parse_messages("0 x\n0 1\n", s, 2)


@pytest.mark.parametrize("token", ["+0", "0_1", "-0", "\uff10"])  # last: full-width zero
def test_parse_messages_rejects_non_decimal_token(token):
    s = build_pairwise_scheme(2)
    with pytest.raises(ValueError, match="row 2: symbols must be decimal integers"):
        parse_messages(f"0 1\n{token} 1\n", s, 2)


def _gf4_no_randomness_scheme():
    """K=2, R=0 over GF(4): every pair has rank 2, so every pair decodes both messages."""
    def answers(*rows):
        return tuple(LinearAnswer(i, FieldMatrix.from_rows([r])) for i, r in enumerate(rows, start=1))

    return Scheme(2, 1, 0, FieldSpec(2), answers((1, 0), (0, 3)), answers((2, 1), (1, 2)))


BATCH_CASES = [
    pytest.param(with_field(build_scheme(variant, K), m), id=f"{variant}-K{K}-m{m}")
    for variant, K in [
        ("rotation-randomness", 2),
        ("rotation-randomness", 3),
        ("rotation-messages", 3),
        ("pairwise-sum", 2),
        ("pairwise-sum", 4),
        ("k4-special", 4),
    ]
    for m in (1, 2, 4)
] + [pytest.param(_gf4_no_randomness_scheme(), id="hand-built-R0-m2")]


@pytest.mark.parametrize("scheme", BATCH_CASES)
def test_batched_run_matches_longhand_oracle(scheme):
    # Every block's transmitted symbols are recomputed one block at a time by
    # the longhand oracle, which does not use linalg; decoded must equal
    # message theta. The last symbol of every message is q - 1.
    table = derive_decode_table(scheme)
    q, L = scheme.field.q, scheme.L
    for blocks in (1, 3, 64):
        for seed in range(4):
            messages = random_messages(scheme, f"content-{seed}", blocks)
            for row in messages:
                row[-1] = q - 1
            t = run_protocol(scheme, messages, seed=seed, blocks=blocks)
            assert run_protocol(scheme, messages, seed=seed, blocks=blocks, table=table) == t
            rows_a = scheme.answer(1, t.a).map.rows
            randomness = shared_randomness(scheme, seed, blocks)
            for i in range(blocks):
                w = tuple(v for row in messages for v in row[i * L : (i + 1) * L])
                expected = oracle_observation(scheme, t.a, t.b, w + randomness[i])
                assert t.db1_symbols[i] == expected[:rows_a]
                assert t.db2_symbols[i] == expected[rows_a:]
            assert t.theta == table.theta(t.a, t.b)
            assert t.decoded == tuple(messages[t.theta - 1])

