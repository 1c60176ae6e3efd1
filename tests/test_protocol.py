import contextlib
import hashlib
import io
import random
from collections import Counter

import pytest

from conftest import oracle_draws, oracle_observation, oracle_random_messages, oracle_shared_randomness
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
    serialize_scheme,
    shared_randomness,
    with_field,
)
from rspir import protocol
from rspir.cli import main
from rspir.field import SUPPORTED_DEGREES
from rspir.linalg import FieldMatrix
from rspir.protocol import _CHUNK_WORDS, _draws, draw_indices, format_messages, scheme_id
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


def _golden_messages(s, blocks):
    """Deterministic message content; rows of q symbols or more take every value of GF(2^m)."""
    q, n = s.field.q, s.L * blocks
    return [[(7 * k + 3 * j + j // q) % q for j in range(n)] for k in range(s.K)]


def _run_stdout(tmp_path, scheme, seed, blocks, with_file):
    """Exit code and stdout bytes of `rspir run` on ``scheme``."""
    path = tmp_path / "scheme.txt"
    path.write_text(serialize_scheme(scheme))
    argv = ["run", str(path), "--seed", seed, "--blocks", str(blocks)]
    if with_file:
        mfile = tmp_path / "messages.txt"
        mfile.write_text(format_messages(_golden_messages(scheme, blocks)))
        argv += ["--messages-file", str(mfile)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


GOLDEN_CASES = [
    # scheme, --seed, --blocks, with a messages file, SHA-256 of stdout
    ("k4-special", 4, 4, "5", 2000, False,
     "10c7c62ae3e860d853e7a066938872a05d62336b0d91be43e4ffce7b06ea00e7"),
    ("k4-special", 4, 4, "11", 3, True,
     "7f3020a67fdc45d83f5fc7256e65f7f220840c60415cc54acef244c2c7122a03"),
    ("pairwise-sum", 6, 4, "7", 2000, False,
     "536a67db4ef9c1b9561d2f69ec53088073206168b6b5c5f85ece8a3423b60166"),
    ("pairwise-sum", 6, 4, "alpha", 1, True,
     "165082ed9fae868e096b8f35634530267542e5b30c47a72938be6952822fd2e2"),
    ("rotation-randomness", 2, 1, "0", 1, False,
     "02bc2f639b50ae75631bf0e7982cc985238214ab4dab40448d4e943161666857"),
    ("rotation-randomness", 2, 1, "3", 2000, True,
     "0405ec59e8ac71b31e1269762dd21f49e6949989fc9fd8e823d8fa6a6686b0fc"),
    ("hand-built-R0", 2, 2, "9", 3, False,
     "2ea1c18ad7f35af45b46a4aa1582cbd936d0ca3b3f48b573ab736747073e29a6"),
    ("hand-built-R0", 2, 2, "beta", 2000, True,
     "8af98e2a312df7346c7ae291350de59a47515856c505f4975cb6060a40c7b0e1"),
]


@pytest.mark.parametrize(
    "variant, K, m, seed, blocks, with_file, digest",
    GOLDEN_CASES,
    ids=[f"{c[0]}-K{c[1]}-m{c[2]}-b{c[4]}" + ("-file" if c[5] else "") for c in GOLDEN_CASES],
)
def test_run_stdout_matches_golden_digest(tmp_path, variant, K, m, seed, blocks, with_file, digest):
    # Pins how the seeded streams are consumed and how transcripts are
    # formatted: any change to either changes these bytes.
    if variant == "hand-built-R0":
        scheme = _gf4_no_randomness_scheme()
    else:
        scheme = build_scheme(variant, K, m)
    code, out = _run_stdout(tmp_path, scheme, seed, blocks, with_file)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("m", SUPPORTED_DEGREES)
@pytest.mark.parametrize("seed", [0, 12345, "alpha/messages", ""])
@pytest.mark.parametrize("n", [0, 1, 2 * _CHUNK_WORDS - 1, 2 * _CHUNK_WORDS + 1])
def test_draws_replay_randrange(m, seed, n):
    # 2·chunk ± 1 values take about four chunks of words, so those calls refill
    q = 1 << m
    assert _draws(random.Random(seed), q, n) == oracle_draws(random.Random(seed), q, n)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_draws_replay_randrange_across_small_chunks(monkeypatch, chunk):
    monkeypatch.setattr(protocol, "_CHUNK_WORDS", chunk)
    for m in SUPPORTED_DEGREES:
        for n in range(40):
            got = _draws(random.Random(f"small/{n}"), 1 << m, n)
            assert got == oracle_draws(random.Random(f"small/{n}"), 1 << m, n)


def test_draws_replay_randrange_up_to_q_128():
    for m in range(1, 8):
        for seed in (3, "beta"):
            assert _draws(random.Random(seed), 1 << m, 1000) == oracle_draws(random.Random(seed), 1 << m, 1000)


@pytest.mark.parametrize("scheme", BATCH_CASES)
def test_streams_match_longhand_oracles(scheme):
    # BATCH_CASES include the R=0 scheme, whose randomness is empty tuples
    for seed in (0, 7, "alpha"):
        for blocks in (1, 3, 2000):
            assert random_messages(scheme, seed, blocks) == oracle_random_messages(scheme, seed, blocks)
            assert shared_randomness(scheme, seed, blocks) == oracle_shared_randomness(scheme, seed, blocks)


@pytest.mark.parametrize("draw", [random_messages, shared_randomness])
@pytest.mark.parametrize("blocks", [0, -3])
def test_streams_reject_blocks_below_one_before_drawing(monkeypatch, draw, blocks):
    def no_stream(seed, label):
        raise AssertionError(f"stream {label} drawn for blocks={blocks}")

    monkeypatch.setattr(protocol, "_stream", no_stream)
    with pytest.raises(ValueError, match="^blocks must be at least 1$"):
        draw(build_k4_scheme(), 0, blocks)
