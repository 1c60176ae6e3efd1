"""Seeded simulation of one retrieval: two database actors and a user.

There are no queries in this protocol. Each database independently draws
one answer index uniformly from its set and streams that answer's symbols
for every block; the index itself is sent once, before the blocks. Both
databases read the per-block shared randomness from the same pre-shared
seeded stream (that shared seed is the trust assumption of the model), and
the index draws use streams of their own, so message content, randomness,
and index selection cannot contaminate each other.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Sequence

from .decode import DecodeTable, NotReliableError, derive_pair_decode
from .linalg import mat_batch
from .scheme import Scheme, answer_index_bits
from .schemeio import decimal_ints, serialize_scheme


@dataclass(frozen=True)
class Transcript:
    """Everything both wires carried during one protocol run."""

    scheme_id: str
    blocks: int
    a: int
    b: int
    db1_symbols: tuple[tuple[int, ...], ...]
    db2_symbols: tuple[tuple[int, ...], ...]
    theta: int
    decoded: tuple[int, ...]
    download_symbols: int
    download_index_bits: int

    def to_text(self) -> str:
        lines = [
            f"scheme {self.scheme_id}",
            f"blocks {self.blocks}",
            f"indices {self.a} {self.b}",
        ]
        if self.blocks:
            # every block sends the same answers, so one template fits each line pair
            pair = "block %d db1 " + " ".join(["%d"] * len(self.db1_symbols[0]))
            pair += "\nblock %d db2 " + " ".join(["%d"] * len(self.db2_symbols[0]))
            for i in range(self.blocks):
                lines.append(pair % (i + 1, *self.db1_symbols[i], i + 1, *self.db2_symbols[i]))
        lines.append(f"decoded-index {self.theta}")
        lines.append("decoded " + " ".join(map(str, self.decoded)))
        lines.append(f"download symbols {self.download_symbols} index-bits {self.download_index_bits}")
        return "\n".join(lines) + "\n"


def scheme_id(s: Scheme) -> str:
    return hashlib.sha256(serialize_scheme(s).encode()).hexdigest()[:12]


def _stream(seed: int | str, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


_CHUNK_WORDS = 1 << 16  # MT19937 words per refill: memory follows the output size


def _draws(rng: random.Random, q: int, n: int) -> bytes:
    """The first ``n`` values ``rng.randrange(q)`` would return, for q = 2^m <= 128.

    CPython's ``randrange(2^m)`` keeps the top m+1 bits of one 32-bit word
    and rejects the word when bit 31 is set. ``getrandbits(32*w)`` packs w
    words little-endian, so byte 4i+3 is the top byte of word i. A chunk may
    overdraw ``rng``, which is safe only because every caller passes a
    private stream that is discarded after this one use.
    """
    keep = bytes(b >> (8 - q.bit_length()) for b in range(256))
    out = bytearray()
    while len(out) < n:
        words = min(2 * (n - len(out)) + 64, _CHUNK_WORDS)
        data = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        out += data[3::4].translate(keep, bytes(range(128, 256)))
    return bytes(out[:n])


def _randomness(s: Scheme, seed: int | str, blocks: int) -> bytes:
    """The run's shared randomness symbols, block after block."""
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    return _draws(_stream(seed, "common-randomness"), s.field.q, s.R * blocks)


def shared_randomness(s: Scheme, seed: int | str, blocks: int) -> list[tuple[int, ...]]:
    """Per-block shared randomness symbols, as both databases would derive them."""
    flat, R = _randomness(s, seed, blocks), s.R
    return [tuple(flat[i * R : (i + 1) * R]) for i in range(blocks)]


def draw_indices(s: Scheme, seed: int | str) -> tuple[int, int]:
    """Each database's independent uniform answer choice."""
    a = _stream(seed, "index-db1").randrange(s.M1) + 1
    b = _stream(seed, "index-db2").randrange(s.M2) + 1
    return a, b


def random_messages(s: Scheme, seed: int | str, blocks: int) -> list[list[int]]:
    """Uniform message content, for runs without a messages file."""
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    n = s.L * blocks
    flat = _draws(_stream(seed, "messages"), s.field.q, s.K * n)
    return [list(flat[k * n : (k + 1) * n]) for k in range(s.K)]


def run_protocol(
    s: Scheme,
    messages: Sequence[Sequence[int]],
    seed: int | str = 0,
    blocks: int = 1,
    table: DecodeTable | None = None,
) -> Transcript:
    """Simulate one full retrieval and return the recorded transcript.

    ``messages`` is K rows of L*blocks symbols. The answer pair is drawn
    once and reused for every block, so the whole run is one pass of each
    linear map over all blocks at once: input column j holds symbol j of
    (W, S) for every block. Without ``table`` only the drawn pair's
    decoding is derived.
    """
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    if len(messages) != s.K or any(len(row) != s.L * blocks for row in messages):
        raise ValueError(f"messages must be {s.K} rows of {s.L * blocks} symbols")
    for row in messages:
        s.field.check(min(row))
        s.field.check(max(row))

    a, b = draw_indices(s, seed)
    pair = table.entry(a, b) if table is not None else derive_pair_decode(s, a, b)
    if pair.theta is None or pair.recovery is None:
        raise NotReliableError(a, b)
    randomness = _randomness(s, seed, blocks)
    columns = [bytes(row[l :: s.L]) for row in messages for l in range(s.L)]
    columns += [randomness[r :: s.R] for r in range(s.R)]

    out_a = mat_batch(s.field, s.answer(1, a).map, columns, blocks)
    out_b = mat_batch(s.field, s.answer(2, b).map, columns, blocks)
    recovered = mat_batch(s.field, pair.recovery, out_a + out_b, blocks)
    decoded = bytearray(s.L * blocks)
    for l, col in enumerate(recovered):
        decoded[l :: s.L] = col

    return Transcript(
        scheme_id=scheme_id(s),
        blocks=blocks,
        a=a,
        b=b,
        db1_symbols=tuple(zip(*out_a)),
        db2_symbols=tuple(zip(*out_b)),
        theta=pair.theta,
        decoded=tuple(decoded),
        download_symbols=blocks * (len(out_a) + len(out_b)),
        download_index_bits=answer_index_bits(s),
    )


def parse_messages(text: str, s: Scheme, blocks: int) -> list[list[int]]:
    """Messages file: one line per message, L*blocks space-separated symbols."""
    rows = []
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if len(lines) != s.K:
        raise ValueError(f"messages file has {len(lines)} rows, expected K={s.K}")
    for lineno, line in enumerate(lines, start=1):
        try:
            values = decimal_ints(line.split())
        except ValueError:
            raise ValueError(f"messages row {lineno}: symbols must be decimal integers") from None
        if len(values) != s.L * blocks:
            raise ValueError(
                f"messages row {lineno} has {len(values)} symbols, expected L*blocks={s.L * blocks}"
            )
        for v in values:
            if not 0 <= v < s.field.q:
                raise ValueError(f"messages row {lineno}: symbol {v} outside GF(2^{s.field.m})")
        rows.append(values)
    return rows


def format_messages(messages: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(map(str, row)) for row in messages) + "\n"
