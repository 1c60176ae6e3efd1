"""Seeded input generators for the three workloads.

The schemes are written by the benchmark's own copy of the shipped
constructions, not by ``rspir build``, so the inputs stay fixed while the
program under test changes. ``selftest.py`` checks that the copies still
serialize byte-for-byte like the program's builders.

Each workload is a list of *rounds*. Every round of a workload holds the
same multiset of ops, in its own seeded order. An untraced worker cycles
through the rounds until its time is up and then finishes the round it is
in; a traced worker runs a fixed number of rounds. So every run measures
whole rounds, and the mix of ops depends neither on where the deadline fell
nor on how fast the program is.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

# --- the shipped constructions, written out independently ---------------

def _row(expr: str, K: int, L: int, R: int) -> list[int]:
    """Coefficient row of a characteristic-2 sum such as ``W1.2+W3+S4``."""
    row = [0] * (K * L + R)
    for term in expr.split("+"):
        if term.startswith("S"):
            col = K * L + int(term[1:]) - 1
        else:
            k, _, l = term[1:].partition(".")
            col = (int(k) - 1) * L + (int(l) if l else 1) - 1
        row[col] ^= 1
    return row


@dataclass(frozen=True)
class SchemeText:
    """A scheme as the benchmark knows it: parameters and answer rows."""

    K: int
    L: int
    R: int
    m: int
    db1: tuple[tuple[tuple[int, ...], ...], ...]
    db2: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def q(self) -> int:
        return 1 << self.m

    def text(self) -> str:
        lines = [f"rspir {self.K} {self.L} {self.R} {self.m} {len(self.db1)} {len(self.db2)}"]
        for db, answers in ((1, self.db1), (2, self.db2)):
            for i, rows in enumerate(answers, start=1):
                lines.append(f"answer {db} {i} {len(rows)}")
                lines.extend(" ".join(map(str, r)) for r in rows)
        return "\n".join(lines) + "\n"


def _scheme(K: int, L: int, R: int, m: int, db1, db2) -> SchemeText:
    def freeze(answers):
        return tuple(tuple(tuple(_row(e, K, L, R)) for e in rows) for rows in answers)

    return SchemeText(K, L, R, m, freeze(db1), freeze(db2))


def rotation(K: int, variant: str, m: int) -> SchemeText:
    db1 = []
    for a in range(1, K + 1):
        rows = []
        for j in range(1, K + 1):
            rot = (j + a - 2) % K + 1
            w, s = (j, rot) if variant == "rotation-randomness" else (rot, j)
            rows.append(f"W{w}+S{s}")
        db1.append(rows)
    db2 = [[f"S{b}"] for b in range(1, K + 1)]
    return _scheme(K, 1, K, m, db1, db2)


def pairwise(K: int, m: int) -> SchemeText:
    db1 = [[f"S{j}" for j in range(1, K)]]
    for a in range(2, K + 1):
        db1.append([f"W{j}+W{(j + a - 2) % K + 1}+S{j}" for j in range(1, K)])
    db2 = [[f"W{b}+S{b}"] for b in range(1, K)]
    db2.append([f"W{K}+" + "+".join(f"S{j}" for j in range(1, K))])
    return _scheme(K, 1, K - 1, m, db1, db2)


_K4_DB1 = (
    ("S1", "S2", "S3"),
    ("W1.1+W3.1+W3.2+S1", "W2.2+W4.1+S1+S3", "W3.2+S4"),
    ("W1.1+W4.2+S1+S4", "W1.2+W4.1+W4.2+S2", "W2.1+W3.2+S2+S3"),
    ("W2.1+S4", "W1.1+W1.2+W2.1+W2.2+S1+S2", "W3.1+W4.2+S1+S2+S3"),
)
_K4_DB2 = (
    ("W1.1+S1", "W1.2+S2", "S4"),
    ("W2.1+W2.2+S1+S2", "W2.1+S2+S3", "W1.1+W3.1+W4.2+S1+S4"),
    ("W4.1+W4.2+S2", "W2.1+W3.2+S4", "W4.1+S1+S3"),
    ("W3.2+S2+S3", "W3.1+W3.2+S1", "W1.1+W1.2+W2.2+W3.1+W4.1+S3+S4"),
)


def k4(m: int) -> SchemeText:
    return _scheme(4, 2, 4, m, _K4_DB1, _K4_DB2)


def shipped(variant: str, K: int | None, m: int) -> SchemeText:
    if variant.startswith("rotation-"):
        return rotation(K, variant, m)
    if variant == "pairwise-sum":
        return pairwise(K, m)
    return k4(m)


# README table: (download cost, rate denominator, shared randomness) by variant.
def readme_row(variant: str, K: int) -> tuple[int, int, int]:
    if variant.startswith("rotation-"):
        return K + 1, K + 1, K
    if variant == "pairwise-sum":
        return K, K, K - 1
    return 6, 3, 4


def mutate(s: SchemeText, a: int, rng: random.Random) -> SchemeText:
    """One change to a coefficient of answer ``a`` of database 1, to another field element."""
    answers = [list(map(list, rows)) for rows in s.db1]
    row = answers[a][rng.randrange(len(answers[a]))]
    col = rng.randrange(len(row))
    row[col] = rng.choice([v for v in range(s.q) if v != row[col]])
    return SchemeText(s.K, s.L, s.R, s.m, tuple(tuple(tuple(r) for r in rs) for rs in answers), s.db2)


# --- workload definitions -------------------------------------------------

# (variant, K, m) of the verify draw.
VERIFY_SCHEMES = (
    [(v, k, 1) for v in ("rotation-randomness", "rotation-messages") for k in (2, 3, 4, 5)]
    + [("pairwise-sum", k, 1) for k in range(2, 7)]
    + [("k4-special", 4, 1)]
    + [(v, k, 2) for v in ("rotation-randomness", "rotation-messages") for k in (2, 3)]
    + [("pairwise-sum", k, 2) for k in (2, 3)]
)
# (variant, K, m, ops per round). The first three cost about the same; the
# cheap fourth case runs half as often, so the median op falls near the
# middle of their cluster rather than at its lower edge.
SIMULATE_SCHEMES = (
    ("k4-special", 4, 4, 2),
    ("pairwise-sum", 6, 4, 2),
    ("k4-special", 4, 2, 2),
    ("pairwise-sum", 3, 1, 1),
)
SIMULATE_BLOCKS = 2000

SEARCH_ARGV = ("search", "--k", "2", "--r", "1")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the reference needs to check it."""

    argv: tuple[str, ...]
    scheme: str | None = None  # path of the scheme file the op reads
    shipped: tuple[str, int] | None = None  # (variant, K) of an unmutated shipped scheme


def _label(variant: str, K: int, m: int) -> str:
    return f"{variant}-K{K}-m{m}"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def verify_rounds(rng: random.Random, workdir: str, rounds: int) -> list[list[Op]]:
    """Each round verifies every scheme of the draw once, plus one mutant per answer of database 1.

    The checks walk the answer pairs with database 1's answer outermost and
    stop at the first pair that fails. So the mutant of answer a exits after
    about (a - 1) x M2 pairs, and one mutant per answer spans every exit depth.
    The changed coefficient within the answer comes from a fixed random
    stream per scheme, so the mutants, and every round's multiset of ops,
    are the same for every seed; the seed sets the order of each round.
    """
    ops = []
    for variant, K, m in VERIFY_SCHEMES:
        base = shipped(variant, K, m)
        label = _label(variant, K, m)
        path = _write(os.path.join(workdir, f"{label}.txt"), base.text())
        ops.append(Op(("verify", path), path, (variant, K)))
        fixed = random.Random(f"mutants/{label}")
        for a in range(len(base.db1)):
            mpath = _write(os.path.join(workdir, f"{label}-mut{a + 1}.txt"), mutate(base, a, fixed).text())
            ops.append(Op(("verify", mpath), mpath))
    return [rng.sample(ops, len(ops)) for _ in range(rounds)]


def simulate_rounds(rng: random.Random, workdir: str, rounds: int) -> list[list[Op]]:
    """Each round runs every simulate case, each op with its own seed."""
    cases = []
    for variant, K, m, per_round in SIMULATE_SCHEMES:
        path = _write(os.path.join(workdir, f"{_label(variant, K, m)}.txt"), shipped(variant, K, m).text())
        cases += [(path, (variant, K))] * per_round
    out = []
    for _ in range(rounds):
        ops = []
        for path, key in cases:
            seed = str(rng.randrange(10**9))
            ops.append(Op(("run", path, "--seed", seed, "--blocks", str(SIMULATE_BLOCKS)), path, key))
        rng.shuffle(ops)
        out.append(ops)
    return out


def search_rounds(rng: random.Random, workdir: str, rounds: int) -> list[list[Op]]:
    """The search space is the only input; every op is the same search."""
    return [[Op(SEARCH_ARGV)] for _ in range(rounds)]


# (generator, distinct rounds per run, rounds a traced run measures). The
# worker cycles through the rounds.
GENERATORS = {
    "verify": (verify_rounds, 8, 1),
    "simulate": (simulate_rounds, 64, 4),
    "search": (search_rounds, 1, 10),
}


def generate(workload: str, seed: int, workdir: str) -> list[list[Op]]:
    """Write the workload's input files under ``workdir`` and return its rounds."""
    make, rounds, _ = GENERATORS[workload]
    os.makedirs(workdir, exist_ok=True)
    return make(random.Random(f"{workload}/{seed}"), workdir, rounds)
