"""Independent correctness references for the benchmark's workloads.

Nothing here imports rspir. Field arithmetic, observation enumeration and
elimination are written out again, so a bug in the program under test cannot
hide in its own reference. Verdicts come from brute force: every realization
of (W, S) is bucketed by its observation, as the test suite's oracle does.

Each reference's ``check`` returns a list of problems; an empty list means
the op's exit code and output are right.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

from workloads import SchemeText, readme_row

# Reduction polynomials of GF(2^m), as published in the README.
POLYS = {2: 0b111, 3: 0b1011, 4: 0b10011}
CAPACITY = {2: Fraction(1, 2), 3: Fraction(1, 3), 4: Fraction(1, 3)}
MIN_RANDOMNESS_PER_L = {2: 1, 3: 2, 4: 2}


def gf_mul_table(m: int) -> list[list[int]]:
    q = 1 << m
    table = [[0] * q for _ in range(q)]
    for x in range(q):
        for y in range(q):
            acc = 0
            for bit in range(m):
                if (y >> bit) & 1:
                    acc ^= x << bit
            for bit in range(2 * m - 2, m - 1, -1):
                if (acc >> bit) & 1:
                    acc ^= POLYS[m] << (bit - m)
            table[x][y] = acc
    return table


def parse(text: str) -> SchemeText:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    K, L, R, m, M1, M2 = map(int, lines[0][1:])
    answers: dict[int, list] = {1: [], 2: []}
    pos = 1
    while pos < len(lines):
        _, db, _, rows = lines[pos]
        block = [tuple(map(int, ln)) for ln in lines[pos + 1 : pos + 1 + int(rows)]]
        answers[int(db)].append(tuple(block))
        pos += 1 + int(rows)
    if (len(answers[1]), len(answers[2])) != (M1, M2):
        raise ValueError("answer counts disagree with the header")
    return SchemeText(K, L, R, m, tuple(answers[1]), tuple(answers[2]))


# --- brute force over realizations ---------------------------------------

def observations(s: SchemeText, a: int, b: int, mul) -> list[int]:
    """Packed observation of every realization, indexed by sum x_j q^j."""
    q, m = s.q, s.m
    rows = s.db1[a - 1] + s.db2[b - 1]
    obs = [0]
    for j in range(s.K * s.L + s.R):
        contrib = []
        for c in range(q):
            packed = 0
            for i, row in enumerate(rows):
                packed |= mul[c][row[j]] << (i * m)
            contrib.append(packed)
        obs = [o ^ contrib[c] for c in range(q) for o in obs]
    return obs


def pair_facts(s: SchemeText, a: int, b: int, mul) -> tuple[int | None, bool]:
    """(lowest message the observation determines, whether the others stay private)."""
    q, L, K = s.q, s.L, s.K
    obs = observations(s, a, b, mul)
    span = q**L
    theta = None
    for k in range(1, K + 1):
        low = q ** ((k - 1) * L)
        seen: dict[int, int] = {}
        if all(seen.setdefault(o, (xi // low) % span) == (xi // low) % span for xi, o in enumerate(obs)):
            theta = k
            break
    if theta is None:
        return None, False
    below = q ** ((theta - 1) * L)
    above = q ** (theta * L)
    rest = q ** ((K - theta) * L)
    n_wbar = q ** ((K - 1) * L)
    joint = Counter()
    for xi, o in enumerate(obs):
        wbar = xi % below + ((xi // above) % rest) * below
        joint[(o, wbar)] += 1
    cobs = Counter(obs)
    # private iff, for every observation, every value of the other messages is equally likely
    private = len(joint) == len(cobs) * n_wbar and all(
        c * n_wbar == cobs[o] for (o, _), c in joint.items()
    )
    return theta, private


def expected_verify(s: SchemeText) -> tuple[int, str]:
    """Exit code and exact stdout of ``rspir verify`` on a well-formed scheme."""
    mul = gf_mul_table(s.m)
    M1, M2 = len(s.db1), len(s.db2)
    grid = [[pair_facts(s, a, b, mul) for b in range(1, M2 + 1)] for a in range(1, M1 + 1)]
    pairs = [(a, b) for a in range(1, M1 + 1) for b in range(1, M2 + 1)]

    def first(pred):
        return next(((a, b) for a, b in pairs if pred(grid[a - 1][b - 1])), None)

    checks = [("determinism", None), ("independence", None)]
    dead = first(lambda f: f[0] is None)
    checks.append(("reliability", dead and f"pair ({dead[0]},{dead[1]}) decodes no message"))
    bad = first(lambda f: not f[1])
    if bad is None:
        checks.append(("database-privacy", None))
    elif grid[bad[0] - 1][bad[1] - 1][0] is None:
        checks.append(("database-privacy", f"pair ({bad[0]},{bad[1]}) decodes no message"))
    else:
        checks.append(("database-privacy", f"pair ({bad[0]},{bad[1]}) leaks about non-decoded messages"))
    if dead is not None:
        witness = f"pair ({dead[0]},{dead[1]}) decodes no message"
        checks += [("user-privacy-db1", witness), ("user-privacy-db2", witness)]
    else:
        thetas = [[f[0] for f in row] for row in grid]
        checks.append(("user-privacy-db1", _uniformity(s.K, "a", thetas, M2 // s.K)))
        columns = [list(col) for col in zip(*thetas)]
        checks.append(("user-privacy-db2", _uniformity(s.K, "b", columns, M1 // s.K)))

    lines = [f"CHECK {name} PASS" if w is None else f"CHECK {name} FAIL {w}" for name, w in checks]
    lines += measure_lines(s)
    passed = all(w is None for _, w in checks)
    return (0 if passed else 1), "\n".join(lines) + "\n"


def _uniformity(K: int, axis: str, lines: list[list[int]], per: int) -> str | None:
    for i, thetas in enumerate(lines, start=1):
        counts = Counter(thetas)
        if any(counts.get(k, 0) != per for k in range(1, K + 1)):
            detail = " ".join(f"{k}:{counts.get(k, 0)}" for k in range(1, K + 1))
            return f"{axis}={i} counts {detail}"
    return None


def measure_lines(s: SchemeText) -> list[str]:
    d = max(len(r) for r in s.db1) + max(len(r) for r in s.db2)
    rate = Fraction(s.L, d)
    per_l = Fraction(s.R, s.L)
    lines = [
        f"MEASURE download-cost-symbols {d}",
        f"MEASURE rate {rate}",
        f"MEASURE randomness-symbols {s.R}",
        f"MEASURE randomness-per-message-length {per_l}",
    ]
    if s.K in CAPACITY:
        lines += [f"MEASURE capacity {CAPACITY[s.K]}", f"MEASURE capacity-gap {CAPACITY[s.K] - rate}"]
    if s.K in MIN_RANDOMNESS_PER_L:
        minimum = MIN_RANDOMNESS_PER_L[s.K]
        lines += [
            f"MEASURE min-randomness-per-message-length {minimum}",
            f"MEASURE randomness-gap {per_l - minimum}",
        ]
    return lines


class VerifyReference:
    """Expected verify results, cached per scheme text."""

    def __init__(self) -> None:
        self.cache: dict[str, tuple[int, str]] = {}

    def expected(self, text: str) -> tuple[int, str]:
        key = hashlib.sha256(text.encode()).hexdigest()
        if key not in self.cache:
            self.cache[key] = expected_verify(parse(text))
        return self.cache[key]

    def check(self, text: str, shipped: tuple[str, int] | None, rc: int, out: str) -> list[str]:
        problems = []
        want_rc, want_out = self.expected(text)
        if rc != want_rc:
            problems.append(f"exit code {rc}, expected {want_rc}")
        if out != want_out:
            problems.append("stdout differs from the brute-force verdicts")
        if shipped is not None:
            d, den, r = readme_row(*shipped)
            table = [
                f"MEASURE download-cost-symbols {d}",
                f"MEASURE rate 1/{den}",
                f"MEASURE randomness-symbols {r}",
            ]
            missing = [ln for ln in table if ln not in out.splitlines()]
            if missing:
                problems.append(f"shipped scheme disagrees with the README table: {missing}")
            if want_rc != 0:
                problems.append("shipped scheme fails verification")
        return problems


# --- elimination over GF(2^m), for the simulate and search checks ---------

def _reduce(rows: list[list[int]], cols: int, mul) -> tuple[list[list[int]], int]:
    """Gauss-Jordan on the first ``cols`` columns; returns (rows, rank)."""
    inv = {x: y for x in range(1, len(mul)) for y in range(1, len(mul)) if mul[x][y] == 1}
    work = [list(r) for r in rows]
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        scale = inv[work[r][c]]
        work[r] = [mul[scale][v] for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [v ^ mul[f][p] for v, p in zip(work[i], work[r])]
        r += 1
    return work, r


def rank(rows: list[list[int]], mul) -> int:
    return _reduce(rows, len(rows[0]), mul)[1]


def left_kernel(rows: list[list[int]], mul) -> list[list[int]]:
    """Basis of {u : u^T rows = 0}, by reducing the augmented [rows | I]."""
    n, cols = len(rows), len(rows[0])
    work, r = _reduce([list(row) + [int(j == i) for j in range(n)] for i, row in enumerate(rows)], cols, mul)
    return [row[cols:] for row in work[r:]]


class SimulateReference:
    """Checks ``rspir run`` transcripts against the messages they print."""

    def __init__(self) -> None:
        self._pairs: dict[tuple[str, int, int], tuple] = {}

    def _pair(self, text: str, s: SchemeText, a: int, b: int):
        key = (text, a, b)
        if key not in self._pairs:
            mul = gf_mul_table(s.m)
            G = [list(r) for r in s.db1[a - 1] + s.db2[b - 1]]
            KL = s.K * s.L
            base = rank(G, mul)
            decodable = []
            for k in range(1, s.K + 1):
                units = [[1 if j == (k - 1) * s.L + l else 0 for j in range(len(G[0]))] for l in range(s.L)]
                if rank(G + units, mul) == base:
                    decodable.append(k)
            # transmitted symbols y are consistent with the messages w iff
            # N (y - G_W w) = 0 for a basis N of the left kernel of G_S
            kernel = left_kernel([r[KL:] for r in G], mul)
            self._pairs[key] = (mul, G, decodable, kernel)
        return self._pairs[key]

    def check(self, text: str, argv: tuple[str, ...], rc: int, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        s = parse(text)
        blocks = int(argv[argv.index("--blocks") + 1])
        lines = out.splitlines()
        try:
            return self._check_lines(text, s, blocks, lines)
        except (ValueError, IndexError) as e:
            return [f"malformed transcript: {e}"]

    def _check_lines(self, text: str, s: SchemeText, blocks: int, lines: list[str]) -> list[str]:
        problems = []
        K, L, q = s.K, s.L, s.q
        if lines[0] != "messages":
            return ["transcript does not start with the messages"]
        messages = [list(map(int, ln.split())) for ln in lines[1 : 1 + K]]
        if any(len(row) != L * blocks or any(not 0 <= v < q for v in row) for row in messages):
            problems.append(f"messages are not {K} rows of {L * blocks} field symbols")
        rest = lines[1 + K :]
        want_id = hashlib.sha256(text.encode()).hexdigest()[:12]
        if rest[0] != f"scheme {want_id}":
            problems.append("scheme id is not the digest of the scheme file")
        if rest[1] != f"blocks {blocks}":
            problems.append(f"{rest[1]!r}, expected 'blocks {blocks}'")
        _, a, b = rest[2].split()
        a, b = int(a), int(b)
        M1, M2 = len(s.db1), len(s.db2)
        if not (1 <= a <= M1 and 1 <= b <= M2):
            return problems + [f"answer indices ({a},{b}) out of range"]
        mul, G, decodable, kernel = self._pair(text, s, a, b)
        rows_a, rows_b = len(s.db1[a - 1]), len(s.db2[b - 1])
        KL = K * L
        for i in range(blocks):
            p1 = rest[3 + 2 * i].split()
            p2 = rest[4 + 2 * i].split()
            if p1[:3] != ["block", str(i + 1), "db1"] or p2[:3] != ["block", str(i + 1), "db2"]:
                problems.append(f"block {i + 1} lines are malformed")
                break
            y = list(map(int, p1[3:])) + list(map(int, p2[3:]))
            if len(p1) - 3 != rows_a or len(p2) - 3 != rows_b:
                problems.append(f"block {i + 1} carries {len(y)} symbols, expected {rows_a + rows_b}")
                break
            w = [messages[k][i * L + l] for k in range(K) for l in range(L)]
            resid = []
            for row, yi in zip(G, y):
                acc = yi
                for c, wc in zip(row[:KL], w):
                    acc ^= mul[c][wc]
                resid.append(acc)
            for u in kernel:
                acc = 0
                for c, v in zip(u, resid):
                    acc ^= mul[c][v]
                if acc:
                    problems.append(f"block {i + 1} symbols fit no randomness for these messages")
                    break
            else:
                continue
            break
        tail = rest[3 + 2 * blocks :]
        theta = int(tail[0].split()[1])
        if not decodable or theta != decodable[0]:
            problems.append(f"decoded-index {theta}, but pair ({a},{b}) decodes {decodable}")
        decoded = list(map(int, tail[1].split()[1:]))
        if not 1 <= theta <= K or decoded != messages[theta - 1]:
            problems.append(f"decoded symbols differ from message {theta}")
        bits = math.ceil(math.log2(M1)) + math.ceil(math.log2(M2))
        want = f"download symbols {blocks * (rows_a + rows_b)} index-bits {bits}"
        if tail[2] != want:
            problems.append(f"{tail[2]!r}, expected {want!r}")
        if len(tail) != 3:
            problems.append("trailing lines after the download counts")
        return problems


# --- search ---------------------------------------------------------------

def search_pool_size(K: int, L: int, R: int, m: int, max_len: int) -> int:
    """Answer maps that reveal nothing about any single message on their own."""
    mul = gf_mul_table(m)
    n = K * L + R
    vectors = list(itertools.product(range(1 << m), repeat=n))
    count = 0
    for nrows in range(1, max_len + 1):
        for rows in itertools.product(vectors, repeat=nrows):
            rows = [list(r) for r in rows]
            full = rank(rows, mul)
            leaks = False
            for k in range(K):
                kept = [[v for j, v in enumerate(r) if not k * L <= j < (k + 1) * L] for r in rows]
                if rank(kept, mul) != full:
                    leaks = True
            count += not leaks
    return count


class SearchReference:
    """``rspir search --k 2 --r 1``: two classes, each passing brute-force verify."""

    CLASSES = 2

    def __init__(self, verify: VerifyReference) -> None:
        self.verify = verify
        self.examined = search_pool_size(2, 1, 1, 1, 1) ** 4
        self._seen: dict[str, list[str]] = {}

    def check(self, rc: int, out: str) -> list[str]:
        key = f"{rc}\n{out}"
        if key not in self._seen:
            self._seen[key] = self._check(rc, out)
        return self._seen[key]

    def _check(self, rc: int, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        head, *chunks = out.split("\n\n")
        want = f"found {self.CLASSES} scheme class(es) in {self.examined} candidates"
        problems = [] if head == want else [f"{head!r}, expected {want!r}"]
        if len(chunks) != self.CLASSES:
            problems.append(f"{len(chunks)} schemes printed, expected {self.CLASSES}")
        texts = [c if c.endswith("\n") else c + "\n" for c in chunks]
        if len(set(texts)) != len(texts):
            problems.append("a class is printed twice")
        for text in texts:
            try:
                valid = self.verify.expected(text)[0] == 0
            except (ValueError, IndexError):
                valid = False
            if not valid:
                problems.append("a printed class is malformed or fails brute-force verification")
        return problems
