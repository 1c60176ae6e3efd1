"""Exact verification of every RSPIR constraint from ranks and counts.

The user of answer pair (a, b) observes G X, where G stacks the pair's two
answer maps and X = (W, S) is uniform over F_q^(K*L+R). So every entropy
the model needs is a rank: H(G X) = rank G in q-ary units. Six checks per
scheme, each decided by integer ranks or counts, never by floating point:

* determinism        -- answers are fixed linear maps of (W, S)
* independence       -- the (W, S) joint factorizes, H(W,S) = K*L + R
* reliability        -- every answer pair pins down its decoded message
* database-privacy   -- observations carry zero information about the rest
* user-privacy-db1   -- decoded index uniform for each fixed db1 answer
* user-privacy-db2   -- same for each fixed db2 answer

Plus two audits: download cost / rate against the known capacities
(1/2 for K=2, 1/3 for K=3 and 4), and shared-randomness volume against
the known minima (L for K=2, 2L for K=3 and 4).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .decode import DecodeTable, derive_decode_table
from .field import FieldSpec
from .infotheory import JointDistribution, entropy, is_independent
from .linalg import FieldMatrix, rank, vstack
from .scheme import Scheme, answer_index_bits, validate_shape

CHECK_ORDER = (
    "determinism",
    "independence",
    "reliability",
    "database-privacy",
    "user-privacy-db1",
    "user-privacy-db2",
)

CAPACITY = {2: Fraction(1, 2), 3: Fraction(1, 3), 4: Fraction(1, 3)}
MIN_RANDOMNESS_PER_L = {2: 1, 3: 2, 4: 2}


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    witness: str | None = None
    measured: str | None = None


@dataclass(frozen=True)
class RateAudit:
    download_cost_symbols: int
    rate: Fraction
    capacity: Fraction | None
    capacity_gap: Fraction | None
    blocks: int | None = None
    finite_block_rate: Fraction | None = None

    @property
    def meets_capacity(self) -> bool | None:
        return None if self.capacity is None else self.rate == self.capacity


@dataclass(frozen=True)
class RandomnessAudit:
    randomness_symbols: int
    per_message_length: Fraction
    minimum_per_message_length: int | None
    gap: Fraction | None

    @property
    def matches_minimum(self) -> bool | None:
        return None if self.gap is None else self.gap == 0


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckRecord, ...]
    rate: RateAudit
    randomness: RandomnessAudit

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            line = f"CHECK {c.name} {'PASS' if c.passed else 'FAIL'}"
            if c.witness:
                line += f" {c.witness}"
            lines.append(line)
        lines.extend(measure_lines(self.rate, self.randomness))
        return lines

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"

    def summary(self) -> str:
        passed = sum(c.passed for c in self.checks)
        lines = [f"{passed}/{len(self.checks)} checks passed"]
        for c in self.checks:
            if not c.passed:
                lines.append(f"  {c.name} failed: {c.witness}")
        r = self.rate
        cap = "" if r.capacity is None else f" (capacity {r.capacity}, gap {r.capacity_gap})"
        lines.append(f"download cost {r.download_cost_symbols} symbols per block, rate {r.rate}{cap}")
        s = self.randomness
        minimum = "" if s.minimum_per_message_length is None else (
            f" (minimum {s.minimum_per_message_length}, gap {s.gap})"
        )
        lines.append(
            f"shared randomness {s.randomness_symbols} symbols per block, "
            f"{s.per_message_length} per message length{minimum}"
        )
        return "\n".join(lines) + "\n"


def measure_lines(rate: RateAudit, randomness: RandomnessAudit) -> list[str]:
    """The MEASURE lines of both audits, as ``verify`` and ``rate`` print them."""
    lines = [
        f"MEASURE download-cost-symbols {rate.download_cost_symbols}",
        f"MEASURE rate {rate.rate}",
        f"MEASURE randomness-symbols {randomness.randomness_symbols}",
        f"MEASURE randomness-per-message-length {randomness.per_message_length}",
    ]
    if rate.capacity is not None:
        lines.append(f"MEASURE capacity {rate.capacity}")
        lines.append(f"MEASURE capacity-gap {rate.capacity_gap}")
    if randomness.minimum_per_message_length is not None:
        lines.append(f"MEASURE min-randomness-per-message-length {randomness.minimum_per_message_length}")
        lines.append(f"MEASURE randomness-gap {randomness.gap}")
    if rate.blocks is not None:
        lines.append(f"MEASURE finite-block-rate-bits {rate.finite_block_rate}")
    return lines


def leaked_symbols(field: FieldSpec, m: FieldMatrix, cols: Iterable[int]) -> int:
    """I(X_cols; m X) in q-ary units for uniform X: the rank lost by dropping ``cols``.

    H(m X) = rank m, and given X_cols the rest of m X is the image of the
    remaining columns, so the information about X_cols is the difference.
    """
    return rank(field, m) - rank(field, m.drop_cols(cols))


def pair_leak(s: Scheme, map_a: FieldMatrix, map_b: FieldMatrix, theta: int) -> int:
    """What the pair's observation reveals about every message but ``theta``, in q-ary symbols."""
    others = [
        s.message_col(k, l)
        for k in range(1, s.K + 1) if k != theta
        for l in range(1, s.L + 1)
    ]
    return leaked_symbols(s.field, vstack(map_a, map_b), others)


def check_reliability(s: Scheme, t: DecodeTable) -> CheckRecord:
    """Each answer pair's observation determines the decoded message exactly.

    The decode table sets theta only when every symbol of W_theta lies in
    the row space of the pair's stacked map, that is, when W_theta is a
    fixed linear function of the observation; so a pair fails exactly when
    it has no theta.
    """
    for a in range(1, s.M1 + 1):
        for b in range(1, s.M2 + 1):
            if t.entry(a, b).theta is None:
                return CheckRecord(
                    "reliability", False, witness=f"pair ({a},{b}) decodes no message"
                )
    return CheckRecord("reliability", True, measured="0")


def check_database_privacy(s: Scheme, t: DecodeTable) -> CheckRecord:
    """Zero mutual information between each observation and the non-decoded messages.

    ``measured`` is the leak of the first leaking pair, in q-ary symbols.
    """
    for a in range(1, s.M1 + 1):
        for b in range(1, s.M2 + 1):
            theta = t.entry(a, b).theta
            if theta is None:
                return CheckRecord(
                    "database-privacy", False, witness=f"pair ({a},{b}) decodes no message"
                )
            leak = pair_leak(s, s.answer(1, a).map, s.answer(2, b).map, theta)
            if leak:
                return CheckRecord(
                    "database-privacy",
                    False,
                    witness=f"pair ({a},{b}) leaks about non-decoded messages",
                    measured=str(leak),
                )
    return CheckRecord("database-privacy", True, measured="0")


def check_user_privacy(s: Scheme, t: DecodeTable) -> tuple[CheckRecord, CheckRecord]:
    """Decoded-index uniformity per fixed answer, one record per database.

    The decoded index depends only on the pair (a, b) by construction, so
    under the databases' uniform independent answer selection the exact
    uniform law is equivalent to each value of [K] appearing M/K times per
    fixed row (database 1) and per fixed column (database 2).
    """
    grid = t.theta_grid()
    for a, row in enumerate(grid, start=1):
        for b, v in enumerate(row, start=1):
            if v is None:
                witness = f"pair ({a},{b}) decodes no message"
                return (
                    CheckRecord("user-privacy-db1", False, witness=witness),
                    CheckRecord("user-privacy-db2", False, witness=witness),
                )

    def uniform(counts: Counter, per: int) -> bool:
        return all(counts.get(k, 0) == per for k in range(1, s.K + 1))

    rec1 = CheckRecord("user-privacy-db1", True)
    if s.M2 % s.K:
        rec1 = CheckRecord("user-privacy-db1", False, witness=f"M2={s.M2} not a multiple of K")
    else:
        for a in range(1, s.M1 + 1):
            counts = Counter(grid[a - 1])
            if not uniform(counts, s.M2 // s.K):
                detail = " ".join(f"{k}:{counts.get(k, 0)}" for k in range(1, s.K + 1))
                rec1 = CheckRecord("user-privacy-db1", False, witness=f"a={a} counts {detail}")
                break

    rec2 = CheckRecord("user-privacy-db2", True)
    if s.M1 % s.K:
        rec2 = CheckRecord("user-privacy-db2", False, witness=f"M1={s.M1} not a multiple of K")
    else:
        for b in range(1, s.M2 + 1):
            counts = Counter(row[b - 1] for row in grid)
            if not uniform(counts, s.M1 // s.K):
                detail = " ".join(f"{k}:{counts.get(k, 0)}" for k in range(1, s.K + 1))
                rec2 = CheckRecord("user-privacy-db2", False, witness=f"b={b} counts {detail}")
                break

    return rec1, rec2


def check_determinism_and_independence(
    s: Scheme, joint: JointDistribution | None = None
) -> tuple[CheckRecord, CheckRecord]:
    """Structural determinism of answers plus exact factorization of (W, S).

    The model draws (W, S) uniformly from F_q^(K*L+R), which factorizes
    with H(W,S) = K*L + R by construction. Passing a ``joint`` replaces the
    model distribution, so a miswired simulation (randomness correlated
    with messages) can be diagnosed.
    """
    violations = validate_shape(s)
    if violations:
        det = CheckRecord("determinism", False, witness=violations[0])
    else:
        det = CheckRecord("determinism", True)

    if joint is None:
        return det, CheckRecord("independence", True, measured=str(s.n_cols))
    h = entropy(joint, "q-ary")
    expected = s.n_cols
    if not is_independent(joint):
        ind = CheckRecord(
            "independence", False,
            witness="joint of (W,S) does not factorize", measured=str(h),
        )
    elif h != expected:
        ind = CheckRecord(
            "independence", False,
            witness=f"H(W,S)={h}, expected {expected}", measured=str(h),
        )
    else:
        ind = CheckRecord("independence", True, measured=str(h))
    return det, ind


def audit_rate(s: Scheme, blocks: int | None = None) -> RateAudit:
    """Download cost in symbols per block and rate against known capacity.

    Asymptotic rate ignores the one-time answer-index transmission; the
    finite-block figure charges ceil(log2 M1) + ceil(log2 M2) index bits
    once over the given number of blocks.
    """
    d = s.download_cost
    rate = Fraction(s.L, d)
    cap = CAPACITY.get(s.K)
    gap = (cap - rate) if cap is not None else None
    finite = None
    if blocks is not None:
        if blocks < 1:
            raise ValueError("blocks must be at least 1")
        payload = blocks * s.L * s.field.m
        downloaded = blocks * d * s.field.m + answer_index_bits(s)
        finite = Fraction(payload, downloaded)
    return RateAudit(d, rate, cap, gap, blocks, finite)


def audit_randomness(s: Scheme) -> RandomnessAudit:
    """Shared randomness volume H(S) against the known per-K minimum.

    S is R uniform independent field symbols per block, so H(S) is exactly
    R q-ary units.
    """
    per_l = Fraction(s.R, s.L)
    minimum = MIN_RANDOMNESS_PER_L.get(s.K)
    gap = (per_l - minimum) if minimum is not None else None
    return RandomnessAudit(s.R, per_l, minimum, gap)


def verify_scheme(
    s: Scheme,
    table: DecodeTable | None = None,
    joint: JointDistribution | None = None,
    blocks: int | None = None,
) -> VerificationReport:
    """Run all six checks and both audits; exact, no tolerances anywhere."""
    if table is None:
        table = derive_decode_table(s)
    det, ind = check_determinism_and_independence(s, joint)
    rel = check_reliability(s, table)
    dbp = check_database_privacy(s, table)
    up1, up2 = check_user_privacy(s, table)
    return VerificationReport(
        checks=(det, ind, rel, dbp, up1, up2),
        rate=audit_rate(s, blocks),
        randomness=audit_randomness(s),
    )
