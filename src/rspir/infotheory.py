"""Shannon entropy and mutual information over exactly represented joints.

Outcome probabilities are rationals whose denominators are powers of the
field size, so for linear schemes every entropy is a dyadic-exponent sum
and comes out as an exact ``Fraction``. The float fallback only triggers
for distributions this package never produces on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping


@dataclass(frozen=True)
class JointDistribution:
    """Finite distribution over value tuples with exact probabilities."""

    outcomes: tuple[tuple[Hashable, Fraction], ...]
    q: int = 2

    def __post_init__(self) -> None:
        total = sum((p for _, p in self.outcomes), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for _, p in self.outcomes):
            raise ValueError("negative probability")
        for _, p in self.outcomes:
            if not _divides_power_of(p.denominator, self.q):
                raise ValueError(f"denominator of {p} does not divide a power of q={self.q}")

    @classmethod
    def from_counts(cls, counts: Mapping[Hashable, int], total: int, q: int = 2) -> JointDistribution:
        items = sorted(counts.items(), key=lambda kv: repr(kv[0]))
        return cls(tuple((v, Fraction(c, total)) for v, c in items if c), q)

    def marginal(self, component: int) -> JointDistribution:
        """Marginal of one component of tuple-valued outcomes."""
        acc: dict[Hashable, Fraction] = {}
        for value, p in self.outcomes:
            key = value[component]
            acc[key] = acc.get(key, Fraction(0)) + p
        items = sorted(acc.items(), key=lambda kv: repr(kv[0]))
        return JointDistribution(tuple(items), self.q)


def _divides_power_of(n: int, base: int) -> bool:
    """True when n divides base**k for some k (reduced fractions shrink denominators)."""
    if n < 1:
        return False
    while n > 1:
        g = math.gcd(n, base)
        if g == 1:
            return False
        while n % g == 0:
            n //= g
    return True


def _dyadic_exponent(p: Fraction) -> int | None:
    """t such that p == 2**-t, or None."""
    if p.numerator != 1:
        return None
    d = p.denominator
    t = d.bit_length() - 1
    return t if (1 << t) == d else None


def entropy(d: JointDistribution, base: str = "q-ary") -> Fraction | float:
    """Shannon entropy, exact whenever all probabilities are powers of 1/2.

    ``base="q-ary"`` measures in field symbols (log base q), ``base="bits"``
    in bits. Zero-probability outcomes contribute nothing.
    """
    if base not in ("q-ary", "bits"):
        raise ValueError(f"unknown base {base!r}")
    m = d.q.bit_length() - 1
    bits = Fraction(0)
    exact = True
    for _, p in d.outcomes:
        if p == 0:
            continue
        t = _dyadic_exponent(p)
        if t is None:
            exact = False
            break
        bits += p * t
    if exact:
        return bits if base == "bits" else bits / m
    h = -sum(float(p) * math.log2(float(p)) for _, p in d.outcomes if p > 0)
    return h if base == "bits" else h / m


def mutual_information(joint: JointDistribution, base: str = "q-ary") -> Fraction | float:
    """I(X; Y) = H(X) + H(Y) - H(X, Y) for a joint over (x, y) tuples."""
    hx = entropy(joint.marginal(0), base)
    hy = entropy(joint.marginal(1), base)
    hxy = entropy(joint, base)
    if isinstance(hx, Fraction) and isinstance(hy, Fraction) and isinstance(hxy, Fraction):
        return hx + hy - hxy
    return float(hx) + float(hy) - float(hxy)


def is_independent(joint: JointDistribution) -> bool:
    """Exact zero-mutual-information test by count comparison, no logarithms."""
    px: dict[Hashable, Fraction] = {}
    py: dict[Hashable, Fraction] = {}
    pxy: dict[tuple[Hashable, Hashable], Fraction] = {}
    for (x, y), p in joint.outcomes:
        if p == 0:
            continue
        px[x] = px.get(x, Fraction(0)) + p
        py[y] = py.get(y, Fraction(0)) + p
        pxy[(x, y)] = pxy.get((x, y), Fraction(0)) + p
    for x, pxv in px.items():
        for y, pyv in py.items():
            if pxy.get((x, y), Fraction(0)) != pxv * pyv:
                return False
    return True
