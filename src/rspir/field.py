"""Exact arithmetic in the binary extension fields GF(2^m), m = 1..4.

Elements are plain ints in [0, 2^m). Addition is bitwise XOR; multiplication
is carry-less polynomial multiplication reduced by a fixed irreducible
polynomial per degree, so results are bit-exact and portable.

That product and square-and-multiply inversion only build the per-degree
tables, once per degree on first use: ``mul_rows[e][x]`` is e*x, and each
row is 256 bytes long so it doubles as a ``bytes.translate`` table;
``inverses[x]`` is the inverse of x. ``add``, ``mul`` and ``inv`` keep their
range checks; hot loops check their operands once and index the tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

# Lexicographically least irreducible polynomial per extension degree,
# written as an int with bit i for the x^i coefficient. Degree 1 needs no
# reduction (multiplication in GF(2) is AND).
REDUCTION_POLYS = {
    2: 0b111,      # x^2 + x + 1
    3: 0b1011,     # x^3 + x + 1
    4: 0b10011,    # x^4 + x + 1
}

SUPPORTED_DEGREES = (1, 2, 3, 4)


@dataclass(frozen=True)
class FieldSpec:
    """A binary extension field GF(2^m) with a fixed reduction polynomial."""

    m: int = 1

    def __post_init__(self) -> None:
        if self.m not in SUPPORTED_DEGREES:
            raise ValueError(f"unsupported extension degree m={self.m}; supported: {SUPPORTED_DEGREES}")

    @property
    def q(self) -> int:
        return 1 << self.m

    @property
    def reduction_poly(self) -> int | None:
        return REDUCTION_POLYS.get(self.m)

    def check(self, x: int) -> int:
        if not 0 <= x < self.q:
            raise ValueError(f"{x} is not an element of GF(2^{self.m})")
        return x

    def add(self, x: int, y: int) -> int:
        """Field addition (characteristic 2, so also subtraction)."""
        self.check(x)
        self.check(y)
        return x ^ y

    @property
    def mul_rows(self) -> tuple[bytes, ...]:
        """Row e maps x to e*x; each row is a 256-byte ``bytes.translate`` table."""
        return _tables(self.m)[0]

    @property
    def inverses(self) -> tuple[int, ...]:
        """inverses[x] * x == 1 for x != 0; the entry at 0 is a placeholder 0."""
        return _tables(self.m)[1]

    def mul(self, x: int, y: int) -> int:
        """Field multiplication, by table lookup."""
        self.check(x)
        self.check(y)
        return self.mul_rows[x][y]

    def inv(self, x: int) -> int:
        """Multiplicative inverse; zero has none."""
        self.check(x)
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.inverses[x]

    def elements(self) -> range:
        return range(self.q)


GF2 = FieldSpec(1)


def _carryless_mul(m: int, x: int, y: int) -> int:
    """Carry-less product of x and y reduced mod the degree-m polynomial."""
    if m == 1:
        return x & y
    poly = REDUCTION_POLYS[m]
    top = 1 << m
    res = 0
    for _ in range(m):
        if y & 1:
            res ^= x
        y >>= 1
        x <<= 1
        if x & top:
            x ^= poly
    return res


def _power_inverse(m: int, x: int) -> int:
    """x^(q-2) by square and multiply, the inverse of nonzero x."""
    result, base, e = 1, x, (1 << m) - 2
    while e:
        if e & 1:
            result = _carryless_mul(m, result, base)
        base = _carryless_mul(m, base, base)
        e >>= 1
    return result


@lru_cache(maxsize=None)
def _tables(m: int) -> tuple[tuple[bytes, ...], tuple[int, ...]]:
    q = 1 << m
    pad = bytes(256 - q)
    mul_rows = tuple(bytes(_carryless_mul(m, e, x) for x in range(q)) + pad for e in range(q))
    inverses = (0,) + tuple(_power_inverse(m, x) for x in range(1, q))
    return mul_rows, inverses
