import itertools

import pytest

from rspir.field import GF2, REDUCTION_POLYS, FieldSpec


def test_field_sizes():
    for m in (1, 2, 3, 4):
        assert FieldSpec(m).q == 2**m
    with pytest.raises(ValueError):
        FieldSpec(0)
    with pytest.raises(ValueError):
        FieldSpec(5)


def test_gf2_basics():
    assert GF2.add(1, 1) == 0
    assert GF2.mul(1, 1) == 1
    assert GF2.mul(1, 0) == 0
    assert GF2.inv(1) == 1


def test_gf8_mul_against_log_table():
    # x is a generator of GF(8)* under x^3+x+1, so build exp/log tables by
    # repeated multiply-by-x and compare every product.
    field = FieldSpec(3)
    poly = REDUCTION_POLYS[3]

    def xtime(v):
        v <<= 1
        return v ^ poly if v & 0b1000 else v

    exp = [1]
    for _ in range(6):
        exp.append(xtime(exp[-1]))
    assert sorted(exp) == list(range(1, 8))
    log = {v: i for i, v in enumerate(exp)}

    for a in range(8):
        for b in range(8):
            expected = 0 if a == 0 or b == 0 else exp[(log[a] + log[b]) % 7]
            assert field.mul(a, b) == expected

    assert field.mul(0b010, 0b100) == 0b011


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_exhaustive(m):
    field = FieldSpec(m)
    q = field.q
    for x, y in itertools.product(range(q), repeat=2):
        assert field.add(x, y) == field.add(y, x)
        assert field.mul(x, y) == field.mul(y, x)
        assert field.add(x, x) == 0
        assert field.mul(x, 1) == x
        assert field.add(x, 0) == x
    for x, y, z in itertools.product(range(q), repeat=3):
        assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))
        assert field.mul(x, field.mul(y, z)) == field.mul(field.mul(x, y), z)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inverses(m):
    field = FieldSpec(m)
    for x in range(1, field.q):
        assert field.mul(x, field.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_operand_range_checked():
    with pytest.raises(ValueError):
        GF2.add(2, 0)
    with pytest.raises(ValueError):
        FieldSpec(2).mul(4, 1)


def longhand_mul(m, x, y):
    """Schoolbook carry-less product, then long division by the degree-m polynomial."""
    prod = 0
    for i in range(m):
        if y >> i & 1:
            prod ^= x << i
    for bit in reversed(range(m, 2 * m - 1)):
        if prod >> bit & 1:
            prod ^= REDUCTION_POLYS[m] << (bit - m)
    return prod


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_tables_match_longhand_arithmetic(m):
    field = FieldSpec(m)
    q = field.q
    assert len(field.mul_rows) == q
    for e, row in enumerate(field.mul_rows):
        assert len(row) == 256  # usable as a bytes.translate table
        assert list(row[:q]) == [longhand_mul(m, e, x) for x in range(q)]
        assert [field.mul(e, x) for x in range(q)] == list(row[:q])
    for x in range(1, q):
        assert longhand_mul(m, x, field.inverses[x]) == 1
        assert field.inv(x) == field.inverses[x]
