import random
from fractions import Fraction

import pytest

from macaulay.coeff import PrimeField, RationalField, field_from_spec, is_prime
from macaulay.errors import UsageError


def test_fraction_addition_exact():
    Q = RationalField()
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_inverse():
    F = PrimeField(7)
    assert F.div(F.one, 5) == 3
    assert F.mul(5, 3) == 1


def test_division_by_zero():
    Q = RationalField()
    F = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        Q.div(Q.one, Q.zero)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 7)


def test_prime_validation():
    with pytest.raises(UsageError):
        PrimeField(6)
    with pytest.raises(UsageError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(32003)
    assert is_prime(32003)
    assert not is_prime(32001)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7), PrimeField(32003)])
def test_field_axioms_random(field):
    rng = random.Random(0)

    def sample():
        while True:
            a = field.from_int(rng.randrange(-50, 50))
            return a

    for _ in range(200):
        a, b, c = sample(), sample(), sample()
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one


def test_canonical_forms():
    Q = RationalField()
    v = Q.div(Q.from_int(4), Q.from_int(6))
    assert (v.numerator, v.denominator) == (2, 3)
    w = Q.parse("-3/9")
    assert (w.numerator, w.denominator) == (-1, 3)
    F = PrimeField(7)
    assert F.from_int(-1) == 6
    assert F.parse("-1") == 6
    assert 0 <= F.mul(6, 6) < 7


def test_field_binary_ops():
    Q = RationalField()
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.div(Fraction(1), Fraction(2)) == Fraction(1, 2)


def test_field_from_spec():
    assert field_from_spec("q") == RationalField()
    assert field_from_spec("fp:32003") == PrimeField(32003)
    with pytest.raises(UsageError):
        field_from_spec("fp:32001")
    with pytest.raises(UsageError):
        field_from_spec("r64")


def test_render_parse_round_trip():
    Q = RationalField()
    for text in ("5/6", "-7", "0", "22/7"):
        assert Q.render(Q.parse(text)) == text
    F = PrimeField(32003)
    assert F.render(F.parse("32004")) == "1"
