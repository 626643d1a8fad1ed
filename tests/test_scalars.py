from fractions import Fraction

import pytest

from gradelie.scalars import Q, ScalarParseError, format_scalar, parse_scalar


def test_basic_arithmetic():
    z = Q(1, 2)
    w = Q("1/2", "-1/3")
    assert z + w == Q(Fraction(3, 2), Fraction(5, 3))
    assert z * Q(0, 1) == Q(-2, 1)
    assert (z - z).is_zero()
    assert -z == Q(-1, -2)


def test_division_exact():
    z = Q(1, 1)
    assert z / z == Q(1)
    assert Q(2) / Q(0, 1) == Q(0, -2)
    with pytest.raises(ZeroDivisionError):
        Q(1) / Q(0)


def test_conjugate_and_norm():
    z = Q("2/3", "-1/5")
    assert z.conjugate() == Q("2/3", "1/5")
    assert z * z.conjugate() == Q(Fraction(4, 9) + Fraction(1, 25))


def test_parse_forms():
    assert parse_scalar("3") == Q(3)
    assert parse_scalar("-4/7") == Q("-4/7")
    assert parse_scalar("2i") == Q(0, 2)
    assert parse_scalar("-1/2i") == Q(0, "-1/2")
    assert parse_scalar("1+1i") == Q(1, 1)
    assert parse_scalar("-3/4-5/6i") == Q("-3/4", "-5/6")


def test_parse_rejects_junk():
    for bad in ("0.5", "1e3", "i", "+i", "1+i", "2/4", "3/0", "4/1", "1 + 2i", ""):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_format_round_trip():
    values = [Q(0), Q(5), Q(-1, 0), Q(0, 1), Q(0, -1), Q("1/2", "3/4"), Q("-2/3", -5)]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


def test_immutability_and_hash():
    z = Q(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(0)
    assert hash(Q(1, 2)) == hash(Q(1, 2))
    assert Q(3) == 3 and 3 == Q(3)
