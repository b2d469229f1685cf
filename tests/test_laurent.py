import random
from enum import IntEnum
from fractions import Fraction

import pytest

from deodhar.laurent import LaurentPoly, Monomial


def test_monomial_normalization():
    assert Monomial.of(x=0, y=2) == Monomial.of(y=2)
    assert Monomial.of() == Monomial(())
    assert (Monomial.of(x=1) * Monomial.of(x=-1)) == Monomial(())


def test_basic_arithmetic():
    x = LaurentPoly.variable("x")
    y = LaurentPoly.variable("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert (x * 0).is_zero()
    assert x ** 3 == x * x * x


def test_power_makes_no_unused_product(monkeypatch):
    # x ** k is k - 1 products of x: no product with one, no squaring of
    # the base past the last one used
    calls = []
    mul = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    x = LaurentPoly.variable("x") + LaurentPoly.one()
    expected = LaurentPoly.one()
    for k in range(4):
        calls.clear()
        assert x ** k == expected
        assert len(calls) == max(k - 1, 0), k
        expected = mul(expected, x)


def test_negative_exponents_and_evaluation():
    t = LaurentPoly.variable("t", -2)
    z = LaurentPoly.variable("z")
    p = t + z
    assert p.evaluate({"t": Fraction(2), "z": Fraction(3)}) == Fraction(13, 4)
    with pytest.raises(ZeroDivisionError):
        p.evaluate({"t": Fraction(0), "z": Fraction(1)})


def test_exponent_slicing():
    t = LaurentPoly.variable("t")
    t_inv = LaurentPoly.variable("t", -1)
    z = LaurentPoly.variable("z")
    p = z + z * t_inv + z * t
    assert p.max_exponent("t") == 1
    assert p.terms_with_exponent("t", 0) == z
    with pytest.raises(ValueError):
        t ** -1


def test_single_term_and_constants():
    z = LaurentPoly({Monomial.of(z1=2): -1})
    value, mono = z.single_term()
    assert value == -1 and mono == Monomial.of(z1=2)
    with pytest.raises(ValueError):
        (z + LaurentPoly.one()).single_term()


def test_json_roundtrip():
    p = LaurentPoly.variable("z1", 2) - LaurentPoly.variable("t", -1) * Fraction(3, 2)
    assert LaurentPoly.from_obj(p.to_obj()) == p
    assert p.to_obj() == [
        {"mono": {"t": -1}, "num": -3, "den": 2},
        {"mono": {"z1": 2}, "num": 1, "den": 1},
    ]


def _coefficient_types(poly):
    return [type(c) for _, c in poly.terms()]


def test_coefficients_are_int_when_integral():
    x = LaurentPoly.variable("x")
    assert _coefficient_types(LaurentPoly.constant(Fraction(4, 2))) == [int]
    assert _coefficient_types(LaurentPoly.constant(Fraction(2, 3))) == [Fraction]
    assert _coefficient_types(x * Fraction(1, 2) * 2) == [int]
    half = LaurentPoly.constant(Fraction(1, 2))
    assert _coefficient_types(half + half) == [int]
    parsed = LaurentPoly.from_obj(
        [{"mono": {"x": 1}, "num": 6, "den": 3}, {"mono": {}, "num": 5, "den": 1}]
    )
    assert _coefficient_types(parsed) == [int, int]
    assert parsed == 2 * x + 5 * LaurentPoly.one()
    one = LaurentPoly.one()
    assert _coefficient_types(((x + one) * (x - 2 * one)) ** 3) == [int] * 7


def test_coefficient_coercion():
    assert str(LaurentPoly.constant(True)) == "1"
    assert _coefficient_types(LaurentPoly.constant(True)) == [int]
    for bad in (1.5, "3", None):
        with pytest.raises(TypeError):
            LaurentPoly.constant(bad)


class _Level(IntEnum):
    TWO = 2


@pytest.mark.parametrize(
    "value, expected",
    [(True, 1), (_Level.TWO, 2), (Fraction(4, 2), 2), (7, 7)],
    ids=["bool", "int-enum", "integral-fraction", "int"],
)
def test_integral_coefficient_is_plain_int(value, expected):
    # the int fast path takes exactly int; a subclass or an integral
    # Fraction is converted to a plain int
    coeff, _ = LaurentPoly.constant(value).single_term()
    assert coeff == expected and type(coeff) is int


def test_foreign_operands_raise_type_error():
    # a constant is added as LaurentPoly.constant(c); a plain number is no
    # polynomial, and a float is no coefficient
    x = LaurentPoly.variable("x")
    for bad in (lambda: x + 1, lambda: 1 + x, lambda: x - 2, lambda: 2 - x,
                lambda: x * 0.5, lambda: 0.5 * x, lambda: x + "x", lambda: x * None):
        with pytest.raises(TypeError):
            bad()
    assert x * 2 == 2 * x == LaurentPoly({Monomial.of(x=1): 2})
    half = Fraction(1, 2)
    assert x * half == half * x == LaurentPoly({Monomial.of(x=1): half})
    assert x + LaurentPoly.constant(1) - LaurentPoly.constant(1) == x


def test_evaluation_stays_exact():
    value = LaurentPoly.variable("t", -2).evaluate({"t": 2})
    assert value == Fraction(1, 4) and type(value) is Fraction
    value = LaurentPoly({Monomial.of(t=2): 3}).evaluate({"t": Fraction(2)})
    assert value == 12 and type(value) is int


def test_int_and_fraction_built_polynomials_agree():
    mono = Monomial.of(x=2, y=-1)
    from_int = LaurentPoly({mono: 3, Monomial(()): -2})
    from_fraction = LaurentPoly({mono: Fraction(6, 2), Monomial(()): Fraction(-2)})
    assert from_int == from_fraction
    assert hash(from_int) == hash(from_fraction)
    assert str(from_int) == str(from_fraction) == "-2 + 3*x^2*y^-1"


def test_str_forms():
    q = LaurentPoly.variable("q")
    poly = q ** 3 - 2 * q ** 2 + 2 * q - LaurentPoly.one()
    assert str(poly) == "-1 + 2*q - 2*q^2 + q^3"
    assert str(LaurentPoly.zero()) == "0"


def test_ring_axioms_randomized():
    rng = random.Random(11)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            mono = Monomial.of(
                x=rng.randint(-2, 2), y=rng.randint(0, 2)
            )
            terms[mono] = Fraction(rng.randint(-5, 5))
        return LaurentPoly(terms)

    assignment = {"x": Fraction(3, 2), "y": Fraction(-2)}
    for _ in range(100):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b).evaluate(assignment) == a.evaluate(assignment) * b.evaluate(
            assignment
        )
