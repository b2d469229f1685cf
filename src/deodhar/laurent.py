"""Exact Laurent polynomials in named variables over the rationals.

Coefficients of one-parameter subgroup factors live here: finitely many
monomials ``y1^2 * t^-1`` with exact rational coefficients, each stored as an
``int`` when it is integral and as a ``Fraction`` only when it is not.  All
arithmetic is exact; nothing in this package ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple


class Monomial(NamedTuple):
    """Product of named variables with nonzero integer exponents."""

    powers: tuple[tuple[str, int], ...]

    @staticmethod
    def from_mapping(exponents: Mapping[str, int]) -> "Monomial":
        return Monomial(tuple(sorted((v, e) for v, e in exponents.items() if e != 0)))

    @staticmethod
    def of(**exponents: int) -> "Monomial":
        return Monomial.from_mapping(exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged = dict(self.powers)
        for var, exp in other.powers:
            merged[var] = merged.get(var, 0) + exp
        return Monomial.from_mapping(merged)

    def exponent(self, var: str) -> int:
        return dict(self.powers).get(var, 0)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction | int:
        value = 1
        for var, exp in self.powers:
            base = Fraction(assignment[var])  # a negative exponent stays exact
            if exp < 0 and base == 0:
                raise ZeroDivisionError(f"variable {var} is 0 with exponent {exp}")
            value *= base ** exp
        return value

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        parts = [v if e == 1 else f"{v}^{e}" for v, e in self.powers]
        return "*".join(parts)


ONE_MONOMIAL = Monomial(())


def _coerce(value) -> Fraction | int:
    """The one canonical coefficient: an ``int`` if integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction) and value.denominator != 1:
        return value
    if isinstance(value, (int, Fraction)):
        return int(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class LaurentPoly:
    """Immutable Laurent polynomial: a finite map from Monomial to a nonzero
    coefficient, an ``int`` when integral and a ``Fraction`` otherwise."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _coerce(coeff)
                if coeff:
                    clean[mono] = coeff
        object.__setattr__(self, "_terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def constant(value) -> "LaurentPoly":
        return LaurentPoly({ONE_MONOMIAL: value})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly.constant(1)

    @staticmethod
    def variable(name: str, exp: int = 1) -> "LaurentPoly":
        return LaurentPoly({Monomial.of(**{name: exp}): 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in a deterministic order (sorted by monomial)."""
        return sorted(self._terms.items(), key=lambda item: item[0].powers)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        """The number of terms."""
        return len(self._terms)

    def single_term(self) -> tuple[Fraction, Monomial]:
        if len(self._terms) != 1:
            raise ValueError(f"{self} is not a single term")
        ((mono, coeff),) = self._terms.items()
        return coeff, mono

    # -- arithmetic --------------------------------------------------------

    # An operand that is no LaurentPoly (nor, for *, an int or Fraction) gives
    # NotImplemented, so Python raises TypeError.

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        result = dict(self._terms)
        for mono, coeff in other._terms.items():
            total = result.get(mono, 0) + coeff
            if total:
                result[mono] = total
            else:
                result.pop(mono, None)
        return LaurentPoly(result)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        result: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1 * m2
                total = result.get(mono, 0) + c1 * c2
                if total:
                    result[mono] = total
                else:
                    result.pop(mono, None)
        return LaurentPoly(result)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers of general polynomials are not defined")
        # the witness raises to the first and second power only: k - 1
        # products, with no squaring of the base that goes unused
        out = self if k else LaurentPoly.one()
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- evaluation and slicing --------------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction | int:
        total = 0
        for mono, coeff in self._terms.items():
            total += coeff * mono.evaluate(assignment)
        return _coerce(total)

    def terms_with_exponent(self, var: str, exp: int) -> "LaurentPoly":
        """Sub-polynomial made of the terms whose exponent of ``var`` is ``exp``."""
        return LaurentPoly(
            {m: c for m, c in self._terms.items() if m.exponent(var) == exp}
        )

    def max_exponent(self, var: str) -> int:
        if not self._terms:
            return 0
        return max(m.exponent(var) for m in self._terms)

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> list[dict]:
        out = []
        for mono, coeff in self.terms():
            out.append(
                {
                    "mono": {v: e for v, e in mono.powers},
                    "num": coeff.numerator,
                    "den": coeff.denominator,
                }
            )
        return out

    @staticmethod
    def from_obj(obj: Iterable[dict]) -> "LaurentPoly":
        terms: dict[Monomial, Fraction] = {}
        try:
            for item in obj:
                exponents = {str(k): _strict_int(v) for k, v in item["mono"].items()}
                coeff = Fraction(_strict_int(item["num"]), _strict_int(item.get("den", 1)))
                mono = Monomial.from_mapping(exponents)
                terms[mono] = terms.get(mono, 0) + coeff
        except (AttributeError, KeyError, TypeError, ZeroDivisionError):
            raise ValueError(
                'a coefficient is a list of {"mono": {var: int}, "num": int, "den": int != 0}'
            ) from None
        return LaurentPoly(terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            if mono == ONE_MONOMIAL:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(str(mono))
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _strict_int(value) -> int:
    # JSON input: a float or a string is an error, not something to truncate
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value
