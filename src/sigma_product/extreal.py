"""Exact nonnegative extended-real arithmetic.

Values are either exact nonnegative rationals or the single point at
infinity.  Multiplication uses the measure-theoretic convention that
infinity times zero is zero; addition treats infinity as absorbing.
All values are immutable and hashable.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Union

from sigma_product.errors import ParseError, SizeLimit
from sigma_product.frozen import Frozen

Rational = Fraction

RationalLike = Union[int, Fraction]


@total_ordering
class ExtNonNeg(Frozen):
    """A nonnegative rational, or infinity.

    Supports ``+``, ``*`` and total ordering.  The canonical text form is
    ``p/q`` (just ``n`` for integers) for finite values and ``inf`` for
    infinity; ``parse`` inverts it bit-exactly.
    """

    __slots__ = ("_value",)

    def __init__(self, value: RationalLike | None):
        if value is not None:
            value = Fraction(value)
            if value < 0:
                raise ValueError(f"extended value must be nonnegative, got {value}")
        object.__setattr__(self, "_value", value)

    @staticmethod
    def of(value: RationalLike | ExtNonNeg) -> ExtNonNeg:
        if isinstance(value, ExtNonNeg):
            return value
        return ExtNonNeg(value)

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def is_zero(self) -> bool:
        return self._value == 0

    @property
    def finite(self) -> Fraction:
        """The rational payload; raises on infinity."""
        if self._value is None:
            raise ValueError("value is infinite")
        return self._value

    def __add__(self, other: ExtNonNeg) -> ExtNonNeg:
        other = ExtNonNeg.of(other)
        if self._value is None or other._value is None:
            return INF
        return ExtNonNeg(self._value + other._value)

    __radd__ = __add__

    def __mul__(self, other: ExtNonNeg) -> ExtNonNeg:
        other = ExtNonNeg.of(other)
        if self._value is None:
            return ZERO if other.is_zero else INF
        if other._value is None:
            return ZERO if self.is_zero else INF
        return ExtNonNeg(self._value * other._value)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExtNonNeg(other)
        if not isinstance(other, ExtNonNeg):
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExtNonNeg(other)
        if not isinstance(other, ExtNonNeg):
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self) -> int:
        # as the bare Fraction, since ExtNonNeg(2) == 2; INF as None
        return hash(self._value)

    def __str__(self) -> str:
        return "inf" if self._value is None else render_rational(self._value)

    def __repr__(self) -> str:
        return f"ExtNonNeg({self})"

    @staticmethod
    def parse(text: str) -> ExtNonNeg:
        """``inf``, or a nonnegative number as ``parse_rational`` reads it;
        a negative one raises ParseError at the column where it starts."""
        if text.strip() == "inf":
            return INF
        value = parse_rational(text)
        if value < 0:
            raise ParseError("extended value must be nonnegative", 1, _start_column(text, 1))
        return ExtNonNeg(value)


ZERO = ExtNonNeg(0)
ONE = ExtNonNeg(1)
INF = ExtNonNeg(None)


def render_rational(value: Fraction) -> str:
    """Canonical ``p/q`` rendering; integers render without a denominator.
    A numerator or denominator with more digits than Python converts to
    text (``sys.get_int_max_str_digits()``) raises SizeLimit."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise SizeLimit(
            f"number has more than {sys.get_int_max_str_digits()} digits to print"
        ) from None


def parse_rational(text: str) -> Fraction:
    """The number written ``n`` or ``n/d`` with integers n and d.  A part
    that is not an integer or has more digits than Python converts from
    text (``sys.get_int_max_str_digits()``), or a zero denominator, raises
    ParseError at line 1, at the column where that part starts."""
    num, slash, den = text.partition("/")
    value = Fraction(_parse_int(num, 1))
    if slash:
        column = len(num) + 2
        divisor = _parse_int(den, column)
        if divisor == 0:
            raise ParseError("zero denominator", 1, _start_column(den, column))
        value /= divisor
    return value


def _parse_int(part: str, column: int) -> int:
    try:
        return int(part)
    except ValueError:
        if part.strip().lstrip("+-").replace("_", "").isdecimal():
            message = f"integer literal has more than {sys.get_int_max_str_digits()} digits"
        else:
            message = "not a rational number"
        raise ParseError(message, 1, _start_column(part, column)) from None


def _start_column(part: str, column: int) -> int:
    """The column of part's first non-blank character, part starting at column."""
    return column + len(part) - len(part.lstrip())


def ext_sum(terms: Iterable[ExtNonNeg]) -> ExtNonNeg:
    total = ZERO
    for term in terms:
        total = total + term
    return total


def sum_series(series) -> ExtNonNeg:
    """Exact value of a series that carries its closed form, such as a
    measure's weight rule."""
    return series.total()
