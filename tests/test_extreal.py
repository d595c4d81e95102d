from fractions import Fraction

import pytest

from sigma_product.errors import ParseError, SizeLimit
from sigma_product.extreal import (
    INF,
    ZERO,
    ExtNonNeg,
    ext_sum,
    parse_rational,
    render_rational,
    sum_series,
)
from sigma_product.measures import ConstantWeights, GeometricWeights


def F(text: str) -> ExtNonNeg:
    return ExtNonNeg.parse(text)


# A grid of values for exhaustive law checks: zero, infinity, integers,
# fractions of mixed size.
GRID = [
    ZERO,
    INF,
    ExtNonNeg(1),
    ExtNonNeg(2),
    ExtNonNeg(3),
    ExtNonNeg(7),
    ExtNonNeg(100),
    ExtNonNeg(Fraction(1, 2)),
    ExtNonNeg(Fraction(1, 3)),
    ExtNonNeg(Fraction(2, 3)),
    ExtNonNeg(Fraction(3, 4)),
    ExtNonNeg(Fraction(5, 6)),
    ExtNonNeg(Fraction(7, 2)),
    ExtNonNeg(Fraction(22, 7)),
    ExtNonNeg(Fraction(1, 100)),
    ExtNonNeg(Fraction(97, 13)),
    ExtNonNeg(Fraction(1000003, 7)),
    ExtNonNeg(Fraction(1, 1024)),
    ExtNonNeg(Fraction(13, 11)),
    ExtNonNeg(Fraction(5, 999)),
]


def test_add_examples():
    assert F("1/2") + F("1/3") == F("5/6")
    assert INF + ZERO == INF
    assert INF + INF == INF


def test_mul_examples():
    assert INF * ZERO == ZERO
    assert ZERO * INF == ZERO
    assert INF * F("3/2") == INF
    assert F("2/3") * F("3/4") == F("1/2")


def test_grid_commutative_associative_distributive():
    assert len(GRID) >= 20
    for a in GRID:
        for b in GRID:
            assert a + b == b + a
            assert a * b == b * a
    for a in GRID:
        for b in GRID:
            for c in GRID:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_grid_monotonicity():
    for a in GRID:
        for a2 in GRID:
            if not a <= a2:
                continue
            for b in GRID:
                for b2 in GRID:
                    if b <= b2:
                        assert a + b <= a2 + b2
                        assert a * b <= a2 * b2


def test_ordering():
    assert ZERO < ExtNonNeg(1) < INF
    assert not INF < INF
    assert INF <= INF
    assert max(GRID) == INF


def test_finite_terms_sum():
    s = [ExtNonNeg(1), ExtNonNeg(Fraction(1, 2)), ExtNonNeg(Fraction(1, 4))]
    assert ext_sum(s) == F("7/4")
    assert ext_sum([]) == ZERO
    assert ext_sum([ExtNonNeg(1), INF, ExtNonNeg(2)]) == INF


def geometric_partial_sum(first: Fraction, ratio: Fraction, n: int) -> Fraction:
    """Independent term-by-term accumulation, no closed form."""
    total = Fraction(0)
    term = Fraction(first)
    for _ in range(n):
        total += term
        term *= ratio
    return total


@pytest.mark.parametrize(
    "first,ratio,terms",
    [
        (Fraction(1), Fraction(1, 2), 64),
        (Fraction(3, 4), Fraction(1, 3), 64),
        (Fraction(2), Fraction(9, 10), 1000),
        (Fraction(0), Fraction(1, 2), 64),
    ],
)
def test_geometric_against_partial_sums(first, ratio, terms):
    closed = sum_series(GeometricWeights(first, ratio))
    assert closed.is_finite
    partial = geometric_partial_sum(first, ratio, terms)
    # The closed form dominates every partial sum; with enough terms the
    # truncation error drops below 2^-40.
    assert partial <= closed.finite
    if first > 0:
        assert closed.finite - partial < Fraction(1, 2**40) * max(
            Fraction(1), closed.finite
        )


def test_geometric_example_value():
    assert sum_series(GeometricWeights(1, Fraction(1, 2))) == ExtNonNeg(2)


def test_geometric_validation():
    with pytest.raises(ValueError):
        GeometricWeights(1, 1)
    with pytest.raises(ValueError):
        GeometricWeights(-1, Fraction(1, 2))


def test_constant_tail():
    assert sum_series(ConstantWeights(ExtNonNeg(1))) == INF
    assert sum_series(ConstantWeights(ZERO)) == ZERO
    assert sum_series(ConstantWeights(INF)) == INF


def test_rendering():
    assert str(F("5/6")) == "5/6"
    assert str(ExtNonNeg(3)) == "3"
    assert str(INF) == "inf"
    assert render_rational(Fraction(-7, 3)) == "-7/3"
    assert parse_rational("-7/3") == Fraction(-7, 3)
    for v in GRID:
        assert ExtNonNeg.parse(str(v)) == v


def test_nonnegative_enforced():
    with pytest.raises(ValueError):
        ExtNonNeg(Fraction(-1, 2))


def test_immutability_and_hash():
    with pytest.raises(AttributeError):
        INF._value = 3  # type: ignore[misc]
    assert len({ZERO, ExtNonNeg(0), INF, ExtNonNeg(None)}) == 2


def test_hash_agrees_with_equality_on_rationals():
    for value in (0, 2, Fraction(5, 2), Fraction(-0), 10**30):
        assert ExtNonNeg(value) == value and hash(ExtNonNeg(value)) == hash(value)
    assert 2 in {ExtNonNeg(2)} and ExtNonNeg(2) in {2}
    assert Fraction(1, 3) in {ExtNonNeg(Fraction(1, 3)): "third"}
    assert {ExtNonNeg(1), 1, Fraction(1)} == {1}
    assert INF in {ExtNonNeg(None)} and 0 not in {INF}


def test_number_too_long_to_print_is_a_size_limit(digit_limit):
    big = 10**digit_limit  # one digit past the limit
    assert render_rational(Fraction(big - 1)) == "9" * digit_limit
    for value in (Fraction(big), Fraction(1, big), Fraction(-big, 7)):
        with pytest.raises(SizeLimit, match=rf"more than {digit_limit} digits"):
            render_rational(value)
    with pytest.raises(SizeLimit):
        str(ExtNonNeg(big))


def parse_error_at(parse, text):
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert caught.value.kind == "parse-error" and caught.value.line == 1
    return caught.value.column, str(caught.value)


@pytest.mark.parametrize("parse", [parse_rational, ExtNonNeg.parse])
def test_unreadable_number_is_a_parse_error(parse, digit_limit):
    long = "1" + "0" * digit_limit
    too_long = f"line 1, column 1: integer literal has more than {digit_limit} digits"
    assert parse_error_at(parse, long) == (1, too_long)
    assert parse_error_at(parse, "2/" + long)[0] == 3
    assert parse_error_at(parse, "1/0") == (3, "line 1, column 3: zero denominator")
    assert parse_error_at(parse, " 5 / 0")[0] == 6
    for text, column in (("abc", 1), ("  1.5", 3), ("", 1), ("3/", 3), ("3/x", 3), ("1/2/3", 3)):
        message = f"line 1, column {column}: not a rational number"
        assert parse_error_at(parse, text) == (column, message)


def test_negative_extended_value_is_a_parse_error():
    assert parse_rational(" -3/4") == Fraction(-3, 4)
    for text, column in (("-1", 1), (" -3/4", 2), ("3/-4", 1)):
        assert parse_error_at(ExtNonNeg.parse, text) == (
            column, f"line 1, column {column}: extended value must be nonnegative"
        )
    assert ExtNonNeg.parse(" inf ") == INF and ExtNonNeg.parse("0/5") == ZERO


def test_ext_sum_helper():
    assert ext_sum([ExtNonNeg(1), ExtNonNeg(Fraction(1, 2))]) == F("3/2")
    assert ext_sum([]) == ZERO
