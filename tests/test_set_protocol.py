"""The set protocol: every set reports its own ``universe``, ``member`` and
``render``, and rectangle unions take all three from their sides.

The reference functions below are the type dispatch the protocol replaced,
except that a rectangle union's universe is read off its first rectangle
(the dispatch read two stored slots) and its membership off its sides.
"""

from fractions import Fraction
from itertools import product

import pytest

from sigma_product.finset import FinSet
from sigma_product.integration import SimpleFunction
from sigma_product.lineset import RealSet
from sigma_product.rectset import RectUnion

F = Fraction
G1, G2 = ("a", "b", "c"), (1, 2)
LINE_POINTS = (F(-1), F(0), F(1, 2), F(1), F(2), F(5), F(7), F(8))
LABELS = {G1: G1 + ("z",), G2: G2 + (3,)}


def reference_universe(s):
    if isinstance(s, RealSet):
        return ("line",)
    if isinstance(s, FinSet):
        return ("fin", s.ground)
    a, b = s.rects[0]
    return ("prod", reference_universe(a), reference_universe(b))


def reference_member(s, x):
    if isinstance(s, RealSet):
        return s.member(x)
    if isinstance(s, FinSet):
        return x in tuple(iter(s))
    return any(reference_member(a, x[0]) and reference_member(b, x[1]) for a, b in s.rects)


def samples(universe):
    if universe == ("line",):
        return LINE_POINTS
    if universe[0] == "fin":
        return LABELS[universe[1]]
    return tuple(product(samples(universe[1]), samples(universe[2])))


def iv(lo, hi):
    return RealSet.interval(F(lo), F(hi))


A, B, C = FinSet.of(G1, ["a", "c"]), FinSet.of(G2, [2]), FinSet.of(G1, ["b"])
FIN_RECTS = RectUnion([(A, B), (C, FinSet.full(G2))])
LINE_RECTS = RectUnion([(iv(0, 1), iv(0, 2)), (iv(1, 5), RealSet.points([F(7)]))])
NESTED = RectUnion([(RectUnion([(iv(0, 1), A)]), B), (RectUnion([(iv(2, 5), C)]), B)])
EMPTY_MEET = RectUnion([(A, B)]) & RectUnion([(C, B)])

# Each set, and a nonempty set whose universe it must report.
CASES = {
    "real": (iv(0, 1) - RealSet.points([F(1, 2)]) | RealSet.progression(5, 2), None),
    "fin": (A, None),
    "line-sided": (LINE_RECTS, None),
    "fin-sided": (FIN_RECTS, None),
    "union-sided": (NESTED, None),
    "empty-meet": (EMPTY_MEET, RectUnion([(A, B)])),
}


def test_real_set_has_both_countable_parts():
    s = CASES["real"][0]
    assert not s.excluded.is_empty and not s.included.is_empty


@pytest.mark.parametrize("name", sorted(CASES))
def test_universe_and_membership_match_the_reference(name):
    s, witness = CASES[name]
    universe = reference_universe(witness or s)
    assert s.universe == universe
    points = samples(universe)
    assert [s.member(x) for x in points] == [reference_member(s, x) for x in points]
    assert any(s.member(x) for x in points) != s.is_empty


def test_empty_union_has_no_universe():
    empty = RectUnion.empty()
    assert empty.universe is None and empty.render() == "()"
    assert not empty.member((F(0), F(0)))


def test_rendering_is_unchanged():
    assert FIN_RECTS.render() == "({a, c} x {2}) + ({b} x {1, 2})"
    assert repr(FIN_RECTS) == "RectUnion(({a, c} x {2}) + ({b} x {1, 2}))"
    assert repr(RectUnion([(RectUnion([(iv(0, 1), A)]), B)])) == (
        "RectUnion((([0, 1] x {a, c}) x {2}))"
    )
    f = SimpleFunction([(F(1, 2), A), (F(-3), C)])
    assert f.render() == "-3*ind({b}) + 1/2*ind({a, c})"
    g = SimpleFunction([(F(2), FIN_RECTS)])
    assert g.render() == "2*ind(({a, c} x {2}) + ({b} x {1, 2}))"
    assert A.render() == repr(A) == "{a, c}"
