"""Products of arbitrary measures on rectangle unions.

The product is determined by two rules: on rectangles with both sides of
finite measure it is the product of the side values, and any nonempty
rectangle with a non-sigma-finite side gets measure infinity, even when
the plain product of side values would be zero.  Sigma-finiteness of a
rectangle union is decided per disjoint rectangle by boxing the sides.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from sigma_product.errors import UniverseMismatch
from sigma_product.extreal import INF, ZERO, ExtNonNeg
from sigma_product.finset import FinSet, product_set
from sigma_product.frozen import Frozen
from sigma_product.measures import (
    FINITE,
    NOT_SIGMA_FINITE,
    SIGMA_FINITE_INFINITE,
    FinitenessClass,
    FiniteTabulated,
    Measure,
)
from sigma_product.rectset import RectUnion
from sigma_product.sigma import product_sigma_ring


class ProductMeasure(Frozen, Measure):
    """The unique product of two arbitrary measures, evaluated on finite
    unions of rectangles."""

    __slots__ = ("left", "right")

    def __init__(self, left: Measure, right: Measure):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def universe(self) -> tuple:
        return ("prod", self.left.universe, self.right.universe)

    def check_universe(self, u: RectUnion) -> None:
        if not isinstance(u, RectUnion):
            raise UniverseMismatch("product measures evaluate rectangle unions")
        if u.is_empty:
            return
        if u.universe != self.universe:
            raise UniverseMismatch("rectangle union over different component universes")

    def rect_class(self, a, b) -> FinitenessClass:
        """Classify a single rectangle a x b by its sides."""
        if a.is_empty or b.is_empty:
            return FINITE
        ca = self.left.finiteness(a)
        cb = self.right.finiteness(b)
        if ca is NOT_SIGMA_FINITE or cb is NOT_SIGMA_FINITE:
            return NOT_SIGMA_FINITE
        if ca is FINITE and cb is FINITE:
            return FINITE
        return SIGMA_FINITE_INFINITE

    def evaluate(self, u: RectUnion) -> Tuple[ExtNonNeg, FinitenessClass]:
        """The value and the finiteness class of a rectangle union, with
        each rectangle classified once; the class is value-aware on the
        sigma-finite side."""
        self.check_universe(u)
        rects = u.rects
        for a, b in rects:
            if self.rect_class(a, b) is NOT_SIGMA_FINITE:
                return INF, NOT_SIGMA_FINITE
        total = ZERO
        for a, b in rects:
            total = total + self.left.measure(a) * self.right.measure(b)
        return total, FINITE if total.is_finite else SIGMA_FINITE_INFINITE

    def measure(self, u: RectUnion) -> ExtNonNeg:
        return self.evaluate(u)[0]

    def finiteness(self, u: RectUnion) -> FinitenessClass:
        return self.evaluate(u)[1]

    set_class = finiteness

    def render(self) -> str:
        return f"product({self.left.render()}, {self.right.render()})"


def product3_eval(
    m1: Measure,
    m2: Measure,
    m3: Measure,
    triples: Sequence[Tuple[object, object, object]],
) -> ExtNonNeg:
    """Evaluate a union of triple rectangles under both bracketings and
    return the common value."""
    left_pm = ProductMeasure(ProductMeasure(m1, m2), m3)
    right_pm = ProductMeasure(m1, ProductMeasure(m2, m3))
    left_u = RectUnion([(RectUnion([(a, b)]), c) for a, b, c in triples])
    right_u = RectUnion([(a, RectUnion([(b, c)])) for a, b, c in triples])
    v_left = left_pm.measure(left_u)
    v_right = right_pm.measure(right_u)
    assert v_left == v_right, "product bracketings disagree"
    return v_left


def finite_product_measure(mu: FiniteTabulated, nu: FiniteTabulated) -> FiniteTabulated:
    """The product measure on the product sigma-ring of two tabulated
    measures, as atom weights: each product atom is one cell a x b."""
    ring = product_sigma_ring(mu.ring, nu.ring)
    weights: Dict[FinSet, ExtNonNeg] = {}
    for a, wa in zip(mu.atoms, mu.weights):
        for b, wb in zip(nu.atoms, nu.weights):
            # a nonempty rectangle with a non-sigma-finite side gets INF
            finite = wa.is_finite and wb.is_finite
            weights[product_set(a, b, ring.ground)] = wa * wb if finite else INF
    return FiniteTabulated(ring, weights)
