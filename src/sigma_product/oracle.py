"""Brute-force ground truth on small finite spaces.

Everything here recomputes results from first principles with naive
representations (frozensets of labels, explicit enumeration) and shares
no set or measure machinery with the engine modules; only the exact
extended-real carrier is reused.  Intended for tests.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple, TypeAlias

from sigma_product.errors import SizeLimit
from sigma_product.extreal import INF, ZERO, ExtNonNeg

NaiveSet = FrozenSet


def powerset(items: Sequence) -> List[FrozenSet]:
    items = list(items)
    return [
        frozenset(c) for c in chain.from_iterable(
            combinations(items, n) for n in range(len(items) + 1)
        )
    ]


def oracle_sigma_closure(
    ground: Sequence, family: Iterable[FrozenSet], limit: int = 1 << 16
) -> set[FrozenSet]:
    """Closure of the family under pairwise union and difference.

    Re-scans all pairs until a full pass adds nothing; no worklist.
    """
    if len(tuple(ground)) > 16:
        raise SizeLimit("oracle closure limited to grounds of size 16")
    closed = {frozenset()} | {frozenset(a) for a in family}
    while True:
        additions = set()
        for a in closed:
            for b in closed:
                u = a | b
                if u not in closed:
                    additions.add(u)
                d = a - b
                if d not in closed:
                    additions.add(d)
        if not additions:
            return closed
        closed |= additions
        if len(closed) > limit:
            raise SizeLimit(f"oracle closure exceeded {limit} members")


# A string: typing's subscription cache would keep these classes, and every
# purged copy of the package with them, alive.
Weights: TypeAlias = "Dict[object, ExtNonNeg]"


def _finite_rectangles(mu: Weights, nu: Weights) -> List[FrozenSet]:
    """All rectangles A x B with both sides of finite total weight."""
    rects = []
    for a in powerset(list(mu)):
        if any(not mu[x].is_finite for x in a):
            continue
        for b in powerset(list(nu)):
            if any(not nu[y].is_finite for y in b):
                continue
            rects.append(frozenset((x, y) for x in a for y in b))
    return rects


def oracle_sigma_finite(mu: Weights, nu: Weights, subset: Iterable[Tuple]) -> bool:
    """Sigma-finiteness by literal cover search: the subset must fit under
    some union of finite-measure rectangles, and unions are monotone, so it
    suffices to compare with the union of all of them."""
    cover: set = set()
    for rect in _finite_rectangles(mu, nu):
        cover |= rect
    return set(subset) <= cover


def oracle_product_eval(
    mu: Weights, nu: Weights, subset: Iterable[Tuple]
) -> ExtNonNeg:
    """Definitional product value on a subset of the product ground."""
    if len(mu) > 4 or len(nu) > 4:
        raise SizeLimit("oracle product limited to 4x4 grounds")
    points = set(subset)
    if not points:
        return ZERO
    if not oracle_sigma_finite(mu, nu, points):
        return INF
    total = ZERO
    for x, y in points:
        total = total + mu[x] * nu[y]
    return total


def oracle_fubini(
    f: Dict[Tuple, ExtNonNeg], mu: Weights, nu: Weights
) -> Tuple[ExtNonNeg, ExtNonNeg, ExtNonNeg]:
    """Literal double sums in both orders plus the product-measure sum.

    ``f`` maps product-ground points to nonnegative coefficients; missing
    points count as zero.
    """
    if len(mu) > 4 or len(nu) > 4:
        raise SizeLimit("oracle fubini limited to 4x4 grounds")

    def coeff(x, y) -> ExtNonNeg:
        return f.get((x, y), ZERO)

    by_rows = ZERO
    for x in mu:
        inner = ZERO
        for y in nu:
            inner = inner + nu[y] * coeff(x, y)
        by_rows = by_rows + mu[x] * inner

    by_cols = ZERO
    for y in nu:
        inner = ZERO
        for x in mu:
            inner = inner + mu[x] * coeff(x, y)
        by_cols = by_cols + nu[y] * inner

    cover: set = set()
    for rect in _finite_rectangles(mu, nu):
        cover |= rect
    by_product = ZERO
    for x in mu:
        for y in nu:
            c = coeff(x, y)
            if c.is_zero:
                continue
            point_mass = mu[x] * nu[y] if (x, y) in cover else INF
            by_product = by_product + c * point_mass

    return by_product, by_rows, by_cols
