"""Measures on representable universes.

Every measure evaluates representable sets to exact extended values and
classifies them as finite, sigma-finite (with infinite value), or not
sigma-finite.  Real-line measures treat every representable set as
measurable; finite tabulated measures carry an explicit sigma-ring.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from sigma_product.errors import NotMeasurable, PropertyViolated, UniverseMismatch
from sigma_product.extreal import INF, ZERO, ExtNonNeg, render_rational
from sigma_product.finset import FinSet
from sigma_product.frozen import Frozen
from sigma_product.lineset import LINE_UNIVERSE, CountablePart, Progression, RealSet
from sigma_product.rectset import render_universe
from sigma_product.sigma import (
    SigmaRingFin,
    has_simple_extension_property,
    ring_from_atoms,
)


class FinitenessClass(Enum):
    """How a measurable set sits relative to the sigma-finite structure."""

    FINITE = "finite"
    SIGMA_FINITE_INFINITE = "sigma-finite"
    NOT_SIGMA_FINITE = "not-sigma-finite"

    def render(self) -> str:
        return self.value


FINITE = FinitenessClass.FINITE
SIGMA_FINITE_INFINITE = FinitenessClass.SIGMA_FINITE_INFINITE
NOT_SIGMA_FINITE = FinitenessClass.NOT_SIGMA_FINITE


class Measure:
    """Common surface of all measures."""

    __slots__ = ()
    universe: tuple = ()

    def check_universe(self, a) -> None:
        if a.universe != self.universe:
            raise UniverseMismatch(
                f"set over {render_universe(a.universe)}, "
                f"measure over {render_universe(self.universe)}"
            )

    def measure(self, a) -> ExtNonNeg:
        raise NotImplementedError

    def finiteness(self, a) -> FinitenessClass:
        raise NotImplementedError

    def evaluate(self, a) -> Tuple[ExtNonNeg, FinitenessClass]:
        """The value and the finiteness class of ``a``."""
        return self.measure(a), self.finiteness(a)

    def sigma_finite_component(self) -> "Measure":
        return SigmaFiniteComponent(self)

    def __call__(self, a) -> ExtNonNeg:
        return self.measure(a)

    def render(self) -> str:
        raise NotImplementedError


class LebesgueLine(Frozen, Measure):
    """Length on the real line; countable corrections are null."""

    __slots__ = ()
    universe = LINE_UNIVERSE

    def measure(self, a: RealSet) -> ExtNonNeg:
        self.check_universe(a)
        total = a.interval_length()
        return INF if total is None else ExtNonNeg(total)

    def finiteness(self, a: RealSet) -> FinitenessClass:
        self.check_universe(a)
        return FINITE if self.measure(a).is_finite else SIGMA_FINITE_INFINITE

    def render(self) -> str:
        return "lebesgue"


class CountingLine(Frozen, Measure):
    """Counting measure on the real line."""

    __slots__ = ()
    universe = LINE_UNIVERSE

    def measure(self, a: RealSet) -> ExtNonNeg:
        self.check_universe(a)
        card = a.cardinality()
        if card.kind == "finite":
            return ExtNonNeg(card.count)
        if card.kind == "empty":
            return ZERO
        return INF

    def finiteness(self, a: RealSet) -> FinitenessClass:
        self.check_universe(a)
        kind = a.cardinality().kind
        if kind in ("empty", "finite"):
            return FINITE
        if kind == "countably-infinite":
            return SIGMA_FINITE_INFINITE
        return NOT_SIGMA_FINITE

    def render(self) -> str:
        return "counting"


class WeightRule(Frozen):
    """The weights of the points k = 0, 1, 2, ... of a progression, summed
    in closed form by ``mass``."""

    __slots__ = ()

    def mass(self, points: Sequence[int], tails: Sequence[Tuple[int, int]]) -> ExtNonNeg:
        """The weight of the index points plus the index tails (start, step),
        the tail (start, step) holding start, start + step, ..."""
        raise NotImplementedError

    def total(self) -> ExtNonNeg:
        """The weight of the whole progression: the one tail (0, 1)."""
        return self.mass((), ((0, 1),))


class ConstantWeights(WeightRule):
    """Every point of a progression carries the same weight."""

    __slots__ = ("weight",)

    def __init__(self, weight: ExtNonNeg):
        object.__setattr__(self, "weight", ExtNonNeg.of(weight))

    def mass(self, points, tails) -> ExtNonNeg:
        return self.weight * (INF if tails else ExtNonNeg(len(points)))

    def render(self) -> str:
        return f"constant({self.weight})"


class GeometricWeights(WeightRule):
    """Point k of a progression weighs first * ratio**k."""

    __slots__ = ("first", "ratio")

    def __init__(self, first: Fraction, ratio: Fraction):
        first, ratio = Fraction(first), Fraction(ratio)
        if first < 0:
            raise ValueError("geometric weight must be nonnegative")
        if not 0 <= ratio < 1:
            raise ValueError("geometric ratio must satisfy 0 <= ratio < 1")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "ratio", ratio)

    def mass(self, points, tails) -> ExtNonNeg:
        first, ratio = self.first, self.ratio
        total = sum(first * ratio**k for k in points)
        for k0, t in tails:
            total += first * ratio**k0 / (1 - ratio**t)
        return ExtNonNeg(total)

    def render(self) -> str:
        return f"geometric({render_rational(self.first)}, {render_rational(self.ratio)})"


class CountableAtomic(Frozen, Measure):
    """Atomic measure on the real line: point masses plus weighted
    progressions.  Supports must be pairwise disjoint.  Points are kept
    sorted, and progressions sorted by (base, step), so equal measures
    compare equal whatever the order of their entries."""

    __slots__ = ("point_masses", "progression_weights")
    universe = LINE_UNIVERSE

    def __init__(
        self,
        point_masses: Iterable[Tuple[Fraction, ExtNonNeg]] = (),
        progression_weights: Iterable[Tuple[Progression, WeightRule]] = (),
    ):
        points = [(Fraction(p), ExtNonNeg.of(w)) for p, w in point_masses]
        progs = list(progression_weights)
        _validate_disjoint([p for p, _ in points], [g for g, _ in progs])
        points.sort(key=lambda pw: pw[0])
        progs.sort(key=lambda gr: (gr[0].base, gr[0].step))
        object.__setattr__(self, "point_masses", tuple(points))
        object.__setattr__(self, "progression_weights", tuple(progs))

    def measure(self, a: RealSet) -> ExtNonNeg:
        self.check_universe(a)
        total = ZERO
        for p, w in self.point_masses:
            if a.member(p):
                total = total + w
        for g, rule in self.progression_weights:
            total = total + rule.mass(*self._index_pattern(g, a))
        return total

    @staticmethod
    def _index_pattern(g: Progression, a: RealSet):
        """Indices of g's points inside a: explicit list plus (start, step)
        index progressions."""
        hit = a.meet_countable(CountablePart((), (g,)))
        idx_points = [int((p - g.base) / g.step) for p in hit.points]
        idx_progs = []
        for sub in hit.progressions:
            k0 = int((sub.base - g.base) / g.step)
            t = int(sub.step / g.step)
            idx_progs.append((k0, t))
        return idx_points, idx_progs

    def finiteness(self, a: RealSet) -> FinitenessClass:
        self.check_universe(a)
        if self.measure(a).is_finite:
            return FINITE
        for p, w in self.point_masses:
            if not w.is_finite and a.member(p):
                return NOT_SIGMA_FINITE
        for g, rule in self.progression_weights:
            if not rule.mass((0,), ()).is_finite:  # one point weighs inf
                hit = a.meet_countable(CountablePart((), (g,)))
                if not hit.is_empty:
                    return NOT_SIGMA_FINITE
        return SIGMA_FINITE_INFINITE

    def render(self) -> str:
        bits = [
            f"{render_rational(p)}: {w}" for p, w in self.point_masses
        ]
        bits += [
            f"{g.render()}: {rule.render()}" for g, rule in self.progression_weights
        ]
        return "atomic{" + ", ".join(bits) + "}"


class DiracAt(CountableAtomic):
    """Unit point mass: the atomic measure with one point of weight 1."""

    __slots__ = ()

    def __init__(self, point: Fraction):
        super().__init__([(point, ExtNonNeg(1))])

    @property
    def point(self) -> Fraction:
        return self.point_masses[0][0]

    def render(self) -> str:
        return f"dirac({render_rational(self.point)})"


def _validate_disjoint(points: List[Fraction], progs: List[Progression]) -> None:
    from sigma_product.lineset import intersect_progressions

    if len(set(points)) != len(points):
        raise ValueError("duplicate point mass")
    for i, g in enumerate(progs):
        for p in points:
            if g.member(p):
                raise ValueError(f"point mass {p} lies on {g.render()}")
        for h in progs[i + 1 :]:
            if intersect_progressions(g, h) is not None:
                raise ValueError(
                    f"overlapping progressions {g.render()} and {h.render()}"
                )


class FiniteTabulated(Frozen, Measure):
    """A measure on an explicit sigma-ring over a finite ground, given by
    atom weights: ``weights[i]`` is the weight of ``atoms[i]``."""

    __slots__ = ("ring", "atoms", "weights")

    def __init__(self, ring: SigmaRingFin, atom_weights: Dict[FinSet, ExtNonNeg]):
        atoms = tuple(ring.atoms())
        weights = []
        for atom in atoms:
            if atom not in atom_weights:
                raise ValueError(f"missing weight for atom {atom!r}")
            weights.append(ExtNonNeg.of(atom_weights[atom]))
        if len(atom_weights) != len(atoms):
            raise ValueError("weights given for sets that are not atoms")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", tuple(weights))

    @staticmethod
    def power_set(weights: Dict[object, ExtNonNeg]) -> "FiniteTabulated":
        """Power-set measure with one weight per ground element: the ring is
        built from its singleton atoms, with no closure."""
        ground = tuple(weights)
        singletons = {
            FinSet(ground, 1 << i): ExtNonNeg.of(w)
            for i, w in enumerate(weights.values())
        }
        return FiniteTabulated(ring_from_atoms(ground, list(singletons)), singletons)

    @property
    def universe(self) -> tuple:
        return ("fin", self.ring.ground)

    def atom_weight(self, atom: FinSet) -> ExtNonNeg:
        return self.weights[self.atoms.index(atom)]

    def measure(self, a: FinSet) -> ExtNonNeg:
        self.check_universe(a)
        if a not in self.ring:
            raise NotMeasurable(f"{a!r} is not in the sigma-ring")
        total = Fraction(0)
        for atom, w in zip(self.atoms, self.weights):
            if atom.mask & a.mask:
                if not w.is_finite:
                    return INF
                total += w.finite
        return ExtNonNeg(total)

    def finiteness(self, a: FinSet) -> FinitenessClass:
        self.check_universe(a)
        if a not in self.ring:
            raise NotMeasurable(f"{a!r} is not in the sigma-ring")
        # On a finite ground an infinite value always comes from an
        # infinite-weight atom, which blocks sigma-finiteness.
        for atom, w in zip(self.atoms, self.weights):
            if atom.mask & a.mask and not w.is_finite:
                return NOT_SIGMA_FINITE
        return FINITE

    def finite_part_ring(self) -> SigmaRingFin:
        """The sigma-ring of sigma-finite sets: the unions of the atoms of
        finite weight."""
        finite = [atom for atom, w in zip(self.atoms, self.weights) if w.is_finite]
        return ring_from_atoms(self.ring.ground, finite)

    def render(self) -> str:
        bits = [
            "+".join(str(x) for x in atom) + f": {w}"
            for atom, w in zip(self.atoms, self.weights)
        ]
        return "tabulated{" + ", ".join(bits) + "}"


class SigmaFiniteComponent(Frozen, Measure):
    """Restriction of a measure to its sigma-finite sets."""

    __slots__ = ("base",)

    def __init__(self, base: Measure):
        object.__setattr__(self, "base", base)

    @property
    def universe(self) -> tuple:
        return self.base.universe

    def measure(self, a) -> ExtNonNeg:
        if self.base.finiteness(a) is NOT_SIGMA_FINITE:
            raise NotMeasurable("set is not sigma-finite for the base measure")
        return self.base.measure(a)

    def finiteness(self, a) -> FinitenessClass:
        cls = self.base.finiteness(a)
        if cls is NOT_SIGMA_FINITE:
            raise NotMeasurable("set is not sigma-finite for the base measure")
        return cls

    def sigma_finite_component(self) -> "Measure":
        return self

    def render(self) -> str:
        return f"component({self.base.render()})"


class InfinityExtension(FiniteTabulated):
    """Extension of a measure on an inner sigma-ring to an outer one by
    assigning infinity off the inner ring.  Requires the pair to have the
    simple extension property, under which every inner atom is an outer
    atom: the extension is the table on the outer ring that keeps the
    inner atoms' weights and gives every other outer atom infinity."""

    __slots__ = ("inner",)

    def __init__(self, inner: FiniteTabulated, outer: SigmaRingFin):
        if not has_simple_extension_property(outer, inner.ring):
            raise PropertyViolated(
                "pair of sigma-rings lacks the simple extension property"
            )
        kept = {atom.mask: w for atom, w in zip(inner.atoms, inner.weights)}
        super().__init__(outer, {atom: kept.get(atom.mask, INF) for atom in outer.atoms()})
        object.__setattr__(self, "inner", inner)

    def render(self) -> str:
        return f"extension({self.inner.render()})"
