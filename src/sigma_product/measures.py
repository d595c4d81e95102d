"""Measures on representable universes.

Every measure evaluates representable sets to exact extended values and
classifies them as finite, sigma-finite (with infinite value), or not
sigma-finite.  Real-line measures treat every representable set as
measurable; finite tabulated measures carry an explicit sigma-ring.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, Tuple, TypeAlias, Union

from sigma_product.errors import NotMeasurable, PropertyViolated, UniverseMismatch
from sigma_product.extreal import (
    INF,
    ZERO,
    ExtNonNeg,
    Geometric,
    render_rational,
)
from sigma_product.finset import FinSet
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

    def sigma_finite_component(self) -> "Measure":
        return SigmaFiniteComponent(self)

    def __call__(self, a) -> ExtNonNeg:
        return self.measure(a)

    def render(self) -> str:
        raise NotImplementedError


class LebesgueLine(Measure):
    """Length on the real line; countable corrections are null."""

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

    def __eq__(self, other):
        return isinstance(other, LebesgueLine)

    def __hash__(self):
        return hash("LebesgueLine")


class CountingLine(Measure):
    """Counting measure on the real line."""

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

    def __eq__(self, other):
        return isinstance(other, CountingLine)

    def __hash__(self):
        return hash("CountingLine")


class DiracAt(Measure):
    """Unit point mass."""

    universe = LINE_UNIVERSE

    def __init__(self, point: Fraction):
        self.point = Fraction(point)

    def measure(self, a: RealSet) -> ExtNonNeg:
        self.check_universe(a)
        return ExtNonNeg(1) if a.member(self.point) else ZERO

    def finiteness(self, a: RealSet) -> FinitenessClass:
        self.check_universe(a)
        return FINITE

    def render(self) -> str:
        return f"dirac({render_rational(self.point)})"

    def __eq__(self, other):
        return isinstance(other, DiracAt) and self.point == other.point

    def __hash__(self):
        return hash(("DiracAt", self.point))


class ConstantWeights:
    """Every point of a progression carries the same weight."""

    __slots__ = ("weight",)

    def __init__(self, weight: ExtNonNeg):
        self.weight = ExtNonNeg.of(weight)

    def render(self) -> str:
        return f"constant({self.weight})"


class GeometricWeights:
    """Point k of a progression weighs first * ratio**k."""

    __slots__ = ("first", "ratio")

    def __init__(self, first: Fraction, ratio: Fraction):
        self.first = Fraction(first)
        self.ratio = Fraction(ratio)
        if self.first < 0:
            raise ValueError("geometric weight must be nonnegative")
        if not 0 <= self.ratio < 1:
            raise ValueError("geometric ratio must satisfy 0 <= ratio < 1")

    def render(self) -> str:
        return f"geometric({render_rational(self.first)}, {render_rational(self.ratio)})"


# A string: typing's subscription cache would keep these classes, and every
# purged copy of the package with them, alive.
WeightRule: TypeAlias = "Union[ConstantWeights, GeometricWeights]"


class CountableAtomic(Measure):
    """Atomic measure on the real line: point masses plus weighted
    progressions.  Supports must be pairwise disjoint."""

    universe = LINE_UNIVERSE

    def __init__(
        self,
        point_masses: Iterable[Tuple[Fraction, ExtNonNeg]] = (),
        progression_weights: Iterable[Tuple[Progression, WeightRule]] = (),
    ):
        self.point_masses = tuple(
            (Fraction(p), ExtNonNeg.of(w)) for p, w in point_masses
        )
        self.progression_weights = tuple(progression_weights)
        self._validate_disjoint()

    def _validate_disjoint(self):
        from sigma_product.lineset import intersect_progressions

        points = [p for p, _ in self.point_masses]
        if len(set(points)) != len(points):
            raise ValueError("duplicate point mass")
        progs = [g for g, _ in self.progression_weights]
        for i, g in enumerate(progs):
            for p in points:
                if g.member(p):
                    raise ValueError(f"point mass {p} lies on {g.render()}")
            for h in progs[i + 1 :]:
                if intersect_progressions(g, h) is not None:
                    raise ValueError(
                        f"overlapping progressions {g.render()} and {h.render()}"
                    )

    def measure(self, a: RealSet) -> ExtNonNeg:
        self.check_universe(a)
        total = ZERO
        for p, w in self.point_masses:
            if a.member(p):
                total = total + w
        for g, rule in self.progression_weights:
            total = total + self._progression_mass(g, rule, a)
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

    def _progression_mass(self, g: Progression, rule: WeightRule, a: RealSet) -> ExtNonNeg:
        idx_points, idx_progs = self._index_pattern(g, a)
        if isinstance(rule, ConstantWeights):
            if idx_progs:
                return rule.weight * INF
            return rule.weight * ExtNonNeg(len(idx_points))
        series = Geometric(rule.first, rule.ratio)
        total = sum(series.term(k) for k in idx_points)
        for k0, t in idx_progs:
            total += Geometric(series.term(k0), rule.ratio**t).total().finite
        return ExtNonNeg(total)

    def finiteness(self, a: RealSet) -> FinitenessClass:
        self.check_universe(a)
        if self.measure(a).is_finite:
            return FINITE
        for p, w in self.point_masses:
            if not w.is_finite and a.member(p):
                return NOT_SIGMA_FINITE
        for g, rule in self.progression_weights:
            if isinstance(rule, ConstantWeights) and not rule.weight.is_finite:
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

    def __eq__(self, other):
        if not isinstance(other, CountableAtomic):
            return NotImplemented
        return self.render() == other.render()

    def __hash__(self):
        return hash(("CountableAtomic", self.render()))


class FiniteTabulated(Measure):
    """A measure on an explicit sigma-ring over a finite ground, given by
    atom weights."""

    def __init__(self, ring: SigmaRingFin, atom_weights: Dict[FinSet, ExtNonNeg]):
        self.ring = ring
        self.atoms = ring.atoms()
        weights: Dict[int, ExtNonNeg] = {}
        for atom in self.atoms:
            if atom not in atom_weights:
                raise ValueError(f"missing weight for atom {atom!r}")
            weights[atom.mask] = ExtNonNeg.of(atom_weights[atom])
        if len(atom_weights) != len(self.atoms):
            raise ValueError("weights given for sets that are not atoms")
        self._weights = weights

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
        return self._weights[atom.mask]

    def measure(self, a: FinSet) -> ExtNonNeg:
        self.check_universe(a)
        if a not in self.ring:
            raise NotMeasurable(f"{a!r} is not in the sigma-ring")
        total = Fraction(0)
        for atom in self.atoms:
            if atom.mask & a.mask:
                w = self._weights[atom.mask]
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
        for atom in self.atoms:
            if atom.mask & a.mask and not self._weights[atom.mask].is_finite:
                return NOT_SIGMA_FINITE
        return FINITE

    def finite_part_ring(self) -> SigmaRingFin:
        """The sigma-ring of sigma-finite sets: the unions of the atoms of
        finite weight."""
        finite = [atom for atom in self.atoms if self._weights[atom.mask].is_finite]
        return ring_from_atoms(self.ring.ground, finite)

    def render(self) -> str:
        bits = []
        for atom in self.atoms:
            label = "+".join(str(x) for x in atom)
            bits.append(f"{label}: {self._weights[atom.mask]}")
        return "tabulated{" + ", ".join(bits) + "}"

    def __eq__(self, other):
        if not isinstance(other, FiniteTabulated):
            return NotImplemented
        return self.ring == other.ring and self._weights == other._weights

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self._weights.items(), key=lambda kv: kv[0]))))


class SigmaFiniteComponent(Measure):
    """Restriction of a measure to its sigma-finite sets."""

    def __init__(self, base: Measure):
        self.base = base

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

    def __init__(self, inner: FiniteTabulated, outer: SigmaRingFin):
        if not has_simple_extension_property(outer, inner.ring):
            raise PropertyViolated(
                "pair of sigma-rings lacks the simple extension property"
            )
        super().__init__(outer, {
            atom: inner._weights.get(atom.mask, INF) for atom in outer.atoms()
        })
        self.inner = inner

    def render(self) -> str:
        return f"extension({self.inner.render()})"
