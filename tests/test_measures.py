import random
from fractions import Fraction

import pytest

from sigma_product.errors import NotMeasurable, PropertyViolated, UniverseMismatch
from sigma_product.extreal import INF, ZERO, ExtNonNeg
from sigma_product.finset import FinSet
from sigma_product.lineset import Progression, RealSet
from sigma_product.measures import (
    FINITE,
    NOT_SIGMA_FINITE,
    SIGMA_FINITE_INFINITE,
    ConstantWeights,
    CountableAtomic,
    CountingLine,
    DiracAt,
    FiniteTabulated,
    GeometricWeights,
    InfinityExtension,
    LebesgueLine,
)
from sigma_product.oracle import oracle_sigma_closure
from sigma_product.sigma import generate_sigma_algebra, generate_sigma_ring

F = Fraction


def iv(lo, hi, lo_open=False, hi_open=False):
    return RealSet.interval(
        None if lo is None else F(lo), None if hi is None else F(hi), lo_open, hi_open
    )


def pts(*values):
    return RealSet.points([F(v) for v in values])


def prg(base, step):
    return RealSet.progression(F(base), F(step))


LEB = LebesgueLine()
CNT = CountingLine()


class TestLebesgue:
    def test_interval_with_point(self):
        assert LEB.measure(iv(0, 1) | pts(5)) == ExtNonNeg(1)

    def test_null_countable(self):
        assert LEB.measure(prg(0, 1)) == ZERO
        assert LEB.measure(iv(0, 2) - pts(1)) == ExtNonNeg(2)

    def test_whole_line(self):
        assert LEB.measure(RealSet.line()) == INF
        assert LEB.finiteness(RealSet.line()) is SIGMA_FINITE_INFINITE

    def test_always_sigma_finite(self):
        assert LEB.finiteness(iv(0, 1)) is FINITE

    def test_lebesgue_sigma_finite_cover_witness(self):
        # the standard exhaustion by [-n, n] witnesses sigma-finiteness
        whole = RealSet.line()
        cover = RealSet.empty()
        for n in range(1, 5):
            piece = iv(-n, n)
            assert LEB.finiteness(piece) is FINITE
            cover = cover | piece
        assert cover <= whole


class TestCounting:
    def test_finite_points(self):
        assert CNT.measure(pts(0, 1, 2)) == ExtNonNeg(3)

    def test_uncountable(self):
        assert CNT.measure(iv(0, 1)) == INF
        assert CNT.finiteness(iv(0, 1)) is NOT_SIGMA_FINITE

    def test_progression_sigma_finite(self):
        assert CNT.measure(prg(0, 1)) == INF
        assert CNT.finiteness(prg(0, 1)) is SIGMA_FINITE_INFINITE
        # witness: the singletons cover the progression with finite pieces
        cover = RealSet.empty()
        for k in range(5):
            single = pts(k)
            assert CNT.measure(single) == ExtNonNeg(1)
            cover = cover | single
        assert cover <= prg(0, 1)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            CNT.measure(FinSet.of(("a",), ["a"]))


class TestDirac:
    def test_point_mass(self):
        d = DiracAt(F(1, 2))
        assert d.measure(iv(0, 1)) == ExtNonNeg(1)
        assert d.measure(iv(0, 1) - pts(F(1, 2))) == ZERO
        assert d.finiteness(RealSet.line()) is FINITE


class TestFiniteTabulated:
    def make(self, weights):
        return FiniteTabulated.power_set(weights)

    def test_eval_sums_atoms(self):
        m = self.make({"a": ExtNonNeg(2), "b": ExtNonNeg(3)})
        g = m.ring.ground
        assert m.measure(FinSet.of(g, ["a", "b"])) == ExtNonNeg(5)
        assert m.measure(FinSet.of(g, ["b"])) == ExtNonNeg(3)
        assert m.measure(FinSet.empty(g)) == ZERO

    def test_infinite_atom(self):
        m = self.make({"a": INF, "b": ExtNonNeg(2)})
        g = m.ring.ground
        assert m.finiteness(FinSet.of(g, ["b"])) is FINITE
        assert m.finiteness(FinSet.of(g, ["a", "b"])) is NOT_SIGMA_FINITE

    def test_not_measurable(self):
        g = ("a", "b")
        ring = generate_sigma_ring(g, [FinSet.of(g, ["a", "b"])])
        m = FiniteTabulated(ring, {FinSet.of(g, ["a", "b"]): ExtNonNeg(1)})
        with pytest.raises(NotMeasurable):
            m.measure(FinSet.of(g, ["a"]))

    def test_sigma_additivity_exhaustive(self):
        m = self.make({"a": ExtNonNeg(2), "b": INF, "c": ZERO})
        g = m.ring.ground
        for x in range(8):
            for y in range(8):
                if x & y:
                    continue
                a, b = FinSet(g, x), FinSet(g, y)
                assert m.measure(a | b) == m.measure(a) + m.measure(b)

    def test_finite_iff_value_finite(self):
        m = self.make({"a": ExtNonNeg(2), "b": INF})
        g = m.ring.ground
        for x in range(4):
            s = FinSet(g, x)
            assert (m.finiteness(s) is FINITE) == m.measure(s).is_finite

    @pytest.mark.parametrize("n", range(1, 9))
    def test_power_set_matches_generated_algebra(self, n):
        rng = random.Random(n)
        ground = tuple(f"p{k}" for k in rng.sample(range(20), n))
        weights = {x: rng.choice([ZERO, ExtNonNeg(F(1, 2)), ExtNonNeg(3), INF])
                   for x in ground}
        built = self.make(weights)
        singletons = [FinSet.of(ground, [x]) for x in ground]
        ring = generate_sigma_algebra(ground, singletons)
        closed = FiniteTabulated(ring, dict(zip(singletons, weights.values())))
        assert built.ring.members == ring.members
        assert built.ring.atoms() == ring.atoms() == singletons
        assert built.render() == closed.render()
        assert built == closed and built.ring == ring
        assert hash(built) == hash(closed) and hash(built.ring) == hash(ring)


class TestCountableAtomic:
    def test_point_masses(self):
        m = CountableAtomic(point_masses=[(F(0), ExtNonNeg(2)), (F(1), INF)])
        assert m.measure(pts(0)) == ExtNonNeg(2)
        assert m.measure(pts(0, 1)) == INF
        assert m.finiteness(pts(0, 1)) is NOT_SIGMA_FINITE
        assert m.finiteness(pts(0)) is FINITE
        assert m.measure(iv(5, 6)) == ZERO

    def test_geometric_progression_weights(self):
        g = Progression(F(0), F(1))
        m = CountableAtomic(progression_weights=[(g, GeometricWeights(F(1), F(1, 2)))])
        assert m.measure(RealSet.line()) == ExtNonNeg(2)
        assert m.measure(prg(0, 1)) == ExtNonNeg(2)
        # even indices only: sum of (1/2)^(2k) = 4/3
        assert m.measure(prg(0, 2)) == ExtNonNeg(F(4, 3))
        assert m.measure(pts(0, 1)) == ExtNonNeg(F(3, 2))
        assert m.finiteness(RealSet.line()) is FINITE

    def test_geometric_ratio_zero_weighs_only_the_first_point(self):
        g = Progression(F(0), F(1))
        m = CountableAtomic(progression_weights=[(g, GeometricWeights(F(3), F(0)))])
        assert m.measure(pts(0)) == ExtNonNeg(3)
        assert m.measure(prg(0, 2)) == ExtNonNeg(3)
        assert m.measure(prg(1, 2)) == ZERO

    def test_constant_progression_weights(self):
        g = Progression(F(0), F(1))
        m = CountableAtomic(progression_weights=[(g, ConstantWeights(ExtNonNeg(1)))])
        assert m.measure(pts(0, 1, 2)) == ExtNonNeg(3)
        assert m.measure(prg(0, 1)) == INF
        assert m.finiteness(prg(0, 1)) is SIGMA_FINITE_INFINITE
        assert m.finiteness(iv(0, 10)) is FINITE  # 11 points inside

    def test_constant_infinite_weight(self):
        g = Progression(F(0), F(1))
        m = CountableAtomic(progression_weights=[(g, ConstantWeights(INF))])
        assert m.measure(pts(3)) == INF
        assert m.finiteness(pts(3)) is NOT_SIGMA_FINITE
        assert m.measure(pts(F(1, 2))) == ZERO

    def test_overlapping_supports_rejected(self):
        with pytest.raises(ValueError):
            CountableAtomic(
                point_masses=[(F(2), ExtNonNeg(1))],
                progression_weights=[(Progression(F(0), F(1)), ConstantWeights(ExtNonNeg(1)))],
            )
        with pytest.raises(ValueError):
            CountableAtomic(
                progression_weights=[
                    (Progression(F(0), F(2)), ConstantWeights(ExtNonNeg(1))),
                    (Progression(F(0), F(3)), ConstantWeights(ExtNonNeg(1))),
                ]
            )

    def test_sigma_additivity_sampled(self):
        m = CountableAtomic(
            point_masses=[(F(-5), ExtNonNeg(7))],
            progression_weights=[
                (Progression(F(0), F(2)), GeometricWeights(F(1), F(1, 3))),
                (Progression(F(1), F(2)), ConstantWeights(ExtNonNeg(2))),
            ],
        )
        pieces = [
            iv(0, 4),
            iv(4, 10, True, False),
            prg(12, 2),
            pts(-5, 11),
            iv(10, 11, True, True),
        ]
        # pairwise disjoint; additivity over the whole family
        total = RealSet.empty()
        value = ZERO
        for p in pieces:
            assert (total & p).is_empty
            total = total | p
            value = value + m.measure(p)
        assert m.measure(total) == value


class TestSigmaAdditivityRandomised:
    def test_random_disjoint_pairs_all_measures(self):
        rng = random.Random(1234)
        atomic = CountableAtomic(
            point_masses=[(F(7, 2), INF)],
            progression_weights=[(Progression(F(0), F(1)), GeometricWeights(F(2), F(1, 2)))],
        )
        measures = [LEB, CNT, DiracAt(F(1, 3)), atomic]
        from test_lineset import random_realset

        for _ in range(150):
            a = random_realset(rng)
            b = random_realset(rng) - a
            assert (a & b).is_empty
            for m in measures:
                assert m.measure(a | b) == m.measure(a) + m.measure(b)

    def test_finite_class_iff_finite_value(self):
        rng = random.Random(77)
        atomic = CountableAtomic(point_masses=[(F(1), INF)])
        measures = [LEB, CNT, DiracAt(F(0)), atomic]
        from test_lineset import random_realset

        for _ in range(120):
            s = random_realset(rng)
            for m in measures:
                assert (m.finiteness(s) is FINITE) == m.measure(s).is_finite


class TestSigmaFiniteSubsetClosure:
    def test_real_line_instances(self):
        cases = [
            (CNT, prg(0, 1), [prg(0, 2), pts(4, 6), RealSet.empty()]),
            (LEB, RealSet.line(), [iv(0, 1), prg(0, 1), RealSet.line()]),
            (
                CountableAtomic(point_masses=[(F(0), INF)]),
                iv(1, 2) | prg(5, 1),
                [iv(1, F(3, 2)), prg(5, 2)],
            ),
        ]
        for m, big, subs in cases:
            assert m.finiteness(big) is not NOT_SIGMA_FINITE
            for small in subs:
                assert small <= big
                assert m.finiteness(small) is not NOT_SIGMA_FINITE

    def test_finite_ground_exhaustive(self):
        m = FiniteTabulated.power_set({"a": INF, "b": ExtNonNeg(1), "c": ZERO})
        g = m.ring.ground
        for big in range(8):
            if m.finiteness(FinSet(g, big)) is NOT_SIGMA_FINITE:
                continue
            for small in range(8):
                if small & ~big == 0:
                    assert m.finiteness(FinSet(g, small)) is not NOT_SIGMA_FINITE


class TestSigmaFiniteComponent:
    def test_counting_component_rejects_interval(self):
        comp = CNT.sigma_finite_component()
        with pytest.raises(NotMeasurable):
            comp.measure(iv(0, 1))
        assert comp.measure(prg(0, 1)) == INF
        assert comp.measure(pts(1, 2)) == ExtNonNeg(2)

    def test_lebesgue_component_is_lebesgue(self):
        comp = LEB.sigma_finite_component()
        for s in [iv(0, 1), RealSet.line(), prg(0, 1), iv(0, 1) - pts(F(1, 2))]:
            assert comp.measure(s) == LEB.measure(s)

    def test_tabulated_component_domain_matches_oracle(self):
        m = FiniteTabulated.power_set({"a": INF, "b": ExtNonNeg(2), "c": ExtNonNeg(1)})
        g = m.ring.ground
        comp = m.sigma_finite_component()
        finite_family = [
            frozenset(FinSet(g, mask))
            for mask in m.ring.members
            if m.measure(FinSet(g, mask)).is_finite
        ]
        closure = oracle_sigma_closure(g, finite_family)
        for mask in m.ring.members:
            s = FinSet(g, mask)
            in_closure = frozenset(s) in closure
            try:
                value = comp.measure(s)
                assert in_closure
                assert value == m.measure(s)
            except NotMeasurable:
                assert not in_closure

    def test_component_idempotent(self):
        comp = CNT.sigma_finite_component()
        assert comp.sigma_finite_component() is comp

    def test_finite_part_ring_matches_oracle(self):
        m = FiniteTabulated.power_set({"a": INF, "b": ExtNonNeg(2), "c": ZERO})
        g = m.ring.ground
        finite_family = [
            frozenset(FinSet(g, mask))
            for mask in m.ring.members
            if m.measure(FinSet(g, mask)).is_finite
        ]
        closure = oracle_sigma_closure(g, finite_family)
        got = {frozenset(s) for s in m.finite_part_ring().sets()}
        assert got == closure


class TestInfinityExtension:
    def test_spec_example(self):
        g = (1, 2)
        inner_ring = generate_sigma_ring(g, [FinSet.of(g, [1])])
        inner = FiniteTabulated(inner_ring, {FinSet.of(g, [1]): ExtNonNeg(3)})
        outer = generate_sigma_algebra(g, [FinSet.of(g, [1]), FinSet.of(g, [2])])
        ext = InfinityExtension(inner, outer)
        assert ext.measure(FinSet.of(g, [1])) == ExtNonNeg(3)
        assert ext.measure(FinSet.of(g, [2])) == INF
        assert ext.measure(FinSet.of(g, [1, 2])) == INF

    def test_identity_when_inner_equals_outer(self):
        m = FiniteTabulated.power_set({"a": ExtNonNeg(1), "b": ExtNonNeg(2)})
        ext = InfinityExtension(m, m.ring)
        for mask in m.ring.members:
            s = FinSet(m.ring.ground, mask)
            assert ext.measure(s) == m.measure(s)

    def test_additivity_all_disjoint_decompositions(self):
        g = (1, 2)
        inner_ring = generate_sigma_ring(g, [FinSet.of(g, [1])])
        inner = FiniteTabulated(inner_ring, {FinSet.of(g, [1]): ExtNonNeg(3)})
        outer = generate_sigma_algebra(g, [FinSet.of(g, [1]), FinSet.of(g, [2])])
        ext = InfinityExtension(inner, outer)
        for x in range(4):
            for y in range(4):
                if x & y:
                    continue
                a, b = FinSet(g, x), FinSet(g, y)
                assert ext.measure(a | b) == ext.measure(a) + ext.measure(b)

    def test_property_violated(self):
        g = (1, 2)
        inner_ring = generate_sigma_ring(g, [FinSet.full(g)])
        inner = FiniteTabulated(inner_ring, {FinSet.full(g): ExtNonNeg(1)})
        outer = generate_sigma_algebra(g, [FinSet.of(g, [1]), FinSet.of(g, [2])])
        with pytest.raises(PropertyViolated):
            InfinityExtension(inner, outer)

    def test_sigma_finite_part_is_oracle_closure_of_finite_sets(self):
        g = (1, 2, 3)
        inner_ring = generate_sigma_ring(g, [FinSet.of(g, [1]), FinSet.of(g, [2])])
        inner = FiniteTabulated(
            inner_ring,
            {FinSet.of(g, [1]): ExtNonNeg(3), FinSet.of(g, [2]): INF},
        )
        outer = generate_sigma_algebra(g, [FinSet.of(g, [x]) for x in g])
        ext = InfinityExtension(inner, outer)
        finite_family = []
        for mask in outer.members:
            s = FinSet(g, mask)
            if ext.measure(s).is_finite:
                finite_family.append(frozenset(s))
        closure = oracle_sigma_closure(g, finite_family)
        for mask in outer.members:
            s = FinSet(g, mask)
            is_sf = ext.finiteness(s) is not NOT_SIGMA_FINITE
            assert is_sf == (frozenset(s) in closure)


class TestCountableAtomicWindowOracle:
    def test_bounded_eval_matches_term_enumeration(self):
        rng = random.Random(909)
        m = CountableAtomic(
            point_masses=[(F(-7), ExtNonNeg(3)), (F(15, 2), ExtNonNeg(F(1, 4)))],
            progression_weights=[
                (Progression(F(0), F(2)), GeometricWeights(F(1), F(1, 3))),
                (Progression(F(1), F(2)), ConstantWeights(ExtNonNeg(F(2, 5)))),
            ],
        )

        def naive(a: RealSet, hi: int) -> ExtNonNeg:
            total = ExtNonNeg(0)
            for p, w in m.point_masses:
                if a.member(p):
                    total = total + w
            for g, rule in m.progression_weights:
                k = 0
                while g.term(k) <= hi:
                    if a.member(g.term(k)):
                        if isinstance(rule, ConstantWeights):
                            total = total + rule.weight
                        else:
                            total = total + ExtNonNeg(rule.first * rule.ratio**k)
                    k += 1
            return total

        from test_lineset import random_realset

        for _ in range(120):
            a = random_realset(rng) & iv(-30, 40)  # bounded, so sums enumerate
            assert m.measure(a) == naive(a, 40)
