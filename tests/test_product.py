import random
from fractions import Fraction

import pytest

from sigma_product.errors import NotMeasurable, UniverseMismatch
from sigma_product.extreal import INF, ZERO, ExtNonNeg
from sigma_product.finset import FinSet
from sigma_product.lineset import RealSet
from sigma_product.measures import (
    FINITE,
    NOT_SIGMA_FINITE,
    SIGMA_FINITE_INFINITE,
    CountingLine,
    FiniteTabulated,
    LebesgueLine,
)
from sigma_product.oracle import (
    oracle_product_eval,
    oracle_sigma_closure,
    oracle_sigma_finite,
    powerset,
)
from sigma_product.product import ProductMeasure, finite_product_measure, product3_eval
from sigma_product.rectset import RectUnion
from sigma_product.sigma import generate_sigma_ring

F = Fraction
LEB = LebesgueLine()
CNT = CountingLine()
LXD = ProductMeasure(LEB, CNT)


def iv(lo, hi, lo_open=False, hi_open=False):
    return RealSet.interval(
        None if lo is None else F(lo), None if hi is None else F(hi), lo_open, hi_open
    )


def pts(*values):
    return RealSet.points([F(v) for v in values])


def prg(base, step):
    return RealSet.progression(F(base), F(step))


class TestRectClassify:
    def test_finite_rectangle(self):
        assert LXD.rect_class(iv(0, 1), pts(0, 1, 2)) is FINITE

    def test_remark_not_sigma_finite(self):
        assert LXD.rect_class(pts(0), RealSet.line()) is NOT_SIGMA_FINITE

    def test_sigma_finite_with_exhaustion_witness(self):
        assert LXD.rect_class(RealSet.line(), pts(5)) is SIGMA_FINITE_INFINITE
        # witness: [-n, n] x {5} exhausts R x {5} with finite rectangles
        for n in range(1, 6):
            assert LXD.rect_class(iv(-n, n), pts(5)) is FINITE

    def test_empty_side_is_finite(self):
        assert LXD.rect_class(RealSet.empty(), RealSet.line()) is FINITE
        assert LXD.rect_class(RealSet.line(), RealSet.empty()) is FINITE


class TestProductEval:
    def test_corollary_value(self):
        u = RectUnion.of((iv(0, 1), pts(0, 1, 2)))
        assert LXD.measure(u) == ExtNonNeg(3)

    def test_remark_infinity_beats_zero_times_infinity(self):
        a, b = pts(0), RealSet.line()
        u = RectUnion.of((a, b))
        assert LXD.measure(u) == INF
        assert LEB.measure(a) * CNT.measure(b) == ZERO

    def test_two_slabs(self):
        u = RectUnion.of((iv(0, 2), pts(0)), (iv(0, 1), pts(1)))
        assert LXD.measure(u) == ExtNonNeg(3)

    def test_overlapping_rectangles_no_double_count(self):
        u = RectUnion.of((iv(0, 2), pts(0)), (iv(1, 3), pts(0)))
        assert LXD.measure(u) == ExtNonNeg(3)

    def test_empty(self):
        assert LXD.measure(RectUnion.empty()) == ZERO

    def test_monotone_and_additive(self):
        rng = random.Random(8)
        for _ in range(40):
            def rect():
                a = F(rng.randint(-4, 4))
                return (
                    iv(a, a + rng.randint(0, 5)),
                    pts(*range(rng.randint(0, 3))) if rng.random() < 0.7 else prg(0, 1),
                )

            u = RectUnion.of(rect())
            v = RectUnion.of(rect())
            union = u | v
            assert LXD.measure(u) <= LXD.measure(union)
            inter = u & v
            if inter.is_empty:
                assert LXD.measure(union) == LXD.measure(u) + LXD.measure(v)

    def test_universe_mismatch(self):
        tab = FiniteTabulated.power_set({"a": ExtNonNeg(1)})
        g = tab.ring.ground
        u = RectUnion.of((FinSet.of(g, ["a"]), FinSet.of(g, ["a"])))
        with pytest.raises(UniverseMismatch):
            LXD.measure(u)


class TestSetClassify:
    def test_finite_union(self):
        u = RectUnion.of((iv(0, 1), pts(0)), (iv(2, 3), pts(1)))
        assert LXD.set_class(u) is FINITE

    def test_line_times_progression(self):
        u = RectUnion.of((RealSet.line(), prg(0, 1)))
        assert LXD.set_class(u) is SIGMA_FINITE_INFINITE

    def test_square_not_sigma_finite(self):
        u = RectUnion.of((iv(0, 1), iv(0, 1)))
        assert LXD.set_class(u) is NOT_SIGMA_FINITE

    def test_zero_weight_rectangle_with_infinite_side_is_finite_class(self):
        # {5} x prog has measure 0 * inf = 0 under counting x counting? No:
        # use lebesgue x counting: lebesgue({5}) = 0, counting(prog) = inf.
        u = RectUnion.of((pts(5), prg(0, 1)))
        assert LXD.measure(u) == ZERO
        assert LXD.set_class(u) is FINITE


class TestEvaluate:
    def test_matches_measure_set_class_and_definition(self):
        rng = random.Random(15)

        def side():
            a = rng.randint(-3, 3)
            r = rng.random()
            if r < 0.4:
                return iv(a, a + rng.randint(0, 3))
            if r < 0.7:
                return pts(*rng.sample(range(-3, 4), rng.randint(1, 3)))
            if r < 0.85:
                return prg(a, rng.randint(1, 2))
            return RealSet.line()

        for left, right in ((LEB, CNT), (CNT, LEB), (CNT, CNT), (LEB, LEB)):
            pm = ProductMeasure(left, right)
            for _ in range(30):
                u = RectUnion.of(*[(side(), side()) for _ in range(rng.randint(1, 3))])
                got = pm.evaluate(u)
                assert got == (pm.measure(u), pm.set_class(u))
                assert got[1] is pm.finiteness(u)
                # the definition, rectangle by rectangle
                if any(pm.rect_class(a, b) is NOT_SIGMA_FINITE for a, b in u.rects):
                    want = (INF, NOT_SIGMA_FINITE)
                else:
                    value = ZERO
                    for a, b in u.rects:
                        value = value + left.measure(a) * right.measure(b)
                    want = (value, FINITE if value.is_finite else SIGMA_FINITE_INFINITE)
                assert got == want, u

    def test_stops_at_the_first_non_sigma_finite_rectangle(self):
        g = ("a", "b")
        ring = generate_sigma_ring(g, [FinSet.of(g, ["a", "b"])])
        tab = FiniteTabulated(ring, {FinSet.of(g, ["a", "b"]): ExtNonNeg(1)})
        pm = ProductMeasure(CNT, tab)
        # {a} is outside the ring, so classifying the second rectangle fails
        with pytest.raises(NotMeasurable):
            pm.evaluate(RectUnion.of((pts(7), FinSet.of(g, ["a"]))))
        u = RectUnion.of(
            (iv(0, 1), FinSet.of(g, ["a", "b"])), (pts(7), FinSet.of(g, ["a"]))
        )
        assert pm.evaluate(u) == (INF, NOT_SIGMA_FINITE)
        assert pm.measure(u) == INF
        assert pm.set_class(u) is NOT_SIGMA_FINITE


class TestAgainstOracle:
    def exhaustive_ground(self, weights_mu, weights_nu):
        mu = FiniteTabulated.power_set(weights_mu)
        nu = FiniteTabulated.power_set(weights_nu)
        pm = ProductMeasure(mu, nu)
        g1, g2 = mu.ring.ground, nu.ring.ground
        for subset in powerset([(x, y) for x in g1 for y in g2]):
            rects = [
                (FinSet.of(g1, [x]), FinSet.of(g2, [y])) for (x, y) in subset
            ]
            u = RectUnion(rects) if rects else RectUnion.empty()
            want = oracle_product_eval(weights_mu, weights_nu, subset)
            if u.is_empty:
                got = ZERO
            else:
                got = pm.measure(u)
            assert got == want, (weights_mu, weights_nu, subset)
            want_sf = oracle_sigma_finite(weights_mu, weights_nu, subset)
            if subset:
                got_sf = pm.set_class(u) is not NOT_SIGMA_FINITE
                assert got_sf == want_sf

    def test_2x2_exhaustive_weights(self):
        values = [ZERO, ExtNonNeg(1), INF]
        for wa in values:
            for wb in values:
                for wc in values:
                    for wd in values:
                        self.exhaustive_ground(
                            {"a": wa, "b": wb}, {"c": wc, "d": wd}
                        )

    def test_3x2_spot(self):
        self.exhaustive_ground(
            {"a": ZERO, "b": INF, "c": ExtNonNeg(2)},
            {"x": ExtNonNeg(1), "y": INF},
        )


class TestFiniteProductMeasure:
    def test_plain_products(self):
        mu = FiniteTabulated.power_set({"a": ExtNonNeg(2), "b": ExtNonNeg(3)})
        nu = FiniteTabulated.power_set({"c": ExtNonNeg(5)})
        prod = finite_product_measure(mu, nu)
        g = prod.ring.ground
        assert prod.measure(FinSet.of(g, [("a", "c")])) == ExtNonNeg(10)
        assert prod.measure(FinSet.of(g, [("b", "c")])) == ExtNonNeg(15)
        assert prod.measure(FinSet.full(g)) == ExtNonNeg(25)

    def test_infinity_times_zero_cell(self):
        mu = FiniteTabulated.power_set({"a": INF})
        nu = FiniteTabulated.power_set({"c": ZERO})
        prod = finite_product_measure(mu, nu)
        g = prod.ring.ground
        assert prod.measure(FinSet.of(g, [("a", "c")])) == INF

    def test_zero_times_finite_cell(self):
        mu = FiniteTabulated.power_set({"a": ZERO})
        nu = FiniteTabulated.power_set({"c": ExtNonNeg(4)})
        prod = finite_product_measure(mu, nu)
        g = prod.ring.ground
        assert prod.measure(FinSet.of(g, [("a", "c")])) == ZERO

    def test_agrees_with_product_measure_eval(self):
        mu = FiniteTabulated.power_set({"a": ExtNonNeg(2), "b": INF})
        nu = FiniteTabulated.power_set({"c": ZERO, "d": ExtNonNeg(1)})
        tab = finite_product_measure(mu, nu)
        pm = ProductMeasure(mu, nu)
        g = tab.ring.ground
        g1, g2 = mu.ring.ground, nu.ring.ground
        for subset in powerset(list(g)):
            s = FinSet.of(g, subset)
            rects = [(FinSet.of(g1, [x]), FinSet.of(g2, [y])) for (x, y) in subset]
            u = RectUnion(rects) if rects else RectUnion.empty()
            expect = ZERO if u.is_empty else pm.measure(u)
            assert tab.measure(s) == expect

    def test_uniqueness_perturbation(self):
        mu = FiniteTabulated.power_set({"a": ExtNonNeg(2), "b": INF})
        nu = FiniteTabulated.power_set({"c": ExtNonNeg(3), "d": ZERO})
        prod = finite_product_measure(mu, nu)
        ring = prod.ring
        sigma_part = {
            frozenset(FinSet(ring.ground, m))
            for m in ring.members
            if prod.finiteness(FinSet(ring.ground, m)) is not NOT_SIGMA_FINITE
        }
        fin_rects = []
        for am in mu.ring.members:
            for bm in nu.ring.members:
                a, b = FinSet(mu.ring.ground, am), FinSet(nu.ring.ground, bm)
                if mu.measure(a).is_finite and nu.measure(b).is_finite:
                    fin_rects.append(frozenset((x, y) for x in a for y in b))
        closure = oracle_sigma_closure(ring.ground, fin_rects)
        assert sigma_part == closure
        # perturb each atom weight and watch property (i) or (ii) fail
        for atom in prod.atoms:
            old = prod.atom_weight(atom)
            for new in [ZERO, ExtNonNeg(1), ExtNonNeg(7), INF]:
                if new == old:
                    continue
                weights = {a: prod.atom_weight(a) for a in prod.atoms}
                weights[atom] = new
                perturbed = FiniteTabulated(ring, weights)
                broken = False
                for am in mu.ring.members:
                    for bm in nu.ring.members:
                        a = FinSet(mu.ring.ground, am)
                        b = FinSet(nu.ring.ground, bm)
                        if not (mu.measure(a).is_finite and nu.measure(b).is_finite):
                            continue
                        from sigma_product.finset import product_set

                        rect = product_set(a, b, ring.ground)
                        if perturbed.measure(rect) != mu.measure(a) * nu.measure(b):
                            broken = True
                if not broken:
                    part = {
                        frozenset(FinSet(ring.ground, m))
                        for m in ring.members
                        if perturbed.finiteness(FinSet(ring.ground, m))
                        is not NOT_SIGMA_FINITE
                    }
                    broken = part != closure
                assert broken, (atom, old, new)


class TestAssociativity:
    def test_curated_real_line_triples(self):
        triples = [
            [(iv(0, 1), pts(0), iv(0, 3))],
            [(RealSet.empty(), pts(0), iv(0, 3))],
            [(pts(0), RealSet.line(), iv(0, 1))],
            [(iv(0, 2), prg(0, 1), iv(0, 1))],
            [(iv(0, 1), pts(0, 1), iv(0, 1)), (iv(2, 3), pts(2), iv(0, 2))],
        ]
        expected = [ExtNonNeg(3), ZERO, INF, INF, ExtNonNeg(F(2) + F(2))]
        for rects, want in zip(triples, expected):
            got = product3_eval(LEB, CNT, LEB, rects)
            assert got == want, rects

    def test_spec_triple_value(self):
        got = product3_eval(LEB, CNT, LEB, [(iv(0, 1), pts(0), iv(0, 3))])
        assert got == ExtNonNeg(3)

    def test_random_finite_triples(self):
        rng = random.Random(4242)
        values = [ZERO, ExtNonNeg(1), ExtNonNeg(2), INF]
        for _ in range(100):
            sizes = [rng.randint(1, 2) for _ in range(3)]
            weightings = []
            for n in sizes:
                weightings.append(
                    {f"e{i}": values[rng.randrange(4)] for i in range(n)}
                )
            ms = [FiniteTabulated.power_set(w) for w in weightings]
            grounds = [m.ring.ground for m in ms]
            triples = []
            for _ in range(rng.randint(1, 3)):
                sides = []
                for g in grounds:
                    sides.append(
                        FinSet(g, rng.randrange(1 << len(g)))
                    )
                triples.append(tuple(sides))
            product3_eval(ms[0], ms[1], ms[2], triples)


class TestComponentProductAgreement:
    """The product's sigma-finite part evaluates like the product of the
    sigma-finite components; off it, the product is infinite."""

    def test_exhaustive_2x2(self):
        import itertools

        from sigma_product.errors import NotMeasurable
        from sigma_product.oracle import powerset as oracle_powerset

        values = [ZERO, ExtNonNeg(1), INF]
        for w in itertools.product(values, repeat=4):
            mu = FiniteTabulated.power_set({"a": w[0], "b": w[1]})
            nu = FiniteTabulated.power_set({"c": w[2], "d": w[3]})
            pm = ProductMeasure(mu, nu)
            pm_sigma = ProductMeasure(
                mu.sigma_finite_component(), nu.sigma_finite_component()
            )
            g1, g2 = mu.ring.ground, nu.ring.ground
            for subset in oracle_powerset([(x, y) for x in g1 for y in g2]):
                if not subset:
                    continue
                u = RectUnion(
                    [(FinSet.of(g1, [x]), FinSet.of(g2, [y])) for x, y in subset]
                )
                if pm.set_class(u) is NOT_SIGMA_FINITE:
                    assert pm.measure(u) == INF
                    with pytest.raises(NotMeasurable):
                        pm_sigma.measure(u)
                else:
                    assert pm.measure(u) == pm_sigma.measure(u)

    def test_real_line_cases(self):
        from sigma_product.errors import NotMeasurable

        pm = ProductMeasure(LEB, CNT)
        pm_sigma = ProductMeasure(
            LEB.sigma_finite_component(), CNT.sigma_finite_component()
        )
        sigma_finite_cases = [
            RectUnion.of((iv(0, 1), pts(0, 1, 2))),
            RectUnion.of((RealSet.line(), prg(0, 1))),
            RectUnion.of((iv(0, 2), pts(0)), (iv(0, 1), pts(1))),
        ]
        for u in sigma_finite_cases:
            assert pm.measure(u) == pm_sigma.measure(u)
            assert pm.set_class(u) is not NOT_SIGMA_FINITE
        bad = RectUnion.of((pts(0), RealSet.line()))
        assert pm.measure(bad) == INF
        with pytest.raises(NotMeasurable):
            pm_sigma.measure(bad)
