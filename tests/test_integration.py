import random
from fractions import Fraction

import pytest

from sigma_product.errors import NotIntegrable, NotSimpleTensor, UniverseMismatch
from sigma_product.extreal import INF, ZERO, ExtNonNeg
from sigma_product.finset import FinSet
from sigma_product.integration import (
    ALL_EQUAL,
    HYPOTHESIS_VIOLATED,
    IntegralReport,
    SimpleFunction,
    ae_equal,
    extended_integral,
    fubini_check,
    integrate,
    is_integrable,
    render_value,
    tensor_functional,
    _integrals,
)
from sigma_product.lineset import RealSet
from sigma_product.measures import (
    CountableAtomic,
    CountingLine,
    DiracAt,
    FiniteTabulated,
    LebesgueLine,
)
from sigma_product.oracle import oracle_fubini
from sigma_product.product import ProductMeasure
from sigma_product.rectset import RectUnion, rect_grid

F = Fraction
LEB = LebesgueLine()
CNT = CountingLine()


def iv(lo, hi, lo_open=False, hi_open=False):
    return RealSet.interval(
        None if lo is None else F(lo), None if hi is None else F(hi), lo_open, hi_open
    )


def pts(*values):
    return RealSet.points([F(v) for v in values])


def prg(base, step):
    return RealSet.progression(F(base), F(step))


def ind(s, c=1):
    return SimpleFunction.indicator(s, F(c))


class TestCanonicalForm:
    def test_level_sets(self):
        f = ind(iv(0, 2)) + ind(iv(1, 3))
        # values: 1 on [0,1)+(2,3], 2 on [1,2]
        assert f.value_at(F(1, 2)) == 1
        assert f.value_at(F(3, 2)) == 2
        assert f.value_at(F(5, 2)) == 1
        assert f.value_at(F(4)) == 0
        assert len(f.terms) == 2

    def test_cancellation(self):
        f = ind(iv(0, 1)) - ind(iv(0, 1))
        assert f.is_zero

    def test_presentation_independent(self):
        f = ind(iv(0, 2))
        g = ind(iv(0, 1)) + ind(iv(1, 2, True, False))
        assert f == g

    def test_zero_coefficient_dropped(self):
        f = ind(iv(0, 2)) + ind(iv(0, 1), 0)
        assert f == ind(iv(0, 2))

    def test_stone_operations(self):
        f = ind(iv(0, 1), -2) + ind(iv(2, 3), F(1, 2))
        assert f.abs() == ind(iv(0, 1), 2) + ind(iv(2, 3), F(1, 2))
        clamped = (ind(iv(0, 1), 3) + ind(iv(2, 3), F(1, 2))).min_with(1)
        assert clamped == ind(iv(0, 1), 1) + ind(iv(2, 3), F(1, 2))

    def test_value_at_product(self):
        f = ind(RectUnion.of((iv(0, 2), pts(0))), 3)
        assert f.value_at((F(1), F(0))) == 3
        assert f.value_at((F(1), F(1))) == 0


class TestEmptyUnionOfUnknownUniverse:
    """``RectUnion.empty()`` has no universe, so it neither sets nor
    contradicts the universe of a function."""

    def test_term_order_does_not_matter(self):
        r = RectUnion.of((iv(0, 1), iv(0, 2)))
        f = SimpleFunction([(F(1), RectUnion.empty()), (F(2), r)])
        g = SimpleFunction([(F(2), r), (F(1), RectUnion.empty())])
        assert f == g == ind(r, 2)
        assert f.universe == g.universe == ("prod", ("line",), ("line",))

    def test_zero_function_integrates_to_zero(self):
        f = SimpleFunction([(F(1), RectUnion.empty())])
        assert f.is_zero and f.universe is None
        report = fubini_check(f, LEB, CNT)
        assert (report.product_value, report.iterated_sv, report.iterated_ts) == (0, 0, 0)
        assert report.verdict == ALL_EQUAL
        assert tensor_functional(f, LEB, CNT) == 0
        pm = ProductMeasure(LEB, CNT)
        assert integrate(f, pm) == 0
        assert extended_integral(f, pm) == ZERO

    def test_functions_over_different_universes_are_unequal(self):
        line = ind(RectUnion.of((iv(0, 1), iv(0, 1))))
        fin = ind(RectUnion.of((FinSet.of(("a",), ["a"]), FinSet.of(("b",), ["b"]))))
        assert not line == fin and line != fin and fin not in [line]


class TestIsIntegrable:
    def test_finite_interval_lebesgue(self):
        assert is_integrable(ind(iv(0, 1)), LEB)

    def test_whole_line_not(self):
        assert not is_integrable(ind(RealSet.line()), LEB)

    def test_interval_under_counting_not(self):
        assert not is_integrable(ind(iv(0, 1)), CNT)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            is_integrable(ind(FinSet.of(("a",), ["a"])), LEB)


class TestIntegrate:
    def test_scaled_interval(self):
        assert integrate(ind(iv(0, 3), 2), LEB) == 6

    def test_counting_points(self):
        assert integrate(ind(pts(0, 1)), CNT) == 2

    def test_null_support(self):
        assert integrate(ind(pts(5)), LEB) == 0

    def test_signed(self):
        f = ind(iv(0, 1), 2) + ind(iv(2, 4), -3)
        assert integrate(f, LEB) == 2 - 6

    def test_not_integrable_raises(self):
        with pytest.raises(NotIntegrable):
            integrate(ind(RealSet.line()), LEB)

    def test_linearity_random(self):
        rng = random.Random(10)
        for _ in range(60):
            def rf():
                terms = []
                for _ in range(rng.randint(0, 3)):
                    a = F(rng.randint(-6, 6))
                    terms.append(
                        (F(rng.randint(-4, 4), rng.randint(1, 3)), iv(a, a + rng.randint(0, 5)))
                    )
                return SimpleFunction(terms, ("line",))

            f, g = rf(), rf()
            c = F(rng.randint(-3, 3), rng.randint(1, 2))
            assert integrate(f + g, LEB) == integrate(f, LEB) + integrate(g, LEB)
            assert integrate(f.scale(c), LEB) == c * integrate(f, LEB)

    def test_integral_depends_on_component_only(self):
        rng = random.Random(202)
        comp = CNT.sigma_finite_component()
        for _ in range(50):
            points = [F(rng.randint(-10, 10)) for _ in range(rng.randint(0, 4))]
            f = SimpleFunction(
                [(F(rng.randint(-5, 5)), pts(*points))] if points else [],
                ("line",),
            )
            assert is_integrable(f, CNT) == is_integrable(f, comp)
            if is_integrable(f, CNT):
                assert integrate(f, CNT) == integrate(f, comp)


class TestExtendedIntegral:
    def test_whole_line(self):
        assert extended_integral(ind(RealSet.line()), LEB) == INF

    def test_zero_function(self):
        assert extended_integral(SimpleFunction.zero(("line",)), LEB) == ZERO

    def test_infinite_atom(self):
        m = FiniteTabulated.power_set({"a": INF})
        g = m.ring.ground
        f = ind(FinSet.of(g, ["a"]), 3)
        assert extended_integral(f, m) == INF

    def test_agrees_with_integrate_when_integrable(self):
        f = ind(iv(0, 2), F(3, 2)) + ind(pts(7), 5)
        assert extended_integral(f, LEB) == ExtNonNeg(integrate(f, LEB))

    def test_monotone(self):
        rng = random.Random(33)
        for _ in range(50):
            terms = []
            for _ in range(rng.randint(0, 3)):
                a = F(rng.randint(-6, 6))
                terms.append((F(rng.randint(0, 4)), iv(a, a + rng.randint(0, 5))))
            f = SimpleFunction(terms, ("line",))
            bigger = f + ind(iv(-1, 1), F(rng.randint(0, 3)))
            assert extended_integral(f, LEB) <= extended_integral(bigger, LEB)

    def test_signed_rejected(self):
        with pytest.raises(ValueError):
            extended_integral(ind(iv(0, 1), -1), LEB)


class TestAeEqual:
    def test_null_difference_lebesgue(self):
        f = ind(iv(0, 1))
        g = ind(iv(0, 1) - pts(F(1, 2)))
        assert ae_equal(f, g, LEB)

    def test_counting_sees_the_point(self):
        f = ind(iv(0, 1))
        g = ind(iv(0, 1) - pts(F(1, 2)))
        assert not ae_equal(f, g, CNT)

    def test_reflexive(self):
        f = ind(iv(0, 1), 3) + ind(pts(9), -1)
        assert ae_equal(f, f, LEB)

    def test_integrals_agree_for_ae_equal(self):
        rng = random.Random(7)
        for _ in range(40):
            a = F(rng.randint(-5, 5))
            body = iv(a, a + rng.randint(1, 4))
            f = ind(body, F(rng.randint(-3, 3)))
            g = ind(body - pts(a + F(1, 3)), f.terms[0][0] if f.terms else F(0))
            if f.is_zero or g.is_zero:
                continue
            assert ae_equal(f, g, LEB)
            assert integrate(f, LEB) == integrate(g, LEB)


class TestTensorFunctional:
    def test_spec_example(self):
        f = ind(RectUnion.of((iv(0, 2), pts(0)))) + ind(
            RectUnion.of((iv(0, 1), pts(1))), 2
        )
        assert tensor_functional(f, LEB, CNT) == 4

    def test_zero(self):
        assert tensor_functional(SimpleFunction.zero(), LEB, CNT) == 0

    def test_single_rectangle(self):
        f = ind(RectUnion.of((iv(0, 3), pts(0, 1))), F(5, 2))
        assert tensor_functional(f, LEB, CNT) == F(5, 2) * 3 * 2

    def test_infinite_side_rejected(self):
        f = ind(RectUnion.of((RealSet.line(), pts(0))))
        with pytest.raises(NotSimpleTensor):
            tensor_functional(f, LEB, CNT)

    def test_matches_product_integral(self):
        rng = random.Random(88)
        pm = ProductMeasure(LEB, CNT)
        for _ in range(40):
            terms = []
            for _ in range(rng.randint(0, 3)):
                a = F(rng.randint(-4, 4))
                rect = (iv(a, a + rng.randint(0, 4)), pts(*range(rng.randint(0, 3))))
                terms.append((F(rng.randint(-3, 3)), RectUnion.of(rect)))
            f = SimpleFunction(terms, ("prod", ("line",), ("line",)))
            if not all(
                pm.finiteness(s).value == "finite" for _, s in f.terms
            ):
                continue
            assert tensor_functional(f, LEB, CNT) == integrate(f, pm)


class TestFubiniCheck:
    def test_spec_all_equal_example(self):
        f = ind(RectUnion.of((iv(0, 2), pts(0)))) + ind(
            RectUnion.of((iv(0, 1), pts(1))), 2
        )
        report = fubini_check(f, LEB, CNT)
        assert report.verdict == ALL_EQUAL
        assert report.product_value == 4
        assert report.iterated_sv == 4
        assert report.iterated_ts == 4

    def test_tonelli_infinite_value(self):
        f = ind(RectUnion.of((RealSet.line(), pts(0))))
        report = fubini_check(f, LEB, CNT)
        assert report.verdict == ALL_EQUAL
        assert report.product_value == INF
        assert report.iterated_sv == INF
        assert report.iterated_ts == INF

    def test_hypothesis_violation_reproduces_fubini_failure(self):
        f = ind(RectUnion.of((pts(0), RealSet.line())))
        report = fubini_check(f, LEB, CNT)
        assert report.verdict == HYPOTHESIS_VIOLATED
        assert report.product_value == INF
        assert report.iterated_sv == ZERO
        assert report.iterated_ts == ZERO
        assert render_value(report.product_value) == "inf"
        assert render_value(report.iterated_sv) == "0"

    def test_zero_function(self):
        report = fubini_check(SimpleFunction.zero(), LEB, CNT)
        assert report.verdict == ALL_EQUAL
        assert report.product_value == 0

    def test_signed_integrable(self):
        f = ind(RectUnion.of((iv(0, 1), pts(0))), -2) + ind(
            RectUnion.of((iv(0, 3), pts(1))), F(1, 2)
        )
        report = fubini_check(f, LEB, CNT)
        assert report.verdict == ALL_EQUAL
        assert report.product_value == -2 + F(3, 2)

    def test_product_factor_is_evaluated_once_per_part(self, monkeypatch):
        a1 = RectUnion.of((iv(0, 1), pts(0)))
        a2 = RectUnion.of((iv(0, 2), pts(0, 1)))
        f = ind(RectUnion.of((a1, iv(0, 1)))) + ind(RectUnion.of((a2, iv(0, 3))), 2)
        a_parts, _, _ = rect_grid([rect for _, u in f.terms for rect in u.rects])
        calls = []
        evaluate = ProductMeasure.evaluate
        monkeypatch.setattr(
            ProductMeasure, "evaluate", lambda pm, u: calls.append(u) or evaluate(pm, u)
        )
        report = fubini_check(f, ProductMeasure(LEB, CNT), LEB)
        # mu(a1) * 1 + 2 * mu(a2) * 3, with mu(a1) = 1 * 1 and mu(a2) = 2 * 2
        assert report == IntegralReport(F(25), F(25), F(25), ALL_EQUAL)
        assert len(a_parts) == 2 and calls == list(a_parts)

    def test_signed_non_integrable_diagnostic(self):
        f = ind(RectUnion.of((RealSet.line(), pts(0))), -1)
        report = fubini_check(f, LEB, CNT)
        assert report.verdict == HYPOTHESIS_VIOLATED
        assert render_value(report.product_value) == "-inf"

    def test_exhaustive_small_grounds_against_oracle(self):
        values = [ZERO, ExtNonNeg(1), INF]
        coeffs = [F(0), F(1), F(2)]
        for wa in values:
            for wb in values:
                mu = FiniteTabulated.power_set({"a": wa, "b": wb})
                for wc in values:
                    nu = FiniteTabulated.power_set({"c": wc})
                    g1, g2 = mu.ring.ground, nu.ring.ground
                    for c1 in coeffs:
                        for c2 in coeffs:
                            f = SimpleFunction(
                                [
                                    (c1, RectUnion.of((FinSet.of(g1, ["a"]), FinSet.of(g2, ["c"])))),
                                    (c2, RectUnion.of((FinSet.of(g1, ["b"]), FinSet.of(g2, ["c"])))),
                                ],
                                ("prod", mu.universe, nu.universe),
                            )
                            grid = {
                                ("a", "c"): ExtNonNeg(c1),
                                ("b", "c"): ExtNonNeg(c2),
                            }
                            want = oracle_fubini(
                                grid, {"a": wa, "b": wb}, {"c": wc}
                            )
                            report = fubini_check(f, mu, nu)
                            got = (
                                report.product_value,
                                report.iterated_sv,
                                report.iterated_ts,
                            )
                            for gv, wv in zip(got, want):
                                assert render_value(gv) == str(wv), (
                                    wa,
                                    wb,
                                    wc,
                                    c1,
                                    c2,
                                    got,
                                    want,
                                )
                            if report.verdict == ALL_EQUAL:
                                assert str(want[0]) == str(want[1]) == str(want[2])

    def test_signed_grids_against_oracle_parts(self):
        # oracle_fubini takes nonnegative coefficients, so a signed grid is
        # checked against oracle(positive part) - oracle(negative part)
        def ext_sub(p, n):
            if p.is_finite and n.is_finite:
                return render_value(p.finite - n.finite)
            if p.is_finite:
                return "-inf"
            if n.is_finite:
                return "inf"
            return "undefined"

        rng = random.Random(9)
        values = [ZERO, ExtNonNeg(1), ExtNonNeg(2), INF]
        for size in (2, 3):
            for _ in range(150):
                wmu = {f"a{k}": rng.choice(values) for k in range(size)}
                wnu = {f"b{k}": rng.choice(values) for k in range(size)}
                mu = FiniteTabulated.power_set(wmu)
                nu = FiniteTabulated.power_set(wnu)
                g1, g2 = mu.ring.ground, nu.ring.ground
                coeffs = {(x, y): rng.randint(-2, 2) for x in g1 for y in g2}
                f = SimpleFunction(
                    [
                        (F(c), RectUnion.of((FinSet.of(g1, [x]), FinSet.of(g2, [y]))))
                        for (x, y), c in coeffs.items()
                        if c
                    ],
                    ("prod", mu.universe, nu.universe),
                )
                pos = oracle_fubini(
                    {k: ExtNonNeg(c) for k, c in coeffs.items() if c > 0}, wmu, wnu
                )
                neg = oracle_fubini(
                    {k: ExtNonNeg(-c) for k, c in coeffs.items() if c < 0}, wmu, wnu
                )
                report = fubini_check(f, mu, nu)
                got = tuple(
                    render_value(v)
                    for v in (report.product_value, report.iterated_sv, report.iterated_ts)
                )
                want = tuple(ext_sub(p, n) for p, n in zip(pos, neg))
                assert got == want, (wmu, wnu, coeffs)


class TestTensorIsTheReportValue:
    """The tensor functional is the Fubini report's product value when every
    rectangle side has finite measure, and raises NotSimpleTensor exactly
    when some rectangle, and so some grid cell, has an infinite side."""

    def check(self, f, mu, nu, counts):
        sides = [
            (mu.measure(a), nu.measure(b)) for _, u in f.terms for a, b in u.rects
        ]
        report = fubini_check(f, mu, nu)
        if all(x.is_finite and y.is_finite for x, y in sides):
            assert tensor_functional(f, mu, nu) == report.product_value
            assert report.verdict == ALL_EQUAL
            counts["applies"] += 1
        else:
            with pytest.raises(NotSimpleTensor):
                tensor_functional(f, mu, nu)
            counts["raises"] += 1
        counts["zero_inf"] += any({x, y} == {ZERO, INF} for x, y in sides)

    def test_random_line_grids(self):
        sides = [
            iv(0, 1), iv(0, 2), iv(1, 3, True), pts(0), pts(0, 1), pts(F(1, 2)),
            prg(0, 1), iv(0, None, False, True), RealSet.line() - pts(0), iv(0, 1) | pts(5),
        ]
        measures = [
            LEB, CNT, DiracAt(F(1, 2)),
            CountableAtomic([(F(0), INF), (F(1), ExtNonNeg(2))]),
        ]
        coeffs = [F(-2), F(-1), F(1, 2), F(1), F(2)]
        rng = random.Random(16)
        counts = {"applies": 0, "raises": 0, "zero_inf": 0}
        for _ in range(300):
            mu, nu = rng.choice(measures), rng.choice(measures)
            f = SimpleFunction(
                [
                    (rng.choice(coeffs), RectUnion.of((rng.choice(sides), rng.choice(sides))))
                    for _ in range(rng.randint(1, 3))
                ],
                ("prod", ("line",), ("line",)),
            )
            self.check(f, mu, nu, counts)
        assert counts["applies"] > 50 and counts["raises"] > 50 and counts["zero_inf"] > 20

    def test_random_finite_ground_grids(self):
        weights = [ZERO, ExtNonNeg(1), ExtNonNeg(F(5, 2)), INF]
        rng = random.Random(61)
        counts = {"applies": 0, "raises": 0, "zero_inf": 0}
        for _ in range(300):
            mu = FiniteTabulated.power_set({x: rng.choice(weights) for x in "abc"})
            nu = FiniteTabulated.power_set({y: rng.choice(weights) for y in "de"})
            g1, g2 = mu.ring.ground, nu.ring.ground
            f = SimpleFunction(
                [
                    (
                        F(rng.choice([-2, -1, 1, 3])),
                        RectUnion.of((
                            FinSet(g1, rng.randrange(1, 1 << len(g1))),
                            FinSet(g2, rng.randrange(1, 1 << len(g2))),
                        )),
                    )
                    for _ in range(rng.randint(1, 3))
                ],
                ("prod", mu.universe, nu.universe),
            )
            self.check(f, mu, nu, counts)
        assert counts["applies"] > 50 and counts["raises"] > 50 and counts["zero_inf"] > 20


def fubini_signed_reference(cells, mu_vals, nu_vals, cell_values):
    """The former exact-rational accumulator for integrable grids: the sum
    over cells and the outer sums of the row and column slices, skipping
    the slices of a null row or column, since they may be infinite."""
    product = Fraction(0)
    rows, cols = {}, {}
    for (i, j, c), value in zip(cells, cell_values):
        product += c * value.finite
        if not mu_vals[i].is_zero:
            rows[i] = rows.get(i, 0) + c * nu_vals[j].finite
        if not nu_vals[j].is_zero:
            cols[j] = cols.get(j, 0) + c * mu_vals[i].finite
    by_rows = sum((mu_vals[i].finite * s for i, s in rows.items() if s), Fraction(0))
    by_cols = sum((nu_vals[j].finite * s for j, s in cols.items() if s), Fraction(0))
    return product, by_rows, by_cols


class TestIntegralsAgainstSignedReference:
    def test_random_integrable_grids(self):
        rng = random.Random(12)
        side_values = [ZERO, ExtNonNeg(1), ExtNonNeg(F(1, 3)), ExtNonNeg(5), INF]
        coeffs = [F(-3), F(-1), F(-1, 2), F(1, 2), F(1), F(2)]
        checked = null_meets_inf = 0
        while checked < 2000:
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            mu_vals = [rng.choice(side_values) for _ in range(rows)]
            nu_vals = [rng.choice(side_values) for _ in range(cols)]
            cells = tuple(
                (i, j, rng.choice(coeffs))
                for i in range(rows)
                for j in range(cols)
                if rng.random() < 0.6
            )
            cell_values = [mu_vals[i] * nu_vals[j] for i, j, _ in cells]
            if not all(v.is_finite for v in cell_values):
                continue
            got = _integrals(cells, mu_vals, nu_vals, cell_values)
            want = fubini_signed_reference(cells, mu_vals, nu_vals, cell_values)
            assert got == want, (mu_vals, nu_vals, cells)
            assert all(type(v) is Fraction for v in got)
            checked += 1
            null_meets_inf += any(
                {mu_vals[i], nu_vals[j]} == {ZERO, INF} for i, j, _ in cells
            )
        assert null_meets_inf > 200


class TestTensorExhaustiveFiniteGrounds:
    def test_all_orders_coincide_on_2x2_finite_weights(self):
        values = [ZERO, ExtNonNeg(1), ExtNonNeg(F(3, 2))]
        coeffs = [F(0), F(1), F(-2)]
        import itertools

        for w in itertools.product(values, repeat=4):
            mu = FiniteTabulated.power_set({"a": w[0], "b": w[1]})
            nu = FiniteTabulated.power_set({"c": w[2], "d": w[3]})
            g1, g2 = mu.ring.ground, nu.ring.ground
            pm = ProductMeasure(mu, nu)
            cells = [(x, y) for x in g1 for y in g2]
            for cs in itertools.product(coeffs, repeat=4):
                terms = [
                    (c, RectUnion.of((FinSet.of(g1, [x]), FinSet.of(g2, [y]))))
                    for c, (x, y) in zip(cs, cells)
                    if c != 0
                ]
                f = SimpleFunction(terms, ("prod", mu.universe, nu.universe))
                # all weights finite, so the tensor functional always applies
                value = tensor_functional(f, mu, nu)
                assert value == integrate(f, pm)
