import random
from fractions import Fraction

import pytest

from sigma_product.errors import NotIntegrable, NotSimpleTensor, UniverseMismatch
from sigma_product.extreal import INF, ZERO, ExtNonNeg
from sigma_product.finset import FinSet
from sigma_product.integration import (
    ALL_EQUAL,
    HYPOTHESIS_VIOLATED,
    SimpleFunction,
    ae_equal,
    extended_integral,
    fubini_check,
    integrate,
    is_integrable,
    render_value,
    tensor_functional,
    _Grid,
    _integrals,
)
from sigma_product.lineset import RealSet
from sigma_product.measures import (
    CountingLine,
    FiniteTabulated,
    LebesgueLine,
)
from sigma_product.oracle import oracle_fubini
from sigma_product.product import ProductMeasure
from sigma_product.rectset import RectUnion

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


def fubini_signed_reference(grid, mu_vals, nu_vals, cell_values):
    """The former exact-rational accumulator for integrable grids: the sum
    over cells and the outer sums of the row and column slices, skipping
    the slices of a null row or column, since they may be infinite."""
    product = Fraction(0)
    rows, cols = {}, {}
    for (i, j, c), value in zip(grid.cells, cell_values):
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
            grid = _Grid(list(range(rows)), list(range(cols)), cells)
            got = _integrals(grid, mu_vals, nu_vals, cell_values)
            want = fubini_signed_reference(grid, mu_vals, nu_vals, cell_values)
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
