"""Simple functions, their integrals, and the Fubini-Tonelli checker.

A simple function is a finite rational combination of indicators of
representable sets.  Canonical form stores one term per distinct nonzero
value, supported on the exact level set, so equal functions compare
equal.  Integrals are exact; the extended integral allows infinity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, TypeAlias, Union

from sigma_product.errors import (
    NotIntegrable,
    NotSimpleTensor,
    UniverseMismatch,
)
from sigma_product.extreal import INF, ZERO, ExtNonNeg, ext_sum, render_rational
from sigma_product.finset import FinSet
from sigma_product.frozen import Frozen
from sigma_product.lineset import RealSet
from sigma_product.measures import (
    FINITE,
    NOT_SIGMA_FINITE,
    Measure,
)
from sigma_product.rectset import RectUnion, rect_grid, refine_parts


class _NegativeInfinity(Frozen):
    """Sentinel for diagnostic values of the form finite - infinity; with
    no fields it compares by type, so copies and unpickled ones are equal."""

    __slots__ = ()

    def __repr__(self):
        return "-inf"


NEG_INF = _NegativeInfinity()

# A string: typing's subscription cache would keep these classes, and every
# purged copy of the package with them, alive.
Value: TypeAlias = "Union[Fraction, ExtNonNeg, _NegativeInfinity, None]"


def empty_set_for(universe: tuple):
    if universe[0] == "line":
        return RealSet.empty()
    if universe[0] == "fin":
        return FinSet.empty(universe[1])
    return RectUnion.empty()


class SimpleFunction(Frozen):
    """A finite-valued function with representable level sets."""

    __slots__ = ("terms", "universe")

    def __init__(
        self,
        terms: Sequence[Tuple[Fraction, object]],
        universe: Optional[tuple] = None,
    ):
        for _, s in terms:
            u = s.universe
            if universe is None:
                universe = u
            elif u != universe and not (
                isinstance(s, RectUnion) and s.is_empty
            ):
                raise UniverseMismatch("simple-function terms over mixed universes")
        canonical = _level_sets([(Fraction(c), s) for c, s in terms])
        object.__setattr__(self, "terms", canonical)
        object.__setattr__(self, "universe", universe)

    @staticmethod
    def zero(universe: Optional[tuple] = None) -> "SimpleFunction":
        return SimpleFunction([], universe)

    @staticmethod
    def indicator(s, coeff: Fraction = Fraction(1)) -> "SimpleFunction":
        return SimpleFunction([(Fraction(coeff), s)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def nonnegative(self) -> bool:
        return all(c >= 0 for c, _ in self.terms)

    def value_at(self, x) -> Fraction:
        for c, s in self.terms:
            if s.member(x):
                return c
        return Fraction(0)

    def support(self):
        out = None
        for _, s in self.terms:
            out = s if out is None else out | s
        if out is None:
            return empty_set_for(self.universe) if self.universe else None
        return out

    def __add__(self, other: "SimpleFunction") -> "SimpleFunction":
        if not isinstance(other, SimpleFunction):
            return NotImplemented
        universe = self.universe or other.universe
        return SimpleFunction(list(self.terms) + list(other.terms), universe)

    def scale(self, factor: Fraction) -> "SimpleFunction":
        factor = Fraction(factor)
        return SimpleFunction([(c * factor, s) for c, s in self.terms], self.universe)

    def __neg__(self) -> "SimpleFunction":
        return self.scale(Fraction(-1))

    def __sub__(self, other: "SimpleFunction") -> "SimpleFunction":
        return self + (-other)

    def abs(self) -> "SimpleFunction":
        return SimpleFunction([(abs(c), s) for c, s in self.terms], self.universe)

    def min_with(self, bound: Fraction = Fraction(1)) -> "SimpleFunction":
        """Pointwise minimum with a nonnegative constant (Stone clamp)."""
        bound = Fraction(bound)
        if bound < 0:
            raise ValueError("clamp bound must be nonnegative")
        return SimpleFunction(
            [(min(c, bound), s) for c, s in self.terms], self.universe
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleFunction):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        return all(
            c1 == c2 and s1 == s2
            for (c1, s1), (c2, s2) in zip(self.terms, other.terms)
        )

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for c, s in self.terms:
            bits.append(f"{render_rational(c)}*ind({s.render()})")
        return " + ".join(bits)

    def __repr__(self):
        return f"SimpleFunction({self.render()})"


def _level_sets(terms: List[Tuple[Fraction, object]]):
    """Canonical (value, level-set) pairs, values sorted."""
    active = [(c, s) for c, s in terms if not s.is_empty]
    if not active:
        return ()
    levels: dict[Fraction, object] = {}
    for cell, _ in refine_parts([s for _, s in active]):
        total = Fraction(0)
        for c, s in active:
            if (cell - s).is_empty:
                total += c
        if total == 0:
            continue
        if total in levels:
            levels[total] = levels[total] | cell
        else:
            levels[total] = cell
    return tuple((c, levels[c]) for c in sorted(levels))


# ---------------------------------------------------------------------------
# Integrals


def is_integrable(f: SimpleFunction, m: Measure) -> bool:
    """Integrable iff every nonzero level set has finite measure."""
    _check_universe(f, m.universe)
    return all(m.finiteness(s) is FINITE for _, s in f.terms)


def integrate(f: SimpleFunction, m: Measure) -> Fraction:
    """Exact signed integral of an integrable simple function; each level
    set is measured once."""
    _check_universe(f, m.universe)
    total = Fraction(0)
    for c, s in f.terms:
        value = m.measure(s)
        if not value.is_finite:
            raise NotIntegrable("a level set has infinite measure")
        total += c * value.finite
    return total


def extended_integral(f: SimpleFunction, m: Measure) -> ExtNonNeg:
    """Integral of a nonnegative simple function, allowing infinity."""
    _check_universe(f, m.universe)
    if not f.nonnegative:
        raise ValueError("extended integral requires nonnegative coefficients")
    total = ZERO
    for c, s in f.terms:
        total = total + ExtNonNeg(c) * m.measure(s)
    return total


def ae_equal(f: SimpleFunction, g: SimpleFunction, m: Measure) -> bool:
    """True iff the set where the functions differ is null."""
    diff = f - g
    if diff.is_zero:
        return True
    return m.measure(diff.support()) == ZERO


def _check_universe(f: SimpleFunction, universe: tuple) -> None:
    if f.universe is not None and f.universe != universe:
        raise UniverseMismatch("function and measure over different universes")


# ---------------------------------------------------------------------------
# Product grids


def _grid(f: SimpleFunction, mu: Measure, nu: Measure):
    """The product grid of f: the cells ``(i, j, c)`` where f takes the
    nonzero value c on a_parts[i] x b_parts[j], with each A-part's and
    B-part's ``(value, class)`` from one evaluation."""
    _check_universe(f, ("prod", mu.universe, nu.universe))
    rects, coeffs = [], []
    for c, ru in f.terms:
        for rect in ru.rects:
            rects.append(rect)
            coeffs.append(c)
    a_parts, b_parts, cover = rect_grid(rects)
    cells = tuple((i, j, coeffs[k]) for i, j, k in cover)
    return cells, [mu.evaluate(a) for a in a_parts], [nu.evaluate(b) for b in b_parts]


def tensor_functional(f: SimpleFunction, mu: Measure, nu: Measure) -> Fraction:
    """Value of the tensor functional on a product simple function whose
    rectangles have finite-measure sides: the product value of the Fubini
    report, whose identity check covers both slicing orders."""
    cells, mu_ev, nu_ev = _grid(f, mu, nu)
    for i, j, _ in cells:
        if not (mu_ev[i][0].is_finite and nu_ev[j][0].is_finite):
            raise NotSimpleTensor("a rectangle side has infinite measure")
    return _report(f, cells, mu_ev, nu_ev).product_value


# ---------------------------------------------------------------------------
# Fubini-Tonelli


ALL_EQUAL = "all-equal"
HYPOTHESIS_VIOLATED = "hypothesis-violated"


class IntegralReport(Frozen):
    """The product integral and both iterated integrals, plus a verdict.

    Values are exact: a signed rational, a nonnegative extended value, or
    None when a diagnostic difference is of the undefined form inf - inf.
    """

    __slots__ = ("product_value", "iterated_sv", "iterated_ts", "verdict", "reason")

    def __init__(
        self,
        product_value: Value,
        iterated_sv: Value,
        iterated_ts: Value,
        verdict: str,
        reason: Optional[str] = None,
    ):
        object.__setattr__(self, "product_value", product_value)
        object.__setattr__(self, "iterated_sv", iterated_sv)
        object.__setattr__(self, "iterated_ts", iterated_ts)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "reason", reason)

    @property
    def all_equal(self) -> bool:
        return self.verdict == ALL_EQUAL


def render_value(v: Value) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, _NegativeInfinity):
        return "-inf"
    if isinstance(v, ExtNonNeg):
        return str(v)
    return render_rational(v)


def fubini_check(f: SimpleFunction, mu: Measure, nu: Measure) -> IntegralReport:
    """Check the product integral against both iterated integrals.

    Each of the three values is the integral of the positive part minus
    that of the negative part.  With every cell of finite measure (an
    integrable integrand) they must agree by Fubini; with a nonnegative
    integrand of sigma-finite support, by Tonelli.  Otherwise the verdict
    flags the broken hypothesis, and the values may genuinely disagree.
    """
    return _report(f, *_grid(f, mu, nu))


def _report(f: SimpleFunction, cells, mu_ev, nu_ev) -> IntegralReport:
    mu_vals = [v for v, _ in mu_ev]
    nu_vals = [v for v, _ in nu_ev]
    mu_nsf = [cls is NOT_SIGMA_FINITE for _, cls in mu_ev]
    nu_nsf = [cls is NOT_SIGMA_FINITE for _, cls in nu_ev]

    # A cell with a non-sigma-finite side has product measure infinity.
    sigma_finite_support = not any(mu_nsf[i] or nu_nsf[j] for i, j, _ in cells)
    cell_values = [
        INF if mu_nsf[i] or nu_nsf[j] else mu_vals[i] * nu_vals[j]
        for i, j, _ in cells
    ]
    product, sv, ts = _integrals(cells, mu_vals, nu_vals, cell_values)

    if all(v.is_finite for v in cell_values) or (f.nonnegative and sigma_finite_support):
        assert product == sv == ts, "Fubini-Tonelli identity failed"
        return IntegralReport(product, sv, ts, ALL_EQUAL)
    if not f.nonnegative:
        reason = "integrand is signed but not integrable"
    else:
        reason = "support is not sigma-finite"
    return IntegralReport(product, sv, ts, HYPOTHESIS_VIOLATED, reason)


def _integrals(cells, mu_vals, nu_vals, cell_values) -> Tuple[Value, Value, Value]:
    """The product integral and both iterated integrals of the cells, each
    as the integral of the positive part minus that of the negative part.
    A null row meets an infinite column in a null cell (0 * inf = 0), so an
    integrable grid has finite parts and exact rational values."""
    pos = _tonelli_extended(cells, mu_vals, nu_vals, cell_values, 1)
    neg = _tonelli_extended(cells, mu_vals, nu_vals, cell_values, -1)
    return tuple(_ext_sub(p, n) for p, n in zip(pos, neg))


def _ext_sub(p: ExtNonNeg, n: ExtNonNeg) -> Value:
    if p.is_finite and n.is_finite:
        return p.finite - n.finite
    if p.is_finite:
        return NEG_INF
    if n.is_finite:
        return INF
    return None  # inf - inf


def _tonelli_extended(cells, mu_vals, nu_vals, cell_values, sign):
    """All three integrals in [0, inf] of the cells whose
    coefficients have the given sign (1 or -1), taken by magnitude."""
    product = ZERO
    rows: dict[int, ExtNonNeg] = {}
    cols: dict[int, ExtNonNeg] = {}
    for (i, j, c), value in zip(cells, cell_values):
        if c * sign < 0:
            continue
        w = ExtNonNeg(c * sign)
        product = product + w * value
        rows[i] = rows.get(i, ZERO) + w * nu_vals[j]
        cols[j] = cols.get(j, ZERO) + w * mu_vals[i]
    by_rows = ext_sum(mu_vals[i] * s for i, s in rows.items())
    by_cols = ext_sum(nu_vals[j] * s for j, s in cols.items())
    return product, by_rows, by_cols
