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
from sigma_product.extreal import INF, ZERO, ExtNonNeg, render_rational
from sigma_product.finset import FinSet
from sigma_product.lineset import RealSet
from sigma_product.measures import (
    FINITE,
    NOT_SIGMA_FINITE,
    Measure,
)
from sigma_product.product import ProductMeasure
from sigma_product.rectset import RectUnion, refine_parts, set_member, universe_of

class _NegativeInfinity:
    """Sentinel for diagnostic values of the form finite - infinity."""

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


class SimpleFunction:
    """A finite-valued function with representable level sets."""

    __slots__ = ("terms", "universe")

    def __init__(
        self,
        terms: Sequence[Tuple[Fraction, object]],
        universe: Optional[tuple] = None,
    ):
        sets = []
        for _, s in terms:
            u = universe_of(s)
            if universe is None:
                universe = u
            elif u != universe and not (
                isinstance(s, RectUnion) and s.is_empty
            ):
                raise UniverseMismatch("simple-function terms over mixed universes")
            sets.append(s)
        canonical = _level_sets([(Fraction(c), s) for c, s in terms])
        object.__setattr__(self, "terms", canonical)
        object.__setattr__(self, "universe", universe)

    def __setattr__(self, name, value):
        raise AttributeError("SimpleFunction is immutable")

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
            if set_member(s, x):
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

    def positive_part(self) -> "SimpleFunction":
        return SimpleFunction([(c, s) for c, s in self.terms if c > 0], self.universe)

    def negative_part(self) -> "SimpleFunction":
        return SimpleFunction(
            [(-c, s) for c, s in self.terms if c < 0], self.universe
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
            body = s.render() if hasattr(s, "render") else repr(s)
            bits.append(f"{render_rational(c)}*ind({body})")
        return " + ".join(bits)

    def __repr__(self):
        return f"SimpleFunction({self.render()})"


def _level_sets(terms: List[Tuple[Fraction, object]]):
    """Canonical (value, level-set) pairs, values sorted."""
    active = [(c, s) for c, s in terms if not s.is_empty]
    if not active:
        return ()
    cells = refine_parts([s for _, s in active])
    levels: dict[Fraction, object] = {}
    for cell in cells:
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
    _check_function_universe(f, m)
    return all(m.finiteness(s) is FINITE for _, s in f.terms)


def integrate(f: SimpleFunction, m: Measure) -> Fraction:
    """Exact signed integral of an integrable simple function."""
    if not is_integrable(f, m):
        raise NotIntegrable("a level set has infinite measure")
    total = Fraction(0)
    for c, s in f.terms:
        total += c * m.measure(s).finite
    return total


def extended_integral(f: SimpleFunction, m: Measure) -> ExtNonNeg:
    """Integral of a nonnegative simple function, allowing infinity."""
    _check_function_universe(f, m)
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


def _check_function_universe(f: SimpleFunction, m: Measure) -> None:
    if f.universe is not None and f.universe != m.universe:
        raise UniverseMismatch("function and measure over different universes")


# ---------------------------------------------------------------------------
# Product grids


class _Grid:
    """A product grid: coeffs[i][j] is the function value on a_parts[i] x b_parts[j]."""

    __slots__ = ("a_parts", "b_parts", "coeffs")

    def __init__(self, a_parts: tuple, b_parts: tuple, coeffs: tuple):
        self.a_parts = a_parts
        self.b_parts = b_parts
        self.coeffs = coeffs


def _product_grid(f: SimpleFunction) -> _Grid:
    rect_list = [rect for _, ru in f.terms for rect in ru.rects]
    if not rect_list:
        return _Grid((), (), ())
    a_parts = tuple(refine_parts([a for a, _ in rect_list]))
    b_parts = tuple(refine_parts([b for _, b in rect_list]))
    coeffs = []
    for a in a_parts:
        row = []
        for b in b_parts:
            value = Fraction(0)
            for c, ru in f.terms:
                inside = any(
                    (a - ra).is_empty and (b - rb).is_empty for ra, rb in ru.rects
                )
                if inside:
                    value = c
                    break
            row.append(value)
        coeffs.append(tuple(row))
    return _Grid(a_parts, b_parts, tuple(coeffs))


def tensor_functional(f: SimpleFunction, mu: Measure, nu: Measure) -> Fraction:
    """Value of the tensor functional on a product simple function whose
    rectangles have finite-measure sides; also recomputes the value by
    slicing in both orders and insists the three agree."""
    _check_product_universe(f, mu, nu)
    grid = _product_grid(f)
    mu_vals = [mu.measure(a) for a in grid.a_parts]
    nu_vals = [nu.measure(b) for b in grid.b_parts]
    for i, a in enumerate(grid.a_parts):
        for j, b in enumerate(grid.b_parts):
            if grid.coeffs[i][j] == 0:
                continue
            if not (mu_vals[i].is_finite and nu_vals[j].is_finite):
                raise NotSimpleTensor(
                    "a rectangle side has infinite measure"
                )
    direct = Fraction(0)
    for i in range(len(grid.a_parts)):
        for j in range(len(grid.b_parts)):
            direct += grid.coeffs[i][j] * mu_vals[i].finite * nu_vals[j].finite
    by_rows = Fraction(0)
    for i in range(len(grid.a_parts)):
        inner = Fraction(0)
        for j in range(len(grid.b_parts)):
            inner += grid.coeffs[i][j] * nu_vals[j].finite
        by_rows += mu_vals[i].finite * inner
    by_cols = Fraction(0)
    for j in range(len(grid.b_parts)):
        inner = Fraction(0)
        for i in range(len(grid.a_parts)):
            inner += grid.coeffs[i][j] * mu_vals[i].finite
        by_cols += nu_vals[j].finite * inner
    assert direct == by_rows == by_cols, "slicing orders disagree"
    return direct


def _check_product_universe(f: SimpleFunction, mu: Measure, nu: Measure) -> None:
    expected = ("prod", mu.universe, nu.universe)
    if f.universe is not None and f.universe != expected:
        raise UniverseMismatch("function is not over the product universe")


# ---------------------------------------------------------------------------
# Fubini-Tonelli


ALL_EQUAL = "all-equal"
HYPOTHESIS_VIOLATED = "hypothesis-violated"


class IntegralReport:
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

    def __setattr__(self, name, value):
        raise AttributeError("IntegralReport is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegralReport):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"IntegralReport({body})"

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


def _values_agree(values: Sequence[Value]) -> bool:
    def key(v: Value):
        if v is None:
            return ("undefined",)
        if isinstance(v, _NegativeInfinity):
            return ("-inf",)
        if isinstance(v, ExtNonNeg):
            return ("inf",) if not v.is_finite else ("q", v.finite)
        return ("q", v)

    keys = {key(v) for v in values}
    return len(keys) == 1


def fubini_check(f: SimpleFunction, mu: Measure, nu: Measure) -> IntegralReport:
    """Check the product integral against both iterated integrals.

    With an integrable integrand this is the Fubini identity; with a
    nonnegative integrand of sigma-finite support it is the Tonelli
    identity.  Otherwise the three values are still reported (computed by
    positive/negative parts) and the verdict flags the broken hypothesis;
    the values may then genuinely disagree.
    """
    _check_product_universe(f, mu, nu)
    pm = ProductMeasure(mu, nu)
    grid = _product_grid(f)
    mu_vals = [mu.measure(a) for a in grid.a_parts]
    nu_vals = [nu.measure(b) for b in grid.b_parts]
    mu_cls = [mu.finiteness(a) for a in grid.a_parts]
    nu_cls = [nu.finiteness(b) for b in grid.b_parts]

    cell_values: List[List[ExtNonNeg]] = []
    sigma_finite_support = True
    integrable = True
    for i in range(len(grid.a_parts)):
        row = []
        for j in range(len(grid.b_parts)):
            if mu_cls[i] is NOT_SIGMA_FINITE or nu_cls[j] is NOT_SIGMA_FINITE:
                value = INF
                if grid.coeffs[i][j] != 0:
                    sigma_finite_support = False
            else:
                value = mu_vals[i] * nu_vals[j]
            if grid.coeffs[i][j] != 0 and not value.is_finite:
                integrable = False
            row.append(value)
        cell_values.append(row)

    if integrable:
        product, sv, ts = _fubini_signed(grid, mu_vals, nu_vals, cell_values)
        assert _values_agree([product, sv, ts]), "Fubini identity failed"
        return IntegralReport(product, sv, ts, ALL_EQUAL)

    if f.nonnegative and sigma_finite_support:
        product, sv, ts = _tonelli_extended(grid, mu_vals, nu_vals, cell_values)
        assert _values_agree([product, sv, ts]), "Tonelli identity failed"
        return IntegralReport(product, sv, ts, ALL_EQUAL)

    if not f.nonnegative:
        reason = "integrand is signed but not integrable"
    else:
        reason = "support is not sigma-finite"
    pos = f.positive_part()
    neg = f.negative_part()
    p_vals = _tonelli_extended(*_grid_bundle(pos, mu, nu))
    n_vals = _tonelli_extended(*_grid_bundle(neg, mu, nu))
    diag = tuple(_ext_sub(p, n) for p, n in zip(p_vals, n_vals))
    return IntegralReport(diag[0], diag[1], diag[2], HYPOTHESIS_VIOLATED, reason)


def _grid_bundle(f: SimpleFunction, mu: Measure, nu: Measure):
    grid = _product_grid(f)
    mu_vals = [mu.measure(a) for a in grid.a_parts]
    nu_vals = [nu.measure(b) for b in grid.b_parts]
    mu_cls = [mu.finiteness(a) for a in grid.a_parts]
    nu_cls = [nu.finiteness(b) for b in grid.b_parts]
    cell_values = []
    for i in range(len(grid.a_parts)):
        row = []
        for j in range(len(grid.b_parts)):
            if mu_cls[i] is NOT_SIGMA_FINITE or nu_cls[j] is NOT_SIGMA_FINITE:
                row.append(INF)
            else:
                row.append(mu_vals[i] * nu_vals[j])
        cell_values.append(row)
    return grid, mu_vals, nu_vals, cell_values


def _ext_sub(p: ExtNonNeg, n: ExtNonNeg) -> Value:
    if p.is_finite and n.is_finite:
        return p.finite - n.finite
    if p.is_finite:
        return NEG_INF
    if n.is_finite:
        return INF
    return None  # inf - inf


def _fubini_signed(grid, mu_vals, nu_vals, cell_values):
    """All three integrals of an integrable signed grid, exactly."""
    product = Fraction(0)
    for i in range(len(grid.a_parts)):
        for j in range(len(grid.b_parts)):
            c = grid.coeffs[i][j]
            if c == 0:
                continue
            product += c * cell_values[i][j].finite

    by_rows = Fraction(0)
    for i in range(len(grid.a_parts)):
        if mu_vals[i].is_zero:
            continue
        inner = Fraction(0)
        infinite_inner = False
        for j in range(len(grid.b_parts)):
            c = grid.coeffs[i][j]
            if c == 0:
                continue
            assert nu_vals[j].is_finite, "integrable row with infinite slice"
            inner += c * nu_vals[j].finite
        if inner == 0:
            continue
        assert mu_vals[i].is_finite, "nonzero slice on an infinite-measure cell"
        by_rows += mu_vals[i].finite * inner

    by_cols = Fraction(0)
    for j in range(len(grid.b_parts)):
        if nu_vals[j].is_zero:
            continue
        inner = Fraction(0)
        for i in range(len(grid.a_parts)):
            c = grid.coeffs[i][j]
            if c == 0:
                continue
            assert mu_vals[i].is_finite, "integrable column with infinite slice"
            inner += c * mu_vals[i].finite
        if inner == 0:
            continue
        assert nu_vals[j].is_finite, "nonzero slice on an infinite-measure cell"
        by_cols += nu_vals[j].finite * inner

    return product, by_rows, by_cols


def _tonelli_extended(grid, mu_vals, nu_vals, cell_values):
    """All three integrals of a nonnegative grid in [0, inf]."""
    product = ZERO
    for i in range(len(grid.a_parts)):
        for j in range(len(grid.b_parts)):
            c = grid.coeffs[i][j]
            if c != 0:
                product = product + ExtNonNeg(c) * cell_values[i][j]

    by_rows = ZERO
    for i in range(len(grid.a_parts)):
        inner = ZERO
        for j in range(len(grid.b_parts)):
            c = grid.coeffs[i][j]
            if c != 0:
                inner = inner + ExtNonNeg(c) * nu_vals[j]
        by_rows = by_rows + mu_vals[i] * inner

    by_cols = ZERO
    for j in range(len(grid.b_parts)):
        inner = ZERO
        for i in range(len(grid.a_parts)):
            c = grid.coeffs[i][j]
            if c != 0:
                inner = inner + ExtNonNeg(c) * mu_vals[i]
        by_cols = by_cols + nu_vals[j] * inner

    return product, by_rows, by_cols
