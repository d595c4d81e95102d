"""fubini_reuse: Fubini/Tonelli checks, integrals and tensor functionals of
simple functions whose rectangle sides come, Zipf-distributed, from a
small fixed pool of line sets."""

from __future__ import annotations

from fractions import Fraction

from common import Workload, error_kind, ext_value, value_key, zipf_index
from linetree import LINE, build, ref_cells, xadd, xmul
from wl_line import build_measure

F = Fraction


def _iv(lo, hi, lo_open=False, hi_open=False):
    return ("iv", None if lo is None else F(lo), None if hi is None else F(hi), lo_open, hi_open)


def _pts(*values):
    return ("pts", tuple(sorted(F(v) for v in values)))


# The shared line sets, in Zipf order (index 0 is drawn most often), the
# same for every seed: seeds vary which operands a query draws, not what
# the operands are.  The first five are the paper's {0}, R, [0, 1],
# [0, inf) and the integers from 0.
POOL = (
    _pts(0),
    LINE,
    _iv(0, 1),
    _iv(0, None, False, True),
    ("prog", F(0), F(1)),
    _iv(-1, 2, True, True),
    _pts("1/2", 3),
    ("or", _iv(1, 3), _pts(5)),
    _iv(None, "1/2", True, False),
    _iv(-2, 0, False, True),
    _pts(-1, 0, 1),
    ("prog", F(1, 2), F(1)),
    ("diff", _iv(0, 2), _pts(1)),
    _iv(1, 4, True, True),
    ("or", _iv(-3, -1), _iv(2, 5)),
    ("or", _iv(-1, 1), ("prog", F(3), F(1))),
)
POOL_SIZE = len(POOL)
MEASURES = (
    ("lebesgue",),
    ("counting",),
    ("dirac", Fraction(0)),
    ("dirac", Fraction(1, 2)),
    ("atomic",
     ((Fraction(1, 3), Fraction(2)), (Fraction(-5, 3), Fraction(1, 2))),
     ((Fraction(0), Fraction(1), ("geometric", Fraction(1), Fraction(1, 2))),)),
    ("atomic",
     ((Fraction(1, 3), None),),
     ((Fraction(-2), Fraction(2), ("constant", Fraction(1))),)),
)
LEB, CNT, D0, DH, AF, AI = range(6)
PAIRS = ((LEB, CNT), (LEB, LEB), (CNT, LEB), (LEB, D0), (D0, CNT), (AF, LEB),
         (CNT, AF), (D0, DH), (AI, DH), (LEB, AF), (AF, AI), (CNT, CNT))
FINITE_PAIRS = ((D0, DH), (AF, D0), (DH, AF), (AF, AF), (LEB, D0))
COEFFS = tuple(Fraction(c) for c in ("1", "2", "1/2", "3", "5/4"))
# rectangles per term: at most three rectangles in a function, since the
# cost of refining the product grid grows steeply with their number
SHAPES = ((1,), (1, 1), (2,), (1, 1, 1), (2, 1))


def _diag(p, n):
    """p - n for extended values (None is infinity)."""
    if p is not None and n is not None:
        return ("q", p - n)
    if p is not None:
        return ("-inf",)
    if n is not None:
        return ("inf",)
    return ("undefined",)


def _ext_key(v):
    return ("inf",) if v is None else ("q", v)


class Reference:
    """Exact answers for a simple function sum c * ind(union of pool
    rectangles) from the cells of the pool sides."""

    def __init__(self, terms, cells_left, cells_right, left_pos, right_pos):
        self.cl, self.cr = cells_left, cells_right
        self.f = {}
        for s in cells_left:
            for t in cells_right:
                v = sum(
                    (c for c, rects in terms
                     if any(s[left_pos[a]] and t[right_pos[b]] for a, b in rects)),
                    Fraction(0),
                )
                if v:
                    self.f[s, t] = v

    def cell(self, s, t):
        (mv, mc), (nv, nc) = self.cl[s], self.cr[t]
        if "not-sigma-finite" in (mc, nc):
            return None
        return xmul(mv, nv)

    @property
    def integrable(self):
        return all(self.cell(s, t) is not None for s, t in self.f)

    @property
    def nonnegative(self):
        return all(v > 0 for v in self.f.values())

    @property
    def sigma_finite_support(self):
        return all(
            "not-sigma-finite" not in (self.cl[s][1], self.cr[t][1]) for s, t in self.f
        )

    def product(self, part=None):
        total = Fraction(0)
        for (s, t), v in self._part(part).items():
            total = xadd(total, xmul(v, self.cell(s, t)))
        return total

    def _part(self, part):
        if part is None:
            return self.f
        sign = 1 if part == "pos" else -1
        return {k: v * sign for k, v in self.f.items() if v * sign > 0}

    def iterated(self, part, rows: bool):
        g = self._part(part)
        outer, inner = (self.cl, self.cr) if rows else (self.cr, self.cl)
        total = Fraction(0)
        for o in outer:
            acc = Fraction(0)
            for i in inner:
                v = g.get((o, i) if rows else (i, o))
                if v:
                    acc = xadd(acc, xmul(v, inner[i][0]))
            total = xadd(total, xmul(outer[o][0], acc))
        return total

    def fubini(self):
        """(verdict, product, iterated_sv, iterated_ts) as value keys."""
        if self.integrable:
            v = ("q", self.product())
            return ("all-equal", v, v, v)
        if self.nonnegative and self.sigma_finite_support:
            v = _ext_key(self.product())
            return ("all-equal", v, v, v)
        pos = (self.product("pos"), self.iterated("pos", True), self.iterated("pos", False))
        neg = (self.product("neg"), self.iterated("neg", True), self.iterated("neg", False))
        return ("hypothesis-violated",) + tuple(_diag(p, n) for p, n in zip(pos, neg))

    def tensor(self):
        """The tensor value, or None when a side of a nonzero cell is infinite."""
        total = Fraction(0)
        for (s, t), v in self.f.items():
            mv, nv = self.cl[s][0], self.cr[t][0]
            if mv is None or nv is None:
                return None
            total += v * mv * nv
        return total


class FubiniReuse(Workload):
    name = "fubini_reuse"
    # Per 20 queries: 11 fubini_check, 3 integrate, 3 tensor_functional,
    # 2 extended_integral and the paper's example.  Function shapes (the
    # rectangle count of each term) cycle so every seed gets the same mix.
    schedule = tuple(
        (kind, SHAPES[i % len(SHAPES)])
        for i, kind in enumerate(
            (("fubini",) * 3 + ("integrate", "fubini", "tensor", "fubini", "extended")) * 2
            + ("fubini", "paper", "integrate", "tensor")
        )
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ref_cache = {}
        self.outcomes = {"fubini": 0, "tonelli-inf": 0, "violated": 0}

    def _terms(self, rng, shape, signed: bool):
        terms = []
        for count in shape:
            c = rng.choice(COEFFS)
            if signed and rng.random() < 0.35:
                c = -c
            rects = tuple((zipf_index(rng, POOL_SIZE), zipf_index(rng, POOL_SIZE))
                          for _ in range(count))
            terms.append((c, rects))
        return tuple(terms)

    def make(self, entry, rng):
        kind, shape = entry
        if kind == "paper":
            return (LEB, CNT, ((Fraction(1), ((0, 1),)),))
        pairs = FINITE_PAIRS if kind == "tensor" else PAIRS
        mu, nu = rng.choice(pairs)
        return (mu, nu, self._terms(rng, shape, signed=kind in ("fubini", "integrate")))

    def setup(self, lib):
        super().setup(lib)
        self.measures = [build_measure(d, lib) for d in MEASURES]
        RealSet = lib.lineset.RealSet
        self.sets = [build(t, RealSet) for t in POOL]
        pm = lib.product.ProductMeasure
        self.products = {pair: pm(self.measures[pair[0]], self.measures[pair[1]])
                         for pair in PAIRS + FINITE_PAIRS}

    def _function(self, terms):
        L = self.lib
        return L.integration.SimpleFunction([
            (c, L.rectset.RectUnion([(self.sets[a], self.sets[b]) for a, b in rects]))
            for c, rects in terms
        ])

    def run(self, q):
        mu, nu, terms = q.data
        f = self._function(terms)
        I = self.lib.integration
        if q.kind in ("fubini", "paper"):
            return f, I.fubini_check(f, self.measures[mu], self.measures[nu])
        if q.kind == "tensor":
            return f, I.tensor_functional(f, self.measures[mu], self.measures[nu])
        pm = self.products[mu, nu]
        if q.kind == "integrate":
            return f, I.integrate(f, pm)
        return f, I.extended_integral(f, pm)

    def reference(self, q) -> Reference:
        mu, nu, terms = q.data
        lefts = sorted({a for _, rects in terms for a, _ in rects})
        rights = sorted({b for _, rects in terms for _, b in rects})
        cells = []
        for side, m in ((tuple(lefts), mu), (tuple(rights), nu)):
            key = (side, m)
            if key not in self.ref_cache:
                self.ref_cache[key] = ref_cells([POOL[i] for i in side], MEASURES[m])
            cells.append(self.ref_cache[key])
        return Reference(terms, cells[0], cells[1],
                         {a: i for i, a in enumerate(lefts)},
                         {b: i for i, b in enumerate(rights)})

    def check(self, q, result, exc):
        ref = self.reference(q)
        kind = q.kind
        if kind == "tensor":
            want = ref.tensor()
            if want is None:
                if error_kind(exc) == "not-simple-tensor":
                    return None
                return f"expected not-simple-tensor, got {exc or result[1]}"
            if exc is not None:
                return f"unexpected {error_kind(exc)}: {exc}"
            return None if result[1] == want else f"tensor {result[1]}, reference {want}"
        if kind == "integrate":
            if not ref.integrable:
                if error_kind(exc) == "not-integrable":
                    return None
                return f"expected not-integrable, got {exc or result[1]}"
            if exc is not None:
                return f"unexpected {error_kind(exc)}: {exc}"
            f, value = result
            want = ref.product()
            if value != want:
                return f"integral {value}, reference {want}"
            mu, nu, _ = q.data
            if self.lib.integration.integrate(f.scale(2), self.products[mu, nu]) != 2 * value:
                return "integral not linear under scaling"
            return None
        if exc is not None:
            return f"unexpected {error_kind(exc)}: {exc}"
        if kind == "extended":
            want = _ext_key(ref.product())
            got = value_key(result[1])
            return None if got == want else f"extended integral {result[1]}, reference {want}"
        return self._check_fubini(q, ref, *result)

    def _check_fubini(self, q, ref, f, report):
        want = ref.fubini()
        got = (report.verdict, value_key(report.product_value),
               value_key(report.iterated_sv), value_key(report.iterated_ts))
        if got != want:
            return f"fubini {got}, reference {want}"
        if q.kind == "paper" and got != ("hypothesis-violated", ("inf",), ("q", 0), ("q", 0)):
            return f"paper example {got}"
        if report.verdict == "all-equal":
            # the product integral is the sum of c * pm(level set)
            pm = self.products[q.data[0], q.data[1]]
            total = Fraction(0)
            for c, level in f.terms:
                total = xadd(total, xmul(c, ext_value(pm.measure(level))))
            if _ext_key(total) != want[1]:
                return f"sum of c * pm(level set) {total} differs from {want[1]}"
            self.outcomes["fubini" if want[1][0] == "q" else "tonelli-inf"] += 1
        else:
            self.outcomes["violated"] += 1
        return None

    def finish(self):
        missing = [k for k, n in self.outcomes.items() if n == 0]
        if sum(self.outcomes.values()) >= 100 and missing:
            return f"the query mix produced no {missing} outcome"
        return None
