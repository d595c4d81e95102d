"""line_products: fresh real-line sets on every query, evaluated under
products of line measures."""

from __future__ import annotations

from fractions import Fraction

from common import Workload, ext_value
from linetree import build, member, rand_rational, rand_tree, ref_product, ref_set, sample_points

RECT_COUNTS = (1, 1, 2, 2, 3, 3, 4, 5, 6)
DEPTHS = (2, 2, 3)  # side depths, cycled over a query's rectangles
TRIPLE_COUNTS = (1, 2, 3)
STEP_BASES = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def measure_descs(rng):
    """Lebesgue, counting, two Dirac masses and three atomic measures, one
    with infinite constant weights.  Atomic point masses sit at x + 1/3 and
    progressions on integers, so supports are disjoint."""

    def third(k):
        return Fraction(3 * k + 1, 3)

    return (
        ("lebesgue",),
        ("counting",),
        ("dirac", rand_rational(rng)),
        ("dirac", Fraction(rng.randint(-4, 4))),
        ("atomic",
         ((third(rng.randint(-6, -1)), Fraction(rng.randint(1, 5))),
          (third(rng.randint(0, 6)), Fraction(rng.randint(1, 5), 2))),
         ((Fraction(rng.randint(-4, 4)), Fraction(rng.choice((1, 2))),
           ("constant", Fraction(rng.randint(1, 3)))),)),
        ("atomic",
         ((third(rng.randint(-6, 6)), None),),
         ((Fraction(rng.randint(-4, 4)), Fraction(1),
           ("geometric", Fraction(rng.randint(1, 4)), Fraction(1, rng.choice((2, 3))))),)),
        ("atomic",
         ((third(rng.randint(-6, 6)), Fraction(2)),),
         ((Fraction(rng.randint(-4, 4)), Fraction(rng.choice((2, 3))),
           ("constant", None)),)),
    )


def build_measure(desc, lib):
    M = lib.measures
    kind = desc[0]
    if kind == "lebesgue":
        return M.LebesgueLine()
    if kind == "counting":
        return M.CountingLine()
    if kind == "dirac":
        return M.DiracAt(desc[1])
    ext = lib.extreal.ExtNonNeg
    inf = lib.extreal.INF

    def weight(w):
        return inf if w is None else ext(w)

    points = [(p, weight(w)) for p, w in desc[1]]
    progs = []
    for base, step, rule in desc[2]:
        g = lib.lineset.Progression(base, step)
        if rule[0] == "constant":
            progs.append((g, M.ConstantWeights(weight(rule[1]))))
        else:
            progs.append((g, M.GeometricWeights(rule[1], rule[2])))
    return M.CountableAtomic(points, progs)


def check_members(sets, trees) -> str | None:
    for s, t in zip(sets, trees):
        for x in sample_points([t]):
            if s.member(x) != member(t, x):
                return f"membership of {x} in {s!r}"
    return None


class LineProducts(Workload):
    name = "line_products"
    # Each block of ten: nine two-factor queries with 1-6 rectangles, then
    # one associativity query with 1-3 boxes.  Cycling the sizes keeps the
    # mix identical across seeds.
    schedule = tuple(
        kind
        for t in TRIPLE_COUNTS
        for kind in [("prod2", k) for k in RECT_COUNTS] + [("prod3", t)]
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.descs = measure_descs(self.fixed_rng)

    def make(self, kind, rng):
        n = len(self.descs)
        kind, k = kind
        # one step lattice per query: steps vary across queries, while the
        # joint period of a query's progressions stays at most 6 steps
        base = rng.choice(STEP_BASES)
        steps = (base, 2 * base, 3 * base)
        if kind == "prod2":
            boxes = tuple(
                (rand_tree(rng, DEPTHS[r % 3], steps=steps),
                 rand_tree(rng, DEPTHS[(r + 1) % 3], steps=steps))
                for r in range(k)
            )
            return (rng.randrange(n), rng.randrange(n), boxes)
        boxes = tuple(tuple(rand_tree(rng, 2, steps=steps) for _ in range(3)) for _ in range(k))
        return (rng.randrange(n), rng.randrange(n), rng.randrange(n), boxes)

    def setup(self, lib):
        super().setup(lib)
        self.measures = [build_measure(d, lib) for d in self.descs]
        pm = lib.product.ProductMeasure
        self.pairs = {
            (i, j): pm(mi, mj)
            for i, mi in enumerate(self.measures)
            for j, mj in enumerate(self.measures)
        }

    def run(self, q):
        RealSet = self.lib.lineset.RealSet
        if q.kind == "prod2":
            i, j, boxes = q.data
            sides = [(build(a, RealSet), build(b, RealSet)) for a, b in boxes]
            u = self.lib.rectset.RectUnion(sides)
            pm = self.pairs[i, j]
            return pm.measure(u), pm.set_class(u), sides, u
        i, j, k, boxes = q.data
        sides = [tuple(build(t, RealSet) for t in box) for box in boxes]
        value = self.lib.product.product3_eval(
            self.measures[i], self.measures[j], self.measures[k], sides
        )
        return value, None, sides, None

    def check(self, q, result, exc):
        if exc is not None:
            return f"unexpected {type(exc).__name__}: {exc}"
        value, cls, sides, u = result
        trees = [t for box in q.data[-1] for t in box]
        flat = [s for box in sides for s in box]
        bad = check_members(flat, trees)
        if bad:
            return bad
        descs = [self.descs[i] for i in q.data[:-1]]
        want_value, want_cls = ref_product(q.data[-1], descs)
        if ext_value(value) != want_value:
            return f"value {value}, reference {want_value}"
        if cls is not None and cls.render() != want_cls:
            return f"class {cls.render()}, reference {want_cls}"
        if u is not None:
            return self._identities(q, value, cls, sides, u)
        return None

    def _identities(self, q, value, cls, sides, u):
        i, j, boxes = q.data
        lib = self.lib
        swapped = lib.product.ProductMeasure(self.measures[j], self.measures[i])
        # swapping the sides of disjoint pieces keeps them disjoint
        su = lib.rectset.RectUnion([(b, a) for a, b in u.rects], _canonical=True)
        if swapped.measure(su) != value or swapped.set_class(su) is not cls:
            return "product not symmetric under swapping factors"
        mu, nu = self.measures[i], self.measures[j]
        if len(sides) >= 2:
            a, b = sides[0][0], sides[1][0]
            if mu.measure(a | b) + mu.measure(a & b) != mu.measure(a) + mu.measure(b):
                return "modularity m(A|B)+m(A&B) = m(A)+m(B) fails"
            for s, t in ((a | b, ("or", boxes[0][0], boxes[1][0])),
                         (a & b, ("and", boxes[0][0], boxes[1][0]))):
                want = ref_set(t, self.descs[i])
                if (ext_value(mu.measure(s)), mu.finiteness(s).render()) != want:
                    return f"side measure of {s!r} differs from reference {want}"
        if len(sides) == 1:
            a, b = sides[0]
            fin = mu.finiteness(a).render() == "finite" and nu.finiteness(b).render() == "finite"
            if fin and value != mu.measure(a) * nu.measure(b):
                return "finite rectangle differs from m(A)*n(B)"
        return None
