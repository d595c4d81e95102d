"""finite_rings: sigma-rings, products and tabulated measures on finite
grounds, checked against the brute-force oracle and against atom
enumeration written here."""

from __future__ import annotations

import math
from fractions import Fraction

from common import Workload, error_kind, ext_value, value_key

LABELS = tuple("abcdefghijkl")
WEIGHTS = tuple(Fraction(w) for w in ("1", "2", "1/2", "3", "0")) + (None,) * 2
ORACLE_MEMBERS = 64  # rings up to this size are also closed by the oracle
ORACLE_GROUND = 16  # the oracle's largest ground
# ring sizes: atoms per size class, cycled so every seed sees the same mix
SMALL, MEDIUM, LARGE = (2, 3, 4, 5), (6, 7, 8), (9, 10)
EVALS_PER_QUERY = 8


def masks_of(labels, ground):
    return sum(1 << ground.index(x) for x in labels)


def all_unions(atoms):
    """Every union of a list of disjoint masks, the empty one included."""
    out = {0}
    for a in atoms:
        out |= {m | a for m in out}
    return frozenset(out)


def ref_atoms(n, family):
    """Atoms of the ring generated by masks over n points: points grouped
    by which members contain them; points in no member are left out."""
    groups = {}
    for i in range(n):
        sig = tuple(m >> i & 1 for m in family)
        if any(sig):
            groups[sig] = groups.get(sig, 0) | 1 << i
    return sorted(groups.values())


def family_with_atoms(rng, atoms: int, algebra: bool):
    """A ground and a family whose generated ring (or algebra) has exactly
    ``atoms`` atoms."""
    n = atoms + rng.randint(0, 2)
    ground = LABELS[:n]
    order = list(range(n))
    rng.shuffle(order)
    blocks = [1 << order[i] for i in range(atoms)]
    for i in order[atoms:]:
        blocks[rng.randrange(atoms)] |= 1 << i
    coded = atoms - 1 if algebra else atoms  # the algebra adds the last block
    bits = max(1, math.ceil(math.log2(coded + 1)))
    codes = rng.sample(range(1, 1 << bits), coded)
    family = [0] * bits
    for block, code in zip(blocks, codes):
        for j in range(bits):
            if code >> j & 1:
                family[j] |= block
    if rng.random() < 0.5:  # a redundant member changes nothing
        family.append(family[0] | family[-1])
    rng.shuffle(family)
    return ground, tuple(family)


def weight_rule(table, atom_mask):
    """Atom weight: the table entry of the atom's lowest point."""
    return table[(atom_mask & -atom_mask).bit_length() - 1]


class FiniteRings(Workload):
    name = "finite_rings"
    schedule = tuple(
        kind
        for i in range(12)
        for kind in (
            ("ring", SMALL[i % 4]), ("tab",), ("algebra", SMALL[(i + 2) % 4]),
            ("fubini",), ("product",), ("ring", MEDIUM[i % 3]), ("tab",),
            ("fpm",), ("ext",), ("fubini",),
            ("algebra", MEDIUM[(i + 1) % 3]), ("tab",), ("ext",),
            ("ring" if i % 2 else "algebra", LARGE[(i // 2) % 2]),
            ("fubini",), ("fpm",), ("product",), ("ring", SMALL[(i + 1) % 4]),
            ("tab",), ("fubini",),
        )
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.fixed_rng
        # power-set measures (grounds of 2-4 points, some infinite weights)
        self.ps = []
        for n in (2, 2, 3, 3, 4, 4):
            self.ps.append(tuple((LABELS[i], rng.choice(WEIGHTS)) for i in range(n)))
        self.fpm_pairs = [(i, j) for i in range(6) for j in range(6)
                          if len(self.ps[i]) * len(self.ps[j]) <= 9]
        # rings with 2-3 atoms for products
        self.small_rings = [family_with_atoms(rng, rng.choice((2, 3)), False) for _ in range(6)]
        # tabulated measures on generated rings (3-6 atoms)
        self.tabs = []
        for t in range(4):
            ground, family = family_with_atoms(rng, rng.randint(3, 6), self._tab_is_algebra(t))
            table = tuple(rng.choice(WEIGHTS) for _ in ground)
            self.tabs.append((ground, family, table))

    # -- generation -------------------------------------------------------

    def make(self, kind, rng):
        name = kind[0]
        if name in ("ring", "algebra"):
            return family_with_atoms(rng, kind[1], name == "algebra")
        if name == "product":
            return (rng.randrange(6), rng.randrange(6))
        if name == "fpm":
            i, j = rng.choice(self.fpm_pairs)
            subsets = tuple(
                rng.getrandbits(len(self.ps[i]) * len(self.ps[j])) for _ in range(6)
            )
            return (i, j, subsets)
        if name == "tab":
            t = rng.randrange(len(self.tabs))
            ground, family, _ = self.tabs[t]
            atoms = self._tab_atoms(t)
            picks = tuple(
                sum(a for a in atoms if rng.random() < 0.5) for _ in range(EVALS_PER_QUERY)
            )
            # every fourth query also asks for a set outside the ring
            outside = None
            if rng.random() < 0.25:
                split = [a for a in atoms if a & (a - 1)]
                if split:
                    a = rng.choice(split)
                    outside = a & -a
            return (t, picks, outside)
        if name == "ext":
            t = rng.randrange(len(self.tabs))
            atoms = self._tab_atoms(t)
            chosen = rng.sample(atoms, rng.randint(1, len(atoms) - 1))
            violate = len(chosen) >= 2 and rng.random() < 0.3
            inner = [chosen[0] | chosen[1]] + chosen[2:] if violate else chosen
            probes = tuple(sum(a for a in atoms if rng.random() < 0.5) for _ in range(4))
            return (t, tuple(inner), probes)
        # fubini over two power-set measures
        i, j = rng.randrange(6), rng.randrange(6)
        n1, n2 = len(self.ps[i]), len(self.ps[j])
        terms = []
        for _ in range(rng.choice((1, 2, 3))):
            rects = tuple(
                (rng.randint(1, (1 << n1) - 1), rng.randint(1, (1 << n2) - 1))
                for _ in range(rng.choice((1, 2)))
            )
            terms.append((rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))), rects))
        return (i, j, tuple(terms))

    def _tab_atoms(self, t):
        ground, family, _ = self.tabs[t]
        atoms = ref_atoms(len(ground), family)
        full = (1 << len(ground)) - 1
        covered = sum(atoms)
        if self._tab_is_algebra(t) and covered != full:
            atoms = sorted(atoms + [full & ~covered])
        return atoms

    @staticmethod
    def _tab_is_algebra(t):
        return t % 2 == 1

    # -- setup and run ----------------------------------------------------

    def setup(self, lib):
        super().setup(lib)
        FinSet, ExtNonNeg, INF = lib.finset.FinSet, lib.extreal.ExtNonNeg, lib.extreal.INF

        def w(x):
            return INF if x is None else ExtNonNeg(x)

        self.ps_measures = [
            lib.measures.FiniteTabulated.power_set({x: w(v) for x, v in spec})
            for spec in self.ps
        ]
        self.ring_pool = [
            lib.sigma.generate_sigma_ring(g, [FinSet(g, m) for m in fam])
            for g, fam in self.small_rings
        ]
        self.tab_measures = []
        for t, (ground, family, table) in enumerate(self.tabs):
            sets = [FinSet(ground, m) for m in family]
            gen = lib.sigma.generate_sigma_algebra if self._tab_is_algebra(t) else lib.sigma.generate_sigma_ring
            ring = gen(ground, sets)
            weights = {a: w(weight_rule(table, a.mask)) for a in ring.atoms()}
            self.tab_measures.append(lib.measures.FiniteTabulated(ring, weights))

    def run(self, q):
        L = self.lib
        FinSet = L.finset.FinSet
        if q.kind in ("ring", "algebra"):
            ground, family = q.data
            gen = L.sigma.generate_sigma_ring if q.kind == "ring" else L.sigma.generate_sigma_algebra
            return gen(ground, [FinSet(ground, m) for m in family])
        if q.kind == "product":
            i, j = q.data
            return L.sigma.product_sigma_ring(self.ring_pool[i], self.ring_pool[j])
        if q.kind == "fpm":
            i, j, subsets = q.data
            pm = L.product.finite_product_measure(self.ps_measures[i], self.ps_measures[j])
            ground = pm.ring.ground
            return [(pm.measure(FinSet(ground, s)), pm.finiteness(FinSet(ground, s)))
                    for s in subsets]
        if q.kind == "tab":
            t, picks, outside = q.data
            m = self.tab_measures[t]
            ground = m.ring.ground
            out = [(m.measure(FinSet(ground, s)), m.finiteness(FinSet(ground, s))) for s in picks]
            if outside is not None:
                m.measure(FinSet(ground, outside))  # raises not-measurable
            return out
        if q.kind == "ext":
            t, inner, probes = q.data
            outer = self.tab_measures[t]
            ground = outer.ring.ground
            ring = L.sigma.generate_sigma_ring(ground, [FinSet(ground, a) for a in inner])
            table = self.tabs[t][2]
            ExtNonNeg, INF = L.extreal.ExtNonNeg, L.extreal.INF
            weights = {a: INF if weight_rule(table, a.mask) is None
                       else ExtNonNeg(weight_rule(table, a.mask)) for a in ring.atoms()}
            ext = L.measures.InfinityExtension(L.measures.FiniteTabulated(ring, weights), outer.ring)
            return [ext.measure(FinSet(ground, p)) for p in probes]
        i, j, terms = q.data
        mu, nu = self.ps_measures[i], self.ps_measures[j]
        g1, g2 = mu.ring.ground, nu.ring.ground
        f = L.integration.SimpleFunction([
            (c, L.rectset.RectUnion([(FinSet(g1, a), FinSet(g2, b)) for a, b in rects]))
            for c, rects in terms
        ])
        return L.integration.fubini_check(f, mu, nu)

    # -- checks -----------------------------------------------------------

    def check(self, q, result, exc):
        kind = q.kind
        if kind == "tab" and q.data[2] is not None:
            return None if error_kind(exc) == "not-measurable" else f"expected not-measurable, got {exc!r}"
        if kind == "ext" and exc is not None:
            if error_kind(exc) == "property-violated" and not self._ext_property(q):
                return None
            return f"unexpected {error_kind(exc)}: {exc}"
        if exc is not None:
            return f"unexpected {error_kind(exc)}: {exc}"
        return getattr(self, f"_check_{kind}")(q, result)

    def _oracle_closure(self, ground, masks):
        fam = [frozenset(x for k, x in enumerate(ground) if m >> k & 1) for m in masks]
        closed = self.lib.oracle.oracle_sigma_closure(ground, fam)
        return frozenset(masks_of(s, ground) for s in closed)

    def _check_members(self, got, want, ground, family):
        if got != want:
            return f"ring has {len(got)} members, reference {len(want)}"
        if len(want) <= ORACLE_MEMBERS and self._oracle_closure(ground, family) != got:
            return "ring differs from the oracle closure"
        return None

    def _check_ring(self, q, ring):
        ground, family = q.data
        return self._check_members(ring.members, all_unions(ref_atoms(len(ground), family)),
                                   ground, family)

    def _check_algebra(self, q, ring):
        ground, family = q.data
        full = (1 << len(ground)) - 1
        return self._check_members(
            ring.members, all_unions(ref_atoms(len(ground), family + (full,))),
            ground, family + (full,))

    def _check_product(self, q, ring):
        (g1, f1), (g2, f2) = (self.small_rings[k] for k in q.data)
        n1, n2 = len(g1), len(g2)

        def rect(a, b):  # mask of a x b in the row-major product ground
            return sum(1 << (x * n2 + y) for x in range(n1) if a >> x & 1
                       for y in range(n2) if b >> y & 1)

        atoms1, atoms2 = ref_atoms(n1, f1), ref_atoms(n2, f2)
        want = all_unions([rect(a, b) for a in atoms1 for b in atoms2])
        if ring.members != want:
            return f"product ring has {len(ring.members)} members, reference {len(want)}"
        if len(want) <= ORACLE_MEMBERS and n1 * n2 <= ORACLE_GROUND:
            ground = [(x, y) for x in g1 for y in g2]
            rects = [rect(a, b) for a in all_unions(atoms1) for b in all_unions(atoms2)]
            if self._oracle_closure(ground, rects) != ring.members:
                return "product ring differs from the oracle closure"
        return None

    def _weights(self, spec):
        E = self.lib.extreal
        return {x: E.INF if v is None else E.ExtNonNeg(v) for x, v in spec}

    def _check_fpm(self, q, values):
        i, j, subsets = q.data
        oracle = self.lib.oracle
        mu, nu = self._weights(self.ps[i]), self._weights(self.ps[j])
        ground = [(x, y) for x in mu for y in nu]
        for s, (value, cls) in zip(subsets, values):
            pts = [p for k, p in enumerate(ground) if s >> k & 1]
            want = oracle.oracle_product_eval(mu, nu, pts)
            if value != want:
                return f"product value {value}, oracle {want}"
            nsf = not oracle.oracle_sigma_finite(mu, nu, pts)
            if (cls.render() == "not-sigma-finite") != nsf:
                return f"product class {cls.render()} disagrees with the oracle"
        return None

    def _check_tab(self, q, values):
        t, picks, _ = q.data
        table = self.tabs[t][2]
        atoms = self._tab_atoms(t)
        for s, (value, cls) in zip(picks, values):
            total, blocked = Fraction(0), False
            for a in atoms:
                if a & s:
                    wa = weight_rule(table, a)
                    blocked = blocked or wa is None
                    total = None if total is None or wa is None else total + wa
            got = ext_value(value)
            if got != total:
                return f"tabulated value {value}, reference {total}"
            if cls.render() != ("not-sigma-finite" if blocked else "finite"):
                return f"tabulated class {cls.render()}"
        return None

    def _ext_property(self, q):
        """Simple extension property of (outer ring, inner ring), by definition."""
        t, inner, _ = q.data
        outer = all_unions(self._tab_atoms(t))
        inner_members = all_unions(ref_atoms(len(self.tabs[t][0]), inner))
        if not inner_members <= outer:
            return False
        return not any(a & ~b == 0 for a in outer - inner_members for b in inner_members)

    def _check_ext(self, q, values):
        if not self._ext_property(q):
            return "expected property-violated"
        t, inner, probes = q.data
        table = self.tabs[t][2]
        inner_atoms = ref_atoms(len(self.tabs[t][0]), inner)
        inner_members = all_unions(inner_atoms)
        for p, value in zip(probes, values):
            if p in inner_members:
                ws = [weight_rule(table, a) for a in inner_atoms if a & p]
                want = None if None in ws else sum(ws, Fraction(0))
            else:
                want = None
            got = ext_value(value)
            if got != want:
                return f"extension value {value}, reference {want}"
        return None

    def _check_fubini(self, q, report):
        i, j, terms = q.data
        mu, nu = self._weights(self.ps[i]), self._weights(self.ps[j])
        g1, g2 = list(mu), list(nu)
        E = self.lib.extreal
        f = {}
        for c, rects in terms:
            cells = {(g1[x], g2[y]) for a, b in rects
                     for x in range(len(g1)) if a >> x & 1
                     for y in range(len(g2)) if b >> y & 1}
            for p in cells:
                f[p] = f.get(p, E.ZERO) + E.ExtNonNeg(c)
        product, rows, cols = self.lib.oracle.oracle_fubini(f, mu, nu)
        sf = self.lib.oracle.oracle_sigma_finite(mu, nu, list(f))
        want = ("all-equal" if sf else "hypothesis-violated",
                value_key(product), value_key(rows), value_key(cols))
        got = (report.verdict, value_key(report.product_value),
               value_key(report.iterated_sv), value_key(report.iterated_ts))
        return None if got == want else f"fubini {got}, oracle {want}"
