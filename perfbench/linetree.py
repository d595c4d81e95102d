"""Real-line set expressions: seeded generation, library construction,
spec-text rendering, and an independent reference evaluator.

A tree is a nested tuple:

    ("iv", lo, hi, lo_open, hi_open)   lo/hi are Fractions or None (unbounded)
    ("pts", (p, ...))                  a finite point list
    ("prog", base, step)               {base + k*step : k >= 0}
    (op, left, right)                  op in "and", "or", "diff"

The reference evaluator shares no code with ``sigma_product.lineset``: it
decides membership straight from the tree and computes measures by
splitting the line at every interval endpoint (uncountable pieces) and
enumerating countable candidates, with a periodic argument for the tails
of progressions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence

LINE = ("iv", None, None, True, True)
STEPS = tuple(Fraction(s) for s in ("1/4", "1/3", "1/2", "1", "3/2", "2", "3"))
DENOMS = (1, 1, 2, 2, 3, 4)
SPAN = 8  # finite endpoints and points lie in [-SPAN, SPAN]

# ---------------------------------------------------------------------------
# Generation (pure functions of a random.Random)


def rand_rational(rng, span: int = SPAN) -> Fraction:
    d = rng.choice(DENOMS)
    return Fraction(rng.randint(-span * d, span * d), d)


def rand_leaf(rng, countable_share: float = 0.5, steps=STEPS) -> tuple:
    r = rng.random()
    if r >= countable_share:
        if rng.random() < 0.15:  # half-line
            x = rand_rational(rng)
            if rng.random() < 0.5:
                return ("iv", None, x, True, rng.random() < 0.5)
            return ("iv", x, None, rng.random() < 0.5, True)
        a, b = rand_rational(rng), rand_rational(rng)
        while a == b:
            b = rand_rational(rng)
        lo, hi = min(a, b), max(a, b)
        return ("iv", lo, hi, rng.random() < 0.5, rng.random() < 0.5)
    if r < countable_share / 2:
        n = rng.randint(1, 4)
        return ("pts", tuple(sorted({rand_rational(rng) for _ in range(n)})))
    return ("prog", rand_rational(rng, span=4), rng.choice(steps))


def rand_tree(rng, depth: int, countable_share: float = 0.5, steps=STEPS) -> tuple:
    """A boolean expression with exactly ``depth`` operator levels on its
    leftmost spine and at most ``depth`` levels elsewhere."""
    if depth == 0:
        return rand_leaf(rng, countable_share, steps)
    op = rng.choice(("and", "or", "or", "diff"))
    left = rand_tree(rng, depth - 1, countable_share, steps)
    right_depth = depth - 1 if rng.random() < 0.6 else rng.randint(0, depth - 1)
    return (op, left, rand_tree(rng, right_depth, countable_share, steps))


# ---------------------------------------------------------------------------
# Library construction and spec rendering


def build(tree, RealSet):
    """The RealSet for a tree, built through the library's public API."""
    kind = tree[0]
    if kind == "iv":
        return RealSet.interval(tree[1], tree[2], tree[3], tree[4])
    if kind == "pts":
        return RealSet.points(tree[1])
    if kind == "prog":
        return RealSet.progression(tree[1], tree[2])
    left = build(tree[1], RealSet)
    right = build(tree[2], RealSet)
    if kind == "and":
        return left & right
    if kind == "or":
        return left | right
    return left - right


def rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def render(tree) -> str:
    """Spec-file syntax; every operator node is parenthesized."""
    kind = tree[0]
    if kind == "iv":
        _, lo, hi, lo_open, hi_open = tree
        left = "(" if lo_open else "["
        right = ")" if hi_open else "]"
        lo_s = "-inf" if lo is None else rat(lo)
        hi_s = "inf" if hi is None else rat(hi)
        return f"{left}{lo_s}, {hi_s}{right}"
    if kind == "pts":
        return "{" + ", ".join(rat(p) for p in tree[1]) + "}"
    if kind == "prog":
        return f"prog({rat(tree[1])}, {rat(tree[2])})"
    sym = {"and": "&", "or": "|", "diff": "\\"}[kind]
    return f"({render(tree[1])} {sym} {render(tree[2])})"


# ---------------------------------------------------------------------------
# Reference membership


def member(tree, x: Fraction) -> bool:
    kind = tree[0]
    if kind == "iv":
        _, lo, hi, lo_open, hi_open = tree
        if lo is not None and (x < lo or (x == lo and lo_open)):
            return False
        if hi is not None and (x > hi or (x == hi and hi_open)):
            return False
        return True
    if kind == "pts":
        return x in tree[1]
    if kind == "prog":
        k = (x - tree[1]) / tree[2]
        return k >= 0 and k.denominator == 1
    a = member(tree[1], x)
    b = member(tree[2], x)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    return a and not b


def leaves(tree, out: list) -> list:
    if tree[0] in ("iv", "pts", "prog"):
        out.append(tree)
    else:
        leaves(tree[1], out)
        leaves(tree[2], out)
    return out


def sample_points(trees: Sequence) -> List[Fraction]:
    """Endpoints, listed points, early and far progression terms, the
    midpoints between them, and points beyond both ends."""
    pts = set()
    for t in trees:
        for leaf in leaves(t, []):
            if leaf[0] == "iv":
                pts.update(v for v in leaf[1:3] if v is not None)
            elif leaf[0] == "pts":
                pts.update(leaf[1])
            else:
                pts.update(leaf[1] + k * leaf[2] for k in (0, 1, 2, 7, 1000))
    ordered = sorted(pts)
    mids = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    if ordered:
        mids += [ordered[0] - 1, ordered[-1] + 1]
    else:
        mids.append(Fraction(0))
    return ordered + mids


# ---------------------------------------------------------------------------
# Reference measures on the cells of a family of trees
#
# A measure description is one of
#   ("lebesgue",), ("counting",), ("dirac", p),
#   ("atomic", ((p, w), ...), ((base, step, rule), ...))
# where w is a Fraction or None (infinity) and rule is ("constant", w) or
# ("geometric", first, ratio).
#
# Values are Fractions or None for infinity; classes are the strings
# "finite", "sigma-finite", "not-sigma-finite".

INF = None


def xadd(a, b):
    return None if a is None or b is None else a + b


def xmul(a, b):
    if a is None:
        return Fraction(0) if b == 0 else None
    if b is None:
        return Fraction(0) if a == 0 else None
    return a * b


def _numbers(tree, out: list) -> list:
    for leaf in leaves(tree, []):
        if leaf[0] == "iv":
            out.extend(v for v in leaf[1:3] if v is not None)
        elif leaf[0] == "pts":
            out.extend(leaf[1])
        else:
            out.extend(leaf[1:3])
    return out


def _scaled(tree, scale: int):
    """The tree with every number multiplied by ``scale`` (all integers)."""
    kind = tree[0]
    if kind == "iv":
        _, lo, hi, lo_open, hi_open = tree
        return ("iv", None if lo is None else int(lo * scale),
                None if hi is None else int(hi * scale), lo_open, hi_open)
    if kind == "pts":
        return ("pts", frozenset(int(p * scale) for p in tree[1]))
    if kind == "prog":
        return ("prog", int(tree[1] * scale), int(tree[2] * scale))
    return (kind, _scaled(tree[1], scale), _scaled(tree[2], scale))


def _imember(tree, x: int) -> bool:
    kind = tree[0]
    if kind == "iv":
        _, lo, hi, lo_open, hi_open = tree
        if lo is not None and (x < lo or (x == lo and lo_open)):
            return False
        return hi is None or x < hi or (x == hi and not hi_open)
    if kind == "pts":
        return x in tree[1]
    if kind == "prog":
        return x >= tree[1] and (x - tree[1]) % tree[2] == 0
    a = _imember(tree[1], x)
    if kind == "and":
        return a and _imember(tree[2], x)
    if kind == "or":
        return a or _imember(tree[2], x)
    return a and not _imember(tree[2], x)


def _igeneric(tree, x: int) -> bool:
    """Membership of the points near x that lie on no countable leaf and
    on no interval endpoint; x must not be an endpoint."""
    kind = tree[0]
    if kind == "iv":
        return _imember(tree, x)
    if kind in ("pts", "prog"):
        return False
    a = _igeneric(tree[1], x)
    b = _igeneric(tree[2], x)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    return a and not b


class _Family:
    """The line split by a family of trees.  All numbers are scaled by a
    common even multiple of their denominators, so the work is in integers
    and midpoints of endpoints stay integral."""

    def __init__(self, trees: Sequence, extra: Sequence[Fraction] = ()):
        numbers = list(extra)
        for t in trees:
            _numbers(t, numbers)
        self.scale = 2 * math.lcm(*(Fraction(v).denominator for v in numbers)) if numbers else 2
        self.trees = tuple(_scaled(t, self.scale) for t in trees)
        breaks, pts, progs = set(), set(), set()
        for t in self.trees:
            for leaf in leaves(t, []):
                if leaf[0] == "iv":
                    breaks.update(v for v in leaf[1:3] if v is not None)
                elif leaf[0] == "pts":
                    pts.update(leaf[1])
                else:
                    progs.add((leaf[1], leaf[2]))
        self.breaks = sorted(breaks)
        self.points = pts
        self.progs = sorted(progs)
        self.period = math.lcm(*(step for _, step in self.progs)) if self.progs else None
        bounds = self.breaks + list(pts) + [b for b, _ in self.progs]
        self.top = max(bounds) if bounds else 0

    def to_int(self, x: Fraction) -> int:
        return int(Fraction(x) * self.scale)

    def sig(self, x: int) -> tuple:
        return tuple(_imember(t, x) for t in self.trees)

    def segments(self):
        """(length, generic signature) for the open pieces between
        consecutive endpoints; length None when unbounded."""
        b = self.breaks
        if not b:
            return [(None, tuple(_igeneric(t, 0) for t in self.trees))]
        pieces = [(None, b[0] - 1)]
        pieces += [(hi - lo, (lo + hi) // 2) for lo, hi in zip(b, b[1:])]
        pieces.append((None, b[-1] + 1))
        return [
            (None if n is None else Fraction(n, self.scale),
             tuple(_igeneric(t, mid) for t in self.trees))
            for n, mid in pieces
        ]

    def candidates(self) -> List[int]:
        """Every point that can lie in a cell without its neighbourhood:
        endpoints, listed points, and progression terms up to ``top``."""
        cands = set(self.breaks) | self.points
        for base, step in self.progs:
            cands.update(range(base, self.top + 1, step))
        return sorted(cands)

    def tail(self, base: int, step: int, above: int):
        """First index K0 with term > above, and the signatures of terms
        K0 .. K0+P-1, where the signature sequence repeats with period P."""
        k0 = max(0, (above - base) // step + 1)
        period = step if self.period is None else math.lcm(self.period, step)
        return k0, [self.sig(base + (k0 + j) * step) for j in range(period // step)]


def _measure_numbers(measure: tuple) -> list:
    if measure[0] == "dirac":
        return [measure[1]]
    if measure[0] == "atomic":
        return [p for p, _ in measure[1]] + [v for b, s, _ in measure[2] for v in (b, s)]
    return []


def ref_cells(trees: Sequence, measure: tuple) -> Dict[tuple, tuple]:
    """For every nonempty cell of the family (a signature over the trees),
    its (value, class) under the measure."""
    fam = _Family(trees, _measure_numbers(measure))
    segs = fam.segments()
    uncountable = {s for _, s in segs}
    cand_sigs: Dict[tuple, int] = {}
    for x in fam.candidates():
        s = fam.sig(x)
        cand_sigs[s] = cand_sigs.get(s, 0) + 1
    infinite_sigs = set()
    for base, step in fam.progs:
        _, pattern = fam.tail(base, step, fam.top)
        infinite_sigs.update(pattern)
    nonempty = uncountable | set(cand_sigs) | infinite_sigs

    kind = measure[0]
    if kind == "lebesgue":
        length = {s: Fraction(0) for s in nonempty}
        for n, s in segs:
            length[s] = xadd(length[s], n)
        return {s: (v, "finite" if v is not None else "sigma-finite") for s, v in length.items()}
    if kind == "counting":
        out: Dict[tuple, tuple] = {}
        for s in nonempty:
            if s in uncountable:
                out[s] = (INF, "not-sigma-finite")
            elif s in infinite_sigs:
                out[s] = (INF, "sigma-finite")
            else:
                out[s] = (Fraction(cand_sigs[s]), "finite")
        return out
    if kind == "dirac":
        hit = fam.sig(fam.to_int(measure[1]))
        return {s: (Fraction(1 if s == hit else 0), "finite") for s in nonempty}
    if kind == "atomic":
        return _atomic_cells(fam, measure, nonempty)
    raise ValueError(f"unknown measure {measure!r}")


def _atomic_cells(fam: _Family, measure: tuple, nonempty) -> Dict[tuple, tuple]:
    _, point_masses, prog_weights = measure
    value = {s: Fraction(0) for s in nonempty}
    blocked = set()  # cells holding an infinite-weight atom
    for p, w in point_masses:
        s = fam.sig(fam.to_int(p))
        value[s] = xadd(value[s], w)
        if w is None:
            blocked.add(s)
    for base, step, rule in prog_weights:
        base, step = fam.to_int(base), fam.to_int(step)
        k0, pattern = fam.tail(base, step, max(fam.top, base))
        period = len(pattern)
        early: Dict[tuple, List[int]] = {}
        for k in range(k0):
            early.setdefault(fam.sig(base + k * step), []).append(k)
        for s in nonempty:
            ks = early.get(s, [])
            js = [j for j, t in enumerate(pattern) if t == s]
            if rule[0] == "constant":
                w = rule[1]
                mass = xmul(w, INF) if js else xmul(w, Fraction(len(ks)))
                if w is None and (ks or js):
                    blocked.add(s)
            else:
                first, ratio = rule[1], rule[2]
                mass = sum((first * ratio**k for k in ks), Fraction(0))
                if js:
                    tail = sum(first * ratio ** (k0 + j) for j in js)
                    mass += tail / (1 - ratio**period)
            value[s] = xadd(value[s], mass)
    out = {}
    for s in nonempty:
        v = value[s]
        if v is not None:
            out[s] = (v, "finite")
        elif s in blocked:
            out[s] = (v, "not-sigma-finite")
        else:
            out[s] = (v, "sigma-finite")
    return out


def ref_set(tree, measure: tuple) -> tuple:
    """(value, class) of a single tree's set."""
    cells = ref_cells([tree], measure)
    inside = [vc for s, vc in cells.items() if s[0]]
    return _combine_cells(inside)


def _combine_cells(cells) -> tuple:
    total = Fraction(0)
    blocked = False
    for v, c in cells:
        total = xadd(total, v)
        blocked = blocked or c == "not-sigma-finite"
    if blocked:
        return total, "not-sigma-finite"
    return total, "finite" if total is not None else "sigma-finite"


def ref_product(boxes: Sequence[Sequence], measures: Sequence[tuple]) -> tuple:
    """(value, class) of a union of boxes (one tree per factor) under the
    product of the measures: a nonempty box with a non-sigma-finite side is
    infinite, otherwise sides multiply with 0 * inf = 0."""
    dims = len(measures)
    cells = [ref_cells([box[d] for box in boxes], measures[d]) for d in range(dims)]
    total = Fraction(0)
    blocked = False

    def walk(d: int, alive: int, value, nsf: bool):
        nonlocal total, blocked
        if d == dims:
            if nsf:
                blocked = True
                total = INF
            else:
                total = xadd(total, value)
            return
        for s, (v, c) in cells[d].items():
            mask = alive & sum(1 << i for i, bit in enumerate(s) if bit)
            if mask:
                walk(d + 1, mask, xmul(value, v), nsf or c == "not-sigma-finite")

    walk(0, (1 << len(boxes)) - 1, Fraction(1), False)
    if blocked:
        return INF, "not-sigma-finite"
    return total, "finite" if total is not None else "sigma-finite"
