"""Differential tests for the shortcuts in line-set boolean operations.

``RealSet.complement`` skips canonicalization, ``RealSet.__and__`` adds
the one-point meets of the intervals to an already canonical part, the
``CountablePart`` ops return early on an empty operand, and
``canonical_countable`` returns a lone progression unchanged.  Each shortcut is compared here with the full
canonicalization of the same raw inputs, and the boolean operations with a
pointwise evaluator of random set trees that uses no library code.  The
interval sweep is checked against its contract on raw interval lists.
"""

import random
import time
from fractions import Fraction

import pytest

from sigma_product.errors import SizeLimit
from sigma_product.lineset import (
    EMPTY_COUNTABLE,
    Interval,
    Progression,
    RealSet,
    _lo_key,
    canonical_countable,
    iu_complement,
    iu_contains,
    iu_intersect,
    normalize_intervals,
)

F = Fraction

# -- random set trees and their pointwise meaning


def rand_rational(rng, lo=-12, hi=12):
    return F(rng.randint(lo * 4, hi * 4), rng.choice((1, 2, 4)))


def rand_leaf(rng):
    kind = rng.random()
    if kind < 0.45:
        lo = None if rng.random() < 0.1 else rand_rational(rng)
        hi = None if rng.random() < 0.1 else rand_rational(rng)
        if lo is not None and hi is not None and hi < lo:
            lo, hi = hi, lo
        lo_open = lo is None or rng.random() < 0.5
        hi_open = hi is None or rng.random() < 0.5
        if lo is not None and lo == hi:
            lo_open = hi_open = False
        return ("iv", lo, hi, lo_open, hi_open)
    if kind < 0.75:
        return ("pts", tuple(rand_rational(rng) for _ in range(rng.randint(0, 3))))
    step = F(rng.randint(1, 6), rng.choice((1, 2)))
    return ("prog", rand_rational(rng, -6, 6), step)


def rand_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rand_leaf(rng)
    op = rng.choice("|&-")
    return (op, rand_tree(rng, depth - 1), rand_tree(rng, depth - 1))


def build(tree) -> RealSet:
    tag = tree[0]
    if tag == "iv":
        return RealSet.interval(*tree[1:])
    if tag == "pts":
        return RealSet.points(tree[1])
    if tag == "prog":
        return RealSet.progression(tree[1], tree[2])
    left, right = build(tree[1]), build(tree[2])
    return {"|": left | right, "&": left & right, "-": left - right}[tag]


def holds(tree, x: Fraction) -> bool:
    tag = tree[0]
    if tag == "iv":
        _, lo, hi, lo_open, hi_open = tree
        above = lo is None or lo < x or (lo == x and not lo_open)
        below = hi is None or x < hi or (x == hi and not hi_open)
        return above and below
    if tag == "pts":
        return x in tree[1]
    if tag == "prog":
        k = (x - tree[1]) / tree[2]
        return k >= 0 and k.denominator == 1
    a, b = holds(tree[1], x), holds(tree[2], x)
    return {"|": a or b, "&": a and b, "-": a and not b}[tag]


def leaf_probes(tree, out):
    tag = tree[0]
    if tag == "iv":
        for end in tree[1:3]:
            if end is not None:
                out.update(end + d for d in (F(-1, 8), F(0), F(1, 8)))
    elif tag == "pts":
        out.update(tree[1])
    elif tag == "prog":
        base, step = tree[1], tree[2]
        out.update(base + k * step for k in range(-2, 12))
        out.add(base + step / 3)
    else:
        leaf_probes(tree[1], out)
        leaf_probes(tree[2], out)
    return out


def probes_for(tree, rng):
    out = leaf_probes(tree, set())
    out.update(F(rng.randint(-120, 120), rng.randint(1, 6)) for _ in range(40))
    return out


def random_sets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield build(rand_tree(rng, rng.randint(1, 4)))


# -- complement


def test_complement_equals_full_canonicalization():
    for s in random_sets(11, 300):
        full = RealSet(iu_complement(s.intervals), s.included, s.excluded)
        assert s.complement() == full, s
        assert s.complement().complement() == s


def test_complement_of_edge_shapes():
    shapes = [
        RealSet.empty(),
        RealSet.line(),
        RealSet.line() - RealSet.points([F(0)]),
        RealSet.interval(F(0), F(1), True, True) | RealSet.interval(F(1), F(2), True, False),
        RealSet.interval(None, F(0), True, False) | RealSet.progression(F(3), F(2)),
        RealSet.interval(F(0), None, True, True) - RealSet.progression(F(1), F(1, 2)),
    ]
    for s in shapes:
        full = RealSet(iu_complement(s.intervals), s.included, s.excluded)
        assert s.complement() == full, s


# -- intersection


def and_with_full_canonicalization(a: RealSet, b: RealSet) -> RealSet:
    """``a & b`` with the included part canonicalized again together with
    the degenerate intersection points that lie in both sets."""
    core, degen = iu_intersect(a.intervals, b.intervals)
    excluded = a.excluded.union(b.excluded).meet_intervals(core)
    included = b.meet_countable(a.included).union(a.meet_countable(b.included))
    included = canonical_countable(
        tuple(included.points) + tuple(p for p in degen if a.member(p) and b.member(p)),
        included.progressions,
    )
    return RealSet(core, excluded, included)


def touching_pairs():
    """Intervals meeting at 1 with every choice of endpoint flags, alone, with
    points and with a progression through the shared endpoint."""
    extras = [
        RealSet.empty(),
        RealSet.points([F(1)]),
        RealSet.points([F(1), F(5)]),
        RealSet.progression(F(-3), F(2)),
    ]
    for left_open in (False, True):
        for right_open in (False, True):
            left = RealSet.interval(F(0), F(1), False, left_open)
            right = RealSet.interval(F(1), F(2), right_open, False)
            for x in extras:
                for y in extras:
                    yield left | x, right | y
                    yield left - x, right | y


def test_and_equals_full_canonicalization():
    rng = random.Random(7)
    pairs = [(build(rand_tree(rng, 3)), build(rand_tree(rng, 3))) for _ in range(400)]
    touching = list(touching_pairs())
    degenerate = 0
    for a, b in pairs + touching:
        got, want = a & b, and_with_full_canonicalization(a, b)
        assert got == want and repr(got) == repr(want), (a, b)
        degenerate += bool(iu_intersect(a.intervals, b.intervals)[1])
    assert degenerate > 40
    touch = touching[0]
    assert touch[0] & touch[1] == RealSet.points([F(1)])


# -- the interval sweep


def rand_raw_intervals(rng):
    """0-6 intervals on a coarse grid, so that they often overlap, touch or
    repeat; some are unbounded and some degenerate."""
    out = []
    for _ in range(rng.randint(0, 6)):
        lo = None if rng.random() < 0.15 else F(rng.randint(-6, 6), 2)
        hi = None if rng.random() < 0.15 else F(rng.randint(-6, 6), 2)
        if lo is not None and hi is not None and hi < lo:
            lo, hi = hi, lo
        if lo is not None and lo == hi:
            out.append(Interval(lo, hi, False, False))
        else:
            lo_open = lo is None or rng.random() < 0.5
            out.append(Interval(lo, hi, lo_open, hi is None or rng.random() < 0.5))
    return out


def sweep_probes(intervals):
    ends = sorted({e for iv in intervals for e in (iv.lo, iv.hi) if e is not None} | {F(0)})
    mids = [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    return ends + mids + [ends[0] - 1, ends[-1] + 1]


def could_merge(p: Interval, q: Interval) -> bool:
    """Whether p, which starts first, overlaps or touches q."""
    if p.hi is None or q.lo is None or q.lo < p.hi:
        return True
    return q.lo == p.hi and not (p.hi_open and q.lo_open)


def test_normalize_intervals_keeps_the_union_and_merges_all():
    rng = random.Random(41)
    for _ in range(2000):
        raw = rand_raw_intervals(rng)
        pieces, points = normalize_intervals(raw)
        assert not any(iv.degenerate for iv in pieces), raw
        for p, q in zip(pieces, pieces[1:]):
            assert _lo_key(p) < _lo_key(q) and not could_merge(p, q), raw
        for x in sweep_probes(raw):
            want = iu_contains(raw, x)
            assert (iu_contains(pieces, x) or x in points) == want, (raw, x)


def test_complement_of_any_sorted_list():
    rng = random.Random(43)
    overlapping = 0
    for _ in range(2000):
        raw = sorted(rand_raw_intervals(rng), key=_lo_key)
        overlapping += any(could_merge(p, q) for p, q in zip(raw, raw[1:]))
        gaps = iu_complement(raw)
        for p, q in zip(gaps, gaps[1:]):
            assert _lo_key(p) < _lo_key(q) and not could_merge(p, q), raw
        for x in sweep_probes(raw):
            assert iu_contains(gaps, x) != iu_contains(raw, x), (raw, x)
    assert overlapping > 500


# -- CountablePart shortcuts against canonical_countable on raw inputs


def rand_countable(rng):
    if rng.random() < 0.3:
        return EMPTY_COUNTABLE
    points = [F(rng.randint(-10, 25), rng.choice((1, 2))) for _ in range(rng.randint(0, 3))]
    progs = [
        Progression(F(rng.randint(-5, 8), rng.choice((1, 2))), F(rng.randint(1, 5)))
        for _ in range(rng.randint(0, 2))
    ]
    return canonical_countable(points, progs)


def rand_intervals(rng):
    if rng.random() < 0.3:
        return ()
    return build(("|", rand_leaf(rng), rand_leaf(rng))).intervals


def test_countable_ops_match_canonical_countable_of_raw_inputs():
    rng = random.Random(23)
    empties = 0
    for _ in range(400):
        a, b = rand_countable(rng), rand_countable(rng)
        empties += a.is_empty or b.is_empty
        raw = canonical_countable(a.points + b.points, a.progressions + b.progressions)
        assert a.union(b) == raw
        if a.is_empty or b.is_empty:
            assert a.intersect(b) == canonical_countable((), ())
        if b.is_empty:
            assert a.diff(b) == canonical_countable(a.points, a.progressions)
        if a.is_empty:
            assert a.diff(b) == canonical_countable((), ())
        ivs = rand_intervals(rng)
        if a.is_empty or not ivs:
            assert a.meet_intervals(ivs) == canonical_countable((), ())
    assert empties > 100


def test_lone_progression_is_returned_as_given():
    rng = random.Random(29)
    for _ in range(200):
        g = Progression(rand_rational(rng), F(rng.randint(1, 9), rng.randint(1, 3)))
        fast = canonical_countable((), (g,))
        assert fast.points == () and fast.progressions == (g,)
        # The same set presented so that the general path must run.
        split = canonical_countable(
            (g.base,),
            (Progression(g.term(1), 2 * g.step), Progression(g.term(2), 2 * g.step)),
        )
        assert split == fast
        # A point extending the tail is not a lone progression: it is absorbed.
        longer = canonical_countable((g.base - g.step,), (g,))
        assert longer == canonical_countable((), (Progression(g.base - g.step, g.step),))


# -- boolean operations against the pointwise tree evaluator


def test_boolean_ops_agree_pointwise_with_tree_evaluator():
    rng = random.Random(37)
    for _ in range(150):
        ta = rand_tree(rng, rng.randint(1, 3))
        tb = rand_tree(rng, rng.randint(1, 3))
        a, b = build(ta), build(tb)
        results = {"|": a | b, "&": a & b, "-": a - b}
        probes = probes_for(("|", ta, tb), rng)
        for op, r in results.items():
            tree = (op, ta, tb)
            for x in probes:
                assert r.member(x) == holds(tree, x), (tree, x)
            # The result is already in normal form.
            assert RealSet(r.intervals, r.excluded, r.included) == r


# -- bounded progression growth


def test_coprime_progression_union_hits_size_limit(monkeypatch):
    monkeypatch.setenv("SIGMA_PRODUCT_SIZE_LIMIT", "5000")
    sets = [RealSet.progression(F(0), F(step)) for step in (61, 67, 71)]
    t0 = time.perf_counter()
    with pytest.raises(SizeLimit):
        sets[0] | sets[1] | sets[2]
    assert time.perf_counter() - t0 < 1.0


def test_size_limit_allows_what_fits(monkeypatch):
    monkeypatch.setenv("SIGMA_PRODUCT_SIZE_LIMIT", "5000")
    two = RealSet.progression(F(0), F(61)) | RealSet.progression(F(0), F(67))
    assert two.member(F(61 * 5)) and two.member(F(67 * 3))
    assert not two.member(F(1))
