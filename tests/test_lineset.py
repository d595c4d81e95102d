import itertools
import random
from fractions import Fraction

import pytest

from sigma_product.lineset import (
    CountablePart,
    Interval,
    Progression,
    RealSet,
    EMPTY_COUNTABLE,
    canonical_countable,
    intersect_progressions,
    normalize_intervals,
)

F = Fraction


def iv(lo, hi, lo_open=False, hi_open=False):
    return RealSet.interval(
        None if lo is None else F(lo), None if hi is None else F(hi), lo_open, hi_open
    )


def pts(*values):
    return RealSet.points([F(v) for v in values])


def prg(base, step):
    return RealSet.progression(F(base), F(step))


def probe_values(*sets, rng=None, extra=200):
    """Rationals that exercise the boundary/progression structure of sets."""
    probes = set()
    for s in sets:
        for interval in s.intervals:
            for b in (interval.lo, interval.hi):
                if b is not None:
                    for d in (F(-1), F(-1, 3), F(0), F(1, 3), F(1)):
                        probes.add(b + d)
        for cp in (s.excluded, s.included):
            probes.update(cp.points)
            for g in cp.progressions:
                for k in range(8):
                    probes.add(g.term(k))
                probes.add(g.base - g.step)
                probes.add(g.base + g.step / 2)
    probes.update(F(n) for n in range(-3, 4))
    if rng is not None:
        for _ in range(extra):
            probes.add(F(rng.randint(-60, 60), rng.randint(1, 12)))
    return probes


def random_realset(rng) -> RealSet:
    s = RealSet.empty()
    for _ in range(rng.randint(0, 2)):
        a = F(rng.randint(-20, 20), rng.randint(1, 4))
        b = a + F(rng.randint(0, 25), rng.randint(1, 4))
        if a == b:
            s = s | pts(a)
        else:
            s = s | iv(a, b, rng.random() < 0.5, rng.random() < 0.5)
    if rng.random() < 0.4:
        s = s | iv(F(rng.randint(5, 30)), None, rng.random() < 0.5, True)
    for _ in range(rng.randint(0, 3)):
        s = s | pts(F(rng.randint(-20, 20), rng.randint(1, 4)))
    for _ in range(rng.randint(0, 2)):
        base = F(rng.randint(-10, 10), rng.randint(1, 3))
        step = F(rng.randint(1, 8), rng.randint(1, 3))
        g = prg(base, step)
        s = (s | g) if rng.random() < 0.7 else (s - g)
    if rng.random() < 0.3:
        s = s - pts(F(rng.randint(-20, 20), rng.randint(1, 4)))
    return s


class TestIntervals:
    def test_membership_flags(self):
        a = iv(0, 1, True, False)
        assert not a.member(0) and a.member(1) and a.member(F(1, 2))

    def test_unbounded(self):
        a = iv(None, 0, True, True)
        assert a.member(-100) and not a.member(0)
        with pytest.raises(ValueError):
            Interval(None, F(0), False, True)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0), False, False)
        with pytest.raises(ValueError):
            Interval(F(0), F(0), True, False)

    def test_normalize_merges(self):
        merged, points = normalize_intervals(
            [
                Interval(F(0), F(1), False, True),
                Interval(F(1), F(2), False, False),
                Interval(F(5), F(5), False, False),
            ]
        )
        assert merged == (Interval(F(0), F(2), False, False),)
        assert points == [F(5)]

    def test_complement_roundtrip(self):
        rng = random.Random(9)
        for _ in range(100):
            s = random_realset(rng)
            comp = s.complement()
            for x in probe_values(s, rng=rng, extra=30):
                assert comp.member(x) == (not s.member(x))
            assert comp.complement() == s


class TestProgressionIntersection:
    def test_spec_example_2_and_3(self):
        g = intersect_progressions(Progression(F(0), F(2)), Progression(F(0), F(3)))
        assert g == Progression(F(0), F(6))

    def test_empty(self):
        assert intersect_progressions(Progression(F(0), F(2)), Progression(F(1), F(2))) is None

    def test_against_bruteforce_1000_terms(self):
        rng = random.Random(42)
        for _ in range(150):
            p1 = Progression(F(rng.randint(-12, 12), rng.randint(1, 4)), F(rng.randint(1, 9), rng.randint(1, 4)))
            p2 = Progression(F(rng.randint(-12, 12), rng.randint(1, 4)), F(rng.randint(1, 9), rng.randint(1, 4)))
            terms1 = {p1.term(k) for k in range(1000)}
            terms2 = {p2.term(k) for k in range(1000)}
            expected = sorted(terms1 & terms2)
            got = intersect_progressions(p1, p2)
            # Compare on the overlap window where both enumerations are complete.
            window_hi = min(p1.term(999), p2.term(999))
            expected = [x for x in expected if x <= window_hi]
            if got is None:
                assert expected == []
            else:
                computed = []
                k = 0
                while got.term(k) <= window_hi:
                    computed.append(got.term(k))
                    k += 1
                assert computed == expected


class TestCanonicalCountable:
    def test_interleaved_progressions_merge(self):
        cp = canonical_countable([], [Progression(F(0), F(2)), Progression(F(1), F(2))])
        assert cp == CountablePart((), (Progression(F(0), F(1)),))

    def test_point_extends_tail(self):
        cp = canonical_countable([F(4)], [Progression(F(5), F(1))])
        assert cp == CountablePart((), (Progression(F(4), F(1)),))

    def test_point_inside_tail_removed(self):
        cp = canonical_countable([F(7)], [Progression(F(5), F(1))])
        assert cp == CountablePart((), (Progression(F(5), F(1)),))

    def test_mixed_scale_merge(self):
        # evens plus odds from 5: canonical is {0, 2} plus a step-1 tail at 4.
        cp = canonical_countable([], [Progression(F(0), F(2)), Progression(F(5), F(2))])
        assert cp == CountablePart((F(0), F(2)), (Progression(F(4), F(1)),))

    def test_subprogression_absorbed(self):
        cp = canonical_countable([], [Progression(F(0), F(1)), Progression(F(3), F(2))])
        assert cp == CountablePart((), (Progression(F(0), F(1)),))

    def test_incommensurate_classes_expand_to_joint_period(self):
        # The minimal eventual period of {2k} u {1/3 + 5k} is 10, so the
        # canonical form lists one progression per residue class mod 10.
        cp = canonical_countable([], [Progression(F(0), F(2)), Progression(F(1, 3), F(5))])
        assert len(cp.progressions) == 7
        assert all(g.step == 10 for g in cp.progressions)

    def test_membership_preserved_random(self):
        rng = random.Random(17)
        for _ in range(300):
            points = [F(rng.randint(-15, 15), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
            progs = [
                Progression(F(rng.randint(-8, 8), rng.randint(1, 3)), F(rng.randint(1, 6), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 3))
            ]
            cp = canonical_countable(points, progs)

            def naive_member(x):
                return x in points or any(g.member(x) for g in progs)

            probes = set(points)
            for g in progs + list(cp.progressions):
                for k in range(10):
                    probes.add(g.term(k))
                probes.add(g.base - g.step)
            probes.update(cp.points)
            for x in probes:
                assert cp.member(x) == naive_member(x), (points, progs, x)

    def test_canonical_is_normal_form_random(self):
        # Build the same set from shuffled/split pieces; structure must agree.
        rng = random.Random(23)
        for _ in range(200):
            progs = [
                Progression(F(rng.randint(-6, 6)), F(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))
            ]
            points = [F(rng.randint(-10, 10)) for _ in range(rng.randint(0, 3))]
            cp1 = canonical_countable(points, progs)
            # Re-present: split each progression into head points + tail.
            alt_points = list(points)
            alt_progs = []
            for g in progs:
                cut = rng.randint(0, 3)
                alt_points += [g.term(k) for k in range(cut)]
                alt_progs.append(Progression(g.term(cut), g.step))
                if rng.random() < 0.5:
                    # further split one tail into two interleaved ones
                    h = alt_progs.pop()
                    alt_progs.append(Progression(h.base, h.step * 2))
                    alt_progs.append(Progression(h.base + h.step, h.step * 2))
            rng.shuffle(alt_progs)
            cp2 = canonical_countable(alt_points, alt_progs)
            assert cp1 == cp2, (points, progs, alt_points, alt_progs)


class TestRealSetCanonicalForm:
    def test_puncture_at_closed_endpoint_opens_it(self):
        assert iv(0, 1) - pts(0) == iv(0, 1, True, False)

    def test_included_point_closes_endpoint(self):
        assert iv(0, 1, True, False) | pts(0) == iv(0, 1)

    def test_bridge_point_merges(self):
        assert iv(0, 1, False, True) | iv(1, 2, True, False) | pts(1) == iv(0, 2)

    def test_single_point_gap_becomes_puncture(self):
        left = iv(0, 1, False, True) | iv(1, 2, True, False)
        right = iv(0, 2) - pts(1)
        assert left == right
        assert left.intervals == (Interval(F(0), F(2), False, False),)
        assert left.excluded.points == (F(1),)

    def test_endpoint_corrections_fold_in_one_pass(self):
        none = CountablePart((), ())
        # two open intervals share the included point 1, and every
        # endpoint carries a correction
        raw = RealSet(
            (
                Interval(F(0), F(1), True, True),
                Interval(F(1), F(2), True, True),
                Interval(F(3), F(4), False, False),
            ),
            CountablePart((F(3), F(4)), ()),
            CountablePart((F(0), F(1), F(2)), ()),
        )
        assert raw == iv(0, 2) | iv(3, 4, True, True)
        assert raw.intervals == (
            Interval(F(0), F(2), False, False),
            Interval(F(3), F(4), True, True),
        )
        assert raw.excluded == none and raw.included == none
        # an excluded progression opens both closed endpoints
        raw = RealSet(
            (Interval(F(0), F(3), False, False),),
            CountablePart((), (Progression(F(0), F(1)),)),
            none,
        )
        assert raw == iv(0, 3) - prg(0, 1)
        assert raw.intervals == (Interval(F(0), F(3), True, True),)
        assert raw.excluded.points == (F(1), F(2))

    def test_degenerate_interval_is_points(self):
        assert iv(5, 5) == pts(5)

    def test_spec_puncture_example(self):
        s = iv(0, 1) - pts(F(1, 2))
        assert s.intervals == (Interval(F(0), F(1), False, False),)
        assert s.excluded.points == (F(1, 2),)

    def test_progression_canonical_through_realset(self):
        assert prg(0, 2) | prg(1, 2) == prg(0, 1)

    def test_excluded_progression_trimmed_to_intervals(self):
        s = iv(0, 10) - prg(0, 3)
        # only 0, 3, 6, 9 are actually removed; 0 folds into the flag
        assert s.member(F(12)) is False and s.member(F(1)) is True
        assert not s.member(F(3))
        inf_side = iv(0, None, False, True) - prg(5, 3)
        assert not inf_side.member(F(8))
        assert inf_side.member(F(6))


def raw_member(intervals, excluded, included, x):
    """Membership in RealSet(intervals, excluded, included) by definition:
    a degenerate interval is an included point, and included wins over
    excluded."""
    if included.member(x) or any(i.degenerate and i.lo == x for i in intervals):
        return True
    return any(i.contains(x) for i in intervals if not i.degenerate) and not excluded.member(x)


def assert_normal_form(s: RealSet):
    """The conditions that make the canonical form unique: disjoint
    nondegenerate intervals with a gap between each two, excluded points
    strictly inside them and included points outside their closures."""
    for a, b in zip(s.intervals, s.intervals[1:]):
        assert a.hi is not None and b.lo is not None and a.hi < b.lo, s
    assert not any(i.degenerate for i in s.intervals), s

    def probes(cp):
        yield from cp.points
        for g in cp.progressions:
            yield from (g.term(k) for k in range(6))

    for x in probes(s.excluded):
        assert any(i.contains(x) and x not in (i.lo, i.hi) for i in s.intervals), (s, x)
    for x in probes(s.included):
        assert not any(
            (i.lo is None or i.lo <= x) and (i.hi is None or x <= i.hi) for i in s.intervals
        ), (s, x)


class TestOnePassCanonicalize:
    """Endpoint corrections fold into the flags, and intervals sharing an
    endpoint merge, in the canonicalizer's one loop."""

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_chains_of_open_intervals_sharing_endpoints(self, count):
        """Every shared point included, excluded or neither, and every
        outer endpoint closed or open, then included, excluded or neither."""
        ends = [F(k, 2) for k in range(count + 1)]
        fixes = ("in", "out", None)
        outer = list(itertools.product((False, True), fixes))
        for shared, (lo_closed, lo_fix), (hi_closed, hi_fix) in itertools.product(
            itertools.product(fixes, repeat=count - 1), outer, outer
        ):
            ivs = [Interval(a, b, True, True) for a, b in zip(ends, ends[1:])]
            ivs[0] = Interval(ends[0], ends[1], not lo_closed, True)
            ivs[-1] = Interval(ends[-2], ends[-1], True, not hi_closed)
            fix_at = dict(zip(ends, (lo_fix,) + shared + (hi_fix,)))
            inc = [x for x, fix in fix_at.items() if fix == "in"]
            exc = [x for x, fix in fix_at.items() if fix == "out"]
            raw = RealSet(tuple(ivs), CountablePart(tuple(exc), ()), CountablePart(tuple(inc), ()))

            lo_open = not (lo_fix == "in" or (lo_closed and lo_fix != "out"))
            hi_open = not (hi_fix == "in" or (hi_closed and hi_fix != "out"))
            assert raw.intervals == (Interval(ends[0], ends[-1], lo_open, hi_open),)
            punctures = tuple(x for x, fix in zip(ends[1:-1], shared) if fix != "in")
            assert raw.excluded == CountablePart(punctures, ())
            assert raw.included == EMPTY_COUNTABLE

            built = RealSet.empty()
            for i in ivs:
                built = built | RealSet((i,), EMPTY_COUNTABLE, EMPTY_COUNTABLE)
            assert raw == (built - pts(*exc)) | pts(*inc), (shared, lo_fix, hi_fix)

    def test_progression_corrections_at_shared_and_outer_endpoints(self):
        chain = (Interval(F(0), F(1), True, True), Interval(F(1), F(2), True, True),
                 Interval(F(2), F(3), False, True))
        # 1, 2, 3, 4, ... included: closes the shared point 1 and the end 3
        raw = RealSet(chain, EMPTY_COUNTABLE, CountablePart((), (Progression(F(1), F(1)),)))
        assert raw.intervals == (Interval(F(0), F(3), True, False),)
        assert raw.included == CountablePart((), (Progression(F(4), F(1)),))
        assert raw.excluded == EMPTY_COUNTABLE
        # 0, 2, 4, ... excluded: only 2 lies in an interval, at a closed
        # end that then opens, so 1 and 2 both puncture one merged interval
        raw = RealSet(chain, CountablePart((), (Progression(F(0), F(2)),)), EMPTY_COUNTABLE)
        assert raw.intervals == (Interval(F(0), F(3), True, True),)
        assert raw.excluded.points == (F(1), F(2)) and raw.included == EMPTY_COUNTABLE
        assert raw == iv(0, 3, True, True) - pts(1, 2)

    def test_random_raw_inputs(self):
        rng = random.Random(1414)

        def rand_cp():
            points = [F(rng.randint(-8, 8), rng.choice((1, 2))) for _ in range(rng.randint(0, 4))]
            progs = [Progression(F(rng.randint(-6, 6), rng.choice((1, 2))),
                                 F(rng.randint(1, 3), rng.choice((1, 2))))
                     for _ in range(rng.choice((0, 0, 1, 2)))]
            return canonical_countable(points, progs)

        def rand_interval(anchors):
            a = rng.choice(anchors) if anchors and rng.random() < 0.5 else F(rng.randint(-8, 8), 2)
            shape = rng.random()
            if shape < 0.15:
                return Interval(a, a, False, False)
            if shape < 0.25:
                return Interval(None, a, True, rng.random() < 0.5)
            if shape < 0.35:
                return Interval(a, None, rng.random() < 0.5, True)
            b = a + F(rng.randint(1, 6), 2)
            return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)

        for _ in range(400):
            ivs = []
            for _ in range(rng.randint(0, 5)):
                anchors = [e for i in ivs for e in (i.lo, i.hi) if e is not None]
                ivs.append(rand_interval(anchors))  # often touching or overlapping
            excluded, included = rand_cp(), rand_cp()
            s = RealSet(tuple(ivs), excluded, included)
            assert_normal_form(s)
            ends = {e for i in ivs + list(s.intervals) for e in (i.lo, i.hi) if e is not None}
            ends |= set(excluded.points) | set(included.points)
            ends |= {g.term(k) for g in excluded.progressions + included.progressions for k in range(4)}
            ordered = sorted(ends)
            probes = ends | {(a + b) / 2 for a, b in zip(ordered, ordered[1:])}
            if ordered:
                probes |= {ordered[0] - 1, ordered[-1] + 1}
            for x in probes:
                assert s.member(x) == raw_member(ivs, excluded, included, x), (ivs, excluded, included, x)
            assert RealSet(s.intervals, s.excluded, s.included) == s


class TestRealSetOperations:
    def test_intersect_interval_with_points(self):
        assert iv(0, 1) & pts(0, 1, 2) == pts(0, 1)

    def test_union_spec_example(self):
        s = iv(0, 1) | pts(5)
        assert s.member(F(5)) and s.member(F(1, 2)) and not s.member(F(4))

    def test_diff_progressions(self):
        # {2k} minus {3k} leaves 2, 4, 8, 10, 14, ... (k not divisible by 3)
        s = prg(0, 2) - prg(0, 3)
        for x in [F(2), F(4), F(8), F(10), F(14)]:
            assert s.member(x)
        for x in [F(0), F(6), F(12), F(3)]:
            assert not s.member(x)

    def test_boolean_laws_sampled(self):
        rng = random.Random(314)
        for _ in range(60):
            a, b, c = (random_realset(rng) for _ in range(3))
            probes = probe_values(a, b, c, rng=rng, extra=200)
            union = a | b
            inter = a & b
            diff = a - b
            for x in probes:
                ax, bx = a.member(x), b.member(x)
                assert union.member(x) == (ax or bx)
                assert inter.member(x) == (ax and bx)
                assert diff.member(x) == (ax and not bx)
            # algebraic laws at the structural level
            assert union == b | a
            assert inter == b & a
            assert (a | b) | c == a | (b | c)
            assert (a & b) & c == a & (b & c)
            # De Morgan via complement
            assert (a | b).complement() == a.complement() & b.complement()
            assert (a & b).complement() == a.complement() | b.complement()

    def test_distributivity_structural(self):
        rng = random.Random(99)
        for _ in range(40):
            a, b, c = (random_realset(rng) for _ in range(3))
            assert a & (b | c) == (a & b) | (a & c)
            assert a | (b & c) == (a | b) & (a | c)

    def test_normal_form_from_equal_membership(self):
        rng = random.Random(5)
        for _ in range(60):
            a = random_realset(rng)
            b = (a - pts(3)) | (a & pts(3))
            assert b == a
            assert (a | a) == a and (a & a) == a
            assert (a - a).is_empty

    def test_subset(self):
        assert iv(0, 1) <= iv(0, 2)
        assert not (iv(0, 3) <= iv(0, 2))
        assert pts(1, 2) <= iv(0, 5)
        assert prg(0, 2) <= prg(0, 1)


class TestCardinality:
    def test_uncountable(self):
        s = iv(0, 1) - pts(F(1, 2))
        assert s.cardinality().kind == "uncountable"

    def test_finite(self):
        assert pts(3, 7).cardinality().count == 2

    def test_countably_infinite(self):
        assert prg(0, 1).cardinality().kind == "countably-infinite"

    def test_empty(self):
        assert RealSet.empty().cardinality().kind == "empty"
        assert (iv(0, 1) & iv(2, 3)).cardinality().kind == "empty"

    def test_interval_minus_countable_stays_uncountable(self):
        s = (iv(0, 1) - prg(0, F(1, 100))) - pts(F(1, 3))
        assert s.cardinality().kind == "uncountable"


class TestLength:
    def test_basic(self):
        assert iv(0, 1).interval_length() == 1
        assert (iv(0, 1) | iv(2, 4)).interval_length() == 3
        assert iv(0, None, False, True).interval_length() is None
        assert pts(1, 2, 3).interval_length() == 0

    def test_punctures_do_not_change_length(self):
        assert (iv(0, 2) - pts(1)).interval_length() == 2


class TestRender:
    def test_simple_forms(self):
        assert RealSet.empty().render() == "{}"
        assert iv(0, 1).render() == "[0, 1]"
        assert iv(0, None, True, True).render() == "(0, inf)"
        assert pts(F(1, 2), 3).render() == "{1/2, 3}"
        assert prg(0, 1).render() == "prog(0, 1)"

    def test_compound(self):
        s = (iv(0, 2) - pts(1)) | pts(9)
        assert s.render() == "[0, 2] \\ {1} | {9}"


class TestCountableOpsWindowOracle:
    """Compare CountablePart operations against brute-force enumeration on
    a bounded window."""

    @staticmethod
    def window_members(cp: CountablePart, hi: Fraction):
        out = {p for p in cp.points if p <= hi}
        for g in cp.progressions:
            k = 0
            while g.term(k) <= hi:
                out.add(g.term(k))
                k += 1
        return out

    def random_cp(self, rng):
        points = [F(rng.randint(-12, 30)) for _ in range(rng.randint(0, 4))]
        progs = [
            Progression(F(rng.randint(-6, 8)), F(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 3))
        ]
        return canonical_countable(points, progs)

    def test_union_intersect_diff_windowed(self):
        rng = random.Random(606)
        hi = F(120)
        for _ in range(250):
            a, b = self.random_cp(rng), self.random_cp(rng)
            wa, wb = self.window_members(a, hi), self.window_members(b, hi)
            assert self.window_members(a.union(b), hi) == wa | wb
            assert self.window_members(a.intersect(b), hi) == wa & wb
            assert self.window_members(a.diff(b), hi) == wa - wb

    def test_normal_form_under_adversarial_represented_inputs(self):
        rng = random.Random(707)
        for _ in range(200):
            base_cp = self.random_cp(rng)
            # rebuild from an equivalent but differently sliced presentation
            points = list(base_cp.points)
            progs = []
            for g in base_cp.progressions:
                m = rng.randint(1, 3)
                head = rng.randint(0, 2)
                points.extend(g.term(k) for k in range(head))
                for r in range(m):
                    progs.append(
                        Progression(g.term(head + r), g.step * m)
                    )
            rebuilt = canonical_countable(points, progs)
            assert rebuilt == base_cp, (base_cp, points, progs)
