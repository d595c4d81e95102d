import random
from fractions import Fraction

import pytest

from sigma_product.errors import UniverseMismatch
from sigma_product.finset import FinSet
from sigma_product.lineset import RealSet
from sigma_product.rectset import RectUnion, rect_disjointify, rect_grid, refine_parts

F = Fraction


def iv(lo, hi, lo_open=False, hi_open=False):
    return RealSet.interval(
        None if lo is None else F(lo), None if hi is None else F(hi), lo_open, hi_open
    )


def pts(*values):
    return RealSet.points([F(v) for v in values])


class TestCanonicalForm:
    def test_overlapping_slabs_equal_merged(self):
        u = RectUnion.of((iv(0, 2), pts(0)), (iv(1, 3), pts(0)))
        v = RectUnion.of((iv(0, 3), pts(0)))
        assert u == v

    def test_rects_are_disjoint(self):
        u = RectUnion.of((iv(0, 2), iv(0, 2)), (iv(1, 3), iv(1, 3)))
        for i, (a1, b1) in enumerate(u.rects):
            for a2, b2 in u.rects[i + 1 :]:
                assert (a1 & a2).is_empty or (b1 & b2).is_empty

    def test_empty_rectangles_dropped(self):
        u = RectUnion.of((RealSet.empty(), iv(0, 1)), (iv(0, 1), RealSet.empty()))
        assert u.is_empty

    def test_disjointify_idempotent_pointwise(self):
        u = RectUnion.of((iv(0, 1), iv(0, 1)), (iv(2, 3), iv(2, 3)))
        assert rect_disjointify(u) == u


class TestDisjointify:
    def test_l_shape_grid_sampling(self):
        u = RectUnion.of((iv(0, 2), iv(0, 2)), (iv(1, 3), iv(1, 3)))
        d = rect_disjointify(u)
        assert len(d.rects) >= 3
        for i in range(50):
            for j in range(50):
                x = F(-10 + i * 8, 10)
                y = F(-10 + j * 8, 10)
                want = (0 <= x <= 2 and 0 <= y <= 2) or (1 <= x <= 3 and 1 <= y <= 3)
                assert u.member((x, y)) == want
                assert d.member((x, y)) == want

    def test_refine_parts_partition(self):
        rng = random.Random(3)
        for _ in range(30):
            sets = []
            for _ in range(rng.randint(1, 4)):
                a = F(rng.randint(-5, 5))
                sets.append(iv(a, a + rng.randint(1, 6)))
            parts = [p for p, _ in refine_parts(sets)]
            for i, p in enumerate(parts):
                assert not p.is_empty
                for q in parts[i + 1 :]:
                    assert (p & q).is_empty
            for s in sets:
                rebuilt = RealSet.empty()
                for p in parts:
                    if (p - s).is_empty:
                        rebuilt = rebuilt | p
                assert rebuilt == s


def random_line_set(rng):
    kind = rng.randrange(4)
    a = F(rng.randint(-4, 4))
    if kind == 0:
        return RealSet.empty()
    if kind == 1:
        return pts(*rng.sample(range(-4, 5), rng.randint(1, 3)))
    width = rng.randint(0, 5)
    s = iv(a, a + width, width and rng.random() < 0.5, width and rng.random() < 0.5)
    return s | pts(rng.randint(-6, 6)) if kind == 3 else s


def random_fin_set(rng, ground=("a", "b", "c", "d")):
    return FinSet.of(ground, [x for x in ground if rng.random() < 0.5])


def random_family(rng, draw):
    """Random sets, with empty, repeated and nested members mixed in."""
    family = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if family and roll < 0.2:
            family.append(rng.choice(family))
        elif family and roll < 0.4:
            family.append(rng.choice(family) & draw(rng))
        elif family and roll < 0.5:
            family.append(rng.choice(family) - rng.choice(family))
        else:
            family.append(draw(rng))
    return family


def first_cover(a_parts, b_parts, rects):
    """rect_grid's cover as subset tests: each cell with the first
    rectangle that contains it."""
    cover = []
    for i, a in enumerate(a_parts):
        for j, b in enumerate(b_parts):
            for k, (ra, rb) in enumerate(rects):
                if (a - ra).is_empty and (b - rb).is_empty:
                    cover.append((i, j, k))
                    break
    return cover


class TestRefineMasks:
    @pytest.mark.parametrize("draw,empty", [(random_line_set, RealSet.empty()),
                                            (random_fin_set, FinSet.of(("a", "b", "c", "d"), []))])
    def test_masks_are_the_containing_inputs(self, draw, empty):
        rng = random.Random(15)
        for _ in range(60):
            sets = random_family(rng, draw)
            parts = refine_parts(sets)
            for i, (cell, mask) in enumerate(parts):
                assert not cell.is_empty
                assert 0 <= mask < 1 << len(sets)
                for k, s in enumerate(sets):
                    assert bool(mask >> k & 1) == (cell - s).is_empty
                for other, _ in parts[i + 1 :]:
                    assert (cell & other).is_empty
            for k, s in enumerate(sets):
                rebuilt = empty
                for cell, mask in parts:
                    if mask >> k & 1:
                        rebuilt = rebuilt | cell
                assert rebuilt == s

    def test_equal_and_empty_members(self):
        s, t = iv(0, 2), iv(1, 3)
        parts = refine_parts([s, RealSet.empty(), s, t])
        assert sorted(mask for _, mask in parts) == [0b0101, 0b1000, 0b1101]

    @pytest.mark.parametrize("draw", [random_line_set, random_fin_set])
    def test_grid_cover_matches_subset_tests(self, draw):
        rng = random.Random(16)
        for _ in range(40):
            rects = [(draw(rng), draw(rng)) for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(1, 3)):
                a, b = rng.choice(rects)
                rects.append((a | draw(rng), (b & draw(rng)) | draw(rng)))
            a_parts, b_parts, cover = rect_grid(rects)
            assert cover == first_cover(a_parts, b_parts, rects)


class TestBooleanOps:
    def sample(self, rng, u: RectUnion, v: RectUnion, op, pyop):
        w = op(u, v)
        for _ in range(150):
            x = F(rng.randint(-8, 40), rng.randint(1, 4))
            y = F(rng.randint(-8, 40), rng.randint(1, 4))
            assert w.member((x, y)) == pyop(u.member((x, y)), v.member((x, y)))

    def test_sampled_ops(self):
        rng = random.Random(44)
        for _ in range(20):
            def rnd_rect_union():
                rects = []
                for _ in range(rng.randint(1, 3)):
                    a = F(rng.randint(-5, 5))
                    c = F(rng.randint(-5, 5))
                    rects.append((iv(a, a + rng.randint(0, 6)), iv(c, c + rng.randint(0, 6))))
                return RectUnion(rects)

            u, v = rnd_rect_union(), rnd_rect_union()
            self.sample(rng, u, v, lambda p, q: p | q, lambda p, q: p or q)
            self.sample(rng, u, v, lambda p, q: p & q, lambda p, q: p and q)
            self.sample(rng, u, v, lambda p, q: p - q, lambda p, q: p and not q)


class TestFinSetRects:
    def test_finite_ground_sides(self):
        g1, g2 = ("a", "b"), ("x", "y")
        u = RectUnion.of(
            (FinSet.of(g1, ["a"]), FinSet.of(g2, ["x", "y"])),
            (FinSet.of(g1, ["b"]), FinSet.of(g2, ["y"])),
        )
        assert u.member(("a", "x")) and u.member(("b", "y"))
        assert not u.member(("b", "x"))

    def test_mixed_universes_rejected(self):
        with pytest.raises(UniverseMismatch):
            RectUnion.of(
                (iv(0, 1), iv(0, 1)),
                (FinSet.of(("a",), ["a"]), iv(0, 1)),
            )


class TestEqualityAcrossUniverses:
    LINE = RectUnion.of((iv(0, 1), iv(0, 1)))
    FIN = RectUnion.of((FinSet.of(("a",), ["a"]), FinSet.of(("b",), ["b"])))

    def test_nonempty_unions_over_different_universes_are_unequal(self):
        line, fin = self.LINE, self.FIN
        assert not line == fin and line != fin and fin != line
        assert fin not in [line] and line in [fin, line]

    def test_empty_unions_are_equal_whatever_their_universe(self):
        line, fin = self.LINE, self.FIN
        assert (line - line) == (fin - fin) == RectUnion.empty()

    def test_union_with_an_empty_union_of_another_universe(self):
        line, fin = self.LINE, self.FIN
        for u in ((fin - fin) | line, line | (fin - fin)):
            assert u == line and u.universe == line.universe


class TestNestedRects:
    def test_triple_membership(self):
        inner = RectUnion.of((iv(0, 1), pts(0)))
        triple = RectUnion.of((inner, iv(0, 3)))
        assert triple.member(((F(1, 2), F(0)), F(2)))
        assert not triple.member(((F(1, 2), F(1)), F(2)))

    def test_nested_ops(self):
        inner1 = RectUnion.of((iv(0, 2), pts(0)))
        inner2 = RectUnion.of((iv(1, 3), pts(0)))
        t1 = RectUnion.of((inner1, iv(0, 1)))
        t2 = RectUnion.of((inner2, iv(0, 1)))
        union = t1 | t2
        assert union.member(((F(5, 2), F(0)), F(1, 2)))
        assert union.member(((F(1, 2), F(0)), F(1, 2)))
        diff = t1 - t2
        assert diff.member(((F(1, 2), F(0)), F(1, 2)))
        assert not diff.member(((F(3, 2), F(0)), F(1, 2)))
