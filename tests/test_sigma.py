import random

import pytest

from sigma_product.errors import SizeLimit, UniverseMismatch
from sigma_product.finset import FinSet, product_ground, product_set
from sigma_product.oracle import oracle_sigma_closure, powerset
from sigma_product.sigma import (
    SigmaRingFin,
    generate_sigma_algebra,
    generate_sigma_ring,
    has_simple_extension_property,
    product_sigma_ring,
    product_sigma_ring_n,
    restrict_family,
)


def fs(ground, *labels):
    return FinSet.of(ground, labels)


def ring_as_labelsets(ring: SigmaRingFin):
    return {frozenset(s) for s in ring.sets()}


class TestFinSet:
    def test_basic_ops_match_frozensets(self):
        ground = ("a", "b", "c", "d", "e")
        rng = random.Random(7)
        for _ in range(300):
            xs = frozenset(l for l in ground if rng.random() < 0.5)
            ys = frozenset(l for l in ground if rng.random() < 0.5)
            a, b = FinSet.of(ground, xs), FinSet.of(ground, ys)
            assert frozenset(a | b) == xs | ys
            assert frozenset(a & b) == xs & ys
            assert frozenset(a - b) == xs - ys
            assert (a <= b) == (xs <= ys)
            assert a.is_empty == (not xs)
            assert len(a) == len(xs)

    def test_ground_mismatch(self):
        with pytest.raises(UniverseMismatch):
            fs(("a", "b"), "a") | fs(("a", "c"), "a")

    def test_product_set(self):
        g1, g2 = ("1", "2"), ("a", "b")
        r = product_set(fs(g1, "1"), fs(g2, "a", "b"))
        assert frozenset(r) == {("1", "a"), ("1", "b")}
        assert r.ground == product_ground(g1, g2)

    def test_membership(self):
        s = fs(("a", "b"), "b")
        assert "b" in s and "a" not in s and "zz" not in s


class TestGenerateSigmaRing:
    def test_example_two_sets(self):
        g = (1, 2, 3)
        ring = generate_sigma_ring(g, [fs(g, 1), fs(g, 1, 2)])
        assert ring_as_labelsets(ring) == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        }

    def test_empty_family(self):
        ring = generate_sigma_ring((1, 2), [])
        assert ring_as_labelsets(ring) == {frozenset()}

    def test_two_singletons(self):
        g = (1, 2)
        ring = generate_sigma_ring(g, [fs(g, 1), fs(g, 2)])
        assert ring_as_labelsets(ring) == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        }

    def test_against_oracle_random(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 6)
            ground = tuple(range(n))
            family = []
            for _ in range(rng.randint(0, 4)):
                family.append(FinSet(ground, rng.randrange(1 << n)))
            ring = generate_sigma_ring(ground, family)
            naive = oracle_sigma_closure(ground, [frozenset(s) for s in family])
            assert ring_as_labelsets(ring) == naive

    def test_idempotent_and_monotone(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 5)
            ground = tuple(range(n))
            fam1 = [FinSet(ground, rng.randrange(1 << n)) for _ in range(2)]
            fam2 = fam1 + [FinSet(ground, rng.randrange(1 << n))]
            r1 = generate_sigma_ring(ground, fam1)
            r2 = generate_sigma_ring(ground, fam2)
            assert r1.members <= r2.members
            again = generate_sigma_ring(ground, r1.sets())
            assert again == r1

    def test_size_limit(self, monkeypatch):
        monkeypatch.setenv("SIGMA_PRODUCT_SIZE_LIMIT", "100")
        ground = tuple(range(8))
        family = [FinSet(ground, 1 << i) for i in range(8)]
        with pytest.raises(SizeLimit):
            generate_sigma_ring(ground, family)


class TestGenerateSigmaAlgebra:
    def test_example(self):
        g = (1, 2, 3)
        alg = generate_sigma_algebra(g, [fs(g, 1)])
        assert ring_as_labelsets(alg) == {
            frozenset(),
            frozenset({1}),
            frozenset({2, 3}),
            frozenset({1, 2, 3}),
        }

    def test_empty_family(self):
        g = (1, 2)
        alg = generate_sigma_algebra(g, [])
        assert ring_as_labelsets(alg) == {frozenset(), frozenset({1, 2})}

    def test_singletons_generate_power_set(self):
        g = (1, 2, 3)
        alg = generate_sigma_algebra(g, [fs(g, x) for x in g])
        assert len(alg) == 8

    def test_equals_ring_with_ground(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 5)
            ground = tuple(range(n))
            family = [FinSet(ground, rng.randrange(1 << n)) for _ in range(2)]
            assert generate_sigma_algebra(ground, family) == generate_sigma_ring(
                ground, family + [FinSet.full(ground)]
            )


class TestRestriction:
    def test_examples(self):
        g = (1, 2, 3)
        fam = [fs(g, 1, 2), fs(g, 2, 3)]
        assert restrict_family(fam, fs(g, 2)) == [fs(g, 2)]
        assert restrict_family(fam, FinSet.full(g)) == fam
        assert restrict_family([fs(g), fs(g, 1)], fs(g, 2)) == [fs(g)]

    def test_lemma_restriction_commutes_with_generation(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 6)
            ground = tuple(range(n))
            family = [FinSet(ground, rng.randrange(1 << n)) for _ in range(rng.randint(0, 4))]
            s = FinSet(ground, rng.randrange(1 << n))
            left = generate_sigma_ring(ground, restrict_family(family, s))
            right = generate_sigma_ring(ground, family).restrict(s)
            assert left == right

    def test_lemma_product_restriction_n2(self):
        rng = random.Random(55)
        for _ in range(60):
            grounds = [tuple(range(rng.randint(1, 3))) for _ in range(2)]
            rings = []
            subs = []
            for g in grounds:
                fam = [FinSet(g, rng.randrange(1 << len(g))) for _ in range(2)]
                rings.append(generate_sigma_ring(g, fam))
                subs.append(FinSet(g, rng.randrange(1 << len(g))))
            restricted_first = product_sigma_ring(
                SigmaRingFin(grounds[0], rings[0].restrict(subs[0]).members, check=False),
                SigmaRingFin(grounds[1], rings[1].restrict(subs[1]).members, check=False),
            )
            box = product_set(subs[0], subs[1])
            restricted_after = product_sigma_ring(rings[0], rings[1]).restrict(box)
            assert restricted_first == restricted_after

    def test_lemma_product_restriction_n3(self):
        rng = random.Random(56)
        for _ in range(25):
            grounds = [tuple(range(rng.randint(1, 2))) for _ in range(3)]
            rings = []
            subs = []
            for g in grounds:
                fam = [FinSet(g, rng.randrange(1 << len(g))) for _ in range(2)]
                rings.append(generate_sigma_ring(g, fam))
                subs.append(FinSet(g, rng.randrange(1 << len(g))))
            left = product_sigma_ring_n([r.restrict(s) for r, s in zip(rings, subs)])
            box = product_set(product_set(subs[0], subs[1]), subs[2])
            right = product_sigma_ring_n(rings).restrict(box)
            assert left == right


class TestProductSigmaRing:
    def test_power_times_power(self):
        g1, g2 = (1, 2), ("a", "b")
        p1 = generate_sigma_algebra(g1, [fs(g1, 1), fs(g1, 2)])
        p2 = generate_sigma_algebra(g2, [fs(g2, "a"), fs(g2, "b")])
        prod = product_sigma_ring(p1, p2)
        assert len(prod) == 16
        assert prod.ground == product_ground(g1, g2)

    def test_single_rectangle(self):
        g1, g2 = (1, 2), ("a", "b")
        r1 = generate_sigma_ring(g1, [fs(g1, 1)])
        r2 = generate_sigma_ring(g2, [fs(g2, "a")])
        prod = product_sigma_ring(r1, r2)
        assert ring_as_labelsets(prod) == {frozenset(), frozenset({(1, "a")})}

    def test_empty_factor(self):
        g1, g2 = (1, 2), ("a",)
        r1 = generate_sigma_algebra(g1, [fs(g1, 1)])
        trivial = generate_sigma_ring(g2, [])
        prod = product_sigma_ring(r1, trivial)
        assert ring_as_labelsets(prod) == {frozenset()}

    def test_matches_oracle_closure_of_rectangles(self):
        rng = random.Random(77)
        for _ in range(40):
            g1 = tuple(range(rng.randint(1, 2)))
            g2 = tuple(range(rng.randint(1, 2)))
            r1 = generate_sigma_ring(g1, [FinSet(g1, rng.randrange(1 << len(g1))) for _ in range(2)])
            r2 = generate_sigma_ring(g2, [FinSet(g2, rng.randrange(1 << len(g2))) for _ in range(2)])
            prod = product_sigma_ring(r1, r2)
            rects = []
            for a in r1.sets():
                for b in r2.sets():
                    rects.append(frozenset((x, y) for x in a for y in b))
            naive = oracle_sigma_closure(prod.ground, rects)
            assert ring_as_labelsets(prod) == naive


class TestSimpleExtensionProperty:
    def test_examples(self):
        g = (1, 2)
        power = generate_sigma_algebra(g, [fs(g, 1), fs(g, 2)])
        inner_good = generate_sigma_ring(g, [fs(g, 1)])
        inner_bad = generate_sigma_ring(g, [FinSet.full(g)])
        assert has_simple_extension_property(power, inner_good)
        assert not has_simple_extension_property(power, inner_bad)
        assert has_simple_extension_property(power, power)

    def test_inner_not_subfamily(self):
        g = (1, 2)
        outer = generate_sigma_ring(g, [fs(g, 1)])
        inner = generate_sigma_ring(g, [fs(g, 2)])
        assert not has_simple_extension_property(outer, inner)

    def test_matches_definition_on_random_rings(self):
        def by_definition(outer, inner):
            if not inner.members <= outer.members:
                return False
            return all(
                a in inner.members
                for a in outer.members
                if any(a & ~b == 0 for b in inner.members)
            )

        rng = random.Random(41)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 5)
            ground = tuple(range(n))
            outer = generate_sigma_ring(
                ground, [FinSet(ground, rng.randrange(1 << n)) for _ in range(3)]
            )
            members = sorted(outer.members)
            if rng.random() < 0.7:
                picks = [FinSet(ground, rng.choice(members)) for _ in range(2)]
            else:
                picks = [FinSet(ground, rng.randrange(1 << n))]
            inner = generate_sigma_ring(ground, picks)
            want = by_definition(outer, inner)
            assert has_simple_extension_property(outer, inner) == want
            seen.add((want, inner.members <= outer.members))
        assert seen == {(True, True), (False, True), (False, False)}


class TestAtoms:
    def test_examples(self):
        g = (1, 2)
        power = generate_sigma_algebra(g, [fs(g, 1), fs(g, 2)])
        assert {frozenset(a) for a in power.atoms()} == {frozenset({1}), frozenset({2})}
        whole = generate_sigma_ring(g, [FinSet.full(g)])
        assert {frozenset(a) for a in whole.atoms()} == {frozenset({1, 2})}
        assert generate_sigma_ring(g, []).atoms() == []

    def test_members_are_unions_of_atoms(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 6)
            ground = tuple(range(n))
            family = [FinSet(ground, rng.randrange(1 << n)) for _ in range(3)]
            ring = generate_sigma_ring(ground, family)
            atom_masks = [a.mask for a in ring.atoms()]
            # pairwise disjoint
            for i, a in enumerate(atom_masks):
                assert a != 0
                for b in atom_masks[i + 1 :]:
                    assert a & b == 0
            for m in ring.members:
                cover = 0
                for a in atom_masks:
                    if a & m:
                        assert a & ~m == 0, "atom must be inside or outside"
                        cover |= a
                assert cover == m

    def test_atoms_in_ring(self):
        g = (1, 2, 3)
        ring = generate_sigma_ring(g, [fs(g, 1, 2), fs(g, 2, 3)])
        for a in ring.atoms():
            assert a in ring


def test_oracle_closure_trivia():
    assert oracle_sigma_closure((1, 2), []) == {frozenset()}
    ps = powerset((1, 2))
    assert oracle_sigma_closure((1, 2), ps) == set(ps)
