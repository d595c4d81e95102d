"""Finite product sigma-rings built from products of atoms.

Each check compares the library against a reference written here: a
worklist closure of all member rectangles, a rescan of the members for
atoms, per-atom sums of product cells for product weights, and a scan of
all member pairs for ring-ness.
"""

import random
from fractions import Fraction

import pytest

from sigma_product import sigma
from sigma_product.errors import SizeLimit
from sigma_product.extreal import INF, ZERO, ExtNonNeg
from sigma_product.finset import FinSet, product_ground, product_set
from sigma_product.measures import FiniteTabulated
from sigma_product.product import finite_product_measure
from sigma_product.sigma import (
    SigmaRingFin,
    generate_sigma_algebra,
    generate_sigma_ring,
    product_sigma_ring,
    product_sigma_ring_n,
)

WEIGHTS = (ZERO, ExtNonNeg(1), ExtNonNeg(2), ExtNonNeg(Fraction(1, 2)), INF)


def worklist_closure(masks):
    members = {0} | set(masks)
    work = list(members)
    while work:
        a = work.pop()
        for b in list(members):
            for c in (a | b, a & ~b, b & ~a):
                if c not in members:
                    members.add(c)
                    work.append(c)
    return frozenset(members)


def member_rectangles(rings):
    """The left-associative product ground and the masks of all products
    of members."""
    ground = rings[0].ground
    rects = set(rings[0].members)
    for ring in rings[1:]:
        new_ground = product_ground(ground, ring.ground)
        rects = {
            product_set(FinSet(ground, a), FinSet(ring.ground, b), new_ground).mask
            for a in rects
            for b in ring.members
        }
        ground = new_ground
    return ground, rects


def rescan_atoms(ground, members):
    """Per covered point, the intersection of the members holding it;
    duplicates dropped, sorted by mask."""
    union = 0
    for m in members:
        union |= m
    found = set()
    for i in range(len(ground)):
        if union >> i & 1:
            atom = union
            for m in members:
                if m >> i & 1:
                    atom &= m
            found.add(atom)
    return sorted(found)


def pair_scan_is_ring(members):
    members = set(members) | {0}
    return all(a | b in members and a & ~b in members for a in members for b in members)


def ring_pool(rng, per_count, max_atoms):
    """``per_count`` generated rings or algebras over 1-4 points for each
    atom count from 0 to ``max_atoms``; many leave points outside every
    atom."""
    buckets = {k: [] for k in range(max_atoms + 1)}
    while any(len(b) < per_count for b in buckets.values()):
        n = rng.randint(1, 4)
        ground = tuple(f"p{i}" for i in range(n))
        family = [FinSet(ground, rng.randrange(1 << n)) for _ in range(rng.randint(0, 3))]
        make = generate_sigma_algebra if rng.random() < 0.3 else generate_sigma_ring
        ring = make(ground, family)
        bucket = buckets.get(len(ring.atoms()))
        if bucket is not None and len(bucket) < per_count:
            bucket.append(ring)
    pool = [ring for k in sorted(buckets) for ring in buckets[k]]
    assert any(uncovered(ring) and ring.atoms() for ring in pool)
    return pool


def uncovered(ring):
    union = 0
    for m in ring.members:
        union |= m
    return union != (1 << len(ring.ground)) - 1


def check_product(rings):
    prod = product_sigma_ring_n(rings)
    ground, rects = member_rectangles(rings)
    assert prod.ground == ground
    assert prod.members == worklist_closure(rects)
    assert [a.mask for a in prod.atoms()] == rescan_atoms(ground, prod.members)
    assert all(a.ground == ground for a in prod.atoms())
    return prod


class TestProductRingFromAtoms:
    def test_two_fold_matches_closure_of_member_rectangles(self):
        pool = ring_pool(random.Random(11), 4, 3)
        for r1 in pool:
            for r2 in pool:
                prod = check_product([r1, r2])
                assert prod == product_sigma_ring(r1, r2)

    def test_three_fold_matches_closure_of_member_rectangles(self):
        rng = random.Random(12)
        pool = ring_pool(rng, 4, 2)
        for _ in range(60):
            check_product([rng.choice(pool) for _ in range(3)])

    def test_one_ring_is_itself(self):
        for ring in ring_pool(random.Random(13), 2, 4):
            prod = product_sigma_ring_n([ring])
            assert prod == ring
            assert prod.atoms() == ring.atoms()

    def test_atoms_are_stored_not_rescanned(self, monkeypatch):
        g1, g2 = (1, 2, 3), ("a", "b")
        r1 = generate_sigma_ring(g1, [FinSet(g1, 0b011), FinSet(g1, 0b001)])
        r2 = generate_sigma_algebra(g2, [FinSet(g2, 0b01)])
        expected = rescan_atoms(product_ground(g1, g2), product_sigma_ring(r1, r2).members)
        r1.atoms(), r2.atoms()

        def no_rescan(members):
            raise AssertionError("atoms rescanned")

        monkeypatch.setattr(sigma, "_scan_atoms", no_rescan)
        assert [a.mask for a in product_sigma_ring(r1, r2).atoms()] == expected


def power_ring(n):
    ground = tuple(range(n))
    return generate_sigma_algebra(ground, [FinSet(ground, 1 << i) for i in range(n)])


class TestProductSizeLimit:
    def test_two_four_point_power_sets(self):
        p4 = power_ring(4)
        prod = product_sigma_ring(p4, p4)
        assert len(prod) == 65536
        assert len(prod.atoms()) == 16

    def test_one_below_the_member_count(self, monkeypatch):
        monkeypatch.setenv("SIGMA_PRODUCT_SIZE_LIMIT", "65535")
        p4 = power_ring(4)
        with pytest.raises(SizeLimit) as info:
            product_sigma_ring(p4, p4)
        assert info.value.kind == "size-limit"
        assert str(info.value) == "sigma-ring would exceed 65535 members"

    def test_two_nine_point_power_sets(self):
        p9 = power_ring(9)
        with pytest.raises(SizeLimit) as info:
            product_sigma_ring(p9, p9)
        assert info.value.kind == "size-limit"

    def test_raised_before_the_ground_is_built(self, monkeypatch):
        p3 = power_ring(3)

        def unused(*args):
            raise AssertionError("product ground built")

        monkeypatch.setattr(sigma, "product_ground", unused)
        with pytest.raises(SizeLimit):
            product_sigma_ring_n([p3, p3, p3])
        monkeypatch.setenv("SIGMA_PRODUCT_SIZE_LIMIT", "511")
        with pytest.raises(SizeLimit):
            finite_product_measure(
                FiniteTabulated(p3, {a: ExtNonNeg(1) for a in p3.atoms()}),
                FiniteTabulated(p3, {a: ExtNonNeg(1) for a in p3.atoms()}),
            )


def random_tabulated(rng, ring):
    return FiniteTabulated(ring, {a: rng.choice(WEIGHTS) for a in ring.atoms()})


def cell_sum_weights(mu, nu, ground, atoms):
    """Each product atom's weight as the sum of the cells a x b it meets,
    with INF for a cell with a non-sigma-finite side."""
    cells = {}
    for a in mu.atoms:
        for b in nu.atoms:
            wa, wb = mu.atom_weight(a), nu.atom_weight(b)
            value = wa * wb if wa.is_finite and wb.is_finite else INF
            cells[product_set(a, b, ground).mask] = value
    weights = {}
    for atom in atoms:
        total = ZERO
        for mask, value in cells.items():
            if mask & atom:
                total = total + value
        weights[atom] = total
    return weights


class TestFiniteProductMeasureFromCells:
    def test_weights_equal_cell_sums(self):
        rng = random.Random(21)
        pool = ring_pool(rng, 4, 3)
        zero_times_inf = 0
        for _ in range(150):
            mu = random_tabulated(rng, rng.choice(pool))
            nu = random_tabulated(rng, rng.choice(pool))
            prod = finite_product_measure(mu, nu)
            ground = prod.ring.ground
            atoms = rescan_atoms(ground, prod.ring.members)
            assert [a.mask for a in prod.atoms] == atoms
            want = cell_sum_weights(mu, nu, ground, atoms)
            assert {a.mask: prod.atom_weight(a) for a in prod.atoms} == want
            for a in mu.atoms:
                for b in nu.atoms:
                    pair = {mu.atom_weight(a), nu.atom_weight(b)}
                    if pair == {ZERO, INF}:
                        zero_times_inf += 1
                        assert prod.atom_weight(product_set(a, b, ground)) == INF
        assert zero_times_inf > 0

    def test_weights_given_for_non_atoms_are_rejected(self):
        ring = power_ring(2)
        weights = {a: ExtNonNeg(1) for a in ring.atoms()}
        weights[FinSet.full(ring.ground)] = ExtNonNeg(2)
        with pytest.raises(ValueError, match="weights given for sets that are not atoms"):
            FiniteTabulated(ring, weights)
        del weights[ring.atoms()[0]]
        with pytest.raises(ValueError, match="missing weight for atom"):
            FiniteTabulated(ring, weights)


class TestRingCheckByAtoms:
    MESSAGE = "family is not closed under union/difference"

    def accepts(self, ground, members):
        try:
            SigmaRingFin(ground, members)
        except ValueError as exc:
            assert str(exc) == self.MESSAGE
            return False
        return True

    def test_overlapping_rescanned_atoms_are_rejected(self):
        g = (1, 2)
        members = {0, FinSet.of(g, [1, 2]).mask, FinSet.of(g, [2]).mask}
        assert not pair_scan_is_ring(members)
        assert not self.accepts(g, members)

    def test_agrees_with_pair_scan(self):
        rng = random.Random(31)
        seen = {True: 0, False: 0}
        for _ in range(1500):
            n = rng.randint(0, 5)
            ground = tuple(range(n))
            kind = rng.randrange(3)
            if kind == 0:
                members = {rng.randrange(1 << n) for _ in range(rng.randint(0, 8))}
            else:
                family = [FinSet(ground, rng.randrange(1 << n)) for _ in range(rng.randint(0, 3))]
                members = set(generate_sigma_ring(ground, family).members)
                if kind == 2:
                    members ^= {rng.randrange(1 << n)}
            want = pair_scan_is_ring(members)
            assert self.accepts(ground, members) == want, (n, sorted(members))
            seen[want] += 1
        assert seen[True] > 100 and seen[False] > 100

    def test_checked_ring_atoms_match_rescan(self):
        for ring in ring_pool(random.Random(32), 6, 4):
            again = SigmaRingFin(ring.ground, ring.members)
            assert [a.mask for a in again.atoms()] == rescan_atoms(ring.ground, ring.members)
