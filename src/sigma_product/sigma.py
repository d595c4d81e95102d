"""Explicit sigma-rings over finite ground sets.

On a finite ground, closure under countable unions collapses to closure
under pairwise unions, so a sigma-ring can be generated by a worklist
fixed point over (union, difference) pairs and stored exhaustively.
A ring is exactly the set of unions of its atoms, so a product ring needs
no closure: it is the set of unions of the products of the factors'
atoms, and its size limit is checked from 2^atoms before any work.
"""

from __future__ import annotations

import os
from functools import reduce
from math import prod
from operator import or_
from typing import Iterable, List, Sequence

from sigma_product.errors import SizeLimit
from sigma_product.finset import FinSet, Ground, product_ground, product_set

DEFAULT_SIZE_LIMIT = 1 << 16
SIZE_LIMIT_ENV = "SIGMA_PRODUCT_SIZE_LIMIT"


def size_limit(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get(SIZE_LIMIT_ENV)
    if not env:
        return DEFAULT_SIZE_LIMIT
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise SizeLimit(f"{SIZE_LIMIT_ENV} must be a positive integer, got {env!r}")
    return value


class SigmaRingFin:
    """A sigma-ring over a finite ground, all members enumerated.

    Members are stored as masks; the empty set is always present and the
    family is closed under pairwise union and set difference.
    """

    __slots__ = ("ground", "members", "_atoms")

    def __init__(self, ground: Ground, members: Iterable[int], check: bool = True):
        ground = tuple(ground)
        members = frozenset(members) | {0}
        if check:
            # A ring is the set of all unions of its atoms, which are disjoint
            # (adding them makes no carries): 2^atoms members, each a union.
            atoms = _scan_atoms(members)
            disjoint = sum(atoms) == reduce(or_, atoms, 0)
            if not (disjoint and len(members) == 1 << len(atoms)
                    and members.issuperset(_unions(atoms))):
                raise ValueError("family is not closed under union/difference")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_atoms", None)

    def __setattr__(self, name, value):
        raise AttributeError("SigmaRingFin is immutable")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item) -> bool:
        if isinstance(item, FinSet):
            return item.ground == self.ground and item.mask in self.members
        return item in self.members

    def __eq__(self, other) -> bool:
        if not isinstance(other, SigmaRingFin):
            return NotImplemented
        return self.ground == other.ground and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.ground, self.members))

    def sets(self) -> List[FinSet]:
        """Members in a stable order: by size, then by mask value."""
        order = sorted(self.members, key=lambda m: (bin(m).count("1"), m))
        return [FinSet(self.ground, m) for m in order]

    def restrict(self, s: FinSet) -> "SigmaRingFin":
        """Elementwise intersection with s; the result is again a sigma-ring."""
        if s.ground != self.ground:
            raise ValueError("restriction set over a different ground")
        return SigmaRingFin(self.ground, {m & s.mask for m in self.members}, check=False)

    def atoms(self) -> List[FinSet]:
        """Minimal nonempty members; every member is a disjoint union of them."""
        if self._atoms is None:
            found = tuple(FinSet(self.ground, m) for m in _scan_atoms(self.members))
            object.__setattr__(self, "_atoms", found)
        return list(self._atoms)

    def __repr__(self) -> str:
        return f"SigmaRingFin(|ground|={len(self.ground)}, members={len(self.members)})"


def _scan_atoms(members: frozenset[int]) -> List[int]:
    """For each point not yet covered, the intersection of the members
    holding it, sorted by mask.  On a ring these are its atoms."""
    union = rest = reduce(or_, members, 0)
    found: List[int] = []
    while rest:
        point = rest & -rest
        atom = union
        for m in members:
            if m & point:
                atom &= m
        found.append(atom)
        rest &= ~atom
    return sorted(found)


def _unions(atoms: Sequence[int]) -> List[int]:
    """Every union of the given masks, the empty one included."""
    out = [0]
    for a in atoms:
        out += [m | a for m in out]
    return out


def _close(ground: Ground, masks: Iterable[int], limit: int | None) -> frozenset[int]:
    bound = size_limit(limit)
    members = {0} | set(masks)
    if len(members) > bound:
        raise SizeLimit(f"sigma-ring would exceed {bound} members")
    work = list(members)
    while work:
        a = work.pop()
        for b in list(members):
            for c in (a | b, a & ~b, b & ~a):
                if c not in members:
                    members.add(c)
                    work.append(c)
                    if len(members) > bound:
                        raise SizeLimit(f"sigma-ring would exceed {bound} members")
    return frozenset(members)


def generate_sigma_ring(
    ground: Sequence, family: Iterable[FinSet], limit: int | None = None
) -> SigmaRingFin:
    """Least family containing ``family`` closed under union and difference."""
    ground = tuple(ground)
    masks = []
    for s in family:
        if s.ground != ground:
            raise ValueError("family member over a different ground")
        masks.append(s.mask)
    return SigmaRingFin(ground, _close(ground, masks, limit), check=False)


def generate_sigma_algebra(
    ground: Sequence, family: Iterable[FinSet], limit: int | None = None
) -> SigmaRingFin:
    """Sigma-ring generated by the family together with the full ground."""
    ground = tuple(ground)
    full = FinSet.full(ground)
    return generate_sigma_ring(ground, list(family) + [full], limit)


def restrict_family(family: Iterable[FinSet], s: FinSet) -> List[FinSet]:
    """Elementwise intersection with s, duplicates removed, order kept."""
    seen = set()
    out: List[FinSet] = []
    for a in family:
        r = a & s
        if r.mask not in seen:
            seen.add(r.mask)
            out.append(r)
    return out


def product_sigma_ring(
    r1: SigmaRingFin, r2: SigmaRingFin, limit: int | None = None
) -> SigmaRingFin:
    """Sigma-ring generated by all rectangles of members."""
    return product_sigma_ring_n([r1, r2], limit)


def product_sigma_ring_n(
    rings: Sequence[SigmaRingFin], limit: int | None = None
) -> SigmaRingFin:
    """n-fold product generated by n-dimensional rectangles.

    The product ground is built left-associatively, pairing labels, so
    that iterated binary products land on the same ground.  The ring is
    the set of unions of the products a1 x ... x an of the factors' atoms;
    it has 2^atoms members, and the size limit is checked from that count
    before anything is built.
    """
    if not rings:
        raise ValueError("need at least one ring")
    factor_atoms = [ring.atoms() for ring in rings]
    bound = size_limit(limit)
    if 1 << prod(map(len, factor_atoms)) > bound:
        raise SizeLimit(f"sigma-ring would exceed {bound} members")
    ground, atoms = rings[0].ground, factor_atoms[0]
    for ring, right in zip(rings[1:], factor_atoms[1:]):
        ground = product_ground(ground, ring.ground)
        atoms = [product_set(a, b, ground) for a in atoms for b in right]
    atoms.sort(key=lambda a: a.mask)
    ring = SigmaRingFin(ground, _unions([a.mask for a in atoms]), check=False)
    object.__setattr__(ring, "_atoms", tuple(atoms))
    return ring


def has_simple_extension_property(outer: SigmaRingFin, inner: SigmaRingFin) -> bool:
    """True iff inner is a subring of outer and is closed downward inside it:
    every outer member contained in some inner member is itself inner."""
    if outer.ground != inner.ground:
        raise ValueError("rings over different grounds")
    # inner is closed under union: a set lies in some inner member iff in their union
    top = reduce(or_, inner.members, 0)
    return inner.members <= outer.members and all(
        a in inner.members for a in outer.members if a & ~top == 0
    )
