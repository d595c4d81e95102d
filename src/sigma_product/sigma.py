"""Explicit sigma-rings over finite ground sets.

On a finite ground, closure under countable unions collapses to closure
under pairwise unions, so a sigma-ring can be generated by a worklist
fixed point over (union, difference) pairs and stored exhaustively.
"""

from __future__ import annotations

import os
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
            for a in members:
                for b in members:
                    if a | b not in members or a & ~b not in members:
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
            union = 0
            for m in self.members:
                union |= m
            found: List[int] = []
            for i in range(len(self.ground)):
                if not union >> i & 1:
                    continue
                atom = union
                for m in self.members:
                    if m >> i & 1:
                        atom &= m
                if atom not in found:
                    found.append(atom)
            found.sort()
            object.__setattr__(
                self, "_atoms", tuple(FinSet(self.ground, m) for m in found)
            )
        return list(self._atoms)

    def __repr__(self) -> str:
        return f"SigmaRingFin(|ground|={len(self.ground)}, members={len(self.members)})"


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
    that iterated binary products land on the same ground.
    """
    if not rings:
        raise ValueError("need at least one ring")
    ground = rings[0].ground
    rects = set(rings[0].members)
    for ring in rings[1:]:
        new_ground = product_ground(ground, ring.ground)
        new_rects = set()
        for a in rects:
            fa = FinSet(ground, a)
            for b in ring.members:
                fb = FinSet(ring.ground, b)
                new_rects.add(product_set(fa, fb, new_ground).mask)
        ground, rects = new_ground, new_rects
    return SigmaRingFin(ground, _close(ground, rects, limit), check=False)


def has_simple_extension_property(outer: SigmaRingFin, inner: SigmaRingFin) -> bool:
    """True iff inner is a subring of outer and is closed downward inside it:
    every outer member contained in some inner member is itself inner."""
    if outer.ground != inner.ground:
        raise ValueError("rings over different grounds")
    if not inner.members <= outer.members:
        return False
    for a in outer.members:
        if a in inner.members:
            continue
        for b in inner.members:
            if a & ~b == 0:
                return False
    return True
