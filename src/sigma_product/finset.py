"""Subsets of a finite, ordered ground set, stored as bitmasks."""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence, Tuple

from sigma_product.errors import UniverseMismatch
from sigma_product.frozen import Frozen

Label = Hashable
Ground = Tuple[Label, ...]


class FinSet(Frozen):
    """An immutable subset of a fixed finite ground tuple.

    Two sets are only comparable/combinable when their grounds are equal
    as tuples (same labels, same order).
    """

    __slots__ = ("ground", "mask")

    def __init__(self, ground: Sequence[Label], mask: int):
        ground = tuple(ground)
        if len(set(ground)) != len(ground):
            raise ValueError("ground labels must be distinct")
        if mask < 0 or mask >= 1 << len(ground):
            raise ValueError("mask outside ground range")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "mask", mask)

    @staticmethod
    def of(ground: Sequence[Label], labels: Iterable[Label]) -> FinSet:
        ground = tuple(ground)
        index = {label: i for i, label in enumerate(ground)}
        mask = 0
        for label in labels:
            if label not in index:
                raise ValueError(f"label {label!r} not in ground")
            mask |= 1 << index[label]
        return FinSet(ground, mask)

    @staticmethod
    def empty(ground: Sequence[Label]) -> FinSet:
        return FinSet(ground, 0)

    @staticmethod
    def full(ground: Sequence[Label]) -> FinSet:
        ground = tuple(ground)
        return FinSet(ground, (1 << len(ground)) - 1)

    def _check(self, other: FinSet) -> None:
        if not isinstance(other, FinSet) or self.ground != other.ground:
            raise UniverseMismatch("operands live over different grounds")

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __iter__(self) -> Iterator[Label]:
        for i, label in enumerate(self.ground):
            if self.mask >> i & 1:
                yield label

    def __contains__(self, label: Label) -> bool:
        try:
            i = self.ground.index(label)
        except ValueError:
            return False
        return bool(self.mask >> i & 1)

    def __or__(self, other: FinSet) -> FinSet:
        self._check(other)
        return FinSet(self.ground, self.mask | other.mask)

    def __and__(self, other: FinSet) -> FinSet:
        self._check(other)
        return FinSet(self.ground, self.mask & other.mask)

    def __sub__(self, other: FinSet) -> FinSet:
        self._check(other)
        return FinSet(self.ground, self.mask & ~other.mask)

    def __le__(self, other: FinSet) -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def labels(self) -> Tuple[Label, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(x) for x in self) + "}"


def product_ground(g1: Sequence[Label], g2: Sequence[Label]) -> Ground:
    """Ground of the product space: pairs in row-major order."""
    return tuple((x, y) for x in g1 for y in g2)


def product_set(a: FinSet, b: FinSet, ground: Ground | None = None) -> FinSet:
    """The rectangle a x b inside the product ground."""
    if ground is None:
        ground = product_ground(a.ground, b.ground)
    n2 = len(b.ground)
    mask = 0
    for i in range(len(a.ground)):
        if not a.mask >> i & 1:
            continue
        for j in range(n2):
            if b.mask >> j & 1:
                mask |= 1 << (i * n2 + j)
    return FinSet(ground, mask)
