"""Finite unions of rectangles A x B over two component universes.

Components may be real-line sets, finite-ground sets, or rectangle
unions themselves (which is how triple products are formed).  The
canonical form keeps rectangles pairwise disjoint and nonempty; equality
is point-set equality, not structural equality of the decomposition.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from sigma_product.errors import UniverseMismatch
from sigma_product.finset import FinSet
from sigma_product.frozen import Frozen
from sigma_product.lineset import RealSet

LINE_UNIVERSE = ("line",)


def universe_of(s) -> tuple:
    if isinstance(s, RealSet):
        return LINE_UNIVERSE
    if isinstance(s, FinSet):
        return ("fin", s.ground)
    if isinstance(s, RectUnion):
        return ("prod", s.left_universe, s.right_universe)
    raise TypeError(f"not a set: {s!r}")


def render_universe(u: tuple) -> str:
    if u is None:
        return "?"
    if u[0] == "line":
        return "line"
    if u[0] == "fin":
        return "ground(" + ", ".join(str(x) for x in u[1]) + ")"
    return f"({render_universe(u[1])} x {render_universe(u[2])})"


def set_member(s, x) -> bool:
    if isinstance(s, RealSet):
        return s.member(x)
    if isinstance(s, FinSet):
        return x in s
    if isinstance(s, RectUnion):
        return s.member(x)
    raise TypeError(f"not a set: {s!r}")


def refine_parts(sets: Sequence) -> List:
    """Disjoint nonempty cells generating the same finite boolean algebra:
    every input set is an exact union of cells."""
    parts: List = []
    for s in sets:
        out = []
        rest = s
        for p in parts:
            inter = p & s
            if not inter.is_empty:
                out.append(inter)
            diff = p - s
            if not diff.is_empty:
                out.append(diff)
            rest = rest - p
        if not rest.is_empty:
            out.append(rest)
        parts = out
    return parts


class RectUnion(Frozen):
    """A finite union of rectangles, stored pairwise disjoint."""

    __slots__ = ("rects", "left_universe", "right_universe")

    def __init__(
        self,
        rects: Iterable[Tuple[object, object]],
        left_universe: Optional[tuple] = None,
        right_universe: Optional[tuple] = None,
        _canonical: bool = False,
    ):
        pieces = list(rects)
        for a, b in pieces:
            lu, ru = universe_of(a), universe_of(b)
            if left_universe is None:
                left_universe, right_universe = lu, ru
            elif (lu, ru) != (left_universe, right_universe):
                raise UniverseMismatch("rectangle sides over mixed universes")
        if not _canonical:
            pieces = _disjoint_pieces(pieces)
        object.__setattr__(self, "rects", tuple(pieces))
        object.__setattr__(self, "left_universe", left_universe)
        object.__setattr__(self, "right_universe", right_universe)

    @staticmethod
    def of(*rects: Tuple[object, object]) -> "RectUnion":
        return RectUnion(rects)

    @staticmethod
    def empty() -> "RectUnion":
        return RectUnion((), _canonical=True)

    @property
    def is_empty(self) -> bool:
        return not self.rects

    def member(self, pair) -> bool:
        x, y = pair
        return any(set_member(a, x) and set_member(b, y) for a, b in self.rects)

    def _compatible(self, other: "RectUnion") -> None:
        if self.is_empty or other.is_empty:
            return
        if (self.left_universe, self.right_universe) != (
            other.left_universe,
            other.right_universe,
        ):
            raise UniverseMismatch("rectangle unions over different universes")

    def __and__(self, other: "RectUnion") -> "RectUnion":
        self._compatible(other)
        pieces = []
        for a1, b1 in self.rects:
            for a2, b2 in other.rects:
                a = a1 & a2
                if a.is_empty:
                    continue
                b = b1 & b2
                if not b.is_empty:
                    pieces.append((a, b))
        return RectUnion(
            pieces, self.left_universe, self.right_universe, _canonical=True
        )

    def __sub__(self, other: "RectUnion") -> "RectUnion":
        self._compatible(other)
        return RectUnion(
            _subtract(list(self.rects), other.rects),
            self.left_universe,
            self.right_universe,
            _canonical=True,
        )

    def __or__(self, other: "RectUnion") -> "RectUnion":
        self._compatible(other)
        lu = self.left_universe if self.left_universe is not None else other.left_universe
        ru = self.right_universe if self.right_universe is not None else other.right_universe
        return RectUnion(
            self.rects + (other - self).rects, lu, ru, _canonical=True
        )

    def __eq__(self, other) -> bool:
        """Point-set equality; the decomposition itself is not canonical."""
        if not isinstance(other, RectUnion):
            return NotImplemented
        return (self - other).is_empty and (other - self).is_empty

    def __hash__(self):
        raise TypeError("RectUnion is unhashable (equality is point-set equality)")

    def render(self) -> str:
        if self.is_empty:
            return "()"
        return " + ".join(f"({_render_side(a)} x {_render_side(b)})" for a, b in self.rects)

    def __repr__(self):
        return f"RectUnion({self.render()})"


def _render_side(s) -> str:
    if isinstance(s, (RealSet, RectUnion)):
        return s.render()
    return repr(s)


def _subtract(pieces: List[Tuple[object, object]], rects) -> List[Tuple[object, object]]:
    """The pieces minus each rectangle of rects in turn, as disjoint pieces."""
    for c, d in rects:
        next_pieces = []
        for a, b in pieces:
            a_out = a - c
            if not a_out.is_empty:
                next_pieces.append((a_out, b))
            a_in = a & c
            if a_in.is_empty:
                continue
            b_out = b - d
            if not b_out.is_empty:
                next_pieces.append((a_in, b_out))
        pieces = next_pieces
    return pieces


def _disjoint_pieces(pieces: List[Tuple[object, object]]) -> List[Tuple[object, object]]:
    """Sequentially subtract earlier rectangles from later ones."""
    out: List[Tuple[object, object]] = []
    for a, b in pieces:
        if not (a.is_empty or b.is_empty):
            out.extend(_subtract([(a, b)], out))
    return out


def rect_grid(rects: Sequence[Tuple[object, object]]):
    """Refine the A-sides and the B-sides of rects into cells.

    Returns ``(a_parts, b_parts, cover)``, where cover lists ``(i, j, k)``
    for each cell ``a_parts[i] x b_parts[j]`` inside the union of rects,
    with k the index of the first rectangle that contains the cell.
    """
    a_parts = refine_parts([a for a, _ in rects])
    b_parts = refine_parts([b for _, b in rects])
    cover = []
    for i, a in enumerate(a_parts):
        for j, b in enumerate(b_parts):
            for k, (ra, rb) in enumerate(rects):
                if (a - ra).is_empty and (b - rb).is_empty:
                    cover.append((i, j, k))
                    break
    return a_parts, b_parts, cover


def rect_disjointify(u: RectUnion) -> RectUnion:
    """Equal point set as a grid of disjoint rectangles, obtained by
    refining along every A-side and B-side boundary."""
    a_parts, b_parts, cover = rect_grid(u.rects)
    cells = [(a_parts[i], b_parts[j]) for i, j, _ in cover]
    return RectUnion(cells, u.left_universe, u.right_universe, _canonical=True)
