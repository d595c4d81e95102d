"""Symbolic sets on the real line in an exactly decidable normal form.

A representable set is a finite union of disjoint nondegenerate intervals
with rational (or unbounded) endpoints, minus a countable correction
inside the intervals, plus a countable correction outside them.  The
countable corrections are finite point lists together with upward
arithmetic progressions {base + k*step : k = 0, 1, ...}.

The class is closed under finite boolean operations, and canonical form
is a true normal form: two sets with the same membership have identical
structure.  Canonicalization rewrites progressions to the set's minimal
eventual period, absorbs points that extend progression tails, folds
countable corrections at interval endpoints into the open/closed flags,
and represents single-point gaps as punctures of one merged interval.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from sigma_product.errors import SizeLimit
from sigma_product.extreal import render_rational
from sigma_product.frozen import Frozen
from sigma_product.sigma import size_limit

LINE_UNIVERSE = ("line",)


def _fmod(x: Fraction, period: Fraction) -> Fraction:
    """x reduced mod period into [0, period)."""
    return x - (x // period) * period


# ---------------------------------------------------------------------------
# Intervals


class Interval(Frozen):
    """A nonempty real interval; ``None`` endpoints are unbounded (and open)."""

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(
        self, lo: Optional[Fraction], hi: Optional[Fraction], lo_open: bool, hi_open: bool
    ):
        if lo is None and not lo_open:
            raise ValueError("unbounded left endpoint must be open")
        if hi is None and not hi_open:
            raise ValueError("unbounded right endpoint must be open")
        if lo is not None and hi is not None:
            if lo > hi:
                raise ValueError("empty interval")
            if lo == hi and (lo_open or hi_open):
                raise ValueError("empty interval")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_open", lo_open)
        object.__setattr__(self, "hi_open", hi_open)

    @property
    def degenerate(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        if self.lo is not None and (x < self.lo or (x == self.lo and self.lo_open)):
            return False
        if self.hi is not None and (x > self.hi or (x == self.hi and self.hi_open)):
            return False
        return True

    def length(self) -> Optional[Fraction]:
        """None encodes infinite length."""
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo

    def render(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        lo = "-inf" if self.lo is None else render_rational(self.lo)
        hi = "inf" if self.hi is None else render_rational(self.hi)
        return f"{left}{lo}, {hi}{right}"


def _lo_key(iv: Interval):
    if iv.lo is None:
        return (0, Fraction(0), 0)
    return (1, iv.lo, 1 if iv.lo_open else 0)


def _hi_greater(a: Interval, b: Interval) -> bool:
    """True if a's right end reaches strictly beyond b's."""
    if a.hi is None:
        return b.hi is not None
    if b.hi is None:
        return False
    if a.hi != b.hi:
        return a.hi > b.hi
    return b.hi_open and not a.hi_open


def _overlap_or_touch(a: Interval, b: Interval) -> bool:
    """Assumes a starts no later than b; true if their union is an interval."""
    if a.hi is None:
        return True
    if b.lo is None:
        return True
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return not (a.hi_open and b.lo_open)
    return False


def normalize_intervals(
    intervals: Iterable[Interval],
) -> Tuple[Tuple[Interval, ...], List[Fraction]]:
    """Merge overlaps/touches; degenerate inputs come back as points."""
    points: List[Fraction] = []
    proper: List[Interval] = []
    for iv in intervals:
        if iv.degenerate:
            points.append(iv.lo)
        else:
            proper.append(iv)
    proper.sort(key=_lo_key)
    merged: List[Interval] = []
    for iv in proper:
        if merged and _overlap_or_touch(merged[-1], iv):
            last = merged[-1]
            if _hi_greater(iv, last):
                merged[-1] = Interval(last.lo, iv.hi, last.lo_open, iv.hi_open)
        else:
            merged.append(iv)
    # A degenerate point touching/inside the union is folded in later by the
    # RealSet canonicalizer; here we only report it.
    return tuple(merged), points


def iu_contains(intervals: Sequence[Interval], x: Fraction) -> bool:
    return any(iv.contains(x) for iv in intervals)


def iu_intersect_pair(a: Interval, b: Interval) -> Optional[Interval]:
    if a.lo is None:
        lo, lo_open = b.lo, b.lo_open
    elif b.lo is None or b.lo < a.lo:
        lo, lo_open = a.lo, a.lo_open
    elif b.lo > a.lo:
        lo, lo_open = b.lo, b.lo_open
    else:
        lo, lo_open = a.lo, a.lo_open or b.lo_open
    if a.hi is None:
        hi, hi_open = b.hi, b.hi_open
    elif b.hi is None or b.hi > a.hi:
        hi, hi_open = a.hi, a.hi_open
    elif b.hi < a.hi:
        hi, hi_open = b.hi, b.hi_open
    else:
        hi, hi_open = a.hi, a.hi_open or b.hi_open
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
    return Interval(lo, hi, lo_open, hi_open)


def iu_intersect(
    a: Sequence[Interval], b: Sequence[Interval]
) -> Tuple[Tuple[Interval, ...], List[Fraction]]:
    pieces = []
    for x in a:
        for y in b:
            z = iu_intersect_pair(x, y)
            if z is not None:
                pieces.append(z)
    return normalize_intervals(pieces)


def iu_complement(intervals: Sequence[Interval]) -> Tuple[Interval, ...]:
    """Complement within the whole line; input must be normalized."""
    out: List[Interval] = []
    prev_hi: Optional[Fraction] = None
    prev_hi_open = True
    first = True
    for iv in intervals:
        if first and iv.lo is None:
            prev_hi, prev_hi_open, first = iv.hi, iv.hi_open, False
            continue
        lo_bound = prev_hi
        lo_open_flag = not prev_hi_open
        if first:
            lo_bound, lo_open_flag = None, True
            first = False
        if iv.lo is not None:
            hi_bound, hi_open_flag = iv.lo, not iv.lo_open
            if lo_bound is None or lo_bound < hi_bound or (
                lo_bound == hi_bound and not (lo_open_flag or hi_open_flag)
            ):
                out.append(Interval(lo_bound, hi_bound, lo_open_flag, hi_open_flag))
        prev_hi, prev_hi_open = iv.hi, iv.hi_open
    if first:
        return (Interval(None, None, True, True),)
    if prev_hi is not None:
        out.append(Interval(prev_hi, None, not prev_hi_open, True))
    return tuple(out)


# ---------------------------------------------------------------------------
# Progressions and countable parts


class Progression(Frozen):
    """The point set {base + k*step : k = 0, 1, 2, ...}, step > 0."""

    __slots__ = ("base", "step")

    def __init__(self, base: Fraction, step: Fraction):
        if step <= 0:
            raise ValueError("progression step must be positive")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "step", step)

    def member(self, x: Fraction) -> bool:
        k = (x - self.base) / self.step
        return k >= 0 and k.denominator == 1

    def term(self, k: int) -> Fraction:
        return self.base + k * self.step

    def render(self) -> str:
        return f"prog({render_rational(self.base)}, {render_rational(self.step)})"


def intersect_progressions(p1: Progression, p2: Progression) -> Optional[Progression]:
    """Exact intersection: empty or again a progression (solved over
    nonnegative integer indices)."""
    denom = math.lcm(
        p1.base.denominator,
        p1.step.denominator,
        p2.base.denominator,
        p2.step.denominator,
    )
    b1, s1 = int(p1.base * denom), int(p1.step * denom)
    b2, s2 = int(p2.base * denom), int(p2.step * denom)
    g = math.gcd(s1, s2)
    if (b2 - b1) % g:
        return None
    s2g = s2 // g
    k0 = ((b2 - b1) // g * pow(s1 // g, -1, s2g)) % s2g if s2g > 1 else 0
    kmin = max(0, math.ceil(Fraction(b2 - b1, s1)))
    k = kmin + (k0 - kmin) % s2g
    return Progression(p1.term(k), p1.step * s2g)


def _divisors_desc(n: int) -> List[int]:
    return [d for d in range(n, 0, -1) if n % d == 0]


class CountablePart(Frozen):
    """A finite set of points plus finitely many progressions, canonical.

    In canonical form all progressions share the set's minimal eventual
    period, occupy distinct residue classes, and start as early as the
    set allows; remaining elements are listed as points.
    """

    __slots__ = ("points", "progressions")

    def __init__(self, points: Tuple[Fraction, ...], progressions: Tuple[Progression, ...]):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "progressions", progressions)

    def __repr__(self):
        bits = [render_rational(p) for p in self.points]
        bits += [g.render() for g in self.progressions]
        return "CountablePart(" + ", ".join(bits) + ")"

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.progressions

    @property
    def is_infinite(self) -> bool:
        return bool(self.progressions)

    def member(self, x: Fraction) -> bool:
        if x in self.points:
            return True
        return any(g.member(x) for g in self.progressions)

    def union(self, other: CountablePart) -> CountablePart:
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        return canonical_countable(
            self.points + other.points, self.progressions + other.progressions
        )

    def intersect(self, other: CountablePart) -> CountablePart:
        if self.is_empty or other.is_empty:
            return EMPTY_COUNTABLE
        pts = [p for p in self.points if other.member(p)]
        pts += [p for p in other.points if self.member(p)]
        progs = []
        for g1 in self.progressions:
            for g2 in other.progressions:
                r = intersect_progressions(g1, g2)
                if r is not None:
                    progs.append(r)
        return canonical_countable(pts, progs)

    def diff(self, other: CountablePart) -> CountablePart:
        if self.is_empty or other.is_empty:
            return self
        pts = [p for p in self.points if not other.member(p)]
        progs: List[Progression] = []
        bound = size_limit() if self.progressions else 0
        for g in self.progressions:
            p_extra, g_left = _progression_minus(g, other, bound - len(pts) - len(progs))
            pts += p_extra
            progs += g_left
        return canonical_countable(pts, progs)

    def meet_intervals(self, intervals: Sequence[Interval]) -> CountablePart:
        if not intervals:
            return EMPTY_COUNTABLE
        if self.is_empty:
            return self
        pts = [p for p in self.points if iu_contains(intervals, p)]
        progs: List[Progression] = []
        bound = size_limit() if self.progressions else 0
        for g in self.progressions:
            for iv in intervals:
                extra, tail = _progression_meet_interval(g, iv, bound - len(pts) - len(progs))
                pts += extra
                if tail is not None:
                    progs.append(tail)
        return canonical_countable(pts, progs)


EMPTY_COUNTABLE = CountablePart((), ())


def _check_expansion(count: int, room: int) -> None:
    """Raise SizeLimit, before they are listed, when ``count`` more points
    or progressions do not fit in the ``room`` left under the size limit."""
    if count > room:
        bound = size_limit()
        raise SizeLimit(
            f"countable set would expand into {bound - room + count} points "
            f"and progressions (limit {bound})"
        )


def _progression_meet_interval(
    g: Progression, iv: Interval, room: int
) -> Tuple[List[Fraction], Optional[Progression]]:
    """Split g's points inside iv into finite points plus an optional tail;
    more than ``room`` points raise SizeLimit."""
    if iv.lo is None:
        kmin = 0
    else:
        kmin = math.ceil((iv.lo - g.base) / g.step)
        if iv.lo_open and g.term(max(kmin, 0)) == iv.lo:
            kmin += 1
        kmin = max(kmin, 0)
    if iv.hi is None:
        return [], Progression(g.term(kmin), g.step)
    kmax = math.floor((iv.hi - g.base) / g.step)
    if kmax >= 0 and iv.hi_open and g.term(kmax) == iv.hi:
        kmax -= 1
    _check_expansion(kmax + 1 - kmin, room)
    return [g.term(k) for k in range(kmin, kmax + 1)], None


def _progression_minus(
    g: Progression, removal: CountablePart, room: int
) -> Tuple[List[Fraction], List[Progression]]:
    """g minus a countable part, as leftover points plus sub-progressions;
    more than ``room`` of them raise SizeLimit."""
    # Removed index classes: k ≡ k0 (mod t) for k >= k0.
    index_classes: List[Tuple[int, int]] = []
    for r in removal.progressions:
        inter = intersect_progressions(g, r)
        if inter is None:
            continue
        k0 = int((inter.base - g.base) / g.step)
        t = int(inter.step / g.step)
        index_classes.append((k0, t))
    removed_points = set()
    for p in removal.points:
        k = (p - g.base) / g.step
        if k >= 0 and k.denominator == 1:
            removed_points.add(int(k))

    if not index_classes:
        if not removed_points:
            return [], [g]
        cutoff = max(removed_points) + 1
        _check_expansion(cutoff + 1 - len(removed_points), room)
        pts = [g.term(k) for k in range(cutoff) if k not in removed_points]
        return pts, [Progression(g.term(cutoff), g.step)]

    period = math.lcm(*[t for _, t in index_classes])
    cutoff = max(
        [k0 for k0, _ in index_classes] + [p + 1 for p in removed_points] + [0]
    )
    _check_expansion(cutoff + period, room)

    def removed(k: int) -> bool:
        if k in removed_points:
            return True
        return any(k >= k0 and (k - k0) % t == 0 for k0, t in index_classes)

    pts = [g.term(k) for k in range(cutoff) if not removed(k)]
    tails = [
        Progression(g.term(k), g.step * period)
        for k in range(cutoff, cutoff + period)
        if not removed(k)
    ]
    return pts, tails


def canonical_countable(
    points: Iterable[Fraction], progressions: Iterable[Progression]
) -> CountablePart:
    """Normal form of a countable set given by points and progressions."""
    pset = set(points)
    progs = list(progressions)
    if not progs:
        return CountablePart(tuple(sorted(pset)), ())
    if not pset and len(progs) == 1:
        return CountablePart((), (progs[0],))

    # Over a common denominator the steps are integers, and the joint
    # period is their lcm.
    denom = math.lcm(*(g.step.denominator for g in progs))
    steps = [g.step.numerator * (denom // g.step.denominator) for g in progs]
    joint = math.lcm(*steps)
    period = Fraction(joint, denom)
    classes = [joint // step for step in steps]
    bound = size_limit()
    if sum(classes) > bound:
        raise SizeLimit(
            f"progressions would expand into {sum(classes)} residue classes "
            f"(limit {bound})"
        )

    # Minimal base of each residue class (mod the joint period) with a tail.
    bases: dict[Fraction, Fraction] = {}
    for g, count in zip(progs, classes):
        for j in range(count):
            x = g.term(j)
            r = _fmod(x, period)
            if r not in bases or x < bases[r]:
                bases[r] = x
    # Points extending a tail downward get absorbed.
    for r in list(bases):
        while bases[r] - period in pset:
            bases[r] -= period
    # Points duplicated inside a tail disappear.
    leftovers = set()
    for p in pset:
        r = _fmod(p, period)
        if r in bases and p >= bases[r]:
            continue
        leftovers.add(p)

    # Coarsest merge: largest m such that the residues split into full
    # cosets at spacing period/m; that spacing is the minimal eventual
    # period of the set.
    residues = sorted(bases)
    merged_progs: List[Progression] = []
    for m in _divisors_desc(len(residues)):
        spacing = period / m
        groups: dict[Fraction, List[Fraction]] = {}
        for r in residues:
            groups.setdefault(_fmod(r, spacing), []).append(r)
        if all(len(g) == m for g in groups.values()):
            for group in groups.values():
                start, step = _merge_coset(sorted(group), bases, period, spacing, m)
                merged_progs.append(Progression(start, step))
                # Tail elements below the merged progression become points.
                for r in group:
                    offset = _fmod(r - _fmod(start, period), period)
                    first = start + offset / spacing * spacing
                    k = int((first - bases[r]) / period)
                    for t in range(k):
                        leftovers.add(bases[r] + t * period)
            break

    merged_progs.sort(key=lambda g: (g.base, g.step))
    return CountablePart(tuple(sorted(leftovers)), tuple(merged_progs))


def _merge_coset(
    group: List[Fraction],
    bases: dict[Fraction, Fraction],
    period: Fraction,
    spacing: Fraction,
    m: int,
) -> Tuple[Fraction, Fraction]:
    """Earliest start for one progression of the given spacing covering the
    tails of all residue classes in the group."""
    best: Optional[Fraction] = None
    for r in group:
        cand: Optional[Fraction] = None
        for k in range(m):
            target = _fmod(r + k * spacing, period)
            v = bases[target] - k * spacing
            x = v + _fmod(r - v, period)
            if cand is None or x > cand:
                cand = x
        if best is None or cand < best:
            best = cand
    return best, spacing


# ---------------------------------------------------------------------------
# Real-line sets


class Cardinality(Frozen):
    __slots__ = ("kind", "count")

    def __init__(self, kind: str, count: Optional[int] = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "count", count)

    @staticmethod
    def finite(n: int) -> "Cardinality":
        return Cardinality("finite", n)

    def render(self) -> str:
        if self.kind == "finite":
            return f"finite({self.count})"
        return self.kind


EMPTY_CARD = Cardinality("empty")
COUNTABLE_CARD = Cardinality("countably-infinite")
UNCOUNTABLE_CARD = Cardinality("uncountable")


class RealSet(Frozen):
    """A representable subset of the real line, always in canonical form."""

    __slots__ = ("intervals", "excluded", "included")
    universe = LINE_UNIVERSE

    def __init__(
        self,
        intervals: Tuple[Interval, ...],
        excluded: CountablePart,
        included: CountablePart,
        _canonical: bool = False,
    ):
        if not _canonical:
            built = _canonicalize(intervals, excluded, included)
            intervals, excluded, included = (
                built.intervals,
                built.excluded,
                built.included,
            )
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "excluded", excluded)
        object.__setattr__(self, "included", included)

    # -- constructors

    @staticmethod
    def empty() -> "RealSet":
        return RealSet((), EMPTY_COUNTABLE, EMPTY_COUNTABLE, _canonical=True)

    @staticmethod
    def line() -> "RealSet":
        return RealSet.interval(None, None, True, True)

    @staticmethod
    def interval(
        lo: Optional[Fraction],
        hi: Optional[Fraction],
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> "RealSet":
        iv = Interval(
            None if lo is None else Fraction(lo),
            None if hi is None else Fraction(hi),
            lo_open,
            hi_open,
        )
        return RealSet((iv,), EMPTY_COUNTABLE, EMPTY_COUNTABLE)

    @staticmethod
    def points(values: Iterable[Fraction]) -> "RealSet":
        cp = canonical_countable([Fraction(v) for v in values], [])
        return RealSet((), EMPTY_COUNTABLE, cp, _canonical=True)

    @staticmethod
    def progression(base: Fraction, step: Fraction) -> "RealSet":
        cp = canonical_countable([], [Progression(Fraction(base), Fraction(step))])
        return RealSet((), EMPTY_COUNTABLE, cp, _canonical=True)

    # -- basic queries

    @property
    def is_empty(self) -> bool:
        return not self.intervals and self.included.is_empty

    def member(self, x: Fraction) -> bool:
        x = Fraction(x)
        if iu_contains(self.intervals, x):
            return not self.excluded.member(x)
        return self.included.member(x)

    def cardinality(self) -> Cardinality:
        if self.intervals:
            return UNCOUNTABLE_CARD
        if self.included.is_infinite:
            return COUNTABLE_CARD
        if self.included.points:
            return Cardinality.finite(len(self.included.points))
        return EMPTY_CARD

    def interval_length(self):
        """Total length of the interval part: a Fraction, or None for infinite."""
        total = Fraction(0)
        for iv in self.intervals:
            piece = iv.length()
            if piece is None:
                return None
            total += piece
        return total

    def meet_countable(self, cp: CountablePart) -> CountablePart:
        """cp intersected with this set, as a countable part."""
        inside = cp.meet_intervals(self.intervals).diff(self.excluded)
        outside = cp.intersect(self.included)
        return inside.union(outside)

    # -- boolean algebra

    def complement(self) -> "RealSet":
        """The complement, built without canonicalization.

        A canonical set has nondegenerate intervals that neither touch nor
        leave a one-point gap between them, excluded points strictly inside
        them and included points outside their closures.  Its complement's
        intervals are the gaps between them: each gap is nondegenerate (a
        one-point gap would have been merged into a puncture) and
        consecutive gaps are separated by a nondegenerate interval, so they
        neither touch nor leave a one-point gap.  The old included points
        lie outside the old closures, which is inside the gaps, and the old
        excluded points lie inside the old intervals, which is outside the
        gaps' closures.  Swapping the countable parts thus meets every
        condition of the normal form, which is unique.
        """
        return RealSet(
            iu_complement(self.intervals), self.included, self.excluded, _canonical=True
        )

    def __and__(self, other: "RealSet") -> "RealSet":
        if not isinstance(other, RealSet):
            return NotImplemented
        core, degen = iu_intersect(self.intervals, other.intervals)
        excluded = self.excluded.union(other.excluded).meet_intervals(core)
        included = other.meet_countable(self.included).union(
            self.meet_countable(other.included)
        )
        included = canonical_countable(
            tuple(included.points) + tuple(p for p in degen if self.member(p) and other.member(p)),
            included.progressions,
        )
        return RealSet(core, excluded, included)

    def __or__(self, other: "RealSet") -> "RealSet":
        if not isinstance(other, RealSet):
            return NotImplemented
        return (self.complement() & other.complement()).complement()

    def __sub__(self, other: "RealSet") -> "RealSet":
        if not isinstance(other, RealSet):
            return NotImplemented
        return self & other.complement()

    def __le__(self, other: "RealSet") -> bool:
        return (self - other).is_empty

    # -- rendering

    def render(self) -> str:
        if self.is_empty:
            return "{}"
        chunks: List[str] = [iv.render() for iv in self.intervals]
        text = " | ".join(chunks)
        for piece in _countable_pieces(self.excluded):
            text = f"{text} \\ {piece}" if text else piece
        for piece in _countable_pieces(self.included):
            text = f"{text} | {piece}" if text else piece
        return text

    def __repr__(self):
        return f"RealSet({self.render()})"


def _countable_pieces(cp: CountablePart) -> List[str]:
    pieces = []
    if cp.points:
        pieces.append("{" + ", ".join(render_rational(p) for p in cp.points) + "}")
    pieces += [g.render() for g in cp.progressions]
    return pieces


def _canonicalize(
    intervals: Iterable[Interval], excluded: CountablePart, included: CountablePart
) -> RealSet:
    iu, degen = normalize_intervals(intervals)
    included = canonical_countable(
        tuple(included.points) + tuple(degen), included.progressions
    )
    excluded = excluded.diff(included).meet_intervals(iu)
    included = included.meet_intervals(iu_complement(iu))

    # One pass folds countable corrections at endpoints into the interval
    # flags: a closed endpoint in excluded opens, an open endpoint in
    # included closes.  A closed endpoint is never in included, nor an open
    # one in excluded, so each endpoint needs one look.  Two intervals of a
    # normalized union that share an endpoint are both open there; they
    # merge, through the point if it is included (the left one's flag has
    # just closed) and punctured there if not.
    merged: List[Interval] = []
    unexcluded: List[Fraction] = []
    unincluded: List[Fraction] = []
    punctures: List[Fraction] = []
    for iv in iu:
        lo, lo_open, hi_open = iv.lo, iv.lo_open, iv.hi_open
        if merged and merged[-1].hi == lo:
            prev = merged.pop()
            if prev.hi_open:
                punctures.append(lo)
            lo, lo_open = prev.lo, prev.lo_open
        elif lo is not None and (included if lo_open else excluded).member(lo):
            (unincluded if lo_open else unexcluded).append(lo)
            lo_open = not lo_open
        if iv.hi is not None and (included if hi_open else excluded).member(iv.hi):
            (unincluded if hi_open else unexcluded).append(iv.hi)
            hi_open = not hi_open
        if lo is not iv.lo or lo_open != iv.lo_open or hi_open != iv.hi_open:
            iv = Interval(lo, iv.hi, lo_open, hi_open)
        merged.append(iv)
    # Each list is ascending and holds every point once.
    if unexcluded:
        excluded = excluded.diff(CountablePart(tuple(unexcluded), ()))
    if punctures:
        excluded = excluded.union(CountablePart(tuple(punctures), ()))
    if unincluded:
        included = included.diff(CountablePart(tuple(unincluded), ()))
    return RealSet(tuple(merged), excluded, included, _canonical=True)
