"""Declarative spec-file front end.

A spec file declares named measures, sets, rectangle unions and simple
functions, then runs exactly one command.  Output is deterministic text
(or JSON mirroring the same fields) with exact values; exit code 0 on
success, 1 when a Fubini-Tonelli hypothesis is violated, 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from sigma_product.errors import (
    NotIntegrable,
    ParseError,
    SigmaProductError,
    UniverseMismatch,
    UnresolvedName,
)
from sigma_product.extreal import INF, ExtNonNeg, render_rational
from sigma_product.finset import FinSet
from sigma_product.integration import (
    SimpleFunction,
    extended_integral,
    fubini_check,
    integrate,
    is_integrable,
    render_value,
)
from sigma_product.lineset import Progression, RealSet
from sigma_product.measures import (
    ConstantWeights,
    CountableAtomic,
    CountingLine,
    DiracAt,
    FiniteTabulated,
    GeometricWeights,
    LebesgueLine,
    Measure,
)
from sigma_product.product import ProductMeasure
from sigma_product.rectset import RectUnion

KEYWORDS = {
    "measure", "set", "rect", "fn", "cmd",
    "lebesgue", "counting", "dirac", "tabulated", "atomic",
    "prog", "ind", "inf", "constant", "geometric", "x",
    "eval", "component", "product", "classify", "integrate", "fubini",
}

TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>\d+)
      | (?P<sym>[=,:()\[\]{}|&\\+*/-])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize_line(text: str, line_no: int) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup == "ident":
            tokens.append(Token("ident", m.group(), line_no, pos + 1))
        elif m.lastgroup == "int":
            tokens.append(Token("int", m.group(), line_no, pos + 1))
        elif m.lastgroup == "sym":
            tokens.append(Token(m.group(), m.group(), line_no, pos + 1))
        pos = m.end()
    tokens.append(Token("end", "", line_no, len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Expression ASTs (sets are resolved lazily so braces can be labels or points)


class SetLit:
    def __init__(self, value: RealSet):
        self.value = value


class SetLabels:
    def __init__(self, labels: Tuple[str, ...]):
        self.labels = labels


class SetEmpty:
    pass


class SetRef:
    def __init__(self, name: str, line: int, column: int):
        self.name = name
        self.line = line
        self.column = column


class SetOp:
    def __init__(self, op: str, left, right):
        self.op = op
        self.left = left
        self.right = right


RectAst = List[Tuple[object, object]]  # pairs of set ASTs


class RectRef:
    def __init__(self, name: str, line: int, column: int):
        self.name = name
        self.line = line
        self.column = column


class FnTerm:
    def __init__(self, coeff: Fraction, arg, line: int, column: int):
        self.coeff = coeff
        self.arg = arg  # set AST, rect AST, or IndRef
        self.line = line
        self.column = column


class IndRef:
    def __init__(self, name: str, line: int, column: int):
        self.name = name
        self.line = line
        self.column = column


class Command:
    def __init__(self, name: str, args: list, line: int):
        self.name = name
        self.args = args
        self.line = line


class SpecDocument:
    """Named declarations plus the single command to run."""

    def __init__(self):
        self.kinds: Dict[str, str] = {}
        self.measures: Dict[str, Measure] = {}
        self.sets: Dict[str, object] = {}
        self.rects: Dict[str, RectAst] = {}
        self.fns: Dict[str, List[FnTerm]] = {}
        self.command: Optional[Command] = None


class LineParser:
    """Recursive-descent parser over one logical line."""

    def __init__(self, tokens: List[Token], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of line"
            self.fail(f"expected {kind!r}, found {shown!r}")
        return self.next()

    def expect_ident(self, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or (text is not None and tok.text != text):
            self.fail(f"expected {text or 'identifier'!r}")
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def expect_end(self):
        if not self.at_end():
            self.fail(f"unexpected trailing input {self.peek().text!r}")

    # -- numbers

    def parse_rational(self) -> Fraction:
        negative = False
        if self.peek().kind == "-":
            self.next()
            negative = True
        num_tok = self.expect("int")
        value = Fraction(int(num_tok.text))
        if self.peek().kind == "/":
            self.next()
            den_tok = self.expect("int")
            if int(den_tok.text) == 0:
                self.fail("zero denominator", den_tok)
            value = Fraction(int(num_tok.text), int(den_tok.text))
        return -value if negative else value

    def parse_weight(self) -> ExtNonNeg:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "inf":
            self.next()
            return INF
        value = self.parse_rational()
        if value < 0:
            self.fail("weight must be nonnegative", tok)
        return ExtNonNeg(value)

    # -- measures

    def parse_measure(self) -> Measure:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected a measure constructor")
        if tok.text == "lebesgue":
            self.next()
            return LebesgueLine()
        if tok.text == "counting":
            self.next()
            return CountingLine()
        if tok.text == "dirac":
            self.next()
            self.expect("(")
            p = self.parse_rational()
            self.expect(")")
            return DiracAt(p)
        if tok.text == "tabulated":
            self.next()
            return self.parse_tabulated()
        if tok.text == "atomic":
            self.next()
            return self.parse_atomic()
        self.fail(f"unknown measure constructor {tok.text!r}", tok)

    def parse_tabulated(self) -> Measure:
        self.expect("{")
        weights: Dict[str, ExtNonNeg] = {}
        while self.peek().kind != "}":
            name_tok = self.expect("ident")
            if name_tok.text in weights:
                self.fail(f"duplicate atom {name_tok.text!r}", name_tok)
            self.expect(":")
            weights[name_tok.text] = self.parse_weight()
            if self.peek().kind == ",":
                self.next()
            elif self.peek().kind != "}":
                self.fail("expected ',' or '}'")
        self.next()
        if not weights:
            self.fail("tabulated measure needs at least one atom")
        return FiniteTabulated.power_set(weights)

    def parse_atomic(self) -> Measure:
        self.expect("{")
        point_masses = []
        progression_weights = []
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "prog":
                self.next()
                self.expect("(")
                base = self.parse_rational()
                self.expect(",")
                step = self.parse_rational()
                self.expect(")")
                if step <= 0:
                    self.fail("progression step must be positive", tok)
                self.expect(":")
                rule_tok = self.expect("ident")
                if rule_tok.text == "constant":
                    self.expect("(")
                    w = self.parse_weight()
                    self.expect(")")
                    rule = ConstantWeights(w)
                elif rule_tok.text == "geometric":
                    self.expect("(")
                    first = self.parse_rational()
                    self.expect(",")
                    ratio = self.parse_rational()
                    self.expect(")")
                    try:
                        rule = GeometricWeights(first, ratio)
                    except ValueError as exc:
                        raise ParseError(str(exc), rule_tok.line, rule_tok.column)
                else:
                    self.fail("expected 'constant' or 'geometric'", rule_tok)
                progression_weights.append((Progression(base, step), rule))
            else:
                p = self.parse_rational()
                self.expect(":")
                point_masses.append((p, self.parse_weight()))
            if self.peek().kind == ",":
                self.next()
            elif self.peek().kind != "}":
                self.fail("expected ',' or '}'")
        close = self.next()
        try:
            return CountableAtomic(point_masses, progression_weights)
        except ValueError as exc:
            raise ParseError(str(exc), close.line, close.column)

    # -- sets

    def parse_set_expr(self):
        node = self.parse_set_term()
        while self.peek().kind in ("|", "\\"):
            op = self.next().kind
            node = SetOp("union" if op == "|" else "diff", node, self.parse_set_term())
        return node

    def parse_set_term(self):
        node = self.parse_set_factor()
        while self.peek().kind == "&":
            self.next()
            node = SetOp("intersect", node, self.parse_set_factor())
        return node

    def parse_set_factor(self):
        tok = self.peek()
        if tok.kind in ("[", "("):
            return self.parse_interval_or_group()
        if tok.kind == "{":
            return self.parse_braces()
        if tok.kind == "ident" and tok.text == "prog":
            self.next()
            self.expect("(")
            base = self.parse_rational()
            self.expect(",")
            step = self.parse_rational()
            self.expect(")")
            if step <= 0:
                self.fail("progression step must be positive", tok)
            return SetLit(RealSet.progression(base, step))
        if tok.kind == "ident":
            if tok.text in KEYWORDS:
                self.fail(f"unexpected keyword {tok.text!r}", tok)
            self.next()
            return SetRef(tok.text, tok.line, tok.column)
        self.fail("expected a set")

    def parse_interval_or_group(self):
        open_tok = self.next()
        # "(" can open either a grouped set expression or an open interval;
        # a bound followed by "," settles it.
        if open_tok.kind == "(":
            save = self.pos
            try:
                bound = self.parse_bound(low=True)
                if self.peek().kind == ",":
                    return self.finish_interval(open_tok, bound)
            except ParseError:
                pass
            self.pos = save
            node = self.parse_set_expr()
            self.expect(")")
            return node
        bound = self.parse_bound(low=True)
        return self.finish_interval(open_tok, bound)

    def parse_bound(self, low: bool) -> Optional[Fraction]:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "inf":
            self.next()
            return None
        if tok.kind == "-":
            save = self.pos
            self.next()
            if self.peek().kind == "ident" and self.peek().text == "inf":
                self.next()
                return None
            self.pos = save
        return self.parse_rational()

    def finish_interval(self, open_tok: Token, lo: Optional[Fraction]):
        self.expect(",")
        hi = self.parse_bound(low=False)
        close_tok = self.peek()
        if close_tok.kind not in ("]", ")"):
            self.fail("expected ']' or ')'")
        self.next()
        lo_open = open_tok.kind == "("
        hi_open = close_tok.kind == ")"
        if lo is None and not lo_open:
            self.fail("infinite endpoint must be open", open_tok)
        if hi is None and not hi_open:
            self.fail("infinite endpoint must be open", close_tok)
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and (lo_open or hi_open)):
                self.fail("empty interval", close_tok)
        return SetLit(RealSet.interval(lo, hi, lo_open, hi_open))

    def parse_braces(self):
        self.expect("{")
        if self.peek().kind == "}":
            self.next()
            return SetEmpty()
        labels: List[str] = []
        points: List[Fraction] = []
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.text not in KEYWORDS:
                if points:
                    self.fail("cannot mix labels and numbers in a set", tok)
                labels.append(self.next().text)
            else:
                if labels:
                    self.fail("cannot mix labels and numbers in a set", tok)
                points.append(self.parse_rational())
            if self.peek().kind == ",":
                self.next()
                continue
            self.expect("}")
            break
        if labels:
            return SetLabels(tuple(labels))
        return SetLit(RealSet.points(points))

    # -- rectangles

    def parse_rect_expr(self) -> List[object]:
        pieces = [self.parse_rect_term()]
        while self.peek().kind == "+":
            self.next()
            pieces.append(self.parse_rect_term())
        return pieces

    def parse_rect_term(self):
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text in KEYWORDS:
                self.fail(f"unexpected keyword {tok.text!r}", tok)
            self.next()
            return RectRef(tok.text, tok.line, tok.column)
        self.expect("(")
        left = self.parse_set_expr()
        x_tok = self.expect_ident("x")
        right = self.parse_set_expr()
        self.expect(")")
        return (left, right)

    # -- simple functions

    def parse_fn_expr(self) -> List[FnTerm]:
        terms = [self.parse_fn_term(Fraction(1))]
        while self.peek().kind in ("+", "-"):
            sign = Fraction(1) if self.next().kind == "+" else Fraction(-1)
            terms.append(self.parse_fn_term(sign))
        return terms

    def parse_fn_term(self, sign: Fraction) -> FnTerm:
        tok = self.peek()
        coeff = Fraction(1)
        if tok.kind in ("int", "-"):
            coeff = self.parse_rational()
            self.expect("*")
        ind_tok = self.expect_ident("ind")
        self.expect("(")
        arg = self.parse_ind_arg()
        self.expect(")")
        return FnTerm(sign * coeff, arg, ind_tok.line, ind_tok.column)

    def parse_ind_arg(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == ")":
                self.next()
                return IndRef(tok.text, tok.line, tok.column)
        if tok.kind == "(":
            # try a rectangle atom first: "(" set "x" set ")"
            save = self.pos
            try:
                self.next()
                left = self.parse_set_expr()
                if self.peek().kind == "ident" and self.peek().text == "x":
                    self.next()
                    right = self.parse_set_expr()
                    self.expect(")")
                    return [(left, right)]
            except ParseError:
                pass
            self.pos = save
        return self.parse_set_expr()


def parse_spec(text: str) -> SpecDocument:
    doc = SpecDocument()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = tokenize_line(raw, line_no)
        if tokens[0].kind == "end":
            continue
        parser = LineParser(tokens, line_no)
        head = parser.peek()
        if head.kind != "ident" or head.text not in (
            "measure", "set", "rect", "fn", "cmd",
        ):
            parser.fail("expected a declaration or 'cmd'")
        parser.next()
        if head.text == "cmd":
            if doc.command is not None:
                parser.fail("only one command per spec file")
            doc.command = parse_command(parser)
            parser.expect_end()
            continue
        name_tok = parser.expect("ident")
        if name_tok.text in KEYWORDS:
            parser.fail(f"{name_tok.text!r} is reserved", name_tok)
        if name_tok.text in doc.kinds:
            parser.fail(f"duplicate name {name_tok.text!r}", name_tok)
        parser.expect("=")
        if head.text == "measure":
            doc.measures[name_tok.text] = parser.parse_measure()
        elif head.text == "set":
            doc.sets[name_tok.text] = parser.parse_set_expr()
        elif head.text == "rect":
            doc.rects[name_tok.text] = parser.parse_rect_expr()
        else:
            doc.fns[name_tok.text] = parser.parse_fn_expr()
        doc.kinds[name_tok.text] = head.text
        parser.expect_end()
    if doc.command is None:
        raise ParseError("spec file has no 'cmd' line", 1, 1)
    return doc


def parse_command(parser: LineParser) -> Command:
    tok = parser.expect("ident")
    name = tok.text
    if name in ("eval", "component", "classify"):
        m = parse_measure_ref(parser)
        s = parser.parse_set_expr()
        return Command(name, [m, s], tok.line)
    if name == "product":
        m1 = parse_measure_ref(parser)
        m2 = parse_measure_ref(parser)
        r = parser.parse_rect_expr()
        return Command(name, [m1, m2, r], tok.line)
    if name == "integrate":
        m = parse_measure_ref(parser)
        f = parse_fn_ref(parser)
        return Command(name, [m, f], tok.line)
    if name == "fubini":
        m1 = parse_measure_ref(parser)
        m2 = parse_measure_ref(parser)
        f = parse_fn_ref(parser)
        return Command(name, [m1, m2, f], tok.line)
    parser.fail(f"unknown command {name!r}", tok)


def parse_measure_ref(parser: LineParser):
    tok = parser.peek()
    if tok.kind == "ident" and tok.text in (
        "lebesgue", "counting", "dirac", "tabulated", "atomic",
    ):
        return parser.parse_measure()
    name_tok = parser.expect("ident")
    if name_tok.text in KEYWORDS:
        parser.fail(f"unexpected keyword {name_tok.text!r}", name_tok)
    return SetRef(name_tok.text, name_tok.line, name_tok.column)


def parse_fn_ref(parser: LineParser):
    tok = parser.peek()
    if tok.kind == "ident" and tok.text != "ind":
        if tok.text in KEYWORDS:
            parser.fail(f"unexpected keyword {tok.text!r}", tok)
        parser.next()
        return IndRef(tok.text, tok.line, tok.column)
    return parser.parse_fn_expr()


# ---------------------------------------------------------------------------
# Resolution


class Resolver:
    def __init__(self, doc: SpecDocument):
        self.doc = doc

    def measure(self, node) -> Measure:
        if isinstance(node, Measure):
            return node
        name = node.name
        if name not in self.doc.kinds:
            raise UnresolvedName(f"undeclared name {name!r}")
        if self.doc.kinds[name] != "measure":
            raise UnresolvedName(f"{name!r} is a {self.doc.kinds[name]}, not a measure")
        return self.doc.measures[name]

    def poly_set(self, node):
        """Resolve to ('real', RealSet) | ('labels', labels) | ('empty',)."""
        if isinstance(node, SetLit):
            return ("real", node.value)
        if isinstance(node, SetLabels):
            return ("labels", frozenset(node.labels))
        if isinstance(node, SetEmpty):
            return ("empty",)
        if isinstance(node, SetRef):
            name = node.name
            if name not in self.doc.kinds:
                raise UnresolvedName(f"undeclared name {name!r}")
            if self.doc.kinds[name] != "set":
                raise UnresolvedName(f"{name!r} is a {self.doc.kinds[name]}, not a set")
            return self.poly_set(self.doc.sets[name])
        if isinstance(node, SetOp):
            return self._combine(node.op, self.poly_set(node.left), self.poly_set(node.right))
        raise AssertionError(f"bad set node {node!r}")

    def _combine(self, op: str, a, b):
        if a[0] == "empty" and b[0] == "empty":
            return ("empty",)
        if a[0] == "empty":
            if op == "union":
                return b
            return ("empty",)
        if b[0] == "empty":
            if op == "intersect":
                return ("empty",)
            return a
        if a[0] != b[0]:
            raise UniverseMismatch("cannot mix label sets and real-line sets")
        if a[0] == "real":
            ops = {
                "union": lambda x, y: x | y,
                "intersect": lambda x, y: x & y,
                "diff": lambda x, y: x - y,
            }
            return ("real", ops[op](a[1], b[1]))
        ops = {
            "union": lambda x, y: x | y,
            "intersect": lambda x, y: x & y,
            "diff": lambda x, y: x - y,
        }
        return ("labels", ops[op](a[1], b[1]))

    def concrete_set(self, node, measure: Measure):
        poly = self.poly_set(node)
        return self._concretize(poly, measure)

    def _concretize(self, poly, measure: Measure):
        universe = measure.universe
        if poly[0] == "empty":
            if universe == ("line",):
                return RealSet.empty()
            if universe[0] == "fin":
                return FinSet.empty(universe[1])
            raise UniverseMismatch("empty set cannot target a product measure")
        if poly[0] == "real":
            if universe != ("line",):
                raise UniverseMismatch(
                    "real-line set used with a finite-ground measure"
                )
            return poly[1]
        if universe[0] != "fin":
            raise UniverseMismatch("label set used with a real-line measure")
        ground = universe[1]
        for label in poly[1]:
            if label not in ground:
                raise UniverseMismatch(f"label {label!r} not in the measure's ground")
        return FinSet.of(ground, poly[1])

    def rect_union(self, pieces, left: Measure, right: Measure) -> RectUnion:
        rects = []
        for piece in pieces:
            if isinstance(piece, RectRef):
                name = piece.name
                if name not in self.doc.kinds:
                    raise UnresolvedName(f"undeclared name {name!r}")
                if self.doc.kinds[name] != "rect":
                    raise UnresolvedName(
                        f"{name!r} is a {self.doc.kinds[name]}, not a rect"
                    )
                rects.extend(
                    self.rect_union(self.doc.rects[name], left, right).rects
                )
                continue
            a_node, b_node = piece
            a = self.concrete_set(a_node, left)
            b = self.concrete_set(b_node, right)
            if not (a.is_empty or b.is_empty):
                rects.append((a, b))
        if not rects:
            return RectUnion.empty()
        return RectUnion(rects)

    def line_fn(self, terms, measure: Measure) -> SimpleFunction:
        resolved = []
        for term in self._expand_fn(terms):
            if isinstance(term.arg, list):
                raise UniverseMismatch(
                    "rectangle indicator used with a single measure"
                )
            s = self.concrete_set(term.arg, measure)
            resolved.append((term.coeff, s))
        return SimpleFunction(resolved, measure.universe)

    def product_fn(self, terms, left: Measure, right: Measure) -> SimpleFunction:
        resolved = []
        for term in self._expand_fn(terms):
            if isinstance(term.arg, list):
                ru = self.rect_union(term.arg, left, right)
            else:
                name = getattr(term.arg, "name", None)
                raise UniverseMismatch(
                    "fubini needs rectangle indicators"
                    + (f" ({name!r} is not a rect)" if name else "")
                )
            if not ru.is_empty:
                resolved.append((term.coeff, ru))
        return SimpleFunction(
            resolved, ("prod", left.universe, right.universe)
        )

    def _expand_fn(self, terms) -> List[FnTerm]:
        if isinstance(terms, IndRef):
            name = terms.name
            if name not in self.doc.kinds:
                raise UnresolvedName(f"undeclared name {name!r}")
            if self.doc.kinds[name] != "fn":
                raise UnresolvedName(f"{name!r} is a {self.doc.kinds[name]}, not a fn")
            return self._expand_fn(self.doc.fns[name])
        out = []
        for term in terms:
            if isinstance(term.arg, IndRef):
                name = term.arg.name
                if name not in self.doc.kinds:
                    raise UnresolvedName(f"undeclared name {name!r}")
                kind = self.doc.kinds[name]
                if kind == "set":
                    out.append(
                        FnTerm(term.coeff, self.doc.sets[name], term.line, term.column)
                    )
                elif kind == "rect":
                    out.append(
                        FnTerm(term.coeff, self.doc.rects[name], term.line, term.column)
                    )
                else:
                    raise UnresolvedName(f"{name!r} is a {kind}, not a set or rect")
            else:
                out.append(term)
        return out


# ---------------------------------------------------------------------------
# Command execution


def run_document(doc: SpecDocument) -> Tuple[List[Tuple[str, str]], int]:
    """Execute the document's command; returns output fields and exit code."""
    resolver = Resolver(doc)
    cmd = doc.command
    if cmd.name in ("eval", "component", "classify"):
        measure = resolver.measure(cmd.args[0])
        if cmd.name == "component":
            measure = measure.sigma_finite_component()
        s = resolver.concrete_set(cmd.args[1], measure)
        if cmd.name == "classify":
            return [("class", measure.finiteness(s).render())], 0
        value = measure.measure(s)
        cls = measure.finiteness(s)
        return [("value", str(value)), ("class", cls.render())], 0
    if cmd.name == "product":
        left = resolver.measure(cmd.args[0])
        right = resolver.measure(cmd.args[1])
        pm = ProductMeasure(left, right)
        u = resolver.rect_union(cmd.args[2], left, right)
        value, cls = pm.evaluate(u)
        return [("value", str(value)), ("class", cls.render())], 0
    if cmd.name == "integrate":
        measure = resolver.measure(cmd.args[0])
        f = resolver.line_fn(cmd.args[1], measure)
        if is_integrable(f, measure):
            return [("value", render_rational(integrate(f, measure)))], 0
        if not f.nonnegative:
            raise NotIntegrable(
                "signed integrand with an infinite-measure level set"
            )
        # nonnegative integrands fall back to the extended integral
        value = extended_integral(f, measure)
        return [("value", str(value))], 0
    if cmd.name == "fubini":
        left = resolver.measure(cmd.args[0])
        right = resolver.measure(cmd.args[1])
        f = resolver.product_fn(cmd.args[2], left, right)
        report = fubini_check(f, left, right)
        fields = [
            ("product", render_value(report.product_value)),
            ("iterated_sv", render_value(report.iterated_sv)),
            ("iterated_ts", render_value(report.iterated_ts)),
            ("verdict", report.verdict),
        ]
        if report.reason:
            fields.append(("reason", report.reason))
        return fields, (0 if report.all_equal else 1)
    raise AssertionError(f"unknown command {cmd.name!r}")


def format_fields(fields: List[Tuple[str, str]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(dict(fields)) + "\n"
    return "".join(f"{key} = {value}\n" for key, value in fields)


def format_error(kind: str, message: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"error": {"kind": kind, "message": message}}) + "\n"
    return f"error: {kind}: {message}\n"


def run_file(path: str, fmt: str = "text", out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        out.write(format_error("io", str(exc), fmt))
        return 2
    try:
        doc = parse_spec(text)
        fields, code = run_document(doc)
    except SigmaProductError as exc:
        out.write(format_error(getattr(exc, "kind", "error"), str(exc), fmt))
        return 2
    except Exception as exc:
        # A defect in the library: report it with a stable kind, never
        # as a traceback.
        out.write(format_error("internal", str(exc) or type(exc).__name__, fmt))
        return 2
    out.write(format_fields(fields, fmt))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sigma-product",
        description="Exact measure products, integrals and Fubini checks "
        "driven by declarative spec files.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run_parser = sub.add_parser("run", help="run one spec file")
    run_parser.add_argument("file", help="path to the spec file")
    run_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    args = parser.parse_args(argv)
    return run_file(args.file, args.format)


if __name__ == "__main__":
    sys.exit(main())
