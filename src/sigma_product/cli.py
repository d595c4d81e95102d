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
from operator import and_, or_, sub
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
    empty_set_for,
    extended_integral,
    fubini_check,
    integrate,
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
        if m.lastgroup in ("ident", "int"):
            tokens.append(Token(m.lastgroup, m.group(), line_no, pos + 1))
        elif m.lastgroup == "sym":
            tokens.append(Token(m.group(), m.group(), line_no, pos + 1))
        pos = m.end()
    tokens.append(Token("end", "", line_no, len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Expression ASTs
#
# A set literal is parsed straight into the tagged value that
# Resolver.poly_set returns: ("real", RealSet), ("labels", frozenset) or
# EMPTY, since braces stay polymorphic until a measure fixes the universe.
# A SetOp combines two set nodes; a rectangle union is a list of (set, set)
# pairs and Refs; a simple function is a list of FnTerms or a Ref.  Every
# name is one Ref node, looked up when the command runs.  ind(Name) parses
# to the marker IndRef, which may name a set or a rect, while ind((Name))
# is a set expression.

EMPTY = ("empty",)
SET_OPS = {"|": or_, "&": and_, "\\": sub}


class Ref:
    def __init__(self, name: str):
        self.name = name


class IndRef(Ref):
    pass


class SetOp:
    def __init__(self, op, left, right):
        self.op = op  # one of SET_OPS' values
        self.left = left
        self.right = right


RectAst = List[object]  # (set, set) pairs and Refs


class FnTerm:
    def __init__(self, coeff: Fraction, arg):
        self.coeff = coeff
        self.arg = arg  # set AST, rect AST, or IndRef


class Command:
    def __init__(self, name: str, args: list):
        self.name = name
        self.args = args


class SpecDocument:
    """Named declarations plus the single command to run."""

    def __init__(self):
        self.kinds: Dict[str, str] = {}
        self.measures: Dict[str, Measure] = {}
        self.sets: Dict[str, object] = {}
        self.rects: Dict[str, RectAst] = {}
        self.fns: Dict[str, List[FnTerm]] = {}
        self.by_kind = {"measure": self.measures, "set": self.sets,
                        "rect": self.rects, "fn": self.fns}
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

    def parse_ref(self, node=Ref) -> Ref:
        tok = self.expect("ident")
        if tok.text in KEYWORDS:
            self.fail(f"unexpected keyword {tok.text!r}", tok)
        return node(tok.text)

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

    def parse_progression(self) -> Progression:
        tok = self.next()  # 'prog'
        self.expect("(")
        base = self.parse_rational()
        self.expect(",")
        step = self.parse_rational()
        self.expect(")")
        if step <= 0:
            self.fail("progression step must be positive", tok)
        return Progression(base, step)

    # -- measures

    def parse_measure(self) -> Measure:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected a measure constructor")
        if tok.text not in MEASURES:
            self.fail(f"unknown measure constructor {tok.text!r}", tok)
        self.next()
        return MEASURES[tok.text](self)

    def parse_measure_ref(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in MEASURES:
            return self.parse_measure()
        return self.parse_ref()

    def parse_dirac(self) -> Measure:
        self.expect("(")
        p = self.parse_rational()
        self.expect(")")
        return DiracAt(p)

    def parse_entries(self, entry) -> Token:
        """'{' entry (',' entry)* [','] '}'; returns the closing brace."""
        self.expect("{")
        while self.peek().kind != "}":
            entry()
            if self.peek().kind == ",":
                self.next()
            elif self.peek().kind != "}":
                self.fail("expected ',' or '}'")
        return self.next()

    def parse_tabulated(self) -> Measure:
        weights: Dict[str, ExtNonNeg] = {}

        def entry():
            name_tok = self.expect("ident")
            if name_tok.text in weights:
                self.fail(f"duplicate atom {name_tok.text!r}", name_tok)
            self.expect(":")
            weights[name_tok.text] = self.parse_weight()

        self.parse_entries(entry)
        if not weights:
            self.fail("tabulated measure needs at least one atom")
        return FiniteTabulated.power_set(weights)

    def parse_atomic(self) -> Measure:
        point_masses = []
        progression_weights = []

        def entry():
            tok = self.peek()
            if not (tok.kind == "ident" and tok.text == "prog"):
                p = self.parse_rational()
                self.expect(":")
                point_masses.append((p, self.parse_weight()))
                return
            progression = self.parse_progression()
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
            progression_weights.append((progression, rule))

        close = self.parse_entries(entry)
        try:
            return CountableAtomic(point_masses, progression_weights)
        except ValueError as exc:
            raise ParseError(str(exc), close.line, close.column)

    # -- sets

    def parse_set_expr(self):
        node = self.parse_set_term()
        while self.peek().kind in ("|", "\\"):
            op = SET_OPS[self.next().kind]
            node = SetOp(op, node, self.parse_set_term())
        return node

    def parse_set_term(self):
        node = self.parse_set_factor()
        while self.peek().kind == "&":
            self.next()
            node = SetOp(and_, node, self.parse_set_factor())
        return node

    def parse_set_factor(self):
        tok = self.peek()
        if tok.kind in ("[", "("):
            return self.parse_interval_or_group()
        if tok.kind == "{":
            return self.parse_braces()
        if tok.kind == "ident" and tok.text == "prog":
            p = self.parse_progression()
            return ("real", RealSet.progression(p.base, p.step))
        if tok.kind == "ident":
            return self.parse_ref()
        self.fail("expected a set")

    def parse_interval_or_group(self):
        open_tok = self.next()
        # "(" can open either a grouped set expression or an open interval;
        # a bound followed by "," settles it.
        if open_tok.kind == "(":
            save = self.pos
            try:
                bound = self.parse_bound()
                if self.peek().kind == ",":
                    return self.finish_interval(open_tok, bound)
            except ParseError:
                pass
            self.pos = save
            node = self.parse_set_expr()
            self.expect(")")
            return node
        bound = self.parse_bound()
        return self.finish_interval(open_tok, bound)

    def parse_bound(self) -> Optional[Fraction]:
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
        hi = self.parse_bound()
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
        return ("real", RealSet.interval(lo, hi, lo_open, hi_open))

    def parse_braces(self):
        self.expect("{")
        if self.peek().kind == "}":
            self.next()
            return EMPTY
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
            return ("labels", frozenset(labels))
        return ("real", RealSet.points(points))

    # -- rectangles

    def parse_rect_expr(self) -> RectAst:
        pieces = [self.parse_rect_term()]
        while self.peek().kind == "+":
            self.next()
            pieces.append(self.parse_rect_term())
        return pieces

    def parse_rect_term(self):
        if self.peek().kind == "ident":
            return self.parse_ref()
        self.expect("(")
        left = self.parse_set_expr()
        self.expect_ident("x")
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
        coeff = Fraction(1)
        if self.peek().kind in ("int", "-"):
            coeff = self.parse_rational()
            self.expect("*")
        self.expect_ident("ind")
        self.expect("(")
        arg = self.parse_ind_arg()
        self.expect(")")
        return FnTerm(sign * coeff, arg)

    def parse_ind_arg(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            if self.tokens[self.pos + 1].kind == ")":
                return self.parse_ref(IndRef)
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

    def parse_fn_ref(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text != "ind":
            return self.parse_ref()
        return self.parse_fn_expr()


MEASURES = {
    "lebesgue": lambda parser: LebesgueLine(),
    "counting": lambda parser: CountingLine(),
    "dirac": LineParser.parse_dirac,
    "tabulated": LineParser.parse_tabulated,
    "atomic": LineParser.parse_atomic,
}
DECLARATIONS = {
    "measure": LineParser.parse_measure,
    "set": LineParser.parse_set_expr,
    "rect": LineParser.parse_rect_expr,
    "fn": LineParser.parse_fn_expr,
}
# The argument kinds of each command, in order.
COMMANDS = {
    "eval": ("measure", "set"),
    "component": ("measure", "set"),
    "classify": ("measure", "set"),
    "product": ("measure", "measure", "rect"),
    "integrate": ("measure", "fn"),
    "fubini": ("measure", "measure", "fn"),
}
ARGUMENTS = {
    "measure": LineParser.parse_measure_ref,
    "set": LineParser.parse_set_expr,
    "rect": LineParser.parse_rect_expr,
    "fn": LineParser.parse_fn_ref,
}


def parse_spec(text: str) -> SpecDocument:
    doc = SpecDocument()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = tokenize_line(raw, line_no)
        if tokens[0].kind == "end":
            continue
        parser = LineParser(tokens, line_no)
        head = parser.peek()
        if head.kind != "ident" or not (head.text == "cmd" or head.text in DECLARATIONS):
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
        doc.by_kind[head.text][name_tok.text] = DECLARATIONS[head.text](parser)
        doc.kinds[name_tok.text] = head.text
        parser.expect_end()
    if doc.command is None:
        raise ParseError("spec file has no 'cmd' line", 1, 1)
    return doc


def parse_command(parser: LineParser) -> Command:
    tok = parser.expect("ident")
    if tok.text not in COMMANDS:
        parser.fail(f"unknown command {tok.text!r}", tok)
    return Command(tok.text, [ARGUMENTS[kind](parser) for kind in COMMANDS[tok.text]])


# ---------------------------------------------------------------------------
# Resolution


class Resolver:
    def __init__(self, doc: SpecDocument):
        self.doc = doc
        self.resolving: set = set()  # names whose declarations are being resolved

    def lookup(self, ref: Ref, *kinds: str):
        """The value declared under ``ref.name``, which must be one of ``kinds``."""
        name = ref.name
        kind = self.doc.kinds.get(name)
        if kind is None:
            raise UnresolvedName(f"undeclared name {name!r}")
        if kind not in kinds:
            raise UnresolvedName(f"{name!r} is a {kind}, not a {' or '.join(kinds)}")
        return self.doc.by_kind[kind][name]

    def follow(self, ref: Ref, kind: str, resolve):
        """``resolve`` of the declaration of ``ref``, refusing a name that
        its own declaration reaches, directly or through other names."""
        if ref.name in self.resolving:
            raise UnresolvedName(f"{ref.name!r} is defined in terms of itself")
        self.resolving.add(ref.name)
        try:
            return resolve(self.lookup(ref, kind))
        finally:
            self.resolving.discard(ref.name)

    def measure(self, node) -> Measure:
        return node if isinstance(node, Measure) else self.lookup(node, "measure")

    def poly_set(self, node):
        """Resolve to ('real', RealSet) | ('labels', labels) | ('empty',)."""
        spine = []
        while isinstance(node, SetOp):  # the parser nests operator chains on the left
            spine.append(node)
            node = node.left
        value = node if isinstance(node, tuple) else self.follow(node, "set", self.poly_set)
        for op_node in reversed(spine):
            value = self._combine(op_node.op, value, self.poly_set(op_node.right))
        return value

    def _combine(self, op, a, b):
        if a[0] == "empty":
            return b if op is or_ else EMPTY
        if b[0] == "empty":
            return EMPTY if op is and_ else a
        if a[0] != b[0]:
            raise UniverseMismatch("cannot mix label sets and real-line sets")
        return (a[0], op(a[1], b[1]))

    def concrete_set(self, node, measure: Measure):
        poly = self.poly_set(node)
        universe = measure.universe
        if poly[0] == "empty":
            if universe[0] == "prod":
                raise UniverseMismatch("empty set cannot target a product measure")
            return empty_set_for(universe)
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
        rects = self._rect_pairs(pieces, left, right, [])
        return RectUnion(rects) if rects else RectUnion.empty()

    def _rect_pairs(self, pieces, left: Measure, right: Measure, rects: list) -> list:
        """``rects`` extended by the nonempty (a, b) pairs of ``pieces``, with
        named rects expanded in place."""
        for piece in pieces:
            if isinstance(piece, Ref):
                self.follow(piece, "rect",
                            lambda named: self._rect_pairs(named, left, right, rects))
                continue
            a = self.concrete_set(piece[0], left)
            b = self.concrete_set(piece[1], right)
            if not (a.is_empty or b.is_empty):
                rects.append((a, b))
        return rects

    def line_fn(self, fn, measure: Measure) -> SimpleFunction:
        resolved = []
        for coeff, _, arg in self._indicators(fn):
            if isinstance(arg, list):
                raise UniverseMismatch(
                    "rectangle indicator used with a single measure"
                )
            resolved.append((coeff, self.concrete_set(arg, measure)))
        return SimpleFunction(resolved, measure.universe)

    def product_fn(self, fn, left: Measure, right: Measure) -> SimpleFunction:
        resolved = []
        for coeff, written, arg in self._indicators(fn):
            if not isinstance(arg, list):
                raise UniverseMismatch(
                    "fubini needs rectangle indicators"
                    + (f" ({written.name!r} is not a rect)"
                       if isinstance(written, IndRef) else "")
                )
            ru = self.rect_union(arg, left, right)
            if not ru.is_empty:
                resolved.append((coeff, ru))
        return SimpleFunction(
            resolved, ("prod", left.universe, right.universe)
        )

    def _indicators(self, fn) -> List[Tuple[Fraction, object, object]]:
        """(coefficient, argument as written, set or rect AST) per term,
        with every name looked up before any set is built."""
        terms = self.lookup(fn, "fn") if isinstance(fn, Ref) else fn
        return [
            (term.coeff, term.arg,
             self.lookup(term.arg, "set", "rect")
             if isinstance(term.arg, IndRef) else term.arg)
            for term in terms
        ]


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
        if f.nonnegative:
            # finite or not, the extended integral prints the same text
            return [("value", str(extended_integral(f, measure)))], 0
        try:
            value = integrate(f, measure)
        except NotIntegrable:
            raise NotIntegrable(
                "signed integrand with an infinite-measure level set"
            ) from None
        return [("value", render_rational(value))], 0
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
