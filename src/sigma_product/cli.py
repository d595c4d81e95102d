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
    SizeLimit,
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

# The deepest nesting of parentheses in one expression, and of names
# declared through other names: deeper input is refused with a
# parse-error or a size-limit instead of exhausting the Python stack.
MAX_NESTING = 100

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
    """Recursive-descent parser over one logical line.  Each production is
    chosen by the next token or two and no token is read twice, so every
    ParseError names the first token that cannot continue the line."""

    def __init__(self, tokens: List[Token], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.depth = 0  # parentheses open around the current expression

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

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

    def parse_int(self) -> int:
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:  # more digits than Python converts from text
            self.fail(
                f"integer literal has more than {sys.get_int_max_str_digits()} digits", tok
            )

    def parse_rational(self) -> Fraction:
        negative = False
        if self.peek().kind == "-":
            self.next()
            negative = True
        num, den = self.parse_int(), 1
        if self.peek().kind == "/":
            self.next()
            den_tok = self.peek()
            den = self.parse_int()
            if den == 0:
                self.fail("zero denominator", den_tok)
        value = Fraction(num, den)
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
            if name_tok.text in KEYWORDS:  # a brace set could never name it
                self.fail(f"{name_tok.text!r} is reserved", name_tok)
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
    #
    # After a '(' the next token decides: a number, '-' or 'inf' opens an
    # interval, anything else a group.  Every group, whether a set factor,
    # a rect term or an ind(...) argument, is parse_group.

    def parse_set_expr(self, first=None):
        node = self.parse_set_term(first)
        while self.peek().kind in ("|", "\\"):
            op = SET_OPS[self.next().kind]
            node = SetOp(op, node, self.parse_set_term())
        return node

    def parse_set_term(self, first=None):
        node = self.parse_set_factor() if first is None else first
        while self.peek().kind == "&":
            self.next()
            node = SetOp(and_, node, self.parse_set_factor())
        return node

    def parse_set_factor(self, rect: str = "no"):
        tok = self.peek()
        if tok.kind == "(" and not self.starts_bound(self.peek(1)):
            return self.parse_group(rect)
        if tok.kind in ("[", "("):
            return self.parse_interval()
        if tok.kind == "{":
            return self.parse_braces()
        if tok.kind == "ident" and tok.text == "prog":
            p = self.parse_progression()
            return ("real", RealSet.progression(p.base, p.step))
        if tok.kind == "ident":
            return self.parse_ref()
        self.fail("expected a set")

    @staticmethod
    def starts_bound(tok: Token) -> bool:
        return tok.kind in ("int", "-") or tok.text == "inf"

    def parse_group(self, rect: str = "no"):
        """'(' set ')', or the rectangle '(' set 'x' set ')' as a one-piece
        rect AST; ``rect`` is "no", "may" or "must"."""
        open_tok = self.expect("(")
        if self.depth == MAX_NESTING:
            self.fail(f"parentheses nested deeper than {MAX_NESTING}", open_tok)
        self.depth += 1
        node = self.parse_set_expr()
        if rect == "must" or (rect == "may" and self.peek().text == "x"):
            self.expect_ident("x")
            node = [(node, self.parse_set_expr())]
        self.expect(")")
        self.depth -= 1
        return node

    def parse_bound(self) -> Tuple[int, Fraction]:
        """An endpoint in the order of the extended line: (-1, 0) for -inf,
        (0, q) for a rational q, (1, 0) for inf."""
        tok = self.peek()
        if tok.kind == "-" and self.peek(1).text == "inf":
            self.pos += 2
            return (-1, Fraction(0))
        if tok.text == "inf":
            self.next()
            return (1, Fraction(0))
        return (0, self.parse_rational())

    def parse_interval(self):
        open_tok = self.next()
        lo = self.parse_bound()
        self.expect(",")
        hi = self.parse_bound()
        close_tok = self.peek()
        if close_tok.kind not in ("]", ")"):
            self.fail("expected ']' or ')'")
        self.next()
        lo_open = open_tok.kind == "("
        hi_open = close_tok.kind == ")"
        if lo[0] and not lo_open:
            self.fail("infinite endpoint must be open", open_tok)
        if hi[0] and not hi_open:
            self.fail("infinite endpoint must be open", close_tok)
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            self.fail("empty interval", close_tok)
        return ("real", RealSet.interval(
            None if lo[0] else lo[1], None if hi[0] else hi[1], lo_open, hi_open))

    def parse_braces(self):
        self.expect("{")
        if self.peek().kind == "}":
            self.next()
            return EMPTY
        labels: List[str] = []
        points: List[Fraction] = []
        while True:
            tok = self.peek()
            label = tok.kind == "ident" and tok.text not in KEYWORDS
            if (points and label) or (labels and tok.kind in ("int", "-")):
                self.fail("cannot mix labels and numbers in a set", tok)
            if label:
                labels.append(self.next().text)
            elif labels:
                self.fail(f"expected a label, found {tok.text or 'end of line'!r}")
            else:
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
        return self.parse_group("must")[0]

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
        """A name, a rectangle, or a set expression."""
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            if self.peek(1).kind == ")":
                return self.parse_ref(IndRef)
        first = self.parse_set_factor("may")
        return first if isinstance(first, list) else self.parse_set_expr(first)

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
        if len(self.resolving) == MAX_NESTING:
            raise SizeLimit(
                f"{ref.name!r} is reached through more than {MAX_NESTING} "
                "nested declarations"
            )
        self.resolving.add(ref.name)
        try:
            return resolve(self.lookup(ref, kind))
        finally:
            self.resolving.discard(ref.name)

    def measure(self, node) -> Measure:
        return node if isinstance(node, Measure) else self.lookup(node, "measure")

    def poly_set(self, node):
        """Resolve to ('real', RealSet) | ('labels', labels) | ('empty',).
        Operator trees are walked on an explicit stack, left operand first;
        only names nest calls."""
        todo, values = [node], []
        while todo:
            node = todo.pop()
            if isinstance(node, SetOp):
                todo += (node.op, node.right, node.left)
            elif isinstance(node, tuple):
                values.append(node)
            elif isinstance(node, Ref):
                values.append(self.follow(node, "set", self.poly_set))
            else:  # an operator, after both of its operands
                right = values.pop()
                values.append(self._combine(node, values.pop(), right))
        return values[0]

    def _combine(self, op, a, b):
        if a[0] == "empty":
            return b if op is or_ else EMPTY
        if b[0] == "empty":
            return EMPTY if op is and_ else a
        if a[0] != b[0]:
            raise UniverseMismatch("cannot mix label sets and real-line sets")
        return (a[0], op(a[1], b[1]))

    def concrete_set(self, node, measure: Measure):
        """The set ``node`` names under ``measure``: a rectangle union over
        a product measure's two factors, else a set in its universe."""
        if isinstance(measure, ProductMeasure):
            return self.rect_union(node, measure.left, measure.right)
        poly = self.poly_set(node)
        universe = measure.universe
        if poly[0] == "empty":
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
        for label in sorted(poly[1]):
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

    def simple_fn(self, fn, measure: Measure) -> SimpleFunction:
        """The simple function ``fn`` under ``measure``, whose indicators are
        of rects for a product measure and of sets otherwise.  Every name is
        looked up first; then each term's shape is checked before that term
        is resolved."""
        terms = self.lookup(fn, "fn") if isinstance(fn, Ref) else fn
        args = [self.lookup(term.arg, "set", "rect")
                if isinstance(term.arg, IndRef) else term.arg for term in terms]
        product = isinstance(measure, ProductMeasure)
        resolved = []
        for term, arg in zip(terms, args):
            if isinstance(arg, list) and not product:
                raise UniverseMismatch("rectangle indicator used with a single measure")
            if product and not isinstance(arg, list):
                raise UniverseMismatch(
                    "fubini needs rectangle indicators"
                    + (f" ({term.arg.name!r} is not a rect)"
                       if isinstance(term.arg, IndRef) else "")
                )
            resolved.append((term.coeff, self.concrete_set(arg, measure)))
        return SimpleFunction(resolved, measure.universe)


# ---------------------------------------------------------------------------
# Command execution


def run_document(doc: SpecDocument) -> Tuple[List[Tuple[str, str]], int]:
    """Execute the document's command; returns output fields and exit code.
    The command's measures make one measure, their product when there are
    two, and its last argument is resolved under that measure."""
    resolver = Resolver(doc)
    cmd = doc.command
    *measures, target = cmd.args
    measure = resolver.measure(measures[0])
    if len(measures) == 2:
        measure = ProductMeasure(measure, resolver.measure(measures[1]))
    if cmd.name == "component":
        measure = measure.sigma_finite_component()
    if cmd.name == "integrate":
        f = resolver.simple_fn(target, measure)
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
        f = resolver.simple_fn(target, measure)
        report = fubini_check(f, measure.left, measure.right)
        fields = [
            ("product", render_value(report.product_value)),
            ("iterated_sv", render_value(report.iterated_sv)),
            ("iterated_ts", render_value(report.iterated_ts)),
            ("verdict", report.verdict),
        ]
        if report.reason:
            fields.append(("reason", report.reason))
        return fields, (0 if report.all_equal else 1)
    s = resolver.concrete_set(target, measure)
    if cmd.name == "classify":
        return [("class", measure.finiteness(s).render())], 0
    value, cls = measure.evaluate(s)
    return [("value", str(value)), ("class", cls.render())], 0


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
