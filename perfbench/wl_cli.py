"""cli_specs: generated spec documents run in-process through
``sigma_product.cli.run_file``, checked against the same objects built
through the library API."""

from __future__ import annotations

import io
import json
import os

from fractions import Fraction

from common import WORK_DIR, Workload
from linetree import build, rand_tree, rat, render
from wl_line import STEP_BASES, build_measure, measure_descs

COMMANDS = ("eval",) * 6 + ("component",) * 5 + ("classify",) * 5 + (
    "product",) * 7 + ("integrate",) * 6 + ("fubini",) * 7
ERRORS = ("parse-error", "name-error", "universe-mismatch", "not-integrable")
F = Fraction
TABULATED = (
    (("a", F(1)), ("b", None), ("c", F(1, 2))),
    (("a", F(2)), ("b", F(0)), ("c", None), ("d", F(1))),
)
SET_DEPTHS = (0, 1, 1, 2)
# Rectangle sides stay shallow (fubini sides are single leaves): product
# grids refine them pairwise, and the workload is here to time the parser.
PAIR_DEPTHS = (0, 0, 1)
COEFFS = tuple(F(c) for c in ("1", "2", "1/2", "3", "-1", "-3/2"))


def _interleave():
    """36 valid commands and 4 deliberate errors per 40 queries, with the
    output format alternating."""
    kinds = list(COMMANDS)
    for k, err in enumerate(ERRORS):
        kinds.insert(9 * k + 4, err)
    return tuple((kind, "json" if i % 2 else "text") for i, kind in enumerate(kinds))


def render_measure(desc) -> str:
    kind = desc[0]
    if kind in ("lebesgue", "counting"):
        return kind
    if kind == "dirac":
        return f"dirac({rat(desc[1])})"
    if kind == "tabulated":
        return "tabulated{" + ", ".join(f"{x}: {_w(w)}" for x, w in desc[1]) + "}"
    bits = [f"{rat(p)}: {_w(w)}" for p, w in desc[1]]
    for base, step, rule in desc[2]:
        if rule[0] == "constant":
            r = f"constant({_w(rule[1])})"
        else:
            r = f"geometric({rat(rule[1])}, {rat(rule[2])})"
        bits.append(f"prog({rat(base)}, {rat(step)}): {r}")
    return "atomic{" + ", ".join(bits) + "}"


def _w(w) -> str:
    return "inf" if w is None else rat(w)


def render_spec(spec) -> str:
    lines = [f"# generated {spec['cmd'][0]} spec"]
    sets = dict(spec["sets"])
    for name, desc in spec["measures"]:
        lines.append(f"measure {name} = {render_measure(desc)}")
    for name, s in spec["sets"]:
        lines.append(f"set {name} = {render_set(s)}")
    for name, pairs in spec["rects"]:
        lines.append(f"rect {name} = " + " + ".join(f"({a} x {b})" for a, b in pairs))
    cmd = list(spec["cmd"])
    if spec["fn"]:
        terms, inline = spec["fn"]
        if inline:
            # named sets and rects referenced straight from the command
            cmd.append(" + ".join(f"{rat(c)}*ind({arg})" for c, arg in terms))
        else:
            # a declared fn whose indicators spell their sets out
            args = [f"({arg[0]} x {arg[1]})" if isinstance(arg, tuple) else render_set(sets[arg])
                    for _, arg in terms]
            lines.append("fn f = " + " + ".join(
                f"{rat(c)}*ind({text})" for (c, _), text in zip(terms, args)))
            cmd.append("f")
    if spec.get("bad_line"):
        lines.append(spec["bad_line"])
    lines.append("cmd " + " ".join(cmd))
    return "\n".join(lines) + "\n"


def render_set(s) -> str:
    return "{" + ", ".join(s[1]) + "}" if s[0] == "labels" else render(s)


class CliSpecs(Workload):
    name = "cli_specs"
    uses_cli = True
    schedule = _interleave()

    def __init__(self, seed: int):
        super().__init__(seed)
        self.line = measure_descs(self.fixed_rng)
        self.tab = tuple(("tabulated", t) for t in TABULATED)
        self.path = None

    # -- generation -------------------------------------------------------

    def _set(self, rng, measure, depths, steps):
        if measure[0] == "tabulated":
            labels = [x for x, _ in measure[1]]
            picked = tuple(x for x in labels if rng.random() < 0.5) or (labels[0],)
            return ("labels", picked)
        return rand_tree(rng, rng.choice(depths), steps=steps)

    def make(self, entry, rng):
        kind, fmt = entry
        spec = {"measures": [], "sets": [], "rects": [], "fn": None, "fmt": fmt,
                "error": kind if kind in ERRORS else None}
        inline = rng.random() < 0.5
        base = rng.choice(STEP_BASES)  # one step lattice per spec, as in line_products
        steps = (base, 2 * base, 3 * base)
        tab_side = rng.random() < 0.2

        def pick_measure():
            pool = self.tab if tab_side else self.line
            desc = rng.choice(pool)
            name = f"M{len(spec['measures'])}"
            spec["measures"].append((name, desc))
            return name, desc

        def add_set(measure, depths=SET_DEPTHS):
            name = f"S{len(spec['sets'])}"
            spec["sets"].append((name, self._set(rng, measure, depths, steps)))
            return name

        if kind in ("eval", "component", "classify", "parse-error", "name-error"):
            m, desc = pick_measure()
            s = add_set(desc)
            cmd = "eval" if kind in ERRORS else kind
            spec["cmd"] = (cmd, m, "Missing" if kind == "name-error" else s)
            if kind == "parse-error":
                spec["bad_line"] = rng.choice(("set Z = [1,", "set Z = (0, 1] |", "rect Z = (S0 x"))
        elif kind == "universe-mismatch":
            tab_side = False
            m, _ = pick_measure()
            s = add_set(self.tab[0])
            spec["cmd"] = ("classify", m, s)
        elif kind in ("product", "fubini"):
            m1, d1 = pick_measure()
            m2, d2 = pick_measure()
            rects = []
            depths = PAIR_DEPTHS if kind == "product" else (0,)
            for _ in range(rng.choice((1, 1, 2, 3) if kind == "product" else (1, 2))):
                rects.append((add_set(d1, depths), add_set(d2, depths)))
            if kind == "product":
                spec["rects"].append(("R", tuple(rects)))
                spec["cmd"] = ("product", m1, m2, "R")
            else:
                terms = []
                for k, pair in enumerate(rects):
                    if inline:
                        spec["rects"].append((f"R{k}", (pair,)))
                    terms.append((rng.choice(COEFFS), f"R{k}" if inline else pair))
                spec["fn"] = (tuple(terms), inline)
                spec["cmd"] = ("fubini", m1, m2)
        else:  # integrate, not-integrable
            if kind == "not-integrable":
                tab_side = False
                spec["measures"].append(("M0", ("lebesgue",)))
                bounded = add_set(("lebesgue",))
                spec["sets"].append(("H", rng.choice((
                    ("iv", None, None, True, True),
                    ("iv", F(rng.randint(-3, 3)), None, False, True)))))
                # c1 < c2 makes f negative on all of H, whose measure is infinite
                terms = ((rng.choice((F(1, 2), F(1))), bounded), (-rng.choice((F(2), F(3))), "H"))
                m = "M0"
            else:
                m, desc = pick_measure()
                terms = tuple((rng.choice(COEFFS), add_set(desc)) for _ in range(rng.choice((1, 2, 3))))
            spec["fn"] = (terms, inline)
            spec["cmd"] = ("integrate", m)
        spec["text"] = render_spec(spec)
        return spec

    # -- run ----------------------------------------------------------------

    def setup(self, lib):
        super().setup(lib)
        os.makedirs(WORK_DIR, exist_ok=True)
        self.path = os.path.join(WORK_DIR, "spec.txt")

    def prepare(self, q):
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(q.data["text"])

    def run(self, q):
        out = io.StringIO()
        code = self.lib.cli.run_file(self.path, q.data["fmt"], out=out)
        return code, out.getvalue()

    # -- check ----------------------------------------------------------------

    def check(self, q, result, exc):
        if exc is not None:
            return f"run_file raised {exc!r}"
        code, text = result
        got = parse_output(text, q.data["fmt"])
        want = self.expected(q.data)
        if (code,) + got != want:
            return f"cli gave {(code,) + got}, library API {want}"
        if q.data["error"] and want[1] != q.data["error"]:
            return f"deliberate {q.data['error']} came out as {want[1]}"
        return None

    def expected(self, spec):
        """(exit code, error kind, fields) from the library API."""
        L = self.lib
        if spec["error"] in ("parse-error", "name-error"):
            return (2, spec["error"], ())
        try:
            fields, code = self._api(spec)
        except L.errors.SigmaProductError as exc:
            return (2, exc.kind, ())
        return (code, None, tuple(fields))

    def _api(self, spec):
        L = self.lib
        measures = {}
        for name, desc in spec["measures"]:
            if desc[0] == "tabulated":
                E = L.extreal
                measures[name] = L.measures.FiniteTabulated.power_set(
                    {x: E.INF if w is None else E.ExtNonNeg(w) for x, w in desc[1]})
            else:
                measures[name] = build_measure(desc, L)
        trees = dict(spec["sets"])

        def concrete(set_name, measure):
            s = trees[set_name]
            if s[0] == "labels":
                if measure.universe[0] != "fin":
                    raise L.errors.UniverseMismatch("label set used with a real-line measure")
                return L.finset.FinSet.of(measure.universe[1], s[1])
            return build(s, L.lineset.RealSet)

        rects = dict(spec["rects"])

        def union(rect, m1, m2):
            pieces = []
            for a, b in (rects[rect] if isinstance(rect, str) else (rect,)):
                sa, sb = concrete(a, m1), concrete(b, m2)
                if not (sa.is_empty or sb.is_empty):
                    pieces.append((sa, sb))
            return L.rectset.RectUnion(pieces) if pieces else L.rectset.RectUnion.empty()

        cmd = spec["cmd"]
        I = L.integration
        if cmd[0] in ("eval", "component", "classify"):
            m = measures[cmd[1]]
            if cmd[0] == "component":
                m = m.sigma_finite_component()
            s = concrete(cmd[2], m)
            if cmd[0] == "classify":
                return [("class", m.finiteness(s).render())], 0
            return [("value", str(m.measure(s))), ("class", m.finiteness(s).render())], 0
        if cmd[0] == "product":
            m1, m2 = measures[cmd[1]], measures[cmd[2]]
            pm = L.product.ProductMeasure(m1, m2)
            u = union(cmd[3], m1, m2)
            return [("value", str(pm.measure(u))), ("class", pm.set_class(u).render())], 0
        if cmd[0] == "integrate":
            m = measures[cmd[1]]
            f = I.SimpleFunction([(c, concrete(s, m)) for c, s in spec["fn"][0]], m.universe)
            if I.is_integrable(f, m):
                return [("value", L.extreal.render_rational(I.integrate(f, m)))], 0
            if not f.nonnegative:
                raise L.errors.NotIntegrable("signed integrand")
            return [("value", str(I.extended_integral(f, m)))], 0
        m1, m2 = measures[cmd[1]], measures[cmd[2]]
        terms = []
        for c, r in spec["fn"][0]:
            u = union(r, m1, m2)
            if not u.is_empty:
                terms.append((c, u))
        f = I.SimpleFunction(terms, ("prod", m1.universe, m2.universe))
        report = I.fubini_check(f, m1, m2)
        fields = [
            ("product", I.render_value(report.product_value)),
            ("iterated_sv", I.render_value(report.iterated_sv)),
            ("iterated_ts", I.render_value(report.iterated_ts)),
            ("verdict", report.verdict),
        ]
        if report.reason:
            fields.append(("reason", report.reason))
        return fields, (0 if report.all_equal else 1)


def parse_output(text: str, fmt: str):
    """(error kind, fields) from the CLI's output."""
    if fmt == "json":
        doc = json.loads(text)
        if "error" in doc:
            return (doc["error"]["kind"], ())
        return (None, tuple(doc.items()))
    lines = text.splitlines()
    if len(lines) == 1 and lines[0].startswith("error: "):
        return (lines[0].split(": ")[1], ())
    return (None, tuple(tuple(line.split(" = ", 1)) for line in lines))
