"""Spec documents drawn from the declaration grammar in README.md.

Every document must finish within a time budget, exit 0, 1 or 2, report
an error only under one of README's kinds (never ``internal``), and print
the same kind and fields in text and in JSON.  The draws lean on the
shapes that once escaped those rules: parentheses nested past the cap,
long chains of names, huge rationals, ``{}``, labels mixed with points,
and progressions met with wide intervals.
"""

import io
import json
import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from sigma_product.cli import run_file

KINDS = {
    "parse-error", "name-error", "universe-mismatch", "not-measurable",
    "not-integrable", "not-simple-tensor", "size-limit", "property-violated",
}
BUDGET_S = 5

# -- terminals


def rarely(common, rare):
    """``rare`` about one draw in sixteen (away from the boundary values
    that Hypothesis favours), else ``common``."""
    return st.integers(0, 15).flatmap(lambda k: rare if k == 7 else common)


small = st.sampled_from(["0", "1", "2", "-3", "5/2", "-1/3", "8"])
huge = st.sampled_from(["1000000000000", "-1000000000000000", "10000000000000000000000000000000/7"])
number = st.one_of(small, small, small, huge)
step = rarely(st.sampled_from(["1", "1/2", "3", "1/1000000000000", "1000000000000"]), st.just("0"))
weight = st.sampled_from(["0", "1", "5/2", "inf", "1000000000000"])
label = st.sampled_from(["a", "b", "c", "z"])
name = rarely(st.sampled_from(["S0", "S1", "C"]), st.sampled_from(["R0", "M0", "F0", "Q"]))



INFINITE = ("-inf", "inf")


def _interval(lo, hi, lb, rb, swap):
    """An interval, nonempty unless ``swap`` puts the bounds out of order
    or an infinity stands at the wrong end."""
    if lo not in INFINITE and hi not in INFINITE and (Fraction(lo) > Fraction(hi)) != swap:
        lo, hi = hi, lo
    return f"{'(' if lo in INFINITE else lb}{lo}, {hi}{')' if hi in INFINITE else rb}"


interval = st.builds(
    _interval,
    st.one_of(number, number, rarely(st.just("-inf"), st.just("inf"))),
    st.one_of(number, number, rarely(st.just("inf"), st.just("-inf"))),
    st.sampled_from("[("), st.sampled_from("])"), rarely(st.just(False), st.just(True)),
)
points = st.lists(number, min_size=1, max_size=3).map(lambda xs: "{" + ", ".join(xs) + "}")
labels = st.lists(label, min_size=1, max_size=3).map(lambda xs: "{" + ", ".join(xs) + "}")
mixed = st.tuples(label, number).map(lambda t: "{%s, %s}" % t)  # labels mixed with points
braces = rarely(st.one_of(points, points, labels, st.just("{}")), mixed)
prog = st.builds(lambda b, s: f"prog({b}, {s})", number, step)


# progressions met with wide intervals, or cut far out
expansion = st.one_of(
    st.builds(lambda lo, hi, p: f"[{lo}, {hi}] & {p}", small, huge, prog),
    st.builds(lambda p, x: f"{p} \\ {{{x}}}", prog, huge),
)
set_expr = st.recursive(
    st.one_of(interval, braces, prog, name, expansion),
    lambda inner: st.one_of(
        st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from(["|", "&", "\\"]), inner),
        inner.map(lambda e: f"({e})"),
    ),
    max_leaves=5,
)
rect_expr = st.lists(
    st.one_of(st.builds(lambda a, b: f"({a} x {b})", set_expr, set_expr), name),
    min_size=1, max_size=3,
).map(" + ".join)
fn_expr = st.lists(
    st.builds(lambda c, arg: f"{c}*ind({arg})", small,
              st.one_of(set_expr, name, st.builds(lambda a, b: f"({a} x {b})", set_expr, set_expr))),
    min_size=1, max_size=3,
).map(" + ".join)
line_measure = st.sampled_from(["lebesgue", "counting"])
measure = st.one_of(
    line_measure, line_measure,
    number.map(lambda p: f"dirac({p})"),
    st.lists(st.tuples(label, weight), min_size=1, max_size=3, unique_by=lambda t: t[0]).map(
        lambda es: "tabulated{" + ", ".join(f"{a}: {w}" for a, w in es) + "}"),
    st.builds(
        lambda pts, entry: "atomic{" + ", ".join(pts + entry) + "}",
        st.lists(st.tuples(small, weight).map(lambda t: "%s: %s" % t), max_size=2,
                 unique_by=lambda e: e.split(":")[0]),
        st.lists(st.one_of(
            st.tuples(prog, weight).map(lambda t: "%s: constant(%s)" % t),
            st.tuples(prog, small, st.sampled_from(["1/2", "0", "1/3", "1"])).map(
                lambda t: "%s: geometric(%s, %s)" % t),
        ), max_size=1),
    ),
)
measure_arg = st.one_of(st.just("M0"), st.just("M1"), measure)


@st.composite
def documents(draw):
    lines = [f"measure M0 = {draw(measure)}", f"measure M1 = {draw(measure)}"]
    lines += [f"set S{i} = {draw(set_expr)}" for i in range(2)]
    if draw(st.integers(0, 7)) == 5:  # parentheses past the cap
        lines.append("set P = " + "(" * 300 + draw(set_expr) + ")" * 300)
    chain = draw(st.sampled_from([0, 0, 0, 2, 2, 150, 600]))
    if chain:
        kind, first = draw(st.sampled_from([("set", set_expr), ("rect", rect_expr)]))
        lines.append(f"{kind} C0 = {draw(first)}")
        lines += [f"{kind} C{i} = C{i - 1}" for i in range(1, chain + 1)]
        lines.append(f"{kind} C = C{chain}")
    if draw(st.booleans()):
        lines.append(f"rect R0 = {draw(rect_expr)}")
    if draw(st.booleans()):
        lines.append(f"fn F0 = {draw(fn_expr)}")
    command = draw(st.sampled_from(
        ["eval", "component", "classify", "product", "integrate", "fubini"]))
    args = {
        "eval": (measure_arg, set_expr), "component": (measure_arg, set_expr),
        "classify": (measure_arg, set_expr), "product": (measure_arg, measure_arg, rect_expr),
        "integrate": (measure_arg, st.one_of(fn_expr, name)),
        "fubini": (measure_arg, measure_arg, st.one_of(fn_expr, name)),
    }[command]
    lines.append(" ".join(["cmd", command] + [draw(a) for a in args]))
    return "\n".join(lines) + "\n"


class Overrun(BaseException):
    """Raised by the alarm; not an Exception, so run_file cannot report it."""


@contextmanager
def budget(seconds):
    def expire(signum, frame):
        raise Overrun

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run(path, fmt):
    out = io.StringIO()
    try:
        with budget(BUDGET_S):
            code = run_file(str(path), fmt, out=out)
    except Overrun:
        raise AssertionError(f"{fmt} run took over {BUDGET_S} s") from None
    return code, out.getvalue()


def fields_of_text(text):
    lines = text.splitlines()
    if len(lines) == 1 and lines[0].startswith("error: "):
        kind, message = lines[0][len("error: "):].split(": ", 1)
        return {"error": {"kind": kind, "message": message}}
    return dict(line.split(" = ", 1) for line in lines)


def _chain(kind, first, length):
    """Declarations C0 = first, C1 = C0, ..., C<length> = C<length - 1>."""
    lines = [f"{kind} C0 = {first}"] + [f"{kind} C{i} = C{i - 1}" for i in range(1, length + 1)]
    return "\n".join(lines) + "\n"


DEEP = "(" * 300 + "[0, 1]" + ")" * 300
# Documents that once printed ``internal`` or ran without bound.
KNOWN = [
    f"measure L = lebesgue\nset A = {DEEP}\ncmd eval L A\n",
    f"measure L = lebesgue\ncmd eval L {DEEP}\n",
    f"measure L = lebesgue\nfn f = ind({DEEP})\ncmd integrate L f\n",
    f"measure L = lebesgue\n{_chain('set', '[0, 1]', 600)}cmd eval L C600\n",
    f"measure L = lebesgue\n{_chain('rect', '([0, 1] x [0, 1])', 600)}cmd product L L C600\n",
    "measure C = counting\ncmd eval C [0, 1000000000000] & prog(0, 1)\n",
    "measure C = counting\ncmd eval C prog(0, 1) \\ {1000000000000}\n",
    # past Python's 4,300-digit int/str limit: read, and printed
    f"measure L = lebesgue\ncmd eval L [0, 1{'0' * 5000}]\n",
    f"measure L = lebesgue\nset S = [0, {'9' * 2200}]\nrect R = (S x S)\ncmd product L L R\n",
]


def with_known(test):
    for doc in KNOWN:
        test = example(doc=doc)(test)
    return test


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(doc=documents())
@with_known
def test_every_document_reports_a_stable_outcome(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("spec") / "doc.spec"
    path.write_text(doc)
    code, text = run(path, "text")
    jcode, js = run(path, "json")
    assert code in (0, 1, 2) and jcode == code, doc
    fields = json.loads(js)
    assert fields_of_text(text) == fields, doc
    if "error" in fields:
        assert code == 2 and fields["error"]["kind"] in KINDS, (doc, text)
    else:
        assert code == 0 or doc.splitlines()[-1].startswith("cmd fubini"), doc
