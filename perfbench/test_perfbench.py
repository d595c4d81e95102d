"""Tests of the benchmark itself: generator determinism, the reference
evaluator, checkers catching planted wrong answers, and tracing.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from common import import_library  # noqa: E402
from linetree import LINE, ref_product, ref_set, sample_points  # noqa: E402

F = Fraction
WORKLOADS = run.workload_classes()


@pytest.fixture
def lib():
    # function scope: run.setup_library re-imports the package, and objects
    # of two imports do not mix
    return import_library(with_cli=True)


def first(wl, n, kind=None):
    queries = (q for q in wl.queries() if kind is None or q.kind == kind)
    return list(itertools.islice(queries, n))


def ready(name, lib, seed=7):
    wl = WORKLOADS[name](seed)
    wl.setup(lib)
    return wl


def run_query(wl, q, lib):
    wl.prepare(q)
    try:
        return wl.run(q), None
    except lib.errors.SigmaProductError as exc:
        return None, exc


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    a = repr(first(WORKLOADS[name](11), 120)).encode()
    b = repr(first(WORKLOADS[name](11), 120)).encode()
    c = repr(first(WORKLOADS[name](12), 120)).encode()
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_plain_data(name):
    """Queries carry numbers, strings and tuples only, never library
    objects: the library sees generated values, not the seed."""
    allowed = (int, float, str, bool, Fraction, type(None))

    def walk(x):
        if isinstance(x, (tuple, list)):
            return all(walk(y) for y in x)
        if isinstance(x, dict):
            return all(walk(k) and walk(v) for k, v in x.items())
        return isinstance(x, allowed)

    assert all(walk(q.data) for q in first(WORKLOADS[name](3), 60))


# ---------------------------------------------------------------------------
# reference evaluator


def test_reference_on_known_sets():
    unit_plus_point = ("or", ("iv", F(0), F(1), False, False), ("pts", (F(5),)))
    assert ref_set(unit_plus_point, ("lebesgue",)) == (F(1), "finite")
    assert ref_set(unit_plus_point, ("counting",)) == (None, "not-sigma-finite")
    assert ref_set(("prog", F(0), F(1)), ("counting",)) == (None, "sigma-finite")
    assert ref_set(("diff", ("iv", F(0), F(1), False, False), ("pts", (F(1, 2),))),
                   ("dirac", F(1, 2))) == (F(0), "finite")
    geometric = ("atomic", ((F(-5), F(2)),), ((F(0), F(1), ("geometric", F(1), F(1, 2))),))
    assert ref_set(LINE, geometric) == (F(4), "finite")
    closed_gap = ("and", ("iv", F(0), F(1), False, False), ("iv", F(1), F(2), False, False))
    assert ref_set(closed_gap, ("counting",)) == (F(1), "finite")


def test_reference_product_remark():
    """{0} x R under Lebesgue x counting is infinite although 0 * inf = 0."""
    zero = ("pts", (F(0),))
    assert ref_product([(zero, LINE)], [("lebesgue",), ("counting",)]) == (None, "not-sigma-finite")
    unit = ("iv", F(0), F(1), False, False)
    assert ref_product([(unit, ("pts", (F(0), F(1), F(2))))],
                       [("lebesgue",), ("counting",)]) == (F(3), "finite")


# ---------------------------------------------------------------------------
# checkers catch planted wrong answers


def test_line_checker_catches_wrong_value_and_class(lib):
    wl = ready("line_products", lib)
    E = lib.extreal
    caught_value = caught_class = 0
    for q in first(wl, 12, "prod2"):
        (value, cls, sides, u), exc = run_query(wl, q, lib)
        assert wl.check(q, (value, cls, sides, u), exc) is None
        wrong = E.ExtNonNeg(1) if not value.is_finite else value + E.ExtNonNeg(1)
        caught_value += wl.check(q, (wrong, cls, sides, u), None) is not None
        other = next(c for c in type(cls) if c is not cls)
        caught_class += wl.check(q, (value, other, sides, u), None) is not None
    assert caught_value == 12
    assert caught_class == 12


def test_line_checker_catches_wrong_set(lib):
    wl = ready("line_products", lib)
    q = first(wl, 1, "prod2")[0]
    (value, cls, sides, u), _ = run_query(wl, q, lib)
    RealSet = lib.lineset.RealSet
    a, b = sides[0]
    x = sample_points([q.data[-1][0][0]])[0]
    flipped = a - RealSet.points([x]) if a.member(x) else a | RealSet.points([x])
    assert wl.check(q, (value, cls, [(flipped, b)] + sides[1:], u), None) is not None


def test_fubini_checker_catches_wrong_answers(lib):
    wl = ready("fubini_reuse", lib)
    seen = set()
    for q in first(wl, 40):
        result, exc = run_query(wl, q, lib)
        assert wl.check(q, result, exc) is None
        if exc is not None:
            seen.add("error")
            assert wl.check(q, (None, F(0)), None) is not None
            continue
        f, answer = result
        if q.kind in ("fubini", "paper"):
            flipped = "all-equal" if answer.verdict != "all-equal" else "hypothesis-violated"
            bad = type(answer)(answer.product_value, answer.iterated_sv,
                               answer.iterated_ts, flipped, answer.reason)
        elif q.kind == "extended":
            bad = answer + lib.extreal.ExtNonNeg(1) if answer.is_finite else lib.extreal.ZERO
        else:
            bad = answer + 1
        seen.add(q.kind)
        assert wl.check(q, (f, bad), None) is not None, q
    assert {"fubini", "integrate", "tensor", "extended", "paper"} <= seen


def test_rings_checker_catches_wrong_answers(lib):
    wl = ready("finite_rings", lib)
    seen = set()
    for q in first(wl, 40):
        result, exc = run_query(wl, q, lib)
        assert wl.check(q, result, exc) is None
        if exc is not None:
            continue
        seen.add(q.kind)
        if q.kind in ("ring", "algebra", "product"):
            Ring = type(result)
            bad = Ring(result.ground, set(result.members) - {max(result.members)}, check=False)
        elif q.kind == "fpm" or q.kind == "tab":
            (v, c), rest = result[0], result[1:]
            wrong = lib.extreal.ExtNonNeg(1) if not v.is_finite else v + lib.extreal.ExtNonNeg(1)
            bad = [(wrong, c)] + list(rest)
        elif q.kind == "ext":
            v = result[0]
            bad = [lib.extreal.ExtNonNeg(7) if not v.is_finite else lib.extreal.INF] + result[1:]
        else:
            flipped = "all-equal" if result.verdict != "all-equal" else "hypothesis-violated"
            bad = type(result)(result.product_value, result.iterated_sv,
                               result.iterated_ts, flipped, result.reason)
        assert wl.check(q, bad, None) is not None, q
    assert {"ring", "algebra", "product", "fpm", "tab", "ext", "fubini"} <= seen


def test_cli_checker_catches_wrong_output(lib):
    wl = ready("cli_specs", lib)
    for q in first(wl, 40):
        (code, text), exc = run_query(wl, q, lib)
        assert wl.check(q, (code, text), exc) is None, (q, text)
        assert wl.check(q, (code ^ 1, text), None) is not None
        if code != 2:
            changed = text.replace("0", "1") if "0" in text else text.replace("1", "2")
            if changed != text:
                assert wl.check(q, (code, changed), None) is not None


# ---------------------------------------------------------------------------
# tracing


def test_untraced_setup_installs_no_wrappers():
    wl = WORKLOADS["line_products"](1)
    lib, _, _ = run.setup_library(wl)
    assert not hasattr(lib.lineset.RealSet.__and__, "__wrapped__")
    assert not hasattr(lib.integration.refine_parts, "__wrapped__")


def test_tracer_patches_every_importer_and_restores(lib):
    from tracer import Tracer

    tracer = Tracer(lib)
    original = lib.rectset.refine_parts
    tracer.install()
    try:
        assert lib.integration.refine_parts is lib.rectset.refine_parts
        assert lib.integration.refine_parts.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert lib.integration.refine_parts is original
    assert not hasattr(lib.lineset.RealSet.__or__, "__wrapped__")


@pytest.mark.parametrize("name,zero", [("finite_rings", "lineset.ops"),
                                        ("line_products", "sigma.rings")])
def test_bypassed_layers_stay_at_zero(lib, name, zero):
    wl = ready(name, lib)
    outcome, metrics = run.traced(wl, lib, 1.0)
    assert outcome.failed == 0, outcome.first_failures
    assert metrics[zero][0] == 0
    busy = "sigma.rings" if name == "finite_rings" else "lineset.ops"
    assert metrics[busy][0] > 0
    assert 0 < metrics["trace.overhead"][0]


def test_self_time_excludes_children(lib):
    from tracer import Tracer

    tracer = Tracer(lib)
    tracer.install()
    try:
        tracer.enabled = True
        RealSet = lib.lineset.RealSet
        RectUnion = lib.rectset.RectUnion
        RectUnion([(RealSet.interval(0, 2), RealSet.interval(0, 1)),
                   (RealSet.interval(1, 3), RealSet.interval(0, 2))])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    total = tracer.incl_ns["rectset.RectUnion"]
    assert 0 <= tracer.self_ns["rectset"] < total
    assert tracer.self_ns["lineset"] > 0
    ids = {span[0] for span in tracer.spans}
    assert tracer.span_count == len(tracer.spans)
    assert any(span[1] in ids for span in tracer.spans)  # children name their parent


# ---------------------------------------------------------------------------
# BENCHMARK.json and metrics.json agree with what the runs print


def test_declared_metrics_match_the_runs(lib):
    import json

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as handle:
        notes = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert set(notes["workloads"]) == set(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(notes["end_to_end"])

    wl = ready("cli_specs", lib)
    outcome, traced = run.traced(wl, lib, 0.5)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {k: unit for k, (_, unit) in traced.items()}
    documented = set()
    for name in notes["per_layer"]:
        if name.startswith("<layer>"):
            documented |= {f"{layer}{name[7:]}" for layer in
                           ("extreal", "lineset", "finset", "rectset", "sigma",
                            "measures", "product", "integration", "cli")}
        else:
            documented.add(name)
    assert documented == set(declared)

    wl = ready("finite_rings", lib)
    outcome, _ = run.closed_loop(wl, lib, 1.0)
    e2e = run.end_to_end(outcome, 0.01, 0.01)
    assert {k: unit for k, (_, unit) in e2e.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
