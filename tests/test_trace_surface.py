"""Guard for the benchmark's per-layer view.

``perfbench/tracer.py`` wraps library functions and methods by name, so a
refactor that moves or renames one of them zeroes a per-layer metric
while every other check still passes.  This test installs that tracer,
runs one query through each layer it reports on, and checks that each
layer saw work, and that the grid counts of one Fubini check are exact.
It only reads ``perfbench/``.
"""

import io
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "perfbench"))

from common import import_library  # noqa: E402
from tracer import Tracer  # noqa: E402

LAYER_METRICS = (
    "cli.specs",
    "measures.evals",
    "product.rect_class.calls",
    "lineset.ops",
    "lineset.canonical_countable.calls",
    "rectset.refine_parts.calls",
    "integration.grid_cells",
    "integration.fubini_calls",
    "sigma.rings",
    "sigma.members",
    "finset.ops",
    "extreal.ops",
)


def test_each_traced_layer_sees_work():
    lib = import_library(with_cli=True)
    tracer = Tracer(lib)
    tracer.install()
    try:
        tracer.enabled = True
        spec = GOLDEN / "01_eval_lebesgue.spec"
        assert lib.cli.run_file(str(spec), "text", out=io.StringIO()) == 0
        RealSet, M = lib.lineset.RealSet, lib.measures
        pm = lib.product.ProductMeasure(M.LebesgueLine(), M.CountingLine())
        side = RealSet.interval(Fraction(0), Fraction(1))
        pm.evaluate(lib.rectset.RectUnion([(side, side | RealSet.points([Fraction(3)]))]))
        wide = RealSet.interval(Fraction(0), Fraction(2)) - RealSet.progression(Fraction(1), Fraction(1))
        f = lib.integration.SimpleFunction([
            (Fraction(1), lib.rectset.RectUnion([(side, side)])),
            (Fraction(2), lib.rectset.RectUnion([(wide, RealSet.points([Fraction(1, 2)]))])),
        ])
        lib.integration.fubini_check(f, pm.left, pm.right)
        one = lib.extreal.ExtNonNeg(1)
        lib.product.finite_product_measure(
            M.FiniteTabulated.power_set({"a": one, "b": one}),
            M.FiniteTabulated.power_set({"c": one}),
        )
        ground = ("a", "b", "c")
        FinSet = lib.finset.FinSet
        lib.sigma.generate_sigma_ring(ground, [FinSet.of(ground, "ab"), FinSet.of(ground, "bc")])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert not hasattr(lib.cli.run_file, "__wrapped__")
    metrics = tracer.metrics()
    assert {key: metrics[key] for key in LAYER_METRICS if not metrics[key] > 0} == {}


def test_traced_grid_cells_count_the_fubini_grid():
    lib = import_library(with_cli=False)
    RealSet, RectUnion = lib.lineset.RealSet, lib.rectset.RectUnion

    def iv(lo, hi):
        return RealSet.interval(Fraction(lo), Fraction(hi))

    f = lib.integration.SimpleFunction([
        (Fraction(1), RectUnion([(iv(0, 2), iv(0, 2))])),
        (Fraction(3), RectUnion([(iv(1, 3), iv(1, 3)), (iv(2, 4), iv(0, 1))])),
    ])
    rects = [rect for _, u in f.terms for rect in u.rects]
    a_parts, b_parts, _ = lib.rectset.rect_grid(rects)
    mu, nu = lib.measures.LebesgueLine(), lib.measures.CountingLine()
    tracer = Tracer(lib)
    tracer.install()
    try:
        tracer.enabled = True
        lib.integration.fubini_check(f, mu, nu)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert len(rects) >= 3 and len(a_parts) * len(b_parts) > len(rects)
    assert metrics["rectset.refine_parts.calls"] == 2
    assert metrics["rectset.refine_cells"] == len(a_parts) + len(b_parts)
    assert metrics["integration.grid_cells"] == len(a_parts) * len(b_parts)
