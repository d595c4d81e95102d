"""Per-layer tracing installed from outside the library.

``Tracer.install`` replaces public functions and methods of each
``sigma_product`` module with wrappers.  A module-level function is
replaced in every module that holds it (``from ... import`` copies the
reference), so no call bypasses the wrapper.  Span wrappers record a span
(name, start, end, parent span, query id) and accumulate self time: the
span's duration minus the time its child spans cover.  The wrapper's own
bookkeeping runs outside the span and is charged to the parent as child
time, so it does not inflate any layer's self time.  Count wrappers only
count; they serve layers whose calls are too fine to time.

A layer is *entered* when a span starts whose parent span belongs to
another layer (or to no layer).  Exceptions leaving an entered span are
counted per layer, library errors apart from other exceptions.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter_ns

LAYERS = (
    "extreal", "lineset", "finset", "rectset", "sigma",
    "measures", "product", "integration", "cli",
)

SPAN_CAP = 50_000  # spans kept for the trace file; counters see them all


class Frame:
    __slots__ = ("layer", "name", "span_id", "child", "extra", "entry")

    def __init__(self, layer, name, span_id, entry):
        self.layer = layer
        self.name = name
        self.span_id = span_id
        self.child = 0
        self.extra = None
        self.entry = entry


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.enabled = False
        self.query_id = 0
        self.stack = []
        self.spans = []
        self.span_count = 0
        self.next_id = 1
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.incl_ns = {}  # span name -> inclusive ns
        self.calls = {}  # span or count name -> calls
        self.entries = {}  # span name -> calls entering the layer
        self.errors_expected = {layer: 0 for layer in LAYERS}
        self.errors_failed = {layer: 0 for layer in LAYERS}
        self.c = {}  # named counters filled by hooks
        self.seen_line_ops = set()
        self.seen_evals = set()
        self.alive = {}  # keeps measures referenced by id in seen_evals
        self.in_line_op = 0
        self.in_pm_entry = 0
        self._patches = []

    # -- bookkeeping ------------------------------------------------------

    def bump(self, key, n=1):
        self.c[key] = self.c.get(key, 0) + n

    def _span(self, layer, name, fn, pre=None, post=None):
        tracer = self
        error_base = self.lib.errors.SigmaProductError

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            w0 = perf_counter_ns()
            stack = tracer.stack
            parent = stack[-1] if stack else None
            entry = parent is None or parent.layer != layer
            frame = Frame(layer, name, tracer.next_id, entry)
            tracer.next_id += 1
            if pre is not None:
                args = pre(tracer, frame, args, kwargs)
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter_ns()
                stack.pop()
                tracer._close(frame, parent, t0, t1)
                if entry:
                    if isinstance(exc, error_base):
                        tracer.errors_expected[layer] += 1
                    else:
                        tracer.errors_failed[layer] += 1
                if post is not None:
                    post(tracer, frame, args, None, exc)
                if parent is not None:
                    parent.child += perf_counter_ns() - w0
                raise
            t1 = perf_counter_ns()
            stack.pop()
            tracer._close(frame, parent, t0, t1)
            if post is not None:
                post(tracer, frame, args, result, None)
            if parent is not None:
                parent.child += perf_counter_ns() - w0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, parent, t0, t1):
        dur = t1 - t0
        name = frame.name
        self.self_ns[frame.layer] += dur - frame.child
        self.incl_ns[name] = self.incl_ns.get(name, 0) + dur
        self.calls[name] = self.calls.get(name, 0) + 1
        if frame.entry:
            self.entries[name] = self.entries.get(name, 0) + 1
        self.span_count += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame.span_id, parent.span_id if parent else 0, self.query_id, name, t0, t1)
            )

    def _count(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "sigma_product" or n.startswith("sigma_product."))]

    def patch_function(self, module, attr, wrap):
        """Replace module.attr in every sigma_product module holding it."""
        original = getattr(module, attr)
        wrapper = wrap(original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, wrap):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(wrap(raw.__func__))
        else:
            wrapper = wrap(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        self.enabled = False
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def install(self):
        L = self.lib
        span, count = self._span, self._count

        def spanf(layer, name, pre=None, post=None):
            return lambda fn: span(layer, f"{layer}.{name}", fn, pre, post)

        def countf(layer, name):
            return lambda fn: count(f"{layer}.{name}", fn)

        # extreal and finset: counts only
        for attr in ("__add__", "__radd__", "__mul__", "__rmul__"):
            self.patch_method(L.extreal.ExtNonNeg, attr, countf("extreal", attr))
        for attr in ("sum_series", "ext_sum"):
            self.patch_function(L.extreal, attr, countf("extreal", attr))
        for attr in ("__or__", "__and__", "__sub__", "__le__", "of", "empty", "full"):
            self.patch_method(L.finset.FinSet, attr, countf("finset", attr))
        for attr in ("product_set", "product_ground"):
            self.patch_function(L.finset, attr, countf("finset", attr))

        # lineset
        RealSet = L.lineset.RealSet
        for attr in ("__and__", "__or__", "__sub__"):
            self.patch_method(RealSet, attr, spanf("lineset", attr, _line_op_pre, _line_op_post))
        self.patch_method(RealSet, "complement",
                          spanf("lineset", "complement", _line_op_pre, _line_op_post))
        for attr in ("interval", "points", "progression", "empty", "line", "member",
                     "cardinality", "interval_length", "meet_countable", "__le__"):
            self.patch_method(RealSet, attr, spanf("lineset", attr))
        self.patch_function(L.lineset, "canonical_countable",
                            lambda fn: self._canon_counter(fn))

        # rectset
        RectUnion = L.rectset.RectUnion
        self.patch_method(RectUnion, "__init__", spanf("rectset", "RectUnion", _rect_init_pre, _rect_init_post))
        for attr in ("__and__", "__sub__", "__or__", "__eq__", "member"):
            self.patch_method(RectUnion, attr, spanf("rectset", attr))
        self.patch_function(L.rectset, "rect_disjointify", spanf("rectset", "rect_disjointify"))
        self.patch_function(L.rectset, "refine_parts", spanf("rectset", "refine_parts", None, _refine_post))

        # sigma
        for attr in ("generate_sigma_ring", "generate_sigma_algebra",
                     "product_sigma_ring", "product_sigma_ring_n"):
            self.patch_function(L.sigma, attr, spanf("sigma", attr, None, _ring_post))
        for attr in ("has_simple_extension_property", "restrict_family"):
            self.patch_function(L.sigma, attr, spanf("sigma", attr))
        for attr in ("restrict", "atoms", "sets"):
            self.patch_method(L.sigma.SigmaRingFin, attr, spanf("sigma", attr))

        # measures
        M = L.measures
        for cls in (M.LebesgueLine, M.CountingLine, M.DiracAt, M.CountableAtomic,
                    M.FiniteTabulated, M.SigmaFiniteComponent, M.InfinityExtension):
            for attr in ("measure", "finiteness"):
                if attr in cls.__dict__:
                    self.patch_method(cls, attr, spanf(
                        "measures", f"{cls.__name__}.{attr}", None, _eval_post))
        for cls, attr in ((M.FiniteTabulated, "__init__"), (M.FiniteTabulated, "power_set"),
                          (M.FiniteTabulated, "finite_part_ring"),
                          (M.InfinityExtension, "__init__"), (M.CountableAtomic, "__init__")):
            self.patch_method(cls, attr, spanf("measures", f"{cls.__name__}.{attr}"))

        # product
        P = L.product
        for attr in ("measure", "set_class", "finiteness"):
            self.patch_method(P.ProductMeasure, attr,
                              spanf("product", attr, _pm_eval_pre, _pm_eval_post))
        self.patch_method(P.ProductMeasure, "rect_class", spanf("product", "rect_class", None, _rect_class_post))
        self.patch_function(P, "product3_eval", spanf("product", "product3_eval"))
        self.patch_function(P, "finite_product_measure", spanf("product", "finite_product_measure"))

        # integration
        I = L.integration
        self.patch_method(I.SimpleFunction, "__init__", spanf("integration", "SimpleFunction"))
        self.patch_function(I, "fubini_check", spanf("integration", "fubini_check", _grid_pre, _fubini_post))
        self.patch_function(I, "tensor_functional", spanf("integration", "tensor_functional", _grid_pre, _grid_post))
        for attr in ("integrate", "extended_integral", "is_integrable", "ae_equal"):
            self.patch_function(I, attr, spanf("integration", attr))

        # cli (only present when a workload imported it)
        C = getattr(L, "cli", None)
        if C is not None:
            for attr in ("run_file", "parse_spec", "run_document"):
                self.patch_function(C, attr, spanf("cli", attr))

    def _canon_counter(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.bump("lineset.canonical_countable.calls")
                if tracer.in_line_op:
                    tracer.bump("lineset.canon_in_ops")
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self):
        c, calls, incl = self.c, self.calls, self.incl_ns

        def get(key):
            return c.get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        def s(ns):
            return ns / 1e9

        line_ops = get("lineset.ops")
        evals = get("measures.evals")
        pm_rects = get("product.entry_rects")
        members = get("sigma.members")
        sigma_self = s(self.self_ns["sigma"])
        m = {
            "lineset.ops": line_ops,
            "lineset.self_s": s(self.self_ns["lineset"]),
            "lineset.canonical_countable.calls": get("lineset.canonical_countable.calls"),
            "lineset.canon_per_op": ratio(get("lineset.canon_in_ops"), line_ops),
            "lineset.repeat_ratio": ratio(get("lineset.repeats"), line_ops),
            "rectset.ops": sum(v for k, v in self.entries.items() if k.startswith("rectset.")),
            "rectset.self_s": s(self.self_ns["rectset"]),
            "rectset.pieces_in": get("rectset.pieces_in"),
            "rectset.pieces_out": get("rectset.pieces_out"),
            "rectset.refine_parts.calls": calls.get("rectset.refine_parts", 0),
            "rectset.refine_cells": get("rectset.refine_cells"),
            "measures.evals": evals,
            "measures.self_s": s(self.self_ns["measures"]),
            "measures.repeat_ratio": ratio(get("measures.repeats"), evals),
            "product.evals": get("product.evals"),
            "product.self_s": s(self.self_ns["product"]),
            "product.rect_class.calls": calls.get("product.rect_class", 0),
            "product.rect_class_per_rect": ratio(get("product.entry_rect_class"), pm_rects),
            "product.assoc_checks": calls.get("product.product3_eval", 0),
            "integration.fubini_calls": calls.get("integration.fubini_check", 0),
            "integration.self_s": s(self.self_ns["integration"]),
            "integration.level_set_s": s(incl.get("integration.SimpleFunction", 0)),
            "integration.grid_cells": get("integration.grid_cells"),
            "integration.verdict.all-equal": get("integration.verdict.all-equal"),
            "integration.verdict.hypothesis-violated": get("integration.verdict.hypothesis-violated"),
            "sigma.rings": get("sigma.rings"),
            "sigma.members": members,
            "sigma.self_s": sigma_self,
            "sigma.members_per_s": ratio(members, sigma_self),
            "sigma.ext_checks": calls.get("sigma.has_simple_extension_property", 0),
            "finset.ops": sum(v for k, v in calls.items() if k.startswith("finset.")),
            "extreal.ops": sum(v for k, v in calls.items() if k.startswith("extreal.")),
            "cli.specs": calls.get("cli.run_file", 0),
            "cli.parse_s": s(incl.get("cli.parse_spec", 0)),
            "cli.run_s": s(incl.get("cli.run_document", 0)),
            "trace.spans": self.span_count,
        }
        for layer in LAYERS:
            m[f"{layer}.errors_expected"] = self.errors_expected[layer]
            m[f"{layer}.errors_failed"] = self.errors_failed[layer]
        return m

    def write_spans(self, path):
        """Write the kept spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, parent_id, qid, name, t0, t1 in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent_id, "query": qid,
                    "name": name, "start_ns": t0, "end_ns": t1,
                }) + "\n")


# ---------------------------------------------------------------------------
# Hooks: pre(tracer, frame, args, kwargs) -> args, post(tracer, frame, args, result, exc)


def _line_op_pre(tracer, frame, args, kwargs):
    if frame.entry:
        tracer.in_line_op += 1
    return args


def _line_op_post(tracer, frame, args, result, exc):
    if not frame.entry:
        return
    tracer.in_line_op -= 1
    tracer.bump("lineset.ops")
    key = (frame.name,) + tuple(args)
    if key in tracer.seen_line_ops:
        tracer.bump("lineset.repeats")
    else:
        tracer.seen_line_ops.add(key)


def _rect_init_pre(tracer, frame, args, kwargs):
    # RectUnion(self, rects, left_universe=None, right_universe=None, _canonical=False)
    canonical = kwargs.get("_canonical", len(args) >= 5 and args[4])
    if len(args) >= 2 and not canonical:
        rects = list(args[1])
        frame.extra = len(rects)
        args = (args[0], rects) + tuple(args[2:])
    return args


def _rect_init_post(tracer, frame, args, result, exc):
    if frame.extra is not None and exc is None:
        tracer.bump("rectset.pieces_in", frame.extra)
        tracer.bump("rectset.pieces_out", len(args[0].rects))


def _refine_post(tracer, frame, args, result, exc):
    if exc is not None:
        return
    tracer.bump("rectset.refine_cells", len(result))
    parent = tracer.stack[-1] if tracer.stack else None
    if parent is not None and parent.extra is not None and parent.name in (
        "integration.fubini_check", "integration.tensor_functional",
    ):
        parent.extra.append(len(result))


def _grid_pre(tracer, frame, args, kwargs):
    frame.extra = []
    return args


def _grid_post(tracer, frame, args, result, exc):
    sizes = frame.extra
    for a, b in zip(sizes[0::2], sizes[1::2]):
        tracer.bump("integration.grid_cells", a * b)


def _fubini_post(tracer, frame, args, result, exc):
    _grid_post(tracer, frame, args, result, exc)
    if exc is None:
        tracer.bump(f"integration.verdict.{result.verdict}")


def _ring_post(tracer, frame, args, result, exc):
    if frame.entry and exc is None:
        tracer.bump("sigma.rings")
        tracer.bump("sigma.members", len(result))


def _eval_post(tracer, frame, args, result, exc):
    if not frame.entry:
        return
    tracer.bump("measures.evals")
    measure, target = args[0], args[1]
    try:
        key = (id(measure), frame.name, target)
        hash(key)
    except TypeError:
        return
    tracer.alive[id(measure)] = measure
    if key in tracer.seen_evals:
        tracer.bump("measures.repeats")
    else:
        tracer.seen_evals.add(key)


def _pm_eval_pre(tracer, frame, args, kwargs):
    if frame.entry:
        tracer.in_pm_entry += 1
        tracer.bump("product.evals")
        tracer.bump("product.entry_rects", len(args[1].rects))
    return args


def _pm_eval_post(tracer, frame, args, result, exc):
    if frame.entry:
        tracer.in_pm_entry -= 1


def _rect_class_post(tracer, frame, args, result, exc):
    if tracer.in_pm_entry:
        tracer.bump("product.entry_rect_class")
