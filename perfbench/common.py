"""Shared pieces of the workloads: the library handle, seeded streams and
small value conversions."""

from __future__ import annotations

import importlib
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")  # spec files, spans

MODULES = (
    "errors", "extreal", "lineset", "finset", "rectset", "sigma",
    "measures", "product", "integration", "oracle",
)


def purge_library() -> None:
    for name in list(sys.modules):
        if name == "sigma_product" or name.startswith("sigma_product."):
            del sys.modules[name]


def import_library(with_cli: bool) -> SimpleNamespace:
    """Import the package and return its modules by short name.  Workloads
    call through module attributes at call time, so wrappers installed
    later are seen."""
    lib = SimpleNamespace(pkg=importlib.import_module("sigma_product"))
    for name in MODULES + (("cli",) if with_cli else ()):
        setattr(lib, name, importlib.import_module(f"sigma_product.{name}"))
    return lib


def stream_rng(workload: str, seed: int, purpose: str) -> random.Random:
    """A random source that depends only on the workload, seed and purpose."""
    return random.Random(f"{workload}:{seed}:{purpose}")


def zipf_index(rng: random.Random, n: int, s: float = 1.1) -> int:
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    return rng.choices(range(n), weights=weights)[0]


def ext_value(v):
    """An ExtNonNeg as a Fraction, or None for infinity."""
    return v.finite if v.is_finite else None


def error_kind(exc):
    """The kind token of a library error, or None."""
    return getattr(exc, "kind", None)


def value_key(v):
    """Normalize the values an IntegralReport can hold: a Fraction, an
    ExtNonNeg, negative infinity or None (an undefined inf - inf)."""
    if v is None:
        return ("undefined",)
    name = type(v).__name__
    if name == "_NegativeInfinity":
        return ("-inf",)
    if name == "ExtNonNeg":
        return ("q", v.finite) if v.is_finite else ("inf",)
    return ("q", Fraction(v))


class Query:
    """One generated input.  ``data`` holds plain Python values only."""

    __slots__ = ("index", "kind", "data")

    def __init__(self, index: int, kind, data):
        self.index = index
        self.kind = kind
        self.data = data

    def __repr__(self):
        return f"Query({self.index}, {self.kind!r}, {self.data!r})"


class Workload:
    """Base class: subclasses fill in the generator, setup, run and check."""

    name = ""
    uses_cli = False
    schedule: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        # The fixed objects built at setup are the same for every seed;
        # the seed drives the query stream only.
        self.fixed_rng = random.Random(f"{self.name}:fixed")

    def queries(self):
        rng = stream_rng(self.name, self.seed, "queries")
        index = 0
        while True:
            entry = self.schedule[index % len(self.schedule)]
            kind = entry[0] if isinstance(entry, tuple) else entry
            yield Query(index, kind, self.make(entry, rng))
            index += 1

    def make(self, kind: str, rng: random.Random):
        raise NotImplementedError

    def setup(self, lib) -> None:
        self.lib = lib

    def prepare(self, q: Query) -> None:
        """Untimed work that must precede the timed call."""

    def run(self, q: Query):
        raise NotImplementedError

    def check(self, q: Query, result, exc) -> str | None:
        """None when the answer is right, else a one-line reason.  ``exc``
        is the library error the query raised, if any."""
        raise NotImplementedError

    def finish(self) -> str | None:
        """Workload-level sanity check after the run."""
        return None
