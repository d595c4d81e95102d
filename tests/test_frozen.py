"""The value-type contract that every ``Frozen`` subclass shares."""

from fractions import Fraction

import pytest

from sigma_product.extreal import INF, ExtNonNeg
from sigma_product.finset import FinSet
from sigma_product.frozen import Frozen
from sigma_product.integration import NEG_INF, IntegralReport, SimpleFunction
from sigma_product.lineset import (
    Cardinality,
    CountablePart,
    Interval,
    Progression,
    RealSet,
)
from sigma_product.rectset import RectUnion
from sigma_product.sigma import generate_sigma_ring

F = Fraction
GROUND = ("a", "b", "c")

# One instance of each value type; the first seven compare field-wise.
FIELDWISE = {
    "Interval": Interval(F(-1, 2), None, False, True),
    "Progression": Progression(F(1), F(3, 2)),
    "CountablePart": CountablePart((F(0),), (Progression(F(1), F(2)),)),
    "Cardinality": Cardinality("finite", 3),
    "RealSet": RealSet.interval(0, 1) | RealSet.points([5]),
    "FinSet": FinSet(GROUND, 0b101),
    "IntegralReport": IntegralReport(
        F(3, 2), INF, NEG_INF, "hypothesis-violated", "support is not sigma-finite"
    ),
}
CUSTOM = {
    "ExtNonNeg": ExtNonNeg(F(3, 2)),
    "SigmaRingFin": generate_sigma_ring(GROUND, [FinSet(GROUND, 0b011)]),
    "RectUnion": RectUnion.of((RealSet.interval(0, 1), RealSet.interval(0, 2))),
    "SimpleFunction": SimpleFunction.indicator(RealSet.interval(0, 1), F(2)),
}
INSTANCES = {**FIELDWISE, **CUSTOM}


def rebuilt(x, cls=None, **changes):
    """A fresh instance of x's class (or of cls) with x's fields, some
    replaced."""
    y = object.__new__(cls or type(x))
    for name in type(x).__slots__:
        object.__setattr__(y, name, changes.get(name, getattr(x, name)))
    return y


def test_eleven_value_types():
    assert len(INSTANCES) == 11
    for name, x in INSTANCES.items():
        assert type(x).__name__ == name
        assert isinstance(x, Frozen)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_assignment_raises(name):
    x = INSTANCES[name]
    for field in (type(x).__slots__[0], "extra"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(x, field, None)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_no_instance_dict(name):
    assert not hasattr(INSTANCES[name], "__dict__")


@pytest.mark.parametrize("name", sorted(FIELDWISE))
def test_fieldwise_equality_and_hash(name):
    x = FIELDWISE[name]
    fields = tuple(getattr(x, n) for n in type(x).__slots__)
    assert hash(x) == hash(fields)
    same = rebuilt(x)
    assert same is not x and same == x and hash(same) == hash(x)
    for field in type(x).__slots__:
        assert rebuilt(x, **{field: object()}) != x
    assert x.__eq__(fields) is NotImplemented
    assert x != fields
    twin = type("Twin", (Frozen,), {"__slots__": type(x).__slots__})
    assert x != rebuilt(x, twin)


def test_one_field_is_a_one_tuple():
    single = type("Single", (Frozen,), {"__slots__": ("value",)})
    x = object.__new__(single)
    object.__setattr__(x, "value", F(1, 2))
    assert hash(x) == hash((F(1, 2),)) and x == rebuilt(x)
    assert repr(x) == "Single(value=Fraction(1, 2))"


@pytest.mark.parametrize("name, text", [
    ("Interval", "Interval(lo=Fraction(-1, 2), hi=None, lo_open=False, hi_open=True)"),
    ("Progression", "Progression(base=Fraction(1, 1), step=Fraction(3, 2))"),
    ("Cardinality", "Cardinality(kind='finite', count=3)"),
    ("IntegralReport",
     "IntegralReport(product_value=Fraction(3, 2), iterated_sv=ExtNonNeg(inf), "
     "iterated_ts=-inf, verdict='hypothesis-violated', "
     "reason='support is not sigma-finite')"),
])
def test_fieldwise_repr(name, text):
    assert repr(FIELDWISE[name]) == text


def test_custom_equality_is_kept():
    assert ExtNonNeg(3) == 3 and hash(ExtNonNeg(3)) == hash(("ExtNonNeg", F(3)))
    ring = CUSTOM["SigmaRingFin"]
    ring.atoms()  # fills the atom cache, which equality ignores
    assert ring == generate_sigma_ring(GROUND, [FinSet(GROUND, 0b011)])
    ru = CUSTOM["RectUnion"]
    split = RectUnion.of(
        (RealSet.interval(0, 1), RealSet.interval(0, 1)),
        (RealSet.interval(0, 1), RealSet.interval(1, 2, lo_open=True)),
    )
    assert ru == split and ru.rects != split.rects
    f = CUSTOM["SimpleFunction"]
    assert f == rebuilt(f, universe=("other",))  # equality ignores the universe
    for x in (ru, f):
        with pytest.raises(TypeError):
            hash(x)
