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
    assert ExtNonNeg(3) == 3 and hash(ExtNonNeg(3)) == hash(3) == hash(F(3))
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


# -- measures and weight rules are values too

def _measures():
    """name -> a builder of one instance, called afresh on each use."""
    from sigma_product.measures import (
        ConstantWeights,
        CountableAtomic,
        CountingLine,
        DiracAt,
        FiniteTabulated,
        GeometricWeights,
        InfinityExtension,
        LebesgueLine,
    )
    from sigma_product.product import ProductMeasure
    from sigma_product.sigma import generate_sigma_algebra

    a, b = FinSet(GROUND, 0b001), FinSet(GROUND, 0b010)
    inner = generate_sigma_ring(GROUND, [a])
    outer = generate_sigma_algebra(GROUND, [a, b])
    L, C = LebesgueLine(), CountingLine()
    return {
        "LebesgueLine": LebesgueLine,
        "CountingLine": CountingLine,
        "DiracAt": lambda: DiracAt(F(1, 2)),
        "CountableAtomic": lambda: CountableAtomic(
            [(F(1, 2), ExtNonNeg(3))],
            [(Progression(F(0), F(1)), GeometricWeights(F(1), F(1, 2)))],
        ),
        "FiniteTabulated": lambda: FiniteTabulated(inner, {a: ExtNonNeg(2)}),
        "InfinityExtension": lambda: InfinityExtension(
            FiniteTabulated(inner, {a: ExtNonNeg(2)}), outer
        ),
        "SigmaFiniteComponent": lambda: L.sigma_finite_component(),
        "ProductMeasure": lambda: ProductMeasure(L, C),
        "ConstantWeights": lambda: ConstantWeights(INF),
        "GeometricWeights": lambda: GeometricWeights(F(1), F(1, 3)),
    }


MEASURES = _measures()


def rebuilt_fields(x, **changes):
    """A fresh instance of x's class with all of x's fields, bases' slots
    included, some replaced."""
    y = object.__new__(type(x))
    for name in type(x)._names:
        object.__setattr__(y, name, changes.get(name, getattr(x, name)))
    return y


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_measure_is_immutable(name):
    x = MEASURES[name]()
    assert type(x).__name__ == name and isinstance(x, Frozen)
    assert not hasattr(x, "__dict__")
    for field in type(x)._names + ("universe", "extra"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(x, field, None)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_measure_equal_by_definition(name):
    x, y = MEASURES[name](), MEASURES[name]()
    assert x is not y and x == y and hash(x) == hash(y)
    assert rebuilt_fields(x) == x
    for field in type(x)._names:
        assert rebuilt_fields(x, **{field: object()}) != x
    assert repr(x).startswith(f"{name}(") and repr(x) == repr(y)


def test_measures_differ_across_types():
    built = [make() for make in MEASURES.values()]
    for i, x in enumerate(built):
        assert [j for j, y in enumerate(built) if x == y] == [i]


def test_tables_equal_whatever_the_insertion_order():
    from sigma_product.measures import FiniteTabulated

    ring = generate_sigma_ring(GROUND, [FinSet(GROUND, 0b001), FinSet(GROUND, 0b010)])
    atoms = ring.atoms()
    weights = [ExtNonNeg(k) for k in range(len(atoms))]
    forward = FiniteTabulated(ring, dict(zip(atoms, weights)))
    backward = FiniteTabulated(ring, dict(reversed(list(zip(atoms, weights)))))
    assert forward == backward and hash(forward) == hash(backward)
    assert forward.atoms == tuple(atoms)


def test_fields_follow_the_bases_slots():
    ext = MEASURES["InfinityExtension"]()
    assert type(ext)._names == ("ring", "atoms", "weights", "inner")
    assert repr(ext).startswith("InfinityExtension(ring=SigmaRingFin(")
    assert ", inner=FiniteTabulated(" in repr(ext)
    table = rebuilt_fields(ext)
    plain = object.__new__(type(ext.inner))
    for name in type(ext.inner)._names:
        object.__setattr__(plain, name, getattr(table, name))
    assert plain != ext and ext == table  # the same table, not the same type


def test_a_class_with_no_fields_compares_by_type():
    empty = type("Empty", (Frozen,), {"__slots__": ()})
    other = type("Other", (Frozen,), {"__slots__": ()})
    assert empty() == empty() and hash(empty()) == hash(empty())
    assert empty() != other()
    assert repr(empty()) == "Empty()"
    with pytest.raises(AttributeError, match="^Empty is immutable$"):
        empty().value = 1


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_measures_pickle_and_copy(name):
    import copy
    import pickle

    x = MEASURES[name]()
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x) and y == x
        assert [getattr(y, n) for n in type(x)._names] == [getattr(x, n) for n in type(x)._names]


def test_report_with_neg_inf_pickles_and_copies():
    import copy
    import pickle

    report = FIELDWISE["IntegralReport"]
    for y in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert y == report and hash(y) == hash(report)
        assert y.iterated_ts == NEG_INF and repr(y.iterated_ts) == "-inf"
