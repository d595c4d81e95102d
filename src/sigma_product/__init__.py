"""Exact measure products on representable spaces.

The package provides exact extended-real arithmetic, a symbolic set
calculus for the real line and finite grounds, explicit sigma-ring
machinery, measures with sigma-finite classification, products of
arbitrary measures, simple-function integration with a Fubini-Tonelli
checker, and a deterministic CLI front end.
"""

from sigma_product.errors import (
    NotIntegrable,
    NotMeasurable,
    NotSimpleTensor,
    ParseError,
    PropertyViolated,
    SigmaProductError,
    SizeLimit,
    UniverseMismatch,
    UnresolvedName,
)
from sigma_product.extreal import (
    INF,
    ZERO,
    ExtNonNeg,
    Rational,
    sum_series,
)
from sigma_product.finset import FinSet, product_ground, product_set
from sigma_product.integration import (
    IntegralReport,
    SimpleFunction,
    ae_equal,
    extended_integral,
    fubini_check,
    integrate,
    is_integrable,
    tensor_functional,
)
from sigma_product.lineset import CountablePart, Interval, Progression, RealSet
from sigma_product.measures import (
    ConstantWeights,
    CountableAtomic,
    CountingLine,
    DiracAt,
    FiniteTabulated,
    FinitenessClass,
    GeometricWeights,
    InfinityExtension,
    LebesgueLine,
    Measure,
    SigmaFiniteComponent,
)
from sigma_product.product import ProductMeasure, finite_product_measure, product3_eval
from sigma_product.rectset import RectUnion, rect_disjointify
from sigma_product.sigma import (
    SigmaRingFin,
    generate_sigma_algebra,
    generate_sigma_ring,
    has_simple_extension_property,
    product_sigma_ring,
    product_sigma_ring_n,
    restrict_family,
)

__all__ = [
    "ConstantWeights",
    "CountableAtomic",
    "CountablePart",
    "CountingLine",
    "DiracAt",
    "ExtNonNeg",
    "FinSet",
    "FiniteTabulated",
    "FinitenessClass",
    "GeometricWeights",
    "INF",
    "InfinityExtension",
    "IntegralReport",
    "Interval",
    "LebesgueLine",
    "Measure",
    "NotIntegrable",
    "NotMeasurable",
    "NotSimpleTensor",
    "ParseError",
    "ProductMeasure",
    "Progression",
    "PropertyViolated",
    "Rational",
    "RealSet",
    "RectUnion",
    "SigmaFiniteComponent",
    "SigmaProductError",
    "SigmaRingFin",
    "SimpleFunction",
    "SizeLimit",
    "UniverseMismatch",
    "UnresolvedName",
    "ZERO",
    "ae_equal",
    "extended_integral",
    "finite_product_measure",
    "fubini_check",
    "generate_sigma_algebra",
    "generate_sigma_ring",
    "has_simple_extension_property",
    "integrate",
    "is_integrable",
    "product3_eval",
    "product_ground",
    "product_set",
    "product_sigma_ring",
    "product_sigma_ring_n",
    "rect_disjointify",
    "restrict_family",
    "sum_series",
    "tensor_functional",
]
