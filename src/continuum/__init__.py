"""Executable set theory around the size of the unit interval.

Four layers, each fully computable:

* :mod:`continuum.finite_sets` -- finite sets, covering-sets, cardinal
  arithmetic by enumeration, exponent-law witnesses.
* :mod:`continuum.dyadic` -- exact rationals on [0, 1] and the
  indexing of the doubly-represented dyadic points.
* :mod:`continuum.binary_streams` -- eventually periodic binary streams
  with exact valuation, canonical forms and dual-representation pairing.
* :mod:`continuum.bijection` -- the explicit Hilbert-hotel bijection
  between canonical streams and all streams, plus a machine-checked
  derivation trace.

:mod:`continuum.cli` exposes everything as batch subcommands.
"""

from .bijection import (
    DerivationStep,
    DerivationTrace,
    derivation_trace,
    forward,
    inverse,
    s_enumerate,
    s_index,
    t_enumerate,
    t_index,
)
from .binary_streams import (
    EPBS,
    StreamClass,
    canonicalize,
    classify_stream,
    dual_of,
    enumerate_canonical,
    enumerate_streams,
    expansions_of,
    parse_stream,
    value,
)
from .dyadic import (
    Dyadic,
    Endpoint,
    OtherRational,
    PointClass,
    classify,
    index_of,
    parse_rational,
)
from .errors import (
    BudgetExceeded,
    DisjointnessViolation,
    DomainViolation,
    OutOfRange,
    ParseError,
)
from .finite_sets import (
    Covering,
    CoveringSet,
    FiniteSet,
    LAW_IDS,
    LawWitness,
    cardinal_add,
    cardinal_mul,
    cardinal_pow,
    covering_set,
    disjoint_union,
    make_set,
    product,
    tagged_union,
    verify_exponent_law,
)

__all__ = [
    "BudgetExceeded",
    "Covering",
    "CoveringSet",
    "DerivationStep",
    "DerivationTrace",
    "DisjointnessViolation",
    "DomainViolation",
    "Dyadic",
    "EPBS",
    "Endpoint",
    "FiniteSet",
    "LAW_IDS",
    "LawWitness",
    "OtherRational",
    "OutOfRange",
    "ParseError",
    "PointClass",
    "StreamClass",
    "canonicalize",
    "cardinal_add",
    "cardinal_mul",
    "cardinal_pow",
    "classify",
    "classify_stream",
    "covering_set",
    "derivation_trace",
    "disjoint_union",
    "dual_of",
    "enumerate_canonical",
    "enumerate_streams",
    "expansions_of",
    "forward",
    "index_of",
    "inverse",
    "make_set",
    "parse_rational",
    "parse_stream",
    "product",
    "s_enumerate",
    "s_index",
    "t_enumerate",
    "t_index",
    "tagged_union",
    "value",
    "verify_exponent_law",
]

__version__ = "0.1.0"
