"""Reference implementations and checks that the library is held to."""

from fractions import Fraction

from continuum.binary_streams import EPBS, canonicalize
from continuum.dyadic import Dyadic
from continuum.finite_sets import FiniteSet, _require_cardinals, _witness_set, product


def dyadic_at(k: int) -> Dyadic:
    """The k-th dyadic point of the fixed enumeration (inverse of ``index_of``)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    exponent = (k + 1).bit_length()
    numerator = 2 * (k - ((1 << (exponent - 1)) - 1)) + 1
    return Dyadic(numerator, exponent)


def dyadic_value(point: Dyadic) -> Fraction:
    """The value (2v+1)/2^u of a dyadic point."""
    return Fraction(point.numerator, 1 << point.exponent)


def assert_born_canonical(stream: EPBS) -> None:
    """A stream the library built without ``EPBS``'s check is a valid canonical one.

    Its bits pass the check of the public constructor, canonicalizing that
    checked copy gives the stream back, and the stream itself is flagged,
    so ``canonicalize`` returns it as it is.
    """
    public = EPBS(stream.preamble, stream.period)
    assert stream == public
    assert canonicalize(public) == stream
    assert canonicalize(stream) is stream


def tagged_union(left: FiniteSet, right: FiniteSet) -> FiniteSet:
    """Disjointified union: labels are tagged ``L.``/``R.`` by side.

    Total on all inputs; the result always has ``len(left) + len(right)``
    elements.
    """
    return FiniteSet(tuple(f"L.{label}" for label in left) + tuple(f"R.{label}" for label in right))


def cardinal_add(a: int, b: int) -> int:
    """a + b as the size of a disjointified union of witness sets.

    The witnesses deliberately reuse the same labels, so the sum is only
    correct because it routes through :func:`tagged_union`.
    """
    _require_cardinals(a=a, b=b)
    return len(tagged_union(_witness_set(a), _witness_set(b)))


def cardinal_mul(a: int, b: int) -> int:
    """a * b as the size of the enumerated pair set."""
    _require_cardinals(a=a, b=b)
    return len(product(_witness_set(a), _witness_set(b)))
