"""Reference implementations and checks that the library is held to."""

from continuum.binary_streams import EPBS, canonicalize
from continuum.dyadic import Dyadic


def dyadic_at(k: int) -> Dyadic:
    """The k-th dyadic point of the fixed enumeration (inverse of ``index_of``)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    exponent = (k + 1).bit_length()
    numerator = 2 * (k - ((1 << (exponent - 1)) - 1)) + 1
    return Dyadic(numerator, exponent)


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
