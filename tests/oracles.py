"""Reference implementations that the library is checked against."""

from continuum.dyadic import Dyadic


def dyadic_at(k: int) -> Dyadic:
    """The k-th dyadic point of the fixed enumeration (inverse of ``index_of``)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    exponent = (k + 1).bit_length()
    numerator = 2 * (k - ((1 << (exponent - 1)) - 1)) + 1
    return Dyadic(numerator, exponent)
