"""Exact rationals on [0, 1] and the doubly-represented dyadic points.

A rational in (0, 1) has two binary expansions exactly when its reduced
denominator is a power of two, i.e. it is of the form (2v+1)/2^u. These
points are enumerated level by level (u ascending, then numerator
ascending: 1/2; 1/4, 3/4; 1/8, 3/8, ...), an order chosen because the
position of a point has the closed form ``2^(u-1) - 1 + v``.

Indices are 0-based everywhere. Each classification is a frozen value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._value import _Value
from .errors import OutOfRange, ParseError, _excerpt

_RATIONAL_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")


class Dyadic(_Value):
    """Classification: a point (2v+1)/2^u of (0, 1), with exactly two binary expansions.

    ``numerator`` is the odd number 2v+1; ``exponent`` is u >= 1.
    """

    __slots__ = __match_args__ = ("numerator", "exponent")

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("exponent must be >= 1")
        if self.numerator % 2 == 0:
            raise ValueError("numerator must be odd")
        if not 1 <= self.numerator < (1 << self.exponent):
            raise ValueError("value must lie strictly between 0 and 1")

    @property
    def odd_index(self) -> int:
        """v in numerator = 2v + 1."""
        return (self.numerator - 1) // 2


class Endpoint(_Value):
    """Classification: 0 or 1, each with a unique expansion."""

    __slots__ = __match_args__ = ("value",)

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("endpoint must be 0 or 1")


class OtherRational(_Value):
    """Classification: a uniquely-represented interior rational."""

    __slots__ = ()


def _integer(match: re.Match, group: int) -> int:
    digits = match.group(group)
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's limit on int() digits
        message = f"integer of {len(digits)} digits is too long"
        raise ParseError(message, position=match.start(group)) from None


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (nonnegative ASCII integers, q > 0)."""
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        prefix = _RATIONAL_RE.match(text)
        raise ParseError(
            f"not a rational literal: {_excerpt(text, repr)}",
            position=prefix.end() if prefix else 0,
        )
    numerator = _integer(match, 1)
    denominator = _integer(match, 2) if match.group(2) is not None else 1
    if denominator == 0:
        raise ParseError(f"zero denominator in {_excerpt(text, repr)}", position=match.start(2))
    return Fraction(numerator, denominator)


def ensure_unit_interval(q: Fraction | int) -> Fraction:
    """q as a ``Fraction`` in [0, 1]; anything but a ``Fraction`` or an int is refused.

    A float is refused rather than converted: ``Fraction(0.1)`` is the
    binary float nearest 1/10, not 1/10.
    """
    _unit_ratio(q)
    return q if isinstance(q, Fraction) else Fraction(q)


def _unit_ratio(q: Fraction | int) -> tuple[int, int]:
    # q's numerator and denominator, read once, refused as ensure_unit_interval refuses them.
    if not isinstance(q, (Fraction, int)):
        raise TypeError(f"expected a Fraction or an int, got {type(q).__name__}")
    numerator, denominator = q.as_integer_ratio()
    if not 0 <= numerator <= denominator:
        if max(abs(numerator), denominator) < 10**20:
            raise OutOfRange(f"{_excerpt(str(Fraction(numerator, denominator)))} is not in [0, 1]")
        bits = numerator.bit_length(), denominator.bit_length()  # a longer part is never written in decimal
        raise OutOfRange("a %d-bit numerator over a %d-bit denominator is not in [0, 1]" % bits)
    return numerator, denominator


def classify(q: Fraction) -> Dyadic | Endpoint | OtherRational:
    """Exactly one of: dual dyadic point, endpoint, other rational."""
    q = ensure_unit_interval(q)
    if q == 0 or q == 1:
        return Endpoint(int(q))
    if q.denominator & (q.denominator - 1) == 0:
        return Dyadic(q.numerator, q.denominator.bit_length() - 1)
    return OtherRational()


def index_of(point: Dyadic) -> int:
    """Position of ``point`` in the fixed enumeration (closed form)."""
    return (1 << (point.exponent - 1)) - 1 + point.odd_index
