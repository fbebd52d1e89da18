"""Eventually periodic binary streams, written ``preamble(period)``.

Bits are the characters ``"0"`` and ``"1"`` everywhere, in the library
as in the literal: ``parse_stream("011(0)") == EPBS("011", "0")``, a
frozen value compared and hashed on its two parts.

These are exactly the binary expansions of rationals, so they form the computable fragment of
the space of all infinite 0/1 strings: values are exact, equality is decidable (via a canonical
form), and the trailing-zeros / trailing-ones duplicate pair of each dyadic point can be
constructed and recognized.

Valuation reads the stream as digits after the binary point:
``value = int(preamble) / 2^L + int(period) / (2^L * (2^P - 1))``
with L, P the lengths, which is the closed form of bit 1 at weight 1/2,
bit 2 at weight 1/4, and so on.

Class split of the stream universe:

* ``InBS`` -- the redundant trailing-ones duplicates: eventually all 1s
  *and* containing a 0 (the second expansion of a dyadic point < 1).
* ``InBX`` -- everything else, i.e. the canonical representations of
  the unit interval, including ``(0)`` for 0 and ``(1)`` for 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction

from ._value import _Value
from .dyadic import ensure_unit_interval
from .errors import ParseError

# ``text.translate(_NOT_BITS)`` is ``text`` without its bits, in one pass in C.
_NOT_BITS = str.maketrans("", "", "01")


class EPBS(_Value):
    """An eventually periodic bit stream: finite preamble, repeating block, both strings of ``"0"`` and ``"1"``.

    ``_canonical``, set on what :func:`canonicalize` and :func:`_built` return, takes no part in equality,
    hashing, the repr or a copy. Equality and hashing are spelled out: a trace compares streams often.
    """

    __match_args__ = ("preamble", "period")
    __slots__ = (*__match_args__, "_canonical")

    def __init__(self, preamble: str, period: str):
        _set_preamble(self, preamble)
        _set_period(self, period)
        _set_canonical(self, False)
        self.__post_init__()

    def __eq__(self, other):
        return self.preamble == other.preamble and self.period == other.period if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.preamble, self.period))

    def __post_init__(self):
        preamble, period = self.preamble, self.period
        if not (isinstance(preamble, str) and isinstance(period, str)):
            part = period if isinstance(preamble, str) else preamble
            raise ValueError(f"bits must be a string of '0' and '1', got {part!r}")
        # This check is what makes ``int(part, 2)`` safe: ``int`` would
        # also accept "_", whitespace and non-ASCII digits.
        bad = preamble.translate(_NOT_BITS) or period.translate(_NOT_BITS)
        if bad:
            raise ValueError(f"bits must be '0' or '1', got {bad[0]!r}")
        if not period:
            raise ValueError("period must be nonempty")

    @property
    def size(self) -> int:
        return len(self.preamble) + len(self.period)

    def __str__(self) -> str:  # the literal that parse_stream reads back
        return f"{self.preamble}({self.period})"


class StreamClass(Enum):
    IN_BX = "InBX"
    IN_BS = "InBS"


# Bound once: reading an Enum member takes ~100 ns on Python 3.11, and object.__setattr__ looks up each slot by name.
_IN_BS, _IN_BX = StreamClass.IN_BS, StreamClass.IN_BX
_set_preamble, _set_period, _set_canonical = EPBS.preamble.__set__, EPBS.period.__set__, EPBS._canonical.__set__


def _built(preamble: str, period: str) -> EPBS:
    """A canonical stream from bits the library wrote, past EPBS's check."""
    stream = object.__new__(EPBS)
    _set_preamble(stream, preamble)
    _set_period(stream, period)
    _set_canonical(stream, True)
    return stream


def parse_stream(text: str) -> EPBS:
    """Parse a ``bits(bits)`` literal; period part must be nonempty.

    The bits are checked by :class:`EPBS` alone. Only a literal it
    refuses, or one without its ``)``, is read again, to name its first
    fault and that fault's position.
    """
    open_at = text.find("(")
    if open_at < 0:
        raise ParseError("missing '(' in stream literal", position=len(text))
    preamble, body = text[:open_at], text[open_at + 1 : -1]
    if text.endswith(")"):
        try:
            return EPBS(preamble, body)
        except ValueError:
            pass
    bad = preamble.translate(_NOT_BITS)
    if bad:
        raise ParseError(f"invalid preamble character {bad[0]!r}", position=preamble.find(bad[0]))
    if not text.endswith(")"):
        raise ParseError("missing ')' in stream literal", position=len(text))
    if not body:
        raise ParseError("period must be nonempty", position=open_at + 1)
    bad = body.translate(_NOT_BITS)  # not empty: EPBS refused these parts
    raise ParseError(f"invalid period character {bad[0]!r}", position=open_at + 1 + body.find(bad[0]))


def _primitive(period: str) -> str:
    # The first place a word recurs in itself doubled is its smallest period.
    return period[: (period + period).find(period, 1)]


def _absorbable(preamble: str, period: str) -> int:
    """How many trailing preamble bits continue the period backwards.

    The preamble is compared with the period repeated leftwards, so the
    first difference from the right is the lowest set bit of their XOR.
    """
    length = len(preamble)
    continued = (period * (length // len(period) + 1))[-length:]
    difference = (int(preamble, 2) ^ int(continued, 2)) | 1 << length  # no difference below it: all bits continue
    return (difference & -difference).bit_length() - 1


def canonicalize(stream: EPBS) -> EPBS:
    """The unique minimal representation of the same infinite stream.

    The period is reduced to its primitive block, then preamble bits
    equal to the period's last bit are absorbed by rotating the period,
    all of them in one slice and one rotation. Two streams are
    bit-for-bit equal iff their canonical forms are structurally equal.
    A stream that is already canonical is returned itself, not a copy,
    and one flagged canonical before costs one attribute read.
    """
    if stream._canonical:
        return stream
    preamble = stream.preamble
    period = _primitive(stream.period)
    if preamble and preamble[-1] == period[-1]:
        absorbed = _absorbable(preamble, period)
        preamble = preamble[: len(preamble) - absorbed]
        cut = len(period) - absorbed % len(period)
        period = period[cut:] + period[:cut]
    if preamble != stream.preamble or period != stream.period:
        return _built(preamble, period)  # slices of bits already checked
    _set_canonical(stream, True)
    return stream


def value(stream: EPBS) -> Fraction:
    """Exact value of the stream as digits after the binary point."""
    preamble, period = stream.preamble, stream.period
    cycle = (1 << len(period)) - 1
    numerator = int(preamble or "0", 2) * cycle + int(period, 2)
    return Fraction(numerator, cycle << len(preamble))


@functools.lru_cache(maxsize=1024)
def _order_of_two(modulus: int) -> int:
    """The multiplicative order of 2 modulo an odd ``modulus`` > 1.

    A baby-step giant-step search in O(sqrt(modulus)) time and memory,
    where plain doubling takes up to ``modulus - 1`` steps. With
    s = isqrt(modulus):

    * Baby steps: double up to s times, so an order <= s costs what
      plain doubling costs, and table each 2^j, 0 <= j <= s, by residue.
    * Giant steps: an order > s makes 2^0 .. 2^s distinct, so the table
      holds each once. Block i = 1, 2, ... looks up 2^(-i(s+1)); a hit
      at 2^j means 2^(i(s+1) + j) = 1. Block i holds the s + 1 exponents
      from i(s+1), at most one multiple of an order > s, so the first hit
      is the order. It is below modulus < (s+1)^2: at most s blocks.

    The memo keeps one int per modulus: the trace's tens of thousands of
    expansions meet only a few dozen moduli.
    """
    stride = math.isqrt(modulus) + 1
    table, residue = {1: 0}, 1
    for exponent in range(1, stride):
        residue = residue * 2 % modulus
        if residue == 1:
            return exponent
        table[residue] = exponent
    giant = pow(residue * 2, -1, modulus)
    block, target = 1, giant
    while target not in table:
        block, target = block + 1, target * giant % modulus
    return block * stride + table[target]


def period_bound(q: Fraction) -> int:
    """b' - 1 for reduced q = a/b with b = 2^k * b' and b' odd.

    The period of q's expansion has ord_b'(2) <= b' - 1 bits, so this
    bounds it before the order is searched; it is 0 for a dyadic q. A q
    outside [0, 1] is refused first, as :func:`expansions_of` refuses it.
    """
    denominator = ensure_unit_interval(q).denominator
    return (denominator >> ((denominator & -denominator).bit_length() - 1)) - 1


def expansions_of(q: Fraction) -> list[EPBS]:
    """Every binary expansion of q, canonical, trailing-zeros form first.

    Interior dyadic points get two (trailing 0s, then trailing 1s);
    everything else in [0, 1], including both endpoints, gets one.

    For reduced a/b < 1 with b = 2^k * b' and b' odd, the preamble has k
    bits and the period P = ord_b'(2) bits; together they are the k + P
    bits of X = a * (2^P - 1) / b', split as X div (2^P - 1) and
    X mod (2^P - 1). A dyadic q has b' = 1 and the one-bit period ``(0)``;
    its second expansion is the :func:`dual_of` of the first.
    """
    numerator, denominator = ensure_unit_interval(q).as_integer_ratio()
    if numerator == denominator:
        return [_built("", "1")]
    pre_len = (denominator & -denominator).bit_length() - 1
    odd = denominator >> pre_len
    per_len = _order_of_two(odd) if odd > 1 else 1
    cycle = (1 << per_len) - 1
    head, tail = divmod(numerator * (cycle // odd), cycle)
    bits = format(head << per_len | tail, "b").zfill(pre_len + per_len)
    # Canonical: P is minimal, and a k-bit preamble ending as the period does would make b divide 2^(k-1)(2^P-1).
    first = _built(bits[:pre_len], bits[pre_len:])
    dual = dual_of(first) if odd == 1 else None  # only a dyadic point may have two
    return [first] if dual is None else [first, dual]


def classify_stream(stream: EPBS) -> StreamClass:
    """``InBS`` iff the stream is eventually all 1s and contains a 0.

    Those are exactly the redundant second expansions of dyadic points
    below 1; ``(1)`` itself (value 1) and ``(0)`` (value 0) are ``InBX``.
    """
    canonical = canonicalize(stream)
    if canonical.period == "1" and canonical.preamble:
        return _IN_BS
    return _IN_BX


def dual_of(stream: EPBS) -> EPBS | None:
    """The other expansion of the same value, if the value is dual-dyadic.

    Read off the canonical form: only an expansion that ends in all 0s or
    all 1s has a dyadic value, and an empty preamble before ``(0)`` or
    ``(1)`` is the endpoint 0 or 1. Any other is w1(0) or w0(1), whose
    duals swap the last preamble bit and the period bit.
    """
    canonical = canonicalize(stream)
    if not canonical.preamble or canonical.period not in ("0", "1"):
        return None
    return _built(canonical.preamble[:-1] + canonical.period, canonical.preamble[-1])


def _words(length: int) -> Iterator[str]:
    """Every bit string of the given length, in increasing order."""
    return map("".join, itertools.product("01", repeat=length))


def enumerate_streams(max_size: int) -> Iterator[EPBS]:
    """All raw streams with ``len(preamble) + len(period) <= max_size``."""
    for total in range(1, max_size + 1):
        for per_len in range(1, total + 1):
            yield from itertools.starmap(EPBS, itertools.product(_words(total - per_len), _words(per_len)))


def enumerate_canonical(max_size: int) -> tuple[EPBS, ...]:
    """Distinct canonical streams of bounded size, in a fixed order.

    A canonical stream is a primitive period q after a preamble that is
    empty or ends in the bit opposite to q's last bit, so the pairs are
    generated directly rather than by canonicalizing every raw stream.
    They come in (size, preamble, period) order: for each size, the
    preambles in increasing order and, after each, its periods.
    """
    primitive = {
        length: [word for word in _words(length) if _primitive(word) == word]
        for length in range(1, max_size + 1)
    }
    # Periods allowed after a preamble, by the preamble's last bit.
    closed_by = {
        bit: {length: [q for q in words if q[-1] != bit] for length, words in primitive.items()}
        for bit in "01"
    }
    streams, preambles = [], []
    for size in range(1, max_size + 1):
        # Sorted bit strings are in the binary trie's pre-order, each after its prefixes.
        preambles = sorted([*preambles, *_words(size - 1)])
        for preamble in preambles:
            periods = closed_by[preamble[-1]] if preamble else primitive
            streams.extend(map(_built, itertools.repeat(preamble), periods[size - len(preamble)]))
    return tuple(streams)


def count_canonical(max_size: int) -> int:
    """``len(enumerate_canonical(max_size))``, counted without enumerating.

    Each p-bit word repeats exactly one primitive word, whose length d
    divides p, so there are P(p) = 2^p - sum of P(d) over the proper
    divisors d of p primitive periods of p bits, found by a sieve over the
    divisors. Each follows the empty preamble or one of the 2^(L-1)
    preambles of L = 1 .. max_size - p bits whose last bit is the
    opposite of its own: 2^(max_size - p) in all.
    """
    primitive = [0] + [1 << p for p in range(1, max_size + 1)]
    for d in range(1, max_size // 2 + 1):
        for multiple in range(2 * d, max_size + 1, d):
            primitive[multiple] -= primitive[d]
    return sum(count << (max_size - p) for p, count in enumerate(primitive))
