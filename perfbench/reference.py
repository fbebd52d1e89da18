"""Independent reference answers for the commands the benchmark sends.

Nothing here imports ``continuum``: the benchmark checks the library's
output against this code, never against the library itself. Streams are
plain strings (``preamble``, ``period``) and values are exact
``Fraction``s. The algorithms deliberately differ from the library's:
the smallest period comes from the doubled-word test, and expansions
come from the closed form ``X = a * 2^k * (2^P - 1) / b`` instead of
long division.
"""

from __future__ import annotations

import functools
import hashlib
import re
from fractions import Fraction

_STREAM_RE = re.compile(r"([01]*)\(([01]+)\)")
_RATIONAL_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")


class Expected:
    """What one command must produce: exit code plus output digest or error name.

    Outputs are kept as digests: an ``expand`` answer can run to 10^5
    characters, and a pass holds 1200 of them.
    """

    __slots__ = ("exit_code", "digest", "error")

    def __init__(self, exit_code: int, output: str = "", error: str = ""):
        self.exit_code = exit_code
        self.digest = hashlib.sha256(output.encode()).digest()
        self.error = error

    def mismatch(self, result) -> str | None:
        """A one-line reason when ``result`` (a ``CommandResult``) differs."""
        if result.exit_code != self.exit_code:
            return f"exit {result.exit_code}, expected {self.exit_code}: {result.diagnostics[:120]}"
        if self.exit_code == 0 and hashlib.sha256(result.output.encode()).digest() != self.digest:
            return f"wrong output {result.output[:80]!r}"
        if self.error and result.diagnostics.split(":", 1)[0] != self.error:
            return f"diagnostics {result.diagnostics[:80]!r}, expected {self.error}: ..."
        return None


class _Domain(Exception):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def parse_stream(text: str) -> tuple[str, str]:
    match = _STREAM_RE.fullmatch(text)
    if match is None:
        raise _Domain("ParseError")
    return match.group(1), match.group(2)


def parse_rational(text: str) -> Fraction:
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise _Domain("ParseError")
    denominator = int(match.group(2) or 1)
    if denominator == 0:
        raise _Domain("ParseError")
    return Fraction(int(match.group(1)), denominator)


def canon(preamble: str, period: str) -> tuple[str, str]:
    """Smallest period, then absorb preamble bits by rotating the period."""
    period = period[: (period + period).find(period, 1)]
    # Every preamble bit that equals the bit one period later is absorbed.
    cut = len(preamble)
    while cut and preamble[cut - 1] == period[(cut - 1 - len(preamble)) % len(period)]:
        cut -= 1
    shift = (len(preamble) - cut) % len(period)
    return preamble[:cut], period[-shift:] + period[:-shift] if shift else period


def fmt(stream: tuple[str, str]) -> str:
    return f"{stream[0]}({stream[1]})"


def value(stream: tuple[str, str]) -> Fraction:
    pre, per = stream
    head = Fraction(int(pre or "0", 2), 2 ** len(pre))
    return head + Fraction(int(per, 2), 2 ** len(pre) * (2 ** len(per) - 1))


def _in_unit(q: Fraction) -> Fraction:
    if not 0 <= q <= 1:
        raise _Domain("OutOfRange")
    return q


def _split_two(b: int) -> tuple[int, int]:
    k = (b & -b).bit_length() - 1
    return k, b >> k


@functools.cache
def multiplicative_order(b_odd: int) -> int:
    """Smallest P >= 1 with 2^P = 1 (mod b_odd), for odd b_odd > 1."""
    period, residue = 1, 2 % b_odd
    while residue != 1:
        residue = residue * 2 % b_odd
        period += 1
    return period


def expansions(q: Fraction) -> list[tuple[str, str]]:
    """Canonical binary expansions of q in [0, 1], trailing zeros first."""
    q = _in_unit(q)
    if q == 0:
        return [("", "0")]
    if q == 1:
        return [("", "1")]
    a, b = q.numerator, q.denominator
    k, b_odd = _split_two(b)
    if b_odd == 1:
        zeros = canon(format(a, f"0{k}b"), "0")
        ones = canon(format(a - 1, f"0{k}b"), "1")
        return [zeros, ones]
    p = multiplicative_order(b_odd)
    x = a * 2**k * (2**p - 1) // b
    pre, per = divmod(x, 2**p - 1)
    return [canon(format(pre, f"0{k}b") if k else "", format(per, f"0{p}b"))]


def classify(q: Fraction) -> str:
    q = _in_unit(q)
    if q in (0, 1):
        return f"Endpoint {q}"
    k, b_odd = _split_two(q.denominator)
    if b_odd == 1:
        return f"DualDyadic nu={(q.numerator - 1) // 2} mu={k}"
    return "OtherRational"


def _dyadic_index(numerator: int, exponent: int) -> int:
    return 2 ** (exponent - 1) - 1 + (numerator - 1) // 2


def _dyadic_at(index: int) -> tuple[int, int]:
    exponent = (index + 1).bit_length()
    return 2 * (index - (2 ** (exponent - 1) - 1)) + 1, exponent


def t_stream(index: int) -> tuple[str, str]:
    numerator, exponent = _dyadic_at(index)
    return format(numerator, f"0{exponent}b"), "0"


def s_stream(index: int) -> tuple[str, str]:
    numerator, exponent = _dyadic_at(index)
    return format(numerator - 1, f"0{exponent}b"), "1"


def is_redundant(stream: tuple[str, str]) -> bool:
    """InBS: canonical form is a nonempty preamble followed by (1)."""
    return stream[1] == "1" and stream[0] != ""


def in_chain(stream: tuple[str, str]) -> bool:
    """Member of T: canonical form is a nonempty preamble followed by (0)."""
    return stream[1] == "0" and stream[0] != ""


def forward(stream: tuple[str, str]) -> tuple[str, str]:
    if is_redundant(stream):
        raise _Domain("DomainViolation")
    if not in_chain(stream):
        return stream
    k, odd = divmod(_dyadic_index(int(stream[0], 2), len(stream[0])), 2)
    return t_stream(k) if odd else s_stream(k)


def inverse(stream: tuple[str, str]) -> tuple[str, str]:
    if is_redundant(stream):
        return t_stream(2 * _dyadic_index(int(stream[0], 2) + 1, len(stream[0])))
    if in_chain(stream):
        return t_stream(2 * _dyadic_index(int(stream[0], 2), len(stream[0])) + 1)
    return stream


def _answer(argv: list[str]) -> str:
    command = argv[0]
    if command in ("expand", "classify"):
        q = parse_rational(argv[1])
        if command == "classify":
            return classify(q)
        return "\n".join(fmt(e) for e in expansions(q))
    stream = canon(*parse_stream(argv[2]))
    if command == "map":
        return fmt(forward(stream) if argv[1] == "forward" else inverse(stream))
    what = argv[1]
    if what == "value":
        return str(value(stream))
    if what == "canon":
        return fmt(stream)
    if what == "member":
        return "InBS" if is_redundant(stream) else "InBX"
    q = value(stream)
    if classify(q).startswith("DualDyadic"):
        first, second = expansions(q)
        return fmt(second if stream == first else first)
    return "none"


def expect_query(argv: list[str]) -> Expected:
    """Expected result of one ``map``/``stream``/``expand``/``classify`` argv."""
    try:
        return Expected(0, output=_answer(argv))
    except _Domain as err:
        return Expected(2, error=err.name)


# ---------------------------------------------------------------------------
# closed-form counts for the bounded trace universe
# ---------------------------------------------------------------------------


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def primitive_words(length: int) -> int:
    """M(P): binary words of length P that are not a power of a shorter word."""
    return sum(_mobius(d) * 2 ** (length // d) for d in range(1, length + 1) if length % d == 0)


def bounded_set_sizes(mu: int) -> dict[str, int]:
    """|B|, |B_X|, |B_S|, |T| among canonical streams with size <= mu.

    A canonical stream is a primitive period q with a preamble p that is
    empty or ends in the other bit than q, so a size-L preamble has
    2^(L-1) choices: |B| = sum_P M(P) * (1 + sum_{L=1}^{mu-P} 2^(L-1)).
    B_S (nonempty preamble ending in 0, period (1)) and T (nonempty
    preamble ending in 1, period (0)) both have 2^(mu-1) - 1 members.
    """
    universe = sum(
        primitive_words(p) * (1 + sum(2 ** (length - 1) for length in range(1, mu - p + 1)))
        for p in range(1, mu + 1)
    )
    redundant = 2 ** (mu - 1) - 1
    return {"B": universe, "B_X": universe - redundant, "B_S": redundant, "T": redundant}
