import copy
import math
import pickle
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from continuum import binary_streams
from continuum.bijection import derivation_trace
from continuum.binary_streams import (
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
from continuum.dyadic import Dyadic, classify
from continuum.errors import OutOfRange, ParseError
from oracles import assert_born_canonical

bits = st.text("01", max_size=8)
streams = st.builds(EPBS, bits, st.text("01", min_size=1, max_size=8))


def approx_value(stream, n):
    """Oracle: truncate the expansion at n bits and read it as an integer."""
    expanded = bits_one_at_a_time(stream, n)
    return Fraction(int(expanded, 2) if expanded else 0, 2**n)


def bits_one_at_a_time(stream, count):
    """Oracle: the preamble, then the period appended one character at a time."""
    out = stream.preamble
    position = 0
    while len(out) < count:
        out += stream.period[position % len(stream.period)]
        position += 1
    return out[:count]


def canonicalize_bit_by_bit(stream):
    """Oracle: smallest period by trial, then absorb one preamble bit per step."""
    period = stream.period
    size = next(
        d for d in range(1, len(period) + 1)
        if len(period) % d == 0 and period[:d] * (len(period) // d) == period
    )
    preamble, period = stream.preamble, period[:size]
    while preamble and preamble[-1] == period[-1]:
        preamble = preamble[:-1]
        period = period[-1:] + period[:-1]
    return EPBS(preamble, period)


def long_division(numerator, denominator):
    """Oracle: binary digits of a proper fraction, with the cycle start position.

    Digits repeat from ``start`` onward; a terminating expansion shows up
    as the cycle ``"0"``.
    """
    seen = {}
    digits = []
    remainder = numerator
    while remainder not in seen:
        seen[remainder] = len(digits)
        remainder *= 2
        digits.append(str(remainder // denominator))
        remainder %= denominator
    return "".join(digits), seen[remainder]


def expansions_by_long_division(q):
    """Oracle for ``expansions_of``: the digits of q, read off long division."""
    if q == 0:
        return [EPBS("", "0")]
    if q == 1:
        return [EPBS("", "1")]
    digits, start = long_division(q.numerator, q.denominator)
    if digits[start:] == "0":
        finite = digits[:start]
        return [EPBS(finite, "0"), EPBS(finite[:-1] + "0", "1")]
    return [EPBS(digits[:start], digits[start:])]


def count_primitive_words(length):
    """M(P) = sum over d | P of Moebius(d) * 2^(P/d)."""
    def moebius(n):
        sign, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if n > 1 else sign

    return sum(moebius(d) * 2 ** (length // d) for d in range(1, length + 1) if length % d == 0)


def count_canonical(mu):
    """Closed form: a primitive period, after an empty preamble or one of length
    L whose last bit is fixed as the opposite of the period's last bit."""
    return sum(
        count_primitive_words(p) * (1 + sum(2 ** (length - 1) for length in range(1, mu - p + 1)))
        for p in range(1, mu + 1)
    )


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

PARSE_CASES = [
    ("011(0)", "011", "0"),
    ("(01)", "", "01"),
    ("1(0)", "1", "0"),
    ("(1)", "", "1"),
]


# The ids keep the case names stable: "<text>-pre<i>-per<i>".
@pytest.mark.parametrize(
    "text, pre, per",
    PARSE_CASES,
    ids=[f"{text}-pre{i}-per{i}" for i, (text, _, _) in enumerate(PARSE_CASES)],
)
def test_parse_stream(text, pre, per):
    stream = parse_stream(text)
    assert stream.preamble == pre and stream.period == per
    assert str(stream) == text


@pytest.mark.parametrize(
    "text, position",
    [
        ("01(", 3),
        ("", 0),
        ("()", 1),
        ("2(0)", 0),
        ("01(02)", 4),
        ("01(0)1", 6),
        ("0)1(0)", 1),
        ("(0", 2),
        ("0(11", 4),  # no ')', though dropping the last character would leave a stream
    ],
)
def test_parse_stream_errors_carry_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_stream(text)
    assert err.value.position == position


@given(streams)
def test_format_parse_round_trip(stream):
    assert parse_stream(str(stream)) == stream


def test_epbs_validation():
    with pytest.raises(ValueError):
        EPBS((0,), ())
    with pytest.raises(ValueError):
        EPBS((2,), (0,))
    with pytest.raises(ValueError, match="period must be nonempty"):
        EPBS("0", "")
    # Anything but a string is rejected, not converted: the old tuple format too.
    for preamble, period, named in (((0,), (1,), "(0,)"), ([], "0", "[]"), ("0", ["1"], "['1']")):
        with pytest.raises(ValueError, match=re.escape(f"got {named}")):
            EPBS(preamble, period)
    # ``int(text, 2)`` would accept some of these; the message names the first bad character.
    for preamble, period, bad in (
        ("2", "0", "2"),
        ("0_1", "0", "_"),
        (" 1", "0", " "),
        ("١", "0", "١"),
        ("01", "0x1y", "x"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            EPBS(preamble, period)


def parse_one_at_a_time(text):
    """Oracle: the literal's checks a character at a time, in their order.

    Returns the ``(preamble, period)`` of a good literal, or the
    ``(message, position)`` that ``parse_stream`` must raise.
    """
    open_at = text.find("(")
    if open_at < 0:
        return "missing '(' in stream literal", len(text)
    for i, ch in enumerate(text[:open_at]):
        if ch not in "01":
            return f"invalid preamble character {ch!r}", i
    if not text.endswith(")"):
        return "missing ')' in stream literal", len(text)
    body = text[open_at + 1 : -1]
    if not body:
        return "period must be nonempty", open_at + 1
    for i, ch in enumerate(body):
        if ch not in "01":
            return f"invalid period character {ch!r}", open_at + 1 + i
    return text[:open_at], body


def epbs_error_one_at_a_time(preamble, period):
    """Oracle: the message ``EPBS`` must raise for two strings, or None."""
    for ch in preamble + period:
        if ch not in "01":
            return f"bits must be '0' or '1', got {ch!r}"
    return None if period else "period must be nonempty"


# Long runs of bits cut by short runs of non-bits, ASCII and not, so the
# first bad character falls anywhere in up to 10^4 characters.
NOT_BITS = "2_ \u0661\uff12\x00\u00e9"
long_bits = st.builds(
    lambda word, repeats: word * repeats, st.text("01", min_size=1, max_size=8), st.integers(0, 250)
)
mixed_runs = st.text(st.sampled_from("01" + NOT_BITS), max_size=8)
bit_strings = st.lists(st.one_of(long_bits, mixed_runs), max_size=5).map("".join)
literals = st.lists(st.one_of(long_bits, mixed_runs, st.sampled_from("()")), max_size=8).map(
    lambda parts: "".join(parts)[: 10**4]
)


@given(literals | st.builds("{}({})".format, bit_strings, bit_strings))
def test_parse_stream_agrees_with_the_one_at_a_time_oracle(text):
    expected = parse_one_at_a_time(text)
    if isinstance(expected[1], str):
        stream = parse_stream(text)
        assert (stream.preamble, stream.period) == expected
        return
    message, position = expected
    with pytest.raises(ParseError) as err:
        parse_stream(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"



def test_parse_stream_leaves_the_bit_check_to_epbs(monkeypatch):
    # An EPBS that accepts anything gets the parts as they are, and its value
    # is returned: parse_stream scans no bit itself before EPBS refuses.
    monkeypatch.setattr(binary_streams, "EPBS", lambda preamble, period: ("stub", preamble, period))
    assert parse_stream("0x(1y)") == ("stub", "0x", "1y")

@given(bit_strings, bit_strings)
def test_epbs_check_agrees_with_the_one_at_a_time_oracle(preamble, period):
    expected = epbs_error_one_at_a_time(preamble, period)
    if expected is None:
        assert EPBS(preamble, period).period == period
        return
    with pytest.raises(ValueError) as err:
        EPBS(preamble, period)
    assert str(err.value) == expected


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "raw, expected",
    [
        ("10(11)", "10(1)"),
        ("010(0)", "01(0)"),
        ("(01)", "(01)"),
        ("(0101)", "(01)"),
        ("111(1)", "(1)"),
        ("0(10)", "(01)"),
        ("1(10)", "1(10)"),
    ],
)
def test_canonicalize_examples(raw, expected):
    before = parse_stream(raw)
    after = canonicalize(before)
    assert str(after) == expected
    assert bits_one_at_a_time(before, 64) == bits_one_at_a_time(after, 64)  # value-preserving


@given(streams)
def test_canonicalize_idempotent_and_value_preserving(stream):
    canonical = canonicalize(stream)
    assert canonicalize(canonical) == canonical
    assert value(canonical) == value(stream)
    assert bits_one_at_a_time(stream, 96) == bits_one_at_a_time(canonical, 96)


@given(streams)
def test_canonicalize_matches_bit_by_bit_oracle(stream):
    canonical = canonicalize(stream)
    assert canonical == canonicalize_bit_by_bit(stream)
    assert_born_canonical(canonical)
    if canonical == stream:
        assert canonical is stream


@given(streams)
def test_canonicalize_flags_its_result(stream):
    canonical = canonicalize(stream)
    assert canonical._canonical
    assert canonical == canonicalize_bit_by_bit(stream)
    assert canonicalize(canonical) is canonical


def test_canonical_flag_is_invisible(monkeypatch):
    canonical, fresh = canonicalize(EPBS("010", "0")), EPBS("01", "0")
    assert canonical._canonical and not fresh._canonical
    assert canonical == fresh and hash(canonical) == hash(fresh)
    assert repr(canonical) == repr(fresh) == "EPBS(preamble='01', period='0')"
    assert EPBS.__match_args__ == ("preamble", "period")
    assert not copy.copy(canonical)._canonical
    for stream in (canonical, fresh):
        assert pickle.loads(pickle.dumps(stream)) == stream
    # A flagged stream is returned before any of the work is done.
    monkeypatch.setattr(binary_streams, "_primitive", None)
    assert canonicalize(canonical) is canonical


@pytest.mark.parametrize("absorbed", [1, 199, 200, 201, 999, 1000])
def test_canonicalize_absorbs_long_preambles(absorbed):
    # A 200-bit period whose backward continuation fills the last
    # ``absorbed`` bits of a 1000-bit preamble.
    rng = random.Random(absorbed)
    period = "".join(str(rng.getrandbits(1)) for _ in range(200))
    head = "".join(str(rng.getrandbits(1)) for _ in range(1000 - absorbed))
    repeated = period * (absorbed // 200 + 1)
    tail = repeated[len(repeated) - absorbed :]
    for stream in (EPBS(head + tail, period), EPBS(head + tail, period * 3)):
        canonical = canonicalize(stream)
        assert canonical == canonicalize_bit_by_bit(stream)
        assert len(canonical.preamble) <= 1000 - absorbed
        assert_born_canonical(canonical)


def test_canonical_equality_decides_stream_equality():
    # Over every raw stream of size <= 7, the first 128 bits determine
    # the canonical form and vice versa.
    by_prefix = {}
    by_canonical = {}
    for stream in enumerate_streams(7):
        prefix = bits_one_at_a_time(stream, 128)
        canonical = canonicalize(stream)
        assert by_prefix.setdefault(prefix, canonical) == canonical
        assert by_canonical.setdefault(canonical, prefix) == prefix


# ---------------------------------------------------------------------------
# valuation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, expected",
    [
        ("1(0)", Fraction(1, 2)),
        ("(1)", Fraction(1)),
        ("(01)", Fraction(1, 3)),
        ("(0)", Fraction(0)),
        ("011(0)", Fraction(3, 8)),
        ("0(01)", Fraction(1, 6)),
    ],
)
def test_value_examples(text, expected):
    assert value(parse_stream(text)) == expected


@given(streams)
def test_value_matches_truncation_oracle(stream):
    # The exact value must sit within 2^-n of every n-bit truncation.
    for n in (48, 96):
        assert abs(value(stream) - approx_value(stream, n)) <= Fraction(1, 2**n)


@given(streams)
def test_value_in_unit_interval(stream):
    assert 0 <= value(stream) <= 1


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

def test_expansions_examples():
    assert [str(e) for e in expansions_of(Fraction(3, 8))] == ["011(0)", "010(1)"]
    assert [str(e) for e in expansions_of(Fraction(1, 3))] == ["(01)"]
    assert [str(e) for e in expansions_of(Fraction(0))] == ["(0)"]
    assert [str(e) for e in expansions_of(Fraction(1))] == ["(1)"]


def test_expansions_out_of_range():
    with pytest.raises(OutOfRange):
        expansions_of(Fraction(9, 8))


def test_period_bound_refuses_a_rational_out_of_range():
    with pytest.raises(OutOfRange, match=r"^5/3 is not in \[0, 1\]$"):
        binary_streams.period_bound(Fraction(5, 3))
    assert binary_streams.period_bound(Fraction(1, 12)) == 2


@pytest.mark.parametrize("refuse", [expansions_of, binary_streams.period_bound, classify])
def test_a_huge_rational_out_of_range_is_named_by_its_bit_lengths(refuse):
    # The numerator has 5001 digits, past the interpreter's default limit on int to str.
    message = r"^a 16610-bit numerator over a 2-bit denominator is not in \[0, 1\]$"
    with pytest.raises(OutOfRange, match=message):
        refuse(Fraction(10**5000 + 1, 3))


def test_a_huge_rational_out_of_range_is_refused_without_writing_it_in_decimal():
    # With the limit on int to str off, str() of this numerator takes seconds.
    q = Fraction((1 << 2_000_000) + 1, 3)
    start = time.perf_counter()
    with pytest.raises(OutOfRange, match=r"^a 2000001-bit numerator over a 2-bit denominator "):
        expansions_of(q)
    assert time.perf_counter() - start < 1


def test_expansions_refuse_a_float():
    # Fraction(0.1) would be the nearest binary float, with a 56-bit preamble.
    with pytest.raises(TypeError):
        expansions_of(0.1)
    assert expansions_of(Fraction(1, 10)) == [EPBS("0", "0011")]


def test_dual_points_get_exactly_two_expansions():
    for mu in range(1, 13):
        for num in range(1, 2**mu, 2):
            q = Fraction(num, 2**mu)
            expansions = expansions_of(q)
            assert len(expansions) == 2
            assert all(value(e) == q for e in expansions)
            trailing_zeros, trailing_ones = expansions
            assert trailing_zeros.period == "0"
            assert trailing_ones.period == "1"


def test_everything_else_gets_one_expansion():
    for den in range(1, 257):
        for num in range(0, den + 1):
            q = Fraction(num, den)
            if 0 < q < 1 and (q.denominator & (q.denominator - 1)) == 0:
                continue
            expansions = expansions_of(q)
            assert len(expansions) == 1
            assert value(expansions[0]) == q


def _assert_expansions_match_long_division(q):
    found = expansions_of(q)
    assert found == expansions_by_long_division(q)
    for expansion in found:
        assert_born_canonical(expansion)
    if len(found) == 2:  # a dyadic point: each expansion is the other's dual
        back = dual_of(found[1])
        assert back == found[0]
        assert_born_canonical(back)


def test_expansions_match_long_division_below_400():
    for den in range(1, 400):
        for num in range(0, den + 1):
            if math.gcd(num, den) == 1:
                _assert_expansions_match_long_division(Fraction(num, den))


@pytest.mark.parametrize("prime", [99877, 99923, 99989])
def test_expansions_match_long_division_full_period_primes(prime):
    # 2 is a primitive root of each prime, so 1/p has a period of p - 1 bits.
    for shift in (0, 1, 7):
        q = Fraction(prime // 3 | 1, prime << shift)  # odd numerator: stays reduced
        _assert_expansions_match_long_division(q)
        (expansion,) = expansions_of(q)
        assert len(expansion.preamble) == shift and len(expansion.period) == prime - 1


def test_expansions_match_long_division_one_over_1000003():
    _assert_expansions_match_long_division(Fraction(1, 1000003))


def _order_by_doubling(modulus):
    # Independent of the library: double until 2^n = 1 (mod modulus).
    order, residue = 1, 2 % modulus
    while residue != 1:
        order, residue = order + 1, residue * 2 % modulus
    return order


def test_order_of_two_matches_doubling_below_2_to_13():
    binary_streams._order_of_two.cache_clear()
    for modulus in range(3, 2**13, 2):
        assert binary_streams._order_of_two(modulus) == _order_by_doubling(modulus), modulus


def test_order_of_two_memo_matches_doubling_cold_and_warm():
    memo = binary_streams._order_of_two
    memo.cache_clear()
    for modulus in range(3, 2**13, 2):
        expected = _order_by_doubling(modulus)
        misses = memo.cache_info().misses
        assert memo(modulus) == expected and memo.cache_info().misses == misses + 1, modulus
        hits = memo.cache_info().hits
        assert memo(modulus) == expected and memo.cache_info().hits == hits + 1, modulus


def test_expansions_equal_cold_and_warm_below_400():
    memo = binary_streams._order_of_two
    for den in range(1, 400):
        for num in range(0, den + 1):
            if math.gcd(num, den) == 1:
                q = Fraction(num, den)
                memo.cache_clear()
                cold = expansions_of(q)
                assert expansions_of(q) == cold, q


def test_expansions_search_the_order_once_per_odd_modulus():
    memo = binary_streams._order_of_two
    memo.cache_clear()
    for den in (7, 14, 28, 21, 42):
        for num in range(1, den):
            if math.gcd(num, den) == 1:
                _assert_expansions_match_long_division(Fraction(num, den))
    assert memo.cache_info().misses == 2  # b' = 7 and b' = 21


def test_order_of_two_memo_stays_within_its_size():
    memo = binary_streams._order_of_two
    memo.cache_clear()
    maxsize = memo.cache_info().maxsize
    for modulus in range(3, 2 * (maxsize + 100), 2):
        memo(modulus)
    assert memo.cache_info().currsize <= maxsize == 1024


@pytest.fixture
def giant_steps(monkeypatch):
    """The moduli the order search took giant steps for.

    Only the giant steps call ``pow``, for the stride's inverse. The
    search's memo starts empty, so every modulus is searched.
    """
    binary_streams._order_of_two.cache_clear()
    moduli = []

    def recorded_pow(base, exponent, modulus):
        moduli.append(modulus)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(binary_streams, "pow", recorded_pow, raising=False)
    return moduli


def test_order_of_two_at_the_phase_boundaries(giant_steps):
    # Found by the last baby step: the order is isqrt(modulus).
    for modulus in (31, 257, 595, 1985):
        assert binary_streams._order_of_two(modulus) == _order_by_doubling(modulus) == math.isqrt(modulus)
    assert giant_steps == []
    # Found by the first giant step: the order is isqrt(modulus) + 1.
    for modulus in (3, 7, 15, 51):
        assert binary_streams._order_of_two(modulus) == _order_by_doubling(modulus) == math.isqrt(modulus) + 1
    # A multiple of the stride isqrt(modulus) + 1, so the table hit is 2^0.
    for modulus in (13, 27, 35, 43):
        order = binary_streams._order_of_two(modulus)
        assert order == _order_by_doubling(modulus) and order % (math.isqrt(modulus) + 1) == 0
    assert giant_steps == [3, 7, 15, 51, 13, 27, 35, 43]


def test_order_of_two_full_period_prime_above_a_million(giant_steps):
    assert binary_streams._order_of_two(1000003) == _order_by_doubling(1000003) == 1000002
    assert giant_steps == [1000003]


def test_expansion_of_one_over_a_mersenne_prime(giant_steps):
    # ord(2) = 521 is far below isqrt(2^521 - 1): the baby steps find it.
    (expansion,) = expansions_of(Fraction(1, 2**521 - 1))
    assert expansion == EPBS("", "0" * 520 + "1")
    assert giant_steps == []


def test_expansion_round_trip_exhaustive():
    # Every bounded stream reappears among the expansions of its value.
    for stream in enumerate_streams(10):
        canonical = canonicalize(stream)
        assert canonical in expansions_of(value(stream))


# ---------------------------------------------------------------------------
# class split and duals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, expected",
    [
        ("0(1)", StreamClass.IN_BS),
        ("(1)", StreamClass.IN_BX),
        ("(01)", StreamClass.IN_BX),
        ("(0)", StreamClass.IN_BX),
        ("10(1)", StreamClass.IN_BS),
        ("11(1)", StreamClass.IN_BX),  # canonicalizes to (1), value 1
    ],
)
def test_classify_stream(text, expected):
    assert classify_stream(parse_stream(text)) is expected


def test_class_split_matches_dual_route():
    # Bounded redundant streams are exactly the duals of the bounded
    # trailing-zeros dyadic forms.
    universe = enumerate_canonical(8)
    redundant = {e for e in universe if classify_stream(e) is StreamClass.IN_BS}
    trailing_zero_forms = {
        e for e in universe if e.period == "0" and e.preamble
    }
    assert redundant == {dual_of(t) for t in trailing_zero_forms}


def test_dual_of_examples():
    assert str(dual_of(parse_stream("1(0)"))) == "0(1)"
    assert dual_of(parse_stream("(01)")) is None
    assert dual_of(parse_stream("(0)")) is None
    assert dual_of(parse_stream("(1)")) is None


def dual_by_value(stream):
    """The value-based route: classify the stream's value, then expand it."""
    canonical = canonicalize(stream)
    point = value(canonical)
    if not isinstance(classify(point), Dyadic):
        return None
    first, second = expansions_of(point)
    return second if canonical == first else first


def test_dual_of_agrees_with_the_value_route():
    for stream in (*enumerate_canonical(8), *enumerate_streams(6)):
        assert dual_of(stream) == dual_by_value(stream)


def test_dual_of_values_only_dyadic_streams(monkeypatch):
    def refuse(argument):
        raise AssertionError(f"{argument} valued or expanded")

    monkeypatch.setattr(binary_streams, "value", refuse)
    monkeypatch.setattr(binary_streams, "expansions_of", refuse)
    for text in ("(0)", "(1)", "1(01)", "0(10)", "1" * 1000 + "(" + "01" * 1000 + ")"):
        assert dual_of(parse_stream(text)) is None
    # Dyadic streams too: the dual swaps the last preamble bit and the period bit.
    long_chain = "01" * 500
    for text, dual in (
        ("1(0)", "0(1)"),
        ("0(1)", "1(0)"),
        ("10(0)", "0(1)"),
        ("01(1)", "1(0)"),
        (long_chain + "(0)", long_chain[:-1] + "0(1)"),
    ):
        assert str(dual_of(parse_stream(text))) == dual


def test_dual_of_is_an_involution():
    for stream in enumerate_canonical(8):
        dual = dual_of(stream)
        if dual is not None:
            assert value(dual) == value(stream)
            assert dual != stream
            assert dual_of(dual) == canonicalize(stream)


# ---------------------------------------------------------------------------
# bounded enumeration
# ---------------------------------------------------------------------------

def test_enumerate_streams_count():
    # n * 2^n streams of total size exactly n.
    assert sum(1 for _ in enumerate_streams(3)) == 2 + 8 + 24
    assert sum(1 for _ in enumerate_streams(10)) == sum(n * 2**n for n in range(1, 11))


@pytest.mark.parametrize("mu", range(1, 11))
def test_enumerate_canonical_matches_canonicalized_raw_streams(mu):
    unique = {canonicalize(e) for e in enumerate_streams(mu)}
    expected = tuple(sorted(unique, key=lambda e: (e.size, e.preamble, e.period)))
    built = enumerate_canonical(mu)
    assert built == expected
    for stream in built:
        assert_born_canonical(stream)


@pytest.mark.parametrize("mu, count", [(8, 1716), (10, 8862), (12, 43560), (14, 206874)])
def test_enumerate_canonical_count_closed_form(mu, count):
    assert count_canonical(mu) == count
    assert len(enumerate_canonical(mu)) == count


def test_library_closed_form_counts_the_enumeration():
    for mu in range(1, 13):
        assert binary_streams.count_canonical(mu) == len(enumerate_canonical(mu)) == count_canonical(mu)


def test_library_count_matches_the_moebius_oracle():
    for mu in range(1, 65):
        assert binary_streams.count_canonical(mu) == count_canonical(mu)


def test_enumerate_canonical_is_deterministic_and_unique():
    first = enumerate_canonical(6)
    second = enumerate_canonical(6)
    assert first == second
    assert len(set(first)) == len(first)
    assert all(canonicalize(e) == e for e in first)


def test_library_built_streams_behave_like_checked_ones():
    # Built past EPBS's check, through the slot setters: each enumerated stream and its first expansion.
    for stream in (s for e in enumerate_canonical(6) for s in (e, expansions_of(value(e))[0])):
        checked = EPBS(stream.preamble, stream.period)
        for name in ("preamble", "period", "_canonical"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(stream, name, "0")
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                delattr(stream, name)
        assert (stream.preamble, stream.period, stream._canonical) == (checked.preamble, checked.period, True)
        assert stream == checked and checked == stream and not checked._canonical
        assert hash(stream) == hash(checked) and repr(stream) == repr(checked)
        for other in (pickle.loads(pickle.dumps(stream)), copy.copy(stream), copy.deepcopy(stream)):
            assert type(other) is EPBS and other == stream and other is not stream and not other._canonical


def test_the_public_check_is_intact(monkeypatch):
    for preamble, period in (("0", "2"), ("", ""), (0, "1"), ("0", "1\u0663")):
        with pytest.raises(ValueError):
            EPBS(preamble, period)

    def refuse(stream):
        raise AssertionError(f"{stream} checked")

    monkeypatch.setattr(EPBS, "__post_init__", refuse)
    for build in (lambda: parse_stream("01(0)"), lambda: EPBS("01", "0")):
        with pytest.raises(AssertionError, match=re.escape("01(0) checked")):
            build()
    # The streams the trace enumerates, expands, canonicalizes and maps are
    # all built past the check.
    assert derivation_trace(6).verdict == "pass"
