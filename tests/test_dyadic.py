import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from continuum.dyadic import (
    Dyadic,
    Endpoint,
    OtherRational,
    classify,
    ensure_unit_interval,
    index_of,
    parse_rational,
)
from continuum.errors import OutOfRange, ParseError
from oracles import dyadic_at, dyadic_value


def enumerate_duals(count):
    """The first ``count`` dyadic points in the fixed order, by index."""
    return [dyadic_at(k) for k in range(count)]


def brute_force_duals(mu_max):
    """Oracle: all (2v+1)/2^u for u <= mu_max, in (u, numerator) order."""
    return [
        Dyadic(num, mu)
        for mu in range(1, mu_max + 1)
        for num in range(1, 2**mu, 2)
    ]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, expected",
    [("3/8", Fraction(3, 8)), ("1", Fraction(1)), ("0", Fraction(0)), ("2/4", Fraction(1, 2))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "3/", "/8", "a", "-1/2", "1.5", "1/2/3", "1 /2", "٣/٨"])
def test_parse_rational_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_rational("3/0")


@pytest.mark.parametrize(
    "text, message",
    [
        ("3/", "not a rational literal: '3/' (at position 1)"),
        ("3/0", "zero denominator in '3/0' (at position 2)"),
        ("1" * 5000 + "x", "not a rational literal: '11111111111111111111'... (5001 characters) (at position 5000)"),
        # 5000 digits, each integer within the interpreter's limit on int() digits.
        ("1" * 2500 + "/" + "0" * 2500, "zero denominator in '11111111111111111111'... (5001 characters) (at position 2501)"),
    ],
    ids=["short-literal", "short-zero-denominator", "long-literal", "long-zero-denominator"],
)
def test_parse_rational_diagnostics_quote_a_short_prefix(text, message):
    with pytest.raises(ParseError) as caught:
        parse_rational(text)
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# Dyadic type invariants
# ---------------------------------------------------------------------------

def test_dyadic_validation():
    with pytest.raises(ValueError):
        Dyadic(2, 2)  # even numerator
    with pytest.raises(ValueError):
        Dyadic(5, 2)  # 5/4 > 1
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        Dyadic(1, 0)  # the range check would refuse it too
    with pytest.raises(ValueError, match="endpoint must be 0 or 1"):
        Endpoint(2)


def test_dyadic_accessors():
    point = Dyadic(3, 3)
    assert dyadic_value(point) == Fraction(3, 8)
    assert point.odd_index == 1
    assert classify(dyadic_value(point)) == point


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify(Fraction(3, 8)) == Dyadic(3, 3)
    assert classify(Fraction(0)) == Endpoint(0)
    assert classify(Fraction(1)) == Endpoint(1)
    assert classify(Fraction(1, 3)) == OtherRational()


@pytest.mark.parametrize("q", [Fraction(5, 4), Fraction(-1, 2), Fraction(2)])
def test_classify_out_of_range(q):
    with pytest.raises(OutOfRange):
        classify(q)


def test_ensure_unit_interval_keeps_fractions_and_converts_ints():
    q = Fraction(3, 8)
    assert ensure_unit_interval(q) is q
    for n in (0, 1):
        result = ensure_unit_interval(n)
        assert type(result) is Fraction and result == n
    with pytest.raises(OutOfRange):
        ensure_unit_interval(2)


@pytest.mark.parametrize("q", [0.1, 0.5, 1.0, "1/2", None])
def test_ensure_unit_interval_refuses_anything_but_fractions_and_ints(q):
    with pytest.raises(TypeError):
        ensure_unit_interval(q)


def test_classify_refuses_a_float():
    with pytest.raises(TypeError):
        classify(0.1)
    assert classify(Fraction(1, 10)) == OtherRational()


@given(st.fractions())
def test_ensure_unit_interval_agrees_with_fraction_order(q):
    if 0 <= q <= 1:
        assert ensure_unit_interval(q) is q
    else:
        with pytest.raises(OutOfRange):
            ensure_unit_interval(q)


def test_ensure_unit_interval_under_a_lowered_digit_limit_names_bit_lengths():
    # 10^1000 has 1001 digits, more than str() writes at a limit of 640, and
    # is past 10^20, so it is named by its bit length whatever the limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int to str")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(OutOfRange, match=r"^a 3322-bit numerator over a 1-bit denominator is not in \[0, 1\]$"):
            ensure_unit_interval(Fraction(10**1000))
        with pytest.raises(OutOfRange, match=r"^5/4 is not in \[0, 1\]$"):
            ensure_unit_interval(Fraction(5, 4))
    finally:
        sys.set_int_max_str_digits(previous)


def _is_power_of_two(n):
    while n % 2 == 0:
        n //= 2
    return n == 1


def test_classify_partition_denominators_up_to_256():
    for den in range(1, 257):
        for num in range(0, den + 1):
            q = Fraction(num, den)
            point = classify(q)
            kinds = [
                isinstance(point, Dyadic),
                isinstance(point, Endpoint),
                isinstance(point, OtherRational),
            ]
            assert sum(kinds) == 1
            # Oracle: dual exactly when the reduced denominator is a
            # power of two and the point is interior.
            expected_dual = 0 < q < 1 and _is_power_of_two(q.denominator)
            assert isinstance(point, Dyadic) == expected_dual


# ---------------------------------------------------------------------------
# enumeration and indexing
# ---------------------------------------------------------------------------

def test_enumerate_duals_first_values():
    assert [dyadic_value(d) for d in enumerate_duals(3)] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 4),
    ]
    assert enumerate_duals(0) == []
    assert dyadic_value(enumerate_duals(7)[6]) == Fraction(7, 8)


def test_enumerate_duals_matches_brute_force():
    oracle = brute_force_duals(12)
    assert enumerate_duals(len(oracle)) == oracle


@pytest.mark.parametrize(
    "point, expected",
    [(Dyadic(1, 1), 0), (Dyadic(3, 3), 4), (Dyadic(3, 4), 8)],
)
def test_index_of_examples(point, expected):
    assert index_of(point) == expected


def test_index_closed_form_matches_enumeration_position():
    for position, point in enumerate(brute_force_duals(12)):
        assert index_of(point) == position
        assert dyadic_at(position) == point


def test_enumeration_is_injective():
    points = enumerate_duals(2**12 - 1)
    assert len(set(points)) == len(points)


@given(st.integers(0, 10**9))
def test_index_round_trip(k):
    assert index_of(dyadic_at(k)) == k


@given(st.integers(1, 30))
def test_fraction_round_trip(mu):
    point = Dyadic(2 ** (mu - 1) + 1 if mu > 1 else 1, mu)
    assert classify(dyadic_value(point)) == point
