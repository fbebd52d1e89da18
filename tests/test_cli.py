import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from continuum import bijection, binary_streams, cli, dyadic, errors, finite_sets
from continuum.cli import build_parser, main, run
import oracles

EQ3_WORDS = "000\n001\n010\n011\n100\n101\n110\n111"


# ---------------------------------------------------------------------------
# coverings
# ---------------------------------------------------------------------------

def test_coverings_golden():
    result = run(["coverings", "--exp", "a,b,c", "--base", "0,1"])
    assert result.exit_code == 0
    assert result.output == EQ3_WORDS


def test_coverings_byte_stable():
    first = run(["coverings", "--exp", "a,b,c", "--base", "0,1"])
    second = run(["coverings", "--exp", "a,b,c", "--base", "0,1"])
    assert first == second


def test_coverings_empty_domain():
    result = run(["coverings", "--exp", "", "--base", "0,1"])
    assert result.exit_code == 0
    assert result.output == ""  # the single empty covering


def test_coverings_with_longer_labels_print_each_covering_once():
    # a + ba and ab + a are both "aba" when the labels are run together.
    result = run(["coverings", "--exp", "x,y", "--base", "a,ab,ba"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == len(set(lines)) == 9
    assert lines[:4] == ["a,a", "a,ab", "a,ba", "ab,a"]


def _binary_labels(count):
    return ",".join(f"n{i}" for i in range(count))


def test_coverings_over_default_budget_refused_before_enumerating():
    start = time.perf_counter()
    result = run(["coverings", "--exp", _binary_labels(30), "--base", "0,1"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.output == ""
    assert result.diagnostics == (
        "BudgetExceeded: coverings of 30 labels with 2 labels would enumerate 1073741824 items (budget 1000000)"
    )


def test_coverings_budget_flag():
    argv = ["coverings", "--exp", _binary_labels(4), "--base", "0,1"]
    result = run(argv + ["--budget", "16"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [format(i, "04b") for i in range(16)]
    refused = run(argv + ["--budget", "15"])
    assert refused.exit_code == 2
    assert refused.output == ""
    assert refused.diagnostics.startswith("BudgetExceeded: ")
    assert run(argv + ["--budget", "0"]).exit_code == 1


def test_coverings_sixteen_labels_within_default_budget():
    result = run(["coverings", "--exp", _binary_labels(16), "--base", "0,1"])
    assert result.exit_code == 0
    assert result.output == "\n".join(format(i, "016b") for i in range(2**16))


def test_coverings_builds_no_word_table(monkeypatch):
    # coverings prints lines glued from label halves: no covering's word is built, and none is hashed.
    def unreachable(*args, **kwargs):
        pytest.fail("a word table was built")

    for name in ("_covering_words", "_word_halves"):
        monkeypatch.setattr(finite_sets, name, unreachable)
    assert run(["coverings", "--exp", "a,b,c", "--base", "0,1"]) == cli.CommandResult(0, EQ3_WORDS, "")
    result = run(["coverings", "--exp", _binary_labels(16), "--base", "0,1"])
    assert result == cli.CommandResult(0, "\n".join(format(i, "016b") for i in range(2**16)), "")


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

def test_laws_single():
    result = run(["laws", "--check", "ADD_EXP", "--a", "2", "--b", "2", "--c", "3"])
    assert result.exit_code == 0
    assert result.output == "ADD_EXP a=2 b=2 c=3: |left|=32 |right|=32 bijection=valid"


def test_laws_all():
    result = run(["laws", "--check", "all", "--a", "2", "--b", "1", "--c", "2"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 3
    assert [line.split()[0] for line in lines] == ["ADD_EXP", "MUL_EXP", "CURRY"]
    assert all("bijection=valid" in line for line in lines)


def test_laws_checks_each_witness_once(monkeypatch):
    # verify_exponent_law has checked the bijection; the CLI does not ask again.
    checks = []
    original = finite_sets.LawWitness.is_bijection

    def counted(witness):
        checks.append(witness.law_id)
        return original(witness)

    monkeypatch.setattr(finite_sets.LawWitness, "is_bijection", counted)
    result = run(["laws", "--check", "all", "--a", "2", "--b", "1", "--c", "2"])
    assert result.exit_code == 0
    assert checks == ["ADD_EXP", "MUL_EXP", "CURRY"]


def test_laws_renders_no_label(monkeypatch):
    # laws prints sizes and verdicts only: no witness set, covering label or pair label is built.
    def unreachable(*args, **kwargs):
        raise AssertionError("a label was built")

    for name in ("pair_label", "_covering_labels", "_label_halves", "_witness_set"):
        monkeypatch.setattr(finite_sets, name, unreachable)
    monkeypatch.setattr(finite_sets.FiniteSet, "__post_init__", unreachable)
    witnesses, original = [], finite_sets.verify_exponent_law

    def kept(*args):
        witnesses.append(original(*args))
        return witnesses[-1]

    monkeypatch.setattr(finite_sets, "verify_exponent_law", kept)
    result = run(["laws", "--check", "all", "--a", "2", "--b", "2", "--c", "2"])
    assert result.exit_code == 0, result.diagnostics
    assert result.output == "\n".join(
        f"{law} a=2 b=2 c=2: |left|=16 |right|=16 bijection=valid" for law in finite_sets.LAW_IDS
    )
    assert [w.law_id for w in witnesses] == list(finite_sets.LAW_IDS)
    assert not any("_rendered" in vars(w) for w in witnesses)


def test_laws_add_exp_2_9_9_stays_under_20_mib():
    # 262 144 pairs, checked on words and compared in the right table's order: building every label,
    # or holding the images as a set, passes the ceiling.
    import tracemalloc

    tracemalloc.start()
    try:
        result = run(["laws", "--check", "ADD_EXP", "--a", "2", "--b", "9", "--c", "9"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.output == "ADD_EXP a=2 b=9 c=9: |left|=262144 |right|=262144 bijection=valid"
    assert peak < 20 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("law, sizes, ceiling", [("ADD_EXP", (2, 9, 9), 7.2), ("MUL_EXP", (4, 4, 4), 0.7)])
def test_laws_witness_buffers_stay_under_their_tracemalloc_ceilings(law, sizes, ceiling):
    # The images are one buffer written a row at a time: holding every row beside it, as b"".join of
    # the rows would (ADD_EXP 9.3 MiB), or one bytes object per image (15.0 MiB) passes the ceiling,
    # as does cutting MUL_EXP's images into a set of words (4.6 MiB): they are compared in place.
    import tracemalloc

    argv = ["laws", "--check", law, *(f"--{name}={size}" for name, size in zip("abc", sizes))]
    tracemalloc.start()
    try:
        result = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.output.endswith("bijection=valid"), result
    assert peak < ceiling * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MiB"


def test_laws_past_one_byte_per_position():
    # 512 coverings of P with the 512 coverings of N with M.
    result = run(["laws", "--check", "CURRY", "--a", "2", "--b", "9", "--c", "1"])
    assert result.exit_code == 0
    assert result.output == "CURRY a=2 b=9 c=1: |left|=512 |right|=512 bijection=valid"


def test_laws_budget_exceeded_is_domain_error():
    result = run(
        ["laws", "--check", "CURRY", "--a", "3", "--b", "3", "--c", "3", "--budget", "10"]
    )
    assert result.exit_code == 2
    assert result.diagnostics == "BudgetExceeded: CURRY with a=3 b=3 c=3 would enumerate 39411 items (budget 10)"
    assert result.output == ""


def test_laws_all_refuses_before_building_any_law(monkeypatch):
    # ADD_EXP 2,9,9 is within the default budget and MUL_EXP 2,9,9 is not:
    # every law is checked before the first is built.
    def unreachable(*sets):
        raise AssertionError("ADD_EXP was built")

    monkeypatch.setitem(finite_sets._LAW_BUILDERS, "ADD_EXP", unreachable)
    start = time.perf_counter()
    result = run(["laws", "--check", "all", "--a", "2", "--b", "9", "--c", "9"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.output == ""
    assert result.diagnostics.startswith("BudgetExceeded: MUL_EXP with a=2 b=9 c=9 would enumerate ")


def test_laws_count_the_witness_labels():
    # a + b + c witness labels and b + c in N (+) P, beside 4 coverings and pairs.
    result = run(["laws", "--check", "ADD_EXP", "--a", "1", "--b", "1000000", "--c", "0"])
    assert result.exit_code == 2
    assert result.diagnostics == (
        "BudgetExceeded: ADD_EXP with a=1 b=1000000 c=0 would enumerate 2000005 items (budget 1000000)"
    )
    assert result.output == ""


def test_every_domain_error_exits_2_with_one_line(monkeypatch):
    raised = [
        errors.OutOfRange("m"),
        errors.DisjointnessViolation(("x", "y")),
        errors.DomainViolation("m"),
        errors.ParseError("m", position=3),
        errors.BudgetExceeded("m"),
    ]
    classes = {cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)}
    assert classes - {errors.DomainError} == {type(err) for err in raised}
    assert all(issubclass(cls, errors.DomainError) for cls in classes)
    for err in raised:

        def handler(args, err=err):
            raise err

        # The parser binds each handler when it is built, so build a fresh one.
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "_cmd_classify", handler)
        result = run(["classify", "1/2"])
        assert result == cli.CommandResult(2, diagnostics=f"{type(err).__name__}: {err}")
        assert "\n" not in result.diagnostics


@pytest.mark.parametrize(
    "argv, log2_count",
    [
        # 3 * 2^20000 + 1, 7 * 3^100000000 + 3 and 2^20000 items.
        (["laws", "--check", "ADD_EXP", "--a", "2", "--b", "20000", "--c", "0"], 20001.5),
        (["laws", "--check", "ADD_EXP", "--a", "3", "--b", "100000000", "--c", "1"], 1.58 * 10**8),
        (["coverings", "--exp", _binary_labels(20000), "--base", "0,1"], 20000),
    ],
)
def test_counts_past_the_int_to_str_limit_refused_as_lower_bounds(argv, log2_count):
    # Each count has more decimal digits than str() may write, and the
    # second would take minutes to compute: each is named as at least 2^k,
    # k at least 66 (a count past 10^20) and 2^k under the count.
    start = time.perf_counter()
    result = run(argv)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.output == ""
    found = re.fullmatch(
        r"BudgetExceeded: .* would enumerate at least 2\^(\d+) items \(budget 1000000\)", result.diagnostics
    )
    assert found and 66 <= int(found.group(1)) < log2_count


def test_a_budget_past_20_digits_is_named_by_its_bit_length():
    budget = "9" * 4300
    result = run(["coverings", "--exp", _binary_labels(20000), "--base", "0,1", "--budget", budget])
    assert result.exit_code == 2
    assert result.diagnostics.endswith(f"items (budget at least 2^{int(budget).bit_length() - 1})")
    assert len(result.diagnostics) < 300
    refused = run(["coverings", "--exp", _binary_labels(70), "--base", "0,1", "--budget", "9" * 20])
    assert refused.diagnostics.endswith(f"items (budget {'9' * 20})")


LABELS = tuple(f"n{i}" for i in range(20000))
HUGE = 10**5000  # 5001 digits, more than str() writes at the default limit


def _refusals(law, a, b, c, budget, mu, p, q, domain, codomain):
    """Each refusal these sizes reach, as a call; none is made that would do the work instead."""
    yield lambda: finite_sets.check_law_budget(law, a, b, c, budget)
    yield lambda: finite_sets.check_covering_budget(finite_sets.FiniteSet(LABELS[:domain]), finite_sets.FiniteSet(LABELS[:codomain]), budget)
    yield lambda: bijection._check_budget(mu, budget)
    if a + b > finite_sets.DEFAULT_BUDGET:  # the a + b witness labels alone pass it
        yield lambda: finite_sets.cardinal_pow(a, b)
    for negative in (finite_sets.cardinal_pow, oracles.cardinal_add, oracles.cardinal_mul):
        yield lambda negative=negative: negative(-a - 1, b)
    yield lambda: finite_sets.check_law_budget(law, a, -b - 1, c, budget)
    yield lambda: finite_sets.verify_exponent_law(law, a, b, -c - 1)
    yield lambda: dyadic.ensure_unit_interval(Fraction(p, q))
    point = Fraction(abs(p), q)
    if point > 1 or binary_streams.period_bound(point) > budget:  # else expand would search the period
        with _int_digit_limit(0):
            rational = f"{abs(p)}/{q}"
        yield lambda: cli._cmd_expand(argparse.Namespace(rational=rational, budget=budget))


@pytest.mark.parametrize("digits", [4300, 0], ids=["default limit", "limit off"])
@settings(deadline=None)
@given(
    st.tuples(
        st.sampled_from(finite_sets.LAW_IDS),
        *[st.integers(0, HUGE)] * 3,
        st.integers(1, HUGE),
        st.integers(1, HUGE),
        st.integers(-HUGE, HUGE),
        st.integers(1, HUGE),
        st.integers(0, len(LABELS)),
        st.integers(0, 300),
    )
)
def test_every_refusal_names_its_numbers_in_one_short_line(digits, sizes):
    # Whatever the limit on int to str, each refusal is the library's own error in one line under
    # 300 characters, and names no number by more than 20 digits.
    with _int_digit_limit(digits):
        for refuse in _refusals(*sizes):
            try:
                refuse()
            except errors.DomainError as err:
                message = str(err)
            except ValueError as err:  # a negative cardinal: the library's ValueError, not str()'s
                message = str(err)
                assert re.fullmatch(r"[abc] must be a nonnegative integer, got -([0-9]+|\(at least 2\^[0-9]+\))", message), message
            else:
                continue
            assert "\n" not in message and len(message) < 300, message
            assert re.search("[0-9]{21}", message) is None, message


# ---------------------------------------------------------------------------
# expand / classify
# ---------------------------------------------------------------------------

def test_expand_dual_point():
    result = run(["expand", "3/8"])
    assert result.exit_code == 0
    assert result.output == "011(0)\n010(1)"


def test_expand_single_expansion():
    assert run(["expand", "1/3"]).output == "(01)"
    assert run(["expand", "0"]).output == "(0)"


def test_expand_out_of_range():
    result = run(["expand", "5/4"])
    assert result.exit_code == 2
    assert result.diagnostics.startswith("OutOfRange:")


@pytest.mark.parametrize("budget", [[], ["--budget", "1"], ["--budget", "1000002"]])
def test_expand_checks_the_range_before_the_cost(budget):
    # Out of [0, 1] and with a period bound over the default budget: the
    # range is checked first, so the budget does not change the error.
    result = run(["expand", "1000004/1000003", *budget])
    assert result.exit_code == 2
    assert result.output == ""
    assert result.diagnostics == "OutOfRange: 1000004/1000003 is not in [0, 1]"


def test_expand_clips_a_long_rational_in_its_out_of_range_line():
    # A part past 10^20 is named by bit lengths; parts below it are quoted, at most 20 characters.
    numerator = "9" * 4000
    result = run(["expand", f"{numerator}/1"])
    assert result.exit_code == 2
    assert result.diagnostics == "OutOfRange: a 13288-bit numerator over a 1-bit denominator is not in [0, 1]"
    assert run(["expand", "9" * 21 + "/1"]).diagnostics == (
        "OutOfRange: a 70-bit numerator over a 1-bit denominator is not in [0, 1]"
    )
    assert run(["expand", "9" * 20 + "/7"]).diagnostics == f"OutOfRange: {'9' * 20}... (22 characters) is not in [0, 1]"
    assert run(["expand", "5/4"]).diagnostics == "OutOfRange: 5/4 is not in [0, 1]"


def test_expand_malformed_rational():
    result = run(["expand", "three/8"])
    assert result.exit_code == 2
    assert result.diagnostics.startswith("ParseError:")


def test_expand_over_default_budget_refused_before_the_order_search(monkeypatch):
    def searched(modulus):
        raise AssertionError(f"searched the order of 2 modulo {modulus}")

    # Patching replaces the memoized search, so nothing remembered answers either.
    monkeypatch.setattr(binary_streams, "_order_of_two", searched)
    for rational in ("1/1000003", "5/2000006", f"1/{1000003 << 40}"):
        result = run(["expand", rational])
        assert result.exit_code == 2
        assert result.output == ""
        assert result.diagnostics == (
            "BudgetExceeded: expand would search a period of up to b' - 1 = 1000002 bits (budget 1000000)"
        )
    huge = run(["expand", f"1/{3**200}"])
    assert huge.diagnostics == (
        "BudgetExceeded: expand would search a period of up to b' - 1 = at least 2^316 bits (budget 1000000)"
    )


def test_expand_budget_flag_at_the_period_bound():
    argv = ["expand", "1/1000003"]
    assert run(argv + ["--budget", "1000001"]).exit_code == 2
    admitted = run(argv + ["--budget", "1000002"])
    assert admitted.exit_code == 0
    # 2 is a primitive root of the prime 1000003: the period has 1000002 bits.
    assert re.fullmatch(r"\([01]{1000002}\)", admitted.output)
    # A dyadic point has no period to search: b' - 1 = 0 fits any budget.
    assert run(["expand", f"1/{2**40}", "--budget", "1"]).exit_code == 0
    assert run(argv + ["--budget", "0"]).exit_code == 1


@contextlib.contextmanager
def _int_digit_limit(digits):
    # int() of a longer decimal string raises ValueError; interpreters that
    # predate the limit have no such setting.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int() digits")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("command", ["expand", "classify"])
@pytest.mark.parametrize(
    "literal, position",
    [("1" * 5000 + "/3", 0), ("3/" + "1" * 5000, 2)],
    ids=["long-numerator", "long-denominator"],
)
def test_over_long_integer_is_a_one_line_parse_error(command, literal, position):
    with _int_digit_limit(4300):
        result = run([command, literal])
    assert result.exit_code == 2
    assert result.output == ""
    assert result.diagnostics.startswith("ParseError: ")
    assert result.diagnostics.endswith(f"(at position {position})")
    assert len(result.diagnostics.splitlines()) == 1
    assert "1" * 100 not in result.diagnostics  # the literal is not echoed


@pytest.mark.parametrize(
    "rational, expected",
    [("3/8", "DualDyadic nu=1 mu=3"), ("0", "Endpoint 0"), ("1", "Endpoint 1"), ("1/3", "OtherRational")],
)
def test_classify(rational, expected):
    result = run(["classify", rational])
    assert result.exit_code == 0
    assert result.output == expected


# ---------------------------------------------------------------------------
# stream / map
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "what, literal, expected",
    [
        ("value", "011(0)", "3/8"),
        ("value", "(1)", "1"),
        ("canon", "10(11)", "10(1)"),
        ("member", "0(1)", "InBS"),
        ("member", "(01)", "InBX"),
        ("dual", "1(0)", "0(1)"),
        ("dual", "(01)", "none"),
    ],
)
def test_stream_subcommands(what, literal, expected):
    result = run(["stream", what, literal])
    assert result.exit_code == 0
    assert result.output == expected


def _benchmark_reference():
    # perfbench's independent model of the query commands, loaded by path: it never imports continuum.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = _benchmark_reference()
# Short literals, some malformed, and rationals over denominators up to 64, some past 1.
short_literals = st.one_of(
    st.builds("{}({})".format, st.text("01", max_size=6), st.text("01", min_size=1, max_size=6)),
    st.text("01()", max_size=8),
)
short_rationals = st.one_of(
    st.integers(1, 64).flatmap(lambda d: st.integers(0, 2 * d).map(lambda n: f"{n}/{d}")),
    st.integers(0, 2).map(str),
)
queries = st.one_of(
    st.tuples(st.sampled_from([("map", "forward"), ("map", "inverse")]), short_literals),
    st.tuples(st.sampled_from([("stream", what) for what in ("value", "canon", "member", "dual")]), short_literals),
    st.tuples(st.sampled_from([("expand",), ("classify",)]), short_rationals),
).map(lambda query: [*query[0], query[1]])


@settings(deadline=None, max_examples=300)
@given(queries)
def test_queries_agree_with_the_benchmark_reference(argv):
    # Exit code, output and error name, as the benchmark checks every query it sends.
    assert REFERENCE.expect_query(argv).mismatch(run(argv)) is None


def seeded_bits(seed, count):
    """``count`` bits drawn from a generator seeded with ``seed``."""
    return format(random.Random(seed).getrandbits(count), "b").zfill(count) if count else ""


# A value whose reduced denominator has more than 4300 decimal digits, the
# interpreter's default limit on int to str; 14 000 bits stay under it.
OVER_DIGIT_LIMIT = f"({seeded_bits(1, 14300)})"


def test_stream_value_over_the_digit_limit_is_refused():
    with _int_digit_limit(4300):
        result = run(["stream", "value", OVER_DIGIT_LIMIT])
        assert result.exit_code == 2
        assert result.output == ""
        assert result.diagnostics.startswith("BudgetExceeded: stream value has a ")
        assert "limit of 4300 decimal digits" in result.diagnostics
        assert "\n" not in result.diagnostics
        under = f"({seeded_bits(1, 14000)})"
        result = run(["stream", "value", under])
        assert result.exit_code == 0
        assert Fraction(result.output) == binary_streams.value(binary_streams.parse_stream(under))


def test_stream_value_refuses_a_long_preamble_before_building_the_value(monkeypatch):
    def built(stream):
        raise AssertionError("built the value of a stream whose value is refused")

    # 2^14284 < 10^4300 < 2^14285: a canonical w1(0) of 14 285 bits has a
    # 4301-digit denominator, one of 14 284 bits a 4300-digit one.
    with _int_digit_limit(4300):
        printed = run(["stream", "value", "1" * 14284 + "(0)"])
        assert printed.exit_code == 0 and printed.output.endswith(f"/{2**14284}")
        # Canonicalized first: the long raw preamble is absorbed into (0).
        assert run(["stream", "value", "0" * 20000 + "(0)"]).output == "0"
        monkeypatch.setattr(binary_streams, "value", built)
        bits = seeded_bits(1, 2 * 10**6)
        for literal in ("1" * 14285 + "(0)", f"{bits[: 10**6]}({bits[10**6 :]})"):
            result = run(["stream", "value", literal])
            assert result.exit_code == 2
            assert result.output == ""
            assert result.diagnostics.startswith("BudgetExceeded: stream value has a denominator divisible by 2^")
            assert result.diagnostics.endswith("over the interpreter's limit of 4300 decimal digits")


def test_stream_parse_error():
    result = run(["stream", "value", "01("])
    assert result.exit_code == 2
    assert result.diagnostics.startswith("ParseError:")
    assert "position" in result.diagnostics


def test_map_forward_and_inverse():
    assert run(["map", "forward", "1(0)"]).output == "0(1)"
    assert run(["map", "inverse", "0(1)"]).output == "1(0)"


def test_map_forward_domain_violation():
    result = run(["map", "forward", "0(1)"])
    assert result.exit_code == 2
    assert result.diagnostics.startswith("DomainViolation:")


def test_map_forward_clips_a_long_stream_in_its_domain_violation_line():
    assert run(["map", "forward", "0(1)"]).diagnostics == (
        "DomainViolation: 0(1) is a redundant stream, outside the domain"
    )
    preamble = format(random.Random(1).getrandbits(10**6), "b").zfill(10**6)
    result = run(["map", "forward", preamble + "0(1)"])
    assert result.exit_code == 2
    assert result.output == ""
    assert len(result.diagnostics) < 120
    assert result.diagnostics.startswith(f"DomainViolation: {preamble[:20]}... ")


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_json():
    result = run(["trace", "--mu-max", "4", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [entry["step"] for entry in doc] == list(range(20, 34))
    assert result.output == run(["trace", "--mu-max", "4", "--format", "json"]).output


def test_trace_text():
    result = run(["trace", "--mu-max", "3"])
    assert result.exit_code == 0
    assert result.output.endswith("verdict: pass")
    assert len(result.output.splitlines()) == 15


def test_trace_over_default_budget_refused_before_enumerating():
    start = time.perf_counter()
    result = run(["trace", "--mu-max", "40"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.output == ""
    assert result.diagnostics.startswith("BudgetExceeded: ")
    assert len(result.diagnostics.splitlines()) == 1
    # Past the budget's bit length, |B| is named by its bound 2^(μ-1),
    # uncounted and at once; μ past 10^20 is named by its bit length.
    for mu_max, mu_name, exponent in [
        (100, "100", "99"),
        (10**12, "1000000000000", "999999999999"),
        (10**4299, "at least 2^14280", "(at least 2^14280)"),
    ]:
        start = time.perf_counter()
        refused = run(["trace", "--mu-max", str(mu_max)])
        assert time.perf_counter() - start < 1.0
        assert refused.exit_code == 2
        assert refused.diagnostics == (
            f"BudgetExceeded: trace up to size {mu_name} would check more than 2^{exponent} streams (budget 1000000)"
        )


def _trace_refused_at_once(monkeypatch, mu_max, digits):
    # The budget has ``digits`` nines, so |B| is counted, and it has more
    # digits than that: past 10^20, so named as at least 2^k, 2^k at most |B|.
    # The budget is named by its bit length. The count itself is
    # made beforehand, so what is timed is the refusal: one count and
    # nothing past the budget check.
    budget = "9" * digits
    budget_log2 = int(budget).bit_length() - 1
    size = binary_streams.count_canonical(mu_max)
    counted = []
    monkeypatch.setattr(bijection, "count_canonical", lambda m: counted.append(m) or size)
    monkeypatch.setattr(bijection, "_check_streams", pytest.fail)
    start = time.perf_counter()
    result = run(["trace", "--mu-max", str(mu_max), "--budget", budget])
    assert time.perf_counter() - start < 1.0
    assert counted == [mu_max]
    assert result.exit_code == 2
    assert result.output == ""
    found = re.fullmatch(
        rf"BudgetExceeded: trace up to size {mu_max} would check at least 2\^([0-9]+) streams \(budget at least 2\^{budget_log2}\)",
        result.diagnostics,
    )
    assert found
    assert int(found.group(1)) == size.bit_length() - 1 >= mu_max - 1


def test_trace_names_a_count_past_the_int_to_str_limit(monkeypatch):
    _trace_refused_at_once(monkeypatch, 14284, 4300)


def test_trace_names_a_count_past_a_lowered_int_to_str_limit(monkeypatch):
    with _int_digit_limit(640):
        _trace_refused_at_once(monkeypatch, 2126, 640)


def test_trace_default_budget_admits_16_and_refuses_18():
    # |B| is 958 236 at 16 and 4 356 660 at 18; only the refusals are run.
    bijection._check_budget(16, finite_sets.DEFAULT_BUDGET)
    refused = run(["trace", "--mu-max", "18"])
    assert refused.exit_code == 2
    assert refused.diagnostics == "BudgetExceeded: trace up to size 18 would check 4356660 streams (budget 1000000)"
    assert run(["trace", "--mu-max", "16", "--budget", "958235"]).exit_code == 2


def test_trace_budget_flag_at_the_size_of_b():
    # |B| = 43 560 canonical streams at size 12.
    argv = ["trace", "--mu-max", "12"]
    refused = run(argv + ["--budget", "43559"])
    assert refused.exit_code == 2
    assert refused.output == ""
    assert refused.diagnostics.startswith("BudgetExceeded: ")
    admitted = run(argv + ["--budget", "43560"])
    assert admitted.exit_code == 0
    assert admitted.output.endswith("verdict: pass")
    assert run(argv + ["--budget", "0"]).exit_code == 1


# ---------------------------------------------------------------------------
# exit codes and wiring
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["unknown-command"],
        ["coverings", "--exp", "a"],  # missing --base
        ["coverings", "--exp", "a", "--base", "0", "--bogus"],
        ["laws", "--check", "NOT_A_LAW", "--a", "1", "--b", "1", "--c", "1"],
        ["trace", "--mu-max", "0"],
        ["coverings", "--exp", "a,,b", "--base", "0"],
        [],
        ["coverings", "--exp", "a,a", "--base", "0,1"],  # duplicate label
        ["trace", "--mu-max", "٣"],  # Arabic-Indic digit
        ["laws", "--check", "all", "--a", "٢", "--b", "1", "--c", "1"],
    ],
)
def test_usage_errors_exit_1(argv):
    result = run(argv)
    assert result.exit_code == 1
    assert result.output == ""



@pytest.mark.parametrize(
    "exp, base, message",
    [
        ("a,a", "0,1", "duplicate label in list"),
        ("a,,b", "0,1", "empty label in list"),
        ("a", ",", "empty label in list"),
    ],
)
def test_coverings_label_list_errors_name_the_fault(monkeypatch, capsys, exp, base, message):
    monkeypatch.setattr("sys.argv", ["continuum", "coverings", "--exp", exp, "--base", base])
    assert main() == 1
    assert capsys.readouterr() == ("", message + "\n")

@pytest.mark.parametrize(
    "argv", [["trace", "--mu-max"], ["laws", "--check", "ADD_EXP", "--b", "1", "--c", "1", "--a"]]
)
def test_integer_options_past_the_digit_limit_are_short_usage_errors(argv):
    with _int_digit_limit(4300):
        result = run(argv + ["9" * 5000])
    assert result.exit_code == 1
    assert result.output == ""
    assert len(result.diagnostics) < 300
    assert "must have at most 4300 digits" in result.diagnostics
    assert "_positive_int" not in result.diagnostics and "_nonnegative_int" not in result.diagnostics


def test_help_exits_0():
    assert run(["--help"]).exit_code == 0


def _parser_argument_by_argument():
    # The command-line surface spelt out one add_argument call at a time, in the order each help text lists them:
    # the four commands that enumerate take --budget as their last argument.
    parser = argparse.ArgumentParser(prog="continuum", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    budget = {"type": int, "default": finite_sets.DEFAULT_BUDGET}
    coverings = sub.add_parser("coverings", help="enumerate the covering-set of one set with another")
    coverings.add_argument("--exp", required=True, help="comma-separated exponent-side (domain) labels")
    coverings.add_argument("--base", required=True, help="comma-separated base-side (codomain) labels")
    coverings.add_argument("--budget", **budget)
    laws = sub.add_parser("laws", help="verify exponent laws by explicit bijection")
    laws.add_argument("--check", required=True, choices=finite_sets.LAW_IDS + ("all",))
    laws.add_argument("--a", type=int, required=True)
    laws.add_argument("--b", type=int, required=True)
    laws.add_argument("--c", type=int, required=True)
    laws.add_argument("--budget", **budget)
    expand = sub.add_parser("expand", help="binary expansion(s) of a rational in [0,1]")
    expand.add_argument("rational", help='rational literal, e.g. "3/8"')
    expand.add_argument("--budget", **budget)
    sub.add_parser("classify", help="classify a rational point of [0,1]").add_argument("rational")
    stream = sub.add_parser("stream", help="operate on one stream literal")
    stream.add_argument("what", choices=("value", "canon", "member", "dual"))
    stream.add_argument("literal", help='stream literal, e.g. "011(0)" (quote it)')
    map_cmd = sub.add_parser("map", help="apply the stream bijection or its inverse")
    map_cmd.add_argument("direction", choices=("forward", "inverse"))
    map_cmd.add_argument("literal")
    trace = sub.add_parser("trace", help="replay the derivation with bounded checks")
    trace.add_argument("--mu-max", type=int, required=True)
    trace.add_argument("--format", choices=("json", "text"), default="text")
    trace.add_argument("--budget", **budget)
    return parser, sub.choices


def test_every_help_text_is_that_of_the_parser_spelt_out_argument_by_argument():
    # --budget is added to four commands in one loop and the handlers in another, after every other argument:
    # no help or usage text moves a byte.
    expected, expected_subcommands = _parser_argument_by_argument()
    parser = build_parser()
    assert parser.format_help() == expected.format_help()
    assert list(parser.subcommands) == list(expected_subcommands)
    for name, subcommand in parser.subcommands.items():
        assert subcommand.format_help() == expected_subcommands[name].format_help(), name
        assert subcommand.format_usage() == expected_subcommands[name].format_usage(), name
        assert subcommand.get_default("handler") is getattr(cli, f"_cmd_{name}")


def test_parser_is_shared_across_usage_errors_and_help(capsys):
    commands = (
        ["stream", "value", "011(0)"],
        ["map", "inverse", "0(1)"],
        ["expand", "3/8"],
        ["laws", "--check", "ADD_EXP", "--a", "2", "--b", "2", "--c", "2"],
        ["trace", "--mu-max", "3"],
        ["expand", "5/4"],
    )
    before = [run(argv) for argv in commands]
    assert build_parser() is build_parser()
    assert run(["laws", "--check", "NOT_A_LAW", "--a", "1", "--b", "1", "--c", "1"]).exit_code == 1
    assert run(["--help"]).exit_code == 0
    assert run(["trace", "--help"]).exit_code == 0
    assert run(["stream", "value"]).exit_code == 1
    capsys.readouterr()
    assert [run(argv) for argv in commands] == before


def readme_command_lines():
    """The argv of each ``continuum`` example line in README's CLI section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("continuum ")]


def test_each_readme_example_is_parsed_once(monkeypatch):
    # Only the subcommand's parser reads a well-formed line; the top-level
    # parser would add a second parse_known_args call.
    lines = readme_command_lines()
    assert len(lines) == 12
    original = cli._Parser.parse_known_args
    parsed = []

    def counted(parser, *args, **kwargs):
        parsed.append(parser.prog)
        return original(parser, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
    for argv in lines:
        parsed.clear()
        assert run(argv).exit_code == 0, argv
        assert parsed == [f"continuum {argv[0]}"], argv


def test_main_wiring(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["continuum", "expand", "3/8"])
    assert main() == 0
    captured = capsys.readouterr()
    assert captured.out == "011(0)\n010(1)\n"
    assert captured.err == ""

    monkeypatch.setattr("sys.argv", ["continuum", "expand", "5/4"])
    assert main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("OutOfRange:")


def test_module_runs_as_a_script():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def script(*argv):
        return subprocess.run([sys.executable, "-m", "continuum.cli", *argv], env=env, capture_output=True, text=True)

    done = script("laws", "--check", "ADD_EXP", "--a", "2", "--b", "1", "--c", "1")
    assert (done.returncode, done.stdout, done.stderr) == (0, "ADD_EXP a=2 b=1 c=1: |left|=4 |right|=4 bijection=valid\n", "")
    done = script("classify", "3/2")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("OutOfRange:") and done.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# any command line
# ---------------------------------------------------------------------------

# ``trace``'s default budget admits bounds that run for many seconds, so
# bounds stay at 6 or below. Streams have 8 bits or fewer, or 10^4 to
# 2 * 10^4 seeded random bits, enough to pass the limit on int to str in
# ``stream value``. ``expand``
# refuses a period bound b' - 1 over its budget before searching, so
# rationals in [0, 1] have denominators up to 10^7: the default budget
# admits those with b' <= 1000001 and refuses the rest.
NUMERAL = "1" * 5000
SUBCOMMANDS = ("coverings", "laws", "expand", "classify", "stream", "map", "trace")
FLAGS = ("--exp", "--base", "--budget", "--check", "--a", "--b", "--c", "--mu-max", "--format", "--help")
CHOICES = (
    "ADD_EXP", "MUL_EXP", "CURRY", "all", "value", "canon", "member", "dual", "forward", "inverse", "json", "text"
)
MERSENNE_61 = f"1/{2**61 - 1}"
unit_rationals = st.integers(1, 10**7).flatmap(
    lambda denominator: st.builds("{}/{}".format, st.integers(0, denominator), st.just(denominator))
)


def seeded_literal(seed):
    """A literal of 10^4 to 2 * 10^4 bits with a preamble under 10^4, all drawn from ``seed``."""
    draw = random.Random(seed)
    total, preamble = draw.randint(10**4, 2 * 10**4), draw.randrange(10**4)
    return f"{seeded_bits(seed, preamble)}({seeded_bits(seed + 1, total - preamble)})"


# Sizes come from the seed, not from st.integers, so they are uniform: more
# than half the literals pass the limit on int to str in ``stream value``.
long_literals = st.integers(0, 2**32).map(seeded_literal)
short_literals = st.builds("{}({})".format, st.text("01", max_size=4), st.text("01", min_size=1, max_size=4))
MALFORMED = ("٣", "٣/٨", "01(", "(0", "()", "2(0)", "1(0)1", "1.5", "-1/2", "", "a,,b", "0_1(0)", " 1")
tokens = st.one_of(
    st.sampled_from(SUBCOMMANDS),
    st.sampled_from(FLAGS),
    st.sampled_from(CHOICES),
    st.integers(0, 6).map(str),
    st.builds("{}/{}".format, st.integers(0, 999), st.integers(0, 999)),
    unit_rationals,
    short_literals,
    long_literals,
    st.sampled_from(MALFORMED),
    st.just(NUMERAL),
)
# Most command lines start with a subcommand, so that more of them get past
# argparse to a handler; some are well-formed ``stream`` and ``map`` lines,
# so that long literals reach every choice of those two.
STREAM_LINES = (
    ("stream", "value"), ("stream", "canon"), ("stream", "member"), ("stream", "dual"),
    ("map", "forward"), ("map", "inverse"),
)
command_lines = st.one_of(
    st.lists(tokens, max_size=8),
    st.builds(lambda command, rest: [command, *rest], st.sampled_from(SUBCOMMANDS), st.lists(tokens, max_size=4)),
    st.builds(
        lambda line, literal: [*line, literal], st.sampled_from(STREAM_LINES), st.one_of(short_literals, long_literals)
    ),
)
DOMAIN_ERROR_LINE = re.compile("(OutOfRange|DisjointnessViolation|DomainViolation|ParseError|BudgetExceeded): .+")


# 300 examples, so that random draws reach an over-limit ``stream value``
# in nearly every run, not only through the ``@example``.
@settings(deadline=None, max_examples=300)
@given(command_lines)
@example(["expand", NUMERAL])
@example(["classify", NUMERAL])
@example(["expand", MERSENNE_61])
@example(["stream", "value", OVER_DIGIT_LIMIT])
def test_run_never_raises_on_any_command_line(argv):
    result = run(argv)
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert result.output == ""
        assert DOMAIN_ERROR_LINE.fullmatch(result.diagnostics)


def top_level_run(argv):
    """The oracle for ``run``: the top-level parser parses every line, then the handler runs."""
    try:
        args = build_parser().parse_args(argv)
        return cli.CommandResult(0, output=args.handler(args))
    except cli._UsageError as err:
        return cli.CommandResult(1, diagnostics=str(err))
    except SystemExit as err:
        return cli.CommandResult(int(err.code or 0))
    except errors.DomainError as err:
        return cli.CommandResult(2, diagnostics=f"{type(err).__name__}: {err}")


def with_output(call, argv):
    """``call(argv)`` with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = call(argv)
    return result, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(command_lines)
@example([])
@example(["-h"])
@example(["bogus"])
@example(["map", "forward", "1(0)", "extra"])
@example(["--", "map", "forward", "1(0)"])
@example(["trace", "--mu-max", "3", "--mu-max", "4"])
@example(["expand", "--bud", "5", "1/3"])
@example(["map", "-h"])
def test_run_answers_as_the_top_level_parser_does(argv):
    assert with_output(run, argv) == with_output(top_level_run, argv)


@settings(deadline=None)
@given(unit_rationals)
@example(MERSENNE_61)
@example("1/1000001")
@example("1/1000003")
def test_expand_admits_a_rational_iff_its_period_bound_fits_the_budget(rational):
    denominator = Fraction(rational).denominator
    odd = denominator // (denominator & -denominator)
    result = run(["expand", rational])
    if odd - 1 > finite_sets.DEFAULT_BUDGET:
        assert result.exit_code == 2
        assert result.output == ""
        assert result.diagnostics.startswith("BudgetExceeded: ")
    else:
        assert result.exit_code == 0
        for line in result.output.splitlines():
            period = line[line.index("(") + 1 : -1]
            assert pow(2, len(period), odd) == 1 % odd  # 2^P = 1 (mod b'); b' = 1 is dyadic
