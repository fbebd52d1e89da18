"""Acceptance suite: one test per criterion, each timed and printed.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
PASS lines as they happen).
"""

import itertools
import json
import time
from fractions import Fraction

from continuum.bijection import derivation_trace, forward, inverse, s_enumerate, t_enumerate
from continuum.binary_streams import (
    EPBS,
    StreamClass,
    canonicalize,
    classify_stream,
    enumerate_streams,
    expansions_of,
    value,
)
from continuum.cli import run
from continuum.finite_sets import LAW_IDS, FiniteSet, covering_set, verify_exponent_law


class _Timed:
    def __init__(self, criterion, limit_seconds):
        self.criterion = criterion
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"{status} criterion {self.criterion} ({elapsed:.2f}s / limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.criterion} exceeded its runtime limit: "
                f"{elapsed:.2f}s >= {self.limit}s"
            )
        return False


def test_criterion_1_covering_golden():
    with _Timed(1, 1.0):
        first = run(["coverings", "--exp", "a,b,c", "--base", "0,1"])
        second = run(["coverings", "--exp", "a,b,c", "--base", "0,1"])
        assert first.exit_code == 0
        assert first.output == second.output
        assert set(first.output.splitlines()) == {
            "000", "001", "010", "100", "011", "101", "110", "111",
        }
        assert len(first.output.splitlines()) == 8


def test_criterion_2_covering_cardinality():
    with _Timed(2, 5.0):
        def check(n_size, m_size):
            domain = FiniteSet(tuple(f"n{i}" for i in range(n_size)))
            codomain = FiniteSet(tuple(f"m{i}" for i in range(m_size)))
            cs = covering_set(domain, codomain)
            assert len(cs) == m_size**n_size
            assert len(set(cs.lines(","))) == len(cs)

        for n_size in range(11):
            check(n_size, 2)
        for m_size in range(5):
            for n_size in range(7):
                check(n_size, m_size)


def test_criterion_3_exponent_laws():
    with _Timed(3, 10.0):
        predictions = {
            "ADD_EXP": lambda a, b, c: (a**b * a**c, a ** (b + c)),
            "MUL_EXP": lambda a, b, c: (a**c * b**c, (a * b) ** c),
            "CURRY": lambda a, b, c: ((a**b) ** c, a ** (b * c)),
        }
        for law_id in LAW_IDS:
            for a, b, c in itertools.product(range(4), repeat=3):
                witness = verify_exponent_law(law_id, a, b, c)
                left, right = predictions[law_id](a, b, c)
                assert witness.is_bijection()
                assert len(witness.left_set) == left
                assert len(witness.right_set) == right


def test_criterion_4_expansion_round_trip():
    with _Timed(4, 5.0):
        for den in range(1, 257):
            for num in range(0, den + 1):
                q = Fraction(num, den)
                expansions = expansions_of(q)
                for stream in expansions:
                    assert value(stream) == q
                dual = 0 < q < 1 and (q.denominator & (q.denominator - 1)) == 0
                assert len(expansions) == (2 if dual else 1)
        for mu in range(1, 11):
            for numerator in range(1, 2**mu, 2):
                assert len(expansions_of(Fraction(numerator, 2**mu))) == 2


def test_criterion_5_bijection_round_trips():
    with _Timed(5, 10.0):
        raw = list(enumerate_streams(10))
        assert len(raw) == 18_434  # the ~2e4 bounded streams
        universe = {canonicalize(e) for e in raw}
        for stream in universe:
            back = inverse(stream)
            assert classify_stream(back) is StreamClass.IN_BX
            assert forward(back) == stream
            if classify_stream(stream) is StreamClass.IN_BX:
                assert inverse(forward(stream)) == stream


def test_criterion_6_branch_discipline():
    with _Timed(6, 5.0):
        # Brute-force oracle: dyadic points by (exponent, numerator), each
        # with its trailing-zeros and trailing-ones stream built directly.
        oracle = []
        mu = 1
        while len(oracle) < 1002:
            for numerator in range(1, 2**mu, 2):
                digits = format(numerator, f"0{mu}b")
                oracle.append((EPBS(digits, "0"), EPBS(digits[:-1] + "0", "1")))
            mu += 1
        for k in range(501):
            chain_k, redundant_k = oracle[k]
            assert t_enumerate(k) == chain_k
            assert s_enumerate(k) == redundant_k
            even_image = forward(oracle[2 * k][0])
            assert even_image == redundant_k
            assert classify_stream(even_image) is StreamClass.IN_BS
            assert value(even_image) == value(chain_k)
            assert forward(oracle[2 * k + 1][0]) == chain_k


def test_criterion_7_derivation_trace():
    with _Timed(7, 10.0):
        result = run(["trace", "--mu-max", "8", "--format", "json"])
        assert result.exit_code == 0
        assert result.output == run(["trace", "--mu-max", "8", "--format", "json"]).output
        doc = json.loads(result.output)
        assert [entry["step"] for entry in doc] == list(range(20, 34))
        by_number = {entry["step"]: entry for entry in doc}
        for number in (21, 26, 27, 28, 29, 30, 32):
            assert by_number[number]["justification"] == "WitnessedEquivalence"
            assert by_number[number]["result"] == "pass"
            assert by_number[number]["bound"] == 8
        for number in (31, 33):
            assert by_number[number]["justification"] == "Symbolic"
            assert by_number[number]["result"] == "not-checkable"
        for entry in doc:
            assert set(entry) == {"step", "statement", "justification", "bound", "result"}
        assert derivation_trace(8).verdict == "pass"
