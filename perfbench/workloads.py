"""The benchmark's workloads: argv lists generated from the seed, and checks.

Each workload is a list of passes; a pass is a list of :class:`Command`.
The program under test only ever sees the argv lists. Every check
compares against :mod:`reference` or plain integer arithmetic, never
against the library.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import reference

# sha256 of ``trace --mu-max N --format json`` output, recorded at the
# commit that introduced this benchmark. The trace JSON must stay
# byte-identical (acceptance criterion 7 and ROADMAP).
TRACE_DIGESTS = {
    10: "7ed56df6ee20319ffd88dfb4f36f08b504e020b7ad6c6e33cad9837a6919b05e",
    12: "cd1bbc528aef906719b6646b1d7d24d4d30de151cc6654fa9f8ccfdac4849bfd",
}
TRACE_MUS = (10, 12)
# The smaller command repeats within a pass so that its median rests on
# about as many seconds of samples as the larger one's.
TRACE_PASS = (10, 10, 10, 12)

LAW_COMMANDS = (
    ("all", 3, 3, 3),
    ("all", 3, 3, 3),
    ("all", 3, 3, 3),
    ("all", 3, 3, 3),
    ("ADD_EXP", 2, 9, 9),
    ("MUL_EXP", 4, 4, 4),
)
COVERING_LABELS = 16

LONG_PREAMBLE = 1000
LONG_PERIOD = 200
LONG_ODD_MIN, LONG_ODD_MAX = 90_000, 100_000


@dataclass
class Command:
    argv: list[str]
    check: Callable[[object], str | None]  # CommandResult -> mismatch reason
    items: int  # units of work the command completes
    role: str = ""  # "median" / "tail": which latency metric it feeds


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def _check_trace(mu: int):
    def check(result) -> str | None:
        if result.exit_code != 0:
            return f"trace mu={mu}: exit {result.exit_code}: {result.diagnostics[:120]}"
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        if digest != TRACE_DIGESTS[mu]:
            return f"trace mu={mu}: JSON digest {digest} differs from the recorded one"
        results = {step["result"] for step in json.loads(result.output)}
        if not results <= {"pass", "not-checkable"}:
            return f"trace mu={mu}: verdict is not pass"
        return None

    return check


def trace_pass(seed: int, index: int) -> list[Command]:
    del seed, index  # the trace is fully determined by mu
    return [
        Command(
            ["trace", "--mu-max", str(mu), "--format", "json"],
            _check_trace(mu),
            reference.bounded_set_sizes(mu)["B"],
            "median" if mu == TRACE_MUS[0] else "tail",
        )
        for mu in TRACE_PASS
    ]


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

_LAW_SIZES = {
    "ADD_EXP": lambda a, b, c: a**b * a**c,
    "MUL_EXP": lambda a, b, c: a**c * b**c,
    "CURRY": lambda a, b, c: (a**b) ** c,
}


def _check_laws(check_id: str, a: int, b: int, c: int):
    laws = tuple(_LAW_SIZES) if check_id == "all" else (check_id,)
    expected = "\n".join(
        f"{law} a={a} b={b} c={c}: |left|={n} |right|={n} bijection=valid"
        for law in laws
        for n in [_LAW_SIZES[law](a, b, c)]
    )

    def check(result) -> str | None:
        if result.exit_code != 0 or result.output != expected:
            return f"laws {check_id}: got exit {result.exit_code} {result.output[:120]!r}"
        return None

    items = sum(2 * _LAW_SIZES[law](a, b, c) for law in laws)
    return check, items


def _check_coverings(labels: int):
    def check(result) -> str | None:
        lines = result.output.split("\n")
        if result.exit_code != 0 or len(lines) != 2**labels:
            return f"coverings: exit {result.exit_code}, {len(lines)} lines"
        for i, line in enumerate(lines):
            if line != format(i, f"0{labels}b"):
                return f"coverings: line {i} is {line!r}"
        return None

    return check


def laws_pass(seed: int, index: int) -> list[Command]:
    del seed, index  # fixed commands
    commands = []
    for check_id, a, b, c in LAW_COMMANDS:
        check, items = _check_laws(check_id, a, b, c)
        argv = ["laws", "--check", check_id, "--a", str(a), "--b", str(b), "--c", str(c)]
        role = {"all": "median", "ADD_EXP": "tail"}.get(check_id, "")
        commands.append(Command(argv, check, items, role))
    exp = ",".join(f"n{i}" for i in range(COVERING_LABELS))
    commands.append(
        Command(["coverings", "--exp", exp, "--base", "0,1"], _check_coverings(COVERING_LABELS), 2**COVERING_LABELS)
    )
    return commands


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

_STREAM_OPS = (
    ["map", "forward"],
    ["map", "inverse"],
    ["stream", "value"],
    ["stream", "canon"],
    ["stream", "member"],
    ["stream", "dual"],
)
_RATIONAL_OPS = (["expand"], ["classify"])


def _bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def _short_stream(rng: random.Random) -> str:
    # size <= 12: preamble 0..6 bits, period 1..6 bits
    return f"{_bits(rng, rng.randint(0, 6))}({_bits(rng, rng.randint(1, 6))})"


def _long_stream(rng: random.Random) -> str:
    """A 1000-bit preamble and a 200-bit period, in one of four shapes."""
    shape = rng.randrange(4)
    if shape == 0:  # random: canonicalize only checks, absorbs nothing much
        return f"{_bits(rng, LONG_PREAMBLE)}({_bits(rng, LONG_PERIOD)})"
    if shape == 1:  # non-primitive period: a short word repeated
        word = _bits(rng, rng.choice((1, 2, 4, 5, 8, 10, 20, 25, 40, 50, 100)))
        return f"{_bits(rng, LONG_PREAMBLE)}({word * (LONG_PERIOD // len(word))})"
    if shape == 2:  # preamble tail is the period's continuation: it is absorbed
        period = _bits(rng, LONG_PERIOD)
        absorbed = rng.randint(1, LONG_PREAMBLE)
        head = _bits(rng, LONG_PREAMBLE - absorbed)
        tail = (period * (absorbed // LONG_PERIOD + 1))[-absorbed:]
        return f"{head}{tail}({period})"
    # dyadic: period all 0s or all 1s, so the stream is in T or in B_S
    bit = rng.choice("01")
    return f"{_bits(rng, LONG_PREAMBLE)}({bit * LONG_PERIOD})"


def _short_rational(rng: random.Random) -> str:
    denominator = rng.randint(1, 64)
    return f"{rng.randint(0, denominator)}/{denominator}"


def _prime_factors(n: int) -> set[int]:
    factors, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    return factors | {n} if n > 1 else factors


@functools.cache
def full_period_primes() -> tuple[int, ...]:
    """Primes p in [LONG_ODD_MIN, LONG_ODD_MAX] with 2 a primitive root mod p.

    1/p then has a binary period of exactly p - 1 digits, so every long
    ``expand`` costs about the same: the p99 lands on a plateau instead
    of on a slope that moves with the seed.
    """
    return tuple(
        p
        for p in range(LONG_ODD_MIN | 1, LONG_ODD_MAX + 1, 2)
        if _prime_factors(p) == {p} and all(pow(2, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1))
    )


def _long_rational(rng: random.Random) -> str:
    prime = rng.choice(full_period_primes())
    denominator = prime << rng.randint(0, 20)
    numerator = rng.randrange(1, denominator)
    while numerator % prime == 0:
        numerator = rng.randrange(1, denominator)
    return f"{numerator}/{denominator}"


def _error_query(rng: random.Random) -> list[str]:
    kind = rng.randrange(4)
    if kind == 0:  # InBS stream outside the forward map's domain
        return ["map", "forward", f"{_bits(rng, rng.randint(0, 5))}0({'1' * rng.randint(1, 4)})"]
    if kind == 1:  # value out of [0, 1]
        denominator = rng.randint(1, 64)
        return [rng.choice(("expand", "classify")), f"{denominator + rng.randint(1, 64)}/{denominator}"]
    if kind == 2:  # malformed stream literal
        literal = rng.choice(("01(2)", "0101", "(1", "1()", "10)01(", "0a(1)"))
        return [*rng.choice(_STREAM_OPS), literal]
    return [rng.choice(("expand", "classify")), rng.choice(("3/0", "1.5", "x/2", "1/2/3", "7/00"))]


def _short_query(rng: random.Random) -> list[str]:
    if rng.random() < 0.75:
        return [*rng.choice(_STREAM_OPS), _short_stream(rng)]
    return [*rng.choice(_RATIONAL_OPS), _short_rational(rng)]


# Queries of each kind in one pass (1200 queries), in seeded order.
# Exact counts keep the mix, and so the percentiles, the same for every seed.
QUERY_MIX = (
    (1020, _short_query),  # 85%: streams of size <= 12, denominators <= 64
    (96, lambda rng: [*rng.choice(_STREAM_OPS), _long_stream(rng)]),  # 8%
    (18, lambda rng: ["expand", _long_rational(rng)]),  # 1.5%: the tail
    (6, lambda rng: ["classify", _long_rational(rng)]),  # 0.5%
    (60, _error_query),  # 5%: the answer is a domain error
)


def query_argvs(seed: int, index: int) -> list[list[str]]:
    rng = random.Random(f"queries:{seed}:{index}")
    makers = [make for count, make in QUERY_MIX for _ in range(count)]
    rng.shuffle(makers)
    return [make(rng) for make in makers]


def queries_pass(seed: int, index: int) -> list[Command]:
    return [
        Command(argv, reference.expect_query(argv).mismatch, 1)
        for argv in query_argvs(seed, index)
    ]


WORKLOADS = {
    "trace": trace_pass,
    "queries": queries_pass,
    "laws": laws_pass,
}
