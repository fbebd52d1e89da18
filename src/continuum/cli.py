"""Batch command-line surface over the library.

Subcommands: ``coverings``, ``laws``, ``expand``, ``classify``,
``stream``, ``map``, ``trace``. Output is deterministic and
byte-identical across runs. Exit codes: 0 success, 1 usage error,
2 domain error (one ``Name: message`` line on stderr, no traceback).
Each command runs in a fresh interpreter, so importing this module loads neither
``dataclasses``, ``typing`` nor ``json``; ``trace --format json`` imports ``json`` itself.

Stream literals contain parentheses, so quote them in a shell:
``continuum map forward "1(0)"``.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable

from . import bijection, binary_streams, dyadic, finite_sets
from ._value import _Value
from .errors import BudgetExceeded, DomainError, _size


class CommandResult(_Value):
    __slots__ = __match_args__ = ("exit_code", "output", "diagnostics")
    _defaults = {"output": "", "diagnostics": ""}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1 (argparse's default is 2, reserved here
    # for domain errors).
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _label_set(text: str) -> finite_sets.FiniteSet:
    labels = text.split(",") if text else []
    if "" in labels:
        raise _UsageError("empty label in list")
    try:
        return finite_sets.FiniteSet(tuple(labels))
    except ValueError:  # FiniteSet refuses a repeated label
        raise _UsageError("duplicate label in list") from None


def _cmd_coverings(args) -> str:
    domain, codomain = _label_set(args.exp), _label_set(args.base)
    finite_sets.check_covering_budget(domain, codomain, args.budget)
    # Longer labels are joined by commas, which no label holds, so no two coverings print alike.
    sep = "" if all(len(label) == 1 for label in codomain) else ","
    return "\n".join(finite_sets.covering_set(domain, codomain).lines(sep))


def _cmd_laws(args) -> str:
    laws = finite_sets.LAW_IDS if args.check == "all" else (args.check,)
    for law in laws:  # refuse before any law is built
        finite_sets.check_law_budget(law, args.a, args.b, args.c, args.budget)
    lines = []
    for law in laws:
        # verify_exponent_law raises unless the witness is a bijection; its sizes are counted on words.
        left, right = finite_sets.verify_exponent_law(law, args.a, args.b, args.c, args.budget).sizes()
        lines.append(
            f"{law} a={args.a} b={args.b} c={args.c}: "
            f"|left|={left} |right|={right} "
            "bijection=valid"
        )
    return "\n".join(lines)


def _cmd_expand(args) -> str:
    point = dyadic.parse_rational(args.rational)
    bound = binary_streams.period_bound(point)
    if bound > args.budget:
        raise BudgetExceeded(f"expand would search a period of up to b' - 1 = {_size(bound)} bits (budget {_size(args.budget)})")
    return "\n".join(map(str, binary_streams.expansions_of(point)))


def _cmd_classify(args) -> str:
    point = dyadic.classify(dyadic.parse_rational(args.rational))
    if isinstance(point, dyadic.Dyadic):
        return f"DualDyadic nu={point.odd_index} mu={point.exponent}"
    if isinstance(point, dyadic.Endpoint):
        return f"Endpoint {point.value}"
    return "OtherRational"


def _cmd_stream(args) -> str:
    stream = binary_streams.parse_stream(args.literal)
    if args.what == "value":
        # A canonical w(p) has exactly 2^|w| in its reduced denominator, so a long w is refused
        # before the value is built; 2^(3 * limit) < 10^limit, so short w skip computing 10^limit.
        canonical, limit = binary_streams.canonicalize(stream), getattr(sys, "get_int_max_str_digits", lambda: 0)()
        power = len(canonical.preamble)
        if limit and power > 3 * limit and power >= (10**limit).bit_length():
            found = f"denominator divisible by 2^{power}"
        else:
            point = binary_streams.value(canonical)
            try:
                return str(point)
            except ValueError:  # more decimal digits than str() may write for an int
                found = f"{point.denominator.bit_length()}-bit denominator"
        raise BudgetExceeded(f"stream value has a {found}, over the interpreter's limit of {limit} decimal digits")
    if args.what == "canon":
        return str(binary_streams.canonicalize(stream))
    if args.what == "member":
        return binary_streams.classify_stream(stream).value
    dual = binary_streams.dual_of(stream)
    return str(dual) if dual is not None else "none"


def _cmd_map(args) -> str:
    stream = binary_streams.parse_stream(args.literal)
    return str(bijection.forward(stream) if args.direction == "forward" else bijection.inverse(stream))


def _cmd_trace(args) -> str:
    trace = bijection.derivation_trace(args.mu_max, args.budget)
    if args.format == "json":
        return trace.to_json()
    lines = [f"{step.step:>2}  {step.justification:<21} {step.result:<14} {step.statement}" for step in trace.steps]
    lines.append(f"verdict: {trace.verdict}")
    return "\n".join(lines)


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def read(text: str) -> int:
        if re.fullmatch("[0-9]+", text) is None:
            raise argparse.ArgumentTypeError("must be an integer in ASCII digits")
        try:
            value = int(text)
        except ValueError:  # more digits than int() may read
            raise argparse.ArgumentTypeError(f"must have at most {sys.get_int_max_str_digits()} digits") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    return read


# Built by the first build_parser call and shared by every later command:
# parse_args keeps no state in the parser between calls.
_PARSER: _Parser | None = None


def build_parser() -> _Parser:
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = _Parser(prog="continuum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    coverings = sub.add_parser("coverings", help="enumerate the covering-set of one set with another")
    coverings.add_argument("--exp", required=True, help="comma-separated exponent-side (domain) labels")
    coverings.add_argument("--base", required=True, help="comma-separated base-side (codomain) labels")
    coverings.add_argument("--budget", type=_int_at_least(1), default=finite_sets.DEFAULT_BUDGET)
    coverings.set_defaults(handler=_cmd_coverings)

    laws = sub.add_parser("laws", help="verify exponent laws by explicit bijection")
    laws.add_argument("--check", required=True, choices=finite_sets.LAW_IDS + ("all",))
    laws.add_argument("--a", type=_int_at_least(0), required=True)
    laws.add_argument("--b", type=_int_at_least(0), required=True)
    laws.add_argument("--c", type=_int_at_least(0), required=True)
    laws.add_argument("--budget", type=_int_at_least(1), default=finite_sets.DEFAULT_BUDGET)
    laws.set_defaults(handler=_cmd_laws)

    expand = sub.add_parser("expand", help="binary expansion(s) of a rational in [0,1]")
    expand.add_argument("rational", help='rational literal, e.g. "3/8"')
    expand.add_argument("--budget", type=_int_at_least(1), default=finite_sets.DEFAULT_BUDGET)
    expand.set_defaults(handler=_cmd_expand)

    classify = sub.add_parser("classify", help="classify a rational point of [0,1]")
    classify.add_argument("rational")
    classify.set_defaults(handler=_cmd_classify)

    stream = sub.add_parser("stream", help="operate on one stream literal")
    stream.add_argument("what", choices=("value", "canon", "member", "dual"))
    stream.add_argument("literal", help='stream literal, e.g. "011(0)" (quote it)')
    stream.set_defaults(handler=_cmd_stream)

    map_cmd = sub.add_parser("map", help="apply the stream bijection or its inverse")
    map_cmd.add_argument("direction", choices=("forward", "inverse"))
    map_cmd.add_argument("literal")
    map_cmd.set_defaults(handler=_cmd_map)

    trace = sub.add_parser("trace", help="replay the derivation with bounded checks")
    trace.add_argument("--mu-max", type=_int_at_least(1), required=True)
    trace.add_argument("--format", choices=("json", "text"), default="text")
    trace.add_argument("--budget", type=_int_at_least(1), default=finite_sets.DEFAULT_BUDGET)
    trace.set_defaults(handler=_cmd_trace)

    parser.subcommands = sub.choices  # name -> that subcommand's parser
    _PARSER = parser
    return parser


def run(argv: list[str]) -> CommandResult:
    """Dispatch one command line; never raises for user-level errors."""
    parser = build_parser()
    try:
        # A line that starts with a subcommand is parsed by that subcommand's parser alone; any
        # other line, or one it leaves tokens over from, is parsed again by the top-level parser,
        # so argparse itself writes every usage error and help text.
        subparser = parser.subcommands.get(argv[0]) if argv else None
        args, extra = subparser.parse_known_args(argv[1:]) if subparser else (None, None)
        if extra or subparser is None:
            args = parser.parse_args(argv)
        return CommandResult(0, args.handler(args), "")
    except _UsageError as err:
        return CommandResult(1, "", str(err))
    except SystemExit as err:  # --help prints and exits 0
        return CommandResult(int(err.code or 0))
    except DomainError as err:
        return CommandResult(2, "", f"{type(err).__name__}: {err}")


def main() -> int:
    result = run(sys.argv[1:])
    if result.output:
        print(result.output)
    if result.diagnostics:
        print(result.diagnostics, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
