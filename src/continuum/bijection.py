"""An explicit bijection between canonical streams and all streams.

The redundant trailing-ones expansions form a countable family; the
canonical streams absorb it by a Hilbert-hotel shift along a fixed
countable chain T inside the canonical class:

* ``t_k``  -- trailing-zeros expansion of the k-th dyadic point,
* ``s_k``  -- trailing-ones expansion of the same point,

and the forward map sends ``t_{2k} -> s_k``, ``t_{2k+1} -> t_k``, and
fixes every canonical stream outside T. Its inverse is total on the
whole stream universe. Both directions are computable in time linear
in the stream size because membership in T (and the index) reads off
the canonical form directly.

:func:`derivation_trace` replays the set-algebra chain justifying the
map as numbered steps. Statements that only involve streams are checked
exhaustively over all canonical streams of bounded size, in one pass
that keeps state only for the streams the map moves; statements
about the genuinely uncountable or order-theoretic side (the full
string space, the unit interval, the reals) are recorded symbolically
and never claimed as checked. The checks are deterministic and
order-independent, so replays are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .binary_streams import (
    EPBS,
    StreamClass,
    canonicalize,
    classify_stream,
    count_canonical,
    enumerate_canonical,
    expansions_of,
    value,
)
from .dyadic import Dyadic, index_of
from .errors import BudgetExceeded, DomainViolation
from .finite_sets import DEFAULT_BUDGET, cardinal_pow


def t_enumerate(k: int) -> EPBS:
    """k-th element of T: trailing-zeros form of the k-th dyadic point."""
    point = Dyadic.from_index(k)
    return EPBS(format(point.numerator, f"0{point.exponent}b"), "0")


def s_enumerate(k: int) -> EPBS:
    """k-th redundant stream: trailing-ones form of the k-th dyadic point."""
    point = Dyadic.from_index(k)
    return EPBS(format(point.numerator - 1, f"0{point.exponent}b"), "1")


def _dyadic_index(stream: EPBS, tail: str) -> int | None:
    # ``w(tail)`` with w nonempty expands the dyadic point (int(w) + tail) / 2^|w|.
    canonical = canonicalize(stream)
    if canonical.period != tail or not canonical.preamble:
        return None
    numerator = int(canonical.preamble, 2) + int(tail)
    return index_of(Dyadic(numerator, len(canonical.preamble)))


def t_index(stream: EPBS) -> int | None:
    """Index of a canonical stream in T, or None when it is outside T."""
    return _dyadic_index(stream, "0")


def s_index(stream: EPBS) -> int | None:
    """Index k with ``stream == s_k``, or None if the stream is canonical."""
    return _dyadic_index(stream, "1")


def forward(stream: EPBS) -> EPBS:
    """The shift map from canonical streams onto the whole universe.

    ``t_{2k} -> s_k``, ``t_{2k+1} -> t_k``, identity elsewhere. Raises
    :class:`DomainViolation` on a redundant (InBS) input. Output is
    canonical.
    """
    canonical = canonicalize(stream)
    if classify_stream(canonical) is StreamClass.IN_BS:
        raise DomainViolation(f"{canonical} is a redundant stream, outside the domain")
    position = t_index(canonical)
    if position is None:
        return canonical
    k, odd = divmod(position, 2)
    return t_enumerate(k) if odd else s_enumerate(k)


def inverse(stream: EPBS) -> EPBS:
    """Exact inverse of :func:`forward`, total on every stream.

    ``s_k -> t_{2k}``, ``t_k -> t_{2k+1}``, identity elsewhere; the
    output is always canonical and never redundant.
    """
    canonical = canonicalize(stream)
    redundant = s_index(canonical)
    if redundant is not None:
        return t_enumerate(2 * redundant)
    position = t_index(canonical)
    if position is not None:
        return t_enumerate(2 * position + 1)
    return canonical


JUSTIFICATION_DEFINITION = "Definition"
JUSTIFICATION_WITNESSED = "WitnessedEquivalence"
JUSTIFICATION_SYMBOLIC = "Symbolic"

RESULT_PASS = "pass"
RESULT_FAIL = "fail"
RESULT_NOT_CHECKABLE = "not-checkable"


@dataclass(frozen=True)
class DerivationStep:
    step: int
    statement: str
    justification: str
    bound: int | None
    result: str


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple[DerivationStep, ...]

    @property
    def verdict(self) -> str:
        checkable = [s for s in self.steps if s.result != RESULT_NOT_CHECKABLE]
        return RESULT_PASS if all(s.result == RESULT_PASS for s in checkable) else RESULT_FAIL

    def to_json_doc(self) -> list[dict]:
        return [
            {
                "step": s.step,
                "statement": s.statement,
                "justification": s.justification,
                "bound": s.bound,
                "result": s.result,
            }
            for s in self.steps
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc(), indent=2, sort_keys=True)


def _holds(predicate, *args) -> bool:
    try:
        return predicate(*args)
    except DomainViolation:  # a broken map handed forward a redundant stream
        return False


def _absorbs(s: EPBS) -> bool:
    # t_{2k} -> s_k hits the redundant stream s, value-locked to t_k.
    k = s_index(s)
    if k is None:
        return False
    even = t_enumerate(2 * k)
    return forward(even) == s and classify_stream(even) is StreamClass.IN_BX and value(s) == value(t_enumerate(k))


def _all_return(moves: dict, back_moves: dict, back) -> bool:
    # Each moved stream's image maps back to it. The image's own image is
    # in ``back_moves`` when the map back moves it; otherwise (fixed, past
    # the bound, or outside the domain of a broken map) ``back`` is called.
    return all((back_moves[m] if m in back_moves else back(m)) == e for e, m in moves.items())


class _Pass:
    """Steps 21-32 checked in one pass over the canonical streams of bounded size.

    Each stream is classified, expanded and mapped by ``inverse`` once,
    and each B_X stream indexed in T and mapped by ``forward`` once, with
    the module's current functions; the verdicts and the set counts in
    ``sizes`` are updated as the pass goes. The only per-stream state is
    for the streams the map moves: ``forward_moves`` and
    ``inverse_moves`` map each to its image. For the true map they hold
    T and B_S ∪ T, so memory grows with |T|.

    The left inverse (inverse after forward) and the round trip (forward
    after inverse) of a stream fixed both ways close on the spot; those
    of moved streams are settled from the two tables after the pass. The
    left inverse proves forward injective. Inverse is injective when its
    moved images are distinct and none is a bounded stream it fixes,
    which a second pass looks for when a moved image is small enough.
    """

    def __init__(self, mu_max: int):
        self.holds = dict.fromkeys((21, 23, 26, 27, 28), True)
        self.sizes = dict.fromkeys(("B_S", "T_E", "T_O", "B'_X"), 0)
        self.forward_moves: dict[EPBS, EPBS] = {}
        self.inverse_moves: dict[EPBS, EPBS] = {}
        self.left_inverse = self.round_trips = self.images_in_bx = True
        streams = enumerate_canonical(mu_max)
        for e in streams:
            self._visit(e)
        self.sizes["B"] = len(streams)
        self.left_inverse = self.left_inverse and _holds(_all_return, self.forward_moves, self.inverse_moves, inverse)
        self.round_trips = self.round_trips and _holds(_all_return, self.inverse_moves, self.forward_moves, forward)
        images = set(self.inverse_moves.values())
        clashes = {m for m in images if m.size <= mu_max} - self.inverse_moves.keys()
        self.inverse_injective = len(images) == len(self.inverse_moves) and not (
            clashes and any(e in clashes for e in streams)
        )

    def _visit(self, e: EPBS) -> None:
        holds, sizes = self.holds, self.sizes
        redundant = classify_stream(e) is StreamClass.IN_BS
        # 21: redundant exactly when the value has two expansions and e is
        # the second: cross-checks the class against the expansion route.
        expansions = expansions_of(value(e))
        if redundant != (len(expansions) == 2 and e == expansions[1]):
            holds[21] = False
        image = inverse(e)
        inverse_fixed = image == e
        if not inverse_fixed:
            self.inverse_moves[e] = image
            if self.images_in_bx and classify_stream(image) is not StreamClass.IN_BX:
                self.images_in_bx = False
        if redundant:
            sizes["B_S"] += 1
            if holds[26]:
                holds[26] = _holds(_absorbs, e)
            if inverse_fixed:  # outside B_X, and outside the domain of forward
                self.images_in_bx = self.round_trips = False
            return
        position = t_index(e)
        mapped = forward(e)
        forward_fixed = mapped == e
        if not forward_fixed:
            self.forward_moves[e] = mapped
            if inverse_fixed:  # forward(inverse(e)) is forward(e), not e
                self.round_trips = False
        elif not inverse_fixed:  # inverse(forward(e)) is inverse(e), not e
            self.left_inverse = False
        if position is None:
            sizes["B'_X"] += 1
            if not (forward_fixed and inverse_fixed):
                holds[28] = False
            return
        # 23: indexing round-trips on the T streams found in B_X.
        sizes["T_O" if position % 2 else "T_E"] += 1
        if t_enumerate(position) != e:
            holds[23] = False
        if holds[27]:
            holds[27] = _holds(lambda: forward(t_enumerate(2 * position + 1)) == e)

    def verdicts(self) -> dict[int, bool]:
        sizes = self.sizes
        chain_split = sizes["T_E"] + sizes["T_O"] + sizes["B'_X"]
        return {
            **self.holds,
            24: chain_split == sizes["B"] - sizes["B_S"],
            25: sizes["B_S"] + chain_split == sizes["B"],
            29: self.left_inverse and self.round_trips,
            30: self.left_inverse and self.round_trips and self.images_in_bx,
            32: self.left_inverse and self.inverse_injective,
        }


# (step, statement, justification, checked up to the bound μ)
_STEPS = (
    (20, "card(B) = 2^ℵ₀", JUSTIFICATION_DEFINITION, False),
    (21, "B = B_X ∪ B_S", JUSTIFICATION_WITNESSED, True),
    (22, "B_X ~ X ~ ℝ", JUSTIFICATION_SYMBOLIC, False),
    (23, "B_X = T ∪ B'_X", JUSTIFICATION_DEFINITION, True),
    (24, "B_X = T_E ∪ T_O ∪ B'_X", JUSTIFICATION_DEFINITION, True),
    (25, "B_S ∪ B_X = B_S ∪ T ∪ B'_X", JUSTIFICATION_DEFINITION, True),
    (26, "T_E ~ B_S", JUSTIFICATION_WITNESSED, True),
    (27, "T_O ~ T", JUSTIFICATION_WITNESSED, True),
    (28, "B'_X ~ B'_X", JUSTIFICATION_WITNESSED, True),
    (29, "T_E ∪ T_O ∪ B'_X ~ B_S ∪ T ∪ B'_X", JUSTIFICATION_WITNESSED, True),
    (30, "B_X ~ B_S ∪ B_X", JUSTIFICATION_WITNESSED, True),
    (31, "B_X ~ B", JUSTIFICATION_SYMBOLIC, False),
    (32, "card(B_X) = card(B) = 2^ℵ₀", JUSTIFICATION_WITNESSED, True),
    (33, "card(X) = card(ℝ) = 2^ℵ₀", JUSTIFICATION_SYMBOLIC, False),
)


def _check_budget(mu_max: int, budget: int) -> None:
    # |B| > 2^(μ-1), as T alone has 2^(μ-1) - 1 streams, so a bound past
    # the budget's bit length is refused without counting.
    size = count_canonical(mu_max) if mu_max <= budget.bit_length() else None
    if size is None or size > budget:
        found = size if size is not None else f"more than 2^{mu_max - 1}"
        raise BudgetExceeded(f"trace up to size {mu_max} would check {found} streams (budget {budget})")


def derivation_trace(mu_max: int, budget: int = DEFAULT_BUDGET) -> DerivationTrace:
    """Replay the derivation as one step per numbered statement.

    Stream-level statements are checked exhaustively over all canonical
    streams with ``size <= mu_max``; statements involving the full
    string space, the unit interval or the reals stay symbolic. Step 31
    is symbolic because it needs "the split classes exhaust *all*
    infinite strings", which holds for the representable fragment by
    construction but is not a finite check; its bounded content is
    already witnessed by step 30.

    Raises :class:`BudgetExceeded` before enumerating anything when the
    number of streams to check, |B| at ``mu_max``, is over ``budget``.
    """
    if mu_max < 1:
        raise ValueError("mu_max must be >= 1")
    _check_budget(mu_max, budget)
    verdicts = _Pass(mu_max).verdicts()
    # Finite shadow of "size of the covering-set = base ** exponent".
    verdicts[20] = cardinal_pow(2, 3) == 8 and cardinal_pow(2, 0) == 1
    steps = []
    for number, statement, justification, bounded in _STEPS:
        if justification == JUSTIFICATION_SYMBOLIC:
            result = RESULT_NOT_CHECKABLE
        else:
            result = RESULT_PASS if verdicts[number] else RESULT_FAIL
        steps.append(DerivationStep(number, statement, justification, mu_max if bounded else None, result))
    return DerivationTrace(tuple(steps))
