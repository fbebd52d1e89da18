"""An explicit bijection between canonical streams and all streams.

The redundant trailing-ones expansions form a countable family; the
canonical streams absorb it by a Hilbert-hotel shift along a fixed
countable chain T inside the canonical class:

* ``t_k = w1(0)`` -- trailing-zeros expansion of the k-th dyadic point,
* ``s_k = w0(1)`` -- trailing-ones expansion of the same point,
  where w is k + 1 in binary without its leading 1,

and the forward map sends ``t_{2k} -> s_k``, ``t_{2k+1} -> t_k``, and
fixes every canonical stream outside T. Its inverse is total on the
whole stream universe. Both directions are computable in time linear
in the stream size because membership in T (and the index) reads off
the canonical form directly.

:func:`derivation_trace` replays the set-algebra chain justifying the map as numbered
steps, frozen values. Statements that only involve streams are checked exhaustively over
all canonical streams of bounded size, in one pass that keeps state only for the streams the
map moves; statements about the genuinely uncountable or order-theoretic side (the full
string space, the unit interval, the reals) are recorded symbolically and never claimed as
checked. The checks are deterministic and order-independent, so replays are reproducible bit
for bit. The trace imports ``json`` only when it writes JSON.
"""

from __future__ import annotations

from ._value import _Value
from .binary_streams import (
    EPBS,
    _IN_BS,
    _IN_BX,
    _built,
    canonicalize,
    classify_stream,
    count_canonical,
    enumerate_canonical,
    expansions_of,
    value,
)
from .errors import BudgetExceeded, DomainViolation, _excerpt, _size
from .finite_sets import DEFAULT_BUDGET, cardinal_pow


def _word(k: int) -> str:
    # w of t_k and s_k: point int(w) at level |w| + 1, (2 int(w) + 1) / 2^(|w|+1).
    if k < 0:
        raise ValueError("index must be nonnegative")
    return format(k + 1, "b")[1:]


def t_enumerate(k: int) -> EPBS:
    """k-th element of T: trailing-zeros form of the k-th dyadic point."""
    return _built(_word(k) + "1", "0")


def s_enumerate(k: int) -> EPBS:
    """k-th redundant stream: trailing-ones form of the k-th dyadic point."""
    return _built(_word(k) + "0", "1")


def _dyadic_index(canonical: EPBS, tail: str) -> int | None:
    # A canonical ``w b(tail)`` has b opposite to the tail: t_k or s_k, k + 1 = 1w.
    if canonical.period != tail or not canonical.preamble:
        return None
    return int("1" + canonical.preamble[:-1], 2) - 1


def t_index(stream: EPBS) -> int | None:
    """Index of a canonical stream in T, or None when it is outside T."""
    return _dyadic_index(canonicalize(stream), "0")


def s_index(stream: EPBS) -> int | None:
    """Index k with ``stream == s_k``, or None if the stream is canonical."""
    return _dyadic_index(canonicalize(stream), "1")


def forward(stream: EPBS) -> EPBS:
    """The shift map from canonical streams onto the whole universe.

    ``t_{2k} -> s_k``, ``t_{2k+1} -> t_k``, identity elsewhere. Raises
    :class:`DomainViolation` on a redundant (InBS) input. Output is
    canonical.
    """
    canonical = canonicalize(stream)
    if classify_stream(canonical) is _IN_BS:
        raise DomainViolation(f"{_excerpt(str(canonical))} is a redundant stream, outside the domain")
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
    tail = canonical.period  # s_k ends in (1), t_k in (0)
    position = _dyadic_index(canonical, tail) if len(tail) == 1 else None
    if position is None:
        return canonical
    return t_enumerate(2 * position + (tail == "0"))


class DerivationStep(_Value):
    __slots__ = __match_args__ = ("step", "statement", "justification", "bound", "result")


class DerivationTrace(_Value):
    __slots__ = __match_args__ = ("steps",)

    @property
    def verdict(self) -> str:
        return "fail" if any(s.result == "fail" for s in self.steps) else "pass"

    def to_json(self) -> str:
        import json  # only ``trace --format json`` writes JSON, so the CLI starts without it
        return json.dumps([dict(zip(s.__match_args__, s._fields())) for s in self.steps], indent=2, sort_keys=True)


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
    return forward(even) == s and classify_stream(even) is _IN_BX and value(s) == value(t_enumerate(k))


# The steps that a broken left inverse (inverse after forward, which also
# proves forward injective) and a broken round trip (forward after inverse) fail.
_LEFT_INVERSE, _ROUND_TRIP = (29, 30, 32), (29, 30)


def _all_return(moves: dict, back_moves: dict, back) -> bool:
    # Each moved stream's image maps back to it. The image's own image is
    # in ``back_moves`` when the map back moves it; otherwise (fixed, past
    # the bound, or outside the domain of a broken map) ``back`` is called.
    return all((back_moves[m] if m in back_moves else back(m)) == e for e, m in moves.items())


def _check_streams(mu_max: int) -> tuple[set[int], dict[str, int], dict[EPBS, EPBS], dict[EPBS, EPBS]]:
    """Steps 21-32 checked in one pass over the canonical streams of bounded size.

    Returns the numbers of the failed steps, the set counts, and the
    streams that ``forward`` and ``inverse`` move, each mapped to its image.

    The module's ``classify_stream``, ``value``, ``expansions_of``,
    ``inverse``, ``t_index``, ``forward`` and ``t_enumerate`` are read
    once, when the pass starts, so a patched function is the one it
    calls. Each stream is classified, expanded, indexed in T and mapped
    by ``inverse`` once, and each B_X stream mapped by ``forward`` once.
    The only per-stream state is for the streams the map moves; for the
    true map those are T and B_S ∪ T, so memory grows with |T|.

    The left inverse and the round trip of a stream fixed both ways
    close on the spot; those of moved streams are settled from the two
    tables after the pass. Inverse is injective when its moved images
    are distinct and none is a bounded stream it fixes, that is, a
    canonical image of size <= μ that inverse does not move.
    """
    classify, valuate, expand = classify_stream, value, expansions_of
    shift, unshift, index_in_t, nth_in_t = forward, inverse, t_index, t_enumerate
    failed: set[int] = set()
    redundant_count = rest = 0
    t_by_parity = [0, 0]  # |T_E|, |T_O|
    forward_moves: dict[EPBS, EPBS] = {}
    inverse_moves: dict[EPBS, EPBS] = {}
    for e in enumerate_canonical(mu_max):
        redundant = classify(e) is _IN_BS
        expansions = expand(valuate(e))
        position = index_in_t(e)
        image = unshift(e)
        inverse_fixed = image is e or image == e
        if not inverse_fixed:
            inverse_moves[e] = image
            if classify(image) is not _IN_BX:
                failed.add(30)
        if redundant:
            redundant_count += 1
            # 21: a redundant stream is the second of its value's two expansions.
            if not (len(expansions) == 2 and expansions[1] == e):
                failed.add(21)
            # 23: T lies inside B_X, so no redundant stream has an index in it.
            if position is not None:
                failed.add(23)
            if not _holds(_absorbs, e):
                failed.add(26)
            if inverse_fixed:  # outside B_X, and outside the domain of forward
                failed.update(_ROUND_TRIP)
            continue
        # 21: any other stream is the first expansion of its value.
        if not (expansions and expansions[0] == e):
            failed.add(21)
        mapped = shift(e)
        forward_fixed = mapped is e or mapped == e
        if not forward_fixed:
            forward_moves[e] = mapped
            if inverse_fixed:  # forward(inverse(e)) is forward(e), not e
                failed.update(_ROUND_TRIP)
        elif not inverse_fixed:  # inverse(forward(e)) is inverse(e), not e
            failed.update(_LEFT_INVERSE)
        if position is None:
            rest += 1
            if not (forward_fixed and inverse_fixed):
                failed.add(28)
            continue
        # 23: indexing round-trips on the T streams found in B_X.
        t_by_parity[position % 2] += 1
        if nth_in_t(position) != e:
            failed.add(23)
        if not _holds(lambda: shift(nth_in_t(2 * position + 1)) == e):
            failed.add(27)
    if not _holds(_all_return, forward_moves, inverse_moves, unshift):
        failed.update(_LEFT_INVERSE)
    if not _holds(_all_return, inverse_moves, forward_moves, shift):
        failed.update(_ROUND_TRIP)
    images = set(inverse_moves.values())
    clashes = {m for m in images if m.size <= mu_max} - inverse_moves.keys()
    if len(images) != len(inverse_moves) or any(canonicalize(m) == m for m in clashes):
        failed.add(32)
    # Every stream adds to exactly one of |B_S|, |T_E|, |T_O| and |B'_X|, so
    # steps 24 and 25 compare the counts with closed forms. |T| = |B_S|: a
    # nonempty word of fewer than μ bits, ending in 1 before (0) or in 0
    # before (1), so 2^(μ-1) - 1 of each.
    chain = (1 << (mu_max - 1)) - 1
    t_even, t_odd = t_by_parity
    if t_even + t_odd != chain:
        failed.add(24)
    walked = redundant_count + t_even + t_odd + rest
    if walked != count_canonical(mu_max) or not redundant_count == t_even + t_odd == chain:
        failed.add(25)
    sizes = {"B": walked, "B_S": redundant_count, "T_E": t_even, "T_O": t_odd, "B'_X": rest}
    return failed, sizes, forward_moves, inverse_moves


# (step, statement, justification, checked up to the bound μ)
_STEPS = (
    (20, "card(B) = 2^ℵ₀", "Definition", False),
    (21, "B = B_X ∪ B_S", "WitnessedEquivalence", True),
    (22, "B_X ~ X ~ ℝ", "Symbolic", False),
    (23, "B_X = T ∪ B'_X", "Definition", True),
    (24, "B_X = T_E ∪ T_O ∪ B'_X", "Definition", True),
    (25, "B_S ∪ B_X = B_S ∪ T ∪ B'_X", "Definition", True),
    (26, "T_E ~ B_S", "WitnessedEquivalence", True),
    (27, "T_O ~ T", "WitnessedEquivalence", True),
    (28, "B'_X ~ B'_X", "WitnessedEquivalence", True),
    (29, "T_E ∪ T_O ∪ B'_X ~ B_S ∪ T ∪ B'_X", "WitnessedEquivalence", True),
    (30, "B_X ~ B_S ∪ B_X", "WitnessedEquivalence", True),
    (31, "B_X ~ B", "Symbolic", False),
    (32, "card(B_X) = card(B) = 2^ℵ₀", "WitnessedEquivalence", True),
    (33, "card(X) = card(ℝ) = 2^ℵ₀", "Symbolic", False),
)


def _check_budget(mu_max: int, budget: int) -> None:
    # |B| > 2^(μ-1), as B_S and T have 2^(μ-1) - 1 streams each, so a bound
    # past the budget's bit length is refused with that bound, uncounted.
    size = count_canonical(mu_max) if mu_max <= budget.bit_length() else None
    if size is None or size > budget:
        raise BudgetExceeded(f"trace up to size {_size(mu_max)} would check {_size(size, mu_max - 1)} streams (budget {_size(budget)})")


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
    failed = _check_streams(mu_max)[0]
    # Finite shadow of "size of the covering-set = base ** exponent".
    if cardinal_pow(2, 3) != 8 or cardinal_pow(2, 0) != 1:
        failed.add(20)
    steps = []
    for number, statement, justification, bounded in _STEPS:
        result = "not-checkable" if justification == "Symbolic" else "fail" if number in failed else "pass"
        steps.append(DerivationStep(number, statement, justification, mu_max if bounded else None, result))
    return DerivationTrace(tuple(steps))
