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
exhaustively over all canonical streams of bounded size; statements
about the genuinely uncountable or order-theoretic side (the full
string space, the unit interval, the reals) are recorded symbolically
and never claimed as checked. The checks are deterministic and
order-independent, so replays are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .binary_streams import (
    EPBS,
    StreamClass,
    canonicalize,
    classify_stream,
    enumerate_canonical,
    expansions_of,
    value,
)
from .dyadic import Dyadic, index_of
from .errors import DomainViolation
from .finite_sets import cardinal_pow


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


class _Universe:
    """All canonical streams of bounded size, split by class and T-membership.

    ``forward_images`` maps each bounded canonical (B_X) stream to its
    forward image and ``inverse_images`` maps every bounded stream to its
    inverse image, each computed once with the module's current
    ``forward`` and ``inverse``. ``round_trips`` maps every stream to the
    forward image of its inverse image: read from ``forward_images`` when
    that image is a bounded B_X stream, and otherwise (an image past the
    bound, or anything a broken inverse returns outside B_X) from the live
    ``forward``. The tables hold what those functions return, so a lookup
    gives the same answer as the call it replaces.
    """

    def __init__(self, mu_max: int):
        self.streams = enumerate_canonical(mu_max)
        self.in_bs, self.in_bx = [], []
        for e in self.streams:
            redundant = classify_stream(e) is StreamClass.IN_BS
            (self.in_bs if redundant else self.in_bx).append(e)
        self.redundant = set(self.in_bs)
        self.t_positions = {e: k for e in self.in_bx if (k := t_index(e)) is not None}
        self.chain = [e for e in self.in_bx if e in self.t_positions]
        self.outside_chain = [e for e in self.in_bx if e not in self.t_positions]
        self.forward_images = {e: forward(e) for e in self.in_bx}
        self.inverse_images = {e: inverse(e) for e in self.streams}

    @cached_property
    def round_trips(self) -> dict[EPBS, EPBS]:
        # Built by the first step that reads it, so that a broken inverse
        # handing forward a redundant stream fails that step, not the trace.
        known = self.forward_images
        trips = {}
        for e, image in self.inverse_images.items():
            trip = known.get(image)
            trips[e] = trip if trip is not None else forward(image)
        return trips


def _check_partition(u: _Universe) -> bool:
    # Redundant exactly when the value has two expansions and this is the
    # second one: cross-checks the class split against the expansion route.
    for e in u.streams:
        expansions = expansions_of(value(e))
        second = len(expansions) == 2 and e == expansions[1]
        if (e in u.redundant) != second:
            return False
    return True


def _check_chain_definition(u: _Universe) -> bool:
    # T lies inside the canonical class and indexing round-trips.
    for e, k in u.t_positions.items():
        if classify_stream(e) is not StreamClass.IN_BX:
            return False
        if t_enumerate(k) != e:
            return False
    return True


def _check_parity_split(u: _Universe) -> bool:
    evens = {k for k in u.t_positions.values() if k % 2 == 0}
    odds = {k for k in u.t_positions.values() if k % 2 == 1}
    return evens.isdisjoint(odds) and evens | odds == set(u.t_positions.values())


def _check_union_rewrite(u: _Universe) -> bool:
    whole = u.redundant.union(u.in_bx)
    rewritten = u.redundant.union(u.chain, u.outside_chain)
    return whole == rewritten == set(u.streams)


def _check_evens_absorb_redundant(u: _Universe) -> bool:
    # t_{2k} -> s_k hits every bounded redundant stream, value-locked to t_k.
    for s in u.in_bs:
        k = s_index(s)
        if k is None:
            return False
        even = t_enumerate(2 * k)
        if forward(even) != s:
            return False
        if classify_stream(even) is not StreamClass.IN_BX:
            return False
        if value(s) != value(t_enumerate(k)):
            return False
    return True


def _check_odds_reenumerate_chain(u: _Universe) -> bool:
    return all(forward(t_enumerate(2 * k + 1)) == t for t, k in u.t_positions.items())


def _check_identity_outside_chain(u: _Universe) -> bool:
    return all(u.forward_images[e] == e == u.inverse_images[e] for e in u.outside_chain)


def _check_combined_map(u: _Universe) -> bool:
    # The round trips look forward images up where the inverse image is a
    # bounded B_X stream and apply the live forward to the rest, which lie
    # past the bound or, under a broken inverse, outside B_X.
    images = u.forward_images.values()
    if len(set(images)) != len(images):
        return False
    return all(image == e for e, image in u.round_trips.items())


def _check_round_trips(u: _Universe) -> bool:
    # Forward images inside the bound are looked up; a broken forward may
    # leave the bound, and the live inverse is applied to those images.
    for e, image in u.forward_images.items():
        back = u.inverse_images.get(image)
        if (back if back is not None else inverse(image)) != e:
            return False
    return all(
        u.round_trips[e] == e and classify_stream(image) is StreamClass.IN_BX
        for e, image in u.inverse_images.items()
    )


def _check_size_agreement(u: _Universe) -> bool:
    # Injections both ways at the bounded level.
    into_universe = set(u.forward_images.values())
    into_canonical = set(u.inverse_images.values())
    return len(into_universe) == len(u.in_bx) and len(into_canonical) == len(u.streams)


def _check_exponentiation_definition(u: _Universe) -> bool:
    del u
    # Finite shadow of "size of the covering-set = base ** exponent".
    return cardinal_pow(2, 3) == 8 and cardinal_pow(2, 0) == 1


# (step, statement, justification, checker, checked up to the bound μ)
_STEPS = (
    (20, "card(B) = 2^ℵ₀", JUSTIFICATION_DEFINITION, _check_exponentiation_definition, False),
    (21, "B = B_X ∪ B_S", JUSTIFICATION_WITNESSED, _check_partition, True),
    (22, "B_X ~ X ~ ℝ", JUSTIFICATION_SYMBOLIC, None, False),
    (23, "B_X = T ∪ B'_X", JUSTIFICATION_DEFINITION, _check_chain_definition, True),
    (24, "B_X = T_E ∪ T_O ∪ B'_X", JUSTIFICATION_DEFINITION, _check_parity_split, True),
    (25, "B_S ∪ B_X = B_S ∪ T ∪ B'_X", JUSTIFICATION_DEFINITION, _check_union_rewrite, True),
    (26, "T_E ~ B_S", JUSTIFICATION_WITNESSED, _check_evens_absorb_redundant, True),
    (27, "T_O ~ T", JUSTIFICATION_WITNESSED, _check_odds_reenumerate_chain, True),
    (28, "B'_X ~ B'_X", JUSTIFICATION_WITNESSED, _check_identity_outside_chain, True),
    (29, "T_E ∪ T_O ∪ B'_X ~ B_S ∪ T ∪ B'_X", JUSTIFICATION_WITNESSED, _check_combined_map, True),
    (30, "B_X ~ B_S ∪ B_X", JUSTIFICATION_WITNESSED, _check_round_trips, True),
    (31, "B_X ~ B", JUSTIFICATION_SYMBOLIC, None, False),
    (32, "card(B_X) = card(B) = 2^ℵ₀", JUSTIFICATION_WITNESSED, _check_size_agreement, True),
    (33, "card(X) = card(ℝ) = 2^ℵ₀", JUSTIFICATION_SYMBOLIC, None, False),
)


def _result(checker, universe: _Universe) -> str:
    if checker is None:
        return RESULT_NOT_CHECKABLE
    try:
        return RESULT_PASS if checker(universe) else RESULT_FAIL
    except DomainViolation:  # a broken map handed forward a redundant stream
        return RESULT_FAIL


def derivation_trace(mu_max: int) -> DerivationTrace:
    """Replay the derivation as one step per numbered statement.

    Stream-level statements are checked exhaustively over all canonical
    streams with ``size <= mu_max``; statements involving the full
    string space, the unit interval or the reals stay symbolic. Step 31
    is symbolic because it needs "the split classes exhaust *all*
    infinite strings", which holds for the representable fragment by
    construction but is not a finite check; its bounded content is
    already witnessed by step 30.
    """
    if mu_max < 1:
        raise ValueError("mu_max must be >= 1")
    universe = _Universe(mu_max)
    steps = []
    for number, statement, justification, checker, bounded in _STEPS:
        bound = mu_max if bounded else None
        steps.append(DerivationStep(number, statement, justification, bound, _result(checker, universe)))
    return DerivationTrace(tuple(steps))
