"""Finite set algebra and cardinal arithmetic by explicit enumeration.

Sets are ordered collections of distinct string labels, so products,
covering-sets and law witnesses enumerate in a reproducible order.
Cardinal operations are computed the set-theoretic way: build witness
sets, combine them, count the result. Nothing here shortcuts through
integer arithmetic; the integer laws are what the enumeration is
checked *against*.

A "covering of N with M" is a total function N -> M; the covering-set
(N | M) is the set of all of them, and exponentiation of cardinals is
defined as its size. The three exponent laws are verified by building
the natural bijection between both sides element by element. The check
runs on words of codomain positions: each image is glued from words by
concatenation or table lookup and looked up among the right side's words.
The covering tables themselves are glued too: each covering's word and
label is a head of its first half joined to a tail of the rest. That one
table serves every command: a covering-set is its words, ``coverings``
prints lines glued from the same head and tail tables, and
:func:`cardinal_pow` refuses past 10^6 coverings before it enumerates.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceeded, DisjointnessViolation, _budget, _quantity

DEFAULT_BUDGET = 1_000_000
# The two columns of a witness's pairs.
_LEFT, _RIGHT = operator.itemgetter(0), operator.itemgetter(1)


@dataclass(frozen=True)
class FiniteSet:
    """Ordered finite set of distinct labels (insertion order kept)."""

    elements: tuple[str, ...] = ()
    # The labels as a frozenset, kept from the duplicate check for membership tests.
    members: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        members = frozenset(self.elements)
        if len(members) != len(self.elements):
            raise ValueError("duplicate labels in FiniteSet")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, label: object) -> bool:
        return label in self.members


@dataclass(frozen=True)
class CoveringSet:
    """All coverings of ``domain`` with ``codomain``, enumerated once each.

    A covering is its word: the codomain positions of its values as bytes,
    one byte each up to 256 codomain labels, else two or four, little-endian.
    """

    domain: FiniteSet
    codomain: FiniteSet
    words: tuple[bytes, ...]

    def __post_init__(self):
        expected = len(self.codomain) ** len(self.domain)
        if len(self.words) != expected:
            raise ValueError(f"expected {expected} coverings, got {len(self.words)}")
        if len(set(self.words)) != len(self.words):
            raise ValueError("coverings are not pairwise distinct")

    def __len__(self) -> int:
        return len(self.words)

    def lines(self, sep: str) -> Iterator[str]:
        """Each covering's values joined by ``sep``, in the order of ``words``."""
        (_, heads), (_, tails) = _halves(len(self.domain), self.codomain, sep, "")
        return _glued(heads, tails)


@dataclass(frozen=True)
class LawWitness:
    """An explicit bijection witnessing one exponent law.

    ``pairs`` maps every element of ``left_set`` to one of ``right_set``;
    the witness is only meaningful if :meth:`is_bijection` holds.
    """

    law_id: str
    left_set: FiniteSet
    right_set: FiniteSet
    pairs: tuple[tuple[str, str], ...]

    def is_bijection(self) -> bool:
        lefts = set(map(_LEFT, self.pairs))
        rights = set(map(_RIGHT, self.pairs))
        count = len(self.pairs)
        # With count == |left_set| and lefts == left_set, no left repeats.
        total = count == len(self.left_set) and lefts == self.left_set.members
        injective = len(rights) == count
        surjective = rights == self.right_set.members
        return total and injective and surjective


def disjoint_union(left: FiniteSet, right: FiniteSet) -> FiniteSet:
    """Union of sets that must not share labels.

    Raises :class:`DisjointnessViolation` listing the common labels
    otherwise; the caller that wants a total operation should use
    :func:`tagged_union` instead.
    """
    common = tuple(label for label in left if label in right)
    if common:
        raise DisjointnessViolation(common)
    return FiniteSet(left.elements + right.elements)


def tagged_union(left: FiniteSet, right: FiniteSet) -> FiniteSet:
    """Disjointified union: labels are tagged ``L.``/``R.`` by side.

    Total on all inputs; the result always has ``len(left) + len(right)``
    elements.
    """
    return FiniteSet(
        tuple(f"L.{label}" for label in left) + tuple(f"R.{label}" for label in right)
    )


def pair_label(left: str, right: str) -> str:
    return f"({left},{right})"


def product(left: FiniteSet, right: FiniteSet) -> FiniteSet:
    """All ordered pairs as composite labels, left order major."""
    return FiniteSet(
        tuple(pair_label(a, b) for a in left for b in right)
    )


def covering_set(domain: FiniteSet, codomain: FiniteSet) -> CoveringSet:
    """Enumerate every total function ``domain -> codomain`` exactly once.

    Order is lexicographic: domain elements are the digit positions,
    codomain order gives the digit values. The empty domain yields the
    single empty covering (so sizes follow ``|codomain| ** |domain|``
    with ``0 ** 0 == 1``).
    """
    (heads, _), (tails, _) = _halves(len(domain), codomain)
    return CoveringSet(domain, codomain, tuple(_glued(heads, tails)))


def _require_cardinals(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value}")


def _witness_set(size: int, prefix: str = "") -> FiniteSet:
    return FiniteSet(tuple(f"{prefix}e{i}" for i in range(size)))


def cardinal_add(a: int, b: int) -> int:
    """a + b as the size of a disjointified union of witness sets.

    The witnesses deliberately reuse the same labels, so the sum is only
    correct because it routes through :func:`tagged_union`.
    """
    _require_cardinals(a=a, b=b)
    return len(tagged_union(_witness_set(a), _witness_set(b)))


def cardinal_mul(a: int, b: int) -> int:
    """a * b as the size of the enumerated pair set."""
    _require_cardinals(a=a, b=b)
    return len(product(_witness_set(a), _witness_set(b)))


def cardinal_pow(a: int, b: int) -> int:
    """a ** b as the size of the covering-set of a b-element set with an
    a-element set (``0 ** 0 == 1``: the empty covering). Raises
    :class:`BudgetExceeded` before enumerating past ``DEFAULT_BUDGET`` coverings."""
    _require_cardinals(a=a, b=b)
    domain, codomain = _witness_set(b), _witness_set(a)
    check_covering_budget(domain, codomain, DEFAULT_BUDGET)
    return len(covering_set(domain, codomain))


def _digit_limit() -> int:
    """str()'s limit on the decimal digits of an int: 0 when off or, before Python 3.10.7, absent."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _require_within_budget(what: str, budget: int, count: Callable[[Callable], int]) -> None:
    """Raise :class:`BudgetExceeded` when ``count(power)`` items pass ``budget``.

    ``count`` adds and multiplies ``power(base, exponent)`` results. Each
    is exact below a cap of 2^L that passes the budget and has more
    decimal digits than str() may write (4300, the default, when there is
    no limit: 0 or Python before 3.10.7). It is 2^L once a lower bound of
    the power reaches the cap, so a huge power is never built. A refusal
    names the count in decimal when it is below the cap and str() may
    write it, else as the lower bound ``more than 2^k``.
    """
    digits = _digit_limit() or 4300
    cap = max(budget.bit_length(), 4 * digits) + 1

    def power(base: int, exponent: int) -> int:
        # 2^(exponent * (bit length of base - 1)) is at most base ** exponent.
        return 1 << cap if exponent * (base.bit_length() - 1) >= cap else base**exponent

    cost = count(power)
    if cost > budget:
        exact = cost if cost.bit_length() <= cap else None
        raise BudgetExceeded(f"{what} would enumerate {_quantity(exact, (cost - 1).bit_length() - 1)} items (budget {_budget(budget)})")


def check_covering_budget(domain: FiniteSet, codomain: FiniteSet, budget: int) -> None:
    """Raise :class:`BudgetExceeded`, without computing the power, when the
    covering-set of ``domain`` with ``codomain`` has more than ``budget`` items."""
    what = f"coverings of {len(domain)} labels with {len(codomain)} labels"
    _require_within_budget(what, budget, lambda power: power(len(codomain), len(domain)))


def _enumeration_cost(law_id: str, a: int, b: int, c: int, power: Callable[[int, int], int]) -> int:
    # Total items materialized: the labels of M, N, P (and of N (+) P), the intermediate
    # covering/pair sets and both sides. Words are not counted: none is longer than its label.
    labels = a + b + c
    if law_id == "ADD_EXP":
        return labels + b + c + power(a, b) + power(a, c) + power(a, b) * power(a, c) + power(a, b + c)
    if law_id == "MUL_EXP":
        return labels + power(a, c) + power(b, c) + a * b + power(a, c) * power(b, c) + power(a * b, c)
    return labels + power(a, b) + power(power(a, b), c) + c * b + power(a, b * c)


def check_law_budget(law_id: str, a: int, b: int, c: int, budget: int) -> None:
    """Raise, building nothing, unless ``law_id`` names a law, a, b and c are
    cardinals, and the law's witness enumerates at most ``budget`` items
    (:class:`BudgetExceeded` when it would enumerate more)."""
    if law_id not in LAW_IDS:
        raise ValueError(f"unknown law id {law_id!r}; expected one of {LAW_IDS}")
    _require_cardinals(a=a, b=b, c=c)
    cost = functools.partial(_enumeration_cost, law_id, a, b, c)
    _require_within_budget(f"{law_id} with a={a} b={b} c={c}", budget, cost)


def _glued(heads: list, tails: list) -> Iterator:
    # Each head followed by each tail, head major: itertools.product's order over the joined positions.
    return itertools.starmap(operator.add, itertools.product(heads, tails))


def _halves(length: int, codomain: FiniteSet, sep: str = ",", ends: str = "[]") -> tuple[tuple[list[bytes], list[str]], ...]:
    # Words and labels of the head, the first ``length - length // 2`` positions, and of the tail, the
    # rest. A word is codomain positions as bytes: one byte each up to 256 labels, else two or four.
    # A head label is the first of ``ends`` and its labels joined by ``sep``, a tail label its labels
    # each after ``sep`` and then the last of ``ends``: any head glued to any tail is a covering's
    # label, at every length from 0 on.
    width = 1 if len(codomain) <= 256 else 2 if len(codomain) <= 1 << 16 else 4
    encode = bytes if width == 1 else lambda word: b"".join(k.to_bytes(width, "little") for k in word)
    positions, elements, k = range(len(codomain)), codomain.elements, length - length // 2
    head_labels = [ends[:1] + sep.join(h) for h in itertools.product(elements, repeat=k)]
    tail_labels = [sep.join(("",) + t) + ends[1:] for t in itertools.product(elements, repeat=length - k)]
    head_words, tail_words = (list(map(encode, itertools.product(positions, repeat=n))) for n in (k, length - k))
    return (head_words, head_labels), (tail_words, tail_labels)


def _coverings(length: int, codomain: FiniteSet) -> tuple[list[bytes], tuple[str, ...]]:
    # Words and labels of the coverings of ``length`` labels with ``codomain`` in covering_set's
    # order, each glued from a head and a tail, so only the half tables are built one covering at a time.
    # Labels are glued before words: with words first, peak RSS grew about 1 MB per repeated witness.
    (head_words, head_labels), (tail_words, tail_labels) = _halves(length, codomain)
    labels = tuple(_glued(head_labels, tail_labels))
    return list(_glued(head_words, tail_words)), labels


def _witness(
    lefts: Iterable[tuple[str, bytes]], domain: FiniteSet, codomain: FiniteSet
) -> tuple[FiniteSet, FiniteSet, tuple]:
    # Pairs each left label with the label of the covering whose word is its image; a word that is
    # no covering's misses. The dict from word to label goes before either set is built.
    by_word = dict(zip(*_coverings(len(domain), codomain)))
    try:
        pairs = tuple([(left, by_word[image]) for left, image in lefts])
    except KeyError:
        raise ValueError(f"an image is not a covering of {len(domain)} labels with {len(codomain)} labels") from None
    right = tuple(by_word.values())
    del by_word
    return FiniteSet(tuple(map(_LEFT, pairs))), FiniteSet(right), pairs


def _add_exp_witness(m: FiniteSet, n: FiniteSet, p: FiniteSet) -> tuple[FiniteSet, FiniteSet, tuple]:
    # Pairs of coverings (N -> M, P -> M)  <->  coverings of N (+) P with M.
    (f_words, fs), (g_words, gs) = _coverings(len(n), m), _coverings(len(p), m)
    images = _glued(f_words, g_words)
    lefts = zip(itertools.starmap(pair_label, itertools.product(fs, gs)), images)
    return _witness(lefts, disjoint_union(n, p), m)


def _mul_exp_witness(m: FiniteSet, n: FiniteSet, p: FiniteSet) -> tuple[FiniteSet, FiniteSet, tuple]:
    # Pairs of coverings (P -> M, P -> N)  <->  coverings of P with M x N. The
    # one-position word of each (x, y) is read off the enumerated product.
    mn = product(m, n)
    cells = dict(zip(mn, _coverings(1, mn)[0]))
    table = {(x, y): cells[pair_label(x, y)] for x in m for y in n}
    fs = zip(_coverings(len(p), m)[1], itertools.product(m, repeat=len(p)))
    gs = tuple(zip(_coverings(len(p), n)[1], itertools.product(n, repeat=len(p))))
    lefts = ((pair_label(f, g), b"".join(map(table.__getitem__, zip(xs, ys)))) for f, xs in fs for g, ys in gs)
    return _witness(lefts, p, mn)


def _curry_witness(m: FiniteSet, n: FiniteSet, p: FiniteSet) -> tuple[FiniteSet, FiniteSet, tuple]:
    # Coverings of P with the covering-set (N | M)  <->  coverings of P x N with M.
    words, labels = _coverings(len(n), m)
    images = map(b"".join, itertools.product(words, repeat=len(p)))
    # The left labels are those of the coverings of P with the inner labels.
    lefts = zip(_coverings(len(p), FiniteSet(labels))[1], images)
    return _witness(lefts, product(p, n), m)


_LAW_BUILDERS = {
    "ADD_EXP": _add_exp_witness,
    "MUL_EXP": _mul_exp_witness,
    "CURRY": _curry_witness,
}
LAW_IDS = tuple(_LAW_BUILDERS)


def verify_exponent_law(
    law_id: str, a: int, b: int, c: int, budget: int = DEFAULT_BUDGET
) -> LawWitness:
    """Verify one exponent law on witness sets of sizes a, b, c.

    Laws, with ``|M| = a``, ``|N| = b``, ``|P| = c``:

    * ``ADD_EXP``:  (N|M) x (P|M)  ~  (N (+) P | M)      [a^b * a^c = a^(b+c)]
    * ``MUL_EXP``:  (P|M) x (P|N)  ~  (P | M x N)        [a^c * b^c = (a*b)^c]
    * ``CURRY``:    (P | (N|M))    ~  (P x N | M)        [(a^b)^c = a^(b*c)]

    The returned witness's ``pairs`` is the natural bijection, fully
    enumerated and validated. Raises :class:`BudgetExceeded` before
    enumerating anything when the total item count would pass ``budget``.
    """
    check_law_budget(law_id, a, b, c, budget)
    m = _witness_set(a, "M.")
    n = _witness_set(b, "N.")
    p = _witness_set(c, "P.")
    left_set, right_set, pairs = _LAW_BUILDERS[law_id](m, n, p)
    witness = LawWitness(law_id, left_set, right_set, pairs)
    if not witness.is_bijection():
        raise AssertionError(f"constructed {law_id} witness is not a bijection")
    return witness
