"""Finite set algebra and cardinal arithmetic by explicit enumeration.

Sets, covering-sets and law witnesses are frozen values. Sets are ordered collections of
distinct string labels, so products, covering-sets and law witnesses enumerate in a
reproducible order. A disjoint union refuses sets that share a label, as Cantor's sum
of cardinals presumes. Cardinal powers are computed the set-theoretic way: build witness
sets, enumerate their covering-set, count it. Nothing here shortcuts through integer
arithmetic; the integer laws are what the enumeration is checked *against*.

A "covering of N with M" is a total function N -> M; the covering-set (N | M) is the set
of all of them, and exponentiation of cardinals is defined as its size. The three
exponent laws are verified by building the natural bijection between both sides element
by element, on words of codomain positions: the images are one buffer of fixed-width
words, glued from covering tables a row at a time by concatenation or table lookup, and
must be the enumerated right side's words. Those are listed in the bijection's natural
order, MUL_EXP's regrouped by its interleave, and compared with the images in place row
by row; images in neither order are hashed as a set. Labels are rendered only when a
witness's ``pairs``, ``left_set`` or ``right_set`` is read. Each covering's word or label
is a head of its first half joined to a tail of the rest: a covering-set is its domain
and codomain, glued into words or lines when read, and :func:`cardinal_pow` refuses on
the two sizes before it builds a label.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import operator
import struct
from collections.abc import Callable, Iterable, Iterator

from ._value import _set, _Value
from .errors import BudgetExceeded, DisjointnessViolation, _size

DEFAULT_BUDGET = 1_000_000


class FiniteSet(_Value):
    """Ordered finite set of distinct labels (insertion order kept)."""

    __match_args__ = ("elements",)
    __slots__ = (*__match_args__, "members")  # members: the labels as a frozenset, kept from the duplicate check
    _defaults = {"elements": ()}

    def __post_init__(self):
        members = frozenset(self.elements)
        if len(members) != len(self.elements):
            raise ValueError("duplicate labels in FiniteSet")
        _set(self, "members", members)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, label: object) -> bool:
        return label in self.members


class CoveringSet(_Value):
    """All coverings of ``domain`` with ``codomain``, enumerated once each.

    A covering is its word: the codomain positions of its values as bytes,
    one byte each up to 256 codomain labels, else two or four, little-endian.
    It holds only its two sets; ``words`` and ``len`` enumerate the words anew, ``lines`` the labels alone.
    """

    __slots__ = __match_args__ = ("domain", "codomain")

    @property
    def words(self) -> tuple[bytes, ...]:
        return _covering_words(len(self.domain), len(self.codomain))

    def __len__(self) -> int:
        return len(self.words)

    def lines(self, sep: str) -> Iterator[str]:
        """Each covering's values joined by ``sep``, in the order of ``words``."""
        return _glued(*_label_halves(len(self.domain), self.codomain, sep, ""))


class LawWitness(_Value):
    """An explicit bijection witnessing one exponent law, on words.

    The left side is the product of the covering tables in ``left``, in
    itertools.product's order, and ``images`` is one ``bytes`` of each left element's
    image word in that order, each as wide as a right word. The right side, the coverings of
    ``right[0]`` positions with ``right[1]`` labels, is checked distinct on its head and tail
    tables. Its words are listed in the natural bijection's order, the tables' own or, for MUL_EXP,
    its heads and tails regrouped by the interleave, and compared with the images in place a row
    at a time; images in neither order, such as a permuted witness, are hashed as a set.
    ``pairs``, ``left_set`` and ``right_set`` render labels of the witness sets
    of sizes ``a``, ``b``, ``c`` on first read, into ``__dict__``; nothing else builds a label.
    """

    __match_args__ = ("law_id", "a", "b", "c", "left", "images", "right")  # no __slots__: cached_property needs __dict__

    @functools.cached_property
    def _right_halves(self) -> tuple[list[bytes], list[bytes]]:
        return _word_halves(*self.right)

    _width = property(lambda self: self.right[0] * _byte_width(self.right[1]))  # the bytes of one image word

    def sizes(self) -> tuple[int, int]:
        """|left| and |right|, counted on the covering tables: no label is rendered."""
        heads, tails = self._right_halves
        return math.prod(map(len, self.left)), len(heads) * len(tails)

    def is_bijection(self) -> bool:
        """One image per left element, both sides distinct, and the images are the right words, in natural order or as a set."""
        (heads, tails), (left_size, right_size), width = self._right_halves, self.sizes(), self._width
        # Distinct factor words make distinct left elements; distinct heads of one length, each followed by
        # distinct tails that fill a word, make distinct right words as wide as the images' words.
        if not (len(self.images) == left_size * width and left_size == right_size
                and all(len(set(table)) == len(table) for table in (*self.left, heads, tails))
                and {i + j for i in set(map(len, heads)) for j in set(map(len, tails))} <= {width}):
            return False
        groups = [heads], [tails]
        if self.law_id == "MUL_EXP" and self.right == (self.c, self.a * self.b):  # (f, g) -> h with h_p = (f_p, g_p)
            groups = _by_first(heads, self.a, self.b, (self.c + 1) // 2), _by_first(tails, self.a, self.b, self.c // 2)
        # Groups taking each head and each tail once glue every right word once; a row is compared where the last ends.
        rows, ends = itertools.tee(itertools.chain.from_iterable(itertools.starmap(_rows, itertools.product(*groups))))
        return (all(sorted(itertools.chain(*parts)) == sorted(table) for parts, table in zip(groups, (heads, tails)))
                and all(map(self.images.startswith, rows, itertools.accumulate(map(len, ends), initial=0)))
                or set(_cut(self.images, width, left_size)).issuperset(_glued(heads, tails)))

    @functools.cached_property
    def _rendered(self) -> tuple[FiniteSet, FiniteSet, tuple[tuple[str, str], ...]]:
        m, n, p = _witness_set(self.a, "M."), _witness_set(self.b, "N."), _witness_set(self.c, "P.")
        lefts, domain, codomain = _LAW_LABELS[self.law_id](m, n, p)
        # Each right word's label; the pairs take the very strings that right_set holds.
        by_word = dict(zip(_glued(*self._right_halves), _covering_labels(len(domain), codomain), strict=True))
        width, count = self._width, self.sizes()[0]
        try:
            if len(self.images) != width * count:  # then some image is not a whole covering
                raise KeyError
            pairs = tuple(zip(lefts, map(by_word.__getitem__, _cut(self.images, width, count)), strict=True))
        except KeyError:
            raise ValueError("an image is not a covering of {} labels with {} labels".format(*self.right)) from None
        return FiniteSet(tuple(map(operator.itemgetter(0), pairs))), FiniteSet(tuple(by_word.values())), pairs

    left_set = property(lambda self: self._rendered[0])
    right_set = property(lambda self: self._rendered[1])
    pairs = property(lambda self: self._rendered[2], doc="Each left label with its image's label, in left order.")


def disjoint_union(left: FiniteSet, right: FiniteSet) -> FiniteSet:
    """Union of sets that must not share labels: Cantor's sum of cardinals.

    Raises :class:`DisjointnessViolation` listing the common labels
    otherwise; overlapping sets are never silently merged.
    """
    common = tuple(label for label in left if label in right)
    if common:
        raise DisjointnessViolation(common)
    return FiniteSet(left.elements + right.elements)


def pair_label(left: str, right: str) -> str:
    return f"({left},{right})"


def product(left: FiniteSet, right: FiniteSet) -> FiniteSet:
    """All ordered pairs as composite labels, left order major."""
    return FiniteSet(tuple(pair_label(a, b) for a in left for b in right))


def covering_set(domain: FiniteSet, codomain: FiniteSet) -> CoveringSet:
    """Enumerate every total function ``domain -> codomain`` exactly once.

    Order is lexicographic: domain elements are the digit positions,
    codomain order gives the digit values. The empty domain yields the
    single empty covering (so sizes follow ``|codomain| ** |domain|``
    with ``0 ** 0 == 1``).
    """
    return CoveringSet(domain, codomain)


def _require_cardinals(**values: int) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {_size(value)}")


def _witness_set(size: int, prefix: str = "") -> FiniteSet:
    return FiniteSet(tuple(f"{prefix}e{i}" for i in range(size)))


def cardinal_pow(a: int, b: int) -> int:
    """a ** b as the size of the covering-set of a b-element set with an
    a-element set (``0 ** 0 == 1``: the empty covering). Raises
    :class:`BudgetExceeded`, building no label, when the coverings, or they
    and the a + b witness labels, pass ``DEFAULT_BUDGET`` items."""
    _require_cardinals(a=a, b=b)
    # On the two sizes alone: the coverings, then they and the labels as check_law_budget counts them.
    _require_within_budget(f"coverings of {_size(b)} labels with {_size(a)} labels", DEFAULT_BUDGET,
                           lambda power: power(a, b))
    _require_within_budget(f"cardinal_pow with a={_size(a)} b={_size(b)}", DEFAULT_BUDGET,
                           lambda power: a + b + power(a, b))
    return len(covering_set(_witness_set(b), _witness_set(a)))


def _require_within_budget(what: str, budget: int, count: Callable[[Callable], int]) -> None:
    """Raise :class:`BudgetExceeded` when ``count(power)`` items pass ``budget``.

    ``count`` adds and multiplies ``power(base, exponent)`` results. Each
    is exact below a cap of 2^L past both the budget and 10^20, and is 2^L
    once a lower bound of the power reaches the cap, so a huge power is
    never built. A refusal names the count by :func:`errors._size`: an
    exact count below 10^20 in decimal, any other as a true lower bound.
    """
    cap = max(budget, 10**20).bit_length()

    def power(base: int, exponent: int) -> int:
        # 2^(exponent * (bit length of base - 1)) is at most base ** exponent.
        return 1 << cap if exponent * (base.bit_length() - 1) >= cap else base**exponent

    cost = count(power)
    if cost > budget:
        raise BudgetExceeded(f"{what} would enumerate {_size(cost)} items (budget {_size(budget)})")


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
    _require_within_budget(f"{law_id} with a={_size(a)} b={_size(b)} c={_size(c)}", budget, cost)


def _glued(heads: list, tails: list) -> Iterator:
    # Each head followed by each tail, head major: itertools.product's order over the joined positions.
    return itertools.starmap(operator.add, itertools.product(heads, tails))


def _rows(heads: Iterable[bytes], tails: list[bytes]) -> Iterator[bytes]:
    # _glued's words a row per head, each row one bytes: ``head + head.join(tails)`` is its words end to end.
    return (head + head.join(tails) for head in heads) if tails else iter(())


def _by_first(table: list[bytes], a: int, b: int, length: int) -> list[list[bytes]]:
    # ``table``: the coverings of ``length`` positions with labels x * b + y in product order; a list per x, in y order.
    groups: dict[tuple[int, ...], list[bytes]] = {}
    for xs, word in zip(itertools.product([x for x in range(a) for _ in range(b)], repeat=length), table):
        groups.setdefault(xs, []).append(word)
    return list(groups.values())


def _buffer(rows: Iterable[bytes]) -> bytes:
    # The rows end to end, written one at a time: ``b"".join`` would hold every row beside the result.
    out = io.BytesIO()
    out.writelines(rows)
    return out.getvalue()


def _cut(buffer: bytes, width: int, count: int) -> Iterator[bytes]:
    # The ``count`` words of ``width`` bytes that ``buffer`` holds end to end, cut in C by one struct of
    # up to 256 of them (a divisor of ``count``); zero-width words are all empty.
    if not width:
        return itertools.repeat(b"", count)
    return itertools.chain.from_iterable(struct.iter_unpack("%ds" % width * math.gcd(count, 256), buffer))


def _halves(length: int, alphabet: Iterable, head: Callable, tail: Callable) -> tuple[list, list]:
    # ``head`` of every tuple of ``alphabet`` over the first ``length - length // 2`` positions, and
    # ``tail`` of every tuple over the rest, each in itertools.product's order. Words and labels are
    # both made here, so any head glued to any tail is a covering's, at every length from 0 on.
    k = length - length // 2
    return list(map(head, itertools.product(alphabet, repeat=k))), list(map(tail, itertools.product(alphabet, repeat=length - k)))


def _byte_width(size: int) -> int:
    # A word is codomain positions as bytes: one byte each up to 256 labels, else two or four.
    return 1 if size <= 256 else 2 if size <= 1 << 16 else 4


def _word_halves(length: int, size: int) -> tuple[list[bytes], list[bytes]]:
    width = _byte_width(size)
    encode = bytes if width == 1 else lambda word: b"".join(k.to_bytes(width, "little") for k in word)
    return _halves(length, range(size), encode, encode)


def _label_halves(length: int, codomain: FiniteSet, sep: str = ",", ends: str = "[]") -> tuple[list[str], list[str]]:
    # A head label is the first of ``ends`` and its labels joined by ``sep``, a tail label its labels
    # each after ``sep`` and then the last of ``ends``.
    return _halves(length, codomain.elements, lambda h: ends[:1] + sep.join(h), lambda t: sep.join(("",) + t) + ends[1:])


def _covering_words(length: int, size: int) -> tuple[bytes, ...]:
    # The words of the coverings of ``length`` labels with ``size`` labels, in covering_set's order.
    return tuple(_glued(*_word_halves(length, size)))


def _covering_labels(length: int, codomain: FiniteSet) -> tuple[str, ...]:
    # Their labels, "[v0,v1,...]", in the same order; only a witness's rendering builds them.
    return tuple(_glued(*_label_halves(length, codomain)))


def _add_exp_witness(a: int, b: int, c: int) -> tuple[tuple, bytes, tuple[int, int]]:
    # Pairs of coverings (N -> M, P -> M)  <->  coverings of N (+) P with M: f's row is f glued to every g.
    fs, gs = _covering_words(b, a), _covering_words(c, a)
    return (fs, gs), _buffer(_rows(fs, gs)), (b + c, a)


def _mul_exp_witness(a: int, b: int, c: int) -> tuple[tuple, bytes, tuple[int, int]]:
    # Pairs of coverings (P -> M, P -> N)  <->  coverings of P with M x N. The one-position word of
    # each (x, y) is read off the enumerated product. For each head and tail of f, the cells with
    # each head of g are glued to the row of cells with every tail of g, which is g's order.
    cell = dict(zip(itertools.product(range(a), range(b)), _covering_words(1, a * b)))

    def cells(length: int) -> list[list[bytes]]:
        ys = list(itertools.product(range(b), repeat=length))
        return [[b"".join(map(cell.__getitem__, zip(x, y))) for y in ys] for x in itertools.product(range(a), repeat=length)]

    k = c - c // 2
    rows = itertools.starmap(_rows, itertools.product(cells(k), cells(c - k)))
    return (_covering_words(c, a), _covering_words(c, b)), _buffer(itertools.chain.from_iterable(rows)), (c, len(cell))


def _curry_witness(a: int, b: int, c: int) -> tuple[tuple, bytes, tuple[int, int]]:
    # Coverings of P with the covering-set (N | M)  <->  coverings of P x N with M, a row per c - 1 inner words.
    inner = _covering_words(b, a)
    images = _buffer(_rows(map(b"".join, itertools.product(inner, repeat=c - 1)), inner)) if c else b""
    return (inner,) * c, images, (c * b, a)


def _add_exp_labels(m: FiniteSet, n: FiniteSet, p: FiniteSet) -> tuple[Iterable[str], FiniteSet, FiniteSet]:
    # The left labels, and the domain and codomain of the right side.
    fs, gs = _covering_labels(len(n), m), _covering_labels(len(p), m)
    return itertools.starmap(pair_label, itertools.product(fs, gs)), disjoint_union(n, p), m


def _mul_exp_labels(m: FiniteSet, n: FiniteSet, p: FiniteSet) -> tuple[Iterable[str], FiniteSet, FiniteSet]:
    fs, gs = _covering_labels(len(p), m), _covering_labels(len(p), n)
    return itertools.starmap(pair_label, itertools.product(fs, gs)), p, product(m, n)


def _curry_labels(m: FiniteSet, n: FiniteSet, p: FiniteSet) -> tuple[Iterable[str], FiniteSet, FiniteSet]:
    # The left labels are those of the coverings of P with the inner labels.
    return _covering_labels(len(p), FiniteSet(_covering_labels(len(n), m))), product(p, n), m


_LAW_BUILDERS = {"ADD_EXP": _add_exp_witness, "MUL_EXP": _mul_exp_witness, "CURRY": _curry_witness}
_LAW_LABELS = {"ADD_EXP": _add_exp_labels, "MUL_EXP": _mul_exp_labels, "CURRY": _curry_labels}
LAW_IDS = tuple(_LAW_BUILDERS)


def verify_exponent_law(law_id: str, a: int, b: int, c: int, budget: int = DEFAULT_BUDGET) -> LawWitness:
    """Verify one exponent law on witness sets of sizes a, b, c.

    Laws, with ``|M| = a``, ``|N| = b``, ``|P| = c``:

    * ``ADD_EXP``:  (N|M) x (P|M)  ~  (N (+) P | M)      [a^b * a^c = a^(b+c)]
    * ``MUL_EXP``:  (P|M) x (P|N)  ~  (P | M x N)        [a^c * b^c = (a*b)^c]
    * ``CURRY``:    (P | (N|M))    ~  (P x N | M)        [(a^b)^c = a^(b*c)]

    The returned witness is the natural bijection on words, fully enumerated
    and validated; its ``pairs``, ``left_set`` and ``right_set`` render it as
    labels when read. Raises :class:`BudgetExceeded` before enumerating
    anything when the total item count would pass ``budget``, and
    ``ValueError`` when an image is not a covering of the right side.
    """
    check_law_budget(law_id, a, b, c, budget)
    witness = LawWitness(law_id, a, b, c, *_LAW_BUILDERS[law_id](a, b, c))
    if not witness.is_bijection():
        witness.pairs  # only a failed check looks for a stray image: rendering raises ValueError on one
        raise AssertionError(f"constructed {law_id} witness is not a bijection")
    return witness
