import functools
import itertools
import re
import sys
import time

import pytest
from hypothesis import given, strategies as st

from continuum import bijection, finite_sets
from continuum.errors import BudgetExceeded, DisjointnessViolation
from continuum.finite_sets import (
    FiniteSet,
    LAW_IDS,
    LawWitness,
    cardinal_pow,
    check_covering_budget,
    covering_set,
    disjoint_union,
    product,
    verify_exponent_law,
)
from oracles import cardinal_add, cardinal_mul, tagged_union

labels = st.lists(st.sampled_from("abcdexyz01"), max_size=8, unique=True)


def with_images(witness: LawWitness, images: tuple[bytes, ...]) -> LawWitness:
    """The witness rebuilt with other image words, as its constructor takes them."""
    return LawWitness(witness.law_id, witness.a, witness.b, witness.c, witness.left, images, witness.right)


# ---------------------------------------------------------------------------
# construction and unions
# ---------------------------------------------------------------------------

def test_finite_set_rejects_duplicates():
    with pytest.raises(ValueError):
        FiniteSet(("a", "a"))


def test_finite_set_equality_hash_and_repr():
    first, second = FiniteSet(("a", "b")), FiniteSet(tuple("ab"))
    assert first == second and hash(first) == hash(second)
    assert first != FiniteSet(("b", "a"))
    assert repr(FiniteSet(("a",))) == "FiniteSet(elements=('a',))"


@given(labels, st.sampled_from("abcdexyz01"))
def test_finite_set_membership_agrees_with_elements(raw, label):
    s = FiniteSet(tuple(raw))
    assert (label in s) == (label in s.elements)


def test_disjoint_union_concatenates():
    assert disjoint_union(FiniteSet(tuple("ab")), FiniteSet(tuple("c"))).elements == ("a", "b", "c")
    assert disjoint_union(FiniteSet(), FiniteSet(tuple("x"))).elements == ("x",)


def test_disjoint_union_rejects_overlap():
    with pytest.raises(DisjointnessViolation) as err:
        disjoint_union(FiniteSet(tuple("a")), FiniteSet(tuple("a")))
    assert err.value.common == ("a",)
    with pytest.raises(DisjointnessViolation) as err:
        disjoint_union(FiniteSet(tuple("abc")), FiniteSet(tuple("cda")))
    assert err.value.common == ("a", "c")


def test_disjointness_violation_clips_its_message_and_keeps_every_label():
    with pytest.raises(DisjointnessViolation) as err:
        disjoint_union(FiniteSet(tuple("ab")), FiniteSet(tuple("ba")))
    assert str(err.value) == "sets share labels: a, b"
    labels = FiniteSet(tuple(str(i) for i in range(100_000)))
    with pytest.raises(DisjointnessViolation) as err:
        disjoint_union(labels, labels)
    assert str(err.value) == "sets share labels: 0, 1, 2, 3, 4, 5, 6,... (688888 characters)"
    assert len(err.value.common) == 100_000


@given(labels, labels)
def test_disjoint_union_succeeds_iff_disjoint(left_raw, right_raw):
    left, right = FiniteSet(tuple(left_raw)), FiniteSet(tuple(right_raw))
    overlapping = set(left.elements) & set(right.elements)
    if overlapping:
        with pytest.raises(DisjointnessViolation):
            disjoint_union(left, right)
    else:
        assert len(disjoint_union(left, right)) == len(left) + len(right)


def test_tagged_union_is_total():
    assert tagged_union(FiniteSet(tuple("a")), FiniteSet(tuple("a"))).elements == ("L.a", "R.a")
    assert tagged_union(FiniteSet(tuple("ab")), FiniteSet()).elements == ("L.a", "L.b")
    assert tagged_union(FiniteSet(), FiniteSet()).elements == ()


@given(labels, labels)
def test_tagged_union_size_always_adds(left_raw, right_raw):
    left, right = FiniteSet(tuple(left_raw)), FiniteSet(tuple(right_raw))
    assert len(tagged_union(left, right)) == len(left) + len(right)


def test_product_enumeration_order():
    got = product(FiniteSet(tuple("ab")), FiniteSet(tuple("01"))).elements
    assert got == ("(a,0)", "(a,1)", "(b,0)", "(b,1)")
    assert product(FiniteSet(tuple("a")), FiniteSet()).elements == ()
    assert len(product(FiniteSet(tuple("abc")), FiniteSet(tuple("01")))) == 6


# ---------------------------------------------------------------------------
# covering sets
# ---------------------------------------------------------------------------

def test_covering_set_of_three_with_two():
    cs = covering_set(FiniteSet(tuple("abc")), FiniteSet(tuple("01")))
    lines = list(cs.lines(""))
    assert set(lines) == {"000", "001", "010", "100", "011", "101", "110", "111"}
    assert lines == sorted(lines)  # lexicographic enumeration


def test_covering_set_empty_cases():
    assert len(covering_set(FiniteSet(), FiniteSet(tuple("01")))) == 1
    assert covering_set(FiniteSet(), FiniteSet(tuple("01"))).words == (b"",)
    assert len(covering_set(FiniteSet(tuple("ab")), FiniteSet())) == 0
    assert len(covering_set(FiniteSet(), FiniteSet())) == 1


def test_covering_set_enumeration_is_stable():
    first = covering_set(FiniteSet(tuple("abc")), FiniteSet(tuple("012")))
    second = covering_set(FiniteSet(tuple("abc")), FiniteSet(tuple("012")))
    assert first.words == second.words
    assert list(first.lines("")) == list(second.lines(""))


@given(st.integers(0, 5), st.integers(0, 3))
def test_covering_set_count_and_distinctness(n_size, m_size):
    domain = FiniteSet(tuple(f"n{i}" for i in range(n_size)))
    codomain = FiniteSet(tuple(f"m{i}" for i in range(m_size)))
    cs = covering_set(domain, codomain)
    assert len(cs) == m_size**n_size
    assert len(set(cs.words)) == len(set(cs.lines(","))) == len(cs)


def test_covering_lookup_and_validation():
    cs = covering_set(FiniteSet(tuple("ab")), FiniteSet(tuple("01")))
    assert cs.words[1] == bytes([0, 1])
    assert list(cs.lines(","))[1] == "0,1"
    with pytest.raises(AttributeError, match="cannot assign to field 'words'"):
        cs.words = cs.words[:1]


# ---------------------------------------------------------------------------
# cardinal arithmetic via enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a, b, expected", [(2, 3, 5), (0, 7, 7), (4, 4, 8), (0, 0, 0)])
def test_cardinal_add(a, b, expected):
    assert cardinal_add(a, b) == expected


@pytest.mark.parametrize("a, b, expected", [(2, 3, 6), (5, 0, 0), (1, 9, 9)])
def test_cardinal_mul(a, b, expected):
    assert cardinal_mul(a, b) == expected


@pytest.mark.parametrize("a, b, expected", [(2, 3, 8), (7, 0, 1), (3, 2, 9), (0, 0, 1), (0, 2, 0)])
def test_cardinal_pow(a, b, expected):
    assert cardinal_pow(a, b) == expected


@given(st.integers(0, 30), st.integers(0, 30))
def test_cardinal_add_matches_integers(a, b):
    assert cardinal_add(a, b) == a + b


@given(st.integers(0, 20), st.integers(0, 20))
def test_cardinal_mul_matches_integers(a, b):
    assert cardinal_mul(a, b) == a * b


@given(st.integers(0, 4), st.integers(0, 5))
def test_cardinal_pow_matches_integers(a, b):
    assert cardinal_pow(a, b) == a**b


def test_cardinal_pow_refuses_before_it_enumerates():
    # 2^30 coverings, past the default budget: refused without building any.
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="coverings of 30 labels with 2 labels would enumerate 1073741824 items"):
        cardinal_pow(2, 30)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "a, b, count",
    [(2, 10**6, "at least 2^"), (2, 10**7, "at least 2^"), (1, 2 * 10**6, "2000002"), (0, 2 * 10**6, "2000000"), (10**6, 1, "2000001")],
)
def test_cardinal_pow_refuses_on_the_sizes_alone(a, b, count):
    # No witness label is built: a in {0, 1} has a budget too, counting the a + b labels.
    import tracemalloc

    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetExceeded, match=rf" would enumerate {re.escape(count)}"):
            cardinal_pow(a, b)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 2**20


def test_cardinal_pow_counts_labels_beside_the_coverings():
    # 999 999 + 1 labels and one covering: one item past the budget.
    with pytest.raises(BudgetExceeded, match=r"^cardinal_pow with a=1 b=999999 would enumerate 1000001 items \(budget 1000000\)$"):
        cardinal_pow(1, 999_999)


def test_cardinal_ops_reject_negatives():
    for op in (cardinal_add, cardinal_mul, cardinal_pow):
        with pytest.raises(ValueError):
            op(-1, 2)
    with pytest.raises(ValueError, match="a must be a nonnegative integer, got -1$"):
        verify_exponent_law("ADD_EXP", -1, 1, 1)
    # Past 10^20 a negative cardinal is its sign and the name of its absolute value.
    with pytest.raises(ValueError, match=r"^b must be a nonnegative integer, got -\(at least 2\^16609\)$"):
        verify_exponent_law("ADD_EXP", 1, -(10**5000), 1)


# ---------------------------------------------------------------------------
# exponent laws
# ---------------------------------------------------------------------------

def _predicted_sides(law_id, a, b, c):
    if law_id == "ADD_EXP":
        return a**b * a**c, a ** (b + c)
    if law_id == "MUL_EXP":
        return a**c * b**c, (a * b) ** c
    return (a**b) ** c, a ** (b * c)


def test_add_exp_witness_size():
    witness = verify_exponent_law("ADD_EXP", 2, 2, 3)
    assert len(witness.left_set) == len(witness.right_set) == 32 == 2**5
    assert witness.is_bijection()


def test_curry_witness_size():
    witness = verify_exponent_law("CURRY", 2, 2, 2)
    assert len(witness.left_set) == 16 == 2 ** (2 * 2)
    assert witness.is_bijection()


@pytest.mark.parametrize("law_id", ["MUL_EXP", "CURRY"])
def test_empty_p_gives_singleton_witness(law_id):
    witness = verify_exponent_law(law_id, 3, 2, 0)
    assert len(witness.left_set) == len(witness.right_set) == 1
    assert witness.is_bijection()


@pytest.mark.parametrize("law_id", LAW_IDS)
@pytest.mark.parametrize("a, b, c", list(itertools.product(range(3), repeat=3)))
def test_laws_small_exhaustive(law_id, a, b, c):
    witness = verify_exponent_law(law_id, a, b, c)
    left, right = _predicted_sides(law_id, a, b, c)
    assert len(witness.left_set) == left
    assert len(witness.right_set) == right
    assert witness.is_bijection()


def test_unknown_law_rejected():
    with pytest.raises(ValueError):
        verify_exponent_law("POW_POW", 1, 1, 1)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        verify_exponent_law("CURRY", 10, 6, 6)
    with pytest.raises(BudgetExceeded):
        verify_exponent_law("ADD_EXP", 2, 2, 2, budget=5)


def _exact_cost(law_id, a, b, c):
    # The items each law's witness enumerates, by plain integer powers: the
    # witness sets M, N, P (a + b + c labels), N (+) P for ADD_EXP (b + c),
    # and the coverings, pairs and products.
    if law_id == "ADD_EXP":
        return a + b + c + (b + c) + a**b + a**c + a**b * a**c + a ** (b + c)
    if law_id == "MUL_EXP":
        return a + b + c + a**c + b**c + a * b + a**c * b**c + (a * b) ** c
    return a + b + c + a**b + (a**b) ** c + c * b + a ** (b * c)


def _refused_count(check, exact, budget):
    # Runs one budget check; a refusal names a count below 10^20 exactly, any other by a true lower bound.
    try:
        check()
    except BudgetExceeded as err:
        assert exact > budget
        found = re.fullmatch(r".* would enumerate (.+) items \(budget \d+\)", str(err)).group(1)
        if found.startswith("at least 2^"):
            assert exact >= 10**20
            assert 2 ** int(found.removeprefix("at least 2^")) <= exact
            return "bound"
        assert int(found) == exact < 10**20
        return "exact"
    assert exact <= budget
    return "admitted"


def test_budget_guard_is_exact_within_the_budget_and_a_lower_bound_past_it():
    # Powers are bounded past both the budget and 10^20, so exponents of 70
    # and 200 reach the bound; every admitted law witness has at most 100 items.
    answers = set()
    for budget in (1, 10, 100):
        for base, exponent in itertools.product(range(6), [*range(9), 70, 200]):
            domain, codomain = FiniteSet(tuple(map(str, range(exponent)))), FiniteSet(tuple(map(str, range(base))))
            check = functools.partial(check_covering_budget, domain, codomain, budget)
            answers.add(_refused_count(check, base**exponent, budget))
        for law_id, a, b, c in itertools.product(LAW_IDS, range(5), range(5), [*range(4), 70]):
            check = functools.partial(verify_exponent_law, law_id, a, b, c, budget)
            answers.add(_refused_count(check, _exact_cost(law_id, a, b, c), budget))
    assert answers == {"admitted", "exact", "bound"}


def test_budget_guard_names_a_count_below_10_to_20_exactly_whatever_the_limit(monkeypatch):
    # The guard reads no limit on int to str: 2^66 < 10^20 < 2^67.
    for digits in (0, 1, 4300):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits, raising=False)
        for exponent, answer in [(30, "exact"), (66, "exact"), (67, "bound")]:
            domain, codomain = FiniteSet(tuple(map(str, range(exponent)))), FiniteSet(("0", "1"))
            check = functools.partial(check_covering_budget, domain, codomain, 1000)
            assert _refused_count(check, 2**exponent, 1000) == answer


@pytest.mark.parametrize(
    "refuse",
    [
        lambda budget: check_covering_budget(FiniteSet(tuple(f"n{i}" for i in range(20000))), FiniteSet(("0", "1")), budget),
        lambda budget: verify_exponent_law("ADD_EXP", 2, 20000, 1, budget),
        lambda budget: bijection.derivation_trace(20000, budget),
    ],
)
def test_a_budget_past_20_digits_is_named_by_its_bit_length(refuse):
    # 10^5000 has more decimal digits than str() may write by default.
    with pytest.raises(BudgetExceeded) as refused:
        refuse(10**5000)
    message = str(refused.value)
    assert message.endswith(f"(budget at least 2^{(10**5000).bit_length() - 1})")
    assert len(message) < 300
    with pytest.raises(BudgetExceeded, match=rf"\(budget {10**20 - 1}\)$"):
        refuse(10**20 - 1)


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: cardinal_pow(10**5000, 2),
        lambda: cardinal_pow(2, 10**5000),
        lambda: verify_exponent_law("ADD_EXP", 10**5000, 1, 1),
        lambda: verify_exponent_law("CURRY", 2, 1, 10**5000),
    ],
    ids=["pow base", "pow exponent", "ADD_EXP a", "CURRY c"],
)
def test_a_cardinal_past_20_digits_is_named_by_its_bit_length(refuse):
    # The refusal names 10^5000 without writing its decimal digits, more than str() may write by default;
    # each count is a power of it, past any count the refusal writes in decimal.
    with pytest.raises(BudgetExceeded) as refused:
        refuse()
    message = str(refused.value)
    assert f"at least 2^{(10**5000).bit_length() - 1} " in message
    assert len(message) < 300
    with pytest.raises(BudgetExceeded, match=r"^coverings of 2 labels with 99999999999999999999 labels "):
        cardinal_pow(10**20 - 1, 2)


def test_law_witness_detects_bad_pairs():
    witness = verify_exponent_law("ADD_EXP", 2, 1, 1)
    broken = with_images(witness, witness.images[:-1] + witness.images[:1])
    assert not broken.is_bijection()
    # Rendered, the last left label now takes the first one's image.
    assert broken.pairs == witness.pairs[:-1] + ((witness.pairs[-1][0], witness.pairs[0][1]),)


# Oracle for the law witnesses: the expected sets and pairs are spelled out
# with itertools.product and string formatting only. Labels: role witnesses
# are "M.e0", ...; a covering is "[v0,v1,...]"; a pair is "(x,y)".

def _bracket(values):
    return "[" + ",".join(values) + "]"


def _oracle_witness(law_id, a, b, c):
    m = [f"M.e{i}" for i in range(a)]
    n = [f"N.e{i}" for i in range(b)]
    if law_id == "ADD_EXP":
        fs, gs = list(itertools.product(m, repeat=b)), list(itertools.product(m, repeat=c))
        pairs = [(f"({_bracket(f)},{_bracket(g)})", _bracket(f + g)) for f in fs for g in gs]
        right = [_bracket(h) for h in itertools.product(m, repeat=b + c)]
    elif law_id == "MUL_EXP":
        fs, gs = list(itertools.product(m, repeat=c)), list(itertools.product(n, repeat=c))
        pairs = [
            (f"({_bracket(f)},{_bracket(g)})", _bracket(f"({x},{y})" for x, y in zip(f, g)))
            for f in fs
            for g in gs
        ]
        mn = [f"({x},{y})" for x in m for y in n]
        right = [_bracket(h) for h in itertools.product(mn, repeat=c)]
    else:
        inner = list(itertools.product(m, repeat=b))
        pairs = [
            (_bracket(_bracket(f) for f in outer), _bracket(v for f in outer for v in f))
            for outer in itertools.product(inner, repeat=c)
        ]
        right = [_bracket(h) for h in itertools.product(m, repeat=c * b)]
    return tuple(left for left, _ in pairs), tuple(right), tuple(pairs)


@pytest.mark.parametrize(
    "law_id, a, b, c",
    [(law, *abc) for law in LAW_IDS for abc in itertools.product(range(3), repeat=3)]
    + [("ADD_EXP", 2, 2, 3)],
)
def test_law_witness_matches_oracle(law_id, a, b, c):
    witness = verify_exponent_law(law_id, a, b, c)
    left, right, pairs = _oracle_witness(law_id, a, b, c)
    assert witness.left_set.elements == left
    assert witness.right_set.elements == right
    assert witness.pairs == pairs


@pytest.mark.parametrize("law_id, a, b, c", [(law, 2, 2, 2) for law in LAW_IDS] + [("ADD_EXP", 2, 3, 3)])
def test_pair_right_labels_are_the_right_set_strings(law_id, a, b, c):
    # Each pair holds the very string stored in right_set, not an equal copy.
    witness = verify_exponent_law(law_id, a, b, c)
    stored = {id(label) for label in witness.right_set.elements}
    assert all(id(right) in stored for _, right in witness.pairs)


def test_witness_refuses_images_that_are_not_coverings(monkeypatch):
    # ADD_EXP 3,1,1: its right side is the coverings of 2 labels with 3 labels.
    witness = verify_exponent_law("ADD_EXP", 3, 1, 1)
    assert witness.images[1] == bytes([0, 1])
    assert witness.pairs[1] == ("([M.e0],[M.e1])", "[M.e0,M.e1]")
    # A position past the codomain, and a word of the wrong length: a word is
    # looked up whole among the right words, never read position by position.
    for image in (bytes([0, 3]), bytes([2])):
        stray = with_images(witness, (image,) + witness.images[1:])
        assert not stray.is_bijection()
        with pytest.raises(ValueError, match="not a covering of 2 labels with 3 labels") as refused:
            stray.pairs
        assert not isinstance(refused.value, KeyError)

    def foreign(a, b, c):
        return ((b"f",),), (bytes([a]) * (b + c),), (b + c, a)

    monkeypatch.setitem(finite_sets._LAW_BUILDERS, "ADD_EXP", foreign)
    with pytest.raises(ValueError, match="not a covering"):
        verify_exponent_law("ADD_EXP", 2, 1, 1)


@pytest.mark.parametrize("law_id, a, b, c", [("MUL_EXP", 257, 1, 1), ("CURRY", 2, 9, 1), ("MUL_EXP", 257, 256, 1)])
def test_law_witness_matches_oracle_past_one_byte_per_position(law_id, a, b, c):
    # 257 codomain labels; 512 coverings of P with (N | M); 65 792 codomain
    # labels, past what two bytes can number.
    witness = verify_exponent_law(law_id, a, b, c)
    _, right, pairs = _oracle_witness(law_id, a, b, c)
    assert witness.pairs == pairs
    assert witness.right_set.elements == right


@pytest.mark.parametrize("law_id, a, b, c", [("MUL_EXP", 2, 3, 3), ("MUL_EXP", 3, 2, 4), ("MUL_EXP", 1, 3, 5)])
def test_mul_exp_rows_glued_past_one_position_match_the_oracle(law_id, a, b, c):
    # P of 3, 4 and 5 labels: heads of two or three positions glued to tails of one or two.
    witness = verify_exponent_law(law_id, a, b, c)
    assert witness.pairs == _oracle_witness(law_id, a, b, c)[2]


def _one_line_coverings(length, codomain):
    # The covering tables enumerated whole by itertools.product, one covering at a time.
    width = 1 if len(codomain) <= 256 else 2 if len(codomain) <= 1 << 16 else 4
    encode = bytes if width == 1 else lambda word: b"".join(k.to_bytes(width, "little") for k in word)
    labels = tuple(map(_bracket, itertools.product(codomain.elements, repeat=length)))
    return list(map(encode, itertools.product(range(len(codomain)), repeat=length))), labels


@pytest.mark.parametrize(
    "length, size", [(length, size) for length in range(6) for size in (1, 2, 3)] + [(2, 257)]
)
def test_glued_coverings_match_the_one_line_product(length, size):
    # Odd and even splits into head and tail, and two-byte words split between them; the law
    # witnesses' tables, and covering_set's words and lines with either separator.
    codomain = FiniteSet(tuple(f"M.e{i}" for i in range(size)))
    words, labels = finite_sets._covering_words(length, size), finite_sets._covering_labels(length, codomain)
    expected_words, expected_labels = _one_line_coverings(length, codomain)
    assert words == tuple(expected_words)
    assert labels == expected_labels
    cs = covering_set(FiniteSet(tuple(f"N.e{i}" for i in range(length))), codomain)
    assert cs.words == tuple(expected_words)
    for sep in ("", ","):
        expected_lines = [sep.join(values) for values in itertools.product(codomain.elements, repeat=length)]
        assert list(cs.lines(sep)) == expected_lines


def test_an_odd_split_of_two_byte_words_matches_the_one_line_product():
    # Length 3 over 257 labels has 257^3 coverings, too many to build here. Its head (two positions)
    # and tail (one) tables are checked whole against the one-line tables of lengths 2 and 1, and
    # the glued order on the first 257^2 + 2 * 257 coverings, past the first position's first step.
    codomain = FiniteSet(tuple(f"M.e{i}" for i in range(257)))
    (head_words, tail_words), (head_labels, tail_labels) = finite_sets._word_halves(3, 257), finite_sets._label_halves(3, codomain)
    words, labels = _one_line_coverings(2, codomain)
    assert (head_words, head_labels) == (words, [label[:-1] for label in labels])
    words, labels = _one_line_coverings(1, codomain)
    assert (tail_words, tail_labels) == (words, ["," + label[1:] for label in labels])
    count = 257**2 + 2 * 257
    glued = zip(finite_sets._glued(head_words, tail_words), finite_sets._glued(head_labels, tail_labels))
    expected = (
        (b"".join(k.to_bytes(2, "little") for k in word), _bracket(codomain.elements[k] for k in word))
        for word in itertools.product(range(257), repeat=3)
    )
    assert list(itertools.islice(glued, count)) == list(itertools.islice(expected, count))


def test_verify_rejects_a_builder_that_breaks_the_bijection(monkeypatch):
    original = finite_sets._LAW_BUILDERS["ADD_EXP"]

    def exchanged(a, b, c):
        # Exchanging the images of two left elements is still a bijection,
        # only not the natural one; the oracle comparison catches that.
        left, images, right = original(a, b, c)
        return left, images[1::-1] + images[2:], right

    def collided(a, b, c):
        left, images, right = original(a, b, c)
        return left, images[:1] * 2 + images[2:], right

    monkeypatch.setitem(finite_sets._LAW_BUILDERS, "ADD_EXP", exchanged)
    witness = verify_exponent_law("ADD_EXP", 2, 2, 3)
    assert witness.pairs != _oracle_witness("ADD_EXP", 2, 2, 3)[2]
    monkeypatch.setitem(finite_sets._LAW_BUILDERS, "ADD_EXP", collided)
    with pytest.raises(AssertionError):
        verify_exponent_law("ADD_EXP", 2, 2, 3)


def test_law_witness_verdict_is_per_instance():
    witness = verify_exponent_law("MUL_EXP", 2, 2, 2)
    assert witness.is_bijection()
    broken = witness.images[:-1] + witness.images[:1]
    assert not with_images(witness, broken).is_bijection()
    assert witness.is_bijection()


@pytest.mark.parametrize(
    "left, right, pairs",
    [
        ("ab", "xy", (("a", "x"),)),  # not total
        ("ab", "x", (("a", "x"), ("b", "x"))),  # not injective
        ("a", "xy", (("a", "x"),)),  # not surjective
        ("ab", "xy", (("a", "x"), ("a", "y"))),  # a left label repeats, b is missed
        ("ab", "xyz", (("a", "x"), ("a", "y"), ("b", "z"))),  # a left label repeats, none is missed
    ],
)
def test_law_witness_checks_each_property(left, right, pairs):
    assert not _word_form(left, right, pairs).is_bijection()


def _word_form(left, right, pairs):
    # A map between one-letter labels, spelt as a witness on words: the left side is one table of
    # each pair's left label, then every left label no pair names; the right side is the coverings
    # of one label with len(right), and an image is its right label's position.
    named = [label for label, _ in pairs]
    table = tuple(label.encode() for label in named + [label for label in left if label not in named])
    images = tuple(bytes([right.index(label)]) for _, label in pairs)
    return LawWitness("ADD_EXP", 0, 0, 0, (table,), images, (1, len(right)))


@pytest.mark.parametrize(
    "left, right, pairs",
    [
        ("", "", ()),
        ("ab", "xy", (("a", "y"), ("b", "x"))),
        ("abc", "xyz", (("b", "x"), ("c", "z"), ("a", "y"))),
    ],
)
def test_word_form_of_a_bijection_is_one(left, right, pairs):
    assert _word_form(left, right, pairs).is_bijection()


def test_law_witness_left_side_is_the_product_of_its_tables():
    # Two tables of two words: four left elements, each with one image.
    tables, words = ((b"a", b"b"), (b"x", b"y")), finite_sets._covering_words(2, 2)
    assert LawWitness("ADD_EXP", 0, 0, 0, tables, words, (2, 2)).is_bijection()
    assert LawWitness("ADD_EXP", 0, 0, 0, tables, words, (2, 2)).sizes() == (4, 4)
    assert not LawWitness("ADD_EXP", 0, 0, 0, tables[:1], words, (2, 2)).is_bijection()
    # A word repeats in the second table: (a,x) and (a,x) again, though the images differ.
    assert not LawWitness("ADD_EXP", 0, 0, 0, (tables[0], (b"x", b"x")), words, (2, 2)).is_bijection()
    # Six left elements with six distinct images: all four right words, and two that are none.
    six, strays = (tables[0] + (b"c",), tables[1]), (bytes([2, 0]), bytes([0, 2]))
    assert not LawWitness("ADD_EXP", 0, 0, 0, six, words + strays, (2, 2)).is_bijection()


@pytest.mark.parametrize("law_id", ["ADD_EXP", "CURRY"])
def test_in_order_images_reversed_are_still_a_bijection(law_id):
    # Built in the right table's order, they are compared with it; reversed, their set is checked.
    witness = verify_exponent_law(law_id, 2, 2, 2)
    assert witness.images == finite_sets._covering_words(*witness.right)
    assert with_images(witness, witness.images[::-1]).is_bijection()


def test_mul_exp_images_are_a_permutation_and_two_swapped_are_still_one():
    witness = verify_exponent_law("MUL_EXP", 2, 2, 2)
    right = finite_sets._covering_words(*witness.right)
    assert witness.images != right and sorted(witness.images) == sorted(right)
    assert with_images(witness, witness.images[1::-1] + witness.images[2:]).is_bijection()


@pytest.mark.parametrize(
    "heads, tails",
    [([b"\0", b"\0"], [b"\0", b"\1"]), ([b"\0", b"\1"], [b"\1", b"\1"]), ([b"\0", b"\0\0"], [b"\0", b""])],
    ids=["repeated head", "repeated tail", "heads of two lengths"],
)
def test_law_witness_checks_that_the_right_words_are_distinct(monkeypatch, heads, tails):
    # Four right words with a repeat among them: neither images equal to that table in its order (checked
    # in order) nor the four natural images (checked as a set, which for a repeated head or tail holds them all).
    witness = verify_exponent_law("ADD_EXP", 2, 1, 1)
    monkeypatch.setattr(finite_sets, "_word_halves", lambda length, size: (heads, tails))
    for images in (tuple(finite_sets._glued(heads, tails)), witness.images):
        assert not with_images(witness, images).is_bijection()
