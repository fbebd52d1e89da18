import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from continuum import bijection, dyadic
from continuum.bijection import (
    DerivationStep,
    DerivationTrace,
    derivation_trace,
    forward,
    inverse,
    s_enumerate,
    s_index,
    t_enumerate,
    t_index,
)
from continuum.binary_streams import (
    EPBS,
    StreamClass,
    canonicalize,
    classify_stream,
    count_canonical,
    enumerate_canonical,
    enumerate_streams,
    expansions_of,
    parse_stream,
    value,
)
from continuum.cli import run
from continuum.dyadic import index_of
from continuum.errors import DomainViolation
from oracles import assert_born_canonical, dyadic_at, dyadic_value

bits = st.text("01", max_size=8)
streams = st.builds(EPBS, bits, st.text("01", min_size=1, max_size=8))


# ---------------------------------------------------------------------------
# the fixed enumerations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k, expected", [(0, "1(0)"), (1, "01(0)"), (8, "0011(0)")])
def test_t_enumerate_examples(k, expected):
    # Oracle: first expansion of the k-th dyadic point.
    point = dyadic_at(k)
    assert t_enumerate(k) == expansions_of(dyadic_value(point))[0]
    assert str(t_enumerate(k)) == expected


@pytest.mark.parametrize("k, expected", [(0, "0(1)"), (4, "010(1)")])
def test_s_enumerate_examples(k, expected):
    point = dyadic_at(k)
    assert s_enumerate(k) == expansions_of(dyadic_value(point))[1]
    assert str(s_enumerate(k)) == expected


def test_enumerations_match_the_dyadic_reference():
    # Independent reference: the dyadic enumeration and both expansions of its points.
    for k in (*range(2**12), 2**64 + 5, 2**200 + 3):
        point = dyadic_at(k)
        chain, redundant = expansions_of(dyadic_value(point))
        assert t_enumerate(k) == chain
        assert s_enumerate(k) == redundant
        # Built past EPBS's check: s_k = w0(1) is canonical in form, though redundant.
        assert_born_canonical(t_enumerate(k))
        assert_born_canonical(s_enumerate(k))
        assert t_index(chain) == index_of(point) == k
        assert s_index(redundant) == k


def test_enumerations_reject_negative_indices():
    for enumerate_chain in (t_enumerate, s_enumerate):
        with pytest.raises(ValueError, match="index must be nonnegative"):
            enumerate_chain(-1)


def test_chain_is_read_off_bits_without_dyadic_points(monkeypatch):
    reference = [expansions_of(dyadic_value(dyadic_at(k))) for k in range(128)]

    def refuse(point):
        raise AssertionError(f"Dyadic{point.numerator, point.exponent} built")

    monkeypatch.setattr(dyadic.Dyadic, "__post_init__", refuse)
    assert derivation_trace(8).verdict == "pass"
    for k in range(64):
        (chain, redundant), (even, _), (odd, _) = reference[k], reference[2 * k], reference[2 * k + 1]
        assert (t_enumerate(k), s_enumerate(k)) == (chain, redundant)
        assert forward(even) == redundant and forward(odd) == chain
        assert inverse(redundant) == even and inverse(chain) == odd


def test_enumerations_agree_in_value_and_class():
    for k in range(101):
        chain, redundant = t_enumerate(k), s_enumerate(k)
        assert value(chain) == value(redundant) == dyadic_value(dyadic_at(k))
        assert classify_stream(chain) is StreamClass.IN_BX
        assert classify_stream(redundant) is StreamClass.IN_BS


def test_membership_indexing_round_trip():
    for k in range(1000):
        assert t_index(t_enumerate(k)) == k
        assert s_index(s_enumerate(k)) == k
        assert s_index(t_enumerate(k)) is None
        assert t_index(s_enumerate(k)) is None


def test_index_of_non_members():
    for text in ("(01)", "(0)", "(1)", "1(10)"):
        stream = parse_stream(text)
        assert t_index(stream) is None
        assert s_index(stream) is None


def test_index_accepts_non_canonical_spellings():
    assert t_index(parse_stream("10(0)")) == 0  # canonicalizes to 1(0)
    assert s_index(parse_stream("01(1)")) == 0  # canonicalizes to 0(1)


# ---------------------------------------------------------------------------
# forward / inverse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "source, image",
    [("1(0)", "0(1)"), ("001(0)", "01(0)"), ("(01)", "(01)"), ("(1)", "(1)"), ("(0)", "(0)")],
)
def test_forward_examples(source, image):
    assert str(forward(parse_stream(source))) == image


def test_forward_rejects_redundant_streams():
    with pytest.raises(DomainViolation):
        forward(parse_stream("0(1)"))


@pytest.mark.parametrize(
    "source, image",
    [("0(1)", "1(0)"), ("1(0)", "01(0)"), ("(1)", "(1)"), ("(01)", "(01)")],
)
def test_inverse_examples(source, image):
    assert str(inverse(parse_stream(source))) == image


def test_branch_discipline():
    for k in range(1001):
        even_image = forward(t_enumerate(2 * k))
        assert even_image == s_enumerate(k)
        assert classify_stream(even_image) is StreamClass.IN_BS
        # The image is the redundant twin of t_k: same underlying value.
        assert value(even_image) == value(t_enumerate(k))
        odd_image = forward(t_enumerate(2 * k + 1))
        assert odd_image == t_enumerate(k)
        assert classify_stream(odd_image) is StreamClass.IN_BX


def test_forward_is_injective_on_chain_prefix_and_sample():
    n = 500
    sources = [t_enumerate(j) for j in range(2 * n + 2)]
    sources += [parse_stream(t) for t in ("(01)", "(011)", "(0011)", "0(011)")]
    images = [forward(e) for e in sources]
    assert len(set(images)) == len(images)


def test_round_trips_exhaustive():
    for raw in enumerate_streams(8):
        stream = canonicalize(raw)
        mapped_back = forward(inverse(stream))
        assert mapped_back == stream
        assert classify_stream(inverse(stream)) is StreamClass.IN_BX
        if classify_stream(stream) is StreamClass.IN_BX:
            assert inverse(forward(stream)) == stream


@given(streams)
def test_round_trips_random(stream):
    canonical = canonicalize(stream)
    assert forward(inverse(canonical)) == canonical
    if classify_stream(canonical) is StreamClass.IN_BX:
        assert inverse(forward(canonical)) == canonical


# ---------------------------------------------------------------------------
# derivation trace
# ---------------------------------------------------------------------------

def test_trace_structure_and_verdict():
    trace = derivation_trace(6)
    assert trace.verdict == "pass"
    assert [step.step for step in trace.steps] == list(range(20, 34))
    by_number = {step.step: step for step in trace.steps}
    for number in (21, 26, 27, 28, 29, 30, 32):
        assert by_number[number].justification == "WitnessedEquivalence"
        assert by_number[number].result == "pass"
        assert by_number[number].bound == 6
    for number in (22, 31, 33):
        assert by_number[number].justification == "Symbolic"
        assert by_number[number].result == "not-checkable"
        assert by_number[number].bound is None
    for number in (20, 23, 24, 25):
        assert by_number[number].justification == "Definition"
        assert by_number[number].result == "pass"


@pytest.mark.parametrize("mu_max", [1, 2, 4, 10])
def test_trace_passes_at_every_bound(mu_max):
    assert derivation_trace(mu_max).verdict == "pass"


def test_trace_rejects_bad_bound():
    with pytest.raises(ValueError, match="mu_max must be >= 1"):
        derivation_trace(0)


def test_trace_json_is_reproducible_and_schema_shaped():
    first = derivation_trace(5).to_json()
    second = derivation_trace(5).to_json()
    assert first == second
    doc = json.loads(first)
    assert isinstance(doc, list) and len(doc) == 14
    for entry in doc:
        assert set(entry) == {"step", "statement", "justification", "bound", "result"}
        assert isinstance(entry["step"], int)
        assert entry["justification"] in ("Definition", "WitnessedEquivalence", "Symbolic")
        assert entry["result"] in ("pass", "fail", "not-checkable")
        assert entry["bound"] is None or isinstance(entry["bound"], int)


def test_trace_verdict_fails_when_a_checkable_step_fails():
    broken = DerivationTrace(
        (DerivationStep(21, "B = B_X ∪ B_S", "WitnessedEquivalence", 4, "fail"),)
    )
    assert broken.verdict == "fail"


def test_derivation_checks_cover_the_universe():
    # The bounded universe splits into the three regions the map acts on.
    universe = enumerate_canonical(6)
    chain = [e for e in universe if t_index(e) is not None]
    redundant = [e for e in universe if classify_stream(e) is StreamClass.IN_BS]
    rest = [
        e
        for e in universe
        if t_index(e) is None and classify_stream(e) is StreamClass.IN_BX
    ]
    assert len(chain) + len(redundant) + len(rest) == len(universe)
    assert all(forward(e) == e for e in rest)


def test_trace_pass_keeps_state_for_the_moved_streams_only():
    # Beyond the enumerated tuple, the pass keeps O(|T|) state: forward moves
    # T and inverse moves B_S ∪ T. Its set counts match the closed forms.
    mu_max = 10
    chain = 2 ** (mu_max - 1) - 1
    containers = bijection._check_streams(mu_max)
    failed, sizes, forward_moves, inverse_moves = containers
    assert containers and max(len(c) for c in containers) <= 2 * chain
    assert len(forward_moves) == chain and len(inverse_moves) == 2 * chain
    assert sizes["B"] == len(enumerate_canonical(mu_max))
    assert sizes["B_S"] == sizes["T_E"] + sizes["T_O"] == chain
    assert sizes["T_E"] == sizes["T_O"] + 1


def test_trace_pass_walks_its_universe_once(monkeypatch):
    # An iterator has no len() and is empty after one walk: the pass counts
    # |B| by its regions, and its clash check (step 32) walks nothing again.
    original = bijection.enumerate_canonical
    monkeypatch.setattr(bijection, "enumerate_canonical", lambda mu_max: iter(original(mu_max)))
    assert derivation_trace(8).verdict == "pass"
    assert bijection._check_streams(8)[1]["B"] == 1716 == count_canonical(8)
    source, target = parse_stream("00001(0)"), parse_stream("(01)")
    unmoved = bijection.inverse
    monkeypatch.setattr(bijection, "inverse", lambda e: target if canonicalize(e) == source else unmoved(e))
    assert _results(derivation_trace(6))[32] == "fail"


# sha256 of ``trace --mu-max N --format json``, pinned so that any change to
# the trace's bytes shows up here.
TRACE_JSON_SHA256 = {
    1: "f3c71c57f3d39840780875a06c61d8a86d1ed9246c2d6cee15d371574e6792c2",
    2: "323c98b5b0dd182ee9c6699d12ff2870dbb8f09d4c23ae41c3905121907a9147",
    3: "ca5b9b8311b14e225bc93360fde76e64156be1e20b443ea1a8d1ba68aeb54482",
    4: "459eae97c48049d842b979645da33af80fba6b1a36af5a6f7510684ef14d590c",
    5: "f5e223067f790d4330e18acc205390158eae8902d6cdd61e457f0e4324bbabb7",
    6: "1378c8474d3c99b00facb1bfe93665bf2bc5e37e3aec8314173c0892eabc901a",
    7: "d6b33fbf95d2dd8be929939c51697d374c2e758398841988c34bdab7ea7edc58",
    8: "e9ba4d86a9e7bb16891352ea667ba9735b07e1561b1672b00d7b5a9d75ac80e6",
    9: "fac6928b29145c08cea6ac6c367b970c2643b78b5aeb86efbd0144c6280e8105",
    10: "7ed56df6ee20319ffd88dfb4f36f08b504e020b7ad6c6e33cad9837a6919b05e",
    11: "133de7086b2e9170ebf1afdd567b97a7728fb489c55ce97622d6d3410b558e19",
}


@pytest.mark.parametrize("mu_max", sorted(TRACE_JSON_SHA256))
def test_trace_json_golden_bytes(mu_max):
    output = run(["trace", "--mu-max", str(mu_max), "--format", "json"]).output
    assert hashlib.sha256(output.encode()).hexdigest() == TRACE_JSON_SHA256[mu_max]


def _results(trace):
    return {step.step: step.result for step in trace.steps}


def test_trace_catches_swapped_forward_branches(monkeypatch):
    # t_{2k} -> t_k and t_{2k+1} -> s_k: still injective, but the wrong branches.
    def swapped(stream):
        canonical = canonicalize(stream)
        position = t_index(canonical)
        if position is None:
            return canonical
        k, odd = divmod(position, 2)
        return s_enumerate(k) if odd else t_enumerate(k)

    monkeypatch.setattr(bijection, "forward", swapped)
    trace = derivation_trace(6)
    assert trace.verdict == "fail"
    results = _results(trace)
    assert "fail" in (results[26], results[27])


def test_trace_catches_identity_inverse(monkeypatch):
    monkeypatch.setattr(bijection, "inverse", lambda stream: canonicalize(stream))
    trace = derivation_trace(6)
    assert trace.verdict == "fail"
    results = _results(trace)
    assert results[30] == "fail"
    # Step 29 applies the real forward to the stored inverse images only, so
    # it fails only if those were computed with the patched inverse.
    assert results[29] == "fail"


def test_trace_round_trips_use_the_live_forward(monkeypatch):
    # forward is wrong on (01) alone; the forward images that the round trips
    # of steps 29 and 30 read must come from this forward, not a captured original.
    original, wrong_on, wrong_image = bijection.forward, parse_stream("(01)"), parse_stream("(10)")

    def forward_wrong_on_one(stream):
        return wrong_image if canonicalize(stream) == wrong_on else original(stream)

    monkeypatch.setattr(bijection, "forward", forward_wrong_on_one)
    assert bijection._check_streams(6)[2][wrong_on] == wrong_image
    results = _results(derivation_trace(6))
    assert results[28] == results[29] == results[30] == "fail"


def test_trace_round_trips_apply_forward_past_the_bound(monkeypatch):
    # forward is right on every stream within the bound and wrong past it.
    # Only inverse images past the bound reach it, through the live fallback.
    original, bound = bijection.forward, 6

    def forward_wrong_past_the_bound(stream):
        canonical = canonicalize(stream)
        return canonical if canonical.size > bound else original(stream)

    monkeypatch.setattr(bijection, "forward", forward_wrong_past_the_bound)
    forward_moves = bijection._check_streams(bound)[2]
    assert len(forward_moves) == 2 ** (bound - 1) - 1  # T, and nothing else
    assert all(image == original(e) for e, image in forward_moves.items())
    results = _results(derivation_trace(bound))
    assert results[29] == "fail"
    assert results[28] == results[32] == "pass"


def test_trace_round_trips_look_inverse_images_up(monkeypatch):
    # inverse is wrong on (01), its own forward image; step 30 reads that
    # image's inverse from the table, so inverse runs once per stream only.
    original, wrong_on, wrong_image = bijection.inverse, parse_stream("(01)"), parse_stream("(10)")
    calls = []

    def inverse_wrong_on_one(stream):
        calls.append(stream)
        return wrong_image if canonicalize(stream) == wrong_on else original(stream)

    monkeypatch.setattr(bijection, "inverse", inverse_wrong_on_one)
    assert forward(wrong_on) == wrong_on
    # (01) is outside T, so step 28 fails too: forward fixes it and inverse does not.
    assert _failed(derivation_trace(6)) == [28, 29, 30, 32]
    assert len(calls) == len(enumerate_canonical(6))


def test_trace_catches_forward_onto_a_bounded_fixed_point(monkeypatch):
    # forward sends the chain stream t_0 onto (01), which it also fixes:
    # two bounded canonical streams share an image, so forward is not injective.
    original, source, target = bijection.forward, t_enumerate(0), parse_stream("(01)")

    def forward_onto_fixed_point(stream):
        return target if canonicalize(stream) == source else original(stream)

    monkeypatch.setattr(bijection, "forward", forward_onto_fixed_point)
    assert forward(target) == target and inverse(target) == target
    results = _results(derivation_trace(6))
    assert results[29] == results[32] == "fail"


def test_trace_catches_inverse_onto_a_bounded_fixed_point(monkeypatch):
    # inverse sends t_15 = 00001(0) onto (01), which it also fixes. t_15 is
    # no forward image inside the bound (t_31 is past it), so the left
    # inverse still holds and only the clash of inverse images shows it.
    original, bound = bijection.inverse, 6
    source, target = parse_stream("00001(0)"), parse_stream("(01)")

    def inverse_onto_fixed_point(stream):
        return target if canonicalize(stream) == source else original(stream)

    monkeypatch.setattr(bijection, "inverse", inverse_onto_fixed_point)
    assert source == t_enumerate(15) and t_enumerate(31).size > bound
    results = _results(derivation_trace(bound))
    assert results[30] == results[32] == "fail"


def _failed(trace):
    return [step.step for step in trace.steps if step.result == "fail"]


def test_trace_checks_every_stream_is_its_own_expansion(monkeypatch):
    # expansions_of gives (0) for every value that is not dyadic. No stream
    # is then the second expansion of a wrong value, so only checking every
    # stream against its own place among the expansions finds it.
    original = bijection.expansions_of

    def expansions_wrong_off_the_dyadics(q):
        return original(q) if q.denominator & (q.denominator - 1) == 0 else [EPBS("", "0")]

    monkeypatch.setattr(bijection, "expansions_of", expansions_wrong_off_the_dyadics)
    assert _failed(derivation_trace(6)) == [21]


def test_trace_expands_every_stream_once(monkeypatch):
    # Step 21 asks expansions_of about each stream's value, with no shortcut
    # around the oracle, even where the period length is already known.
    calls = []
    original = bijection.expansions_of

    def counted(q):
        calls.append(q)
        return original(q)

    monkeypatch.setattr(bijection, "expansions_of", counted)
    assert derivation_trace(8).verdict == "pass"
    assert len(calls) == count_canonical(8)


def test_trace_asks_t_index_about_redundant_streams(monkeypatch):
    # t_index gives every redundant stream the index 0; forward never asks it
    # about one, so only step 23's question about B_S finds it.
    original = bijection.t_index

    def t_index_on_redundant(stream):
        return 0 if classify_stream(stream) is StreamClass.IN_BS else original(stream)

    monkeypatch.setattr(bijection, "t_index", t_index_on_redundant)
    assert _failed(derivation_trace(6)) == [23]


def test_trace_counts_meet_their_closed_forms(monkeypatch):
    # With T empty the B_X streams still split into T_E, T_O and B'_X, and B
    # into B_S and the rest, so 24 and 25 fail only on |T| = 2^(μ-1) - 1.
    monkeypatch.setattr(bijection, "t_index", lambda stream: None)
    results = _results(derivation_trace(6))
    assert results[24] == results[25] == "fail"


# One fault at a time: each test below names every step the fault fails, so
# a clause that stops checking, or checks for another step, shows up.

@pytest.mark.parametrize("wrong_at", [None, 0, 3])
def test_trace_checks_the_covering_set_size(monkeypatch, wrong_at):
    # 7 for every power, or one too many at a single exponent that step 20 asks about.
    original = bijection.cardinal_pow

    def cardinal_pow(base, exponent):
        return 7 if wrong_at is None else original(base, exponent) + (exponent == wrong_at)

    monkeypatch.setattr(bijection, "cardinal_pow", cardinal_pow)
    assert _failed(derivation_trace(6)) == [20]


def test_trace_checks_the_walk_against_the_closed_form_count(monkeypatch):
    original = bijection.count_canonical
    monkeypatch.setattr(bijection, "count_canonical", lambda mu_max: original(mu_max) + 1)
    assert _failed(derivation_trace(6)) == [25]


@pytest.mark.parametrize("fault", ["no second expansion", "no expansion of 1/3", "0(1) always second"])
def test_trace_checks_each_stream_against_the_expansions_of_its_value(monkeypatch, fault):
    original = bijection.expansions_of
    wrong = {
        "no second expansion": lambda q: original(q)[:1],
        "no expansion of 1/3": lambda q: [] if q == Fraction(1, 3) else original(q),
        "0(1) always second": lambda q: original(q)[:1] + [EPBS("0", "1")],
    }
    monkeypatch.setattr(bijection, "expansions_of", wrong[fault])
    assert _failed(derivation_trace(6)) == [21]


def test_trace_checks_each_redundant_stream_has_the_value_of_its_chain_twin(monkeypatch):
    # value is wrong on 0(1) alone, so its expansions differ too.
    original, wrong_on = bijection.value, parse_stream("0(1)")
    monkeypatch.setattr(bijection, "value", lambda s: Fraction(1, 3) if canonicalize(s) == wrong_on else original(s))
    assert _failed(derivation_trace(6)) == [21, 26]


def test_trace_checks_each_redundant_stream_has_an_index(monkeypatch):
    original, lost = bijection.s_index, parse_stream("00(1)")
    monkeypatch.setattr(bijection, "s_index", lambda s: None if canonicalize(s) == lost else original(s))
    assert _failed(derivation_trace(6)) == [26]


def test_trace_checks_the_odd_chain_maps_onto_the_chain(monkeypatch):
    # t_{2k+1} -> t_0 for every k >= 1, so only t_0 is hit from T_O.
    original = bijection.forward

    def forward_onto_t0(stream):
        position = t_index(stream)
        if position is not None and position % 2 and position >= 3:
            return t_enumerate(0)
        return original(stream)

    monkeypatch.setattr(bijection, "forward", forward_onto_t0)
    assert _failed(derivation_trace(6)) == [27, 29, 30, 32]


@pytest.mark.parametrize("name", ["forward", "inverse"])
def test_trace_compares_images_by_value_not_identity(monkeypatch, name):
    # A map that returns an equal fresh stream, never the one it was given,
    # fixes the same streams.
    original = getattr(bijection, name)

    def fresh(stream):
        image = original(stream)
        return EPBS(image.preamble, image.period)

    monkeypatch.setattr(bijection, name, fresh)
    assert derivation_trace(6).verdict == "pass"


def test_trace_checks_indexing_back_into_t(monkeypatch):
    # t_index names (01), outside T, as t_0: indexing back gives 1(0) instead.
    original, outside = bijection.t_index, parse_stream("(01)")
    monkeypatch.setattr(bijection, "t_index", lambda s: 0 if canonicalize(s) == outside else original(s))
    assert _failed(derivation_trace(6)) == [23, 24, 25, 27, 29, 30, 32]


@pytest.mark.parametrize(
    "name, fixed, expected",
    [
        # s_16, whose forward preimage t_32 is past the bound: only the
        # stream's own round trip can find it.
        ("inverse", "00010(1)", [29, 30]),
        # t_16, whose inverse image t_33 is past the bound; as the image of
        # s_8 it also clashes with itself.
        ("inverse", "00011(0)", [29, 30, 32]),
        ("forward", "1(0)", [26, 29, 30, 32]),  # t_0, so nothing absorbs s_0
        ("forward", "01(0)", [27, 29, 30, 32]),  # t_1, so nothing in T_O maps onto t_0
    ],
)
def test_trace_catches_a_map_that_fixes_one_stream_it_moves(monkeypatch, name, fixed, expected):
    original, stream = getattr(bijection, name), parse_stream(fixed)
    monkeypatch.setattr(bijection, name, lambda s: stream if canonicalize(s) == stream else original(s))
    assert _failed(derivation_trace(6)) == expected


def test_trace_catches_two_streams_that_inverse_moves_onto_one(monkeypatch):
    # s_16 is sent to t_0, the image of s_0; its forward preimage t_32 is past
    # the bound, so only the count of distinct images fails step 32.
    original, source = bijection.inverse, s_enumerate(16)
    monkeypatch.setattr(bijection, "inverse", lambda s: t_enumerate(0) if canonicalize(s) == source else original(s))
    assert _failed(derivation_trace(6)) == [29, 30, 32]
