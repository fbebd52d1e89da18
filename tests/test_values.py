"""The frozen value classes: what each keeps of a frozen dataclass, and what it adds."""

import copy
import pickle

import pytest

from continuum.bijection import DerivationStep, DerivationTrace
from continuum.binary_streams import EPBS, canonicalize
from continuum.cli import CommandResult
from continuum.dyadic import Dyadic, Endpoint, OtherRational
from continuum.finite_sets import CoveringSet, FiniteSet, LawWitness

STEP = ("step", "statement", "justification", "bound", "result")
WITNESS = ("law_id", "a", "b", "c", "left", "images", "right")
# Each class with the fields of one valid instance and that instance's repr as a frozen dataclass wrote it.
CASES = [
    (EPBS, {"preamble": "01", "period": "0"}, "EPBS(preamble='01', period='0')"),
    (Dyadic, {"numerator": 3, "exponent": 2}, "Dyadic(numerator=3, exponent=2)"),
    (Endpoint, {"value": 1}, "Endpoint(value=1)"),
    (OtherRational, {}, "OtherRational()"),
    (FiniteSet, {"elements": ("a", "b")}, "FiniteSet(elements=('a', 'b'))"),
    (
        CoveringSet,
        {"domain": FiniteSet(("a",)), "codomain": FiniteSet(("0", "1"))},
        "CoveringSet(domain=FiniteSet(elements=('a',)), codomain=FiniteSet(elements=('0', '1')))",
    ),
    (
        LawWitness,
        dict(zip(WITNESS, ("CURRY", 1, 1, 1, ((b"\x00",),), b"\x00", (1, 1)))),
        "LawWitness(law_id='CURRY', a=1, b=1, c=1, left=((b'\\x00',),), images=b'\\x00', right=(1, 1))",
    ),
    (
        DerivationStep,
        dict(zip(STEP, (22, "B_X ~ X ~ ℝ", "Symbolic", None, "not-checkable"))),
        "DerivationStep(step=22, statement='B_X ~ X ~ ℝ', justification='Symbolic', bound=None, result='not-checkable')",
    ),
    (
        DerivationTrace,
        {"steps": (DerivationStep(21, "B = B_X ∪ B_S", "WitnessedEquivalence", 4, "pass"),)},
        "DerivationTrace(steps=(DerivationStep(step=21, statement='B = B_X ∪ B_S', "
        "justification='WitnessedEquivalence', bound=4, result='pass'),))",
    ),
    (CommandResult, {"exit_code": 2, "output": "", "diagnostics": "x"}, "CommandResult(exit_code=2, output='', diagnostics='x')"),
]
IDS = [case[0].__name__ for case in CASES]
FIELDS = {cls: fields for cls, fields, _ in CASES}


@pytest.mark.parametrize(("cls", "fields", "expected_repr"), CASES, ids=IDS)
def test_value_class_behaves_as_its_frozen_dataclass_did(cls, fields, expected_repr):
    value = cls(*fields.values())
    assert repr(value) == expected_repr
    assert cls.__match_args__ == tuple(fields)
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())
    # Equal on the fields, keyword or positional, and hashed as the tuple of them.
    same = cls(**fields)
    assert same == value and not same != value and hash(same) == hash(value) == hash(tuple(fields.values()))
    # A class with the same fields is another class: never equal.
    twin = type(cls.__name__, (cls,), {"__slots__": ()})(*fields.values())
    assert twin != value and value != twin and repr(twin) == expected_repr
    assert value != tuple(fields.values())
    for name in fields or ("anything",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(other) is cls and other == value and other is not value and repr(other) == expected_repr


@pytest.mark.parametrize(("cls", "fields", "expected_repr"), CASES, ids=IDS)
def test_construction_and_copies_run_the_post_init_hook(monkeypatch, cls, fields, expected_repr):
    seen = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(repr(self)))
    value = cls(**fields)
    copy.copy(value), pickle.loads(pickle.dumps(value))
    assert seen == [expected_repr] * 3


DYADIC_REFUSED = r"^Dyadic\(\) takes the fields \(numerator, exponent\)$"
COVERING_SET_REFUSED = r"^CoveringSet\(\) takes the fields \(domain, codomain\)$"


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: Dyadic(3, 2, 1), DYADIC_REFUSED),
        (lambda: Dyadic(3), DYADIC_REFUSED),
        (lambda: Dyadic(3, numerator=3), DYADIC_REFUSED),
        (lambda: Dyadic(3, 2, numerator=3), DYADIC_REFUSED),
        (lambda: Dyadic(3, 2, power=1), DYADIC_REFUSED),
        (lambda: Dyadic(3, exponent=2, power=1), DYADIC_REFUSED),
        (lambda: Dyadic(3, power=2), DYADIC_REFUSED),
        (lambda: OtherRational(0), r"^OtherRational\(\) takes the fields \(\)$"),
        (lambda: CommandResult(output="x"), r"^CommandResult\(\) takes the fields \(exit_code, output, diagnostics\)$"),
        (lambda: EPBS("0"), "period"),
        (lambda: CoveringSet(FiniteSet(), FiniteSet(), (b"",)), COVERING_SET_REFUSED),
        (lambda: CoveringSet(FiniteSet(), FiniteSet(), words=(b"",)), COVERING_SET_REFUSED),
    ],
)
def test_constructors_refuse_what_their_signatures_refuse(build, message):
    # Too many values, a missing one, one given twice, or an unknown keyword, as a def's signature refuses them.
    with pytest.raises(TypeError, match=message):
        build()


def test_constructors_keep_their_defaults():
    assert CommandResult(0) == CommandResult(exit_code=0, output="", diagnostics="")
    assert CommandResult(1, diagnostics="d").output == ""
    assert FiniteSet() == FiniteSet(elements=()) and len(FiniteSet()) == 0


def test_copies_are_checked_and_rebuild_hidden_fields():
    # A canonical stream comes back unflagged: the flag is not a field, and the copy was checked.
    canonical = canonicalize(EPBS("010", "0"))
    assert canonical._canonical
    for other in (pickle.loads(pickle.dumps(canonical)), copy.copy(canonical), copy.deepcopy(canonical)):
        assert other == canonical and not other._canonical
        assert canonicalize(other) == canonical
    labels = pickle.loads(pickle.dumps(FiniteSet(("a", "b"))))
    assert "a" in labels and "c" not in labels and labels.members == frozenset("ab")
    witness = LawWitness(**FIELDS[LawWitness])
    # Its labels are rendered on first read into the instance's __dict__, which a copy starts without.
    assert witness.pairs == (("[[M.e0]]", "[M.e0]"),) and "_rendered" in witness.__dict__
    assert "_rendered" not in copy.copy(witness).__dict__ and copy.copy(witness) == witness


def test_frozen_values_keep_no_instance_dict_but_law_witness():
    for cls, fields in FIELDS.items():
        assert hasattr(cls(**fields), "__dict__") == (cls is LawWitness), cls
