"""The contract of the package's frozen records, pinned class by class.

For one instance of every record class this pins the repr text, `==`
and `hash` agreeing, `__match_args__`, `copy.copy` and `copy.deepcopy`,
and the `pickle.dumps` bytes, checked in as constants, so that how the
records are built can change while what they do stays byte for byte.
"""

import copy
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from enclosures import (
    Add,
    AffineForm,
    BlindExact,
    BlindMeas,
    Classification,
    ComparisonReport,
    Dim,
    Div,
    EmptySet,
    EmptyTarget,
    Exact,
    ExactInterval,
    ExclusionCertificate,
    Fails,
    FamilySpec,
    Holds,
    Inconclusive,
    Interval,
    IntervalContainment,
    Meas,
    Member,
    MembershipWitness,
    Mul,
    Neg,
    NonMember,
    RewriteClass,
    SameExpression,
    Sub,
    Token,
    TokenEnv,
    Undecided,
    Unknown,
)


def records() -> dict:
    """One fresh instance of every record class, by class name."""
    t, d = Token("t"), Dim("m")
    iv, one, minus_one = Interval(F(1, 2), F(3)), Interval.point(1), Interval.point(-1)
    env = TokenEnv({t: F(2)})
    m, x = Meas(t, iv, d), Exact(F(3, 4), d)
    cert = ExclusionCertificate("over-approx", iv)
    unknown = Unknown(((env, F(5, 2)),), iv, True)
    same = Holds(SameExpression())
    cls = Classification(RewriteClass.INTERCHANGEABLE, same, same)
    blind = BlindExact(F(3, 4), d)
    return {
        "Token": t,
        "Dim": d,
        "Interval": iv,
        "Exact": x,
        "Meas": m,
        "Add": Add(m, x),
        "Sub": Sub(x, m),
        "Mul": Mul(m, m),
        "Div": Div(m, x),
        "Neg": Neg(m),
        "TokenEnv": env,
        "AffineForm": AffineForm(F(1), {t: F(2)}, {t: iv}),
        "EmptySet": EmptySet(t),
        "ExactInterval": ExactInterval(iv),
        "Unknown": unknown,
        "ExclusionCertificate": cert,
        "Member": Member(env, F(2)),
        "NonMember": NonMember(ExclusionCertificate("empty")),
        "Inconclusive": Inconclusive(EmptySet(t)),
        "SameExpression": SameExpression(),
        "EmptyTarget": EmptyTarget("t"),
        "IntervalContainment": IntervalContainment(iv, iv, "exact-interval", env, F(2)),
        "MembershipWitness": MembershipWitness(env, F(2)),
        "Holds": Holds(EmptyTarget("t")),
        "Fails": Fails(env, F(2), cert),
        "Undecided": Undecided(EmptySet(t), ExactInterval(iv)),
        "Classification": cls,
        "FamilySpec": FamilySpec("cancellation", "same", iv),
        "BlindExact": blind,
        "BlindMeas": BlindMeas(iv, d),
        "ComparisonReport": ComparisonReport(
            x, Neg(x), None, blind, Neg(blind), False, one, minus_one, False, cls, cls
        ),
    }


# Classes whose own `__hash__` is not the hash of the tuple of their fields.
OWN_HASH = {"Token", "Dim", "Add", "Sub", "Mul", "Div", "Neg"}
# Classes holding a dict (a TokenEnv's bindings, an AffineForm's maps),
# directly or through a field, so hashing them raises TypeError.
UNHASHABLE = {
    "TokenEnv",
    "AffineForm",
    "Unknown",
    "Member",
    "IntervalContainment",
    "MembershipWitness",
    "Fails",
}

NAMES = list(records())


def test_every_record_class_is_pinned():
    assert set(NAMES) == set(REPRS) == set(PICKLES) == set(MATCH_ARGS)
    assert len(NAMES) == 31
    assert all(type(r).__name__ == name for name, r in records().items())


@pytest.mark.parametrize("name", NAMES)
def test_repr_text(name):
    assert repr(records()[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_match_args(name):
    record = records()[name]
    assert type(record).__match_args__ == MATCH_ARGS[name]


@pytest.mark.parametrize("name", NAMES)
def test_pickle_bytes_and_round_trip(name):
    record = records()[name]
    data = pickle.dumps(record, protocol=4)
    assert data == PICKLES[name]
    back = pickle.loads(data)
    assert type(back) is type(record) and back == record and repr(back) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_agree(name):
    record = records()[name]
    values = tuple(getattr(record, field) for field in MATCH_ARGS[name])
    rebuilt = type(record)(*values)
    assert rebuilt is not record
    assert record == rebuilt and rebuilt == record and not record != rebuilt
    assert record.__eq__(object()) is NotImplemented and record != object()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(rebuilt)
    if name not in OWN_HASH:
        assert hash(record) == hash(values)


@pytest.mark.parametrize("name", NAMES)
def test_copies_are_equal_and_pickle_alike(name):
    record = records()[name]
    for copied in copy.copy(record), copy.deepcopy(record):
        assert type(copied) is type(record) and copied is not record
        assert copied == record and repr(copied) == REPRS[name]
        assert pickle.dumps(copied, protocol=4) == PICKLES[name]
    shallow, deep = copy.copy(record), copy.deepcopy(record)
    for field in MATCH_ARGS[name]:
        assert getattr(shallow, field) is getattr(record, field)
    if name == "TokenEnv":
        assert deep.bindings == record.bindings and deep.bindings is not record.bindings


@pytest.mark.parametrize("name", NAMES)
def test_fields_stay_frozen(name):
    record = records()[name]
    for field in (*MATCH_ARGS[name], "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert repr(record) == REPRS[name]


def test_records_of_other_classes_with_equal_fields_differ():
    value, dim = F(3, 4), Dim("m")
    assert Exact(value, dim) != BlindExact(value, dim)
    assert Add(Exact(value, dim), Exact(value, dim)) != Sub(Exact(value, dim), Exact(value, dim))
    assert Holds(EmptyTarget("t")) != EmptyTarget("t")


def test_defaults_and_keywords():
    first, second = TokenEnv(), TokenEnv()
    assert first.bindings == {} and first.bindings is not second.bindings
    assert first.default == 0 and type(first.default) is F
    assert ExclusionCertificate("empty").bounds is None
    assert Unknown((), Interval.point(0)).truncated is False
    spec = FamilySpec("cancellation", "same", interval=Interval.of(0, 1))
    assert spec.signal is spec.background is None and spec.dim == Dim("d")
    assert Interval(hi=2, lo=1) == Interval(F(1), F(2))
    assert IntervalContainment(Interval.point(0), Interval.point(0), "over-approx").witness is None
    with pytest.raises(TypeError):
        Interval(1, 2, 3)
    with pytest.raises(TypeError):
        Token()
    with pytest.raises(TypeError):
        Dim(tag="d", name="d")


def test_positional_patterns_bind_fields_in_order():
    match records()["IntervalContainment"]:
        case IntervalContainment(source, target, kind, witness, value):
            assert (source, target, kind, witness, value) == (
                Interval(F(1, 2), F(3)),
                Interval(F(1, 2), F(3)),
                "exact-interval",
                TokenEnv({Token("t"): F(2)}),
                F(2),
            )
        case _:
            pytest.fail("no match")


def test_cold_import_loads_no_dataclasses_machinery():
    # The package builds its records itself, so a cold start never imports
    # `dataclasses` or the modules it drags in.  `-S` keeps `site` from
    # importing anything first.
    src = Path(__file__).resolve().parent.parent / "src"
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, enclosures.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_readme_records_example(capsys):
    # The README's second ```python block shows `fields`, `replace` and
    # `FrozenInstanceError`; each `print(...)  # text` line must print text.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n((?:(?!```).*\n)*)```$", readme, re.MULTILINE)
    (block,) = [b for b in blocks if "FrozenInstanceError" in b]
    expected = re.findall(r"^\s*print\(.*\)  +# (.*)$", block, re.MULTILINE)
    assert len(expected) == 3
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


REPRS = {
    "Token": "Token(name='t')",
    "Dim": "Dim(tag='m')",
    "Interval": 'Interval(lo=Fraction(1, 2), hi=Fraction(3, 1))',
    "Exact": "Exact(value=Fraction(3, 4), dim=Dim(tag='m'))",
    "Meas": (
        "Meas(token=Token(name='t'), interval=Interval(lo=Fraction(1, 2), hi=Fraction"
        "(3, 1)), dim=Dim(tag='m'))"
    ),
    "Add": (
        "Add(lhs=Meas(token=Token(name='t'), interval=Interval(lo=Fraction(1, 2), hi="
        "Fraction(3, 1)), dim=Dim(tag='m')), rhs=Exact(value=Fraction(3, 4), dim=Dim("
        "tag='m')))"
    ),
    "Sub": (
        "Sub(lhs=Exact(value=Fraction(3, 4), dim=Dim(tag='m')), rhs=Meas(token=Token("
        "name='t'), interval=Interval(lo=Fraction(1, 2), hi=Fraction(3, 1)), dim=Dim("
        "tag='m')))"
    ),
    "Mul": (
        "Mul(lhs=Meas(token=Token(name='t'), interval=Interval(lo=Fraction(1, 2), hi="
        "Fraction(3, 1)), dim=Dim(tag='m')), rhs=Meas(token=Token(name='t'), interval"
        "=Interval(lo=Fraction(1, 2), hi=Fraction(3, 1)), dim=Dim(tag='m')))"
    ),
    "Div": (
        "Div(lhs=Meas(token=Token(name='t'), interval=Interval(lo=Fraction(1, 2), hi="
        "Fraction(3, 1)), dim=Dim(tag='m')), rhs=Exact(value=Fraction(3, 4), dim=Dim("
        "tag='m')))"
    ),
    "Neg": (
        "Neg(operand=Meas(token=Token(name='t'), interval=Interval(lo=Fraction(1, 2),"
        " hi=Fraction(3, 1)), dim=Dim(tag='m')))"
    ),
    "TokenEnv": (
        "TokenEnv(bindings={Token(name='t'): Fraction(2, 1)}, default=Fraction(0, 1))"
    ),
    "AffineForm": (
        "AffineForm(constant=Fraction(1, 1), coeffs={Token(name='t'): Fraction(2, 1)}"
        ", boxes={Token(name='t'): Interval(lo=Fraction(1, 2), hi=Fraction(3, 1))})"
    ),
    "EmptySet": "EmptySet(token=Token(name='t'))",
    "ExactInterval": (
        'ExactInterval(interval=Interval(lo=Fraction(1, 2), hi=Fraction(3, 1)))'
    ),
    "Unknown": (
        "Unknown(under=((TokenEnv(bindings={Token(name='t'): Fraction(2, 1)}, default"
        '=Fraction(0, 1)), Fraction(5, 2)),), over=Interval(lo=Fraction(1, 2), hi=Fra'
        'ction(3, 1)), truncated=True)'
    ),
    "ExclusionCertificate": (
        "ExclusionCertificate(kind='over-approx', bounds=Interval(lo=Fraction(1, 2), "
        'hi=Fraction(3, 1)))'
    ),
    "Member": (
        "Member(env=TokenEnv(bindings={Token(name='t'): Fraction(2, 1)}, default=Frac"
        'tion(0, 1)), value=Fraction(2, 1))'
    ),
    "NonMember": (
        "NonMember(certificate=ExclusionCertificate(kind='empty', bounds=None))"
    ),
    "Inconclusive": "Inconclusive(outcome=EmptySet(token=Token(name='t')))",
    "SameExpression": 'SameExpression()',
    "EmptyTarget": "EmptyTarget(token_name='t')",
    "IntervalContainment": (
        'IntervalContainment(source=Interval(lo=Fraction(1, 2), hi=Fraction(3, 1)), t'
        "arget=Interval(lo=Fraction(1, 2), hi=Fraction(3, 1)), target_kind='exact-int"
        "erval', witness=TokenEnv(bindings={Token(name='t'): Fraction(2, 1)}, default"
        '=Fraction(0, 1)), witness_value=Fraction(2, 1))'
    ),
    "MembershipWitness": (
        "MembershipWitness(env=TokenEnv(bindings={Token(name='t'): Fraction(2, 1)}, d"
        'efault=Fraction(0, 1)), value=Fraction(2, 1))'
    ),
    "Holds": "Holds(evidence=EmptyTarget(token_name='t'))",
    "Fails": (
        "Fails(env=TokenEnv(bindings={Token(name='t'): Fraction(2, 1)}, default=Fract"
        "ion(0, 1)), value=Fraction(2, 1), certificate=ExclusionCertificate(kind='ove"
        "r-approx', bounds=Interval(lo=Fraction(1, 2), hi=Fraction(3, 1))))"
    ),
    "Undecided": (
        "Undecided(source_outcome=EmptySet(token=Token(name='t')), target_outcome=Exa"
        'ctInterval(interval=Interval(lo=Fraction(1, 2), hi=Fraction(3, 1))))'
    ),
    "Classification": (
        "Classification(kind=<RewriteClass.INTERCHANGEABLE: 'interchangeable'>, forwa"
        'rd=Holds(evidence=SameExpression()), backward=Holds(evidence=SameExpression('
        ')))'
    ),
    "FamilySpec": (
        "FamilySpec(family='cancellation', mode='same', interval=Interval(lo=Fraction"
        "(1, 2), hi=Fraction(3, 1)), signal=None, background=None, dim=Dim(tag='d'))"
    ),
    "BlindExact": "BlindExact(value=Fraction(3, 4), dim=Dim(tag='m'))",
    "BlindMeas": (
        'BlindMeas(interval=Interval(lo=Fraction(1, 2), hi=Fraction(3, 1)), dim=Dim(t'
        "ag='m'))"
    ),
    "ComparisonReport": (
        "ComparisonReport(expr1=Exact(value=Fraction(3, 4), dim=Dim(tag='m')), expr2="
        "Neg(operand=Exact(value=Fraction(3, 4), dim=Dim(tag='m'))), target=None, bli"
        "nd1=BlindExact(value=Fraction(3, 4), dim=Dim(tag='m')), blind2=Neg(operand=B"
        "lindExact(value=Fraction(3, 4), dim=Dim(tag='m'))), erased_equal=False, boun"
        'ds1=Interval(lo=Fraction(1, 1), hi=Fraction(1, 1)), bounds2=Interval(lo=Frac'
        'tion(-1, 1), hi=Fraction(-1, 1)), bounds_equal=False, class1=Classification('
        "kind=<RewriteClass.INTERCHANGEABLE: 'interchangeable'>, forward=Holds(eviden"
        'ce=SameExpression()), backward=Holds(evidence=SameExpression())), class2=Cla'
        "ssification(kind=<RewriteClass.INTERCHANGEABLE: 'interchangeable'>, forward="
        'Holds(evidence=SameExpression()), backward=Holds(evidence=SameExpression()))'
        ')'
    ),
}

PICKLES = {
    "Token": (
        b'\x80\x04\x95/\x00\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c\x05T'
        b'oken\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94\x8c\x01t\x94sb.'
    ),
    "Dim": (
        b'\x80\x04\x95,\x00\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c\x03D'
        b'im\x94\x93\x94)\x81\x94}\x94\x8c\x03tag\x94\x8c\x01m\x94sb.'
    ),
    "Interval": (
        b'\x80\x04\x95]\x00\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c\x08I'
        b'nterval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94\x8c\tfractions\x94\x8c\x08Fr'
        b'action\x94\x93\x94K\x01K\x02\x86\x94R\x94\x8c\x02hi\x94h\x08K\x03K\x01\x86'
        b'\x94R\x94ub.'
    ),
    "Exact": (
        b'\x80\x04\x95o\x00\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c\x05E'
        b'xact\x94\x93\x94)\x81\x94}\x94(\x8c\x05value\x94\x8c\tfractions\x94\x8c\x08Fr'
        b'action\x94\x93\x94K\x03K\x04\x86\x94R\x94\x8c\x03dim\x94h\x00\x8c\x03Dim\x94'
        b'\x93\x94)\x81\x94}\x94\x8c\x03tag\x94\x8c\x01m\x94sbub.'
    ),
    "Meas": (
        b'\x80\x04\x95\xc2\x00\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c'
        b'\x04Meas\x94\x93\x94)\x81\x94}\x94(\x8c\x05token\x94h\x00\x8c\x05Token\x94'
        b'\x93\x94)\x81\x94}\x94\x8c\x04name\x94\x8c\x01t\x94sb\x8c\x08interval\x94h'
        b'\x00\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94\x8c\tfractions'
        b'\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02\x86\x94R\x94\x8c\x02hi\x94h\x14K'
        b'\x03K\x01\x86\x94R\x94ub\x8c\x03dim\x94h\x00\x8c\x03Dim\x94\x93\x94)\x81\x94}'
        b'\x94\x8c\x03tag\x94\x8c\x01m\x94sbub.'
    ),
    "Add": (
        b'\x80\x04\x95\r\x01\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c\x08'
        b'_rebuild\x94\x93\x94]\x94(h\x00\x8c\x04Meas\x94\x93\x94)\x81\x94}\x94(\x8c'
        b'\x05token\x94h\x00\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94\x8c'
        b'\x01t\x94sb\x8c\x08interval\x94h\x00\x8c\x08Interval\x94\x93\x94)\x81\x94}'
        b'\x94(\x8c\x02lo\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02'
        b'\x86\x94R\x94\x8c\x02hi\x94h\x17K\x03K\x01\x86\x94R\x94ub\x8c\x03dim\x94h\x00'
        b'\x8c\x03Dim\x94\x93\x94)\x81\x94}\x94\x8c\x03tag\x94\x8c\x01m\x94sbubh\x00'
        b'\x8c\x05Exact\x94\x93\x94)\x81\x94}\x94(\x8c\x05value\x94h\x17K\x03K\x04\x86'
        b'\x94R\x94h\x1dh ubh\x00\x8c\x03Add\x94\x93\x94e\x85\x94R\x94.'
    ),
    "Sub": (
        b'\x80\x04\x95\r\x01\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c\x08'
        b'_rebuild\x94\x93\x94]\x94(h\x00\x8c\x05Exact\x94\x93\x94)\x81\x94}\x94(\x8c'
        b'\x05value\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x03K\x04\x86'
        b'\x94R\x94\x8c\x03dim\x94h\x00\x8c\x03Dim\x94\x93\x94)\x81\x94}\x94\x8c\x03tag'
        b'\x94\x8c\x01m\x94sbubh\x00\x8c\x04Meas\x94\x93\x94)\x81\x94}\x94(\x8c\x05toke'
        b'n\x94h\x00\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94\x8c\x01t'
        b'\x94sb\x8c\x08interval\x94h\x00\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94('
        b'\x8c\x02lo\x94h\x0bK\x01K\x02\x86\x94R\x94\x8c\x02hi\x94h\x0bK\x03K\x01\x86'
        b'\x94R\x94ubh\x0eh\x11ubh\x00\x8c\x03Sub\x94\x93\x94e\x85\x94R\x94.'
    ),
    "Mul": (
        b'\x80\x04\x95\xe5\x00\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c'
        b'\x08_rebuild\x94\x93\x94]\x94(h\x00\x8c\x04Meas\x94\x93\x94)\x81\x94}\x94('
        b'\x8c\x05token\x94h\x00\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94'
        b'\x8c\x01t\x94sb\x8c\x08interval\x94h\x00\x8c\x08Interval\x94\x93\x94)\x81\x94'
        b'}\x94(\x8c\x02lo\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02'
        b'\x86\x94R\x94\x8c\x02hi\x94h\x17K\x03K\x01\x86\x94R\x94ub\x8c\x03dim\x94h\x00'
        b'\x8c\x03Dim\x94\x93\x94)\x81\x94}\x94\x8c\x03tag\x94\x8c\x01m\x94sbubh\x06h'
        b'\x00\x8c\x03Mul\x94\x93\x94e\x85\x94R\x94.'
    ),
    "Div": (
        b'\x80\x04\x95\r\x01\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c\x08'
        b'_rebuild\x94\x93\x94]\x94(h\x00\x8c\x04Meas\x94\x93\x94)\x81\x94}\x94(\x8c'
        b'\x05token\x94h\x00\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94\x8c'
        b'\x01t\x94sb\x8c\x08interval\x94h\x00\x8c\x08Interval\x94\x93\x94)\x81\x94}'
        b'\x94(\x8c\x02lo\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02'
        b'\x86\x94R\x94\x8c\x02hi\x94h\x17K\x03K\x01\x86\x94R\x94ub\x8c\x03dim\x94h\x00'
        b'\x8c\x03Dim\x94\x93\x94)\x81\x94}\x94\x8c\x03tag\x94\x8c\x01m\x94sbubh\x00'
        b'\x8c\x05Exact\x94\x93\x94)\x81\x94}\x94(\x8c\x05value\x94h\x17K\x03K\x04\x86'
        b'\x94R\x94h\x1dh ubh\x00\x8c\x03Div\x94\x93\x94e\x85\x94R\x94.'
    ),
    "Neg": (
        b'\x80\x04\x95\xe3\x00\x00\x00\x00\x00\x00\x00\x8c\x0fenclosures.expr\x94\x8c'
        b'\x08_rebuild\x94\x93\x94]\x94(h\x00\x8c\x04Meas\x94\x93\x94)\x81\x94}\x94('
        b'\x8c\x05token\x94h\x00\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94'
        b'\x8c\x01t\x94sb\x8c\x08interval\x94h\x00\x8c\x08Interval\x94\x93\x94)\x81\x94'
        b'}\x94(\x8c\x02lo\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02'
        b'\x86\x94R\x94\x8c\x02hi\x94h\x17K\x03K\x01\x86\x94R\x94ub\x8c\x03dim\x94h\x00'
        b'\x8c\x03Dim\x94\x93\x94)\x81\x94}\x94\x8c\x03tag\x94\x8c\x01m\x94sbubh\x00'
        b'\x8c\x03Neg\x94\x93\x94e\x85\x94R\x94.'
    ),
    "TokenEnv": (
        b'\x80\x04\x95\x9e\x00\x00\x00\x00\x00\x00\x00\x8c\x14enclosures.semantics\x94'
        b'\x8c\x08TokenEnv\x94\x93\x94)\x81\x94}\x94(\x8c\x08bindings\x94}\x94\x8c\x0fe'
        b'nclosures.expr\x94\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94\x8c'
        b'\x01t\x94sb\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x02K\x01\x86\x94R'
        b'\x94s\x8c\x07default\x94h\x10K\x00K\x01\x86\x94R\x94ub.'
    ),
    "AffineForm": (
        b'\x80\x04\x95\xe1\x00\x00\x00\x00\x00\x00\x00\x8c\x14enclosures.enclosure\x94'
        b'\x8c\nAffineForm\x94\x93\x94)\x81\x94}\x94(\x8c\x08constant\x94\x8c\tfraction'
        b's\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x01\x86\x94R\x94\x8c\x06coeffs\x94}'
        b'\x94\x8c\x0fenclosures.expr\x94\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c'
        b'\x04name\x94\x8c\x01t\x94sbh\x08K\x02K\x01\x86\x94R\x94s\x8c\x05boxes\x94}'
        b'\x94h\x10h\r\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94h\x08K'
        b'\x01K\x02\x86\x94R\x94\x8c\x02hi\x94h\x08K\x03K\x01\x86\x94R\x94ubsub.'
    ),
    "EmptySet": (
        b'\x80\x04\x95b\x00\x00\x00\x00\x00\x00\x00\x8c\x14enclosures.enclosure\x94\x8c'
        b'\x08EmptySet\x94\x93\x94)\x81\x94}\x94\x8c\x05token\x94\x8c\x0fenclosures.exp'
        b'r\x94\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94\x8c\x01t\x94sbsb'
        b'.'
    ),
    "ExactInterval": (
        b'\x80\x04\x95\x98\x00\x00\x00\x00\x00\x00\x00\x8c\x14enclosures.enclosure\x94'
        b'\x8c\rExactInterval\x94\x93\x94)\x81\x94}\x94\x8c\x08interval\x94\x8c\x0fencl'
        b'osures.expr\x94\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94\x8c'
        b'\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02\x86\x94R\x94\x8c\x02hi'
        b'\x94h\x0eK\x03K\x01\x86\x94R\x94ubsb.'
    ),
    "Unknown": (
        b'\x80\x04\x95(\x01\x00\x00\x00\x00\x00\x00\x8c\x14enclosures.enclosure\x94\x8c'
        b'\x07Unknown\x94\x93\x94)\x81\x94}\x94(\x8c\x05under\x94\x8c\x14enclosures.sem'
        b'antics\x94\x8c\x08TokenEnv\x94\x93\x94)\x81\x94}\x94(\x8c\x08bindings\x94}'
        b'\x94\x8c\x0fenclosures.expr\x94\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c'
        b'\x04name\x94\x8c\x01t\x94sb\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K'
        b'\x02K\x01\x86\x94R\x94s\x8c\x07default\x94h\x16K\x00K\x01\x86\x94R\x94ubh\x16'
        b'K\x05K\x02\x86\x94R\x94\x86\x94\x85\x94\x8c\x04over\x94h\r\x8c\x08Interval'
        b'\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94h\x16K\x01K\x02\x86\x94R\x94\x8c\x02'
        b'hi\x94h\x16K\x03K\x01\x86\x94R\x94ub\x8c\ttruncated\x94\x88ub.'
    ),
    "ExclusionCertificate": (
        b'\x80\x04\x95\xb3\x00\x00\x00\x00\x00\x00\x00\x8c\x14enclosures.enclosure\x94'
        b'\x8c\x14ExclusionCertificate\x94\x93\x94)\x81\x94}\x94(\x8c\x04kind\x94\x8c'
        b'\x0bover-approx\x94\x8c\x06bounds\x94\x8c\x0fenclosures.expr\x94\x8c\x08Inter'
        b'val\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94\x8c\tfractions\x94\x8c\x08Fracti'
        b'on\x94\x93\x94K\x01K\x02\x86\x94R\x94\x8c\x02hi\x94h\x10K\x03K\x01\x86\x94R'
        b'\x94ubub.'
    ),
    "Member": (
        b'\x80\x04\x95\xe0\x00\x00\x00\x00\x00\x00\x00\x8c\x14enclosures.enclosure\x94'
        b'\x8c\x06Member\x94\x93\x94)\x81\x94}\x94(\x8c\x03env\x94\x8c\x14enclosures.se'
        b'mantics\x94\x8c\x08TokenEnv\x94\x93\x94)\x81\x94}\x94(\x8c\x08bindings\x94}'
        b'\x94\x8c\x0fenclosures.expr\x94\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c'
        b'\x04name\x94\x8c\x01t\x94sb\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K'
        b'\x02K\x01\x86\x94R\x94s\x8c\x07default\x94h\x16K\x00K\x01\x86\x94R\x94ub\x8c'
        b'\x05value\x94h\x16K\x02K\x01\x86\x94R\x94ub.'
    ),
    "NonMember": (
        b'\x80\x04\x95w\x00\x00\x00\x00\x00\x00\x00\x8c\x14enclosures.enclosure\x94\x8c'
        b'\tNonMember\x94\x93\x94)\x81\x94}\x94\x8c\x0bcertificate\x94h\x00\x8c\x14Excl'
        b'usionCertificate\x94\x93\x94)\x81\x94}\x94(\x8c\x04kind\x94\x8c\x05empty\x94'
        b'\x8c\x06bounds\x94Nubsb.'
    ),
    "Inconclusive": (
        b'\x80\x04\x95\x86\x00\x00\x00\x00\x00\x00\x00\x8c\x14enclosures.enclosure\x94'
        b'\x8c\x0cInconclusive\x94\x93\x94)\x81\x94}\x94\x8c\x07outcome\x94h\x00\x8c'
        b'\x08EmptySet\x94\x93\x94)\x81\x94}\x94\x8c\x05token\x94\x8c\x0fenclosures.exp'
        b'r\x94\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94\x8c\x01t\x94sbsb'
        b'sb.'
    ),
    "SameExpression": (
        b'\x80\x04\x95,\x00\x00\x00\x00\x00\x00\x00\x8c\x12enclosures.rewrite\x94\x8c'
        b'\x0eSameExpression\x94\x93\x94)\x81\x94.'
    ),
    "EmptyTarget": (
        b'\x80\x04\x95>\x00\x00\x00\x00\x00\x00\x00\x8c\x12enclosures.rewrite\x94\x8c'
        b'\x0bEmptyTarget\x94\x93\x94)\x81\x94}\x94\x8c\ntoken_name\x94\x8c\x01t\x94sb.'
    ),
    "IntervalContainment": (
        b'\x80\x04\x95_\x01\x00\x00\x00\x00\x00\x00\x8c\x12enclosures.rewrite\x94\x8c'
        b'\x13IntervalContainment\x94\x93\x94)\x81\x94}\x94(\x8c\x06source\x94\x8c\x0fe'
        b'nclosures.expr\x94\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94'
        b'\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02\x86\x94R\x94\x8c'
        b'\x02hi\x94h\x0eK\x03K\x01\x86\x94R\x94ub\x8c\x06target\x94h\t\x8c\x0btarget_k'
        b'ind\x94\x8c\x0eexact-interval\x94\x8c\x07witness\x94\x8c\x14enclosures.semant'
        b'ics\x94\x8c\x08TokenEnv\x94\x93\x94)\x81\x94}\x94(\x8c\x08bindings\x94}\x94h'
        b'\x06\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04name\x94\x8c\x01t\x94sbh'
        b'\x0eK\x02K\x01\x86\x94R\x94s\x8c\x07default\x94h\x0eK\x00K\x01\x86\x94R\x94ub'
        b'\x8c\rwitness_value\x94h\x0eK\x02K\x01\x86\x94R\x94ub.'
    ),
    "MembershipWitness": (
        b'\x80\x04\x95\xe9\x00\x00\x00\x00\x00\x00\x00\x8c\x12enclosures.rewrite\x94'
        b'\x8c\x11MembershipWitness\x94\x93\x94)\x81\x94}\x94(\x8c\x03env\x94\x8c\x14en'
        b'closures.semantics\x94\x8c\x08TokenEnv\x94\x93\x94)\x81\x94}\x94(\x8c\x08bind'
        b'ings\x94}\x94\x8c\x0fenclosures.expr\x94\x8c\x05Token\x94\x93\x94)\x81\x94}'
        b'\x94\x8c\x04name\x94\x8c\x01t\x94sb\x8c\tfractions\x94\x8c\x08Fraction\x94'
        b'\x93\x94K\x02K\x01\x86\x94R\x94s\x8c\x07default\x94h\x16K\x00K\x01\x86\x94R'
        b'\x94ub\x8c\x05value\x94h\x16K\x02K\x01\x86\x94R\x94ub.'
    ),
    "Holds": (
        b'\x80\x04\x95\\\x00\x00\x00\x00\x00\x00\x00\x8c\x12enclosures.rewrite\x94\x8c'
        b'\x05Holds\x94\x93\x94)\x81\x94}\x94\x8c\x08evidence\x94h\x00\x8c\x0bEmptyTarg'
        b'et\x94\x93\x94)\x81\x94}\x94\x8c\ntoken_name\x94\x8c\x01t\x94sbsb.'
    ),
    "Fails": (
        b'\x80\x04\x95v\x01\x00\x00\x00\x00\x00\x00\x8c\x12enclosures.rewrite\x94\x8c'
        b'\x05Fails\x94\x93\x94)\x81\x94}\x94(\x8c\x03env\x94\x8c\x14enclosures.semanti'
        b'cs\x94\x8c\x08TokenEnv\x94\x93\x94)\x81\x94}\x94(\x8c\x08bindings\x94}\x94'
        b'\x8c\x0fenclosures.expr\x94\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04nam'
        b'e\x94\x8c\x01t\x94sb\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x02K\x01'
        b'\x86\x94R\x94s\x8c\x07default\x94h\x16K\x00K\x01\x86\x94R\x94ub\x8c\x05value'
        b'\x94h\x16K\x02K\x01\x86\x94R\x94\x8c\x0bcertificate\x94\x8c\x14enclosures.enc'
        b'losure\x94\x8c\x14ExclusionCertificate\x94\x93\x94)\x81\x94}\x94(\x8c\x04kind'
        b'\x94\x8c\x0bover-approx\x94\x8c\x06bounds\x94h\r\x8c\x08Interval\x94\x93\x94)'
        b'\x81\x94}\x94(\x8c\x02lo\x94h\x16K\x01K\x02\x86\x94R\x94\x8c\x02hi\x94h\x16K'
        b'\x03K\x01\x86\x94R\x94ububub.'
    ),
    "Undecided": (
        b'\x80\x04\x95!\x01\x00\x00\x00\x00\x00\x00\x8c\x12enclosures.rewrite\x94\x8c\t'
        b'Undecided\x94\x93\x94)\x81\x94}\x94(\x8c\x0esource_outcome\x94\x8c\x14enclosu'
        b'res.enclosure\x94\x8c\x08EmptySet\x94\x93\x94)\x81\x94}\x94\x8c\x05token\x94'
        b'\x8c\x0fenclosures.expr\x94\x8c\x05Token\x94\x93\x94)\x81\x94}\x94\x8c\x04nam'
        b'e\x94\x8c\x01t\x94sbsb\x8c\x0etarget_outcome\x94h\x06\x8c\rExactInterval\x94'
        b'\x93\x94)\x81\x94}\x94\x8c\x08interval\x94h\x0c\x8c\x08Interval\x94\x93\x94)'
        b'\x81\x94}\x94(\x8c\x02lo\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K'
        b'\x01K\x02\x86\x94R\x94\x8c\x02hi\x94h K\x03K\x01\x86\x94R\x94ubsbub.'
    ),
    "Classification": (
        b'\x80\x04\x95\xae\x00\x00\x00\x00\x00\x00\x00\x8c\x12enclosures.rewrite\x94'
        b'\x8c\x0eClassification\x94\x93\x94)\x81\x94}\x94(\x8c\x04kind\x94h\x00\x8c'
        b'\x0cRewriteClass\x94\x93\x94\x8c\x0finterchangeable\x94\x85\x94R\x94\x8c\x07f'
        b'orward\x94h\x00\x8c\x05Holds\x94\x93\x94)\x81\x94}\x94\x8c\x08evidence\x94h'
        b'\x00\x8c\x0eSameExpression\x94\x93\x94)\x81\x94sb\x8c\x08backward\x94h\x0eub.'
    ),
    "FamilySpec": (
        b'\x80\x04\x95\xf4\x00\x00\x00\x00\x00\x00\x00\x8c\x13enclosures.families\x94'
        b'\x8c\nFamilySpec\x94\x93\x94)\x81\x94}\x94(\x8c\x06family\x94\x8c\x0ccancella'
        b'tion\x94\x8c\x04mode\x94\x8c\x04same\x94\x8c\x08interval\x94\x8c\x0fenclosure'
        b's.expr\x94\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94\x8c\tfrac'
        b'tions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02\x86\x94R\x94\x8c\x02hi\x94h'
        b'\x12K\x03K\x01\x86\x94R\x94ub\x8c\x06signal\x94N\x8c\nbackground\x94N\x8c\x03'
        b'dim\x94h\n\x8c\x03Dim\x94\x93\x94)\x81\x94}\x94\x8c\x03tag\x94\x8c\x01d\x94sb'
        b'ub.'
    ),
    "BlindExact": (
        b'\x80\x04\x95\x85\x00\x00\x00\x00\x00\x00\x00\x8c\x10enclosures.blind\x94\x8c'
        b'\nBlindExact\x94\x93\x94)\x81\x94}\x94(\x8c\x05value\x94\x8c\tfractions\x94'
        b'\x8c\x08Fraction\x94\x93\x94K\x03K\x04\x86\x94R\x94\x8c\x03dim\x94\x8c\x0fenc'
        b'losures.expr\x94\x8c\x03Dim\x94\x93\x94)\x81\x94}\x94\x8c\x03tag\x94\x8c\x01m'
        b'\x94sbub.'
    ),
    "BlindMeas": (
        b'\x80\x04\x95\xb2\x00\x00\x00\x00\x00\x00\x00\x8c\x10enclosures.blind\x94\x8c'
        b'\tBlindMeas\x94\x93\x94)\x81\x94}\x94(\x8c\x08interval\x94\x8c\x0fenclosures.'
        b'expr\x94\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94\x8c\tfracti'
        b'ons\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02\x86\x94R\x94\x8c\x02hi\x94h\x0e'
        b'K\x03K\x01\x86\x94R\x94ub\x8c\x03dim\x94h\x06\x8c\x03Dim\x94\x93\x94)\x81\x94'
        b'}\x94\x8c\x03tag\x94\x8c\x01m\x94sbub.'
    ),
    "ComparisonReport": (
        b'\x80\x04\x95d\x02\x00\x00\x00\x00\x00\x00\x8c\x10enclosures.blind\x94\x8c\x10'
        b'ComparisonReport\x94\x93\x94)\x81\x94}\x94(\x8c\x05expr1\x94\x8c\x0fenclosure'
        b's.expr\x94\x8c\x05Exact\x94\x93\x94)\x81\x94}\x94(\x8c\x05value\x94\x8c\tfrac'
        b'tions\x94\x8c\x08Fraction\x94\x93\x94K\x03K\x04\x86\x94R\x94\x8c\x03dim\x94h'
        b'\x06\x8c\x03Dim\x94\x93\x94)\x81\x94}\x94\x8c\x03tag\x94\x8c\x01m\x94sbub\x8c'
        b'\x05expr2\x94h\x06\x8c\x08_rebuild\x94\x93\x94]\x94(h\th\x06\x8c\x03Neg\x94'
        b'\x93\x94e\x85\x94R\x94\x8c\x06target\x94N\x8c\x06blind1\x94h\x00\x8c\nBlindEx'
        b'act\x94\x93\x94)\x81\x94}\x94(h\x0bh\x0eK\x03K\x04\x86\x94R\x94h\x11h\x14ub'
        b'\x8c\x06blind2\x94h\x1a]\x94(h$h\x1de\x85\x94R\x94\x8c\x0cerased_equal\x94'
        b'\x89\x8c\x07bounds1\x94h\x06\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94(\x8c'
        b'\x02lo\x94h\x0eK\x01K\x01\x86\x94R\x94\x8c\x02hi\x94h4ub\x8c\x07bounds2\x94h/'
        b')\x81\x94}\x94(h2h\x0eJ\xff\xff\xff\xffK\x01\x86\x94R\x94h5h:ub\x8c\x0cbounds'
        b'_equal\x94\x89\x8c\x06class1\x94\x8c\x12enclosures.rewrite\x94\x8c\x0eClassif'
        b'ication\x94\x93\x94)\x81\x94}\x94(\x8c\x04kind\x94h=\x8c\x0cRewriteClass\x94'
        b'\x93\x94\x8c\x0finterchangeable\x94\x85\x94R\x94\x8c\x07forward\x94h=\x8c\x05'
        b'Holds\x94\x93\x94)\x81\x94}\x94\x8c\x08evidence\x94h=\x8c\x0eSameExpression'
        b'\x94\x93\x94)\x81\x94sb\x8c\x08backward\x94hKub\x8c\x06class2\x94h@ub.'
    ),
}

MATCH_ARGS = {
    "Token": ("name",),
    "Dim": ("tag",),
    "Interval": ("lo", "hi"),
    "Exact": ("value", "dim"),
    "Meas": ("token", "interval", "dim"),
    "Add": ("lhs", "rhs"),
    "Sub": ("lhs", "rhs"),
    "Mul": ("lhs", "rhs"),
    "Div": ("lhs", "rhs"),
    "Neg": ("operand",),
    "TokenEnv": ("bindings", "default"),
    "AffineForm": ("constant", "coeffs", "boxes"),
    "EmptySet": ("token",),
    "ExactInterval": ("interval",),
    "Unknown": ("under", "over", "truncated"),
    "ExclusionCertificate": ("kind", "bounds"),
    "Member": ("env", "value"),
    "NonMember": ("certificate",),
    "Inconclusive": ("outcome",),
    "SameExpression": (),
    "EmptyTarget": ("token_name",),
    "IntervalContainment": (
        "source", "target", "target_kind", "witness", "witness_value",
    ),
    "MembershipWitness": ("env", "value"),
    "Holds": ("evidence",),
    "Fails": ("env", "value", "certificate"),
    "Undecided": ("source_outcome", "target_outcome"),
    "Classification": ("kind", "forward", "backward"),
    "FamilySpec": ("family", "mode", "interval", "signal", "background", "dim"),
    "BlindExact": ("value", "dim"),
    "BlindMeas": ("interval", "dim"),
    "ComparisonReport": (
        "expr1", "expr2", "target", "blind1", "blind2", "erased_equal", "bounds1",
        "bounds2", "bounds_equal", "class1", "class2",
    ),
}
