"""The immutable value classes: what equality, hashing, repr, pickling and their
constructors show is what it was when they were frozen dataclasses.

One instance of each class is checked against the repr it has always printed,
an equal twin and an unequal neighbour.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ratiocert
from ratiocert.compare import (
    Direction,
    Engine,
    LogCombination,
    Method,
    MethodStats,
    MonotonicityReport,
    Verdict,
)
from ratiocert.numerics import Dyadic, DyadicInterval, Ordering
from ratiocert.paperchecks import CheckResult, CheckStatus
from ratiocert.sequences import (
    Derangement,
    Harmonic,
    InvalidParameters,
    Lucas,
    LucasConstants,
    Primes,
    Product,
    Sequence,
    SquarefreeSum,
)

IV = "DyadicInterval(lo=Dyadic(mantissa=1, exponent=-2), hi=Dyadic(mantissa=3, exponent=0))"


def _iv(hi=3):
    return DyadicInterval(Dyadic(1, -2), Dyadic(hi, 0))


def _report(violations):
    return MonotonicityReport("fibonacci", 4, 10, Direction.DECREASING, violations, (),
                              MethodStats(interval=6))


def _constants(bits):
    return LucasConstants(3, 2, 1, _iv(), _iv(), _iv(), _iv(), _iv(), _iv(), bits)


def _check(status):
    return CheckResult("lucas-gap", status, {"n": 3}, {"bits": 128}, MethodStats(interval=1))


# (make, an unequal argument, the repr): make(0) and make(0) are equal twins,
# make(1) differs from them in one field
CASES = {
    "Dyadic": (lambda k: Dyadic(12 + 2 * k, 3),
               "Dyadic(mantissa=3, exponent=5)"),
    "DyadicInterval": (lambda k: _iv(3 + 2 * k), IV),
    "Engine": (lambda k: Engine(64, 1000 + k, 0),
               "Engine(start_bits=64, cap_bits=1000, exact_budget=0)"),
    "LogCombination": (lambda k: LogCombination(((2, 3), (-1, Fraction(5 + 2 * k, 2)))),
                       "LogCombination(terms=((2, 3), (-1, Fraction(5, 2))))"),
    "Verdict": (lambda k: Verdict(Ordering.GREATER, Method.INTERVAL, 128, 1 + k),
                "Verdict(ordering=<Ordering.GREATER: 'greater'>, "
                "method=<Method.INTERVAL: 'interval'>, bits=128, escalations=1)"),
    "MethodStats": (lambda k: MethodStats(1, 2, k, 256, 3),
                    "MethodStats(exact=1, interval=2, undecided=0, max_bits=256, "
                    "escalations=3)"),
    "MonotonicityReport": (lambda k: _report((5,) * (k + 1)),
                           "MonotonicityReport(sequence='fibonacci', start=4, stop=10, "
                           "direction=<Direction.DECREASING: 'decreasing'>, violations=(5,), "
                           "undecided=(), stats=MethodStats(exact=0, interval=6, undecided=0, "
                           "max_bits=0, escalations=0))"),
    "Lucas": (lambda k: Lucas(3, 2 - k), "Lucas(a=3, b=2)"),
    "Derangement": (lambda k: Derangement() if k == 0 else Primes(), "Derangement()"),
    "Harmonic": (lambda k: Harmonic(2 + k), "Harmonic(m=2)"),
    "Primes": (lambda k: Primes() if k == 0 else SquarefreeSum(), "Primes()"),
    "SquarefreeSum": (lambda k: SquarefreeSum() if k == 0 else Derangement(),
                      "SquarefreeSum()"),
    "Product": (lambda k: Product(Lucas(1, -1), Derangement() if k == 0 else Primes()),
                "Product(left=Lucas(a=1, b=-1), right=Derangement())"),
    "LucasConstants": (lambda k: _constants(16 + k),
                       f"LucasConstants(a=3, b=2, discriminant=1, sqrt_disc={IV}, alpha={IV}, "
                       f"beta={IV}, gamma={IV}, gamma_abs={IV}, q={IV}, bits=16)"),
    "CheckResult": (lambda k: _check((CheckStatus.CERTIFIED, CheckStatus.REFUTED)[k]),
                    "CheckResult(name='lucas-gap', status=<CheckStatus.CERTIFIED: 'certified'>, "
                    "witness={'n': 3}, detail={'bits': 128}, stats=MethodStats(exact=0, "
                    "interval=1, undecided=0, max_bits=0, escalations=0))"),
}


def test_every_value_class_has_a_case():
    assert len(CASES) == 15
    for name, (make, _) in CASES.items():
        assert type(make(0)).__name__ == name


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_form(name):
    make, text = CASES[name]
    assert repr(make(0)) == text


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash_read_the_fields(name):
    make, _ = CASES[name]
    a, twin, other = make(0), make(0), make(1)
    assert a == twin and not a != twin
    assert a != other and not a == other
    assert a != tuple(getattr(a, f) for f in a._fields) and a != None  # noqa: E711
    if name == "CheckResult":  # its witness and detail are dicts, so it never hashed
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(twin) == hash(tuple(getattr(a, f) for f in a._fields))
    assert {a, twin, other} == {a, other}


def test_equality_needs_the_same_class():
    assert Primes() != SquarefreeSum()
    assert Derangement() == Derangement()
    assert hash(Derangement()) == hash(())
    assert Lucas(1, -1) == Lucas(1, -1) and Lucas(1, -1) != Product(Lucas(1, -1), Primes())


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, _ = CASES[name]
    obj = make(0)
    field = obj._fields[0] if obj._fields else "anything"
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert obj == make(0)


@pytest.mark.parametrize("name", CASES)
def test_pickle_round_trip_is_equal(name):
    make, text = CASES[name]
    copy = pickle.loads(pickle.dumps(make(0)))
    assert copy == make(0) and repr(copy) == text


@pytest.mark.parametrize("name", ["Lucas", "Derangement", "Harmonic", "Primes",
                                  "SquarefreeSum", "Product"])
def test_no_family_instance_has_a_dict(name):
    # Sequence and each family declare __slots__, so a family keeps only its fields
    family = CASES[name][0](0)
    assert not hasattr(family, "__dict__")


def test_a_subclass_without_slots_keeps_its_dict():
    class Given(Sequence):
        name = "given"

    given = Given()
    given.values = (1, 2)
    assert given.__dict__ == {"values": (1, 2)}


def test_derived_slots_stay_out_of_the_fields():
    engine = pickle.loads(pickle.dumps(Engine(64, 1000, 0)))
    assert engine.rungs == (64, 128, 256, 512, 1000)
    comb = LogCombination(((2, 3), (-1, Fraction(5, 2))))
    assert comb.size == 2 * 3 + 1 * 5 and pickle.loads(pickle.dumps(comb)).size == comb.size
    assert "rungs" not in repr(engine) and "size" not in repr(comb)


def test_keyword_construction_keeps_the_defaults():
    assert MethodStats(interval=1) == MethodStats(0, 1, 0, 0, 0)
    assert MethodStats().to_json() == {"exact": 0, "interval": 0, "undecided": 0,
                                       "max_bits": 0, "escalations": 0}
    assert Engine(start_bits=256, cap_bits=1024, exact_budget=0) == Engine(256, 1024, 0)
    assert Engine() == Engine(128, 1 << 16, 1 << 31)
    assert Verdict(Ordering.LESS, Method.EXACT, 128).escalations == 0
    assert Verdict(ordering=Ordering.LESS, method=Method.EXACT, bits=None, escalations=2) \
        == Verdict(Ordering.LESS, Method.EXACT, None, 2)
    assert _report(()) == MonotonicityReport(
        sequence="fibonacci", start=4, stop=10, direction=Direction.DECREASING,
        violations=(), undecided=(), stats=MethodStats(interval=6))
    assert Product(right=Primes(), left=Harmonic(1)) == Product(Harmonic(1), Primes())
    assert Dyadic(mantissa=0, exponent=7) == Dyadic(0, 0)


@pytest.mark.parametrize("call", [
    lambda: Product(Primes()),
    lambda: Product(Primes(), Primes(), Primes()),
    lambda: Product(Primes(), left=Primes()),
    lambda: Product(Primes(), middle=Primes()),
    lambda: Derangement(1),
    lambda: Verdict(Ordering.LESS, Method.EXACT),
], ids=["missing", "extra", "repeated", "unknown", "fieldless", "hot"])
def test_a_bad_argument_list_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_validation_errors_are_unchanged():
    with pytest.raises(ValueError, match="cap_bits must be an int, got 1000.5"):
        Engine(cap_bits=1000.5)
    with pytest.raises(ValueError, match="start_bits must be an int >= 16"):
        Engine(start_bits=8)
    with pytest.raises(InvalidParameters, match="discriminant -3 must be positive"):
        Lucas(1, 1)
    with pytest.raises(InvalidParameters, match="harmonic order must be an int >= 1, got 0"):
        Harmonic(0)
    with pytest.raises(ValueError, match="interval endpoints out of order"):
        DyadicInterval(Dyadic(3, 0), Dyadic(1, 0))
    with pytest.raises(ValueError, match="coefficient must be a nonzero integer, got 0"):
        LogCombination(((0, 3),))


ENV = dict(os.environ, PYTHONPATH=str(Path(ratiocert.__file__).resolve().parent.parent))


@pytest.mark.parametrize("module", ["ratiocert.cli", "ratiocert.paperchecks"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # a cold command pays for neither: no value class generates code
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=ENV, check=True)
    assert out.stdout.strip() == "[]"
