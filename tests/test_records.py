"""The thirteen value classes keep the dataclass contract they were written
against: the same constructor signatures and reprs, equality and hashing by
the declared fields alone (cached properties aside), no equality across
classes, subclasses that inherit the fields, no assignment or deletion, and
copies and pickles that stay equal.  Two records changed on purpose: an
Instance (a plain dataclass once) can no longer be assigned to, and a
SoftFunction holds its maps as target positions, which changed its fields,
signature and repr and made it hashable."""

import copy
import inspect
import pickle
from functools import cached_property

import pytest

from softgamma import (
    AxiomReport,
    FiniteCommutativeSemigroup,
    GammaHom,
    GammaSemiring,
    Instance,
    InstanceSpec,
    SoftFunction,
    SoftGammaSemiring,
    SoftSet,
    TernaryRelation,
    TheoremVerdict,
    Violation,
    Witness,
)
from softgamma.reports import Record

S2 = FiniteCommutativeSemigroup(("0", "1"), ((0, 1), (1, 0)))
G = GammaSemiring(S2, ("1",), (("0",),), (((0, 0),), ((0, 1),)))
SS = SoftSet(("0", "1"), ("a", "b"), (1, 3))

S2_REPR = "FiniteCommutativeSemigroup(elements=('0', '1'), add_table=((0, 1), (1, 0)))"
G_REPR = f"GammaSemiring(s={S2_REPR}, gamma_elements=('1',), gamma_add=(('0',),), product=(((0, 0),), ((0, 1),)), zero=None)"
SS_REPR = "SoftSet(universe=('0', '1'), parameters=('a', 'b'), masks=(1, 3))"
VIOLATION_REPR = "Violation(axiom='s-commutativity', witness=('0', '1'))"
SPEC_FIELDS = (
    "generator='mix', size=(), gamma=(), family_size=None, value_policy='subsemirings', chain=None, "
    "disjoint=False, same_parameters=False, anchored=False, nested=None, hom=None, target_side=False, seed=0"
)

# (class, positional arguments that leave every default out, the signature
# without annotations and the repr, both as the dataclasses printed them, but
# for the SoftFunction fix and Instance's spec=None, which was spec=<factory>)
CASES = [
    (
        FiniteCommutativeSemigroup,
        (("0", "1"), ((0, 1), (1, 0))),
        "(elements, add_table)",
        S2_REPR,
    ),
    (
        GammaSemiring,
        (S2, ("1",), (("0",),), (((0, 0),), ((0, 1),))),
        "(s, gamma_elements, gamma_add, product, zero=None)",
        G_REPR,
    ),
    (GammaHom, (G, G, (0, 1)), "(source, target, mapping)", f"GammaHom(source={G_REPR}, target={G_REPR}, mapping=(0, 1))"),
    (Violation, ("s-commutativity", ("0", "1")), "(axiom, witness)", VIOLATION_REPR),
    (
        AxiomReport,
        ("weak", False, (Violation("s-commutativity", ("0", "1")),)),
        "(mode, passed, violations)",
        f"AxiomReport(mode='weak', passed=False, violations=({VIOLATION_REPR},))",
    ),
    (
        Witness,
        (True,),
        "(verdict, kind=None, failing_parameter=None, elements=())",
        "Witness(verdict=True, kind=None, failing_parameter=None, elements=())",
    ),
    (
        TheoremVerdict,
        ("T3.8", 3, 1, 1, 1),
        "(theorem, trials, passes, vacuous, failures, counterexample=None)",
        "TheoremVerdict(theorem='T3.8', trials=3, passes=1, vacuous=1, failures=1, counterexample=None)",
    ),
    (
        SoftGammaSemiring,
        (G, SoftSet(("0", "1"), ("a",), (1,))),
        "(base, soft)",
        f"SoftGammaSemiring(base={G_REPR}, soft=SoftSet(universe=('0', '1'), parameters=('a',), masks=(1,)))",
    ),
    (SoftSet, (("0", "1"), ("a", "b"), (1, 3)), "(universe, parameters, masks)", SS_REPR),
    (
        SoftFunction,
        (SS, SS, (0, 1), (0, 1)),
        "(source, target, f_positions, g_positions)",
        f"SoftFunction(source={SS_REPR}, target={SS_REPR}, f_positions=(0, 1), g_positions=(0, 1))",
    ),
    (
        TernaryRelation,
        (("a",), ("1",), frozenset({("a", "1", "0")})),
        "(parameters, gamma, triples)",
        "TernaryRelation(parameters=('a',), gamma=('1',), triples=frozenset({('a', '1', '0')}))",
    ),
    (InstanceSpec, (), f"({SPEC_FIELDS})", f"InstanceSpec({SPEC_FIELDS})"),
    (
        Instance,
        (G, [SS]),
        "(gs, soft_sets, outer=None, hom=None, aux_target=None, descriptor=('custom',), spec=None)",
        f"Instance(gs={G_REPR}, soft_sets=[{SS_REPR}], outer=None, hom=None, aux_target=None, "
        f"descriptor=('custom',), spec=InstanceSpec({SPEC_FIELDS}))",
    ),
]
IDS = [case[0].__name__ for case in CASES]

# an instance holds its soft sets in a list, so, as its dataclass did, it
# compares by value but has no hash
UNHASHABLE = {Instance}

# a None default that stands for a fresh value, as a dataclass default_factory did
FRESH_DEFAULTS = {(Instance, "spec"): InstanceSpec()}


def _values(record):
    return tuple(getattr(record, name) for name in record._fields)


def _fill_cached_properties(record) -> list:
    names = [name for name, attr in vars(type(record)).items() if isinstance(attr, cached_property)]
    for name in names:
        getattr(record, name)
    return names


def test_every_case_is_a_record():
    assert all(issubclass(cls, Record) for cls, *_ in CASES)
    assert len({cls for cls, *_ in CASES}) == 13


@pytest.mark.parametrize("cls, args, signature, text", CASES, ids=IDS)
class TestRecordContract:
    def test_the_signature_is_unchanged(self, cls, args, signature, text):
        sig = inspect.signature(cls)
        assert all(p.annotation is inspect.Parameter.empty for p in sig.parameters.values())
        assert str(sig) == signature

    def test_the_fields_are_the_signature_parameters(self, cls, args, signature, text):
        assert cls._fields == tuple(inspect.signature(cls).parameters)

    def test_keyword_and_positional_construction_agree(self, cls, args, signature, text):
        record = cls(*args)
        assert cls(**dict(zip(cls._fields, args))) == record
        for param in list(inspect.signature(cls).parameters.values())[len(args):]:
            assert getattr(record, param.name) == FRESH_DEFAULTS.get((cls, param.name), param.default)

    def test_equal_records_stay_equal_with_their_caches_filled_on_one_side(self, cls, args, signature, text):
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        filled = _fill_cached_properties(a)
        assert all(name in vars(a) and name not in vars(b) for name in filled)
        assert a == b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(_values(a))

    def test_a_record_of_another_class_with_the_same_values_is_unequal(self, cls, args, signature, text):
        record = cls(*args)
        twin_cls = type("Twin", (Record,), {"__annotations__": dict.fromkeys(cls._fields, "object")})
        twin = object.__new__(twin_cls)
        twin.__dict__.update(zip(cls._fields, _values(record)))
        assert _values(twin) == _values(record)
        assert record != twin and twin != record
        assert record != _values(record)

    def test_fields_can_be_neither_assigned_nor_deleted(self, cls, args, signature, text):
        record = cls(*args)
        field = cls._fields[0]
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.not_a_field = None
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
        assert "not_a_field" not in vars(record)

    def test_the_repr_is_unchanged(self, cls, args, signature, text):
        assert repr(cls(*args)) == text

    def test_a_subclass_keeps_the_fields_but_is_another_class(self, cls, args, signature, text):
        sub = type("Sub", (cls,), {})
        record, sub_record = cls(*args), sub(*args)
        assert sub._fields == cls._fields
        assert record != sub_record and sub_record != record
        assert repr(sub_record) == "Sub" + text[len(cls.__name__):]

    def test_a_copy_and_a_pickle_round_trip_are_equal(self, cls, args, signature, text):
        record = cls(*args)
        _fill_cached_properties(record)
        for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls
            assert clone == record
            assert repr(clone) == text
