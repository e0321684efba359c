"""Verdict and report records shared by the checking layers, and Record,
the base of the library's thirteen frozen value classes:

  algebra     FiniteCommutativeSemigroup, GammaSemiring, GammaHom
  reports     Violation, AxiomReport, Witness, TheoremVerdict
  soft_sets   SoftSet, SoftFunction, TernaryRelation
  soft_gamma  SoftGammaSemiring
  harness     InstanceSpec, Instance

Record stands in for a frozen dataclass without importing dataclasses (and
with it inspect, ast and dis) at start-up.  A subclass declares its fields
as class annotations, in order, and writes its own __init__, which checks
its arguments and stores the fields once with self.__dict__.update.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Frozen value object: equal, hashed and printed by its declared fields.

    __init_subclass__ appends the subclass's own annotations to the fields
    it inherits, so the annotated field list stays the only declaration.  Equality and the
    hash read only those fields, never the instance __dict__, which also
    holds cached_property values; there are no __slots__, since
    cached_property stores into that __dict__.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = (*cls._fields, *cls.__dict__.get("__annotations__", {}))
        # the field tuple of a record (every record has two or more fields);
        # an attrgetter binds no self, so it is called with the record
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


class Violation(Record):
    """One failed axiom with the elements that falsify it, in reading order."""

    axiom: str
    witness: tuple

    def __init__(self, axiom, witness):
        self.__dict__.update(axiom=axiom, witness=witness)


class AxiomReport(Record):
    mode: str
    passed: bool
    violations: tuple[Violation, ...]

    def __init__(self, mode, passed, violations):
        self.__dict__.update(mode=mode, passed=passed, violations=violations)


class Witness(Record):
    """Outcome of a containment/closure predicate with a reproducible witness.

    Truthiness equals the verdict, so a Witness drops into boolean contexts.
    ``kind`` names the violated condition; ``elements`` lists the labels that
    exhibit it (for closure kinds, the offending inputs followed by the
    escaping result).
    """

    verdict: bool
    kind: str | None
    failing_parameter: object
    elements: tuple

    def __init__(self, verdict, kind=None, failing_parameter=None, elements=()):
        self.__dict__.update(verdict=verdict, kind=kind, failing_parameter=failing_parameter, elements=elements)

    def __bool__(self) -> bool:
        return self.verdict


PASSED = Witness(True)


class TheoremVerdict(Record):
    """Aggregate outcome of checking one law over one or more trials.

    passes + vacuous + failures == trials always holds; the counterexample,
    when present, is the replayable document from the lowest failing trial.
    """

    theorem: str
    trials: int
    passes: int
    vacuous: int
    failures: int
    counterexample: dict | None

    def __init__(self, theorem, trials, passes, vacuous, failures, counterexample=None):
        self.__dict__.update(
            theorem=theorem, trials=trials, passes=passes, vacuous=vacuous, failures=failures,
            counterexample=counterexample,
        )
