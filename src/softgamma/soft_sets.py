"""Soft sets over a finite universe and their operation algebra.

A soft set assigns to each parameter a subset of a fixed ordered universe.
Values are stored as bitmasks over the universe, and every set that leaves
the library is ordered by universe position, which keeps serialized output
byte-stable.  Family operations take ordered nonempty sequences; parameter
tuples produced by the pairwise and product operations are ordinary Python
tuples.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property, reduce
from itertools import product as iproduct
from operator import and_, or_
from types import MappingProxyType

from .algebra import (
    GammaSemiring, Label, _collection, _entries, _image_mask, _label_mask, _labels, _map_positions,
    _position_map, _preimage_mask, _require_mapping, iter_bits,
)
from .errors import ConstraintError, DomainError, InputError
from .reports import PASSED, Record, Witness


class SoftSet(Record):
    universe: tuple[Label, ...]
    parameters: tuple[Label, ...]
    masks: tuple[int, ...]

    def __init__(self, universe, parameters, masks):
        universe = _labels(universe, "universe")
        parameters = _labels(parameters, "parameter")
        masks = masks if type(masks) is tuple else _collection(masks, "value masks")
        if len(masks) != len(parameters):
            raise InputError("one value mask per parameter is required")
        limit = 1 << len(universe)
        for m in masks:
            # exactly int, as table entries are: a bool is no mask
            if type(m) is not int or not 0 <= m < limit:
                raise InputError(f"value mask {m!r} does not fit the universe")
        self.__dict__.update(universe=universe, parameters=parameters, masks=masks)

    @classmethod
    def _unchecked(cls, universe: tuple, parameters: tuple, masks: tuple) -> "SoftSet":
        """A soft set from parts valid by construction, skipping __init__'s
        checks: a validated universe, a tuple of distinct hashable
        parameters and a tuple of exact ints below 1 << len(universe).  Only
        the soft-set operations below and the harness's instance draw call
        it; input from outside goes through __init__ or build."""
        ss = object.__new__(cls)
        ss.__dict__.update(universe=universe, parameters=parameters, masks=masks)
        return ss

    @classmethod
    def build(cls, universe, parameters, values: Mapping | None = None) -> "SoftSet":
        """Construct from label sets; parameters missing from values get the empty set."""
        universe = _labels(universe, "universe")
        parameters = _labels(parameters, "parameter")
        values = {} if values is None else values
        _require_mapping(values, "values")
        unknown = set(values) - set(parameters)
        if unknown:
            raise InputError(f"values given for unknown parameters {sorted(map(repr, unknown))}")
        pos = {v: i for i, v in enumerate(universe)}
        masks = tuple(_label_mask(pos, values.get(w, ()), "value") for w in parameters)
        return cls(universe, parameters, masks)

    @cached_property
    def _upos(self) -> dict:
        return {v: i for i, v in enumerate(self.universe)}

    @cached_property
    def _ppos(self) -> dict:
        return {w: i for i, w in enumerate(self.parameters)}

    def has_param(self, param: Label) -> bool:
        try:
            return param in self._ppos
        except TypeError:  # an unhashable label is no parameter
            return False

    def mask(self, param: Label) -> int:
        try:
            return self.masks[self._ppos[param]]
        except (KeyError, TypeError):
            raise InputError(f"unknown parameter {param!r}") from None

    def value(self, param: Label) -> tuple[Label, ...]:
        m = self.mask(param)
        return tuple(self.universe[i] for i in iter_bits(m))

    def is_null(self) -> bool:
        return not any(self.masks)


def support(ss: SoftSet) -> tuple[Label, ...]:
    """Parameters with nonempty value, in parameter order."""
    return tuple(w for w, m in zip(ss.parameters, ss.masks) if m)


def _family(family: Sequence[SoftSet], shared: bool = True) -> tuple[SoftSet, ...]:
    """family as a tuple once it is a nonempty collection of SoftSets, all
    over one identically ordered universe when shared."""
    fam = _collection(family, "family of soft sets")
    if not fam:
        raise InputError("family of soft sets must be nonempty")
    for m in fam:
        if not isinstance(m, SoftSet):
            raise InputError(f"family members must be SoftSets, got {type(m).__name__}")
        if shared and m.universe != fam[0].universe:
            raise InputError("family members must share an identically ordered universe")
    return fam


def _same_universe(a: SoftSet, b: SoftSet) -> None:
    if a.universe != b.universe:
        raise InputError("soft sets must share an identically ordered universe")


def _subset_witness(a: SoftSet, b: SoftSet) -> Witness:
    """Soft subset a <= b: every parameter of a is one of b's, then every value
    of a lies inside b's value there.  The first failure is witnessed; a value
    failure names its first escaping element by universe position."""
    _same_universe(a, b)
    bound = dict(zip(b.parameters, b.masks))
    for w in a.parameters:
        if w not in bound:
            return Witness(False, kind="parameter-not-contained", failing_parameter=w)
    for w, m in zip(a.parameters, a.masks):
        escaped = m & ~bound[w]
        if escaped:
            elem = a.universe[next(iter_bits(escaped))]
            return Witness(False, kind="value-not-contained", failing_parameter=w, elements=(elem,))
    return PASSED


def is_soft_subset(a: SoftSet, b: SoftSet) -> bool:
    """Parameter containment plus pointwise value containment on a's parameters."""
    return bool(_subset_witness(a, b))


def soft_equal(a: SoftSet, b: SoftSet) -> bool:
    return is_soft_subset(a, b) and is_soft_subset(b, a)


# the three operation shapes, each folding the members' masks in member order
# with the pointwise combiner operator.and_ (intersection) or operator.or_
# (union); folds of in-range masks stay in range, and a subset, dict-ordered
# union or product of distinct parameter tuples stays distinct, so results are unchecked
def _restricted(family: Sequence[SoftSet], combine) -> SoftSet:
    first, *rest = _family(family)
    folded = dict(zip(first.parameters, first.masks))  # the first member's parameter order
    for m in rest:
        values = dict(zip(m.parameters, m.masks))
        folded = {w: combine(v, values[w]) for w, v in folded.items() if w in values}
    if not folded:
        raise DomainError("restricted operation needs a nonempty parameter intersection")
    return SoftSet._unchecked(first.universe, tuple(folded), tuple(folded.values()))


def _extended(family: Sequence[SoftSet], combine) -> SoftSet:
    fam = _family(family)
    folded = {}  # first-seen parameter order
    for m in fam:
        for w, v in zip(m.parameters, m.masks):
            folded[w] = combine(folded[w], v) if w in folded else v
    return SoftSet._unchecked(fam[0].universe, tuple(folded), tuple(folded.values()))


def _tabular(family: Sequence[SoftSet], combine) -> SoftSet:
    fam = _family(family)
    params = tuple(iproduct(*[m.parameters for m in fam]))
    masks = tuple([reduce(combine, combo) for combo in iproduct(*[m.masks for m in fam])])
    return SoftSet._unchecked(fam[0].universe, params, masks)


def restricted_intersect(family: Sequence[SoftSet]) -> SoftSet:
    """Pointwise intersection over the (nonempty) intersection of parameter sets."""
    return _restricted(family, and_)


def restricted_union(family: Sequence[SoftSet]) -> SoftSet:
    """Pointwise union over the (nonempty) intersection of parameter sets."""
    return _restricted(family, or_)


def extended_intersect(family: Sequence[SoftSet]) -> SoftSet:
    """Over the union of parameter sets, in first-seen order; at each
    parameter, intersect exactly the members that carry it."""
    return _extended(family, and_)


def extended_union(family: Sequence[SoftSet]) -> SoftSet:
    """Over the union of parameter sets, in first-seen order; at each
    parameter, unite exactly the members that carry it."""
    return _extended(family, or_)


def and_intersect_family(family: Sequence[SoftSet]) -> SoftSet:
    """Parameters are tuples from the ordered product of the parameter sets;
    the value at (y_1..y_k) is the intersection of the coordinate values."""
    return _tabular(family, and_)


def or_union_family(family: Sequence[SoftSet]) -> SoftSet:
    """Like and_intersect_family with pointwise union."""
    return _tabular(family, or_)


def and_intersect(a: SoftSet, b: SoftSet) -> SoftSet:
    return and_intersect_family([a, b])


def or_union(a: SoftSet, b: SoftSet) -> SoftSet:
    return or_union_family([a, b])


def cartesian_product(family: Sequence[SoftSet]) -> SoftSet:
    """Tuple-universe product: parameters and universe are ordered products,
    the value at a parameter tuple is the product of the coordinate values."""
    fam = _family(family, shared=False)
    universe = tuple(iproduct(*[m.universe for m in fam]))
    params = tuple(iproduct(*[m.parameters for m in fam]))
    widths = [len(m.universe) for m in fam]
    # row-major: point t of the product so far owns block t of the next one,
    # so the next value is mask placed in each block of spread(prev), bit t
    # moved to bit t * width; mask < 1 << width, so mask * spread(prev) is
    # that sum with no carries
    spreads: dict[tuple[int, int], int] = {}
    masks = []
    for combo in iproduct(*[m.masks for m in fam]):
        prev = 1
        for mask, width in zip(combo, widths):
            spread = spreads.get((prev, width))
            if spread is None:
                spread = spreads[(prev, width)] = sum(1 << t * width for t in iter_bits(prev))
            prev = mask * spread
        masks.append(prev)
    return SoftSet._unchecked(universe, params, tuple(masks))


def relative_null(universe, parameters) -> SoftSet:
    parameters = _labels(parameters, "parameter")
    return SoftSet(universe, parameters, tuple(0 for _ in parameters))


def relative_whole(universe, parameters) -> SoftSet:
    universe = _labels(universe, "universe")
    parameters = _labels(parameters, "parameter")
    full = (1 << len(universe)) - 1
    return SoftSet(universe, parameters, tuple(full for _ in parameters))


class SoftFunction(Record):
    """A carrier map f and a parameter map g with f(value(w)) == target value(g(w)).

    Like GammaHom.mapping, the maps are stored as target positions: at each
    source universe label (f_positions) and at each source parameter
    (g_positions).  The constructor checks their shape and the
    compatibility; f and g read them back as read-only label maps, and
    injectivity/surjectivity/bijectivity are joint properties of the two.
    Build from label maps through make_soft_function.
    """

    source: SoftSet
    target: SoftSet
    f_positions: tuple[int, ...]
    g_positions: tuple[int, ...]

    def __init__(self, source, target, f_positions, g_positions):
        f_positions = _position_map(
            f_positions, len(source.universe), len(target.universe), "carrier map positions", "source universe"
        )
        g_positions = _position_map(
            g_positions, len(source.parameters), len(target.parameters), "parameter map positions",
            "source parameters",
        )
        for w, m, y in zip(source.parameters, source.masks, g_positions):
            if _image_mask(f_positions, m) != target.masks[y]:
                raise ConstraintError(f"soft-function compatibility fails at parameter {w!r}", witness=w)
        self.__dict__.update(source=source, target=target, f_positions=f_positions, g_positions=g_positions)

    @property
    def f(self) -> Mapping:
        labels = self.target.universe
        return MappingProxyType({v: labels[p] for v, p in zip(self.source.universe, self.f_positions)})

    @property
    def g(self) -> Mapping:
        labels = self.target.parameters
        return MappingProxyType({w: labels[p] for w, p in zip(self.source.parameters, self.g_positions)})

    @property
    def injective(self) -> bool:
        return all(len(set(pos)) == len(pos) for pos in (self.f_positions, self.g_positions))

    @property
    def surjective(self) -> bool:
        return (
            len(set(self.f_positions)) == len(self.target.universe)
            and len(set(self.g_positions)) == len(self.target.parameters)
        )

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def make_soft_function(f: Mapping, g: Mapping, source: SoftSet, target: SoftSet) -> SoftFunction:
    """The soft function of label maps f and g; InputError where a map is
    undefined or leaves the target, ConstraintError naming the first
    incompatible parameter."""
    return SoftFunction(
        source,
        target,
        _map_positions(f, source.universe, target._upos, "carrier map", "the target universe"),
        _map_positions(g, source.parameters, target._ppos, "parameter map", "the target parameters"),
    )


def compose_soft_functions(first: SoftFunction, second: SoftFunction) -> SoftFunction:
    """(f' o f, g' o g); the target of first must be exactly the source of second."""
    if first.target != second.source:
        raise InputError("target of the first soft function must equal the source of the second")
    return SoftFunction(
        first.source,
        second.target,
        tuple(second.f_positions[p] for p in first.f_positions),
        tuple(second.g_positions[p] for p in first.g_positions),
    )


def soft_image(sf: SoftFunction) -> SoftSet:
    """Over the target parameters: at y, the union of f(value(w)) over the
    fiber g(w) == y; empty off the image of g."""
    masks = [0] * len(sf.target.parameters)
    for m, y in zip(sf.source.masks, sf.g_positions):
        masks[y] |= _image_mask(sf.f_positions, m)
    return SoftSet(sf.target.universe, sf.target.parameters, tuple(masks))


def soft_preimage(f: Mapping, g: Mapping, target: SoftSet, parameters) -> SoftSet:
    """Over the given parameters: at w, the preimage f^{-1}(target value at g(w)).

    The result universe is the ordered domain of f.
    """
    fpos = _map_positions(f, f, target._upos, "carrier map", "the target universe")
    parameters = _labels(parameters, "parameter")
    gpos = _map_positions(g, parameters, target._ppos, "parameter map", "the target parameters")
    masks = tuple(_preimage_mask(fpos, target.masks[y]) for y in gpos)
    return SoftSet(tuple(f), parameters, masks)


class TernaryRelation(Record):
    """A parameterized set of (parameter, gamma, element) triples."""

    parameters: tuple[Label, ...]
    gamma: tuple[str, ...]
    triples: frozenset

    def __init__(self, parameters, gamma, triples):
        parameters = _labels(parameters, "relation parameter")
        gamma = _entries(_labels(gamma, "relation gamma"), None, "relation gamma set")
        rows = _collection(triples, "relation triples")
        try:
            triples = frozenset(_collection(t, "relation triple") for t in rows)
        except TypeError:
            raise InputError("relation triples must be a collection of hashable triples") from None
        pset, gset = set(parameters), set(gamma)
        for t in triples:
            if len(t) != 3:
                raise InputError(f"relation triple {t!r} must have three components")
            if t[0] not in pset:
                raise InputError(f"relation triple mentions unknown parameter {t[0]!r}")
            if t[1] not in gset:
                raise InputError(f"relation triple mentions unknown gamma label {t[1]!r}")
        self.__dict__.update(parameters=parameters, gamma=gamma, triples=triples)


def soft_set_from_relation(rel: TernaryRelation, gs: GammaSemiring) -> SoftSet:
    """Value at y: the elements s related to y under *every* gamma label.

    The quantification over the gamma set is universal, not existential.
    """
    if rel.gamma != gs.gamma_elements:
        raise InputError("relation gamma set must match the structure gamma set, in order")
    related: dict[tuple, list] = {}
    for (y, g, s) in rel.triples:
        related.setdefault((y, g), []).append(s)
    per_pair = {key: gs.subset_mask(labels) for key, labels in related.items()}
    masks = tuple(
        reduce(and_, (per_pair.get((y, g), 0) for g in rel.gamma), gs.full_mask) for y in rel.parameters
    )
    return SoftSet(gs.elements, rel.parameters, masks)
