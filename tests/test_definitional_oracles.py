"""Cross-checks of the bitmask implementation against plain-set semantics.

Every operation is recomputed here with dict/set comprehensions straight off
the definitions and compared pointwise; any representation bug in the mask
layer shows up as a value mismatch.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from softgamma import (
    SoftSet,
    DomainError,
    TernaryRelation,
    Witness,
    and_intersect,
    and_intersect_family,
    cartesian_product,
    extended_intersect,
    extended_union,
    is_soft_sub_gamma_semiring,
    is_soft_subset,
    make_minmax_gamma,
    make_zn_gamma,
    or_union,
    or_union_family,
    restricted_intersect,
    restricted_union,
    soft_set_from_relation,
    ternary_product,
)

UNIVERSE = ("u0", "u1", "u2", "u3")
POOL = ("a", "b", "c")
# a four-element structure in which 11 of the 15 nonempty subsets are closed,
# so drawn soft sets land on both sides of the soft gamma-semiring gate
MINMAX4 = make_minmax_gamma(4, (2, 3))


@st.composite
def soft_sets(draw, universe=UNIVERSE):
    size = draw(st.integers(min_value=1, max_value=len(POOL)))
    idxs = draw(
        st.lists(st.integers(min_value=0, max_value=len(POOL) - 1), min_size=size, max_size=size, unique=True)
    )
    params = tuple(POOL[i] for i in sorted(idxs))
    masks = tuple(draw(st.integers(min_value=0, max_value=2 ** len(universe) - 1)) for _ in params)
    return SoftSet(universe, params, masks)


# product factors of different sizes, so a row-major indexing slip shows
MIXED_UNIVERSES = (UNIVERSE, ("x", "y"), ("0", "1", "2"), ("p",))


def as_dict(ss):
    return {w: set(ss.value(w)) for w in ss.parameters}


@given(ab=st.tuples(soft_sets(), soft_sets()))
def test_binary_operations_match_plain_set_semantics(ab):
    a, b = ab
    da, db = as_dict(a), as_dict(b)
    shared = [w for w in a.parameters if w in db]

    if shared:
        out = as_dict(restricted_intersect([a, b]))
        assert out == {w: da[w] & db[w] for w in shared}
        out = as_dict(restricted_union([a, b]))
        assert out == {w: da[w] | db[w] for w in shared}

    out = as_dict(extended_intersect([a, b]))
    expected = {}
    for w in list(a.parameters) + [w for w in b.parameters if w not in da]:
        if w in da and w in db:
            expected[w] = da[w] & db[w]
        else:
            expected[w] = da.get(w, db.get(w))
    assert out == expected

    out = as_dict(extended_union([a, b]))
    assert out == {w: da.get(w, set()) | db.get(w, set()) for w in expected}

    out = as_dict(and_intersect(a, b))
    assert out == {(w, y): da[w] & db[y] for w in a.parameters for y in b.parameters}

    out = as_dict(or_union(a, b))
    assert out == {(w, y): da[w] | db[y] for w in a.parameters for y in b.parameters}

    out = as_dict(cartesian_product([a, b]))
    assert out == {
        (w, y): {(x, z) for x in da[w] for z in db[y]}
        for w in a.parameters
        for y in b.parameters
    }


@st.composite
def unsorted_soft_sets(draw):
    """A soft set over UNIVERSE whose parameters come in drawn order, not sorted."""
    params = tuple(draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=len(POOL), unique=True)))
    masks = tuple(draw(st.integers(min_value=0, max_value=2 ** len(UNIVERSE) - 1)) for _ in params)
    return SoftSet(UNIVERSE, params, masks)


@given(family=st.lists(unsorted_soft_sets(), min_size=1, max_size=3))
def test_family_operations_keep_their_parameter_orders_and_fold_every_member(family):
    values = [as_dict(m) for m in family]

    # restricted: the first member's parameters that every member carries, in its order
    common = tuple(w for w in family[0].parameters if all(w in v for v in values))
    for operation, combine in ((restricted_intersect, set.intersection), (restricted_union, set.union)):
        if not common:
            with pytest.raises(DomainError):
                operation(family)
            continue
        out = operation(family)
        assert out.parameters == common
        assert as_dict(out) == {w: combine(*[v[w] for v in values]) for w in common}

    # extended: every parameter in first-seen order, folded over the members that carry it
    seen = tuple(dict.fromkeys(w for m in family for w in m.parameters))
    for operation, combine in ((extended_intersect, set.intersection), (extended_union, set.union)):
        out = operation(family)
        assert out.parameters == seen
        assert as_dict(out) == {w: combine(*[v[w] for v in values if w in v]) for w in seen}

    # tabular: one parameter per combination, in product order
    combos = tuple(itertools.product(*[m.parameters for m in family]))
    for operation, combine in ((and_intersect_family, set.intersection), (or_union_family, set.union)):
        out = operation(family)
        assert out.parameters == combos
        assert as_dict(out) == {c: combine(*[v[y] for v, y in zip(values, c)]) for c in combos}


@given(
    family=st.lists(
        st.sampled_from(MIXED_UNIVERSES).flatmap(lambda universe: soft_sets(universe)),
        min_size=1,
        max_size=3,
    )
)
def test_cartesian_product_of_up_to_three_mixed_factors_matches_the_comprehension(family):
    values = [as_dict(m) for m in family]
    out = cartesian_product(family)
    assert out.universe == tuple(itertools.product(*[m.universe for m in family]))
    assert as_dict(out) == {
        combo: set(itertools.product(*[v[y] for v, y in zip(values, combo)]))
        for combo in itertools.product(*[m.parameters for m in family])
    }


@given(
    triple_bits=st.integers(min_value=0, max_value=2 ** (4 * 2 * 4) - 1),
)
def test_relation_derivation_matches_the_comprehension(triple_bits):
    gs = make_zn_gamma(4, (1, 2))
    params = ("p", "q", "r", "s")
    all_triples = [
        (y, g, e) for y in params for g in gs.gamma_elements for e in gs.elements
    ]
    chosen = frozenset(t for i, t in enumerate(all_triples) if triple_bits >> i & 1)
    rel = TernaryRelation(params, gs.gamma_elements, chosen)
    out = soft_set_from_relation(rel, gs)
    for y in params:
        expected = {
            s for s in gs.elements if all((y, g, s) in chosen for g in gs.gamma_elements)
        }
        assert set(out.value(y)) == expected


def test_closure_predicate_matches_a_label_level_scan():
    rng = random.Random(99)
    from softgamma import is_sub_gamma_semiring

    for gs in (make_zn_gamma(8, (2, 4, 6)), make_zn_gamma(6, (1, 3))):
        for _ in range(300):
            mask = rng.getrandbits(gs.size)
            subset = {gs.elements[i] for i in range(gs.size) if mask >> i & 1}
            expected = bool(subset) and all(
                gs.s.add(x, y) in subset for x in subset for y in subset
            ) and all(
                ternary_product(gs, x, g, y) in subset
                for x in subset
                for g in gs.gamma_elements
                for y in subset
            )
            assert is_sub_gamma_semiring(gs, subset) == expected


def _containment_oracle(a, b):
    """(kind, parameter, elements) of Maji's soft subset a <= b, recomputed on
    dicts of sets: every parameter of a is one of b's, then every value of a
    lies inside b's value there; the first escaping element in universe order
    names a value failure."""
    da, db = as_dict(a), as_dict(b)
    for w in a.parameters:
        if w not in db:
            return ("parameter-not-contained", w, ())
    for w in a.parameters:
        escaped = da[w] - db[w]
        if escaped:
            return ("value-not-contained", w, (min(escaped, key=a.universe.index),))
    return None


def _is_soft_gamma_semiring_oracle(gs, ss):
    values = [set(ss.value(w)) for w in ss.parameters]
    return any(values) and all(
        all(gs.s.add(x, y) in v for x in v for y in v)
        and all(ternary_product(gs, x, g, y) in v for x in v for g in gs.gamma_elements for y in v)
        for v in values
    )


@given(ab=st.tuples(soft_sets(), soft_sets()))
def test_soft_subset_matches_the_dict_of_sets_containment(ab):
    a, b = ab
    assert is_soft_subset(a, b) == (_containment_oracle(a, b) is None)


@given(ab=st.tuples(soft_sets(), soft_sets()))
def test_soft_sub_gamma_semiring_matches_the_dict_of_sets_containment(ab):
    inner, outer = (SoftSet(MINMAX4.elements, ss.parameters, ss.masks) for ss in ab)
    if not all(_is_soft_gamma_semiring_oracle(MINMAX4, ss) for ss in (inner, outer)):
        with pytest.raises(DomainError):
            is_soft_sub_gamma_semiring(MINMAX4, inner, outer)
        return
    w = is_soft_sub_gamma_semiring(MINMAX4, inner, outer)
    expected = _containment_oracle(inner, outer)
    if expected is None:
        assert w == Witness(True)
    else:
        kind, parameter, elements = expected
        assert w == Witness(False, kind=kind, failing_parameter=parameter, elements=elements)
