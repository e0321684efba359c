"""Malformed-input contract: grids of bad values fed into every table slot,
every label-map slot, every label collection, every label set and every
count.

A table slot is a position inside the addition table, the product table,
the gamma addition table or a homomorphism's position mapping; a map slot is
the label map itself, or its value at the first source label, in every
function that reads one.  A label collection is a carrier, gamma set,
universe or parameter set; a label set is a soft-set value or a subset of a
carrier; a count is a size, an arity, a bound or a number of trials.  Each
case must raise InputError (ParseError through files); is_soft_gamma_homomorphism,
a predicate, must return a false Witness instead.  No case may escape as a
raw TypeError, IndexError or AttributeError.
"""

import copy

import pytest

from softgamma import (
    GammaHom,
    InputError,
    InstanceSpec,
    ParseError,
    SoftGammaSemiring,
    SoftSet,
    TernaryRelation,
    Witness,
    check_theorem,
    enumerate_sub_gamma_semirings,
    files,
    fuzz_theorem,
    gamma_hom,
    generate_instance,
    is_gamma_homomorphism,
    is_soft_gamma_homomorphism,
    is_sub_gamma_semiring,
    make_matrix_gamma,
    make_minmax_gamma,
    make_soft_function,
    make_zn_gamma,
    product_gamma,
    relative_null,
    soft_preimage,
)
from softgamma import harness
from softgamma.algebra import FiniteCommutativeSemigroup, GammaSemiring, sub_gamma_witness_mask

Z2 = make_zn_gamma(2, (1,), strict=True)

BAD = {
    "int": 5,
    "str": "ab",
    "bool": True,
    "float": 1.0,
    "negative": -1,
    "out-of-range": 2,
    "list-label": ["0"],
    "dict": {"0": [0, 1]},
}

# paths into a structure document; the last index is replaced by the bad value
TABLE_SLOTS = {
    "add": ("s_add",),
    "add-row": ("s_add", 0),
    "add-entry": ("s_add", 0, 0),
    "product": ("product",),
    "product-layer": ("product", 0),
    "product-row": ("product", 0, 0),
    "product-entry": ("product", 0, 0, 0),
    "gamma-add": ("gamma_add",),
    "gamma-add-row": ("gamma_add", 0),
    "gamma-add-entry": ("gamma_add", 0, 0),
}

# a gamma addition entry is any label string, so these two cases are
# well-formed tables: closure inside the gamma set is an axiom checked by
# check_gamma_semiring, not a shape rule
ACCEPTED = {("gamma-add-entry", "str"): (("ab",),), ("gamma-add-row", "list-label"): (("0",),)}

TABLE_CASES = [(slot, bad) for slot in TABLE_SLOTS for bad in BAD if (slot, bad) not in ACCEPTED]


def _doc_with(slot: str, bad: str) -> dict:
    doc = copy.deepcopy(files.structure_to_doc(Z2))
    *path, last = TABLE_SLOTS[slot]
    node = doc
    for key in path:
        node = node[key]
    node[last] = copy.deepcopy(BAD[bad])
    return doc


def _construct(doc: dict) -> GammaSemiring:
    sg = FiniteCommutativeSemigroup(tuple(doc["s_elements"]), doc["s_add"])
    return GammaSemiring(sg, tuple(doc["gamma_elements"]), doc["gamma_add"], doc["product"])


@pytest.mark.parametrize("slot,bad", TABLE_CASES)
def test_table_slot_raises_input_error(slot, bad):
    with pytest.raises(InputError):
        _construct(_doc_with(slot, bad))


@pytest.mark.parametrize("slot,bad", TABLE_CASES)
def test_table_slot_in_a_structure_file_is_a_parse_error(slot, bad):
    with pytest.raises(ParseError):
        files.structure_from_doc(_doc_with(slot, bad))


@pytest.mark.parametrize("slot,bad", sorted(ACCEPTED))
def test_accepted_slot_builds(slot, bad):
    assert _construct(_doc_with(slot, bad)).gamma_add == ACCEPTED[slot, bad]


@pytest.mark.parametrize("bad", BAD)
def test_hom_mapping_raises_input_error(bad):
    with pytest.raises(InputError):
        GammaHom(Z2, Z2, copy.deepcopy(BAD[bad]))


@pytest.mark.parametrize("bad", BAD)
def test_hom_mapping_entry_raises_input_error(bad):
    with pytest.raises(InputError):
        GammaHom(Z2, Z2, [copy.deepcopy(BAD[bad]), 1])


SOURCE = SoftSet.build(Z2.elements, ("w",), {"w": ["0"]})
IDENTITY_F = {"0": "0", "1": "1"}
IDENTITY_G = {"w": "w"}


def _maps(which: str, where: str, bad: str) -> tuple:
    """The identity maps, with f or g replaced whole or at its first label."""
    value = copy.deepcopy(BAD[bad])
    f, g = dict(IDENTITY_F), dict(IDENTITY_G)
    if where == "whole":
        return (value, g) if which == "f" else (f, value)
    if which == "f":
        f["0"] = value
    else:
        g["w"] = value
    return f, g


MAP_SLOTS = [(which, where) for which in ("f", "g") for where in ("whole", "value")]

MAP_CASES = [(which, where, bad) for which, where in MAP_SLOTS for bad in BAD]

HOM_CASES = [(where, bad) for where in ("whole", "value") for bad in BAD]


def test_identity_maps_are_valid():
    assert is_gamma_homomorphism(IDENTITY_F, Z2, Z2)
    make_soft_function(IDENTITY_F, IDENTITY_G, SOURCE, SOURCE)
    soft_preimage(IDENTITY_F, IDENTITY_G, SOURCE, ("w",))
    soft = SoftGammaSemiring(Z2, SOURCE)
    assert is_soft_gamma_homomorphism(IDENTITY_F, IDENTITY_G, soft, soft)


@pytest.mark.parametrize("where,bad", HOM_CASES)
def test_gamma_hom_mapping_raises_input_error(where, bad):
    mapping, _ = _maps("f", where, bad)
    with pytest.raises(InputError):
        gamma_hom(Z2, Z2, mapping)


@pytest.mark.parametrize("where,bad", HOM_CASES)
def test_is_gamma_homomorphism_mapping_raises_input_error(where, bad):
    mapping, _ = _maps("f", where, bad)
    with pytest.raises(InputError):
        is_gamma_homomorphism(mapping, Z2, Z2)


@pytest.mark.parametrize("which,where,bad", MAP_CASES)
def test_make_soft_function_raises_input_error(which, where, bad):
    f, g = _maps(which, where, bad)
    with pytest.raises(InputError):
        make_soft_function(f, g, SOURCE, SOURCE)


@pytest.mark.parametrize("which,where,bad", MAP_CASES)
def test_soft_preimage_raises_input_error(which, where, bad):
    f, g = _maps(which, where, bad)
    with pytest.raises(InputError):
        soft_preimage(f, g, SOURCE, ("w",))


@pytest.mark.parametrize("which,where,bad", MAP_CASES)
def test_is_soft_gamma_homomorphism_returns_a_false_witness(which, where, bad):
    f, g = _maps(which, where, bad)
    soft = SoftGammaSemiring(Z2, SOURCE)
    w = is_soft_gamma_homomorphism(f, g, soft, soft)
    assert isinstance(w, Witness)
    assert not w


# -- label collections, label sets and counts ---------------------------------


U = Z2.elements
EMPTY = frozenset()

# each slot builds its object with the value in one label-collection position
COLLECTION_SLOTS = {
    "carrier": lambda v: FiniteCommutativeSemigroup(v, Z2.s.add_table),
    "gamma": lambda v: GammaSemiring(Z2.s, v, None, Z2.product),
    "universe": lambda v: SoftSet(v, ("w",), (0,)),
    "parameters": lambda v: SoftSet(U, v, (0,)),
    "relation-parameters": lambda v: TernaryRelation(v, ("1",), EMPTY),
    "relation-gamma": lambda v: TernaryRelation(("w",), v, EMPTY),
    "relation-triple": lambda v: TernaryRelation(("w",), ("1",), [v]),
    "relative-null-parameters": lambda v: relative_null(U, v),
    "preimage-parameters": lambda v: soft_preimage(IDENTITY_F, IDENTITY_G, SOURCE, v),
}

# the same positions in a structure, soft set or relation document
COLLECTION_DOCS = {
    "carrier": (lambda: files.structure_to_doc(Z2), "s_elements", files.structure_from_doc),
    "gamma": (lambda: files.structure_to_doc(Z2), "gamma_elements", files.structure_from_doc),
    "universe": (lambda: files.soft_set_to_doc(SOURCE), "universe", files.soft_set_from_doc),
    "parameters": (lambda: files.soft_set_to_doc(SOURCE), "parameters", files.soft_set_from_doc),
    "relation-parameters": (
        lambda: {"n_params": ["w"], "gamma": ["1"], "triples": []}, "n_params", files.relation_from_doc
    ),
    "relation-gamma": (
        lambda: {"n_params": ["w"], "gamma": ["1"], "triples": []}, "gamma", files.relation_from_doc
    ),
}

BAD_COLLECTIONS = {
    "int": 5,
    "str": "01",
    # a valid relation triple's three labels, spelled as one string
    "str-triple": "w10",
    "unhashable": [["a"]],
    "repeated": ["0", "0"],
    "dict": {"0": 1},
}
GAMMA_SLOTS = ("gamma", "relation-gamma")

COLLECTION_CASES = [(slot, bad) for slot in COLLECTION_SLOTS for bad in BAD_COLLECTIONS] + [
    (slot, "int-label") for slot in GAMMA_SLOTS
]
# in a document a nested list is a tuple label, so [["a"]] is well-formed there
COLLECTION_DOC_CASES = [
    (slot, bad) for slot, bad in COLLECTION_CASES if slot in COLLECTION_DOCS and bad != "unhashable"
]


def _bad_collection(bad: str):
    return [1] if bad == "int-label" else copy.deepcopy(BAD_COLLECTIONS[bad])


def test_valid_collections_build():
    for slot, build in COLLECTION_SLOTS.items():
        if slot == "relation-triple":
            build(("w", "1", "0"))
        else:
            build(("1",) if slot in GAMMA_SLOTS else ("w",) if "param" in slot else U)


@pytest.mark.parametrize("slot,bad", COLLECTION_CASES)
def test_label_collection_raises_input_error(slot, bad):
    with pytest.raises(InputError):
        COLLECTION_SLOTS[slot](_bad_collection(bad))


@pytest.mark.parametrize("slot,bad", COLLECTION_DOC_CASES)
def test_label_collection_in_a_file_is_a_parse_error(slot, bad):
    make_doc, key, parse = COLLECTION_DOCS[slot]
    doc = copy.deepcopy(make_doc())
    doc[key] = _bad_collection(bad)
    with pytest.raises(ParseError):
        parse(doc)


LABEL_SET_SLOTS = {
    "value": lambda v: SoftSet.build(U, ("w",), {"w": v}),
    "values": lambda v: SoftSet.build(U, ("w",), v),
    "subset-mask": lambda v: Z2.subset_mask(v),
    "is-sub-gamma-semiring": lambda v: is_sub_gamma_semiring(Z2, v),
}

BAD_LABEL_SETS = {
    "int": 5,
    "str": "01",
    "dict": {"0": 1},
    "unknown": ["9"],
    "unhashable": [["0"]],
}

LABEL_SET_CASES = [(slot, bad) for slot in LABEL_SET_SLOTS for bad in BAD_LABEL_SETS]


def test_valid_label_sets_build():
    assert SoftSet.build(U, ("w",), {"w": ["0"]}).masks == (1,)
    assert Z2.subset_mask(["1"]) == 2
    assert is_sub_gamma_semiring(Z2, ["0"])


@pytest.mark.parametrize("slot,bad", LABEL_SET_CASES)
def test_label_set_raises_input_error(slot, bad):
    with pytest.raises(InputError):
        LABEL_SET_SLOTS[slot](copy.deepcopy(BAD_LABEL_SETS[bad]))


# a value mask is an exact int with one bit per universe element
BAD_MASKS = {"beyond-universe": 4, "negative": -1, "bool": True, "float": 1.0, "str": "1"}


def test_valid_masks_build():
    assert SoftSet(("0", "1"), ("a",), (3,)).masks == (3,)


@pytest.mark.parametrize("bad", BAD_MASKS)
def test_value_mask_off_the_universe_raises_input_error(bad):
    with pytest.raises(InputError, match="does not fit the universe"):
        SoftSet(("0", "1"), ("a",), (BAD_MASKS[bad],))


COUNT_SLOTS = {
    "max_carrier": lambda v: enumerate_sub_gamma_semirings(make_zn_gamma(1, (0,)), max_carrier=v),
    "zn-n": lambda v: make_zn_gamma(v, (0,)),
    "minmax-n": lambda v: make_minmax_gamma(v, (0,)),
    "matrix-rows": lambda v: make_matrix_gamma(2, v, 1),
    "matrix-cols": lambda v: make_matrix_gamma(2, 1, v),
    "product-arity": lambda v: product_gamma(Z2, v),
    "judged-product-arity": lambda v: sub_gamma_witness_mask(Z2, 1, v),
    "spec-size": lambda v: generate_instance(InstanceSpec(generator="zn", size=(v,))),
    "family_size": lambda v: generate_instance(InstanceSpec(generator="zn", size=(2,), family_size=v)),
    "trials": lambda v: fuzz_theorem("T3.4", v),
}

BAD_COUNTS = {"str": "5", "bool": True, "float": 2.5, "zero": 0, "negative": -1}

COUNT_CASES = [(slot, bad) for slot in COUNT_SLOTS for bad in BAD_COUNTS]


def test_valid_counts_build():
    for build in COUNT_SLOTS.values():
        build(1)


@pytest.mark.parametrize("slot,bad", COUNT_CASES)
def test_count_raises_input_error(slot, bad):
    with pytest.raises(InputError):
        COUNT_SLOTS[slot](BAD_COUNTS[bad])


# specs that each break one field, refused before any draw
BAD_SPECS = {
    "generator-unknown": InstanceSpec(generator="nonsense"),
    "family-size-str": InstanceSpec(family_size="2"),
    "value-policy-unknown": InstanceSpec(value_policy="nonsense"),
    "seed-negative": InstanceSpec(seed=-1),
    "gamma-int": InstanceSpec(generator="zn", size=(4,), gamma=5),
    "gamma-unhashable": InstanceSpec(generator="zn", size=(4,), gamma=[[1]]),
    "size-int": InstanceSpec(generator="zn", size=5),
    "zn-two-counts": InstanceSpec(generator="zn", size=(4, 5)),
    "matrix-one-count": InstanceSpec(generator="matrix", size=(2,)),
    "matrix-gamma": InstanceSpec(generator="matrix", gamma=5),
    "matrix-pinned-gamma": InstanceSpec(generator="matrix", size=(2, 1, 2), gamma=(1,)),
    # mix picks matrix on seed 5 and minmax on seed 0
    "mix-size-on-matrix": InstanceSpec(generator="mix", size=(6,), seed=5),
    "mix-size-on-minmax": InstanceSpec(generator="mix", size=(6,), seed=0),
    "mix-gamma-on-matrix": InstanceSpec(generator="mix", gamma=(1,), seed=5),
    "mix-gamma-on-minmax": InstanceSpec(generator="mix", gamma=(1,), seed=0),
    "hom-unknown": InstanceSpec(hom="nonsense"),
    "gamma-bool": InstanceSpec(generator="zn", size=(4,), gamma=(1, True)),
    # the old flag values and truthy stand-ins for a bool
    "chain-bool": InstanceSpec(chain=True),
    "nested-unknown": InstanceSpec(nested="nonsense"),
    "disjoint-str": InstanceSpec(seed=1, disjoint="no"),
    "same-parameters-int": InstanceSpec(same_parameters=1),
    "anchored-none": InstanceSpec(anchored=None),
    "target-side-str": InstanceSpec(hom="collapse", target_side="no"),
}


def _generates(spec):
    try:
        generate_instance(spec)
    except InputError:
        return False
    return True


def test_every_spec_field_has_a_refusing_row():
    # a refused row covers each field whose default makes it generate
    defaults = InstanceSpec()
    covered = {
        name
        for spec in BAD_SPECS.values()
        if not _generates(spec)
        for name in InstanceSpec._fields
        if _generates(spec.replace(**{name: getattr(defaults, name)}))
    }
    assert [name for name in InstanceSpec._fields if name not in covered] == []


@pytest.mark.parametrize("name", BAD_SPECS)
def test_malformed_spec_raises_input_error(name):
    with pytest.raises(InputError):
        generate_instance(BAD_SPECS[name])


@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("name", BAD_SPECS)
def test_malformed_spec_is_refused_by_fuzz_theorem_before_any_trial(monkeypatch, name, drop):
    # fuzz_theorem checks its spec once, up front: the same error as the
    # generator's, and no trial is evaluated
    with pytest.raises(InputError) as expected:
        generate_instance(BAD_SPECS[name])

    def no_trial(self, inst):
        raise AssertionError("a trial ran on a malformed spec")

    monkeypatch.setattr(harness.Law, "evaluate", no_trial)
    # T3.4's row replaces family_size and same_parameters, and its drop chain,
    # disjoint and value_policy too, but fuzz_theorem checks the template's own
    # values first; generator, size, gamma, the homomorphism and the seed are the template's
    with pytest.raises(InputError) as raised:
        fuzz_theorem("T3.4", 3, BAD_SPECS[name], drop_hypothesis=drop)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("template", ["x", 3, {"seed": 0}])
def test_a_template_that_is_not_a_spec_is_an_input_error(template):
    with pytest.raises(InputError, match="^a template must be an InstanceSpec, got "):
        fuzz_theorem("T3.7", 3, template)


@pytest.mark.parametrize("instance", [None, "x", InstanceSpec()])
def test_an_instance_that_is_not_an_instance_is_an_input_error(instance):
    with pytest.raises(InputError, match="^an instance must be an Instance, got "):
        check_theorem("T3.7", instance)
