"""Malformed-input contract: one grid of bad values fed into every table slot
and every label-map slot.

A table slot is a position inside the addition table, the product table,
the gamma addition table or a homomorphism's position mapping; a map slot is
the label map itself, or its value at the first source label, in every
function that reads one.  Each case must raise InputError (ParseError
through files.structure_from_doc); is_soft_gamma_homomorphism, a predicate,
must return a false Witness instead.  No case may escape as a raw
TypeError, IndexError or AttributeError.
"""

import copy

import pytest

from softgamma import (
    GammaHom,
    InputError,
    ParseError,
    SoftGammaSemiring,
    SoftSet,
    Witness,
    files,
    gamma_hom,
    is_gamma_homomorphism,
    is_soft_gamma_homomorphism,
    make_soft_function,
    make_zn_gamma,
    soft_preimage,
)
from softgamma.algebra import FiniteCommutativeSemigroup, GammaSemiring

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
