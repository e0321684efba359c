"""Input errors of the file readers, of the CLI's op arity checks, of
check_theorem's instance fields and of its soft sets off their carriers, of
the structure that the axiom scan and the enumeration take, of the structure
and homomorphism arguments of the record constructors, the homomorphism
helpers, product_gamma and the soft image and preimage, of the record
arguments (soft set, soft function, relation, soft gamma-semiring,
structure, homomorphism, spec, axiom report, witness, verdict) of the soft
predicates, the soft-set and soft-function operations, the subalgebra
predicates, the mask closure judge, the document emitters,
check_trivial_whole_theorem and generate_instance, of the carrier that the
semigroup scan takes and of the family that the soft-set family operations
take, one malformed input each: every one is refused with its own message,
a ParseError from the reader, exit 2 with the message on stderr from the
CLI, and an InputError from check_theorem before any hypothesis is judged,
from the scans and the enumeration before any table is read, from a record
argument's entry point before any of its attributes is read, and from the
family operations before any member is read; a mask that is not an exact
int is an InputError from the closure judge and from labels_of_mask."""

import json
import re
import sys

import pytest

from softgamma import (
    GammaHom,
    GammaSemiring,
    InputError,
    Instance,
    ParseError,
    SoftFunction,
    SoftGammaSemiring,
    SoftSet,
    TernaryRelation,
    and_intersect_family,
    cartesian_product,
    check_commutative_semigroup,
    check_gamma_semiring,
    check_theorem,
    check_trivial_whole_theorem,
    compose_soft_functions,
    enumerate_sub_gamma_semirings,
    extended_intersect,
    extended_union,
    files,
    gamma_hom,
    generate_instance,
    identity_hom,
    is_gamma_homomorphism,
    is_soft_gamma_homomorphism,
    is_soft_gamma_semiring,
    is_soft_sub_gamma_semiring,
    is_soft_subset,
    is_sub_gamma_semiring,
    is_trivial_soft,
    is_whole_soft,
    kernel,
    make_soft_function,
    make_zn_gamma,
    or_union_family,
    product_gamma,
    restricted_intersect,
    restricted_union,
    soft_equal,
    soft_image,
    soft_image_under_hom,
    soft_preimage,
    soft_preimage_under_hom,
    soft_set_from_relation,
    sub_gamma_witness,
    support,
    ternary_product,
)
from softgamma.algebra import sub_gamma_witness_mask
from softgamma.harness import ALL_THEOREMS, canonical_hom
from softgamma.cli import main

Z4 = make_zn_gamma(4, (1, 3))


def _structure():
    doc = files.structure_to_doc(Z4, name="z4")
    doc["name"] = 4
    return doc


def _soft_set(values):
    return {"universe": ["0", "1", "2"], "parameters": ["a"], "values": values}


def _relation(gamma, triples):
    return {"n_params": ["a"], "gamma": gamma, "triples": triples}


def _hom():
    doc = files.hom_to_doc(identity_hom(Z4))
    doc["map"]["9"] = "0"
    return doc


def _hom_with_list_source():
    doc = files.hom_to_doc(identity_hom(Z4))
    doc["source"] = list(doc["source"])
    return doc


@pytest.mark.parametrize(
    "read,doc,message",
    [
        (files.structure_from_doc, _structure(), "structure name must be a string"),
        (files.soft_set_from_doc, _soft_set(["0"]), "values must be an object"),
        (files.soft_set_from_doc, _soft_set({"a": "0"}), "value list for 'a' must be a list"),
        (files.relation_from_doc, _relation(["g"], {"a": "g"}), "triples must be a list"),
        (files.relation_from_doc, _relation(["g"], [["a", 1, "0"]]), "relation gamma component 1 must be a string"),
        (files.hom_from_doc, _hom(), "homomorphism map mentions unknown element key '9'"),
        (files.hom_from_doc, {"source": 5, "target": 5, "map": {}}, "structure document must be an object"),
        (files.hom_from_doc, _hom_with_list_source(), "structure document must be an object"),
        (files.structure_from_doc, None, "structure document must be an object"),
        (files.hom_from_doc, [], "homomorphism document must be an object"),
    ],
    ids=[
        "structure-name",
        "values-not-an-object",
        "value-list-not-a-list",
        "triples-not-a-list",
        "relation-gamma-not-a-string",
        "hom-unknown-element-key",
        "hom-source-a-number",
        "hom-source-a-list-of-the-field-names",
        "structure-none",
        "hom-a-list",
    ],
)
def test_a_malformed_document_is_a_parse_error(read, doc, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        read(doc)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["op", "image", "f.json", "source.json"], "op image takes a map file, a source file, and a target file"),
        (["op", "preimage", "f.json", "a.json", "b.json"], "op preimage takes a map file and a target file"),
    ],
    ids=["image", "preimage"],
)
def test_an_op_with_the_wrong_file_count_exits_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


# recursion depths from the interpreter's limit: JSON nested far past it, and a
# label that json.loads still reads but that is too deep for the label reader
LIMIT = sys.getrecursionlimit()
DEEP_LABEL = "[" * (LIMIT - 100) + '"x"' + "]" * (LIMIT - 100)


def _soft_set_text(universe):
    return '{"universe": %s, "parameters": ["a"], "values": {}}' % universe


UNREADABLE = {
    "not-utf-8": (b"\xff\xfe{}", ["validate", "DOC"], "cannot read "),
    "json-nested-too-deep": (
        _soft_set_text("[" * (100 * LIMIT) + "]" * (100 * LIMIT)).encode(),
        ["op", "rint", "DOC", "DOC"],
        "invalid JSON: nested too deeply",
    ),
    "label-nested-too-deep": (
        _soft_set_text(f"[{DEEP_LABEL}]").encode(),
        ["op", "rint", "DOC", "DOC"],
        "label entry is nested too deeply",
    ),
}


def test_the_deep_label_is_valid_json():
    doc = json.loads(UNREADABLE["label-nested-too-deep"][0])
    assert doc["parameters"] == ["a"]


@pytest.mark.parametrize("case", UNREADABLE)
def test_an_unreadable_document_is_a_parse_error(tmp_path, case):
    data, _, message = UNREADABLE[case]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        files.soft_set_from_doc(files.load(path))


@pytest.mark.parametrize("case", UNREADABLE)
def test_an_unreadable_document_exits_2(capsys, tmp_path, case):
    data, argv, message = UNREADABLE[case]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code = main([str(path) if arg == "DOC" else arg for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {message}")


MEMBER = SoftSet(Z4.elements, ("a",), (1,))


def _instance(**fields):
    """A well-formed instance for every law, with the given fields replaced."""
    parts = dict(gs=Z4, soft_sets=[MEMBER, MEMBER], outer=MEMBER, hom=identity_hom(Z4))
    return Instance(**{**parts, **fields})


@pytest.mark.parametrize(
    "law,fields,message",
    [
        ("T3.7", dict(spec="x"), "an instance's spec must be of type InstanceSpec, got str"),
        ("T3.7", dict(gs=5), "an instance's gs must be of type GammaSemiring, got int"),
        ("T3.7", dict(soft_sets=5), "an instance's soft_sets must be a list of SoftSets"),
        ("T3.7", dict(soft_sets=[MEMBER, 5]), "an instance's soft_sets must be a list of SoftSets"),
        ("T4.4", dict(outer=5), "an instance's outer must be of type SoftSet, got int"),
        ("L3.16", dict(hom=5), "an instance's hom must be of type GammaHom, got int"),
        ("L3.16", dict(aux_target=5), "an instance's aux_target must be of type SoftSet, got int"),
        ("T3.7", dict(descriptor=5), "an instance's descriptor must be of type tuple, got int"),
    ],
    ids=["spec-str", "gs-int", "soft-sets-int", "soft-sets-entry-int", "outer-int", "hom-int", "aux-target-int", "descriptor-int"],
)
def test_a_malformed_instance_field_is_an_input_error(law, fields, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        check_theorem(law, _instance(**fields))


Z8 = make_zn_gamma(8, (2, 4, 6))
COLLAPSE = canonical_hom(("zn", 8, (2, 4, 6)))  # Z8 onto Z4's carrier
UNCLOSED_Z8 = SoftSet(Z8.elements, ("a",), (0b101,))  # {0, 2}: 2 + 2 = 4 is missing
CLOSED_Z8 = SoftSet(Z8.elements, ("a",), (0b10001,))  # {0, 4}
OFF_Z6 = SoftSet(make_zn_gamma(6, (1,)).elements, ("a",), (1,))


# every soft set lies over its carrier before any hypothesis is judged, so a
# missed hypothesis (the unclosed member) hides no carrier error, whatever
# the member order
@pytest.mark.parametrize(
    "law,instance",
    [
        ("T3.8", Instance(Z8, [UNCLOSED_Z8, OFF_Z6])),
        ("T3.8", Instance(Z8, [OFF_Z6, UNCLOSED_Z8])),
        ("T4.4", Instance(Z8, [CLOSED_Z8, CLOSED_Z8], outer=OFF_Z6)),
        ("L3.16", Instance(Z8, [CLOSED_Z8], hom=COLLAPSE, aux_target=CLOSED_Z8)),
        ("T4.11", Instance(COLLAPSE.target, [MEMBER], outer=MEMBER, hom=COLLAPSE)),
    ],
    ids=["unclosed-then-off", "off-then-unclosed", "outer", "aux-target-off-the-target", "image-off-the-source"],
)
def test_a_soft_set_off_its_carrier_is_an_input_error(law, instance):
    with pytest.raises(InputError, match="^soft set universe must equal the structure carrier, in order$"):
        check_theorem(law, instance)


@pytest.mark.parametrize(
    "judge", [check_gamma_semiring, enumerate_sub_gamma_semirings], ids=["check-gamma-semiring", "enumerate"]
)
def test_a_structure_that_is_not_a_gamma_semiring_is_an_input_error(judge):
    with pytest.raises(InputError, match="^a structure must be of type GammaSemiring, got int$"):
        judge(5)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: GammaSemiring(5, ("g",), None, []), "a carrier must be of type FiniteCommutativeSemigroup, got int"),
        (lambda: GammaHom(5, Z4, (0, 1, 2, 3)), "a structure must be of type GammaSemiring, got int"),
        (lambda: GammaHom(Z4, 5, (0, 1, 2, 3)), "a structure must be of type GammaSemiring, got int"),
        (lambda: identity_hom(5), "a structure must be of type GammaSemiring, got int"),
        (lambda: gamma_hom(5, Z4, {}), "a structure must be of type GammaSemiring, got int"),
        (lambda: is_gamma_homomorphism({}, 5, Z4), "a structure must be of type GammaSemiring, got int"),
        (lambda: kernel(5), "a homomorphism must be of type GammaHom, got int"),
        (lambda: product_gamma(5, 2), "a structure must be of type GammaSemiring, got int"),
        (lambda: soft_image_under_hom(5, MEMBER), "a homomorphism must be of type GammaHom, got int"),
        (lambda: soft_preimage_under_hom(5, MEMBER), "a homomorphism must be of type GammaHom, got int"),
    ],
    ids=[
        "gamma-semiring-carrier", "gamma-hom-source", "gamma-hom-target", "identity-hom", "gamma-hom",
        "is-gamma-homomorphism", "kernel", "product-gamma", "soft-image", "soft-preimage",
    ],
)
def test_a_structure_or_homomorphism_argument_of_the_wrong_type_is_an_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


IDENTITY = {x: x for x in Z4.elements}
FUNCTION = make_soft_function(IDENTITY, {"a": "a"}, MEMBER, MEMBER)
SOFT = SoftGammaSemiring(Z4, MEMBER)
RELATION = TernaryRelation(("a",), Z4.gamma_elements, ())
STRUCTURE = "a structure must be of type GammaSemiring, got int"
SOFT_SET = "a soft set must be of type SoftSet, got int"
SOFT_FUNCTION = "a soft function must be of type SoftFunction, got int"
SOFT_GAMMA = "a soft gamma-semiring must be of type SoftGammaSemiring, got int"


# one row per entry point and record argument, each checked before any of
# the argument's attributes is read
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: is_soft_gamma_semiring(5, MEMBER), STRUCTURE),
        (lambda: is_soft_gamma_semiring(Z4, 5), SOFT_SET),
        (lambda: is_soft_gamma_semiring(Z4, 5, 2), SOFT_SET),
        (lambda: is_trivial_soft(Z4, None), "a soft set must be of type SoftSet, got NoneType"),
        (lambda: is_whole_soft(Z4, "ab"), "a soft set must be of type SoftSet, got str"),
        (lambda: soft_image_under_hom(identity_hom(Z4), 5), SOFT_SET),
        (lambda: soft_preimage_under_hom(identity_hom(Z4), 5), SOFT_SET),
        (lambda: SoftGammaSemiring(5, MEMBER), STRUCTURE),
        (lambda: SoftGammaSemiring(Z4, 5), SOFT_SET),
        (lambda: is_soft_sub_gamma_semiring(5, MEMBER, MEMBER), STRUCTURE),
        (lambda: is_soft_sub_gamma_semiring(Z4, 5, MEMBER), SOFT_SET),
        (lambda: is_soft_sub_gamma_semiring(Z4, MEMBER, 5), SOFT_SET),
        (lambda: is_soft_subset(5, MEMBER), SOFT_SET),
        (lambda: is_soft_subset(MEMBER, 5), SOFT_SET),
        (lambda: soft_equal(5, MEMBER), SOFT_SET),
        (lambda: soft_equal(MEMBER, 5), SOFT_SET),
        (lambda: support(5), SOFT_SET),
        (lambda: make_soft_function(IDENTITY, {"a": "a"}, 5, MEMBER), SOFT_SET),
        (lambda: make_soft_function(IDENTITY, {"a": "a"}, MEMBER, 5), SOFT_SET),
        (lambda: SoftFunction(5, MEMBER, (0, 1, 2, 3), (0,)), SOFT_SET),
        (lambda: SoftFunction(MEMBER, 5, (0, 1, 2, 3), (0,)), SOFT_SET),
        (lambda: compose_soft_functions(5, FUNCTION), SOFT_FUNCTION),
        (lambda: compose_soft_functions(FUNCTION, 5), SOFT_FUNCTION),
        (lambda: soft_image(5), SOFT_FUNCTION),
        (lambda: soft_preimage(IDENTITY, {"a": "a"}, 5, ("a",)), SOFT_SET),
        (lambda: soft_set_from_relation(5, Z4), "a relation must be of type TernaryRelation, got int"),
        (lambda: soft_set_from_relation(RELATION, 5), STRUCTURE),
        (lambda: is_soft_gamma_homomorphism(IDENTITY, {"a": "a"}, 5, SOFT), SOFT_GAMMA),
        (lambda: is_soft_gamma_homomorphism(IDENTITY, {"a": "a"}, SOFT, 5), SOFT_GAMMA),
        (lambda: ternary_product(5, "0", "1", "0"), STRUCTURE),
        (lambda: sub_gamma_witness(5, ["0"]), STRUCTURE),
        (lambda: is_sub_gamma_semiring(5, ["0"]), STRUCTURE),
        (lambda: check_trivial_whole_theorem(5, MEMBER, "i"), "a homomorphism must be of type GammaHom, got int"),
        (lambda: generate_instance(5), "a spec must be an InstanceSpec, got int"),
        (lambda: sub_gamma_witness_mask(5, 1), STRUCTURE),
        (lambda: files.structure_to_doc(5), STRUCTURE),
        (lambda: files.soft_set_to_doc(5), SOFT_SET),
        (lambda: files.relation_to_doc(5), "a relation must be of type TernaryRelation, got int"),
        (lambda: files.hom_to_doc(5), "a homomorphism must be of type GammaHom, got int"),
        (lambda: files.axiom_report_to_doc(5), "an axiom report must be of type AxiomReport, got int"),
        (lambda: files.witness_to_doc(5), "a witness must be of type Witness, got int"),
        (lambda: files.verdict_to_doc(5), "a verdict must be of type TheoremVerdict, got int"),
    ],
    ids=[
        "soft-gamma-structure", "soft-gamma-soft-set", "soft-gamma-product-soft-set", "trivial-none",
        "whole-str", "soft-image", "soft-preimage", "soft-gamma-semiring-base", "soft-gamma-semiring-soft",
        "soft-sub-structure", "soft-sub-inner", "soft-sub-outer", "soft-subset-first", "soft-subset-second",
        "soft-equal-first", "soft-equal-second", "support", "make-soft-function-source",
        "make-soft-function-target", "soft-function-source", "soft-function-target", "compose-first",
        "compose-second", "soft-image-function", "soft-preimage-target", "relation-relation",
        "relation-structure", "soft-hom-source", "soft-hom-target", "ternary-product", "sub-gamma-witness",
        "is-sub-gamma-semiring", "trivial-whole-hom", "generate-instance", "witness-mask", "structure-doc",
        "soft-set-doc", "relation-doc", "hom-doc", "axiom-report-doc", "witness-doc", "verdict-doc",
    ],
)
def test_a_record_argument_of_the_wrong_type_is_an_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "elements,table,message",
    [("ab", [[0, 1], [1, 0]], "got str"), (5, [[0]], "got int")],
    ids=["str", "int"],
)
def test_a_carrier_that_is_no_collection_is_an_input_error(elements, table, message):
    # a str is refused, not read as its characters
    with pytest.raises(InputError, match=f"^element labels must be a collection, {message}$"):
        check_commutative_semigroup(elements, table)


@pytest.mark.parametrize(
    "family,message",
    [
        (5, "family of soft sets must be a collection, got int"),
        (MEMBER, "family of soft sets must be a collection, got SoftSet"),
        ("ab", "family of soft sets must be a collection, got str"),
        ([MEMBER, 5], "family members must be SoftSets, got int"),
    ],
    ids=["int", "bare-soft-set", "str", "entry-int"],
)
@pytest.mark.parametrize(
    "operation",
    [restricted_intersect, restricted_union, extended_intersect, extended_union, and_intersect_family,
     or_union_family, cartesian_product],
    ids=lambda operation: operation.__name__,
)
def test_a_family_that_is_no_collection_of_soft_sets_is_an_input_error(operation, family, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        operation(family)


@pytest.mark.parametrize("law", ALL_THEOREMS)
def test_an_instance_without_members_is_refused_by_every_law(law):
    with pytest.raises(InputError, match=f"^{re.escape(law)} reads a member, and the instance has none$"):
        check_theorem(law, _instance(soft_sets=[]))


@pytest.mark.parametrize("mask", [1.0, "1", None, True], ids=["float", "str", "none", "bool"])
@pytest.mark.parametrize(
    "judge,size",
    [
        (Z4.labels_of_mask, 4),
        (lambda mask: sub_gamma_witness_mask(Z4, mask), 4),
        (lambda mask: sub_gamma_witness_mask(Z4, mask, 2), 16),
    ],
    ids=["labels-of-mask", "witness-mask", "product-witness-mask"],
)
def test_a_mask_that_is_not_an_int_is_an_input_error(judge, size, mask):
    # a bool is no mask, as in SoftSet
    with pytest.raises(InputError, match=f"^mask {re.escape(repr(mask))} is not a subset of the {size}-element carrier$"):
        judge(mask)
