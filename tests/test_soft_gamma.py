import random

import pytest

from softgamma import (
    DomainError,
    GammaHom,
    InputError,
    SoftGammaSemiring,
    SoftSet,
    Witness,
    check_trivial_whole_theorem,
    enumerate_sub_gamma_semirings,
    gamma_hom,
    identity_hom,
    is_soft_gamma_homomorphism,
    is_soft_gamma_semiring,
    is_soft_sub_gamma_semiring,
    is_trivial_soft,
    is_whole_soft,
    make_zn_gamma,
    relative_null,
    soft_equal,
    soft_image_under_hom,
    soft_preimage_under_hom,
    support,
)
from softgamma import files
from softgamma.algebra import FiniteCommutativeSemigroup, GammaSemiring
from softgamma.harness import _LAWS, Instance, InstanceSpec, check_theorem, fuzz_theorem, generate_instance


def soft_over(gs, params, values):
    return SoftSet.build(gs.elements, params, values)


@pytest.fixture(scope="module")
def mod4():
    source = make_zn_gamma(8, (2,))
    target = make_zn_gamma(4, (2,))
    return gamma_hom(source, target, {str(i): str(i % 4) for i in range(8)})


class TestSoftGammaPredicate:
    def test_z8_relation_example_passes(self, z8, z8_soft):
        assert is_soft_gamma_semiring(z8, z8_soft)

    def test_relation_values_all_appear_in_the_subalgebra_lattice(self, z8, z8_soft):
        subs = {frozenset(t) for t in enumerate_sub_gamma_semirings(z8)}
        for y in support(z8_soft):
            assert frozenset(z8_soft.value(y)) in subs

    def test_null_soft_set_fails_as_null(self, z8):
        w = is_soft_gamma_semiring(z8, relative_null(z8.elements, ("a", "b")))
        assert not w
        assert w.kind == "null-soft-set"

    def test_nonclosed_value_yields_the_additive_witness(self, z8):
        w = is_soft_gamma_semiring(z8, soft_over(z8, ("a",), {"a": ["0", "3"]}))
        assert not w
        assert w.failing_parameter == "a"
        assert w.kind == "add-closure"
        assert w.elements == ("3", "3", "6")

    def test_universe_mismatch_is_an_input_error(self, z8):
        other = SoftSet.build(("x", "y"), ("a",), {"a": ["x"]})
        with pytest.raises(InputError):
            is_soft_gamma_semiring(z8, other)

    def test_empty_values_off_the_support_are_fine(self, z8):
        ss = soft_over(z8, ("a", "b"), {"a": ["0", "4"], "b": []})
        assert is_soft_gamma_semiring(z8, ss)

    def test_validated_wrapper_rejects_bad_soft_sets(self, z8):
        with pytest.raises(DomainError):
            SoftGammaSemiring(z8, soft_over(z8, ("a",), {"a": ["0", "3"]}))
        SoftGammaSemiring(z8, soft_over(z8, ("a",), {"a": ["0", "4"]}))


class TestTrivialWhole:
    def test_all_zero_values_are_trivial(self, z8):
        ss = soft_over(z8, ("a", "b"), {"a": ["0"], "b": ["0"]})
        assert is_trivial_soft(z8, ss)
        assert not is_whole_soft(z8, ss)

    def test_full_values_are_whole(self, z8):
        ss = soft_over(z8, ("a",), {"a": list(z8.elements)})
        assert is_whole_soft(z8, ss)
        assert not is_trivial_soft(z8, ss)

    def test_relation_example_is_neither(self, z8, z8_soft):
        assert not is_trivial_soft(z8, z8_soft)
        assert not is_whole_soft(z8, z8_soft)

    def test_missing_zero_is_an_input_error(self, z8):
        no_zero = GammaSemiring(z8.s, z8.gamma_elements, None, z8.product, zero=None)
        ss = SoftSet.build(no_zero.elements, ("a",), {"a": ["0"]})
        with pytest.raises(InputError):
            is_trivial_soft(no_zero, ss)


class TestHomImagePreimage:
    def test_identity_image_is_a_copy(self, z8, z8_soft):
        out = soft_image_under_hom(identity_hom(z8), z8_soft)
        assert soft_equal(out, z8_soft)

    def test_mod4_collapse_images(self, mod4):
        src = mod4.source
        ss = soft_over(src, ("a", "b"), {"a": ["0", "2", "4", "6"], "b": list(src.elements)})
        out = soft_image_under_hom(mod4, ss)
        assert out.value("a") == ("0", "2")
        assert out.value("b") == ("0", "1", "2", "3")

    def test_constant_zero_hom_collapses_values(self):
        gs = make_zn_gamma(4, (1, 2))
        hom = gamma_hom(gs, gs, {e: "0" for e in gs.elements})
        ss = soft_over(gs, ("a",), {"a": ["1", "3"]})
        assert soft_image_under_hom(hom, ss).value("a") == ("0",)

    def test_surjective_image_of_soft_gamma_semiring_stays_one(self, mod4):
        ss = soft_over(mod4.source, ("a",), {"a": ["0", "4"]})
        verdict = check_theorem("L3.16", Instance(mod4.source, [ss], hom=mod4))
        assert verdict.passes == 1

    def test_image_that_loses_closure_fails_l316(self, z8):
        # shape-valid but no homomorphism: swapping 2 and 3 maps the closed
        # value {0, 2, 4, 6} onto {0, 3, 4, 6}, which is not closed under +
        swap = GammaHom(z8, z8, (0, 1, 3, 2, 4, 5, 6, 7))
        ss = soft_over(z8, ("a",), {"a": ["0", "2", "4", "6"]})
        verdict = check_theorem("L3.16", Instance(z8, [ss], hom=swap))
        assert verdict.failures == 1
        assert verdict.counterexample["operation"] == "hom-image"
        assert verdict.counterexample["violation"]["failing_parameter"] == "a"

    def test_a_dropped_preimage_counterexample_names_the_auxiliary_target_member(self):
        # trial seed 11011's image passes, and the preimage of its auxiliary
        # target member, drawn with arbitrary values, is not closed
        template = InstanceSpec(seed=11011)
        doc = fuzz_theorem("L3.16", 1, template, drop_hypothesis=True).counterexample
        inst = generate_instance(_LAWS["L3.16"].spec(template, drop=True))
        assert doc["operation"] == "hom-preimage"
        assert doc["members"] == [files.soft_set_to_doc(inst.aux_target)]
        # the preimage's member lies over the homomorphism's target
        assert doc["members_over"] == "target"
        assert files.soft_set_from_doc(doc["result"]) == soft_preimage_under_hom(inst.hom, inst.aux_target)

    def test_a_null_member_and_a_null_preimage_leave_l316_vacuous(self):
        # S = {0,1,2} with 1+1 = 1, 2+2 = 2, every other sum 0 and the product
        # equal to +; f fixes 0 and 1 and sends 2 to 0, so it is not onto and
        # the closed target member {2} lies off its image: neither operation
        # has a non-null result to judge
        s = FiniteCommutativeSemigroup(("0", "1", "2"), ((0, 0, 0), (0, 1, 0), (0, 0, 2)))
        gs = GammaSemiring(s, ("g",), None, tuple((row,) for row in s.add_table), zero="0")
        f = gamma_hom(gs, gs, {"0": "0", "1": "1", "2": "0"})
        member = relative_null(gs.elements, ("a",))
        target_member = soft_over(gs, ("y",), {"y": ["2"]})
        inst = Instance(gs, [member], hom=f, aux_target=target_member)
        assert _LAWS["L3.16"].missed(inst) is None
        verdict = check_theorem("L3.16", inst)
        assert (verdict.passes, verdict.vacuous, verdict.failures) == (0, 1, 0)

    def test_identity_preimage_is_a_copy(self, z8, z8_soft):
        assert soft_equal(soft_preimage_under_hom(identity_hom(z8), z8_soft), z8_soft)

    def test_mod4_preimage_of_zero_is_the_kernel(self, mod4):
        ss = soft_over(mod4.target, ("y",), {"y": ["0"]})
        assert soft_preimage_under_hom(mod4, ss).value("y") == ("0", "4")

    def test_preimage_of_value_off_the_image_is_empty(self):
        gs = make_zn_gamma(4, (1, 2))
        hom = gamma_hom(gs, gs, {e: "0" for e in gs.elements})
        ss = soft_over(gs, ("y",), {"y": ["1"]})
        assert soft_preimage_under_hom(hom, ss).value("y") == ()

    def test_surjective_transport_preserves_the_predicate(self, mod4):
        # image direction and preimage direction, over the subalgebra lattice
        for sub in enumerate_sub_gamma_semirings(mod4.source):
            ss = soft_over(mod4.source, ("a",), {"a": list(sub)})
            assert is_soft_gamma_semiring(mod4.target, soft_image_under_hom(mod4, ss))
        for sub in enumerate_sub_gamma_semirings(mod4.target):
            ss = SoftSet.build(mod4.target.elements, ("y",), {"y": list(sub)})
            pre = soft_preimage_under_hom(mod4, ss)
            assert is_soft_gamma_semiring(mod4.source, pre)


class TestTrivialWholeTheorem:
    def test_case_i_kernel_values_give_the_trivial_image(self, mod4):
        ss = soft_over(mod4.source, ("a", "b"), {"a": ["0", "4"], "b": ["0", "4"]})
        verdict = check_trivial_whole_theorem(mod4, ss, "i")
        assert verdict.passes == 1

    def test_case_i_gates_on_kernel_values(self, mod4):
        ss = soft_over(mod4.source, ("a",), {"a": ["0"]})
        assert check_trivial_whole_theorem(mod4, ss, "i").vacuous == 1

    def test_case_ii_whole_maps_to_whole(self, mod4):
        ss = soft_over(mod4.source, ("a",), {"a": list(mod4.source.elements)})
        assert check_trivial_whole_theorem(mod4, ss, "ii").passes == 1

    def test_case_iii_carrier_image_pulls_back_to_whole(self, mod4):
        ss = SoftSet.build(
            mod4.target.elements, ("y",), {"y": list(mod4.target.elements)}
        )
        assert check_trivial_whole_theorem(mod4, ss, "iii").passes == 1

    def test_case_iv_injective_trivial_pulls_back_to_trivial(self, z8):
        hom = identity_hom(z8)
        ss = soft_over(z8, ("y",), {"y": ["0"]})
        assert check_trivial_whole_theorem(hom, ss, "iv").passes == 1

    def test_case_iv_gates_on_injectivity(self, mod4):
        ss = SoftSet.build(mod4.target.elements, ("y",), {"y": ["0"]})
        assert check_trivial_whole_theorem(mod4, ss, "iv").vacuous == 1

    @pytest.mark.parametrize("case", ["i", "ii", "iii", "iv"])
    def test_gates_are_the_same_with_the_hypothesis_dropped(self, z8, case):
        # no zero anywhere: a null member is vacuous, and the trivial cases i
        # and iv have no zero to judge their result by
        no_zero = GammaSemiring(z8.s, z8.gamma_elements, None, z8.product, zero=None)
        hom = identity_hom(no_zero)
        null = soft_over(no_zero, ("a",), {"a": []})
        trivial_shaped = soft_over(no_zero, ("a",), {"a": ["0"]})
        law = _LAWS[f"T3.17{case}"]
        for ss in [null] + ([trivial_shaped] if case in ("i", "iv") else []):
            assert law.evaluate(Instance(no_zero, [ss], hom=hom)) == ("vacuous", None)

    def test_wrong_side_universe_is_an_input_error(self, mod4):
        source_side = soft_over(mod4.source, ("a",), {"a": ["0"]})
        with pytest.raises(InputError):
            check_trivial_whole_theorem(mod4, source_side, "iii")

    def test_unknown_case_is_an_input_error(self, mod4):
        ss = soft_over(mod4.source, ("a",), {"a": ["0"]})
        with pytest.raises(InputError, match="unknown theorem id 'T3.17v'"):
            check_trivial_whole_theorem(mod4, ss, "v")

    def test_case_iv_failure_is_the_harness_document(self, z8):
        # swapping 0 and 1 is injective but no homomorphism: the preimage of
        # the trivial value {0} is {1}
        swap = GammaHom(z8, z8, (1, 0, 2, 3, 4, 5, 6, 7))
        ss = soft_over(z8, ("y",), {"y": ["0"]})
        verdict = check_trivial_whole_theorem(swap, ss, "iv")
        assert verdict.failures == 1
        doc = verdict.counterexample
        assert doc["operation"] == "hom-preimage"
        assert doc["result"] == files.soft_set_to_doc(soft_over(z8, ("y",), {"y": ["1"]}))
        assert "violation" not in doc
        assert doc["members"] == [files.soft_set_to_doc(ss)]
        assert doc["hom"] == files.hom_to_doc(swap)
        assert doc["structure"] == files.structure_to_doc(z8, name="custom")
        assert doc["members_over"] == "target"

    @pytest.mark.parametrize("case", ["i", "ii", "iii", "iv"])
    def test_wrapper_equals_check_theorem_on_the_wrapped_instance(self, z8, case):
        swap = GammaHom(z8, z8, (1, 0, 2, 3, 4, 5, 6, 7))
        for hom in (swap, identity_hom(z8)):
            for values in (["0"], list(z8.elements), ["0", "4"]):
                ss = soft_over(z8, ("y",), {"y": values})
                spec = InstanceSpec(target_side=case in ("iii", "iv"))
                assert check_trivial_whole_theorem(hom, ss, case) == check_theorem(
                    f"T3.17{case}", Instance(z8, [ss], hom=hom, spec=spec)
                )

    @pytest.mark.parametrize("case", ["i", "ii", "iii", "iv"])
    def test_counts_match_check_theorem_on_generated_instances(self, case):
        # odd seeds drop the hypothesis policies, so vacuous verdicts occur too
        law = _LAWS[f"T3.17{case}"]
        counts = {"wrapper": [0, 0, 0], "harness": [0, 0, 0]}
        for seed in range(50):
            inst = generate_instance(law.spec(InstanceSpec(seed=seed), drop=seed % 2 == 1))
            for key, verdict in (
                ("wrapper", check_trivial_whole_theorem(inst.hom, inst.soft_sets[0], case)),
                ("harness", check_theorem(f"T3.17{case}", inst)),
            ):
                tally = counts[key]
                tally[0] += verdict.passes
                tally[1] += verdict.vacuous
                tally[2] += verdict.failures
        assert counts["wrapper"] == counts["harness"]
        assert sum(counts["harness"]) == 50


class TestSoftSubRelation:
    def test_reflexive(self, z8, z8_soft):
        assert is_soft_sub_gamma_semiring(z8, z8_soft, z8_soft)

    def test_nested_values_inside_the_relation_example(self, z8, z8_soft):
        inner = soft_over(
            z8, z8_soft.parameters, {y: ["0", "4"] for y in z8_soft.parameters}
        )
        assert is_soft_sub_gamma_semiring(z8, inner, z8_soft)

    def test_parameter_escape_fails(self, z8):
        inner = soft_over(z8, ("a", "q"), {"a": ["0"], "q": ["0"]})
        outer = soft_over(z8, ("a",), {"a": list(z8.elements)})
        w = is_soft_sub_gamma_semiring(z8, inner, outer)
        assert not w
        assert w.kind == "parameter-not-contained"
        assert w.failing_parameter == "q"

    def test_value_escape_fails(self, z8):
        inner = soft_over(z8, ("a",), {"a": ["0", "2", "4", "6"]})
        outer = soft_over(z8, ("a",), {"a": ["0", "4"]})
        w = is_soft_sub_gamma_semiring(z8, inner, outer)
        assert not w
        assert w.kind == "value-not-contained"

    def test_non_soft_gamma_semiring_inputs_are_precondition_errors(self, z8):
        good = soft_over(z8, ("a",), {"a": ["0", "4"]})
        bad = soft_over(z8, ("a",), {"a": ["0", "3"]})
        with pytest.raises(DomainError):
            is_soft_sub_gamma_semiring(z8, bad, good)
        with pytest.raises(DomainError):
            is_soft_sub_gamma_semiring(z8, good, bad)

    def test_transitive_on_random_nested_triples(self, z8):
        rng = random.Random(7)
        subs = [set(t) for t in enumerate_sub_gamma_semirings(z8)]
        params = ("a", "b", "c")
        for _ in range(100):
            chain = sorted(rng.choices(subs, k=3), key=len)
            inner, middle, outer = (
                soft_over(z8, params, {p: sorted(v) for p in params})
                for v in chain
            )
            if is_soft_sub_gamma_semiring(z8, inner, middle) and is_soft_sub_gamma_semiring(
                z8, middle, outer
            ):
                assert is_soft_sub_gamma_semiring(z8, inner, outer)


class TestSoftGammaHomomorphism:
    def test_identity_pair(self, z8, z8_soft):
        sgs = SoftGammaSemiring(z8, z8_soft)
        w = is_soft_gamma_homomorphism(
            {e: e for e in z8.elements},
            {y: y for y in z8_soft.parameters},
            sgs,
            sgs,
        )
        assert w

    def test_collapse_with_pointwise_image_target(self, mod4):
        src_soft = soft_over(
            mod4.source, ("a", "b"), {"a": ["0", "2", "4", "6"], "b": ["0", "4"]}
        )
        f = mod4.as_label_map()
        target_soft = SoftSet.build(
            mod4.target.elements,
            ("a", "b"),
            {"a": ["0", "2"], "b": ["0"]},
        )
        w = is_soft_gamma_homomorphism(
            f,
            {"a": "a", "b": "b"},
            SoftGammaSemiring(mod4.source, src_soft),
            SoftGammaSemiring(mod4.target, target_soft),
        )
        assert w

    @pytest.mark.parametrize(
        "case, target_gamma, f, elements",
        [
            ("gamma-mismatch", (1,), {str(i): str(i) for i in range(4)}, ("gamma-mismatch",)),
            ("not-a-homomorphism", (1, 2), {str(i): str((i + 1) % 4) for i in range(4)}, ()),
            ("undefined", (1, 2), {str(i): str(i) for i in range(3)}, ()),
            ("not-surjective", (1, 2), {str(i): "0" for i in range(4)}, ("not-surjective",)),
        ],
    )
    def test_carrier_map_failures_carry_their_exact_witness(self, case, target_gamma, f, elements):
        gs = make_zn_gamma(4, (1, 2))
        source = SoftGammaSemiring(gs, soft_over(gs, ("a",), {"a": ["0"]}))
        tgs = make_zn_gamma(4, target_gamma)
        target = SoftGammaSemiring(tgs, soft_over(tgs, ("a",), {"a": ["0"]}))
        w = is_soft_gamma_homomorphism(f, {"a": "a"}, source, target)
        assert w == Witness(False, kind="epimorphism", elements=elements)

    @pytest.fixture
    def z4_identity(self):
        gs = make_zn_gamma(4, (1, 2))
        return SoftGammaSemiring(gs, soft_over(gs, ("a",), {"a": ["0"]}))

    def test_a_carrier_map_that_is_not_a_mapping_fails_the_first_clause(self, z4_identity):
        w = is_soft_gamma_homomorphism(5, {"a": "a"}, z4_identity, z4_identity)
        assert w == Witness(False, kind="epimorphism")

    def test_a_parameter_map_that_is_not_a_mapping_fails_the_second_clause(self, z4_identity):
        f = {e: e for e in z4_identity.base.elements}
        w = is_soft_gamma_homomorphism(f, 5, z4_identity, z4_identity)
        assert w == Witness(False, kind="parameter-surjection")

    def test_an_unhashable_parameter_image_fails_the_second_clause(self, z4_identity):
        f = {e: e for e in z4_identity.base.elements}
        w = is_soft_gamma_homomorphism(f, {"a": ["a"]}, z4_identity, z4_identity)
        assert w == Witness(False, kind="parameter-surjection", failing_parameter="a")

    def test_has_param_is_false_for_an_unhashable_label(self, z4_identity):
        assert not z4_identity.soft.has_param(["a"])

    def test_parameter_map_must_be_onto(self, z8):
        soft_a = soft_over(z8, ("a", "b"), {"a": ["0"], "b": ["0"]})
        soft_b = soft_over(z8, ("a", "b"), {"a": ["0"], "b": ["0"]})
        w = is_soft_gamma_homomorphism(
            {e: e for e in z8.elements},
            {"a": "a", "b": "a"},
            SoftGammaSemiring(z8, soft_a),
            SoftGammaSemiring(z8, soft_b),
        )
        assert not w
        assert w.kind == "parameter-surjection"

    def test_value_mismatch_fails_the_third_clause(self, z8):
        soft_a = soft_over(z8, ("a",), {"a": ["0", "4"]})
        soft_b = soft_over(z8, ("a",), {"a": ["0"]})
        w = is_soft_gamma_homomorphism(
            {e: e for e in z8.elements},
            {"a": "a"},
            SoftGammaSemiring(z8, soft_a),
            SoftGammaSemiring(z8, soft_b),
        )
        assert not w
        assert w.kind == "value-compatibility"
