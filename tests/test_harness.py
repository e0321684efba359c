import json
import sys

import pytest

from softgamma import (
    GenerationError,
    InputError,
    Instance,
    InstanceSpec,
    SoftSet,
    check_theorem,
    fuzz_theorem,
    generate_instance,
    identity_hom,
    is_soft_gamma_semiring,
)
from softgamma import SizeLimitError, files, generators, make_matrix_gamma, make_zn_gamma
from softgamma.algebra import is_sub_gamma_semiring
from softgamma.harness import (
    _LAWS,
    _OPS,
    ALL_THEOREMS,
    NECESSITY_TEMPLATES,
    _check_spec,
    _descriptor_name,
    base_structure,
    canonical_hom,
)
from softgamma.soft_sets import cartesian_product, restricted_union

Z8_TEMPLATE = InstanceSpec(generator="zn", size=(8,), gamma=(2, 4, 6), seed=0)
Z4_TEMPLATE = InstanceSpec(generator="zn", size=(4,), gamma=(0, 1, 2, 3), seed=1)


class TestGeneration:
    def test_same_seed_gives_the_same_instance(self):
        spec = InstanceSpec(generator="mix", seed=421, family_size=3)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert a.descriptor == b.descriptor
        assert [(m.parameters, m.masks) for m in a.soft_sets] == [
            (m.parameters, m.masks) for m in b.soft_sets
        ]

    def test_different_seeds_differ_somewhere(self):
        docs = set()
        for seed in range(8):
            inst = generate_instance(InstanceSpec(generator="zn", size=(4,), gamma=(1,), seed=seed, family_size=2))
            docs.add(json.dumps([(m.parameters, m.masks) for m in inst.soft_sets], default=str))
        assert len(docs) > 1

    def test_values_come_from_the_subalgebra_lattice(self):
        inst = generate_instance(InstanceSpec(generator="zn", size=(4,), gamma=(0, 1, 2, 3), seed=1, family_size=2))
        allowed = {0, *inst.gs.sub_masks}
        for member in inst.soft_sets:
            for m in member.masks:
                assert m in allowed

    def test_chain_policy_orders_all_values(self):
        spec = InstanceSpec(
            generator="zn", size=(8,), gamma=(2, 4, 6), seed=3, family_size=3, chain="members"
        )
        inst = generate_instance(spec)
        values = [m for member in inst.soft_sets for m in member.masks]
        for x in values:
            for y in values:
                assert x & ~y == 0 or y & ~x == 0

    def test_disjoint_policy_separates_parameter_sets(self):
        spec = InstanceSpec(generator="minmax", size=(4,), gamma=(1, 2), seed=5, family_size=3, disjoint=True)
        inst = generate_instance(spec)
        seen = set()
        for member in inst.soft_sets:
            params = set(member.parameters)
            assert not params & seen
            seen |= params

    def test_nested_policy_keeps_members_inside_the_outer(self):
        spec = InstanceSpec(generator="zn", size=(8,), gamma=(2, 4, 6), seed=9, family_size=2, nested="confined")
        inst = generate_instance(spec)
        assert inst.outer is not None
        for member in inst.soft_sets:
            for w in member.parameters:
                assert inst.outer.has_param(w)
                assert member.mask(w) & ~inst.outer.mask(w) == 0

    def test_bad_specs_are_rejected(self):
        with pytest.raises(InputError):
            generate_instance(InstanceSpec(family_size=0))
        with pytest.raises(InputError):
            generate_instance(InstanceSpec(value_policy="nonsense"))
        with pytest.raises(InputError):
            generate_instance(InstanceSpec(generator="nonsense"))

    @staticmethod
    def _expected_forced_mask(policy, inst):
        # built from the homomorphism's position map, not from the harness
        hom = inst.hom
        target_zero = hom.target.s.pos(hom.target.zero)
        if policy == "kernel":
            return sum(1 << i for i, t in enumerate(hom.mapping) if t == target_zero)
        if policy == "whole":
            return (1 << hom.source.size) - 1
        if policy == "carrier-image":
            return sum(1 << t for t in set(hom.mapping))
        return 1 << target_zero  # trivial

    @pytest.mark.parametrize(
        "law_id, policy",
        [("T3.17i", "kernel"), ("T3.17ii", "whole"), ("T3.17iii", "carrier-image"), ("T3.17iv", "trivial")],
    )
    def test_forced_value_policies_give_every_value_the_forced_mask(self, law_id, policy):
        law = _LAWS[law_id]
        assert law.spec(InstanceSpec(), drop=False).value_policy == policy
        for seed in range(12):
            spec = law.spec(InstanceSpec(seed=seed), drop=False)
            inst = generate_instance(spec)
            side = inst.hom.target if spec.target_side else inst.hom.source
            expected = self._expected_forced_mask(policy, inst)
            assert inst.soft_sets
            for member in inst.soft_sets:
                assert member.universe == side.elements
                assert member.masks and all(m == expected for m in member.masks), (seed, member)

    @pytest.mark.parametrize("policy", ["kernel", "carrier-image"])
    def test_hom_value_policies_without_a_hom_are_a_generation_error(self, policy):
        # a fault of the spec, found before any draw
        spec = InstanceSpec(value_policy=policy, seed=3)
        for run in (lambda: _check_spec(spec), lambda: generate_instance(spec), lambda: fuzz_theorem("T3.4", 3, spec)):
            with pytest.raises(GenerationError, match=f"^{policy} value policy requires a homomorphism$"):
                run()

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "1", None])
    def test_a_seed_that_is_not_an_int_of_at_least_0_is_refused(self, seed):
        # random.Random(-s) draws what random.Random(s) draws, so a negative
        # seed would judge one instance twice
        spec = InstanceSpec(seed=seed)
        for run in (lambda: generate_instance(spec), lambda: fuzz_theorem("T3.4", 3, spec)):
            with pytest.raises(InputError, match="^seed must be an integer of at least 0"):
                run()

    def test_draws_from_more_than_4096_subalgebras_are_refused(self):
        # minmax 14 with gamma {0} has 8192; minmax 13 has 4096 and is drawn from
        inst = generate_instance(InstanceSpec(generator="minmax", size=(13,), gamma=(0,), seed=1))
        values = [m for member in inst.soft_sets for m in member.masks]
        assert all(m == 0 or is_sub_gamma_semiring(inst.gs, inst.gs.labels_of_mask(m)) for m in values)
        with pytest.raises(SizeLimitError, match="^more than 4096 sub gamma-semirings"):
            generate_instance(InstanceSpec(generator="minmax", size=(14,), gamma=(0,), seed=1))

    @pytest.mark.parametrize("policy", ["arbitrary", "whole"])
    def test_draws_that_read_no_subalgebra_list_are_not_bounded_by_it(self, policy):
        # minmax 14 with gamma {0} has 8192 subalgebras, but an arbitrary value
        # is any subset and a whole value the carrier, so neither list is read
        inst = generate_instance(InstanceSpec(generator="minmax", size=(14,), gamma=(0,), value_policy=policy, seed=1))
        assert "sub_masks" not in inst.gs.__dict__
        if policy == "whole":
            assert {m for member in inst.soft_sets for m in member.masks} == {inst.gs.full_mask}
        # a chain is drawn from the list whatever the policy
        with pytest.raises(SizeLimitError, match="^more than 4096 sub gamma-semirings"):
            generate_instance(InstanceSpec(generator="minmax", size=(14,), gamma=(0,), value_policy=policy, chain="members"))

    def test_target_side_without_a_hom_is_a_generation_error(self):
        with pytest.raises(GenerationError):
            generate_instance(InstanceSpec(target_side=True, seed=3))

    def test_a_forced_mask_off_the_target_carrier_is_refused_by_both_paths(self):
        # the kernel is a source mask and the carrier image a target mask; the
        # zn 8 collapse's kernel does not fit its target carrier, the minmax 5
        # clamp's kernel {0} does, and both carrier images fit their sources
        cases = [
            (dict(target_side=True, value_policy="kernel"), "kernel value policy gives source values"),
            (dict(value_policy="carrier-image"), "carrier-image value policy gives target values"),
        ]
        families = [dict(generator="zn", size=(8,), gamma=(2,)), dict(generator="minmax", size=(5,), gamma=(1, 2, 3))]
        for family in families:
            for policy, message in cases:
                spec = InstanceSpec(**family, **policy, hom="collapse")
                for run in (lambda: generate_instance(spec), lambda: fuzz_theorem("T3.4", 3, spec)):
                    with pytest.raises(InputError, match=message):
                        run()


class TestSpecReplace:
    def test_replace_is_the_spec_built_with_the_changes(self):
        spec = InstanceSpec(generator="zn", size=(8,), gamma=(2,), chain="members", seed=5)
        copy = spec.replace(seed=6, disjoint=True)
        assert copy == InstanceSpec(generator="zn", size=(8,), gamma=(2,), chain="members", disjoint=True, seed=6)
        assert type(copy) is InstanceSpec and hash(copy) == hash(copy.replace())
        assert spec.seed == 5 and not spec.disjoint
        assert spec.replace() == spec and spec.replace() is not spec

    def test_an_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="InstanceSpec has no field 'sed'"):
            InstanceSpec().replace(seed=1, sed=2)

    def test_a_subclass_copies_to_its_own_class(self):
        sub = type("Sub", (InstanceSpec,), {})
        assert type(sub(seed=1).replace(seed=2)) is sub


# the templates the trial loop is checked on: the mix generator and the four
# pinned necessity families
LOOP_TEMPLATES = {
    "mix": InstanceSpec(seed=9100),
    "zn8": Z8_TEMPLATE.replace(seed=9200),
    "zn6": InstanceSpec(generator="zn", size=(6,), gamma=(1,), seed=9300),
    "minmax5": InstanceSpec(generator="minmax", size=(5,), gamma=(1, 2, 3), seed=9400),
    "matrix": InstanceSpec(generator="matrix", size=(2, 1, 2), seed=9500),
}


class TestTrialLoop:
    """fuzz_theorem checks its spec once and only draws per trial; every
    trial's instance must still be the public generator's."""

    @pytest.mark.parametrize("template", LOOP_TEMPLATES)
    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("tid", ALL_THEOREMS)
    def test_each_trial_evaluates_the_instance_generate_instance_builds(self, monkeypatch, tid, drop, template):
        law, template = _LAWS[tid], LOOP_TEMPLATES[template]
        seen = []
        evaluate = type(law).evaluate

        def recording(self, inst):
            seen.append(inst)
            return evaluate(self, inst)

        monkeypatch.setattr(type(law), "evaluate", recording)
        trials = 12
        fuzz_theorem(tid, trials, template, drop_hypothesis=drop)
        assert len(seen) == trials
        for t, inst in enumerate(seen):
            spec = law.spec(template, drop).replace(seed=template.seed + t)
            expected = generate_instance(spec)
            assert type(inst.spec) is InstanceSpec and inst.spec == spec and hash(inst.spec) == hash(spec)
            assert inst.descriptor == expected.descriptor
            assert inst.gs is expected.gs
            assert inst.soft_sets == expected.soft_sets
            assert inst.outer == expected.outer
            assert inst.hom == expected.hom
            assert inst.aux_target == expected.aux_target
            for ss in filter(None, [*inst.soft_sets, inst.outer, inst.aux_target]):
                assert type(ss.parameters) is tuple and type(ss.masks) is tuple
                assert all(type(m) is int for m in ss.masks)
                # the unchecked parts pass the public constructor's checks
                assert SoftSet(ss.universe, ss.parameters, ss.masks) == ss


class TestCheckTheorem:
    def test_unknown_id_is_an_input_error(self):
        inst = generate_instance(Z8_TEMPLATE)
        with pytest.raises(InputError):
            check_theorem("T9.9", inst)

    def test_an_unhashable_id_is_an_input_error(self):
        inst = generate_instance(Z8_TEMPLATE)
        with pytest.raises(InputError, match=r"^unknown theorem id \{'a'\}$"):
            check_theorem({"a"}, inst)
        with pytest.raises(InputError, match=r"^unknown theorem id \['T3\.7'\]$"):
            fuzz_theorem(["T3.7"], 3)

    @pytest.mark.parametrize("tid", ALL_THEOREMS)
    def test_an_instance_without_members_is_an_input_error(self, tid, z8):
        outer = SoftSet.build(z8.elements, ("a",), {"a": ["0"]})
        inst = Instance(gs=z8, soft_sets=[], outer=outer, hom=identity_hom(z8))
        with pytest.raises(InputError):
            check_theorem(tid, inst)

    def test_intersection_of_shared_parameter_soft_gamma_semirings_passes(self, z8):
        a = SoftSet.build(z8.elements, ("a", "b"), {"a": ["0", "4"], "b": list(z8.elements)})
        b = SoftSet.build(z8.elements, ("a", "b"), {"a": ["0", "2", "4", "6"], "b": ["0", "4"]})
        inst = Instance(gs=z8, soft_sets=[a, b])
        verdict = check_theorem("T3.4", inst)
        assert verdict.passes == 1 and verdict.counterexample is None

    def test_restricted_union_on_the_hand_built_nonclosed_instance_misses_values(self, z8):
        # {0,2} is no subalgebra of Z8 (2+2=4), so the instance misses T3.8's
        # values hypothesis, the first it names, and the law is not judged
        a = SoftSet.build(z8.elements, ("a",), {"a": ["0", "2"]})
        b = SoftSet.build(z8.elements, ("a",), {"a": ["0", "4"]})
        inst = Instance(gs=z8, soft_sets=[a, b])
        assert _LAWS["T3.8"].missed(inst) == "values"
        verdict = check_theorem("T3.8", inst)
        assert (verdict.vacuous, verdict.counterexample) == (1, None)

    def test_disjoint_parameter_gate_makes_t39_vacuous(self, z8):
        a = SoftSet.build(z8.elements, ("a",), {"a": ["0", "4"]})
        b = SoftSet.build(z8.elements, ("a",), {"a": ["0", "4"]})
        inst = Instance(gs=z8, soft_sets=[a, b])
        assert check_theorem("T3.9", inst).vacuous == 1

    def test_restricted_ops_with_disjoint_parameters_are_vacuous(self, z8):
        a = SoftSet.build(z8.elements, ("a",), {"a": ["0", "4"]})
        b = SoftSet.build(z8.elements, ("b",), {"b": ["0", "4"]})
        inst = Instance(gs=z8, soft_sets=[a, b])
        assert check_theorem("T3.4", inst).vacuous == 1

    @pytest.mark.parametrize(
        "values, outer, outcome",
        [
            # the members {0,3} are not closed: the instance misses values
            ((["0", "3"], ["0", "3"]), None, "vacuous"),
            # the result {0,4} is closed, the member bound {0,3,4} is not
            ((["0", "4"], ["0", "3", "4"]), None, "vacuous"),
            ((["0", "4"], ["0", "4"]), None, "pass"),
            # the outer value {0} misses the members' 4: the instance misses nested
            ((["0", "4"], ["0", "4"]), ["0"], "vacuous"),
        ],
    )
    def test_containment_conclusions_need_two_soft_gamma_semirings(self, z8, values, outer, outcome):
        a, b = (SoftSet.build(z8.elements, ("a",), {"a": v}) for v in values)
        if outer is None:
            verdict = check_theorem("T4.3", Instance(gs=z8, soft_sets=[a, b]))
        else:
            bound = SoftSet.build(z8.elements, ("a",), {"a": outer})
            verdict = check_theorem("T4.4", Instance(gs=z8, soft_sets=[a, b], outer=bound))
        assert (verdict.passes, verdict.vacuous, verdict.failures) == (
            outcome == "pass",
            outcome == "vacuous",
            outcome == "fail",
        )
        if outer is not None:
            assert _LAWS["T4.4"].missed(Instance(gs=z8, soft_sets=[a, b], outer=bound)) == "nested"

    @pytest.mark.parametrize("law_id", ["T4.7", "T4.8"])
    def test_an_unclosed_result_under_closed_bounds_fails_with_its_closure_witness(self, law_id):
        # on Z6 the closed values {0,3} and {0,2,4} unite to {0,2,3,4}, where
        # 2 + 3 = 5 is missing; the whole outer, and its union with itself, are closed
        z6 = make_zn_gamma(6, (1,))
        members = [SoftSet.build(z6.elements, ("a",), {"a": v}) for v in (["0", "3"], ["0", "2", "4"])]
        outer = SoftSet.build(z6.elements, ("a",), {"a": z6.elements})
        outcome, deferred = _LAWS[law_id].evaluate(Instance(gs=z6, soft_sets=members, outer=outer))
        assert outcome == "fail"
        doc = deferred()
        assert doc["operation"] == _LAWS[law_id].operation
        result = files.soft_set_from_doc(doc["result"])
        assert [set(result.value(w)) for w in result.parameters] == [{"0", "2", "3", "4"}]
        assert (doc["violation"]["kind"], doc["violation"]["elements"]) == ("add-closure", ["2", "3", "5"])

    def test_an_unclosed_bound_is_vacuous_before_the_result_is_judged(self):
        z6 = make_zn_gamma(6, (1,))
        members = [SoftSet.build(z6.elements, ("a",), {"a": v}) for v in (["0", "3"], ["0", "2", "4"])]
        outer = SoftSet.build(z6.elements, ("a",), {"a": ["0", "2", "3", "4"]})
        assert _LAWS["T4.7"].evaluate(Instance(gs=z6, soft_sets=members, outer=outer)) == ("vacuous", None)

    def test_an_outer_off_the_operation_side_is_an_input_error_before_closure_is_judged(self):
        # T4.11 images the outer through the homomorphism before judging the
        # image of the member, which here is not closed ({0,3} + {0,3} holds 2)
        hom = canonical_hom(("zn", 8, (2,)))
        member = SoftSet.build(hom.source.elements, ("a",), {"a": ["0", "3"]})
        outer = SoftSet.build(hom.target.elements, ("a",), {"a": ["0"]})
        with pytest.raises(InputError, match="universe must equal the structure carrier"):
            check_theorem("T4.11", Instance(gs=hom.source, soft_sets=[member], outer=outer, hom=hom))

    @pytest.mark.parametrize("law_id", ALL_THEOREMS)
    def test_a_missing_homomorphism_or_outer_is_an_input_error_naming_it(self, z8, law_id):
        member = SoftSet.build(z8.elements, ("a",), {"a": ["0", "4"]})
        inst = Instance(gs=z8, soft_sets=[member, member])
        law = _LAWS[law_id]
        if law.flags.get("hom"):
            missing = "a homomorphism"
        elif law.conclusion in ("outer", "outer-op"):
            missing = "an enclosing soft set"
        else:
            assert check_theorem(law_id, inst).trials == 1
            return
        with pytest.raises(InputError, match=f"^{law_id} reads {missing}, and the instance has none$"):
            check_theorem(law_id, inst)

    @pytest.mark.parametrize("law_id", ["T3.13", "T4.10"])
    def test_a_product_law_refuses_a_product_above_the_size_limit(self, law_id):
        # three 27-element members: the 27**3-element cube is refused, never scanned
        gs = make_matrix_gamma(3, 1, 3)
        zero = SoftSet(gs.elements, ("a",), (1,))
        with pytest.raises(SizeLimitError, match="^product carrier would have 19683 elements, above 4096$"):
            check_theorem(law_id, Instance(gs, [zero] * 3, outer=zero))

    def test_accounting_always_balances(self):
        for tid in ALL_THEOREMS:
            v = fuzz_theorem(tid, 30, Z8_TEMPLATE)
            assert v.passes + v.vacuous + v.failures == v.trials == 30


class TestFuzzing:
    def test_enforced_runs_find_no_counterexamples(self):
        for tid in ("T3.7", "T3.8", "T4.8", "T4.10", "L3.16"):
            v = fuzz_theorem(tid, 120, InstanceSpec(seed=17))
            assert v.failures == 0, tid
            assert v.passes > 0, tid

    def test_dropping_the_chain_hypothesis_breaks_restricted_union(self):
        v = fuzz_theorem("T3.8", 200, Z8_TEMPLATE, drop_hypothesis=True)
        assert v.failures >= 1
        # the counterexample is the lowest failing trial's
        first = v.counterexample["trial"]
        assert fuzz_theorem("T3.8", first, Z8_TEMPLATE, drop_hypothesis=True).failures == 0
        assert v.counterexample == fuzz_theorem(
            "T3.8", 1, Z8_TEMPLATE.replace(seed=first), drop_hypothesis=True
        ).counterexample | {"trial": first}

    def test_drop_hypothesis_runs_are_deterministic(self):
        a = fuzz_theorem("T3.8", 100, Z8_TEMPLATE, drop_hypothesis=True)
        b = fuzz_theorem("T3.8", 100, Z8_TEMPLATE, drop_hypothesis=True)
        assert files.dumps(files.verdict_to_doc(a)) == files.dumps(files.verdict_to_doc(b))

    def test_enforced_runs_are_deterministic(self):
        a = fuzz_theorem("T4.7", 60, InstanceSpec(seed=5))
        b = fuzz_theorem("T4.7", 60, InstanceSpec(seed=5))
        assert files.dumps(files.verdict_to_doc(a)) == files.dumps(files.verdict_to_doc(b))

    def test_trials_below_one_are_rejected(self):
        with pytest.raises(InputError):
            fuzz_theorem("T3.7", 0)


def _verdict_bytes(verdict) -> str:
    return files.dumps(files.verdict_to_doc(verdict))


class TestStructureCaches:
    @pytest.mark.parametrize("drop", [False, True], ids=["enforced", "dropped"])
    @pytest.mark.parametrize("tid", ["T3.13", "T4.10"])
    def test_product_laws_build_no_product_table(self, monkeypatch, tid, drop):
        def refuse(*args, **kwargs):
            raise AssertionError("a product table was built")

        # fresh structures, so that no verdict is read from an earlier test's memo
        base_structure.cache_clear()
        canonical_hom.cache_clear()
        original = generators.product_gamma
        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.partition(".")[0] != "softgamma":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch.setattr(module, attr, refuse)
            patched = fuzz_theorem(tid, 100, drop_hypothesis=drop)
        plain = fuzz_theorem(tid, 100, drop_hypothesis=drop)
        assert _verdict_bytes(patched) == _verdict_bytes(plain)

    def test_the_structure_memo_holds_one_entry_per_product_mask_checked(self):
        template = InstanceSpec(generator="zn", size=(4,), gamma=(1, 3))
        law = _LAWS["T3.13"]
        base_structure.cache_clear()
        verdict = fuzz_theorem("T3.13", 100, template)
        assert verdict.passes > 0 and verdict.failures == 0
        # every nonzero value of a non-null result is judged over the square
        checked = set()
        for seed in range(100):
            inst = generate_instance(law.spec(template, False).replace(seed=seed))
            checked |= {(2, m) for m in cartesian_product(inst.soft_sets).masks if m}
        assert set(base_structure(("zn", 4, (1, 3)))._closed_memo) == checked

    @pytest.mark.parametrize(
        "gamma,n,canonical", [((2, 2), 4, (2,)), ((6, 4, 2), 8, (2, 4, 6))]
    )
    def test_a_pinned_gamma_names_the_structure_the_generator_builds(self, gamma, n, canonical):
        # ascending without repeats, so equal structures share one cache entry and one name
        inst = generate_instance(InstanceSpec(generator="zn", size=(n,), gamma=gamma))
        assert inst.descriptor == ("zn", n, canonical)
        assert inst.gs.gamma_elements == tuple(map(str, canonical))
        assert inst.gs is base_structure(("zn", n, canonical))
        assert _descriptor_name(inst.descriptor) == f"zn-{n}-" + ",".join(map(str, canonical))

    def test_identity_homomorphisms_are_not_cached(self):
        canonical_hom.cache_clear()
        verdict = fuzz_theorem("T3.17iv", 20, InstanceSpec(seed=3))
        assert verdict.trials == 20
        assert canonical_hom.cache_info().currsize == 0

    @pytest.mark.parametrize("cache", [base_structure, canonical_hom])
    def test_every_cache_is_bounded(self, cache):
        maxsize = cache.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


class TestCounterexampleReplay:
    def test_t38_counterexample_replays_through_the_public_operations(self):
        v = fuzz_theorem("T3.8", 300, Z8_TEMPLATE, drop_hypothesis=True)
        doc = v.counterexample
        assert doc is not None
        gs = files.structure_from_doc(doc["structure"])
        members = [files.soft_set_from_doc(m) for m in doc["members"]]
        result = restricted_union(members)
        recorded = files.soft_set_from_doc(doc["result"])
        assert result.parameters == recorded.parameters
        assert result.masks == recorded.masks
        violation = doc["violation"]
        assert violation["kind"] in ("add-closure", "product-closure")
        param = files.label_from_jsonable(violation["failing_parameter"])
        value = set(result.value(param))
        elems = [files.label_from_jsonable(e) for e in violation["elements"]]
        if violation["kind"] == "add-closure":
            a, b, escaped = elems
            assert a in value and b in value
            assert gs.s.add(a, b) == escaped
            assert escaped not in value
        else:
            a, g, b, escaped = elems
            from softgamma import ternary_product

            assert a in value and b in value
            assert ternary_product(gs, a, g, b) == escaped
            assert escaped not in value
        # independent closure re-check of the violated value
        assert not is_sub_gamma_semiring(gs, value)

    def test_counterexample_soft_sets_fail_the_public_predicate(self):
        v = fuzz_theorem("T3.7", 300, Z8_TEMPLATE, drop_hypothesis=True)
        doc = v.counterexample
        assert doc is not None
        gs = files.structure_from_doc(doc["structure"])
        result = files.soft_set_from_doc(doc["result"])
        assert not is_soft_gamma_semiring(gs, result)

    @pytest.mark.parametrize("tid", ALL_THEOREMS)
    def test_every_dropped_counterexample_names_an_operation_that_reruns(self, tid):
        # a counterexample names an operation of _OPS, else its row's own
        # (the first member itself); an _OPS one, re-run on the dumped
        # members, gives the dumped result
        law = _LAWS[tid]
        docs = [
            fuzz_theorem(tid, 50, template, drop_hypothesis=True).counterexample
            for template in (InstanceSpec(seed=3), law.necessity)
            if template is not None
        ]
        docs = [doc for doc in docs if doc is not None]
        # T4.3's hypothesis is the one under which its conclusion is defined
        assert bool(docs) is (tid != "T4.3")
        for doc in docs:
            operation = doc["operation"]
            assert operation in _OPS or operation == law.operation
            if operation not in _OPS or "result" not in doc:
                continue
            function, judged = _OPS[operation]
            members = [files.soft_set_from_doc(m) for m in doc["members"]]
            if judged in ("target", "source"):
                result = function(files.hom_from_doc(doc["hom"]), members[0])
            else:
                result = function(members)
            assert result == files.soft_set_from_doc(doc["result"])


class TestHypothesisNecessity:
    def test_union_of_incomparable_subalgebras_exists_in_the_drop_space(self, z8):
        # the hand instance from the replay test is reachable: make sure the
        # dropped sampler covers non-subalgebra values at shared parameters
        v = fuzz_theorem("T3.8", 400, NECESSITY_TEMPLATES["T3.8"], drop_hypothesis=True)
        assert v.failures > 0

    def test_dropping_disjointness_breaks_extended_union_on_z6(self):
        v = fuzz_theorem("T3.9", 400, NECESSITY_TEMPLATES["T3.9"], drop_hypothesis=True)
        assert v.failures > 0

    def test_dropping_the_kernel_hypothesis_breaks_the_trivial_image(self):
        v = fuzz_theorem("T3.17i", 300, NECESSITY_TEMPLATES["T3.17i"], drop_hypothesis=True)
        assert v.failures > 0
