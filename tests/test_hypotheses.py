"""The named hypotheses of the law table (harness._HYPOTHESES): each is
realized by every enforced draw, judged by check_theorem on a hand-built
instance, and read nowhere else."""

import ast
from pathlib import Path

import pytest

from softgamma import FiniteCommutativeSemigroup, GammaSemiring, Instance, InstanceSpec, SoftSet, check_theorem
from softgamma import check_gamma_semiring, fuzz_theorem, gamma_hom, identity_hom, make_zn_gamma
from softgamma.harness import _HYPOTHESES, _LAWS, _SHAPES, _TABLE, _draw_instance, _Plan, canonical_hom

# the five families of the necessity and drop-hypothesis profiles
TEMPLATES = {
    "mix": InstanceSpec(),
    "zn8": InstanceSpec(generator="zn", size=(8,), gamma=(2, 4, 6)),
    "zn6": InstanceSpec(generator="zn", size=(6,), gamma=(1,)),
    "minmax5": InstanceSpec(generator="minmax", size=(5,), gamma=(1, 2, 3)),
    "matrix": InstanceSpec(generator="matrix", size=(2, 1, 2)),
}


@pytest.mark.parametrize("name", TEMPLATES)
def test_every_enforced_draw_meets_its_rows_hypotheses(name):
    # a miss here is a generator bug: fuzz_theorem judges no hypothesis per trial
    template = TEMPLATES[name]
    for law in _TABLE:
        base = law.spec(template, drop=False)
        plan = _Plan(base)
        for seed in range(500):
            inst = _draw_instance(plan, base.replace(seed=seed))
            assert law.missed(inst) is None, (law.theorem_id, seed)


# templates whose own policy would break some law's hypothesis
POLICY_TEMPLATES = {
    "arbitrary": InstanceSpec(value_policy="arbitrary"),
    "confined": InstanceSpec(nested="confined"),
    "free": InstanceSpec(nested="free"),
    "same-parameters": InstanceSpec(same_parameters=True),
    "disjoint": InstanceSpec(disjoint=True),
}


@pytest.mark.parametrize("name", POLICY_TEMPLATES)
@pytest.mark.parametrize("law_id", _LAWS)
def test_a_template_policy_leaves_enforced_hypotheses_on(law_id, name):
    # the law's realizing fields replace the template's policy fields
    template = POLICY_TEMPLATES[name]
    law = _LAWS[law_id]
    base = law.spec(template, drop=False)
    plan = _Plan(base)
    for seed in range(50):
        assert law.missed(_draw_instance(plan, base.replace(seed=seed))) is None, seed
    assert fuzz_theorem(law_id, 100, template).failures == 0


def _s3() -> GammaSemiring:
    """S = {0, 1, 2}: 1+1 = 1, 2+2 = 2, every other sum 0; the product a·g·b
    is a+b; Γ = {g} with g+g = g; no zero."""
    add = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    s = FiniteCommutativeSemigroup(("0", "1", "2"), add)
    return GammaSemiring(s, ("g",), [["g"]], [[row] for row in add])


def test_the_three_element_structure_is_weak_and_strict():
    gs = _s3()
    assert check_gamma_semiring(gs, "weak") and check_gamma_semiring(gs, "strict")


@pytest.mark.parametrize("law_id", ["T3.8", "T3.12"])
def test_two_closed_values_that_form_no_chain_miss_chain(law_id):
    # {1} and {2} are closed, their union is not (1+2 = 0): a miss, not a failure
    gs = _s3()
    inst = Instance(gs, [SoftSet.build(gs.elements, ("a",), {"a": [v]}) for v in ("1", "2")])
    assert _LAWS[law_id].missed(inst) == "chain"
    verdict = check_theorem(law_id, inst)
    assert (verdict.passes, verdict.vacuous, verdict.failures) == (0, 1, 0)


def _soft(gs, values):
    return SoftSet.build(gs.elements, tuple(values), values)


def _hand_built(name):
    """(law id, an instance that misses name alone, the instance repaired)."""
    z8, s3 = make_zn_gamma(8, (2, 4, 6), strict=True), _s3()
    closed, open_ = {"a": ["0", "4"]}, {"a": ["0", "2"]}
    zero_map = gamma_hom(z8, z8, {e: "0" for e in z8.elements})
    target = InstanceSpec(target_side=True)

    def t317(hom, values, spec=InstanceSpec()):
        return Instance(z8, [_soft(z8, {"y": values})], hom=hom, spec=spec)

    if name == "values":
        return "T3.7", Instance(z8, [_soft(z8, open_)]), Instance(z8, [_soft(z8, closed)])
    if name == "chain":
        pair = [_soft(s3, {"a": ["1"]}), _soft(s3, {"a": ["2"]})]
        return "T3.8", Instance(s3, pair), Instance(s3, [pair[0], _soft(s3, {"a": ["0", "1"]})])
    if name == "chain-outer":
        member = [_soft(s3, {"a": ["1"]})]
        outer = {"a": ["0", "1"], "b": ["0", "2"]}
        repaired = {"a": ["0", "1"], "b": ["0", "1"]}
        return "T4.8", Instance(s3, member, outer=_soft(s3, outer)), Instance(s3, member, outer=_soft(s3, repaired))
    if name == "disjoint":
        a, b = _soft(z8, closed), _soft(z8, {"b": ["0", "4"]})
        return "T3.9", Instance(z8, [a, a]), Instance(z8, [a, b])
    if name == "same-parameters":
        ab = _soft(z8, {"a": ["0", "4"], "b": ["0"]})
        return "T3.4", Instance(z8, [ab, _soft(z8, closed)]), Instance(z8, [ab, ab])
    if name == "anchored":
        a, b = _soft(z8, closed), _soft(z8, {"b": ["0", "4"]})
        return "T3.6", Instance(z8, [a, b]), Instance(z8, [a, a])
    if name == "nested":
        a = _soft(z8, closed)
        return "T4.4", Instance(z8, [a, a], outer=_soft(z8, {"a": ["0"]})), Instance(z8, [a, a], outer=a)
    if name == "target-values":
        # L3.16 over the zn 8 collapse onto Z4: {0,1} is not closed in Z4 (1+1 = 2), {0,2} is
        collapse = canonical_hom(("zn", 8, (2, 4, 6)))
        source, member = collapse.source, [_soft(collapse.source, closed)]

        def l316(values):
            return Instance(source, member, hom=collapse, aux_target=_soft(collapse.target, {"y": values}))

        return "L3.16", l316(["0", "1"]), l316(["0", "2"])
    whole = list(z8.elements)
    if name == "onto":
        return "T3.17ii", t317(zero_map, whole), t317(identity_hom(z8), whole)
    if name == "injective":
        return "T3.17iv", t317(zero_map, ["0"], target), t317(identity_hom(z8), ["0"], target)
    identity = identity_hom(z8)
    case, forced, spec = {
        "kernel-values": ("i", ["0"], InstanceSpec()),
        "whole-values": ("ii", whole, InstanceSpec()),
        "carrier-image-values": ("iii", whole, target),
        "trivial-values": ("iv", ["0"], target),
    }[name]
    return f"T3.17{case}", t317(identity, ["0", "4"], spec), t317(identity, forced, spec)


@pytest.mark.parametrize("name", _HYPOTHESES)
def test_a_hand_built_miss_is_vacuous_and_its_repair_is_judged(name):
    law_id, missing, repaired = _hand_built(name)
    law = _LAWS[law_id]
    assert name in law.hypotheses
    members = missing.soft_sets[: law.reads]
    assert [n for n in law.hypotheses if not _HYPOTHESES[n][0](missing, members)] == [name]
    assert law.missed(missing) == name
    verdict = check_theorem(law_id, missing)
    assert (verdict.passes, verdict.vacuous, verdict.failures) == (0, 1, 0)
    assert law.missed(repaired) is None
    assert check_theorem(law_id, repaired).passes == 1


# the guard: a hypothesis is defined in _HYPOTHESES and nowhere else

HARNESS = Path(__file__).resolve().parent.parent / "src" / "softgamma" / "harness.py"
POLICY_FIELDS = {"chain", "disjoint", "same_parameters", "anchored", "nested", "value_policy"}


def _function(tree: ast.Module, dotted: str) -> ast.FunctionDef:
    scope = tree.body
    for part in dotted.split("."):
        node = next(n for n in scope if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
        scope = node.body
    return node


@pytest.mark.parametrize("dotted", ["Law.evaluate", "Law._judge"])
def test_the_checkers_read_no_policy_field(dotted):
    body = _function(ast.parse(HARNESS.read_text(encoding="utf-8")), dotted)
    read = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(body) if isinstance(n, (ast.Name, ast.Attribute))}
    strings = {n.value for n in ast.walk(body) if isinstance(n, ast.Constant)}
    assert (read | strings) & POLICY_FIELDS == set()


def test_every_conclusion_is_one_the_judge_names():
    # Law._judge reads a conclusion it does not name as "outer-op"
    named = {n.value for n in ast.walk(_function(ast.parse(HARNESS.read_text(encoding="utf-8")), "Law._judge"))
             if isinstance(n, ast.Constant)}
    assert {law.conclusion for law in _TABLE} <= named | _SHAPES.keys()


def test_every_row_names_table_entries_only():
    for law in _TABLE:
        assert law.hypotheses and set(law.hypotheses) <= _HYPOTHESES.keys(), law.theorem_id
        assert set(law.flags) <= {"family_size", "hom", "target_side"}, law.theorem_id


def test_every_realizing_and_dropping_field_is_a_spec_field():
    for name, (_, realize, drop) in _HYPOTHESES.items():
        assert set(realize) | set(drop or ()) <= set(InstanceSpec._fields), name
