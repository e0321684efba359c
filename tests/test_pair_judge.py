"""The mask-level judge (Law.evaluate on (parameters, masks) pairs) against
each law's conclusion composed here from the public soft-set API: the public
operations, is_soft_gamma_semiring, is_soft_subset, is_trivial_soft and
is_whole_soft.  Every law, with its hypotheses enforced and dropped, is drawn
on the mix generator and on each distinct pinned necessity family, 40 trials
each.  The outcome kinds agree on every trial, and every failing trial's
deferred document is the one built here from the public functions, with
witnesses from is_soft_gamma_semiring and the soft-subset witness."""

import pytest

from softgamma import (
    DomainError,
    InstanceSpec,
    is_soft_gamma_semiring,
    is_soft_subset,
    is_trivial_soft,
    is_whole_soft,
)
from softgamma.harness import _LAWS, _OPS, ALL_THEOREMS, NECESSITY_TEMPLATES, _draw_instance, _dump, _Plan
from softgamma.soft_sets import _subset_witness

TRIALS = 40
TEMPLATES = [InstanceSpec(), *dict.fromkeys(NECESSITY_TEMPLATES.values())]


def _public(law, inst, operation):
    """(outcome, document) of one operation of the row, judged on soft sets."""
    function, judged = _OPS.get(operation, (None, "side"))
    if judged == "source" and not law.flags.get("target_side"):
        if inst.aux_target is None:
            return "vacuous", None
        members = [inst.aux_target]
    else:
        members = inst.soft_sets if law.reads is None else inst.soft_sets[: law.reads]
    gated = law.conclusion in ("outer", "outer-op")
    if any(ss.is_null() for ss in ((inst.outer, *members) if gated else members)):
        return "vacuous", None

    def apply(family):
        return function(inst.hom, family[0]) if judged in ("target", "source") else function(family)

    if function is None:
        result, shown = members[0], None
    else:
        try:
            result = apply(members)
        except DomainError:
            return "vacuous", None
        if result.is_null() and law.conclusion not in ("trivial", "whole"):
            return "vacuous", None
        shown = result
    arity = len(members) if judged == "product" else None
    if judged in ("side", "product"):
        over, members_over = inst.side_gs, "target" if inst.spec.target_side else "source"
    else:
        over, members_over = getattr(inst.hom, judged), "source" if judged == "target" else "target"

    if law.conclusion in ("trivial", "whole"):
        if law.conclusion == "trivial" and over.zero is None:
            return "vacuous", None
        shape = is_trivial_soft if law.conclusion == "trivial" else is_whole_soft
        if shape(over, result) and is_soft_gamma_semiring(over, result):
            return "pass", None
        return "fail", _dump(inst, operation, members_over, members, result)

    bounds = {
        "closed": lambda: [],
        "members": lambda: members,
        "outer": lambda: [inst.outer],
        "outer-op": lambda: [apply([inst.outer] * len(members))],
    }[law.conclusion]()
    if not all(is_soft_gamma_semiring(over, bound, arity) for bound in bounds):
        return "vacuous", None
    witness = is_soft_gamma_semiring(over, result, arity)
    if not witness:
        extra = None if arity is None else {"product_arity": arity}
        return "fail", _dump(inst, operation, members_over, members, result, witness, extra)
    for bound in bounds:
        if not is_soft_subset(result, bound):
            outer_result = bound if law.conclusion == "outer-op" else None
            return "fail", _dump(
                inst, operation, members_over, members, shown, _subset_witness(result, bound), outer_result=outer_result
            )
    return "pass", None


def _public_outcome(law, inst):
    """The first failing operation's outcome, else pass when one passed, else vacuous."""
    found = ("vacuous", None)
    for operation in (law.operation,) if isinstance(law.operation, str) else law.operation:
        outcome = _public(law, inst, operation)
        if outcome[0] == "fail":
            return outcome
        if outcome[0] == "pass":
            found = outcome
    return found


@pytest.mark.parametrize("drop", [False, True], ids=["enforced", "dropped"])
@pytest.mark.parametrize("tid", ALL_THEOREMS)
def test_the_pair_judge_agrees_with_the_public_api(tid, drop):
    law = _LAWS[tid]
    kinds = set()
    for template in TEMPLATES:
        base = law.spec(template, drop)
        plan = _Plan(base)
        for seed in range(template.seed, template.seed + TRIALS):
            inst = _draw_instance(plan, base.replace(seed=seed))
            kind, deferred = law.evaluate(inst)
            expected, document = _public_outcome(law, inst)
            assert kind == expected, (tid, template, seed)
            if kind == "fail":
                assert deferred() == document, (tid, template, seed)
            kinds.add(kind)
    # dropped hypotheses fail some trial of every law with a necessity family
    assert not drop or law.necessity is None or "fail" in kinds
