"""Predicates tying soft sets to gamma-semiring structure.

A soft set over a structure's carrier is a soft gamma-semiring when it is
non-null and every support value is a closed subalgebra.  Values at
parameters outside the support may be empty without penalty.
"""

from __future__ import annotations

from collections.abc import Mapping

from .algebra import GammaHom, GammaSemiring, _closure_verdict, _product_labels, _require_hom, gamma_hom
from .errors import ConstraintError, DomainError, InputError
from .reports import PASSED, Record, Witness
from .soft_sets import SoftSet, _subset_witness


def _require_carrier(gs: GammaSemiring, ss: SoftSet, arity: int | None = None) -> None:
    carrier = gs.elements if arity is None else _product_labels(gs, arity)
    if ss.universe != carrier:
        raise InputError("soft set universe must equal the structure carrier, in order")


def is_soft_gamma_semiring(gs: GammaSemiring, ss: SoftSet, arity: int | None = None) -> Witness:
    """Non-null and every support value closed; first failure witnessed.

    With arity k, ss is judged over the k-fold product of gs, the carrier of
    product_gamma(gs, k), without building it; SizeLimitError, as there, when
    that carrier would exceed MAX_PRODUCT_SIZE elements.
    """
    _require_carrier(gs, ss, arity)
    if not any(ss.masks):
        return Witness(False, kind="null-soft-set")
    # a SoftSet's masks are exact ints inside its universe, the carrier checked above
    for w, m in zip(ss.parameters, ss.masks):
        if m:
            sw = _closure_verdict(gs, m, arity)
            if not sw.verdict:
                return Witness(False, kind=sw.kind, failing_parameter=w, elements=sw.elements)
    return PASSED


class SoftGammaSemiring(Record):
    """A validated pairing of a structure with a soft set over its carrier."""

    base: GammaSemiring
    soft: SoftSet

    def __init__(self, base, soft):
        w = is_soft_gamma_semiring(base, soft)
        if not w:
            raise DomainError(
                f"soft set is not a soft gamma-semiring: {w.kind}"
                + (f" at parameter {w.failing_parameter!r}" if w.failing_parameter is not None else "")
            )
        self.__dict__.update(base=base, soft=soft)


def is_trivial_soft(gs: GammaSemiring, ss: SoftSet) -> bool:
    """Every value equals {zero}; InputError when no zero is designated."""
    _require_carrier(gs, ss)
    if gs.zero is None:
        raise InputError("trivial test requires a designated zero")
    zmask = 1 << gs.s.pos(gs.zero)
    return all(m == zmask for m in ss.masks)


def is_whole_soft(gs: GammaSemiring, ss: SoftSet) -> bool:
    """Every value equals the whole carrier."""
    _require_carrier(gs, ss)
    return all(m == gs.full_mask for m in ss.masks)


def soft_image_under_hom(hom: GammaHom, ss: SoftSet) -> SoftSet:
    """Pointwise image of every value, same parameters, over the target carrier."""
    _require_hom(hom)
    _require_carrier(hom.source, ss)
    return SoftSet(hom.target.elements, ss.parameters, tuple(hom.image_mask(m) for m in ss.masks))


def soft_preimage_under_hom(hom: GammaHom, ss: SoftSet) -> SoftSet:
    """Pointwise preimage of every value, same parameters, over the source carrier."""
    _require_hom(hom)
    _require_carrier(hom.target, ss)
    return SoftSet(
        hom.source.elements, ss.parameters, tuple(hom.preimage_mask(m) for m in ss.masks)
    )


def is_soft_sub_gamma_semiring(gs: GammaSemiring, inner: SoftSet, outer: SoftSet) -> Witness:
    """Parameter containment plus, on the inner support, value containment.

    Both arguments must already be soft gamma-semirings over gs (DomainError
    otherwise, carrying the first witness).  Closure of an inner value viewed
    inside the outer value then reduces to containment, since the inner
    value is already closed in the whole carrier.
    """
    for name, ss in (("inner", inner), ("outer", outer)):
        w = is_soft_gamma_semiring(gs, ss)
        if not w:
            raise DomainError(
                f"{name} soft set is not a soft gamma-semiring ({w.kind}"
                + (f" at parameter {w.failing_parameter!r})" if w.failing_parameter is not None else ")")
            )
    return _subset_witness(inner, outer)


def is_soft_gamma_homomorphism(
    f, g, source: SoftGammaSemiring, target: SoftGammaSemiring
) -> Witness:
    """Three clauses: f a surjective structure homomorphism, g onto the target
    parameters, and pointwise image compatibility f(value(y)) == target value
    at g(y).  Never raises, malformed maps included: an f that is not a
    mapping, is undefined somewhere on the source carrier or leaves the target
    carrier fails the first clause ("epimorphism"); a g that is not a mapping,
    is undefined at a source parameter or leaves the target parameters fails
    the second ("parameter-surjection").
    """
    sgs, tgs = source.base, target.base
    sss, tss = source.soft, target.soft

    if sgs.gamma_elements != tgs.gamma_elements:
        return Witness(False, kind="epimorphism", elements=("gamma-mismatch",))
    try:
        hom = gamma_hom(sgs, tgs, f)
    except (InputError, ConstraintError):
        return Witness(False, kind="epimorphism")
    if not hom.surjective:
        return Witness(False, kind="epimorphism", elements=("not-surjective",))

    if not isinstance(g, Mapping):
        return Witness(False, kind="parameter-surjection")
    for w in sss.parameters:
        if w not in g:
            return Witness(False, kind="parameter-surjection", failing_parameter=w)
        if not tss.has_param(g[w]):
            return Witness(False, kind="parameter-surjection", failing_parameter=w)
    if {g[w] for w in sss.parameters} != set(tss.parameters):
        return Witness(False, kind="parameter-surjection")

    for w, m in zip(sss.parameters, sss.masks):
        if hom.image_mask(m) != tss.mask(g[w]):
            return Witness(False, kind="value-compatibility", failing_parameter=w)
    return PASSED
