"""Seeded instance generation and mechanical checking of the closure laws.

Each law is one row of a table (Law, _TABLE): the generation policy that
realizes its hypotheses (values drawn from enumerated subalgebras, nested
families, chains, disjoint parameter sets, canonical homomorphisms), the
operation, the members it reads, the structure its conclusion is judged
over, and the conclusion; Law.evaluate checks every row.  A trial verdict is:

  pass     the conclusion held;
  vacuous  the operation or a predicate precondition was undefined on the
           instance, a required soft set was null, or a structural gate
           (e.g. pairwise-disjoint parameter sets) failed;
  fail     the conclusion was evaluated and did not hold; the lowest
           failing trial's replayable counterexample document is built.

Value-level hypothesis violations are deliberately *not* gated: feeding a
non-chain or non-subalgebra instance to a check evaluates the conclusion
honestly, which is what drop-hypothesis fuzzing exploits to demonstrate that
a hypothesis is necessary.  With drop_hypothesis, the hypothesis-enforcing
policies are disabled: the plain closure laws then draw values as arbitrary
subsets, while the nested containment laws keep subalgebra values (so their
preconditions stay evaluable) and stop confining members to the enclosing
soft set.

Randomness comes from random.Random (MT19937) seeded per trial with
template.seed + trial_index.  generate_instance is _check_spec, which
validates a spec without drawing, then _draw_instance, which holds the draw
order that is part of the determinism contract: descriptor (family, n, gamma
set; see _draw_descriptor), chain order (chain policies only), outer
parameters and values, then per member its parameters and values, then the
auxiliary target-side member.  fuzz_theorem checks its spec once and calls
_draw_instance per trial.  Every bounded integer (a choice, a size, a sample
index, a shuffle swap) is drawn by _below straight from getrandbits, so the
draw order rests only on seeding and the MT19937 output words, not on the
random.Random sample, choice, shuffle and randint algorithms, which the
random docs do not promise to keep across versions.  _below reads the words
those methods read in CPython 3.10 and 3.11; tests/test_draws.py holds the
stdlib draws as the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

from . import files
from .algebra import (
    GammaHom,
    GammaSemiring,
    _collection,
    _count,
    gamma_hom,
    identity_hom,
    kernel,
)
from .errors import DomainError, GenerationError, InputError
from .generators import _integer_gamma, make_matrix_gamma, make_minmax_gamma, make_zn_gamma
from .reports import TheoremVerdict, Witness
from .soft_gamma import (
    _require_carrier,
    is_soft_gamma_semiring,
    is_trivial_soft,
    is_whole_soft,
    soft_image_under_hom,
    soft_preimage_under_hom,
)
from .soft_sets import (
    SoftSet,
    _subset_witness,
    and_intersect_family,
    cartesian_product,
    extended_intersect,
    extended_union,
    or_union_family,
    restricted_intersect,
    restricted_union,
)


@dataclass(frozen=True)
class InstanceSpec:
    """Seed-determined recipe for one fuzzing instance.

    generator "mix" rotates among the three structure families and takes no
    size or gamma; on zn and minmax they pin down (n,) and the gamma set (an
    int collection, read ascending without repeats; empty means a seeded
    random nonempty subset), on matrix size pins (p, rows, cols) and gamma
    must be empty.  family_size None draws 1..3 members; the parameter pool,
    the per-member parameter cap and the empty-value rate are the module
    constants _PARAMETER_POOL, _MAX_PARAMETERS and _EMPTY_RATE.  Policies:
    value_policy selects where values come from; chain forces all drawn
    values into one containment chain (chain_outer extends that to the
    enclosing soft set); disjoint gives members pairwise disjoint parameter
    sets; same_parameters gives them all the first member's parameters;
    anchored forces a common parameter; nested draws members inside an
    enclosing soft set (nested_free keeps the parameter nesting but stops
    constraining values to the enclosing ones); with_hom attaches the
    family's canonical surjective homomorphism (hom_kind "identity" for the
    identity, which is built per instance rather than cached); target_side
    moves generation to the homomorphism target, which the carrier-image
    policy requires and the kernel policy refuses.
    """

    generator: str = "mix"
    size: tuple[int, ...] = ()
    gamma: tuple[int, ...] = ()
    family_size: int | None = None
    value_policy: str = "subsemirings"
    chain: bool = False
    chain_outer: bool = False
    disjoint: bool = False
    same_parameters: bool = False
    anchored: bool = False
    nested: bool = False
    nested_free: bool = False
    with_hom: bool = False
    hom_kind: str = "collapse"
    target_side: bool = False
    seed: int = 0


@dataclass
class Instance:
    """A generated (or hand-built) instance: structure, soft sets, extras."""

    gs: GammaSemiring
    soft_sets: list[SoftSet]
    outer: SoftSet | None = None
    hom: GammaHom | None = None
    aux_target: SoftSet | None = None
    descriptor: tuple = ("custom",)
    spec: InstanceSpec = field(default_factory=InstanceSpec)

    @property
    def side_gs(self) -> GammaSemiring:
        if self.spec.target_side and self.hom is not None:
            return self.hom.target
        return self.gs


_VALUE_POLICIES = ("subsemirings", "arbitrary", "kernel", "whole", "carrier-image", "trivial")

# members draw their parameters from _PARAMETER_POOL, at most _MAX_PARAMETERS
# each (the enclosing soft set may take the whole pool), and a drawn value is
# empty with probability _EMPTY_RATE
_PARAMETER_POOL = ("a", "b", "c", "d")
_MAX_PARAMETERS = 3
_EMPTY_RATE = 0.2

# entries kept by each of the structure and homomorphism caches; a 200-trial
# pass over every law on the mix generator needs under 100 structures
_CACHE_SIZE = 256


def _below(getrandbits, n: int) -> int:
    """A uniform integer in 0..n-1, for n >= 1 only (n = 0 never ends):
    getrandbits(n.bit_length()) redrawn until it is below n, the words that
    random.Random's bounded draws read (CPython's _randbelow_with_getrandbits)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_gamma(rng: random.Random, n: int) -> tuple[int, ...]:
    bits = rng.getrandbits(n)
    if bits == 0:
        bits = 1 << _below(rng.getrandbits, n)
    return tuple(i for i in range(n) if bits >> i & 1)


# the descriptor a mix draw of matrix, or an unpinned matrix spec, resolves to
_MATRIX_DEFAULT = ("matrix", 2, 1, 2)


def _check_spec(spec: InstanceSpec) -> tuple:
    """Every check of a spec that reads no random draw, in generate_instance's
    order; returns what the spec pins of the descriptor for _draw_descriptor:
    ("mix",), (kind, n or None, gamma or ()) on zn and minmax, or the whole
    matrix descriptor.  The seed is not read."""
    if spec.family_size is not None:
        _count(spec.family_size, "family_size")
    if spec.value_policy not in _VALUE_POLICIES:
        raise InputError(f"unknown value policy {spec.value_policy!r}")
    kind = spec.generator
    size = _collection(spec.size, "spec size")
    gamma = _collection(spec.gamma, "spec gamma")
    if kind == "mix":
        if size or gamma:
            raise InputError(f"a mix spec takes no size or gamma, got {spec.size!r} and {spec.gamma!r}")
        pinned = ("mix",)
    elif kind in ("zn", "minmax"):
        if len(size) > 1:
            raise InputError(f"a {kind} spec size is at most one count, got {spec.size!r}")
        n = _count(size[0], "n") if size else None
        if gamma and set(map(type, gamma)) != {int}:
            raise InputError(f"spec gamma entries must be integers, got {spec.gamma!r}")
        # as the generator builds the gamma set: ascending, without repeats
        # (bool refused above); ranges are checked on a cache miss
        pinned = (kind, n, tuple(sorted(set(gamma))))
    elif kind == "matrix":
        if len(size) not in (0, 3):
            raise InputError(f"a matrix spec size is empty or three counts, got {spec.size!r}")
        if gamma:
            raise InputError(f"a matrix spec takes no gamma (it is all cols x rows matrices), got {spec.gamma!r}")
        pinned = ("matrix", *size) if size else _MATRIX_DEFAULT
        try:
            hash(pinned)
        except TypeError:
            raise InputError(f"spec size entries must be hashable, got {pinned!r}") from None
    else:
        raise InputError(f"unknown generator {spec.generator!r}")
    if spec.with_hom and spec.hom_kind not in ("collapse", "identity"):
        raise InputError(f"unknown homomorphism kind {spec.hom_kind!r}")
    if spec.target_side and not spec.with_hom:
        raise GenerationError("target_side generation requires with_hom")
    # the kernel is a mask over the source, the carrier image one over the target
    if spec.value_policy == "kernel" and spec.target_side:
        raise InputError("the kernel value policy gives source values; it takes no target_side")
    if spec.value_policy == "carrier-image" and spec.with_hom and not spec.target_side:
        raise InputError("the carrier-image value policy gives target values; it requires target_side")
    return pinned


def _draw_descriptor(pinned: tuple, rng: random.Random) -> tuple:
    """The structure descriptor: pinned (from _check_spec) completed by the
    draws of the family (mix), n and the gamma set, in that order."""
    kind = pinned[0]
    if kind == "mix":
        kinds = ("zn", "minmax", "matrix")
        kind = kinds[_below(rng.getrandbits, len(kinds))]
        if kind == "matrix":
            return _MATRIX_DEFAULT
        pinned = (kind, None, ())
    elif kind == "matrix":
        return pinned
    n, gamma = pinned[1], pinned[2]
    if n is None:
        sizes = (4, 6, 8) if kind == "zn" else (3, 4, 5)
        n = sizes[_below(rng.getrandbits, len(sizes))]
    return (kind, n, gamma or _random_gamma(rng, n))


@lru_cache(maxsize=_CACHE_SIZE)
def base_structure(descriptor: tuple) -> GammaSemiring:
    kind = descriptor[0]
    if kind == "zn":
        return make_zn_gamma(descriptor[1], descriptor[2])
    if kind == "minmax":
        return make_minmax_gamma(descriptor[1], descriptor[2])
    if kind == "matrix":
        return make_matrix_gamma(*descriptor[1:])
    raise InputError(f"unknown descriptor {descriptor!r}")


def _smallest_prime_factor(n: int) -> int:
    for p in range(2, n + 1):
        if n % p == 0:
            return p
    return n


@lru_cache(maxsize=_CACHE_SIZE)
def canonical_hom(descriptor: tuple) -> GammaHom:
    """The family's deterministic surjective homomorphism.

    zn collapses mod its largest proper divisor, minmax clamps to the lower
    half, matrix uses the identity.
    """
    source = base_structure(descriptor)
    if descriptor[0] == "matrix":
        return identity_hom(source)
    kind, n, gamma = descriptor
    if kind == "zn":
        m = n // _smallest_prime_factor(n)
        images = [i % m for i in range(n)]
    else:
        m = (n + 1) // 2
        images = [min(i, m - 1) for i in range(n)]
    # the target keeps the source's gamma labels, which may be >= m
    target = _integer_gamma(kind, m, gamma, with_gamma_add=False)
    return gamma_hom(source, target, {str(i): str(j) for i, j in enumerate(images)})


def _draw_chain(rng: random.Random, subs: tuple[int, ...]) -> list[int]:
    # random.shuffle's Fisher-Yates swaps
    order = list(subs)
    bits = rng.getrandbits
    for i in reversed(range(1, len(order))):
        j = _below(bits, i + 1)
        order[i], order[j] = order[j], order[i]
    chain: list[int] = []
    for m in order:
        if all(m & ~c == 0 or c & ~m == 0 for c in chain):
            chain.append(m)
    return chain


def _draw_parameters(
    rng: random.Random,
    pool: tuple,
    max_size: int,
    anchored: bool,
) -> tuple:
    bits = rng.getrandbits
    n = len(pool)
    size = 1 + _below(bits, max(1, min(max_size, n)))
    if size > n:
        raise GenerationError("cannot draw parameters from an empty pool")
    # random.sample's pool-swap loop on range(n), its path for populations of
    # at most 21 (the pools hold at most four); left[:n-i] holds the indices
    # not yet drawn
    left = list(range(n))
    idxs = []
    for i in range(size):
        j = _below(bits, n - i)
        idxs.append(left[j])
        left[j] = left[n - i - 1]
    if anchored and 0 not in idxs:
        idxs[0] = 0
    return tuple(pool[i] for i in sorted(idxs))


def _forced_mask(policy: str, side: GammaSemiring, hom) -> int | None:
    """The one value every member over side takes under a forced value
    policy; None when values are drawn."""
    if policy in ("kernel", "carrier-image") and hom is None:
        raise GenerationError(f"{policy} value policy requires a homomorphism")
    if policy == "kernel":
        return hom.source.subset_mask(kernel(hom))
    if policy == "whole":
        return side.full_mask
    if policy == "carrier-image":
        return hom.image_mask(hom.source.full_mask)
    if policy == "trivial":
        if side.zero is None:
            raise GenerationError("trivial value policy requires a designated zero")
        return 1 << side.s.pos(side.zero)
    return None


def _draw_value(rng: random.Random, spec: InstanceSpec, side: GammaSemiring, candidates) -> int:
    """A drawn value over side: empty with probability _EMPTY_RATE, else an
    arbitrary subset under the "arbitrary" policy, else one of candidates
    (empty when there are none)."""
    if rng.random() < _EMPTY_RATE:
        return 0
    if spec.value_policy == "arbitrary":
        return rng.getrandbits(side.size)
    return candidates[_below(rng.getrandbits, len(candidates))] if candidates else 0


def generate_instance(spec: InstanceSpec) -> Instance:
    """Build the seed-determined instance for a spec.  Identical specs give
    identical instances."""
    return _draw_instance(spec, _check_spec(spec), random.Random(spec.seed))


def _reseeded(base: InstanceSpec, seed) -> InstanceSpec:
    """replace(base, seed=seed) without the dataclass machinery: a copy of
    base's fields with seed set (InstanceSpec has no __post_init__ to run)."""
    spec = object.__new__(type(base))
    spec.__dict__.update(base.__dict__, seed=seed)
    return spec


def _draw_instance(spec: InstanceSpec, pinned: tuple, rng: random.Random) -> Instance:
    """The instance of a spec that passed _check_spec, which returned pinned,
    from rng seeded with spec.seed.  Every random draw of an instance is made
    here, in the order the determinism contract fixes.  The soft sets are
    built unchecked: their universe is a structure's carrier, their
    parameters distinct labels of the pool, and every value a subset mask of
    that carrier."""
    descriptor = _draw_descriptor(pinned, rng)
    gs = base_structure(descriptor)
    hom = None
    if spec.with_hom:
        # identity homomorphisms are cheap to build, so only the collapses are cached
        hom = identity_hom(gs) if spec.hom_kind == "identity" else canonical_hom(descriptor)
    side = hom.target if spec.target_side else gs

    subs = side.sub_masks
    chain_pool: list[int] | None = None
    if spec.chain or spec.chain_outer:
        chain_pool = _draw_chain(rng, subs)
        if not chain_pool:
            raise GenerationError("chain policy found no comparable subalgebras")
    forced = _forced_mask(spec.value_policy, side, hom)
    value_candidates = chain_pool if spec.chain else subs
    outer_candidates = chain_pool if spec.chain_outer else subs

    outer = None
    if spec.nested:
        oparams = _draw_parameters(rng, _PARAMETER_POOL, len(_PARAMETER_POOL), spec.anchored)
        omasks = tuple(
            _draw_value(rng, spec, side, outer_candidates) if forced is None else forced for _ in oparams
        )
        outer = SoftSet._unchecked(side.elements, oparams, omasks)

    k = spec.family_size if spec.family_size is not None else 1 + _below(rng.getrandbits, 3)
    members: list[SoftSet] = []
    shared_params: tuple | None = None
    constrain = spec.nested and not spec.nested_free and spec.value_policy == "subsemirings"
    for index in range(k):
        if spec.nested:
            pool = outer.parameters
        elif spec.disjoint:
            pool = tuple(f"{name}{index}" for name in _PARAMETER_POOL)
        else:
            pool = _PARAMETER_POOL
        if spec.same_parameters:
            if shared_params is None:
                shared_params = _draw_parameters(rng, pool, _MAX_PARAMETERS, spec.anchored)
            params = shared_params
        else:
            params = _draw_parameters(rng, pool, _MAX_PARAMETERS, spec.anchored)
        masks = []
        for w in params:
            candidates = value_candidates
            if constrain:
                outside = ~outer.mask(w)
                candidates = [m for m in value_candidates if m & outside == 0]
            masks.append(_draw_value(rng, spec, side, candidates) if forced is None else forced)
        members.append(SoftSet._unchecked(side.elements, params, tuple(masks)))

    aux_target = None
    if hom is not None and not spec.target_side:
        params = _draw_parameters(rng, _PARAMETER_POOL, _MAX_PARAMETERS, spec.anchored)
        masks = tuple(_draw_value(rng, spec, hom.target, hom.target.sub_masks) for _ in params)
        aux_target = SoftSet._unchecked(hom.target.elements, params, masks)

    return Instance(
        gs=gs,
        soft_sets=members,
        outer=outer,
        hom=hom,
        aux_target=aux_target,
        descriptor=descriptor,
        spec=spec,
    )


def _descriptor_name(descriptor: tuple) -> str:
    parts = []
    for part in descriptor:
        if isinstance(part, tuple):
            parts.append(",".join(str(x) for x in part))
        else:
            parts.append(str(part))
    return "-".join(parts)


def _dump(
    inst: Instance,
    operation: str,
    members=(),
    result: SoftSet | None = None,
    witness: Witness | None = None,
    extra: dict | None = None,
    outer_result: SoftSet | None = None,
) -> dict:
    doc = {
        "structure": files.structure_to_doc(inst.gs, name=_descriptor_name(inst.descriptor)),
        "operation": operation,
        "members": [files.soft_set_to_doc(m) for m in members],
        "members_over": "target" if inst.spec.target_side else "source",
    }
    if inst.hom is not None:
        doc["hom"] = files.hom_to_doc(inst.hom)
    if inst.outer is not None:
        doc["outer"] = files.soft_set_to_doc(inst.outer)
    if result is not None:
        doc["result"] = files.soft_set_to_doc(result)
    if witness is not None:
        doc["violation"] = files.witness_to_doc(witness)
    if outer_result is not None:
        doc["outer_result"] = files.soft_set_to_doc(outer_result)
    if extra:
        doc.update(extra)
    return doc


# A check's outcome and, for a failure, a callable that builds its
# counterexample document; only the lowest failing trial's is ever built.
Outcome = tuple[str, Callable[[], dict] | None]
_PASS: Outcome = ("pass", None)
_VACUOUS: Outcome = ("vacuous", None)


def _pairwise_disjoint(members) -> bool:
    seen: set = set()
    for m in members:
        params = set(m.parameters)
        if params & seen:
            return False
        seen |= params
    return True


# the operations a law row names; hom-image and hom-preimage take (hom, soft set)
_OPS: dict[str, Callable] = {
    "restricted-intersection": restricted_intersect,
    "extended-intersection": extended_intersect,
    "restricted-union": restricted_union,
    "extended-union": extended_union,
    "and-intersection": and_intersect_family,
    "or-union": or_union_family,
    "cartesian-product": cartesian_product,
    "hom-image": soft_image_under_hom,
    "hom-preimage": soft_preimage_under_hom,
}


class Law:
    """One closure law as a row of data.

    flags are the InstanceSpec fields that realize the law's hypotheses.  The
    operation (one of _OPS, else the first member itself) is applied to the
    first `reads` members, or all when None, and its result is judged over
    `over`: the members' side, its k-fold product for k members (judged from
    the side's tables, never built), or the homomorphism's "target" or
    "source".  The conclusion is that the result is "closed", or
    a soft sub-gamma-semiring of the "outer" soft set, of the operation
    applied to copies of the outer ("outer-op"), or of each of the "members".
    L3.16 ("hom-transport") and T3.17 ("trivial-whole") have checkers of
    their own.  necessity pins the structure family on which fuzzing with
    the hypothesis dropped finds a counterexample, showing the hypothesis is
    needed; it is not a flag, because spec() hands every flag to InstanceSpec.
    T4.3, like T4.5, has no necessity family, and it cannot have one: the
    intersection of two subalgebras is a subalgebra, so its hypothesis is
    exactly the condition under which its conclusion is defined, and
    dropping it can only make trials vacuous.
    """

    def __init__(
        self,
        theorem_id: str,
        conclusion: str,
        operation: str = "",
        reads: int | None = None,
        over: str = "side",
        necessity: InstanceSpec | None = None,
        **flags,
    ):
        self.theorem_id = theorem_id
        self.conclusion = conclusion
        self.operation = operation
        self.reads = reads
        self.over = over
        self.necessity = necessity
        self.flags = flags

    def spec(self, template: InstanceSpec, drop: bool) -> InstanceSpec:
        updates = dict(self.flags)
        if drop:
            updates.update(chain=False, chain_outer=False, disjoint=False, same_parameters=False)
            # the nested containment laws keep subalgebra values (so the
            # conclusion's preconditions stay evaluable) and instead stop
            # confining member values to the enclosing soft set; the plain
            # closure laws widen values to arbitrary subsets
            if self.flags.get("nested"):
                updates.update(value_policy="subsemirings", nested_free=True)
            else:
                updates["value_policy"] = "arbitrary"
        return replace(template, **updates)

    def _apply(self, inst: Instance, family) -> SoftSet:
        if self.over in ("target", "source"):
            return _OPS[self.operation](inst.hom, family[0])
        return _OPS[self.operation](family)

    def evaluate(self, inst: Instance, enforce: bool) -> Outcome:
        if self.conclusion == "hom-transport":
            return _check_hom_transport(inst)
        if self.conclusion == "trivial-whole":
            case = self.theorem_id.removeprefix("T3.17")
            return _check_trivial_whole(case, self.flags["value_policy"], inst, enforce)
        members = inst.soft_sets if self.reads is None else inst.soft_sets[: self.reads]
        if enforce and self.flags.get("disjoint") and not _pairwise_disjoint(members):
            return _VACUOUS
        gated = [inst.outer, *members] if self.conclusion in ("outer", "outer-op") else members
        if any(ss.is_null() for ss in gated):
            return _VACUOUS
        if self.operation in _OPS:
            try:
                result = self._apply(inst, members)
            except DomainError:
                return _VACUOUS
            if result.is_null():
                return _VACUOUS
            shown = result
        else:
            result, shown = members[0], None
        k = len(members)
        arity = k if self.over == "product" else None
        if self.over in ("side", "product"):
            over = inst.side_gs
        else:
            over = getattr(inst.hom, self.over)  # the homomorphism's target or source

        if self.conclusion == "closed":
            w = is_soft_gamma_semiring(over, result, arity)
            if w:
                return _PASS
            extra = None if arity is None else {"product_arity": arity}
            return "fail", lambda: _dump(inst, self.operation, members, shown, w, extra)

        if self.conclusion == "members":
            bounds = members
        elif self.conclusion == "outer":
            bounds = [inst.outer]
        else:
            bounds = [self._apply(inst, [inst.outer] * k)]
        # a soft sub-gamma-semiring relates two soft gamma-semirings: a result
        # or a bound that is not one leaves the conclusion undefined
        if not is_soft_gamma_semiring(over, result, arity):
            return _VACUOUS
        for bound in bounds:
            if not is_soft_gamma_semiring(over, bound, arity):
                return _VACUOUS
            w = _subset_witness(result, bound)
            if not w:
                outer_result = bound if self.conclusion == "outer-op" else None
                return "fail", lambda: _dump(
                    inst, self.operation, members, shown, w, outer_result=outer_result
                )
        return _PASS


def _check_hom_transport(inst: Instance) -> Outcome:
    # images of source members and preimages of the auxiliary target member
    hom = inst.hom
    applicable = False
    source_member = inst.soft_sets[0]
    if not source_member.is_null():
        applicable = True
        image = soft_image_under_hom(hom, source_member)
        w = is_soft_gamma_semiring(hom.target, image)
        if not w:
            return "fail", lambda: _dump(inst, "hom-image", [source_member], image, w)
    target_member = inst.aux_target
    if target_member is not None and not target_member.is_null():
        applicable = True
        pre = soft_preimage_under_hom(hom, target_member)
        if not pre.is_null():
            w = is_soft_gamma_semiring(hom.source, pre)
            if not w:
                return "fail", lambda: _dump(inst, "hom-preimage", [target_member], pre, w)
    return _PASS if applicable else _VACUOUS


# per T3.17 case, the conclusion that an enforced failure names
_TRIVIAL_WHOLE_CONCLUSIONS = {
    "i": "image_not_trivial",
    "ii": "image_not_whole",
    "iii": "preimage_not_whole",
    "iv": "preimage_not_trivial",
}


def _check_trivial_whole(case: str, policy: str, inst: Instance, enforce: bool) -> Outcome:
    """T3.17 case on the first member, a soft set over the homomorphism's
    source in cases i and ii and over its target in cases iii and iv:

    case i:   all values equal ker(f)      -> image is the trivial soft set.
    case ii:  f onto, input whole          -> image is whole.
    case iii: all values equal f(carrier)  -> preimage is whole.
    case iv:  f injective, input trivial   -> preimage is trivial.

    Each hypothesis also asks the member, and each conclusion the result, to
    be a soft gamma-semiring.  policy, the law row's value policy, names
    the hypothesis value.  Vacuous when the member is null, when in case iv
    a side has no zero, or, enforced, when the hypothesis does not hold.  A
    member off the case's carrier is an InputError.
    """
    hom, member = inst.hom, inst.soft_sets[0]
    flag = _TRIVIAL_WHOLE_CONCLUSIONS[case]
    forward = case in ("i", "ii")
    side, other = (hom.source, hom.target) if forward else (hom.target, hom.source)
    _require_carrier(side, member)
    if member.is_null() or case == "iv" and (side.zero is None or other.zero is None):
        return _VACUOUS
    if enforce:
        mask = _forced_mask(policy, side, hom)
        held = mask != 0 and all(m == mask for m in member.masks)
        held = held and (case != "ii" or hom.surjective) and (case != "iv" or hom.injective)
        if not held or not is_soft_gamma_semiring(side, member):
            return _VACUOUS
    result = soft_image_under_hom(hom, member) if forward else soft_preimage_under_hom(hom, member)
    shape = is_trivial_soft if case in ("i", "iv") else is_whole_soft
    if shape(other, result) and is_soft_gamma_semiring(other, result):
        return _PASS
    # an enforced failure names the broken conclusion; a dropped one shows the result
    extra = {flag: True} if enforce else None
    return "fail", lambda: _dump(
        inst, f"trivial-whole-{case}", [member], None if enforce else result, extra=extra
    )


# the drop-hypothesis family that four rows of the necessity column share
_ZN8 = InstanceSpec(generator="zn", size=(8,), gamma=(2, 4, 6))

_TABLE = (
    Law("T3.4", "closed", "restricted-intersection", 2, family_size=2, same_parameters=True),
    Law("T3.6", "closed", "restricted-intersection", anchored=True),
    Law("T3.7", "closed", "extended-intersection", necessity=_ZN8),
    Law("T3.8", "closed", "restricted-union", necessity=_ZN8, anchored=True, chain=True),
    Law("T3.9", "closed", "extended-union",
        necessity=InstanceSpec(generator="zn", size=(6,), gamma=(1,)), disjoint=True),
    Law("T3.10", "closed", "and-intersection", 2, family_size=2),
    Law("T3.11", "closed", "and-intersection"),
    Law("T3.12", "closed", "or-union",
        necessity=InstanceSpec(generator="minmax", size=(5,), gamma=(1, 2, 3)), chain=True),
    Law("T3.13", "closed", "cartesian-product", over="product", family_size=2),
    Law("L3.16", "hom-transport", with_hom=True),
    Law("T3.17i", "trivial-whole", necessity=_ZN8, with_hom=True, family_size=1, value_policy="kernel"),
    Law("T3.17ii", "trivial-whole", with_hom=True, family_size=1, value_policy="whole"),
    Law("T3.17iii", "trivial-whole",
        with_hom=True, target_side=True, family_size=1, value_policy="carrier-image"),
    Law("T3.17iv", "trivial-whole",
        with_hom=True, target_side=True, family_size=1, value_policy="trivial", hom_kind="identity"),
    Law("T4.2", "outer", "soft-subsemiring-of", 1, necessity=_ZN8, nested=True, family_size=1),
    Law("T4.3", "members", "restricted-intersection", 2, family_size=2, anchored=True),
    Law("T4.4", "outer", "restricted-intersection", nested=True, anchored=True),
    Law("T4.5", "outer", "restricted-intersection", nested=True, anchored=True, same_parameters=True),
    Law("T4.6", "outer", "extended-intersection", nested=True),
    Law("T4.7", "outer", "restricted-union",
        necessity=InstanceSpec(generator="matrix", size=(2, 1, 2)), nested=True, anchored=True, chain=True),
    Law("T4.8", "outer-op", "or-union", nested=True, chain=True, chain_outer=True),
    Law("T4.9", "outer-op", "and-intersection", nested=True),
    Law("T4.10", "outer-op", "cartesian-product", over="product", nested=True, family_size=2),
    Law("T4.11", "outer-op", "hom-image", 1, "target", nested=True, family_size=1, with_hom=True),
    Law("T4.12", "outer-op", "hom-preimage", 1, "source",
        nested=True, family_size=1, with_hom=True, target_side=True),
)

_LAWS = {law.theorem_id: law for law in _TABLE}

ALL_THEOREMS = tuple(_LAWS)

# the necessity column: law id -> its pinned drop-hypothesis family, in table order
NECESSITY_TEMPLATES = {tid: law.necessity for tid, law in _LAWS.items() if law.necessity is not None}

# T4.5 is T4.4 on shared parameter sets; the acceptance suite covers it through T4.4
ACCEPTANCE_THEOREMS = tuple(tid for tid in ALL_THEOREMS if tid != "T4.5")


def _lookup(theorem_id: str) -> Law:
    try:
        return _LAWS[theorem_id]
    except KeyError:
        raise InputError(f"unknown theorem id {theorem_id!r}") from None


def _verdict(theorem_id: str, outcomes) -> TheoremVerdict:
    """Tally (trial, spec, outcome) triples; build the counterexample of the
    lowest failing trial only."""
    counts = {"pass": 0, "vacuous": 0, "fail": 0}
    counterexample = None
    for trial, spec, (outcome, deferred) in outcomes:
        counts[outcome] += 1
        if outcome == "fail" and counterexample is None:
            counterexample = {"theorem": theorem_id, "trial": trial, "seed": spec.seed}
            counterexample.update(deferred())
    return TheoremVerdict(
        theorem=theorem_id,
        trials=sum(counts.values()),
        passes=counts["pass"],
        vacuous=counts["vacuous"],
        failures=counts["fail"],
        counterexample=counterexample,
    )


def check_theorem(theorem_id: str, instance: Instance) -> TheoremVerdict:
    """Evaluate one law's conclusion on one instance.

    Structural gates (undefined operations, null soft sets, parameter-shape
    hypotheses) yield a vacuous verdict; value-level hypothesis violations
    evaluate the conclusion honestly, so a non-hypothesis instance can fail.
    An instance without the homomorphism, the enclosing soft set or the
    member that the law reads is an InputError.
    """
    law = _lookup(theorem_id)
    if law.flags.get("with_hom") and instance.hom is None:
        raise InputError(f"{theorem_id} reads a homomorphism, and the instance has none")
    if law.conclusion in ("outer", "outer-op") and instance.outer is None:
        raise InputError(f"{theorem_id} reads an enclosing soft set, and the instance has none")
    # the single-member rows and the two laws with checkers of their own index the first member
    if not instance.soft_sets and (law.reads == 1 or law.conclusion in ("hom-transport", "trivial-whole")):
        raise InputError(f"{theorem_id} reads a member, and the instance has none")
    return _verdict(theorem_id, [(0, instance.spec, law.evaluate(instance, True))])


def check_trivial_whole_theorem(hom: GammaHom, ss: SoftSet, case: str) -> TheoremVerdict:
    """check_theorem for T3.17 case (i, ii, iii or iv; see _check_trivial_whole)
    on ss, a soft set over the source of hom in cases i and ii, its target in iii and iv."""
    spec = InstanceSpec(target_side=case in ("iii", "iv"))
    return check_theorem(f"T3.17{case}", Instance(hom.source, [ss], hom=hom, spec=spec))


def fuzz_theorem(
    theorem_id: str,
    trials: int,
    template: InstanceSpec | None = None,
    drop_hypothesis: bool = False,
) -> TheoremVerdict:
    """Run seeded trials template.seed .. template.seed+trials-1.

    With drop_hypothesis the hypothesis-enforcing policies are disabled (see
    Law.spec): the plain closure laws draw arbitrary subsets as values, the
    nested containment laws keep subalgebra values but no longer confine
    members to the enclosing soft set.  The checks then report honest
    conclusion failures; the recorded counterexample is the one from the
    lowest failing trial.

    The spec is checked once, before trial 0; per trial one random.Random is
    reseeded and only the draws are made.  Trial t evaluates exactly
    generate_instance(replace(base, seed=template.seed + t)).
    """
    _count(trials, "trials")
    law = _lookup(theorem_id)
    template = template if template is not None else InstanceSpec()
    # the law's policy never touches the seed, so it is applied and checked once
    base = law.spec(template, drop_hypothesis)
    pinned = _check_spec(base)
    rng = random.Random()
    enforce = not drop_hypothesis

    def outcomes():
        for t in range(trials):
            seed = template.seed + t
            rng.seed(seed)  # the state random.Random(seed) starts in
            spec = _reseeded(base, seed)
            yield t, spec, law.evaluate(_draw_instance(spec, pinned, rng), enforce)

    return _verdict(theorem_id, outcomes())
