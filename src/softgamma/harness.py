"""Seeded instance generation and mechanical checking of the closure laws.

Each law is one row of a table (Law, _TABLE): the names of its hypotheses,
the InstanceSpec fields it fixes outright (family_size, hom, target_side),
the operation, which fixes the structure its conclusion is judged over, the
members it reads, and the conclusion; Law.evaluate checks every row.  Each
hypothesis is defined once, in _HYPOTHESES: a predicate on an instance
(values that are subalgebras, value chains, disjoint or shared parameter
sets, a common parameter, members nested in an enclosing soft set, an onto
or injective homomorphism, the forced values of T3.17, an auxiliary target
member of subalgebra values), the generation policy fields that realize it,
and those that drop it.  A trial verdict is:

  pass     the conclusion held;
  vacuous  the instance missed a named hypothesis (check_theorem only), the
           operation or a predicate precondition was undefined on it, a
           required soft set was null, a closure conclusion's result was
           null, or a "trivial" conclusion's structure has no zero;
  fail     the conclusion was evaluated and did not hold (a shape
           conclusion judges a null result: it is neither trivial nor
           whole); the lowest failing trial's replayable counterexample
           document, which names the row's operation, is built.

check_theorem judges every named hypothesis before the conclusion, so a
failure is a counterexample to the law, never a missed hypothesis.
fuzz_theorem judges none per trial: its draws realize every hypothesis by
construction, and a draw that missed one would be a generator bug.  With
drop_hypothesis, each hypothesis's dropping fields replace its realizing
ones: the plain closure laws then draw values as arbitrary subsets, while
the nested containment laws keep subalgebra values (so their preconditions
stay evaluable) and stop confining members to the enclosing soft set
(nested "free" for "confined"); the conclusion is then evaluated honestly,
which demonstrates that a hypothesis is necessary.

Randomness comes from random.Random (MT19937) seeded per trial with
template.seed + trial_index.  generate_instance is _check_spec, which
validates a spec without drawing, then _draw_instance, which holds the draw
order that is part of the determinism contract: descriptor (family, n, gamma
set; see _draw_descriptor), chain order (chain policies only), outer
parameters and values, then per member its parameters and values, then the
auxiliary target-side member.  fuzz_theorem checks its template and its
spec once and calls _draw_instance per trial.  Every bounded
integer (a choice, a size, a sample index, a shuffle swap) is drawn by
_below straight from getrandbits, so the draw order rests only on seeding
and the MT19937 output words, not on the random.Random sample, choice,
shuffle and randint algorithms, which the random docs do not promise to
keep across versions.  _below reads the words those methods read in
CPython 3.10 and 3.11; tests/test_draws.py holds the stdlib draws as the
oracle.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import lru_cache

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
from .reports import Record, TheoremVerdict, Witness
from .soft_gamma import (
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


class InstanceSpec(Record):
    """Seed-determined recipe for one fuzzing instance.

    generator "mix" rotates among the three structure families and takes no
    size or gamma; on zn and minmax they pin down (n,) and the gamma set (an
    int collection, read ascending without repeats; empty means a seeded
    random nonempty subset), on matrix size pins (p, rows, cols) and gamma
    must be empty.  family_size None draws 1..3 members; the parameter pool,
    the per-member parameter cap and the empty-value rate are the module
    constants _PARAMETER_POOL, _MAX_PARAMETERS and _EMPTY_RATE.  Policies:
    value_policy selects where values come from; chain "members" forces all
    drawn member values into one containment chain, "members-and-outer" the
    enclosing soft set's values too; disjoint gives members pairwise
    disjoint parameter sets; same_parameters gives them all the first
    member's parameters; anchored forces a common parameter; nested draws
    members inside an enclosing soft set, "confined" to its parameters and
    values, "free" to its parameters alone; hom attaches the family's
    canonical surjective homomorphism ("collapse") or the identity
    ("identity", built per instance); target_side moves generation to the
    homomorphism target, which the carrier-image policy requires and the
    kernel policy refuses.  chain, nested and hom are None when off.
    """

    generator: str
    size: tuple[int, ...]
    gamma: tuple[int, ...]
    family_size: int | None
    value_policy: str
    chain: str | None
    disjoint: bool
    same_parameters: bool
    anchored: bool
    nested: str | None
    hom: str | None
    target_side: bool
    seed: int

    def __init__(
        self, generator="mix", size=(), gamma=(), family_size=None, value_policy="subsemirings", chain=None,
        disjoint=False, same_parameters=False, anchored=False, nested=None, hom=None, target_side=False, seed=0,
    ):
        self.__dict__.update(
            generator=generator, size=size, gamma=gamma, family_size=family_size, value_policy=value_policy,
            chain=chain, disjoint=disjoint, same_parameters=same_parameters, anchored=anchored, nested=nested,
            hom=hom, target_side=target_side, seed=seed,
        )

    def replace(self, **changes) -> InstanceSpec:
        """A copy with the named fields changed; TypeError for a name that is
        no field.  __init__ checks nothing and a spec's __dict__ holds its
        fields alone, so copying that __dict__ is the same as calling
        __init__, and cheap enough for the trial loop to run per trial."""
        spec = object.__new__(type(self))
        fields = spec.__dict__
        fields.update(self.__dict__, **changes)
        if len(fields) != len(self._fields):
            unknown = next(name for name in changes if name not in self._fields)
            raise TypeError(f"{type(self).__name__} has no field {unknown!r}")
        return spec


class Instance(Record):
    """A generated (or hand-built) instance: structure, soft sets, extras.

    spec None stands for InstanceSpec().  soft_sets is a list, so an
    instance compares by value but has no hash.
    """

    gs: GammaSemiring
    soft_sets: list[SoftSet]
    outer: SoftSet | None
    hom: GammaHom | None
    aux_target: SoftSet | None
    descriptor: tuple
    spec: InstanceSpec

    def __init__(self, gs, soft_sets, outer=None, hom=None, aux_target=None, descriptor=("custom",), spec=None):
        self.__dict__.update(
            gs=gs, soft_sets=soft_sets, outer=outer, hom=hom, aux_target=aux_target, descriptor=descriptor,
            spec=InstanceSpec() if spec is None else spec,
        )

    @property
    def side_gs(self) -> GammaSemiring:
        if self.spec.target_side and self.hom is not None:
            return self.hom.target
        return self.gs


_VALUE_POLICIES = ("subsemirings", "arbitrary", "kernel", "whole", "carrier-image", "trivial")
_POLICIES = {
    "chain": (None, "members", "members-and-outer"),
    "nested": (None, "confined", "free"),
    "hom": (None, "collapse", "identity"),
}

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
    return tuple([i for i in range(n) if bits >> i & 1])


# the descriptor a mix draw of matrix, or an unpinned matrix spec, resolves to
_MATRIX_DEFAULT = ("matrix", 2, 1, 2)


def _check_spec(spec: InstanceSpec) -> tuple:
    """Every check of a spec that reads no random draw, in generate_instance's
    order; returns what the spec pins of the descriptor for _draw_descriptor:
    ("mix",), (kind, n or None, gamma or ()) on zn and minmax, or the whole
    matrix descriptor.  The seed is only checked: an exact int of at least 0,
    since random.Random(-s) draws what random.Random(s) draws."""
    if spec.family_size is not None:
        _count(spec.family_size, "family_size")
    if spec.value_policy not in _VALUE_POLICIES:
        raise InputError(f"unknown value policy {spec.value_policy!r}")
    for name, values in _POLICIES.items():
        if getattr(spec, name) not in values:
            raise InputError(f"unknown {name} policy {getattr(spec, name)!r}")
    # an exact bool: a truthy string or number would switch the policy on
    for name in ("disjoint", "same_parameters", "anchored", "target_side"):
        if type(getattr(spec, name)) is not bool:
            raise InputError(f"spec {name} must be True or False, got {getattr(spec, name)!r}")
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
    if spec.target_side and not spec.hom:
        raise GenerationError("target_side generation requires a homomorphism")
    # the kernel is a mask over the source, the carrier image one over the target
    if spec.value_policy == "kernel" and spec.target_side:
        raise InputError("the kernel value policy gives source values; it takes no target_side")
    if spec.value_policy == "carrier-image" and spec.hom and not spec.target_side:
        raise InputError("the carrier-image value policy gives target values; it requires target_side")
    if spec.value_policy in ("kernel", "carrier-image") and not spec.hom:
        raise GenerationError(f"{spec.value_policy} value policy requires a homomorphism")
    _count(spec.seed, "seed", minimum=0)
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
        m = max((d for d in range(1, n) if n % d == 0), default=1)
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
    idxs.sort()
    return tuple([pool[i] for i in idxs])


def _forced_mask(policy: str, side: GammaSemiring, hom) -> int | None:
    """The one value every member over side takes under a forced value
    policy; None when values are drawn.  _check_spec has made sure that
    the kernel and carrier-image policies come with a homomorphism."""
    if policy == "kernel":
        return hom.source.subset_mask(kernel(hom))
    if policy == "whole":
        return side.full_mask
    if policy == "carrier-image":
        return hom.image_mask(hom.source.full_mask)
    if policy == "trivial":
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


def _draw_instance(spec: InstanceSpec, pinned: tuple, rng: random.Random) -> Instance:
    """The instance of a spec that passed _check_spec, which returned pinned,
    from rng seeded with spec.seed.  Every random draw of an instance is made
    here, in the order the determinism contract fixes.  The soft sets are
    built unchecked: their universe is a structure's carrier, their
    parameters distinct labels of the pool, and every value a subset mask of
    that carrier."""
    descriptor = _draw_descriptor(pinned, rng)
    gs = base_structure(descriptor)
    policy, chain, nested, anchored = spec.value_policy, spec.chain, spec.nested, spec.anchored
    hom = None
    if spec.hom:
        # identity homomorphisms are cheap to build, so only the collapses are cached
        hom = identity_hom(gs) if spec.hom == "identity" else canonical_hom(descriptor)
    side = hom.target if spec.target_side else gs

    forced = _forced_mask(policy, side, hom)
    # a subalgebra list may be too long to enumerate, so it is read only for
    # a chain or for values picked from it: drawn under any policy but "arbitrary"
    picked = policy != "arbitrary"
    subs = side.sub_masks if chain or picked and forced is None else ()
    # the full carrier is closed and a chain keeps the first mask drawn, so a chain is never empty
    chain_pool = _draw_chain(rng, subs) if chain else None
    value_candidates = chain_pool if chain else subs
    outer_candidates = chain_pool if chain == "members-and-outer" else subs

    outer = None
    if nested:
        oparams = _draw_parameters(rng, _PARAMETER_POOL, len(_PARAMETER_POOL), anchored)
        omasks = tuple([_draw_value(rng, spec, side, outer_candidates) if forced is None else forced for _ in oparams])
        outer = SoftSet._unchecked(side.elements, oparams, omasks)

    k = spec.family_size if spec.family_size is not None else 1 + _below(rng.getrandbits, 3)
    members: list[SoftSet] = []
    params: tuple | None = None
    # a confined member's value at w is a candidate inside the outer's value at w
    confined = dict(zip(oparams, omasks)) if nested == "confined" and policy == "subsemirings" else None
    for index in range(k):
        if nested:
            pool = oparams
        elif spec.disjoint:
            pool = tuple([f"{name}{index}" for name in _PARAMETER_POOL])
        else:
            pool = _PARAMETER_POOL
        if params is None or not spec.same_parameters:
            params = _draw_parameters(rng, pool, _MAX_PARAMETERS, anchored)
        if forced is not None:
            masks = (forced,) * len(params)
        elif confined is None:
            masks = tuple([_draw_value(rng, spec, side, value_candidates) for _ in params])
        else:
            masks = tuple([
                _draw_value(rng, spec, side, [m for m in value_candidates if m & ~confined[w] == 0]) for w in params
            ])
        members.append(SoftSet._unchecked(side.elements, params, masks))

    aux_target = None
    if hom is not None and not spec.target_side:
        target = hom.target
        params = _draw_parameters(rng, _PARAMETER_POOL, _MAX_PARAMETERS, anchored)
        masks = tuple([_draw_value(rng, spec, target, target.sub_masks if picked else ()) for _ in params])
        aux_target = SoftSet._unchecked(target.elements, params, masks)

    return Instance(gs, members, outer, hom, aux_target, descriptor, spec)


def _descriptor_name(descriptor: tuple) -> str:
    return "-".join(",".join(map(str, part)) if isinstance(part, tuple) else str(part) for part in descriptor)


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


# the shape conclusions: every value of the result is {zero}, or the whole carrier
_SHAPES: dict[str, Callable] = {"trivial": is_trivial_soft, "whole": is_whole_soft}


# the operations a law row names, each with the structure its result is
# judged over: the members' side, its k-fold product for k members (judged
# from the side's tables, never built), or the homomorphism's target or
# source; hom-image and hom-preimage take (hom, soft set)
_OPS: dict[str, tuple[Callable, str]] = {
    "restricted-intersection": (restricted_intersect, "side"),
    "extended-intersection": (extended_intersect, "side"),
    "restricted-union": (restricted_union, "side"),
    "extended-union": (extended_union, "side"),
    "and-intersection": (and_intersect_family, "side"),
    "or-union": (or_union_family, "side"),
    "cartesian-product": (cartesian_product, "product"),
    "hom-image": (soft_image_under_hom, "target"),
    "hom-preimage": (soft_preimage_under_hom, "source"),
}


def _closed(side: GammaSemiring, ss: SoftSet) -> bool:
    """Every nonempty value of ss is a subalgebra of side; a null ss passes (evaluate's null gates judge it)."""
    return ss.is_null() or bool(is_soft_gamma_semiring(side, ss))


def _is_chain(masks) -> bool:
    """The masks are pairwise comparable: ordered by size, each lies inside the next."""
    ordered = sorted(set(masks), key=int.bit_count)
    return all(a & ~b == 0 for a, b in zip(ordered, ordered[1:]))


def _nested(inst: Instance, members) -> bool:
    """The outer and every member are closed over the side, and every member
    is a soft subset of the outer.  The outer is judged first, so an outer off
    the side's carrier is an InputError whatever the members hold."""
    side, outer = inst.side_gs, inst.outer
    return _closed(side, outer) and all(_closed(side, m) and _subset_witness(m, outer) for m in members)


def _forced_values(policy: str, over: str) -> Callable:
    """A T3.17 case's value hypothesis: every member is a soft gamma-semiring
    over the homomorphism's `over` side, the side its case fixes, and every
    value is the mask the forced value policy gives (a trivial one needs a
    zero).  A member off that side's carrier is an InputError."""

    def holds(inst: Instance, members) -> bool:
        side = getattr(inst.hom, over)
        if not all(is_soft_gamma_semiring(side, m) for m in members) or policy == "trivial" and side.zero is None:
            return False
        mask = _forced_mask(policy, side, inst.hom)
        return all(v == mask for m in members for v in m.masks)

    return holds


# The named hypotheses: name -> (holds, realize, drop).  holds(inst, members)
# judges the hypothesis on an instance and the members its row reads; realize
# are the InstanceSpec fields whose draws meet it by construction, drop the
# fields a drop-hypothesis run sets instead, None when no drop removes it.
# Realizing fields also switch off a template's policy that would break the
# hypothesis (nested or shared parameters break disjointness, disjoint pools
# a common parameter).  onto and injective are realized by the row's hom:
# collapses are onto, the identity both.  The nested laws keep subalgebra
# values under drop, so their conclusions stay defined, and draw members
# free of the outer's values.
_HYPOTHESES: dict[str, tuple[Callable, dict, dict | None]] = {
    "values": (lambda inst, ms: all(_closed(inst.side_gs, m) for m in ms), {"value_policy": "subsemirings"},
               {"value_policy": "arbitrary"}),
    "chain": (lambda inst, ms: _is_chain(v for m in ms for v in m.masks), {"chain": "members"}, {"chain": None}),
    "chain-outer": (lambda inst, ms: _is_chain(v for m in (inst.outer, *ms) for v in m.masks),
                    {"chain": "members-and-outer"}, {"chain": None}),
    # a member's parameters are distinct, so the sets are disjoint when their sizes sum to their union's
    "disjoint": (lambda inst, ms: len(set().union(*(m.parameters for m in ms))) == sum(len(m.parameters) for m in ms),
                 {"disjoint": True, "nested": None, "same_parameters": False}, {"disjoint": False}),
    "same-parameters": (lambda inst, ms: len({frozenset(m.parameters) for m in ms}) == 1,
                        {"same_parameters": True}, {"same_parameters": False}),
    "anchored": (lambda inst, ms: bool(set(ms[0].parameters).intersection(*(m.parameters for m in ms))),
                 {"anchored": True, "disjoint": False}, None),
    "nested": (_nested, {"nested": "confined", "value_policy": "subsemirings"},
               {"nested": "free", "value_policy": "subsemirings"}),
    # the auxiliary target member whose preimage L3.16 reads
    "target-values": (lambda inst, ms: inst.aux_target is None or _closed(inst.hom.target, inst.aux_target),
                      {"value_policy": "subsemirings"}, {"value_policy": "arbitrary"}),
    "onto": (lambda inst, ms: inst.hom.surjective, {}, None),
    "injective": (lambda inst, ms: inst.hom.injective, {}, None),
    **{
        f"{policy}-values": (_forced_values(policy, over), {"value_policy": policy}, {"value_policy": "arbitrary"})
        for policy, over in (("kernel", "source"), ("whole", "source"),
                             ("carrier-image", "target"), ("trivial", "target"))
    },
}


class Law:
    """One closure law as a row of data.

    hypotheses names the law's hypotheses, entries of _HYPOTHESES: spec()
    realizes them in the draw, missed() judges them on an instance.  flags
    fix the InstanceSpec fields family_size, hom and target_side outright, in
    both modes.  The operation (one of _OPS, else the first member itself) is
    applied to the first `reads` members, or all when None, and its result is
    judged over the structure _OPS pairs with the operation, else over the
    members' side.  The conclusion is that the result is "closed", or a soft
    sub-gamma-semiring of the "outer" soft set, of the operation applied to
    copies of the outer ("outer-op"), or of each of the "members"; or that
    it has a shape, "trivial" (every value is {zero}) or "whole" (every
    value is the carrier), and is a soft gamma-semiring.  Only L3.16
    ("hom-transport") has a checker of its own.  necessity pins the
    structure family on which fuzzing with the hypotheses dropped finds a
    counterexample, showing they are needed.  T4.3, like T4.5, has no
    necessity family, and it cannot have one: the intersection of two
    subalgebras is a subalgebra, so its hypothesis is exactly the condition
    under which its conclusion is defined, and dropping it can only make
    trials vacuous.
    """

    def __init__(
        self,
        theorem_id: str,
        hypotheses: tuple[str, ...],
        conclusion: str,
        operation: str = "",
        reads: int | None = None,
        necessity: InstanceSpec | None = None,
        **flags,
    ):
        self.theorem_id = theorem_id
        self.hypotheses = hypotheses
        self.conclusion = conclusion
        self.operation = operation
        self.reads = reads
        self.necessity = necessity
        self.flags = flags
        # an operation outside _OPS is the first member itself, judged over the side
        self._op = _OPS.get(operation, (None, "side"))

    def spec(self, template: InstanceSpec, drop: bool) -> InstanceSpec:
        """template with the row's flags and each hypothesis's realizing fields, or dropping ones under drop."""
        updates = dict(self.flags)
        for name in self.hypotheses:
            _, realize, dropped = _HYPOTHESES[name]
            updates.update(dropped if drop and dropped is not None else realize)
        return template.replace(**updates)

    def _members(self, inst: Instance) -> list[SoftSet]:
        return inst.soft_sets if self.reads is None else inst.soft_sets[: self.reads]

    def missed(self, inst: Instance) -> str | None:
        """The first of the row's hypotheses that inst misses, None when it
        meets them all."""
        members = self._members(inst)
        return next((name for name in self.hypotheses if not _HYPOTHESES[name][0](inst, members)), None)

    def _apply(self, inst: Instance, family) -> SoftSet:
        function, judged = self._op
        if judged in ("target", "source"):
            return function(inst.hom, family[0])
        return function(family)

    def evaluate(self, inst: Instance) -> Outcome:
        if self.conclusion == "hom-transport":
            return _check_hom_transport(inst)
        members = self._members(inst)
        for ss in (inst.outer, *members) if self.conclusion in ("outer", "outer-op") else members:
            if not any(ss.masks):  # a null soft set
                return _VACUOUS
        function, judged = self._op
        if function is not None:
            try:
                result = self._apply(inst, members)
            except DomainError:
                return _VACUOUS
            # a null result leaves a closure conclusion vacuous; a shape judges it
            if not any(result.masks) and self.conclusion not in _SHAPES:
                return _VACUOUS
            shown = result
        else:
            result, shown = members[0], None
        k = len(members)
        arity = k if judged == "product" else None
        if judged in ("side", "product"):
            over = inst.side_gs
        else:
            over = getattr(inst.hom, judged)  # the homomorphism's target or source

        if self.conclusion in _SHAPES:
            # a trivial soft set is defined by the zero, so without one the shape is undefined
            if self.conclusion == "trivial" and over.zero is None:
                return _VACUOUS
            if _SHAPES[self.conclusion](over, result) and is_soft_gamma_semiring(over, result):
                return _PASS
            return "fail", lambda: _dump(inst, self.operation, members, result)

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


# the drop-hypothesis family that four rows of the necessity column share
_ZN8 = InstanceSpec(generator="zn", size=(8,), gamma=(2, 4, 6))

_TABLE = (
    Law("T3.4", ("values", "same-parameters"), "closed", "restricted-intersection", 2, family_size=2),
    Law("T3.6", ("values", "anchored"), "closed", "restricted-intersection"),
    Law("T3.7", ("values",), "closed", "extended-intersection", necessity=_ZN8),
    Law("T3.8", ("values", "chain", "anchored"), "closed", "restricted-union", necessity=_ZN8),
    Law("T3.9", ("values", "disjoint"), "closed", "extended-union",
        necessity=InstanceSpec(generator="zn", size=(6,), gamma=(1,))),
    Law("T3.10", ("values",), "closed", "and-intersection", 2, family_size=2),
    Law("T3.11", ("values",), "closed", "and-intersection"),
    Law("T3.12", ("values", "chain"), "closed", "or-union",
        necessity=InstanceSpec(generator="minmax", size=(5,), gamma=(1, 2, 3))),
    Law("T3.13", ("values",), "closed", "cartesian-product", family_size=2),
    Law("L3.16", ("values", "target-values"), "hom-transport", reads=1, hom="collapse"),
    Law("T3.17i", ("kernel-values",), "trivial", "hom-image", 1, necessity=_ZN8, hom="collapse", family_size=1),
    Law("T3.17ii", ("whole-values", "onto"), "whole", "hom-image", 1, hom="collapse", family_size=1),
    Law("T3.17iii", ("carrier-image-values",), "whole", "hom-preimage", 1,
        hom="collapse", target_side=True, family_size=1),
    Law("T3.17iv", ("trivial-values", "injective"), "trivial", "hom-preimage", 1,
        hom="identity", target_side=True, family_size=1),
    Law("T4.2", ("nested",), "outer", "soft-subsemiring-of", 1, necessity=_ZN8, family_size=1),
    Law("T4.3", ("values", "anchored"), "members", "restricted-intersection", 2, family_size=2),
    Law("T4.4", ("nested", "anchored"), "outer", "restricted-intersection"),
    Law("T4.5", ("nested", "anchored", "same-parameters"), "outer", "restricted-intersection"),
    Law("T4.6", ("nested",), "outer", "extended-intersection"),
    Law("T4.7", ("nested", "anchored", "chain"), "outer", "restricted-union",
        necessity=InstanceSpec(generator="matrix", size=(2, 1, 2))),
    Law("T4.8", ("nested", "chain-outer"), "outer-op", "or-union"),
    Law("T4.9", ("nested",), "outer-op", "and-intersection"),
    Law("T4.10", ("nested",), "outer-op", "cartesian-product", family_size=2),
    Law("T4.11", ("nested",), "outer-op", "hom-image", 1, family_size=1, hom="collapse"),
    Law("T4.12", ("nested",), "outer-op", "hom-preimage", 1, family_size=1, hom="collapse", target_side=True),
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
    except (KeyError, TypeError):
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

    An instance that misses one of the law's named hypotheses (see
    _HYPOTHESES) is vacuous, and so is one where the operation is undefined
    or a soft set the law reads is null; otherwise the conclusion is judged,
    so a failure is a counterexample to the law.  An instance whose fields
    have the wrong types, or without the homomorphism, the enclosing soft set
    or the member that the law reads, is an InputError, raised before any
    hypothesis is judged; so is a soft set off the carrier it is judged over.
    """
    law = _lookup(theorem_id)
    if not isinstance(instance, Instance):
        raise InputError(f"an instance must be an Instance, got {type(instance).__name__}")
    for name, kind, optional in (
        ("spec", InstanceSpec, False), ("gs", GammaSemiring, False), ("outer", SoftSet, True),
        ("hom", GammaHom, True), ("aux_target", SoftSet, True), ("descriptor", tuple, False),
    ):
        value = getattr(instance, name)
        if not (isinstance(value, kind) or optional and value is None):
            raise InputError(f"an instance's {name} must be of type {kind.__name__}, got {type(value).__name__}")
    members = instance.soft_sets
    if not isinstance(members, (list, tuple)) or not all(isinstance(m, SoftSet) for m in members):
        raise InputError("an instance's soft_sets must be a list of SoftSets")
    if law.flags.get("hom") and instance.hom is None:
        raise InputError(f"{theorem_id} reads a homomorphism, and the instance has none")
    if law.conclusion in ("outer", "outer-op") and instance.outer is None:
        raise InputError(f"{theorem_id} reads an enclosing soft set, and the instance has none")
    if not members:
        raise InputError(f"{theorem_id} reads a member, and the instance has none")
    outcome = _VACUOUS if law.missed(instance) else law.evaluate(instance)
    return _verdict(theorem_id, [(0, instance.spec, outcome)])


def check_trivial_whole_theorem(hom: GammaHom, ss: SoftSet, case: str) -> TheoremVerdict:
    """check_theorem for T3.17 case i, ii, iii or iv on ss, a soft set over
    the source of hom in cases i and ii, its target in iii and iv:

    case i:   all values equal ker(f)      -> the image is trivial;
    case ii:  f onto, input whole          -> the image is whole;
    case iii: all values equal f(carrier)  -> the preimage is whole;
    case iv:  f injective, input trivial   -> the preimage is trivial.

    Each hypothesis also asks the member, and each conclusion the result, to
    be a soft gamma-semiring.
    """
    spec = InstanceSpec(target_side=case in ("iii", "iv"))
    return check_theorem(f"T3.17{case}", Instance(hom.source, [ss], hom=hom, spec=spec))


def fuzz_theorem(
    theorem_id: str,
    trials: int,
    template: InstanceSpec | None = None,
    drop_hypothesis: bool = False,
) -> TheoremVerdict:
    """Run seeded trials template.seed .. template.seed+trials-1.

    Each trial's draw realizes the law's hypotheses by construction (see
    Law.spec), so no hypothesis is judged per trial; a draw that missed one
    would be a generator bug.  With drop_hypothesis each hypothesis's
    dropping fields replace its realizing ones: the plain closure laws draw
    arbitrary subsets as values, the nested containment laws keep subalgebra
    values but no longer confine members to the enclosing soft set.  The
    checks then report honest conclusion failures; the recorded
    counterexample is the one from the lowest failing trial.

    The template and the law's spec are checked once, before trial 0, so a
    malformed field is refused even where the law's spec replaces it; per
    trial one random.Random is reseeded and only the draws are made.  Trial
    t evaluates exactly generate_instance(base.replace(seed=template.seed + t)).
    """
    _count(trials, "trials")
    law = _lookup(theorem_id)
    if template is None:
        template = InstanceSpec()
    elif not isinstance(template, InstanceSpec):
        raise InputError(f"a template must be an InstanceSpec, got {type(template).__name__}")
    _check_spec(template)
    # the law's spec never touches the seed, so it is applied and checked once
    base = law.spec(template, drop_hypothesis)
    pinned = _check_spec(base)
    rng = random.Random()
    reseed, replace, draw, evaluate, first = rng.seed, base.replace, _draw_instance, law.evaluate, template.seed

    def outcomes():
        for t in range(trials):
            reseed(first + t)  # the state random.Random(first + t) starts in
            spec = replace(seed=first + t)
            yield t, spec, evaluate(draw(spec, pinned, rng))

    return _verdict(theorem_id, outcomes())
