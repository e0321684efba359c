"""Seeded instance generation and mechanical checking of the closure laws.

Each law is one row of a table (Law, _TABLE): the names of its hypotheses,
the InstanceSpec fields it fixes outright (family_size, hom, target_side),
its operations, each fixing the structure its result is judged over, the
members it reads, and the conclusion.  Each hypothesis is defined once, in
_HYPOTHESES.  A trial verdict is:

  pass     the conclusion held (in L3.16's row of two operations: for one
           at least, and failed for none);
  vacuous  the instance missed a named hypothesis (check_theorem only), the
           operation was undefined on it, a required soft set was null or,
           for L3.16's auxiliary target member, absent, a closure
           conclusion's result was null, a containment conclusion's bound
           was not a soft gamma-semiring, or a "trivial" conclusion's
           structure has no zero;
  fail     the conclusion was evaluated and did not hold (a shape
           conclusion judges a null result: it is neither trivial nor
           whole; a containment conclusion whose bounds are all soft
           gamma-semirings fails on a result that is not one, with its
           closure witness); the lowest failing trial's replayable
           counterexample document, which names the row's operation and
           the side its members lie over, is built.

Law.evaluate reads each soft set's (parameters, masks) pair once for
Law._judge, which applies each operation's mask-level core (the one its
public function wraps) and reads closure from the structure's memo, building
no SoftSet or Witness; a failure defers its document to Law._counterexample,
which rebuilds the result and witness through the public functions.
check_theorem checks every soft set's carrier, then judges every named
hypothesis before the conclusion; fuzz_theorem judges none per trial.

Randomness is the MT19937 output words of random.Random(template.seed +
trial_index), read in order from _stream, one stream per trial.  A _Plan
checks a spec once (_check_spec, which draws nothing) and resolves it for
drawing; _draw_instance holds the draw order that is part of the
determinism contract: descriptor (family, n, gamma set; see
_draw_descriptor), chain (chain policies only), outer parameters and
values, then per member its parameters and values, then the auxiliary
target-side member.  Only _bits and _below read words, _bits as getrandbits
does and _below (a uniform integer below n) as randrange does in CPython
3.10 and 3.11, so no draw rests on a stdlib sampling algorithm;
tests/test_draws.py holds randrange oracles of the draws, and checks that
the parameter and chain draws keep the exact distributions of the
random.sample and random.shuffle draws they replaced.  The laws of a run
reuse each trial seed's first words (_head) and drawn descriptor
(_opening), and a descriptor pinned whole reads no word, so its plan holds it.
"""

from __future__ import annotations

import itertools
import operator
import random
import sys
from array import array
from collections.abc import Callable, Iterator
from functools import lru_cache, partial

from . import files
from .algebra import (
    GammaHom, GammaSemiring, _closure_verdict, _collection, _count, _product_size, _require_hom, gamma_hom,
    identity_hom,
)
from .errors import DomainError, GenerationError, InputError, _require_type
from .generators import _integer_gamma, make_matrix_gamma, make_minmax_gamma, make_zn_gamma
from .reports import Record, TheoremVerdict, Witness
from .soft_gamma import (
    _pointwise, _require_carrier, is_soft_gamma_semiring, soft_image_under_hom, soft_preimage_under_hom,
)
from .soft_sets import (
    SoftSet, _extended, _restricted, _spread, _subset_witness, _tabular, and_intersect_family, cartesian_product,
    extended_intersect, extended_union, or_union_family, restricted_intersect, restricted_union,
)


class InstanceSpec(Record):
    """Seed-determined recipe for one fuzzing instance.

    generator "mix" rotates among the three structure families and takes no
    size or gamma; on zn and minmax they pin down (n,) and the gamma set (an
    int collection, read ascending without repeats; empty means a seeded
    random nonempty subset), on matrix size pins (p, rows, cols) and gamma
    must be empty.  family_size None draws 1..3 members; the parameter pool,
    the per-member parameter cap and the empty-value rate are the module
    constants _PARAMETER_POOL, _MAX_PARAMETERS and _EMPTY_ONE_IN.  Policies:
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
        return self.hom.target if self.spec.target_side and self.hom is not None else self.gs


_VALUE_POLICIES = ("subsemirings", "arbitrary", "kernel", "whole", "carrier-image", "trivial")
_POLICIES = {
    "chain": (None, "members", "members-and-outer"),
    "nested": (None, "confined", "free"),
    "hom": (None, "collapse", "identity"),
}

# members draw their parameters from _PARAMETER_POOL, at most _MAX_PARAMETERS
# each (the enclosing soft set may take the whole pool), and a drawn value is
# empty one time in _EMPTY_ONE_IN
_PARAMETER_POOL = ("a", "b", "c", "d")
_MAX_PARAMETERS = 3
_EMPTY_ONE_IN = 5

# entries kept by each of the structure and homomorphism caches; a 200-trial
# pass over every law on the mix generator needs under 100 structures
_CACHE_SIZE = 256

# _head keeps the first _HEAD words of each of the last _SEEDS trial seeds: a
# trial reads fewer than _HEAD words as a rule, and a 1000-trial run's seeds fit
_HEAD = 64
_SEEDS = 1024


@lru_cache(maxsize=_SEEDS)
def _head(seed: int) -> array:
    """The first _HEAD words of random.Random(seed) as 32-bit unsigned array
    entries, from one getrandbits, whose int holds word i at bits 32*i ..
    32*i + 31.  Each call seeds a generator of its own, so no two threads
    share a generator's state."""
    words = array("I", random.Random(seed).getrandbits(32 * _HEAD).to_bytes(4 * _HEAD, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _tail(seed: int) -> Iterator[int]:
    """The words of random.Random(seed) after its first _HEAD.  The body,
    which seeds a generator of its own, runs only when a trial reads past
    the head."""
    rng = random.Random(seed)
    rng.getrandbits(32 * _HEAD)
    bits = rng.getrandbits
    while True:
        yield bits(32)


def _stream(seed: int, start: int = 0) -> Iterator[int]:
    """The MT19937 output words of random.Random(seed) in order, what its
    getrandbits(32) returns call after call, from word start (at most _HEAD) on."""
    return itertools.chain(_head(seed)[start:], _tail(seed))


def _bits(word: Callable[[], int], k: int) -> int:
    """getrandbits(k) read from the words that word() returns: 0 for k = 0,
    which reads none, else ceil(k / 32) words, the first the least
    significant, the last cut to its top k - 32 * (words - 1) bits."""
    if k <= 32:
        return word() >> (32 - k) if k else 0
    r = shift = 0
    while k > 32:
        r |= word() << shift
        shift += 32
        k -= 32
    return r | word() >> (32 - k) << shift


def _below(word: Callable[[], int], n: int) -> int:
    """A uniform integer in 0..n-1, for n >= 1 only (n = 0 never ends):
    _bits(word, n.bit_length()) redrawn until it is below n, the words that
    random.Random's bounded draws read (CPython's _randbelow_with_getrandbits)."""
    k = n.bit_length()
    if k > 32:
        r = _bits(word, k)
        while r >= n:
            r = _bits(word, k)
        return r
    shift = 32 - k
    r = word() >> shift
    while r >= n:
        r = word() >> shift
    return r


def _random_gamma(word: Callable[[], int], n: int) -> tuple[int, ...]:
    bits = _bits(word, n)
    if bits == 0:
        bits = 1 << _below(word, n)
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


def _draw_descriptor(pinned: tuple, word: Callable[[], int]) -> tuple:
    """The structure descriptor: pinned (from _check_spec) completed by the
    draws of the family (mix), n and the gamma set, in that order."""
    kind = pinned[0]
    if kind == "mix":
        kinds = ("zn", "minmax", "matrix")
        kind = kinds[_below(word, len(kinds))]
        if kind == "matrix":
            return _MATRIX_DEFAULT
        pinned = (kind, None, ())
    elif kind == "matrix":
        return pinned
    n, gamma = pinned[1], pinned[2]
    if n is None:
        sizes = (4, 6, 8) if kind == "zn" else (3, 4, 5)
        n = sizes[_below(word, len(sizes))]
    return (kind, n, gamma or _random_gamma(word, n))


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


@lru_cache(maxsize=_SEEDS)
def _opening(pinned: tuple, seed: int) -> tuple[tuple, GammaSemiring, int]:
    """The descriptor that pinned (from _check_spec) completes from seed's
    words, its structure and how many words it read, drawn from a list
    iterator over _head(seed), whose length hint is the words left; one that
    reads past the head raises StopIteration, which leaves no entry."""
    words = iter(_head(seed).tolist())
    descriptor = _draw_descriptor(pinned, words.__next__)
    return descriptor, base_structure(descriptor), _HEAD - operator.length_hint(words)


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


def _draw_chain(word: Callable[[], int], subs: tuple[int, ...]) -> list[int]:
    """A maximal chain of the distinct masks subs, in the order picked: each
    pick is uniform among the masks comparable to every mask picked before."""
    chain: list[int] = []
    left = subs
    while left:
        m = left[_below(word, len(left))]
        chain.append(m)
        left = [c for c in left if c != m and (c & ~m == 0 or m & ~c == 0)]
    return chain


@lru_cache(maxsize=_CACHE_SIZE)
def _parameter_sets(pool: tuple, anchored: bool) -> tuple[tuple[tuple, ...], ...]:
    """Entry size - 1 lists the parameter sets of that size from pool, in
    pool order (under anchored only those that hold pool[0]), in the order
    itertools.combinations gives them."""
    return tuple(
        tuple([c for c in itertools.combinations(pool, size) if not anchored or c[0] == pool[0]])
        for size in range(1, len(pool) + 1)
    )


def _draw_parameters(word: Callable[[], int], sets: tuple, max_size: int) -> tuple:
    """A uniform size in 1..max_size (at most the pool's size), then a
    uniform set of that size from sets, the pool's _parameter_sets table."""
    n = len(sets)
    size = 1 + _below(word, max(1, min(max_size, n)))
    if size > n:
        raise GenerationError("cannot draw parameters from an empty pool")
    choices = sets[size - 1]
    return choices[_below(word, len(choices))]


def _forced_mask(policy: str, side: GammaSemiring, hom) -> int | None:
    """The one value every member over side takes under a forced value
    policy; None when values are drawn.  _check_spec has made sure that
    the kernel and carrier-image policies come with a homomorphism."""
    if policy == "kernel":
        target = hom.target
        if target.zero is None:
            raise InputError("kernel requires a designated zero in the target")
        return hom.preimage_mask(1 << target.s.pos(target.zero))
    if policy == "whole":
        return side.full_mask
    if policy == "carrier-image":
        return hom.image_mask(hom.source.full_mask)
    if policy == "trivial":
        return 1 << side.s.pos(side.zero)
    return None


def _draw_values(word: Callable[[], int], pools, size: int) -> tuple[int, ...]:
    """One value per entry of pools: empty one time in _EMPTY_ONE_IN, else an
    arbitrary subset of a size-element carrier for a None entry, else one of
    the entry's candidates (empty when there are none)."""
    values = []
    for candidates in pools:
        if _below(word, _EMPTY_ONE_IN) == 0:
            values.append(0)
        elif candidates is None:
            values.append(_bits(word, size))
        else:
            values.append(candidates[_below(word, len(candidates))] if candidates else 0)
    return tuple(values)


class _Plan:
    """A spec checked by _check_spec and resolved once for all its seeds:
    the descriptor it pins (fixed, with its structure and the 0 words read,
    when it pins all of it), the value and member-count rules, the policy
    switches and the shared pool's _parameter_sets table."""

    def __init__(self, spec: InstanceSpec):
        self.pinned = _check_spec(spec)
        try:
            descriptor = _draw_descriptor(self.pinned, iter(()).__next__)
            self.fixed = (descriptor, base_structure(descriptor), 0)
        except StopIteration:  # the descriptor reads a word
            self.fixed = None
        policy = self.policy = spec.value_policy
        self.arbitrary = policy == "arbitrary"
        # a subalgebra list may be too long to enumerate: read only for a chain or values picked from it
        self.subs = bool(spec.chain) or policy == "subsemirings"
        self.count, self.chain, self.nested, self.hom = spec.family_size, spec.chain, spec.nested, spec.hom
        self.target_side, self.same, self.anchored = spec.target_side, spec.same_parameters, spec.anchored
        self.suffixed = spec.disjoint and not spec.nested
        self.confined = spec.nested == "confined" and policy == "subsemirings"
        self.sets = _parameter_sets(_PARAMETER_POOL, spec.anchored)


def generate_instance(spec: InstanceSpec) -> Instance:
    """Build the seed-determined instance for a spec; identical specs give identical instances."""
    if not isinstance(spec, InstanceSpec):
        raise InputError(f"a spec must be an InstanceSpec, got {type(spec).__name__}")
    return _draw_instance(_Plan(spec), spec)


def _draw_instance(plan: _Plan, spec: InstanceSpec) -> Instance:
    """The instance of spec, resolved into plan, drawn from _stream(spec.seed)
    in the order the determinism contract fixes; the descriptor comes from
    the plan or _opening, and the draws after it read on from there.  The
    soft sets are built unchecked: their universe is a structure's carrier,
    their parameters distinct labels of the pool, their values subset masks."""
    seed = spec.seed
    try:
        descriptor, gs, start = plan.fixed or _opening(plan.pinned, seed)
        word = _stream(seed, start).__next__
    except StopIteration:  # the descriptor read past the head
        word = _stream(seed).__next__
        descriptor = _draw_descriptor(plan.pinned, word)
        gs = base_structure(descriptor)
    # identity homomorphisms are cheap to build, so only the collapses are cached
    hom = plan.hom and (identity_hom(gs) if plan.hom == "identity" else canonical_hom(descriptor))
    side = hom.target if plan.target_side else gs
    forced = _forced_mask(plan.policy, side, hom)
    subs = side.sub_masks if plan.subs else ()
    # values come from pool, None for arbitrary subsets; a drawn chain holds at least the full carrier's mask
    chain = _draw_chain(word, subs) if plan.chain else None
    pool = None if plan.arbitrary else chain or subs
    outer_pool = pool if plan.arbitrary or plan.chain == "members-and-outer" else subs

    outer, member_sets = None, plan.sets
    if plan.nested:
        oparams = _draw_parameters(word, plan.sets, len(_PARAMETER_POOL))
        pools = (outer_pool,) * len(oparams)
        omasks = (forced,) * len(oparams) if forced is not None else _draw_values(word, pools, side.size)
        outer = SoftSet._unchecked(side.elements, oparams, omasks)
        member_sets = _parameter_sets(oparams, plan.anchored)
        if plan.confined:
            # a confined member's value at w is a candidate inside the outer's value at w
            inside = {w: [m for m in pool if m & ~v == 0] for w, v in zip(oparams, omasks)}

    members, params = [], None
    for index in range(plan.count or 1 + _below(word, 3)):
        if params is None or not plan.same:
            params = _draw_parameters(word, member_sets, _MAX_PARAMETERS)
            if plan.suffixed:
                # member index draws from the pool a<index>..d<index>: the same
                # draw from _PARAMETER_POOL, each name suffixed with the index
                params = tuple([f"{name}{index}" for name in params])
        pools = [inside[w] for w in params] if plan.confined else (pool,) * len(params)
        masks = (forced,) * len(params) if forced is not None else _draw_values(word, pools, side.size)
        members.append(SoftSet._unchecked(side.elements, params, masks))

    aux_target = None
    if hom is not None and not plan.target_side:
        target = hom.target
        params = _draw_parameters(word, plan.sets, _MAX_PARAMETERS)
        masks = _draw_values(word, (None if plan.arbitrary else target.sub_masks,) * len(params), target.size)
        aux_target = SoftSet._unchecked(target.elements, params, masks)

    return Instance(gs, members, outer, hom, aux_target, descriptor, spec)


def _descriptor_name(descriptor: tuple) -> str:
    return "-".join(",".join(map(str, part)) if isinstance(part, tuple) else str(part) for part in descriptor)


def _dump(
    inst: Instance, operation: str, members_over: str, members=(), result: SoftSet | None = None,
    witness: Witness | None = None, extra: dict | None = None, outer_result: SoftSet | None = None,
) -> dict:
    doc = {
        "structure": files.structure_to_doc(inst.gs, name=_descriptor_name(inst.descriptor)),
        "operation": operation,
        "members": [files.soft_set_to_doc(m) for m in members],
        "members_over": members_over,
    }
    if inst.hom is not None:
        doc["hom"] = files.hom_to_doc(inst.hom)
    for key, ss in (("outer", inst.outer), ("result", result), ("outer_result", outer_result)):
        if ss is not None:
            doc[key] = files.soft_set_to_doc(ss)
    if witness is not None:
        doc["violation"] = files.witness_to_doc(witness)
    if extra:
        doc.update(extra)
    return doc


# a check's outcome and, for a failure, the callable that builds its counterexample document
Outcome = tuple[str, Callable[[], dict] | None]
_PASS: Outcome = ("pass", None)
_VACUOUS: Outcome = ("vacuous", None)


# the shape conclusions: the mask each result value equals, {zero} (None without a zero) or the whole carrier
_SHAPES: dict[str, Callable] = {
    "trivial": lambda over: None if over.zero is None else 1 << over.s.pos(over.zero),
    "whole": lambda over: over.full_mask,
}


# the operations a law row names: each one's public function, the structure its
# result is judged over (the members' side, its k-fold product for k members,
# judged from the side's tables and never built, or the homomorphism's target or
# source) and the mask-level core it wraps, called on pairs, side and homomorphism
_OPERATIONS = (
    ("restricted-intersection", restricted_intersect, "side", lambda ps, side, hom: _restricted(ps, operator.and_)),
    ("extended-intersection", extended_intersect, "side", lambda ps, side, hom: _extended(ps, operator.and_)),
    ("restricted-union", restricted_union, "side", lambda ps, side, hom: _restricted(ps, operator.or_)),
    ("extended-union", extended_union, "side", lambda ps, side, hom: _extended(ps, operator.or_)),
    ("and-intersection", and_intersect_family, "side", lambda ps, side, hom: _tabular(ps, operator.and_)),
    ("or-union", or_union_family, "side", lambda ps, side, hom: _tabular(ps, operator.or_)),
    ("cartesian-product", cartesian_product, "product", lambda ps, side, hom: _spread(ps, (side.size,) * len(ps))),
    ("hom-image", soft_image_under_hom, "target", lambda ps, side, hom: _pointwise(hom.image_mask, ps[0])),
    ("hom-preimage", soft_preimage_under_hom, "source", lambda ps, side, hom: _pointwise(hom.preimage_mask, ps[0])),
)
_OPS: dict[str, tuple[Callable, str]] = {name: (public, judged) for name, public, judged, _ in _OPERATIONS}
_CORES: dict[str, Callable] = {name: core for name, _, _, core in _OPERATIONS}


def _closed(over: GammaSemiring, masks, arity: int | None = None) -> bool:
    """Every nonempty mask is a subalgebra of over (of its arity-fold product)."""
    for m in masks:
        if m and not _closure_verdict(over, m, arity).verdict:
            return False
    return True


def _is_chain(masks) -> bool:
    """The masks are pairwise comparable: ordered by size, each lies inside the next."""
    ordered = sorted(set(masks), key=int.bit_count)
    return all(a & ~b == 0 for a, b in zip(ordered, ordered[1:]))


def _nested(inst: Instance, members) -> bool:
    """The outer and every member are closed over the side, and every member
    is a soft subset of the outer."""
    side, outer = inst.side_gs, inst.outer
    return _closed(side, outer.masks) and all(_closed(side, m.masks) and _subset_witness(m, outer) for m in members)


def _forced_values(policy: str, over: str) -> Callable:
    """A T3.17 case's value hypothesis: every member is a soft gamma-semiring
    over the homomorphism's `over` side, the side its case fixes, and every
    value is the mask the forced value policy gives (a trivial one needs a
    zero)."""

    def holds(inst: Instance, members) -> bool:
        side = getattr(inst.hom, over)
        gamma = all(any(m.masks) and _closed(side, m.masks) for m in members)
        if not gamma or policy == "trivial" and side.zero is None:
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
    "values": (lambda inst, ms: all(_closed(inst.side_gs, m.masks) for m in ms), {"value_policy": "subsemirings"},
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
    "target-values": (lambda inst, ms: inst.aux_target is None or _closed(inst.hom.target, inst.aux_target.masks),
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
    both modes.  operation is one name, or a tuple judged in turn: one of
    _OPS, else the first member itself.  It is applied to the first `reads`
    members, or all when None (in a row without target_side, one judged over
    the homomorphism's source to the auxiliary target member), and its
    result is judged over the structure _OPS pairs with it, else over the
    members' side.  The conclusion is that the result is "closed", or a soft
    sub-gamma-semiring of the "outer" soft set, of the operation applied to
    copies of the outer ("outer-op"), or of each of the "members"; or that
    it has a shape, "trivial" (every value is {zero}) or "whole" (every
    value is the carrier), and is a soft gamma-semiring.  necessity pins the
    structure family on which fuzzing with the hypotheses dropped finds a
    counterexample, showing they are needed.  T4.3, like T4.5, has no
    necessity family, and it cannot have one: the intersection of two
    subalgebras is a subalgebra, so its hypothesis is exactly the condition
    under which its conclusion is defined, and dropping it can only make
    trials vacuous.
    """

    def __init__(
        self, theorem_id: str, hypotheses: tuple[str, ...], conclusion: str, operation: str | tuple[str, ...] = "",
        reads: int | None = None, necessity: InstanceSpec | None = None, **flags,
    ):
        self.theorem_id, self.hypotheses, self.conclusion = theorem_id, hypotheses, conclusion
        self.operation, self.reads, self.necessity = operation, reads, necessity
        self.flags = flags
        # per operation: its name, mask-level core, the structure its result
        # is judged over (_OPS) and whether it reads the auxiliary target member
        self._ops = []
        for name in (operation,) if isinstance(operation, str) else operation:
            judged = _OPS.get(name, (None, "side"))[1]
            self._ops.append((name, _CORES.get(name), judged, judged == "source" and not flags.get("target_side")))
        # a shape's mask rule, else a containment conclusion; "outer" ones also need a non-null outer
        self._shape, self._gated = _SHAPES.get(conclusion), conclusion in ("outer", "outer-op")
        if self._shape is None and conclusion not in ("closed", "members", "outer", "outer-op"):
            raise ValueError(f"unknown conclusion {conclusion!r}")

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
        """The first of the row's hypotheses that inst misses, None when it meets them all."""
        members = self._members(inst)
        return next((name for name in self.hypotheses if not _HYPOTHESES[name][0](inst, members)), None)

    def evaluate(self, inst: Instance) -> Outcome:
        """The row judged on inst by _judge, from each soft set's (parameters,
        masks) pair, an absent one's null; a failure's document is deferred to _counterexample."""
        members = [(m.parameters, m.masks) for m in self._members(inst)]
        outer, aux = inst.outer, inst.aux_target
        outer = ((), ()) if outer is None else (outer.parameters, outer.masks)
        aux = ((), ()) if aux is None else (aux.parameters, aux.masks)
        found = _VACUOUS
        for op in self._ops:
            outcome = self._judge(inst.side_gs, inst.hom, members, outer, aux, op)
            if outcome is _PASS:
                found = _PASS
            elif outcome is not _VACUOUS:  # a failure
                return "fail", partial(self._counterexample, inst, op, outcome[1])
        return found

    def _judge(self, side: GammaSemiring, hom: GammaHom | None, members: list, outer: tuple, aux: tuple, op) -> tuple:
        """The conclusion judged on the result of op, an entry of _ops, from the
        (parameters, masks) pairs of the members the row reads, the outer and the
        auxiliary target member, over side and, through hom, its other end.  A failure is
        ("fail", what failed): None (a shape), "closure" (the result) or a bound's index."""
        _, core, judged, reads_aux = op
        members = [aux] if reads_aux else members
        bound = self.conclusion
        for _, masks in (outer, *members) if self._gated else members:
            if not any(masks):  # a null soft set
                return _VACUOUS
        if core is None:
            result = members[0]
        else:
            try:
                result = core(members, side, hom)
            except DomainError:
                return _VACUOUS
            # a null result leaves a closure conclusion vacuous; a shape judges it
            if not any(result[1]) and self._shape is None:
                return _VACUOUS
        over = side if judged in ("side", "product") else getattr(hom, judged)
        if self._shape is not None:
            want = self._shape(over)
            if want is None:  # a trivial soft set is defined by the zero, so without one the shape is undefined
                return _VACUOUS
            masks = result[1]
            return _PASS if all(m == want for m in masks) and any(masks) and _closed(over, masks) else ("fail", None)

        arity = len(members) if judged == "product" else None
        if arity:
            _product_size(over, arity)  # SizeLimitError above MAX_PRODUCT_SIZE, as is_soft_gamma_semiring raises
        if bound == "outer-op":
            bounds = [core([outer] * len(members), side, hom)]
        else:
            bounds = members if bound == "members" else [outer] if bound == "outer" else []
        # a soft sub-gamma-semiring relates two soft gamma-semirings: a bound that is not
        # one leaves the conclusion undefined, and then a result that is not one fails it
        for _, masks in bounds:
            if not (any(masks) and _closed(over, masks, arity)):
                return _VACUOUS
        if not _closed(over, result[1], arity):  # the result is not null here
            return "fail", "closure"
        for index, (params, masks) in enumerate(bounds):
            within = dict(zip(params, masks))
            for w, m in zip(*result):
                if w not in within or m & ~within[w]:
                    return "fail", index
        return _PASS

    def _counterexample(self, inst: Instance, op: tuple, failed) -> dict:
        """The document of what _judge found failed on inst: result and witness by the public functions."""
        operation, _, judged, reads_aux = op
        members = [inst.aux_target] if reads_aux else self._members(inst)
        function = _OPS.get(operation, (None,))[0]
        apply = (lambda family: function(inst.hom, family[0])) if judged in ("target", "source") else function
        result = members[0] if function is None else apply(members)
        # the members lie over the side, or over the other end of the homomorphism from the result
        if judged in ("side", "product"):
            over, members_over = inst.side_gs, "target" if inst.spec.target_side else "source"
        else:
            over, members_over = getattr(inst.hom, judged), "source" if judged == "target" else "target"
        dump = partial(_dump, inst, operation, members_over, members)
        if failed is None:  # a shape
            return dump(result)
        if failed == "closure":
            arity = len(members) if judged == "product" else None
            return dump(result, is_soft_gamma_semiring(over, result, arity), arity and {"product_arity": arity})
        if self.conclusion == "outer-op":
            bound = apply([inst.outer] * len(members))
            return dump(result, _subset_witness(result, bound), outer_result=bound)
        bound = members[failed] if self.conclusion == "members" else inst.outer
        return dump(None if function is None else result, _subset_witness(result, bound))


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
    Law("L3.16", ("values", "target-values"), "closed", ("hom-image", "hom-preimage"), 1, hom="collapse"),
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
        theorem=theorem_id, trials=sum(counts.values()), passes=counts["pass"], vacuous=counts["vacuous"],
        failures=counts["fail"], counterexample=counterexample,
    )


def check_theorem(theorem_id: str, instance: Instance) -> TheoremVerdict:
    """Evaluate one law's conclusion on one instance.

    An instance that misses one of the law's named hypotheses (see
    _HYPOTHESES) is vacuous, and so is one where the operation is undefined
    or a soft set the law reads is null; otherwise the conclusion is judged,
    so a failure is a counterexample to the law.  An instance whose fields
    have the wrong types, without the homomorphism, the enclosing soft set
    or the member that the law reads, or with a soft set off the carrier it
    lies over, is an InputError, raised before any hypothesis is judged.
    """
    law = _lookup(theorem_id)
    if not isinstance(instance, Instance):
        raise InputError(f"an instance must be an Instance, got {type(instance).__name__}")
    for name, kind, optional in (
        ("spec", InstanceSpec, False), ("gs", GammaSemiring, False), ("outer", SoftSet, True),
        ("hom", GammaHom, True), ("aux_target", SoftSet, True), ("descriptor", tuple, False),
    ):
        value = getattr(instance, name)
        if not (optional and value is None):
            _require_type(value, kind, f"an instance's {name}")
    members = instance.soft_sets
    if not isinstance(members, (list, tuple)) or not all(isinstance(m, SoftSet) for m in members):
        raise InputError("an instance's soft_sets must be a list of SoftSets")
    if law.flags.get("hom") and instance.hom is None:
        raise InputError(f"{theorem_id} reads a homomorphism, and the instance has none")
    if law.conclusion in ("outer", "outer-op") and instance.outer is None:
        raise InputError(f"{theorem_id} reads an enclosing soft set, and the instance has none")
    if not members:
        raise InputError(f"{theorem_id} reads a member, and the instance has none")
    # members and outer lie over the side, the auxiliary member over the target, an image's or preimage's over its start
    hom = instance.hom
    starts = {"target": hom and hom.source, "source": hom and hom.target}
    carriers = [(instance.side_gs, ss) for ss in (*members, instance.outer)] + [(starts["source"], instance.aux_target)]
    carriers += [(starts[judged], members[0]) for _, _, judged, aux in law._ops if judged in starts and not aux]
    for gs, ss in carriers:
        if gs is not None and ss is not None:
            _require_carrier(gs, ss)
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
    _require_hom(hom)
    spec = InstanceSpec(target_side=case in ("iii", "iv"))
    return check_theorem(f"T3.17{case}", Instance(hom.source, [ss], hom=hom, spec=spec))


def fuzz_theorem(
    theorem_id: str, trials: int, template: InstanceSpec | None = None, drop_hypothesis: bool = False
) -> TheoremVerdict:
    """Run seeded trials template.seed .. template.seed+trials-1.

    Each trial's draw realizes the law's hypotheses by construction (see
    Law.spec), so no hypothesis is judged per trial; a draw that missed one
    would be a generator bug.  With drop_hypothesis each hypothesis's
    dropping fields replace its realizing ones (see _HYPOTHESES), and the
    checks report honest conclusion failures, which show a hypothesis
    necessary; the recorded counterexample is the lowest failing trial's.

    The template and the law's spec are checked once, before trial 0, so a
    malformed field is refused even where the law's spec replaces it, and
    the spec is resolved once into a _Plan; per trial only the draws are
    made.  Trial t evaluates exactly
    generate_instance(base.replace(seed=template.seed + t)).
    """
    _count(trials, "trials")
    law = _lookup(theorem_id)
    if template is None:
        template = InstanceSpec()
    elif not isinstance(template, InstanceSpec):
        raise InputError(f"a template must be an InstanceSpec, got {type(template).__name__}")
    _check_spec(template)
    # the law's spec never touches the seed, so it is applied, checked and resolved once
    base = law.spec(template, drop_hypothesis)
    plan = _Plan(base)
    replace, draw, evaluate, first = base.replace, _draw_instance, law.evaluate, template.seed

    def outcomes():
        for t in range(trials):
            spec = replace(seed=first + t)
            yield t, spec, evaluate(draw(plan, spec))

    return _verdict(theorem_id, outcomes())
