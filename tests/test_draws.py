"""The harness draws read the MT19937 words that randrange and getrandbits read.

Each oracle below makes a harness draw from random.Random methods, every
bounded integer through randrange (or choice, which draws the same).  Per
seed 0..1999, a drawer reads the words of harness._stream(seed) for every
case in turn and a random.Random(seed) makes the oracle's draws; each draw
must return what the oracle returns, and the next two words of the stream
must be the oracle's next two getrandbits(32), so both sides read the same
words.  The stream itself is checked against random.Random(seed), across the
end of its memoized head, on a memo miss and on a hit.

The parameter and chain draws replaced draws through random.sample and
random.shuffle; their exact distributions, over every outcome of the
bounded integers they read, are checked equal to those stdlib draws'.  Only
_below and _bits read words, which an AST guard checks.
"""

import ast
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from softgamma import GenerationError, harness
from softgamma.harness import (
    _EMPTY_ONE_IN,
    _HEAD,
    _LAWS,
    _SEEDS,
    ALL_THEOREMS,
    InstanceSpec,
    _draw_instance,
    _below,
    _bits,
    _draw_chain,
    _draw_descriptor,
    _draw_parameters,
    _draw_values,
    _head,
    _opening,
    _parameter_sets,
    _Plan,
    _random_gamma,
    _stream,
    base_structure,
    fuzz_theorem,
    generate_instance,
)

SEEDS = range(2000)


def _agree(cases, draw, oracle, seeds=SEEDS):
    """draw(word, case) == oracle(ref, case) for every case in turn, per
    seed, word reading the seed's stream; then both read the same next words."""
    for seed in seeds:
        word, ref = _stream(seed).__next__, random.Random(seed)
        for case in cases:
            assert draw(word, case) == oracle(ref, case), (seed, case)
        assert [word(), word()] == [ref.getrandbits(32), ref.getrandbits(32)], seed


# the harness draws, made from random.Random methods


def _oracle_random_gamma(rng, n):
    bits = rng.getrandbits(n)
    if bits == 0:
        bits = 1 << rng.randrange(n)
    return tuple(i for i in range(n) if bits >> i & 1)


def _oracle_descriptor(pinned, rng):
    kind = pinned[0]
    if kind == "mix":
        kind = rng.choice(("zn", "minmax", "matrix"))
        if kind == "matrix":
            return ("matrix", 2, 1, 2)
        pinned = (kind, None, ())
    elif kind == "matrix":
        return pinned
    n, gamma = pinned[1], pinned[2]
    if n is None:
        n = rng.choice((4, 6, 8) if kind == "zn" else (3, 4, 5))
    return (kind, n, gamma or _oracle_random_gamma(rng, n))


def _comparable(a, b):
    return a & ~b == 0 or b & ~a == 0


def _oracle_chain(rng, subs):
    # left holds the masks comparable to every mask picked so far
    chain, left = [], list(subs)
    while left:
        chain.append(left[rng.randrange(len(left))])
        left = [m for m in left if m != chain[-1] and _comparable(m, chain[-1])]
    return chain


def _oracle_parameters(rng, pool, max_size, anchored):
    size = 1 + rng.randrange(max(1, min(max_size, len(pool))))
    sets = [c for c in combinations(pool, size) if not anchored or pool[0] in c]
    return sets[rng.randrange(len(sets))]


def _oracle_value(rng, candidates, size):
    if rng.randrange(5) == 0:
        return 0
    if candidates is None:
        return rng.getrandbits(size)
    return candidates[rng.randrange(len(candidates))] if candidates else 0


# the stdlib draws the parameter and chain draws replaced


def _stdlib_chain(rng, subs):
    order = list(subs)
    rng.shuffle(order)
    chain = []
    for m in order:
        if all(_comparable(m, c) for c in chain):
            chain.append(m)
    return chain


def _stdlib_parameters(rng, pool, max_size, anchored):
    size = rng.randint(1, max(1, min(max_size, len(pool))))
    idxs = rng.sample(range(len(pool)), size)
    if anchored and 0 not in idxs:
        idxs[0] = 0
    return tuple(pool[i] for i in sorted(idxs))


# n = 1 reads one bit per try; n above 2**32 reads several words per try
BELOW_BOUNDS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256, 257, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**40, 10**30]


def test_below_reads_the_words_randrange_reads():
    _agree(BELOW_BOUNDS, _below, lambda ref, n: ref.randrange(n))


def test_random_gamma():
    _agree(range(1, 17), _random_gamma, _oracle_random_gamma)


def test_draw_descriptor():
    pinned = [
        ("mix",), ("zn", None, ()), ("minmax", None, ()), ("zn", 8, ()), ("minmax", None, (1, 2)), ("matrix", 2, 1, 2),
    ]
    _agree(pinned, lambda word, p: _draw_descriptor(p, word), lambda ref, p: _oracle_descriptor(p, ref))


# a member's values: one to three of them, from candidates, or arbitrary
# subsets (None) of a carrier of 4 or 40 elements, which reads two words
MEMBER_VALUES = [
    ((candidates,) * count, size)
    for candidates in [tuple(range(1, k + 1)) for k in range(6)] + [None]
    for count in (1, 2, 3)
    for size in (4, 40)
]


def test_draw_values():
    assert _EMPTY_ONE_IN == 5
    _agree(
        MEMBER_VALUES,
        lambda word, c: _draw_values(word, *c),
        lambda ref, c: tuple(_oracle_value(ref, candidates, c[1]) for candidates in c[0]),
    )


def test_draw_parameters():
    _agree(
        PARAMETER_CASES,
        lambda word, c: _draw_parameters(word, _parameter_sets(c[0], c[2]), c[1]),
        lambda ref, c: _oracle_parameters(ref, *c),
    )


def test_draw_chain_on_subalgebra_lattices():
    descriptors = (("zn", 8, (2, 4, 6)), ("minmax", 8, (1, 2, 3)), ("matrix", 2, 2, 2))
    lattices = [base_structure(d).sub_masks for d in descriptors]
    assert all(len(subs) > 1 for subs in lattices)
    _agree(lattices, _draw_chain, _oracle_chain)


class _Scripted(random.Random):
    """A random.Random whose bounded integers are below(n): CPython's
    randint, sample, shuffle and randrange make theirs through _randbelow."""

    def __init__(self, below):
        super().__init__(0)
        self._below = below

    def _randbelow(self, n):
        return self._below(n)


class _Branch(Exception):
    pass


def _exact(draw):
    """The exact distribution of draw(below), below(n) a uniform integer in
    0..n-1: every sequence of below outcomes is followed to its result, which
    weighs the product of 1/n over the sequence's draws."""
    dist = defaultdict(Fraction)
    pending = [()]
    while pending:
        script = pending.pop()
        bounds = []

        def below(n):
            bounds.append(n)
            if len(bounds) > len(script):
                raise _Branch(n)
            return script[len(bounds) - 1]

        try:
            outcome = tuple(draw(below))
        except _Branch as branch:
            pending.extend(script + (v,) for v in range(branch.args[0]))
            continue
        weight = Fraction(1)
        for n in bounds:
            weight /= n
        dist[outcome] += weight
    return dict(dist)


def _harness_exact(monkeypatch, draw):
    """_exact of a harness draw, each of its _below calls a branch."""
    current = []
    monkeypatch.setattr(harness, "_below", lambda word, n: current[-1](n))

    def run(below):
        current.append(below)
        return draw(None)

    return _exact(run)


# pool lengths 1-4, every max_size 1-4, anchored off and on
PARAMETER_CASES = [
    (("a", "b", "c", "d")[:size], cap, anchored)
    for size in range(1, 5)
    for cap in range(1, 5)
    for anchored in (False, True)
]


@pytest.mark.parametrize("case", PARAMETER_CASES)
def test_parameter_draws_keep_the_sample_distribution(monkeypatch, case):
    expected = _exact(lambda below: _stdlib_parameters(_Scripted(below), *case))
    assert sum(expected.values()) == 1
    pool, cap, anchored = case
    sets = _parameter_sets(pool, anchored)
    assert _harness_exact(monkeypatch, lambda word: _draw_parameters(word, sets, cap)) == expected


# subalgebra lattices of 4-7 masks, and the subsets of {0, 1, 2} of one or
# two elements, which have no top under inclusion
CHAIN_CASES = [
    base_structure(d).sub_masks
    for d in (("zn", 6, (1,)), ("minmax", 3, (1,)), ("matrix", 2, 1, 2), ("minmax", 4, (1, 2, 3)))
] + [(1, 2, 4, 3, 5, 6)]


@pytest.mark.parametrize("subs", CHAIN_CASES)
def test_chain_draws_keep_the_shuffle_distribution(monkeypatch, subs):
    expected = _exact(lambda below: _stdlib_chain(_Scripted(below), subs))
    assert sum(expected.values()) == 1
    assert _harness_exact(monkeypatch, lambda word: _draw_chain(word, subs)) == expected


@pytest.mark.parametrize("anchored", [False, True])
def test_draw_parameters_refuses_an_empty_pool(anchored):
    with pytest.raises(GenerationError, match="empty pool"):
        _draw_parameters(_stream(0).__next__, _parameter_sets((), anchored), 3)


def _words(rng, count):
    return [rng.getrandbits(32) for _ in range(count)]


def test_the_stream_is_the_generators_words_on_a_miss_and_on_a_hit():
    # 3 * _HEAD words cross the end of the memoized head
    _head.cache_clear()
    for seed in SEEDS:
        expected = _words(random.Random(seed), 3 * _HEAD)
        for _ in ("miss", "hit"):
            words = _stream(seed)
            assert [next(words) for _ in range(3 * _HEAD)] == expected, seed
    info = _head.cache_info()
    assert (info.misses, info.hits) == (len(SEEDS), len(SEEDS))


@pytest.mark.parametrize("k", range(101))
def test_bits_is_getrandbits(k):
    # k = 0 reads no word, k above 32 several, the last one cut
    for seed in range(50):
        word, ref = _stream(seed).__next__, random.Random(seed)
        assert [_bits(word, k) for _ in range(3)] == [ref.getrandbits(k) for _ in range(3)], seed
        assert word() == ref.getrandbits(32), seed


def test_the_word_memo_stays_bounded():
    # 1200 distinct trial seeds, more than the memo holds
    _head.cache_clear()
    fuzz_theorem("T3.7", _SEEDS + 176, InstanceSpec(seed=5_000_000))
    info = _head.cache_info()
    assert info.maxsize == _SEEDS and info.misses == _SEEDS + 176
    assert 0 < info.currsize <= _SEEDS


def test_the_opening_memo_stays_bounded():
    _opening.cache_clear()
    fuzz_theorem("T3.7", _SEEDS + 176, InstanceSpec(seed=5_000_000))
    info = _opening.cache_info()
    assert info.maxsize == _SEEDS and info.misses == _SEEDS + 176
    assert 0 < info.currsize <= _SEEDS


def test_a_suite_draws_each_seeds_descriptor_once():
    _opening.cache_clear()
    for law in ALL_THEOREMS:
        fuzz_theorem(law, 200, InstanceSpec(seed=7_000_000))
    info = _opening.cache_info()
    assert len(ALL_THEOREMS) == 25
    assert (info.misses, info.hits) == (200, 24 * 200)


@pytest.mark.parametrize("drop", [False, True])
def test_a_descriptor_pinned_whole_takes_no_entry(drop):
    _opening.cache_clear()
    for template in (InstanceSpec(generator="zn", size=(8,), gamma=(2, 4, 6)),
                     InstanceSpec(generator="matrix", size=(2, 1, 2))):
        for law in ("T3.7", "T4.2", "L3.16"):
            fuzz_theorem(law, 50, template, drop)
    info = _opening.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)


# a mix, a zn spec with n drawn and a minmax spec with n pinned and gamma
# drawn: three openings of each seed, one entry each
INTERLEAVED = [
    _LAWS[law].spec(template, drop)
    for law, template, drop in (
        ("T3.8", InstanceSpec(), False),
        ("T4.7", InstanceSpec(generator="zn"), False),
        ("L3.16", InstanceSpec(generator="minmax", size=(4,)), True),
    )
]


def _whole_stream(monkeypatch, seeds):
    """Every INTERLEAVED instance at seeds, each descriptor drawn from the
    seed's whole stream, as if it read past the head: no opening is kept."""

    def past_the_head(pinned, seed):
        raise StopIteration

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_opening", past_the_head)
        return [generate_instance(base.replace(seed=seed)) for seed in seeds for base in INTERLEAVED]


def test_interleaved_runs_draw_the_instance_of_the_whole_stream_cold_and_warm(monkeypatch):
    seeds = range(300)
    expected = _whole_stream(monkeypatch, seeds)
    plans = [(_Plan(base), base) for base in INTERLEAVED]
    _head.cache_clear()
    _opening.cache_clear()
    for memo in ("cold", "warm"):
        drawn = [_draw_instance(plan, plan_base.replace(seed=seed)) for seed in seeds for plan, plan_base in plans]
        assert drawn == expected, memo
        assert [generate_instance(base.replace(seed=seed)) for seed in seeds for base in INTERLEAVED] == expected, memo
    info = _opening.cache_info()
    assert (info.misses, info.currsize) == (3 * len(seeds), 3 * len(seeds))


def test_a_descriptor_that_reads_past_the_head_takes_no_entry(monkeypatch):
    # with a one-word head, a mix descriptor that draws n reads past it
    seeds = range(200)
    expected = _whole_stream(monkeypatch, seeds)
    _head.cache_clear()
    _opening.cache_clear()
    try:
        monkeypatch.setattr(harness, "_HEAD", 1)
        assert [generate_instance(base.replace(seed=seed)) for seed in seeds for base in INTERLEAVED] == expected
        info = _opening.cache_info()
        assert 0 < info.currsize < info.misses == 3 * len(seeds)
    finally:
        _head.cache_clear()
        _opening.cache_clear()


def test_parameter_tables_are_built_for_the_shared_pool_and_its_subsets_only():
    # disjoint members suffix a draw from the shared pool with their index, so
    # 300 members build no table of their own; nested members draw from the
    # outer's parameters, a nonempty subset of the pool: 15 pools, anchored or not
    _parameter_sets.cache_clear()
    fuzz_theorem("T3.9", 5, InstanceSpec(family_size=300))
    fuzz_theorem("T4.4", 200)
    fuzz_theorem("T4.6", 200)
    assert 0 < _parameter_sets.cache_info().currsize <= 2 * 15


# the module-level functions of harness.py that read the stream's words
WORD_READERS = {"_below", "_bits"}


def _word_reads(tree):
    """Sorted line numbers, outside the module-level functions named in
    WORD_READERS, of a call that reads a word: word(...) or x.__next__()."""
    lines = set()
    for statement in tree.body:
        if isinstance(statement, ast.FunctionDef) and statement.name in WORD_READERS:
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "word"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "__next__"
            ):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("x = word()", [1]),
        ("def f(word):\n    return word() >> 5 << 26", [2]),
        ("def _below(word, n):\n    return word() >> 3", []),
        ("def _bits(word, k):\n    return word() << 32 | word()", []),
        ("w = _stream(0).__next__\n_below(w, 3)", []),
        ("x = 1\n_stream(0).__next__()", [2]),
        ("def f():\n    def _below(word):\n        return word()", [3]),
        ("class C:\n    def _bits(self, word):\n        return word()", [3]),
    ],
)
def test_the_guard_finds_word_reads_outside_below_and_bits(source, flagged):
    assert _word_reads(ast.parse(source)) == flagged


def test_only_below_and_bits_read_words():
    path = Path(harness.__file__)
    found = _word_reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert found == [], f"words read outside _below and _bits in harness.py: lines {found}"
