"""The harness draws read the same MT19937 words as the stdlib draws they replace.

Each oracle below is the random.Random method code the harness used before
its draws went through harness._stream.  Per seed 0..1999, a drawer reads
the words of harness._stream(seed) for every case in turn and a
random.Random(seed) makes the oracle's draws; each draw must return what the
oracle returns, and the next two words of the stream must be the oracle's
next two getrandbits(32), so both sides read the same words.  The stream
itself is checked against random.Random(seed), across the end of its
memoized head, on a memo miss and on a hit.
"""

import math
import random

import pytest

from softgamma import GenerationError
from softgamma.harness import (
    _EMPTY_BOUND,
    _EMPTY_RATE,
    _HEAD,
    _SEEDS,
    InstanceSpec,
    _below,
    _bits,
    _draw_chain,
    _draw_descriptor,
    _draw_parameters,
    _draw_value,
    _head,
    _parameter_sets,
    _random_gamma,
    _stream,
    base_structure,
    fuzz_theorem,
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


# the stdlib draws, as the harness made them


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


def _oracle_chain(rng, subs):
    order = list(subs)
    rng.shuffle(order)
    chain = []
    for m in order:
        if all(m & ~c == 0 or c & ~m == 0 for c in chain):
            chain.append(m)
    return chain


def _oracle_parameters(rng, pool, max_size, anchored):
    size = rng.randint(1, max(1, min(max_size, len(pool))))
    idxs = rng.sample(range(len(pool)), size)
    if anchored and 0 not in idxs:
        idxs[0] = 0
    return tuple(pool[i] for i in sorted(set(idxs)))


def _oracle_value(rng, candidates):
    if rng.random() < 0.2:
        return 0
    return rng.choice(candidates) if candidates else 0


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


def test_draw_value():
    spec, gs = InstanceSpec(), base_structure(("zn", 4, (1,)))
    candidates = [tuple(range(1, size + 1)) for size in range(6)]
    _agree(candidates, lambda word, c: _draw_value(word, spec, gs, c), _oracle_value)


def test_draw_parameters():
    # pool lengths 1-4, every max_size 1-4, anchored off and on
    cases = [(size, cap, anchored) for size in range(1, 5) for cap in range(1, 5) for anchored in (False, True)]
    pools = {n: ("a", "b", "c", "d")[:n] for n in range(1, 5)}
    _agree(
        cases,
        lambda word, c: _draw_parameters(word, pools[c[0]], c[1], c[2]),
        lambda ref, c: _oracle_parameters(ref, pools[c[0]], c[1], c[2]),
    )


def test_draw_chain_on_subalgebra_lattices():
    descriptors = (("zn", 8, (2, 4, 6)), ("minmax", 8, (1, 2, 3)), ("matrix", 2, 2, 2))
    lattices = [base_structure(d).sub_masks for d in descriptors]
    assert all(len(subs) > 1 for subs in lattices)
    _agree(lattices, _draw_chain, _oracle_chain)


def test_draw_chain_on_a_long_tuple():
    # 2046 masks, so swap bounds of up to 11 bits; a seed costs both sides
    # about 8 ms on a 2-core x86_64 VM, so the first 200 seeds stand for the range
    _agree([tuple(range(1, 2047))], _draw_chain, _oracle_chain, seeds=range(200))


@pytest.mark.parametrize("anchored", [False, True])
def test_draw_parameters_refuses_an_empty_pool(anchored):
    with pytest.raises(GenerationError, match="empty pool"):
        _draw_parameters(_stream(0).__next__, (), 3, anchored)


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


def _random_of(w1, w2):
    """random.Random.random() of the two words it reads."""
    return ((w1 >> 5) * 67108864.0 + (w2 >> 6)) * (1.0 / 9007199254740992.0)


def test_the_empty_bound_is_the_empty_rate_times_two_to_the_53():
    assert _EMPTY_BOUND == math.ceil(_EMPTY_RATE * 2**53)


@pytest.mark.parametrize("offset", [-3, -2, -1, 0, 1, 2])
def test_the_integer_empty_test_agrees_with_random_at_the_threshold(offset):
    # words whose (w1 >> 5) * 2**26 + (w2 >> 6) is _EMPTY_BOUND + offset, with
    # every low bit that random() drops set and clear
    spec, gs = InstanceSpec(), base_structure(("zn", 4, (1,)))
    x = _EMPTY_BOUND + offset
    for low1, low2 in ((0, 0), (31, 63)):
        w1, w2 = (x >> 26) << 5 | low1, (x & (2**26 - 1)) << 6 | low2
        empty = _draw_value(iter([w1, w2, 0]).__next__, spec, gs, (5,)) == 0
        assert empty == (_random_of(w1, w2) < _EMPTY_RATE) == (offset < 0)


def test_the_word_memo_stays_bounded():
    # 1200 distinct trial seeds, more than the memo holds
    _head.cache_clear()
    fuzz_theorem("T3.7", _SEEDS + 176, InstanceSpec(seed=5_000_000))
    info = _head.cache_info()
    assert info.maxsize == _SEEDS and info.misses == _SEEDS + 176
    assert 0 < info.currsize <= _SEEDS


def test_parameter_tables_are_built_for_the_shared_pool_and_its_subsets_only():
    # disjoint members suffix a draw from the shared pool with their index, so
    # 300 members build no table of their own; nested members draw from the
    # outer's parameters, a nonempty subset of the pool: 15 pools, anchored or not
    _parameter_sets.cache_clear()
    fuzz_theorem("T3.9", 5, InstanceSpec(family_size=300))
    fuzz_theorem("T4.4", 200)
    fuzz_theorem("T4.6", 200)
    assert 0 < _parameter_sets.cache_info().currsize <= 2 * 15
