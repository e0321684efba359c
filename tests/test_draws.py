"""The harness draws read the same MT19937 words as the stdlib draws they replace.

Each oracle below is the random.Random method code the harness used before
its bounded draws went through harness._below.  Per seed 0..1999, one
generator makes a drawer's new draws for every case in turn and a second
random.Random(seed) the oracle's; each draw must return what the oracle
returns, and the two generators must end in the same state, so both read
the same words.
"""

import random

import pytest

from softgamma import GenerationError
from softgamma.harness import (
    InstanceSpec,
    _below,
    _draw_chain,
    _draw_descriptor,
    _draw_parameters,
    _draw_value,
    _random_gamma,
    base_structure,
)

SEEDS = range(2000)


def _agree(cases, draw, oracle, seeds=SEEDS):
    """draw(rng, case) == oracle(ref, case) for every case in turn, per seed."""
    for seed in seeds:
        rng, ref = random.Random(seed), random.Random(seed)
        for case in cases:
            assert draw(rng, case) == oracle(ref, case), (seed, case)
        assert rng.getstate() == ref.getstate(), seed


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
    _agree(BELOW_BOUNDS, lambda rng, n: _below(rng.getrandbits, n), lambda ref, n: ref.randrange(n))


def test_random_gamma():
    _agree(range(1, 17), _random_gamma, _oracle_random_gamma)


def test_draw_descriptor():
    pinned = [
        ("mix",), ("zn", None, ()), ("minmax", None, ()), ("zn", 8, ()), ("minmax", None, (1, 2)), ("matrix", 2, 1, 2),
    ]
    _agree(pinned, lambda rng, p: _draw_descriptor(p, rng), lambda ref, p: _oracle_descriptor(p, ref))


def test_draw_value():
    spec, gs = InstanceSpec(), base_structure(("zn", 4, (1,)))
    candidates = [tuple(range(1, size + 1)) for size in range(6)]
    _agree(candidates, lambda rng, c: _draw_value(rng, spec, gs, c), _oracle_value)


def test_draw_parameters():
    # pool lengths 1-4, every max_size 1-4, anchored off and on
    cases = [(size, cap, anchored) for size in range(1, 5) for cap in range(1, 5) for anchored in (False, True)]
    pools = {n: ("a", "b", "c", "d")[:n] for n in range(1, 5)}
    _agree(
        cases,
        lambda rng, c: _draw_parameters(rng, pools[c[0]], c[1], c[2]),
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
        _draw_parameters(random.Random(0), (), 3, anchored)
