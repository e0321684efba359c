import random

import pytest
from hypothesis import HealthCheck, settings

from softgamma import FiniteCommutativeSemigroup, GammaSemiring, SoftSet, make_zn_gamma
from softgamma.cli import z8_example

settings.register_profile(
    "suite", derandomize=True, max_examples=100, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def z8():
    return make_zn_gamma(8, (2, 4, 6), strict=True)


@pytest.fixture(scope="session")
def z8_soft(z8):
    _, ss = z8_example()
    return ss


@pytest.fixture(scope="session")
def z4_full():
    return make_zn_gamma(4, (0, 1, 2, 3), strict=True)


def random_soft_set(rng: random.Random, universe, param_pool=("a", "b", "c", "d")) -> SoftSet:
    """Seeded sampler used by deterministic property loops."""
    universe = tuple(universe)
    size = rng.randint(1, min(3, len(param_pool)))
    idxs = sorted(rng.sample(range(len(param_pool)), size))
    params = tuple(param_pool[i] for i in idxs)
    masks = tuple(rng.getrandbits(len(universe)) for _ in params)
    return SoftSet(universe, params, masks)


def mutant(gs: GammaSemiring, rng: random.Random) -> GammaSemiring:
    """gs with one to three random entries of its +, product or gamma-addition
    tables changed (gamma sums may leave gamma), and maybe a moved or dropped zero."""
    n, ng = gs.size, len(gs.gamma_elements)
    add = [list(row) for row in gs.s.add_table]
    prod = [[list(row) for row in layer] for layer in gs.product]
    gadd = None if gs.gamma_add is None else [list(row) for row in gs.gamma_add]
    for _ in range(rng.randint(1, 3)):
        target = rng.choice(("add", "product", "gamma") if gadd is not None else ("add", "product"))
        if target == "add":
            add[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        elif target == "product":
            prod[rng.randrange(n)][rng.randrange(ng)][rng.randrange(n)] = rng.randrange(n)
        else:
            gadd[rng.randrange(ng)][rng.randrange(ng)] = rng.choice((*gs.gamma_elements, "x", "y"))
    zero = gs.zero
    roll = rng.random()
    if roll < 0.2:
        zero = rng.choice(gs.elements)
    elif roll < 0.3:
        zero = None
    return GammaSemiring(FiniteCommutativeSemigroup(gs.elements, add), gs.gamma_elements, gadd, prod, zero)
