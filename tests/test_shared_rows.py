"""Product tables whose rows are shared objects: the generators build each
distinct row b -> a·alpha·b once, and the table check and the axiom scans
read each distinct row object once.  The tables must still be the ones the
definitions give, and a shared row must be judged as a copy of it would be."""

import random
import re
from itertools import product as iproduct

import pytest

from softgamma import (
    FiniteCommutativeSemigroup,
    GammaSemiring,
    InputError,
    check_gamma_semiring,
    enumerate_sub_gamma_semirings,
    make_minmax_gamma,
    make_zn_gamma,
    product_gamma,
)
from softgamma.generators import _integer_carrier, _integer_gamma

GAMMAS = [(0,), (1,), (0, 1), (1, 2, 3), (2, 4, 6, 8, 10), tuple(range(12))]

DEFINITIONS = {
    "zn": (lambda a, b, n: (a + b) % n, lambda a, g, b, n: a * g * b % n),
    "minmax": (lambda a, b, n: max(a, b), lambda a, g, b, n: min(a, g, b)),
}


def _assert_tables(gs, kind, n, gamma):
    add, mul = DEFINITIONS[kind]
    assert gs.elements == tuple(str(i) for i in range(n))
    assert gs.gamma_elements == tuple(str(g) for g in gamma)
    assert gs.s.add_table == tuple(tuple(add(a, b, n) for b in range(n)) for a in range(n))
    assert gs.product == tuple(tuple(tuple(mul(a, g, b, n) for b in range(n)) for g in gamma) for a in range(n))


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", ["zn", "minmax"])
def test_generator_tables_match_the_definitions(kind, n):
    for gamma in {tuple(sorted({g % n for g in picks})) for picks in GAMMAS}:
        gs = make_zn_gamma(n, gamma, strict=True) if kind == "zn" else make_minmax_gamma(n, gamma)
        _assert_tables(gs, kind, n, gamma)
        assert gs.gamma_add == tuple(tuple(str(DEFINITIONS[kind][0](g, h, n)) for h in gamma) for g in gamma)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", ["zn", "minmax"])
def test_tables_with_gamma_labels_at_or_above_n_match_the_definitions(kind, n):
    # a homomorphism target keeps its source's gamma labels, which may exceed n - 1
    for gamma in [(n,), (0, n + 1), (1, 2 * n + 3, 5 * n + 7), tuple(range(n, 3 * n, 2))]:
        gs = _integer_gamma(kind, n, gamma, with_gamma_add=False)
        _assert_tables(gs, kind, n, gamma)
        assert gs.gamma_add is None


def _definitional(kind, n, gamma, strict):
    """The structure of the family's definitions, built from plain lists through the public constructors."""
    add, mul = DEFINITIONS[kind]
    s = FiniteCommutativeSemigroup([str(i) for i in range(n)], [[add(a, b, n) for b in range(n)] for a in range(n)])
    product = [[[mul(a, g, b, n) for b in range(n)] for g in gamma] for a in range(n)]
    gamma_add = [[str(add(g, h, n)) for h in gamma] for g in gamma] if strict else None
    return GammaSemiring(s, [str(g) for g in gamma], gamma_add, product, zero="0")


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("kind", ["zn", "minmax"])
def test_structures_over_a_shared_carrier_equal_the_definitional_ones(kind, n):
    rng = random.Random(n)
    for _ in range(8):
        # labels up to 3n - 1, as a homomorphism target keeps its source's gamma labels
        gamma = tuple(sorted(rng.sample(range(3 * n), rng.randint(1, min(4, 3 * n)))))
        for strict in (False, True):
            assert _integer_gamma(kind, n, gamma, strict) == _definitional(kind, n, gamma, strict)
        inside = tuple(sorted({g % n for g in gamma}))
        public = make_zn_gamma(n, inside) if kind == "zn" else make_minmax_gamma(n, inside)
        assert public == _definitional(kind, n, inside, kind == "minmax")


def test_gamma_sets_over_one_carrier_share_it():
    assert make_zn_gamma(6, (1,)).s is make_zn_gamma(6, (2, 3), strict=True).s is _integer_gamma("zn", 6, (7,), False).s
    assert make_minmax_gamma(6, (1,)).s is make_minmax_gamma(6, (2, 5)).s
    assert make_minmax_gamma(6, (1,)).s is not make_zn_gamma(6, (1,)).s
    assert make_zn_gamma(6, (1,)).s is not make_zn_gamma(5, (1,)).s
    assert type(_integer_carrier.cache_info().maxsize) is int


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "base", [make_zn_gamma(4, (0, 2), strict=True), make_minmax_gamma(3, (0, 1, 2))], ids=["z4", "minmax3"]
)
def test_the_product_of_a_row_shared_base_matches_a_copied_base(base, k):
    # the same structure with every row its own list, so no row object is shared
    copied = GammaSemiring(
        FiniteCommutativeSemigroup(base.elements, [list(row) for row in base.s.add_table]),
        base.gamma_elements,
        base.gamma_add,
        [[list(row) for row in layer] for layer in base.product],
        zero=base.zero,
    )
    assert len({id(row) for layer in base.product for row in layer}) < base.size * len(base.gamma_elements)
    shared, plain = product_gamma(base, k), product_gamma(copied, k)
    assert shared == plain
    elements = list(iproduct(base.elements, repeat=k))
    pos = {e: i for i, e in enumerate(elements)}
    gpos = {g: i for i, g in enumerate(base.gamma_elements)}
    for i, a in enumerate(elements):
        for g in base.gamma_elements:
            row = shared.product[i][gpos[g]]
            for j, b in enumerate(elements):
                image = tuple(base.elements[base.product[base.s.pos(x)][gpos[g]][base.s.pos(y)]] for x, y in zip(a, b))
                assert row[j] == pos[image]
    assert check_gamma_semiring(shared, "strict") == check_gamma_semiring(plain, "strict")
    if k == 2:  # the cube of minmax3 has more subalgebras than the enumeration bound
        assert enumerate_sub_gamma_semirings(shared) == enumerate_sub_gamma_semirings(plain)


def _structure(rows):
    """A 2-element structure, gamma {g, h}, whose four product rows are rows."""
    s = FiniteCommutativeSemigroup(("0", "1"), ((0, 1), (1, 0)))
    return GammaSemiring(s, ("g", "h"), None, [[rows[0], rows[1]], [rows[2], rows[3]]], zero="0")


@pytest.mark.parametrize("kind", [list, tuple])
def test_a_repeated_row_object_gives_what_equal_rows_give(kind):
    row = kind([0, 0])
    other = kind([0, 1])
    shared = _structure([row, row, other, row])
    fresh = _structure([kind([0, 0]), kind([0, 0]), kind([0, 1]), kind([0, 0])])
    assert shared == fresh
    assert shared.product == (((0, 0), (0, 0)), ((0, 1), (0, 0)))
    assert check_gamma_semiring(shared, "weak") == check_gamma_semiring(fresh, "weak")
    assert enumerate_sub_gamma_semirings(shared) == enumerate_sub_gamma_semirings(fresh)
    carrier = ("0", "1")
    assert FiniteCommutativeSemigroup(carrier, [row, row]) == FiniteCommutativeSemigroup(carrier, [kind([0, 0])] * 2)


@pytest.mark.parametrize("kind", [list, tuple])
@pytest.mark.parametrize(
    "bad,message",
    [
        ([0, 2], "product table layer entry 2 is not a position in 0..1"),
        ([0, True], "product table layer entry True is not a position in 0..1"),
        ([0], "product table layer is ragged: row of length 1, expected 2"),
        ([0, 1, 1], "product table layer is ragged: row of length 3, expected 2"),
    ],
    ids=["entry-out-of-range", "entry-bool", "short", "long"],
)
def test_a_repeated_bad_row_raises_what_equal_rows_raise(kind, bad, message):
    good = kind([0, 1])
    row = kind(bad)
    # the bad row comes after a good one in the first layer and again in the second
    for rows in ([good, row, row, row], [good, row, kind(bad), kind(bad)]):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            _structure(rows)


def test_a_repeated_row_that_is_not_a_list_raises_what_equal_rows_raise():
    for rows in ([[0, 1], "ab", "ab", "ab"], [[0, 1], "ab", "a" + "b", "".join("ab")]):
        with pytest.raises(InputError, match="^product table layer row 'ab' must be a list$"):
            _structure(rows)
