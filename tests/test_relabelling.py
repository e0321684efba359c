"""Relabelling a structure changes no axiom verdict and no subalgebra.

The axiom scans and the subalgebra walk read a structure by position: byte
slices of its product rows, rows shared by object, gamma sums coded in
first-seen order, masks read a byte at a time.  A relabelled copy moves
every carrier element and every gamma label to a new position and renames
it, and must still give the same weak and strict `passed`, the same set of
violated axioms, and the same closed subsets once its masks, or its listed
label tuples, are mapped back.  Its k-fold product is the relabelled
product: renaming each coordinate is an isomorphism onto the product of the
original, so a product mask judged from the base tables, mapped
coordinatewise, keeps its closure verdict.
A witness depends on scan order, so it is not compared; each one, mapped
back, must be a real violation of the original structure, judged here from
the definitions, label by label.  This is a metamorphic test (Chen, Cheung &
Yiu, HKUST-CS98-01, 1998).
"""

import random

import pytest
from conftest import mutant

from softgamma import (
    FiniteCommutativeSemigroup,
    GammaSemiring,
    check_gamma_semiring,
    enumerate_sub_gamma_semirings,
    make_matrix_gamma,
    make_minmax_gamma,
    make_zn_gamma,
    product_gamma,
    ternary_product,
)
from softgamma.algebra import iter_bits, sub_gamma_witness_mask

BASES = {
    "zn6-weak": make_zn_gamma(6, (1,)),
    "zn8-strict": make_zn_gamma(8, (2, 4, 6), strict=True),
    "zn9-strict": make_zn_gamma(9, (3, 4), strict=True),
    "zn12-strict": make_zn_gamma(12, (2, 3, 5), strict=True),
    "minmax5": make_minmax_gamma(5, (1, 2, 3)),
    "minmax9": make_minmax_gamma(9, (0, 4, 8)),
    "matrix-2x1x2": make_matrix_gamma(2, 1, 2),
    "matrix-2x2x2": make_matrix_gamma(2, 2, 2),
}
RELABELLINGS = 12

# mutants: two product entries of a base changed, so most fail some axiom,
# and conftest.mutant's, which also change +, the gamma sums and the zero
MUTANT_BASES = ("zn8-strict", "zn9-strict", "minmax5", "matrix-2x1x2", "zn6-weak")
MUTANTS = 30
MUTANT_RELABELLINGS = 3


def _mutant(gs, rng):
    n, ng = gs.size, len(gs.gamma_elements)
    prod = [[list(row) for row in layer] for layer in gs.product]
    for _ in range(2):
        prod[rng.randrange(n)][rng.randrange(ng)][rng.randrange(n)] = rng.randrange(n)
    return GammaSemiring(gs.s, gs.gamma_elements, gs.gamma_add, prod, gs.zero)


def _shuffled(rng, k):
    order = list(range(k))
    rng.shuffle(order)
    return order


def relabel(gs, rng):
    """(copy, back): copy holds at position i the element of gs at p[i] and at
    gamma position g the gamma label at q[g], every label renamed; back maps
    each label of copy (and each gamma sum outside its gamma set, which keeps
    its name) to the label of gs."""
    n, ng = gs.size, len(gs.gamma_elements)
    p, q = _shuffled(rng, n), _shuffled(rng, ng)
    inverse = [0] * n
    for i, old in enumerate(p):
        inverse[old] = i
    names = {gs.elements[old]: f"e{i}" for i, old in enumerate(p)}
    gnames = {gs.gamma_elements[old]: f"g{i}" for i, old in enumerate(q)}
    add = [[inverse[gs.s.add_table[p[i]][p[j]]] for j in range(n)] for i in range(n)]
    # a row shared by several (a, alpha) of gs stays one object in the copy
    rows = {}

    def moved(row):
        if id(row) not in rows:
            rows[id(row)] = tuple(inverse[row[p[j]]] for j in range(n))
        return rows[id(row)]

    prod = [[moved(gs.product[p[i]][q[g]]) for g in range(ng)] for i in range(n)]
    gadd = None
    if gs.gamma_add is not None:
        gadd = [[gnames.get(x, x) for x in (gs.gamma_add[q[g]][q[h]] for h in range(ng))] for g in range(ng)]
    zero = None if gs.zero is None else names[gs.zero]
    copy = GammaSemiring(
        FiniteCommutativeSemigroup(tuple(names[gs.elements[old]] for old in p), add),
        tuple(gnames[gs.gamma_elements[old]] for old in q), gadd, prod, zero,
    )
    back = {new: old for old, new in (*names.items(), *gnames.items())}
    return copy, back, p


def _violated(gs, axiom, w):
    """Whether the label tuple w falsifies axiom on gs, from the definitions."""
    plus = gs.s.add
    pos, gpos = gs.s.pos, gs.gamma_pos

    def times(a, alpha, b):
        return gs.elements[gs.product[pos(a)][gpos(alpha)][pos(b)]]

    def gplus(alpha, beta):
        return gs.gamma_add[gpos(alpha)][gpos(beta)]

    if axiom == "s-commutativity":
        a, b = w
        return plus(a, b) != plus(b, a)
    if axiom == "s-associativity":
        a, b, c = w
        return plus(plus(a, b), c) != plus(a, plus(b, c))
    if axiom == "zero-identity":
        (a,) = w
        return plus(gs.zero, a) != a
    if axiom == "gamma-closure":
        alpha, beta, total = w
        return gplus(alpha, beta) == total and total not in gs.gamma_elements
    if axiom == "gamma-commutativity":
        alpha, beta = w
        return gplus(alpha, beta) != gplus(beta, alpha)
    if axiom == "gamma-associativity":
        alpha, beta, gamma = w
        inner = (gplus(alpha, beta), gplus(beta, gamma))
        return all(x in gs.gamma_elements for x in inner) and gplus(inner[0], gamma) != gplus(alpha, inner[1])
    if axiom == "distributive-sum-left":
        a, b, alpha, c = w
        return times(plus(a, b), alpha, c) != plus(times(a, alpha, c), times(b, alpha, c))
    if axiom == "distributive-sum-right":
        a, alpha, b, c = w
        return times(a, alpha, plus(b, c)) != plus(times(a, alpha, b), times(a, alpha, c))
    if axiom == "distributive-gamma":
        a, alpha, beta, b = w
        total = gplus(alpha, beta)
        return total in gs.gamma_elements and times(a, total, b) != plus(times(a, alpha, b), times(a, beta, b))
    if axiom == "product-associativity":
        a, alpha, b, beta, c = w
        return times(a, alpha, times(b, beta, c)) != times(times(a, alpha, b), beta, c)
    raise AssertionError(f"no definition for axiom {axiom!r}")


def _modes(gs):
    return ("weak",) if gs.gamma_add is None else ("weak", "strict")


def _assert_invariant(gs, rng):
    copy, back, p = relabel(gs, rng)
    for mode in _modes(gs):
        report, moved = check_gamma_semiring(gs, mode), check_gamma_semiring(copy, mode)
        assert moved.passed == report.passed, mode
        assert {v.axiom for v in moved.violations} == {v.axiom for v in report.violations}, mode
        for v in report.violations:
            assert _violated(gs, v.axiom, v.witness), (mode, v)
        for v in moved.violations:
            assert _violated(gs, v.axiom, tuple(back.get(x, x) for x in v.witness)), (mode, v)
    mapped = {sum(1 << p[i] for i in range(gs.size) if mask >> i & 1) for mask in copy.sub_masks}
    assert mapped == set(gs.sub_masks)
    listed, moved_listed = enumerate_sub_gamma_semirings(gs), enumerate_sub_gamma_semirings(copy)
    assert len(moved_listed) == len(listed)
    assert {frozenset(back[x] for x in labels) for labels in moved_listed} == set(map(frozenset, listed))


@pytest.mark.parametrize("name", BASES)
def test_a_relabelled_base_keeps_its_verdicts_and_subalgebras(name):
    rng = random.Random(name)
    for _ in range(RELABELLINGS):
        _assert_invariant(BASES[name], rng)


@pytest.mark.parametrize("make", [_mutant, mutant], ids=["two-products", "conftest"])
def test_relabelled_mutants_keep_their_verdicts_and_subalgebras(make):
    failed = set()
    for seed in range(MUTANTS):
        rng = random.Random(seed)
        gs = make(BASES[MUTANT_BASES[seed % len(MUTANT_BASES)]], rng)
        failed.update(v.axiom for mode in _modes(gs) for v in check_gamma_semiring(gs, mode).violations)
        for _ in range(MUTANT_RELABELLINGS):
            _assert_invariant(gs, rng)
    # the mutants reach failing scans, whose witnesses are mapped back
    assert {"distributive-sum-left", "distributive-sum-right", "product-associativity"} <= failed


# every base squared but matrix-2x2x2, whose 256-element square with 16 gamma
# labels takes a second to walk, and two cubes
PRODUCTS = [*((name, 2) for name in BASES if name != "matrix-2x2x2"), ("zn6-weak", 3), ("matrix-2x1x2", 3)]


@pytest.mark.parametrize("name,k", PRODUCTS)
def test_the_product_of_a_relabelled_base_is_the_relabelled_product(name, k):
    gs = BASES[name]
    copy, back, _ = relabel(gs, random.Random(name))
    big, moved = product_gamma(gs, k), product_gamma(copy, k)
    # phi renames each coordinate; on positions, moved position i is big position at[i]
    at = [big.s.pos(tuple(back[x] for x in label)) for label in moved.elements]
    gat = [big.gamma_pos(back[alpha]) for alpha in moved.gamma_elements]
    assert sorted(at) == list(range(big.size))
    for i in range(moved.size):
        for j in range(moved.size):
            assert at[moved.s.add_table[i][j]] == big.s.add_table[at[i]][at[j]]
            for g in range(len(gat)):
                assert at[moved.product[i][g][j]] == big.product[at[i]][gat[g]][at[j]]
    assert (moved.zero is None) is (big.zero is None)
    if moved.zero is not None:
        assert big.elements[at[moved.s.pos(moved.zero)]] == big.zero
    if moved.gamma_add is not None:
        assert all(back.get(moved.gamma_add[g][h], moved.gamma_add[g][h]) == big.gamma_add[gat[g]][gat[h]]
                   for g in range(len(gat)) for h in range(len(gat)))


def _box(n, factors):
    """The mask of the product of factors, base masks of an n-element carrier,
    in product_gamma's row-major positions."""
    mask = 1
    for factor in factors:
        # point t of the product so far owns positions t * n .. t * n + n - 1
        mask = sum(factor << t * n for t in iter_bits(mask))
    return mask


def _moved(mask, inverse, n, k):
    """mask of the k-fold product with every coordinate d moved to inverse[d]."""
    out = 0
    for q in iter_bits(mask):
        r = 0
        for c in reversed(range(k)):
            r = r * n + inverse[q // n**c % n]
        out |= 1 << r
    return out


def _unclosed_at(big, mask, kind, elements):
    """Whether a closure witness's kind and elements, labels of big, show mask
    unclosed: its operands lie in mask and their sum or product, its last
    label, does not."""
    inside = set(big.labels_of_mask(mask))
    if kind == "add-closure":
        p, q, r = elements
        value = big.s.add(p, q)
    else:
        p, alpha, q, r = elements
        value = ternary_product(big, p, alpha, q)
    return p in inside and q in inside and value == r and r not in inside


@pytest.mark.parametrize("name,k", PRODUCTS)
def test_a_product_mask_keeps_its_verdict_when_the_base_is_relabelled(name, k):
    # the judge reads a product mask by its fibre classes over the base
    # tables: a box A x T has one class, a union of boxes over disjoint first
    # coordinates, X1 x T1 | X2 x T2 with T1 != T2, has two
    gs = BASES[name]
    n, m, rng = gs.size, gs.size ** (k - 1), random.Random(name)
    copy, back, p = relabel(gs, rng)
    inverse = [0] * n
    for i, old in enumerate(p):
        inverse[old] = i
    masks = [_box(n, [rng.choice(gs.sub_masks) for _ in range(k)]) for _ in range(8)]
    masks += [_box(n, [rng.randrange(1, 1 << n) for _ in range(k)]) for _ in range(8)]
    for _ in range(12):
        first = rng.randrange(1, (1 << n) - 1)
        second = rng.randrange(1, 1 << n) & ~first or (1 << n) - 1 & ~first
        tails = rng.sample(range(1, 1 << m), 2)
        masks.append(sum(tail << x * m for rows, tail in zip((first, second), tails) for x in iter_bits(rows)))
    big, failed = product_gamma(gs, k), 0
    for mask in masks:
        w = sub_gamma_witness_mask(copy, _moved(mask, inverse, n, k), k)
        assert w.verdict == sub_gamma_witness_mask(gs, mask, k).verdict, mask
        if not w:
            failed += 1
            mapped = [tuple(back[x] for x in e) if isinstance(e, tuple) else back[e] for e in w.elements]
            assert _unclosed_at(big, mask, w.kind, mapped), (mask, w)
    assert 0 < failed < len(masks), failed


# the kinds of label in each axiom's witness, in order: e carrier, g gamma
WITNESS_KINDS = {
    "s-commutativity": "ee", "s-associativity": "eee", "zero-identity": "e", "gamma-commutativity": "gg",
    "gamma-associativity": "ggg", "distributive-sum-left": "eege", "distributive-sum-right": "egee",
    "distributive-gamma": "egge", "product-associativity": "egege",
}


@pytest.mark.parametrize("name", ["minmax5", "zn8-strict"])
def test_the_violation_oracle_refuses_every_tuple_where_the_axioms_hold(name):
    # minmax5 passes strict mode; zn8 fails only gamma closure, so its
    # distributive-gamma and gamma-associativity tuples skip sums outside gamma
    gs, rng = BASES[name], random.Random(7)
    assert {v.axiom for v in check_gamma_semiring(gs, "strict").violations} <= {"gamma-closure"}
    for axiom, kinds in WITNESS_KINDS.items():
        for _ in range(200):
            w = tuple(rng.choice(gs.elements if kind == "e" else gs.gamma_elements) for kind in kinds)
            assert not _violated(gs, axiom, w), (axiom, w)
