import itertools
import random

import pytest

from softgamma import (
    FiniteCommutativeSemigroup,
    GammaSemiring,
    InputError,
    SizeLimitError,
    SoftSet,
    check_gamma_semiring,
    enumerate_sub_gamma_semirings,
    is_soft_gamma_semiring,
    is_sub_gamma_semiring,
    make_matrix_gamma,
    make_minmax_gamma,
    make_zn_gamma,
    product_gamma,
    sub_gamma_witness,
    ternary_product,
)
from softgamma.algebra import MAX_SUBALGEBRAS, _closure_witness, _fold_image, sub_gamma_witness_mask

from conftest import mutant


def naive_subsemirings(gs):
    """Power-set oracle over labels, using only the public add/product lookups;
    sorted into the canonical bitmask order for list comparison."""
    out = []
    elements = gs.elements
    pos = {e: i for i, e in enumerate(elements)}
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            chosen = set(combo)
            closed = all(gs.s.add(a, b) in chosen for a in chosen for b in chosen) and all(
                ternary_product(gs, a, g, b) in chosen
                for a in chosen
                for g in gs.gamma_elements
                for b in chosen
            )
            if closed:
                out.append(frozenset(chosen))
    return sorted(out, key=lambda sub: sum(1 << pos[e] for e in sub))


class TestPredicate:
    def test_z8_known_subsets(self, z8):
        assert is_sub_gamma_semiring(z8, {"0", "2", "4", "6"})
        assert is_sub_gamma_semiring(z8, z8.elements)
        assert is_sub_gamma_semiring(z8, {"0", "4"})
        assert not is_sub_gamma_semiring(z8, {"0", "3"})

    def test_empty_subset_is_false_not_an_error(self, z8):
        assert not is_sub_gamma_semiring(z8, ())
        assert sub_gamma_witness(z8, ()).kind == "empty-subset"

    def test_witness_for_additive_escape(self, z8):
        w = sub_gamma_witness(z8, {"0", "3"})
        assert not w
        assert w.kind == "add-closure"
        assert w.elements == ("3", "3", "6")

    def test_whole_carrier_always_closed(self, z8, z4_full):
        for gs in (z8, z4_full, make_minmax_gamma(5, (1, 2, 3)), make_matrix_gamma(2, 1, 2)):
            assert is_sub_gamma_semiring(gs, gs.elements)


def reference_witness(gs, mask):
    """(kind, elements) of the first escape, or None when closed: additive
    pairs first, then (i, gamma, j) triples, both lexicographic by position."""
    if mask == 0:
        return ("empty-subset", ())
    members = [e for i, e in enumerate(gs.elements) if mask >> i & 1]
    for a in members:
        for b in members:
            c = gs.s.add(a, b)
            if c not in members:
                return ("add-closure", (a, b, c))
    for a in members:
        for g in gs.gamma_elements:
            for b in members:
                c = ternary_product(gs, a, g, b)
                if c not in members:
                    return ("product-closure", (a, g, b, c))
    return None


def random_table_structure(seed):
    """Seeded tables with no axiom imposed, 3 <= n <= 5."""
    rng = random.Random(seed)
    n, ng = rng.randint(3, 5), rng.randint(1, 3)
    add = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    prod = [[[rng.randrange(n) for _ in range(n)] for _ in range(ng)] for _ in range(n)]
    elements = tuple(f"e{i}" for i in range(n))
    return GammaSemiring(FiniteCommutativeSemigroup(elements, add), tuple(f"g{g}" for g in range(ng)), None, prod)


class TestWitnessOrder:
    @pytest.mark.parametrize(
        "gs",
        [make_zn_gamma(4, (0, 1, 2, 3), strict=True), make_minmax_gamma(4, (1, 2))]
        + [random_table_structure(seed) for seed in range(6)],
        ids=["z4full", "minmax4"] + [f"random{seed}" for seed in range(6)],
    )
    def test_every_mask_matches_the_reference_scan(self, gs):
        for mask in range(gs.full_mask + 1):
            expected = reference_witness(gs, mask)
            w = sub_gamma_witness_mask(gs, mask)
            if expected is None:
                assert w
            else:
                assert not w
                assert (w.kind, w.elements) == expected
            assert sub_gamma_witness_mask(gs, mask) == w

    def test_random_tables_break_some_closure(self):
        # the seeded tables must exercise both witness kinds
        kinds = {
            reference_witness(gs, mask)[0]
            for gs in (random_table_structure(seed) for seed in range(6))
            for mask in range(1, gs.full_mask + 1)
            if reference_witness(gs, mask) is not None
        }
        assert {"add-closure", "product-closure"} <= kinds


class TestProductScan:
    """The k-fold product judged from the base tables gives, mask for mask,
    the witness that the closure scan gives on the built product_gamma."""

    @staticmethod
    def assert_agrees(base, k, masks):
        built = product_gamma(base, k)
        for mask in masks:
            assert sub_gamma_witness_mask(base, mask, k) == _closure_witness(built, mask), (k, mask)

    @pytest.mark.parametrize(
        "base,k",
        [
            (make_zn_gamma(2, (1,)), 3),
            (make_zn_gamma(3, (1, 2)), 2),
            (make_minmax_gamma(3, (1, 2)), 2),
            (make_matrix_gamma(2, 1, 1), 3),
            (make_zn_gamma(4, (1, 3)), 1),
            (make_matrix_gamma(2, 1, 2), 1),
        ],
        ids=["z2-cubed", "z3-squared", "minmax3-squared", "matrix211-cubed", "z4-first-power", "matrix212-first-power"],
    )
    def test_every_mask_of_a_small_product(self, base, k):
        self.assert_agrees(base, k, range(1 << base.size**k))

    @pytest.mark.parametrize("n,gamma", [(4, (1, 3)), (6, (2, 3))])
    def test_seeded_masks_and_every_subalgebra_of_a_square(self, n, gamma):
        base = make_zn_gamma(n, gamma)
        rng = random.Random(n)
        subs = product_gamma(base, 2).sub_masks
        self.assert_agrees(base, 2, [*subs, *(rng.getrandbits(n * n) for _ in range(400))])

    @pytest.mark.parametrize(
        "base,k", [(make_zn_gamma(3, (1, 2)), 2), (make_zn_gamma(2, (0, 1)), 3)], ids=["z3-squared", "z2-cubed"]
    )
    def test_every_mask_over_mutated_base_tables(self, base, k):
        rng = random.Random(base.size)
        for _ in range(25):
            self.assert_agrees(mutant(base, rng), k, range(1 << base.size**k))

    @staticmethod
    def rebuild(gs):
        """gs as a fresh structure over the same tables, its memos empty."""
        return GammaSemiring(gs.s, gs.gamma_elements, gs.gamma_add, gs.product, gs.zero)

    @pytest.mark.parametrize(
        "base,k",
        [
            (make_zn_gamma(3, (1, 2)), 2),
            (make_zn_gamma(2, (1,)), 3),
            (make_minmax_gamma(3, (1, 2)), 2),
            (make_matrix_gamma(2, 1, 1), 3),
            *((mutant(make_zn_gamma(3, (1, 2)), random.Random(seed)), 2) for seed in range(3)),
            *((mutant(make_minmax_gamma(3, (0, 2)), random.Random(seed)), 2) for seed in range(3)),
            *((mutant(make_zn_gamma(2, (0, 1)), random.Random(seed)), 3) for seed in range(3)),
        ],
        ids=["z3-squared", "z2-cubed", "minmax3-squared", "matrix211-cubed"]
        + [f"{name}-mutant{seed}" for name in ("z3-squared", "minmax3-squared", "z2-cubed") for seed in range(3)],
    )
    def test_product_verdicts_do_not_depend_on_what_the_fold_memo_holds(self, base, k):
        oracle = product_gamma(base, k)
        masks = range(1 << oracle.size)
        expected = [_closure_witness(oracle, mask) for mask in masks]
        fresh = self.rebuild(base)
        for gs, order in ((base, masks), (base, reversed(masks)), (fresh, masks)):
            for mask in order:
                assert _closure_witness(gs, mask, k) == expected[mask], (k, mask)
        # one entry per operation and tail fibre (level k - 1), each the
        # operation's image of that fibre with itself
        n, j = base.size, k - 1
        tails = 1 << n**j
        for gs in (base, fresh):
            memo = gs._fold_memo
            assert len(memo) <= len(gs._ops) * (tails - 1)
            for (o, level, fibre), image in memo.items():
                assert 0 <= o < len(gs._ops) and level == j and 0 < fibre < tails
                assert image == _fold_image(gs._ops[o], n, j, fibre, fibre, {})

    @pytest.mark.parametrize(
        "base", [make_zn_gamma(4, (1, 3)), make_minmax_gamma(4, (1, 2)), make_zn_gamma(6, (2, 3))],
        ids=["z4", "minmax4", "z6"],
    )
    def test_a_union_of_two_boxes_is_judged_by_its_two_fibre_classes(self, base):
        # a mask of the square is X1 x F1 | X2 x F2 exactly when it has two
        # distinct nonempty fibres F1, F2, over the disjoint rows X1, X2
        n = base.size
        oracle = product_gamma(base, 2)
        rng = random.Random(n)

        def classes(mask):
            return len({mask >> x * n & (1 << n) - 1 for x in range(n)} - {0})

        def box(rows, fibre):
            return sum(fibre << x * n for x in range(n) if rows >> x & 1)

        unions = []
        for _ in range(300):
            x1 = rng.randrange(1, (1 << n) - 1)
            x2 = rng.randrange(1, 1 << n) & ~x1 or (1 << n) - 1 & ~x1
            f1, f2 = rng.sample(range(1, 1 << n), 2)
            unions.append(box(x1, f1) | box(x2, f2))
        closed = [mask for mask in oracle.sub_masks if classes(mask) == 2]
        assert closed
        for mask in unions + closed:
            assert classes(mask) == 2
            assert _closure_witness(base, mask, 2) == _closure_witness(oracle, mask), mask

    def test_a_product_above_the_size_limit_is_refused_unbuilt(self):
        base = make_zn_gamma(17, (1,))
        with pytest.raises(SizeLimitError, match="^product carrier would have 4913 elements, above 4096$"):
            sub_gamma_witness_mask(base, 1, 3)
        assert base.__dict__.get("_closed_memo", {}) == {}

    @pytest.mark.parametrize("arity,mask", [(None, 1 << 2), (2, 1 << 4), (None, -1), (2, -1)])
    def test_a_mask_off_the_carrier_is_an_input_error(self, arity, mask):
        with pytest.raises(InputError, match="not a subset of the"):
            sub_gamma_witness_mask(make_zn_gamma(2, (1,)), mask, arity)

    def test_a_soft_set_is_judged_over_the_product_carrier_only(self):
        base = make_zn_gamma(2, (1,))
        square = product_gamma(base, 2)
        whole = SoftSet(square.elements, ("a",), (square.full_mask,))
        assert is_soft_gamma_semiring(base, whole, 2)
        with pytest.raises(InputError, match="universe must equal the structure carrier"):
            is_soft_gamma_semiring(base, whole, 3)
        with pytest.raises(InputError, match="universe must equal the structure carrier"):
            is_soft_gamma_semiring(base, SoftSet(base.elements, ("a",), (1,)), 2)


class TestEnumeration:
    def test_z4_full_enumeration_matches_hand_count(self, z4_full):
        subs = [frozenset(t) for t in enumerate_sub_gamma_semirings(z4_full)]
        assert subs == [
            frozenset({"0"}),
            frozenset({"0", "2"}),
            frozenset({"0", "1", "2", "3"}),
        ]

    def test_one_element_structure(self):
        gs = make_zn_gamma(1, (0,))
        assert enumerate_sub_gamma_semirings(gs) == [("0",)]

    def test_z8_contains_paper_values(self, z8):
        subs = [frozenset(t) for t in enumerate_sub_gamma_semirings(z8)]
        assert frozenset({"0", "2", "4", "6"}) in subs
        assert frozenset(z8.elements) in subs

    def test_canonical_order_is_ascending_bitmask(self, z8):
        subs = enumerate_sub_gamma_semirings(z8)
        masks = [z8.subset_mask(t) for t in subs]
        assert masks == sorted(masks)

    @pytest.mark.parametrize(
        "gs",
        [
            make_zn_gamma(2, (0, 1)),
            make_zn_gamma(4, (1, 3)),
            make_zn_gamma(6, (2, 3)),
            make_zn_gamma(8, (2, 4, 6)),
            make_minmax_gamma(5, (1, 2, 3)),
            make_matrix_gamma(2, 1, 2),
            make_zn_gamma(12, (2, 4, 6, 8, 10)),
            make_minmax_gamma(12, (1, 4, 7, 10)),
            product_gamma(make_zn_gamma(2, (1,)), 3),
            make_matrix_gamma(3, 1, 2),
        ]
        # mutated tables close over several rounds and cut branches whose
        # closure meets a left-out element, which the families rarely do
        + [mutant(make_minmax_gamma(7, (1, 3, 5)), random.Random(seed)) for seed in range(6)]
        + [mutant(make_zn_gamma(8, (2, 4, 6)), random.Random(seed)) for seed in range(6)],
        ids=["z2", "z4", "z6", "z8", "minmax5", "matrix212", "z12", "minmax12", "z2cubed", "matrix312"]
        + [f"minmax7-mutant{seed}" for seed in range(6)]
        + [f"z8-mutant{seed}" for seed in range(6)],
    )
    def test_enumeration_equals_naive_power_set_filter(self, gs):
        assert [frozenset(t) for t in enumerate_sub_gamma_semirings(gs)] == naive_subsemirings(gs)

    @pytest.mark.parametrize("n", [24, 32])
    def test_zn_with_even_gamma_has_exactly_the_subgroups(self, n):
        # closed under + in a finite cyclic group means a subgroup, and every
        # subgroup dZ_n is closed under a·alpha·b
        gs = make_zn_gamma(n, range(0, n, 2))
        subgroups = [
            tuple(str(x) for x in range(0, n, d)) for d in range(1, n + 1) if n % d == 0
        ]
        subgroups.sort(key=gs.subset_mask)
        assert enumerate_sub_gamma_semirings(gs, max_carrier=n) == subgroups

    def test_minmax20_count_matches_closed_form(self):
        # X is closed iff it holds every gamma label below max(X)
        n, gamma = 20, range(0, 20, 2)
        gs = make_minmax_gamma(n, gamma)
        expected = sum(2 ** (m - sum(1 for g in gamma if g < m)) for m in range(n))
        assert expected == 2046
        masks = gs.sub_masks
        assert len(masks) == expected
        assert list(masks) == sorted(masks)

    def test_enumeration_leaves_no_closure_memo(self):
        gs = make_zn_gamma(16, (2,))
        assert len(enumerate_sub_gamma_semirings(gs, max_carrier=16)) == 5
        assert gs.__dict__.get("_closed_memo", {}) == {}

    @pytest.mark.parametrize("bound", ["16", True, 12.5])
    def test_non_integer_bound_argument_is_an_input_error(self, bound):
        with pytest.raises(InputError, match="max_carrier"):
            enumerate_sub_gamma_semirings(make_zn_gamma(4, (1,)), max_carrier=bound)

    def test_carrier_above_bound_is_refused(self):
        # no carrier cap unless one is passed
        gs = make_zn_gamma(16, (2,))
        assert len(enumerate_sub_gamma_semirings(gs)) == 5
        with pytest.raises(SizeLimitError, match="^carrier has 16 elements, above the enumeration bound 15$"):
            enumerate_sub_gamma_semirings(gs, max_carrier=15)

    def test_bound_overridable_by_argument(self):
        gs = make_zn_gamma(13, (1,))
        assert enumerate_sub_gamma_semirings(gs, max_carrier=13)
        with pytest.raises(SizeLimitError):
            enumerate_sub_gamma_semirings(gs, max_carrier=5)

    def test_output_at_the_bound_is_listed(self):
        # minmax n with gamma {0}: X is closed iff it holds 0 once max(X) > 0,
        # so there are 1 + 2**0 + ... + 2**(n-2) = 2**(n-1) subalgebras
        gs = make_minmax_gamma(13, (0,))
        subs = enumerate_sub_gamma_semirings(gs)
        assert len(subs) == MAX_SUBALGEBRAS == 2**12
        assert [gs.subset_mask(t) for t in subs] == sorted(gs.sub_masks)

    @pytest.mark.parametrize("max_carrier", [None, 14])
    def test_output_above_the_bound_is_refused(self, max_carrier):
        gs = make_minmax_gamma(14, (0,))
        with pytest.raises(SizeLimitError, match="^more than 4096 sub gamma-semirings, the enumeration bound$"):
            enumerate_sub_gamma_semirings(gs, max_carrier=max_carrier)

    @pytest.mark.parametrize("mask", [1 << 2, -1])
    def test_labels_of_a_mask_off_the_carrier_is_an_input_error(self, mask):
        gs = make_zn_gamma(2, (1,))
        with pytest.raises(InputError, match="^mask -?[0-9]+ is not a subset of the 2-element carrier$"):
            gs.labels_of_mask(mask)
        assert [gs.labels_of_mask(m) for m in range(4)] == [(), ("0",), ("1",), ("0", "1")]


class TestStructuralProperties:
    def test_pairwise_intersections_stay_closed(self, z8):
        subs = [set(t) for t in enumerate_sub_gamma_semirings(z8)]
        for a in subs:
            for b in subs:
                both = a & b
                if both:
                    assert is_sub_gamma_semiring(z8, both)

    def test_mutating_any_product_entry_breaks_an_axiom_or_the_lattice(self, z4_full):
        baseline = enumerate_sub_gamma_semirings(z4_full)
        n = z4_full.size
        ng = len(z4_full.gamma_elements)
        for i in range(n):
            for g in range(ng):
                for j in range(n):
                    original = z4_full.product[i][g][j]
                    for wrong in range(n):
                        if wrong == original:
                            continue
                        table = [
                            [list(cell) for cell in layer] for layer in z4_full.product
                        ]
                        table[i][g][j] = wrong
                        mutant = GammaSemiring(
                            z4_full.s,
                            z4_full.gamma_elements,
                            z4_full.gamma_add,
                            table,
                            zero="0",
                        )
                        broken = not check_gamma_semiring(mutant, "strict").passed
                        assert broken or enumerate_sub_gamma_semirings(mutant) != baseline


@pytest.mark.parametrize(
    "gs",
    [
        make_zn_gamma(9, (3,)),
        make_zn_gamma(17, (1, 2)),
        make_zn_gamma(25, (5, 10)),
        make_matrix_gamma(3, 1, 3),
        make_minmax_gamma(9, (0,)),
        make_minmax_gamma(12, (1, 9)),
    ],
    ids=["z9", "z17", "z25", "matrix313", "minmax9", "minmax12"],
)
def test_labels_listed_across_byte_boundaries_match_their_masks(gs):
    # the enumeration reads each mask a byte at a time; these carriers have 9 to 27 elements
    listed = enumerate_sub_gamma_semirings(gs)
    assert len(listed) == len(gs.sub_masks) > 1
    for labels, m in zip(listed, gs.sub_masks):
        assert labels == gs.labels_of_mask(m) == tuple(e for i, e in enumerate(gs.elements) if m >> i & 1)
