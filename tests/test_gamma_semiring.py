import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from softgamma import (
    ConstraintError,
    FiniteCommutativeSemigroup,
    GammaSemiring,
    InputError,
    SizeLimitError,
    check_commutative_semigroup,
    check_gamma_semiring,
    make_matrix_gamma,
    make_minmax_gamma,
    make_zn_gamma,
    product_gamma,
    ternary_product,
)
from softgamma import algebra, files
from softgamma.algebra import MAX_SCAN_CARRIER
from softgamma.cli import main
from softgamma.generators import _matmul

from conftest import mutant


class TestZnFamily:
    def test_z8_weak_passes(self, z8):
        assert check_gamma_semiring(z8, "weak").passed

    def test_z8_strict_fails_on_gamma_closure(self, z8):
        report = check_gamma_semiring(z8, "strict")
        assert not report.passed
        assert [(v.axiom, v.witness) for v in report.violations] == [
            ("gamma-closure", ("2", "6", "0"))
        ]

    def test_gamma_closure_witness_replays(self, z8):
        ((_, (a, b, result)),) = [(v.axiom, v.witness) for v in check_gamma_semiring(z8, "strict").violations]
        i, j = z8.gamma_elements.index(a), z8.gamma_elements.index(b)
        assert z8.gamma_add[i][j] == result
        assert result not in z8.gamma_elements

    def test_z4_full_gamma_strict_passes(self, z4_full):
        # independent oracle: exhaust the four defining identities in modular arithmetic
        n = 4
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for al in range(n):
                        assert ((a + b) * al * c) % n == (a * al * c + b * al * c) % n
                        assert (a * al * (b + c)) % n == (a * al * b + a * al * c) % n
                        for be in range(n):
                            assert (a * ((al + be) % n) * b) % n == (a * al * b + a * be * b) % n
                            assert (a * al * ((b * be * c) % n)) % n == (((a * al * b) % n) * be * c) % n
        assert check_gamma_semiring(z4_full, "strict").passed

    def test_trivial_one_element_strict(self):
        assert check_gamma_semiring(make_zn_gamma(1, (0,), strict=True), "strict").passed

    def test_strict_without_gamma_add_is_an_input_error(self):
        gs = make_zn_gamma(8, (2, 4, 6), strict=False)
        with pytest.raises(InputError, match="gamma addition table"):
            check_gamma_semiring(gs, "strict")

    def test_unknown_mode_rejected(self, z8):
        with pytest.raises(InputError):
            check_gamma_semiring(z8, "lenient")

    def test_empty_gamma_rejected(self):
        with pytest.raises(InputError):
            make_zn_gamma(8, ())

    def test_empty_gamma_rejected_by_the_constructor(self):
        s = FiniteCommutativeSemigroup(("0",), ((0,),))
        with pytest.raises(InputError, match="gamma set must be nonempty"):
            GammaSemiring(s, (), None, ((),))

    @given(
        n=st.integers(min_value=1, max_value=16),
        picks=st.sets(st.integers(min_value=0, max_value=15), min_size=1),
    )
    @settings(max_examples=60)
    def test_every_zn_structure_is_weak_valid(self, n, picks):
        gamma = {v % n for v in picks}
        gs = make_zn_gamma(n, gamma)
        assert check_gamma_semiring(gs, "weak").passed


class TestMinMaxFamily:
    def test_strict_valid(self):
        assert check_gamma_semiring(make_minmax_gamma(5, (1, 2, 3)), "strict").passed

    def test_trivial_instance(self):
        assert check_gamma_semiring(make_minmax_gamma(1, (0,)), "strict").passed

    def test_products_take_the_minimum(self):
        gs = make_minmax_gamma(5, (1, 2, 3))
        assert ternary_product(gs, "3", "1", "2") == "1"
        assert ternary_product(gs, "4", "2", "3") == "2"

    @given(
        n=st.integers(min_value=1, max_value=8),
        picks=st.sets(st.integers(min_value=0, max_value=7), min_size=1),
    )
    @settings(max_examples=40)
    def test_any_gamma_subset_is_strict_valid(self, n, picks):
        gamma = {v % n for v in picks}
        assert check_gamma_semiring(make_minmax_gamma(n, gamma), "strict").passed


def _mat(label, rows, cols):
    digits = [int(d) for d in label]
    return [digits[i * cols : (i + 1) * cols] for i in range(rows)]


def _matmul_oracle(a, b, p):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) % p for j in range(cols)]
        for i in range(rows)
    ]


class TestMatrixFamily:
    def test_sizes_and_strict_validity(self):
        gs = make_matrix_gamma(2, 1, 2)
        assert gs.size == 4
        assert len(gs.gamma_elements) == 4
        assert check_gamma_semiring(gs, "strict").passed

    def test_one_by_one_degenerates_to_mod_p_multiplication(self):
        gs = make_matrix_gamma(2, 1, 1)
        z2 = make_zn_gamma(2, (0, 1))
        for a in "01":
            for g in "01":
                for b in "01":
                    assert ternary_product(gs, a, g, b) == ternary_product(z2, a, g, b)

    def test_2x1_case_passes_strict(self):
        assert check_gamma_semiring(make_matrix_gamma(2, 2, 1), "strict").passed

    def test_product_table_matches_matrix_arithmetic(self):
        # every shape make_matrix_gamma accepts, so each memoized product row
        # is checked against every a·alpha that shares it
        shapes = [
            (p, rows, cols)
            for p in (2, 3)
            for rows in range(1, 5)
            for cols in range(1, 5)
            if p ** (rows * cols) <= 27
        ]
        assert len(shapes) == 13
        for p, rows, cols in shapes:
            gs = make_matrix_gamma(p, rows, cols)
            for a in gs.elements:
                for g in gs.gamma_elements:
                    ag = _matmul_oracle(_mat(a, rows, cols), _mat(g, cols, rows), p)
                    for b in gs.elements:
                        got = _mat(ternary_product(gs, a, g, b), rows, cols)
                        assert got == _matmul_oracle(ag, _mat(b, rows, cols), p), (p, rows, cols, a, g, b)

    def test_mismatched_matrix_shapes_are_a_constraint_error(self):
        with pytest.raises(ConstraintError):
            _matmul((1, 0), (1, 2), (1, 0), (1, 2), 2)

    def test_size_bounds_refused(self):
        with pytest.raises(InputError):
            make_matrix_gamma(5, 1, 1)
        with pytest.raises(SizeLimitError):
            make_matrix_gamma(2, 2, 3)
        # 81 elements, above MAX_MATRIX_CARRIER
        for shape in ((3, 2, 2), (3, 1, 4), (3, 4, 1)):
            with pytest.raises(SizeLimitError):
                make_matrix_gamma(*shape)


class TestProductFamily:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "base",
        [
            make_zn_gamma(3, (1, 2)),
            make_minmax_gamma(3, (1,)),
            make_zn_gamma(2, (1,)),
            make_matrix_gamma(2, 1, 2),
        ],
        ids=["z3", "minmax3", "z2", "matrix212"],
    )
    def test_tables_match_the_coordinatewise_oracle(self, base, k):
        # every sum and product is read off the labels of the element tuples
        pg = product_gamma(base, k)
        elements = list(iproduct(base.elements, repeat=k))
        pos = {e: i for i, e in enumerate(elements)}
        assert pg.elements == tuple(elements)
        assert pg.gamma_elements == base.gamma_elements
        assert pg.gamma_add == base.gamma_add
        assert pg.zero == (base.zero,) * k
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                assert pg.s.add_table[i][j] == pos[tuple(base.s.add(x, y) for x, y in zip(a, b))]
                for g, label in enumerate(base.gamma_elements):
                    expected = tuple(ternary_product(base, x, label, y) for x, y in zip(a, b))
                    assert pg.product[i][g][j] == pos[expected]


    def test_a_product_above_the_size_limit_is_refused(self):
        with pytest.raises(SizeLimitError, match="^product carrier would have 4913 elements, above 4096$"):
            product_gamma(make_zn_gamma(17, (1,)), 3)


@pytest.fixture(scope="module")
def above_scan_bound():
    return make_zn_gamma(MAX_SCAN_CARRIER + 1, (1,), strict=True)


@pytest.fixture(scope="module")
def gamma_above_scan_bound():
    # one element, and a gamma set one label above the bound whose sums all
    # fall on its first label, so every weak and strict axiom holds
    gamma = tuple(f"g{i}" for i in range(MAX_SCAN_CARRIER + 1))
    return GammaSemiring(
        FiniteCommutativeSemigroup(("0",), [[0]]),
        gamma,
        [[gamma[0]] * len(gamma)] * len(gamma),
        [[[0]] * len(gamma)],
        zero="0",
    )


class TestScanBound:
    @pytest.mark.parametrize("mode", ["weak", "strict"])
    def test_a_carrier_above_the_bound_is_refused_before_any_scan(self, above_scan_bound, mode, monkeypatch):
        monkeypatch.setattr(algebra, "_report", lambda *args: pytest.fail("a scan ran"))
        with pytest.raises(SizeLimitError, match="^carrier has 257 elements, above the scan bound 256$"):
            check_gamma_semiring(above_scan_bound, mode)

    @pytest.mark.parametrize("mode", ["weak", "strict"])
    def test_validate_exits_2_on_a_carrier_above_the_bound(self, above_scan_bound, mode, tmp_path, capsys):
        path = tmp_path / "z257.structure.json"
        path.write_text(files.dumps(files.structure_to_doc(above_scan_bound, name="z257")), encoding="utf-8")
        code = main(["validate", str(path), "--mode", mode])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: carrier has 257 elements, above the scan bound 256\n"

    def test_a_gamma_set_above_the_bound_is_refused_in_strict_mode_before_any_scan(
        self, gamma_above_scan_bound, monkeypatch
    ):
        monkeypatch.setattr(algebra, "_report", lambda *args: pytest.fail("a scan ran"))
        with pytest.raises(SizeLimitError, match="^gamma set has 257 labels, above the scan bound 256$"):
            check_gamma_semiring(gamma_above_scan_bound, "strict")

    def test_validate_exits_2_on_a_gamma_set_above_the_bound_in_strict_mode_only(
        self, gamma_above_scan_bound, tmp_path, capsys
    ):
        path = tmp_path / "gamma257.structure.json"
        path.write_text(files.dumps(files.structure_to_doc(gamma_above_scan_bound, name="gamma257")), encoding="utf-8")
        code = main(["validate", str(path), "--mode", "strict"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: gamma set has 257 labels, above the scan bound 256\n"
        assert main(["validate", str(path), "--mode", "weak"]) == 0
        assert capsys.readouterr().err == ""

    def test_the_semigroup_check_has_no_bound(self):
        # every sum is 0 but 0 + 0 = 1 and 1 + 0 = 2, so both axioms fail early
        n = MAX_SCAN_CARRIER + 1
        table = [[0] * n for _ in range(n)]
        table[0][0], table[1][0] = 1, 2
        report = check_commutative_semigroup([str(i) for i in range(n)], table)
        assert [(v.axiom, v.witness) for v in report.violations] == [
            ("commutativity", ("0", "1")),
            ("associativity", ("0", "0", "0")),
        ]


class TestTernaryProduct:
    def test_z8_lookup(self, z8):
        assert ternary_product(z8, "1", "2", "2") == "4"

    def test_zero_annihilates_in_z8(self, z8):
        for g in z8.gamma_elements:
            for s in z8.elements:
                assert ternary_product(z8, "0", g, s) == "0"
                assert ternary_product(z8, s, g, "0") == "0"

    def test_unknown_labels_are_input_errors(self, z8):
        with pytest.raises(InputError):
            ternary_product(z8, "9", "2", "0")
        with pytest.raises(InputError):
            ternary_product(z8, "1", "3", "0")


class TestStructuralValidation:
    def test_ragged_product_table_rejected(self, z8):
        bad = [list(map(list, layer)) for layer in z8.product]
        bad[0][0] = bad[0][0][:-1]
        with pytest.raises(InputError):
            GammaSemiring(z8.s, z8.gamma_elements, None, bad, zero="0")

    def test_out_of_range_product_entry_rejected(self, z8):
        bad = [list(map(list, layer)) for layer in z8.product]
        bad[0][0][0] = 99
        with pytest.raises(InputError):
            GammaSemiring(z8.s, z8.gamma_elements, None, bad, zero="0")

    def test_unknown_zero_rejected(self, z8):
        with pytest.raises(InputError):
            GammaSemiring(z8.s, z8.gamma_elements, None, z8.product, zero="17")

    def test_zero_identity_scan(self, z8):
        # declare a non-identity element as zero: the scan must object
        gs = GammaSemiring(z8.s, z8.gamma_elements, None, z8.product, zero="1")
        report = check_gamma_semiring(gs, "weak")
        assert not report.passed
        assert report.violations[0].axiom == "zero-identity"


def _first(axes, holds):
    """The first tuple of labels, lexicographic by position along each of
    axes, at which holds is false; None when it holds everywhere."""
    for labels in iproduct(*axes):
        if not holds(*labels):
            return labels
    return None


def _reference_violations(gs, mode):
    """(axiom, witness) pairs of the README definitions, in report order, each
    identity written out on labels and scanned independently of algebra.py."""
    E, G = gs.elements, gs.gamma_elements
    pos = {e: i for i, e in enumerate(E)}
    gpos = {g: i for i, g in enumerate(G)}

    def add(x, y):
        return E[gs.s.add_table[pos[x]][pos[y]]]

    def mul(x, g, y):
        return E[gs.product[pos[x]][gpos[g]][pos[y]]]

    def gadd(g, h):
        return gs.gamma_add[gpos[g]][gpos[h]]

    found = [
        ("s-commutativity", _first((E, E), lambda a, b: add(a, b) == add(b, a))),
        ("s-associativity", _first((E, E, E), lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)))),
    ]
    if gs.zero is not None:
        found.append(("zero-identity", _first((E,), lambda a: add(gs.zero, a) == a)))
    if mode == "strict":
        pair = _first((G, G), lambda g, h: gadd(g, h) in gpos)
        found += [
            ("gamma-closure", pair and (*pair, gadd(*pair))),
            ("gamma-commutativity", _first((G, G), lambda g, h: gadd(g, h) == gadd(h, g))),
            # only triples whose inner sums stay in gamma are judged
            ("gamma-associativity", _first((G, G, G), lambda g, h, k: gadd(g, h) not in gpos
                or gadd(h, k) not in gpos or gadd(gadd(g, h), k) == gadd(g, gadd(h, k)))),
        ]
    found += [
        ("distributive-sum-left", _first((E, E, G, E), lambda a, b, g, c:
            mul(add(a, b), g, c) == add(mul(a, g, c), mul(b, g, c)))),
        ("distributive-sum-right", _first((E, G, E, E), lambda a, g, b, c:
            mul(a, g, add(b, c)) == add(mul(a, g, b), mul(a, g, c)))),
    ]
    if mode == "strict":
        found.append(("distributive-gamma", _first((E, G, G, E), lambda a, g, h, b:
            gadd(g, h) not in gpos or mul(a, gadd(g, h), b) == add(mul(a, g, b), mul(a, h, b)))))
    found.append(("product-associativity", _first((E, G, E, G, E), lambda a, g, b, h, c:
        mul(a, g, mul(b, h, c)) == mul(mul(a, g, b), h, c))))
    return [(axiom, w) for axiom, w in found if w is not None]


def _reference_semigroup(elements, table):
    pos = {e: i for i, e in enumerate(elements)}

    def add(x, y):
        return elements[table[pos[x]][pos[y]]]

    E = elements
    found = [
        ("commutativity", _first((E, E), lambda a, b: add(a, b) == add(b, a))),
        ("associativity", _first((E, E, E), lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)))),
    ]
    return [(axiom, w) for axiom, w in found if w is not None]


def _two_failing_columns():
    """Z_3 whose column maps x -> x·alpha·c are additive except two: (a, 1)
    is 0, 1, 0 and first fails at x = y = 1; the later column (b, 0) is
    constant 1 and fails already at x = y = 0, so the distributive-sum-left
    witness is (0, 0, b, 0), the least over both columns."""
    zero_a, one_a = (0, 0, 0), (0, 1, 0)
    one_b = (1, 0, 0)
    return GammaSemiring(
        FiniteCommutativeSemigroup(("0", "1", "2"), [[(i + j) % 3 for j in range(3)] for i in range(3)]),
        ("a", "b"),
        None,
        [[zero_a, one_b], [one_a, one_b], [zero_a, one_b]],
        zero="0",
    )


def _least_gamma_pair_at_a_later_b():
    """Z_3 with the max semilattice on gamma = {g, h}, where f(gamma) = 0·gamma·b
    is additive only when it is 0 everywhere.  Every product is 0 except
    0·h·0 = 1 and 0·g·1 = 1: at b = 0 the map first fails at (h, h), at the
    later b = 1 already at (g, g), so the distributive-gamma witness is
    (0, g, g, 1), the least (alpha, beta, b) over both failing b."""
    zeros = (0, 0, 0)
    return GammaSemiring(
        FiniteCommutativeSemigroup(("0", "1", "2"), [[(i + j) % 3 for j in range(3)] for i in range(3)]),
        ("g", "h"),
        [["g", "h"], ["h", "h"]],
        [[(0, 1, 0), (1, 0, 0)], [zeros, zeros], [zeros, zeros]],
        zero="0",
    )


REFERENCE_BASES = {
    "z4-full": make_zn_gamma(4, (0, 1, 2, 3), strict=True),
    "z8-even": make_zn_gamma(8, (2, 4, 6), strict=True),
    "z6-weak": make_zn_gamma(6, (1, 3)),
    "minmax5": make_minmax_gamma(5, (1, 2, 3)),
    "matrix212": make_matrix_gamma(2, 1, 2),
    "z2-squared": product_gamma(make_zn_gamma(2, (1,), strict=True), 2),
    # on the first two, n, |gamma| and n·|gamma| all differ, so a witness
    # read off a flat index of a row block depends on each of its slices
    "z9-strict": make_zn_gamma(9, (1, 2, 4, 7), strict=True),
    "minmax9": make_minmax_gamma(9, (1, 3, 5, 7)),
    "matrix312": make_matrix_gamma(3, 1, 2),
    "two-failing-columns": _two_failing_columns(),
    # n = |gamma| = 16: shared product rows, and scan blocks of n·|gamma| = 256 rows
    "matrix222": make_matrix_gamma(2, 2, 2),
    "least-gamma-pair-at-a-later-b": _least_gamma_pair_at_a_later_b(),
}

# a weak and a strict reference pass over the 16**5 product-associativity
# terms of matrix222 take about 2 s, so it runs the base and one mutant only
REFERENCE_TRIALS = {"matrix222": 2}


@pytest.mark.parametrize("name", REFERENCE_BASES)
def test_reports_match_an_independent_reference_scan_on_mutants(name):
    # every report, weak, strict and semigroup, against the reference on
    # seeded mutants; the unmutated structure comes first
    base = REFERENCE_BASES[name]
    rng = random.Random(name)
    for trial in range(REFERENCE_TRIALS.get(name, 60)):
        gs = base if trial == 0 else mutant(base, rng)
        modes = ("weak", "strict") if gs.gamma_add is not None else ("weak",)
        for mode in modes:
            report = check_gamma_semiring(gs, mode)
            expected = _reference_violations(gs, mode)
            assert [(v.axiom, v.witness) for v in report.violations] == expected, (name, trial, mode)
            assert (report.mode, report.passed) == (mode, not expected)
        sg = check_commutative_semigroup(gs.elements, gs.s.add_table)
        assert [(v.axiom, v.witness) for v in sg.violations] == _reference_semigroup(gs.elements, gs.s.add_table)
        assert (sg.mode, sg.passed) == ("semigroup", not sg.violations)
    if base.gamma_add is None:
        with pytest.raises(InputError, match="gamma addition table"):
            check_gamma_semiring(base, "strict")
