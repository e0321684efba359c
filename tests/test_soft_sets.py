import pytest

from softgamma import (
    ConstraintError,
    DomainError,
    InputError,
    SoftFunction,
    SoftSet,
    TernaryRelation,
    and_intersect,
    cartesian_product,
    compose_soft_functions,
    extended_intersect,
    extended_union,
    is_soft_subset,
    make_soft_function,
    or_union,
    relative_null,
    relative_whole,
    restricted_intersect,
    restricted_union,
    soft_equal,
    soft_image,
    soft_preimage,
    soft_set_from_relation,
    support,
)

U = ("0", "1", "2")


def ss(params, values, universe=U):
    return SoftSet.build(universe, params, values)


class TestSupport:
    def test_relative_null_has_empty_support(self):
        assert support(relative_null(U, ("a", "b"))) == ()

    def test_z8_relation_soft_set_has_full_support(self, z8_soft):
        assert set(support(z8_soft)) == set(str(i) for i in range(8))

    def test_mixed_assignment(self):
        a = ss(("a", "b"), {"a": [], "b": ["0"]})
        assert support(a) == ("b",)


class TestSubsetAndEquality:
    def test_null_is_subset_of_anything_with_same_parameters(self):
        a = relative_null(U, ("a", "b"))
        b = ss(("a", "b"), {"a": ["0"], "b": ["1", "2"]})
        assert is_soft_subset(a, b)

    def test_value_escape_breaks_subset(self):
        a = ss(("a",), {"a": ["0", "1"]})
        b = ss(("a",), {"a": ["0"]})
        assert not is_soft_subset(a, b)

    def test_universe_mismatch_is_an_input_error(self):
        a = ss(("a",), {"a": ["0"]})
        b = ss(("a",), {"a": ["0"]}, universe=("0", "1"))
        with pytest.raises(InputError):
            is_soft_subset(a, b)

    def test_soft_equal_is_reflexive_and_order_insensitive(self):
        a = ss(("a", "b"), {"a": ["0"], "b": ["1"]})
        b = ss(("b", "a"), {"a": ["0"], "b": ["1"]})
        assert soft_equal(a, a)
        assert soft_equal(a, b)

    def test_parameter_growth_breaks_equality(self):
        a = ss(("a",), {"a": ["0"]})
        b = ss(("a", "b"), {"a": ["0"]})
        assert not soft_equal(a, b)
        assert is_soft_subset(a, b)


class TestRestrictedOps:
    def test_intersection_values(self):
        a = ss(("a", "b"), {"a": ["0"], "b": ["0", "1"]})
        b = ss(("b", "c"), {"b": ["1", "2"], "c": ["0"]})
        out = restricted_intersect([a, b])
        assert out.parameters == ("b",)
        assert out.value("b") == ("1",)

    def test_intersection_idempotence(self):
        a = ss(("a", "b"), {"a": ["0"], "b": ["1", "2"]})
        assert soft_equal(restricted_intersect([a, a]), a)

    def test_disjoint_parameters_is_a_domain_error(self):
        a = ss(("a",), {"a": ["0"]})
        b = ss(("b",), {"b": ["1"]})
        with pytest.raises(DomainError):
            restricted_intersect([a, b])
        with pytest.raises(DomainError):
            restricted_union([a, b])

    def test_union_values(self):
        a = ss(("a", "b"), {"b": ["0"]})
        b = ss(("b",), {"b": ["1"]})
        out = restricted_union([a, b])
        assert out.parameters == ("b",)
        assert out.value("b") == ("0", "1")

    def test_union_with_null_is_identity_on_common_parameters(self):
        a = ss(("a", "b"), {"a": ["0", "2"], "b": ["1"]})
        out = restricted_union([a, relative_null(U, ("a", "b"))])
        assert soft_equal(out, a)

    @pytest.mark.parametrize(
        "op",
        [
            restricted_intersect,
            restricted_union,
            extended_intersect,
            extended_union,
            cartesian_product,
        ],
    )
    def test_empty_family_rejected_everywhere(self, op):
        with pytest.raises(InputError):
            op([])


class TestExtendedOps:
    def test_solo_parameters_pass_through(self):
        a = ss(("a", "b"), {"a": ["0", "1"], "b": ["2"]})
        b = ss(("b", "c"), {"b": ["1", "2"], "c": ["0"]})
        out = extended_intersect([a, b])
        assert out.parameters == ("a", "b", "c")
        assert out.value("a") == ("0", "1")
        assert out.value("b") == ("2",)
        assert out.value("c") == ("0",)

    def test_agreement_with_restricted_on_equal_parameters(self):
        a = ss(("a", "b"), {"a": ["0"], "b": ["1", "2"]})
        b = ss(("a", "b"), {"a": ["0", "1"], "b": ["2"]})
        assert soft_equal(extended_intersect([a, b]), restricted_intersect([a, b]))
        assert soft_equal(extended_union([a, b]), restricted_union([a, b]))

    def test_disjoint_parameters_concatenate(self):
        a = ss(("a",), {"a": ["0"]})
        b = ss(("b",), {"b": ["1"]})
        out = extended_union([a, b])
        assert out.parameters == ("a", "b")
        assert out.value("a") == ("0",) and out.value("b") == ("1",)
        out = extended_intersect([a, b])
        assert out.value("a") == ("0",) and out.value("b") == ("1",)

    def test_singleton_family_is_identity(self):
        a = ss(("a", "b"), {"a": ["0"], "b": []})
        assert soft_equal(extended_union([a]), a)
        assert soft_equal(extended_intersect([a]), a)


class TestPairwiseOps:
    def test_parameter_product_cardinality(self):
        a = ss(("a", "b"), {"a": ["0"]})
        b = ss(("x", "y", "z"), {"x": ["1"]})
        assert len(and_intersect(a, b).parameters) == 6

    def test_whole_is_intersection_identity(self):
        a = relative_whole(U, ("w",))
        b = ss(("c", "d"), {"c": ["1", "2"], "d": ["0"]})
        out = and_intersect(a, b)
        for y in b.parameters:
            assert out.value(("w", y)) == b.value(y)

    def test_and_value(self):
        a = ss(("a",), {"a": ["0", "1"]})
        b = ss(("c",), {"c": ["1", "2"]})
        assert and_intersect(a, b).value(("a", "c")) == ("1",)

    def test_null_is_union_identity(self):
        a = relative_null(U, ("n",))
        b = ss(("c",), {"c": ["0", "2"]})
        out = or_union(a, b)
        assert out.value(("n", "c")) == ("0", "2")

    def test_or_value_and_monotonicity(self):
        a = ss(("a",), {"a": ["0"]})
        b = ss(("c",), {"c": ["2"]})
        out = or_union(a, b)
        assert out.value(("a", "c")) == ("0", "2")
        assert set(a.value("a")) <= set(out.value(("a", "c")))


class TestCartesianProduct:
    def test_value_cardinality(self):
        a = ss(("a",), {"a": ["0", "1"]})
        b = ss(("b",), {"b": ["0", "1", "2"]})
        out = cartesian_product([a, b])
        assert len(out.value(("a", "b"))) == 6

    def test_empty_factor_gives_empty_value(self):
        a = ss(("a",), {"a": []})
        b = ss(("b",), {"b": ["0"]})
        assert cartesian_product([a, b]).value(("a", "b")) == ()

    def test_tuple_enumeration(self):
        a = ss(("a",), {"a": ["0"]})
        b = ss(("b",), {"b": ["1", "2"]})
        out = cartesian_product([a, b])
        assert set(out.value(("a", "b"))) == {("0", "1"), ("0", "2")}

    def test_mixed_universes(self):
        a = ss(("a",), {"a": ["0"]}, universe=("0", "1"))
        b = ss(("b",), {"b": ["x"]}, universe=("x",))
        out = cartesian_product([a, b])
        assert out.universe == (("0", "x"), ("1", "x"))
        assert out.value(("a", "b")) == (("0", "x"),)


class TestRelativeConstants:
    def test_whole_values(self):
        w = relative_whole(U, ("a",))
        assert w.value("a") == U

    def test_whole_is_restricted_intersection_identity(self):
        a = ss(("a", "b"), {"a": ["0", "2"], "b": ["1"]})
        out = restricted_intersect([a, relative_whole(U, a.parameters)])
        assert soft_equal(out, a)


class TestSoftFunctions:
    def test_identity_soft_function(self):
        a = ss(("a", "b"), {"a": ["0"], "b": ["1", "2"]})
        sf = make_soft_function({v: v for v in U}, {w: w for w in a.parameters}, a, a)
        assert sf.bijective
        assert soft_equal(soft_image(sf), a)

    def test_collapsing_function_is_compatible(self):
        source = ss(("w",), {"w": ["0", "1"]})
        target = ss(("y",), {"y": ["0"]})
        sf = make_soft_function({"0": "0", "1": "0", "2": "2"}, {"w": "y"}, source, target)
        assert not sf.injective

    @pytest.mark.parametrize(
        "f,g,expected",
        [
            ({v: v for v in U}, {"a": "a", "b": "b"}, (True, True, True)),
            ({"0": "0", "1": "0", "2": "2"}, {"a": "a", "b": "b"}, (False, False, False)),
            # onto in f but not in g: not surjective
            ({v: v for v in U}, {"a": "a", "b": "a"}, (False, False, False)),
            # injective but onto in neither map: not bijective
            ({"0": "0", "1": "1"}, {"a": "a"}, (True, False, False)),
        ],
        ids=["identity", "collapsing-f", "collapsing-g", "inclusion"],
    )
    def test_direct_construction_from_positions_is_the_made_function(self, f, g, expected):
        # (injective, surjective, bijective) from the definitions; the source is f's and g's domain
        source = ss(tuple(g), {}, universe=tuple(f))
        target = ss(("a", "b"), {})
        direct = SoftFunction(
            source, target, tuple(U.index(f[v]) for v in f), tuple(("a", "b").index(g[w]) for w in g)
        )
        made = make_soft_function(f, g, source, target)
        assert direct == made and hash(direct) == hash(made)
        assert (direct.injective, direct.surjective, direct.bijective) == expected
        assert (made.injective, made.surjective, made.bijective) == expected
        assert direct.f == f and direct.g == g

    def test_direct_construction_checks_compatibility(self):
        source = ss(("w",), {"w": ["0", "1"]})
        target = ss(("y",), {"y": ["0", "1", "2"]})
        with pytest.raises(ConstraintError) as exc:
            SoftFunction(source, target, (0, 1, 2), (0,))
        assert exc.value.witness == "w"

    @pytest.mark.parametrize(
        "f_positions, g_positions, message",
        [
            ({"0": 0}, (0,), "carrier map positions must be a list, got dict"),
            ((0, 1), (0,), "carrier map positions must cover the whole source universe"),
            ((0, 1, 3), (0,), "carrier map positions entry 3 is not a position in 0..2"),
            ((0, 1, 2), (True,), "parameter map positions entry True is not a position in 0..0"),
            ((0, 1, 2), (), "parameter map positions must cover the whole source parameters"),
        ],
        ids=["dict", "short", "out-of-range", "bool", "no-parameter"],
    )
    def test_direct_construction_refuses_malformed_positions(self, f_positions, g_positions, message):
        a = ss(("w",), {"w": ["0"]})
        with pytest.raises(InputError, match=message):
            SoftFunction(a, a, f_positions, g_positions)

    def test_the_maps_are_read_only(self):
        a = SoftSet(("0", "1"), ("a",), (3,))
        sf = make_soft_function({"0": "0", "1": "1"}, {"a": "a"}, a, a)
        assert sf.injective
        with pytest.raises(TypeError):
            sf.f["1"] = "0"
        with pytest.raises(TypeError):
            sf.g["a"] = "b"
        assert sf.injective
        assert sf.f == {"0": "0", "1": "1"} and sf.g == {"a": "a"}
        assert hash(sf) == hash(make_soft_function({"0": "0", "1": "1"}, {"a": "a"}, a, a))

    def test_missing_image_point_is_a_constraint_error(self):
        source = ss(("w",), {"w": ["0", "1"]})
        target = ss(("y",), {"y": ["0", "1", "2"]})
        with pytest.raises(ConstraintError) as exc:
            make_soft_function({v: v for v in U}, {"w": "y"}, source, target)
        assert exc.value.witness == "w"

    def test_composition_with_identity(self):
        a = ss(("w",), {"w": ["0", "1"]})
        f_id = make_soft_function({v: v for v in U}, {"w": "w"}, a, a)
        composed = compose_soft_functions(f_id, f_id)
        assert soft_equal(soft_image(composed), a)

    def test_double_collapse_composition(self):
        s0 = ss(("w",), {"w": ["0", "1"]})
        s1 = ss(("x",), {"x": ["0"]})
        s2 = ss(("z",), {"z": ["0"]}, universe=("0",))
        first = make_soft_function({"0": "0", "1": "0", "2": "2"}, {"w": "x"}, s0, s1)
        second = make_soft_function({"0": "0", "1": "0", "2": "0"}, {"x": "z"}, s1, s2)
        composed = compose_soft_functions(first, second)
        assert composed.f == {"0": "0", "1": "0", "2": "0"}
        assert composed.g == {"w": "z"}

    def test_mismatched_middle_is_an_input_error(self):
        s0 = ss(("w",), {"w": ["0"]})
        s1 = ss(("x",), {"x": ["0"]})
        s1_other = ss(("x",), {"x": ["1"]})
        first = make_soft_function({v: v for v in U}, {"w": "x"}, s0, s1)
        second = make_soft_function({v: v for v in U}, {"x": "x"}, s1_other, s1_other)
        with pytest.raises(InputError):
            compose_soft_functions(first, second)


class TestImagePreimage:
    def test_bijective_g_pulls_values_along(self):
        source = ss(("w1", "w2"), {"w1": ["0"], "w2": ["1", "2"]})
        target = ss(("y1", "y2"), {"y1": ["0"], "y2": ["1", "2"]})
        sf = make_soft_function({v: v for v in U}, {"w1": "y1", "w2": "y2"}, source, target)
        image = soft_image(sf)
        assert image.value("y1") == ("0",)
        assert image.value("y2") == ("1", "2")

    def test_constant_g_unions_the_fiber(self):
        # compatibility forces every fiber member to the same image, so the
        # union over the fiber must land exactly on the target value
        source = ss(("w1", "w2"), {"w1": ["0", "1"], "w2": ["0", "1"]})
        target = ss(("y", "unused"), {"y": ["0", "1"], "unused": []})
        sf = make_soft_function({v: v for v in U}, {"w1": "y", "w2": "y"}, source, target)
        image = soft_image(sf)
        assert image.value("y") == ("0", "1")
        assert image.value("unused") == ()

    def test_null_source_gives_null_image(self):
        source = relative_null(U, ("w",))
        target = relative_null(U, ("y",))
        sf = make_soft_function({v: v for v in U}, {"w": "y"}, source, target)
        assert soft_image(sf).is_null()

    def test_identity_preimage_copies_along_g(self):
        target = ss(("y",), {"y": ["0", "2"]})
        out = soft_preimage({v: v for v in U}, {"w": "y"}, target, ("w",))
        assert out.value("w") == ("0", "2")

    def test_collapsing_preimage_doubles_fibers(self):
        target = ss(("y",), {"y": ["0"]}, universe=("0", "1"))
        f = {"0": "0", "1": "0", "2": "1", "3": "1"}
        out = soft_preimage(f, {"w": "y"}, target, ("w",))
        assert out.universe == ("0", "1", "2", "3")
        assert out.value("w") == ("0", "1")

    def test_empty_target_value_gives_empty_preimage(self):
        target = ss(("y",), {"y": []})
        out = soft_preimage({v: v for v in U}, {"w": "y"}, target, ("w",))
        assert out.value("w") == ()

    def test_parameter_outside_target_is_an_input_error(self):
        target = ss(("y",), {"y": ["0"]})
        with pytest.raises(InputError):
            soft_preimage({v: v for v in U}, {"w": "z"}, target, ("w",))


class TestRelationDerived:
    def test_full_relation_gives_whole_values(self, z8):
        params = tuple(str(i) for i in range(8))
        triples = frozenset(
            (y, g, s) for y in params for g in z8.gamma_elements for s in z8.elements
        )
        rel = TernaryRelation(params, z8.gamma_elements, triples)
        out = soft_set_from_relation(rel, z8)
        assert all(out.value(y) == z8.elements for y in params)

    def test_empty_relation_gives_null(self, z8):
        rel = TernaryRelation(("0", "1"), z8.gamma_elements, frozenset())
        assert soft_set_from_relation(rel, z8).is_null()

    def test_quantification_over_gamma_is_universal(self, z8):
        # "1" related to "2" under gamma 2 only: one missing gamma kills membership
        rel = TernaryRelation(("1",), z8.gamma_elements, frozenset({("1", "2", "2")}))
        assert soft_set_from_relation(rel, z8).value("1") == ()

    def test_gamma_mismatch_is_an_input_error(self, z8):
        rel = TernaryRelation(("0",), ("2", "4"), frozenset())
        with pytest.raises(InputError):
            soft_set_from_relation(rel, z8)

    def test_z8_relation_reproduces_expected_values(self, z8, z8_soft):
        evens = ("0", "2", "4", "6")
        for y in ("0", "2", "4", "6"):
            assert z8_soft.value(y) == z8.elements
        for y in ("1", "3", "5", "7"):
            assert z8_soft.value(y) == evens


class TestConstruction:
    def test_unknown_value_label_rejected(self):
        with pytest.raises(InputError):
            ss(("a",), {"a": ["9"]})

    def test_value_for_unknown_parameter_rejected(self):
        with pytest.raises(InputError):
            ss(("a",), {"q": ["0"]})

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(InputError):
            SoftSet(U, ("a", "a"), (0, 0))
