import pytest

from softgamma import ParseError, SoftSet, TernaryRelation, gamma_hom, make_zn_gamma
from softgamma import files


class TestStructureDocuments:
    def test_round_trip(self, z8):
        doc = files.structure_to_doc(z8, name="z8")
        back = files.structure_from_doc(doc)
        assert back == z8

    def test_round_trip_without_gamma_add_or_zero(self):
        gs = make_zn_gamma(4, (1, 2))
        from softgamma.algebra import GammaSemiring

        no_extras = GammaSemiring(gs.s, gs.gamma_elements, None, gs.product, zero=None)
        assert files.structure_from_doc(files.structure_to_doc(no_extras)) == no_extras

    def test_missing_field_is_a_parse_error(self, z8):
        doc = files.structure_to_doc(z8)
        del doc["product"]
        with pytest.raises(ParseError):
            files.structure_from_doc(doc)

    def test_unknown_field_is_a_parse_error(self, z8):
        doc = files.structure_to_doc(z8)
        doc["extra"] = 1
        with pytest.raises(ParseError):
            files.structure_from_doc(doc)

    def test_out_of_range_index_is_a_parse_error(self, z8):
        doc = files.structure_to_doc(z8)
        doc["s_add"][0][0] = 99
        with pytest.raises(ParseError):
            files.structure_from_doc(doc)

    def test_ragged_table_is_a_parse_error(self, z8):
        doc = files.structure_to_doc(z8)
        doc["product"][0][0] = doc["product"][0][0][:-1]
        with pytest.raises(ParseError):
            files.structure_from_doc(doc)

    def test_out_of_range_zero_is_a_parse_error(self, z8):
        doc = files.structure_to_doc(z8)
        doc["zero"] = 20
        with pytest.raises(ParseError):
            files.structure_from_doc(doc)

    @pytest.mark.parametrize(
        "table, path, row",
        [("s_add", (0,), 5), ("product", (0, 0), 5), ("gamma_add", (0,), 5), ("gamma_add", (0,), "460")],
        ids=["s_add", "product", "gamma_add", "gamma_add-string"],
    )
    def test_table_row_that_is_not_a_list_is_a_parse_error(self, z8, table, path, row):
        # a string row must not be split into one-character labels either
        doc = files.structure_to_doc(z8)
        rows = doc[table]
        for index in path[:-1]:
            rows = rows[index]
        rows[path[-1]] = row
        with pytest.raises(ParseError, match="must be a list"):
            files.structure_from_doc(doc)

    def test_boolean_zero_is_a_parse_error(self, z8):
        doc = files.structure_to_doc(z8)
        doc["zero"] = True
        with pytest.raises(ParseError):
            files.structure_from_doc(doc)

    def test_gamma_add_labels_outside_gamma_parse_fine(self, z8):
        # a non-closed gamma addition is representable; only validation objects
        doc = files.structure_to_doc(z8)
        assert any(entry not in doc["gamma_elements"] for row in doc["gamma_add"] for entry in row)
        back = files.structure_from_doc(doc)
        assert back.gamma_add == z8.gamma_add


class TestSoftSetDocuments:
    def test_round_trip(self, z8_soft):
        doc = files.soft_set_to_doc(z8_soft)
        back = files.soft_set_from_doc(doc)
        assert back == z8_soft

    def test_tuple_parameters_round_trip(self):
        ss = SoftSet.build(
            ("0", "1"),
            (("a", "x"), ("a", "y")),
            {("a", "x"): ["0"], ("a", "y"): ["0", "1"]},
        )
        doc = files.soft_set_to_doc(ss)
        assert doc["parameters"] == [["a", "x"], ["a", "y"]]
        assert doc["values"]['["a","x"]'] == ["0"]
        assert files.soft_set_from_doc(doc) == ss

    def test_tuple_universe_round_trips(self):
        ss = SoftSet.build(
            (("0", "x"), ("1", "x")),
            ("p",),
            {"p": [("1", "x")]},
        )
        back = files.soft_set_from_doc(files.soft_set_to_doc(ss))
        assert back == ss

    def test_values_are_sorted_by_universe_order(self):
        ss = SoftSet.build(("b", "a", "c"), ("p",), {"p": ["c", "b"]})
        doc = files.soft_set_to_doc(ss)
        assert doc["values"]["p"] == ["b", "c"]

    def test_missing_value_key_defaults_to_empty(self):
        doc = {"universe": ["0"], "parameters": ["a", "b"], "values": {"a": ["0"]}}
        back = files.soft_set_from_doc(doc)
        assert back.value("b") == ()

    def test_unknown_value_key_is_a_parse_error(self):
        doc = {"universe": ["0"], "parameters": ["a"], "values": {"q": []}}
        with pytest.raises(ParseError):
            files.soft_set_from_doc(doc)

    def test_value_outside_universe_is_a_parse_error(self):
        doc = {"universe": ["0"], "parameters": ["a"], "values": {"a": ["7"]}}
        with pytest.raises(ParseError):
            files.soft_set_from_doc(doc)

    def test_bad_label_nodes_are_parse_errors(self):
        doc = {"universe": [0], "parameters": ["a"], "values": {}}
        with pytest.raises(ParseError):
            files.soft_set_from_doc(doc)


class TestRelationDocuments:
    def test_round_trip(self, z8):
        rel = TernaryRelation(
            ("0", "1"), z8.gamma_elements, frozenset({("0", "2", "4"), ("1", "4", "0")})
        )
        doc = files.relation_to_doc(rel)
        assert doc["triples"] == sorted(doc["triples"])
        assert files.relation_from_doc(doc) == rel

    def test_bad_triple_shape_is_a_parse_error(self):
        doc = {"n_params": ["0"], "gamma": ["2"], "triples": [["0", "2"]]}
        with pytest.raises(ParseError):
            files.relation_from_doc(doc)


class TestHomDocuments:
    def test_round_trip(self):
        source = make_zn_gamma(8, (2,))
        target = make_zn_gamma(4, (2,))
        hom = gamma_hom(source, target, {str(i): str(i % 4) for i in range(8)})
        back = files.hom_from_doc(files.hom_to_doc(hom))
        assert back.mapping == hom.mapping
        assert back.source == source and back.target == target

    def test_non_homomorphism_map_is_a_parse_error(self):
        gs = make_zn_gamma(4, (1,))
        doc = files.hom_to_doc(gamma_hom(gs, gs, {e: e for e in gs.elements}))
        doc["map"]["1"] = "2"
        with pytest.raises(ParseError):
            files.hom_from_doc(doc)


class TestSerialization:
    def test_dumps_is_deterministic_and_lf_terminated(self, z8):
        doc = files.structure_to_doc(z8)
        a = files.dumps(doc)
        b = files.dumps(files.structure_to_doc(z8))
        assert a == b
        assert a.endswith("\n") and "\r" not in a

    def test_loads_rejects_non_objects(self):
        with pytest.raises(ParseError):
            files.loads("[1, 2]")
        with pytest.raises(ParseError):
            files.loads("not json")
