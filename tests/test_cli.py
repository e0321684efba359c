import json
from dataclasses import replace
from pathlib import Path

import pytest

from softgamma import InstanceSpec, files, fuzz_theorem, make_zn_gamma
from softgamma.cli import main
from softgamma.harness import ALL_THEOREMS, NECESSITY_TEMPLATES
from softgamma.soft_sets import and_intersect, or_union

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def z8_files(tmp_path):
    code = main(["example", "z8", "-o", str(tmp_path)])
    assert code == 0
    return tmp_path / "z8.structure.json", tmp_path / "z8.soft.json"


class TestValidate:
    def test_weak_passes(self, capsys, z8_files):
        code, out, _ = run(capsys, "validate", str(z8_files[0]), "--mode", "weak")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_strict_fails_with_gamma_closure(self, capsys, z8_files):
        code, out, _ = run(capsys, "validate", str(z8_files[0]), "--mode", "strict")
        assert code == 1
        doc = json.loads(out)
        assert doc["violations"] == [{"axiom": "gamma-closure", "witness": ["2", "6", "0"]}]

    def test_garbage_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_table_row_that_is_a_number_exits_2(self, capsys, tmp_path):
        doc = json.loads((GOLDEN / "z8.structure.json").read_text(encoding="utf-8"))
        doc["product"][0][0] = 5
        bad = tmp_path / "bad.structure.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert "must be a list" in err


class TestOp:
    @pytest.fixture()
    def pair(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(
            files.dumps(
                {"universe": ["0", "1", "2"], "parameters": ["a", "b"], "values": {"a": ["0", "1"], "b": ["0", "1"]}}
            ),
            encoding="utf-8",
        )
        b.write_text(
            files.dumps(
                {"universe": ["0", "1", "2"], "parameters": ["b", "c"], "values": {"b": ["1", "2"], "c": ["2"]}}
            ),
            encoding="utf-8",
        )
        return a, b

    def test_rint_writes_the_intersection(self, capsys, pair):
        code, out, _ = run(capsys, "op", "rint", str(pair[0]), str(pair[1]))
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"] == ["b"]
        assert doc["values"]["b"] == ["1"]

    def test_rint_disjoint_exits_1(self, capsys, tmp_path, pair):
        c = tmp_path / "c.json"
        c.write_text(
            files.dumps({"universe": ["0", "1", "2"], "parameters": ["z"], "values": {}}),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "op", "rint", str(pair[0]), str(c))
        assert code == 1
        assert "parameter intersection" in err

    def test_prod_emits_a_tuple_universe(self, capsys, pair):
        code, out, _ = run(capsys, "op", "prod", str(pair[0]), str(pair[1]))
        assert code == 0
        doc = json.loads(out)
        assert doc["universe"][0] == ["0", "0"]
        assert len(doc["parameters"]) == 4

    def test_output_flag_writes_a_file(self, capsys, tmp_path, pair):
        out_path = tmp_path / "result.json"
        code, out, _ = run(capsys, "op", "eunion", str(pair[0]), str(pair[1]), "-o", str(out_path))
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["parameters"] == ["a", "b", "c"]

    def test_image_and_preimage_via_a_map_file(self, capsys, tmp_path):
        source = tmp_path / "source.json"
        target = tmp_path / "target.json"
        maps = tmp_path / "maps.json"
        source.write_text(
            files.dumps({"universe": ["0", "1"], "parameters": ["w"], "values": {"w": ["0", "1"]}}),
            encoding="utf-8",
        )
        target.write_text(
            files.dumps({"universe": ["x"], "parameters": ["y"], "values": {"y": ["x"]}}),
            encoding="utf-8",
        )
        maps.write_text(
            files.dumps({"f": {"0": "x", "1": "x"}, "g": {"w": "y"}}), encoding="utf-8"
        )
        code, out, _ = run(capsys, "op", "image", str(maps), str(source), str(target))
        assert code == 0
        assert json.loads(out)["values"]["y"] == ["x"]
        code, out, _ = run(capsys, "op", "preimage", str(maps), str(target))
        assert code == 0
        assert json.loads(out)["values"]["w"] == ["0", "1"]

    @pytest.mark.parametrize(
        "kind, maps",
        [
            ("preimage", {"f": 5, "g": {"w": "y"}}),
            ("image", {"f": {"0": "x", "1": "x"}, "g": 7}),
            ("image", {"f": {"0": ["x"], "1": "x"}, "g": {"w": "y"}}),
            ("preimage", {"f": {"0": "x", "1": {"x": 1}}, "g": {"w": "y"}}),
        ],
        ids=["f-number", "g-number", "f-list-label", "f-object-label"],
    )
    def test_malformed_map_file_exits_2(self, capsys, tmp_path, kind, maps):
        source = tmp_path / "source.json"
        target = tmp_path / "target.json"
        map_file = tmp_path / "maps.json"
        source.write_text(
            files.dumps({"universe": ["0", "1"], "parameters": ["w"], "values": {"w": ["0", "1"]}}),
            encoding="utf-8",
        )
        target.write_text(
            files.dumps({"universe": ["x"], "parameters": ["y"], "values": {"y": ["x"]}}),
            encoding="utf-8",
        )
        map_file.write_text(files.dumps(maps), encoding="utf-8")
        sides = [str(source), str(target)] if kind == "image" else [str(target)]
        code, out, err = run(capsys, "op", kind, str(map_file), *sides)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_wrong_arity_exits_2(self, capsys, pair):
        code, _, _ = run(capsys, "op", "and", str(pair[0]))
        assert code == 2

    @pytest.mark.parametrize("kind, op", [("and", and_intersect), ("or", or_union)])
    def test_and_or_write_the_pair_result(self, capsys, pair, kind, op):
        a, b = (files.soft_set_from_doc(files.load(p)) for p in pair)
        code, out, err = run(capsys, "op", kind, str(pair[0]), str(pair[1]))
        assert (code, err) == (0, "")
        assert out == files.dumps(files.soft_set_to_doc(op(a, b)))

    @pytest.mark.parametrize("kind", ["and", "or"])
    def test_and_or_refuse_three_files(self, capsys, pair, kind):
        code, out, err = run(capsys, "op", kind, str(pair[0]), str(pair[1]), str(pair[0]))
        assert code == 2
        assert out == ""
        assert err == f"error: op {kind} takes exactly two soft-set files\n"


class TestSoftCheck:
    def test_z8_example_passes(self, capsys, z8_files):
        code, out, _ = run(capsys, "soft-check", str(z8_files[0]), str(z8_files[1]))
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_nonclosed_value_exits_1_with_witness(self, capsys, tmp_path, z8_files):
        bad = tmp_path / "bad.json"
        bad.write_text(
            files.dumps(
                {
                    "universe": [str(i) for i in range(8)],
                    "parameters": ["a"],
                    "values": {"a": ["0", "3"]},
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "soft-check", str(z8_files[0]), str(bad))
        assert code == 1
        doc = json.loads(out)
        assert doc["kind"] == "add-closure"
        assert doc["elements"] == ["3", "3", "6"]

    def test_null_soft_set_exits_1(self, capsys, tmp_path, z8_files):
        null = tmp_path / "null.json"
        null.write_text(
            files.dumps(
                {"universe": [str(i) for i in range(8)], "parameters": ["a"], "values": {}}
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "soft-check", str(z8_files[0]), str(null))
        assert code == 1
        assert json.loads(out)["kind"] == "null-soft-set"

    def test_universe_mismatch_exits_2(self, capsys, tmp_path, z8_files):
        other = tmp_path / "other.json"
        other.write_text(
            files.dumps({"universe": ["0", "1"], "parameters": ["a"], "values": {}}),
            encoding="utf-8",
        )
        code, _, _ = run(capsys, "soft-check", str(z8_files[0]), str(other))
        assert code == 2


class TestSubsemirings:
    def test_z4_lattice(self, capsys, tmp_path):
        path = tmp_path / "z4.json"
        path.write_text(
            files.dumps(files.structure_to_doc(make_zn_gamma(4, (0, 1, 2, 3)), name="z4")),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "subsemirings", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3
        assert doc["subsemirings"] == [["0"], ["0", "2"], ["0", "1", "2", "3"]]

    def test_oversize_carrier_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("SOFTGAMMA_MAX_CARRIER", raising=False)
        path = tmp_path / "z16.json"
        path.write_text(
            files.dumps(files.structure_to_doc(make_zn_gamma(16, (2,)), name="z16")),
            encoding="utf-8",
        )
        code, _, _ = run(capsys, "subsemirings", str(path))
        assert code == 2
        monkeypatch.setenv("SOFTGAMMA_MAX_CARRIER", "16")
        code, out, _ = run(capsys, "subsemirings", str(path))
        assert code == 0

    def test_non_integer_env_bound_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SOFTGAMMA_MAX_CARRIER", "1.5")
        path = tmp_path / "z4.json"
        path.write_text(files.dumps(files.structure_to_doc(make_zn_gamma(4, (1,)), name="z4")), encoding="utf-8")
        code, out, err = run(capsys, "subsemirings", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: SOFTGAMMA_MAX_CARRIER must be an integer, got '1.5'\n"


class TestTheorem:
    def test_known_law_passes(self, capsys):
        code, out, _ = run(capsys, "theorem", "T3.7", "--trials", "60", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0
        assert doc["trials"] == 60

    def test_drop_hypothesis_inverts_success(self, capsys):
        code, out, _ = run(
            capsys, "theorem", "T3.8", "--trials", "150", "--seed", "7", "--drop-hypothesis"
        )
        assert code == 0
        assert json.loads(out)["counterexample"] is not None

    def test_unknown_id_exits_2(self, capsys):
        code, _, _ = run(capsys, "theorem", "T9.9")
        assert code == 2

    def test_stdout_is_byte_stable(self, capsys):
        _, out_a, _ = run(capsys, "theorem", "T3.4", "--trials", "40", "--seed", "3")
        _, out_b, _ = run(capsys, "theorem", "T3.4", "--trials", "40", "--seed", "3")
        assert out_a == out_b


class TestSuite:
    def test_enforced_stdout_is_every_law_in_table_order(self, capsys):
        code, out, _ = run(capsys, "suite", "--trials", "20")
        assert code == 0
        expected = [files.verdict_to_doc(fuzz_theorem(tid, 20, InstanceSpec(seed=0))) for tid in ALL_THEOREMS]
        assert out == files.dumps(expected)

    @pytest.mark.parametrize("tid", NECESSITY_TEMPLATES)
    def test_every_pinned_law_finds_a_counterexample(self, tid):
        template = replace(NECESSITY_TEMPLATES[tid], seed=0)
        assert fuzz_theorem(tid, 5, template, drop_hypothesis=True).counterexample is not None

    def test_dropped_suite_exits_1_when_a_pinned_law_finds_none(self, capsys):
        # at seed 0 T4.2 first fails at trial 1 (tests/golden/verdicts.json)
        code, out, _ = run(capsys, "suite", "--drop-hypothesis", "--trials", "1", "--seed", "0")
        assert code == 1
        docs = json.loads(out)
        assert [doc["theorem"] for doc in docs] == list(NECESSITY_TEMPLATES)
        assert [doc["theorem"] for doc in docs if doc["counterexample"] is None] == ["T4.2"]


class TestExample:
    def test_z8_stdout_matches_the_golden_file(self, capsys):
        code, out, _ = run(capsys, "example", "z8")
        assert code == 0
        assert out == (GOLDEN / "z8.example.json").read_text(encoding="utf-8")

    def test_z8_files_match_the_golden_files(self, z8_files):
        for produced, golden in zip(z8_files, ("z8.structure.json", "z8.soft.json")):
            assert produced.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_minmax5_emits_a_strict_valid_structure(self, capsys):
        code, out, _ = run(capsys, "example", "minmax5")
        assert code == 0
        gs = files.structure_from_doc(json.loads(out)["structure"])
        from softgamma import check_gamma_semiring

        assert check_gamma_semiring(gs, "strict").passed

    def test_matrix_example_emits_the_four_element_carrier(self, capsys):
        code, out, _ = run(capsys, "example", "matrix2x1x2")
        assert code == 0
        assert len(json.loads(out)["structure"]["s_elements"]) == 4

    def test_unknown_example_exits_2(self, capsys):
        # refused by the argument parser, which lists the bundled names
        code, out, err = run(capsys, "example", "nope")
        assert code == 2
        assert out == ""
        assert "invalid choice: 'nope'" in err
