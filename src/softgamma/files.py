"""JSON document formats for structures, soft sets, relations, and reports.

All emitters produce deterministic documents (sorted keys, two-space indent,
LF endings); composite labels such as product-carrier tuples serialize as
nested lists.  Parsing is strict: unknown fields, ragged tables, and
out-of-range indices are hard parse errors.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import FiniteCommutativeSemigroup, GammaHom, GammaSemiring, gamma_hom
from .errors import DomainError, InputError, ParseError
from .reports import AxiomReport, TheoremVerdict, Witness
from .soft_sets import SoftSet, TernaryRelation


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def load(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads(text)


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


def label_to_jsonable(label):
    if isinstance(label, str):
        return label
    if isinstance(label, tuple):
        return [label_to_jsonable(x) for x in label]
    raise InputError(f"label {label!r} is not serializable (expected str or tuple)")


def label_from_jsonable(node):
    try:
        return _label(node)
    except RecursionError:
        raise ParseError("label entry is nested too deeply") from None


def _label(node):
    if isinstance(node, str):
        return node
    if isinstance(node, list):
        return tuple(_label(x) for x in node)
    raise ParseError(f"label entry {node!r} must be a string or nested list")


def label_map_from_jsonable(node, what: str) -> dict:
    """A JSON object read as a map from its keys to labels."""
    if not isinstance(node, dict):
        raise ParseError(f"{what} must be an object")
    return {key: label_from_jsonable(value) for key, value in node.items()}


def param_key(label) -> str:
    """Canonical string key for a parameter: itself for plain labels, compact
    JSON of the nested-list form for tuples (JSON objects cannot key on arrays)."""
    if isinstance(label, str):
        return label
    return json.dumps(label_to_jsonable(label), separators=(",", ":"))


def require_fields(doc: dict, fields: set[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be an object")
    present = set(doc)
    missing = fields - present
    extra = present - fields
    if missing:
        raise ParseError(f"{what} is missing fields {sorted(missing)}")
    if extra:
        raise ParseError(f"{what} has unknown fields {sorted(extra)}")


_STRUCTURE_FIELDS = {"name", "s_elements", "s_add", "gamma_elements", "gamma_add", "product", "zero"}


def structure_to_doc(gs: GammaSemiring, name: str = "structure") -> dict:
    return {
        "name": name,
        "s_elements": [label_to_jsonable(e) for e in gs.elements],
        "s_add": [list(row) for row in gs.s.add_table],
        "gamma_elements": list(gs.gamma_elements),
        "gamma_add": None if gs.gamma_add is None else [list(row) for row in gs.gamma_add],
        "product": [[list(cell) for cell in layer] for layer in gs.product],
        "zero": None if gs.zero is None else gs.s.pos(gs.zero),
    }


def structure_from_doc(doc: dict) -> GammaSemiring:
    require_fields(doc, _STRUCTURE_FIELDS, "structure document")
    if not isinstance(doc["name"], str):
        raise ParseError("structure name must be a string")
    if not isinstance(doc["s_elements"], list) or not isinstance(doc["gamma_elements"], list):
        raise ParseError("s_elements and gamma_elements must be lists")
    elements = tuple(label_from_jsonable(e) for e in doc["s_elements"])
    zero_idx = doc["zero"]
    if zero_idx is not None:
        # exactly int: a JSON true is a bool, which Python counts as the int 1
        if type(zero_idx) is not int or not 0 <= zero_idx < len(elements):
            raise ParseError(f"zero index {zero_idx!r} is not a position in 0..{len(elements) - 1}")
    try:
        sg = FiniteCommutativeSemigroup(elements, doc["s_add"])
        return GammaSemiring(
            sg,
            doc["gamma_elements"],
            doc["gamma_add"],
            doc["product"],
            zero=None if zero_idx is None else elements[zero_idx],
        )
    except InputError as exc:
        raise ParseError(str(exc)) from None


_SOFT_FIELDS = {"universe", "parameters", "values"}


def soft_set_to_doc(ss: SoftSet) -> dict:
    values = {}
    for w in ss.parameters:
        key = param_key(w)
        if key in values:
            raise InputError(f"parameter key collision at {key!r}")
        values[key] = [label_to_jsonable(v) for v in ss.value(w)]
    return {
        "universe": [label_to_jsonable(v) for v in ss.universe],
        "parameters": [label_to_jsonable(w) for w in ss.parameters],
        "values": values,
    }


def soft_set_from_doc(doc: dict) -> SoftSet:
    require_fields(doc, _SOFT_FIELDS, "soft set document")
    if not isinstance(doc["universe"], list) or not isinstance(doc["parameters"], list):
        raise ParseError("universe and parameters must be lists")
    if not isinstance(doc["values"], dict):
        raise ParseError("values must be an object")
    universe = tuple(label_from_jsonable(v) for v in doc["universe"])
    parameters = tuple(label_from_jsonable(w) for w in doc["parameters"])
    keys = {}
    for w in parameters:
        key = param_key(w)
        if key in keys:
            raise ParseError(f"parameter key collision at {key!r}")
        keys[key] = w
    values = {}
    for key, labels in doc["values"].items():
        if key not in keys:
            raise ParseError(f"values mention unknown parameter key {key!r}")
        if not isinstance(labels, list):
            raise ParseError(f"value list for {key!r} must be a list")
        values[keys[key]] = [label_from_jsonable(v) for v in labels]
    try:
        return SoftSet.build(universe, parameters, values)
    except InputError as exc:
        raise ParseError(str(exc)) from None


_RELATION_FIELDS = {"n_params", "gamma", "triples"}


def relation_to_doc(rel: TernaryRelation) -> dict:
    triples = [
        [label_to_jsonable(p), g, label_to_jsonable(s)]
        for p, g, s in sorted(rel.triples, key=lambda t: (param_key(t[0]), t[1], param_key(t[2])))
    ]
    return {
        "n_params": [label_to_jsonable(p) for p in rel.parameters],
        "gamma": list(rel.gamma),
        "triples": triples,
    }


def relation_from_doc(doc: dict) -> TernaryRelation:
    require_fields(doc, _RELATION_FIELDS, "relation document")
    if not isinstance(doc["n_params"], list) or not isinstance(doc["gamma"], list):
        raise ParseError("n_params and gamma must be lists")
    if not isinstance(doc["triples"], list):
        raise ParseError("triples must be a list")
    parameters = tuple(label_from_jsonable(p) for p in doc["n_params"])
    triples = []
    for t in doc["triples"]:
        if not isinstance(t, list) or len(t) != 3:
            raise ParseError(f"relation triple {t!r} must be a three-element list")
        if not isinstance(t[1], str):
            raise ParseError(f"relation gamma component {t[1]!r} must be a string")
        triples.append((label_from_jsonable(t[0]), t[1], label_from_jsonable(t[2])))
    try:
        return TernaryRelation(parameters, doc["gamma"], frozenset(triples))
    except InputError as exc:
        raise ParseError(str(exc)) from None


def hom_to_doc(hom: GammaHom) -> dict:
    return {
        "source": structure_to_doc(hom.source, name="source"),
        "target": structure_to_doc(hom.target, name="target"),
        "map": {param_key(e): label_to_jsonable(t) for e, t in hom.as_label_map().items()},
    }


def hom_from_doc(doc: dict) -> GammaHom:
    require_fields(doc, {"source", "target", "map"}, "homomorphism document")
    source = structure_from_doc(doc["source"])
    target = structure_from_doc(doc["target"])
    keyed = {param_key(e): e for e in source.elements}
    mapping = {}
    for key, value in label_map_from_jsonable(doc["map"], "homomorphism map").items():
        if key not in keyed:
            raise ParseError(f"homomorphism map mentions unknown element key {key!r}")
        mapping[keyed[key]] = value
    try:
        return gamma_hom(source, target, mapping)
    except (InputError, DomainError) as exc:
        raise ParseError(str(exc)) from None


def axiom_report_to_doc(report: AxiomReport) -> dict:
    return {
        "mode": report.mode,
        "passed": report.passed,
        "violations": [
            {"axiom": v.axiom, "witness": [label_to_jsonable(x) for x in v.witness]}
            for v in report.violations
        ],
    }


def witness_to_doc(w: Witness) -> dict:
    return {
        "verdict": w.verdict,
        "kind": w.kind,
        "failing_parameter": None
        if w.failing_parameter is None
        else label_to_jsonable(w.failing_parameter),
        "elements": [label_to_jsonable(x) for x in w.elements],
    }


def verdict_to_doc(v: TheoremVerdict) -> dict:
    return {
        "theorem": v.theorem,
        "trials": v.trials,
        "passes": v.passes,
        "vacuous": v.vacuous,
        "failures": v.failures,
        "counterexample": v.counterexample,
    }
