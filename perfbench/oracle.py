"""Known answers computed without softgamma.

Structures are rebuilt here from plain arithmetic on their labels, so a
verdict is checked against mathematics rather than against the code under
test.  Z_n and min/max answers come from closed forms; matrix and product
carriers go through a naive power-set filter.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product as iproduct

from specs import spec_labels, zn_labels


class Raw:
    """A finite gamma-semiring as label arithmetic: add(a, b), mul(a, g, b)."""

    def __init__(self, labels, gammas, add, mul):
        self.labels = list(labels)
        self.gammas = list(gammas)
        self.add = add
        self.mul = mul

    def closed(self, subset) -> bool:
        s = set(subset)
        if not s:
            return False
        for a in s:
            for b in s:
                if self.add(a, b) not in s:
                    return False
                for g in self.gammas:
                    if self.mul(a, g, b) not in s:
                        return False
        return True

    def closed_sets_naive(self) -> list[frozenset]:
        """Filter all 2^n - 1 nonempty subsets; pairs are tabulated once."""
        labels = self.labels
        pos = {e: i for i, e in enumerate(labels)}
        n = len(labels)
        need = [
            [
                (1 << pos[self.add(a, b)]) | _or_bits(pos[self.mul(a, g, b)] for g in self.gammas)
                for b in labels
            ]
            for a in labels
        ]
        out = []
        for mask in range(1, 1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            if all(need[i][j] & ~mask == 0 for i in members for j in members):
                out.append(frozenset(labels[i] for i in members))
        return out


def _or_bits(positions) -> int:
    m = 0
    for p in positions:
        m |= 1 << p
    return m


def raw_structure(spec: dict) -> Raw:
    family = spec["family"]
    labels = spec_labels(spec)
    if family in ("zn", "minmax"):
        n = spec["n"]
        gammas = [str(g) for g in spec["gamma"]]
        if family == "zn":
            add = lambda a, b: str((int(a) + int(b)) % n)
            mul = lambda a, g, b: str(int(a) * int(g) * int(b) % n)
        else:
            add = lambda a, b: str(max(int(a), int(b)))
            mul = lambda a, g, b: str(min(int(a), int(g), int(b)))
        return Raw(labels, gammas, add, mul)
    if family == "matrix":
        p, rows, cols = spec["shape"]
        gammas = ["".join(map(str, m)) for m in iproduct(range(p), repeat=rows * cols)]

        def mat(label, r, c):
            return [[int(label[i * c + j]) for j in range(c)] for i in range(r)]

        def matmul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(len(y))) % p for j in range(len(y[0]))] for i in range(len(x))]

        def flat(m):
            return "".join(str(v) for row in m for v in row)

        add = lambda a, b: "".join(str((int(x) + int(y)) % p) for x, y in zip(a, b))
        mul = lambda a, g, b: flat(matmul(matmul(mat(a, rows, cols), mat(g, cols, rows)), mat(b, rows, cols)))
        return Raw(labels, gammas, add, mul)
    # zprod: coordinatewise Z_n^k with a shared gamma set
    n = spec["n"]
    gammas = [str(g) for g in spec["gamma"]]
    add = lambda a, b: tuple(str((int(x) + int(y)) % n) for x, y in zip(a, b))
    mul = lambda a, g, b: tuple(str(int(x) * int(g) * int(y) % n) for x, y in zip(a, b))
    return Raw(labels, gammas, add, mul)


def zn_closed_sets(n: int) -> list[frozenset]:
    """Subgroups of Z_n: one per divisor, whatever the gamma set."""
    return [frozenset(str(k) for k in range(0, n, d)) for d in range(1, n + 1) if n % d == 0]


def minmax_closed_sets(n: int, gamma) -> list[frozenset]:
    """A subset with maximum m is closed iff it holds every gamma below m;
    the elements below m outside gamma are free."""
    out = []
    for m in range(n):
        forced = [g for g in gamma if g < m]
        free = [x for x in range(m) if x not in gamma]
        for bits in range(1 << len(free)):
            chosen = [free[i] for i in range(len(free)) if bits >> i & 1]
            out.append(frozenset(str(x) for x in [m, *forced, *chosen]))
    return out


def minmax_count(n: int, gamma) -> int:
    return sum(2 ** (m - len([g for g in gamma if g < m])) for m in range(n))


def gamma_closed_mod(gamma, n: int) -> bool:
    return all((a + b) % n in gamma for a in gamma for b in gamma)


def family_digest(sets) -> str:
    """Order-free digest of a family of label sets."""
    canon = sorted(sorted(_jsonable(x) for x in s) for s in sets)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def _jsonable(label):
    return list(label) if isinstance(label, tuple) else label


def expected_structure(spec: dict) -> dict:
    """weak/strict pass flags, the subalgebra count and digest, and the soft verdict."""
    family = spec["family"]
    raw = raw_structure(spec)
    if family == "zn":
        sets = zn_closed_sets(spec["n"])
        strict = gamma_closed_mod(spec["gamma"], spec["n"])
    elif family == "minmax":
        sets = minmax_closed_sets(spec["n"], spec["gamma"])
        if len(sets) != minmax_count(spec["n"], spec["gamma"]):
            raise RuntimeError("min/max closed-form enumeration disagrees with its count")
        strict = True
    elif family == "matrix":
        sets = raw.closed_sets_naive()
        strict = True
    else:
        sets = raw.closed_sets_naive()
        strict = gamma_closed_mod(spec["gamma"], spec["n"])
    values = spec["soft"].values()
    soft = any(values) and all(raw.closed(v) for v in values if v)
    return {"weak": True, "strict": strict, "count": len(sets), "digest": family_digest(sets), "soft": soft}


# -- counterexamples -----------------------------------------------------------


def _param_key(param) -> str:
    return param if isinstance(param, str) else json.dumps(param, separators=(",", ":"))


def _doc_value(doc: dict, param) -> set:
    return {_hashable(v) for v in doc["values"][_param_key(param)]}


def _hashable(label):
    return tuple(_hashable(x) for x in label) if isinstance(label, list) else label


def counterexample_holds(ce: dict) -> bool:
    """Re-derive a recorded counterexample from its own raw tables."""
    s = ce["structure"]
    elems = [_hashable(e) for e in s["s_elements"]]
    pos = {e: i for i, e in enumerate(elems)}
    gpos = {g: i for i, g in enumerate(s["gamma_elements"])}
    violation = ce.get("violation")
    if violation is None:
        # kernel transport (T3.17i): the recorded image must not be trivial;
        # a zero singleton is always closed, so non-trivial is the only way
        # the conclusion can fail
        hom = ce["hom"]["target"]
        t_elems = [_hashable(e) for e in hom["s_elements"]]
        zero = t_elems[hom["zero"]]
        result = ce["result"]
        return any(_doc_value(result, _hashable(w)) != {zero} for w in result["parameters"])
    kind = violation["kind"]
    param = _hashable(violation["failing_parameter"])
    witness = [_hashable(e) for e in violation["elements"]]
    if kind in ("add-closure", "product-closure"):
        value = _doc_value(ce["result"], param)
        if kind == "add-closure":
            a, b, c = witness
            derived = elems[s["s_add"][pos[a]][pos[b]]]
            return a in value and b in value and derived == c and c not in value
        a, g, b, c = witness
        derived = elems[s["product"][pos[a]][gpos[g]][pos[b]]]
        return a in value and b in value and derived == c and c not in value
    if kind == "value-not-contained":
        inner = ce["result"] if "result" in ce else ce["members"][0]
        (e,) = witness
        return e in _doc_value(inner, param) and e not in _doc_value(ce["outer"], param)
    return False


# -- cli -----------------------------------------------------------------------


def expected_cli(inputs: dict, z8_soft_doc: dict) -> dict:
    """request id -> exit code, or (exit code, expected stdout fact)."""
    zn, minmax = inputs["zn"], inputs["minmax"]
    n = zn["n"]
    zn_raw = raw_structure(zn)
    z8 = raw_structure({"family": "zn", "n": 8, "gamma": (2, 4, 6)})
    z8_values = [v for v in z8_soft_doc["values"].values() if v]
    rint = {}
    a, b = inputs["rint_a"], inputs["rint_b"]
    common = [w for w in a if w in b]
    for w in common:
        rint[w] = [x for x in zn_labels(n) if x in a[w] and x in b[w]]
    check_values = [v for v in inputs["check"].values() if v]
    return {
        "validate-z8-weak": 0,
        "validate-z8-strict": 1,
        "validate-zn-strict": 0 if gamma_closed_mod(zn["gamma"], n) else 1,
        "validate-minmax-strict": 0,
        "subsemirings-zn": (0, len(zn_closed_sets(n))),
        "subsemirings-minmax": (0, minmax_count(minmax["n"], minmax["gamma"])),
        "soft-check-z8": 0 if z8_values and all(z8.closed(v) for v in z8_values) else 1,
        "soft-check-zn": 0 if check_values and all(zn_raw.closed(v) for v in check_values) else 1,
        "op-rint": (0, {"universe": zn_labels(n), "parameters": common, "values": rint}),
    }
