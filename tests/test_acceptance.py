"""Acceptance suite: one test per multi-tolerance criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import random
import time
from pathlib import Path

from softgamma import (
    InstanceSpec,
    check_gamma_semiring,
    enumerate_sub_gamma_semirings,
    extended_intersect,
    extended_union,
    fuzz_theorem,
    is_soft_gamma_semiring,
    is_soft_subset,
    make_matrix_gamma,
    make_minmax_gamma,
    make_soft_function,
    make_zn_gamma,
    or_union,
    and_intersect,
    cartesian_product,
    restricted_intersect,
    restricted_union,
    soft_equal,
    soft_image,
    soft_preimage,
    ternary_product,
)
from softgamma.cli import main, z8_example
from softgamma.harness import ACCEPTANCE_THEOREMS, NECESSITY_TEMPLATES
from softgamma.soft_sets import SoftSet

from conftest import random_soft_set

GOLDEN = Path(__file__).parent / "golden"


def _report(name: str, ok: bool, elapsed: float, bound: float) -> None:
    state = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"ACCEPTANCE {name}: {state} ({elapsed:.2f}s < {bound:.0f}s)")
    assert ok
    assert elapsed < bound


def test_z8_reproduction():
    start = time.monotonic()
    gs, ss = z8_example()
    whole = tuple(str(i) for i in range(8))
    evens = ("0", "2", "4", "6")
    exact = all(ss.value(y) == whole for y in ("0", "2", "4", "6")) and all(
        ss.value(y) == evens for y in ("1", "3", "5", "7")
    )
    ok = exact and bool(is_soft_gamma_semiring(gs, ss))
    _report("z8-reproduction", ok, time.monotonic() - start, 1.0)


def test_axiom_dichotomy():
    start = time.monotonic()
    gs = make_zn_gamma(8, (2, 4, 6), strict=True)
    weak_ok = check_gamma_semiring(gs, "weak").passed
    strict = check_gamma_semiring(gs, "strict")
    witness_ok = [(v.axiom, v.witness) for v in strict.violations] == [
        ("gamma-closure", ("2", "6", "0"))
    ]
    _report(
        "axiom-dichotomy", weak_ok and not strict.passed and witness_ok, time.monotonic() - start, 1.0
    )


def _naive_filter(gs):
    """Power-set filtration over labels, sorted into the canonical bitmask order."""
    pos = {e: i for i, e in enumerate(gs.elements)}
    out = []
    for r in range(1, gs.size + 1):
        for combo in itertools.combinations(gs.elements, r):
            chosen = set(combo)
            if all(gs.s.add(a, b) in chosen for a in chosen for b in chosen) and all(
                ternary_product(gs, a, g, b) in chosen
                for a in chosen
                for g in gs.gamma_elements
                for b in chosen
            ):
                out.append(frozenset(chosen))
    return sorted(out, key=lambda sub: sum(1 << pos[e] for e in sub))


def test_subsemiring_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(13)
    structures = []
    for n in (2, 4, 6, 8):
        gammas = {(1 % n,), tuple(range(n)), tuple(sorted(rng.sample(range(n), max(1, n // 2))))}
        gammas.add(tuple(g for g in (2, 4, 6) if g < n) or (0,))
        structures += [make_zn_gamma(n, g) for g in gammas]
    for n in (2, 3, 4, 5):
        structures.append(make_minmax_gamma(n, tuple(range(n))))
        structures.append(make_minmax_gamma(n, (n - 1,)))
    structures.append(make_matrix_gamma(2, 1, 2))
    structures.append(make_matrix_gamma(2, 2, 1))
    ok = all(
        [frozenset(t) for t in enumerate_sub_gamma_semirings(gs)] == _naive_filter(gs)
        for gs in structures
    )
    _report("subsemiring-oracle-equivalence", ok, time.monotonic() - start, 30.0)


def test_theorem_suite_enforced():
    start = time.monotonic()
    ok = True
    for tid in ACCEPTANCE_THEOREMS:
        verdict = fuzz_theorem(tid, 500, InstanceSpec(seed=0))
        balanced = verdict.passes + verdict.vacuous + verdict.failures == 500
        line_ok = verdict.failures == 0 and verdict.passes > 0 and balanced
        print(
            f"  {tid:9s} pass={verdict.passes:3d} vacuous={verdict.vacuous:3d} "
            f"failures={verdict.failures}"
        )
        ok = ok and line_ok
    _report("theorem-suite-enforced", ok, time.monotonic() - start, 120.0)


def test_hypothesis_necessity():
    start = time.monotonic()
    verdict = fuzz_theorem("T3.8", 1000, NECESSITY_TEMPLATES["T3.8"], drop_hypothesis=True)
    ok = verdict.failures >= 1 and verdict.counterexample is not None
    _report("hypothesis-necessity-T3.8", ok, time.monotonic() - start, 10.0)


def _random_pair(rng, universe):
    return random_soft_set(rng, universe), random_soft_set(rng, universe)


def test_soft_set_algebra_properties():
    start = time.monotonic()
    universe = tuple(f"u{i}" for i in range(5))
    ok = True

    rng = random.Random(101)
    for _ in range(200):  # parameter-set laws
        a, b = _random_pair(rng, universe)
        pa, pb = set(a.parameters), set(b.parameters)
        if pa & pb:
            ok = ok and set(restricted_intersect([a, b]).parameters) == pa & pb
            ok = ok and set(restricted_union([a, b]).parameters) == pa & pb
        ok = ok and set(extended_intersect([a, b]).parameters) == pa | pb
        ok = ok and set(extended_union([a, b]).parameters) == pa | pb
        ok = ok and set(and_intersect(a, b).parameters) == set(
            itertools.product(a.parameters, b.parameters)
        )
        ok = ok and set(or_union(a, b).parameters) == set(
            itertools.product(a.parameters, b.parameters)
        )
        ok = ok and set(cartesian_product([a, b]).parameters) == set(
            itertools.product(a.parameters, b.parameters)
        )

    rng = random.Random(102)
    for _ in range(200):  # monotonicity
        a, b = _random_pair(rng, universe)
        if set(a.parameters) & set(b.parameters):
            out = restricted_intersect([a, b])
            ok = ok and is_soft_subset(out, a) and is_soft_subset(out, b)
        grown = extended_union([a, b])
        ok = ok and is_soft_subset(a, grown) and is_soft_subset(b, grown)

    rng = random.Random(103)
    for _ in range(200):  # extended/restricted agreement on equal parameter sets
        a = random_soft_set(rng, universe)
        b = SoftSet(
            universe, a.parameters, tuple(rng.getrandbits(len(universe)) for _ in a.parameters)
        )
        ok = ok and soft_equal(extended_intersect([a, b]), restricted_intersect([a, b]))
        ok = ok and soft_equal(extended_union([a, b]), restricted_union([a, b]))

    rng = random.Random(104)
    target_universe = ("t0", "t1", "t2")
    for _ in range(200):  # image/preimage round-trip containments
        f = {v: rng.choice(target_universe) for v in universe}
        params = ("a", "b", "c")
        target_params = ("x", "y")
        g = {w: rng.choice(target_params) for w in params}
        fiber = {y: rng.getrandbits(len(universe)) for y in target_params}
        source = SoftSet(universe, params, tuple(fiber[g[w]] for w in params))
        t_pos = {v: i for i, v in enumerate(target_universe)}
        t_masks = []
        for y in target_params:
            mask = 0
            if y in {g[w] for w in params}:
                for i, v in enumerate(universe):
                    if fiber[y] >> i & 1:
                        mask |= 1 << t_pos[f[v]]
            else:
                mask = rng.getrandbits(len(target_universe))
            t_masks.append(mask)
        target = SoftSet(target_universe, target_params, tuple(t_masks))
        sf = make_soft_function(f, g, source, target)
        image = soft_image(sf)
        ok = ok and is_soft_subset(image, target)
        ok = ok and is_soft_subset(source, soft_preimage(f, g, image, params))
        ok = ok and is_soft_subset(source, soft_preimage(f, g, target, params))

    _report("soft-set-algebra-properties", ok, time.monotonic() - start, 30.0)


def test_golden_file_stability(capsys, tmp_path):
    start = time.monotonic()
    assert main(["example", "z8"]) == 0
    first = capsys.readouterr().out
    assert main(["example", "z8"]) == 0
    second = capsys.readouterr().out
    ok = first == second == (GOLDEN / "z8.example.json").read_text(encoding="utf-8")
    assert main(["example", "z8", "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    ok = ok and (tmp_path / "z8.structure.json").read_bytes() == (
        GOLDEN / "z8.structure.json"
    ).read_bytes()
    ok = ok and (tmp_path / "z8.soft.json").read_bytes() == (GOLDEN / "z8.soft.json").read_bytes()
    with capsys.disabled():
        print()
        _report("golden-file-stability", ok, time.monotonic() - start, 1.0)
