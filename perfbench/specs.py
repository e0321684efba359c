"""Seed-determined inputs of the four workloads.

Nothing here imports softgamma: the same inputs feed the measured program
and the independent known answers in oracle.py.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

WORKLOADS = ("suite-enforced", "necessity-dropped", "structures", "cli")

# Input blocks per run.  The suite's cold cost hangs on how many distinct
# product tables its random gamma draws need: at 200 trials a law the cold
# pass time of single blocks has a coefficient of variation of about 9 %; a
# run averages six blocks to narrow that.  The other workloads draw from
# fixed grids and need one block.
BLOCKS = {"suite-enforced": 6, "necessity-dropped": 1, "structures": 1, "cli": 1}

SUITE_TRIALS = 200  # per law and request
NECESSITY_TRIALS = 250  # per request
NECESSITY_REQUESTS = 4  # consecutive seed sub-blocks per experiment

# The seven pinned families of scripts/necessity_experiments.py.
EXPERIMENTS = (
    ("T3.7", "zn", (8,), (2, 4, 6)),
    ("T3.8", "zn", (8,), (2, 4, 6)),
    ("T3.9", "zn", (6,), (1,)),
    ("T3.12", "minmax", (5,), (1, 2, 3)),
    ("T3.17i", "zn", (8,), (2, 4, 6)),
    ("T4.2", "zn", (8,), (2, 4, 6)),
    ("T4.7", "matrix", (2, 1, 2), ()),
)

# Two laws without product carriers, so the short CLI theorem runs stay short.
CLI_LAWS = ("T3.8", "T4.7")
CLI_THEOREM_TRIALS = 30
CLI_CARRIER = 12  # the default enumeration bound of `softgamma subsemirings`

MAX_CARRIER = 16


def block_seeds(workload: str, seed: int) -> list[int]:
    """First trial seed of each input block of a run; blocks never share a
    trial seed, within a run or across run seeds."""
    return [(seed * 8 + b) * 100_000 for b in range(BLOCKS[workload])]


# -- structures --------------------------------------------------------------


def zn_labels(n: int) -> list[str]:
    return [str(i) for i in range(n)]


def matrix_labels(p: int, rows: int, cols: int) -> list[str]:
    return ["".join(map(str, m)) for m in iproduct(range(p), repeat=rows * cols)]


def product_labels(n: int, k: int) -> list[tuple[str, ...]]:
    return list(iproduct(zn_labels(n), repeat=k))


def _subset(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(n), size)))


def _zn_gamma(rng: random.Random, n: int) -> tuple[int, ...]:
    # |gamma| = n // 2 keeps the axiom-scan cost fixed.  Whether gamma is
    # closed decides how early the strict scans stop, so it is tied to n (the
    # closed even residues when 4 divides n), not to the seed.
    if n % 4 == 0:
        return tuple(range(0, n, 2))
    return _subset(rng, n, n // 2)


def structure_specs(input_seed: int) -> list[dict]:
    """Every carrier size 8..16 for zn and minmax, the three matrix families,
    and the products z4^2 and z2^3; gammas and soft-set values are drawn from
    the seed."""
    rng = random.Random(input_seed)
    specs = []
    for n in range(8, MAX_CARRIER + 1):
        specs.append({"id": f"zn{n}", "family": "zn", "n": n, "gamma": _zn_gamma(rng, n)})
    for n in range(8, MAX_CARRIER + 1):
        specs.append({"id": f"minmax{n}", "family": "minmax", "n": n, "gamma": _subset(rng, n, n // 2)})
    for p, rows, cols in ((2, 2, 2), (3, 1, 2), (3, 2, 1)):
        specs.append({"id": f"matrix{p}x{rows}x{cols}", "family": "matrix", "shape": (p, rows, cols)})
    for n, k, name in ((4, 2, "z4sq"), (2, 3, "z2cube")):
        specs.append({"id": name, "family": "zprod", "n": n, "k": k, "gamma": _zn_gamma(rng, n)})
    for spec in specs:
        spec["soft"] = _soft_values(rng, spec)
    return specs


def spec_labels(spec: dict) -> list:
    family = spec["family"]
    if family in ("zn", "minmax"):
        return zn_labels(spec["n"])
    if family == "matrix":
        return matrix_labels(*spec["shape"])
    return product_labels(spec["n"], spec["k"])


def _soft_values(rng: random.Random, spec: dict) -> dict:
    """Parameter -> value labels: the whole carrier, the zero singleton, and a
    third value that is closed by construction or a random subset."""
    labels = spec_labels(spec)
    n = len(labels)
    if rng.random() < 0.5:
        third = [labels[i] for i in sorted(rng.sample(range(n), rng.randint(1, n)))]
    elif spec["family"] == "zn":
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        d = rng.choice(divisors)
        third = [labels[i] for i in range(0, n, d)]
    elif spec["family"] == "minmax":
        third = labels[: rng.randint(1, n)]  # a down-set 0..m is closed
    else:
        third = list(labels)
    # every family here lists its zero first
    return {"a": list(labels), "b": [labels[0]], "c": third}


# -- cli ---------------------------------------------------------------------


def cli_inputs(input_seed: int) -> dict:
    """Seeded structures and soft sets the CLI commands read.  Sizes are
    fixed, so the seed moves the answers but hardly the cost."""
    rng = random.Random(input_seed)
    n = CLI_CARRIER
    zn = {"family": "zn", "n": n, "gamma": _zn_gamma(rng, n)}
    minmax = {"family": "minmax", "n": n, "gamma": _subset(rng, n, n // 2)}
    labels = zn_labels(n)

    def soft(params):
        return {w: [labels[i] for i in range(n) if rng.random() < 0.5] for w in params}

    pool = ("b", "c", "d")
    a = soft(("a",) + tuple(sorted(rng.sample(pool, rng.randint(0, 2)))))
    b = soft(("a",) + tuple(sorted(rng.sample(pool, rng.randint(0, 2)))))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    check = {"a": [labels[i] for i in range(0, n, rng.choice(divisors))], "b": soft(("b",))["b"]}
    return {
        "zn": zn,
        "minmax": minmax,
        "rint_a": a,
        "rint_b": b,
        "check": check,
        "theorem_seed": input_seed,
    }


def cli_commands(inputs: dict) -> list[tuple[str, list[str]]]:
    """(request id, argv) in the fixed order of one pass; paths are relative
    to the input directory."""
    law1, law2 = CLI_LAWS
    seed = str(inputs["theorem_seed"])
    trials = str(CLI_THEOREM_TRIALS)
    return [
        ("example-z8", ["example", "z8"]),
        ("example-z8-dir", ["example", "z8", "-o", "example-out"]),
        ("validate-z8-weak", ["validate", "z8.structure.json", "--mode", "weak"]),
        ("validate-z8-strict", ["validate", "z8.structure.json", "--mode", "strict"]),
        ("validate-zn-strict", ["validate", "zn.structure.json", "--mode", "strict"]),
        ("validate-minmax-strict", ["validate", "minmax.structure.json", "--mode", "strict"]),
        ("subsemirings-zn", ["subsemirings", "zn.structure.json"]),
        ("subsemirings-minmax", ["subsemirings", "minmax.structure.json"]),
        ("soft-check-z8", ["soft-check", "z8.structure.json", "z8.soft.json"]),
        ("soft-check-zn", ["soft-check", "zn.structure.json", "check.soft.json"]),
        ("op-rint", ["op", "rint", "a.soft.json", "b.soft.json"]),
        (f"theorem-{law1}", ["theorem", law1, "--trials", trials, "--seed", seed]),
        (f"theorem-{law2}", ["theorem", law2, "--trials", trials, "--seed", seed]),
    ]
