"""Golden verdicts: every law's counts and counterexample bytes, pinned.

Each case records the pass / vacuous / fail counts, the first failing trial
and the sha256 of the verdict document's canonical JSON.  A change to the
harness that keeps these bytes keeps the determinism contract, including
the draw order of generate_instance.  A change that alters verdicts on
purpose regenerates the file in one step:

    PYTHONPATH=src python tests/test_golden_verdicts.py --write

Without --write the script checks the file and prints each added, removed
or changed case to stderr.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from softgamma import InstanceSpec, check_theorem, files, fuzz_theorem, generate_instance
from softgamma.harness import ALL_THEOREMS, NECESSITY_TEMPLATES

GOLDEN = Path(__file__).parent / "golden" / "verdicts.json"

SUITE_SEEDS = (0, 7)
SUITE_TRIALS = 100
NECESSITY_TRIALS = 300

# instances generated without any law's policy, so some laws meet shapes
# they were not written for: a missing outer or homomorphism, members on the
# wrong side of the homomorphism, values that are arbitrary subsets
RAW_SPECS = (
    InstanceSpec(seed=3, nested="confined", hom="collapse"),
    InstanceSpec(
        generator="zn",
        size=(8,),
        gamma=(2, 4, 6),
        seed=5,
        nested="confined",
        hom="collapse",
        target_side=True,
        family_size=2,
    ),
    InstanceSpec(generator="minmax", size=(5,), gamma=(1, 2, 3), seed=11, family_size=3, value_policy="arbitrary"),
)


def _summary(verdict) -> dict:
    text = files.dumps(files.verdict_to_doc(verdict))
    return {
        "pass": verdict.passes,
        "vacuous": verdict.vacuous,
        "fail": verdict.failures,
        "first_failing_trial": verdict.counterexample["trial"] if verdict.counterexample else None,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def compute() -> dict:
    cases = {}
    for mode, drop in (("enforced", False), ("dropped", True)):
        for seed in SUITE_SEEDS:
            for tid in ALL_THEOREMS:
                verdict = fuzz_theorem(tid, SUITE_TRIALS, InstanceSpec(seed=seed), drop_hypothesis=drop)
                cases[f"suite/{mode}/seed{seed}/{tid}"] = _summary(verdict)
    for tid, template in NECESSITY_TEMPLATES.items():
        verdict = fuzz_theorem(tid, NECESSITY_TRIALS, template, drop_hypothesis=True)
        cases[f"necessity/{tid}"] = _summary(verdict)
    for index, spec in enumerate(RAW_SPECS):
        instance = generate_instance(spec)
        for tid in ALL_THEOREMS:
            try:
                cases[f"check/spec{index}/{tid}"] = _summary(check_theorem(tid, instance))
            except Exception as exc:  # the raised error is the recorded outcome
                cases[f"check/spec{index}/{tid}"] = {"error": f"{type(exc).__name__}: {exc}"}
    return cases


def differences(golden: dict, actual: dict) -> list[str]:
    """One line per case added, removed or changed, in key order."""
    lines = [f"added {key}: {actual[key]}" for key in sorted(actual.keys() - golden.keys())]
    lines += [f"removed {key}: {golden[key]}" for key in sorted(golden.keys() - actual.keys())]
    lines += [
        f"changed {key}: {golden[key]} -> {actual[key]}"
        for key in sorted(golden.keys() & actual.keys())
        if golden[key] != actual[key]
    ]
    return lines


def test_verdicts_match_the_golden_file():
    changes = differences(json.loads(GOLDEN.read_text(encoding="utf-8")), compute())
    assert not changes, f"{len(changes)} golden cases differ:\n" + "\n".join(changes)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Check or regenerate the golden verdicts; a check prints every differing case to stderr."
    )
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    args = parser.parse_args()
    actual = compute()
    text = files.dumps(actual)
    if args.write:
        GOLDEN.write_text(text, encoding="utf-8")
        return 0
    golden_text = GOLDEN.read_text(encoding="utf-8")
    for line in differences(json.loads(golden_text), actual):
        print(line, file=sys.stderr)
    return 0 if text == golden_text else 1


if __name__ == "__main__":
    sys.exit(main())
