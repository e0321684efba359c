"""Run the benchmark on a parent and a change in alternating pairs and write
BENCH_<workload>.json at the repository root.

    python3 tools/bench_pairs.py PARENT_REV --workload structures --seeds 1001 2718 --pairs 10

The change is HEAD.  Each side runs from its own `git archive` checkout of
its revision, so only files git tracks take part.  For every
pair and seed both sides run `perfbench/run.py` once, the parent first on
even pairs and the change first on odd ones.  The first seed is taken as the
one the change was sized on, the others as held out.  Per seed and metric
the summary gives each side's median and quartiles
(`statistics.quantiles(values, n=4)`; one pair's value stands for all
three), the parent's interquartile range, and how many pairs the change won
(ties win for neither).  A gain is shown when, over at least ten pairs, the
change wins at least nine tenths of them and the medians differ by more
than the parent's interquartile range.  Each metric is also held to
its `bound` in BENCHMARK.json, a fraction of the parent's median: the
change's median is within the bound or worse than it, and the metric is
unresolved when the parent's interquartile range is wider than the bound,
unless every change run is better than every parent run.  A run that
exits non-zero, or exits 0 without its two JSON lines at the end of its
stdout (the last a result object), is recorded with its exit code and the last lines of its stderr
(the second kind with its last stdout line too), left out of the summary,
and makes the script exit 1 once BENCH_<workload>.json is written.  Needs
git, tar and the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def checkout(rev: str, into: Path) -> str:
    """Extract the files git tracks at rev into `into`; return the full hash."""
    full = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "archive", "--format=tar", full], cwd=ROOT, check=True, capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=data, check=True)
    return full


def command(workload: str, seconds: float) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", "SEED", "--seconds", f"{seconds:g}", "--trace", "0"]


# the stderr lines kept of a run that exits non-zero
STDERR_LINES = 20


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: {"info", "result"} from its last two
    stdout lines; {"exit_code", "stderr"} when it exits non-zero, and with
    "stdout", its last stdout line, when it exits 0 without those lines."""
    argv = [sys.executable, *(str(seed) if a == "SEED" else a for a in command(workload, seconds))]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    failed = {"exit_code": done.returncode, "stderr": done.stderr.splitlines()[-STDERR_LINES:]}
    if done.returncode != 0:
        return failed
    lines = done.stdout.strip().splitlines()
    try:
        info, result = map(json.loads, lines[-2:])
    except ValueError:  # fewer than two lines, or one is not JSON (JSONDecodeError is a ValueError)
        result = None
    if not isinstance(result, dict) or not {"correct", "failed", "metrics"} <= result.keys():
        return {**failed, "stdout": lines[-1] if lines else ""}
    return {"info": info, "result": result}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per seed and metric: both sides' median and quartiles, the parent's
    interquartile range and the pairs the change won; better maps a metric
    to "lower" or "higher"."""
    values: dict = {}
    for run in runs:
        if "result" not in run:  # a failed run
            continue
        for name, metric in run["result"]["metrics"].items():
            entry = values.setdefault(str(run["seed"]), {}).setdefault(name, {"unit": metric["unit"]})
            entry.setdefault(run["side"], {})[run["pair"]] = metric["value"]
    summary: dict = {}
    for seed, metrics in values.items():
        for name, entry in metrics.items():
            pairs = sorted(set(entry.get("parent", {})) & set(entry.get("change", {})))
            if not pairs:  # every run of one side failed
                continue
            parent = [entry["parent"][p] for p in pairs]
            change = [entry["change"][p] for p in pairs]
            sign = 1 if better[name] == "lower" else -1
            row = {"better": better[name], "pairs": len(pairs), "unit": entry["unit"]}
            row["change_wins"] = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
            row["change_better_every_run"] = all(sign * (p - c) > 0 for p in parent for c in change)
            for side, side_values in (("parent", parent), ("change", change)):
                # quantiles needs two values; one pair's value is its own quartiles
                q1, median, q3 = statistics.quantiles(side_values, n=4) if len(pairs) > 1 else side_values * 3
                row.update({f"{side}_q1": round(q1, 6), f"{side}_median": round(median, 6), f"{side}_q3": round(q3, 6)})
            row["parent_iqr"] = round(row["parent_q3"] - row["parent_q1"], 6)
            summary.setdefault(seed, {})[name] = dict(sorted(row.items()))
    return summary


def gain_shown(row: dict) -> bool:
    """Whether, over at least ten pairs, the change wins at least nine
    tenths of them and the medians differ, in its favour, by more than the
    parent's IQR."""
    sign = 1 if row["better"] == "lower" else -1
    moved = sign * (row["parent_median"] - row["change_median"])
    return row["pairs"] >= 10 and 10 * row["change_wins"] >= 9 * row["pairs"] and moved > row["parent_iqr"]


def against_bound(row: dict, bound: float) -> str:
    """"unresolved" when the parent's IQR is wider than bound, a fraction of
    the parent's median, and some change run is not better than every parent
    run; else whether the change's median is worse than the parent's by more
    than bound."""
    allowed = bound * abs(row["parent_median"])
    if row["parent_iqr"] > allowed and not row["change_better_every_run"]:
        return "unresolved"
    sign = 1 if row["better"] == "lower" else -1
    worse = sign * (row["change_median"] - row["parent_median"])
    return "within bound" if worse <= allowed else "worse than bound"


def host() -> str:
    bytecode = ", PYTHONDONTWRITEBYTECODE=1" if os.environ.get("PYTHONDONTWRITEBYTECODE") else ""
    return f"{os.cpu_count()}-core {platform.machine()}, {platform.python_implementation()} {platform.python_version()}{bytecode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="the first is the seed the change was sized on")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0, help="run.py's --seconds, the same for both sides")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    subject = subprocess.run(["git", "log", "-1", "--format=%s", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        revs = {side: checkout(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, "HEAD"))}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for seed in args.seeds:
                for side in order:
                    run = {"first": order[0], "pair": pair, "seed": seed, "side": side}
                    run.update(run_once(trees[side], args.workload, seed, args.seconds))
                    runs.append(run)
                    if "result" in run:
                        result = run["result"]
                        print(f"pair {pair} seed {seed} {side}: wall_s {result['metrics']['wall_s']['value']:.4f}"
                              f" correct {result['correct']} failed {result['failed']}", file=sys.stderr)
                    else:
                        print(f"pair {pair} seed {seed} {side}: exit code {run['exit_code']}, no result", file=sys.stderr)

    summary = summarize(runs, better)
    held_out = "not used while the change was written"
    doc = {
        "change": subject,
        "command": "python3 " + " ".join(command(args.workload, args.seconds)),
        "host": host(),
        "how": "each side ran from its own git archive checkout of its revision; pairs alternate which side runs first "
        "(parent first on even pairs); result is the last stdout line of run.py, info the line before it; "
        "quartiles are statistics.quantiles(values, n=4); a pair is won by the better value, ties by neither",
        "parent": revs["parent"],
        "runs": runs,
        "seeds": {str(s): "the seed the change was sized on" if i == 0 else held_out for i, s in enumerate(args.seeds)},
        "summary": summary,
        "workload": args.workload,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for seed, metrics in summary.items():
        for name, row in metrics.items():
            status = against_bound(row, bounds[name]) + (", gain shown" if gain_shown(row) else "")
            print(f"{seed} {name}: parent {row['parent_median']:g} change {row['change_median']:g} "
                  f"wins {row['change_wins']}/{row['pairs']} parent IQR {row['parent_iqr']:g} "
                  f"bound {bounds[name]:g}: {status}")
    bad = [r for r in runs if "result" not in r or not r["result"]["correct"] or r["result"]["failed"]]
    if bad:
        print(f"{len(bad)} runs gave no result, were not correct or had failed requests", file=sys.stderr)
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
