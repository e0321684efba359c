"""softgamma benchmark: one workload per call, known answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the program is imported from ./src).  Each
cold pass runs in a fresh worker process, one at a time (closed loop, one
client).  Inputs come in blocks drawn from --seed (specs.BLOCKS per
workload); passes cycle over the blocks until --seconds have passed, every
block at least twice, alternating two PYTHONHASHSEED values, so every output
is compared across repeats and hash seeds.  Figures are medians over the
passes of a block, averaged over the blocks.  Times are scaled by a
calibration run next to each timed span (see worker.py), which takes out
the host's speed drift; the raw figures are in the info line.  With
--trace 1 passes come in pairs, one plain and one traced, and the
per-layer figures of the traced passes are reported instead.

The second-to-last line of stdout describes the run (python version, nproc,
sample counts, error rate); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import specs  # noqa: E402

DEADLINE_S = 165  # a run must end within 180 s
HASH_SEEDS = ("1", "2")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


class BenchError(Exception):
    pass


def run_worker(workload: str, block: int, trace: bool, warm: bool, hash_seed: str, started: float) -> tuple[dict, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = hash_seed
    trace_out = os.path.join(ROOT, ".perfbench", f"trace-{workload}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(block), str(int(trace)), str(int(warm)), trace_out]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(5.0, DEADLINE_S - (t0 - started))
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker for block {block} exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker for block {block} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["program"] != os.path.join(ROOT, "src", "softgamma"):
        raise BenchError(f"measured softgamma from {report['program']}, not from this checkout")
    return report, time.perf_counter() - t0


def schedule(workload: str, blocks: list[int], seconds: float, trace: bool, started: float) -> list[dict]:
    """Cycle over the input blocks until the time is up.  Untraced, every
    block runs at least twice, once under each hash seed; traced, every block
    runs at least one plain-and-traced pair."""
    k = len(blocks)
    minimum = k if trace else 2 * k
    reports = []
    durations = []
    i = 0
    while True:
        elapsed = time.perf_counter() - started
        estimate = statistics.median(durations) if durations else 0.0
        if i >= minimum and (elapsed + estimate / 2 > seconds or elapsed + estimate > DEADLINE_S - 15):
            break
        block = blocks[i % k]
        if trace:
            plain, d1 = run_worker(workload, block, False, False, HASH_SEEDS[0], started)
            traced, d2 = run_worker(workload, block, True, False, HASH_SEEDS[1], started)
            reports.append({"block": block, "hash_seed": HASH_SEEDS[0], **plain})
            reports.append({"block": block, "hash_seed": HASH_SEEDS[1], "pair_wall_s": plain["wall_s"], **traced})
            durations.append(d1 + d2)
        else:
            hash_seed = HASH_SEEDS[(i // k) % 2]
            report, d = run_worker(workload, block, False, True, hash_seed, started)
            reports.append({"block": block, "hash_seed": hash_seed, **report})
            durations.append(d)
        i += 1
    return reports


def check_outputs(workload: str, reports: list[dict]) -> tuple[int, int]:
    """Known answers, and determinism across passes and hash seeds; returns
    (attempted, failed)."""
    expected = {}
    digests: dict[tuple, set] = {}
    executions = []
    for report in reports:
        block = report["block"]
        if workload == "structures" and block not in expected:
            expected[block] = {s["id"]: oracle.expected_structure(s) for s in specs.structure_specs(block)}
        for req in report["requests"] + report.get("warm_requests", []):
            ok = req["summary"] == expected[block][req["id"]] if workload == "structures" else req["ok"]
            executions.append((block, req["id"], ok))
            digests.setdefault((block, req["id"]), set()).add(req["digest"])
    failed = sum(1 for block, rid, ok in executions if not ok or len(digests[(block, rid)]) != 1)
    return len(executions), failed


def by_block(reports: list[dict], key) -> float:
    """Median over the passes of each block, averaged over the blocks."""
    blocks: dict[int, list[float]] = {}
    for report in reports:
        blocks.setdefault(report["block"], []).append(key(report))
    return statistics.fmean(statistics.median(v) for v in blocks.values())


def end_to_end(reports: list[dict]) -> tuple[dict, dict]:
    latencies = [req["seconds"] * 1000 for r in reports for req in r["requests"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": by_block(reports, lambda r: r["wall_s"]),
        "warm_wall_s": by_block(reports, lambda r: r["warm_wall_s"]),
        "throughput_per_s": by_block(reports, lambda r: r["items"] / r["wall_s"]),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": deciles[8],
        "peak_rss_mb": by_block(reports, lambda r: r["peak_rss_mb"]),
    }
    samples = {"passes": len(reports), "latency_requests": len(latencies)}
    return values, samples


def spawn_calibration(reports: list[dict]) -> dict:
    spawns = [r["spawn_calibration_s"] for r in reports if "spawn_calibration_s" in r]
    return {"spawn_calibration_ms": 1000 * statistics.median(spawns)} if spawns else {}


def raw_figures(reports: list[dict]) -> dict:
    """The unscaled counterparts of the time metrics, for reference."""
    out = {
        "setup_s": statistics.median(r["raw_setup_s"] for r in reports),
        "wall_s": by_block(reports, lambda r: r["raw_wall_s"]),
    }
    if all("raw_warm_wall_s" in r for r in reports):
        out["warm_wall_s"] = by_block(reports, lambda r: r["raw_warm_wall_s"])
    return out


def per_layer(reports: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in reports if "layers" in r]
    names = traced[0]["layers"]
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    values["trace.overhead_ratio"] = statistics.median(r["wall_s"] / r["pair_wall_s"] for r in traced)
    samples = {"traced_passes": len(traced), "unpatched_refs": max(r["unpatched_refs"] for r in traced)}
    return values, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "softgamma", "__init__.py")):
        print("error: run from a softgamma checkout; src/softgamma is missing", file=sys.stderr)
        return 2
    started = time.perf_counter()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    # compile the program and the benchmark once, outside every measurement
    subprocess.run(
        [sys.executable, "-c", "import softgamma.cli, specs, oracle, tracer"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), HERE])},
        check=True,
        timeout=60,
    )
    blocks = specs.block_seeds(args.workload, args.seed)
    try:
        reports = schedule(args.workload, blocks, args.seconds, bool(args.trace), started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = check_outputs(args.workload, reports)
    if args.trace:
        values, samples = per_layer(reports)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values, samples = end_to_end(reports)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "input_blocks": blocks,
        "hash_seeds": sorted({r["hash_seed"] for r in reports}),
        "error_rate": failed / attempted,
        "run_s": time.perf_counter() - started,
        "calibration_ms": 1000 * statistics.median(r["calibration_s"] for r in reports),
        **spawn_calibration(reports),
        "raw": raw_figures(reports),
        **samples,
    }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
