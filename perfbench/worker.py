"""One cold pass of one workload in a fresh process, optionally traced.

Usage (from the repository root, with src on PYTHONPATH):
    python3 perfbench/worker.py WORKLOAD INPUT_SEED TRACE WARM TRACE_OUT

Prints one JSON line: set-up time, cold wall time, the optional warm pass,
peak memory, and per request its time, output digest and known-answer
verdict.  With TRACE=1 it also reports per-layer totals and writes the spans
to TRACE_OUT.

Every timed span (set-up, each request) is bracketed by a short calibration,
and its time is reported twice: as measured ("raw") and scaled to a host on
which the calibration takes its nominal time.  The host's speed drifts by
20-30 % over tens of seconds while staying nearly constant over a few tens of
milliseconds, so the scaled times are the steady ones.  In-process work is
calibrated by a pure-Python loop; a CLI process by a bare interpreter start,
which tracks process start-up far better than the loop does.
"""

import sys
import time

# Median times of the two calibrations on a 2-core x86_64 Xeon VM
# (CPython 3.11) in its faster phases; scaled times read as seconds on such
# a host.
NOMINAL_LOOP_S = 0.0075
NOMINAL_SPAWN_S = 0.050
CALIBRATION_ROUNDS = 30_000


def calibrate_loop() -> float:
    """Time a fixed pure-Python loop of dict, tuple and integer work, the
    same kinds of operation softgamma's tables and bitmasks spend time in.
    It runs no softgamma code, so a change to the program cannot move it."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        key = (i & 255, i % 7)
        acc = (acc ^ table.get(key, i)) * 3 & 0xFFFF
        table[key] = acc
    return time.perf_counter() - t0


class Clock:
    """Times calls and scales each by the calibrations run just before and
    just after it."""

    def __init__(self, calibrate, nominal_s: float):
        self.calibrate = calibrate
        self.nominal_s = nominal_s
        self.last = calibrate()
        self.calibrations = [self.last]

    def time(self, fn):
        """(result, raw seconds, scaled seconds) of fn()."""
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        calibration = self.calibrate()
        scaled = raw * self.nominal_s / ((self.last + calibration) / 2)
        self.last = calibration
        self.calibrations.append(calibration)
        return result, raw, scaled


CLOCK = Clock(calibrate_loop, NOMINAL_LOOP_S)

import os  # noqa: E402

WORKLOAD, INPUT_SEED, TRACE, WARM, TRACE_OUT = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1", sys.argv[5]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sg = specs = INPUTS = CLI_INPUTS = INPUT_DIR = None


def setup() -> None:
    """Import the program and build this workload's fixed inputs."""
    global sg, specs, INPUTS, CLI_INPUTS, INPUT_DIR
    import softgamma as sg

    import specs

    if WORKLOAD == "suite-enforced":
        INPUTS = [(law, sg.InstanceSpec(seed=INPUT_SEED)) for law in sg.ALL_THEOREMS]
    elif WORKLOAD == "necessity-dropped":
        INPUTS = [
            (law, sg.InstanceSpec(generator=gen, size=size, gamma=gamma, seed=INPUT_SEED + j * specs.NECESSITY_TRIALS))
            for law, gen, size, gamma in specs.EXPERIMENTS
            for j in range(specs.NECESSITY_REQUESTS)
        ]
    elif WORKLOAD == "structures":
        INPUTS = specs.structure_specs(INPUT_SEED)
    elif WORKLOAD == "cli":
        import shutil
        import tempfile

        CLI_INPUTS = specs.cli_inputs(INPUT_SEED)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        INPUT_DIR = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(ROOT, ".perfbench"))
        for name in ("z8.structure.json", "z8.soft.json"):
            shutil.copyfile(os.path.join(ROOT, "tests", "golden", name), os.path.join(INPUT_DIR, name))

        def write(name, doc):
            with open(os.path.join(INPUT_DIR, name), "w", encoding="utf-8") as fh:
                fh.write(sg.files.dumps(doc))

        zn, mm = CLI_INPUTS["zn"], CLI_INPUTS["minmax"]
        write("zn.structure.json", sg.files.structure_to_doc(sg.make_zn_gamma(zn["n"], zn["gamma"], strict=True), name="zn"))
        write("minmax.structure.json", sg.files.structure_to_doc(sg.make_minmax_gamma(mm["n"], mm["gamma"]), name="minmax"))
        universe = specs.zn_labels(zn["n"])
        for name, key in (("a.soft.json", "rint_a"), ("b.soft.json", "rint_b"), ("check.soft.json", "check")):
            values = CLI_INPUTS[key]
            write(name, sg.files.soft_set_to_doc(sg.SoftSet.build(universe, tuple(values), values)))
        INPUTS = specs.cli_commands(CLI_INPUTS)
    else:
        raise SystemExit(f"unknown workload {WORKLOAD!r}")


_, SETUP_RAW_S, SETUP_S = CLOCK.time(setup)

# -- everything below is outside set-up ----------------------------------------

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import oracle  # noqa: E402

WARM_MIN_S = 0.3
SPAWN_CALIBRATIONS = []  # the calibrations of each cli_pass clock
TRACER = None
if TRACE:
    from tracer import Tracer

    TRACER = Tracer()
    TRACER.install()


def request(rid: str):
    return TRACER.request_span(rid) if TRACER is not None else contextlib.nullcontext()


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def verdict_doc(v) -> dict:
    """The fields of files.verdict_to_doc, built here so that the digest does
    not go through the code under test."""
    return {
        "theorem": v.theorem,
        "trials": v.trials,
        "passes": v.passes,
        "vacuous": v.vacuous,
        "failures": v.failures,
        "counterexample": v.counterexample,
    }


# -- passes: each returns [(request id, raw seconds, scaled seconds, output)] ---


def timed_request(rid, fn):
    """Run one request under its span; an exception is its output, so a
    raising request is a failed request, not a crashed run."""

    def call():
        try:
            with request(rid):
                return fn()
        except Exception as exc:
            return exc

    result, raw, scaled = CLOCK.time(call)
    return rid, raw, scaled, result


def harness_pass():
    drop = WORKLOAD == "necessity-dropped"
    trials = specs.NECESSITY_TRIALS if drop else specs.SUITE_TRIALS
    return [
        timed_request(f"{law}@{template.seed}", lambda: sg.fuzz_theorem(law, trials, template, drop_hypothesis=drop))
        for law, template in INPUTS
    ]


def build_structure(spec):
    family = spec["family"]
    if family == "zn":
        return sg.make_zn_gamma(spec["n"], spec["gamma"], strict=True)
    if family == "minmax":
        return sg.make_minmax_gamma(spec["n"], spec["gamma"])
    if family == "matrix":
        return sg.make_matrix_gamma(*spec["shape"])
    return sg.product_gamma(sg.make_zn_gamma(spec["n"], spec["gamma"], strict=True), spec["k"])


def structure_pipeline(spec):
    gs = build_structure(spec)
    weak = sg.check_gamma_semiring(gs, "weak").passed
    strict = sg.check_gamma_semiring(gs, "strict").passed if gs.gamma_add is not None else None
    subs = sg.enumerate_sub_gamma_semirings(gs, max_carrier=specs.MAX_CARRIER)
    soft_set = sg.SoftSet.build(gs.elements, tuple(spec["soft"]), spec["soft"])
    soft = bool(sg.is_soft_gamma_semiring(gs, soft_set))
    return gs, weak, strict, subs, soft


def structures_pass():
    return [timed_request(spec["id"], lambda: structure_pipeline(spec)) for spec in INPUTS]


def calibrate_spawn() -> float:
    """Time a bare interpreter start in the CLI's directory and environment;
    it imports no softgamma code."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=INPUT_DIR, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def cli_pass():
    clock = Clock(calibrate_spawn, NOMINAL_SPAWN_S)
    SPAWN_CALIBRATIONS.append(clock.calibrations)
    out = []
    for rid, argv in INPUTS:
        if TRACER is not None:
            probe_out = os.path.join(INPUT_DIR, f"probe-{rid}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_probe.py"), probe_out, rid, *argv]
        else:
            cmd = [sys.executable, "-m", "softgamma", *argv]
        # the environment, src on PYTHONPATH included, is inherited from run.py
        proc, raw, scaled = clock.time(lambda: subprocess.run(cmd, cwd=INPUT_DIR, capture_output=True, timeout=120))
        result = {"code": proc.returncode, "stdout": proc.stdout.decode("utf-8", "replace")}
        if TRACER is not None:
            with open(probe_out, encoding="utf-8") as fh:
                result["probe"] = json.load(fh)
        out.append((rid, raw, scaled, result))
    return out


def cli_warm_pass():
    """The same commands through cli.main inside this process, which has
    already imported softgamma.cli."""
    out = []
    cwd = os.getcwd()
    os.chdir(INPUT_DIR)
    try:
        for rid, argv in INPUTS:
            buf = io.StringIO()

            def call():
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    return sg.cli.main(argv)

            code, raw, scaled = CLOCK.time(call)
            out.append((rid, raw, scaled, {"code": code, "stdout": buf.getvalue()}))
    finally:
        os.chdir(cwd)
    return out


PASSES = {
    "suite-enforced": (harness_pass, harness_pass),
    "necessity-dropped": (harness_pass, harness_pass),
    "structures": (structures_pass, structures_pass),
    "cli": (cli_pass, cli_warm_pass),
}

# -- known answers and output digests -----------------------------------------


def judge_harness(rid, result):
    """(digest, ok, summary) for one fuzz_theorem request."""
    if isinstance(result, Exception):
        return None, False, {"error": repr(result)}
    doc = verdict_doc(result)
    counts_ok = result.passes + result.vacuous + result.failures == result.trials
    if WORKLOAD == "suite-enforced":
        ok = counts_ok and result.trials == specs.SUITE_TRIALS and result.failures == 0 and result.counterexample is None
    else:
        ce = result.counterexample
        ok = counts_ok and result.trials == specs.NECESSITY_TRIALS and result.failures > 0 and ce is not None
        ok = ok and parses_back(ce) and oracle.counterexample_holds(ce)
    summary = {"passes": result.passes, "vacuous": result.vacuous, "failures": result.failures, "kept": int(result.counterexample is not None)}
    return digest(doc), ok, summary


def parses_back(ce) -> bool:
    try:
        sg.files.structure_from_doc(ce["structure"])
        for doc in [*ce["members"], *(ce[k] for k in ("result", "outer", "outer_result") if k in ce)]:
            sg.files.soft_set_from_doc(doc)
    except sg.InputError:
        return False
    return True


def judge_structure(rid, result):
    if isinstance(result, Exception):
        return None, False, {"error": repr(result)}
    _, weak, strict, subs, soft = result
    summary = {"weak": weak, "strict": strict, "count": len(subs), "digest": oracle.family_digest(subs), "soft": soft}
    return digest(summary), None, summary  # checked against the oracle by run.py


def judge_cli(rid, result, expected):
    code, stdout = result["code"], result["stdout"]
    golden = os.path.join(ROOT, "tests", "golden")
    if rid == "example-z8":
        ok = code == 0 and stdout == read(os.path.join(golden, "z8.example.json"))
    elif rid == "example-z8-dir":
        out_dir = os.path.join(INPUT_DIR, "example-out")
        ok = code == 0 and all(
            read(os.path.join(out_dir, name)) == read(os.path.join(golden, name))
            for name in ("z8.structure.json", "z8.soft.json")
        )
    elif rid.startswith("theorem-"):
        ok = code == 0
        if ok:
            verdict = json.loads(stdout)
            ok = verdict["failures"] == 0 and verdict["trials"] == specs.CLI_THEOREM_TRIALS
    else:
        want = expected[rid]
        want_code, fact = want if isinstance(want, tuple) else (want, None)
        ok = code == want_code
        if ok and rid.startswith("validate"):
            ok = json.loads(stdout)["passed"] == (code == 0)
        elif ok and rid.startswith("subsemirings"):
            ok = json.loads(stdout)["count"] == fact
        elif ok and rid == "op-rint":
            ok = json.loads(stdout) == fact
    return digest([code, stdout]), ok, {"code": code}


def read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def judge_all(results):
    out = []
    if WORKLOAD == "cli":
        expected = oracle.expected_cli(CLI_INPUTS, json.loads(read(os.path.join(INPUT_DIR, "z8.soft.json"))))
    for rid, raw, scaled, result in results:
        try:
            if WORKLOAD == "cli":
                d, ok, summary = judge_cli(rid, result, expected)
            elif WORKLOAD == "structures":
                d, ok, summary = judge_structure(rid, result)
            else:
                d, ok, summary = judge_harness(rid, result)
        except Exception as exc:  # a malformed output is a wrong answer, not a crashed run
            d, ok, summary = None, False, {"error": repr(exc)}
        out.append({"id": rid, "seconds": scaled, "raw_seconds": raw, "digest": d, "ok": ok, "summary": summary})
    return out


# -- per-layer figures ---------------------------------------------------------


def harness_cache_entries() -> int:
    harness = sg.harness
    total = 0
    for name in ("_structures", "_homs", "_products"):
        cache = getattr(harness, name, None)
        if isinstance(cache, dict):
            total += len(cache)
    for value in vars(harness).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            total += info().currsize
    return total


def closed_memo_entries() -> int:
    total = 0
    for obj in gc.get_objects():
        if isinstance(obj, sg.algebra.GammaSemiring):
            memo = obj.__dict__.get("_closed_memo")
            if memo is not None:
                total += len(memo)
    return total


def layer_metrics(results, judged) -> dict:
    totals = TRACER.layer_totals()
    counters = dict(TRACER.counters)
    calls, self_s, total_s = totals["calls"], totals["self_s"], totals["total_s"]
    import_s = spawn_s = 0.0
    serialized_bytes = TRACER.serialized_bytes
    if WORKLOAD == "cli":
        # the program ran in probe processes: merge their spans
        for rid, seconds, _, result in results:
            probe = result["probe"]
            for key, table in (("calls", calls), ("self_s", self_s), ("total_s", total_s)):
                for name, value in probe["totals"][key].items():
                    table[name] = table.get(name, 0) + value
            for name, value in probe["counters"].items():
                counters[name] = counters.get(name, 0) + value
            serialized_bytes += probe["serialized_bytes"]
            import_s += probe["import_s"]
            # process wall minus cli.main, less what the probe itself adds
            spawn_s += seconds - probe["totals"]["total_s"].get("cli.main", 0.0) - probe["probe_overhead_s"]
    harness_like = WORKLOAD in ("suite-enforced", "necessity-dropped")
    outcome = {"pass": 0, "vacuous": 0, "fail": 0}
    kept = 0
    if harness_like:
        for j in judged:
            s = j["summary"]
            outcome["pass"] += s.get("passes", 0)
            outcome["vacuous"] += s.get("vacuous", 0)
            outcome["fail"] += s.get("failures", 0)
            kept += s.get("kept", 0)
    dumps = calls.get("harness.dump", 0)
    scanned = counters.get("algebra.sub_masks.masks_scanned", 0)
    found = counters.get("algebra.sub_masks.closed_found", 0)
    m = {}
    for layer in (
        "generators.build",
        "generators.product_gamma",
        "algebra.sub_masks",
        "algebra.check_gamma_semiring",
        "algebra.gamma_hom",
        "soft_sets.op",
        "soft_gamma.predicate",
        "harness.generate",
        "harness.dump",
        "files.serialize",
        "files.parse",
    ):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["generators.product_gamma.cells"] = counters.get("generators.product_gamma.cells", 0)
    m["algebra.sub_masks.masks_scanned"] = scanned
    m["algebra.sub_masks.closed_found"] = found
    m["algebra.sub_masks.closed_ratio"] = found / scanned if scanned else 0.0
    m["algebra.closed_memo.entries"] = closed_memo_entries()
    m["soft_sets.op.domain_errors"] = counters.get("soft_sets.op.domain_errors", 0)
    m["soft_gamma.predicate.false"] = counters.get("soft_gamma.predicate.false", 0)
    # the harness's own code: fuzz_theorem minus everything it calls into
    m["harness.check.self_s"] = self_s.get("request", 0.0) if harness_like else 0.0
    m["harness.outcome.pass"] = outcome["pass"]
    m["harness.outcome.vacuous"] = outcome["vacuous"]
    m["harness.outcome.fail"] = outcome["fail"]
    m["harness.cache.entries"] = harness_cache_entries()
    m["harness.dump.total_s"] = total_s.get("harness.dump", 0.0)
    m["harness.dump.kept_ratio"] = kept / dumps if dumps else 0.0
    m["files.serialize.bytes"] = serialized_bytes
    m["cli.spawn_s"] = spawn_s
    m["cli.import_s"] = import_s
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return m


def main():
    try:
        run()
    finally:
        if INPUT_DIR is not None:
            shutil.rmtree(INPUT_DIR, ignore_errors=True)


def run():
    cold, warm = PASSES[WORKLOAD]
    results = cold()
    usage = resource.RUSAGE_CHILDREN if WORKLOAD == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    if TRACER is not None:
        TRACER.enabled = False
    judged = judge_all(results)
    report = {
        "setup_s": SETUP_S,
        "raw_setup_s": SETUP_RAW_S,
        "wall_s": sum(scaled for _, _, scaled, _ in results),
        "raw_wall_s": sum(raw for _, raw, _, _ in results),
        "peak_rss_mb": peak_rss_mb,
        "items": items(results),
        "requests": judged,
        "program": os.path.dirname(sg.__file__),
    }
    if TRACER is not None:
        report["layers"] = layer_metrics(results, judged)
        report["unpatched_refs"] = TRACER.unpatched
        TRACER.write(TRACE_OUT)
    del results
    if WARM:
        if WORKLOAD == "cli":
            import softgamma.cli  # noqa: F401  (warm means imported)
        # short warm passes repeat until WARM_MIN_S and report their median
        times, raw_times, warm_judged = [], [], []
        while not times or (sum(raw_times) < WARM_MIN_S and len(times) < 50):
            warm_results = warm()
            times.append(sum(scaled for _, _, scaled, _ in warm_results))
            raw_times.append(sum(raw for _, raw, _, _ in warm_results))
            warm_judged += judge_all(warm_results)
        report["warm_wall_s"] = statistics.median(times)
        report["raw_warm_wall_s"] = statistics.median(raw_times)
        report["warm_requests"] = warm_judged
    report["calibration_s"] = statistics.median(CLOCK.calibrations)
    if SPAWN_CALIBRATIONS:
        report["spawn_calibration_s"] = statistics.median(c for cs in SPAWN_CALIBRATIONS for c in cs)
    print(json.dumps(report))


def items(results) -> int:
    if WORKLOAD == "suite-enforced":
        return len(results) * specs.SUITE_TRIALS
    if WORKLOAD == "necessity-dropped":
        return len(results) * specs.NECESSITY_TRIALS
    return len(results)


if __name__ == "__main__":
    main()
