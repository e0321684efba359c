"""Run one softgamma command in this process with the tracer installed.

Usage (cwd is the command's input directory, src on PYTHONPATH):
    python3 cli_probe.py OUT_JSON REQUEST_ID ARGS...

Exits with the command's exit code and writes the import time, per-layer
totals and spans of the command to OUT_JSON.
"""

import sys
import time

T_START = time.perf_counter()

import softgamma.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START


def main() -> int:
    t0 = time.perf_counter()
    import json

    from tracer import Tracer

    out_path, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    install_s = time.perf_counter() - t0
    with tracer.request_span(request_id):
        code = softgamma.cli.main(argv)
    tracer.enabled = False
    t1 = time.perf_counter()
    doc = {
        "import_s": IMPORT_S,
        "totals": tracer.layer_totals(),
        "counters": dict(tracer.counters),
        "serialized_bytes": tracer.serialized_bytes,
        "spans": tracer.spans,
    }
    # the probe's own work, so spawn time stays comparable to a plain run
    doc["probe_overhead_s"] = install_s + time.perf_counter() - t1
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
