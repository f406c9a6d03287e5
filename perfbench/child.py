"""One benchmark process: set up a workload, then run its ops in a closed loop.

``run.py`` starts this file with BLAS threads pinned and ``nnsig`` importable
from the checkout's ``src``. It runs one op at a time until the next op would
end after ``--seconds``, and at least one op (one untraced and one traced op
with ``--trace 1``). Messages to ``run.py`` are JSON lines on the original
standard output; what nnsig prints goes to /dev/null.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy

import nnsig
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def send(channel, message: dict) -> None:
    channel.write(json.dumps(message) + "\n")
    channel.flush()


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "nnsig": nnsig.__version__,
    }


def run_op(wl, reference, i, tracer):
    """Time one op, then check its outcome outside the timed region."""
    key = wl.key(i)
    record = {"i": i, "key": key, "traced": tracer is not None, "error": None}
    root = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            result = wl.op(key)
        else:
            with tracer.op(i) as root:
                result = wl.op(key)
    except Exception:  # the loop must go on; the op counts as failed
        traceback.print_exc()
        result, record["error"] = None, "op raised"
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = time.process_time() - c0
    if record["error"] is None:
        try:
            outcome = wl.outcome(key, result)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            record["error"] = f"unreadable outcome: {exc!r}"
            return record
        ref = reference.get(key)
        record["error"] = workloads.check(outcome, ref)
        record["pvalues"] = len(outcome["p_value"])
        record["sha256"] = outcome["sha256"]
        record["sha256_as_reference"] = ref is not None and ref["sha256"] == outcome["sha256"]
        if root is not None:
            root["report_bytes"] = outcome["report_bytes"]
    return record


def run_loop(wl, reference, seconds, tracer):
    """Closed loop; with a tracer each input runs untraced, then traced."""
    ops = []
    start = time.perf_counter()
    i = 0
    while True:
        t_iter = time.perf_counter()
        ops.append(run_op(wl, reference, i, None))
        if tracer is not None:
            ops.append(run_op(wl, reference, i, tracer))
        i += 1
        now = time.perf_counter()
        if now - start + (now - t_iter) > seconds:
            return ops


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = open(os.devnull, "w")

    if not Path(nnsig.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"nnsig imported from {nnsig.__file__}, not from the checkout", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if tracer is None:
        wl.setup()
    else:
        with tracer.op("setup"):
            wl.setup()
    send(channel, {"event": "ready"})
    if args.setup_only:
        return 0

    ops = run_loop(wl, workloads.load_reference().get(args.workload, {}), args.seconds, tracer)
    send(channel, {
        "event": "result",
        "ops": ops,
        "spans": tracer.spans if tracer else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
