"""Write reference.json: the outcome of every input the benchmark can run.

Run from the root of a checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py [WORKLOAD ...]

It runs the benchmark's own workload code, untimed, and replaces the entries
of the named workloads (all by default). Regenerate only for a change that is
meant to alter nnsig's numbers, and say so with the change.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

sys.dont_write_bytecode = True

import workloads  # noqa: E402

OUT = workloads.REFERENCE_PATH.parent / "out"


def outcomes(name: str) -> dict:
    workdir = OUT / f"reference-{name}-{os.getpid()}"
    ref = {}
    try:
        for key in workloads.keys(name):
            shutil.rmtree(workdir, ignore_errors=True)
            # CLI workloads take the variant from the seed; mc_study ignores it
            wl = workloads.WORKLOADS[name](int(key), workdir)
            wl.setup()
            outcome = wl.outcome(key, wl.op(key))
            ref[key] = {k: outcome[k] for k in ("observed_raw", "p_value", "sha256")}
            print(f"{name} {key}: p={outcome['p_value']}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ref


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    reference = workloads.load_reference()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for name in names:
            reference[name] = outcomes(name)
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
