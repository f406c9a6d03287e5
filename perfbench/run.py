"""Benchmark of nnsig, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for the inputs):

- wide_reuse: ``nnsig test`` on all 10 variables of an n=5000, d=10 CSV
  (m=200, n_p=1000), reusing a model that ``nnsig train`` wrote in set-up.
  Stresses sampled-network evaluation, repeated per variable; bypasses
  training. The ROADMAP's n=20000, m=400 config is scaled down to this
  because one ``nnsig test`` of it takes 116 s.
- fine_null: ``nnsig test`` on 3 variables of a generated n=300, d=3 input
  (m=500, n_p=20000, lambda_shrink=0.1), training in the op. Stresses argmax
  selection; evaluation and fitting are small. With m=1000 the op time
  spread 5-7% from run to run, as the 8 MB Cholesky factor lands in memory
  differently each op; m=500 halves that.
- mc_study: one replication of the acceptance size/power study per op
  (n=2000, d=3, m=200, n_p=500, variable 1) through the library API. The
  only workload where fitting is a large share; tests a single variable.

Each run starts a fresh child process (``child.py``) that sets the workload
up and runs a closed loop, one op at a time, in one process with BLAS pinned
to one thread. Set-up runs ``SETUP_REPEATS`` times in fresh processes and
``setup_s`` is their median. Every op is checked against ``reference.json``.

With ``--trace 0`` the metrics are end to end: ``setup_s``, ``op_s_p50``,
``pvalues_per_s``, ``cpu_s_per_op`` and ``peak_rss_mb``. With ``--trace 1``
each input runs once untraced and once traced, and the metrics are the
per-layer ones of ``tracing.py``, means per traced op, with
``trace.overhead_s`` the median traced-minus-untraced op time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of a
run (environment, every op, sha256 of the numeric report blob, spans) is
written to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracing  # noqa: E402  (standard library only; imports no nnsig code)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("wide_reuse", "fine_null", "mc_study")
SETUP_REPEATS = 5
BLAS_THREADS = 1
DEADLINE_S = 170.0  # the whole run, set-ups included


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, k: int, deadline: float, setup_only: bool):
    """Start child ``k``; return (seconds until it reported ready, its result)."""
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}-{k}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not is_ready(ready):
        raise BenchError(f"child {k} failed (exit code {code})")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"child {k} sent no result")
    return setup_s, json.loads(lines[-1])


def is_ready(line: str) -> bool:
    try:
        return json.loads(line).get("event") == "ready"
    except ValueError:
        return False


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(ops, setups, result) -> dict:
    walls = [op["wall_s"] for op in ops]
    produced = sum(op.get("pvalues", 0) for op in ops if op["error"] is None)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "pvalues_per_s": (produced / sum(walls), "1/s"),
        "cpu_s_per_op": (statistics.median(op["cpu_s"] for op in ops), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def traced(ops, spans):
    """Per-layer metrics; whether the self times add up; the worst excess."""
    untraced = {op["i"]: op["wall_s"] for op in ops if not op["traced"]}
    overheads = {op["i"]: op["wall_s"] - untraced[op["i"]] for op in ops if op["traced"]}
    values = tracing.layer_metrics(spans, statistics.median(overheads.values()))
    metrics = {name: (value, tracing.METRICS[name][0]) for name, value in values.items()}
    # The layers' self times of a traced op must add up to the same input's
    # untraced op time, give or take that op's tracing overhead and the time
    # the benchmark itself spent inside the op.
    excess = []
    for i, m in tracing.per_op_metrics(spans).items():
        glue = m["trace.bench_self_s"]
        layers = sum(m[metric] for metric in tracing.SELF_METRICS.values()) - glue
        excess.append(abs(layers - untraced[i]) - abs(overheads[i]) - glue)
    adds_up = max(excess) <= 1e-3 and min(tracing.self_times(spans).values()) >= -1e-9
    return metrics, adds_up, max(excess)


def main() -> int:
    parser = argparse.ArgumentParser(description="nnsig benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nnsig" / "__init__.py").is_file():
        print(f"no nnsig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_REPEATS - 1):
                setups.append(run_child(args, k, deadline, setup_only=True)[0])
        setup_s, result = run_child(args, SETUP_REPEATS - 1, deadline, setup_only=False)
        setups.append(setup_s)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    env = result["environment"]
    failed = [op for op in ops if op["error"] is not None]
    adds_up = True
    if args.trace:
        metrics, adds_up, gap = traced(ops, result["spans"])
    else:
        metrics = end_to_end(ops, setups, result)

    sha = next((op["sha256"] for op in ops if "sha256" in op), None)
    identical = sum(op.get("sha256_as_reference", False) for op in ops)
    commit = git_commit()

    walls = sorted(op["wall_s"] for op in ops if not op["traced"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} ops in one process, closed loop, one op at a time")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, "
          f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}, nnsig {env['nnsig']}, "
          f"commit {commit or 'unknown'}")
    print(f"numeric report blob sha256 of the first op: {sha}; "
          f"{identical}/{len(ops)} ops byte-identical to the reference")
    for op in failed:
        print(f"op {op['i']} (input {op['key']}) failed: {op['error']}")
    print(f"failed_op_ratio: {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4g}")
    if len(walls) >= 11:
        # the highest percentile with at least ten ops beyond it
        pct = 100 * (len(walls) - 10) // len(walls)
        print(f"op_s_p{pct}: {walls[len(walls) - 11]:.6g} s of {len(walls)} untraced ops")
    for name, (value, unit) in metrics.items():
        stage = f" [stage {tracing.METRICS[name][1]}]" if args.trace else ""
        print(f"{name}: {value:.6g} {unit}{stage}")
    if args.trace:
        print(f"self times add up to the untraced op time within trace.overhead_s: "
              f"{'yes' if adds_up else 'no'} (worst excess {gap:.3g} s)")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "commit": commit,
        "sha256": sha, "setup_s": setups, "ops": ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "stages": {k: tracing.METRICS[k][1] for k in metrics} if args.trace else {},
        "spans": result["spans"],
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not failed and adds_up,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
