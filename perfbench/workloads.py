"""The benchmark's workloads: inputs made from the seed, one op, its outcome.

An op is one ``nnsig test`` call (wide_reuse, fine_null) or one replication
of the acceptance size/power study (mc_study). Each op's outcome is checked
against ``reference.json``, which ``make_reference.py`` writes from the same
code.

The seed picks one of a fixed set of input variants, so that every input the
benchmark can run has stored reference values:

- wide_reuse and fine_null: variant ``seed % VARIANTS``; every op of a run
  repeats the same call on the same inputs.
- mc_study: the seed picks a start in a pool of ``REPLICATIONS`` acceptance
  replications, and op i runs replication ``(start + i) % REPLICATIONS``.
  Even replications have an inactive tested variable, odd ones an active one.
  The pool is small enough that a run cycles through it about twice, so runs
  with different seeds time the same mix of replications.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

from nnsig import (
    ArchSpec,
    NullConfig,
    TargetSpec,
    TrainConfig,
    fit_least_squares,
    generate,
    significance_test,
)
from nnsig.cli import main as cli_main

REFERENCE_PATH = Path(__file__).with_name("reference.json")

VARIANTS = 10
REPLICATIONS = 40

# Observed statistics may move by rounding only; p-values by one null count.
OBSERVED_REL_TOL = 1e-9


def numeric_sha256(results, fitted) -> str:
    """sha256 of the numeric report blob, as the CLI determinism criterion forms it."""
    blob = json.dumps({"results": results, "fitted": fitted}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check(outcome, ref) -> str | None:
    """None if the outcome matches the reference, else what differs."""
    if ref is None:
        return "no reference value"
    if len(outcome["observed_raw"]) != len(ref["observed_raw"]):
        return "number of tested variables differs"
    for got, want in zip(outcome["observed_raw"], ref["observed_raw"]):
        if not math.isclose(got, want, rel_tol=OBSERVED_REL_TOL):
            return f"observed statistic {got!r} != reference {want!r}"
    resolution = 1.0 / (outcome["n_p"] + 1)
    for got, want in zip(outcome["p_value"], ref["p_value"]):
        if abs(got - want) > resolution * (1.0 + 1e-9):
            return f"p-value {got!r} != reference {want!r} beyond one null count"
    return None


class CliWorkload:
    """An op is ``nnsig test --config <workdir>/test.json``."""

    name = ""

    def __init__(self, seed: int, workdir):
        self.variant = seed % VARIANTS
        self.workdir = Path(workdir)
        self.config_path = self.workdir / "test.json"
        self.report_path = self.workdir / "report.json"

    def key(self, i: int) -> str:
        return str(self.variant)

    def test_config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.test_config()), encoding="utf-8")

    def op(self, key: str):
        code = cli_main(["test", "--config", str(self.config_path)])
        if code != 0:
            raise RuntimeError(f"nnsig test exited with code {code}")

    def outcome(self, key: str, _result) -> dict:
        text = self.report_path.read_text(encoding="utf-8")
        report = json.loads(text)
        results = report["results"]
        return {
            "observed_raw": [r["observed_raw"] for r in results],
            "p_value": [r["p_value"] for r in results],
            "n_p": self.test_config()["test"]["n_p"],
            "sha256": numeric_sha256(results, report["fitted"]),
            "report_bytes": len(text.encode("utf-8")),
        }


class WideReuse(CliWorkload):
    """n=5000, d=10 CSV; the model is trained in set-up and reused by each op."""

    name = "wide_reuse"
    BETA = [1.0] * 5 + [0.0] * 5

    def generator(self) -> dict:
        return {"kind": "linear", "beta": self.BETA, "noise_sigma": 0.1,
                "n": 5000, "d": 10}

    def test_config(self) -> dict:
        return {
            "seed": 1000 + self.variant,
            "output": {"dir": str(self.workdir)},
            "data": {"path": str(self.workdir / "dataset.csv"), "target_column": "y"},
            # a fixed epoch count (below the plateau check's reach) makes
            # set-up cost the same for every variant
            "training": {"epochs": 20},
            "test": {"m": 200, "n_p": 1000},
        }

    def setup(self) -> None:
        super().setup()
        gen_path = self.workdir / "generate.json"
        gen = {"seed": 1000 + self.variant, "output": {"dir": str(self.workdir)},
               "data": {"generator": self.generator()}}
        gen_path.write_text(json.dumps(gen), encoding="utf-8")
        for command, path in (("generate", gen_path), ("train", self.config_path)):
            code = cli_main([command, "--config", str(path)])
            if code != 0:
                raise RuntimeError(f"nnsig {command} exited with code {code}")


class FineNull(CliWorkload):
    """n=300, d=3 generated in the op; m=500 networks, n_p=20000 draws."""

    name = "fine_null"

    def test_config(self) -> dict:
        return {
            "seed": 2000 + self.variant,
            "output": {"dir": str(self.workdir)},
            "data": {"generator": {"kind": "linear", "beta": [1.0, 0.3, 0.0],
                                   "noise_sigma": 0.1, "n": 300, "d": 3}},
            "test": {"m": 500, "n_p": 20000, "lambda_shrink": 0.1},
        }


class McStudy:
    """One acceptance replication (criteria 3 and 4) through the library API."""

    name = "mc_study"
    N_P = 500

    def __init__(self, seed: int, workdir):
        self.start = random.Random(seed).randrange(REPLICATIONS)

    def key(self, i: int) -> str:
        return str((self.start + i) % REPLICATIONS)

    def setup(self) -> None:
        pass

    def op(self, key: str):
        rep = int(key)
        base = TargetSpec(kind="linear", beta=(1.0, 1.0, 1.0))
        if rep % 2:
            spec = TargetSpec(kind="linear", beta=(1.0, 1.0, 1.0), noise_sigma=0.1)
        else:
            spec = TargetSpec(kind="null_variable", base=base, dead_index=1,
                              noise_sigma=0.1)
        ds = generate(spec, 2000, 3, 10_000 + rep)
        fitted = fit_least_squares(ds, ArchSpec(), TrainConfig(seed=20_000 + rep))
        res = significance_test(fitted, ds, 1, NullConfig(m=200, n_p=self.N_P, seed=30_000 + rep))
        return fitted, res

    def outcome(self, key: str, result) -> dict:
        fitted, res = result
        results = [{
            "variable_index": res.variable_index,
            "observed_raw": res.observed.raw,
            "observed_normalized": res.observed.normalized,
            "p_value": res.p_value,
            "null_samples": res.null_samples,
        }]
        summary = {
            "layer_dims": list(fitted.net.layer_dims),
            "final_risk": fitted.final_empirical_risk,
            "epochs_run": len(fitted.train_loss_history),
        }
        return {
            "observed_raw": [res.observed.raw],
            "p_value": [res.p_value],
            "n_p": self.N_P,
            "sha256": numeric_sha256(results, summary),
            "report_bytes": 0,
        }


WORKLOADS = {cls.name: cls for cls in (WideReuse, FineNull, McStudy)}


def keys(name: str) -> list:
    """Every reference key a workload can run."""
    count = REPLICATIONS if name == "mc_study" else VARIANTS
    return [str(k) for k in range(count)]


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
