"""Command-line entry point: generate, train, test, diagnose.

All commands take ``--config <path>`` pointing at a single JSON file that
fully determines the run; ``--seed`` and ``--out`` override the master seed
and output directory. Exit codes: 0 success, 2 configuration error, 3 data
error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, TargetSpec, generate, load_csv, save_csv
from .exceptions import ConfigurationError, InputError, NumericalError
from .diagnostics import approximation_rate_experiment, complexity_scaling_experiment
from .network import load as load_network, save as save_network
from .nulldist import NullConfig, significance_tests
from .significance import RateConstants, StatConfig
from .timing import stage
from .training import ArchSpec, TrainConfig, fit_least_squares, quadratic_loss


def _load_config(path, seed_override=None, out_override=None) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    if seed_override is not None:
        cfg["seed"] = seed_override
    if out_override is not None:
        cfg.setdefault("output", {})["dir"] = out_override
    cfg.setdefault("seed", 0)
    cfg.setdefault("output", {})
    return cfg


def _value(section: dict, key: str, kind, default=None):
    """``section[name]`` converted by ``kind``, where ``name`` is the last part
    of the dotted ``key``; ``default`` stands in for a missing entry, and
    ``None`` makes the entry required. Errors name the dotted key."""
    name = key.rpartition(".")[2]
    if name not in section and default is None:
        raise ConfigurationError(f"{key}: missing")
    raw = section.get(name, default)
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


def _integer(raw) -> int:
    """``raw`` as an int; bools, strings and non-integral numbers are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
            or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def _int_list(values) -> list:
    return [_integer(v) for v in values]


def _section(cfg: dict, key: str) -> dict:
    section = cfg.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigurationError(f"{key}: expected a JSON object, got {section!r}")
    return section


def _out_path(cfg: dict, key: str, default: str) -> Path:
    out = cfg.get("output", {})
    base = Path(out.get("dir", "."))
    base.mkdir(parents=True, exist_ok=True)
    return base / out.get(key, default)


def _target_spec(gen: dict) -> TargetSpec:
    kind = gen.get("kind")
    if kind is None:
        raise ConfigurationError("generator section needs a 'kind'")
    base = _target_spec(gen["base"]) if "base" in gen and gen["base"] else None
    try:
        return TargetSpec(
            kind=kind,
            beta=tuple(gen["beta"]) if "beta" in gen else None,
            intercept=_value(gen, "data.generator.intercept", float, 0.0),
            frequency=tuple(gen["frequency"]) if "frequency" in gen else None,
            base=base,
            dead_index=gen.get("dead_index"),
            noise_sigma=_value(gen, "data.generator.noise_sigma", float, 0.0),
        )
    except (TypeError, KeyError) as exc:
        raise ConfigurationError(f"bad generator section: {exc}") from None


def _dataset_from_config(cfg: dict) -> Dataset:
    data = cfg.get("data")
    if not isinstance(data, dict):
        raise ConfigurationError("missing 'data' section")
    has_path = "path" in data
    has_gen = "generator" in data
    if has_path == has_gen:
        raise ConfigurationError("exactly one of data.path / data.generator must be set")
    if has_path:
        return load_csv(data["path"], data.get("target_column", "y"))
    gen = data["generator"]
    if not isinstance(gen, dict):
        raise ConfigurationError(f"data.generator: expected a JSON object, got {gen!r}")
    return generate(_target_spec(gen), _value(gen, "data.generator.n", _integer),
                    _value(gen, "data.generator.d", _integer), _value(cfg, "seed", _integer))


def _arch_spec(cfg: dict) -> ArchSpec:
    arch = _section(cfg, "architecture")
    auto = arch.get("width", "auto") in ("auto", None)
    return ArchSpec(
        depth=_value(arch, "architecture.depth", _integer, 2),
        width=None if auto else _value(arch, "architecture.width", _integer),
        activation=arch.get("activation", "sigmoid"),
        width_c=_value(arch, "architecture.width_c", float, 1.0),
    )


def _train_config(cfg: dict) -> TrainConfig:
    tr = _section(cfg, "training")
    return TrainConfig(
        epochs=_value(tr, "training.epochs", _integer, 300),
        batch_size=_value(tr, "training.batch_size", _integer, 64),
        learning_rate=_value(tr, "training.learning_rate", float, 0.5),
        lr_decay=_value(tr, "training.lr_decay", float, 0.999),
        seed=_value(tr, "training.seed", _integer, _value(cfg, "seed", _integer)),
        tolerance=_value(tr, "training.tolerance", float, 1e-8),
        max_grad_norm=_value(tr, "training.max_grad_norm", float, 10.0),
        moment_bound=_value(tr, "training.moment_bound", float, 100.0),
    )


def _stat_config(test: dict) -> StatConfig:
    mode = test.get("normalization_mode", "identity")
    rc = None
    if mode == "rate":
        raw = test.get("rate_constants")
        if not isinstance(raw, dict):
            raise ConfigurationError("rate normalization requires test.rate_constants")
        rc = RateConstants(
            h_n=_value(raw, "test.rate_constants.h_n", _integer),
            lipschitz=_value(raw, "test.rate_constants.lipschitz", float),
            depth=_value(raw, "test.rate_constants.depth", _integer),
            s_over_d=_value(raw, "test.rate_constants.s_over_d", float),
        )
    return StatConfig(normalization_mode=mode, rate_constants=rc)


def _null_config(test: dict, master_seed: int) -> NullConfig:
    return NullConfig(
        m=_value(test, "test.m", _integer, 200),
        n_p=_value(test, "test.n_p", _integer, 1000),
        lambda_shrink=_value(test, "test.lambda_shrink", float, 0.0),
        sigma_scale=test.get("sigma_scale", "raw"),
        seed=_value(test, "test.seed", _integer, master_seed),
    )


def _fitted_summary(fitted) -> dict:
    return {
        "width": fitted.width_used,
        "depth": fitted.net.depth,
        "activation": fitted.net.activation,
        "layer_dims": list(fitted.net.layer_dims),
        "final_risk": fitted.final_empirical_risk,
        "epochs_run": len(fitted.train_loss_history),
        "moment": {
            "second_moment": fitted.moment.second_moment,
            "bound_m": fitted.moment.bound_m,
            "satisfied": fitted.moment.satisfied,
        },
    }


def _null_summary(null) -> dict:
    return {
        "jitter_used": null.jitter_used,
        "distinct_selected": null.distinct_selected,
        "ess": null.ess,
        "top_share": null.top_share,
        "rechecked_draws": null.rechecked_draws,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_generate(cfg: dict) -> int:
    data = cfg.get("data", {})
    if "generator" not in data:
        raise ConfigurationError("generate needs a data.generator section")
    dataset = _dataset_from_config(cfg)
    path = _out_path(cfg, "dataset", "dataset.csv")
    save_csv(dataset, path)
    print(f"wrote {dataset.n} rows, {dataset.d} covariates to {path}")
    return 0


def _fit(cfg: dict, dataset: Dataset):
    return fit_least_squares(dataset, _arch_spec(cfg), _train_config(cfg))


def cmd_train(cfg: dict) -> int:
    dataset = _dataset_from_config(cfg)
    fitted = _fit(cfg, dataset)
    model_path = _out_path(cfg, "model", "model.nnsig")
    save_network(fitted.net, model_path)

    history_path = _out_path(cfg, "loss_history", "loss_history.csv")
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(fitted.train_loss_history):
            fh.write(f"{i},{loss!r}\n")

    summary = {
        "version": __version__,
        "master_seed": cfg["seed"],
        "fitted": _fitted_summary(fitted),
        "model_path": str(model_path),
        "loss_history_path": str(history_path),
    }
    _write_json(_out_path(cfg, "train_summary", "train_summary.json"), summary)
    print(f"trained width={fitted.width_used} final_risk={fitted.final_empirical_risk:.6g}")
    return 0


def cmd_test(cfg: dict) -> int:
    t0 = time.perf_counter()
    timings = {}
    with stage(timings, "data"):
        dataset = _dataset_from_config(cfg)
    test = _section(cfg, "test")

    model_path = _out_path(cfg, "model", "model.nnsig")
    with stage(timings, "fit"):
        if model_path.is_file():
            net = load_network(model_path)
            if net.input_dim != dataset.d:
                raise InputError(
                    f"model expects dimension {net.input_dim}, data has {dataset.d}"
                )
            risk = quadratic_loss(net, dataset.X, dataset.y)
            from .network import second_moment
            from .training import FittedModel
            fitted = FittedModel(
                net=net,
                train_loss_history=[risk],
                final_empirical_risk=risk,
                width_used=net.hidden_width,
                moment=second_moment(net, dataset.X),
            )
        else:
            fitted = _fit(cfg, dataset)

    variables = test.get("variables")
    if variables is None:
        variables = list(range(dataset.d))
    if not isinstance(variables, list):
        raise ConfigurationError(
            f"test.variables: expected a list of integers, got {variables!r}"
        )
    for j in variables:
        if isinstance(j, bool) or not isinstance(j, int):
            raise ConfigurationError(f"test.variables entry {j!r} is not an integer")
        if not (0 <= j < dataset.d):
            raise ConfigurationError(f"variable index {j} out of range for d={dataset.d}")

    stat_cfg = _stat_config(test)
    null_cfg = _null_config(test, _value(cfg, "seed", _integer))

    tested = significance_tests(fitted, dataset, variables, null_cfg, stat_cfg)
    results = []
    for res in tested:
        j = res.variable_index
        entry = {
            "variable_index": res.variable_index,
            "observed_raw": res.observed.raw,
            "observed_normalized": res.observed.normalized,
            "p_value": res.p_value,
            "seed": res.seed,
        }
        if test.get("include_null_samples", True):
            entry["null_samples"] = res.null_samples
        results.append(entry)
        if test.get("null_samples_csv"):
            sidecar = _out_path(cfg, "null_samples_csv_prefix", "null_samples") \
                .with_name(f"null_samples_var{j}.csv")
            with open(sidecar, "w", encoding="utf-8") as fh:
                fh.write("sample\n")
                for v in res.null_samples:
                    fh.write(f"{v!r}\n")

    report = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "master_seed": cfg["seed"],
        "config_echo": cfg,
        "fitted": _fitted_summary(fitted),
        "flags": {
            "normalization_mode": stat_cfg.normalization_mode,
            "sigma_scale": null_cfg.sigma_scale,
            "glorot_truncation": "plus_minus_2_sigma_resample",
        },
        "results": results,
        "null": _null_summary(tested[0].null) if tested else None,
        "timings": {**timings, **(tested[0].null.timings if tested else {}),
                    "wall_seconds": time.perf_counter() - t0},
    }
    report_path = _out_path(cfg, "report", "report.json")
    _write_json(report_path, report)
    for entry in results:
        print(f"variable {entry['variable_index']}: p={entry['p_value']:.4g}")
    print(f"wrote {report_path}")
    return 0


def cmd_diagnose(cfg: dict) -> int:
    t0 = time.perf_counter()
    diag = _section(cfg, "diagnostics")
    out = {}
    seed = _value(cfg, "seed", _integer)

    comp = _section(diag, "complexity")
    if comp:
        key = "diagnostics.complexity."
        width = _value(comp, key + "width", _integer, 8)
        depth = _value(comp, key + "depth", _integer, 2)
        d = _value(comp, key + "d", _integer, 3)
        dims = (d,) + (width,) * depth + (1,)
        report = complexity_scaling_experiment(
            dims,
            _value(comp, key + "n_list", _int_list, [250, 1000, 4000]),
            seed,
            n_eps=_value(comp, key + "n_eps", _integer, 200),
            n_class=_value(comp, key + "n_class", _integer, 50),
            activation=comp.get("activation", "sigmoid"),
        )
        out["complexity"] = {
            "n_values": report.x_values,
            "estimates": report.errors,
            "log_log_slope": report.log_log_slope,
            "slope_stderr": report.slope_stderr,
        }
        csv_path = _out_path(cfg, "complexity_csv", "complexity.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("n,estimate\n")
            for x, e in zip(report.x_values, report.errors):
                fh.write(f"{x},{e!r}\n")

    approx = _section(diag, "approximation")
    if approx:
        key = "diagnostics.approximation."
        d = _value(approx, key + "d", _integer, 2)
        spec = TargetSpec(
            kind="smooth_sin",
            frequency=tuple(approx.get("frequency", [1.0] + [0.0] * (d - 1))),
            noise_sigma=0.0,
        )
        tr = _section(approx, "training")
        key_tr = key + "training."
        train_cfg = TrainConfig(
            epochs=_value(tr, key_tr + "epochs", _integer, 5000),
            batch_size=_value(tr, key_tr + "batch_size", _integer, 256),
            learning_rate=_value(tr, key_tr + "learning_rate", float, 0.05),
            lr_decay=_value(tr, key_tr + "lr_decay", float, 0.9995),
            tolerance=_value(tr, key_tr + "tolerance", float, 1e-6),
            early_stop_window=_value(tr, key_tr + "early_stop_window", _integer, 100),
            seed=seed,
        )
        report = approximation_rate_experiment(
            spec,
            _value(approx, key + "widths", _int_list, [4, 8, 16, 32]),
            _value(approx, key + "n", _integer, 4000),
            train_cfg,
            seed,
            depth=_value(approx, key + "depth", _integer, 2),
            activation=approx.get("activation", "tanh"),
            d=d,
        )
        out["approximation"] = {
            "widths": report.x_values,
            "rmse": report.errors,
            "log_log_slope": report.log_log_slope,
            "slope_stderr": report.slope_stderr,
        }
        csv_path = _out_path(cfg, "approximation_csv", "approximation.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("width,rmse\n")
            for x, e in zip(report.x_values, report.errors):
                fh.write(f"{x},{e!r}\n")

    payload = {
        "version": __version__,
        "master_seed": cfg["seed"],
        "config_echo": cfg,
        "diagnostics": out,
        "timings": {"wall_seconds": time.perf_counter() - t0},
    }
    path = _out_path(cfg, "diagnostics_report", "diagnostics.json")
    _write_json(path, payload)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "test": cmd_test,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nnsig",
        description="Input-variable significance testing for least-squares MLPs.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config, args.seed, args.out)
        return _COMMANDS[args.command](cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
