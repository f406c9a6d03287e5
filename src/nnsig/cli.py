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

from . import __version__
from .data import Dataset, TargetSpec, generate, load_csv, save_csv, write_csv
from .exceptions import ConfigurationError, InputError, NumericalError
from .diagnostics import approximation_rate_experiment, complexity_scaling_experiment
from .network import load as load_network, save as save_network, second_moment
from .nulldist import NullConfig, significance_tests
from .significance import RateConstants, StatConfig
from .timing import stage
from .training import ArchSpec, FittedModel, TrainConfig, fit_least_squares, quadratic_loss


def _integer(raw) -> int:
    """``raw`` as an int; bools, strings and non-integral numbers are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
            or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def _real(raw) -> float:
    """``raw`` as a float; bools, strings and NaN are rejected, infinities kept."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw != raw:
        raise ValueError(f"expected a number, got {raw!r}")
    return float(raw)


def _string(raw) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"expected a string, got {raw!r}")
    return raw


def _bool(raw) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"expected true or false, got {raw!r}")
    return raw


def _list_of(kind):
    def convert(raw) -> tuple:
        if not isinstance(raw, list):
            raise ValueError(f"expected a list, got {raw!r}")
        return tuple(kind(v) for v in raw)
    return convert


def _width(raw):
    """An integer width, or None (the automatic schedule) for "auto" and null."""
    return None if raw in ("auto", None) else _integer(raw)


_integers, _reals = _list_of(_integer), _list_of(_real)

# Every output file and its default name under output.dir.
_OUTPUTS = {"dataset": "dataset.csv", "model": "model.nnsig",
            "loss_history": "loss_history.csv", "train_summary": "train_summary.json",
            "report": "report.json", "null_samples_csv_prefix": "null_samples",
            "complexity_csv": "complexity.csv", "approximation_csv": "approximation.csv",
            "diagnostics_report": "diagnostics.json"}

# Every config key and its kind: a converter, a nested table for a JSON
# object, or None for a retired key that is accepted and ignored.
_GENERATOR = {"kind": _string, "beta": _reals, "intercept": _real, "frequency": _reals,
              "dead_index": _integer, "noise_sigma": _real, "n": _integer, "d": _integer}
_GENERATOR["base"] = _GENERATOR
_TRAINING = {"epochs": _integer, "batch_size": _integer, "learning_rate": _real,
             "lr_decay": _real, "tolerance": _real}
_KEYS = {
    "seed": _integer,
    "output": dict.fromkeys(("dir", *_OUTPUTS), _string),
    "data": {"path": _string, "target_column": _string, "generator": _GENERATOR},
    "architecture": {"depth": _integer, "width": _width, "activation": _string,
                     "width_c": _real},
    "training": {**_TRAINING, "seed": _integer, "max_grad_norm": _real,
                 "moment_bound": _real},
    "test": {
        "variables": _integers, "m": _integer, "n_p": _integer, "lambda_shrink": _real,
        "sigma_scale": _string, "seed": _integer, "normalization_mode": _string,
        "rate_constants": {"h_n": _integer, "lipschitz": _real, "depth": _integer,
                           "s_over_d": _real, "c_prime": None},
        "include_null_samples": _bool, "null_samples_csv": _bool,
        "workers": None, "alpha_adapt": None, "m_max": None, "adapt_tol": None,
    },
    "diagnostics": {
        "complexity": {"width": _integer, "depth": _integer, "d": _integer,
                       "n_list": _integers, "n_eps": _integer, "n_class": _integer,
                       "activation": _string},
        "approximation": {"d": _integer, "frequency": _reals, "widths": _integers,
                          "n": _integer, "depth": _integer, "activation": _string,
                          "training": {**_TRAINING, "early_stop_window": _integer}},
    },
}

# Training preset of the approximation study; diagnostics.approximation.training
# overrides single keys of it.
_APPROX_TRAINING = {"epochs": 5000, "batch_size": 256, "learning_rate": 0.05,
                    "lr_decay": 0.9995, "tolerance": 1e-6, "early_stop_window": 100}


def _check(section, table: dict, key: str) -> dict:
    """``section`` with each value converted by its kind in ``table`` and the
    retired keys dropped. Errors name the dotted key."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{key}: expected a JSON object, got {section!r}")
    out = {}
    for name, raw in section.items():
        dotted = f"{key}.{name}" if key else name
        if name not in table:
            raise ConfigurationError(f"{dotted}: unknown key")
        kind = table[name]
        try:
            if isinstance(kind, dict):
                out[name] = _check(raw, kind, dotted)
            elif kind is not None:
                out[name] = kind(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"{dotted}: {exc}") from None
    return out


def _load_config(path, seed_override=None, out_override=None) -> tuple[dict, dict]:
    """The checked config and the config echo: the JSON as loaded, with the
    overrides and the ``seed`` and ``output`` defaults applied."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        echo = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(echo, dict):
        raise ConfigurationError("config root must be a JSON object")
    if seed_override is not None:
        echo["seed"] = seed_override
    echo.setdefault("seed", 0)
    echo.setdefault("output", {})
    cfg = _check(echo, _KEYS, "")
    if out_override is not None:
        echo["output"]["dir"] = cfg["output"]["dir"] = out_override
    return cfg, echo


def _require(section: dict, key: str, *names) -> None:
    for name in names:
        if name not in section:
            raise ConfigurationError(f"{key}.{name}: missing")


def _build(make, key: str, fields: dict):
    """``make(**fields)``; its errors name ``key``, the section the fields came from."""
    try:
        return make(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


def _pick(section: dict, *names) -> dict:
    """The entries of ``section`` named, so that absent ones keep their defaults."""
    return {name: section[name] for name in names if name in section}


def _out_path(cfg: dict, key: str) -> Path:
    """The path of output ``key`` under ``output.dir``; its directory is created."""
    out = cfg["output"]
    path = Path(out.get("dir", ".")) / out.get(key, _OUTPUTS[key])
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _target_spec(gen: dict, key: str) -> TargetSpec:
    _require(gen, key, "kind")
    fields = {name: v for name, v in gen.items() if name not in ("n", "d", "base")}
    base = _target_spec(gen["base"], key + ".base") if "base" in gen else None
    return _build(TargetSpec, key, {**fields, "base": base})


def _dataset_from_config(cfg: dict) -> Dataset:
    data = cfg.get("data", {})
    if ("path" in data) == ("generator" in data):
        raise ConfigurationError("data: exactly one of path and generator must be set")
    if "path" in data:
        return load_csv(data["path"], data.get("target_column", "y"))
    gen = data["generator"]
    _require(gen, "data.generator", "n", "d")
    return generate(_target_spec(gen, "data.generator"), gen["n"], gen["d"], cfg["seed"])


def _stat_config(test: dict) -> StatConfig:
    rc = test.get("rate_constants") if test.get("normalization_mode") == "rate" else None
    if rc is not None:
        _require(rc, "test.rate_constants", "h_n", "lipschitz", "depth", "s_over_d")
        rc = RateConstants(**rc)
    return _build(StatConfig, "test", {**_pick(test, "normalization_mode"), "rate_constants": rc})


def _fitted_summary(fitted) -> dict:
    return {
        "width": fitted.net.hidden_width,
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


def _training_summary(fitted) -> dict:
    """Why the fit stopped and its best epoch, apart from ``_fitted_summary``
    so that the numeric blob of ``results`` and ``fitted`` keeps its bytes;
    both are None for a reused model."""
    return {"stop_reason": fitted.stop_reason, "best_epoch": fitted.best_epoch}


def _null_summary(null) -> dict:
    return {
        "jitter_used": null.jitter_used,
        "distinct_selected": null.distinct_selected,
        "ess": null.ess,
        "top_share": null.top_share,
        "rechecked_draws": null.rechecked_draws,
        "fsum_fallbacks": null.fsum_fallbacks,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# Each command takes the checked config and the config echo of _load_config.

def cmd_generate(cfg: dict, echo: dict) -> int:
    if "generator" not in cfg.get("data", {}):
        raise ConfigurationError("generate needs a data.generator section")
    dataset = _dataset_from_config(cfg)
    path = _out_path(cfg, "dataset")
    save_csv(dataset, path)
    print(f"wrote {dataset.n} rows, {dataset.d} covariates to {path}")
    return 0


def _train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, "training", {"seed": cfg["seed"], **cfg.get("training", {})})


def _fit(cfg: dict, dataset: Dataset):
    arch = _build(ArchSpec, "architecture", cfg.get("architecture", {}))
    return fit_least_squares(dataset, arch, _train_config(cfg))


def cmd_train(cfg: dict, echo: dict) -> int:
    dataset = _dataset_from_config(cfg)
    fitted = _fit(cfg, dataset)
    model_path = _out_path(cfg, "model")
    save_network(fitted.net, model_path)

    history_path = _out_path(cfg, "loss_history")
    write_csv(history_path, ["epoch", "loss"], enumerate(fitted.train_loss_history))

    summary = {
        "version": __version__,
        "master_seed": cfg["seed"],
        "fitted": _fitted_summary(fitted),
        "training": _training_summary(fitted),
        "model_path": str(model_path),
        "loss_history_path": str(history_path),
    }
    _write_json(_out_path(cfg, "train_summary"), summary)
    print(f"trained width={fitted.net.hidden_width} final_risk={fitted.final_empirical_risk:.6g}")
    return 0


def cmd_test(cfg: dict, echo: dict) -> int:
    t0 = time.perf_counter()
    test = cfg.get("test", {})
    stat_cfg = _stat_config(test)
    null_cfg = _build(NullConfig, "test", {
        "seed": cfg["seed"], **_pick(test, "m", "n_p", "lambda_shrink", "sigma_scale", "seed")})
    timings = {}
    with stage(timings, "data"):
        dataset = _dataset_from_config(cfg)
    variables = test.get("variables", range(dataset.d))
    for j in variables:
        if not (0 <= j < dataset.d):
            raise ConfigurationError(f"test.variables: index {j} out of range for d={dataset.d}")

    model_path = _out_path(cfg, "model")
    with stage(timings, "fit"):
        if model_path.is_file():
            net = load_network(model_path)
            if net.input_dim != dataset.d:
                raise InputError(
                    f"model expects dimension {net.input_dim}, data has {dataset.d}"
                )
            try:
                risk = quadratic_loss(net, dataset.X, dataset.y)
            except NumericalError as exc:
                raise NumericalError(f"model {model_path}: {exc}") from None
            fitted = FittedModel(
                net=net,
                train_loss_history=[risk],
                final_empirical_risk=risk,
                moment=second_moment(net, dataset.X, _train_config(cfg).moment_bound),
            )
        else:
            fitted = _fit(cfg, dataset)

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
            prefix = _out_path(cfg, "null_samples_csv_prefix")
            sidecar = prefix.with_name(f"{prefix.name}_var{j}.csv")
            write_csv(sidecar, ["sample"], zip(res.null_samples))

    report = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "master_seed": cfg["seed"],
        "config_echo": echo,
        "fitted": _fitted_summary(fitted),
        "training": _training_summary(fitted),
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
    report_path = _out_path(cfg, "report")
    _write_json(report_path, report)
    for entry in results:
        print(f"variable {entry['variable_index']}: p={entry['p_value']:.4g}")
    print(f"wrote {report_path}")
    return 0


def cmd_diagnose(cfg: dict, echo: dict) -> int:
    t0 = time.perf_counter()
    diag = cfg.get("diagnostics", {})
    out = {}
    seed = cfg["seed"]

    comp = diag.get("complexity")
    if comp:
        dims = (comp.get("d", 3),) + (comp.get("width", 8),) * comp.get("depth", 2) + (1,)
        report = _build(complexity_scaling_experiment, "diagnostics.complexity", {
            "layer_dims": dims, "n_list": comp.get("n_list", (250, 1000, 4000)), "seed": seed,
            **_pick(comp, "n_eps", "n_class", "activation")})
        out["complexity"] = {
            "n_values": report.x_values,
            "estimates": report.errors,
            "log_log_slope": report.log_log_slope,
            "slope_stderr": report.slope_stderr,
        }
        write_csv(_out_path(cfg, "complexity_csv"), ["n", "estimate"],
                  zip(report.x_values, report.errors))

    approx = diag.get("approximation")
    if approx:
        d = approx.get("d", 2)
        spec = TargetSpec(kind="smooth_sin",
                          frequency=approx.get("frequency", (1.0,) + (0.0,) * (d - 1)))
        train_cfg = _build(TrainConfig, "diagnostics.approximation.training",
                           {**_APPROX_TRAINING, **approx.get("training", {}), "seed": seed})
        report = approximation_rate_experiment(
            spec, approx.get("widths", (4, 8, 16, 32)), approx.get("n", 4000), train_cfg,
            seed, d=d, **_pick(approx, "depth", "activation"),
        )
        out["approximation"] = {
            "widths": report.x_values,
            "rmse": report.errors,
            "log_log_slope": report.log_log_slope,
            "slope_stderr": report.slope_stderr,
        }
        write_csv(_out_path(cfg, "approximation_csv"), ["width", "rmse"],
                  zip(report.x_values, report.errors))

    payload = {
        "version": __version__,
        "master_seed": cfg["seed"],
        "config_echo": echo,
        "diagnostics": out,
        "timings": {"wall_seconds": time.perf_counter() - t0},
    }
    path = _out_path(cfg, "diagnostics_report")
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
        cfg, echo = _load_config(args.config, args.seed, args.out)
        return _COMMANDS[args.command](cfg, echo)
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
