"""Command-line entry point: generate, train, test, diagnose.

All commands take ``--config <path>`` pointing at a single JSON file that
fully determines the run; ``--seed`` and ``--out`` override the master seed
and output directory. Exit codes: 0 success, 2 configuration error, 3 data
error, 4 numerical error or out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import stat
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, TargetSpec, generate, load_csv, save_csv, write_csv
from .exceptions import ConfigurationError, InputError, NumericalError
from .diagnostics import approximation_rate_experiment, complexity_scaling_experiment
from .network import load as load_network, save as save_network, second_moment
from .nulldist import NullConfig, significance_tests
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
_TARGET = {"kind": _string, "beta": _reals, "intercept": _real, "frequency": _reals,
           "dead_index": _integer}
_TARGET["base"] = _TARGET  # a base target has no rows, dimension or noise of its own
_GENERATOR = {**_TARGET, "noise_sigma": _real, "n": _integer, "d": _integer}
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
        "sigma_scale": _string, "seed": _integer,
        "include_null_samples": _bool, "null_samples_csv": _bool,
        "workers": None, "alpha_adapt": None, "m_max": None, "adapt_tol": None,
        "normalization_mode": None, "rate_constants": None,
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


# How deep a config may nest objects and lists: far less than the recursion
# that checking, building and writing it back as config_echo takes.
_MAX_DEPTH = 64


def _deeper(value, levels: int) -> bool:
    """Whether ``value`` nests objects and lists more than ``levels`` deep."""
    if not isinstance(value, (dict, list)):
        return False
    items = value.values() if isinstance(value, dict) else value
    return levels == 0 or any(_deeper(item, levels - 1) for item in items)


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
    except RecursionError:  # nested past the JSON parser's reach
        deep = True
    else:
        deep = _deeper(echo, _MAX_DEPTH)
    if deep:
        raise ConfigurationError(
            f"config nests objects and lists more than {_MAX_DEPTH} levels deep")
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
    """``make(**fields)``; its errors, a too-large value's OverflowError too, name ``key``."""
    try:
        return make(**fields)
    except (ConfigurationError, OverflowError) as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


def _pick(section: dict, *names) -> dict:
    """The entries of ``section`` named, so that absent ones keep their defaults."""
    return {name: section[name] for name in names if name in section}


def _reason(exc: Exception) -> str:
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)


class _Outputs:
    """The files a command writes and reads under ``output.dir``. ``path``
    resolves, checks and claims each one; ``undo`` removes the directories
    that ``path`` created, if they are still empty."""

    def __init__(self, cfg: dict):
        self._out = cfg["output"]
        self._made = []  # the directories path created, parents first
        self._claimed = {}  # resolved file -> (its name, whether it is read, its path)
        # a data.path that cannot be resolved is named by the data read
        with contextlib.suppress(KeyError, OSError, ValueError, RuntimeError):
            path = Path(cfg["data"]["path"])
            self._claimed[path.resolve()] = ("data.path", True, path)

    def path(self, key: str, suffix: str = "", read: bool = False) -> Path:
        """The path of output ``key``, with ``suffix`` appended to its name;
        its directory is created. Exit 2 naming ``output.<key>`` if the path
        cannot be used, or if it is, once resolved, the same file as another
        that the command claims and one of the two is written: ``read`` is
        for a file the command reads, and ``data.path`` is read."""
        name = f"output.{key}"
        path = Path(self._out.get("dir", ".")) / (self._out.get(key, _OUTPUTS[key]) + suffix)
        self._made += [parent for parent in reversed(path.parents) if not os.path.exists(parent)]
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL character in the name
            raise ConfigurationError(f"{name}: {path.parent}: {_reason(exc)}") from None
        try:  # a name past the OS limit fails here, not when the output is written
            if stat.S_ISDIR(os.stat(path).st_mode):
                raise ConfigurationError(f"{name}: {path} is a directory")
        except FileNotFoundError:
            pass
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"{name}: {path}: {_reason(exc)}") from None
        other, other_read, other_path = self._claimed.setdefault(path.resolve(),
                                                                 (name, read, path))
        if other != name and not (read and other_read):
            written, at, other = (other, other_path, name) if read else (name, path, other)
            raise ConfigurationError(f"{written}: {at} is the same file as {other}")
        return path

    def undo(self) -> None:
        for made in reversed(self._made):
            with contextlib.suppress(OSError, ValueError):
                made.rmdir()


def _target_spec(gen: dict, key: str) -> TargetSpec:
    _require(gen, key, "kind")
    fields = {name: v for name, v in gen.items() if name not in ("n", "d", "base")}
    base = _target_spec(gen["base"], key + ".base") if "base" in gen else None
    return _build(TargetSpec, key, {**fields, "base": base})


def _complexity(seed, arch, d=3, n_list=(250, 1000, 4000), **fields):
    return complexity_scaling_experiment(arch.layer_dims(d), n_list, seed,
                                         activation=arch.activation, **fields)


def _approximation(seed, train_cfg, d=2, frequency=None, widths=(4, 8, 16, 32), n=4000,
                   **fields):
    if frequency is None:
        frequency = (1.0,) + (0.0,) * (d - 1)
    spec = TargetSpec("smooth_sin", frequency=frequency)
    return approximation_rate_experiment(spec, widths, n, train_cfg, seed, d=d, **fields)


# Each study of nnsig diagnose, in run order: its experiment, which takes its
# config section as _settings builds it, the report names of its x values and
# errors, and its CSV header. The default frequency grows with d, so it is built
# when the study runs, never by a command that does not run it.
_STUDIES = {"complexity": (_complexity, "n_values", "estimates", ("n", "estimate")),
            "approximation": (_approximation, "widths", "rmse", ("width", "rmse"))}


def _settings(cfg: dict) -> dict:
    """Every object the commands take from the checked config, built when the
    config loads, so that an out-of-range value in any section exits 2 naming
    the section whichever command runs. The checks that need the data (the
    variables, ``beta`` and ``batch_size`` against its shape) stay where the
    data is read."""
    seed, test, diag = cfg["seed"], cfg.get("test", {}), cfg.get("diagnostics", {})
    gen = cfg.get("data", {}).get("generator")
    if gen is not None:
        _require(gen, "data.generator", "n", "d")
    studies = {name: {**diag[name], "seed": seed} for name in _STUDIES if name in diag}
    if "complexity" in studies:
        study = studies["complexity"]
        study["arch"] = _build(ArchSpec, "diagnostics.complexity", {"width": 8, **{
            name: study.pop(name) for name in ("depth", "width", "activation") if name in study}})
    if "approximation" in studies:
        approx = studies["approximation"]
        approx["train_cfg"] = _build(TrainConfig, "diagnostics.approximation.training",
                                     {**_APPROX_TRAINING, **approx.pop("training", {}), "seed": seed})
    return {
        "target": None if gen is None else _target_spec(gen, "data.generator"),
        "arch": _build(ArchSpec, "architecture", cfg.get("architecture", {})),
        "train": _build(TrainConfig, "training", {"seed": seed, **cfg.get("training", {})}),
        "null": _build(NullConfig, "test", {
            "seed": seed, **_pick(test, "m", "n_p", "lambda_shrink", "sigma_scale", "seed")}),
        "studies": studies,
        "outputs": _Outputs(cfg),
    }


def _dataset_from_config(cfg: dict, target: TargetSpec | None) -> Dataset:
    data = cfg.get("data", {})
    if ("path" in data) == ("generator" in data):
        raise ConfigurationError("data: exactly one of path and generator must be set")
    if "path" in data:
        return load_csv(data["path"], data.get("target_column", "y"))
    gen = data["generator"]
    return _build(generate, "data.generator",
                  {"spec": target, "n": gen["n"], "d": gen["d"], "seed": cfg["seed"]})


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fingerprint(cfg: dict, built: dict, dataset: Dataset) -> dict:
    """What a model fitted under this config is fitted to, one entry per
    dotted key: the architecture at this data's size (activation and layer
    dims), the data source (the CSV's sha256 and target column, or the
    generator section and the master seed), then every ``TrainConfig`` field.
    ``nnsig train`` adds ``output.model``, the sha256 of the model file it
    wrote. Its values are as JSON reads them back, so that a saved one
    compares equal."""
    arch, data = built["arch"], cfg["data"]
    dims = _build(arch.layer_dims, "architecture", {"d": dataset.d, "n": dataset.n})
    if "path" in data:
        source = {"csv_sha256": _sha256(data["path"]),
                  "target_column": data.get("target_column", "y")}
    else:
        source = {"generator": data["generator"], "seed": cfg["seed"]}
    training = dataclasses.asdict(built["train"])
    return json.loads(json.dumps({"architecture": f"{arch.activation} {dims}", "data": source,
                                  **{f"training.{k}": v for k, v in training.items()}}))


# How _check_fingerprint words a key that differs, where it does not quote both values.
_MISMATCH = {"data": "was fitted to other data",
             "output.model": "is not the file nnsig train wrote"}


def _check_fingerprint(cfg: dict, built: dict, dataset: Dataset, model_path: Path,
                       summary_path: Path) -> None:
    """Exit 2 unless the train summary beside the model holds this config's
    fingerprint and the sha256 of this model file: the one rule for reusing
    a model. The error names the first key that differs."""
    try:
        saved = json.loads(summary_path.read_text(encoding="utf-8")).get("fingerprint")
    except (OSError, ValueError, AttributeError):
        saved = None
    if not isinstance(saved, dict) or "output.model" not in saved:
        raise ConfigurationError(
            f"output.train_summary: {summary_path} holds no fingerprint of what {model_path} "
            "was fitted to; run nnsig train with this config, or remove the model")
    for key, value in {**_fingerprint(cfg, built, dataset),
                       "output.model": _sha256(model_path)}.items():
        if saved.get(key) != value:
            raise ConfigurationError(f"{key}: {model_path} " + _MISMATCH.get(
                key, f"was fitted with {saved.get(key)!r}, the config asks for {value!r}"))


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


def _formatted(values: list) -> list:
    """The JSON text of each float of ``values``, in order. Each distinct value
    is formatted once, keyed by its bits, so that -0.0 and 0.0 stay apart: a
    variable's null samples take one value per selected network."""
    bits, inverse = np.unique(np.array(values, dtype=np.float64).view(np.uint64),
                              return_inverse=True)
    texts = np.array([json.dumps(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _json_chunks(value, level: int = 0):
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` in pieces,
    indented as a value ``level`` deep. A list of floats is one piece, its
    values formatted by ``_formatted``."""
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        yield from _object_chunks({key: _json_chunks(item, level + 1)
                                   for key, item in value.items()}, level)
    elif isinstance(value, (list, tuple)) and value:
        inner = "\n" + "  " * (level + 1)
        yield "[" + inner
        if all(type(item) is float for item in value):
            yield ("," + inner).join(_formatted(value))
        else:
            for i, item in enumerate(value):
                if i:
                    yield "," + inner
                yield from _json_chunks(item, level + 1)
        yield "\n" + "  " * level + "]"
    else:  # a scalar, an empty list or object, or an object with other keys
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)


def _object_chunks(parts: dict, level: int):
    """A non-empty JSON object ``level`` deep whose values are the pieces in
    ``parts``, keyed and laid out as ``json.dumps(indent=2, sort_keys=True)``."""
    inner = "\n" + "  " * (level + 1)
    for i, key in enumerate(sorted(parts)):
        yield ("," if i else "{") + inner + json.dumps(key) + ": "
        yield from parts[key]
    yield "\n" + "  " * level + "}"


def _write_json(path: Path, chunks) -> None:
    """Write the JSON text in ``chunks`` piece by piece, then a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


# Each command takes the checked config and the config echo of _load_config,
# and the objects _settings built from the config. It takes the path of every
# file it writes or reads from built["outputs"] before it reads data, fits or
# runs a study; test's sidecars, whose names need the data, follow the data read.

def cmd_generate(cfg: dict, echo: dict, built: dict) -> int:
    if built["target"] is None:
        raise ConfigurationError("generate needs a data.generator section")
    path = built["outputs"].path("dataset")
    dataset = _dataset_from_config(cfg, built["target"])
    save_csv(dataset, path)
    print(f"wrote {dataset.n} rows, {dataset.d} covariates to {path}")
    return 0


def _fit(built: dict, dataset: Dataset):
    """The network fitted to ``dataset``; the checks of the config against the
    data's size name their key."""
    _build(built["arch"].layer_dims, "architecture", {"d": dataset.d, "n": dataset.n})
    _build(built["train"].check_rows, "training.batch_size", {"n": dataset.n})
    return fit_least_squares(dataset, built["arch"], built["train"])


def cmd_train(cfg: dict, echo: dict, built: dict) -> int:
    model_path, history_path, summary_path = map(
        built["outputs"].path, ("model", "loss_history", "train_summary"))
    dataset = _dataset_from_config(cfg, built["target"])
    fingerprint = _fingerprint(cfg, built, dataset)  # of the data as it was read, before the fit
    fitted = _fit(built, dataset)
    save_network(fitted.net, model_path)
    fingerprint["output.model"] = _sha256(model_path)
    write_csv(history_path, ["epoch", "loss"], enumerate(fitted.train_loss_history))

    summary = {
        "version": __version__,
        "master_seed": cfg["seed"],
        "fitted": _fitted_summary(fitted),
        "training": _training_summary(fitted),
        "fingerprint": fingerprint,
        "rescale_transform": dataset.rescale_transform,
        "model_path": str(model_path),
        "loss_history_path": str(history_path),
    }
    _write_json(summary_path, _json_chunks(summary))
    print(f"trained width={fitted.net.hidden_width} final_risk={fitted.final_empirical_risk:.6g}")
    return 0


def cmd_test(cfg: dict, echo: dict, built: dict) -> int:
    t0 = time.perf_counter()
    test = cfg.get("test", {})
    outputs = built["outputs"]
    report_path = outputs.path("report")  # first: an unusable output.dir names the report
    model_path = outputs.path("model", read=True)
    summary_path = outputs.path("train_summary", read=True)
    timings = {}
    with stage(timings, "data"):
        dataset = _dataset_from_config(cfg, built["target"])
    variables = test.get("variables", range(dataset.d))
    for j in variables:
        if not (0 <= j < dataset.d):
            raise ConfigurationError(f"test.variables: index {j} out of range for d={dataset.d}")
    sidecars = {j: outputs.path("null_samples_csv_prefix", f"_var{j}.csv")
                for j in variables} if test.get("null_samples_csv") else {}

    with stage(timings, "fit"):
        if model_path.is_file():
            net = load_network(model_path)
            _check_fingerprint(cfg, built, dataset, model_path, summary_path)
            try:
                risk = quadratic_loss(net, dataset.X, dataset.y)
            except NumericalError as exc:
                raise NumericalError(f"model {model_path}: {exc}") from None
            fitted = FittedModel(
                net=net,
                train_loss_history=[risk],
                final_empirical_risk=risk,
                moment=second_moment(net, dataset.X, built["train"].moment_bound),
            )
        else:
            fitted = _fit(built, dataset)

    tested = significance_tests(fitted, dataset, variables, built["null"])
    results = []
    for res in tested:
        entry = {
            "variable_index": res.variable_index,
            "observed_raw": res.observed.raw,
            "observed_normalized": res.observed.raw,
            "p_value": res.p_value,
            "seed": res.seed,
        }
        if test.get("include_null_samples", True):
            entry["null_samples"] = res.null_samples
        results.append(entry)

    report = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "master_seed": cfg["seed"],
        "config_echo": echo,
        "fitted": _fitted_summary(fitted),
        "training": _training_summary(fitted),
        "results": results,
        "null": _null_summary(tested[0].null) if tested else None,
    }
    with stage(timings, "report"):
        if sidecars:
            for res in tested:
                write_csv(sidecars[res.variable_index], ["sample"], zip(res.null_samples))
        parts = {key: list(_json_chunks(value, 1)) for key, value in report.items()}
    # the timings are rendered last, so that wall_seconds leaves out only the
    # write of the rendered text
    parts["timings"] = _json_chunks({**timings, **(tested[0].null.timings if tested else {}),
                                     "wall_seconds": time.perf_counter() - t0}, 1)
    _write_json(report_path, _object_chunks(parts, 0))
    for entry in results:
        print(f"variable {entry['variable_index']}: p={entry['p_value']:.4g}")
    print(f"wrote {report_path}")
    return 0


def cmd_diagnose(cfg: dict, echo: dict, built: dict) -> int:
    t0 = time.perf_counter()
    studies = built["studies"]
    csv_paths = {name: built["outputs"].path(name + "_csv") for name in studies}
    path = built["outputs"].path("diagnostics_report")
    reports = {name: _build(_STUDIES[name][0], "diagnostics." + name, fields)
               for name, fields in studies.items()}
    out = {}
    for name, report in reports.items():
        _, x_name, errors_name, header = _STUDIES[name]
        out[name] = {
            x_name: report.x_values,
            errors_name: report.errors,
            "log_log_slope": report.log_log_slope,
            "slope_stderr": report.slope_stderr,
        }
        write_csv(csv_paths[name], header, zip(report.x_values, report.errors))

    payload = {
        "version": __version__,
        "master_seed": cfg["seed"],
        "config_echo": echo,
        "diagnostics": out,
        "timings": {"wall_seconds": time.perf_counter() - t0},
    }
    _write_json(path, _json_chunks(payload))
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "test": cmd_test,
    "diagnose": cmd_diagnose,
}

# Each error a command may end in: the message prefix and the exit code.
_EXITS = {ConfigurationError: ("configuration error", 2), InputError: ("data error", 3),
          NumericalError: ("numerical error", 4), MemoryError: ("out of memory", 4)}


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

    built = {}
    try:
        cfg, echo = _load_config(args.config, args.seed, args.out)
        built = _settings(cfg)
        return _COMMANDS[args.command](cfg, echo, built)
    except tuple(_EXITS) as exc:
        if built:
            built["outputs"].undo()
        kind, code = next(v for error, v in _EXITS.items() if isinstance(exc, error))
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
