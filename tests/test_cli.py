"""End-to-end tests of the command-line interface.

Each test writes a JSON config into tmp_path and drives ``nnsig.cli.main``
in-process, asserting on exit codes and on the files the commands produce.
"""

import contextlib
import hashlib
import io
import json
import os
import reprlib
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnsig.diagnostics
from nnsig import cli
from nnsig.cli import main
from nnsig.data import TargetSpec, generate, load_csv
from nnsig.exceptions import ConfigurationError
from nnsig.network import (MAGIC, Network, init_glorot, linear_network, load as load_network,
                           save as save_network)
from nnsig.training import quadratic_loss, width_schedule


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def base_config(out_dir, n=300, d=2, beta=(1.0, 0.0), noise=0.1, seed=11):
    return {
        "seed": seed,
        "output": {"dir": str(out_dir)},
        "data": {
            "generator": {
                "kind": "linear",
                "beta": list(beta),
                "noise_sigma": noise,
                "n": n,
                "d": d,
            }
        },
        "architecture": {"width": 5},
        "training": {"epochs": 40, "batch_size": 50, "learning_rate": 0.5},
        "test": {"m": 20, "n_p": 50},
    }


def reseal(out_dir, net):
    """Save ``net`` over the model that nnsig train wrote to ``out_dir``, and
    give the train summary's fingerprint the sha256 of the new file, so that
    nnsig test reuses it."""
    model, summary = out_dir / "model.nnsig", out_dir / "train_summary.json"
    save_network(net, model)
    saved = json.loads(summary.read_text(encoding="utf-8"))
    saved["fingerprint"]["output.model"] = hashlib.sha256(model.read_bytes()).hexdigest()
    summary.write_text(json.dumps(saved), encoding="utf-8")


# CSV cells: mostly numbers, with the edges of what float() and the rescaling take
_CELLS = (st.floats(-10, 10).map(repr) | st.integers(-9, 9).map(str)
          | st.sampled_from(["", " 1 ", "1e308", "-1e308", "1e-320", "nan", "1e999", "x"]))


def csv_tables():
    """CSV bytes: a header, then up to 8 rows of as many cells."""
    def table(header):
        width = header.count(",") + 1
        rows = st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=8)
        return rows.map(lambda rows: "\n".join([header] + [",".join(r) for r in rows]).encode())

    return st.sampled_from(["x1,y", "x1,x2,y", "y,x1,x2", "y", "x1,y,y"]).flatmap(table)


def table_paths(table, prefix=()):
    """Every dotted key of the config table as a tuple; ``base`` is followed once."""
    for name, kind in table.items():
        yield prefix + (name,)
        if isinstance(kind, dict) and name not in prefix:
            yield from table_paths(kind, prefix + (name,))


def table_names(table):
    return {path[-1] for path in table_paths(table)}


def nested_values(inner):
    """Lists and objects of ``inner`` values, the ``extend`` of a recursive strategy."""
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


class TestGenerateCommand:
    def test_writes_csv(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["generate", "--config", write_config(tmp_path, cfg)]) == 0
        ds = load_csv(tmp_path / "dataset.csv", "y")
        assert ds.n == 300 and ds.d == 2

    def test_same_seed_byte_identical(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            cfg = base_config(tmp_path / sub)
            assert main(["generate", "--config", write_config(tmp_path, cfg,
                                                              f"{sub}.json")]) == 0
            blobs.append((tmp_path / sub / "dataset.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_data(self, tmp_path):
        cfg = base_config(tmp_path / "x")
        path = write_config(tmp_path, cfg)
        assert main(["generate", "--config", path]) == 0
        assert main(["generate", "--config", path, "--seed", "99",
                     "--out", str(tmp_path / "z")]) == 0
        a = (tmp_path / "x" / "dataset.csv").read_bytes()
        b = (tmp_path / "z" / "dataset.csv").read_bytes()
        assert a != b

    def test_requires_generator(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["data"] = {"path": "whatever.csv"}
        assert main(["generate", "--config", write_config(tmp_path, cfg)]) == 2

    def test_rows_no_array_holds_are_out_of_memory(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["data"]["generator"]["n"] = 2 ** 62
        assert main(["generate", "--config", write_config(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"out of memory: n = {2 ** 62} rows of d = 2 covariates")
        cfg = {"output": {"dir": str(tmp_path)}, "diagnostics": {"complexity": {
            "width": 2, "n_list": [10, 20, 2 ** 62], "n_eps": 2, "n_class": 2}}}
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_dead_index_out_of_range(self, tmp_path, capsys):
        for bad in (-1, 3):  # d = 3
            cfg = base_config(tmp_path, d=3, beta=(1.0, 0.0, 0.5))
            base = {k: v for k, v in cfg["data"]["generator"].items()
                    if k not in ("n", "d", "noise_sigma")}
            cfg["data"]["generator"] = {"kind": "null_variable", "dead_index": bad, "n": 50,
                                        "d": 3, "base": base}
            assert main(["generate", "--config", write_config(tmp_path, cfg)]) == 2
            err = capsys.readouterr().err
            assert f"dead_index {bad}" in err and "d=3" in err
            assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize("generator", [
        {"kind": "linear", "beta": [1.0, 0.0], "noise_sigma": float("inf")},
        {"kind": "smooth_sin", "frequency": [1e308, 0.0]}])
    def test_non_finite_responses_are_a_configuration_error(self, tmp_path, capsys, generator):
        cfg = base_config(tmp_path)
        cfg["data"]["generator"] = {**generator, "n": 30, "d": 2}
        for command in ("generate", "train", "test"):
            assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
            assert capsys.readouterr().err.startswith(
                "configuration error: data.generator: the generated responses are not finite")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


class TestTrainCommand:
    def test_outputs_and_consistent_risk(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((tmp_path / "train_summary.json").read_text())
        net = load_network(tmp_path / "model.nnsig")
        # cmd_train regenerates the dataset from the config; do the same
        spec = TargetSpec(kind="linear", beta=(1.0, 0.0), noise_sigma=0.1)
        ds = generate(spec, 300, 2, seed=11)
        risk = quadratic_loss(net, ds.X, ds.y)
        assert summary["fitted"]["final_risk"] == pytest.approx(risk, abs=1e-12)
        history = (tmp_path / "loss_history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,loss"
        assert len(history) - 1 == summary["fitted"]["epochs_run"]

    def test_auto_width_uses_schedule(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["architecture"] = {"width": "auto"}
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((tmp_path / "train_summary.json").read_text())
        assert summary["fitted"]["width"] == width_schedule(300)

    @pytest.mark.parametrize("training, reason", [
        # a tolerance of 0.9 calls any two windows of 10 epochs a plateau
        ({"epochs": 40, "tolerance": 0.9}, "plateau"),
        # fewer epochs than two windows of 10 never compare them
        ({"epochs": 15}, "epoch_cap"),
    ])
    def test_stop_reason_and_best_epoch(self, tmp_path, training, reason):
        cfg = base_config(tmp_path)
        cfg["training"].update(training)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((tmp_path / "train_summary.json").read_text())
        rows = (tmp_path / "loss_history.csv").read_text().strip().splitlines()[1:]
        losses = [float(row.split(",")[1]) for row in rows]
        assert summary["training"]["stop_reason"] == reason
        assert (len(losses) < training["epochs"]) == (reason == "plateau")
        best = summary["training"]["best_epoch"]
        assert losses[best] == min(losses) == summary["fitted"]["final_risk"]
        assert losses.index(min(losses)) == best
        assert not {"stop_reason", "best_epoch"} & set(summary["fitted"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["architecture"] = {"width": 5, "activation": "relu"}
        cfg["training"] = {"epochs": 20, "batch_size": 50, "learning_rate": 1e200,
                           "max_grad_norm": 1e300}
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 4


class TestTestCommand:
    def run_test(self, tmp_path, cfg, name="config.json"):
        assert main(["test", "--config", write_config(tmp_path, cfg, name)]) == 0
        return json.loads((cfg_out(cfg) / "report.json").read_text())

    def test_report_contents(self, tmp_path):
        cfg = base_config(tmp_path)
        report = self.run_test(tmp_path, cfg)
        results = report["results"]
        assert [r["variable_index"] for r in results] == [0, 1]
        for r in results:
            assert 0.0 < r["p_value"] <= 1.0
            assert len(r["null_samples"]) == 50
            assert all(v >= 0.0 for v in r["null_samples"])
        assert "flags" not in report
        assert all(r["observed_normalized"] == r["observed_raw"] for r in results)
        assert report["fitted"]["width"] == 5

    def test_active_vs_dead_variable(self, tmp_path):
        cfg = base_config(tmp_path, n=600, beta=(1.0, 0.0), seed=3)
        cfg["training"]["epochs"] = 120
        cfg["test"] = {"m": 50, "n_p": 200}
        report = self.run_test(tmp_path, cfg)
        p_active, p_dead = (r["p_value"] for r in report["results"])
        assert p_active <= 0.05 < p_dead

    def test_uses_saved_model_when_present(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 0
        assert main(["test", "--config", path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        # loading a model skips training: the history collapses to one entry
        assert report["fitted"]["epochs_run"] == 1
        assert report["training"] == {"stop_reason": None, "best_epoch": None}

    def test_rerun_bit_identical(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert main(["test", "--config", path]) == 0
        first = json.loads((tmp_path / "report.json").read_text())
        assert main(["test", "--config", path]) == 0
        second = json.loads((tmp_path / "report.json").read_text())
        assert first["results"] == second["results"]
        assert first["fitted"] == second["fitted"]

    def test_workers_bit_identical(self, tmp_path):
        cfg = base_config(tmp_path / "serial")
        assert main(["test", "--config", write_config(tmp_path, cfg, "s.json")]) == 0
        cfg_p = base_config(tmp_path / "parallel")
        cfg_p["test"]["workers"] = 4
        assert main(["test", "--config", write_config(tmp_path, cfg_p, "p.json")]) == 0
        a = json.loads((tmp_path / "serial" / "report.json").read_text())
        b = json.loads((tmp_path / "parallel" / "report.json").read_text())
        assert a["results"] == b["results"]

    def test_one_null_per_run(self, tmp_path, monkeypatch):
        import nnsig.nulldist

        calls = []
        sample = nnsig.nulldist.sample_networks
        monkeypatch.setattr(nnsig.nulldist, "sample_networks",
                            lambda *args: calls.append(args) or sample(*args))
        cfg = base_config(tmp_path, d=3, beta=(1.0, 0.0, 0.5))
        report = self.run_test(tmp_path, cfg)
        assert [r["variable_index"] for r in report["results"]] == [0, 1, 2]
        assert len(calls) == 1

    def test_null_summary(self, tmp_path):
        cfg = base_config(tmp_path)
        report = self.run_test(tmp_path, cfg)
        null = report["null"]
        assert null["jitter_used"] >= 0.0
        assert 1.0 <= null["ess"] <= null["distinct_selected"] <= cfg["test"]["m"]
        assert 0.0 < null["top_share"] <= 1.0
        assert null["rechecked_draws"] >= 0
        assert null["fsum_fallbacks"] == 0
        stages = ("data", "fit", "sample", "evaluate", "cholesky", "select", "report")
        assert sorted(report["timings"]) == sorted(stages + ("wall_seconds",))
        assert all(report["timings"][s] >= 0.0 for s in stages)
        assert sum(report["timings"][s] for s in stages) <= report["timings"]["wall_seconds"]

    def test_float64_draws_are_reported_outside_results(self, tmp_path):
        cfg = base_config(tmp_path)
        null = self.run_test(tmp_path, cfg)["null"]
        assert 0 <= null["rechecked_draws"] <= null["float64_draws"] <= cfg["test"]["n_p"]

    def test_variable_subset_and_sidecar(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["test"]["variables"] = [1]
        cfg["test"]["null_samples_csv"] = True
        report = self.run_test(tmp_path, cfg)
        assert [r["variable_index"] for r in report["results"]] == [1]
        sidecar = (tmp_path / "null_samples_var1.csv").read_text().strip().splitlines()
        assert sidecar[0] == "sample"
        assert [float(v) for v in sidecar[1:]] == report["results"][0]["null_samples"]

    def test_sidecar_prefix_and_subdirectories(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["output"].update(report="sub/r.json", null_samples_csv_prefix="csv/pre")
        cfg["test"].update(variables=[0], null_samples_csv=True)
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((tmp_path / "sub" / "r.json").read_text())
        sidecar = (tmp_path / "csv" / "pre_var0.csv").read_text().strip().splitlines()
        assert [float(v) for v in sidecar[1:]] == report["results"][0]["null_samples"]

    def test_reused_model_certified_against_moment_bound(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["training"]["moment_bound"] = 0.01
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 0
        assert main(["test", "--config", path]) == 0
        summary = json.loads((tmp_path / "train_summary.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        for moment in (summary["fitted"]["moment"], report["fitted"]["moment"]):
            assert moment["bound_m"] == 0.01
            assert moment["satisfied"] is False

    def test_variable_out_of_range(self, tmp_path, capsys):
        for bad in (5, 1.5, "0"):
            cfg = base_config(tmp_path)
            cfg["test"]["variables"] = [bad]
            assert main(["test", "--config", write_config(tmp_path, cfg)]) == 2
            assert repr(bad) in capsys.readouterr().err

    def test_test_section_checked_before_fit(self, tmp_path, capsys, monkeypatch):
        def no_fit(cfg, dataset):
            raise AssertionError("fit called before the test section was checked")

        monkeypatch.setattr(cli, "_fit", no_fit)
        cases = (("m", 1, "test: m must be at least 2"),
                 ("variables", [5], "test.variables: index 5 out of range for d=2"))
        for key, bad, message in cases:
            cfg = base_config(tmp_path)
            cfg["test"][key] = bad
            assert main(["test", "--config", write_config(tmp_path, cfg)]) == 2
            assert f"configuration error: {message}" in capsys.readouterr().err

    def test_null_too_large_for_memory_is_exit_4(self, tmp_path, capsys):
        # 10**12 networks: their outputs are allocated before any is sampled;
        # 2**62, past numpy's index range, once ended in a traceback
        for key, size in (("n_p", 10 ** 15), ("m", 10 ** 12), ("n_p", 2 ** 62), ("m", 2 ** 62)):
            cfg = base_config(tmp_path)
            cfg["test"][key] = size
            assert main(["test", "--config", write_config(tmp_path, cfg)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("out of memory: ") and "Traceback" not in err

    def test_huge_m_exits_before_any_network_is_drawn(self, tmp_path, capsys, monkeypatch):
        import nnsig.network

        def no_draw(*args):
            raise AssertionError("a network was drawn before the null's arrays were allocated")

        # the streams of the sampled networks, not the fit's
        monkeypatch.setattr(nnsig.network, "generators", no_draw)
        cfg = base_config(tmp_path)
        cfg["test"]["m"] = 10 ** 12
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and "Traceback" not in err

    def test_csv_input_path(self, tmp_path):
        gen = base_config(tmp_path)
        assert main(["generate", "--config", write_config(tmp_path, gen, "g.json")]) == 0
        cfg = base_config(tmp_path / "from_csv")
        cfg["data"] = {"path": str(tmp_path / "dataset.csv"), "target_column": "y"}
        report = self.run_test(tmp_path, cfg, "t.json")
        assert len(report["results"]) == 2

    def test_overflowing_reused_model_is_a_numerical_error(self, tmp_path, capsys):
        # squared residuals near 1e308 each: their sum overflows in math.fsum
        cfg = base_config(tmp_path, n=50)
        cfg["architecture"] = {"depth": 1, "width": 4, "activation": "relu"}
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 0  # the summary fingerprints the config
        reseal(tmp_path, linear_network([1.3e154, 0.0], 0.0))
        assert main(["test", "--config", path]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(tmp_path / "model.nnsig") in err

    def test_non_finite_model_is_a_data_error(self, tmp_path, capsys):
        # a NaN output weight once gave p = 1/(n_p+1) for every variable
        net = linear_network([1.0, 0.5])
        net.weights[1][0, 1] = np.nan
        save_network(net, tmp_path / "model.nnsig")
        cfg = base_config(tmp_path, n=200)
        cfg["test"] = {"m": 10, "n_p": 20}
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: non-finite weight in layer 1")
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_statistic_is_a_numerical_error(self, tmp_path, capsys):
        # finite weights and outputs, but the input gradient is nan: an
        # overflowed product meets a hidden unit that is never active. Such a
        # statistic once got the smallest p-value, 1/(n_p+1)
        cfg = base_config(tmp_path)
        cfg["architecture"] = {"width": 2, "activation": "relu"}
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 0
        net = Network((2, 2, 2, 1),
                      (np.ones((2, 2)), np.array([[1.0, 1e300], [1.0, 1e300]]), np.full((1, 2), 1e10)),
                      (np.array([10.0, -10.0]), np.zeros(2), np.zeros(1)), "relu")
        reseal(tmp_path, net)
        capsys.readouterr()
        assert main(["test", "--config", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and "not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_reused_model_of_another_architecture(self, tmp_path, capsys):
        assert main(["train", "--config", write_config(tmp_path, base_config(tmp_path))]) == 0
        capsys.readouterr()
        cfg = base_config(tmp_path, beta=(0.0, 3.0))
        cfg["architecture"] = {"depth": 3, "width": 12, "activation": "relu"}
        assert main(["test", "--config", write_config(tmp_path, cfg, "t.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: architecture: {tmp_path / 'model.nnsig'} ")
        assert "sigmoid (2, 5, 5, 1)" in err and "relu (2, 12, 12, 12, 1)" in err
        assert not (tmp_path / "report.json").exists()

    def test_replaced_model_is_not_reused(self, tmp_path, capsys):
        # a network of the architecture the config asks for, but not the one
        # nnsig train fitted; it was once reused
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", path]) == 0
        save_network(init_glorot((2, 5, 5, 1), "sigmoid", 1), tmp_path / "model.nnsig")
        capsys.readouterr()
        assert main(["test", "--config", path]) == 2
        assert capsys.readouterr().err == (f"configuration error: output.model: "
                                           f"{tmp_path / 'model.nnsig'} is not the file nnsig "
                                           "train wrote\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reused_model_with_non_finite_loss_is_a_numerical_error(self, tmp_path, capsys):
        # outputs 2e308 * tanh(1e3 x1) overflow: the loss once read inf, the
        # statistics 0, and every variable got p = 1
        cfg = base_config(tmp_path)
        cfg["architecture"] = {"depth": 1, "width": 2, "activation": "tanh"}
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 0
        reseal(tmp_path, Network((2, 2, 1), (np.array([[1e3, 0.0], [1e3, 0.0]]),
                                             np.full((1, 2), 1e308)),
                                 (np.zeros(2), np.zeros(1)), "tanh"))
        capsys.readouterr()
        assert main(["test", "--config", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerical error: model {tmp_path / 'model.nnsig'}: "
                              "the quadratic loss is not finite")
        assert not (tmp_path / "report.json").exists()

    def test_model_fitted_to_other_data_is_not_reused(self, tmp_path, capsys):
        # a model of beta = (1, 0) once gave p = 0.33 for variable 1 of beta = (0, 3)
        assert main(["train", "--config", write_config(tmp_path, base_config(tmp_path))]) == 0
        capsys.readouterr()
        cfg = base_config(tmp_path, beta=(0.0, 3.0))
        assert main(["test", "--config", write_config(tmp_path, cfg, "t.json")]) == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: data: {tmp_path / 'model.nnsig'} "
                       "was fitted to other data\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, value", [("learning_rate", 0.25), ("epochs", 41),
                                            ("moment_bound", 7.0)])
    def test_model_fitted_with_other_training_is_not_reused(self, tmp_path, capsys, key,
                                                            value):
        cfg = base_config(tmp_path)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()
        cfg["training"][key] = value
        assert main(["test", "--config", write_config(tmp_path, cfg, "t.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: training.{key}: "
                              f"{tmp_path / 'model.nnsig'} was fitted with ")
        assert err.rstrip().endswith(f"the config asks for {value!r}")
        assert not (tmp_path / "report.json").exists()

    def test_changed_csv_is_other_data(self, tmp_path, capsys):
        assert main(["generate", "--config", write_config(tmp_path, base_config(tmp_path))]) == 0
        cfg = base_config(tmp_path)
        cfg["data"] = {"path": str(tmp_path / "dataset.csv"), "target_column": "y"}
        path = write_config(tmp_path, cfg, "t.json")
        assert main(["train", "--config", path]) == 0
        summary = json.loads((tmp_path / "train_summary.json").read_text())
        transform = load_csv(tmp_path / "dataset.csv", "y").rescale_transform
        assert summary["rescale_transform"] == [list(pair) for pair in transform]
        assert main(["test", "--config", path]) == 0
        with open(tmp_path / "dataset.csv", "a", encoding="utf-8") as f:
            f.write("0.5,0.5,0.5\n")
        capsys.readouterr()
        assert main(["test", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("configuration error: data: ")

    # "older": a fingerprint without output.model, as nnsig train wrote it
    # before the fingerprint covered the model file
    @pytest.mark.parametrize("summary", [None, "{not json", "[]", '{"fingerprint": 3}',
                                         '{"version": "0"}', "older"])
    def test_model_without_fingerprint_is_not_reused(self, tmp_path, capsys, summary):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 0
        if summary is None:
            (tmp_path / "train_summary.json").unlink()
        elif summary == "older":
            saved = json.loads((tmp_path / "train_summary.json").read_text(encoding="utf-8"))
            del saved["fingerprint"]["output.model"]
            (tmp_path / "train_summary.json").write_text(json.dumps(saved), encoding="utf-8")
        else:
            (tmp_path / "train_summary.json").write_text(summary, encoding="utf-8")
        capsys.readouterr()
        assert main(["test", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output.train_summary: ")
        assert str(tmp_path / "model.nnsig") in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("dims", [(2, 3, 2), (2, 0, 1), (2,) * 1025 + (1,)])
    def test_model_file_with_invalid_dims_is_a_data_error(self, tmp_path, capsys, dims):
        weights = sum(a * b + b for a, b in zip(dims, dims[1:]))
        path = tmp_path / "model.nnsig"
        path.write_bytes(MAGIC + b"\x04relu" + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
                         + bytes(8 * weights))
        assert main(["test", "--config", write_config(tmp_path, base_config(tmp_path))]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: model file {path}: ") and "Traceback" not in err
        assert len(err) < 200  # a long dims tuple is named by its count

    def test_overflowing_statistic_is_a_numerical_error(self, tmp_path, capsys):
        # tanh'(1e154 * 0) * 1e154 squared is 1e308 at each of 20 rows with x1 = 0
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n" + "".join(f"{i % 3 - 1},{i},{i % 2}\n" for i in range(60)),
                        encoding="utf-8")
        net = Network((2, 1, 1), (np.array([[1e154, 0.0]]), np.ones((1, 1))),
                      (np.zeros(1), np.zeros(1)), "tanh")
        cfg = base_config(tmp_path)
        cfg["data"] = {"path": str(data)}
        cfg["architecture"] = {"depth": 1, "width": 1, "activation": "tanh"}
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 0  # the summary fingerprints the config
        reseal(tmp_path, net)
        assert main(["test", "--config", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: the squared-gradient statistic overflows")
        assert not (tmp_path / "report.json").exists()

    def test_model_dimension_mismatch(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 0
        cfg3 = base_config(tmp_path, d=3, beta=(1.0, 0.0, 0.0))
        assert main(["test", "--config", write_config(tmp_path, cfg3, "c3.json")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: architecture: ")



@pytest.mark.parametrize("command, section, key", [
    ("test", ("test",), "m"),
    ("test", ("test",), "n_p"),
    ("diagnose", ("diagnostics", "complexity"), "n_eps"),
    ("diagnose", ("diagnostics", "complexity"), "n_class"),
    ("generate", ("data", "generator"), "n"),
])
def test_size_no_array_holds_is_one_short_line(tmp_path, capsys, command, section, key):
    """A 309-digit size is named by its key and abbreviated as reprlib
    abbreviates it, so that the message stays one short line."""
    cfg = base_config(tmp_path, n=40)
    cfg["training"]["batch_size"] = 8
    cfg["diagnostics"] = {"complexity": {"width": 2, "n_list": [10, 20, 40], "n_eps": 2,
                                         "n_class": 2}}
    node = cfg
    for name in section:
        node = node[name]
    node[key] = 1e308
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 4
    err = capsys.readouterr().err
    size = reprlib.repr(int(1e308))
    assert "..." in size and len(size) == 40
    assert err.startswith(f"out of memory: {key} = {size} ") and "Traceback" not in err
    assert err.endswith(" fit in no array\n") and len(err) < 120

class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["test", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["test", "--config", str(p)]) == 2

    @staticmethod
    def nested(depth, inner):
        """``inner`` wrapped in ``depth`` single-key objects."""
        for _ in range(depth):
            inner = {"a": inner}
        return inner

    @staticmethod
    def base_chain(depth):
        """A data.generator whose null_variable target has ``depth`` bases."""
        target = {"kind": "linear", "beta": [1.0, 0.0]}
        for _ in range(depth):
            target = {"kind": "null_variable", "dead_index": 0, "base": target}
        return {**target, "n": 50, "d": 2}

    @pytest.mark.parametrize("case, commands", [
        # past the JSON parser's recursion: json.loads raised RecursionError
        ("seed", ("train",)),
        # past the writer's: train fitted, then wrote a truncated summary
        ("base", ("train", "test")),
        # a retired key's value: test ran the null, then failed to echo it
        ("rate_constants", ("test",))])
    def test_config_nested_too_deep(self, tmp_path, capsys, monkeypatch, case, commands):
        def no_data(*args):
            raise AssertionError("data read from a config nested too deep")

        monkeypatch.setattr(cli, "_dataset_from_config", no_data)
        cfg = base_config(tmp_path / "out")
        if case == "base":
            cfg["data"]["generator"] = self.base_chain(600)
        elif case == "rate_constants":
            cfg["test"]["rate_constants"] = self.nested(600, 1)
        text = json.dumps(cfg)
        if case == "seed":
            text = '{"seed": ' + "[" * 100_000 + "]" * 100_000 + text[1:]
        (tmp_path / "config.json").write_text(text, encoding="utf-8")
        for command in commands:
            assert main([command, "--config", str(tmp_path / "config.json")]) == 2
            err = capsys.readouterr().err
            assert err == ("configuration error: config nests objects and lists more "
                           f"than {cli._MAX_DEPTH} levels deep\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_config_nesting_bound(self, tmp_path):
        # the root object and test are two levels, so 62 more reach the bound
        cfg = base_config(tmp_path)
        cfg["test"]["rate_constants"] = self.nested(61, [])
        assert cli._load_config(write_config(tmp_path, cfg))[1] == cfg
        cfg["test"]["rate_constants"] = self.nested(62, [])
        with pytest.raises(ConfigurationError, match="more than 64 levels deep"):
            cli._load_config(write_config(tmp_path, cfg))
        cfg["data"]["generator"] = self.base_chain(30)  # a chain of 30 bases runs
        cfg["test"] = {"m": 4, "n_p": 10}
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 0

    def test_both_path_and_generator(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["data"]["path"] = "x.csv"
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 2

    def test_neither_path_nor_generator(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["data"] = {}
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("key, value", [("n", -5), ("d", 99), ("noise_sigma", 7.0)])
    def test_base_target_has_no_rows_dimension_or_noise(self, tmp_path, capsys, key, value):
        cfg = base_config(tmp_path)
        cfg["data"]["generator"] = {"kind": "null_variable", "dead_index": 1, "n": 50, "d": 2,
                                    "base": {"kind": "linear", "beta": [1.0, 0.0], key: value}}
        assert main(["generate", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"data.generator.base.{key}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "dataset.csv").exists()

    # case: the command, the output key it cannot write and the config entry
    # that makes the path unusable (output.dir, or the key's name "adir")
    @pytest.mark.parametrize("case", ["dir_under_a_file", "dir_is_a_file", "report_is_a_dir",
                                      "model_is_a_dir", "dataset_is_a_dir", "sidecar_is_a_dir"])
    def test_unusable_output_path_exits_before_fit(self, tmp_path, capsys, monkeypatch, case):
        def no_work(*args):
            raise AssertionError("work started before the output paths were resolved")

        monkeypatch.setattr(cli, "_fit", no_work)
        if case != "sidecar_is_a_dir":  # the sidecars need d, so the data first
            monkeypatch.setattr(cli, "generate", no_work)
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        (tmp_path / "null_samples_var1.csv").mkdir()
        cfg = base_config(tmp_path)
        cfg["test"]["null_samples_csv"] = True
        command, key = {"model_is_a_dir": ("train", "model"),
                        "dataset_is_a_dir": ("generate", "dataset"),
                        "sidecar_is_a_dir": ("test", "null_samples_csv_prefix")}.get(
                            case, ("test", "report"))
        bad = {"dir_under_a_file": tmp_path / "afile" / "sub",
               "dir_is_a_file": tmp_path / "afile",
               "sidecar_is_a_dir": tmp_path / "null_samples_var1.csv"}.get(case, tmp_path / "adir")
        if case.endswith("_a_file"):
            cfg["output"]["dir"] = str(bad)
        elif case != "sidecar_is_a_dir":
            cfg["output"][key] = "adir"
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: output.{key}: ") and str(bad) in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    # case: the command, the output entries that make a path it writes the
    # same file as another, the output key named and the file it would overwrite
    @pytest.mark.parametrize("command, output, key, other", [
        ("test", {"dir": "out", "report": "dataset.csv"}, "report", "data.path"),
        ("train", {"train_summary": "model.nnsig"}, "train_summary", "output.model"),
        ("test", {"report": "r_var0.csv", "null_samples_csv_prefix": "r"},
         "null_samples_csv_prefix", "output.report"),
        ("test", {"report": "model.nnsig"}, "report", "output.model"),
        ("test", {"train_summary": "t_var0.csv", "null_samples_csv_prefix": "t"},
         "null_samples_csv_prefix", "output.train_summary"),
        ("diagnose", {"complexity_csv": "c.csv", "diagnostics_report": "c.csv"},
         "diagnostics_report", "output.complexity_csv")])
    def test_output_that_is_another_file_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                                 output, key, other):
        def no_work(*args):
            raise AssertionError("work started before the output paths were checked")

        monkeypatch.setattr(cli, "_fit", no_work)
        if key != "null_samples_csv_prefix":  # the sidecars need d, so the data first
            monkeypatch.setattr(cli, "load_csv", no_work)
        data = tmp_path / "out" / "dataset.csv"
        data.parent.mkdir()
        data.write_text("x1,x2,y\n" + "".join(f"{i / 9},{1 - i / 9},{i % 2}\n" for i in range(10)),
                        encoding="utf-8")
        cfg = base_config(tmp_path)
        cfg["data"] = {"path": str(data)}
        cfg["output"].update({name: str(tmp_path / value) if name == "dir" else value
                              for name, value in output.items()})
        cfg["test"].update(variables=[0], null_samples_csv=True)
        cfg["diagnostics"] = {"complexity": {"width": 2, "n_list": [10, 20, 40], "n_eps": 2,
                                             "n_class": 2}}
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: output.{key}: ")
        assert err.endswith(f" is the same file as {other}\n")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "config.json", "out", "out/dataset.csv"]
        assert data.read_text(encoding="utf-8").startswith("x1,x2,y\n")

    # Each output file of a command sits in its own subdirectories under an
    # output.dir of which the first ``existing`` levels exist. A command that
    # fails after resolving its paths (a beta of the wrong length, a batch
    # larger than the data, a study's n_list below 1) leaves the tree as it
    # was; one that succeeds adds the directories of its own files only.
    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["generate", "train", "test", "diagnose"]),
           depth=st.integers(0, 3), existing=st.integers(0, 3),
           subdirs=st.fixed_dictionaries({key: st.lists(st.sampled_from(["a", "b"]), max_size=2)
                                          for key in cli._OUTPUTS}),
           fail=st.booleans())
    def test_output_directories_are_made_and_undone(self, command, depth, existing, subdirs,
                                                   fail):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            out_dir = root.joinpath(*(f"d{level}" for level in range(depth)))
            root.joinpath(*(f"d{level}" for level in range(min(existing, depth)))).mkdir(
                parents=True, exist_ok=True)
            cfg = base_config(out_dir, n=40, beta=(1.0,) if fail and command == "generate"
                              else (1.0, 0.0))
            cfg["output"].update({key: "/".join([*subs, name]) for key, subs in subdirs.items()
                                  for name in [cli._OUTPUTS[key]]})
            cfg["training"] = {"epochs": 2, "batch_size": 64 if fail else 10}
            cfg["test"] = {"m": 4, "n_p": 5, "variables": [0], "null_samples_csv": True}
            cfg["diagnostics"] = {"complexity": {"width": 2, "n_list": [0 if fail else 10, 20, 40],
                                                 "n_eps": 2, "n_class": 2}}
            config = root / "config.json"
            config.write_text(json.dumps(cfg), encoding="utf-8")
            before = set(root.rglob("*"))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", str(config)])
            assert code == (2 if fail else 0)
            after = set(root.rglob("*"))
            if fail:
                assert after == before
            else:
                keys = {"generate": ["dataset"],
                        "train": ["model", "loss_history", "train_summary"],
                        "test": ["report", "model", "train_summary", "null_samples_csv_prefix"],
                        "diagnose": ["complexity_csv", "diagnostics_report"]}[command]
                own = {parent for key in keys
                       for parent in (out_dir / cfg["output"].get(key, cli._OUTPUTS[key])).parents
                       if root in parent.parents}
                assert {p for p in after if p.is_dir()} == {p for p in before if p.is_dir()} | own

    # names past the OS limit on a name's length, and names with a NUL character
    @pytest.mark.parametrize("name", ["r" * 300 + ".json", "a\x00b.json", "sub\x00/r.json"])
    @pytest.mark.parametrize("command, key", [
        ("test", "report"), ("test", "model"), ("test", "train_summary"),
        ("train", "model"), ("train", "train_summary"), ("generate", "dataset")])
    def test_output_name_the_os_cannot_take(self, tmp_path, capsys, command, key, name):
        cfg = base_config(tmp_path / "out")
        cfg["output"][key] = name
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: output.{key}: {tmp_path / 'out'}")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    # the checks of the config against the data: the generator's rows, its
    # target's dimension and the rows a batch and the automatic width need
    @pytest.mark.parametrize("command, section, value, key", [
        ("generate", "generator", {"n": 0}, "data.generator"),
        ("generate", "generator", {"beta": [1.0, 0.0, 1.0]}, "data.generator"),
        ("generate", "generator", {"kind": "smooth_sin", "frequency": [1.0]}, "data.generator"),
        ("generate", "generator", {"kind": "null_variable", "dead_index": 2,
                                   "base": {"kind": "linear", "beta": [1.0, 0.0]}},
         "data.generator"),
        ("train", "training", {"batch_size": 64}, "training.batch_size"),
        ("test", "training", {"batch_size": 64}, "training.batch_size"),
        ("test", "generator", {"n": 1}, "architecture")])
    def test_checks_after_the_data_read_name_their_key(self, tmp_path, capsys, command, section,
                                                       value, key):
        cfg = base_config(tmp_path, n=30)
        cfg["architecture"] = {"width": "auto"}
        cfg["training"]["batch_size"] = 1
        (cfg["data"]["generator"] if section == "generator" else cfg[section]).update(value)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_bad_value_type_names_key(self, tmp_path, capsys):
        cases = (("training", "epochs", "x"), ("test", "m", "ten"), ("test", "variables", 5),
                 ("training", "epochs", 2.9), ("test", "m", 5.7), ("test", "n_p", 30.5),
                 ("training", "epochs", True), ("test", "n_p", "30"),
                 ("training", "learning_rate", True), ("training", "lr_decay", "0.999"),
                 ("test", "lambda_shrink", False), ("test", "lamda_shrink", 0.5),
                 ("test", "include_null_samples", "no"),
                 ("training", "learning_rate", float("nan")),
                 ("training", "learning_rate", 10 ** 400))
        for section, key, bad in cases:
            cfg = base_config(tmp_path)
            cfg[section][key] = bad
            assert main(["test", "--config", write_config(tmp_path, cfg)]) == 2
            err = capsys.readouterr().err
            assert f"{section}.{key}" in err and "Traceback" not in err

    def test_out_of_range_value_names_section(self, tmp_path, capsys):
        # every command builds every section, also those it does not read
        cfg = base_config(tmp_path)
        cfg["test"]["m"] = 1
        for command in ("generate", "train", "test", "diagnose"):
            assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
            assert "configuration error: test: m must be at least 2" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("section, value, key", [
        ("architecture", {"depth": 2000}, "architecture"),
        ("architecture", {"depth": 2 ** 63}, "architecture"),
        ("architecture", {"width": 2 ** 63}, "architecture"),
        ("architecture", {"width": "auto", "width_c": float("inf")}, "architecture"),
        ("diagnostics", {"complexity": {"depth": 2 ** 63}}, "diagnostics.complexity")])
    def test_architecture_past_the_model_file_bounds(self, tmp_path, capsys, section, value, key):
        cfg = base_config(tmp_path)
        cfg[section] = value
        for command in ("train", "test", "diagnose"):
            assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {key}: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("width_c", [0, -3, -0.0])
    def test_width_c_must_be_positive(self, tmp_path, capsys, width_c):
        # an automatic width of 0 or less was the schedule's floor of 2
        cfg = base_config(tmp_path)
        cfg["architecture"] = {"width": "auto", "width_c": width_c}
        for command in ("train", "test", "diagnose"):
            assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
            err = capsys.readouterr().err
            assert err == ("configuration error: architecture: width_c must be positive, "
                           f"got {float(width_c)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        cfg["architecture"] = {"width": 5, "width_c": width_c}  # unused by a fixed width
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0

    def test_retired_keys_accepted_and_ignored(self, tmp_path):
        cfg = base_config(tmp_path)
        plain, _ = cli._load_config(write_config(tmp_path, cfg, "plain.json"))
        cfg["test"].update(workers=4, alpha_adapt=0.05, m_max=800, adapt_tol=0.01,
                           normalization_mode="rate", rate_constants={
                               "h_n": 10, "lipschitz": 1.0, "depth": 2, "s_over_d": 1.0,
                               "c_prime": 2.0})
        retired, echo = cli._load_config(write_config(tmp_path, cfg, "retired.json"))
        assert echo == cfg
        assert retired == plain

    def test_readme_config_passes_table(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file", 1)[1].split("\n### ", 1)[0]
        example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        cfg, echo = cli._load_config(write_config(tmp_path, example))
        cli._settings(cfg)
        assert echo == example
        # the section documents every key the table accepts, alone or dotted
        assert all(f"`{name}`" in section or f".{name}`" in section
                   for name in table_names(cli._KEYS))

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(sorted(table_paths(cli._KEYS)))
           | st.tuples(st.sampled_from(["test", "training", "data", "architecture"]),
                       st.text("abxyz_", min_size=1, max_size=6)),
           value=st.recursive(
               st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
               # values at the edges of the kinds and of the dataclasses' ranges
               | st.sampled_from([0, 1, -1, 0.5, 2.5, 10 ** 400, float("inf"), "auto",
                                  "rate", "smooth_sin", "null_variable"]),
               nested_values, max_leaves=6))
    def test_fuzzed_value_is_a_configuration_error_naming_its_key(self, path, value):
        cfg = base_config("out")
        cfg["data"]["generator"]["base"] = {"kind": "linear", "beta": [1.0, 0.0]}
        section = cfg
        for name in path[:-1]:
            section = section.setdefault(name, {})
        section[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            try:
                cli._settings(cli._load_config(write_config(Path(tmp), cfg))[0])
            except ConfigurationError as exc:
                head, dotted = str(exc).partition(": ")[0], ".".join(path)
                assert head == dotted or head.startswith(dotted + ".") \
                    or dotted.startswith(head + "."), (head, dotted)

    def test_bad_csv_exit_code(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b,y\n1,2,3\n4,oops,6\n", encoding="utf-8")
        cfg = base_config(tmp_path)
        cfg["data"] = {"path": str(data)}
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 3

    def test_bad_csv_leaves_no_output_directory(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("a,b,y\n1,2,3\n4,oops,6\n", encoding="utf-8")
        (tmp_path / "kept").mkdir()
        cfg = base_config(tmp_path / "kept" / "out" / "deep")
        cfg["data"] = {"path": str(data)}
        cfg["output"]["report"] = "sub/report.json"
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 3
        assert "non-numeric cell 'oops' at row 2" in capsys.readouterr().err
        assert list((tmp_path / "kept").iterdir()) == []

    def test_repeated_target_column_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "twice.csv"
        data.write_text("x1,y,y\n" + "".join(f"{i},{i % 7},{i % 5}\n" for i in range(200)),
                        encoding="utf-8")
        cfg = base_config(tmp_path)
        cfg["data"] = {"path": str(data)}
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{data}: header repeats column 'y'" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_target_only_csv_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "y_only.csv"
        data.write_text("y\n" + "".join(f"{i}\n" for i in range(200)), encoding="utf-8")
        cfg = base_config(tmp_path)
        cfg["data"] = {"path": str(data)}
        assert main(["test", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{data}: no covariate column" in err and "Traceback" not in err

    def test_csv_with_a_byte_order_mark(self, tmp_path):
        # as Excel's "CSV UTF-8" saves it; the target was "missing", exit 3
        gen = base_config(tmp_path)
        assert main(["generate", "--config", write_config(tmp_path, gen, "g.json")]) == 0
        lines = (tmp_path / "dataset.csv").read_text(encoding="utf-8").splitlines()
        y_first = "".join(",".join(line.split(",")[-1:] + line.split(",")[:-1]) + "\n"
                          for line in lines)
        assert y_first.startswith("y,x1,x2\n")
        (tmp_path / "plain.csv").write_text(y_first, encoding="utf-8")
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + y_first.encode())
        reports = []
        for name in ("plain.csv", "bom.csv"):
            cfg = base_config(tmp_path / name.replace(".", "_"))
            cfg["data"] = {"path": str(tmp_path / name), "target_column": "y"}
            assert main(["test", "--config", write_config(tmp_path, cfg, "t.json")]) == 0
            reports.append(json.loads((cfg_out(cfg) / "report.json").read_text()))
        assert reports[0]["results"] == reports[1]["results"]

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=120) | csv_tables(), epochs=st.integers(1, 2),
           n_p=st.integers(1, 5))
    def test_fuzzed_csv_ends_in_an_exit_code(self, data, epochs, n_p):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(data)
            cfg = {"output": {"dir": tmp}, "data": {"path": str(path)},
                   "training": {"epochs": epochs, "batch_size": 1},
                   "test": {"m": 2, "n_p": n_p}}
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["test", "--config", write_config(Path(tmp), cfg)])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()

    # One key of a config whose every section is small gets a bounded value,
    # never an object: a section replaced by {} would run the approximation
    # study's defaults (n = 4000, 5000 epochs). A configuration error names a
    # dotted key or a prefix of one, whichever command finds it. An infinite
    # learning rate makes the approximation study drop its widths with a warning.
    @pytest.mark.filterwarnings("ignore:width .* diverged and is excluded:UserWarning")
    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(sorted(table_paths(cli._KEYS))),
           value=st.integers(-3, 12)
           | st.sampled_from([-0.5, 0.0, 0.5, 2.5, 1e-12, 1e308, float("inf")])
           | st.sampled_from([None, True, "", "a", "auto", "rate", "relu", "smooth_sin",
                              "null_variable"])
           | st.lists(st.integers(-3, 12), max_size=4))
    def test_fuzzed_config_through_every_command(self, path, value):
        cfg = base_config(".", n=40)
        cfg["data"]["generator"]["base"] = {"kind": "linear", "beta": [1.0, 0.0]}
        cfg["training"] = {"epochs": 3, "batch_size": 10}
        cfg["test"] = {"m": 4, "n_p": 10, "null_samples_csv": True}
        cfg["diagnostics"] = {
            "complexity": {"width": 3, "d": 2, "n_list": [10, 20, 40], "n_eps": 5, "n_class": 3},
            "approximation": {"widths": [2, 3, 4], "n": 40,
                              "training": {"epochs": 3, "batch_size": 10}}}
        section = cfg
        for name in path[:-1]:
            section = section.setdefault(name, {})
        section[path[-1]] = value
        keys = set(table_paths(cli._KEYS))
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # a fuzzed output.dir or data.path is relative to it
            try:
                config = write_config(Path(tmp), cfg)
                for command in ("generate", "train", "test", "diagnose"):
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(err):
                        code = main([command, "--config", config])
                    assert code in (0, 2, 3, 4), (command, err.getvalue())
                    assert "Traceback" not in err.getvalue()
                    if code == 2:
                        head = err.getvalue().partition(": ")[2].partition(": ")[0]
                        assert tuple(head.split(".")) in keys, (command, err.getvalue())
            finally:
                os.chdir(cwd)


class TestDiagnoseCommand:
    def test_empty_sections_exit_zero(self, tmp_path):
        cfg = {"seed": 1, "output": {"dir": str(tmp_path)}, "diagnostics": {}}
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 0
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert payload["diagnostics"] == {}
        assert not (tmp_path / "complexity.csv").exists()
        assert not (tmp_path / "approximation.csv").exists()

    def test_complexity_section(self, tmp_path):
        cfg = {
            "seed": 2,
            "output": {"dir": str(tmp_path)},
            "diagnostics": {
                "complexity": {"width": 4, "d": 2, "n_list": [100, 200, 400],
                               "n_eps": 50, "n_class": 10}
            },
        }
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 0
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        comp = payload["diagnostics"]["complexity"]
        assert comp["n_values"] == [100, 200, 400]
        assert comp["log_log_slope"] < 0
        rows = (tmp_path / "complexity.csv").read_text().strip().splitlines()
        assert rows[0] == "n,estimate"
        assert len(rows) == 4

    def test_empty_complexity_section_runs_with_defaults(self, tmp_path):
        cfg = {"output": {"dir": str(tmp_path)}, "diagnostics": {"complexity": {}}}
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 0
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert payload["diagnostics"]["complexity"]["n_values"] == [250, 1000, 4000]
        rows = (tmp_path / "complexity.csv").read_text().strip().splitlines()
        assert rows[0] == "n,estimate" and len(rows) == 4

    def test_complexity_sample_sizes_below_one(self, tmp_path, capsys):
        for n_list in ([-1, 2, 3], [0, 2, 3]):
            cfg = {"output": {"dir": str(tmp_path)},
                   "diagnostics": {"complexity": {"width": 4, "d": 2, "n_list": n_list,
                                                  "n_eps": 20, "n_class": 4}}}
            assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 2
            err = capsys.readouterr().err
            assert "diagnostics.complexity: n_list" in err and "Traceback" not in err
            assert not (tmp_path / "complexity.csv").exists()

    @staticmethod
    def too_large_for_memory(tmp_path, capsys, monkeypatch, n_eps, n_class):
        """The message of a complexity study that exits 4, out of memory,
        before any network is sampled and with no file written."""
        def no_sampling(*args):
            raise AssertionError("networks sampled before the outputs were allocated")

        monkeypatch.setattr(nnsig.diagnostics, "sample_networks", no_sampling)
        cfg = {"output": {"dir": str(tmp_path)}, "diagnostics": {"complexity": {
            "width": 2, "n_list": [10, 20, 40], "n_eps": n_eps, "n_class": n_class}}}
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        return err

    @pytest.mark.parametrize("n_class", [10 ** 15, 2 ** 62])
    def test_class_too_large_for_memory_is_exit_4(self, tmp_path, capsys, monkeypatch, n_class):
        # its outputs are allocated before any network is sampled; numpy
        # refuses both sizes at once: 2**62 past the index range, 10**15
        # networks of 40 outputs past any address space
        self.too_large_for_memory(tmp_path, capsys, monkeypatch, 2, n_class)

    @pytest.mark.parametrize("n_eps", [2 ** 62, 1e308])
    def test_signs_too_large_for_memory_is_exit_4(self, tmp_path, capsys, monkeypatch, n_eps):
        # room for the (n_eps, n) Rademacher signs is tried before the class
        # is sampled: 2**62 draws of 40 signs are past numpy's index range,
        # and 1e308 past a C long
        err = self.too_large_for_memory(tmp_path, capsys, monkeypatch, n_eps, 2)
        assert err.startswith(f"out of memory: n_eps = {reprlib.repr(int(n_eps))} Rademacher draws")

    @pytest.mark.parametrize("n_eps, n_class", [(0, 3), (2, 0), (2, -5)])
    def test_complexity_class_sizes_below_one(self, tmp_path, capsys, n_eps, n_class):
        cfg = {"output": {"dir": str(tmp_path)}, "diagnostics": {"complexity": {
            "width": 2, "n_list": [10, 20, 40], "n_eps": n_eps, "n_class": n_class}}}
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: diagnostics.complexity: n_eps and n_class")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_estimate_is_a_numerical_error(self, tmp_path, capsys):
        # a relu network of width 1 whose outputs are all 0: every estimate
        # is 0.0, whose log gave a NaN slope after two RuntimeWarnings
        cfg = {"seed": 2, "output": {"dir": str(tmp_path / "out")},
               "diagnostics": {"complexity": {
                   "width": 1, "depth": 2, "activation": "relu", "n_class": 1,
                   "n_list": [10, 20, 40], "n_eps": 5}}}
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 4
        assert capsys.readouterr().err == (
            "numerical error: the error at x = 10 is 0.0, not positive and finite, "
            "so it has no logarithm for the log-log slope\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_failing_study_leaves_no_output(self, tmp_path, capsys):
        cfg = {"output": {"dir": str(tmp_path)}, "diagnostics": {
            "complexity": {"width": 2, "d": 2, "n_list": [10, 20, 40], "n_eps": 5, "n_class": 3},
            "approximation": {"widths": [4, 4, 8], "n": 100}}}
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 2
        assert "diagnostics.approximation: widths" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_approximation_widths_error_names_section(self, tmp_path, capsys):
        cfg = {"output": {"dir": str(tmp_path)},
               "diagnostics": {"approximation": {"widths": [4, 2, 8], "n": 100}}}
        assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "diagnostics.approximation: widths must be strictly increasing" in err
        assert "Traceback" not in err
        assert not (tmp_path / "approximation.csv").exists()

    def test_every_width_diverging_is_a_numerical_error(self, tmp_path, capsys):
        cfg = {"output": {"dir": str(tmp_path)}, "diagnostics": {"approximation": {
            "n": 600, "widths": [2, 3, 4],
            "training": {"epochs": 3, "learning_rate": 1e300, "lr_decay": 1.0}}}}
        with pytest.warns(UserWarning, match="diverged and is excluded"):
            assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: widths [2, 3, 4] diverged")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_failing_study_removes_the_output_directories_it_made(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "old.txt").write_text("kept\n", encoding="utf-8")
        cfg = {"output": {"dir": str(tmp_path / "out" / "new"),
                          "approximation_csv": "csv/approximation.csv"},
               "diagnostics": {"approximation": {
                   "n": 600, "widths": [2, 3, 4],
                   "training": {"epochs": 3, "learning_rate": 1e300, "lr_decay": 1.0}}}}
        with pytest.warns(UserWarning, match="diverged and is excluded"):
            assert main(["diagnose", "--config", write_config(tmp_path, cfg)]) == 4
        assert capsys.readouterr().err.startswith("numerical error: widths [2, 3, 4] diverged")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["old.txt"]


def cfg_out(cfg):
    return Path(cfg["output"]["dir"])

