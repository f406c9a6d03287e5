"""The report writer: ``report.json`` keeps the bytes of
``json.dumps(indent=2, sort_keys=True)`` while each distinct float of a list
is formatted once, keyed by its bits."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnsig import cli
from nnsig.cli import main

EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, float("inf"), float("-inf"),
         float("nan"), 1e308, 0.1, 1.0]

# Strings that look like the JSON the writer lays out around them, or like
# the placeholder a substituting writer might use.
_HOSTILE = ["", '"', "\\", "\n", "\x00", "[", "],", "{}", "NaN", "-0.0", "0.0", ": ",
            '"0.0"', " ", "\U0001f600", "__floats_0__", "\x00floats\x00"]

floats = st.floats() | st.sampled_from(EDGES)
# a float list with repeats: values drawn from a small pool, as null samples
# repeat the statistic of each selected network
float_lists = st.lists(floats, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=30))
texts = st.text(max_size=6) | st.sampled_from(_HOSTILE)
leaves = (st.none() | st.booleans() | st.integers() | floats | texts | float_lists
          | st.lists(st.integers() | floats | st.booleans(), max_size=6))
payloads = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(texts, inner, max_size=4), max_leaves=20)


def bits(values) -> list:
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def written(payload) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        cli._write_json(path, cli._json_chunks(payload))
        return path.read_bytes().decode("utf-8")


@settings(max_examples=300, deadline=None)
@given(payload=payloads)
@example(payload={"results": [{"null_samples": [0.0, -0.0, 0.0, -0.0]}]})
@example(payload={"a": [-0.0, 0.0], "b": {"c": [[0.0, -0.0, float("nan")], [], [1.0]]}})
@example(payload={'"0.0"': ["-0.0", -0.0, 0, 0.0], "": {"\x00": [5e-324, -5e-324, 5e-324]}})
@example(payload={"tuples": ((0.0, -0.0), (), (1, 2.5)), "non-string keys": {1: [-0.0], 2.5: {}}})
def test_writer_equals_json_dumps(payload):
    assert written(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_fine_null_like_report(tmp_path, monkeypatch):
    """Many repeated null samples, with the edge floats appended to each
    variable's, keep their bits in report.json."""
    def with_edges(*args):
        return [dataclasses.replace(res, null_samples=res.null_samples + EDGES)
                for res in tests(*args)]

    tests = cli.significance_tests
    monkeypatch.setattr(cli, "significance_tests", with_edges)
    cfg = {"seed": 5, "output": {"dir": str(tmp_path)},
           "data": {"generator": {"kind": "linear", "beta": [1.0, 0.3, 0.0],
                                  "noise_sigma": 0.1, "n": 200, "d": 3}},
           "architecture": {"width": 4}, "training": {"epochs": 5},
           "test": {"m": 40, "n_p": 3000}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["test", "--config", str(config)]) == 0
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    for res in report["results"]:
        samples = res["null_samples"]
        assert len(samples) == 3000 + len(EDGES)
        assert len(set(samples[:3000])) <= report["null"]["distinct_selected"]
        assert bits(samples[3000:]) == bits(EDGES)
