import ast
from pathlib import Path

import numpy as np
import pytest

import nnsig
from nnsig.network import init_glorot
from nnsig.seeding import generator, stream

SRC = Path(nnsig.__file__).parent
RANDOM_CONSTRUCTORS = {"SeedSequence", "PCG64", "Generator", "default_rng", "RandomState"}

# 0, the largest unmasked seed, and one whose low 63 bits span two words
SEEDS = (0, 2 ** 63 - 1, 2 ** 70 + 2 ** 62 + 12345)


def _callee(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_seeding_constructs_random_streams(path):
    if path.name == "seeding.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [f"line {node.lineno}: {_callee(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _callee(node) in RANDOM_CONSTRUCTORS]
    assert calls == []


def _masked(seed):
    return np.random.SeedSequence(seed & (2 ** 63 - 1))


def _state(seed_sequence):
    return np.random.Generator(np.random.PCG64(seed_sequence)).bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_match_the_spawn_derivations_they_replace(seed):
    root = _masked(seed)
    # data.generate and data.split
    assert generator(seed).bit_generator.state == _state(_masked(seed))
    # fit_least_squares and estimate_rademacher: spawn(2) of the root
    for i, child in enumerate(root.spawn(2)):
        assert generator(seed, i).bit_generator.state == _state(child)
    # a Rademacher class: spawn(count) of the root's first child
    for k, child in enumerate(_masked(seed).spawn(2)[0].spawn(5)):
        assert generator(seed, 0, k).bit_generator.state == _state(child)
    # sampled networks, null draws and complexity-study covariates
    for key in ((0, 7), (1, 0), (1, 2 ** 32 + 3), (2, 1)):
        want = np.random.SeedSequence(seed & (2 ** 63 - 1), spawn_key=key)
        assert stream(seed, *key).generate_state(4).tolist() == want.generate_state(4).tolist()
        assert generator(seed, *key).bit_generator.state == _state(want)


def test_negative_seed_is_masked_like_every_other_entry_point():
    a = init_glorot((3, 4, 1), "tanh", -1)
    b = init_glorot((3, 4, 1), "tanh", 2 ** 63 - 1)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)

