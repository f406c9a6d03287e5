"""Synthetic data generation on [-1,1]^d and CSV ingestion with rescaling.

Synthetic responses follow y = f(x) + eps with x uniform on the cube and
eps a centered normal truncated at +/-4 sigma, so |y| stays bounded by
sup|f| + 4 sigma. Real CSV covariates are affinely rescaled per column to
[-1,1] and the transform is recorded on the dataset.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, IngestionError, InputError
from .seeding import generator, truncated_normal


@dataclass
class Dataset:
    X: np.ndarray  # (n, d), entries in [-1, 1]
    y: np.ndarray  # (n,)
    rescale_transform: list | None = None  # per-column (center, half_range)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class TargetSpec:
    """Regression target. Kinds:

    - "linear": f(x) = beta . x + intercept
    - "smooth_sin": f(x) = sum over k with frequency[k] != 0 of sin(pi * frequency[k] * x_k)
    - "null_variable": evaluate ``base`` with coordinate ``dead_index`` forced
      to 0, so df/dx_j vanishes identically.
    """

    kind: str
    beta: tuple | None = None
    intercept: float = 0.0
    frequency: tuple | None = None
    base: "TargetSpec | None" = None
    dead_index: int | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "smooth_sin", "null_variable"):
            raise ConfigurationError(f"unknown target kind {self.kind!r}")
        if self.kind == "null_variable" and (self.base is None or self.dead_index is None):
            raise ConfigurationError("null_variable needs a base spec and a dead index")
        required = {"linear": "beta", "smooth_sin": "frequency"}.get(self.kind)
        if required is not None and getattr(self, required) is None:
            raise ConfigurationError(f"{self.kind} target needs {required!r}")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be nonnegative")

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            beta = np.asarray(self.beta, dtype=np.float64)
            if beta.size != X.shape[1]:
                raise ConfigurationError(
                    f"beta has length {beta.size}, data has dimension {X.shape[1]}"
                )
            return X @ beta + self.intercept
        if self.kind == "smooth_sin":
            freq = np.asarray(self.frequency, dtype=np.float64)
            if freq.size != X.shape[1]:
                raise ConfigurationError(
                    f"frequency has length {freq.size}, data has dimension {X.shape[1]}"
                )
            out = np.zeros(X.shape[0])
            for k in range(freq.size):
                if freq[k] != 0.0:
                    out += np.sin(np.pi * freq[k] * X[:, k])
            return out
        # null_variable
        if not 0 <= self.dead_index < X.shape[1]:
            raise ConfigurationError(
                f"dead_index {self.dead_index} out of range for dimension d={X.shape[1]}"
            )
        Xz = X.copy()
        Xz[:, self.dead_index] = 0.0
        return self.base.evaluate(Xz)


def uniform_cube(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points uniform on [-1,1]^d; a shape no array can hold is out of memory."""
    try:
        return rng.uniform(-1.0, 1.0, (n, d))
    except ValueError:  # numpy's "array is too big": n * d * 8 bytes overflow
        raise MemoryError(f"n = {n} rows of d = {d} covariates fit in no array") from None


def generate(spec: TargetSpec, n: int, d: int, seed: int) -> Dataset:
    """Draw X uniform on [-1,1]^d and y = f(X) + truncated normal noise."""
    if n < 1 or d < 1:
        raise ConfigurationError("n and d must be positive")
    rng = generator(seed)
    X = uniform_cube(rng, n, d)
    f = spec.evaluate(X)
    sigma = spec.noise_sigma
    y = f + truncated_normal(rng, n, sigma, 4 * sigma) if sigma > 0 else f
    return Dataset(X, y)


def load_csv(path, target_column: str) -> Dataset:
    """Read a headered numeric CSV, rescale covariates to [-1,1] per column.

    Data rows are numbered from 1 in error messages. Columns with zero range
    cannot be rescaled and are rejected, as is a file with no column besides
    the target and a header that names a column twice (a repeated target
    would enter X; errors could not say which copy they mean). A file that
    cannot be opened or decoded as UTF-8, or that the csv module cannot
    parse, is an ``IngestionError`` too.
    """
    header, rows = None, []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty file")
            repeated = [name for name, count in Counter(header).items() if count > 1]
            if repeated:
                raise IngestionError(f"{path}: header repeats column {repeated[0]!r}")
            if target_column not in header:
                raise IngestionError(f"{path}: missing target column {target_column!r}")
            if len(header) == 1:
                raise IngestionError(
                    f"{path}: no covariate column, only the target {target_column!r}"
                )
            t_idx = header.index(target_column)
            for rownum, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise IngestionError(
                        f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}"
                    )
                vals = []
                for col, cell in zip(header, row):
                    cell = cell.strip()
                    if cell == "":
                        raise IngestionError(
                            f"{path}: missing value at row {rownum}, column {col!r}"
                        )
                    try:
                        val = float(cell)
                    except ValueError:
                        raise IngestionError(
                            f"{path}: non-numeric cell {cell!r} at row {rownum}, column {col!r}"
                        ) from None
                    if not math.isfinite(val):
                        raise IngestionError(
                            f"{path}: non-finite cell {cell!r} at row {rownum}, column {col!r}"
                        )
                    vals.append(val)
                rows.append(vals)
    except csv.Error as exc:
        where = "the header" if header is None else f"row {len(rows) + 1}"
        raise IngestionError(f"{path}: malformed CSV at {where}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    data = np.array(rows, dtype=np.float64)
    y = data[:, t_idx]
    X_raw = np.delete(data, t_idx, axis=1)
    cov_names = [c for i, c in enumerate(header) if i != t_idx]

    transform = []
    X = np.empty_like(X_raw)
    for jcol, name in enumerate(cov_names):
        lo, hi = X_raw[:, jcol].min(), X_raw[:, jcol].max()
        if hi == lo:
            raise IngestionError(f"{path}: constant covariate column {name!r} (zero range)")
        with np.errstate(over="ignore"):
            center = (hi + lo) / 2.0
            half = (hi - lo) / 2.0
        if not (np.isfinite(center) and np.isfinite(half)):
            # hi + lo or hi - lo overflows for cells near the float range;
            # halving first is exact there
            center = hi / 2.0 + lo / 2.0
            half = hi / 2.0 - lo / 2.0
        X[:, jcol] = (X_raw[:, jcol] - center) / half
        transform.append((center, half))
    return Dataset(X, y, rescale_transform=transform)


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row of Python ints and floats,
    each as its repr, which reads back as the same number."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset with header x1..xd,y."""
    header = [f"x{k + 1}" for k in range(dataset.d)] + ["y"]
    write_csv(path, header, np.column_stack((dataset.X, dataset.y)).tolist())


def split(dataset: Dataset, train_fraction: float, seed: int):
    """Seeded disjoint row split; transforms carried through."""
    if not (0.0 < train_fraction < 1.0):
        raise ConfigurationError(f"train fraction {train_fraction} outside (0, 1)")
    order = generator(seed).permutation(dataset.n)
    k = int(round(dataset.n * train_fraction))
    k = min(max(k, 1), dataset.n - 1)
    tr, te = order[:k], order[k:]
    mk = lambda idx: Dataset(
        dataset.X[idx].copy(),
        dataset.y[idx].copy(),
        rescale_transform=dataset.rescale_transform,
    )
    return mk(tr), mk(te)
