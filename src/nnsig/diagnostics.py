"""Monte-Carlo diagnostics: Rademacher complexity estimates and empirical
scaling experiments for complexity and approximation error.

The supremum over the network class is approximated by a max over a finite
sample of networks, so every estimate here is a lower bound on the population
quantity; the scaling laws are still testable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, TargetSpec, generate, split, uniform_cube
from .exceptions import ConfigurationError, DivergenceError, NumericalError, allocate
from .network import Network, forward_batch, sample_networks
from .seeding import generator, generators
from .training import ArchSpec, TrainConfig, fit_least_squares


@dataclass
class RademacherEstimate:
    value: float
    std_error: float


@dataclass
class RateReport:
    x_values: list
    errors: list
    log_log_slope: float
    slope_stderr: float


def loglog_slope(x_values, errors):
    """OLS slope of log(error) on log(x) plus its standard error."""
    lx = np.log(np.asarray(x_values, dtype=np.float64))
    ly = np.log(np.asarray(errors, dtype=np.float64))
    if lx.size < 3:
        raise ConfigurationError("need at least 3 points for a slope estimate")
    xbar = lx.mean()
    sxx = float(((lx - xbar) ** 2).sum())
    slope = float(((lx - xbar) * (ly - ly.mean())).sum() / sxx)
    intercept = float(ly.mean() - slope * xbar)
    resid = ly - (intercept + slope * lx)
    dof = lx.size - 2
    stderr = math.sqrt(float((resid ** 2).sum()) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


def _evaluate(fn, X: np.ndarray) -> np.ndarray:
    if isinstance(fn, Network):
        return forward_batch(fn, X)
    return np.asarray(fn(X), dtype=np.float64)


def _check_class(n_eps: int, n_class: int, n: int) -> None:
    """Both sizes at least 1, and room for the (n_eps, n) signs that
    ``_rademacher`` draws: tried before the class is sampled, so that an n_eps
    no array can hold is out of memory at once, naming n_eps."""
    if n_eps < 1 or n_class < 1:
        raise ConfigurationError("n_eps and n_class must be at least 1")
    allocate((n_eps, n), f"n_eps = {n_eps} Rademacher draws of n = {n} signs")


def _rademacher(outputs: np.ndarray, n_eps: int, seed: int) -> RademacherEstimate:
    """The estimate of ``estimate_rademacher`` from the class's outputs, (n_class, n)."""
    n = outputs.shape[1]
    rng = generator(seed, 1)
    eps = rng.choice(np.array([-1.0, 1.0]), size=(n_eps, n))
    sups = np.abs(eps @ outputs.T / n).max(axis=1)  # (n_eps,)
    value = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(n_eps)) if n_eps > 1 else 0.0
    return RademacherEstimate(value, stderr)


def estimate_rademacher(class_sampler, X, n_eps: int, n_class: int,
                        seed: int) -> RademacherEstimate:
    """Mean over n_eps Rademacher draws of max over n_class sampled functions
    of |(1/n) sum_i eps_i f(X_i)|; a lower bound on the class supremum."""
    X = np.asarray(X, dtype=np.float64)
    _check_class(n_eps, n_class, len(X))
    fns = class_sampler(n_class, seed)
    return _rademacher(np.stack([_evaluate(f, X) for f in fns]), n_eps, seed)


def approximation_rate_experiment(target_spec: TargetSpec, widths, n: int,
                                  train_cfg: TrainConfig, seed: int,
                                  depth: int = 2, activation: str = "tanh",
                                  d: int = 2) -> RateReport:
    """Held-out RMSE of fitted networks against a noiseless target, per width.

    Uses a 50/50 split; widths whose training diverges are excluded from the
    regression with a warning, and a NumericalError names them when fewer
    than 3 widths are left for the slope.
    """
    widths = list(widths)
    if len(widths) < 3 or any(b <= a for a, b in zip(widths, widths[1:])):
        raise ConfigurationError("widths must be strictly increasing with >= 3 entries")
    dataset = generate(target_spec, n, d, seed)
    train, test = split(dataset, 0.5, seed + 1)

    xs, errs, diverged = [], [], []
    for width in widths:
        arch = ArchSpec(depth=depth, width=width, activation=activation)
        try:
            fitted = fit_least_squares(train, arch, train_cfg)
        except DivergenceError as exc:
            warnings.warn(f"width {width} diverged and is excluded: {exc}")
            diverged.append(width)
            continue
        pred = forward_batch(fitted.net, test.X)
        rmse = float(np.sqrt(np.mean((pred - test.y) ** 2)))
        xs.append(width)
        errs.append(rmse)
    if len(xs) < 3:
        raise NumericalError(f"widths {diverged} diverged, leaving {len(xs)} of the "
                             "3 a slope estimate needs")
    slope, stderr = loglog_slope(xs, errs)
    return RateReport(x_values=xs, errors=errs, log_log_slope=slope, slope_stderr=stderr)


def complexity_scaling_experiment(layer_dims, n_list, seed: int,
                                  n_eps: int = 200, n_class: int = 50,
                                  activation: str = "sigmoid") -> RateReport:
    """Rademacher estimates for a fixed sampled class across sample sizes;
    the log-log slope should sit near -1/2."""
    n_list = list(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigurationError("n_list must be strictly increasing with >= 3 entries")
    if n_list[0] < 1:
        raise ConfigurationError(f"n_list sample sizes must be at least 1, got {n_list[0]}")
    _check_class(n_eps, n_class, n_list[-1])
    # allocated first, so that an n_class no array can hold is out of memory at
    # once; the outputs at each n are its first n_class * n elements
    block = allocate((n_class, n_list[-1]), f"n_class = {n_class} networks of "
                                            f"n = {n_list[-1]} outputs").reshape(-1)
    nets = sample_networks(n_class, layer_dims, activation, seed)
    estimates = []
    for n, rng in zip(n_list, generators(seed, 2, 0, len(n_list))):
        X = uniform_cube(rng, n, layer_dims[0])
        outputs = block[:n_class * n].reshape(n_class, n)
        for k, f in enumerate(nets):
            outputs[k] = forward_batch(f, X)
        estimates.append(_rademacher(outputs, n_eps, seed))
    errs = [e.value for e in estimates]
    slope, stderr = loglog_slope(n_list, errs)
    return RateReport(x_values=n_list, errors=errs, log_log_slope=slope, slope_stderr=stderr)
