"""Significance testing of input variables in least-squares-trained MLPs.

The statistic for variable j is the sample mean of the squared partial
derivative of the fitted network with respect to x_j; its null distribution
is discretized by sampling networks, forming their Gram covariance, and
selecting argmax coordinates of multivariate normal draws.
"""

__version__ = "0.1.0"

from .data import Dataset, TargetSpec, generate, load_csv, split
from .exceptions import (
    ConfigurationError,
    DivergenceError,
    FormatError,
    IngestionError,
    InputError,
    NnsigError,
    NumericalError,
)
from .network import (
    MomentCertificate,
    Network,
    forward,
    forward_batch,
    init_glorot,
    input_gradient,
    input_gradient_batch,
    linear_network,
    load,
    output_and_gradient,
    sample_networks,
    save,
    second_moment,
)
from .nulldist import (
    CovMatrix,
    NullConfig,
    TestResult,
    cholesky_with_jitter,
    empirical_covariance,
    p_value_from_null,
    shrink,
    significance_test,
    significance_tests,
)
from .significance import VariableStatistic, all_statistics
from .training import (
    ArchSpec,
    FittedModel,
    TrainConfig,
    fit_least_squares,
    quadratic_loss,
    width_schedule,
)
