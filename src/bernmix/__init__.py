"""Bernstein polynomial (beta mixture) density estimation.

Estimates a univariate density from grouped (binned) or raw continuous
data on a truncated support: the density is modeled as a mixture of the
m+1 beta densities beta(j+1, m-j+1), the mixture proportions are fitted
by EM (em_raw, em_grouped), and the degree m is chosen by a change-point
scan over the loglikelihood gains of the nested models, each fitted to a
certified optimality gap by an active-set SQP solver (select_degree).
Baseline estimators (normal kernel, parametric grouped MLE) and a Monte
Carlo MISE harness round out the toolkit.
"""

__version__ = "0.1.0"

from .basis import basis_matrix, beta_cdf, beta_density, cdf_matrix, degree_elevate
from .model import (
    BernsteinMixture,
    GroupedSample,
    SimplexWeights,
    cell_probabilities,
    to_unit,
)
from .likelihood import (
    RawSample,
    loglik_grouped,
    loglik_raw,
    rounded_to_grouped,
)
from .em import EmConfig, FitReport, em_grouped, em_raw
from .select import (
    DegreeSelectionTrace,
    change_point,
    lower_bound_degree,
    select_degree,
)
from .baselines import (
    KernelDensity,
    ParametricFamily,
    ParametricFit,
    beta_one_family,
    exponential_family,
    kernel_density,
    logistic_family,
    normal_family,
    pareto_family,
    parametric_mle_grouped,
    rule_of_thumb_bandwidth,
)
from .sim import (
    MiseReport,
    ScenarioSpec,
    acceptance_rejection_diag,
    generate,
    group,
    integrated_squared_error,
    mise,
    scenario_distribution,
)
from .errors import DegenerateDataError, HarnessError, SelectionError

__all__ = [
    "__version__",
    "basis_matrix",
    "beta_cdf",
    "beta_density",
    "cdf_matrix",
    "degree_elevate",
    "BernsteinMixture",
    "GroupedSample",
    "SimplexWeights",
    "cell_probabilities",
    "to_unit",
    "RawSample",
    "loglik_grouped",
    "loglik_raw",
    "rounded_to_grouped",
    "EmConfig",
    "FitReport",
    "em_grouped",
    "em_raw",
    "DegreeSelectionTrace",
    "change_point",
    "lower_bound_degree",
    "select_degree",
    "KernelDensity",
    "ParametricFamily",
    "ParametricFit",
    "beta_one_family",
    "exponential_family",
    "kernel_density",
    "logistic_family",
    "normal_family",
    "pareto_family",
    "parametric_mle_grouped",
    "rule_of_thumb_bandwidth",
    "MiseReport",
    "ScenarioSpec",
    "acceptance_rejection_diag",
    "generate",
    "group",
    "integrated_squared_error",
    "mise",
    "scenario_distribution",
    "DegenerateDataError",
    "HarnessError",
    "SelectionError",
]
