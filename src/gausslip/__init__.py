"""Operator calculus for Gaussian harmonic analysis.

Hermite expansions, the Ornstein-Uhlenbeck and Poisson-Hermite semigroups in
spectral / kernel / subordination representations, Bessel and Riesz
fractional integrals and derivatives, and numerical probes of Lipschitz-space
boundedness, together with a verification CLI.
"""

from .errors import CancellationWarning, CatalogError, ConvergenceError, EvaluationError
from .quadrature import (
    QuadratureRule,
    gauss_hermite_rule,
    integrate_gaussian,
    integrate_halfline,
)
from .hermite import (
    HermiteExpansion,
    eval_expansion,
    expansion_from_json,
    expansion_to_json,
    graded_indices,
    hermite_eval,
    load_expansion,
    project,
    remove_mean,
    save_expansion,
)
from .semigroup import (
    SemigroupQuery,
    derivative_weight_mass,
    kernel_derivative_l1,
    mehler_kernel,
    ou_apply,
    ph_apply,
    ph_kernel,
    ph_kernel_time_derivative,
    stable_density,
)
from .forward_diff import (
    ForwardDifferenceQuery,
    difference_bound_probe,
    forward_difference,
    nested_integral_form,
)
from .fractional import (
    FractionalSpec,
    apply_fractional,
    c_beta_constant,
    c_beta_closed_form,
    eigenvalue_oracle,
)
from .lipschitz import (
    LipschitzEstimate,
    derivative_equivalence_probe,
    inclusion_probe,
    modulus_probe,
    operator_boundedness_probe,
    seminorm_estimate,
    sup_norm_estimate,
)
from .catalog import CatalogEntry, catalog_function
from .report import VerificationReport, write_report
from .suites import SuiteConfig, run_suite

__version__ = "0.1.0"
