"""Average achievable data rate of short-packet ground-to-UAV control links.

Three mutually cross-checking estimators over a 3-D elevation-dependent
air-to-ground channel: seeded Monte Carlo, nested Gauss-Legendre quadrature
and a closed-form Jensen lower bound.
"""

from .bound import (
    aadr_lower_bound,
    d_max,
    exp_integral_ei,
    expected_inverse_snr,
    f_penalized,
    g1_threshold,
    g2_threshold,
    g_bound,
    g_inverse,
    min_snr_for_valid_rate,
)
from .channel import (
    DerivedConstants,
    LinkBudget,
    Scenario,
    derive_constants,
    los_probability,
    mean_path_loss_db,
    snr,
)
from .config import (
    PRESET_NAMES,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    load_preset,
    preset_config,
)
from .fbl_rate import (
    FblConfig,
    achievable_rate,
    dispersion,
    q_function,
    q_inverse,
    shannon_rate,
)
from .geometry import (
    Airspace,
    cdf_distance,
    pdf_distance,
    pdf_elevation,
    sample_positions,
)
from .lemmas import run_lemma_suite
from .montecarlo import (
    McEstimate,
    estimate_aadr,
    estimate_inverse_snr,
    estimate_shannon,
)
from .quadrature import QuadratureRule, aadr_gcq, integrate, legendre_rule

__version__ = "0.1.0"

__all__ = [
    "Airspace",
    "DerivedConstants",
    "FblConfig",
    "LinkBudget",
    "McEstimate",
    "PRESET_NAMES",
    "QuadratureRule",
    "RunConfig",
    "Scenario",
    "aadr_gcq",
    "aadr_lower_bound",
    "achievable_rate",
    "cdf_distance",
    "config_from_dict",
    "config_to_dict",
    "d_max",
    "derive_constants",
    "dispersion",
    "estimate_aadr",
    "estimate_inverse_snr",
    "estimate_shannon",
    "exp_integral_ei",
    "expected_inverse_snr",
    "f_penalized",
    "g1_threshold",
    "g2_threshold",
    "g_bound",
    "g_inverse",
    "integrate",
    "legendre_rule",
    "load_config",
    "load_preset",
    "los_probability",
    "mean_path_loss_db",
    "min_snr_for_valid_rate",
    "pdf_distance",
    "pdf_elevation",
    "preset_config",
    "q_function",
    "q_inverse",
    "run_lemma_suite",
    "sample_positions",
    "shannon_rate",
    "snr",
]
