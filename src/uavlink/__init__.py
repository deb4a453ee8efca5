"""Average achievable data rate of short-packet ground-to-UAV control links.

Three mutually cross-checking estimators over a 3-D elevation-dependent
air-to-ground channel: seeded Monte Carlo, nested Gauss-Legendre quadrature
and a closed-form Jensen lower bound.

The package is lazy (PEP 562): `import uavlink` loads no submodule and not
numpy, and the first lookup of a public name imports the one submodule that
defines it. Importing the package never touches the environment.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(("aadr_lower_bound", "d_max", "exp_integral_ei", "expected_inverse_snr",
                     "g_inverse"), "bound"),
    **dict.fromkeys(("DerivedConstants", "LinkBudget", "Scenario", "derive_constants", "snr"),
                    "channel"),
    **dict.fromkeys(("PRESET_NAMES", "RunConfig", "config_from_dict", "config_to_dict",
                     "load_config", "load_preset", "preset_config"), "config"),
    **dict.fromkeys(("FblConfig", "achievable_rate", "q_inverse", "shannon_rate"), "fbl_rate"),
    **dict.fromkeys(("Airspace", "sample_positions"), "geometry"),
    "run_lemma_suite": "lemmas",
    **dict.fromkeys(("McEstimate", "estimate_aadr", "estimate_shannon"), "montecarlo"),
    **dict.fromkeys(("QuadratureRule", "aadr_gcq", "integrate", "legendre_rule"),
                    "quadrature"),
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
