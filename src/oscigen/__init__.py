"""Transition probabilities, sum rules and excitation parameters for quantum
oscillators with time-dependent driving or frequency.

Three families are covered: the harmonically forced oscillator (excitation
parameter nu), the variable-frequency oscillator (parameter rho) and the
singular oscillator with an inverse-square barrier (parameter rho plus the
level weight j).  Units are hbar = m = 1 throughout.

The public names below are resolved on first access (PEP 562), so
``import oscigen`` loads no submodule and a command-line call imports only
the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "domains": ("FLOAT", "POLY", "RatPoly"),
    "series": ("Series2", "dft_extract_table"),
    "quadrature": ("QuadRule", "gauss_jacobi_half", "gauss_laguerre", "gauss_legendre"),
    "probtable": ("ProbTable",),
    "forced": ("NuParam", "forced_gf_value", "forced_prob_table", "forced_sk", "forced_sum_rules"),
    "parametric": (
        "RhoParam",
        "param_gf_value",
        "param_identity_eq6",
        "param_j_offdiag",
        "param_jnn",
        "param_mean_n",
        "param_dispersion",
        "param_prob_table",
        "param_sk",
        "param_weighted_integrals",
    ),
    "singular": (
        "WeightJ",
        "adiabatic_diag",
        "energy_level",
        "ground_row",
        "j_from_g",
        "lambda_value",
        "singular_gf_value",
        "singular_prob_table",
    ),
    "profiles": ("ForceProfile", "FrequencyProfile", "load_profile"),
    "excitation": ("BogoliubovResult", "bogoliubov_from_frequency", "excitation_report", "nu_from_force"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
