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

# each module's __all__, in its order
_EXPORTS = {
    "domains": ("RatPoly", "FLOAT", "POLY"),
    "series": ("MAX_WINDOW", "Series2", "check_window", "dft_extract_table", "forced_gf_value",
               "param_gf_value", "lambda_value", "singular_gf_value"),
    "quadrature": ("QuadRule", "gauss_legendre", "gauss_laguerre", "gauss_jacobi_half"),
    "probtable": ("ProbTable", "make_table"),
    "forced": ("SumRuleRecord", "forced_prob_table", "forced_sum_rules", "forced_sk"),
    "parametric": ("param_prob_table", "param_identity_eq6", "param_weighted_integrals",
                   "param_jnn", "param_j_offdiag", "param_sk", "param_mean_n",
                   "param_dispersion", "param_row_moments"),
    "singular": ("MIN_J", "AdiabaticRecord", "j_from_g", "energy_level", "singular_prob_table",
                 "ground_row", "adiabatic_diag"),
    "profiles": ("ForceProfile", "FrequencyProfile", "load_profile", "ProfileError"),
    "excitation": ("BogoliubovResult", "ExcitationReport", "nu_from_force",
                   "bogoliubov_from_frequency", "excitation_report"),
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
