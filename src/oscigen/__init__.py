"""Transition probabilities, sum rules and excitation parameters for quantum
oscillators with time-dependent driving or frequency.

Three families are covered: the harmonically forced oscillator (excitation
parameter nu), the variable-frequency oscillator (parameter rho) and the
singular oscillator with an inverse-square barrier (parameter rho plus the
level weight j).  Units are hbar = m = 1 throughout.
"""

from .domains import FLOAT, POLY, RatPoly
from .series import Series2, dft_extract_table
from .quadrature import QuadRule, gauss_jacobi_half, gauss_laguerre, gauss_legendre
from .probtable import ProbTable
from .forced import NuParam, forced_gf_value, forced_prob_table, forced_sk, forced_sum_rules
from .parametric import (
    RhoParam,
    param_gf_value,
    param_identity_eq6,
    param_j_offdiag,
    param_jnn,
    param_mean_n,
    param_dispersion,
    param_prob_table,
    param_sk,
    param_weighted_integrals,
)
from .singular import (
    WeightJ,
    adiabatic_diag,
    energy_level,
    ground_row,
    j_from_g,
    lambda_value,
    singular_gf_value,
    singular_prob_table,
)
from .profiles import ForceProfile, FrequencyProfile, load_profile
from .excitation import (
    BogoliubovResult,
    bogoliubov_from_frequency,
    excitation_report,
    nu_from_force,
)

__version__ = "0.1.0"
