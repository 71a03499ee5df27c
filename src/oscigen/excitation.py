"""Excitation parameters from physical time profiles.

For a driving force f(t) on a constant-frequency oscillator the excitation
parameter is the Fourier integral

    nu = (1 / 2 omega) | integral f(t) e^{-i omega t} dt |^2 .

For a variable frequency omega(t) the parameter rho comes from classical
scattering: the oscillator equation xi'' + omega^2(t) xi = 0 is integrated
from an in-state xi -> (2 omega_-)^{-1/2} e^{-i omega_- t} and projected at
late times onto (2 omega_+)^{-1/2} (alpha e^{-i omega_+ t} + beta
e^{+i omega_+ t}); then rho = |beta / alpha|^2 with |alpha|^2 - |beta|^2 = 1
up to the reported Wronskian residual.  A piecewise-constant (sudden-step)
profile is matched analytically; integrating a smooth-ODE method across a
discontinuity would only converge slowly to the same answer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .amplitude import forced_vacuum, singular_vacuum
from .errors import IntegrationError
from .forced import NuParam
from .ode import integrate_path
from .parametric import RhoParam
from .profiles import ForceProfile, FrequencyProfile
from .quadrature import gauss_legendre

__all__ = [
    "BogoliubovResult",
    "ExcitationReport",
    "nu_from_force",
    "bogoliubov_from_frequency",
    "excitation_report",
]


# ---------------------------------------------------------------------------
# nu from a driving force

def _force_fourier(profile: ForceProfile, omega: float) -> complex:
    """integral of f(t) e^{-i omega t} dt, closed form where available."""
    p = profile.params
    if profile.kind == "gaussian":
        mag = p["f0"] * p["tau"] * math.sqrt(math.pi) * math.exp(
            -(omega * p["tau"]) ** 2 / 4.0
        )
        return mag * cmath.exp(-1j * omega * p["t0"])
    if profile.kind == "rectangular":
        t_on, t_off = p["t_on"], p["t_off"]
        return (
            p["f0"]
            * (cmath.exp(-1j * omega * t_on) - cmath.exp(-1j * omega * t_off))
            / (1j * omega)
        )
    if profile.kind == "damped_cosine":
        g = p["gamma"]
        wd = p["omega_d"]
        return p["f0"] * (
            g / (g * g + (omega - wd) ** 2) + g / (g * g + (omega + wd) ** 2)
        )
    return _tabulated_fourier(profile, omega)


# Gauss nodes per spline evaluation in _tabulated_fourier: large enough to
# amortize the call, small enough to bound the node arrays (the per-panel
# start and width arrays still hold one entry per panel)
_FOURIER_BLOCK = 4096


def _tabulated_fourier(profile: ForceProfile, omega: float) -> complex:
    """Oscillation-safe quadrature of spline(t) e^{-i omega t}: fixed-order
    Gauss panels no longer than a sixteenth of the period, evaluated in
    blocks of _FOURIER_BLOCK nodes."""
    spline = profile.spline
    rule = gauss_legendre(8)
    period = 2.0 * math.pi / omega
    widths = np.diff(profile.times)
    pieces = np.maximum(1, np.ceil(widths / (period / 16.0))).astype(np.intp)
    # sample interval i splits into pieces[i] equal panels; panel j of it
    # starts at times[i] + j * width
    interval = np.repeat(np.arange(widths.size), pieces)
    j = np.arange(interval.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    width = (widths / pieces)[interval]
    lo = profile.times[interval] + j * width
    per_block = _FOURIER_BLOCK // rule.nodes.size
    total = 0.0 + 0.0j
    for start in range(0, lo.size, per_block):
        w = width[start:start + per_block, None]
        ts = lo[start:start + per_block, None] + w * rule.nodes
        f = spline(ts) * np.exp(-1j * omega * ts)
        # np.sum, not a complex matrix product: a threaded OpenBLAS zgemv
        # of this shape takes milliseconds
        total += complex(np.sum(w * rule.weights * f))
    return total


def nu_from_force(profile: ForceProfile, omega: float) -> NuParam:
    """Excitation parameter nu >= 0 of a decaying drive at frequency omega."""
    if not isinstance(profile, ForceProfile):
        raise TypeError("nu extraction needs a force profile")
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    amp = abs(_force_fourier(profile, omega))
    return NuParam(amp * amp / (2.0 * omega))


# ---------------------------------------------------------------------------
# rho from a frequency profile

@dataclass(frozen=True)
class BogoliubovResult:
    """Scattering coefficients of the classical oscillator equation."""

    alpha: complex
    beta: complex
    rho: float
    wronskian_residual: float
    steps: int
    tol: float

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise AssertionError(f"rho = {self.rho} outside [0, 1)")


def _project(omega: float, t: float, xi: complex, xip: complex) -> tuple[complex, complex]:
    # alpha, beta from instantaneous (xi, xi') against e^{-+ i omega t}
    root = math.sqrt(omega / 2.0)
    alpha = root * (xi + 1j * xip / omega) * cmath.exp(1j * omega * t)
    beta = root * (xi - 1j * xip / omega) * cmath.exp(-1j * omega * t)
    return alpha, beta


def _sudden_result(profile: FrequencyProfile, tol: float) -> BogoliubovResult:
    wm, wp = profile.params["omega_minus"], profile.params["omega_plus"]
    tj = profile.params["t_jump"]
    xi = cmath.exp(-1j * wm * tj) / math.sqrt(2.0 * wm)
    xip = -1j * wm * xi
    alpha, beta = _project(wp, tj, xi, xip)
    rho = abs(beta / alpha) ** 2
    residual = abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0)
    return BogoliubovResult(alpha, beta, rho, residual, 0, tol)


def bogoliubov_from_frequency(profile: FrequencyProfile,
                              tol: float = 1e-10) -> BogoliubovResult:
    """Scattering coefficients (alpha, beta) and rho = |beta/alpha|^2.

    The out-projection is taken once the frequency has settled to within
    1e-8 of omega_plus and is averaged over one final period to wash out
    residual ripple.
    """
    if not isinstance(profile, FrequencyProfile):
        raise TypeError("rho extraction needs a frequency profile")
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    if profile.kind == "constant":
        return BogoliubovResult(1.0 + 0.0j, 0.0j, 0.0, 0.0, 0, tol)
    if profile.kind == "sudden_step":
        return _sudden_result(profile, tol)

    wm, wp = profile.omega_minus, profile.omega_plus
    t_start, t_end = profile.settle_times(rel=1e-8)
    period = 2.0 * math.pi / wp
    # the settled frequency must hold for five periods before matching
    probe = np.linspace(t_end, t_end + 5.0 * period, 64)
    dev = np.abs(np.sqrt(profile.omega_sq(probe)) - wp)
    if np.max(dev) > 1e-7 * wp:
        raise IntegrationError(
            "frequency does not stay settled after its matching time"
        )

    def rhs(t, y):
        return np.array((y[1], -profile.omega_sq(t) * y[0]))

    xi0 = cmath.exp(-1j * wm * t_start) / math.sqrt(2.0 * wm)
    y0 = np.array([xi0, -1j * wm * xi0], dtype=complex)
    checkpoints = np.concatenate(
        ([t_end], t_end + period * np.linspace(0.0, 1.0, 17)[1:])
    )
    # integrate tighter than the requested tolerance: the Wronskian residual
    # accumulates over thousands of steps and must land under 10 * tol
    states, stats = integrate_path(
        rhs, t_start, checkpoints, y0, rtol=tol / 20.0, atol=tol * 1e-4
    )
    alphas, betas = [], []
    for t, (xi, xip) in zip(checkpoints, states):
        a, b = _project(wp, float(t), complex(xi), complex(xip))
        alphas.append(a)
        betas.append(b)
    alpha = complex(np.mean(alphas))
    beta = complex(np.mean(betas))
    rho = abs(beta / alpha) ** 2
    residual = abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0)
    return BogoliubovResult(alpha, beta, rho, residual, stats.steps, tol)


# ---------------------------------------------------------------------------
# combined report

@dataclass(frozen=True)
class ExcitationReport:
    parameter: str  # "nu" or "rho"
    value: float
    mean_n0: float
    vacuum_row: tuple[float, ...]
    wronskian_residual: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            self.parameter: self.value,
            "mean_n0": self.mean_n0,
            "vacuum_row": list(self.vacuum_row),
        }
        if self.wronskian_residual is not None:
            out["wronskian_residual"] = self.wronskian_residual
        return out


def excitation_report(profile, omega: float | None = None,
                      tol: float = 1e-10) -> ExcitationReport:
    """Excitation parameter plus the vacuum-row picture it implies: the mean
    excited quantum number and the first eight vacuum-row probabilities."""
    if isinstance(profile, ForceProfile):
        if omega is None:
            raise ValueError("force profiles need the oscillator frequency omega")
        nu = nu_from_force(profile, omega).value
        return ExcitationReport("nu", nu, nu, tuple(forced_vacuum(8, nu).tolist()))
    if isinstance(profile, FrequencyProfile):
        result = bogoliubov_from_frequency(profile, tol=tol)
        rho = result.rho
        RhoParam(rho)
        row = np.zeros(8)  # odd n vanish; even n are the j = -1/4 sector
        row[0::2] = singular_vacuum(4, rho, 0.5)
        return ExcitationReport(
            "rho",
            rho,
            rho / (1.0 - rho),
            tuple(row.tolist()),
            wronskian_residual=result.wronskian_residual,
        )
    raise TypeError(f"not a profile: {type(profile).__name__}")
