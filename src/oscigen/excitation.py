"""Excitation parameters from physical time profiles.

For a driving force f(t) on a constant-frequency oscillator the excitation
parameter is the Fourier integral

    nu = (1 / 2 omega) | integral f(t) e^{-i omega t} dt |^2 .

For a variable frequency omega(t) the parameter rho comes from classical
scattering: the oscillator equation xi'' + omega^2(t) xi = 0 is propagated
from an in-state xi -> (2 omega_-)^{-1/2} e^{-i omega_- t} and projected
once, where omega(t) has settled to 1e-15 of omega_+, onto
(2 omega_+)^{-1/2} (alpha e^{-i omega_+ t} + beta e^{+i omega_+ t}); then
rho = |beta / alpha|^2 with |alpha|^2 - |beta|^2 = 1 up to the reported
Wronskian residual.  The propagator is a product of 6th-order Magnus steps,
each a 2x2 real matrix in closed form from omega^2 at three Gauss nodes,
evaluated as numpy arrays with no Python code per step; the step count
doubles until alpha and beta agree to the requested tolerance.  At tol 1e-10
a tanh ramp between omega^2 1 and 4 takes 2,048 steps at T = 1, 16,384 at
T = 15 and 524,288 at T = 1500, and T = 12000 finishes at exactly the cap of
2^22 steps.  Each step is exact where omega is constant, and the product is
symplectic, so the Wronskian residual stays at rounding level and no longer
measures accuracy.  A piecewise-constant (sudden-step) profile is matched
analytically.

The closed forms live in the kinds' records in ``profiles``: the force
kinds' Fourier transforms and the tanh ramp's rho (``_tanh_ramp_rho``),
which ``excitation_report`` takes with no propagation; the propagator,
still behind ``bogoliubov_from_frequency``, is its independent check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .amplitude import forced_table, param_table
from .errors import IntegrationError
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

# Gauss nodes per spline evaluation in _tabulated_fourier: large enough to
# amortize the call, small enough to bound the node arrays (the per-panel
# start and width arrays still hold one entry per panel)
_FOURIER_BLOCK = 4096
# panels of one transform at most: the panel arrays stay a few tens of MB
_MAX_PANELS = 2**20


def _tabulated_fourier(profile: ForceProfile, omega: float) -> complex:
    """Oscillation-safe quadrature of spline(t) e^{-i omega t}: fixed-order
    Gauss panels no longer than a sixteenth of the period, evaluated in
    blocks of _FOURIER_BLOCK nodes.  More than _MAX_PANELS panels raise
    ValueError, before the spline is built."""
    period = 2.0 * math.pi / omega
    widths = np.diff(profile.times)
    with np.errstate(over="ignore"):  # a count past the double range is refused below
        pieces = np.maximum(1.0, np.ceil(widths / (period / 16.0)))
        count = pieces.sum()
    if not count <= _MAX_PANELS:
        raise ValueError(f"omega = {omega:g} needs {count:.3g} quadrature panels over the "
                         f"samples, more than {_MAX_PANELS}")
    pieces = pieces.astype(np.intp)
    spline = profile.spline
    rule = gauss_legendre(8)
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


def nu_from_force(profile: ForceProfile, omega: float) -> float:
    """Excitation parameter nu >= 0 of a decaying drive at frequency omega."""
    if not isinstance(profile, ForceProfile):
        raise TypeError("nu extraction needs a force profile")
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be positive and finite")
    record = profile._record  # a closed-form kind has its Fourier transform
    amp = abs(record.fourier(profile.params, omega) if record
              else _tabulated_fourier(profile, omega))
    nu = amp * amp / (2.0 * omega)
    if not nu < math.inf:
        raise ValueError(
            f"nu = |F(omega)|^2 / (2 omega) overflows the double range at omega = {omega:g}"
        )
    return nu


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


def _project(omega: float, t: float, xi: complex, xip: complex) -> tuple[complex, complex]:
    # alpha, beta from instantaneous (xi, xi') against e^{-+ i omega t}
    root = math.sqrt(omega / 2.0)
    alpha = root * (xi + 1j * xip / omega) * cmath.exp(1j * omega * t)
    beta = root * (xi - 1j * xip / omega) * cmath.exp(-1j * omega * t)
    return alpha, beta


def _check_tol(tol: float) -> None:
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")


def _below_one(rho: float, wm: float, wp: float) -> float:
    """rho, unless a frequency ratio so extreme that rho rounds to 1 (the
    sudden-step ((wp - wm) / (wp + wm))^2, say) makes it a ValueError."""
    if not rho < 1.0:
        raise ValueError(
            f"frequency ratio omega_plus/omega_minus = {wp / wm:.3g} rounds rho to 1"
        )
    return rho


def _result(alpha: complex, beta: complex, wm: float, wp: float, steps: int,
            tol: float) -> BogoliubovResult:
    """The result of the coefficients (alpha, beta) between frequencies wm and wp."""
    rho = _below_one(abs(beta / alpha) ** 2, wm, wp)
    residual = abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0)
    return BogoliubovResult(alpha, beta, rho, residual, steps, tol)


# Magnus steps per omega_sq call in _transfer: large enough to amortize the
# numpy calls, small enough to bound the node arrays
_MAGNUS_BLOCK = 4096
# bogoliubov_from_frequency gives up doubling past this many steps
_MAX_STEPS = 1 << 22
# the three Gauss-Legendre nodes on [0, 1]
_GAUSS3 = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])


def _chain(e: np.ndarray) -> np.ndarray:
    """E of the product I + E = (I + E_{k-1}) ... (I + E_0) of the 2x2 real
    matrices I + e[:, :, i], multiplied as a pairwise tree of broadcast
    elementwise products: no matmul, whose threaded BLAS calls cost
    milliseconds at these shapes.  Carrying E = M - I, which is small for a
    short step, keeps the rounding error from growing with the step count."""
    while e.shape[2] > 1:
        odd = e.shape[2] % 2
        a = e[:, :, 0:e.shape[2] - odd:2]  # earlier factor of each pair
        b = e[:, :, 1::2]
        # (I + B)(I + A) = I + (A + B + BA)
        pairs = b[:, :1] * a[0] + b[:, 1:] * a[1] + a + b
        e = np.concatenate((pairs, e[:, :, -1:]), axis=2) if odd else pairs
    return e[:, :, 0]


def _transfer(omega_sq, t0: float, t1: float, steps: int) -> tuple[float, ...]:
    """Transfer matrix (m00, m01, m10, m11) of (xi, xi') over [t0, t1] in
    ``steps`` equal 6th-order Magnus steps (Blanes, Casas & Ros 2000, BIT
    40:434; Blanes, Casas, Oteo & Ros 2009, Phys. Rep. 470:151, sec. 4.3).

    With w1, w2, w3 = omega^2 at the three Gauss nodes of a step of length
    h, A_i = [[0, 1], [-w_i, 0]], the step is exp Omega with
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240, where
    a1 = h A2, a2 = (sqrt 15 h / 3)(A3 - A1), a3 = (10 h / 3)(A3 - 2 A2 + A1),
    C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1] / 60.  The A_i lie in sl(2),
    so with g = -h w2, u = -(sqrt 15 / 3) h (w3 - w1) and
    v = -(10 / 3) h (w3 - 2 w2 + w1) the commutators close to
    Omega = [[p, b], [c, -p]]:

        p = h u (-20 + (4/3) h g + h v / 30) / 240
        b = h + (h^3 u^2 - 20 h^2 v) / 3600
        c = g + v / 12 + ((4/3) h g v + (h/15) v^2 - 2 h u^2 + h^2 g u^2 / 15) / 240

    Omega^2 = s I with s = p^2 + b c, so exp Omega = cos(theta) I +
    (sin(theta) / theta) Omega with theta^2 = -s (cosh and sinh when
    s > 0).  Where omega is constant, u = v = 0 and the step is exact.
    omega^2 is asked for ``_MAGNUS_BLOCK`` steps at a time.
    """
    h = (t1 - t0) / steps
    blocks = []  # E of each block's product
    for start in range(0, steps, _MAGNUS_BLOCK):
        k = np.arange(start, min(start + _MAGNUS_BLOCK, steps), dtype=float)
        w1, w2, w3 = omega_sq(t0 + h * (k[:, None] + _GAUSS3)).T
        g = -h * w2
        u = (-math.sqrt(15.0) / 3.0 * h) * (w3 - w1)
        v = (-10.0 / 3.0 * h) * (w3 - 2.0 * w2 + w1)
        uu = u * u
        p = (h / 240.0) * u * (-20.0 + h * (4.0 / 3.0 * g + v / 30.0))
        b = h + (h * h / 3600.0) * (h * uu - 20.0 * v)
        c = g + v / 12.0 + (h / 240.0) * (
            4.0 / 3.0 * g * v + v * v / 15.0 - 2.0 * uu + h / 15.0 * g * uu)
        s = p * p + b * c
        theta = np.sqrt(np.abs(s))
        cm1 = np.sin(0.5 * theta)
        cm1 *= -2.0 * cm1  # cos(theta) - 1
        f = np.sinc(theta / math.pi)  # sin(theta) / theta, 1 at theta = 0
        grow = s > 0.0
        if grow.any():
            cm1[grow] = 2.0 * np.sinh(0.5 * theta[grow]) ** 2
            f[grow] = np.sinh(theta[grow]) / theta[grow]
        fp = f * p
        blocks.append(_chain(np.array([[cm1 + fp, f * b], [f * c, cm1 - fp]])))
    (e00, e01), (e10, e11) = _chain(np.stack(blocks, axis=2))
    return 1.0 + e00, e01, e10, 1.0 + e11


def bogoliubov_from_frequency(profile: FrequencyProfile,
                              tol: float = 1e-10) -> BogoliubovResult:
    """Scattering coefficients (alpha, beta) and rho = |beta/alpha|^2.

    The in-state starts, and is projected once onto the out-basis, at the
    ends of the profile's ``settle_times()``, after the frequency has been
    checked to stay at omega_plus for five periods.  The propagation runs
    on equal 6th-order Magnus steps, at least 64 and two per period of the
    faster asymptote, doubled until alpha and beta of N and 2N steps agree
    to ``tol * |alpha|``;
    ``steps`` is that final 2N.  Needing more than 2^22 steps raises
    ``IntegrationError``, at once if the first doubling would (a span
    whose half-period count is infinite, say).
    """
    if not isinstance(profile, FrequencyProfile):
        raise TypeError("rho extraction needs a frequency profile")
    _check_tol(tol)
    record = profile._record
    if record and record.identity:  # no projection, which would leave a rounding-level residual
        return BogoliubovResult(1.0 + 0.0j, 0.0j, 0.0, 0.0, 0, tol)

    wm, wp = profile.omega_minus, profile.omega_plus
    t_start, t_end = profile.settle_times()
    xi0 = cmath.exp(-1j * wm * t_start) / math.sqrt(2.0 * wm)
    xip0 = -1j * wm * xi0
    if record and record.matched:  # omega jumps at t_start = t_end
        return _result(*_project(wp, t_end, xi0, xip0), wm, wp, 0, tol)

    period = 2.0 * math.pi / wp
    # the settled frequency must hold for five periods before matching
    probe = np.linspace(t_end, t_end + 5.0 * period, 64)
    dev = np.abs(np.sqrt(profile.omega_sq(probe)) - wp)
    if np.max(dev) > 1e-7 * wp:
        raise IntegrationError(
            "frequency does not stay settled after its matching time"
        )

    def coefficients(steps):
        m00, m01, m10, m11 = _transfer(profile.omega_sq, t_start, t_end, steps)
        return _project(wp, t_end, m00 * xi0 + m01 * xip0, m10 * xi0 + m11 * xip0)

    half_periods = (t_end - t_start) * max(wm, wp) / math.pi
    # an inf or NaN count is refused too, before the doubling could run on
    if not 2 * half_periods <= _MAX_STEPS:
        raise IntegrationError(f"the profile spans {half_periods:.3g} half periods, "
                               f"needing more Magnus steps than the cap {_MAX_STEPS}")
    steps = 64
    while steps < half_periods:
        steps *= 2
    alpha, beta = coefficients(steps)
    while True:
        steps *= 2
        if steps > _MAX_STEPS:
            raise IntegrationError(
                f"alpha and beta did not agree to tol {tol:.1e} within "
                f"{_MAX_STEPS} Magnus steps"
            )
        coarse = alpha, beta
        alpha, beta = coefficients(steps)
        if max(abs(alpha - coarse[0]), abs(beta - coarse[1])) <= tol * abs(alpha):
            break
    return _result(alpha, beta, wm, wp, steps, tol)


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
    excited quantum number and the first eight vacuum-row probabilities.

    ``tol`` is range-checked for every profile.  A kind with a closed-form
    rho (the tanh ramp) takes it, with a Wronskian residual of 0.0 like a
    constant profile's, so neither it nor a force profile uses ``tol``."""
    _check_tol(tol)
    if isinstance(profile, ForceProfile):
        if omega is None:
            raise ValueError("force profiles need the oscillator frequency omega")
        nu = nu_from_force(profile, omega)
        return ExcitationReport("nu", nu, nu, tuple(forced_table(nu, 1, 8)[0].tolist()))
    if isinstance(profile, FrequencyProfile):
        if omega is not None:
            raise ValueError(
                "frequency profiles carry their own frequencies; omega applies to force profiles"
            )
        record = profile._record
        if record and record.rho:
            rho = _below_one(record.rho(profile.params), *record.asymptotes(profile.params))
            residual = 0.0
        else:
            result = bogoliubov_from_frequency(profile, tol=tol)
            rho, residual = result.rho, result.wronskian_residual
        return ExcitationReport(
            "rho",
            rho,
            rho / (1.0 - rho),  # the parametric <n>_0
            tuple(param_table(rho, 1, 8)[0].tolist()),
            wronskian_residual=residual,
        )
    raise TypeError(f"not a profile: {type(profile).__name__}")
