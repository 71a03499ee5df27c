"""Time-profile specifications for the excitation extractors.

Force profiles f(t) must decay at large |t|; frequency profiles omega(t)
must stay positive and settle to constants omega_minus / omega_plus, which
define the in and out eigenbases.  Everything is in hbar = m = 1 units.

Every fact of a closed-form kind is said once, in its ``_Kind`` record in
``_FORCE_KINDS`` or ``_FREQUENCY_KINDS``; the profile classes and the
extractors ask the record.  A ``tabulated`` profile has none: it keeps its
own admission and spline.

Profiles load from a JSON document with a ``kind`` field matching the
constructors below; tabulated data comes either inline (two parallel
arrays) or from a two-column CSV (time, value; '#' comments allowed), not
both.  A document or constructor that names a field its kind does not take
is refused.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = ["ForceProfile", "FrequencyProfile", "load_profile", "ProfileError"]

_DECAY_REL = 1e-8
_MAX_OMEGA = math.sqrt(np.finfo(float).max)  # largest omega whose square is finite
_SETTLE_REL = 1e-15  # settle_times: |omega(t) - omega_-+| below this times omega_-+


class ProfileError(ValueError):
    """Malformed or physically inadmissible profile specification."""


@dataclass(frozen=True)
class _Kind:
    """One closed-form kind; its callables take the params ``p`` first."""

    fields: tuple[str, ...]  # in constructor order
    rules: tuple[tuple[Callable[[dict], bool], str], ...]  # (admits(p), message), in order
    at: Callable  # at(p, t): force f(t) or frequency omega^2(t), t an array
    fourier: Callable[[dict, float], complex] | None = None  # force: integral f(t) e^{-i w t} dt
    asymptotes: Callable[[dict], tuple[float, float]] | None = None  # frequency: (omega_-, omega_+)
    settle: Callable[[dict], tuple[float, float]] | None = None  # see settle_times
    rho: Callable[[dict], float] | None = None  # closed-form rho, if the kind has one
    identity: bool = False  # omega never moves: alpha = 1 and beta = 0 exactly
    matched: bool = False  # omega^2 jumps once, at its settle window: no propagation


def _damped_cosine_fourier(p: dict, omega: float) -> complex:
    g, wd = p["gamma"], p["omega_d"]
    # g / (g^2 + d^2) as g / h / h, h = hypot(g, d): g^2 + d^2 underflows
    # to 0 for a tiny gamma at omega = omega_d
    h1, h2 = math.hypot(g, omega - wd), math.hypot(g, omega + wd)
    return p["f0"] * (g / h1 / h1 + g / h2 / h2)


_FORCE_KINDS = {
    "gaussian": _Kind(
        ("f0", "tau", "t0"),
        ((lambda p: p["tau"] > 0, "gaussian width tau must be positive"),),
        lambda p, t: p["f0"] * np.exp(-(((t - p["t0"]) / p["tau"]) ** 2)),
        fourier=lambda p, w: (p["f0"] * p["tau"] * math.sqrt(math.pi)
                              * math.exp(-(w * p["tau"]) ** 2 / 4.0)
                              * cmath.exp(-1j * w * p["t0"])),
    ),
    "rectangular": _Kind(
        ("f0", "t_on", "t_off"),
        ((lambda p: p["t_off"] > p["t_on"], "rectangular window must have t_off > t_on"),),
        lambda p, t: p["f0"] * ((t >= p["t_on"]) & (t <= p["t_off"])).astype(float),
        fourier=lambda p, w: (p["f0"] * (cmath.exp(-1j * w * p["t_on"])
                                         - cmath.exp(-1j * w * p["t_off"])) / (1j * w)),
    ),
    "damped_cosine": _Kind(
        ("f0", "gamma", "omega_d"),
        ((lambda p: p["gamma"] > 0, "damping gamma must be positive"),),
        lambda p, t: p["f0"] * np.exp(-p["gamma"] * np.abs(t)) * np.cos(p["omega_d"] * t),
        fourier=_damped_cosine_fourier,
    ),
}


def _tanh_ramp_settle(p: dict) -> tuple[float, float]:
    w2m, w2p, T = p["omega2_minus"], p["omega2_plus"], p["T"]
    delta = abs(w2p - w2m)
    if delta == 0.0:  # no ramp: settled at all times
        return 0.0, 0.0
    # ramp fraction s(t) = (1 + tanh(t/T))/2 inverts to
    # t = (T/2) ln(s / (1-s)), robust for tiny s
    rel2 = 2.0 * _SETTLE_REL + _SETTLE_REL * _SETTLE_REL
    s_minus = min(rel2 * w2m / delta, 0.5)
    s_plus = min(rel2 * w2p / delta, 0.5)
    return 0.5 * T * math.log(s_minus / (1.0 - s_minus)), 0.5 * T * math.log((1.0 - s_plus) / s_plus)


def _tanh_ramp_rho(p: dict) -> float:
    """rho of a tanh ramp, the reflection coefficient of a smooth step
    (Landau & Lifshitz, *Quantum Mechanics*, sec. 25),

        rho = sinh^2(pi T |w+ - w-| / 2) / sinh^2(pi T (w+ + w-) / 2),

    as sinh^2(x-) / sinh^2(x+) with k = pi T / 2,
    x- = k |w+^2 - w-^2| / (w+ + w-) and x+ = k (w+ + w-):

        sinh(x-) / sinh(x+) = e^{-pi T min(w-, w+)} expm1(-2 x-) / expm1(-2 x+).

    This form does not overflow: a slow ramp underflows to rho = 0.  Nor
    does it cancel: x- comes from the omega^2 given, not from a difference
    of their square roots.  The caller refuses a rho that rounds to 1."""
    w2m, w2p, T = p["omega2_minus"], p["omega2_plus"], p["T"]
    if w2m == w2p:  # not only a shortcut: past T ~ 1.1e308, k is inf and x- NaN
        return 0.0
    wm, wp = math.sqrt(w2m), math.sqrt(w2p)
    total = wm + wp
    k = 0.5 * math.pi * T
    x_plus = k * total
    if x_plus < 1e-18:
        # expm1(-2x) rounds to -2x and the exponential to 1, so the ratio is
        # x- / x+, the sudden step's, which x+ near underflow would garble
        ratio = abs(w2p - w2m) / total / total
    else:
        x_minus = k * (abs(w2p - w2m) / total)
        ratio = (math.exp(-math.pi * T * min(wm, wp)) * math.expm1(-2.0 * x_minus)
                 / math.expm1(-2.0 * x_plus))
    return ratio * ratio


_FREQUENCY_KINDS = {
    "constant": _Kind(
        ("omega",),
        ((lambda p: p["omega"] > 0, "omega must be positive"),),
        lambda p, t: np.full_like(t, p["omega"] ** 2),
        asymptotes=lambda p: (p["omega"], p["omega"]),
        settle=lambda p: (0.0, 0.0),
        identity=True,
    ),
    "sudden_step": _Kind(
        ("omega_minus", "omega_plus", "t_jump"),
        ((lambda p: p["omega_minus"] > 0 and p["omega_plus"] > 0,
          "asymptotic frequencies must be positive"),),
        lambda p, t: np.where(t < p["t_jump"], p["omega_minus"] ** 2, p["omega_plus"] ** 2),
        asymptotes=lambda p: (p["omega_minus"], p["omega_plus"]),
        settle=lambda p: (p["t_jump"], p["t_jump"]),
        matched=True,
    ),
    # omega^2 interpolates between its asymptotes, w2m + (w2p - w2m)(1 + tanh(t/T))/2
    "tanh_ramp": _Kind(
        ("omega2_minus", "omega2_plus", "T"),
        ((lambda p: p["omega2_minus"] > 0 and p["omega2_plus"] > 0,
          "omega^2 asymptotes must be positive"),
         (lambda p: p["T"] > 0, "ramp time T must be positive")),
        lambda p, t: (p["omega2_minus"] + (p["omega2_plus"] - p["omega2_minus"])
                      * (1.0 + np.tanh(t / p["T"])) / 2.0),
        asymptotes=lambda p: (math.sqrt(p["omega2_minus"]), math.sqrt(p["omega2_plus"])),
        settle=_tanh_ramp_settle,
        rho=_tanh_ramp_rho,
    ),
}


def _tabulated_arrays(times, values):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 4:
        raise ProfileError("tabulated profile needs two equal 1-d arrays (>= 4 samples)")
    # before the other checks: NaN passes every comparison they make
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ProfileError("tabulated times and values must be finite")
    if np.any(np.diff(t) <= 0):
        raise ProfileError("tabulated times must increase strictly")
    return t, v


def _check_fields(kind: str, params: dict, needed: tuple[str, ...]) -> None:
    """The params are exactly the fields a kind takes, each a finite number:
    an infinite or NaN parameter passes the range checks that follow it and
    sends the extractors into overflow, NaN or an endless propagation."""
    missing = [k for k in needed if k not in params]
    if missing:
        raise ProfileError(f"{kind} profile missing fields {missing}")
    unknown = [k for k in params if k not in needed]
    if unknown:
        raise ProfileError(f"{kind} profile does not take fields {unknown}")
    for k in needed:
        try:
            finite = math.isfinite(params[k])
        except (TypeError, OverflowError):  # not a number, or an int past float
            finite = False
        if not finite:
            raise ProfileError(
                f"{kind} profile field {k!r} must be a finite number, got {params[k]!r}"
            )


class _NotAKnotSpline:
    """Cubic spline through (x, y) with not-a-knot ends (the third
    derivative is continuous at x[1] and x[-2]): the interpolant of
    scipy.interpolate.CubicSpline with its default boundary conditions,
    for at least four strictly increasing knots.  Outside [x[0], x[-1]] it
    extrapolates the end cubics.  Samples spaced or valued near the double
    range overflow the end rows, which square the end spacings, and
    spacings 1/eps apart can cancel a pivot to 0; a spline left with
    coefficients that are not finite raises ProfileError."""

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, x: np.ndarray, y: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # tridiagonal system for the knot slopes s:
        # lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        lower = np.concatenate(([0.0], dx[1:], [d1]))
        diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]))
        upper = np.concatenate(([d0], dx[:-1], [0.0]))
        rhs = np.concatenate((
            [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
            3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
            [(dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1],
        ))
        # one Thomas sweep over Python floats, normalizing each row by its
        # pivot; the interior rows are diagonally dominant and the end
        # rows' eliminations keep every pivot positive, unless spacings
        # 1/eps apart cancel one to 0, which is made NaN and refused below
        ups, rs = [], []
        u = r = 0.0
        for lo, di, up, rh in zip(*(a.tolist() for a in (lower, diag, upper, rhs))):
            pivot = di - lo * u or math.nan
            u = up / pivot
            r = (rh - lo * r) / pivot
            ups.append(u)
            rs.append(r)
        s, v = [], 0.0
        for u, r in zip(reversed(ups), reversed(rs)):
            v = r - u * v
            s.append(v)
        s = np.array(s[::-1])
        # per interval: y + s d + c2 d^2 + c3 d^3 with d = t - x[i]
        g = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.x = x
        self.coeffs = (g / dx, (slope - s[:-1]) / dx - g, s[:-1], y[:-1])
        if not all(np.all(np.isfinite(c)) for c in self.coeffs):
            raise ProfileError("the cubic spline through the tabulated samples is not finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        d = t - self.x[i]
        c3, c2, s, y = (c[i] for c in self.coeffs)
        return ((c3 * d + c2) * d + s) * d + y


@dataclass(frozen=True)
class _Profile:
    """A profile of one family (``_NAME``): a closed-form ``kind`` of
    ``_KINDS`` with its ``params``, or "tabulated" ``times`` and ``values``,
    which the family's ``_admit_samples`` admits."""

    kind: str
    params: dict = field(default_factory=dict)
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "tabulated":
            _check_fields(self.kind, self.params, ())
            t, v = _tabulated_arrays(self.times, self.values)
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)
            self._admit_samples()
        elif isinstance(self.kind, str) and self.kind in self._KINDS:  # a list is no kind
            record = self._KINDS[self.kind]
            _check_fields(self.kind, self.params, record.fields)
            for admits, message in record.rules:
                if not admits(self.params):
                    raise ProfileError(message)
        else:
            raise ProfileError(f"unknown {self._NAME} profile kind {self.kind!r}")

    @classmethod
    def tabulated(cls, times, values):
        return cls("tabulated", {}, times=times, values=values)

    @property
    def _record(self) -> _Kind | None:
        """The kind's record; None for a tabulated profile."""
        return self._KINDS.get(self.kind)

    @cached_property
    def spline(self) -> _NotAKnotSpline:
        """Cubic spline through the tabulated samples, built once per
        profile.  It is smooth: a kinked interpolant would degrade the
        propagator's order through omega^2(t)."""
        return _NotAKnotSpline(self.times, self.values)


class ForceProfile(_Profile):
    """Driving force f(t); kinds: those of ``_FORCE_KINDS``, and tabulated."""

    _NAME, _KINDS = "force", _FORCE_KINDS

    def _admit_samples(self):
        peak = float(np.max(np.abs(self.values)))
        if peak and max(abs(self.values[0]), abs(self.values[-1])) > _DECAY_REL * peak:
            raise ProfileError("tabulated force must start and end below 1e-8 of its peak")

    @classmethod
    def gaussian(cls, f0: float, tau: float, t0: float = 0.0) -> "ForceProfile":
        return cls("gaussian", {"f0": f0, "tau": tau, "t0": t0})

    @classmethod
    def rectangular(cls, f0: float, t_on: float, t_off: float) -> "ForceProfile":
        return cls("rectangular", {"f0": f0, "t_on": t_on, "t_off": t_off})

    @classmethod
    def damped_cosine(cls, f0: float, gamma: float, omega_d: float) -> "ForceProfile":
        return cls("damped_cosine", {"f0": f0, "gamma": gamma, "omega_d": omega_d})

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        record = self._record
        if record is not None:
            out = record.at(self.params, t)
        else:
            out = np.where((t < self.times[0]) | (t > self.times[-1]), 0.0, self.spline(t))
        return float(out) if out.ndim == 0 else out


class FrequencyProfile(_Profile):
    """Oscillator frequency omega(t); kinds: those of ``_FREQUENCY_KINDS``, and tabulated."""

    _NAME, _KINDS = "frequency", _FREQUENCY_KINDS

    def _admit_samples(self):
        t, v = self.times, self.values
        if np.any(v <= 0):
            raise ProfileError("omega(t) must stay positive")
        if np.any(v > _MAX_OMEGA):
            raise ProfileError(
                f"omega(t) samples must not exceed {_MAX_OMEGA:.3g}, past which omega^2 overflows"
            )
        for side in (v[: max(2, t.size // 16)], v[-max(2, t.size // 16):]):
            if np.max(np.abs(side - side[-1])) > 1e-6 * side[-1]:
                raise ProfileError("tabulated frequency must be flat at both ends")

    @classmethod
    def constant(cls, omega: float) -> "FrequencyProfile":
        return cls("constant", {"omega": omega})

    @classmethod
    def sudden_step(cls, omega_minus: float, omega_plus: float,
                    t_jump: float = 0.0) -> "FrequencyProfile":
        return cls("sudden_step", {"omega_minus": omega_minus, "omega_plus": omega_plus,
                                   "t_jump": t_jump})

    @classmethod
    def tanh_ramp(cls, omega2_minus: float, omega2_plus: float,
                  T: float) -> "FrequencyProfile":
        return cls("tanh_ramp", {"omega2_minus": omega2_minus, "omega2_plus": omega2_plus, "T": T})

    def _asymptotes(self) -> tuple[float, float]:
        """omega at t -> -inf and at t -> +inf."""
        record = self._record
        if record is not None:
            return record.asymptotes(self.params)
        return float(self.values[0]), float(self.values[-1])

    omega_minus = property(lambda self: self._asymptotes()[0])
    omega_plus = property(lambda self: self._asymptotes()[1])

    def omega_sq(self, t):
        """omega^2(t), the coefficient of the oscillator equation, for an
        array of times; a 0-d result is returned as a float."""
        t = np.asarray(t, dtype=float)
        record = self._record
        if record is not None:
            out = record.at(self.params, t)
        else:
            inside = self.spline(np.clip(t, self.times[0], self.times[-1])) ** 2
            out = np.where(t < self.times[0], self.values[0] ** 2, inside)
            out = np.where(t > self.times[-1], self.values[-1] ** 2, out)
        return float(out) if out.ndim == 0 else out

    def settle_times(self) -> tuple[float, float]:
        """(t_start, t_end) outside of which |omega(t) - omega_-+| stays
        below 1e-15 times the asymptote.  A tabulated profile starts at its
        first sample: the spline may move before the first sample that
        leaves ``values[0]``, but omega is ``values[0]`` up to ``times[0]``."""
        record = self._record
        if record is not None:
            return record.settle(self.params)
        # scan the grid from the end (the caller probes past it); argmax of
        # an all-False scan is 0, the last sample
        dev = np.abs(self.values - self.values[-1]) > _SETTLE_REL * self.values[-1]
        return float(self.times[0]), float(self.times[len(self.times) - 1 - np.argmax(dev[::-1])])


def _read_two_column_csv(path: Path) -> tuple[list[float], list[float]]:
    times, values = [], []
    for row in csv.reader(io.StringIO(path.read_text())):
        if not row or row[0].strip().startswith("#"):
            continue
        if len(row) < 2:
            raise ProfileError(f"CSV row needs two columns: {row!r}")
        times.append(float(row[0]))
        values.append(float(row[1]))
    return times, values


def load_profile(source, what: str | None = None):
    """Build a profile from a JSON document, file path or parsed dict.

    ``what`` ("nu" or "rho") disambiguates tabulated data, which could feed
    either extractor; an explicit ``profile`` field ("force" or
    "frequency") in the document takes precedence.  A profile that cannot
    yield ``what`` raises ``ProfileError``, and so does any ``ValueError``,
    ``TypeError``, ``KeyError``, ``OSError`` or ``RecursionError`` (a
    document nested too deep to parse) met while reading or building it.
    """
    try:
        profile = _load(source, what)
    except ProfileError:
        raise
    except (ValueError, TypeError, KeyError, OSError, RecursionError) as exc:
        raise ProfileError(f"bad profile: {exc}") from exc
    if what is not None and isinstance(profile, ForceProfile) != (what == "nu"):
        raise ProfileError(f"profile kind {profile.kind!r} cannot yield {what}")
    return profile


def _load(source, what):
    base = Path(".")
    if isinstance(source, (str, Path)):
        base = Path(source).parent
        source = json.loads(Path(source).read_text())
    if not isinstance(source, dict):
        raise ProfileError(f"cannot load a profile from {type(source).__name__}")
    doc = dict(source)
    if "kind" not in doc:
        raise ProfileError("profile document needs a 'kind' field")
    kind = doc.pop("kind")
    if doc.get("profile", "force") not in ("force", "frequency"):
        raise ProfileError(
            f"profile field must be 'force' or 'frequency', got {doc['profile']!r}"
        )
    family = doc.pop("profile", None)
    named = isinstance(kind, str)  # a JSON list or object is no kind
    if family is None:
        if named and kind in _FORCE_KINDS:
            family = "force"
        elif named and kind in _FREQUENCY_KINDS:
            family = "frequency"
        elif what in ("nu", "rho"):
            family = "force" if what == "nu" else "frequency"
        elif kind != "tabulated":
            raise ProfileError(f"unknown profile kind {kind!r}")
        else:
            raise ProfileError(
                "tabulated profile is ambiguous: add a 'profile' field "
                "('force' or 'frequency') or pass the target parameter"
            )
    cls = ForceProfile if family == "force" else FrequencyProfile
    if kind != "tabulated":
        return cls(kind, doc)
    if "csv" in doc:
        if "times" in doc or "values" in doc:
            raise ProfileError("tabulated profile takes times/values or a csv path, not both")
        times, values = _read_two_column_csv(base / doc.pop("csv"))
    else:
        times = doc.pop("times", None)
        values = doc.pop("values", None)
    if times is None or values is None:
        raise ProfileError("tabulated profile needs times/values or a csv path")
    # the fields left in the document are refused as fields tabulated does not take
    return cls("tabulated", doc, times=times, values=values)
