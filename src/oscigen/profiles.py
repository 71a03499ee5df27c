"""Time-profile specifications for the excitation extractors.

Force profiles f(t) must decay at large |t|; frequency profiles omega(t)
must stay positive and settle to constants omega_minus / omega_plus, which
define the in and out eigenbases.  Everything is in hbar = m = 1 units.

Profiles load from a JSON document with a ``kind`` field matching the
constructors below; tabulated data comes either inline (two parallel
arrays) or from a two-column CSV (time, value; '#' comments allowed).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = ["ForceProfile", "FrequencyProfile", "load_profile", "ProfileError"]

# the fields of each closed-form kind
_FORCE_FIELDS = {
    "gaussian": ("f0", "tau", "t0"),
    "rectangular": ("f0", "t_on", "t_off"),
    "damped_cosine": ("f0", "gamma", "omega_d"),
}
_FREQ_FIELDS = {
    "constant": ("omega",),
    "sudden_step": ("omega_minus", "omega_plus", "t_jump"),
    "tanh_ramp": ("omega2_minus", "omega2_plus", "T"),
}

_DECAY_REL = 1e-8
_MAX_OMEGA = math.sqrt(np.finfo(float).max)  # largest omega whose square is finite


class ProfileError(ValueError):
    """Malformed or physically inadmissible profile specification."""


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
    """Every field a closed-form kind needs is present and a finite number:
    an infinite or NaN parameter passes the range checks that follow it and
    sends the extractors into overflow, NaN or an endless propagation."""
    missing = [k for k in needed if k not in params]
    if missing:
        raise ProfileError(f"{kind} profile missing fields {missing}")
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
    ``_FIELDS`` with its ``params``, or "tabulated" ``times`` and
    ``values``, which the family's ``_check`` admits."""

    kind: str
    params: dict = field(default_factory=dict)
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "tabulated":
            t, v = _tabulated_arrays(self.times, self.values)
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)
        elif isinstance(self.kind, str) and self.kind in self._FIELDS:  # a list is no kind
            _check_fields(self.kind, self.params, self._FIELDS[self.kind])
        else:
            raise ProfileError(f"unknown {self._NAME} profile kind {self.kind!r}")
        self._check(self.params)

    @classmethod
    def tabulated(cls, times, values):
        return cls("tabulated", {}, times=times, values=values)

    @cached_property
    def spline(self) -> _NotAKnotSpline:
        """Cubic spline through the tabulated samples, built once per
        profile.  It is smooth: a kinked interpolant would degrade the
        propagator's order through omega^2(t)."""
        return _NotAKnotSpline(self.times, self.values)


class ForceProfile(_Profile):
    """Driving force f(t); kinds: gaussian, rectangular, damped_cosine,
    tabulated."""

    _NAME, _FIELDS = "force", _FORCE_FIELDS

    def _check(self, p):
        if self.kind == "tabulated":
            peak = float(np.max(np.abs(self.values)))
            if peak and max(abs(self.values[0]), abs(self.values[-1])) > _DECAY_REL * peak:
                raise ProfileError("tabulated force must start and end below 1e-8 of its peak")
        elif self.kind == "gaussian" and not p["tau"] > 0:
            raise ProfileError("gaussian width tau must be positive")
        elif self.kind == "rectangular" and not p["t_off"] > p["t_on"]:
            raise ProfileError("rectangular window must have t_off > t_on")
        elif self.kind == "damped_cosine" and not p["gamma"] > 0:
            raise ProfileError("damping gamma must be positive")

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
        p = self.params
        if self.kind == "gaussian":
            out = p["f0"] * np.exp(-(((t - p["t0"]) / p["tau"]) ** 2))
        elif self.kind == "rectangular":
            out = p["f0"] * ((t >= p["t_on"]) & (t <= p["t_off"])).astype(float)
        elif self.kind == "damped_cosine":
            out = p["f0"] * np.exp(-p["gamma"] * np.abs(t)) * np.cos(p["omega_d"] * t)
        else:
            out = np.where(
                (t < self.times[0]) | (t > self.times[-1]), 0.0, self.spline(t)
            )
        return float(out) if out.ndim == 0 else out


class FrequencyProfile(_Profile):
    """Oscillator frequency omega(t); kinds: constant, sudden_step,
    tanh_ramp, tabulated.  tanh_ramp interpolates omega^2 between its
    asymptotes: omega^2(t) = w2m + (w2p - w2m)(1 + tanh(t/T))/2."""

    _NAME, _FIELDS = "frequency", _FREQ_FIELDS

    def _check(self, p):
        if self.kind == "tabulated":
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
        elif self.kind == "constant" and not p["omega"] > 0:
            raise ProfileError("omega must be positive")
        elif self.kind == "sudden_step" and not (p["omega_minus"] > 0 and p["omega_plus"] > 0):
            raise ProfileError("asymptotic frequencies must be positive")
        elif self.kind == "tanh_ramp":
            if not (p["omega2_minus"] > 0 and p["omega2_plus"] > 0):
                raise ProfileError("omega^2 asymptotes must be positive")
            if not p["T"] > 0:
                raise ProfileError("ramp time T must be positive")

    @classmethod
    def constant(cls, omega: float) -> "FrequencyProfile":
        return cls("constant", {"omega": omega})

    @classmethod
    def sudden_step(cls, omega_minus: float, omega_plus: float,
                    t_jump: float = 0.0) -> "FrequencyProfile":
        return cls(
            "sudden_step",
            {"omega_minus": omega_minus, "omega_plus": omega_plus, "t_jump": t_jump},
        )

    @classmethod
    def tanh_ramp(cls, omega2_minus: float, omega2_plus: float,
                  T: float) -> "FrequencyProfile":
        return cls(
            "tanh_ramp",
            {"omega2_minus": omega2_minus, "omega2_plus": omega2_plus, "T": T},
        )

    def _asymptote(self, end: str) -> float:
        """omega at t -> -inf (``end`` "minus") or +inf ("plus")."""
        p = self.params
        if self.kind == "constant":
            return p["omega"]
        if self.kind == "sudden_step":
            return p["omega_" + end]
        if self.kind == "tanh_ramp":
            return math.sqrt(p["omega2_" + end])
        return float(self.values[0 if end == "minus" else -1])

    omega_minus = property(lambda self: self._asymptote("minus"))
    omega_plus = property(lambda self: self._asymptote("plus"))

    def omega_sq(self, t):
        """omega^2(t), the coefficient of the oscillator equation, for an
        array of times; a 0-d result is returned as a float."""
        p = self.params
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full_like(t, p["omega"] ** 2)
        elif self.kind == "sudden_step":
            out = np.where(t < p["t_jump"], p["omega_minus"] ** 2, p["omega_plus"] ** 2)
        elif self.kind == "tanh_ramp":
            w2m, w2p = p["omega2_minus"], p["omega2_plus"]
            out = w2m + (w2p - w2m) * (1.0 + np.tanh(t / p["T"])) / 2.0
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
        rel = 1e-15
        p = self.params
        if self.kind == "constant":
            return 0.0, 0.0
        if self.kind == "sudden_step":
            return p["t_jump"], p["t_jump"]
        if self.kind == "tanh_ramp":
            w2m, w2p = p["omega2_minus"], p["omega2_plus"]
            T = p["T"]
            delta = abs(w2p - w2m)
            if delta == 0.0:  # no ramp: settled at all times
                return 0.0, 0.0
            # ramp fraction s(t) = (1 + tanh(t/T))/2 inverts to
            # t = (T/2) ln(s / (1-s)), robust for tiny s
            s_minus = min((2.0 * rel + rel * rel) * w2m / delta, 0.5)
            s_plus = min((2.0 * rel + rel * rel) * w2p / delta, 0.5)
            t_start = 0.5 * T * math.log(s_minus / (1.0 - s_minus))
            t_end = 0.5 * T * math.log((1.0 - s_plus) / s_plus)
            return t_start, t_end
        # tabulated: scan the grid from the end (the caller probes past
        # it); argmax of an all-False scan is 0, the last sample
        dev = np.abs(self.values - self.values[-1]) > rel * self.values[-1]
        return float(self.times[0]), float(self.times[len(self.times) - 1 - np.argmax(dev[::-1])])


def _read_two_column_csv(path: Path) -> tuple[list[float], list[float]]:
    times, values = [], []
    text = path.read_text()
    for row in csv.reader(io.StringIO(text)):
        if not row:
            continue
        cell = row[0].strip()
        if cell.startswith("#"):
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
        if named and kind in _FORCE_FIELDS:
            family = "force"
        elif named and kind in _FREQ_FIELDS:
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
        times, values = _read_two_column_csv(base / doc.pop("csv"))
    else:
        times = doc.pop("times", None)
        values = doc.pop("values", None)
    if times is None or values is None:
        raise ProfileError("tabulated profile needs times/values or a csv path")
    return cls.tabulated(times, values)
