import inspect
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from oscigen.errors import IntegrationError
from oscigen.excitation import (
    bogoliubov_from_frequency,
    excitation_report,
    nu_from_force,
)
from oscigen.profiles import (
    _FORCE_KINDS,
    _FREQUENCY_KINDS,
    ForceProfile,
    FrequencyProfile,
    ProfileError,
    _NotAKnotSpline,
    load_profile,
)


# -- profile admission -------------------------------------------------------

def test_unknown_kinds_rejected():
    with pytest.raises(ProfileError):
        ForceProfile("sawtooth", {"f0": 1.0})
    with pytest.raises(ProfileError):
        FrequencyProfile("linear", {"omega": 1.0})


def test_missing_fields_rejected():
    with pytest.raises(ProfileError):
        ForceProfile("gaussian", {"f0": 1.0})
    with pytest.raises(ProfileError):
        FrequencyProfile("tanh_ramp", {"omega2_minus": 1.0, "T": 1.0})


def test_nondecaying_tabulated_force_rejected():
    ts = np.linspace(-1.0, 1.0, 32)
    with pytest.raises(ProfileError):
        ForceProfile.tabulated(ts, np.cos(ts))


@pytest.mark.parametrize("cls", [ForceProfile, FrequencyProfile])
@pytest.mark.parametrize("bad", ["nan_value", "inf_value", "inf_time"])
def test_nonfinite_tabulated_samples_rejected(cls, bad):
    ts = np.linspace(-8.0, 8.0, 64)
    vs = np.exp(-ts * ts) if cls is ForceProfile else np.ones_like(ts)
    if bad == "inf_time":
        ts[-1] = np.inf
    else:
        vs[20] = np.nan if bad == "nan_value" else np.inf
    with pytest.raises(ProfileError, match="finite"):
        cls.tabulated(ts, vs)


def test_tabulated_frequency_whose_square_overflows_rejected():
    ts = np.linspace(-12.0, 12.0, 400)
    vs = 1e154 * np.sqrt(2.5 + 1.5 * np.tanh(ts))
    with pytest.raises(ProfileError, match="overflows"):
        FrequencyProfile.tabulated(ts, vs)
    assert FrequencyProfile.tabulated(ts, vs / 2.0).omega_plus == pytest.approx(1e154, rel=1e-10, abs=0.0)


def test_nonpositive_frequency_rejected():
    with pytest.raises(ProfileError):
        FrequencyProfile.constant(0.0)
    with pytest.raises(ProfileError):
        FrequencyProfile.sudden_step(1.0, -2.0)
    ts = np.linspace(0.0, 10.0, 64)
    with pytest.raises(ProfileError):
        FrequencyProfile.tabulated(ts, np.ones_like(ts) - 2.0)


def test_profile_evaluation():
    g = ForceProfile.gaussian(2.0, 1.5, 1.0)
    assert g(1.0) == pytest.approx(2.0)
    assert g(1.0 + 1.5) == pytest.approx(2.0 * math.exp(-1.0))
    r = ForceProfile.rectangular(1.0, 0.0, 1.0)
    assert r(0.5) == 1.0 and r(2.0) == 0.0
    f = FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0)
    assert f.omega_minus == 1.0 and f.omega_plus == 2.0
    assert f.omega_sq(0.0) == pytest.approx(2.5)


def test_load_profile_from_json_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "gaussian", "f0": 1.0, "tau": 1.0, "t0": 0.0}))
    prof = load_profile(path)
    assert isinstance(prof, ForceProfile)
    path.write_text("not json {")
    with pytest.raises(ProfileError):
        load_profile(path)


def test_load_tabulated_needs_disambiguation(tmp_path):
    ts = np.arange(-8.0, 8.01, 0.125)
    doc = {"kind": "tabulated", "times": list(ts), "values": list(np.exp(-ts**2))}
    with pytest.raises(ProfileError):
        load_profile(doc)
    assert isinstance(load_profile(dict(doc), what="nu"), ForceProfile)
    doc["profile"] = "force"
    assert isinstance(load_profile(doc), ForceProfile)


def test_load_profile_names_an_unknown_kind():
    doc = {"kind": "sawtooth", "f0": 1.0}
    with pytest.raises(ProfileError, match="^unknown profile kind 'sawtooth'$"):
        load_profile(doc)
    with pytest.raises(ProfileError, match="^unknown force profile kind 'sawtooth'$"):
        load_profile(doc, what="nu")
    with pytest.raises(ProfileError, match="^unknown frequency profile kind 'sawtooth'$"):
        load_profile(doc, what="rho")
    # a JSON list is no kind, and no key either
    with pytest.raises(ProfileError, match=r"^unknown force profile kind \[1\]$"):
        load_profile({"kind": [1]}, what="nu")


@pytest.mark.parametrize("kind", ["tabulated", "gaussian"])
@pytest.mark.parametrize("family", ["banana", "", 1, None])
def test_load_profile_refuses_an_unknown_profile_field(kind, family):
    ts = np.arange(-8.0, 8.01, 0.125)
    doc = {"kind": kind, "times": list(ts), "values": list(np.exp(-ts**2)),
           "f0": 1.0, "tau": 1.0, "t0": 0.0, "profile": family}
    with pytest.raises(ProfileError, match="profile field must be 'force' or 'frequency'"):
        load_profile(doc, what="rho")


def test_load_tabulated_from_csv(tmp_path):
    ts = np.arange(-8.0, 8.01, 0.125)
    lines = ["# time, force"]
    lines += [f"{t},{math.exp(-t*t)}" for t in ts]
    (tmp_path / "f.csv").write_text("\n".join(lines))
    doc = {"kind": "tabulated", "csv": "f.csv", "profile": "force"}
    (tmp_path / "p.json").write_text(json.dumps(doc))
    prof = load_profile(tmp_path / "p.json")
    assert isinstance(prof, ForceProfile)
    assert prof.times.size == ts.size


def _closed_form_samples():
    return [ForceProfile.gaussian(1.0, 1.0, 0.3), ForceProfile.rectangular(1.0, 0.0, 2.0),
            ForceProfile.damped_cosine(1.0, 0.8, 2.0), FrequencyProfile.constant(1.3),
            FrequencyProfile.sudden_step(1.0, 2.0, 0.5), FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0)]


def test_every_kind_has_exactly_one_sample():
    kinds = [prof.kind for prof in _closed_form_samples()]
    assert sorted(kinds) == sorted([*_FORCE_KINDS, *_FREQUENCY_KINDS])


@pytest.mark.parametrize("prof", _closed_form_samples(), ids=lambda prof: prof.kind)
def test_record_fields_are_the_constructor_arguments(prof):
    cls = type(prof)
    record = cls._KINDS[prof.kind]
    assert tuple(inspect.signature(getattr(cls, prof.kind)).parameters) == record.fields
    assert tuple(prof.params) == record.fields


@pytest.mark.parametrize("prof", _closed_form_samples(), ids=lambda prof: prof.kind)
def test_a_field_the_kind_does_not_take_is_refused(prof):
    cls, what = type(prof), "nu" if isinstance(prof, ForceProfile) else "rho"
    message = rf"^{prof.kind} profile does not take fields \['extra'\]$"
    with pytest.raises(ProfileError, match=message):
        cls(prof.kind, {**prof.params, "extra": 5})
    with pytest.raises(ProfileError, match=message):
        load_profile({"kind": prof.kind, **prof.params, "extra": 5}, what)
    # without it, the document loads to the constructor's profile
    assert load_profile({"kind": prof.kind, **prof.params}, what) == prof


def test_tabulated_profile_takes_no_other_field(tmp_path):
    ts = np.arange(-8.0, 8.01, 0.125)
    samples = {"times": list(ts), "values": list(np.exp(-ts**2))}
    with pytest.raises(ProfileError, match=r"^tabulated profile does not take fields \['f0'\]$"):
        ForceProfile("tabulated", {"f0": 1.0}, **samples)
    with pytest.raises(ProfileError, match=r"^tabulated profile does not take fields \['f0'\]$"):
        load_profile({"kind": "tabulated", "profile": "force", **samples, "f0": 1.0})
    (tmp_path / "f.csv").write_text("".join(f"{t},{v}\n" for t, v in zip(*samples.values())))
    with pytest.raises(ProfileError, match=r"^tabulated profile does not take fields \['T'\]$"):
        load_profile({"kind": "tabulated", "profile": "force", "csv": str(tmp_path / "f.csv"),
                      "T": 1.0})


@pytest.mark.parametrize("inline", [("times",), ("values",), ("times", "values")])
def test_tabulated_document_with_csv_and_inline_samples_is_refused(tmp_path, inline):
    ts = np.arange(-8.0, 8.01, 0.125)
    samples = {"times": list(ts), "values": list(np.exp(-ts**2))}
    (tmp_path / "f.csv").write_text("".join(f"{t},{v}\n" for t, v in zip(*samples.values())))
    doc = {"kind": "tabulated", "profile": "force", "csv": "f.csv"}
    (tmp_path / "p.json").write_text(json.dumps(doc))
    assert load_profile(tmp_path / "p.json").times.size == ts.size
    (tmp_path / "p.json").write_text(json.dumps({**doc, **{k: samples[k] for k in inline}}))
    with pytest.raises(ProfileError, match="^tabulated profile takes times/values or a csv path, "
                                           "not both$"):
        load_profile(tmp_path / "p.json")


def _readme_profile_block():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Profile kinds:\n\n```\n(.*?)```", text, re.S)
    assert block, "README has no 'Profile kinds' block"
    return block.group(1).splitlines()


def test_readme_profile_block_names_exactly_the_kinds():
    kinds = {json.loads(line.replace("[...]", "null"))["kind"] for line in _readme_profile_block()}
    assert kinds == {*_FORCE_KINDS, *_FREQUENCY_KINDS, "tabulated"}


@pytest.mark.parametrize("line", _readme_profile_block())
def test_readme_profile_document_loads_to_its_constructor(tmp_path, line):
    doc = json.loads(line.replace("[...]", "null"))
    cls = {"nu": ForceProfile, "rho": FrequencyProfile}
    if doc["kind"] != "tabulated":
        what = "nu" if doc["kind"] in _FORCE_KINDS else "rho"
        params = {k: v for k, v in doc.items() if k != "kind"}
        assert load_profile(doc) == getattr(cls[what], doc["kind"])(**params)
        return
    what = "nu" if doc["profile"] == "force" else "rho"
    ts = np.linspace(-12.0, 12.0, 200)
    values = np.exp(-ts**2) if what == "nu" else np.sqrt(2.5 + 1.5 * np.tanh(ts))
    if "csv" in doc:
        rows = zip(ts.tolist(), values.tolist())
        (tmp_path / doc["csv"]).write_text("".join(f"{t!r},{v!r}\n" for t, v in rows))
    else:
        doc["times"], doc["values"] = ts.tolist(), values.tolist()
    (tmp_path / "p.json").write_text(json.dumps(doc))
    prof = load_profile(tmp_path / "p.json")
    want = cls[what].tabulated(ts, values)
    assert type(prof) is type(want) and (prof.kind, prof.params) == (want.kind, want.params)
    assert np.array_equal(prof.times, want.times) and np.array_equal(prof.values, want.values)


# -- nu extraction -----------------------------------------------------------

def test_nu_gaussian_closed_form():
    nu = nu_from_force(ForceProfile.gaussian(1.0, 1.0, 0.0), 1.0)
    assert type(nu) is float
    assert nu == pytest.approx(math.pi * math.exp(-0.5) / 2.0, abs=1e-10)
    # t0 only shifts the phase
    nu2 = nu_from_force(ForceProfile.gaussian(1.0, 1.0, 3.7), 1.0)
    assert nu2 == pytest.approx(nu, rel=1e-14, abs=0.0)


def test_nu_rectangular():
    # |FT|^2 = 4 f0^2 sin^2(omega T / 2) / omega^2
    f0, t_on, t_off, omega = 1.5, 0.3, 2.1, 1.7
    want = 2.0 * f0**2 * math.sin(omega * (t_off - t_on) / 2.0) ** 2 / omega**3
    nu = nu_from_force(ForceProfile.rectangular(f0, t_on, t_off), omega)
    assert nu == pytest.approx(want, rel=1e-13, abs=0.0)
    # a full-period pulse excites nothing
    zero = nu_from_force(ForceProfile.rectangular(1.0, 0.0, 2.0 * math.pi), 1.0)
    assert zero < 1e-30


def test_nu_damped_cosine_against_tabulated_route():
    f0, gamma, omega_d, omega = 1.0, 0.8, 2.0, 1.3
    closed = nu_from_force(ForceProfile.damped_cosine(f0, gamma, omega_d), omega)
    # the |t| kink at zero caps the spline at second order, so sample densely
    ts = np.arange(-30.0, 30.0 + 1e-9, 0.01)
    tab = ForceProfile.tabulated(ts, f0 * np.exp(-gamma * np.abs(ts)) * np.cos(omega_d * ts))
    sampled = nu_from_force(tab, omega)
    assert sampled == pytest.approx(closed, rel=1e-4, abs=0.0)


def test_nu_tabulated_gaussian_64_samples_per_period():
    ts = np.arange(-8.0, 8.0 + 1e-9, 2.0 * math.pi / 64.0)
    tab = ForceProfile.tabulated(ts, np.exp(-(ts**2)))
    nu = nu_from_force(tab, 1.0)
    want = math.pi * math.exp(-0.5) / 2.0
    assert nu == pytest.approx(want, rel=1e-6, abs=0.0)


def test_tabulated_fourier_caps_its_panels(monkeypatch):
    from oscigen import excitation

    ts = np.linspace(-12.0, 12.0, 400)
    tab = ForceProfile.tabulated(ts, np.exp(-ts * ts))
    # 6.1e13 panels at omega = 1e12: refused before any array is sized
    with pytest.raises(ValueError, match=r"^omega = 1e\+12 needs 6.11e\+13 quadrature panels"):
        nu_from_force(tab, 1e12)
    # a span of 2e300 is refused before the panel count is cast or the
    # spline built, with no warning on the way
    wide = ForceProfile.tabulated([-1e300, -1.0, 0.0, 1.0, 1e300], [0.0, 0.5, 1.0, 0.5, 0.0])
    for omega in (1.0, 1e10):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"omega = {omega:g} needs")):
                nu_from_force(wide, omega)
    assert "spline" not in vars(wide)
    # the cap itself is admitted: one panel per sample interval here
    monkeypatch.setattr(excitation, "_MAX_PANELS", ts.size - 1)
    assert nu_from_force(tab, 1.0) == pytest.approx(math.pi * math.exp(-0.5) / 2.0, rel=1e-3)
    monkeypatch.setattr(excitation, "_MAX_PANELS", ts.size - 2)
    with pytest.raises(ValueError, match="needs 399 quadrature panels .* more than 398$"):
        nu_from_force(tab, 1.0)


def test_load_profile_refuses_a_document_nested_too_deep(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ProfileError, match="^bad profile: maximum recursion depth"):
        load_profile(path, what="nu")


def test_nu_zero_force():
    nu = nu_from_force(ForceProfile.gaussian(0.0, 1.0, 0.0), 1.0)
    assert type(nu) is float and nu == 0.0


def test_nu_argument_validation():
    for omega in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            nu_from_force(ForceProfile.gaussian(1.0, 1.0, 0.0), omega)
    with pytest.raises(TypeError):
        nu_from_force(FrequencyProfile.constant(1.0), 1.0)


def test_nu_that_overflows_is_a_value_error():
    ts = np.linspace(-12.0, 12.0, 400)
    profiles = [(ForceProfile.tabulated(ts, 1e300 * np.exp(-ts * ts)), 1.0),
                (ForceProfile.gaussian(1e300, 1e10, 0.0), 1e-12)]
    for profile, omega in profiles:
        with pytest.raises(ValueError, match="overflows"):
            nu_from_force(profile, omega)
    assert nu_from_force(ForceProfile.gaussian(1e150, 1.0, 0.0), 1.0) < math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("times, values, omega", [
    # samples 1e300 apart overflow the squared end spacings, and with values
    # of 1e-300 leave coefficients that are not finite
    ([-1e300, -1.0, 0.0, 1.0, 1e300], [0.0, 0.5, 1.0, 0.5, 0.0], 1e-299),
    ([-1e300, -1.0, 0.0, 1.0, 1e300], [0.0, 0.5e-300, 1e-300, 0.5e-300, 0.0], 1e-299),
    # spacings 1e20 and 2 cancel a pivot of the sweep to 0
    ([-1e20, -1.0, 1.0, 1e20], [0.0, 1.0, 1.0, 0.0], 1e-19),
])
def test_spline_that_is_not_finite_is_a_profile_error(times, values, omega):
    force = ForceProfile.tabulated(times, values)
    with pytest.raises(ProfileError, match="^the cubic spline through the tabulated samples"):
        nu_from_force(force, omega)
    with pytest.raises(ProfileError, match="not finite"):
        force(0.0)


# -- rho extraction ----------------------------------------------------------

def _long_ramp(t_first) -> FrequencyProfile:
    """Flat at omega 1 on [t_first, -20], then a tanh ramp to omega 1e154
    on [-15, 15]: admissible, and propagated from t_first."""
    ramp = np.linspace(-15.0, 15.0, 600)
    return FrequencyProfile.tabulated(
        np.concatenate((np.linspace(t_first, -20.0, 40), ramp)),
        np.concatenate((np.ones(40), np.exp(math.log(1e154) * (1.0 + np.tanh(ramp)) / 2.0))))


@pytest.mark.filterwarnings("error")
def test_infinite_step_count_refused_at_once():
    # the span times omega_plus overflows: the step count is inf
    profile = _long_ramp(-2e154)
    assert profile.settle_times()[0] == -2e154
    for extract in (bogoliubov_from_frequency, excitation_report):
        with pytest.raises(IntegrationError, match="^the profile spans inf half periods"):
            extract(profile)


def test_step_count_past_the_cap_is_refused_in_a_short_message():
    # about 3e303 half periods, refused without printing a 300-digit count
    with pytest.raises(IntegrationError, match=r"^the profile spans 3.\d+e\+303 half") as exc:
        bogoliubov_from_frequency(_long_ramp(-1e150))
    assert len(str(exc.value)) < 100


def test_rho_constant_frequency():
    r = bogoliubov_from_frequency(FrequencyProfile.constant(1.3))
    assert r.rho == 0.0
    assert r.alpha == 1.0 and r.beta == 0.0
    assert r.wronskian_residual == 0.0


def test_rho_sudden_step():
    r = bogoliubov_from_frequency(FrequencyProfile.sudden_step(1.0, 2.0))
    assert r.rho == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert r.wronskian_residual < 1e-12
    assert r.steps == 0  # matched at the jump, not propagated
    # general jump formula ((w+ - w-)/(w+ + w-))^2
    r = bogoliubov_from_frequency(FrequencyProfile.sudden_step(0.7, 1.9, t_jump=2.0))
    want = ((1.9 - 0.7) / (1.9 + 0.7)) ** 2
    assert r.rho == pytest.approx(want, rel=1e-12, abs=0.0)
    assert r.steps == 0


@pytest.mark.parametrize("omega_plus", [1e17, 1e-17])
def test_rho_sudden_step_ratio_that_rounds_rho_to_one(omega_plus):
    with pytest.raises(ValueError, match="frequency ratio"):
        bogoliubov_from_frequency(FrequencyProfile.sudden_step(1.0, omega_plus))


def test_rho_tanh_ramp_reflection_formula():
    wm, wp, T = 1.0, 2.0, 1.0
    r = bogoliubov_from_frequency(FrequencyProfile.tanh_ramp(wm**2, wp**2, T), tol=1e-10)
    want = (
        math.sinh(math.pi * (wp - wm) * T / 2.0) ** 2
        / math.sinh(math.pi * (wp + wm) * T / 2.0) ** 2
    )
    assert r.rho == pytest.approx(want, rel=1e-6, abs=0.0)
    assert r.wronskian_residual < 1e-9
    assert r.steps > 100


def test_rho_adiabatic_suppression():
    T = 20.0 / 3.0
    r = bogoliubov_from_frequency(FrequencyProfile.tanh_ramp(1.0, 4.0, T), tol=1e-10)
    assert r.rho < 1e-3
    assert r.wronskian_residual < 1e-9


def test_rho_sudden_limit_of_fast_ramp():
    r = bogoliubov_from_frequency(
        FrequencyProfile.tanh_ramp(1.0, 4.0, 1e-3 / 2.0), tol=1e-10
    )
    assert r.rho == pytest.approx(1.0 / 9.0, rel=1e-2, abs=0.0)


def test_rho_tabulated_profile():
    T = 1.0
    ts = np.arange(-14.0, 14.0 + 1e-9, 0.05)
    om = np.sqrt(1.0 + 3.0 * (1.0 + np.tanh(ts / T)) / 2.0)
    prof = FrequencyProfile.tabulated(ts, om)
    r = bogoliubov_from_frequency(prof, tol=1e-9)
    want = (
        math.sinh(math.pi * 0.5) ** 2 / math.sinh(math.pi * 1.5) ** 2
    )
    assert r.rho == pytest.approx(want, rel=1e-4, abs=0.0)
    assert r.wronskian_residual < 1e-8


def test_rho_tabulated_profile_with_a_kinked_start():
    """A profile that starts to move between two samples: its spline moves
    before the first sample that leaves values[0], so the propagation must
    start at the first sample.  Reference: scipy's DOP853 from there."""
    integrate = pytest.importorskip("scipy.integrate")
    from oscigen.excitation import _project

    ts = np.linspace(-20.0, 20.0, 401)
    om = np.where(ts < -2.0, 1.0, 1.0 + 0.5 * (1.0 + np.tanh(ts)) - 0.5 * (1.0 + np.tanh(-2.0)))
    prof = FrequencyProfile.tabulated(ts, om)
    wm, wp = prof.omega_minus, prof.omega_plus
    xi0 = np.exp(-1j * wm * ts[0]) / math.sqrt(2.0 * wm)
    sol = integrate.solve_ivp(lambda t, y: [y[1], -prof.omega_sq(t) * y[0]], (ts[0], ts[-1]),
                              [xi0, -1j * wm * xi0], method="DOP853", rtol=1e-13, atol=1e-15)
    alpha, beta = _project(wp, ts[-1], *sol.y[:, -1])
    want = abs(beta / alpha) ** 2
    assert bogoliubov_from_frequency(prof, tol=1e-12).rho == pytest.approx(want, rel=1e-7, abs=0.0)


def test_wronskian_contract_scales_with_tolerance():
    r = bogoliubov_from_frequency(FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0), tol=1e-8)
    assert r.wronskian_residual < 10.0 * 1e-8
    assert 0.0 <= r.rho < 1.0


def test_tolerance_domain():
    prof = FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        bogoliubov_from_frequency(prof, tol=1e-3)
    with pytest.raises(ValueError):
        bogoliubov_from_frequency(prof, tol=1e-13)


# -- Magnus propagator --------------------------------------------------------

def test_integrator_reproduces_harmonic_motion():
    # constant omega: every Magnus step is the exact rotation, whatever N,
    # including partial blocks and odd levels of the product tree
    from oscigen.excitation import _MAGNUS_BLOCK, _transfer

    omega = 1.7
    span = 10.0 * 2.0 * math.pi / omega
    c, s = math.cos(omega * span), math.sin(omega * span)
    want = (c, s / omega, -omega * s, c)
    for steps in (1, 3, 64, 1000, _MAGNUS_BLOCK + 1, 3 * _MAGNUS_BLOCK):
        got = _transfer(FrequencyProfile.constant(omega).omega_sq, 0.0, span, steps)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-13, steps


def test_magnus_is_sixth_order_on_a_tanh_ramp():
    from oscigen.excitation import _transfer

    prof = FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0)
    t0, t1 = prof.settle_times()
    ms = [np.array(_transfer(prof.omega_sq, t0, t1, n)) for n in (256, 512, 1024, 2048)]
    diffs = [np.max(np.abs(b - a)) for a, b in zip(ms, ms[1:])]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 48.0 <= coarse / fine <= 80.0, diffs


def _commutator(x, y):
    return x @ y - y @ x


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_magnus_step_matches_nested_commutators(seed, sign):
    # one step against Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240
    # built from 2x2 matrices at random node values, exponentiated by its
    # Taylor series; negative omega^2 takes the cosh/sinh branch
    from oscigen.excitation import _transfer

    rng = np.random.default_rng(seed)
    h = rng.uniform(0.05, 0.5)
    w = sign * rng.uniform(0.5, 9.0, 3)
    shapes = []

    def omega_sq(t):
        shapes.append(t.shape)
        return w[None, :]

    got = np.reshape(_transfer(omega_sq, 0.3, 0.3 + h, 1), (2, 2))
    assert shapes == [(1, 3)]
    a = [np.array([[0.0, 1.0], [-wi, 0.0]]) for wi in w]
    a1 = h * a[1]
    a2 = math.sqrt(15.0) * h / 3.0 * (a[2] - a[0])
    a3 = 10.0 * h / 3.0 * (a[2] - 2.0 * a[1] + a[0])
    c1 = _commutator(a1, a2)
    c2 = -_commutator(a1, 2.0 * a3 + c1) / 60.0
    omega = a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    assert (np.linalg.det(omega) < 0.0) == (sign < 0.0)
    want = term = np.eye(2)
    for k in range(1, 40):
        term = term @ omega / k
        want = want + term
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("T, most", [(1.0, 2048), (15.0, 16384)])
def test_magnus_step_count_on_a_tanh_ramp(T, most):
    r = bogoliubov_from_frequency(FrequencyProfile.tanh_ramp(1.0, 4.0, T), tol=1e-10)
    assert r.steps <= most


def test_magnus_doubling_stops_at_first_agreement(monkeypatch):
    # `steps` is the final N: the step count doubles, and alpha, beta of N/2
    # and N are the first pair to agree to tol |alpha|
    import oscigen.excitation

    levels, projections = [], []
    transfer, project = oscigen.excitation._transfer, oscigen.excitation._project

    def recording_transfer(omega_sq, t0, t1, steps):
        levels.append(steps)
        return transfer(omega_sq, t0, t1, steps)

    def recording_project(*args):
        projections.append(np.array(project(*args)))
        return tuple(projections[-1])

    monkeypatch.setattr(oscigen.excitation, "_transfer", recording_transfer)
    monkeypatch.setattr(oscigen.excitation, "_project", recording_project)
    tol = 1e-10
    r = bogoliubov_from_frequency(FrequencyProfile.tanh_ramp(4.0, 1.0, 0.5), tol=tol)
    assert levels[0] >= 64 and levels[-1] == r.steps
    assert levels == [levels[0] << i for i in range(len(levels))]
    assert len(levels) >= 3
    assert tuple(projections[-1]) == (r.alpha, r.beta)
    agree = [
        np.max(np.abs(fine - coarse)) <= tol * abs(fine[0])
        for coarse, fine in zip(projections, projections[1:])
    ]
    assert agree == [False] * (len(agree) - 1) + [True]


def test_step_cap_refused_before_propagating_past_it(monkeypatch):
    import oscigen.excitation

    real = oscigen.excitation._transfer

    def transfer(omega_sq, t0, t1, steps):
        if steps > oscigen.excitation._MAX_STEPS:
            raise AssertionError(f"propagated {steps} steps, past the cap")
        return real(omega_sq, t0, t1, steps)

    monkeypatch.setattr(oscigen.excitation, "_transfer", transfer)
    prof = FrequencyProfile.tanh_ramp(1.0, 1e12, 1.0)
    with pytest.raises(IntegrationError, match="Magnus steps"):
        bogoliubov_from_frequency(prof)


def test_integrator_step_budget(monkeypatch):
    import oscigen.excitation

    prof = FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0)
    assert bogoliubov_from_frequency(prof, tol=1e-10).steps > 256
    monkeypatch.setattr(oscigen.excitation, "_MAX_STEPS", 256)
    with pytest.raises(IntegrationError):
        bogoliubov_from_frequency(prof, tol=1e-10)


@pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 3.0, 7.0, 15.0])
@pytest.mark.parametrize("w2m, w2p", [(1.0, 4.0), (4.0, 1.0)])
def test_rho_tanh_ramp_against_mpmath(T, w2m, w2p):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        wm, wp = mpmath.sqrt(w2m), mpmath.sqrt(w2p)
        want = float(
            mpmath.sinh(mpmath.pi * (wp - wm) * T / 2) ** 2
            / mpmath.sinh(mpmath.pi * (wp + wm) * T / 2) ** 2
        )
    r = bogoliubov_from_frequency(FrequencyProfile.tanh_ramp(w2m, w2p, T), tol=1e-10)
    assert abs(r.rho - want) <= 1e-11
    assert r.wronskian_residual < 1e-9


def _mp_tanh_rho(mpmath, w2m, w2p, T):
    # sinh^2(pi T |w+ - w-| / 2) / sinh^2(pi T (w+ + w-) / 2) of the float
    # inputs as given, at the caller's precision
    wm, wp = mpmath.sqrt(mpmath.mpf(w2m)), mpmath.sqrt(mpmath.mpf(w2p))
    k = mpmath.pi * mpmath.mpf(T) / 2
    return (mpmath.sinh(k * abs(wp - wm)) / mpmath.sinh(k * (wp + wm))) ** 2


def _closed_form_cases():
    rng = np.random.default_rng(18)
    n = 300
    T = np.exp(rng.uniform(math.log(1e-6), math.log(1e5), n))
    w2 = np.exp(rng.uniform(-5.0, 5.0, (n, 2)))
    cases = [(float(a), float(b), float(t)) for (a, b), t in zip(w2, T)]
    # nearly equal asymptotes, where sinh of a difference of roots would
    # cancel
    for rel in (1e-15, 1e-12, 1e-8, 1e-4):
        for T in (1e-6, 0.3, 7.0, 1e3):
            cases += [(2.0, 2.0 * (1.0 + rel), T), (2.0 * (1.0 + rel), 2.0, T)]
    return cases


def test_tanh_ramp_closed_form_against_mpmath():
    from oscigen.profiles import _tanh_ramp_rho

    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for w2m, w2p, T in _closed_form_cases():
            got = _tanh_ramp_rho(FrequencyProfile.tanh_ramp(w2m, w2p, T).params)
            want = _mp_tanh_rho(mpmath, w2m, w2p, T)
            # relative, down to where rho leaves the normal double range
            err = abs(got - want) / max(want, mpmath.mpf(2.0**-1022))
            worst = max(worst, float(err))
    assert worst <= 1e-12


def test_tanh_ramp_closed_form_edges():
    from oscigen.profiles import _tanh_ramp_rho

    # equal asymptotes reflect nothing, even where T (w+ + w-) overflows
    # and where pi T / 2 does, which makes the general form inf * 0
    for T in (1.0, 1e308, 1.5e308):
        assert _tanh_ramp_rho(FrequencyProfile.tanh_ramp(3.0, 3.0, T).params) == 0.0
    # a slow ramp underflows where sinh would overflow
    assert _tanh_ramp_rho(FrequencyProfile.tanh_ramp(1.0, 4.0, 1e5).params) == 0.0
    assert _tanh_ramp_rho(FrequencyProfile.tanh_ramp(1.0, 4.0, 1e300).params) == 0.0
    # a ramp so fast that pi T (w+ + w-) underflows is the sudden step
    for T in (1e-300, 5e-324):
        rho = _tanh_ramp_rho(FrequencyProfile.tanh_ramp(1.0, 4.0, T).params)
        assert rho == pytest.approx(1.0 / 9.0, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 3.0, 7.0, 15.0])
@pytest.mark.parametrize("w2m, w2p", [(1.0, 4.0), (4.0, 1.0)])
def test_tanh_report_against_propagator(T, w2m, w2p):
    prof = FrequencyProfile.tanh_ramp(w2m, w2p, T)
    rep = excitation_report(prof, tol=1e-10)
    r = bogoliubov_from_frequency(prof, tol=1e-10)
    assert abs(rep.value - r.rho) <= 1e-11 + 1e-15
    assert rep.wronskian_residual == 0.0


def test_tanh_report_does_not_propagate(monkeypatch):
    import oscigen.excitation

    def transfer(*args):
        raise AssertionError("a tanh ramp was propagated")

    monkeypatch.setattr(oscigen.excitation, "_transfer", transfer)
    rep = excitation_report(FrequencyProfile.tanh_ramp(1.0, 4.0, 15.0), tol=1e-10)
    assert 0.0 < rep.value < 1e-3
    with pytest.raises(ValueError, match="tol"):
        excitation_report(FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0), tol=1e-3)
    with pytest.raises(ValueError, match="rounds rho to 1"):
        excitation_report(FrequencyProfile.tanh_ramp(1.0, 1e34, 1e-20))


def test_propagated_rho_that_rounds_to_one_is_a_value_error():
    # the same ValueError as a sudden step
    with pytest.raises(ValueError, match="rounds rho to 1"):
        bogoliubov_from_frequency(FrequencyProfile.tanh_ramp(1.0, 1e34, 1e-20))


@pytest.mark.parametrize("value", [math.inf, math.nan, "1.0", 10**400])
def test_closed_form_kinds_need_finite_numbers(value):
    with pytest.raises(ProfileError, match="'T' must be a finite number"):
        FrequencyProfile.tanh_ramp(1.0, 4.0, value)
    with pytest.raises(ProfileError, match="'f0' must be a finite number"):
        ForceProfile.gaussian(value, 1.0)


def test_constant_frequency_is_the_exact_identity():
    # no projection: one at t = 0 leaves a rounding-level Wronskian
    # residual for about a quarter of these omega
    rng = np.random.default_rng(37)
    for w in np.exp(rng.uniform(-20.0, 20.0, 2000)).tolist():
        r = bogoliubov_from_frequency(FrequencyProfile.constant(w))
        assert (r.alpha, r.beta, r.rho, r.wronskian_residual, r.steps) == (1.0, 0.0, 0.0, 0.0, 0)
        assert type(r.rho) is float and type(r.wronskian_residual) is float
        assert excitation_report(FrequencyProfile.constant(w)).wronskian_residual == 0.0


def test_rho_tanh_ramp_without_a_step():
    r = bogoliubov_from_frequency(FrequencyProfile.tanh_ramp(2.0, 2.0, 1.0))
    assert r.rho == 0.0
    assert r.wronskian_residual < 1e-15


def test_tabulated_spline_built_once(monkeypatch):
    built = []

    class CountingSpline(_NotAKnotSpline):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("oscigen.profiles._NotAKnotSpline", CountingSpline)
    ts = np.linspace(-10.0, 10.0, 200)
    prof = FrequencyProfile.tabulated(ts, np.sqrt(2.5 + 1.5 * np.tanh(ts)))
    for t in np.linspace(-12.0, 12.0, 50):
        prof.omega_sq(float(t))
    prof.omega_sq(ts)
    assert len(built) == 1
    force = ForceProfile.tabulated(ts, np.exp(-ts * ts))
    force(0.3)
    nu_from_force(force, 1.0)
    force(ts)
    assert len(built) == 2


def _nonuniform_knots(rng, n):
    return np.cumsum(rng.uniform(0.05, 2.0, n)) - 20.0


def test_spline_reproduces_cubics():
    # not-a-knot ends make the spline exact on cubics, extrapolation included
    def cubic(t):
        return ((0.3 * t - 1.1) * t + 0.7) * t - 2.0

    rng = np.random.default_rng(3)
    for n in (4, 5, 40):
        x = _nonuniform_knots(rng, n)
        spline = _NotAKnotSpline(x, cubic(x))
        pts = np.linspace(x[0] - 1.0, x[-1] + 1.0, 301)
        assert np.max(np.abs(spline(pts) - cubic(pts))) <= 1e-11 * np.max(
            np.abs(cubic(pts))
        )


@pytest.mark.parametrize("n", [4, 5, 10, 200, 4000])
def test_spline_matches_scipy_cubic_spline(n):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(n)
    x = _nonuniform_knots(rng, n)
    y = rng.normal(size=n)
    span = x[-1] - x[0]
    pts = np.concatenate((
        x,
        rng.uniform(x[0], x[-1], 1000),
        x[0] - span * np.array([1e-9, 1e-3, 0.05]),
        x[-1] + span * np.array([1e-9, 1e-3, 0.05]),
    ))
    got = _NotAKnotSpline(x, y)(pts)
    want = interpolate.CubicSpline(x, y)(pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # every knot but the last starts its own interval, so it returns its sample
    assert np.array_equal(got[: n - 1], y[:-1])


def _panel_loop_fourier(profile, omega):
    """Reference quadrature, one spline call per Gauss panel; returns the
    integral and the number of panels."""
    from oscigen.quadrature import gauss_legendre

    rule = gauss_legendre(8)
    period = 2.0 * math.pi / omega
    total = 0.0 + 0.0j
    panels = 0
    for a, b in zip(profile.times[:-1], profile.times[1:]):
        pieces = max(1, math.ceil((b - a) / (period / 16.0)))
        edges = np.linspace(a, b, pieces + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            ts = lo + (hi - lo) * rule.nodes
            total += (hi - lo) * np.dot(
                rule.weights, profile.spline(ts) * np.exp(-1j * omega * ts)
            )
            panels += 1
    return total, panels


@pytest.mark.parametrize("grid", ["coarse_nonuniform", "gaussian_4000"])
def test_blocked_fourier_matches_panel_loop(monkeypatch, grid):
    from oscigen.excitation import _FOURIER_BLOCK, _tabulated_fourier

    calls = []

    class CountingSpline(_NotAKnotSpline):
        def __call__(self, *args, **kwargs):
            calls.append(1)
            return super().__call__(*args, **kwargs)

    monkeypatch.setattr("oscigen.profiles._NotAKnotSpline", CountingSpline)
    if grid == "coarse_nonuniform":
        # 1.5-wide intervals in the wings need four panels each at omega = 1
        ts = np.concatenate((
            np.linspace(-15.0, -3.0, 9),
            np.linspace(-2.8, 2.8, 41),
            np.linspace(3.0, 15.0, 9),
        ))
        values = np.exp(-ts * ts / 8.0)
    else:
        ts = np.linspace(-12.0, 12.0, 4000)
        values = np.exp(-ts * ts)
    prof = ForceProfile.tabulated(ts, values)
    omega = 1.0
    want, panels = _panel_loop_fourier(prof, omega)
    if grid == "coarse_nonuniform":
        assert panels > ts.size - 1
    calls.clear()
    got = _tabulated_fourier(prof, omega)
    assert abs(got - want) <= 1e-13 * abs(want)
    # one spline call per block of nodes, not one per panel
    assert len(calls) == math.ceil(8 * panels / _FOURIER_BLOCK)


def _freq_profiles():
    ts = np.linspace(-10.0, 10.0, 200)
    return {
        "constant": FrequencyProfile.constant(1.3),
        "sudden_step": FrequencyProfile.sudden_step(0.7, 1.9, t_jump=0.25),
        "tanh_ramp": FrequencyProfile.tanh_ramp(1.0, 4.0, 1.5),
        "tabulated": FrequencyProfile.tabulated(ts, np.sqrt(2.5 + 1.5 * np.tanh(ts))),
    }


@pytest.mark.parametrize("kind", ["constant", "sudden_step", "tanh_ramp", "tabulated"])
def test_scalar_omega_sq_matches_array_path(kind):
    prof = _freq_profiles()[kind]
    # both ends of the table and the jump exactly, and times beyond them
    times = [-12.0, -10.0, -3.3, -1e-300, 0.0, 0.25, 0.7, 9.99, 10.0, 12.5]
    for t in times:
        array = prof.omega_sq(np.array([t]))[0]
        for arg in (t, np.float64(t)):
            got = prof.omega_sq(arg)
            assert type(got) is float
            if kind == "tanh_ramp":
                assert abs(got - array) <= 2.0 * np.spacing(array)
            else:
                assert got == array


@pytest.mark.parametrize("kind", ["tanh_ramp", "tabulated"])
def test_propagator_asks_omega_sq_only_for_arrays(monkeypatch, kind):
    import oscigen.excitation

    block = 512
    monkeypatch.setattr(oscigen.excitation, "_MAGNUS_BLOCK", block)
    prof = _freq_profiles()[kind]
    seen = []
    original = FrequencyProfile.omega_sq

    def recording(self, t):
        seen.append(t)
        return original(self, t)

    monkeypatch.setattr(FrequencyProfile, "omega_sq", recording)
    steps = bogoliubov_from_frequency(prof, tol=1e-8).steps
    assert all(isinstance(t, np.ndarray) for t in seen)
    # the settle probe over five periods, then the three Gauss nodes of up
    # to `block` steps per call
    assert seen[0].shape == (64,)
    rows = [t.shape[0] for t in seen[1:]]
    assert all(t.shape == (n, 3) and n <= block for t, n in zip(seen[1:], rows))
    # N doubles up to `steps`, so the levels sum to 2 steps - N_first
    first = 2 * steps - sum(rows)
    levels = [first << i for i in range((steps // first).bit_length())]
    assert levels[0] >= 64 and levels[-1] == steps
    assert len(rows) == sum(-(-n // block) for n in levels)


# -- combined reports --------------------------------------------------------

def test_report_for_constant_frequency():
    rep = excitation_report(FrequencyProfile.constant(1.0))
    d = rep.to_json_dict()
    assert d["rho"] == 0.0
    assert d["mean_n0"] == 0.0
    assert d["vacuum_row"][0] == 1.0
    assert all(x == 0.0 for x in d["vacuum_row"][1:])


def test_report_for_sudden_step():
    rep = excitation_report(FrequencyProfile.sudden_step(1.0, 2.0))
    assert rep.value == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert rep.mean_n0 == pytest.approx(0.125, abs=1e-12)
    # vacuum row must agree with the parametric family's table
    from oscigen.parametric import param_prob_table

    row = param_prob_table(rep.value, size=8, mode="float").values[0]
    assert np.allclose(rep.vacuum_row, row, atol=1e-12)


def test_report_for_zero_force():
    rep = excitation_report(ForceProfile.gaussian(0.0, 1.0, 0.0), omega=1.0)
    assert rep.value == 0.0
    assert rep.mean_n0 == 0.0
    assert rep.vacuum_row[0] == 1.0


def test_report_poisson_row_matches_forced_table():
    from oscigen.forced import forced_prob_table

    rep = excitation_report(ForceProfile.gaussian(1.0, 1.0, 0.0), omega=1.0)
    row = forced_prob_table(rep.value, size=8, mode="float").values[0]
    assert np.allclose(rep.vacuum_row, row, atol=1e-12)
    assert rep.mean_n0 == pytest.approx(rep.value)


def test_report_vacuum_rows_match_closed_forms():
    # parametric: w_0,2k = (2k-1)!!/(2k)!! rho^k sqrt(1-rho), odd entries zero;
    # sudden steps give rho = ((w1 - w2)/(w1 + w2))^2 analytically
    for w2 in (2.0, 3.0, 9.0, 199.0):
        rep = excitation_report(FrequencyProfile.sudden_step(1.0, w2))
        rho = rep.value
        dd = 1.0
        for n, got in enumerate(rep.vacuum_row):
            if n % 2:
                assert got == 0.0
                continue
            k = n // 2
            if k:
                dd *= (2 * k - 1) / (2 * k)
            assert got == pytest.approx(
                dd * rho**k * math.sqrt(1.0 - rho), rel=1e-15, abs=0.0
            )
    # forced: the Poisson row e^-nu nu^n / n!
    for amp in (0.5, 1.0, 4.0):
        rep = excitation_report(ForceProfile.gaussian(amp, 1.0, 0.0), omega=1.0)
        nu = rep.value
        for n, got in enumerate(rep.vacuum_row):
            want = math.exp(-nu) * nu**n / math.factorial(n)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_report_requires_omega_for_force():
    with pytest.raises(ValueError):
        excitation_report(ForceProfile.gaussian(1.0, 1.0, 0.0))


def test_report_refuses_omega_for_frequency():
    with pytest.raises(ValueError, match="omega"):
        excitation_report(FrequencyProfile.constant(1.0), omega=1.0)
