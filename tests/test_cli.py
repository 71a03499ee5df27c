import ast
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from oscigen.cli import main
from oscigen.amplitude import MAX_EXACT_SIZE
from oscigen.probtable import ProbTable
from oscigen.profiles import ProfileError, load_profile
from oscigen.series import MAX_WINDOW
from oscigen.verify import run_suite


@pytest.fixture
def runner():
    return CliRunner()


def test_table_identity_at_zero_drive(runner):
    result = runner.invoke(main, ["table", "forced", "--nu", "0", "--max", "4"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "m\\n,0,1,2,3"
    got = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.array_equal(got, np.eye(4))


def test_table_csv_cells_round_trip(runner):
    result = runner.invoke(
        main, ["table", "parametric", "--rho", "0.37", "--max", "6"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    got = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
    from oscigen.parametric import param_prob_table

    want = param_prob_table(0.37, size=6).values
    assert np.array_equal(got, want)  # 17 significant digits: bit-exact


def test_table_antidiagonal_spot(runner):
    result = runner.invoke(
        main, ["table", "parametric", "--rho", "0.19", "--max", "4"]
    )
    lines = result.output.strip().splitlines()
    got = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
    s2 = got[0][2] + got[1][1] + got[2][0]
    assert s2 == pytest.approx(0.9, abs=1e-14)


def test_table_singular_vacuum_entry(runner):
    result = runner.invoke(
        main,
        ["table", "singular", "--rho", "0.5", "--j", "-0.25", "--max", "4"],
    )
    assert result.exit_code == 0
    first = result.output.strip().splitlines()[1].split(",")[1]
    assert first == "0.70710678118654757"


def test_table_json_round_trip(runner, tmp_path):
    out = tmp_path / "t.json"
    result = runner.invoke(
        main,
        [
            "table", "forced", "--nu", "1.5", "--max", "6",
            "--mode", "exact", "--format", "json", "--output", str(out),
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    table = ProbTable.from_json_dict(doc)
    from oscigen.forced import forced_prob_table

    want = forced_prob_table(1.5, size=6, mode="exact")
    assert np.array_equal(table.values, want.values)
    assert table.symbolic == want.symbolic
    assert doc["symbolic"]["prefactor"] == "exp(-nu)"
    assert doc["symbolic"]["entries"][1][1] == ["1/1", "-2/1", "1/1"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_output_file_matches_stdout(runner, tmp_path, fmt):
    for table in (["singular", "--rho", "0.3", "--j", "-0.75", "--max", "8"],
                  ["forced", "--nu", "0", "--max", "9", "--mode", "exact"],
                  ["parametric", "--rho", "0.61", "--max", "9", "--mode", "exact"]):
        args = ["table", *table, "--format", fmt]
        shown = runner.invoke(main, args)
        assert shown.exit_code == 0
        out = tmp_path / f"t.{fmt}"
        written = runner.invoke(main, [*args, "--output", str(out)])
        assert written.exit_code == 0
        assert written.stdout == ""
        assert out.read_bytes() == shown.stdout_bytes
        assert shown.stdout_bytes.endswith(b"\n")


def test_table_forced_exact_at_48(runner):
    result = runner.invoke(
        main,
        ["table", "forced", "--nu", "2", "--max", "48", "--mode", "exact", "--format", "json"],
    )
    assert result.exit_code == 0
    table = ProbTable.from_json_dict(json.loads(result.output))
    table.validate()
    assert table.size == (48, 48)
    assert table.symbolic[47][47].degree == 94


def test_table_invalid_parameters_exit_2(runner):
    cases = [
        ["table", "forced", "--max", "4"],
        ["table", "forced", "--nu", "-1", "--max", "4"],
        ["table", "parametric", "--rho", "1.2", "--max", "4"],
        ["table", "singular", "--rho", "0.5", "--max", "4"],
        ["table", "singular", "--rho", "0.5", "--j", "0.2", "--max", "4"],
        ["table", "singular", "--rho", "0.5", "--j", "-0.25", "--mode", "exact"],
    ]
    for args in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert "error" in result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize("family, args, refused", [
    ("forced", ["--nu", "1", "--rho", "0.5"], "--rho"),
    ("forced", ["--nu", "1", "--j", "-1"], "--j"),
    ("parametric", ["--rho", "0.5", "--j", "-1"], "--j"),
    ("parametric", ["--rho", "0.5", "--nu", "1"], "--nu"),
    ("singular", ["--rho", "0.5", "--j", "-1", "--nu", "1"], "--nu"),
])
def test_table_refuses_an_option_its_family_does_not_take(runner, family, args, refused):
    # the option would be dropped without a word
    result = runner.invoke(main, ["table", family, *args, "--max", "4"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {family} tables do not take {refused}\n"


def test_table_unwritable_output_exit_2(runner, tmp_path):
    out = tmp_path / "missing" / "t.csv"
    result = runner.invoke(main, ["table", "forced", "--nu", "1", "--max", "4",
                                  "--output", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


def test_window_cap_environment(runner, monkeypatch):
    # OSCIGEN_MAX_WINDOW is not read: the cap is the constant MAX_WINDOW
    monkeypatch.setenv("OSCIGEN_MAX_WINDOW", "8")
    assert runner.invoke(main, ["table", "forced", "--nu", "1", "--max", "32"]).exit_code == 0
    size = str(MAX_WINDOW + 2)
    result = runner.invoke(main, ["table", "forced", "--nu", "1", "--max", size])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: window")
    assert "cap" in result.stderr
    assert result.stdout == ""


def test_exact_size_cap_exit_2(runner):
    size = str(MAX_EXACT_SIZE + 1)
    result = runner.invoke(
        main, ["table", "forced", "--nu", "1", "--max", size, "--mode", "exact"]
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: exact tables are capped")
    assert len(result.stderr.splitlines()) == 1
    assert result.stdout == ""


def test_verify_has_no_tol_option(runner):
    result = runner.invoke(main, ["verify", "--tol", "1e-9"])
    assert result.exit_code == 2
    assert "No such option" in result.stderr


def test_excite_constant_profile(runner, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "constant", "omega": 1.0}))
    result = runner.invoke(main, ["excite", "--profile", str(path), "--what", "rho"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["rho"] == 0.0
    assert doc["mean_n0"] == 0.0


def test_excite_sudden_step(runner, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps(
            {"kind": "sudden_step", "omega_minus": 1.0, "omega_plus": 2.0, "t_jump": 0.0}
        )
    )
    result = runner.invoke(main, ["excite", "--profile", str(path), "--what", "rho"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["rho"] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert doc["wronskian_residual"] < 1e-12


def test_excite_zero_force(runner, tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"kind": "gaussian", "f0": 0.0, "tau": 1.0, "t0": 0.0}))
    result = runner.invoke(
        main, ["excite", "--profile", str(path), "--what", "nu", "--omega", "1.0"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["nu"] == 0.0


def test_excite_gaussian_value(runner, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "gaussian", "f0": 1.0, "tau": 1.0, "t0": 0.0}))
    result = runner.invoke(
        main, ["excite", "--profile", str(path), "--what", "nu", "--omega", "1.0"]
    )
    doc = json.loads(result.output)
    assert doc["nu"] == pytest.approx(math.pi * math.exp(-0.5) / 2.0, abs=1e-12)


@pytest.mark.parametrize("tol", ["1e-99", "nan"])
@pytest.mark.parametrize("args, doc", [
    (["--what", "nu", "--omega", "1"], {"kind": "gaussian", "f0": 1.0, "tau": 1.0, "t0": 0.0}),
    (["--what", "rho"], {"kind": "constant", "omega": 1.0}),
])
def test_excite_tol_out_of_range_exit_2(runner, tmp_path, args, doc, tol):
    # every profile range-checks --tol, those that do not use it too
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["excite", "--profile", str(path), *args, "--tol", tol])
    assert result.exit_code == 2
    assert result.stderr == "error: tol must lie in [1e-12, 1e-4]\n"


def test_excite_parse_failure_exit_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    result = runner.invoke(main, ["excite", "--profile", str(path), "--what", "rho"])
    assert result.exit_code == 2
    assert "error" in result.stderr


def test_excite_wrong_family_exit_2(runner, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "constant", "omega": 1.0}))
    result = runner.invoke(main, ["excite", "--profile", str(path), "--what", "nu"])
    assert result.exit_code == 2


_TS = [float(t) for t in range(64)]
_RAMP_TS = np.linspace(-12.0, 12.0, 400)


@pytest.mark.parametrize("doc, step_cap", [
    # a tabulated step: the spline rings after the last sample that moves,
    # so the frequency never settles where the out-state is matched
    ({"kind": "tabulated", "profile": "frequency", "times": _TS,
      "values": [1.0 if t < 32 else 2.0 for t in _TS]}, None),
    # a smooth tabulated ramp under a Magnus step cap too small to resolve
    # it (a tanh_ramp document takes its closed form and propagates nothing)
    ({"kind": "tabulated", "profile": "frequency", "times": _RAMP_TS.tolist(),
      "values": np.sqrt(2.5 + 1.5 * np.tanh(_RAMP_TS)).tolist()}, 10),
])
def test_excite_integration_failure_exit_3(runner, tmp_path, monkeypatch, doc, step_cap):
    if step_cap is not None:
        monkeypatch.setattr("oscigen.excitation._MAX_STEPS", step_cap)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["excite", "--profile", str(path), "--what", "rho"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("omega_plus", [1e17, 1e-17])
def test_excite_extreme_sudden_step_exit_2(runner, tmp_path, omega_plus):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(
        {"kind": "sudden_step", "omega_minus": 1.0, "omega_plus": omega_plus, "t_jump": 0.0}
    ))
    result = runner.invoke(main, ["excite", "--profile", str(path), "--what", "rho"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: frequency ratio")
    assert len(result.stderr.splitlines()) == 1


_CLOSED_FORM_DOCS = {
    "gaussian": ({"f0": 1.0, "tau": 1.0, "t0": 0.0}, "nu"),
    "rectangular": ({"f0": 1.0, "t_on": 0.0, "t_off": 2.0}, "nu"),
    "damped_cosine": ({"f0": 1.0, "gamma": 0.8, "omega_d": 2.0}, "nu"),
    "constant": ({"omega": 1.0}, "rho"),
    "sudden_step": ({"omega_minus": 1.0, "omega_plus": 2.0, "t_jump": 0.0}, "rho"),
    "tanh_ramp": ({"omega2_minus": 1.0, "omega2_plus": 4.0, "T": 1.0}, "rho"),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, (doc, _) in _CLOSED_FORM_DOCS.items() for field in doc
])
def test_excite_nonfinite_parameter_exit_2(runner, tmp_path, kind, field, value):
    # an infinite T once propagated for over a minute; other fields ended in
    # "math domain error" or a NaN nu
    doc, what = _CLOSED_FORM_DOCS[kind]
    path = tmp_path / "p.json"
    # json writes the non-finite floats as NaN / Infinity and reads them back
    path.write_text(json.dumps({"kind": kind, **doc, field: value}))
    args = ["excite", "--profile", str(path), "--what", what]
    if what == "nu":
        args += ["--omega", "1.0"]
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {kind} profile field {field!r} must be a finite")
    assert len(result.stderr.splitlines()) == 1


def _excite_rho(runner, tmp_path, doc, *args):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    return runner.invoke(main, ["excite", "--profile", str(path), "--what", "rho", *args])


def test_excite_tanh_ramp_is_closed_form(runner, tmp_path):
    # a slow ramp, 2^23 Magnus steps and more, answers at once with rho
    # underflowed to 0; a ramp to omega^2 = 1e34 gives e^{-2 pi T omega_-}
    ramp = {"kind": "tanh_ramp", "omega2_minus": 1.0, "omega2_plus": 4.0}
    start = time.perf_counter()
    result = _excite_rho(runner, tmp_path, {**ramp, "T": 1e5})
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 0, result.output
    doc = json.loads(result.stdout)
    assert doc["rho"] == 0.0 and doc["wronskian_residual"] == 0.0
    steep = {**ramp, "omega2_plus": 1e34, "T": 1.0}
    result = _excite_rho(runner, tmp_path, steep)
    assert result.exit_code == 0, result.output
    want = math.exp(-2.0 * math.pi)
    assert abs(json.loads(result.stdout)["rho"] - want) <= 1e-12 * want
    # --tol has nothing to control here but keeps its range
    result = _excite_rho(runner, tmp_path, {**ramp, "T": 1.0}, "--tol", "1e-3")
    assert result.exit_code == 2
    assert result.stderr == "error: tol must lie in [1e-12, 1e-4]\n"


def _source_env() -> dict:
    """The environment with this source tree first on PYTHONPATH."""
    import oscigen

    src = str(Path(oscigen.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _run_and_list_modules(statement: str, packages=("scipy",)) -> str:
    """stdout of a fresh interpreter that imports oscigen.cli, runs
    ``statement`` (a SystemExit with code 0 counts as success) and prints
    the modules of ``packages`` it loaded."""
    code = (
        "import sys, oscigen.cli\n"
        "try:\n"
        f"    {statement}\n"
        "except SystemExit as exc:\n"
        "    if exc.code:\n"
        "        raise\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {tuple(packages)!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_source_env(), capture_output=True,
        text=True, check=True,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    assert _run_and_list_modules("pass") == "[]"


def test_tanh_excite_leaves_scipy_unloaded(tmp_path):
    # the Magnus propagator and the spline of tabulated profiles are numpy
    # only, and verify reaches both
    ts = np.linspace(-12.0, 12.0, 400)
    runs = {
        "tanh": ({"kind": "tanh_ramp", "omega2_minus": 1.0, "omega2_plus": 4.0,
                  "T": 1.0}, ["--what", "rho"]),
        "force": ({"kind": "tabulated", "times": ts.tolist(),
                   "values": np.exp(-ts * ts).tolist()},
                  ["--what", "nu", "--omega", "1.0"]),
        "frequency": ({"kind": "tabulated", "times": ts.tolist(),
                       "values": np.sqrt(2.5 + 1.5 * np.tanh(ts)).tolist()},
                      ["--what", "rho"]),
    }
    for name, (doc, args) in runs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = ["excite", "--profile", str(path), *args]
        report, modules = _run_and_list_modules(f"oscigen.cli.main({argv!r})").rsplit("\n", 1)
        assert 0.0 < json.loads(report)[args[1]] < 1.0, name
        assert modules == "[]", name
    out = _run_and_list_modules("oscigen.cli.main(['verify', '--suite', 'all'])")
    summary, modules = out.rsplit("\n", 1)
    assert " 0 failed" in summary
    assert modules == "[]"


def _modules_after(argv: list[str]) -> set[str]:
    """The oscigen and numpy modules a fresh interpreter has loaded after
    ``oscigen.cli.main(argv)``."""
    out = _run_and_list_modules(f"oscigen.cli.main({argv!r})", ("oscigen", "numpy"))
    return set(ast.literal_eval(out.rsplit("\n", 1)[-1]))


def test_cli_import_loads_no_command_module():
    out = _run_and_list_modules("pass", ("oscigen", "numpy"))
    assert out == "['oscigen', 'oscigen.cli', 'oscigen.errors']"


@pytest.mark.parametrize("argv", [
    ["forced", "--nu", "2.37"],
    ["forced", "--nu", "2.37", "--mode", "exact", "--format", "json"],
    ["parametric", "--rho", "0.4"],
    ["parametric", "--rho", "0.4", "--mode", "exact", "--format", "json"],
    ["singular", "--rho", "0.4", "--j", "-1.3"],
    ["singular", "--rho", "0.4", "--j", "-1.3", "--format", "json"],
])
def test_table_loads_only_its_family(argv):
    loaded = _modules_after(["table", *argv, "--max", "4"])
    family = f"oscigen.{argv[0]}"
    assert family in loaded
    others = {"oscigen.forced", "oscigen.parametric", "oscigen.singular"} - {family}
    # the checking routes (series, quadrature) stay unloaded too
    assert not loaded & ({"oscigen.verify", "oscigen.excitation", "oscigen.profiles",
                          "oscigen.series", "oscigen.quadrature"} | others)


def test_excite_does_not_load_verify(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps({"kind": "gaussian", "f0": 1.0, "tau": 1.0, "t0": 0.0}))
    loaded = _modules_after(["excite", "--profile", str(path), "--what", "nu", "--omega", "1"])
    assert {"oscigen.excitation", "oscigen.profiles"} <= loaded
    assert not {"oscigen.verify", "oscigen.forced", "oscigen.parametric",
                "oscigen.probtable", "oscigen.series"} & loaded


def test_library_integrals_carry_no_checking_route():
    # the integral and slope calls return values: no record classes, and
    # the Gauss rules that confirm them stay unloaded
    code = (
        "import sys, dataclasses, oscigen.parametric as p, oscigen.singular as s\n"
        "p.param_weighted_integrals(2, 4); p.param_jmn(3, 5); s.adiabatic_diag(1, -0.6)\n"
        "print([n for mod in (p, s) for n, v in vars(mod).items()\n"
        "       if dataclasses.is_dataclass(v) and v.__module__ == mod.__name__])\n"
        "print(sorted({'oscigen.quadrature', 'oscigen.verify'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=_source_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_suite_choices_are_the_verify_suites():
    import oscigen.cli
    import oscigen.verify

    assert oscigen.cli.SUITE_NAMES == tuple(oscigen.verify.SUITES)


def test_package_resolves_public_names_on_access():
    code = "import sys, oscigen; print(sorted(m for m in sys.modules if m.startswith(('oscigen', 'numpy'))))"
    out = subprocess.run([sys.executable, "-c", code], env=_source_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['oscigen']"

    import importlib

    import oscigen

    for name in oscigen.__all__:
        module = importlib.import_module(f"oscigen.{oscigen._MODULE_OF[name]}")
        assert name in module.__all__
        assert getattr(oscigen, name) is getattr(module, name)
    # and the reverse: every public name of an exported module resolves
    for module_name, names in oscigen._EXPORTS.items():
        assert list(names) == importlib.import_module(f"oscigen.{module_name}").__all__
    assert set(oscigen.__all__) | {"__version__"} <= set(dir(oscigen))
    with pytest.raises(AttributeError):
        oscigen.no_such_name
    from oscigen import ground_row

    assert ground_row is oscigen.singular.ground_row


_TOO_MANY_PANELS = {
    "fast_omega": ("1e12", {"times": np.linspace(-12.0, 12.0, 400).tolist(),
                            "values": np.exp(-np.linspace(-12.0, 12.0, 400) ** 2).tolist()}),
    "wide_span": ("1", {"times": [-1e300, -1.0, 0.0, 1.0, 1e300],
                        "values": [0.0, 0.5, 1.0, 0.5, 0.0]}),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [*_TOO_MANY_PANELS, "nested"])
def test_excite_refuses_unbounded_work_exit_2(runner, tmp_path, case):
    path = tmp_path / "p.json"
    if case == "nested":
        omega, text = "1", "[" * 100_000
    else:
        omega, doc = _TOO_MANY_PANELS[case]
        text = json.dumps({"kind": "tabulated", "profile": "force", **doc})
    path.write_text(text)
    result = runner.invoke(main, ["excite", "--profile", str(path), "--what", "nu",
                                  "--omega", omega])
    assert result.exit_code == 2
    assert result.stdout == ""
    want = "bad profile: maximum recursion" if case == "nested" else f"omega = {float(omega):g} needs"
    assert result.stderr.startswith(f"error: {want}")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("what", ["nu", "rho"])
@pytest.mark.parametrize("bad", ["nan_value", "inf_value", "inf_time"])
def test_excite_nonfinite_samples_exit_2(runner, tmp_path, what, bad):
    ts = np.linspace(-8.0, 8.0, 64)
    vs = np.exp(-ts * ts) if what == "nu" else np.ones_like(ts)
    if bad == "inf_time":
        ts[-1] = math.inf
    else:
        vs[20] = math.nan if bad == "nan_value" else math.inf
    path = tmp_path / "p.json"
    # json writes the non-finite floats as NaN / Infinity and reads them back
    path.write_text(json.dumps({"kind": "tabulated", "times": ts.tolist(),
                                "values": vs.tolist()}))
    result = runner.invoke(
        main, ["excite", "--profile", str(path), "--what", what, "--omega", "1.0"]
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "finite" in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


_TS = np.linspace(-12.0, 12.0, 400)
_RAMP = np.sqrt(2.5 + 1.5 * np.tanh(_TS))


@pytest.mark.parametrize("doc, args, message", [
    pytest.param(None, ["table", "forced", "--nu", "inf"], "finite", id="table-nu-inf"),
    pytest.param(None, ["table", "singular", "--rho", "0.5", "--j", "-inf"], "at least",
                 id="table-j-inf"),
    pytest.param(None, ["table", "singular", "--rho", "0.5", "--j", "-1e160"], "at least",
                 id="table-j-1e160"),
    pytest.param({"kind": "tabulated", "profile": "force", "times": _TS.tolist(),
                  "values": (1e300 * np.exp(-_TS * _TS)).tolist()},
                 ["--what", "nu", "--omega", "1"], "overflows", id="excite-tabulated-nu"),
    pytest.param({"kind": "gaussian", "f0": 1e300, "tau": 1e10, "t0": 0},
                 ["--what", "nu", "--omega", "1e-12"], "overflows", id="excite-gaussian-nu"),
    pytest.param({"kind": "tabulated", "profile": "frequency", "times": _TS.tolist(),
                  "values": (1e154 * _RAMP).tolist()},
                 ["--what", "rho"], "omega^2 overflows", id="excite-omega-squared"),
    pytest.param({"kind": "tabulated", "profile": "banana", "times": _TS.tolist(),
                  "values": _RAMP.tolist()},
                 ["--what", "rho"], "profile field", id="excite-tabulated-banana"),
    pytest.param({"kind": "gaussian", "profile": "banana", "f0": 1, "tau": 1, "t0": 0},
                 ["--what", "nu", "--omega", "1"], "profile field", id="excite-gaussian-banana"),
    # gamma^2 + (omega - omega_d)^2 underflows to 0 here: F = 2e200 must not be 0 / 0
    pytest.param({"kind": "damped_cosine", "f0": 1, "gamma": 1e-200, "omega_d": 1},
                 ["--what", "nu", "--omega", "1"], "overflows", id="excite-damped-tiny-gamma"),
    # samples 1e300 apart: the spline's squared end spacings overflow, and
    # with values of 1e-300 its coefficients are not finite
    *(pytest.param({"kind": "tabulated", "profile": "force", "times": [-1e300, -1, 0, 1, 1e300],
                    "values": [0, 0.5 * scale, scale, 0.5 * scale, 0]},
                   ["--what", "nu", "--omega", "1e-299"], "spline", id=f"excite-spline-{scale:g}")
      for scale in (1.0, 1e-300)),
    # spacings 1e20 and 2 cancel a pivot of the spline's sweep to 0
    pytest.param({"kind": "tabulated", "profile": "force", "times": [-1e20, -1, 1, 1e20],
                  "values": [0, 1, 1, 0]},
                 ["--what", "nu", "--omega", "1e-19"], "spline", id="excite-spline-zero-pivot"),
])
def test_overflowing_input_exits_2_under_warnings_as_errors(tmp_path, doc, args, message):
    # a fresh interpreter with -W error, as CI runs the CLI: a numpy
    # RuntimeWarning there ends in a traceback and exit 1
    if doc is not None:
        (tmp_path / "p.json").write_text(json.dumps(doc))
        args = ["excite", "--profile", "p.json", *args]
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "oscigen.cli", *args], cwd=tmp_path,
        env=_source_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: ")
    assert message in out.stderr


def test_excite_step_count_past_the_double_range_exits_3(tmp_path):
    # omega 1 from t = -2e154, then a ramp to omega 1e154: the step count
    # is inf, refused at once under -W error, not doubled towards it forever
    ramp = np.linspace(-15.0, 15.0, 600)
    doc = {"kind": "tabulated", "profile": "frequency",
           "times": np.linspace(-2e154, -20.0, 40).tolist() + ramp.tolist(),
           "values": [1.0] * 40 + np.exp(math.log(1e154) * (1.0 + np.tanh(ramp)) / 2.0).tolist()}
    (tmp_path / "p.json").write_text(json.dumps(doc))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "oscigen.cli", "excite", "--profile", "p.json",
         "--what", "rho"], cwd=tmp_path, env=_source_env(), capture_output=True, text=True,
        timeout=20,
    )
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    assert out.stderr == ("error: the profile spans inf half periods, needing more Magnus "
                          "steps than the cap 4194304\n")


@pytest.mark.parametrize("doc, csv", [
    pytest.param({"kind": "tabulated", "profile": "force", "times": ["a", 1, 2, 3],
                  "values": [0, 1, 0, 0]}, None, id="string-time"),
    pytest.param({"kind": "tabulated", "profile": "force", "times": [0, 1, 2, 3],
                  "values": [0, [1, 2], 0, 0]}, None, id="ragged-values"),
    pytest.param({"kind": "tabulated", "profile": "force", "csv": "p.csv"},
                 "0,0\n1,abc\n2,0\n3,0\n", id="csv-non-numeric"),
    pytest.param({"kind": "tabulated", "profile": "force", "csv": "missing.csv"},
                 None, id="csv-missing"),
    pytest.param(5, None, id="not-an-object"),
    pytest.param({"kind": "tanh_ramp", "omega2_minus": 1.0, "omega2_plus": 4.0, "T": 1.0},
                 None, id="cannot-yield"),
    pytest.param({"kind": "gaussian", "f0": 1, "tau": 1, "t0": 0, "bogus": 2},
                 None, id="foreign-field"),
    pytest.param({"kind": "tabulated", "profile": "force", "csv": "p.csv", "times": [0, 1, 2, 3]},
                 "0,0\n1,1\n2,0\n3,0\n", id="csv-and-times"),
])
def test_malformed_profile_exits_2_under_warnings_as_errors(tmp_path, doc, csv):
    (tmp_path / "p.json").write_text(json.dumps(doc))
    if csv is not None:
        (tmp_path / "p.csv").write_text(csv)
    with pytest.raises(ProfileError):
        load_profile(tmp_path / "p.json", what="nu")
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "oscigen.cli", "excite", "--profile", "p.json",
         "--what", "nu", "--omega", "1"],
        cwd=tmp_path, env=_source_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: ")


@pytest.mark.parametrize("args", [
    # e^-nu underflows; 1 - rho rounds; 1 + k rounds to 1 for k = -2j
    pytest.param(["forced", "--nu", "1500", "--max", "2048"], id="forced-nu-1500"),
    pytest.param(["singular", "--rho", "1e-17", "--j=-1e6", "--max", "4"], id="singular-rho-1e-17"),
    pytest.param(["singular", "--rho", "0.3", "--j=-1e-300", "--max", "3"], id="singular-j-1e-300"),
])
def test_edge_tables_exit_0_under_warnings_as_errors(tmp_path, args):
    # past the tested box, in a fresh interpreter with -W error as CI runs
    # the CLI: the table is written in full, with no all-zero row
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "oscigen.cli", "table", *args, "--output", "t.csv"],
        cwd=tmp_path, env=_source_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == "" and out.stdout == ""
    size = int(args[-1])
    with open(tmp_path / "t.csv") as lines:
        assert next(lines).count(",") == size
        zero = [set(line.rstrip().split(",")[1:]) == {"0"} for line in lines]
    (tmp_path / "t.csv").unlink()
    assert len(zero) == size and not any(zero)


@pytest.mark.parametrize("omega", ["3", "-1"])
def test_excite_rho_refuses_omega_exit_2(runner, tmp_path, omega):
    # rho comes from the profile's own frequencies; an --omega would be
    # dropped without a word
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"kind": "tanh_ramp", "omega2_minus": 1.0,
                                "omega2_plus": 4.0, "T": 1.0}))
    result = runner.invoke(
        main, ["excite", "--profile", str(path), "--what", "rho", "--omega", omega]
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "omega" in result.stderr
    assert len(result.stderr.splitlines()) == 1


def test_version_from_source_tree(runner):
    # the version comes from oscigen.__version__, not installed metadata
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert result.output.rstrip().endswith("version 0.1.0")


def test_verify_forced_suite_json(runner):
    result = runner.invoke(
        main, ["verify", "--suite", "forced", "--format", "json"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] >= 8
    ids = {c["id"] for c in doc["checks"]}
    assert "forced.sum-rules.exact" in ids


_VERIFY_ALL_IDS = (
    "forced.sum-rules.exact forced.sum-rules.quadrature forced.poisson-row "
    "forced.poisson-variance forced.antidiagonal forced.antidiagonal.spot "
    "forced.unitarity forced.symmetry forced.oracle-dft forced.kernel-series "
    "forced.kernel-oracle forced.kernel-exact forced.series-exact "
    "param.arctanh-integral param.weighted-first.exact "
    "param.weighted-first.quadrature param.weighted-second.reported "
    "param.diagonal-integral.exact param.diagonal-integral.quadrature "
    "param.antidiagonal param.mean-n param.dispersion-vacuum param.parity "
    "param.structure param.unitarity param.oracle-dft param.kernel-series "
    "param.kernel-oracle param.kernel-exact param.series-exact "
    "singular.reduction-even singular.reduction-odd singular.ground-row "
    "singular.ground-row-normalization singular.adiabatic-slope "
    "singular.slope-forms singular.unitarity singular.symmetry "
    "singular.oracle-dft singular.kernel-series singular.kernel-oracle "
    "excite.nu-gaussian excite.nu-full-period excite.nu-tabulated "
    "excite.rho-sudden excite.rho-tanh excite.rho-adiabatic "
    "excite.rho-sudden-limit excite.wronskian"
).split()


def test_verify_all_contract():
    report = run_suite("all")
    assert [c.id for c in report.checks] == _VERIFY_ALL_IDS
    assert len(_VERIFY_ALL_IDS) == 49
    statuses = {c.id: c.status for c in report.checks}
    assert statuses.pop("param.weighted-second.reported") == "reported-only"
    assert set(statuses.values()) == {"pass"}


# the equation, tol and expected text of each excitation check
_EXCITE_RECORDS = {
    "excite.nu-gaussian": ("nu", 1e-10, "pi e^(-1/2) / 2"),
    "excite.nu-full-period": ("nu", 1e-15, "0 (full-period pulse)"),
    "excite.nu-tabulated": ("nu", 1e-6, "closed form, 64 samples/period"),
    "excite.rho-sudden": ("rho", 1e-6, "1/9 for omega 1 -> 2"),
    "excite.rho-tanh": ("rho", 1e-6, "sinh^2(pi (w+-w-) T/2) / sinh^2(pi (w++w-) T/2)"),
    "excite.rho-adiabatic": ("rho", 1e-3, "< 1e-3 for T (w+ + w-) >= 20"),
    "excite.rho-sudden-limit": ("rho", 1e-2, "within 1% of the jump formula"),
    "excite.wronskian": ("|a|^2-|b|^2", 1e-9, ""),
}


def test_excitation_records():
    from oscigen.excitation import bogoliubov_from_frequency, nu_from_force
    from oscigen.profiles import ForceProfile, FrequencyProfile

    ts = np.arange(-8.0, 8.0 + 1e-9, 2.0 * math.pi / 64.0)
    nus = [nu_from_force(f, 1.0) for f in (ForceProfile.gaussian(1.0, 1.0, 0.0),
                                           ForceProfile.rectangular(1.0, 0.0, 2.0 * math.pi),
                                           ForceProfile.tabulated(ts, np.exp(-ts * ts)))]
    runs = [bogoliubov_from_frequency(p, tol=1e-10) for p in (
        FrequencyProfile.sudden_step(1.0, 2.0), FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0),
        FrequencyProfile.tanh_ramp(1.0, 4.0, 20.0 / 3.0), FrequencyProfile.tanh_ramp(1.0, 4.0, 5e-4))]
    values = [*nus, *(r.rho for r in runs)]
    formats = [".12g", ".3e", ".12g", ".12g", ".12g", ".3e", ".12g"]
    checks = run_suite("excitation").checks
    assert {c.id: (c.equation, c.tol, c.expected) for c in checks} == _EXCITE_RECORDS
    assert [c.id for c in checks] == list(_EXCITE_RECORDS)
    assert [c.computed for c in checks[:-1]] == [format(v, f) for v, f in zip(values, formats)]
    assert checks[-1].computed == "worst |(|alpha|^2 - |beta|^2) - 1| over the runs above"
    assert checks[-1].residual == max(r.wronskian_residual for r in runs)
    # a zero want: the residual is the value itself
    assert (checks[1].residual, checks[5].residual) == (nus[1], runs[2].rho)


def test_excitation_residuals_follow_the_values(monkeypatch):
    import dataclasses

    from oscigen import verify

    real_nu, real_rho = verify.nu_from_force, verify.bogoliubov_from_frequency
    monkeypatch.setattr(verify, "nu_from_force", lambda *a: real_nu(*a) * (1.0 + 1e-5))
    assert _failed("excitation") == ["excite.nu-gaussian", "excite.nu-tabulated"]

    def scaled_rho(*args, **kwargs):
        r = real_rho(*args, **kwargs)
        return dataclasses.replace(r, rho=r.rho * 1.1)

    monkeypatch.setattr(verify, "nu_from_force", real_nu)
    monkeypatch.setattr(verify, "bogoliubov_from_frequency", scaled_rho)
    assert _failed("excitation") == ["excite.rho-sudden", "excite.rho-tanh",
                                     "excite.rho-sudden-limit"]


def test_verify_reports_second_integral_without_failing(runner):
    result = runner.invoke(
        main, ["verify", "--suite", "parametric", "--format", "json"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    reported = [c for c in doc["checks"] if c["status"] == "reported-only"]
    assert len(reported) == 1
    assert reported[0]["id"] == "param.weighted-second.reported"
    assert "mismatch" in reported[0]["note"]
    assert doc["summary"]["fail"] == 0


def test_verify_text_output_lines(runner):
    result = runner.invoke(main, ["verify", "--suite", "excitation"])
    assert result.exit_code == 0
    assert "[PASS]" in result.output
    assert "passed" in result.output.splitlines()[-1]


def test_verify_json_is_strict(runner):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    result = runner.invoke(main, ["verify", "--suite", "parametric", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output, parse_constant=refuse)
    reported = {c["id"]: c for c in doc["checks"]}["param.weighted-second.reported"]
    assert reported["tol"] is None
    assert reported["residual"] == 0.5


def test_verify_report_writes_non_finite_numbers_as_null_in_json_only():
    from oscigen.verify import CheckResult, VerifyReport

    report = VerifyReport("x", [CheckResult("a", "eq", "", "", math.nan, math.inf, "reported-only"),
                                CheckResult("b", "eq", "", "", 0.25, 1.0, "pass")])
    checks = report.to_json_dict()["checks"]
    assert [(c["residual"], c["tol"]) for c in checks] == [(None, None), (0.25, 1.0)]
    assert "residual=nan tol=inf" in report.format_text()


def _failed(suite):
    return [c.id for c in run_suite(suite).checks if c.status == "fail"]


def _wrong_mean(monkeypatch):
    """Make forced_sum_rules report mean m + n + 2 at (m, n) = (2, 3) only."""
    import dataclasses

    from oscigen import forced

    real = forced.forced_sum_rules

    def wrong(m, n):
        r = real(m, n)
        return dataclasses.replace(r, mean=r.mean + 1) if (m, n) == (2, 3) else r

    monkeypatch.setattr(forced, "forced_sum_rules", wrong)


def test_verify_fails_a_wrong_exact_sum_rule(monkeypatch):
    _wrong_mean(monkeypatch)
    report = run_suite("forced")
    failed = [c for c in report.checks if c.status == "fail"]
    assert [c.id for c in failed] == ["forced.sum-rules.exact"]
    assert failed[0].computed.startswith("80/81 ")
    assert report.exit_code == 1


def test_verify_unitarity_fails_rows_summing_past_one(monkeypatch):
    from oscigen import series

    real = series.float_grid
    monkeypatch.setattr(series, "float_grid", lambda *a: real(*a) * (1.0 + 1e-6))
    assert "forced.unitarity" in _failed("forced")


def test_verify_fails_an_asymmetric_singular_series(monkeypatch):
    from oscigen import series

    real = series.float_grid

    def skewed(family, *args):
        grid = np.array(real(family, *args))
        if family == "singular":
            grid[0, -1] += 1e-9
        return grid

    monkeypatch.setattr(series, "float_grid", skewed)
    assert "singular.symmetry" in _failed("singular")


def test_verify_takes_the_prefactor_from_the_family_record(runner, monkeypatch):
    # the series route and the exact polynomials both carry the record's
    # sqrt(1 - rho); the contour oracle evaluates G whole
    import dataclasses

    from oscigen.probtable import FAMILIES

    record = FAMILIES["parametric"]
    monkeypatch.setitem(FAMILIES, "parametric", dataclasses.replace(
        record, prefactor=lambda rho: record.prefactor(rho) * (1.0 + 1e-9)))
    failed = _failed("parametric")
    assert failed == ["param.kernel-series", "param.kernel-exact"]
    result = runner.invoke(main, ["verify", "--suite", "parametric"])
    assert result.exit_code == 1
    assert "[FAIL] param.kernel-exact" in result.output


def test_verify_cli_exits_1_on_a_failed_check(runner, monkeypatch):
    _wrong_mean(monkeypatch)
    result = runner.invoke(main, ["verify", "--suite", "forced"])
    assert result.exit_code == 1
    assert "[FAIL] forced.sum-rules.exact" in result.output


def test_table_forced_large_nu(runner):
    result = runner.invoke(main, ["table", "forced", "--nu", "12", "--max", "16"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    got = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.array_equal(got, got.T)


def test_table_invariant_violation_exit_4(runner, monkeypatch):
    from oscigen.errors import TableInvariantError

    def broken(*args, **kwargs):
        raise TableInvariantError("asymmetry 4.0e-10 above 1.0e-12")

    monkeypatch.setattr("oscigen.forced.forced_prob_table", broken)
    result = runner.invoke(main, ["table", "forced", "--nu", "1", "--max", "4"])
    assert result.exit_code == 4
    assert result.stderr.startswith("error: table invariant violated")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("family, builder, params", [
    ("parametric", "param_prob_table", ["--rho", "0.3"]),
    ("singular", "singular_prob_table", ["--rho", "0.3", "--j", "-1"]),
])
def test_table_calls_the_family_builder(runner, monkeypatch, family, builder, params):
    import importlib

    module = importlib.import_module(f"oscigen.{family}")
    real, calls = getattr(module, builder), []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, builder, spy)
    result = runner.invoke(main, ["table", family, *params, "--max", "4"])
    assert result.exit_code == 0
    assert calls == [(tuple(float(x) for x in params[1::2]), {"size": 4, "mode": "float"})]


# click's own usage errors: each prints one error: line with click's message
USAGE_ERRORS = [
    (["table", "forced", "--nu", "abc"], "Invalid value for '--nu': 'abc' is not a valid float."),
    (["table", "forced", "--nu", "1", "--bogus", "2"], "No such option"),
    (["table"], "Missing argument '{forced|parametric|singular}'. Choose from: forced, parametric, singular"),
    (["excite", "--what", "nu"], "Missing option '--profile'."),
    (["excite", "--profile", "nothere.json", "--what", "nu"], "'nothere.json' does not exist."),
    (["nosuch"], "No such command 'nosuch'."),
    ([], "Missing command."),
]


@pytest.mark.parametrize("args, message", USAGE_ERRORS,
                         ids=["bad-value", "unknown-option", "no-family", "no-profile",
                              "missing-profile", "unknown-command", "no-command"])
def test_click_usage_errors_print_one_error_line(runner, monkeypatch, tmp_path, args, message):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ") and message in result.stderr


def test_usage_error_of_the_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "oscigen.cli", "table", "forced", "--nu", "abc"],
        capture_output=True, text=True, cwd=tmp_path, env=_source_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: Invalid value for '--nu': 'abc' is not a valid float.\n"


def test_help_is_not_an_error(runner):
    for args in (["--help"], ["table", "--help"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage: ")
        assert result.stderr == ""
