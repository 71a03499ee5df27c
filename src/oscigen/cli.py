"""Command-line interface.

Three commands:

* ``oscigen table``  -- emit a probability table as CSV or JSON,
* ``oscigen verify`` -- run the identity suites and report pass/fail,
* ``oscigen excite`` -- extract nu or rho from a profile file.

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 bad parameters (including a table
past the size caps: M <= 4097, and M <= 128 in exact mode) or unreadable
profile, 3 integration failure, 4 table invariant violated.  Failures
other than 1 print one ``error:`` line and no traceback.
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__
from .errors import IntegrationError, TableInvariantError

# Each command imports the modules it runs when it runs, so a call loads no
# module that its command does not need.  The suite names are click choices,
# needed before any command runs; a test pins them to ``verify.SUITES``.
SUITE_NAMES = ("forced", "parametric", "singular", "excitation")


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
@click.version_option(version=__version__)
def main():
    """Transition probabilities and sum rules for driven, parametric and
    singular quantum oscillators (hbar = m = 1)."""


@main.command("table")
@click.argument("family", type=click.Choice(["forced", "parametric", "singular"]))
@click.option("--nu", type=float, default=None, help="Excitation parameter of the forced family (nu >= 0).")
@click.option("--rho", type=float, default=None, help="Excitation parameter of the parametric/singular families (0 <= rho <= 1).")
@click.option("--j", "weight_j", type=float, default=None, help="Level weight of the singular family (j < 0).")
@click.option("--max", "size", type=int, default=16, show_default=True, help="Table size M (quantum numbers 0..M-1).")
@click.option("--mode", type=click.Choice(["float", "exact"]), default="float", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None, help="Write to a file instead of stdout.")
def cmd_table(family, nu, rho, weight_j, size, mode, fmt, output):
    """Compute the M x M probability table of one oscillator FAMILY."""
    try:
        if family == "forced":
            if nu is None:
                raise ValueError("forced tables need --nu")
            from .forced import forced_prob_table

            table = forced_prob_table(nu, size=size, mode=mode)
        elif family == "parametric":
            if rho is None:
                raise ValueError("parametric tables need --rho")
            from .parametric import param_prob_table

            table = param_prob_table(rho, size=size, mode=mode)
        else:
            if rho is None or weight_j is None:
                raise ValueError("singular tables need --rho and --j")
            if mode == "exact":
                raise ValueError(
                    "the singular family is float-only (irrational exponent -2j)"
                )
            from .singular import singular_prob_table

            table = singular_prob_table(rho, weight_j, size=size)
    except (ValueError, TypeError) as exc:
        _fail(str(exc), 2)
    except TableInvariantError as exc:
        _fail(f"table invariant violated: {exc}", 4)
    if output:
        with open(output, "w") as fh:
            table.write(fh, fmt)
    else:
        # not click.echo, which runs a regex over the whole document to strip
        # ANSI codes when stdout is no terminal; a table holds none
        stdout = click.get_text_stream("stdout")
        table.write(stdout, fmt)
        stdout.flush()


@main.command("verify")
@click.option("--suite", type=click.Choice([*SUITE_NAMES, "all"]), default="all", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def cmd_verify(suite, fmt):
    """Re-derive and check every identity of the selected suite.

    The second weighted-integral identity is reported but never gates the
    result (its conventional right-hand side disagrees with the value the tables
    give).  Exit code 0 when nothing failed.
    """
    from .verify import run_suite

    report = run_suite(suite=suite)
    if fmt == "json":
        click.echo(json.dumps(report.to_json_dict(), indent=1))
    else:
        click.echo(report.format_text())
    sys.exit(report.exit_code)


@main.command("excite")
@click.option("--profile", "profile_path", type=click.Path(exists=True, dir_okay=False), required=True, help="JSON profile document.")
@click.option("--what", type=click.Choice(["nu", "rho"]), required=True, help="Which excitation parameter to extract.")
@click.option("--omega", type=float, default=None, help="Oscillator frequency (required for nu, refused for rho).")
@click.option("--tol", type=float, default=1e-10, show_default=True, help="Step-doubling tolerance of the Magnus propagation, which only tabulated frequency profiles need; range-checked for every profile.")
def cmd_excite(profile_path, what, omega, tol):
    """Extract the excitation parameter from a profile file and report the
    vacuum-row picture it implies as JSON."""
    from .excitation import excitation_report
    from .profiles import ProfileError, load_profile

    try:
        profile = load_profile(profile_path, what=what)
    except ProfileError as exc:
        _fail(str(exc), 2)
    kind_ok = (what == "nu") == (type(profile).__name__ == "ForceProfile")
    if not kind_ok:
        _fail(f"profile kind {profile.kind!r} cannot yield {what}", 2)
    try:
        report = excitation_report(profile, omega=omega, tol=tol)
    except (ValueError, TypeError) as exc:
        _fail(str(exc), 2)
    except IntegrationError as exc:
        _fail(str(exc), 3)
    click.echo(json.dumps(report.to_json_dict(), indent=1))


if __name__ == "__main__":
    main()
