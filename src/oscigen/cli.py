"""Command-line interface.

Three commands:

* ``oscigen table``  -- emit a probability table as CSV or JSON,
* ``oscigen verify`` -- run the identity suites and report pass/fail,
* ``oscigen excite`` -- extract nu or rho from a profile file.

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 bad parameters (including a table
past the size caps: M <= 4097, and M <= 128 in exact mode, or an option its
family does not take), an unreadable profile or an unwritable --output,
3 integration failure, 4 table invariant violated.  Failures other than 1,
click's usage errors among them, print one ``error:`` line and no traceback.
"""

from __future__ import annotations

import importlib
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


class _Main(click.Group):
    """The command group; click's own usage errors (a bad value, an unknown or
    missing option, argument or command) print one ``error:`` line too."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:
            _fail(" ".join(exc.format_message().split()), exc.exit_code)
        except click.Abort:  # an interrupt, reported as click reports it
            click.echo("Aborted!", err=True)
            sys.exit(1)


@click.group(cls=_Main, no_args_is_help=False)
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
    from .probtable import FAMILIES

    fam = FAMILIES[family]
    given = {"nu": nu, "rho": rho, "j": weight_j}
    try:
        # the family's parameters, in its builder's order; it refuses the others
        for name, value in given.items():
            if value is not None and name not in fam.rules:
                raise ValueError(f"{family} tables do not take --{name}")
        if any(given[name] is None for name in fam.rules):
            raise ValueError(f"{family} tables need {' and '.join('--' + n for n in fam.rules)}")
        # looked up when the command runs, so a patched builder is the one called
        build = getattr(importlib.import_module(f".{family}", __package__), fam.builder)
        table = build(*(given[name] for name in fam.rules), size=size, mode=mode)
    except (ValueError, TypeError) as exc:
        _fail(str(exc), 2)
    except TableInvariantError as exc:
        _fail(f"table invariant violated: {exc}", 4)
    if output:
        try:
            with open(output, "w") as fh:
                table.write(fh, fmt)
        except OSError as exc:
            _fail(str(exc), 2)
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

    The second weighted integral is reported but never gates the result:
    its commonly quoted right-hand side is the large-m limit of the value the
    tables give, not an identity.  Exit code 0 when nothing failed.
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
    from .profiles import load_profile

    try:
        report = excitation_report(load_profile(profile_path, what=what), omega=omega, tol=tol)
    except (ValueError, TypeError) as exc:
        _fail(str(exc), 2)
    except IntegrationError as exc:
        _fail(str(exc), 3)
    click.echo(json.dumps(report.to_json_dict(), indent=1))


if __name__ == "__main__":
    main()
