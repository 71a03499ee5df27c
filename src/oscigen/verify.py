"""Identity and invariant verification suites.

Every closed-form identity of the three families is rechecked here: sum rules,
anti-diagonal sums, the weighted integrals over rho, the row moments (from the
generating function and from fixed 2049-column kernel tables), the closed-form
vacuum rows, the singular-family reductions and the excitation extractors, with
the Gauss confirmations of the exact integrals and the routes of
:mod:`oscigen.series` that the amplitude kernels are checked against.  The
library calls return their values only; every form a value is checked against
(the quoted closed forms of the rho-integrals, the arctanh closed form of the
integral of G / (1 - rho), the N form of the adiabatic slope) is written here.
Each check shape has one builder: counts, exact/quadrature pairs, unitarity,
symmetry, anti-diagonal sums, the cross-route checks and, for the excitation
extractors, ``_value_check``, which turns one row of (value, wanted value,
relative?, tol, format, expected text) into a check.  The Gauss confirmations
are ``QuadRule.integrate`` calls.  One check is special: the quoted second
weighted integral (1 + (-1)^(m+n)) / |m - n| is the large-m limit of the value this package derives, not an identity (along
n = m + 2, exact ``param_weighted_integrals`` give 1 - I = 1/2 at m = 0, 0.036 at
m = 16 and 0.013 at m = 48), so it is *reported only* and never fails a run.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import amplitude, forced, parametric, series, singular
from .domains import RatPoly
from .excitation import bogoliubov_from_frequency, excitation_report, nu_from_force
from .probtable import FAMILIES
from .profiles import ForceProfile, FrequencyProfile
from .quadrature import gauss_jacobi_half, gauss_laguerre
from .series import dft_extract_table

__all__ = ["CheckResult", "VerifyReport", "run_suite", "SUITES"]

_NU_GRID = (0.3, 1.0, 3.0)
_RHO_GRID = (0.1, 0.5, 0.9)
_J_GRID = (-0.25, -0.75, -0.6, -1.3)
_ORACLE_GRID_SIZE = 256
_TOL_ORACLE = 1e-9


@dataclass(frozen=True)
class CheckResult:
    id: str
    equation: str
    computed: str
    expected: str
    residual: float
    tol: float
    status: str  # pass | fail | reported-only
    note: str = ""


@dataclass
class VerifyReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    wall_time: float = 0.0

    def counts(self) -> Counter:
        """Number of checks per status."""
        return Counter(c.status for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 1 if self.counts()["fail"] else 0

    def to_json_dict(self) -> dict:
        """The report as strict JSON data: a non-finite residual or tol
        (the reported-only check's tol is inf) is written as None."""
        n = self.counts()
        checks = [asdict(c) for c in self.checks]
        for c in checks:
            for key in ("residual", "tol"):
                if not math.isfinite(c[key]):
                    c[key] = None
        return {
            "suite": self.suite,
            "wall_time": self.wall_time,
            "summary": {"pass": n["pass"], "fail": n["fail"], "reported_only": n["reported-only"]},
            "checks": checks,
        }

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL", "reported-only": "NOTE"}[c.status]
            lines.append(
                f"[{tag}] {c.id:<34} {c.equation:<10} "
                f"residual={c.residual:.3e} tol={c.tol:.1e}"
            )
            if c.note:
                lines.append(f"       {c.note}")
        n = self.counts()
        lines.append(
            f"{n['pass']} passed, {n['fail']} failed, "
            f"{n['reported-only']} reported-only ({self.wall_time:.1f}s)"
        )
        return "\n".join(lines)


def _cells(size):
    """The (m, n) of a size x size table, row by row."""
    return itertools.product(range(size), repeat=2)


def _check(check_id, equation, residual, tol, computed="", expected="", note=""):
    status = "pass" if residual <= tol else "fail"
    return CheckResult(
        check_id, equation, computed, expected, float(residual), tol, status, note
    )


def _count(check_id, equation, right, what) -> CheckResult:
    """A check that passes when every case of ``right``, one flag each, holds."""
    right = list(right)
    good, total = sum(right), len(right)
    return _check(check_id, equation, float(total - good), 0.0,
                  computed=f"{good}/{total} {what}", expected=f"{total}/{total}")


def _exact_checks(prefix, equation, cases, what, rule, tol, expected="") -> list[CheckResult]:
    """The ``.exact`` count and the ``.quadrature`` check of ``cases``, one
    (exact value right, quadrature error) pair each; ``rule`` names the
    quadrature."""
    right, errors = zip(*cases)
    return [_count(f"{prefix}.exact", equation, right, what),
            _check(f"{prefix}.quadrature", equation, max(errors), tol,
                   computed=f"{rule} cross-check", expected=expected)]


def _unitarity_check(check_id, grids, tol, computed) -> CheckResult:
    """The worst |1 - sum_n w_mn| over the rows of ``grids``."""
    worst = max(float(np.max(np.abs(1.0 - g.sum(axis=1)))) for g in grids)
    return _check(check_id, "row sums", worst, tol, computed=computed)


def _symmetry_check(check_id, grids, computed, exact_ok=True) -> CheckResult:
    """The worst |w_mn - w_nm| over the square ``grids``, or 1 unless
    ``exact_ok``."""
    worst = max(float(np.max(np.abs(g - g.T))) for g in grids)
    return _check(check_id, "w_mn", worst if exact_ok else 1.0, 1e-12, computed=computed)


def _antidiagonal_check(check_id, build, sk, grid, size, computed) -> CheckResult:
    """The anti-diagonal sums S_k, k < ``size``, of ``build``'s float table
    at each parameter of ``grid``, summed in order of m, against ``sk``."""
    worst = 0.0
    for x in grid:
        values = build(x, size=size, mode="float").values
        for k in range(size):
            diag = sum(values[m][k - m] for m in range(k + 1))
            worst = max(worst, abs(sk(k, x) - diag))
    return _check(check_id, "S_k", worst, 1e-12, computed=computed)


def _route_checks(prefix, family, gf, points, exact=None) -> list[CheckResult]:
    """Compare the three independent routes to the same 11x11 tables at each
    parameter tuple x of ``points``: the family's amplitude kernel, its float
    series (:func:`oscigen.series.float_grid`) and the contour oracle of
    ``gf(u, v, *x)``.  Given ``exact``, the exact series grid of a
    one-parameter family, also compare the kernel with its polynomials, each
    taken at the binary value of x, rounded once and multiplied by the
    family's prefactor, and those polynomials with the family's closed form,
    coefficient for coefficient."""
    fam = FAMILIES[family]
    worst_so = worst_ks = worst_ko = 0.0
    for x in points:
        ker, ser = fam.kernel(*x, 11, 11), series.float_grid(family, x, 10, 10)
        dft = dft_extract_table(lambda u, v: gf(u, v, *x), 10, 10, grid=_ORACLE_GRID_SIZE)
        worst_so = max(worst_so, float(np.max(np.abs(ser - dft))))
        worst_ks = max(worst_ks, float(np.max(np.abs(ker - ser))))
        worst_ko = max(worst_ko, float(np.max(np.abs(ker - dft))))
    out = [_check(f"{prefix}.oracle-dft", "w_mn", worst_so, _TOL_ORACLE,
                  computed="series engine vs contour extraction"),
           _check(f"{prefix}.kernel-series", "w_mn", worst_ks, 1e-12,
                  computed="amplitude kernel vs series engine"),
           _check(f"{prefix}.kernel-oracle", "w_mn", worst_ko, _TOL_ORACLE,
                  computed="amplitude kernel vs contour extraction")]
    if exact is None:
        return out
    size = exact.max_deg_u + 1
    nodes = np.array([x for (x,) in points])
    at = np.array([[p.at_nodes(nodes) for p in row] for row in exact.rows])
    worst = max(float(np.max(np.abs(fam.kernel(x, size, size) - fam.prefactor(x) * at[:, :, i])))
                for i, x in enumerate(nodes.tolist()))
    return out + [_check(f"{prefix}.kernel-exact", "w_mn", worst, 1e-14,
                         computed=f"amplitude kernel vs rational polynomials, {size}x{size}"),
                  _count(f"{prefix}.series-exact", "w_mn",
                         (exact.coeff(m, n) == fam.poly(m, n) for m, n in _cells(size)),
                         "series polynomials equal the closed form")]


# the Gauss confirmations of the exact integrals, each polynomial taken
# exactly at each node (RatPoly.at_nodes) and rounded once

def _laguerre_moments(m, n) -> tuple[float, float, float]:
    """Zeroth, first and central second moment of w_mn over nu, from one
    evaluation of the polynomial at the nodes."""
    rule = gauss_laguerre((m + n) // 2 + 4)
    px = amplitude.forced_poly(m, n).at_nodes(rule.nodes)
    norm = float(np.dot(rule.weights, px))
    mean = float(np.dot(rule.weights, rule.nodes * px))
    return norm, mean, float(np.dot(rule.weights, (rule.nodes - mean / norm) ** 2 * px))


def _first_quad(m, n) -> float:
    """The first weighted integral, of w_mn / (1-rho) = (1-rho)^(-1/2) q_mn."""
    return gauss_jacobi_half((m + n) // 2 + 2).integrate(amplitude.param_poly(m, n).at_nodes)


def _jnn_quad(n) -> float:
    """J_nn, the integral of w_nn = (1-rho)^(-1/2) (1-rho) q_nn."""
    poly = RatPoly((1, -1)) * amplitude.param_poly(n, n)
    return gauss_jacobi_half(n + 3).integrate(poly.at_nodes)


# the arctanh identity of G / (1 - rho) and the N form of the adiabatic slope

def _arctanh_quad(u, v) -> float:
    """The integral of G(u, v | rho) / (1 - rho) = (1-rho)^(-1/2) /
    sqrt((1-uv)^2 - rho (u-v)^2) over rho in [0, 1]."""
    return gauss_jacobi_half(64).integrate(
        lambda rho: 1.0 / np.sqrt((1.0 - u * v) ** 2 - rho * (u - v) ** 2))


def _arctanh_closed_form(u, v) -> float:
    """2 (arctanh u - arctanh v) / (u - v) for u, v in (-1, 1).  With u >= v,
    s = 2 / ((1-u)(1+v)) and x = s (u - v), it is s log1p(x) / x, which
    tends to s as x -> 0: one formula, with no cancellation, on the diagonal
    and near it."""
    if not (-1.0 < u < 1.0 and -1.0 < v < 1.0):
        raise ValueError("u, v must lie in (-1, 1)")
    s = 2.0 / ((1.0 - max(u, v)) * (1.0 + min(u, v)))
    x = s * abs(u - v)
    return s * math.log1p(x) / x if x else s


def _slope_from_big_n(n, j) -> float:
    """The adiabatic slope as (1/2)(N^2 + N + 1), N = 2 sqrt((n-j)^2 -
    (j(j+1) + 3/16)) - 1/2; a negative radicand raises ValueError."""
    big_n = 2.0 * math.sqrt((n - j) ** 2 - (j * (j + 1.0) + 3.0 / 16.0)) - 0.5
    return 0.5 * (big_n * big_n + big_n + 1.0)


# ---------------------------------------------------------------------------
# forced oscillator

def _sum_rule_case(m, n):
    """Whether the exact moments of w_mn are right, and the worst relative
    error of their Gauss-Laguerre values."""
    r = forced.forced_sum_rules(m, n)
    want = (1, m + n + 1, 2 * m * n + m + n + 1)
    return (r.norm, r.mean, r.variance) == want, max(
        abs(q - w) / w for q, w in zip(_laguerre_moments(m, n), want))


def _forced_checks() -> list[CheckResult]:
    # exact sum rules, m,n <= 8
    out = _exact_checks("forced.sum-rules", "moments", (_sum_rule_case(*c) for c in _cells(9)),
                        "triples exactly (1, m+n+1, 2mn+m+n+1)", "Gauss-Laguerre", 1e-12,
                        expected="matches exact values")

    # Poisson vacuum row
    rows = {nu: forced.forced_prob_table(nu, size=13, mode="float").values[0] for nu in _NU_GRID}
    worst = max(abs(row[n] - math.exp(-nu) * nu**n / math.factorial(n))
                for nu, row in rows.items() for n in range(13))
    out.append(_check("forced.poisson-row", "vacuum row", worst, 1e-12,
                      computed="w_0n vs nu^n e^-nu / n!"))
    row0 = (forced.forced_sum_rules(0, n) for n in range(13))
    out.append(_count("forced.poisson-variance", "moments", (r.variance == r.mean for r in row0),
                      "variance == mean exactly on row 0"))

    out.append(_antidiagonal_check("forced.antidiagonal", forced.forced_prob_table,
                                   forced.forced_sk, _NU_GRID, 17,
                                   "Laguerre partial sums vs table anti-diagonals"))
    spots = max([abs(forced.forced_sk(0, nu) - math.exp(-nu)) for nu in _NU_GRID]
                + [abs(forced.forced_sk(1, 1.0) - 2.0 * math.exp(-1.0)),
                   abs(forced.forced_sk(3, 1.0) - (4.0 / 3.0) * math.exp(-1.0))])
    out.append(_check("forced.antidiagonal.spot", "S_k", spots, 1e-12,
                      computed="S_0 = e^-nu, S_1(1) = 2/e, S_3(1) = 4/(3e)"))

    # unitarity with a wide window
    out.append(_unitarity_check(
        "forced.unitarity",
        (series.float_grid("forced", (nu,), 8, 64) for nu in (0.3, 1.0, 3.0, 5.0)),
        1e-10, "1 - sum_n w_mn for m <= 8, nu <= 5, 65 columns"))

    # symmetry of the series, which unlike the kernel is not symmetric by
    # construction
    exact = series.exact_grid("forced", 8, 8)
    out.append(_symmetry_check(
        "forced.symmetry", (series.float_grid("forced", (nu,), 12, 12) for nu in _NU_GRID),
        "float series and exact polynomials",
        exact_ok=all(exact.coeff(m, n) == exact.coeff(n, m) for m, n in _cells(9))))

    out += _route_checks("forced", "forced", series.forced_gf_value,
                         [(nu,) for nu in _NU_GRID], exact)
    return out


# ---------------------------------------------------------------------------
# parametric oscillator

def _parametric_checks() -> list[CheckResult]:
    # arctanh integral identity on a grid
    knots = np.linspace(-0.7, 0.7, 5).tolist()
    worst = max(abs(_arctanh_quad(u, v) - _arctanh_closed_form(u, v))
                for u in knots for v in knots)
    out = [_check("param.arctanh-integral", "1/(1-rho)", worst, 1e-9,
                  computed="Jacobi quadrature vs 2(arctanh u - arctanh v)/(u-v)")]

    # first weighted integral: exact and quadrature
    cases = []
    for m, n in _cells(11):
        first, _ = parametric.param_weighted_integrals(m, n)
        cases.append((first == Fraction(1 + (-1) ** (m + n), m + n + 1),
                      abs(float(first) - _first_quad(m, n))))
    out += _exact_checks("param.weighted-first", "1/(1-rho)", cases,
                         "equal (1+(-1)^(m+n))/(m+n+1) exactly", "Gauss-Jacobi", 1e-10)

    # second weighted integral: reported only
    (got02, want02), (got13, want13) = (
        (parametric.param_weighted_integrals(m, n)[1], Fraction(1 + (-1) ** (m + n), abs(m - n)))
        for m, n in ((0, 2), (1, 3)))
    out.append(CheckResult(
        "param.weighted-second.reported", "1/(rho sqrt)",
        computed=f"(0,2) -> {got02}, (1,3) -> {got13}",
        expected=f"quoted closed form gives {want02} and {want13}",
        residual=max(abs(float(got02 - want02)), abs(float(got13 - want13))),
        tol=math.inf, status="reported-only",
        note=("quoted-identity mismatch: the integral of w_mn/(rho sqrt(1-rho)) "
              "evaluates to 1/2 at (0,2) and 3/4 at (1,3), not the quoted "
              "(1+(-1)^(m+n))/|m-n|; reported without gating")))

    # diagonal rho-integrals J_nn
    cases = []
    for n in range(7):
        want = Fraction(1, 2 * n + 1) * (1 + Fraction(1, (2 * n + 3) * (2 * n - 1)))
        cases.append((parametric.param_jmn(n, n) == want, abs(float(want) - _jnn_quad(n))))
    out += _exact_checks("param.diagonal-integral", "J_nn", cases,
                         "match (1/(2n+1))[1 + 1/((2n+3)(2n-1))] exactly", "Gauss-Jacobi", 1e-10)

    out.append(_antidiagonal_check("param.antidiagonal", parametric.param_prob_table,
                                   parametric.param_sk, (0.19, 0.5, 0.8), 13,
                                   "sqrt(1-rho) for even k, 0 for odd k, vs table sums"))

    # mean quantum number: generating function and a fixed 2049-column
    # kernel table (rows m <= 8 hold below 1e-84 past n = 2048 at rho = 0.8)
    tables = {rho: amplitude.param_table(rho, 9, 2049) for rho in (0.1, 0.5, 0.8)}
    worst = 0.0
    for rho, table in tables.items():
        for m in range(5):
            want = parametric.param_mean_n(m, rho)
            gf = parametric.param_row_moments(m, rho, power=1)[1]
            err = max(abs(gf - want), abs(np.arange(2049) @ table[m] - want))
            worst = max(worst, err / max(1.0, want))
    out.append(_check("param.mean-n", "<n>_m", worst, 1e-8,
                      computed="-1/2 + (m+1/2)(1+rho)/(1-rho) vs G(u, e^s) and table moments"))

    vacuum = {rho: 2.0 * rho / (1.0 - rho) ** 2 for rho in tables}
    worst = max(abs(parametric.param_dispersion(0, rho) - want) / want
                for rho, want in vacuum.items())
    out.append(_check("param.dispersion-vacuum", "<dn^2>_0", worst, 1e-8,
                      computed="G(u, e^s) moments vs 2 rho/(1-rho)^2"))

    # parity and structure of the exact polynomials
    grid = series.exact_grid("parametric", 12, 12)
    odd = [grid.coeff(m, n) for m, n in _cells(13) if (m + n) % 2]
    even = [(abs(m - n) // 2, (m + n) // 2, grid.coeff(m, n))
            for m, n in _cells(13) if (m + n) % 2 == 0]
    out.append(_count("param.parity", "w_mn", (not q for q in odd),
                      "w_mn = 0 exactly for odd m+n, m,n <= 12"))
    out.append(_count("param.structure", "w_mn",
                      (not any(q.coeffs[:half]) and q.degree <= top for half, top, q in even),
                      "q_mn divisible by rho^(|m-n|/2), degree <= (m+n)/2"))

    out.append(_unitarity_check("param.unitarity", tables.values(), 1e-10,
                                "1 - sum_n w_mn, m <= 8, n <= 2048, rho <= 0.8"))

    out += _route_checks("param", "parametric", series.param_gf_value,
                         [(rho,) for rho in _RHO_GRID], grid)
    return out


# ---------------------------------------------------------------------------
# singular oscillator

def _vacuum_row_sum(rho: float, j: float) -> float:
    """Sum of w_0n in order of n, up to the first n > 8 with w_0n < 1e-14 or
    to n = 4095, from one 4096-column kernel row."""
    row = amplitude.singular_table(rho, j, 1, 4096)[0]
    stop = np.flatnonzero(row[9:] < 1e-14)
    return float(np.cumsum(row[: 10 + stop[0] if stop.size else 4096])[-1])


def _singular_checks() -> list[CheckResult]:
    # the two series expansions, not the kernel, which computes both the
    # same way
    worst_even = worst_odd = 0.0
    for rho in _RHO_GRID:
        par = series.float_grid("parametric", (rho,), 13, 13)
        even = series.float_grid("singular", (rho, -0.25), 6, 6)
        odd = series.float_grid("singular", (rho, -0.75), 6, 6)
        worst_even = max(worst_even, float(np.max(np.abs(even - par[::2, ::2]))))
        worst_odd = max(worst_odd, float(np.max(np.abs(odd - par[1::2, 1::2]))))
    out = [_check("singular.reduction-even", "families", worst_even, 1e-10,
                  computed="j=-1/4 series vs even-even variable-frequency series"),
           _check("singular.reduction-odd", "families", worst_odd, 1e-10,
                  computed="j=-3/4 series vs odd-odd variable-frequency series")]

    # vacuum row closed form vs series extraction; entry n of a kernel row
    # is ground_row(n) bit for bit, whatever the row's width
    worst = max(float(np.max(np.abs(series.float_grid("singular", (rho, j), 0, 12)[0]
                                    - amplitude.singular_table(rho, j, 1, 13)[0])))
                for rho in _RHO_GRID for j in _J_GRID)
    out.append(_check("singular.ground-row", "w_0n", worst, 1e-10,
                      computed="Gamma-ratio closed form vs series row"))

    # vacuum row normalization
    worst = max(abs(1.0 - _vacuum_row_sum(rho, j)) for rho in (0.5, 0.8) for j in _J_GRID)
    out.append(_check("singular.ground-row-normalization", "w_0n", worst, 1e-8,
                      computed="sum of the closed-form vacuum row"))

    # adiabatic slope, Richardson extraction and the two algebraic forms
    worst_rich = worst_forms = 0.0
    for j in (-0.25, -0.75, -0.6):
        for n in range(5):
            slope = singular.adiabatic_diag(n, j)
            worst_forms = max(worst_forms, abs(slope - _slope_from_big_n(n, j)))
            s = []
            for eps in (1e-4, 2e-4):
                w_nn = singular.singular_prob_table(eps, j, size=n + 1).values[n][n]
                s.append((1.0 - w_nn) / eps)
            extracted = 2.0 * s[0] - s[1]
            worst_rich = max(worst_rich, abs(extracted - slope) / slope)
    out.append(_check("singular.adiabatic-slope", "w_nn", worst_rich, 1e-4,
                      computed="Richardson (1-w_nn)/rho vs 2[n^2-(2n+1)j]"))
    out.append(_check("singular.slope-forms", "w_nn", worst_forms, 1e-12,
                      computed="2[n^2-(2n+1)j] vs (1/2)(N^2+N+1)"))

    # unitarity of the kernel rows, symmetry of the series
    points = [(rho, j) for rho in (0.5, 0.8) for j in (-0.25, -0.75, -1.3, -2.0)]
    out.append(_unitarity_check(
        "singular.unitarity", (amplitude.singular_table(*x, 9, 2049) for x in points), 1e-8,
        "1 - sum_n w_mn, m <= 8, n <= 2048, rho <= 0.8, |j| <= 2"))
    out.append(_symmetry_check("singular.symmetry",
                               (series.float_grid("singular", x, 8, 8) for x in points),
                               "w_mn vs w_nm on 9x9 tables"))

    out += _route_checks("singular", "singular", series.singular_gf_value,
                         [(rho, j) for rho in _RHO_GRID for j in _J_GRID])
    return out


# ---------------------------------------------------------------------------
# excitation extraction

def _value_check(check_id, equation, got, want, relative, tol, fmt, expected) -> CheckResult:
    """|got - want|, divided by ``want`` where ``relative``; ``got`` is shown
    in format ``fmt``."""
    residual = abs(got - want) / want if relative else abs(got - want)
    return _check(check_id, equation, residual, tol, computed=format(got, fmt), expected=expected)


def _excitation_checks() -> list[CheckResult]:
    gauss_nu = math.pi * math.exp(-0.5) / 2.0
    ts = np.arange(-8.0, 8.0 + 1e-9, 2.0 * math.pi / 64.0)
    # (id, force at omega = 1, want, relative, tol, format, expected)
    nu_rows = (
        ("excite.nu-gaussian", ForceProfile.gaussian(1.0, 1.0, 0.0), gauss_nu, False, 1e-10,
         ".12g", "pi e^(-1/2) / 2"),
        ("excite.nu-full-period", ForceProfile.rectangular(1.0, 0.0, 2.0 * math.pi), 0.0, False,
         1e-15, ".3e", "0 (full-period pulse)"),
        ("excite.nu-tabulated", ForceProfile.tabulated(ts, np.exp(-(ts**2))), gauss_nu, True, 1e-6,
         ".12g", "closed form, 64 samples/period"),
    )
    out = [_value_check(cid, "nu", nu_from_force(force, 1.0), *row)
           for cid, force, *row in nu_rows]

    # the propagator against the closed form that excite reports
    ramp = FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0)
    rho_rows = (
        ("excite.rho-sudden", FrequencyProfile.sudden_step(1.0, 2.0), 1.0 / 9.0, False, 1e-6,
         ".12g", "1/9 for omega 1 -> 2"),
        ("excite.rho-tanh", ramp, excitation_report(ramp).value, True, 1e-6,
         ".12g", "sinh^2(pi (w+-w-) T/2) / sinh^2(pi (w++w-) T/2)"),
        ("excite.rho-adiabatic", FrequencyProfile.tanh_ramp(1.0, 4.0, 20.0 / 3.0), 0.0, False,
         1e-3, ".3e", "< 1e-3 for T (w+ + w-) >= 20"),
        ("excite.rho-sudden-limit", FrequencyProfile.tanh_ramp(1.0, 4.0, 1e-3 / 2.0), 1.0 / 9.0,
         True, 1e-2, ".12g", "within 1% of the jump formula"),
    )
    wronskians = []
    for cid, profile, *row in rho_rows:
        r = bogoliubov_from_frequency(profile, tol=1e-10)
        wronskians.append(r.wronskian_residual)
        out.append(_value_check(cid, "rho", r.rho, *row))
    out.append(_check("excite.wronskian", "|a|^2-|b|^2", max(wronskians), 1e-9,
                      computed="worst |(|alpha|^2 - |beta|^2) - 1| over the runs above"))
    return out


SUITES = {
    "forced": _forced_checks,
    "parametric": _parametric_checks,
    "singular": _singular_checks,
    "excitation": _excitation_checks,
}


def run_suite(suite: str = "all") -> VerifyReport:
    """Run one named suite (or all of them) and collect a report."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {list(SUITES)} or 'all'")
    names = list(SUITES) if suite == "all" else [suite]
    report = VerifyReport(suite=suite)
    start = time.perf_counter()
    for name in names:
        report.checks.extend(SUITES[name]())
    report.wall_time = time.perf_counter() - start
    return report
