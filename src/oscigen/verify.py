"""Identity and invariant verification suites.

Every closed-form identity of the three families is rechecked here: sum rules,
anti-diagonal sums, the weighted integrals over rho, the row moments (from the
generating function and from fixed 2049-column kernel tables), the closed-form
vacuum rows, the singular-family reductions and the excitation extractors.  One
check is special: the second weighted-integral identity disagrees with the
value this package derives (1/2 for the (0,2) entry and 3/4 for (1,3)
instead of 1), so it is *reported only* and never fails a run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import amplitude, forced, parametric, singular
from .excitation import _tanh_ramp_rho, bogoliubov_from_frequency, nu_from_force
from .profiles import ForceProfile, FrequencyProfile
from .series import dft_extract_table

__all__ = ["CheckResult", "VerifyReport", "run_suite", "SUITES"]

_NU_GRID = (0.3, 1.0, 3.0)
_RHO_GRID = (0.1, 0.5, 0.9)
_J_GRID = (-0.25, -0.75, -0.6, -1.3)
_ORACLE_GRID_SIZE = 256
_TOL_ORACLE = 1e-9


@dataclass(frozen=True)
class CheckResult:
    check_id: str
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

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def n_reported(self) -> int:
        return sum(1 for c in self.checks if c.status == "reported-only")

    @property
    def exit_code(self) -> int:
        return 1 if self.n_fail else 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "wall_time": self.wall_time,
            "summary": {
                "pass": self.n_pass,
                "fail": self.n_fail,
                "reported_only": self.n_reported,
            },
            "checks": [
                {
                    "id": c.check_id,
                    "equation": c.equation,
                    "computed": c.computed,
                    "expected": c.expected,
                    "residual": c.residual,
                    "tol": c.tol,
                    "status": c.status,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL", "reported-only": "NOTE"}[c.status]
            lines.append(
                f"[{tag}] {c.check_id:<34} {c.equation:<10} "
                f"residual={c.residual:.3e} tol={c.tol:.1e}"
            )
            if c.note:
                lines.append(f"       {c.note}")
        lines.append(
            f"{self.n_pass} passed, {self.n_fail} failed, "
            f"{self.n_reported} reported-only ({self.wall_time:.1f}s)"
        )
        return "\n".join(lines)


def _check(check_id, equation, residual, tol, computed="", expected="", note=""):
    status = "pass" if residual <= tol else "fail"
    return CheckResult(
        check_id, equation, computed, expected, float(residual), tol, status, note
    )


def _route_checks(prefix, cases) -> list[CheckResult]:
    """Compare the three independent routes to the same 11x11 tables: the
    amplitude kernel, the float series engine and the contour oracle.
    ``cases`` holds one (kernel table, series table, generating function)
    triple per parameter point."""
    worst_so = worst_ks = worst_ko = 0.0
    for ker, ser, gf in cases:
        dft = dft_extract_table(gf, 10, 10, grid=_ORACLE_GRID_SIZE)
        worst_so = max(worst_so, float(np.max(np.abs(ser - dft))))
        worst_ks = max(worst_ks, float(np.max(np.abs(ker - ser))))
        worst_ko = max(worst_ko, float(np.max(np.abs(ker - dft))))
    return [
        _check(
            f"{prefix}.oracle-dft", "w_mn", worst_so, _TOL_ORACLE,
            computed="series engine vs contour extraction",
        ),
        _check(
            f"{prefix}.kernel-series", "w_mn", worst_ks, 1e-12,
            computed="amplitude kernel vs series engine",
        ),
        _check(
            f"{prefix}.kernel-oracle", "w_mn", worst_ko, _TOL_ORACLE,
            computed="amplitude kernel vs contour extraction",
        ),
    ]


def _kernel_exact_check(prefix, kernel, grid, points, prefactor) -> CheckResult:
    """Kernel tables against the exact-mode polynomials evaluated in rational
    arithmetic at the binary value of each parameter and rounded once."""
    size = grid.max_deg_u + 1
    worst = 0.0
    for x in points:
        exact = np.array(
            [[float(p(Fraction(x))) for p in row] for row in grid.rows]
        )
        diff = kernel(x, size, size) - prefactor(x) * exact
        worst = max(worst, float(np.max(np.abs(diff))))
    return _check(
        f"{prefix}.kernel-exact", "w_mn", worst, 1e-14,
        computed=f"amplitude kernel vs rational polynomials, {size}x{size}",
    )


def _series_exact_check(prefix, grid, poly) -> CheckResult:
    """Exact series polynomials against the closed-form ones, coefficient
    for coefficient."""
    size = grid.max_deg_u + 1
    bad = sum(
        grid.coeff(m, n).coeffs != poly(m, n).coeffs
        for m in range(size)
        for n in range(size)
    )
    return _check(
        f"{prefix}.series-exact", "w_mn", float(bad), 0.0,
        computed=f"{size * size - bad}/{size * size} series polynomials equal the closed form",
        expected=f"{size * size}/{size * size}",
    )


# ---------------------------------------------------------------------------
# forced oscillator

def _forced_checks() -> list[CheckResult]:
    out = []

    # exact sum rules, m,n <= 8
    bad = 0
    worst_quad = 0.0
    for m in range(9):
        for n in range(9):
            r = forced.forced_sum_rules(m, n)
            if not (
                r.norm == 1
                and r.mean == m + n + 1
                and r.variance == 2 * m * n + m + n + 1
            ):
                bad += 1
            for got, want in (
                (r.norm_quad, 1.0),
                (r.mean_quad, m + n + 1.0),
                (r.variance_quad, 2.0 * m * n + m + n + 1.0),
            ):
                worst_quad = max(worst_quad, abs(got - want) / want)
    out.append(
        _check(
            "forced.sum-rules.exact", "moments", float(bad), 0.0,
            computed=f"{81-bad}/81 triples exactly (1, m+n+1, 2mn+m+n+1)",
            expected="81/81",
        )
    )
    out.append(
        _check(
            "forced.sum-rules.quadrature", "moments", worst_quad, 1e-12,
            computed="Gauss-Laguerre cross-check", expected="matches exact values",
        )
    )

    # Poisson vacuum row
    worst = 0.0
    for nu in _NU_GRID:
        table = forced.forced_prob_table(nu, size=13, mode="float")
        for n in range(13):
            want = math.exp(-nu) * nu**n / math.factorial(n)
            worst = max(worst, abs(table.values[0][n] - want))
    out.append(
        _check(
            "forced.poisson-row", "vacuum row", worst, 1e-12,
            computed="w_0n vs nu^n e^-nu / n!",
        )
    )

    bad = 0
    for n in range(13):
        r = forced.forced_sum_rules(0, n)
        if r.variance != r.mean:
            bad += 1
    out.append(
        _check(
            "forced.poisson-variance", "moments", float(bad), 0.0,
            computed="variance == mean exactly on row 0", expected="13/13",
        )
    )

    # anti-diagonal sums
    worst = 0.0
    for nu in _NU_GRID:
        table = forced.forced_prob_table(nu, size=17, mode="float")
        for k in range(17):
            diag = sum(table.values[m][k - m] for m in range(k + 1))
            worst = max(worst, abs(forced.forced_sk(k, nu) - diag))
    out.append(
        _check(
            "forced.antidiagonal", "S_k", worst, 1e-12,
            computed="Laguerre partial sums vs table anti-diagonals",
        )
    )

    spots = max(
        abs(forced.forced_sk(0, nu) - math.exp(-nu)) for nu in _NU_GRID
    )
    spots = max(spots, abs(forced.forced_sk(1, 1.0) - 2.0 * math.exp(-1.0)))
    spots = max(spots, abs(forced.forced_sk(3, 1.0) - (4.0 / 3.0) * math.exp(-1.0)))
    out.append(
        _check(
            "forced.antidiagonal.spot", "S_k", spots, 1e-12,
            computed="S_0 = e^-nu, S_1(1) = 2/e, S_3(1) = 4/(3e)",
        )
    )

    # unitarity with a wide window
    worst = 0.0
    for nu in (0.3, 1.0, 3.0, 5.0):
        grid = forced._float_grid(nu, 8, 64)
        worst = max(worst, float((1.0 - grid.sum(axis=1)).max()))
    out.append(
        _check(
            "forced.unitarity", "row sums", worst, 1e-10,
            computed="1 - sum_n w_mn for m <= 8, nu <= 5, 65 columns",
        )
    )

    # symmetry of the series, which unlike the kernel is not symmetric by
    # construction
    worst = 0.0
    for nu in _NU_GRID:
        v = forced._float_grid(nu, 12, 12)
        worst = max(worst, float(np.max(np.abs(v - v.T))))
    exact = forced._exact_grid(8, 8)
    sym_ok = all(
        exact.coeff(m, n) == exact.coeff(n, m) for m in range(9) for n in range(9)
    )
    out.append(
        _check(
            "forced.symmetry", "w_mn", worst if sym_ok else 1.0, 1e-12,
            computed="float series and exact polynomials",
        )
    )

    out += _route_checks(
        "forced",
        [
            (
                amplitude.forced_table(nu, 11, 11),
                forced._float_grid(nu, 10, 10),
                lambda U, V, nu=nu: forced.forced_gf_value(U, V, nu),
            )
            for nu in _NU_GRID
        ],
    )
    out.append(
        _kernel_exact_check(
            "forced", amplitude.forced_table, exact, _NU_GRID,
            lambda nu: math.exp(-nu),
        )
    )
    out.append(_series_exact_check("forced", exact, amplitude.forced_poly))
    return out


# ---------------------------------------------------------------------------
# parametric oscillator

def _parametric_checks() -> list[CheckResult]:
    out = []

    # arctanh integral identity on a grid
    worst = 0.0
    for u in np.linspace(-0.7, 0.7, 5):
        for v in np.linspace(-0.7, 0.7, 5):
            worst = max(worst, parametric.param_identity_eq6(float(u), float(v)).residual)
    out.append(
        _check(
            "param.arctanh-integral", "1/(1-rho)", worst, 1e-9,
            computed="Jacobi quadrature vs 2(arctanh u - arctanh v)/(u-v)",
        )
    )

    # first weighted integral: exact and quadrature
    bad = 0
    worst_quad = 0.0
    for m in range(11):
        for n in range(11):
            r = parametric.param_weighted_integrals(m, n)
            if r.first != r.expected_first:
                bad += 1
            worst_quad = max(worst_quad, abs(float(r.first) - r.first_quad))
    out.append(
        _check(
            "param.weighted-first.exact", "1/(1-rho)", float(bad), 0.0,
            computed=f"{121-bad}/121 equal (1+(-1)^(m+n))/(m+n+1) exactly",
            expected="121/121",
        )
    )
    out.append(
        _check(
            "param.weighted-first.quadrature", "1/(1-rho)", worst_quad, 1e-10,
            computed="Gauss-Jacobi cross-check",
        )
    )

    # second weighted integral: reported only
    r02 = parametric.param_weighted_integrals(0, 2)
    r13 = parametric.param_weighted_integrals(1, 3)
    out.append(
        CheckResult(
            "param.weighted-second.reported",
            "1/(rho sqrt)",
            computed=f"(0,2) -> {r02.second}, (1,3) -> {r13.second}",
            expected=f"quoted closed form gives {r02.expected_second} and {r13.expected_second}",
            residual=max(
                abs(float(r02.second - r02.expected_second)),
                abs(float(r13.second - r13.expected_second)),
            ),
            tol=math.inf,
            status="reported-only",
            note=(
                "quoted-identity mismatch: the integral of w_mn/(rho sqrt(1-rho)) "
                "evaluates to 1/2 at (0,2) and 3/4 at (1,3), not the quoted "
                "(1+(-1)^(m+n))/|m-n|; reported without gating"
            ),
        )
    )

    # diagonal rho-integrals J_nn
    bad = 0
    worst_quad = 0.0
    for n in range(7):
        r = parametric.param_jnn(n)
        if r.closed_form != r.symbolic:
            bad += 1
        worst_quad = max(worst_quad, abs(float(r.closed_form) - r.quadrature))
    out.append(
        _check(
            "param.diagonal-integral.exact", "J_nn", float(bad), 0.0,
            computed=f"{7-bad}/7 match (1/(2n+1))[1 + 1/((2n+3)(2n-1))] exactly",
            expected="7/7",
        )
    )
    out.append(
        _check(
            "param.diagonal-integral.quadrature", "J_nn", worst_quad, 1e-10,
            computed="Gauss-Jacobi cross-check",
        )
    )

    # anti-diagonal sums
    worst = 0.0
    for rho in (0.19, 0.5, 0.8):
        table = parametric.param_prob_table(rho, size=13, mode="float")
        for k in range(13):
            diag = sum(table.values[m][k - m] for m in range(k + 1))
            worst = max(worst, abs(diag - parametric.param_sk(k, rho)))
    out.append(
        _check(
            "param.antidiagonal", "S_k", worst, 1e-12,
            computed="sqrt(1-rho) for even k, 0 for odd k, vs table sums",
        )
    )

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
    out.append(
        _check(
            "param.mean-n", "<n>_m", worst, 1e-8,
            computed="-1/2 + (m+1/2)(1+rho)/(1-rho) vs G(u, e^s) and table moments",
        )
    )

    worst = 0.0
    for rho in tables:
        got = parametric.param_dispersion(0, rho)
        want = 2.0 * rho / (1.0 - rho) ** 2
        worst = max(worst, abs(got - want) / want)
    out.append(
        _check(
            "param.dispersion-vacuum", "<dn^2>_0", worst, 1e-8,
            computed="G(u, e^s) moments vs 2 rho/(1-rho)^2",
        )
    )

    # parity and structure of the exact polynomials
    grid = parametric._exact_grid(12, 12)
    parity_ok = structure_ok = True
    for m in range(13):
        for n in range(13):
            q = grid.coeff(m, n)
            if (m + n) % 2 == 1:
                parity_ok = parity_ok and not q
            else:
                half = abs(m - n) // 2
                structure_ok = structure_ok and all(
                    c == 0 for c in q.coeffs[:half]
                ) and q.degree <= (m + n) // 2
    out.append(
        _check(
            "param.parity", "w_mn", 0.0 if parity_ok else 1.0, 0.0,
            computed="w_mn = 0 exactly for odd m+n, m,n <= 12",
        )
    )
    out.append(
        _check(
            "param.structure", "w_mn", 0.0 if structure_ok else 1.0, 0.0,
            computed="q_mn divisible by rho^(|m-n|/2), degree <= (m+n)/2",
        )
    )

    worst = max(float((1.0 - t.sum(axis=1)).max()) for t in tables.values())
    out.append(
        _check(
            "param.unitarity", "row sums", worst, 1e-10,
            computed="1 - sum_n w_mn, m <= 8, n <= 2048, rho <= 0.8",
        )
    )

    out += _route_checks(
        "param",
        [
            (
                amplitude.param_table(rho, 11, 11),
                parametric._float_grid(rho, 10, 10),
                lambda U, V, r=rho: parametric.param_gf_value(U, V, r),
            )
            for rho in _RHO_GRID
        ],
    )
    out.append(
        _kernel_exact_check(
            "param", amplitude.param_table, grid, _RHO_GRID,
            lambda rho: math.sqrt(1.0 - rho),
        )
    )
    out.append(_series_exact_check("param", grid, amplitude.param_poly))
    return out


# ---------------------------------------------------------------------------
# singular oscillator

def _vacuum_row_sum(rho: float, j: float) -> float:
    """Sum of w_0n in order of n, up to the first n > 8 with w_0n < 1e-14 or
    to n = 4095, from one 4096-column kernel row."""
    row = amplitude.singular_table(rho, j, 1, 4096)[0]
    stop = np.flatnonzero(row[9:] < 1e-14)
    total = 0.0
    for w in row[: 10 + stop[0] if stop.size else 4096].tolist():
        total += w
    return total


def _singular_checks() -> list[CheckResult]:
    out = []

    # the two series expansions, not the kernel, which computes both the
    # same way
    worst_even = worst_odd = 0.0
    for rho in _RHO_GRID:
        par = parametric._float_grid(rho, 13, 13)
        even = singular._float_grid(rho, -0.25, 6, 6)
        odd = singular._float_grid(rho, -0.75, 6, 6)
        worst_even = max(worst_even, float(np.max(np.abs(even - par[::2, ::2]))))
        worst_odd = max(worst_odd, float(np.max(np.abs(odd - par[1::2, 1::2]))))
    out.append(
        _check(
            "singular.reduction-even", "families", worst_even, 1e-10,
            computed="j=-1/4 series vs even-even variable-frequency series",
        )
    )
    out.append(
        _check(
            "singular.reduction-odd", "families", worst_odd, 1e-10,
            computed="j=-3/4 series vs odd-odd variable-frequency series",
        )
    )

    # vacuum row closed form vs series extraction; entry n of a kernel row
    # is ground_row(n) bit for bit, whatever the row's width
    worst = 0.0
    for rho in _RHO_GRID:
        for j in _J_GRID:
            row = singular._float_grid(rho, j, 0, 12)[0]
            kernel = amplitude.singular_table(rho, j, 1, 13)[0]
            worst = max(worst, float(np.max(np.abs(row - kernel))))
    out.append(
        _check(
            "singular.ground-row", "w_0n", worst, 1e-10,
            computed="Gamma-ratio closed form vs series row",
        )
    )

    # vacuum row normalization
    worst = 0.0
    for rho in (0.5, 0.8):
        for j in _J_GRID:
            worst = max(worst, abs(1.0 - _vacuum_row_sum(rho, j)))
    out.append(
        _check(
            "singular.ground-row-normalization", "w_0n", worst, 1e-8,
            computed="sum of the closed-form vacuum row",
        )
    )

    # adiabatic slope, Richardson extraction and the two algebraic forms
    worst_rich = worst_forms = 0.0
    for j in (-0.25, -0.75, -0.6):
        for n in range(5):
            rec = singular.adiabatic_diag(n, j)
            worst_forms = max(worst_forms, abs(rec.slope - rec.slope_from_big_n))
            s = []
            for eps in (1e-4, 2e-4):
                w_nn = singular.singular_prob_table(eps, j, size=n + 1).values[n][n]
                s.append((1.0 - w_nn) / eps)
            extracted = 2.0 * s[0] - s[1]
            worst_rich = max(worst_rich, abs(extracted - rec.slope) / rec.slope)
    out.append(
        _check(
            "singular.adiabatic-slope", "w_nn", worst_rich, 1e-4,
            computed="Richardson (1-w_nn)/rho vs 2[n^2-(2n+1)j]",
        )
    )
    out.append(
        _check(
            "singular.slope-forms", "w_nn", worst_forms, 1e-12,
            computed="2[n^2-(2n+1)j] vs (1/2)(N^2+N+1)",
        )
    )

    # unitarity of the kernel rows, symmetry of the series
    worst_sum = worst_sym = 0.0
    for rho in (0.5, 0.8):
        for j in (-0.25, -0.75, -1.3, -2.0):
            grid = amplitude.singular_table(rho, j, 9, 2049)
            worst_sum = max(worst_sum, float((1.0 - grid.sum(axis=1)).max()))
            square = singular._float_grid(rho, j, 8, 8)
            worst_sym = max(worst_sym, float(np.max(np.abs(square - square.T))))
    out.append(
        _check(
            "singular.unitarity", "row sums", worst_sum, 1e-8,
            computed="1 - sum_n w_mn, m <= 8, n <= 2048, rho <= 0.8, |j| <= 2",
        )
    )
    out.append(
        _check(
            "singular.symmetry", "w_mn", worst_sym, 1e-12,
            computed="w_mn vs w_nm on 9x9 tables",
        )
    )

    out += _route_checks(
        "singular",
        [
            (
                amplitude.singular_table(rho, j, 11, 11),
                singular._float_grid(rho, j, 10, 10),
                lambda U, V, r=rho, jj=j: singular.singular_gf_value(U, V, r, jj),
            )
            for rho in _RHO_GRID
            for j in _J_GRID
        ],
    )
    return out


# ---------------------------------------------------------------------------
# excitation extraction

def _excitation_checks() -> list[CheckResult]:
    out = []
    wronskians = []

    nu = nu_from_force(ForceProfile.gaussian(1.0, 1.0, 0.0), 1.0)
    want = math.pi * math.exp(-0.5) / 2.0
    out.append(
        _check(
            "excite.nu-gaussian", "nu", abs(nu - want), 1e-10,
            computed=f"{nu:.12g}", expected="pi e^(-1/2) / 2",
        )
    )

    nu0 = nu_from_force(ForceProfile.rectangular(1.0, 0.0, 2.0 * math.pi), 1.0)
    out.append(
        _check(
            "excite.nu-full-period", "nu", abs(nu0), 1e-15,
            computed=f"{nu0:.3e}", expected="0 (full-period pulse)",
        )
    )

    ts = np.arange(-8.0, 8.0 + 1e-9, 2.0 * math.pi / 64.0)
    nut = nu_from_force(ForceProfile.tabulated(ts, np.exp(-(ts**2))), 1.0)
    out.append(
        _check(
            "excite.nu-tabulated", "nu", abs(nut - want) / want, 1e-6,
            computed=f"{nut:.12g}", expected="closed form, 64 samples/period",
        )
    )

    r = bogoliubov_from_frequency(FrequencyProfile.sudden_step(1.0, 2.0))
    wronskians.append(r.wronskian_residual)
    out.append(
        _check(
            "excite.rho-sudden", "rho", abs(r.rho - 1.0 / 9.0), 1e-6,
            computed=f"{r.rho:.12g}", expected="1/9 for omega 1 -> 2",
        )
    )

    # the propagator against the closed form that excite reports
    ramp = FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0)
    r = bogoliubov_from_frequency(ramp, tol=1e-10)
    wronskians.append(r.wronskian_residual)
    want = _tanh_ramp_rho(ramp)
    out.append(
        _check(
            "excite.rho-tanh", "rho", abs(r.rho - want) / want, 1e-6,
            computed=f"{r.rho:.12g}",
            expected="sinh^2(pi (w+-w-) T/2) / sinh^2(pi (w++w-) T/2)",
        )
    )

    r = bogoliubov_from_frequency(
        FrequencyProfile.tanh_ramp(1.0, 4.0, 20.0 / 3.0), tol=1e-10
    )
    wronskians.append(r.wronskian_residual)
    out.append(
        _check(
            "excite.rho-adiabatic", "rho", r.rho, 1e-3,
            computed=f"{r.rho:.3e}", expected="< 1e-3 for T (w+ + w-) >= 20",
        )
    )

    r = bogoliubov_from_frequency(
        FrequencyProfile.tanh_ramp(1.0, 4.0, 1e-3 / 2.0), tol=1e-10
    )
    wronskians.append(r.wronskian_residual)
    out.append(
        _check(
            "excite.rho-sudden-limit", "rho",
            abs(r.rho - 1.0 / 9.0) / (1.0 / 9.0), 1e-2,
            computed=f"{r.rho:.12g}", expected="within 1% of the jump formula",
        )
    )

    out.append(
        _check(
            "excite.wronskian", "|a|^2-|b|^2", max(wronskians), 1e-9,
            computed="worst |(|alpha|^2 - |beta|^2) - 1| over the runs above",
        )
    )
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
