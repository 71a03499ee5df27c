import json
import math

import numpy as np
import pytest

from oscigen.amplitude import forced_table
from oscigen.domains import RatPoly
from oscigen.errors import SingularEvaluationError
from oscigen.forced import forced_prob_table, forced_sk, forced_sum_rules
from oscigen.probtable import ProbTable
from oscigen.series import dft_extract_table, forced_gf_value


def test_nu_param_validation():
    for nu in (0.0, 5.0, np.finfo(float).max):
        assert forced_prob_table(nu, size=1).params == {"nu": nu}
    with pytest.raises(ValueError, match="nu must be nonnegative and finite, got -0.1"):
        forced_prob_table(-0.1, size=1)
    for nu in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"nu must be nonnegative and finite, got {nu}"):
            forced_prob_table(nu, size=1)


def test_gf_vacuum_amplitude():
    assert forced_gf_value(0.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0))


def test_gf_unitarity_generator_at_v_one():
    # at v = 1 the exponent vanishes, leaving 1/(1-u) regardless of nu
    for nu in (0.0, 0.7, 3.0):
        assert forced_gf_value(0.5, 1.0, nu) == pytest.approx(2.0)


def test_gf_no_excitation():
    assert forced_gf_value(0.5, 0.5, 0.0) == pytest.approx(4.0 / 3.0)


def test_gf_pole_rejected():
    with pytest.raises(SingularEvaluationError):
        forced_gf_value(1.0, 1.0, 1.0)


def test_table_identity_at_zero_drive():
    table = forced_prob_table(0.0, size=5, mode="float")
    assert np.array_equal(table.values, np.eye(5))
    assert np.all(1.0 - table.values.sum(axis=1) <= 1e-15)


def test_vacuum_row_is_poisson():
    for nu in (0.3, 1.0, 3.0):
        table = forced_prob_table(nu, size=13, mode="float")
        term = math.exp(-nu)
        for n in range(13):
            assert table.values[0][n] == pytest.approx(term, abs=1e-12)
            term *= nu / (n + 1)


def test_first_diagonal_entry_polynomial():
    table = forced_prob_table(1.0, size=4, mode="exact")
    assert table.symbolic[1][1] == RatPoly((1, -2, 1))  # (1-nu)^2
    assert table.values[1][1] == pytest.approx(0.0, abs=1e-15)
    t2 = forced_prob_table(0.5, size=4, mode="exact")
    assert t2.values[1][1] == pytest.approx(0.25 * math.exp(-0.5), rel=1e-13, abs=0.0)


def test_off_diagonal_entry_against_contour_oracle():
    table = forced_prob_table(0.7, size=5, mode="float")
    oracle = dft_extract_table(
        lambda u, v: forced_gf_value(u, v, 0.7), 2, 3, grid=64
    )
    for m, n in ((0, 3), (1, 2), (2, 2)):
        assert table.values[m][n] == pytest.approx(oracle[m, n], abs=1e-10)


def test_sum_rule_triples():
    r = forced_sum_rules(0, 0)
    assert (r.norm, r.mean, r.variance) == (1, 1, 1)
    r = forced_sum_rules(1, 2)
    assert (r.norm, r.mean, r.variance) == (1, 4, 8)
    for m, n in ((0, 5), (3, 3), (2, 7)):
        r = forced_sum_rules(m, n)
        assert r.norm == 1
        assert r.mean == m + n + 1
        assert r.variance == 2 * m * n + m + n + 1


def test_sum_rule_quadrature_cross_check():
    from oscigen.verify import _laguerre_moments

    for m, n in ((0, 0), (1, 2), (4, 4), (8, 8)):
        r = forced_sum_rules(m, n)
        norm, mean, variance = _laguerre_moments(m, n)
        assert norm == pytest.approx(float(r.norm), rel=1e-12, abs=0.0)
        assert mean == pytest.approx(float(r.mean), rel=1e-12, abs=0.0)
        assert variance == pytest.approx(float(r.variance), rel=1e-12, abs=0.0)


def test_vacuum_rows_have_poisson_variance():
    for n in range(13):
        r = forced_sum_rules(0, n)
        assert r.variance == r.mean


def test_antidiagonal_sums_match_laguerre_form():
    for nu in (0.3, 1.0, 3.0):
        table = forced_prob_table(nu, size=17, mode="float")
        for k in range(17):
            diag = sum(table.values[m][k - m] for m in range(k + 1))
            assert forced_sk(k, nu) == pytest.approx(diag, abs=1e-12)


def test_antidiagonal_spot_values():
    for nu in (0.3, 1.0, 3.0):
        assert forced_sk(0, nu) == pytest.approx(math.exp(-nu), rel=1e-14, abs=0.0)
    assert forced_sk(1, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13, abs=0.0)
    assert forced_sk(3, 1.0) == pytest.approx(4.0 / 3.0 * math.exp(-1.0), rel=1e-13, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_antidiagonal_sum_refuses_where_laguerre_overflows():
    # L_k(2 nu) leaves the double range before e^{-nu} scales it down
    for k, nu in ((500, 710.0), (8000, 706.0)):
        with pytest.raises(ValueError, match=f"at nu = {nu:g}"):
            forced_sk(k, nu)
    w = forced_table(700.0, 1401, 1401)
    diag = math.fsum(w[m, 1400 - m] for m in range(1401))
    assert abs(forced_sk(1400, 700.0) - diag) <= 1e-14


def test_table_symmetry_and_bounds():
    for mode in ("float", "exact"):
        table = forced_prob_table(2.0, size=10, mode=mode)
        table.validate()
        assert np.max(np.abs(table.values - table.values.T)) < 1e-14
    exact = forced_prob_table(2.0, size=8, mode="exact")
    for m in range(8):
        for n in range(8):
            assert exact.symbolic[m][n] == exact.symbolic[n][m]


def test_row_mass_past_the_table_within_its_deficit():
    table = forced_prob_table(3.0, size=8, mode="float")
    wide = forced_prob_table(3.0, size=40, mode="float")
    for m in range(8):
        assert wide.values[m][8:].sum() <= 1.0 - table.values[m].sum() + 1e-12


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        forced_prob_table(-1.0, size=4)
    with pytest.raises(ValueError):
        forced_prob_table(1.0, size=0)
    with pytest.raises(ValueError):
        forced_prob_table(1.0, size=4, mode="symbolic")
    with pytest.raises(ValueError):
        forced_sk(-1, 1.0)
    with pytest.raises(ValueError):
        forced_sum_rules(-1, 0)


def test_json_round_trip_preserves_entries():
    table = forced_prob_table(1.5, size=6, mode="exact")
    back = ProbTable.from_json_dict(json.loads(table.to_json()))
    assert np.array_equal(back.values, table.values)
    assert back.symbolic == table.symbolic
    assert back.params == table.params
