"""The CSV and JSON table writers against the straightforward per-cell
writers they replace: byte for byte, and bit-exact when read back."""

import json

import numpy as np
import pytest

from oscigen.errors import TableInvariantError
from oscigen.forced import forced_prob_table
from oscigen.parametric import param_prob_table
from oscigen.probtable import ProbTable
from oscigen.singular import singular_prob_table


def reference_csv(table: ProbTable) -> str:
    ncols = table.values.shape[1]
    out = "m\\n," + ",".join(str(n) for n in range(ncols)) + "\n"
    for m, row in enumerate(table.values):
        out += str(m) + "," + ",".join(f"{x:.17g}" for x in row) + "\n"
    return out


def reference_json(table: ProbTable) -> str:
    d = {
        "family": table.family,
        "mode": table.mode,
        "params": dict(table.params),
        "size": [int(table.values.shape[0]), int(table.values.shape[1])],
        "values": [[float(x) for x in row] for row in table.values],
        "row_tails": [float(t) for t in table.row_tails],
    }
    if table.symbolic is not None:
        d["symbolic"] = {
            "prefactor": table.symbolic.prefactor,
            "variable": table.symbolic.variable,
            "entries": [
                [[f"{c.numerator}/{c.denominator}" for c in p.coeffs] for p in row]
                for row in table.symbolic.entries
            ],
        }
    return json.dumps(d, indent=1) + "\n"


def assert_writers_exact(table: ProbTable) -> None:
    csv = table.to_csv()
    assert csv == reference_csv(table)
    text = table.to_json()
    assert text == reference_json(table)

    lines = csv.splitlines()
    assert len(lines) == table.values.shape[0] + 1
    cells = [[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]]
    got = np.array(cells, dtype=float).reshape(table.values.shape)
    assert np.array_equal(got.view(np.int64), table.values.view(np.int64))

    doc = json.loads(text)
    for key, want in (("values", table.values), ("row_tails", table.row_tails)):
        got = np.array(doc[key], dtype=float)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    try:
        table.validate()
    except TableInvariantError:
        # reading back validates, so a table that fails validate fails there
        with pytest.raises(TableInvariantError):
            ProbTable.from_json_dict(doc)
        return
    back = ProbTable.from_json_dict(doc)
    assert back.params == table.params
    if table.symbolic is not None:
        assert back.symbolic == table.symbolic


BUILDERS = {
    "forced": lambda size, mode: forced_prob_table(3.7, size=size, mode=mode),
    "parametric": lambda size, mode: param_prob_table(0.61, size=size, mode=mode),
    "singular": lambda size, mode: singular_prob_table(0.61, -1.3, size=size),
}


@pytest.mark.parametrize("size", [1, 2, 16, 257])
@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_float_tables_byte_identical(family, size):
    assert_writers_exact(BUILDERS[family](size, "float"))


@pytest.mark.parametrize("size", [1, 2, 16])
@pytest.mark.parametrize("family", ["forced", "parametric"])
def test_exact_tables_byte_identical(family, size):
    table = BUILDERS[family](size, "exact")
    assert table.symbolic is not None
    assert_writers_exact(table)
    assert '\n "symbolic": {\n' in table.to_json()


def test_signed_zero_and_extremes_keep_their_text():
    values = np.array([[0.0, -0.0, 5e-324], [1e-300, 1.0, -0.0], [5e-324, 0.0, 1e-300]])
    table = ProbTable("forced", {"nu": 0.0}, "float", values, np.array([-0.0, 5e-324, 0.0]))
    assert_writers_exact(table)
    assert table.to_csv().splitlines()[1] == "0,0,-0,4.9406564584124654e-324"
    assert '\n   -0.0,\n' in table.to_json()


def test_non_finite_cells_match_json_dumps():
    values = np.array([[np.nan, np.inf], [-np.inf, 0.5]])
    table = ProbTable("forced", {"nu": 1.0}, "float", values, np.array([np.nan, 0.0]))
    assert table.to_csv() == reference_csv(table)
    assert table.to_json() == reference_json(table)
    assert "\n   NaN,\n   Infinity\n" in table.to_json()


def test_non_symmetric_table():
    values = np.arange(16, dtype=float).reshape(4, 4) / 17.0
    table = ProbTable("parametric", {"rho": 0.5}, "float", values, values[:, 0].copy())
    assert_writers_exact(table)


def test_non_square_table():
    values = np.linspace(0.0, 1.0, 15).reshape(3, 5) ** 3
    table = ProbTable("singular", {"rho": 0.5, "j": -0.25}, "float", values, np.zeros(3))
    assert_writers_exact(table)
    assert table.to_csv().splitlines()[0] == "m\\n,0,1,2,3,4"


def test_to_json_dict_values_are_python_floats():
    table = forced_prob_table(1.5, size=4)
    d = table.to_json_dict()
    assert all(type(x) is float for row in d["values"] for x in row)
    assert all(type(t) is float for t in d["row_tails"])
    assert d["values"] == [[float(x) for x in row] for row in table.values]


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_empty_tables(shape):
    table = ProbTable("forced", {"nu": 1.0}, "float", np.zeros(shape), np.zeros(shape[0]))
    assert table.to_csv() == reference_csv(table)
    assert table.to_json() == reference_json(table)


def _negative_entry(values):
    values[2][3] = values[3][2] = -1e-3


def _row_sum_above_one(values):
    # on the diagonal, so the table stays symmetric and every entry below one
    values[1][1] += 1.0 - sum(values[1]) + 1e-6


@pytest.mark.parametrize("tamper, message", [
    pytest.param(_negative_entry, "negative", id="negative-entry"),
    pytest.param(_row_sum_above_one, "row sum", id="row-sum-above-one"),
])
def test_tampered_json_is_rejected(tamper, message):
    doc = json.loads(forced_prob_table(1.2, size=6).to_json())
    ProbTable.from_json_dict(doc)
    tamper(doc["values"])
    with pytest.raises(TableInvariantError, match=message):
        ProbTable.from_json_dict(doc)
