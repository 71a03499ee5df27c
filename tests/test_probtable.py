"""The CSV and JSON table writers against the straightforward per-cell
writers they replace: byte for byte, and bit-exact when read back."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscigen.errors import TableInvariantError
from oscigen.forced import forced_prob_table
from oscigen.parametric import param_prob_table
from oscigen.probtable import ProbTable, make_table
from oscigen.singular import singular_prob_table


def reference_csv(table: ProbTable) -> str:
    ncols = table.values.shape[1]
    out = "m\\n," + ",".join(str(n) for n in range(ncols)) + "\n"
    for m, row in enumerate(table.values):
        out += str(m) + "," + ",".join(f"{x:.17g}" for x in row) + "\n"
    return out


def json_cell(x: float) -> str:
    """A JSON number as the writer spells it: "%.17g", but as json.dumps
    writes NaN, the infinities and -0.0, whose "%.17g" json.loads cannot
    read back."""
    if not math.isfinite(x) or (x == 0.0 and math.copysign(1.0, x) < 0.0):
        return json.dumps(x)
    return "%.17g" % x


# the prefactor and variable of each family's exact form
FORMS = {"forced": ("exp(-nu)", "nu"), "parametric": ("sqrt(1-rho)", "rho")}


def reference_json(table: ProbTable) -> str:
    """json.dumps of the table record with every float as ``json_cell``
    spells it: each goes in as a NUL-marked string, and the quotes and
    marker come off afterwards."""
    cell = lambda x: "\0" + json_cell(float(x))
    d = {
        "family": table.family,
        "mode": table.mode,
        "params": dict(table.params),
        "size": [int(table.values.shape[0]), int(table.values.shape[1])],
        "values": [[cell(x) for x in row] for row in table.values],
    }
    if table.symbolic is not None:
        prefactor, variable = FORMS[table.family]
        d["symbolic"] = {
            "prefactor": prefactor,
            "variable": variable,
            "entries": [
                [[f"{c.numerator}/{c.denominator}" for c in p.coeffs] for p in row]
                for row in table.symbolic
            ],
        }
    return re.sub(r'"\\u0000([^"]*)"', r"\1", json.dumps(d, indent=1)) + "\n"


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
    got = np.array(doc["values"], dtype=float)
    assert np.array_equal(got.view(np.int64), table.values.view(np.int64))
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
        # the family's own grid, each symmetric pair one object
        assert len(back.symbolic) < 2 or back.symbolic[0][1] is back.symbolic[1][0]


BUILDERS = {
    "forced": lambda size, mode: forced_prob_table(3.7, size=size, mode=mode),
    "parametric": lambda size, mode: param_prob_table(0.61, size=size, mode=mode),
    "singular": lambda size, mode: singular_prob_table(0.61, -1.3, size=size, mode=mode),
}


def _forced(nu):
    return lambda size, mode: forced_prob_table(nu, size=size, mode=mode)


def _parametric(rho):
    return lambda size, mode: param_prob_table(rho, size=size, mode=mode)


def _singular(rho, j):
    return lambda size, mode: singular_prob_table(rho, j, size=size, mode=mode)


# The M = 256 cases reach entries below 1e-300 and subnormal (nu = 1e-6,
# rho = 1e-6), entries next to one (nu = 0, rho = 0.99) and a forced table
# far from the vacuum (nu = 9.9).
FLOAT_CASES = [
    *(pytest.param(BUILDERS[family], size, id=f"{family}-{size}")
      for size in (1, 2, 16, 257) for family in sorted(BUILDERS)),
    *(pytest.param(_forced(nu), 256, id=f"forced-256-nu{nu}") for nu in (0.0, 1e-6, 9.9)),
    *(pytest.param(_parametric(rho), 256, id=f"parametric-256-rho{rho}") for rho in (1e-6, 0.99)),
    *(pytest.param(_singular(rho, -2.5), 256, id=f"singular-256-rho{rho}") for rho in (1e-6, 0.1, 0.99)),
]


@pytest.mark.parametrize("build, size", FLOAT_CASES)
def test_float_tables_byte_identical(build, size):
    assert_writers_exact(build(size, "float"))


def test_singular_tables_refuse_exact_mode():
    with pytest.raises(ValueError, match=r"^the singular family is float-only \(irrational exponent -2j\)$"):
        singular_prob_table(0.5, -1.0, size=4, mode="exact")
    # make_table refuses it with the CLI's text, before any parameter check
    for params in ({"rho": 0.5, "j": -1.0}, {"rho": 2.0, "j": -1.0}, {}):
        with pytest.raises(ValueError, match=r"^the singular family is float-only \(irrational exponent -2j\)$"):
            make_table("singular", params, 3, "exact")


@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_builders_refuse_an_unknown_mode(family):
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        BUILDERS[family](4, "bogus")


@pytest.mark.parametrize("size", [1, 2, 16, 17])
@pytest.mark.parametrize("family", ["forced", "parametric"])
def test_exact_tables_byte_identical(family, size):
    table = BUILDERS[family](size, "exact")
    assert table.symbolic is not None
    assert_writers_exact(table)
    assert '\n "symbolic": {\n' in table.to_json()
    # streamed: head and values, symbolic head, each polynomial and
    # each row's close, closings
    assert len(list(table._json_pieces())) == size * (size + 1) + 4


@pytest.mark.parametrize("size", [1, 2, 17])
@pytest.mark.parametrize("build", [_forced(0.0), _parametric(0.0)], ids=["forced", "parametric"])
def test_exact_tables_at_zero_parameter_byte_identical(build, size):
    assert_writers_exact(build(size, "exact"))


def test_symbolic_block_without_entries_or_coefficients():
    from fractions import Fraction

    from oscigen.domains import RatPoly

    zero, one = RatPoly(), RatPoly((Fraction(1), Fraction(-1, 3)))
    for values, entries in ((np.zeros((0, 0)), ()), (np.zeros((1, 0)), ((),)),
                            (np.full((2, 2), 0.25), ((zero, one), (one, zero)))):
        table = ProbTable("forced", {}, values, entries)
        assert table.mode == "exact"
        assert table.to_json() == reference_json(table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_gives_the_document(fmt):
    import io

    table = forced_prob_table(1.5, size=5, mode="exact")
    stream = io.StringIO()
    table.write(stream, fmt)
    assert stream.getvalue() == (table.to_csv() if fmt == "csv" else table.to_json())


def test_write_refuses_an_unknown_format():
    import io

    with pytest.raises(ValueError, match="^unknown format 'CSV'$"):
        forced_prob_table(1.5, size=3).write(io.StringIO(), "CSV")


def test_exact_json_write_holds_one_polynomial_at_a_time():
    import dataclasses
    import tracemalloc

    class Discard:
        def write(self, text):
            pass

    def write_peak(table):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table.write(Discard(), "json")
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    table = forced_prob_table(2.37, size=64, mode="exact")
    largest = max(len(json.dumps([f"{c.numerator}/{c.denominator}" for c in p.coeffs], indent=4))
                  for row in table.symbolic for p in row)
    table.write(Discard(), "json")  # the cell kernel builds its tables once
    floats = write_peak(dataclasses.replace(table, symbolic=None))
    # a row of polynomial texts, as the writer once held, is 29 times the
    # largest polynomial's text here
    assert write_peak(table) <= floats + 8 * largest


def test_signed_zero_and_extremes_keep_their_text():
    values = np.array([[0.0, -0.0, 5e-324], [1e-300, 1.0, -0.0], [5e-324, 0.0, 1e-300]])
    table = ProbTable("forced", {"nu": 0.0}, values)
    assert_writers_exact(table)
    assert table.to_csv().splitlines()[1] == "0,0,-0,4.9406564584124654e-324"
    text = table.to_json()
    assert '"values": [\n  [\n   0,\n   -0.0,\n   4.9406564584124654e-324\n  ],' in text


@pytest.mark.parametrize("dirty", [False, True])
def test_kernel_writes_positive_zero_itself(dirty):
    """The kernel writes every byte of a row it answers, so rows that start
    as leftover bytes (as np.empty gives them in _texts) come out clean."""
    from oscigen.probtable import _WIDTH, _kernel, _strip

    x = np.array([0.0, -0.0, 0.3])
    words = np.full((x.size, _WIDTH // 8), np.uint64(2**64 - 1) if dirty else 0, np.uint64)
    assert _kernel(x, words).tolist() == [True, False, True]
    assert words[0].tobytes() == b"0".ljust(_WIDTH, b"\0")
    assert _strip(words[2]) == "0.29999999999999999"


def test_non_finite_cells_match_json_dumps():
    values = np.array([[np.nan, np.inf], [-np.inf, 0.5]])
    table = ProbTable("forced", {"nu": 1.0}, values)
    assert table.to_csv() == reference_csv(table)
    assert table.to_json() == reference_json(table)
    assert "\n   NaN,\n   Infinity\n  ],\n  [\n   -Infinity,\n   0.5\n" in table.to_json()
    assert table.to_csv().splitlines()[1:] == ["0,nan,inf", "1,-inf,0.5"]


def test_non_symmetric_table():
    values = np.arange(16, dtype=float).reshape(4, 4) / 17.0
    table = ProbTable("parametric", {"rho": 0.5}, values)
    assert_writers_exact(table)


def test_non_square_table():
    values = np.linspace(0.0, 1.0, 15).reshape(3, 5) ** 3
    table = ProbTable("singular", {"rho": 0.5, "j": -0.25}, values)
    assert_writers_exact(table)
    assert table.to_csv().splitlines()[0] == "m\\n,0,1,2,3,4"


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_empty_tables(shape):
    table = ProbTable("forced", {"nu": 1.0}, np.zeros(shape))
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


# forced nu = 0.5, M = 2 as tables were written with their row tails, the
# deficits max(0, 1 - row sum)
OLD_FORMAT = """{"family": "forced", "mode": "float", "params": {"nu": 0.5}, "size": [2, 2],
 "values": [[0.60653065971263342, 0.30326532985631671],
            [0.30326532985631671, 0.15163266492815836]],
 "row_tails": [0.090204010431049864, 0.54510200521552488]}"""


DROP = object()  # an edit that removes the member


# the forced M = 2 polynomials as the writer spells them: 1, nu, (1 - nu)^2
ENTRIES = [[["1/1"], ["0/1", "1/1"]], [["0/1", "1/1"], ["1/1", "-2/1", "1/1"]]]
NOT_FORCED = "^symbolic block is not the forced family's polynomials$"


def _symbolic(entries) -> dict:
    return {"prefactor": "exp(-nu)", "variable": "nu", "entries": entries}


@pytest.mark.parametrize("edit, message", [
    pytest.param({}, None, id="old-format"),
    pytest.param({"values": [0.5]}, "not a nonempty table", id="one-dimensional"),
    pytest.param({"values": []}, "not a nonempty table", id="empty"),
    pytest.param({"values": [[0.5, 0.25], [0.25]]}, "not a nonempty table", id="ragged"),
    pytest.param({"values": [["0.5", "0.25"], ["0.25", "0.5"]]}, "not a nonempty table",
                 id="non-numeric"),
    pytest.param({"values": [[], []], "size": [2, 0]}, "not a nonempty table", id="zero-size"),
    pytest.param({"size": [3, 3]}, r"^size \[3, 3\] disagrees with the 2 x 2 values$",
                 id="size-mismatch"),
    pytest.param({"size": DROP}, "^record has no member 'size'$", id="no-size"),
    pytest.param({"family": DROP}, "^record has no member 'family'$", id="no-family"),
    pytest.param({"family": "nosuch"}, "^unknown family 'nosuch'$", id="unknown-family"),
    pytest.param({"mode": "bogus"}, "^mode 'bogus' disagrees", id="unknown-mode"),
    pytest.param({"mode": "exact"}, "^mode 'exact' disagrees with a record without",
                 id="exact-without-symbolic"),
    pytest.param({"symbolic": _symbolic(ENTRIES)},
                 "^mode 'float' disagrees with a record with", id="float-with-symbolic"),
    pytest.param({"mode": "exact", "symbolic": _symbolic([[["1/1"]]])}, NOT_FORCED, id="symbolic-cut"),
    pytest.param({"mode": "exact", "symbolic": _symbolic([["12", ENTRIES[0][1]], ENTRIES[1]])},
                 NOT_FORCED, id="polynomial-as-string"),
    pytest.param({"mode": "exact", "symbolic": _symbolic([[["x"], ENTRIES[0][1]], ENTRIES[1]])},
                 NOT_FORCED, id="non-rational-coefficient"),
    pytest.param({"mode": "exact", "symbolic": {"entries": ENTRIES}}, NOT_FORCED, id="no-prefactor"),
    pytest.param({"mode": "exact", "symbolic": {**_symbolic(ENTRIES), "prefactor": "sqrt(1-rho)"}},
                 NOT_FORCED, id="foreign-prefactor"),
    pytest.param({"family": "singular", "params": {"rho": 0.5, "j": -0.25}, "mode": "exact",
                  "symbolic": _symbolic(ENTRIES)},
                 "^a 2 x 2 singular table has no exact form$", id="singular-with-symbolic"),
    pytest.param({"params": 3}, "^params must be an object of the numbers nu, got 3$", id="params-number"),
    pytest.param({"params": "ab"}, "^params must be an object of the numbers nu, got 'ab'$", id="params-string"),
    pytest.param({"params": {}}, "^params must be an object of the numbers nu, got {}$", id="params-empty"),
    pytest.param({"params": {"rho": 0.5}}, "^params must be an object of the numbers nu,", id="params-foreign"),
    pytest.param({"params": {"nu": 0.5, "rho": 0.5}}, "^params must be an object of the numbers nu,",
                 id="params-extra"),
    pytest.param({"family": "singular", "params": {"rho": 0.5}},
                 "^params must be an object of the numbers rho and j,", id="params-missing"),
    pytest.param({"params": {"nu": "abc"}}, "^params must be an object of the numbers nu, got {'nu': 'abc'}$", id="nu-string"),
    pytest.param({"params": {"nu": True}}, "^params must be an object of the numbers nu, got {'nu': True}$", id="nu-boolean"),
    pytest.param({"params": {"nu": -1.0}}, "^nu must be nonnegative and finite, got -1.0$",
                 id="nu-negative"),
    pytest.param({"params": {"nu": math.nan}}, "^nu must be nonnegative and finite, got nan$",
                 id="nu-nan"),
    pytest.param({"family": "parametric", "params": {"rho": 1.5}},
                 r"^rho must lie in \[0, 1\], got 1.5$", id="rho-above-one"),
    pytest.param({"family": "singular", "params": {"rho": 1.0, "j": -0.25}},
                 r"^rho = 1 excluded here \(divergent quantity\)$", id="singular-rho-one"),
    pytest.param({"family": "singular", "params": {"rho": 0.5, "j": 0.0}},
                 "^weight j must be negative", id="singular-j-zero"),
])
def test_json_records_are_read_strictly(edit, message):
    doc = {k: v for k, v in {**json.loads(OLD_FORMAT), **edit}.items() if v is not DROP}
    if message is not None:
        with pytest.raises(TableInvariantError, match=message):
            ProbTable.from_json_dict(doc)
        return
    table, want = ProbTable.from_json_dict(doc), forced_prob_table(0.5, size=2)
    assert (table.family, table.mode, table.params, table.symbolic) == \
        (want.family, want.mode, want.params, want.symbolic)
    assert np.array_equal(table.values.view(np.int64), want.values.view(np.int64))


def _coefficient(doc, old, new):
    """Write ``new`` over the first coefficient ``old`` of the symbolic block."""
    for p in (p for row in doc["symbolic"]["entries"] for p in row):
        if old in p:
            p[p.index(old)] = new
            return doc
    raise AssertionError(f"no coefficient {old}")


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda doc: _coefficient(doc, "1/2", "1/3"), NOT_FORCED, id="changed-coefficient"),
    pytest.param(lambda doc: _coefficient(doc, "1/2", "2/4"), NOT_FORCED, id="not-reduced"),
    pytest.param(lambda doc: {**json.loads(forced_prob_table(0.5, size=129).to_json()),
                              "mode": "exact", "symbolic": doc["symbolic"]},
                 "^a 129 x 129 forced table has no exact form$", id="past-the-cap"),
])
def test_edited_exact_documents_are_refused(edit, message):
    doc = json.loads(forced_prob_table(0.5, size=6, mode="exact").to_json())
    with pytest.raises(TableInvariantError, match=message):
        ProbTable.from_json_dict(edit(doc))


# -- the cell formatter against Python's, value by value ----------------------

def assert_cells_exact(values) -> None:
    """Every cell of a one-row table reads as "%.17g" writes it, in JSON as
    ``json_cell`` spells it."""
    values = np.asarray(values, dtype=float).reshape(1, -1)
    xs = values[0].tolist()
    table = ProbTable("forced", {"nu": 1.0}, values)
    cells = table.to_csv().splitlines()[1].split(",")[1:]
    want = list(map("%.17g".__mod__, xs))
    assert cells == want, [(x, c, w) for x, c, w in zip(xs, cells, want) if c != w][:5]
    text = table.to_json()
    start = '"values": [\n  ['
    block = text[text.index(start) + len(start): text.rindex("\n  ]\n ]")]
    cells = block.replace("\n   ", "").split(",")
    want = list(map(json_cell, xs))
    assert cells == want, [(x, c, w) for x, c, w in zip(xs, cells, want) if c != w][:5]
    back = np.array(json.loads(text)["values"][0], dtype=float)
    nan = np.isnan(values[0])
    assert np.isnan(back[nan]).all()
    assert np.array_equal(back[~nan].view(np.int64), values[0][~nan].view(np.int64))


def test_cells_of_random_bit_patterns():
    rng = np.random.default_rng(20100605)
    bits = rng.integers(-2**63, 2**63, size=10**6, dtype=np.int64)
    assert_cells_exact(bits.view(np.float64))
    # positive doubles below one, the values the numpy kernel formats
    bits = rng.integers(0, np.float64(1.0).view(np.int64), size=2**17, dtype=np.int64)
    assert_cells_exact(bits.view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_cells_of_any_floats(xs):
    assert_cells_exact(xs)


def test_cells_of_powers_of_two():
    assert_cells_exact(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_cells_of_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below = np.nextafter(tens, 0.0)
    assert_cells_exact(np.concatenate([tens, below, np.nextafter(below, 0.0),
                                       np.nextafter(tens, np.inf)]))


def test_cells_of_edge_values_and_ties():
    edges = [5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
             0.0, -0.0, np.nan, np.inf, -np.inf, -0.5, -1e-300, -5e-324,
             1.0, 0.9999999999999999, 1e-5, 1e-4, 0.1, 0.5, 2.0, 1e300]
    # odd m / 2^k with 18 significant digits (those of m 5^k): the 17-digit
    # rounding of each is an exact tie
    ties = []
    for k in range(17, 30):
        lo, hi = -(-10**17 // 5**k) | 1, min(2**k, 10**18 // 5**k)
        ties += [m / 2**k for m in range(lo, hi, 2 * max(1, (hi - lo) // 60))]
    assert len(ties) > 100
    assert_cells_exact(edges + ties)
