"""Probability tables shared by the three oscillator families."""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .amplitude import (MAX_EXACT_SIZE, _j_value, _nu_value, _one_minus_pow, _rho_value, forced_poly,
                        forced_table, param_poly, param_table, poly_grid, singular_table)
from .domains import RatPoly
from .errors import TableInvariantError

__all__ = ["ProbTable", "make_table"]


@dataclass(frozen=True)
class Family:
    """One family's facts: the rule of each parameter, in kernel order, the
    table kernel ``kernel(*params, rows, cols)``, the name of its builder in
    the family module, and ``prefactor(*params)``, which multiplies each
    series coefficient and exact ``poly(m, n)``, whose text and variable are
    ``form``; the singular family has neither."""

    rules: dict
    kernel: Callable
    builder: str
    prefactor: Callable
    poly: Callable | None = None
    form: tuple[str, str] | None = None


FAMILIES = {
    "forced": Family({"nu": _nu_value}, forced_table, "forced_prob_table",
                     lambda nu: math.exp(-nu), forced_poly, ("exp(-nu)", "nu")),
    "parametric": Family({"rho": _rho_value}, param_table, "param_prob_table",
                         lambda rho: math.sqrt(1.0 - rho), param_poly, ("sqrt(1-rho)", "rho")),
    "singular": Family({"rho": functools.partial(_rho_value, open_top=True), "j": _j_value},
                       singular_table, "singular_prob_table",
                       lambda rho, j: _one_minus_pow(rho, -2.0 * j)),
}


@dataclass(frozen=True)
class ProbTable:
    """Matrix of transition probabilities w[m][n] for one family at a fixed
    excitation parameter.  Row m's mass outside the table is 1 minus its
    row sum, by the zeroth sum rule.  An exact-mode table also holds the
    rational polynomial of each entry, ``symbolic[m][n]``, which the
    family's prefactor multiplies."""

    family: str
    params: dict
    values: np.ndarray
    symbolic: tuple[tuple[RatPoly, ...], ...] | None = None

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def size(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def mode(self) -> str:
        return "float" if self.symbolic is None else "exact"

    def validate(self) -> None:
        """Check the table invariants (entry bounds, symmetry to 1e-12, row
        sums); raise TableInvariantError on the first one that fails."""
        v = self.values
        if not v.min() >= 0.0:
            raise TableInvariantError(f"negative or NaN probability {v.min():.3e}")
        if v.max() > 1.0 + 1e-12:
            raise TableInvariantError(f"probability above one: {v.max():.17g}")
        if v.shape[0] == v.shape[1]:
            asym = float(np.max(np.abs(v - v.T)))
            if asym > 1e-12:
                raise TableInvariantError(f"asymmetry {asym:.3e} above 1.0e-12")
        sums = v.sum(axis=1)
        if sums.max() > 1.0 + 1e-12:
            raise TableInvariantError(f"row sum {sums.max():.17g} above one")

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProbTable":
        """Rebuild a table from its JSON record and validate it, so a
        tampered file raises TableInvariantError: ``family`` must be one of
        the three, ``params`` an object of exactly the family's parameters,
        each a number its builder admits, ``values`` a nonempty table of
        numbers of shape ``size`` (checked by the table invariants only), and
        ``mode`` ``"exact"`` exactly when a ``symbolic`` block is present: the
        writer's text of the family's own polynomials, which the table holds.
        Other members, such as the row tails of older documents, are ignored."""
        try:
            family, mode, params, size, values = (
                d[k] for k in ("family", "mode", "params", "size", "values"))
        except KeyError as e:
            raise TableInvariantError(f"record has no member {e.args[0]!r}") from None
        try:
            values = np.array(values)
        except ValueError:      # ragged rows
            values = np.array(None)
        if family not in FAMILIES:
            raise TableInvariantError(f"unknown family {family!r}")
        params = _read_params(params, FAMILIES[family].rules)
        if values.dtype.kind not in "iuf" or values.ndim != 2 or 0 in values.shape:
            raise TableInvariantError("values are not a nonempty table of numbers")
        if list(values.shape) != size:
            raise TableInvariantError(f"size {size} disagrees with the "
                                      f"{values.shape[0]} x {values.shape[1]} values")
        symbolic = d.get("symbolic")
        if mode != ("float" if symbolic is None else "exact"):
            raise TableInvariantError(f"mode {mode!r} disagrees with a record "
                                      f"{'without' if symbolic is None else 'with'} symbolic entries")
        if symbolic is not None:
            symbolic = _read_symbolic(symbolic, values.shape, family)
        table = cls(family, params, values.astype(float), symbolic)
        table.validate()
        return table

    def to_csv(self) -> str:
        """Header row/column of quantum numbers, each cell as ``"%.17g" % x``
        gives it, so doubles round-trip exactly."""
        rows, cols = self.values.shape
        width = len(str(rows)) + 2
        labels = "".join(f"\n{m},".ljust(width, "\0") for m in range(rows))
        labels = np.frombuffer(labels.encode(), np.uint8).reshape(rows, width)
        cells = _texts(self.values).reshape(rows, cols, _WIDTH)
        cells[:, :-1, -1] = ord(",")
        body = np.concatenate([labels, cells.reshape(rows, cols * _WIDTH)], axis=1)
        return "m\\n," + ",".join(map(str, range(cols))) + _strip(body) + "\n"

    def to_json(self) -> str:
        """The table's JSON document plus a final newline.  The text around
        the numbers is what ``json.dumps(..., indent=1)`` writes for the
        parsed document; each float is written as the CSV writes it,
        ``"%.17g" % x``, but NaN, Infinity, -Infinity and -0.0 keep the
        spelling of ``json.dumps``, as ``json.loads`` reads their "%.17g"
        text as no double or as +0.0."""
        return "".join(self._json_pieces())

    def write(self, stream, fmt: str) -> None:
        """Write ``to_csv()`` (``fmt="csv"``) or ``to_json()`` (``fmt="json"``)
        to a text stream.  The JSON document goes out in pieces, its symbolic
        block one polynomial at a time, so an exact table's text is never
        held whole."""
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        for piece in (self.to_csv(),) if fmt == "csv" else self._json_pieces():
            stream.write(piece)

    def _json_pieces(self):
        """The text of ``to_json``: head and values, the symbolic block one
        polynomial at a time, and the closing brace."""
        rows, cols = self.values.shape
        head = {"family": self.family, "mode": self.mode, "params": dict(self.params),
                "size": [rows, cols]}
        head = json.dumps(head, indent=1)[:-2]  # the text without "\n}"
        x = np.ravel(self.values)
        texts = _texts(x)
        for i in np.flatnonzero(~np.isfinite(x) | np.signbit(x) & (x == 0.0)):
            texts[i] = np.frombuffer(json.dumps(float(x[i])).encode().ljust(_WIDTH, b"\0"), np.uint8)
        # each text followed by a comma, or a semicolon at the end of a row
        texts[:, -1] = ord(",")
        texts[cols - 1: rows * cols: max(cols, 1), -1] = ord(";")
        values = _strip(texts)[:-1].replace(",", ",\n   ").replace(";", "\n  ],\n  [\n   ")
        # a table without cells has no text: json.dumps lays out its rows
        values = (f"[\n  [\n   {values}\n  ]\n ]" if values else
                  json.dumps(self.values.tolist(), indent=1).replace("\n", "\n "))
        yield f'{head},\n "values": {values}'
        if self.symbolic is not None:
            yield from _symbolic_pieces(self.symbolic, *FAMILIES[self.family].form)
        yield "\n}\n"


def _read_params(params, rules: dict) -> dict:
    """The ``"params"`` member of a JSON record: an object of exactly the
    parameters that ``rules`` names, each a JSON number its rule admits,
    else TableInvariantError."""
    if not isinstance(params, dict) or params.keys() != rules.keys() or any(
            type(x) not in (int, float) for x in params.values()):
        raise TableInvariantError(f"params must be an object of the numbers "
                                  f"{' and '.join(rules)}, got {params!r}")
    try:
        return {name: rule(params[name]) for name, rule in rules.items()}
    except ValueError as e:
        raise TableInvariantError(str(e)) from None


def _read_symbolic(s, shape: tuple[int, int], family: str) -> tuple:
    """The polynomials of a ``family`` table of ``shape``, whose record's
    ``"symbolic"`` member ``s`` must be the writer's text of them exactly."""
    fam, (rows, cols) = FAMILIES[family], shape
    if fam.poly is None or rows != cols or rows > MAX_EXACT_SIZE:
        raise TableInvariantError(f"a {rows} x {cols} {family} table has no exact form")
    grid = poly_grid(fam.poly, rows)
    want = {"prefactor": fam.form[0], "variable": fam.form[1],
            "entries": [[_coeff_texts(p) for p in row] for row in grid]}
    if s != want:
        raise TableInvariantError(f"symbolic block is not the {family} family's polynomials")
    return grid


def _coeff_texts(p: RatPoly) -> list[str]:
    """The coefficients of ``p`` as ``"p/q"`` strings, lowest power first."""
    return [f"{c.numerator}/{c.denominator}" for c in p.coeffs]


def _symbolic_pieces(entries, prefactor: str, variable: str):
    """The ``"symbolic"`` member of the JSON document as ``json.dumps`` lays
    it out at ``indent=1``, each coefficient a ``"p/q"`` string, one
    polynomial per piece."""
    yield (f',\n "symbolic": {{\n  "prefactor": {json.dumps(prefactor)},'
           f'\n  "variable": {json.dumps(variable)},\n  "entries": ')
    sep = "[\n   "
    for row in entries:
        lead = sep + "[\n    "
        for p in row:
            yield lead + ('[\n     "' + '",\n     "'.join(_coeff_texts(p)) + '"\n    ]'
                          if p.coeffs else "[]")
            lead = ",\n    "
        yield "\n   ]" if row else sep + "[]"
        sep = ",\n   "
    yield "\n  ]\n }" if entries else "[]\n }"


# -- float text --------------------------------------------------------------
#
# Both writers format every cell with one numpy kernel, as "%.17g" does.
# Each text is a fixed-width block of NUL-padded bytes, which ``_strip``
# removes once per document.  A positive double x below one is scaled to
# V = x 10^(16-E), E = floor(log10 x), with an exact double-double power of
# ten and a Dekker two-product (the Grisu idea, Loitsch, PLDI 2010): V lies
# in [10^16, 10^17) and is known to about 1e-14, so rounding it to 17
# digits is exact unless V lies within _EPS of a rounding boundary.  Such
# near-ties, values whose E the estimate misses by two and every value
# outside (0, 1) but +0.0, which has one fixed text, go to Python's
# formatter, once per distinct bit pattern.

_WIDTH = 32             # bytes per text: four uint64 words, see _tables
_EPS = 1e-9             # margin of V against a rounding boundary
_SCALED = 250           # past this power of ten, x is pre-scaled by 2^600
_TOP = 342              # largest power needed: 16 - E for E = -324, plus one
_QUAD = 10**4
_CHUNK = 1 << 13        # values per kernel pass, so its temporaries stay small
_PREFIX = 10 ** np.arange(16, -1, -4, dtype=np.int64)[:, None]


@functools.cache
def _tables():
    """The kernel's lookup tables, built from Python integers on first use.

    ``power[:, s]`` for s = 0.._TOP holds 10^s 2^-b as a double-double
    (hi, its Dekker halves, lo) and 2^b, where b is 600 past _SCALED.  Per
    exponent k = -E, ``head`` holds a text's first word (from _TOP on,
    without the point that follows a lone digit) and ``tail`` its last:
    "0.000" in bytes 0-4 or the point in byte 7, then "e-XX" in bytes 24-28;
    the first digit goes to byte 6 and the next sixteen to bytes 8-23.
    ``quad`` holds the text of four digits (from _QUAD on with trailing
    zeros as NUL)."""
    hi, lo, scale = [], [], []
    for s in range(_TOP + 1):
        num, den = 10**s, 1 << (600 if s > _SCALED else 0)
        hi.append(num / den)    # int / int rounds correctly; hi is integral
        lo.append((num - int(hi[-1]) * den) / den)
        scale.append(float(den))
    hi = np.array(hi)
    c = hi * 134217729.0
    power = np.array([hi, c - (c - hi), hi - (c - (c - hi)), lo, scale])
    words = lambda texts: np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)
    fixed = [b"", *(b"0." + b"0" * (k - 1) for k in range(1, 5))]
    sci = _TOP - len(fixed)
    head = words(fixed + [b"\0" * 7 + b"."] * sci + fixed + [b""] * sci)
    tail = words([b""] * len(fixed) + [f"e-{k:02d}".encode() for k in range(5, _TOP)])
    d = np.arange(100)
    pair = np.stack([d // 10, d % 10], axis=1) + 48
    quad = np.empty((2, 100, 100, 4), np.uint8)
    quad[..., :2] = pair[:, None]
    quad[..., 2:] = pair
    trailing = True
    for j in (3, 2, 1, 0):
        trailing = trailing & (quad[1, ..., j] == 48)
        quad[1, ..., j][trailing] = 0
    return power, head, tail, quad.view(np.uint32).reshape(-1)


def _scaled(x, e):
    """floor(V) as int64 and V - floor(V) in [0, 1), for V = x 10^(16-e)."""
    hi, hh, hl, lo, scale = _tables()[0].take(16 - e, axis=1)
    x = x * scale
    p = x * hi
    xh = x * 134217729.0        # Dekker split: xh + xl = x, 26 bits each
    xh -= xh - x
    xl = x - xh
    err = xh * hh - p           # p + err = x hi exactly
    err += xh * hl
    err += xl * hh
    err += xl * hl
    err += x * lo
    # p is integral where V >= 2^53, and V >= 10^16 > 2^53 once E is right
    fl = np.floor(err)
    n = p.astype(np.int64)
    n += fl.astype(np.int64)
    return n, err - fl


def _texts(a) -> np.ndarray:
    """The text of each double in ``a`` as ``"%.17g"`` writes it, one
    NUL-padded row of _WIDTH bytes per value in ravel order."""
    x = np.ravel(np.asarray(a, dtype=np.float64))
    words = np.empty((x.size, 4), np.uint64)
    done = np.empty(x.size, bool)
    for i in range(0, x.size, _CHUNK):
        done[i: i + _CHUNK] = _kernel(x[i: i + _CHUNK], words[i: i + _CHUNK])
    out = words.view(np.uint8)
    rest = np.flatnonzero(~done)
    if rest.size:
        keys, inv = np.unique(x[rest].view(np.int64), return_inverse=True)
        text = "".join(("%.17g" % k).ljust(_WIDTH, "\0") for k in keys.view(np.float64).tolist())
        out[rest] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDTH)[inv]
    return out


def _kernel(x, words) -> np.ndarray:
    """Write the text of each value of ``x`` to its row of ``words``; return
    where it is right, and so where Python's formatter is not needed."""
    done = (x > 0.0) & (x < 1.0)
    v = np.where(done, x, 0.5)
    e = np.floor(np.log10(v)).astype(np.int64)
    n, f = _scaled(v, e)
    wrong = (n - 10**16).view(np.uint64) >= 9 * 10**16     # n outside [10^16, 10^17)
    if wrong.any():             # log10 can miss E next to a power of ten
        redo = np.flatnonzero(wrong)
        e[redo] += np.where(n[redo] < 10**16, -1, 1)
        n[redo], f[redo] = _scaled(v[redo], e[redo])
        done[redo] &= (n[redo] >= 10**16) & (n[redo] < 10**17)
    done &= np.abs(f - 0.5) >= _EPS
    digits = n + (f > 0.5)
    carry = digits == 10**17
    digits -= carry * (9 * 10**16)
    e += carry

    # prefixes of the 17 digits: the first, then 4 more at a time.  Where
    # only zeros follow a prefix (times its unit it gives all the digits),
    # the next group drops its trailing zeros, or a lone first digit its point.
    _, head, tail, quad = _tables()
    prefix = digits // _PREFIX
    groups = prefix[1:] - prefix[:-1] * _QUAD
    bare = prefix * _PREFIX == digits
    groups += _QUAD * bare[1:]
    words[:, 0] = head[_TOP * bare[0] - e]
    words.view(np.uint32)[:, 2:6] = quad[groups].T
    words[:, 3] = tail[-e]
    words.view(np.uint8)[:, 6] = prefix[0] + 48
    # -0.0 is left to the fallback
    zero = x.view(np.uint64) == 0
    words[zero] = np.frombuffer(b"0".ljust(_WIDTH, b"\0"), np.uint64)
    return done | zero


def _strip(text: np.ndarray) -> str:
    """The text of an array of NUL-padded bytes, padding removed."""
    return text.tobytes().translate(None, b"\0").decode("ascii")


def make_table(family: str, params: dict, size: int, mode: str) -> ProbTable:
    """The front end of the three table builders: refuse exact mode where the
    family has no polynomials, check that ``params`` are exactly the family's, each
    by its rule, ``size`` and ``mode``, build the values and validate the table."""
    fam = FAMILIES[family]
    if mode == "exact" and fam.poly is None:
        raise ValueError(f"the {family} family is float-only (irrational exponent -2j)")
    if set(params) != set(fam.rules):
        raise ValueError(f"{family} tables take {' and '.join(fam.rules)}, got {list(params)}")
    params = {name: rule(params[name]) for name, rule in fam.rules.items()}
    # numpy integers are integers; a bool, float or string is not a size
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise ValueError(f"size must be an integer, got {size!r}")
    if size < 1:
        raise ValueError("size must be positive")
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    symbolic = poly_grid(fam.poly, size) if mode == "exact" else None
    table = ProbTable(family, params, fam.kernel(*params.values(), size, size), symbolic)
    table.validate()
    return table
