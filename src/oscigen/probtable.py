"""Probability tables shared by the three oscillator families."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domains import RatPoly
from .errors import TableInvariantError

__all__ = ["ProbTable", "SymbolicTable", "make_table"]


@dataclass(frozen=True)
class SymbolicTable:
    """Exact-mode payload: entry (m, n) is ``prefactor * poly(parameter)``
    with rational polynomial coefficients."""

    prefactor: str
    variable: str
    entries: tuple[tuple[RatPoly, ...], ...]

    def poly(self, m: int, n: int) -> RatPoly:
        return self.entries[m][n]


@dataclass(frozen=True)
class ProbTable:
    """Matrix of transition probabilities w[m][n] for one family at a fixed
    excitation parameter, with per-row truncation tails.

    ``row_tails[m]`` is the mass of row m outside the table if the entries
    are right.  ``make_table`` sets it to the deficit ``max(0, 1 - row_sum)``,
    not to an independent bound, so ``validate`` cannot see a row that is
    uniformly too small: a row of zeros passes with tail 1.
    """

    family: str
    params: dict
    mode: str
    values: np.ndarray
    row_tails: np.ndarray
    symbolic: SymbolicTable | None = None

    def __post_init__(self):
        self.values.setflags(write=False)
        self.row_tails.setflags(write=False)

    @property
    def size(self) -> tuple[int, int]:
        return self.values.shape

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
        deficit = 1.0 - sums
        if np.any(deficit > self.row_tails + 1e-15):
            raise TableInvariantError("row tail bound below the actual deficit")

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProbTable":
        """Rebuild a table from its JSON record and validate it, so a
        tampered file raises TableInvariantError."""
        symbolic = None
        if d.get("symbolic") is not None:
            s = d["symbolic"]
            entries = tuple(
                tuple(RatPoly(tuple(Fraction(c) for c in p)) for p in row)
                for row in s["entries"]
            )
            symbolic = SymbolicTable(s["prefactor"], s["variable"], entries)
        table = cls(
            family=d["family"],
            params=dict(d["params"]),
            mode=d["mode"],
            values=np.array(d["values"], dtype=float),
            row_tails=np.array(d["row_tails"], dtype=float),
            symbolic=symbolic,
        )
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
        """Write ``to_csv()`` (``fmt="csv"``) or ``to_json()`` to a text
        stream.  The JSON document goes out in pieces, its symbolic block one
        polynomial at a time, so an exact table's text is never held
        whole."""
        for piece in (self.to_csv(),) if fmt == "csv" else self._json_pieces():
            stream.write(piece)

    def _json_pieces(self):
        """The text of ``to_json``: head, values, row tails, the symbolic
        block one polynomial at a time, and the closing brace."""
        rows, cols = self.values.shape
        head = {"family": self.family, "mode": self.mode, "params": dict(self.params),
                "size": [rows, cols]}
        head = json.dumps(head, indent=1)[:-2]  # the text without "\n}"
        x = np.concatenate([np.ravel(self.values), self.row_tails])
        texts = _texts(x)
        for i in np.flatnonzero(~np.isfinite(x) | np.signbit(x) & (x == 0.0)):
            texts[i] = np.frombuffer(json.dumps(float(x[i])).encode().ljust(_WIDTH, b"\0"), np.uint8)
        # each text followed by a comma, or a semicolon at the end of a row
        texts[:, -1] = ord(",")
        texts[cols - 1: rows * cols: max(cols, 1), -1] = ord(";")
        values, _, tails = _strip(texts).rpartition(";")
        values = values.replace(",", ",\n   ").replace(";", "\n  ],\n  [\n   ")
        # a table without cells has no semicolon: json.dumps lays out its rows
        values = (f"[\n  [\n   {values}\n  ]\n ]" if values else
                  json.dumps(self.values.tolist(), indent=1).replace("\n", "\n "))
        tails = "[\n  " + tails[:-1].replace(",", ",\n  ") + "\n ]" if rows else "[]"
        yield f'{head},\n "values": {values},\n "row_tails": {tails}'
        if self.symbolic is not None:
            yield from _symbolic_pieces(self.symbolic)
        yield "\n}\n"


def _symbolic_pieces(symbolic: SymbolicTable):
    """The ``"symbolic"`` member of the JSON document as ``json.dumps`` lays
    it out at ``indent=1``, each coefficient a ``"p/q"`` string, one
    polynomial per piece."""
    yield (f',\n "symbolic": {{\n  "prefactor": {json.dumps(symbolic.prefactor)},'
           f'\n  "variable": {json.dumps(symbolic.variable)},\n  "entries": ')
    sep = "[\n   "
    for row in symbolic.entries:
        lead = sep + "[\n    "
        for p in row:
            yield lead + ('[\n     "' + '",\n     "'.join(
                [f"{c.numerator}/{c.denominator}" for c in p.coeffs]) + '"\n    ]'
                if p.coeffs else "[]")
            lead = ",\n    "
        yield "\n   ]" if row else sep + "[]"
        sep = ",\n   "
    yield "\n  ]\n }" if symbolic.entries else "[]\n }"


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


def make_table(family: str, params: dict, mode: str, values: np.ndarray,
               symbolic: SymbolicTable | None = None) -> ProbTable:
    """Attach the row tail bounds to a grid of probabilities and validate the
    resulting table."""
    tails = np.maximum(0.0, 1.0 - values.sum(axis=1))
    table = ProbTable(family, params, mode, values, tails, symbolic)
    table.validate()
    return table
