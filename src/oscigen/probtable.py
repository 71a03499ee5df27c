"""Probability tables shared by the three oscillator families."""

from __future__ import annotations

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
    excitation parameter, with per-row truncation tail bounds.

    ``row_tails[m]`` bounds the probability mass of row m outside the table:
    since each full row sums to one and every entry is nonnegative, the
    deficit ``1 - row_sum`` is exactly the missing mass.
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

    def to_json_dict(self) -> dict:
        return self._record(np.asarray(self.values, dtype=float).tolist(),
                            np.asarray(self.row_tails, dtype=float).tolist())

    def _record(self, values=None, row_tails=None) -> dict:
        out = {
            "family": self.family,
            "mode": self.mode,
            "params": dict(self.params),
            "size": [int(self.values.shape[0]), int(self.values.shape[1])],
            "values": values,
            "row_tails": row_tails,
        }
        if self.symbolic is not None:
            out["symbolic"] = {
                "prefactor": self.symbolic.prefactor,
                "variable": self.symbolic.variable,
                "entries": [
                    [[f"{c.numerator}/{c.denominator}" for c in p.coeffs] for p in row]
                    for row in self.symbolic.entries
                ],
            }
        return out

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
        """Header row/column of quantum numbers, cells with 17 significant
        digits so doubles round-trip exactly."""
        cells = _cells(self.values, lambda xs: list(map("%.17g".__mod__, xs)))
        lines = ["m\\n," + ",".join(map(str, range(self.values.shape[1])))]
        lines += [f"{m}," + ",".join(row) for m, row in enumerate(cells)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=1)`` plus a final newline,
        byte for byte, with the float blocks written directly."""
        # Only top-level keys follow a raw newline and one space, so the
        # marker cannot match inside params or the symbolic block.
        head, _, tail = json.dumps(self._record(), indent=1).partition(
            '\n "values": null,\n "row_tails": null')
        rows = [_json_list(row, 3) for row in _cells(self.values, _json_floats)]
        tails = _cells(self.row_tails, _json_floats)
        return (f'{head}\n "values": {_json_list(rows, 2)},'
                f'\n "row_tails": {_json_list(tails, 2)}{tail}\n')


def _json_floats(xs: list) -> list:
    """The text json.dumps gives each float (NaN and Infinity included)."""
    return json.dumps(xs)[1:-1].split(", ") if xs else []


def _json_list(items: list, depth: int) -> str:
    """A list of preformatted items as ``json.dumps(indent=1)`` nests it."""
    if not items:
        return "[]"
    pad = "\n" + " " * depth
    return "[" + pad + ("," + pad).join(items) + pad[:-1] + "]"


def _cells(a: np.ndarray, fmt) -> list:
    """``a`` as nested lists of text, formatting each distinct bit pattern
    once: the kernel's tables are bit-symmetric and often half zeros."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    keys, inv = np.unique(a.view(np.int64), return_inverse=True)
    text = np.array(fmt(keys.view(np.float64).tolist()), dtype=object)
    return text[inv.reshape(a.shape)].tolist()


def make_table(family: str, params: dict, mode: str, values: np.ndarray,
               symbolic: SymbolicTable | None = None) -> ProbTable:
    """Attach the row tail bounds to a grid of probabilities and validate the
    resulting table."""
    tails = np.maximum(0.0, 1.0 - values.sum(axis=1))
    table = ProbTable(family, params, mode, values, tails, symbolic)
    table.validate()
    return table
