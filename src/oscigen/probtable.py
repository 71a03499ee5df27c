"""Probability tables shared by the three oscillator families."""

from __future__ import annotations

import io
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

    def row(self, m: int) -> np.ndarray:
        return self.values[m]

    def validate(self, sym_tol: float = 1e-12) -> None:
        """Check the table invariants (entry bounds, symmetry, row sums);
        raise TableInvariantError on the first one that fails."""
        v = self.values
        if not v.min() >= 0.0:
            raise TableInvariantError(f"negative or NaN probability {v.min():.3e}")
        if v.max() > 1.0 + 1e-12:
            raise TableInvariantError(f"probability above one: {v.max():.17g}")
        if v.shape[0] == v.shape[1]:
            asym = float(np.max(np.abs(v - v.T)))
            if asym > sym_tol:
                raise TableInvariantError(f"asymmetry {asym:.3e} above {sym_tol:.1e}")
        sums = v.sum(axis=1)
        if sums.max() > 1.0 + 1e-12:
            raise TableInvariantError(f"row sum {sums.max():.17g} above one")
        deficit = 1.0 - sums
        if np.any(deficit > self.row_tails + 1e-15):
            raise TableInvariantError("row tail bound below the actual deficit")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "mode": self.mode,
            "params": dict(self.params),
            "size": [int(self.values.shape[0]), int(self.values.shape[1])],
            "values": [[float(x) for x in row] for row in self.values],
            "row_tails": [float(t) for t in self.row_tails],
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
        symbolic = None
        if d.get("symbolic") is not None:
            s = d["symbolic"]
            entries = tuple(
                tuple(RatPoly(tuple(Fraction(c) for c in p)) for p in row)
                for row in s["entries"]
            )
            symbolic = SymbolicTable(s["prefactor"], s["variable"], entries)
        return cls(
            family=d["family"],
            params=dict(d["params"]),
            mode=d["mode"],
            values=np.array(d["values"], dtype=float),
            row_tails=np.array(d["row_tails"], dtype=float),
            symbolic=symbolic,
        )

    def to_csv(self) -> str:
        """Header row/column of quantum numbers, cells with 17 significant
        digits so doubles round-trip exactly."""
        buf = io.StringIO()
        ncols = self.values.shape[1]
        buf.write("m\\n," + ",".join(str(n) for n in range(ncols)) + "\n")
        for m, row in enumerate(self.values):
            buf.write(str(m) + "," + ",".join(f"{x:.17g}" for x in row) + "\n")
        return buf.getvalue()


def make_table(family: str, params: dict, mode: str, values: np.ndarray,
               symbolic: SymbolicTable | None = None) -> ProbTable:
    """Attach the row tail bounds to a grid of probabilities and validate the
    resulting table."""
    tails = np.maximum(0.0, 1.0 - values.sum(axis=1))
    table = ProbTable(family, params, mode, values, tails, symbolic)
    table.validate()
    return table
