"""Coordinate-format sparse matrices with a canonical triplet order.

Matrices are stored as (row, col, value) triplets, the layout of the
instance file format; the package assembles every program as one dense
array and converts it with ``from_dense``. ``canonical`` sorts
triplets by (row, col), sums duplicates and drops explicit zeros, so two
matrices with the same entries serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class CooMatrix:
    nrows: int
    ncols: int
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cols: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    vals: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError("triplet arrays must have equal length")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.nrows:
                raise ValueError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.ncols:
                raise ValueError("col index out of range")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @classmethod
    def from_dense(cls, mat) -> "CooMatrix":
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError("expected a 2-d array")
        r, c = np.nonzero(mat)  # row-major order, zeros dropped: already canonical
        return cls(mat.shape[0], mat.shape[1], r, c, mat[r, c])

    @classmethod
    def empty(cls, nrows: int, ncols: int) -> "CooMatrix":
        return cls(nrows, ncols)

    def canonical(self) -> "CooMatrix":
        """Return an equivalent matrix with sorted triplets, duplicates summed
        and explicit zeros removed."""
        if self.nnz == 0:
            return CooMatrix(self.nrows, self.ncols)
        order = np.lexsort((self.cols, self.rows))
        r, c, v = self.rows[order], self.cols[order], self.vals[order]
        # collapse runs of equal (row, col)
        key = r * self.ncols + c
        boundary = np.ones(key.size, dtype=bool)
        boundary[1:] = key[1:] != key[:-1]
        idx = np.nonzero(boundary)[0]
        summed = np.add.reduceat(v, idx)
        r, c = r[idx], c[idx]
        keep = summed != 0.0
        return CooMatrix(self.nrows, self.ncols, r[keep], c[keep], summed[keep] + 0.0)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"matvec expects length {self.ncols}, got {x.shape}")
        out = np.zeros(self.nrows)
        np.add.at(out, self.rows, self.vals * x[self.cols])
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.nrows,):
            raise ValueError(f"rmatvec expects length {self.nrows}, got {y.shape}")
        out = np.zeros(self.ncols)
        np.add.at(out, self.cols, self.vals * y[self.rows])
        return out
