"""The constraint matrix a program keeps: `LinearProgram(A=...)` takes
the 2-d array its builder filled and `A.to_dense()` returns it."""

import numpy as np
import pytest

from sipcuts.optbase import LE, LinearProgram


def _program(A, m, n):
    return LinearProgram(
        c=np.zeros(n),
        A=A,
        senses=np.full(m, LE),
        rhs=np.zeros(m),
        lb=np.zeros(n),
        ub=np.ones(n),
    )


def test_dense_round_trip():
    d = np.array([[0.0, 2.0], [-1.0, -0.0], [0.0, 0.0]])
    got = _program(d, 3, 2).A.to_dense()
    assert got.dtype == np.float64 and got.shape == (3, 2)
    # byte-equal to the input, except that -0.0 is stored as +0.0
    assert got.tobytes() == np.array([[0.0, 2.0], [-1.0, 0.0], [0.0, 0.0]]).tobytes()


def test_empty():
    prog = _program(np.zeros((0, 4)), 0, 4)
    assert prog.A.to_dense().shape == (0, 4)
    assert (prog.nrows, prog.nvars) == (0, 4)


def test_matrix_is_a_read_only_copy():
    d = np.array([[1.0, 2.0]])
    prog = _program(d, 1, 2)
    d[0, 0] = 5.0  # the builder's array is not the program's
    A = prog.A.to_dense()
    assert A.tolist() == [[1.0, 2.0]]
    with pytest.raises(ValueError, match="read-only"):
        A[0, 0] = 3.0
    assert prog.A.to_dense() is A


def test_rejects_a_one_dimensional_matrix():
    with pytest.raises(ValueError, match="2-d"):
        _program(np.zeros(4), 1, 4)
