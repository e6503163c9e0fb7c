import numpy as np

from sipcuts.optbase import CooMatrix


def test_dense_round_trip():
    d = np.array([[0.0, 2.0], [-1.0, -0.0], [0.0, 0.0]])
    m = CooMatrix.from_dense(d)
    assert m.shape == (3, 2)
    assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == ([0, 1], [1, 0], [2.0, -1.0])
    back = m.to_dense()
    np.testing.assert_array_equal(back, d)
    assert not np.any(np.signbit(back[back == 0.0]))  # -0.0 is not a nonzero


def test_empty():
    m = CooMatrix.from_dense(np.zeros((0, 4)))
    assert m.shape == (0, 4)
    assert m.vals.size == 0
    assert m.to_dense().shape == (0, 4)
