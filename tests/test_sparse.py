import numpy as np
import pytest

from sipcuts.sparse import CooMatrix


def test_canonical_sorts_merges_and_drops_zeros():
    m = CooMatrix(
        3,
        3,
        rows=[2, 0, 0, 1, 1, 0],
        cols=[1, 2, 0, 1, 1, 2],
        vals=[4.0, 1.5, 3.0, 2.0, -2.0, 0.5],
    )
    c = m.canonical()
    assert c.rows.tolist() == [0, 0, 2]
    assert c.cols.tolist() == [0, 2, 1]
    assert c.vals.tolist() == [3.0, 2.0, 4.0]
    # duplicate (1,1) summed to zero and dropped


def test_dense_round_trip():
    d = np.array([[0.0, 2.0], [-1.0, -0.0], [0.0, 0.0]])
    m = CooMatrix.from_dense(d)
    assert m.shape == (3, 2)
    assert m.nnz == 2
    np.testing.assert_array_equal(m.to_dense(), d)
    c = m.canonical()
    assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == (
        c.rows.tolist(),
        c.cols.tolist(),
        c.vals.tolist(),
    )


def test_matvec_and_rmatvec_match_dense():
    rng = np.random.default_rng(7)
    d = np.round(rng.uniform(-3, 3, size=(5, 4)) * (rng.random((5, 4)) < 0.6), 2)
    m = CooMatrix.from_dense(d)
    x = rng.normal(size=4)
    y = rng.normal(size=5)
    np.testing.assert_allclose(m.matvec(x), d @ x, atol=1e-12)
    np.testing.assert_allclose(m.rmatvec(y), d.T @ y, atol=1e-12)


def test_empty():
    m = CooMatrix.empty(0, 4)
    assert m.shape == (0, 4)
    assert m.nnz == 0
    np.testing.assert_array_equal(m.matvec(np.ones(4)), np.zeros(0))


def test_validation_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        CooMatrix(2, 2, [2], [0], [1.0])
    with pytest.raises(ValueError):
        CooMatrix(2, 2, [0], [-1], [1.0])
    with pytest.raises(ValueError):
        CooMatrix(2, 2, [0, 1], [0], [1.0, 2.0])


def test_negative_zero_normalized():
    m = CooMatrix(1, 2, [0, 0], [0, 1], [-0.0, 1.0]).canonical()
    assert m.nnz == 1
    assert m.vals[0] == 1.0
