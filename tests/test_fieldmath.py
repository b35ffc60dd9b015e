import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qltc import fieldmath as fm


@st.composite
def matrices_(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return np.array(data, dtype=np.int64).reshape(rows, cols), p


matrices = matrices_()


def test_is_prime():
    assert [p for p in range(20) if fm.is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        fm.check_prime(4)


def test_inv_mod():
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            assert (a * fm.inv_mod(a, p)) % p == 1


def dependent_rows(mat, p):
    """Rows that are combinations of earlier rows, by prefix ranks (rref oracle)."""
    ranks = [0] + [len(fm.rref(mat[: i + 1], p)[1]) for i in range(mat.shape[0])]
    return [i for i in range(mat.shape[0]) if ranks[i + 1] == ranks[i]]


@given(matrices)
@settings(max_examples=200)
def test_rref_preserves_rowspace(mp):
    mat, p = mp
    r, pivots = fm.rref(mat, p)
    rs = fm.RowSpace(mat, p)
    assert rs.rank == len(pivots) == fm.RowSpace(r, p).rank
    assert rs.pivots == pivots
    # every rref row is a combination of original rows and vice versa
    assert rs.contains_batch(r).all()
    assert fm.RowSpace(r, p).contains_batch(mat).all()


@given(matrices)
@settings(max_examples=200)
def test_nullspaces_annihilate(mp):
    mat, p = mp
    rs = fm.RowSpace(mat, p)
    assert rs.kernel.shape == (mat.shape[1] - rs.rank, mat.shape[1])
    assert not np.any((mat @ rs.kernel.T) % p)
    dep = dependent_rows(mat, p)
    assert rs.left_kernel.shape == (mat.shape[0] - rs.rank, mat.shape[0])
    assert not np.any((rs.left_kernel @ mat) % p)
    # one row per dependent row, in order: 1 there, 0 at the other dependent rows
    assert np.array_equal(rs.left_kernel[:, dep], np.eye(len(dep), dtype=np.int64))


@given(matrices, st.integers(0, 10**6))
@settings(max_examples=200)
def test_solve_left_roundtrip(mp, seed):
    mat, p = mp
    rs = fm.RowSpace(mat, p)
    rng = np.random.default_rng(seed)
    c = rng.integers(p, size=mat.shape[0])
    target = (c @ mat) % p
    sol = rs.coefficients(target)
    assert np.array_equal((sol @ mat) % p, target)
    assert not sol[dependent_rows(mat, p)].any()
    w = rng.integers(p, size=mat.shape[1])
    assert (rs.coefficients(w) is None) == (not rs.contains(w))


def test_solve_left_inconsistent():
    mat = np.array([[1, 0]], dtype=np.int64)
    assert fm.RowSpace(mat, 2).coefficients(np.array([0, 1])) is None


@given(matrices, st.integers(0, 10**6))
@settings(max_examples=200)
def test_rowspace_membership(mp, seed):
    mat, p = mp
    rs = fm.RowSpace(mat, p)
    rng = np.random.default_rng(seed)
    c = rng.integers(p, size=mat.shape[0])
    v = (c @ mat) % p
    assert rs.contains(v)
    coef = rs.coefficients(v)
    assert np.array_equal((coef @ mat) % p, v)
    # batch agrees with scalar
    vs = np.vstack([v, rng.integers(p, size=mat.shape[1])])
    batch = rs.contains_batch(vs)
    assert batch[0]
    assert batch[1] == rs.contains(vs[1])


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_contains_batch_matches_int64_product(p):
    # contains_batch multiplies through modmul (float64, BLAS); the int64
    # product is the reference
    rng = np.random.default_rng(p)
    for _ in range(20):
        rows, cols = rng.integers(1, 12, size=2)
        rs = fm.RowSpace(rng.integers(p, size=(rows, cols)), p)
        members = rng.integers(p, size=(8, rows)) @ rng.integers(p, size=(rows, cols))
        vs = np.vstack([members % p, rng.integers(p, size=(24, cols))])
        expected = ~np.any((vs @ rs.kernel.T) % p, axis=1)
        assert np.array_equal(rs.contains_batch(vs), expected)
