import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qltc.pauli import PauliOp, nonidentity_symbols
from qltc.search import candidate_batches, candidates_at_weight
from helpers import (
    commutes_with, densify, identity, inverse, power, restrict, symplectic_product,
)


@st.composite
def paulis(draw, same_shape_as=None):
    if same_shape_as is None:
        d = draw(st.sampled_from([2, 3, 5]))
        n = draw(st.integers(1, 4))
    else:
        d, n = same_shape_as
    x = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    z = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    phase = draw(st.integers(0, d - 1))
    return PauliOp(d, n, x, z, phase)


@st.composite
def pauli_triples(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    return tuple(draw(paulis(same_shape_as=(d, n))) for _ in range(3))


def test_construction_validation():
    with pytest.raises(ValueError):
        PauliOp(4, 1, [0], [0], 0)  # composite d
    with pytest.raises(ValueError):
        PauliOp(2, 2, [0], [0, 0], 0)  # length mismatch
    p = PauliOp(3, 2, [4, -1], [0, 5], 7)  # residues reduced
    assert p.x.tolist() == [1, 2] and p.z.tolist() == [0, 2] and p.phase == 1
    with pytest.raises(ValueError, match="non-negative"):
        PauliOp(2, -1, [], [], 0)
    with pytest.raises(ValueError, match="a phase is one integer"):
        PauliOp(2, 1, [1], [0], [0, 1])
    for site in (-1, 2):
        with pytest.raises(IndexError, match=f"site {site} out of range for n=2"):
            PauliOp.single(2, 3, site, 1, 0)


def test_identity_and_weight():
    ident = identity(3, 2)
    assert ident.is_identity() and ident.weight() == 0
    p = PauliOp.single(3, 2, 1, x=1, z=1)
    assert p.weight() == 1 and p.support() == [1]
    assert ident.multiply(p) == p and p.multiply(ident) == p


def test_qubit_xz_squared_is_minus_identity():
    # d=2: (X*Z)^2 = w^1 * I since ZX = -XZ
    x = PauliOp.single(1, 2, 0, x=1, z=0)
    z = PauliOp.single(1, 2, 0, x=0, z=1)
    xz = x.multiply(z)
    sq = xz.multiply(xz)
    assert sq.is_identity(up_to_phase=True) and sq.phase == 1


def test_x_cubed_identity_d3():
    x = PauliOp.single(1, 3, 0, x=1, z=0)
    assert x.multiply(x).multiply(x) == identity(1, 3)


def test_symplectic_product_examples():
    x = PauliOp.single(2, 2, 0, x=1, z=0)
    z = PauliOp.single(2, 2, 0, x=0, z=1)
    z_other = PauliOp.single(2, 2, 1, x=0, z=1)
    assert symplectic_product(x, z) == 1
    assert symplectic_product(x, x) == 0
    assert symplectic_product(x, z_other) == 0  # disjoint supports commute
    assert commutes_with(x, z_other) and not commutes_with(x, z)


@given(pauli_triples())
@settings(max_examples=300)
def test_associativity_and_commutator(abc):
    a, b, c = abc
    assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))
    ab = a.multiply(b)
    ba = b.multiply(a)
    assert symplectic_product(a, b) == (ab.phase - ba.phase) % a.d
    assert np.array_equal(ab.x, ba.x) and np.array_equal(ab.z, ba.z)


@given(pauli_triples())
@settings(max_examples=200)
def test_bilinearity_and_weight_subadditivity(abc):
    a, a2, b = abc
    lhs = symplectic_product(a.multiply(a2), b)
    rhs = (symplectic_product(a, b) + symplectic_product(a2, b)) % a.d
    assert lhs == rhs
    assert a.multiply(b).weight() <= a.weight() + b.weight()
    assert symplectic_product(b, a) == (-symplectic_product(a, b)) % a.d


@given(pauli_triples())
@settings(max_examples=200)
def test_inverse_and_power(abc):
    a, _, _ = abc
    assert a.multiply(inverse(a)) == identity(a.n, a.d)
    # a^d is a scalar (the symplectic part vanishes)
    assert power(a, a.d).is_identity(up_to_phase=True)
    assert power(a, 3) == a.multiply(a).multiply(a)
    assert power(a, -1) == inverse(a)


def test_restrict():
    p = PauliOp(2, 3, [1, 0, 1], [0, 1, 1], 1)
    r = restrict(p, [0])
    assert r.x.tolist() == [1, 0, 0] and r.z.tolist() == [0, 0, 0]
    assert r.phase == p.phase  # phase carried whole, documented
    assert restrict(p, []).is_identity(up_to_phase=True)
    assert restrict(p, range(3)) == p
    assert restrict(p, p.support()) == p
    with pytest.raises(IndexError):
        restrict(p, [5])


def test_json_roundtrip():
    p = PauliOp(3, 2, [1, 2], [0, 1], 2)
    assert PauliOp.from_json(p.to_json()) == p


# --- enumeration ----------------------------------------------------------

def words(n, d, w_max):
    """Every Pauli of weight 1..w_max, in candidate_batches order."""
    return [
        PauliOp(d, n, v[:n], v[n:])
        for w in range(1, w_max + 1)
        for batch in candidate_batches(n, d, w)
        for v in batch
    ]


def test_enumerate_counts():
    assert len(words(2, 2, 1)) == 6
    assert len(words(3, 3, 1)) == 24
    assert words(3, 2, 0) == []
    ops = words(3, 2, 2)
    assert len(ops) == candidates_at_weight(3, 2, 1) + candidates_at_weight(3, 2, 2)
    # exactly once, weight non-decreasing, then supports and symbols lexicographic
    assert len(set(ops)) == len(ops)
    keys = [(op.weight(), op.support(), [(int(op.x[q]), int(op.z[q])) for q in op.support()])
            for op in ops]
    assert keys == sorted(keys)


# --- dense oracle agreement ----------------------------------------------

@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_multiply_matches_dense_oracle(n, d):
    ops = words(n, d, min(2, n))
    # keep runtime bounded on the largest case
    if len(ops) > 40:
        rng = np.random.default_rng(0)
        ops = [ops[i] for i in rng.choice(len(ops), size=40, replace=False)]
    for a, b in itertools.product(ops, repeat=2):
        lhs = densify(a.multiply(b))
        rhs = densify(a) @ densify(b)
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3)])
def test_symplectic_product_matches_dense_commutator(n, d):
    ops = words(n, d, 2)
    rng = np.random.default_rng(1)
    idx = rng.choice(len(ops), size=(30, 2))
    w = np.exp(2j * np.pi / d)
    for i, j in idx:
        a, b = ops[i], ops[j]
        s = symplectic_product(a, b)
        da, db = densify(a), densify(b)
        assert np.allclose(da @ db, w**s * (db @ da), atol=1e-12)


def test_symbols_lexicographic():
    assert nonidentity_symbols(2) == [(0, 1), (1, 0), (1, 1)]
    assert len(nonidentity_symbols(5)) == 24
