"""Dense Hilbert-space oracle for small instances.

Materializes operators as d^n x d^n complex matrices (hard cap d^n <=
1024) to independently verify the symplectic layer: product phases,
projector Hamiltonians, codespace dimension, error detectability and the
penalty/energy identity.  Deliberately slow and simple.
"""

from __future__ import annotations

import numpy as np

from .pauli import PauliOp
from .search import candidate_batches
from .stabilizer import StabilizerCode

SIZE_CAP = 1024
TOL = 1e-9


class SizeCapError(ValueError):
    def __init__(self, d: int, n: int):
        super().__init__(f"dense verification refused: d^n = {d}^{n} exceeds cap {SIZE_CAP}")


def _check_cap(d: int, n: int) -> int:
    dim = d**n
    if dim > SIZE_CAP:
        raise SizeCapError(d, n)
    return dim


def _site_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift X|i> = |i+1 mod d> and phase P|j> = w^j |j>."""
    x = np.zeros((d, d), dtype=complex)
    for i in range(d):
        x[(i + 1) % d, i] = 1.0
    w = np.exp(2j * np.pi / d)
    p = np.diag(w ** np.arange(d))
    return x, p


def densify(op: PauliOp) -> np.ndarray:
    """Full matrix of a Pauli; exact homomorphism densify(a*b)=densify(a)@densify(b)."""
    _check_cap(op.d, op.n)
    xmat, pmat = _site_matrices(op.d)
    w = np.exp(2j * np.pi / op.d)
    out = np.array([[w ** op.phase]], dtype=complex)
    for i in range(op.n):
        site = np.linalg.matrix_power(pmat, int(op.z[i])) @ np.linalg.matrix_power(
            xmat, int(op.x[i])
        )
        out = np.kron(out, site)
    return out


def generator_projector(g: PauliOp) -> np.ndarray:
    """Projector onto the non-+1 eigenspace of g: I - (1/d) sum_j g^j."""
    dim = _check_cap(g.d, g.n)
    acc = np.zeros((dim, dim), dtype=complex)
    for j in range(g.d):
        acc += densify(g.power(j))
    return np.eye(dim) - acc / g.d


def hamiltonian(code: StabilizerCode) -> np.ndarray:
    dim = _check_cap(code.d, code.n)
    h = np.zeros((dim, dim), dtype=complex)
    for g in code.generators:
        h += generator_projector(g)
    return h


def mean_energy(state: np.ndarray, code: StabilizerCode) -> float:
    """(1/m) <psi| sum_g Pi_g |psi> for a normalized state; lies in [0, 1]."""
    return _energy(state, hamiltonian(code), code.m)


def _energy(state: np.ndarray, h: np.ndarray, m: int) -> float:
    """mean_energy against a Hamiltonian h built once by the caller."""
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state not normalized (norm {norm})")
    return float(np.real(np.vdot(state, h @ state))) / m


def codespace_basis(code: StabilizerCode) -> np.ndarray:
    """Orthonormal basis (columns) of the joint +1 eigenspace of all generators.

    Computed as the null space of H = sum Pi_g via eigendecomposition with
    eigenvalue threshold 1e-9; dimension equals d^(n - rank).
    """
    return _null_basis(hamiltonian(code), code)


def _null_basis(h: np.ndarray, code: StabilizerCode) -> np.ndarray:
    """codespace_basis from the code's Hamiltonian h."""
    vals, vecs = np.linalg.eigh(h)
    basis = vecs[:, vals < TOL]
    expected = code.d ** (code.n - code.rank)
    if basis.shape[1] != expected:
        raise AssertionError(
            f"codespace dimension {basis.shape[1]} != d^(n-rank) = {expected}"
        )
    return basis


def codespace_projector(code: StabilizerCode) -> np.ndarray:
    basis = codespace_basis(code)
    return basis @ basis.conj().T


def verify_detectability(code: StabilizerCode, rho: int) -> dict:
    """Check Pi_C E Pi_C = gamma_E Pi_C for every Pauli E with wt(E) < rho.

    gamma_E is the fitted scalar tr(Pi_C E Pi_C)/tr(Pi_C); reports the
    maximum residual norm and any violator.
    """
    pc = codespace_projector(code)
    dim_c = float(np.real(np.trace(pc)))
    max_residual = 0.0
    checked = 0
    violator = None
    batches = (b for w in range(1, rho) for b in candidate_batches(code.n, code.d, w))
    for v in (v for batch in batches for v in batch):
        e = PauliOp(code.d, code.n, v[: code.n], v[code.n :])
        de = densify(e)
        lhs = pc @ de @ pc
        gamma = np.trace(lhs) / dim_c
        res = float(np.linalg.norm(lhs - gamma * pc))
        checked += 1
        if res > max_residual:
            max_residual = res
        if res > TOL and violator is None:
            violator = e.to_json()
    return {
        "rho": rho,
        "paulis_checked": checked,
        "max_residual": max_residual,
        "passed": violator is None,
        "violator": violator,
        "tolerance": TOL,
    }


def displaced_codeword_energy(code: StabilizerCode, e: PauliOp, which: int = 0) -> float:
    """Mean energy of E|eta> for the which-th codespace basis vector.

    Independent of the choice of codeword (the syndrome fixes the
    eigenvalues); equals penalty(E)/m, which the test suite asserts.
    """
    h = hamiltonian(code)
    state = densify(e) @ _null_basis(h, code)[:, which]
    state = state / np.linalg.norm(state)
    return _energy(state, h, code.m)


def verify_energy_identity(code: StabilizerCode, errors: list[PauliOp]) -> dict:
    """Check mean_energy(E|eta>) == penalty(E)/m for each error, all codewords."""
    h = hamiltonian(code)
    basis = _null_basis(h, code)
    max_dev = 0.0
    for e in errors:
        de = densify(e)
        expected = code.penalty(e) / code.m
        for col in range(basis.shape[1]):
            state = de @ basis[:, col]
            state /= np.linalg.norm(state)
            dev = abs(_energy(state, h, code.m) - expected)
            max_dev = max(max_dev, dev)
    return {"errors_checked": len(errors), "max_deviation": max_dev, "passed": max_dev <= TOL}


def verify_sltc_qltc_equivalence(code: StabilizerCode, samples: int, seed: int = 0) -> dict:
    """Sampled check of the soundness/energy correspondence.

    Forward: for random Paulis E, the energy of E|eta> equals penalty/m.
    Backward: a superposition of displaced codewords from distinct cosets
    has energy equal to the weighted average of the coset penalties
    (displaced codewords from distinct syndromes are orthogonal).
    """
    rng = np.random.default_rng(seed)
    h = hamiltonian(code)
    eta = _null_basis(h, code)[:, 0]
    max_forward = 0.0
    errs = []
    for _ in range(samples):
        x = rng.integers(code.d, size=code.n)
        z = rng.integers(code.d, size=code.n)
        e = PauliOp(code.d, code.n, x, z, int(rng.integers(code.d)))
        errs.append(e)
        state = densify(e) @ eta
        state /= np.linalg.norm(state)
        dev = abs(_energy(state, h, code.m) - code.penalty(e) / code.m)
        max_forward = max(max_forward, dev)
    # backward: two-coset superposition
    max_backward = 0.0
    pairs = 0
    for i in range(len(errs)):
        for j in range(i + 1, len(errs)):
            if np.array_equal(code.syndrome(errs[i]), code.syndrome(errs[j])):
                continue
            a, b = 0.6, 0.8
            state = a * (densify(errs[i]) @ eta) + b * (densify(errs[j]) @ eta)
            state /= np.linalg.norm(state)
            expected = (
                a * a * code.penalty(errs[i]) + b * b * code.penalty(errs[j])
            ) / code.m
            max_backward = max(max_backward, abs(_energy(state, h, code.m) - expected))
            pairs += 1
            break
        if pairs >= 5:
            break
    return {
        "samples": samples,
        "max_forward_deviation": max_forward,
        "coset_pairs_checked": pairs,
        "max_backward_deviation": max_backward,
        "passed": max_forward <= TOL and max_backward <= TOL,
        "tolerance": TOL,
    }
