"""Dense Hilbert-space oracle for small instances.

Materializes operators as d^n x d^n complex matrices (hard cap d^n <=
1024) to independently verify the symplectic layer: product phases,
projector Hamiltonians, codespace dimension, error detectability and the
penalty/energy identity.  It stays independent by acting on computational
basis states (a Pauli is its monomial matrix on |j>) and never reading
syndromes to compute a checked value: they only pair sampled errors.
"""

from __future__ import annotations

import functools

import numpy as np

from .pauli import PauliOp
from .search import candidate_batches
from .stabilizer import StabilizerCode

SIZE_CAP = 1024
# the sampled energy check costs one d^n x d^n matrix-vector product a sample;
# refuse a --samples whose samples x d^(2n) multiply-adds exceed this
SAMPLE_WORK_GUARD = 10**9
TOL = 1e-9


class SizeCapError(ValueError):
    def __init__(self, d: int, n: int):
        super().__init__(f"dense verification refused: d^n = {d}^{n} exceeds cap {SIZE_CAP}")


def _check_cap(d: int, n: int) -> int:
    dim = d**n
    if dim > SIZE_CAP:
        raise SizeCapError(d, n)
    return dim


def _monomial(op: PauliOp) -> tuple[np.ndarray, np.ndarray]:
    """Row and entry of each column j of op's matrix.

    w^s Z^z X^x |j> = w^(s + z.(j+x)) |j+x>, digitwise mod d, with site 0
    the most significant base-d digit of j.
    """
    dim = _check_cap(op.d, op.n)
    place = op.d ** np.arange(op.n - 1, -1, -1)
    shifted = (np.arange(dim)[:, None] // place + op.x) % op.d
    roots = np.exp(2j * np.pi * np.arange(op.d) / op.d)
    return shifted @ place, roots[(op.phase + shifted @ op.z) % op.d]


def _act(op: PauliOp, states: np.ndarray) -> np.ndarray:
    """densify(op) @ states for a (dim,) or (dim, K) array, without the matrix."""
    rows, entries = _monomial(op)
    out = np.empty(states.shape, dtype=complex)
    out[rows] = (entries * states.T).T
    return out


def densify(op: PauliOp) -> np.ndarray:
    """Full matrix of a Pauli; exact homomorphism densify(a*b)=densify(a)@densify(b)."""
    return _act(op, np.eye(_check_cap(op.d, op.n)))


def generator_projector(g: PauliOp) -> np.ndarray:
    """Projector onto the non-+1 eigenspace of g: I - (1/d) sum_j g^j."""
    rows, entries = _monomial(g)
    cols = np.arange(rows.size)
    acc = np.eye(rows.size, dtype=complex)
    r, v = cols, np.ones(rows.size, dtype=complex)
    for _ in range(g.d):  # subtract g^j / d, then compose g^(j+1) = g g^j
        acc[r, cols] -= v / g.d
        r, v = rows[r], entries[r] * v
    return acc


def hamiltonian(code: StabilizerCode) -> np.ndarray:
    """H = sum_g Pi_g, whose null space is the codespace."""
    return sum(generator_projector(g) for g in code.generators)


@functools.lru_cache(maxsize=1)
def _system(code: StabilizerCode) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (H, codespace basis) of the last code asked for: one H and one eigh per code."""
    h = hamiltonian(code)
    vals, vecs = np.linalg.eigh(h)
    basis = vecs[:, vals < TOL]
    expected = code.d ** (code.n - code.rank)
    if basis.shape[1] != expected:
        raise AssertionError(f"codespace dimension {basis.shape[1]} != d^(n-rank) = {expected}")
    h.setflags(write=False)
    basis.setflags(write=False)
    return h, basis


def mean_energy(state: np.ndarray, code: StabilizerCode) -> float:
    """(1/m) <psi| sum_g Pi_g |psi> for a normalized state; lies in [0, 1]."""
    return _energy(state, _system(code)[0], code.m)


def _energy(state: np.ndarray, h: np.ndarray, m: int) -> float:
    """mean_energy against the code's Hamiltonian h."""
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state not normalized (norm {norm})")
    return float(np.real(np.vdot(state, h @ state))) / m


def codespace_basis(code: StabilizerCode) -> np.ndarray:
    """Read-only orthonormal basis (columns) of the joint +1 eigenspace of all generators.

    The null space of H = sum Pi_g (eigenvalues below TOL); its dimension is d^(n - rank).
    """
    return _system(code)[1]


def verify_detectability(code: StabilizerCode, rho: int) -> dict:
    """Check Pi_C E Pi_C = gamma_E Pi_C for every Pauli E with wt(E) < rho.

    Tested as B^dag E B = gamma_E I on the K orthonormal codespace columns B
    (Knill-Laflamme), whose residual norm equals ||Pi_C E Pi_C - gamma_E Pi_C||;
    gamma_E = tr(B^dag E B)/K.  Reports the maximum residual and any violator.
    """
    basis = codespace_basis(code)
    basis_dag = basis.conj().T
    eye = np.eye(basis.shape[1])
    max_residual = 0.0
    checked = 0
    violator = None
    weights = range(1, min(rho, code.n + 1))  # no Pauli on n qudits is heavier than n
    batches = (b for w in weights for b in candidate_batches(code.n, code.d, w))
    for v in (v for batch in batches for v in batch):
        e = PauliOp(code.d, code.n, v[: code.n], v[code.n :])
        m = basis_dag @ _act(e, basis)
        gamma = np.trace(m) / basis.shape[1]
        res = float(np.linalg.norm(m - gamma * eye))
        checked += 1
        max_residual = max(max_residual, res)
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
    h, basis = _system(code)
    state = _act(e, basis[:, which])
    state = state / np.linalg.norm(state)
    return _energy(state, h, code.m)


def verify_energy_identity(code: StabilizerCode, errors: list[PauliOp]) -> dict:
    """Check mean_energy(E|eta>) == penalty(E)/m for each error, all codewords."""
    h, basis = _system(code)
    max_dev = 0.0
    for e in errors:
        displaced = _act(e, basis)
        displaced /= np.linalg.norm(displaced, axis=0)
        expected = code.penalty(e) / code.m
        for state in displaced.T:
            max_dev = max(max_dev, abs(_energy(state, h, code.m) - expected))
    return {"errors_checked": len(errors), "max_deviation": max_dev, "passed": max_dev <= TOL}


def verify_sltc_qltc_equivalence(code: StabilizerCode, samples: int, seed: int = 0) -> dict:
    """Sampled check of the soundness/energy correspondence.

    Forward: for random Paulis E, the energy of E|eta> equals penalty/m.
    Backward: a superposition of displaced codewords from distinct cosets
    has energy equal to the weighted average of the coset penalties
    (displaced codewords from distinct syndromes are orthogonal).
    """
    rng = np.random.default_rng(seed)
    h, basis = _system(code)
    eta = basis[:, 0]
    max_forward = 0.0
    errs = []
    for _ in range(samples):
        x = rng.integers(code.d, size=code.n)
        z = rng.integers(code.d, size=code.n)
        e = PauliOp(code.d, code.n, x, z, int(rng.integers(code.d)))
        errs.append(e)
        state = _act(e, eta)
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
            state = a * _act(errs[i], eta) + b * _act(errs[j], eta)
            state /= np.linalg.norm(state)
            expected = (a * a * code.penalty(errs[i]) + b * b * code.penalty(errs[j])) / code.m
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
