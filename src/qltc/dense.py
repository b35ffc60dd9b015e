"""Dense Hilbert-space oracle for small instances.

Materializes operators as d^n x d^n matrices (hard cap d^n <= SIZE_CAP =
1024, past which it raises Refusal, an in-band refusal) to independently
verify the symplectic layer: product phases, projector Hamiltonians,
codespace dimension, error detectability and the penalty/energy identity.
It stays independent by acting on computational basis states (a Pauli is
its monomial matrix on |j>) and never reading syndromes to compute a
checked value: they only give the penalties the energies are checked
against and pair sampled errors.

It computes in the field of the code's roots of unity: at d = 2 they are
(1, -1), so every matrix, basis and state is float64; from d = 3 on they
are complex128.  Paulis are checked a slice at a time, each slice one
gather of the rows their monomial matrices send the codespace basis to
and one batched product.
"""

from __future__ import annotations

import functools

import numpy as np

from .graphs import Pcg64, Refusal
from .pauli import PauliOp
from .search import candidate_batches
from .stabilizer import StabilizerCode

SIZE_CAP = 1024
# the sampled energy check costs one d^n x d^n matrix-vector product a sample;
# refuse a --samples whose samples x d^(2n) multiply-adds exceed this
SAMPLE_WORK_GUARD = 10**9
# the most entries a slice of P Paulis holds at once: P x d^n x K for the
# detectability check on a K-column codespace basis, P x d^n for the energies
SLICE_ENTRIES = 1 << 18
TOL = 1e-9


def _check_cap(d: int, n: int) -> int:
    dim = d**n
    if dim > SIZE_CAP:
        raise Refusal(f"dense verification refused: d^n = {d}^{n} exceeds cap {SIZE_CAP}")
    return dim


def _roots(d: int) -> np.ndarray:
    """w^k for k < d, w = exp(2 pi i / d): real at d = 2, where w = -1, else complex."""
    if d == 2:
        return np.array([1.0, -1.0])
    return np.exp(2j * np.pi * np.arange(d) / d)


def _site_sums(d: int, x, z) -> tuple[np.ndarray, np.ndarray]:
    """For each Pauli and each digit string j of its s sites, (P, d^s) arrays of
    the index of j + x (digitwise mod d, first site most significant) and of z.(j + x)."""
    j = np.arange(d ** x.shape[1])
    rows = np.zeros((len(x), j.size), dtype=np.int64)
    expo = np.zeros_like(rows)
    for i in range(x.shape[1]):
        place = d ** (x.shape[1] - 1 - i)
        digit = (j // place % d + x[:, i, None]) % d
        rows += digit * place
        expo += digit * z[:, i, None]
    return rows, expo


def _monomials(d: int, n: int, x, z, phases) -> tuple[np.ndarray, np.ndarray]:
    """Row and entry of each column j of each Pauli's matrix, as (P, d^n) arrays.

    The P Paulis w^s Z^z X^x have the rows of x and z and the phases s:
    w^s Z^z X^x |j> = w^(s + z.(j+x)) |j+x>, digitwise mod d, with site 0
    the most significant base-d digit of j.  Row and exponent are sums of
    one term a site, so they are summed over each half of the sites on
    its d^(n/2) digit strings and the halves added by broadcasting.
    """
    dim = _check_cap(d, n)
    half = n // 2
    (rows_hi, expo_hi), (rows_lo, expo_lo) = (
        _site_sums(d, x[:, part], z[:, part]) for part in (slice(0, half), slice(half, n)))
    rows = rows_hi[:, :, None] * d ** (n - half) + rows_lo[:, None, :]
    expo = (expo_hi + np.asarray(phases, dtype=np.int64)[:, None])[:, :, None] + expo_lo[:, None, :]
    return rows.reshape(len(x), dim), _roots(d)[expo.reshape(len(x), dim) % d]


def _monomial(op: PauliOp) -> tuple[np.ndarray, np.ndarray]:
    """Row and entry of each column j of op's matrix (see _monomials)."""
    rows, entries = _monomials(op.d, op.n, op.x[None], op.z[None], [op.phase])
    return rows[0], entries[0]


def generator_projector(g: PauliOp) -> np.ndarray:
    """Projector onto the non-+1 eigenspace of g: I - (1/d) sum_j g^j."""
    rows, entries = _monomial(g)
    cols = np.arange(rows.size)
    acc = np.eye(rows.size, dtype=entries.dtype)
    r, v = cols, np.ones(rows.size, dtype=entries.dtype)
    for _ in range(g.d):  # subtract g^j / d, then compose g^(j+1) = g g^j
        acc[r, cols] -= v / g.d
        r, v = rows[r], entries[r] * v
    return acc


def hamiltonian(code: StabilizerCode) -> np.ndarray:
    """H = sum_g Pi_g, whose null space is the codespace."""
    h = generator_projector(code.generators[0])
    for g in code.generators[1:]:
        h += generator_projector(g)
    return h


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


def _energies(states: np.ndarray, h: np.ndarray, m: int) -> np.ndarray:
    """(1/m) <psi|h|psi> for each normalized row psi of states; with h the code's
    Hamiltonian sum_g Pi_g over its m generators, each lies in [0, 1]."""
    norms = np.linalg.norm(states, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError(f"state not normalized (norm {norms[np.argmax(np.abs(norms - 1.0))]})")
    return np.real(np.vecdot(states, states @ h.T)) / m  # h.T: psi h^T is the row of h psi


def codespace_basis(code: StabilizerCode) -> np.ndarray:
    """Read-only orthonormal basis (columns) of the joint +1 eigenspace of all generators.

    The null space of H = sum Pi_g (eigenvalues below TOL); its dimension is d^(n - rank).
    """
    return _system(code)[1]


def verify_detectability(code: StabilizerCode, rho: int) -> dict:
    """Check Pi_C E Pi_C = gamma_E Pi_C for every Pauli E with wt(E) < rho.

    Tested as B^dag E B = gamma_E I on the K orthonormal codespace columns B
    (Knill-Laflamme), whose residual norm equals ||Pi_C E Pi_C - gamma_E Pi_C||;
    gamma_E = tr(B^dag E B)/K.  Reports the maximum residual and the first
    violator in candidate_batches' order.  With E|j> = e_j |r_j>,
    (B^dag E B)_ab = sum_j conj(B[r_j, a]) e_j B[j, b]: each slice of at
    most SLICE_ENTRIES / (d^n K) Paulis gathers the rows conj(B)[r_j] of all its
    Paulis, scales them and takes one batched product.
    """
    n, d = code.n, code.d
    basis = codespace_basis(code)
    dim, k = basis.shape
    basis_conj = basis.conj()
    diag = np.arange(k)

    def residuals(v):
        """||B^dag E B - gamma_E I|| for the Paulis E of the rows of v."""
        rows, entries = _monomials(d, n, v[:, :n], v[:, n:], np.zeros(len(v), dtype=np.int64))
        g = basis_conj[rows]
        g *= entries[:, :, None]
        m = np.matmul(basis.T, g)  # (B^dag E B)^T, with its trace and residual norm
        m[:, diag, diag] -= (np.trace(m, axis1=1, axis2=2) / k)[:, None]
        return np.linalg.norm(m.reshape(len(v), -1), axis=1)

    per = max(1, SLICE_ENTRIES // (dim * k))  # Paulis a slice
    max_residual = 0.0
    checked = 0
    violator = None
    weights = range(1, min(rho, n + 1))  # no Pauli on n qudits is heavier than n
    batches = (b for w in weights for b in candidate_batches(n, d, w))
    for v in (batch[lo : lo + per] for batch in batches for lo in range(0, len(batch), per)):
        res = residuals(v)
        checked += len(v)
        max_residual = max(max_residual, float(res.max()))
        bad = np.flatnonzero(res > TOL)
        if bad.size and violator is None:
            e = v[bad[0]]
            violator = PauliOp(d, n, e[:n], e[n:]).to_json()
    return {
        "rho": rho,
        "paulis_checked": checked,
        "max_residual": max_residual,
        "passed": violator is None,
        "violator": violator,
        "tolerance": TOL,
    }


def _draws(code: StabilizerCode, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x rows, z rows and phases of the sampled Paulis, drawn in that order a sample."""
    rng = Pcg64(seed)
    x = np.empty((samples, code.n), dtype=np.int64)
    z = np.empty((samples, code.n), dtype=np.int64)
    phases = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        x[i] = rng.integers(code.d, size=code.n)
        z[i] = rng.integers(code.d, size=code.n)
        phases[i] = rng.integers(code.d)
    return x, z, phases


def verify_sltc_qltc_equivalence(code: StabilizerCode, samples: int, seed: int = 0) -> dict:
    """Sampled check of the soundness/energy correspondence.

    Forward: for random Paulis E, the energy of E|eta> equals penalty/m.
    Backward: a superposition of displaced codewords from distinct cosets
    has energy equal to the weighted average of the coset penalties
    (displaced codewords from distinct syndromes are orthogonal).  Each
    of the first samples (at most 5) that some later sample's syndrome
    differs from is paired with the first such sample.

    Sample i draws x, then z, then the phase from numpy's
    default_rng(seed) stream, reproduced by graphs.Pcg64 without importing
    numpy.random, so a seed's report reads as it did when numpy drew them.
    The energies are taken SLICE_ENTRIES / d^n samples at a time, each
    slice one product with H.
    """
    n, d, m = code.n, code.d, code.m
    h, basis = _system(code)
    eta = basis[:, 0]
    x, z, phases = _draws(code, samples, seed)
    syndromes = code.syndrome_batch(np.concatenate([x, z], axis=1))
    penalties = np.count_nonzero(syndromes, axis=1)

    def displaced(part):
        """E|eta> as rows, for the sampled Paulis E of part."""
        rows, entries = _monomials(d, n, x[part], z[part], phases[part])
        out = np.empty(rows.shape, dtype=entries.dtype)
        np.put_along_axis(out, rows, entries * eta, axis=1)
        return out

    def deviation(states, expected):
        states /= np.linalg.norm(states, axis=1)[:, None]
        return float(np.abs(_energies(states, h, m) - expected / m).max(initial=0.0))

    per = max(1, SLICE_ENTRIES // basis.shape[0])  # samples a slice
    parts = (slice(lo, lo + per) for lo in range(0, samples, per))
    max_forward = max((deviation(displaced(part), penalties[part]) for part in parts), default=0.0)
    # backward: two-coset superpositions; sample i's first later sample with
    # another syndrome is the first break after i in the runs of equal syndromes
    breaks = np.flatnonzero(np.any(syndromes[1:] != syndromes[:-1], axis=1)) + 1
    first = np.arange(min(5, breaks[-1] if breaks.size else 0))
    later = breaks[np.searchsorted(breaks, first, side="right")]
    a, b = 0.6, 0.8
    expected = a * a * penalties[first] + b * b * penalties[later]
    max_backward = deviation(a * displaced(first) + b * displaced(later), expected)
    return {
        "samples": samples,
        "max_forward_deviation": max_forward,
        "coset_pairs_checked": int(first.size),
        "max_backward_deviation": max_backward,
        "passed": max_forward <= TOL and max_backward <= TOL,
        "tolerance": TOL,
    }
