"""Exact linear algebra over the prime field GF(p).

All matrices are 2-D numpy integer arrays with entries reduced mod p.
`modmul` is the one matrix product (it sits here, below `pauli` and
`search`, so every layer can use it) and `rref` the one elimination
routine.  `RowSpace` runs it once, on [mat | J] with J the identity with
its columns reversed, and reads every query off that one reduced
matrix: rank, the right kernel (membership), the left kernel (generator
dependencies) and the coefficients of a row space member.  Reversing J makes each left-kernel row pivot on the last
row of mat it uses, which is a row that depends on earlier ones; so the
coefficients are zero at every such row, as in a direct solve that
prefers the earliest independent rows.  Deliberately dense and simple
(desk-scale instances).
"""

from __future__ import annotations

import numpy as np

# float64 matmul is exact while every sum of products stays below 2**52, and
# hits BLAS instead of numpy's slow integer path; an operand already held as
# float64 is used without a copy
_FLOAT_SAFE = 2**52


def modmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for operands with entries in [0, p)."""
    bound = a.shape[-1] * (p - 1) * (p - 1)
    if bound < _FLOAT_SAFE:
        prod = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
        prod = np.rint(prod).astype(np.int64)
    else:
        prod = a.astype(np.int64) @ b.astype(np.int64)
    return prod % p


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def check_prime(p: int) -> None:
    """Reject non-prime moduli: residues must form a field."""
    if not is_prime(p):
        raise ValueError(f"qudit dimension must be prime, got {p}")


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns (R, pivots) where R has the same shape as mat and pivots lists
    the pivot column of each nonzero row in order.
    """
    a = np.array(mat, dtype=np.int64)
    a %= p
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_rows = np.nonzero(a[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        pr = r + int(pivot_rows[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * inv_mod(a[r, c], p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


class RowSpace:
    """Row space of an m x N matrix over GF(p), from one elimination.

    rank, pivots  -- rank and pivot columns of rref(mat)
    kernel        -- basis (rows) of {w : mat @ w = 0}: one row per free
                     column, 1 there and 0 at the other free columns
    left_kernel   -- basis (rows) of {c : c @ mat = 0}: one row per row of
                     mat that depends on earlier rows, 1 there and 0 at
                     the other dependent rows, in row order
    """

    def __init__(self, mat: np.ndarray, p: int):
        self.p = p
        m, ncols = mat.shape
        reduced, pivots = rref(np.concatenate([mat, np.eye(m, dtype=np.int64)[:, ::-1]], axis=1), p)
        self.pivots = [c for c in pivots if c < ncols]
        self.rank = len(self.pivots)
        # reduced = T @ [mat | J], so T (columns back in row order of mat) has
        # reduced[i, :ncols] = T[i] @ mat; rows below rank span the left kernel
        transform = reduced[:, ncols:][:, ::-1]
        self._pivot_combinations = transform[: self.rank].copy()
        self.left_kernel = transform[self.rank :][::-1].copy()
        free = np.setdiff1d(np.arange(ncols), self.pivots)
        self.kernel = np.zeros((free.size, ncols), dtype=np.int64)
        self.kernel[np.arange(free.size), free] = 1
        self.kernel[:, self.pivots] = (-reduced[: self.rank, free].T) % p

    def contains(self, v: np.ndarray) -> bool:
        return bool(self.contains_batch(np.asarray(v)[None, :])[0])

    def contains_batch(self, vs: np.ndarray) -> np.ndarray:
        """Boolean mask over rows of vs."""
        if self.kernel.shape[0] == 0:
            return np.ones(vs.shape[0], dtype=bool)
        return ~np.any(modmul(np.asarray(vs) % self.p, self.kernel.T, self.p), axis=1)

    def coefficients(self, v: np.ndarray) -> np.ndarray | None:
        """c with c @ mat = v, zero at every dependent row; None off the row space."""
        if not self.contains(v):
            return None
        # v = sum_i v[pivot_i] * (pivot row i of rref(mat)), and each such row
        # is a combination of mat's rows that is zero at every dependent row
        v = np.asarray(v, dtype=np.int64) % self.p
        return (v[self.pivots] @ self._pivot_combinations) % self.p
