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
prefers the earliest independent rows.  Over GF(2) the elimination runs on
rows packed as bits, one Python int per row, so a row operation is one
XOR (the packed-row idea of M4RI, Albrecht, Bard and Hart,
arXiv:0811.1714); odd p keeps a dense int64 loop.
"""

from __future__ import annotations

import numpy as np

# float64 matmul is exact while every sum of products stays below 2**52, and
# hits BLAS instead of numpy's slow integer path; an operand already held as
# float64 is used without a copy.  The product is then an exact integer, so
# fmod reduces it exactly and in place, and one cast to int64 follows: no
# rint pass and no int64 temporary to reduce
_FLOAT_SAFE = 2**52


def modmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, for operands with entries in [0, p)."""
    bound = a.shape[-1] * (p - 1) * (p - 1)
    if bound < _FLOAT_SAFE:
        prod = np.asarray(a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False))
        return np.fmod(prod, p, out=prod).astype(np.int64)
    return a.astype(np.int64) @ b.astype(np.int64) % p


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
    the pivot column of each nonzero row in order.  R is uint8 for p = 2
    and int64 otherwise.
    """
    if p == 2:
        return _rref_gf2(mat)
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


def _rref_gf2(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """rref over GF(2): column j of a row is bit j of its int, so a pivot is a lowest set bit."""
    nrows, ncols = mat.shape
    packed = np.packbits(np.asarray(mat) & 1, axis=1, bitorder="little")
    # echelon form: each row is reduced on its lowest bit until it brings a new pivot
    basis: dict[int, int] = {}
    for row in packed:
        v = int.from_bytes(row.tobytes(), "little")
        while v:
            c = (v & -v).bit_length() - 1
            if c not in basis:
                basis[c] = v
                break
            v ^= basis[c]
    # back-substitution, right to left: a row only meets pivots to its right,
    # whose rows are already reduced, so each set pivot bit costs one XOR
    pivots = sorted(basis)
    pivot_mask = 0
    for c in reversed(pivots):
        v = basis[c]
        hits = v & pivot_mask
        while hits:
            low = hits & -hits
            v ^= basis[low.bit_length() - 1]
            hits ^= low
        basis[c] = v
        pivot_mask |= 1 << c
    width = packed.shape[1]
    rows = b"".join(basis[c].to_bytes(width, "little") for c in pivots)
    rows += bytes(width * (nrows - len(pivots)))
    bits = np.frombuffer(rows, dtype=np.uint8).reshape(nrows, width)
    return np.unpackbits(bits, axis=1, count=ncols, bitorder="little"), pivots


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
        # GF(2) entries only need their low bit, which a uint8 copy keeps
        augmented = np.zeros((m, ncols + m), dtype=np.uint8 if p == 2 else np.int64)
        augmented[:, :ncols] = mat
        augmented[np.arange(m), ncols + m - 1 - np.arange(m)] = 1
        reduced, pivots = rref(augmented, p)
        self.pivots = [c for c in pivots if c < ncols]
        self.rank = len(self.pivots)
        # reduced = T @ [mat | J], so T (columns back in row order of mat) has
        # reduced[i, :ncols] = T[i] @ mat; rows below rank span the left kernel
        transform = reduced[:, ncols:][:, ::-1]
        self._pivot_combinations = transform[: self.rank].copy()
        self.left_kernel = transform[self.rank :][::-1].astype(np.int64)
        free = np.setdiff1d(np.arange(ncols), self.pivots)
        # filled transposed, so that each pivot's entries are written as one row
        kernel_t = np.zeros((ncols, free.size), dtype=np.int64)
        kernel_t[free, np.arange(free.size)] = 1
        block = reduced[: self.rank, free]
        kernel_t[self.pivots] = block if p == 2 else -block % p
        self.kernel = kernel_t.T

    def contains(self, v: np.ndarray) -> bool:
        return bool(self.contains_batch(np.asarray(v)[None, :])[0])

    def contains_batch(self, vs: np.ndarray) -> np.ndarray:
        """Boolean mask over rows of vs.

        Only the columns where some row of vs is nonzero enter the product,
        so a sparse word costs a few kernel columns, not the whole kernel.
        """
        if self.kernel.shape[0] == 0:
            return np.ones(vs.shape[0], dtype=bool)
        vs = np.asarray(vs) % self.p
        cols = np.flatnonzero(vs.any(axis=0))
        return ~np.any(modmul(vs[:, cols], self.kernel.T[cols], self.p), axis=1)

    def coefficients(self, v: np.ndarray) -> np.ndarray | None:
        """c with c @ mat = v, zero at every dependent row; None off the row space."""
        if not self.contains(v):
            return None
        # v = sum_i v[pivot_i] * (pivot row i of rref(mat)), and each such row
        # is a combination of mat's rows that is zero at every dependent row
        v = np.asarray(v, dtype=np.int64) % self.p
        return (v[self.pivots] @ self._pivot_combinations) % self.p
