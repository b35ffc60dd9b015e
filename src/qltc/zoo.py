"""Concrete code families (toric, CSS, hypergraph product, Steane) and sparse-row input.

Toric lattice convention (fixed for reproducible paths): qubits live on
the edges of an L x L periodic lattice, row-major.  Horizontal edge
h(r,c) = r*L + c runs from vertex (r,c) to (r, c+1 mod L); vertical edge
v(r,c) = L^2 + r*L + c runs from (r,c) to (r+1 mod L, c).  For d > 2 the
edges are oriented (+x, +y) and generators carry inverse exponents on
outgoing/return edges so that all pairs commute mod d.

Each check here on outside input (the build guard, also a matrix file's one
size rule, met on its shape; L >= 2; CSS widths; a bad line of a matrix file)
raises `fieldmath.CodeValidationError`, the CLI's bad input and a `ValueError`.
"""

from __future__ import annotations

import numpy as np

from .fieldmath import (
    CodeValidationError, Sites, check_prime, field_width, residue_dtype, residues,
)
from .stabilizer import StabilizerCode

# refuse builds estimated to hold more bytes than this (see _check_build_size)
BUILD_GUARD = 2_000_000_000


def _check_build_size(m: int, n: int, d: int) -> int:
    """Refuse, before any allocation, a build of m generators on n qudits that cannot fit.

    Returns the estimate, in bytes.  It is unchanged from when a build held
    the m x 2n symplectic matrix beside 2n - min(m, n) kernel rows of 2n
    entries, in residue_dtype(d) (b bytes an entry), and w + 2 bytes an
    entry (w = field_width(d)) of elimination rows on m x (2n + m)
    entries, with the interaction graph: adjacency lists under 1 KB a
    vertex and the expansion scan's two n x m bit masks.  A build now holds
    its sites and packs its rows from them, so the estimate over-prices it;
    it stays, as a matrix file is refused by it (see parse_sparse_rows).
    Growing with m, n and d and at least 8mn, it prices an r x c matrix
    file too, as its least code (r, c, 2).
    """
    b = residue_dtype(d).itemsize
    per_entry = field_width(d) + 2
    estimate = (b * 2 * n * (m + 2 * n - min(m, n)) + per_entry * m * (2 * n + m)
                + n * m // 4 + 1024 * (m + n))
    if estimate > BUILD_GUARD:
        raise CodeValidationError(
            f"a build of {m} generators on {n} qudits needs about {estimate / 1e9:.3g} GB,"
            f" over the {BUILD_GUARD / 1e9:.3g} GB guard"
        )
    return estimate


# --------------------------------------------------------------------------
# toric codes
# --------------------------------------------------------------------------

def toric_edge_indices(L: int):
    def h(r, c):
        return (r % L) * L + (c % L)

    def v(r, c):
        return L * L + (r % L) * L + (c % L)

    return h, v


def toric_code(L: int, d: int = 2) -> StabilizerCode:
    """Kitaev 2D toric code on n = 2L^2 prime-dimensional qudits.

    m = 2L^2 generators (L^2 vertex X-type, L^2 plaquette Z-type), k = 4,
    D_L = 4; rank is 2L^2 - 2 (one global dependency per type).  Its symmetries
    are the unit translations of both edge types, (r, c) to (r, c + 1) and to
    (r + 1, c): at every d they map supports onto supports.
    """
    if L < 2:
        raise CodeValidationError("L must be >= 2")
    check_prime(d)
    h, v = toric_edge_indices(L)
    n = 2 * L * L
    _check_build_size(n, n, d)
    r, c = np.divmod(np.arange(L * L), L)
    vertex, plaquette = r * L + c, L * L + r * L + c
    zero, one, minus = (np.full(L * L, v) for v in (0, 1, d - 1))
    # vertex operator: X^{+1} on incoming edges, X^{-1} on outgoing; plaquette
    # operator: Z^{+-1} around the face counterclockwise.  Eight runs of sites:
    # (row, qudit, x, z) of each
    runs = [(vertex, h(r, c - 1), one, zero), (vertex, h(r, c), minus, zero),
            (vertex, v(r - 1, c), one, zero), (vertex, v(r, c), minus, zero),
            (plaquette, h(r, c), zero, one), (plaquette, v(r, c + 1), zero, one),
            (plaquette, h(r + 1, c), zero, minus), (plaquette, v(r, c), zero, minus)]
    grid, step = np.arange(n).reshape(2, L, L), (np.arange(L) + 1) % L  # (type, r, c)
    return StabilizerCode(d, Sites.at(*map(np.concatenate, zip(*runs)), (n, 2 * n)),
                          symmetries=(grid[:, :, step].ravel(), grid[:, step].ravel()))


# --------------------------------------------------------------------------
# CSS construction
# --------------------------------------------------------------------------

def css_code(
    hx: np.ndarray, hz: np.ndarray, d: int = 2, strict_degree: bool = True
) -> StabilizerCode:
    """CSS code: X-type generators from Hx rows, Z-type from Hz rows.

    Hx and Hz need as many columns, and every row one weight (the code's
    locality k).  Hx @ Hz.T == 0 mod d is the code's commutation check, as
    <X_a, Z_b> = -Hx[a] . Hz[b]: a pair that is not orthogonal is refused
    as NonAbelianError, naming one X and one Z generator.
    """
    check_prime(d)
    hx, hz = np.asarray(hx), np.asarray(hz)
    if hx.shape[1] != hz.shape[1]:
        raise CodeValidationError("Hx and Hz must have the same number of columns")
    (rx, n), m = hx.shape, len(hx) + len(hz)
    _check_build_size(m, n, d)
    dtype = residue_dtype(d)  # a reduced input in this type or in int64 is read, not copied
    hx = residues(hx, d, dtype if hx.dtype == dtype else np.int64)
    hz = residues(hz, d, dtype if hz.dtype == dtype else np.int64)
    (ax, qx), (az, qz) = np.nonzero(hx), np.nonzero(hz)
    x, z = np.r_[hx[ax, qx], 0 * qz], np.r_[0 * qx, hz[az, qz]]
    # free the blocks css_hypergraph_product passes (held here alone on CPython 3.11+)
    del hx, hz
    sites = Sites.at(np.r_[ax, rx + az], np.r_[qx, qz], x, z, (m, 2 * n))
    return StabilizerCode(d, sites, strict_degree=strict_degree)


def css_hypergraph_product(
    h1: np.ndarray, h2: np.ndarray, d: int = 2, strict_degree: bool = True
) -> StabilizerCode:
    """Hypergraph product (Tillich and Zemor) of two classical parity-check matrices.

    The CSS code of Hx = [H1 (x) I | I (x) H2^T] and Hz = [I (x) H2 | -H1^T (x) I],
    orthogonal by construction; the build guard reads the shapes before any copy.
    """
    check_prime(d)
    (r1, n1), (r2, n2) = np.shape(h1), np.shape(h2)
    _check_build_size(r1 * n2 + n1 * r2, n1 * n2 + r1 * r2, d)
    # an entry of a Kronecker product with an identity is an entry of h1 or h2,
    # or 0, so the products are formed in the residue type, not in int64
    dtype = residue_dtype(d)
    h1, h2 = residues(h1, d, dtype), residues(h2, d, dtype)
    minus_h1_t = (d - h1.T) % d  # d - h lies in [1, d]: no wrap
    i_r1, i_n1, i_r2, i_n2 = (np.identity(k, dtype) for k in (r1, n1, r2, n2))
    # the blocks are passed, not named, so that css_code holds the only references
    return css_code(np.hstack([np.kron(h1, i_n2), np.kron(i_r1, h2.T)]),
                    np.hstack([np.kron(i_n1, h2), np.kron(minus_h1_t, i_r2)]), d, strict_degree)


def hamming7_matrix() -> np.ndarray:
    """Parity-check matrix of the [7,4,3] Hamming code (Steane flavor)."""
    return np.array(
        [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ],
        dtype=np.int64,
    )


def steane_code() -> StabilizerCode:
    """Steane [[7,1,3]] code; left degrees are irregular (flagged preset)."""
    import warnings

    h = hamming7_matrix()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return css_code(h, h, strict_degree=False)


def parse_sparse_rows(text: str) -> np.ndarray:
    """Plain-text sparse row format: one row per line, entries 'col' or 'col:val'.

    A token that is not such an entry, a repeated or negative column and a
    value past int64 are refused by line, and so is the first line that makes
    the matrix so far, r x c, over the build guard's price of its least code
    (r, c, 2): before the rest is read and the int64 matrix allocated.
    """
    rows, cols = [], 0
    for number, line in enumerate(text.splitlines(), 1):
        row = {}
        for tok in line.split("#")[0].split():
            try:
                c, v = map(int, tok.split(":") if ":" in tok else (tok, 1))
            except ValueError:  # not an integer, or more than one ':'
                raise CodeValidationError(f"line {number}: bad entry {tok!r}") from None
            if c in row:  # a sum or the last value would each make another code
                raise CodeValidationError(f"line {number}: column {c} repeated")
            row[c] = v
        if row:
            if min(row) < 0:
                raise CodeValidationError(f"line {number}: negative column {min(row)}")
            if max(map(abs, row.values())) >= 2**63:
                raise CodeValidationError(f"line {number}: a value past int64")
            rows.append(row)
            cols = max(cols, max(row) + 1)
            try:
                _check_build_size(len(rows), cols, 2)
            except CodeValidationError as refusal:
                raise CodeValidationError(
                    f"line {number}: a {len(rows)} x {cols} matrix: {refusal}") from None
    mat = np.zeros((len(rows), cols), dtype=np.int64)
    for i, row in enumerate(rows):
        mat[i, list(row)] = list(row.values())
    return mat
