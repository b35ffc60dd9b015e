"""Exact linear algebra over the prime field GF(p).

All matrices are 2-D numpy integer arrays with entries reduced mod p;
the ones held are in `residue_dtype(p)` (uint8 below 256), and every
product or subtraction widens them first.
`modmul` is the one matrix product (it sits here, below `pauli` and
`search`, so every layer can use it); it returns residues in
`residue_dtype(p)` too, so a batch of syndromes is one byte an entry.
It runs in float32 or float64 BLAS only: `check_prime` admits primes
below 2**16 alone, and below that every product of an admissible width
is exact in float64.
`eliminate` is the one elimination routine: it returns the reduced
nonzero rows, packed at p = 2, and `rref` is its full-shape form.
`RowSpace` runs it once, on a code's matrix, reads rank and pivots off it
and draws from its rows 2k' logicals: with a zero syndrome, a word lies
in the row space iff its products with them vanish.
Given the rows' Pauli phases, the elimination carries them too (over
GF(2) the phase bit of Aaronson and Gottesman, arXiv:quant-ph/0406196; at
odd p the Weyl phase, Gross, arXiv:quant-ph/0602001) and names a
generator of a relation whose phase is nonzero: the phase obstruction.
Over GF(2) the elimination runs on rows packed as bits, one Python int
per row, so a row operation is one XOR (the packed-row idea of M4RI,
Albrecht, Bard and Hart, arXiv:0811.1714).  The rows stay packed to the
logicals: the pivot rows are written as uint64 words, and a draw's
product with them is the parity of the popcount of their AND, so no
dense copy of the matrix or its reduced form is made beside the one
the code holds.  Odd p keeps an int64 loop whose row operations touch
only the pivot row's nonzero columns, and its draws' float products.
`InputError` is the one bad-input type.  The checks on outside input,
here (`check_prime`) and in `zoo`, `stabilizer` and the CLI, raise it or
its subclass `CodeValidationError`, which is also a `ValueError`.
"""

from __future__ import annotations

import numpy as np

# A float matmul hits BLAS instead of numpy's slow integer path.  It is exact
# while every integer it and the reduction make stays below 2**24 (float32:
# sgemm, about half the time of dgemm) or 2**52 (float64); the bound is the
# largest entry x of the product plus p, as q p <= x + p below.  float64
# always holds it: p < PRIME_LIMIT = 2**16 (check_prime), so it needs an
# inner width past 2**52 / 65520**2, about 2**20, and every width is at most
# 2n: a code of 2**19 qudits, whose matrix holds 2**20 entries a generator,
# far past zoo.BUILD_GUARD.  The product is reduced without % or fmod, each
# several times the cost of the product: at p = 2 by its low bit, else as
# x - q p with q = floor(x * (1/p)), which rounding may put one off, so one
# fix-up each way adds or takes p, still in the float type.  Either way one
# cast narrows the residues at the end.  An operand already in the float
# type is used without a copy.
_FLOAT32_SAFE = 2**24
# moduli are primes below this, so residues fit uint16 (residue_dtype)
PRIME_LIMIT = 2**16
# RowSpace's random draws of logicals: the seed (any seed gives certified
# rows; a fixed one gives the same rows on every run), the draws past the
# 2k' needed and the most rounds of them before RowSpace gives up
DRAW_SEED = 1
SPARE_DRAWS = 8
DRAW_ROUNDS = 8
# entries of the odd-p rref rows that one modmul call takes while drawing
# them (a float copy of all of them would be 537 MB on toric:64)
_BLOCK_ENTRIES = 1 << 22
# the GF(2) rows: packed little-endian uint64 words, and the most bytes of
# one block's AND of rows and draws
_WORD = np.dtype("<u8")
_AND_BYTES = 1 << 20


class InputError(Exception):
    """Bad outside input: a preset, a code or matrix file, a flag.  The CLI exits 1 on it.

    Not a ValueError: argparse would turn one raised by a flag's type
    function into its own usage error.
    """


class CodeValidationError(InputError, ValueError):
    """Outside input that does not describe a valid code (raised by the library's checks)."""


def modmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p in residue_dtype(p), for operands with entries in [0, p).

    Two tiers: float32 while the bound above stays under 2**24, float64
    past it, which holds every product of an admitted prime.
    """
    dtype = residue_dtype(p)
    bound = a.shape[-1] * (p - 1) * (p - 1) + p
    ftype = np.float32 if bound < _FLOAT32_SAFE else np.float64
    prod = np.asarray(a.astype(ftype, copy=False) @ b.astype(ftype, copy=False))
    if p == 2:
        low = prod.astype(np.int32 if ftype is np.float32 else np.int64)
        low &= 1
        return low.astype(dtype)
    prod -= np.floor(prod * (1 / p)) * p
    prod[prod < 0] += p
    prod[prod >= p] -= p
    return prod.astype(dtype)


def residue_dtype(p: int) -> np.dtype:
    """Least unsigned type that holds the residues 0 .. p - 1: uint8 below 256."""
    return np.min_scalar_type(p - 1)


def residues(a, p: int, dtype=np.int64) -> np.ndarray:
    """The entries of a reduced mod p, in dtype; a itself when it already is so.

    Raises ValueError on any entry that is not an integer: a float such as
    1.5 is refused, not truncated.  Negative integers reduce mod p, and the
    reduction runs in int64 (or exactly, in float or Python ints), never in
    a narrow type that would wrap.
    """
    a = np.asarray(a)
    kind = a.dtype.kind
    if kind == "f":
        bad = a[~(np.isfinite(a) & (a == np.trunc(a)))]
        if bad.size:
            raise ValueError(f"entries must be integers, got {bad[0]}")
        a = np.mod(a, p)
    elif kind == "O" and all(isinstance(v, (int, np.integer)) for v in a.flat):
        a = a % p  # Python ints past int64
    elif kind not in "biu":
        raise ValueError(f"entries must be integers, got {a.dtype} entries")
    elif a.dtype == dtype and (a.size == 0 or (a.min() >= 0 and a.max() < p)):
        return a
    else:
        a = a.astype(np.int64, copy=False) % p
    return a.astype(dtype, copy=False)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


# the moduli check_prime has admitted: every PauliOp checks its d, and trial
# division at p = 65521 costs about 200 times a lookup
_ADMITTED: set[int] = set()


def check_prime(p: int) -> None:
    """Reject non-prime moduli (residues must form a field) and primes of PRIME_LIMIT or more.

    Either raises CodeValidationError.  The layout holds residues in uint8
    or uint16 and modmul's float64 tier is exact only below the limit; the
    bound is tested before the primality loop, whose trial division would
    run for long on a large p.  A prime is checked once; a refused value
    is checked again each time.
    """
    if p in _ADMITTED:
        return
    if not (p < PRIME_LIMIT and is_prime(p)):
        raise CodeValidationError(f"qudit dimension must be a prime below {PRIME_LIMIT}, got {p}")
    _ADMITTED.add(p)


def inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def eliminate(mat: np.ndarray, p: int, phases=None) -> tuple[np.ndarray, list[int], int | None]:
    """The one elimination: rref's nonzero rows, its pivots and, given phases, its obstruction.

    The rows are rank x 2n: over GF(2) packed words (see _rref_gf2),
    at odd p int64.
    """
    if p == 2:
        return _rref_gf2(mat, phases)
    reduced, pivots, obstruction = rref(mat, p, phases)
    return reduced[: len(pivots)], pivots, obstruction


def rref(mat: np.ndarray, p: int, phases=None) -> tuple[np.ndarray, list[int], int | None]:
    """Reduced row echelon form over GF(p); given the rows' phases, the phase obstruction.

    Returns (R, pivots, obstruction): R has mat's shape (uint8 for p = 2,
    int64 otherwise), pivots the pivot column of each nonzero row.  Given
    phases, the rows are commuting generators (x | z), and obstruction is
    one in a relation whose phase is nonzero, else None.  At odd p the Weyl
    phase s + x.z/2 adds over commuting products: it is one more column,
    which takes a pivot iff some relation's phase is nonzero.  Over GF(2)
    R is eliminate's packed words unpacked, below them zero rows.
    """
    if p == 2:
        words, pivots, obstruction = _rref_gf2(mat, phases)
        reduced = np.zeros(mat.shape, dtype=np.uint8)
        reduced[: len(pivots)] = np.unpackbits(words.view(np.uint8), axis=1, count=mat.shape[1],
                                               bitorder="little")
        return reduced, pivots, obstruction
    nrows, ncols = mat.shape
    a = np.empty((nrows, ncols + (phases is not None)), dtype=np.int64)
    a[:, :ncols] = mat
    a[:, :ncols] %= p
    if phases is not None:
        xz = np.einsum("ij,ij->i", a[:, : ncols // 2], a[:, ncols // 2 : ncols]) % p
        a[:, ncols] = (xz * ((p + 1) // 2) + phases) % p
    origin = np.arange(nrows)  # the input row at each row of a
    pivots: list[int] = []
    r = 0
    for c in range(a.shape[1]):
        if r == nrows:
            break
        pivot_rows = np.nonzero(a[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        pr = r + int(pivot_rows[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            origin[[r, pr]] = origin[[pr, r]]
        cols = np.flatnonzero(a[r])  # the row update leaves every other column as it is
        a[r, cols] = a[r, cols] * inv_mod(a[r, c], p) % p
        other = np.flatnonzero(a[:, c])
        other = other[other != r]
        if other.size:
            block = np.ix_(other, cols)
            a[block] = (a[block] - np.outer(a[other, c], a[r, cols])) % p
        pivots.append(c)
        r += 1
    # a pivot row in the phase column is its input row plus other pivot rows, scaled
    obstruction = int(origin[r - 1]) if pivots and pivots[-1] == ncols else None
    return a[:, :ncols], [c for c in pivots if c < ncols], obstruction


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 entries as little-endian uint64 words, ceil(c/64) a row: column j at bit j."""
    nrows, ncols = bits.shape
    packed = np.zeros((nrows, -(-ncols // 64) * 8), dtype=np.uint8)
    packed[:, : -(-ncols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(_WORD)


def _rref_gf2(mat: np.ndarray, phases) -> tuple[np.ndarray, list[int], int | None]:
    """rref over GF(2): column j of a row is bit j of its int, so a pivot is a lowest set bit.

    v ^= b multiplies the rows as Paulis: phase bits add with x_v.z_b (PauliOp.multiply).
    Returns the pivot rows as _pack_words gives them, written from the ints.
    """
    nrows, ncols = mat.shape
    n = ncols // 2
    packed = np.packbits(residues(mat, 2, np.uint8), axis=1, bitorder="little")
    signs = [0] * nrows if phases is None else (np.asarray(phases) & 1).tolist()
    # echelon form: each row is reduced on its lowest bit until it brings a new
    # pivot; with the row are kept its z half (bits 0 .. n - 1) and phase bit
    basis: dict[int, int] = {}
    z_sign: dict[int, tuple[int, int]] = {}
    obstruction = None
    for i, s in enumerate(signs):
        v = int.from_bytes(packed[i].tobytes(), "little")
        while v:
            c = (v & -v).bit_length() - 1
            if c not in basis:
                basis[c], z_sign[c] = v, (v >> n, s)
                break
            if phases is not None:
                z, t = z_sign[c]
                s ^= t ^ (v & z).bit_count() & 1
            v ^= basis[c]
        if s and not v and obstruction is None:  # generator i times earlier ones is -I
            obstruction = i
    del packed, z_sign  # only the rows are read from here on
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
    width = -(-ncols // 64) * 8
    rows = bytearray(width * len(pivots))
    for i, c in enumerate(pivots):
        rows[i * width : (i + 1) * width] = basis.pop(c).to_bytes(width, "little")
    words = np.frombuffer(rows, dtype=_WORD).reshape(len(pivots), width // 8)
    return words, pivots, None if phases is None else obstruction


class RowSpace:
    """Row space A of m commuting generators (x | z) over GF(p), from one elimination.

    The rows must commute (StabilizerCode checks that before it builds
    one), so A lies in Z, the words of zero syndrome, and A is the
    symplectic complement of Z; Z / A has dimension 2k', k' = n - rank.

    rank, pivots  -- rank and pivot columns of rref(mat)
    obstruction   -- given the rows' Pauli phases, a generator in a relation
                     whose phase is nonzero, or None (see rref)
    logicals      -- 2k' rows of ker(mat), read-only in residue_dtype(p)

    A row w = (a | b) of ker(mat) is the word (b | -a) of Z, and w.v is
    minus the symplectic product of that word with v.  The logicals are
    drawn at random (_draw_logicals) and kept where their Gram matrix
    G_ij = b_i.a_j - a_i.b_j, their words' symplectic products, is
    nonsingular; their words are then independent modulo A and span Z
    modulo A, so a word v of Z lies in A iff logicals @ v = 0.  RowSpace
    raises ValueError unless 2k' are kept, which makes G nonsingular, and
    StabilizerCode checks exactly, on its sites, that each has zero
    product with every generator: together these certify the logicals,
    whatever the draws were.
    """

    def __init__(self, mat: np.ndarray, p: int, phases: np.ndarray | None = None):
        self.p = p
        ncols = mat.shape[1]
        dtype = residue_dtype(p)
        # the elimination works on its own copy (packed bits for GF(2), int64 otherwise)
        self._rows = residues(mat, p, dtype)
        reduced, self.pivots, self.obstruction = eliminate(self._rows, p, phases)
        self.rank = len(self.pivots)
        count = ncols - 2 * self.rank  # 2k'
        if count < 0:
            raise ValueError(f"rank {self.rank} on {ncols // 2} qudits: the rows do not commute")
        self.logicals = _draw_logicals(reduced, self.pivots, count, p, ncols)
        del reduced
        if len(self.logicals) != count:
            raise ValueError(f"the Gram matrix of the draws has rank {len(self.logicals)},"
                             f" not 2k' = {count}")
        self.logicals.setflags(write=False)

    def contains_batch(self, vs: np.ndarray) -> np.ndarray:
        """Boolean mask over rows of vs: zero products with the rows and with the logicals.

        Entries reduce mod p through `residues`, so a negative entry counts
        as its residue and a non-integer one is refused.  Only the columns
        where some row of vs is nonzero enter the product, so a sparse word
        costs a few columns of the rows and logicals.
        """
        p, n = self.p, self._rows.shape[1] // 2
        vs = residues(vs, p, residue_dtype(p))
        cols = np.flatnonzero(vs.any(axis=0))
        # <g, v> = g.z . v.x - g.x . v.z: each column meets g's other half, x negated
        rows = self._rows[:, (cols + n) % (2 * n)]
        meets_x = cols >= n
        rows[:, meets_x] = (p - rows[:, meets_x]) % p
        maps = np.concatenate([rows, self.logicals[:, cols]])
        return ~np.any(modmul(vs[:, cols], maps.T, p), axis=1)


def _draw_logicals(reduced: np.ndarray, pivots: list[int], count: int, p: int,
                   ncols: int) -> np.ndarray:
    """Random rows w = (a | b) of ker(reduced), kept at a basis of their Gram matrix's columns.

    A draw takes random values at every column, then moves each pivot
    entry by minus the rref row's product with the draw, which puts it in
    ker(reduced) with its free entries still random.  The Gram matrix
    G_ij = b_i.a_j - a_i.b_j is skew-symmetric, so its block at a basis S
    of its columns, the Gram matrix of the rows kept, is nonsingular:
    every row of G is a combination of the rows S, so G[S, S] x = 0 gives
    G[:, S] x = 0 and x = 0.  So count rows come back iff the draws span
    Z modulo A (RowSpace).  count + SPARE_DRAWS uniform draws fail to
    span it with probability under p**-SPARE_DRAWS, and each round that
    falls short draws as many again.  The values are random bytes of the
    residue type reduced mod p, near enough to uniform; the bytes are the
    standard library's, as importing numpy.random costs megabytes.

    reduced is eliminate's rows, of ncols columns.  Over GF(2) they stay
    packed words: the draws, the same bytes' low bits, are packed too, and
    each pivot entry moves by the parity of popcount(row & draw)
    (_gf2_products), so the logicals equal those of a float product on the
    unpacked rows bit for bit.  Odd p takes the products by modmul, in
    blocks of rows.
    """
    import random  # no module-level import: loaded already with the CLI's imports

    draws = np.zeros((0, ncols), dtype=residue_dtype(p))
    if not count:
        return draws
    rng = random.Random(DRAW_SEED)
    pivots = np.asarray(pivots, dtype=np.intp)
    size = (count + SPARE_DRAWS) * ncols
    step = max(1, _BLOCK_ENTRIES // ncols)  # rref rows whose float copy modmul makes at once
    for _ in range(DRAW_ROUNDS):
        raw = np.frombuffer(rng.randbytes(draws.itemsize * size), dtype=draws.dtype)
        new = (raw % p).reshape(-1, ncols)
        # an rref row is zero at every other pivot, so the pivot entries
        # already moved leave the products of later rows as they were
        if p == 2:
            new[:, pivots] ^= _gf2_products(reduced, _pack_words(new)).T
        else:
            for i in range(0, len(reduced), step):
                at = pivots[i : i + step]
                product = modmul(reduced[i : i + step], new.T, p).T
                new[:, at] = (np.take(new, at, axis=1).astype(np.int64) - product) % p
        draws = np.concatenate([draws, new])
        ba = modmul(draws[:, ncols // 2 :], draws[:, : ncols // 2].T, p).astype(np.int64)
        keep = rref((ba - ba.T) % p, p)[1]  # G_ij = b_i.a_j - a_i.b_j
        if len(keep) >= count:
            break
    return draws[keep]


def _gf2_products(rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """rows @ draws.T over GF(2), both as _pack_words words: the parity of popcount(AND).

    The ANDed words of a pair are XORed into one before the popcount,
    which keeps the parity of their sum and counts one word, not a row's
    (0.69 s against 1.11 s for 2,400 rows and 1,608 draws of 100 words,
    one core).
    Runs over blocks of rows whose AND temporary holds at most
    _AND_BYTES, or one row's, the size of the packed draws.
    """
    out = np.empty((len(rows), len(draws)), dtype=np.uint8)
    step = max(1, _AND_BYTES // max(1, draws.nbytes))
    for i in range(0, len(rows), step):
        folded = np.bitwise_xor.reduce(rows[i : i + step, None] & draws, axis=-1)
        out[i : i + step] = np.bitwise_count(folded) & 1
    return out
