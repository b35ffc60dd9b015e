"""Exact linear algebra over the prime field GF(p).

All matrices are 2-D numpy integer arrays with entries reduced mod p;
the ones held are in `residue_dtype(p)` (uint8 below 256), and every
product or subtraction widens them first.
`modmul` is the dense product of batches of words (their syndromes,
membership); it returns residues in `residue_dtype(p)`, one byte an entry
below 256.  It runs in float32 or float64 BLAS only: `check_prime` admits
primes below 2**16 alone, and below that every product of an admissible
width is exact in float64.  `Sites` is a map on symplectic words as its
nonzero (row, qudit) sites, the one form in which a code is held, from its
builder through its elimination.  `Sites.pairs`, every two rows'
symplectic product summed over the qudits they share, is the one kernel
that certifies a code (commutation, the logicals' products and Gram
form), a block of rows at a time however many rows meet at a qudit;
`Sites.block` is a map's dense block at a few qudits, all that a batch
product reads of it.
`rref` is the one elimination routine: it brings a code's sites to
Gottesman's standard form and returns its nonzero reduced rows, packed
into uint64 words, with their pivots.  `RowSpace` runs it once, on a
code's sites, reads rank and pivots off it and its 2k' logicals, the
kernel rows at the qudits that are no pivot: with a zero syndrome, a word
lies in the row space iff its products with them vanish.
Given the rows' Pauli phases, the elimination carries them too (over
GF(2) the phase bit of Aaronson and Gottesman, arXiv:quant-ph/0406196; at
odd p the Weyl phase, Gross, arXiv:quant-ph/0602001) and names the first
generator of a relation whose phase is nonzero: the phase obstruction.
It runs on rows packed from the sites as fields of `field_width(p)` bits,
one Python int a row (M4RI, Albrecht, Bard and Hart, arXiv:0811.1714;
M4RIE, Albrecht, arXiv:1111.6900): over GF(2) a row operation is one XOR,
at odd p a few operations on the whole int add rows mod p field by field
(SWAR, as in Boothby and Bradshaw, arXiv:0901.1413).  The pivot rows are
written as uint64 words, and the logicals' pivot entries are their fields
at the free columns, so no dense copy of the matrix or its reduced form is made.
`InputError` is the one bad-input type.  The checks on outside input,
here (`check_prime`) and in `zoo`, `stabilizer` and the CLI, raise it or
its subclass `CodeValidationError`, which is also a `ValueError`.
"""

from __future__ import annotations

from typing import NamedTuple

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
# Sites.pairs sums the terms of about this many site pairs at once
PAIR_TERMS = 2**17


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
    elif a.dtype == dtype and (a.size == 0 or ((kind == "u" or a.min() >= 0) and a.max() < p)):
        return a  # an unsigned type holds no negative entry, so only its max is read
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


def field_width(p: int) -> int:
    """Bits of an entry's field in a packed GF(p) row; at odd p the top one keeps a sum's carry."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def _field_ops(p: int, count: int):
    """add and times on rows of count fields of field_width(p) bits, p odd: u + v mod p
    field by field, with no carry between fields, and k v for 1 <= k < p by double-and-add."""
    top = field_width(p) - 1
    ones = ((1 << (top + 1) * count) - 1) // ((1 << top + 1) - 1)  # a 1 at the base of each field
    over = ((1 << top) - p) * ones  # lifts a field's sum to bit top iff it is p or more

    def add(u: int, v: int) -> int:
        s = u + v
        return s - p * ((s + over) >> top & ones)

    def times(v: int, k: int) -> int:
        acc = v
        for bit in bin(k)[3:]:
            acc = add(acc, acc)
            if bit == "1":
                acc = add(acc, v)
        return acc

    return add, times


def rref(sites: "Sites", p: int, phases=None) -> tuple[np.ndarray, list[int], int | None]:
    """The one elimination, to Gottesman's standard form: reduced rows, pivots, obstruction.

    sites is the m x 2n map of the rows (x | z), residues at its sites.
    Each row is one Python int, entry j in the w = field_width(p) bits
    from w j, packed entry by entry in one loop at every p: over GF(2)
    adding rows is one XOR, at odd p _field_ops' add, and a row's pivot is
    its lowest nonzero field.  The columns are taken in the order of the
    standard form: the x columns, then the z columns of the qudits that
    are not x pivots, then those of the x pivots, which only rows that do
    not commute reach.  Returns (R, pivots, obstruction):
    R is the rank nonzero rows of the reduced form, in that pivot order,
    as little-endian uint64 words, field j at bits w j .. w j + w - 1;
    pivots the pivot column of each.  Given phases, the rows are commuting
    generators, and obstruction is the least generator that, times earlier
    ones, is a scalar other than 1, else None: a row reduces to zero, or
    to its phase alone, iff it lies in the span of the earlier rows.  At
    odd p the Weyl phase s + x.z/2 adds over commuting products: it is
    field 2n, never a pivot.  Over GF(2) v ^= b adds x_v.z_b to v's phase bit.
    """
    nrows, ncols = sites.shape
    n = ncols // 2
    w = field_width(p)
    fmask = (1 << w) - 1
    bit_signs = w == 1 and phases is not None
    weyl = w > 1 and phases is not None  # the Weyl phase, in field ncols
    entries = np.r_[sites.x, sites.z]  # a site's x at field q, its z at field n + q
    on = np.flatnonzero(entries)
    rows, fields = [0] * nrows, np.r_[sites.qudit, n + sites.qudit][on]
    for r, shift, v in zip(np.tile(sites.row, 2)[on].tolist(), (w * fields).tolist(),
                           entries[on].tolist()):
        rows[r] |= v << shift
    if w > 1:
        add, times = _field_ops(p, ncols + weyl)
    if weyl:
        xz = np.bincount(sites.row, sites.x * sites.z, nrows).astype(np.int64) % p
        for r, s in enumerate(((xz * ((p + 1) // 2) + phases) % p).tolist()):
            rows[r] |= s << w * ncols
    signs = (np.asarray(phases) & 1).tolist() if bit_signs else [0] * nrows
    basis: dict[int, int] = {}
    z_sign: dict[int, tuple[int, int]] = {}  # over GF(2), an x pivot row's z half and phase bit
    relations = []  # rows that reduce to a nonzero phase

    def eliminate(v, c):  # odd p: v less its field c times the pivot row of c
        return add(v, times(basis[c], p - (v >> w * c & fmask)))

    def echelon(queue, first, stop):  # rows (i, v, phase bit) that reach field stop are returned
        rest = []
        for i, v, s in queue:
            while v:
                low = v & first or v
                c = ((low & -low).bit_length() - 1) // w
                if c >= stop:
                    rest.append((i, v, s))
                    break
                if c not in basis:  # kept with its leading entry 1
                    basis[c] = v if w == 1 else times(v, inv_mod(v >> w * c & fmask, p))
                    z_sign[c] = (v >> n if bit_signs and c < n else 0, s)
                    break
                if bit_signs:
                    z, t = z_sign[c]
                    s ^= t ^ (v & z).bit_count() & 1
                v = v ^ basis[c] if w == 1 else eliminate(v, c)
            if s and not v:  # generator i times earlier ones is -I
                relations.append(i)
        return rest

    # the x phase: each row until it brings an x pivot or has no x part left
    pure_z = echelon(zip(range(nrows), rows, signs), 0, n)
    # the z phase: the pure-z rows, first on the z fields of the other qudits;
    # a row that reaches field 2n is its Weyl phase alone
    first = (((1 << w * n) - 1) & ~sum(fmask << w * c for c in basis)) << w * n
    relations += [i for i, _, _ in echelon(pure_z, first, ncols)]
    late = [c for c in basis if c - n in basis]  # at the z of x pivots
    del rows, z_sign, pure_z
    if weyl:  # the phases have named their relations
        basis = {c: v & (1 << w * ncols) - 1 for c, v in basis.items()}
    # back-substitution, in reverse pivot order: a row only meets pivots after
    # its own, whose rows are already reduced, so each nonzero pivot field costs one row update
    pivots = sorted(basis.keys() - late) + sorted(late)
    pivot_mask = 0  # the fields of the reduced pivots
    for c in reversed(pivots):
        v = basis[c]
        hits = v & pivot_mask
        while hits:
            j = ((hits & -hits).bit_length() - 1) // w
            v = v ^ basis[j] if w == 1 else eliminate(v, j)
            hits = v & pivot_mask
        basis[c] = v
        pivot_mask |= fmask << w * c
    width = -(-ncols * w // 64) * 8
    rows = bytearray(width * len(pivots))
    for i, c in enumerate(pivots):
        rows[i * width : (i + 1) * width] = basis.pop(c).to_bytes(width, "little")
    words = np.frombuffer(rows, dtype="<u8").reshape(len(pivots), width // 8)
    return words, pivots, min(relations, default=None)


class Sites(NamedTuple):
    """A map on symplectic words, shape r x 2n, as its nonzero (row, qudit) sites.

    By qudit, then row: x, z are the map's entries in columns q and n + q
    at site (row, q), in int64; first[i] indexes the first site of
    qudit[i], so each qudit's sites run from first[i] in row order.
    """

    row: np.ndarray
    qudit: np.ndarray
    x: np.ndarray
    z: np.ndarray
    first: np.ndarray
    shape: tuple[int, int]

    @staticmethod
    def at(row, qudit, x, z, shape: tuple[int, int]) -> "Sites":
        """The map of the given shape with entries x, z at the distinct sites (row, qudit)."""
        order = np.argsort(qudit * shape[0] + row, kind="stable")  # above: two sorted runs
        qudit = qudit[order]
        x, z = (np.asarray(v)[order].astype(np.int64, copy=False) for v in (x, z))
        return Sites(row[order], qudit, x, z, np.searchsorted(qudit, qudit), shape)

    @staticmethod
    def of(matrix: np.ndarray) -> "Sites":
        n = matrix.shape[1] // 2
        row, qudit = np.divmod(np.flatnonzero(np.logical_or(matrix[:, :n], matrix[:, n:])), n)
        return Sites.at(row, qudit, matrix[row, qudit], matrix[row, qudit + n], matrix.shape)

    def above(self, below: "Sites") -> "Sites":
        """This map with the rows of below under its own, on the same words."""
        shape = (self.shape[0] + below.shape[0], self.shape[1])
        below = below._replace(row=below.row + self.shape[0])
        return Sites.at(*(np.r_[a, b] for a, b in zip(self[:4], below[:4])), shape)

    def pairs(self, p: int, since: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays a, b, value: each pair of rows a < b, in (a, b) order, whose product
        z_a.x_b - x_a.z_b, summed over the qudits they share, is nonzero mod p; given
        since, only the pairs with b >= since.  The terms are summed for a block of
        rows a of about PAIR_TERMS terms at a time, so each block's pairs are complete;
        a term sorts as one int64, its pair's key a r + b above it mod p."""
        r, n, row, bits = self.shape[0], self.shape[1] // 2, self.row, int(p - 1).bit_length()
        if r * r << bits >= 1 << 63:
            raise ValueError(f"{r} rows: a pair's key and product do not fit one int64")
        # a site's terms are with the sites start..end - 1 of its qudit: the later ones,
        # or given since, for a row before it, those of the rows from since on
        end = self.first + np.bincount(self.qudit, minlength=n)[self.qudit]
        start = np.arange(1, row.size + 1)
        if since is not None:
            early = row < since
            before = np.bincount(self.qudit[early], minlength=n)  # a qudit's sites before since
            start[early] = self.first[early] + before[self.qudit[early]]
        count = end - start
        upto, done = np.bincount(row, count, r).cumsum(), 0  # the terms of rows 0..a, before lo
        keys, sums, lo = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], 0
        while lo < r:
            hi = max(int(np.searchsorted(upto, done + PAIR_TERMS, "right")), lo + 1)
            s = np.flatnonzero(count if hi - lo == r else (row >= lo) & (row < hi))
            c = count[s]
            i = np.repeat(s, c)
            j = np.arange(i.size) + np.repeat(start[s] - np.cumsum(c) + c, c)
            t = np.sort((row[i] * r + row[j]) << bits
                        | (self.z[i] * self.x[j] - self.x[i] * self.z[j]) % p)
            head = np.flatnonzero(np.diff(t >> bits, prepend=-1))  # each pair's first term
            total = np.add.reduceat(t & ((1 << bits) - 1), head) % p
            keys.append(t[head][total != 0] >> bits)
            sums.append(total[total != 0])
            lo, done = hi, upto[hi - 1]
        a, b = np.divmod(np.concatenate(keys), r)
        return a, b, np.concatenate(sums)

    def block(self, qudits: np.ndarray, dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
        """(rows, B): the rows of this map with a site at one of the sorted qudits, in
        order, and B their entries there in dtype, the x column of each qudit, then its z
        column.  At every qudit, B is the dense map when each row has a site."""
        lo = np.searchsorted(self.qudit, qudits)
        count = np.searchsorted(self.qudit, qudits, "right") - lo
        col = np.repeat(np.arange(len(qudits)), count)
        i = np.arange(col.size) + np.repeat(lo - np.cumsum(count) + count, count)
        rows, at = np.unique(self.row[i], return_inverse=True)
        out = np.zeros((len(rows), 2 * len(qudits)), dtype=dtype)
        out[at, col], out[at, col + len(qudits)] = self.x[i], self.z[i]
        return rows, out

    def image(self, x: np.ndarray, z: np.ndarray, p: int) -> np.ndarray:
        """This map applied to the word (x | z), mod p in int64, summed over the word's qudits."""
        wx, wz = x[self.qudit], z[self.qudit]
        act = np.flatnonzero(wx | wz)
        terms = self.x[act] * wx[act] + self.z[act] * wz[act]  # < 2**32: float64 sums n exactly
        return np.bincount(self.row[act], terms, self.shape[0]).astype(np.int64) % p


class RowSpace:
    """Row space A of m commuting generators (x | z) over GF(p), from one elimination.

    The rows must commute (StabilizerCode checks that before it builds
    one), so A lies in Z, the words of zero syndrome, and A is the
    symplectic complement of Z; Z / A has dimension 2k', k' = n - rank.

    rank, pivots  -- rank and pivot columns of rref(sites), in its order
    obstruction   -- given the rows' Pauli phases, the least generator that,
                     times earlier ones, is a scalar other than 1, or None
                     (see rref); the same rule at every p
    logicals      -- 2k' rows of ker(M), M the m x 2n matrix, read-only in
                     residue_dtype(p)
    logical_sites -- the logicals as Sites
    map           -- the syndrome map, rows (z | -x), with the logicals below
                     it: a word v lies in A iff map v = 0

    A row w = (a | b) of ker(M) is the word (b | -a) of Z, and w.v is
    minus the symplectic product of that word with v.  The logicals are
    read off rref's standard form (Gottesman, arXiv:quant-ph/9705052
    section 4.1; for qudits Gheorghiu, arXiv:1101.1519): F is the k'
    qudits that are neither an x nor a z pivot, and the logicals are the
    kernel rows e_f - sum_i R[i, f] e_{pivot i} at the x columns of F,
    then at their z columns.  Their Gram matrix G_ij = b_i.a_j - a_i.b_j,
    their words' symplectic products, is then [[0, -I], [I, 0]]: their
    words are independent modulo A and span Z modulo A, so a word v of Z
    lies in A iff logicals @ v = 0.  One call of map.pairs(p, since=m)
    certifies them: it raises ValueError unless no generator and logical
    have a nonzero product and the logicals' pairs are exactly
    (m + i, m + i + k', -1).
    """

    def __init__(self, sites: Sites, p: int, phases: np.ndarray | None = None):
        self.p = p
        m, n = sites.shape[0], sites.shape[1] // 2
        reduced, self.pivots, self.obstruction = rref(sites, p, phases)
        self.rank = len(self.pivots)
        if self.rank > n:
            raise ValueError(f"rank {self.rank} on {n} qudits: the rows do not commute")
        self.logicals = _standard_logicals(reduced, self.pivots, p, n)
        del reduced
        self.logicals.setflags(write=False)
        self.logical_sites = Sites.of(self.logicals)
        self.map = sites._replace(x=sites.z, z=-sites.x % p).above(self.logical_sites)
        a, b, value = self.map.pairs(p, since=m)
        if a.size and a[0] < m:  # the pairs come in (a, b) order: the cross ones first
            raise ValueError(f"logical {b[0] - m} has a nonzero product with generator {a[0]}")
        k = n - self.rank
        form = m + np.arange(k), m + np.arange(k, 2 * k), np.full(k, p - 1)  # G[i, i + k'] = -1
        if len(self.logicals) != 2 * k or not all(map(np.array_equal, (a, b, value), form)):
            raise ValueError(f"the Gram matrix of the logicals is not the form of 2k' = {2 * k}")

    def contains_batch(self, vs: np.ndarray) -> np.ndarray:
        """Boolean mask over rows of vs: zero image under map, the syndrome and the logicals.

        Entries reduce mod p through `residues`, so a negative entry counts
        as its residue and a non-integer one is refused.  Only the columns
        where some row of vs is nonzero enter the product, read off map's
        block at their qudits, so a sparse word costs a few of its sites.
        """
        p, n = self.p, self.map.shape[1] // 2
        vs = residues(vs, p, residue_dtype(p))
        cols = np.flatnonzero(vs.any(axis=0))
        qudits, at = np.unique(cols % n, return_inverse=True)
        block = self.map.block(qudits)[1][:, at + len(qudits) * (cols >= n)]
        return ~np.any(modmul(vs[:, cols], block.T, p), axis=1)


def _standard_logicals(reduced: np.ndarray, pivots: list[int], p: int, n: int) -> np.ndarray:
    """The kernel rows e_f - sum_i R[i, f] e_{pivot i}, f the x, then the z, columns of F.

    F is the qudits that are neither kind of pivot; reduced is rref's
    rows, whose fields at F are gathered straight from the words' bytes
    (a byte past a row's end reads as its last, whose bits lie above the
    field).  The rows are filled transposed, each pivot's entries as one row.
    """
    pivots = np.asarray(pivots, dtype=np.intp)
    free = np.ones(n, dtype=bool)
    free[pivots % n] = False
    free = np.flatnonzero(free)
    cols = np.concatenate([free, free + n])
    w, data = field_width(p), reduced.view(np.uint8)
    start, shift = np.divmod(w * cols, 8)
    wide = np.min_scalar_type((1 << w + 7) - 1)  # holds the bytes a field meets
    fields = data[:, start].astype(wide, copy=False)
    for t in range(1, (w + 14) // 8):
        fields |= np.left_shift(data.take(start + t, axis=1, mode="clip"), 8 * t, dtype=wide)
    fields >>= shift.astype(wide)
    fields &= (1 << w) - 1
    np.subtract(p, fields, out=fields)  # negated mod p: p - f, which is p only at f = 0
    np.multiply(fields, fields != p, out=fields)
    logicals_t = np.zeros((2 * n, len(cols)), dtype=residue_dtype(p))
    logicals_t[cols, np.arange(len(cols))] = 1
    logicals_t[pivots] = fields
    return np.ascontiguousarray(logicals_t.T)
