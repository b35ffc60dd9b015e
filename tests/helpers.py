"""Test-only helpers: fixtures, Pauli algebra and the classical contrast.

Nothing in the CLI or the bench reaches these, so they live with the tests:

* toric lattice paths: edge sets on the lattice of qltc.zoo (see its
  convention), the string operators on them and their classification;
* random biregular graphs and circulant parity-check matrices, random or
  with repeated rows;
* the set-at-a-time ESU walk over connected qudit sets, the expansion
  scan's reference;
* the greedy t-independent constraint set drawn by numpy.random, the
  reference of the order graphs.Pcg64 reproduces;
* Pauli algebra the library does not need: the identity, inverse,
  power, the symplectic product, commutation and restriction, as plain
  functions, and the full matrix of a Pauli on the dense oracle; every
  two rows' symplectic product as one dense product, the oracle of
  fieldmath.Sites.pairs;
* group membership with its phase: the coefficients of a row-space
  member, the left kernel, the phase of the product of the generators a
  coefficient vector names and phases that clear every relation: the
  oracle of the phase the elimination carries;
* the dense Gauss-Jordan loop (`rref_int64`), the one elimination the
  oracles run, and the standard form from it: the oracle of
  fieldmath.rref, with rows of residues packed into words of
  field_width(p)-bit fields by Python ints, and unpacked back, and the
  dense matrix of a map's Sites, which rref and RowSpace take;
* the right kernel of a matrix, as RowSpace once held it: the oracle of
  membership in the row space, which the library decides by logicals;
* the join of the weight search on dense image rows, one residue a
  byte or two, reduced by a wrap-around minimum: the oracle of the keyed
  join, with the search's weights, caps and counts around it;
* the coset weight of a syndrome as an integer program (d = 2), the
  reference of the weight searches past the weights they exhaust;
* the classical contrast: parity codes on a bipartite graph and the
  exhaustive unique-neighbour soundness scan;
* r at one coset weight of a soundness profile;
* a Pauli's matrix applied to states and the energy of one state, and
  from them the penalty/energy identity on the dense oracle's
  Hamiltonian and the per-Pauli and per-sample loops of the dense
  verifier's checks: the oracles of its batched slices.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from qltc import search
from qltc.attacks import SoundnessProfile
from qltc.dense import TOL, _check_cap, _monomial, _system
from qltc.fieldmath import Sites, field_width, residue_dtype, residues
from qltc.graphs import BipartiteGraph, Pcg64
from qltc.pauli import PauliOp, nonidentity_symbols
from qltc.stabilizer import StabilizerCode
from qltc.zoo import toric_edge_indices


# --- Pauli algebra ----------------------------------------------------------

def identity(n: int, d: int) -> PauliOp:
    return PauliOp(d, n, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), 0)


def act(op: PauliOp, states: np.ndarray) -> np.ndarray:
    """op's matrix @ states for a (dim,) or (dim, K) array, without forming the matrix."""
    rows, entries = _monomial(op)
    out = np.empty(states.shape, dtype=complex)
    out[rows] = (entries * states.T).T
    return out


def densify(op: PauliOp) -> np.ndarray:
    """Full matrix of a Pauli; exact homomorphism densify(a*b)=densify(a)@densify(b)."""
    return act(op, np.eye(_check_cap(op.d, op.n)))


def inverse(p: PauliOp) -> PauliOp:
    # (Z^z X^x)^-1 = X^-x Z^-z = w^{-x*z} Z^-z X^-x per site
    phase = (-p.phase - int(np.dot(p.x, p.z))) % p.d
    return PauliOp(p.d, p.n, (-p.x) % p.d, (-p.z) % p.d, phase)


def power(p: PauliOp, e: int) -> PauliOp:
    """Literal e-fold product (no exponent reduction: g^d may be a scalar)."""
    if e < 0:
        return power(inverse(p), -e)
    result = identity(p.n, p.d)
    for _ in range(e):
        result = result.multiply(p)
    return result


def symplectic_product(a: PauliOp, b: PauliOp) -> int:
    """<a,b> = sum_i a.z_i b.x_i - a.x_i b.z_i  (mod d).

    Zero iff the operators commute; equals the phase-exponent difference
    between a*b and b*a, so ab = w^{<a,b>} ba as dense matrices.
    """
    a._check_compat(b)
    return int(np.dot(a.z, b.x) - np.dot(a.x, b.z)) % a.d


def commutes_with(a: PauliOp, b: PauliOp) -> bool:
    return symplectic_product(a, b) == 0


def symplectic_pairs(matrix: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries (a, b, value), a < b, of (M_z M_x^T - M_x M_z^T) mod p, in (a, b)
    order: every two rows' symplectic product, dense (the oracle of Sites.pairs)."""
    m = np.asarray(matrix, dtype=np.int64)
    n = m.shape[1] // 2
    gram = (m[:, n:] @ m[:, :n].T - m[:, :n] @ m[:, n:].T) % p
    a, b = np.nonzero(np.triu(gram, 1))
    return a, b, gram[a, b]


def restrict(p: PauliOp, sites: Iterable[int]) -> PauliOp:
    """Zero the x/z parts outside `sites`; the scalar phase is carried whole."""
    keep = np.zeros(p.n, dtype=bool)
    for s in sites:
        if not 0 <= s < p.n:
            raise IndexError(f"site {s} out of range for n={p.n}")
        keep[s] = True
    return PauliOp(p.d, p.n, np.where(keep, p.x, 0), np.where(keep, p.z, 0), p.phase)


# --- group membership -------------------------------------------------------

def rref_int64(mat, p):
    """The dense GF(p) Gauss-Jordan loop over the columns in order, full shape, in int64.

    Returns (R, pivots): R has mat's shape, its nonzero rows first, and
    pivots the pivot column of each.  The oracle of fieldmath.rref, through
    standard_form, and of every kernel here.
    """
    a = np.array(mat, dtype=np.int64)
    a %= p
    nrows, ncols = a.shape
    pivots = []
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
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def standard_form(mat, p):
    """fieldmath.rref's rows and pivots from rref_int64 on mat's columns in standard-form order.

    The order: the x columns, the z columns of the qudits that are not x
    pivots, then those of the x pivots.  The reduced form is unique for
    a column order, so rref must give exactly these: the nonzero rows,
    unpacked in int64, and the pivots, both in that order.
    """
    mat = np.asarray(mat)
    n = mat.shape[1] // 2
    x_pivots = rref_int64(mat[:, :n], p)[1]
    order = np.r_[np.arange(n), n + np.setdiff1d(np.arange(n), x_pivots), n + np.array(x_pivots, int)]
    reduced, pivots = rref_int64(mat[:, order], p)
    rows = np.zeros((len(pivots), 2 * n), dtype=np.int64)
    rows[:, order] = reduced[: len(pivots)]
    return rows, [int(order[c]) for c in pivots]


def kernel(matrix: np.ndarray, d: int) -> np.ndarray:
    """Basis (rows) of {w : matrix @ w = 0 mod d}, read off rref_int64(matrix) in residue_dtype(d).

    One row per free column, 1 there and 0 at the other free columns, minus
    the rref rows' entries at the pivots: a word v lies in the row space iff
    kernel @ v = 0.
    """
    dtype = residue_dtype(d)
    reduced, pivots = rref_int64(residues(matrix, d, dtype), d)
    ncols = reduced.shape[1]
    free = np.setdiff1d(np.arange(ncols), pivots)
    # filled transposed, so that each pivot's entries are written as one row
    kernel_t = np.zeros((ncols, free.size), dtype=dtype)
    kernel_t[free, np.arange(free.size)] = 1
    kernel_t[pivots] = -reduced[: len(pivots), free] % d
    return kernel_t.T


def sites_matrix(sites: Sites) -> np.ndarray:
    """The dense int64 matrix of a map's Sites, zero rows too: Sites.of's inverse."""
    out = np.zeros(sites.shape, dtype=np.int64)
    out[sites.row, sites.qudit] = sites.x
    out[sites.row, sites.shape[1] // 2 + sites.qudit] = sites.z
    return out


def pack_words(rows: np.ndarray, p: int = 2) -> np.ndarray:
    """Rows of residues mod p as uint64 words, as fieldmath.rref returns its rows.

    Entry j of a row is the field at bits w j .. w j + w - 1 of one Python
    int, w = field_width(p), and bit b of the int is bit b % 64 of word b // 64.
    """
    w = field_width(p)
    nwords = -(-rows.shape[1] * w // 64)
    out = np.zeros((len(rows), nwords), dtype=np.uint64)
    for i, row in enumerate(rows):
        v = sum(int(x) << w * j for j, x in enumerate(row))
        out[i] = [(v >> (64 * k)) & (2**64 - 1) for k in range(nwords)]
    return out


def unpack_words(words: np.ndarray, p: int, ncols: int) -> np.ndarray:
    """The int64 entries of rows packed as pack_words packs them: its inverse."""
    w = field_width(p)
    out = np.zeros((len(words), ncols), dtype=np.int64)
    for i, row in enumerate(words):
        v = sum(int(word) << (64 * k) for k, word in enumerate(row))
        out[i] = [v >> w * j & ((1 << w) - 1) for j in range(ncols)]
    return out


def _rref_with_transform(mat: np.ndarray, p: int):
    """rref of [mat | J], J the identity with its columns reversed: (pivots of mat, T).

    reduced = T' @ [mat | J], so T (T' with its columns back in row order
    of mat) has reduced[i, :ncols] = T[i] @ mat.  Reversing J makes each
    row of T below the rank pivot on the last row of mat it uses, a row
    that depends on earlier ones.
    """
    m, ncols = mat.shape
    augmented = np.zeros((m, ncols + m), dtype=np.int64)
    augmented[:, :ncols] = np.asarray(mat, dtype=np.int64) % p
    augmented[np.arange(m), ncols + m - 1 - np.arange(m)] = 1
    reduced, pivots = rref_int64(augmented, p)
    pivots = [c for c in pivots if c < ncols]
    return pivots, reduced[:, ncols:][:, ::-1]


def left_kernel(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of {c : c @ mat = 0 mod p}: one row per row of mat that depends
    on earlier rows, 1 there and 0 at the other dependent rows, in row order."""
    pivots, transform = _rref_with_transform(mat, p)
    return transform[len(pivots):][::-1]


def product_phase(sites: Sites, phases: np.ndarray, c: np.ndarray, d: int) -> int:
    """Phase exponent of g_0^{c_0} g_1^{c_1} ... g_{m-1}^{c_{m-1}}, in that order.

    sites and phases[i] = s_i describe the generators.  Each product moves
    an X past every later Z (PauliOp.multiply), so the phase is
    c.s - sum_i C(c_i, 2) x_i.z_i - sum_{i<j} c_i c_j x_i.z_j (mod d), and
    the last sum runs over pairs of generators at a shared qudit.
    """
    c = np.asarray(c, dtype=np.int64)
    cs = c[sites.row]
    own = cs * (cs - 1) // 2 % d * sites.x * sites.z
    a = cs * sites.x % d
    # the a of the earlier generators at the same qudit, summed
    earlier = np.cumsum(a) - a
    earlier -= earlier[sites.first]
    cross = earlier % d * (cs * sites.z % d)
    return int((c @ phases - own.sum() - cross.sum()) % d)


def phased_relation_generators(matrix: np.ndarray, phases, d: int) -> set[int]:
    """The generators that lie in a relation (c @ matrix = 0) whose product has a nonzero phase.

    The left-kernel oracle for commuting generators whose powers g^d are I:
    then the phase is linear on the relations, so some relation has a
    nonzero phase iff a basis row has.  If one has, every generator in the
    support of the relations lies in a phased one (a relation c with
    c_j != 0 and phase 0, plus a phased b with b_j = 0, is phased at j), so
    the set is empty or that support.
    """
    sites, phases = Sites.of(np.asarray(matrix)), np.asarray(phases, dtype=np.int64)
    kernel = left_kernel(matrix, d)
    if not any(product_phase(sites, phases, c, d) for c in kernel):
        return set()
    return set(np.flatnonzero(kernel.any(axis=0)).tolist())


def consistent_phases(matrix: np.ndarray, d: int) -> np.ndarray:
    """Phases of the rows under which no relation among them is a non-identity scalar.

    Each left-kernel row ends at its dependent row, with 1 there and 0 at
    the other dependent rows, so that row's phase alone cancels the product's.
    """
    sites = Sites.of(np.asarray(matrix))
    phases = np.zeros(len(matrix), dtype=np.int64)
    for c in left_kernel(matrix, d):
        phases[np.flatnonzero(c)[-1]] = -product_phase(sites, phases, c, d) % d
    return phases


def coefficients(mat: np.ndarray, p: int, v: np.ndarray) -> np.ndarray | None:
    """c with c @ mat = v mod p, zero at each row of mat that depends on earlier ones.

    None when v lies off the row space.  The first rank rows of T (see
    _rref_with_transform) combine mat's rows into the pivot rows of
    the reduced form of mat, each zero at every dependent row.
    """
    pivots, transform = _rref_with_transform(mat, p)
    # a row-space member is the sum of the pivot rows, each times its pivot entry
    v = np.asarray(v, dtype=np.int64) % p
    c = v[pivots] @ transform[: len(pivots)] % p
    return c if np.array_equal(c @ np.asarray(mat, dtype=np.int64) % p, v) else None


@dataclass(frozen=True)
class GroupMembership:
    """Result of a group-membership query.

    status: 'member' (phase-exact), 'phase_mismatch' (member up to a
    scalar), or 'not_in_span'.  coefficients is the certificate c with
    prod_i g_i^{c_i} matching E (up to the stated scalar precision).
    """

    status: str
    coefficients: np.ndarray | None = None
    phase_difference: int | None = None

    @property
    def in_span(self) -> bool:
        return self.status in ("member", "phase_mismatch")


def group_contains(code: StabilizerCode, e: PauliOp) -> GroupMembership:
    """Solve for E as a product of the generators and compare the product's phase."""
    if e.n != code.n or e.d != code.d:
        raise ValueError("operator does not match code dimensions")
    c = coefficients(code.symplectic_matrix, code.d, e.symplectic())
    if c is None:
        return GroupMembership("not_in_span")
    dphase = (e.phase - product_phase(code._sites, code._phases, c, code.d)) % code.d
    if dphase == 0:
        return GroupMembership("member", c, 0)
    return GroupMembership("phase_mismatch", c, dphase)


# --- the dense-image join: the oracle of search's keyed join -----------------

def image_dtype(d: int) -> np.dtype:
    """Least unsigned type that holds 2d, so a sum of two images below d never wraps."""
    return np.min_scalar_type(2 * d)


def site_images(sites: Sites, d: int, symbols) -> np.ndarray:
    """Image of the weight-1 word with symbol j at qudit q under a map, at row q*s + j,
    as one residue a row of the map: the rows search.site_keys packs."""
    m, n = sites.shape[0], sites.shape[1] // 2
    sym = np.array(symbols, dtype=np.int64)
    out = np.zeros((n, len(sym), m), dtype=image_dtype(d))
    out[sites.qudit[:, None], np.arange(len(sym)), sites.row[:, None]] = (
        np.outer(sites.x, sym[:, 0]) + np.outer(sites.z, sym[:, 1])) % d
    return out.reshape(n * len(sym), m)


def _image_rows(a: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque value, ordered as bytes."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()


def _wrap(x: np.ndarray, d: int) -> None:
    """x mod d in place, for unsigned x in [0, 2d): when x < d the unsigned
    x - d wraps to at least d + 1 > x, so min(x, x - d) is x mod d."""
    np.minimum(x, x - d, out=x)


def _images(words: np.ndarray, images: np.ndarray, d: int) -> np.ndarray:
    """Image rows of words given as site indices, reduced mod d after each add."""
    if not words.shape[1]:
        return np.zeros((words.shape[0], images.shape[1]), dtype=images.dtype)
    out = images[words[:, 0]]
    for col in words.T[1:]:
        out += images[col]
        _wrap(out, d)
    return out


def python_keys(rows: np.ndarray, w: int) -> list[list[int]]:
    """Key words of rows of residues, one Python int a 32-bit half: the
    reference of search's key layout (w bits a residue, 32 // w residues a
    half, at least two halves, an even number)."""
    e = 32 // w
    halves = max(1, -(-rows.shape[1] // e))
    halves += halves % 2
    out = []
    for row in np.asarray(rows).tolist():
        fields = [sum(v << (w * i) for i, v in enumerate(row[h * e: (h + 1) * e]))
                  for h in range(halves)]
        out.append([fields[j] | fields[j + 1] << 32 for j in range(0, halves, 2)])
    return out


def dense_meet(n, d, s, a, b, images, nz_images, target):
    """The join on dense image rows, one residue a byte or two: site indices
    of a solution of weight <= a + b, or None."""
    words_b = search._half_table(n, s, b)
    need = _images(words_b, images, d)
    np.subtract(target + d, need, out=need)
    _wrap(need, d)
    order = np.argsort(_image_rows(need), kind="stable")
    need = _image_rows(need)[order]
    words_b = words_b[order]
    words_a = words_b if a == b else search._half_table(n, s, a)
    probe = _image_rows(_images(words_a, images, d))
    j = np.searchsorted(need, probe)
    np.minimum(j, need.size - 1, out=j)
    hits = np.flatnonzero(need[j] == probe)
    if nz_images is not None:
        pairs = np.concatenate([words_a[hits], words_b[j[hits]]], axis=1)
        hits = hits[_images(pairs, nz_images, d).any(axis=1)]
    if not hits.size:
        return None
    return np.concatenate([words_a[hits[0]], words_b[j[hits[0]]]])


def dense_min_weight_vector(n, d, w_max, matrix: Sites, target, nonzero: Sites | None = None,
                            budget=None, symbol_sets=(None,)) -> search.SearchResult:
    """search.min_weight_vector on dense_meet: the same weights, caps and counts."""
    target = np.asarray(target).astype(np.int64) % d
    rows = target.size + (0 if nonzero is None else nonzero.shape[0])
    row_bytes = image_dtype(d).itemsize * rows
    target = target.astype(image_dtype(d))
    sets = [nonidentity_symbols(d) if sym is None else list(sym) for sym in symbol_sets]
    tested = 0
    for w in range(1, min(w_max, n) + 1):
        a, b = (w + 1) // 2, w // 2
        for symbols in sets:
            size_a = search.candidates_at_weight(n, d, a, symbols)
            need = size_a + (search.candidates_at_weight(n, d, b, symbols) if b != a else 0)
            over_budget = budget is not None and tested + need > budget
            if over_budget or search._join_bytes(size_a, a, b, row_bytes) > search.HALF_TABLE_BYTES:
                return search.SearchResult(None, None, w - 1, tested, True)
            tested += need
            images = [None if f is None else site_images(f, d, symbols) for f in (matrix, nonzero)]
            sites = dense_meet(n, d, len(symbols), a, b, *images, target)
            if sites is not None:
                v = np.zeros(2 * n, dtype=np.int64)
                for r in sites:
                    q, j = divmod(int(r), len(symbols))
                    v[q] += symbols[j][0]
                    v[q + n] += symbols[j][1]
                return search.SearchResult(w, v % d, w - 1, tested, False)
    return search.SearchResult(None, None, w_max, tested, False)


# --- coset weight by integer program -----------------------------------------

def ilp_coset_weight(code: StabilizerCode, target: np.ndarray) -> int:
    """Least weight of a word with syndrome target, solved as an integer program.

    With S the code's syndrome map (m x 2n, entries in [0, d)): minimise
    sum(y) subject to S (x | z) - d k = target, x <= (d - 1) y and
    z <= (d - 1) y, where x and z lie in [0, d - 1]^n, y in {0, 1}^n and k
    is an integer vector >= 0 (the slack that makes the equation hold mod
    d).  The solver's word is re-checked exactly, its syndrome by
    syndrome_batch and its weight by count against the rounded objective,
    so the value is the weight of a word that has the syndrome; that no
    lighter word has it rests on HiGHS's optimality proof.  A check that
    fails raises, also under python -O.
    """
    d, m, n = code.d, code.m, code.n
    target = np.asarray(target, dtype=np.int64) % d
    eye, none, no_k = np.eye(n), np.zeros((n, n)), np.zeros((n, m))
    syndrome = np.hstack([code.syndrome_matrix, np.zeros((m, n)), -d * np.eye(m)])
    reach = (d - 1) * eye  # x <= (d - 1) y and z <= (d - 1) y: y marks a site's support
    cover = np.block([[eye, none, -reach, no_k], [none, eye, -reach, no_k]])
    res = milp(
        np.r_[np.zeros(2 * n), np.ones(n), np.zeros(m)],
        constraints=[LinearConstraint(syndrome, target, target),
                     LinearConstraint(cover, -np.inf, 0)],
        integrality=np.ones(3 * n + m),
        bounds=Bounds(0, np.r_[np.full(2 * n, d - 1), np.ones(n), np.full(m, np.inf)]),
    )
    if not res.success:
        raise RuntimeError(f"integer program failed: {res.message}")
    word = np.round(res.x[: 2 * n]).astype(np.int64)
    weight = round(res.fun)
    if np.any(code.syndrome_batch(word[None])[0] != target):
        raise AssertionError("the integer program's word has another syndrome")
    if np.count_nonzero(word[:n] | word[n:]) != weight:
        raise AssertionError(f"the word's weight is not the objective {res.fun}")
    return weight


# --- toric lattice paths ----------------------------------------------------

def string_error(L: int, edges: list[int], d: int = 2, kind: str = "z") -> PauliOp:
    """Z-type (primal path) or X-type (dual path) word on the given edges.

    An open simple path violates exactly the two checks at its endpoints;
    a contractible loop lies in the stabilizer group; a non-contractible
    loop is a logical operation.
    """
    n = 2 * L * L
    if len(set(edges)) != len(edges):
        raise ValueError("repeated edge in path")
    for e in edges:
        if not 0 <= e < n:
            raise ValueError(f"edge {e} out of range")
    vec = np.zeros(n, dtype=np.int64)
    vec[list(edges)] = 1
    zero = np.zeros(n, dtype=np.int64)
    if kind == "z":
        return PauliOp(d, n, zero, vec, 0)
    if kind == "x":
        return PauliOp(d, n, vec, zero, 0)
    raise ValueError(kind)


def vertex_path_edges(L: int, vertices: list[tuple[int, int]]) -> list[int]:
    """Edge indices of a lattice path given as consecutive vertices."""
    h, v = toric_edge_indices(L)
    edges = []
    for (r0, c0), (r1, c1) in zip(vertices, vertices[1:]):
        dr = (r1 - r0) % L
        dc = (c1 - c0) % L
        if dr == 0 and dc == 1:
            edges.append(h(r0, c0))
        elif dr == 0 and dc == L - 1:
            edges.append(h(r0, c0 - 1))
        elif dc == 0 and dr == 1:
            edges.append(v(r0, c0))
        elif dc == 0 and dr == L - 1:
            edges.append(v(r0 - 1, c0))
        else:
            raise ValueError(f"vertices ({r0},{c0}) and ({r1},{c1}) are not adjacent")
    return edges


def random_open_path(L: int, length: int, rng: np.random.Generator) -> list[int]:
    """Simple (self-avoiding) open vertex path; returns its edge indices."""
    if length < 1:
        raise ValueError("length must be >= 1")
    for _ in range(200):
        r, c = int(rng.integers(L)), int(rng.integers(L))
        path = [(r, c)]
        seen = {(r, c)}
        for _ in range(length):
            moves = [(0, 1), (0, -1), (1, 0), (-1, 0)]
            rng.shuffle(moves)
            for dr, dc in moves:
                nxt = ((r + dr) % L, (c + dc) % L)
                if nxt not in seen:
                    path.append(nxt)
                    seen.add(nxt)
                    r, c = nxt
                    break
            else:
                break
        if len(path) == length + 1:
            return vertex_path_edges(L, path)
    raise RuntimeError(f"could not sample a simple path of length {length} on L={L}")


def rectangle_loop_edges(L: int, r0: int, c0: int, height: int, width: int) -> list[int]:
    """Boundary of a height x width rectangle of faces (contractible loop)."""
    if not (1 <= height < L and 1 <= width < L):
        raise ValueError("rectangle must be strictly smaller than the torus")
    h, v = toric_edge_indices(L)
    edges = []
    for c in range(width):
        edges.append(h(r0, c0 + c))
        edges.append(h(r0 + height, c0 + c))
    for r in range(height):
        edges.append(v(r0 + r, c0))
        edges.append(v(r0 + r, c0 + width))
    return edges


def wrap_loop_edges(L: int, index: int, direction: str) -> list[int]:
    """Non-contractible loop wrapping the torus (horizontal or vertical)."""
    h, v = toric_edge_indices(L)
    if direction == "horizontal":
        return [h(index, c) for c in range(L)]
    if direction == "vertical":
        return [v(r, index) for r in range(L)]
    raise ValueError(direction)


def classify_string(code: StabilizerCode, e: PauliOp) -> str:
    """Trichotomy: 'open' (violates checks), 'stabilizer', or 'logical'."""
    if code.penalty(e) > 0:
        return "open"
    return "stabilizer" if group_contains(code, e).in_span else "logical"


# --- random graphs and matrices --------------------------------------------

def random_regular_bipartite(
    n: int, m: int, d_left: int, k: int, seed: int
) -> BipartiteGraph:
    """Configuration-model (D_L, k)-biregular graph; multi-edges repaired by swaps."""
    if n * d_left != m * k:
        raise ValueError(f"infeasible degrees: n*D_L = {n * d_left} != m*k = {m * k}")
    rng = np.random.default_rng(seed)
    left_stubs = np.repeat(np.arange(n), d_left)
    for _ in range(2000):
        right_stubs = np.repeat(np.arange(m), k)
        perm = rng.permutation(len(left_stubs))
        pairs = list(zip(left_stubs[perm], right_stubs))
        adj = [set() for _ in range(m)]
        conflicts = []
        for q, c in pairs:
            q, c = int(q), int(c)
            if q in adj[c]:
                conflicts.append((q, c))
            else:
                adj[c].add(q)
        ok = True
        for q, c in conflicts:
            # swap with a random existing edge that resolves the collision
            placed = False
            for _ in range(500):
                c2 = int(rng.integers(m))
                if c2 == c or not adj[c2]:
                    continue
                q2 = sorted(adj[c2])[int(rng.integers(len(adj[c2])))]
                if q2 != q and q not in adj[c2] and q2 not in adj[c]:
                    adj[c2].remove(q2)
                    adj[c2].add(q)
                    adj[c].add(q2)
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok and all(len(a) == k for a in adj):
            return BipartiteGraph(n, m, [sorted(a) for a in adj])
    raise RuntimeError("failed to build a simple biregular graph")


def regular_circulant_matrix(size: int, degree: int, seed: int) -> np.ndarray:
    """Square circulant 0/1 matrix with `degree` ones per row and column."""
    rng = np.random.default_rng(seed)
    offsets = rng.choice(size, size=degree, replace=False)
    mat = np.zeros((size, size), dtype=np.int64)
    for i in range(size):
        for off in offsets:
            mat[i, (i + int(off)) % size] = 1
    return mat


def paired_circulant_matrix(size: int) -> np.ndarray:
    """The size x size circulant with ones at i and i + size/2 (size even).

    Row i repeats as row i + size/2, so it and its transpose have kernels
    of dimension size/2, and its hypergraph product with itself has
    k' = 2 (size/2)^2: many logicals on few qudits.
    """
    mat = np.zeros((size, size), dtype=np.int64)
    mat[np.arange(size), np.arange(size)] = 1
    mat[np.arange(size), (np.arange(size) + size // 2) % size] = 1
    return mat


def paired_rows_matrix(pairs: int, seed: int) -> np.ndarray:
    """pairs / 4 rows on 2 pairs columns, each the column pairs (2q, 2q + 1) of two
    blocks of four q: row i's first block is 4i..4i + 3, its second four entries
    of a random permutation of the q, drawn until no row holds a q twice.

    Every two rows share an even number of columns, so the CSS code with
    Hx = Hz = this matrix commutes, and every column lies in two rows.  Its
    m = pairs / 2 generators fill in under elimination, so the standard-form
    logicals, 2k' = 3 pairs of them on n = 2 pairs qudits, are dense.
    """
    rng = np.random.default_rng(seed)
    first = np.arange(pairs).reshape(-1, 4)
    while True:
        second = rng.permutation(pairs).reshape(-1, 4)
        if not (first[:, :, None] == second[:, None, :]).any():
            break
    mat = np.zeros((pairs // 4, 2 * pairs), dtype=np.int64)
    rows = np.arange(pairs // 4)[:, None]
    for q in (first, second):
        mat[rows, 2 * q] = mat[rows, 2 * q + 1] = 1
    return mat


def greedy_t_independent(g: BipartiteGraph, t: int, target_size: int, seed: int = 0) -> list[int]:
    """BipartiteGraph.greedy_t_independent with its order drawn by numpy itself:
    np.random.default_rng(seed).permutation(m), then the first alive constraint
    taken and every constraint within distance 4t + 2 of it discarded."""
    order = np.random.default_rng(seed).permutation(g.m)
    alive = np.ones(g.m, dtype=bool)
    chosen: list[int] = []
    for u in order.tolist():
        if not alive[u]:
            continue
        chosen.append(u)
        if len(chosen) == target_size:
            break
        alive[list(g.gamma([u], "right", 4 * t + 2))] = False
    return chosen


def connected_sets(g: BipartiteGraph, size_cap: int, root: int):
    """Yield (set, |Gamma(set)|, degree total) once per connected set of at most
    size_cap qudits whose smallest qudit is root: the set-at-a-time reference
    of the expansion scan.

    ESU (Wernicke 2006): a set grows from its smallest qudit, the root.
    A qudit joins the extension only if it exceeds the root and is not
    excluded; the excluded set holds the set itself and every qudit
    ever put in an extension on the way down, so no set is reached
    twice.  Extensions are consumed from the end, and each set comes
    right before the sets grown from it.
    """
    adj = g.sharing_adjacency
    degs = [len(v) for v in g.left_adj]

    def gamma_size(qudits):
        return len(g.gamma(qudits, "left"))

    def extend(sub, ext, excluded, total):
        while ext:
            w = ext.pop()
            child, child_total = sub + [w], total + degs[w]
            yield child, gamma_size(child), child_total
            if len(child) < size_cap:  # a full-size set is never extended
                new = [u for u in adj[w] if u > root and u not in excluded]
                excluded.update(new)
                yield from extend(child, ext + new, excluded, child_total)
                excluded.difference_update(new)

    yield [root], gamma_size([root]), degs[root]
    if size_cap > 1:
        ext = [u for u in adj[root] if u > root]
        yield from extend([root], ext, {root, *ext}, degs[root])


# --- the classical contrast -------------------------------------------------

class ClassicalParityCode:
    """Bits on the left, parity checks on the right, over F_2."""

    def __init__(self, graph: BipartiteGraph):
        self.graph = graph
        self.n = graph.n
        self.m = graph.m
        self.parity_matrix = np.zeros((self.m, self.n), dtype=np.int64)
        for c, nbrs in enumerate(graph.right_adj):
            self.parity_matrix[c, nbrs] = 1

    def violations(self, bits: np.ndarray) -> int:
        return int(np.count_nonzero((self.parity_matrix @ bits) % 2))


def classical_soundness_check(code: ClassicalParityCode, weight_cap: int) -> dict:
    """Exhaustive unique-neighbor soundness scan over bit sets |S| <= cap.

    For every scanned S with eps(S) < 1/2 checks: violations >= |Gamma_1(S)|
    and |Gamma_1(S)| >= (1 - 2 eps(S)) |S| D_L.  Reports the minimum
    relative soundness violations/(|S| D_L) per set size.
    """
    g = code.graph
    if g.D_L is None:
        raise ValueError("classical soundness scan expects a left-regular graph")
    total = sum(math.comb(code.n, s) for s in range(1, weight_cap + 1))
    if total > 5_000_000:
        raise ValueError(f"scan of {total} sets infeasible; lower the cap")
    min_r = {}
    per_set_ok = True
    scanned = 0
    for s in range(1, weight_cap + 1):
        best = None
        for subset in itertools.combinations(range(code.n), s):
            scanned += 1
            stats = g.expansion_stats(subset)
            bits = np.zeros(code.n, dtype=np.int64)
            bits[list(subset)] = 1
            viol = code.violations(bits)
            if viol < stats.unique_neighbors:
                per_set_ok = False
            eps = stats.epsilon
            if eps < 0.5 and stats.unique_neighbors < (1 - 2 * eps) * s * g.D_L - 1e-9:
                per_set_ok = False
            r = viol / (s * g.D_L)
            if best is None or r < best:
                best = r
        min_r[s] = best
    return {
        "kind": "exact",
        "sets_scanned": scanned,
        "bounds_hold": per_set_ok,
        "min_relative_soundness": min_r,
    }


# --- soundness profile and dense energies -----------------------------------

def r_at_coset_weight(profile: SoundnessProfile, w: int) -> float:
    """Exact minimum r over errors of coset weight exactly w."""
    delta = w / profile.n
    return (profile.min_penalty[w] / profile.m) / min(profile.k * delta, 1.0)


def energy(state: np.ndarray, h: np.ndarray, m: int) -> float:
    """(1/m) <psi|h|psi> for a normalized state; with h the code's Hamiltonian
    sum_g Pi_g over its m generators, this lies in [0, 1]."""
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state not normalized (norm {norm})")
    return float(np.real(np.vdot(state, h @ state))) / m


def displaced_codeword_energy(code: StabilizerCode, e: PauliOp, which: int = 0) -> float:
    """Mean energy of E|eta> for the which-th codespace basis vector.

    Independent of the choice of codeword (the syndrome fixes the
    eigenvalues); equals penalty(E)/m, which the test suite asserts.
    """
    h, basis = _system(code)
    state = act(e, basis[:, which])
    state = state / np.linalg.norm(state)
    return energy(state, h, code.m)


def verify_energy_identity(code: StabilizerCode, errors: list[PauliOp]) -> dict:
    """Check that the mean energy of E|eta> is penalty(E)/m for each error, all codewords."""
    h, basis = _system(code)
    max_dev = 0.0
    for e in errors:
        displaced = act(e, basis)
        displaced /= np.linalg.norm(displaced, axis=0)
        expected = code.penalty(e) / code.m
        for state in displaced.T:
            max_dev = max(max_dev, abs(energy(state, h, code.m) - expected))
    return {"errors_checked": len(errors), "max_deviation": max_dev, "passed": max_dev <= TOL}


def detectability_loop(code: StabilizerCode, rho: int) -> dict:
    """dense.verify_detectability one Pauli at a time: B^dag (E B) per word of
    search.candidate_batches, the oracle of its batched slices."""
    basis = _system(code)[1]
    basis_dag = basis.conj().T
    eye = np.eye(basis.shape[1])
    max_residual = 0.0
    checked = 0
    violator = None
    weights = range(1, min(rho, code.n + 1))  # no Pauli on n qudits is heavier than n
    batches = (b for w in weights for b in search.candidate_batches(code.n, code.d, w))
    for v in (v for batch in batches for v in batch):
        e = PauliOp(code.d, code.n, v[: code.n], v[code.n :])
        m = basis_dag @ act(e, basis)
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


def equivalence_loop(code: StabilizerCode, samples: int, seed: int = 0) -> dict:
    """dense.verify_sltc_qltc_equivalence one sample and one pair at a time, each
    pair found by comparing syndromes afresh: the oracle of its batched slices."""
    rng = Pcg64(seed)
    h, basis = _system(code)
    eta = basis[:, 0]
    max_forward = 0.0
    errs = []
    for _ in range(samples):
        x = rng.integers(code.d, size=code.n)
        z = rng.integers(code.d, size=code.n)
        e = PauliOp(code.d, code.n, x, z, rng.integers(code.d))
        errs.append(e)
        state = act(e, eta)
        state /= np.linalg.norm(state)
        dev = abs(energy(state, h, code.m) - code.penalty(e) / code.m)
        max_forward = max(max_forward, dev)
    # backward: two-coset superposition
    max_backward = 0.0
    pairs = 0
    for i in range(len(errs)):
        for j in range(i + 1, len(errs)):
            if np.array_equal(code.syndrome(errs[i]), code.syndrome(errs[j])):
                continue
            a, b = 0.6, 0.8
            state = a * act(errs[i], eta) + b * act(errs[j], eta)
            state /= np.linalg.norm(state)
            expected = (a * a * code.penalty(errs[i]) + b * b * code.penalty(errs[j])) / code.m
            max_backward = max(max_backward, abs(energy(state, h, code.m) - expected))
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
