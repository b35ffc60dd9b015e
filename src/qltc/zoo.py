"""Concrete code families and classical comparison codes.

Toric lattice convention (fixed for reproducible paths): qubits live on
the edges of an L x L periodic lattice, row-major.  Horizontal edge
h(r,c) = r*L + c runs from vertex (r,c) to (r, c+1 mod L); vertical edge
v(r,c) = L^2 + r*L + c runs from (r,c) to (r+1 mod L, c).  For d > 2 the
edges are oriented (+x, +y) and generators carry inverse exponents on
outgoing/return edges so that all pairs commute mod d.
"""

from __future__ import annotations

import numpy as np

from .fieldmath import check_prime
from .graphs import BipartiteGraph
from .pauli import PauliOp
from .stabilizer import StabilizerCode

# refuse builds estimated to hold more bytes than this (see _check_build_size)
BUILD_GUARD = 2_000_000_000


def _check_build_size(m: int, n: int) -> None:
    """Refuse, before any allocation, a build of m generators on n qudits that cannot fit.

    A build holds the m x 2n symplectic matrix (int64) and syndrome map
    (float64), a kernel of at least 2n - min(m, n) rows of 2n int64
    entries, and eliminates [matrix | I], m x (2n + m), at one byte per
    entry or more.
    """
    estimate = 16 * m * 2 * n + 8 * (2 * n - min(m, n)) * 2 * n + 2 * m * (2 * n + m)
    if estimate > BUILD_GUARD:
        raise ValueError(
            f"a build of {m} generators on {n} qudits needs about {estimate / 1e9:.3g} GB,"
            f" over the {BUILD_GUARD / 1e9:.3g} GB guard"
        )


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
    D_L = 4; rank is 2L^2 - 2 (one global dependency per type).
    """
    if L < 2:
        raise ValueError("L must be >= 2")
    check_prime(d)
    h, v = toric_edge_indices(L)
    n = 2 * L * L
    _check_build_size(n, n)
    r, c = np.divmod(np.arange(L * L), L)
    vertex, plaquette = r * L + c, L * L + r * L + c
    matrix = np.zeros((n, 2 * n), dtype=np.int64)
    # vertex operator: X^{+1} on incoming edges, X^{-1} on outgoing
    matrix[vertex, h(r, c - 1)] = 1
    matrix[vertex, h(r, c)] = d - 1
    matrix[vertex, v(r - 1, c)] = 1
    matrix[vertex, v(r, c)] = d - 1
    # plaquette operator: Z^{+-1} around the face counterclockwise
    matrix[plaquette, n + h(r, c)] = 1
    matrix[plaquette, n + v(r, c + 1)] = 1
    matrix[plaquette, n + h(r + 1, c)] = d - 1
    matrix[plaquette, n + v(r, c)] = d - 1
    return StabilizerCode(d, matrix)


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
    if code.is_error(e):
        return "open"
    return "stabilizer" if code.group_contains(e).in_span else "logical"


# --------------------------------------------------------------------------
# CSS construction
# --------------------------------------------------------------------------

def css_code(
    hx: np.ndarray, hz: np.ndarray, d: int = 2, strict_degree: bool = True
) -> StabilizerCode:
    """CSS code: X-type generators from Hx rows, Z-type from Hz rows.

    Requires Hx @ Hz.T == 0 mod d and uniform row weight across both
    matrices (the code's locality k).
    """
    check_prime(d)
    hx = np.asarray(hx, dtype=np.int64) % d
    hz = np.asarray(hz, dtype=np.int64) % d
    if hx.shape[1] != hz.shape[1]:
        raise ValueError("Hx and Hz must have the same number of columns")
    if np.any((hx @ hz.T) % d):
        raise ValueError("CSS orthogonality violated: Hx @ Hz.T != 0 mod d")
    rx, n = hx.shape
    _check_build_size(rx + hz.shape[0], n)
    matrix = np.zeros((rx + hz.shape[0], 2 * n), dtype=np.int64)
    matrix[:rx, :n] = hx
    matrix[rx:, n:] = hz
    return StabilizerCode(d, matrix, strict_degree=strict_degree)


def css_hypergraph_product(
    h1: np.ndarray, h2: np.ndarray, d: int = 2, strict_degree: bool = True
) -> StabilizerCode:
    """Hypergraph product of two classical parity-check matrices.

    Hx = [H1 (x) I | I (x) H2^T],  Hz = [I (x) H2 | -H1^T (x) I]; the
    orthogonality identity holds by construction, and the code's
    commutation check confirms it.
    """
    check_prime(d)
    h1 = np.asarray(h1, dtype=np.int64) % d
    h2 = np.asarray(h2, dtype=np.int64) % d
    r1, n1 = h1.shape
    r2, n2 = h2.shape
    n, mx = n1 * n2 + r1 * r2, r1 * n2
    m = mx + n1 * r2
    _check_build_size(m, n)
    matrix = np.zeros((m, 2 * n), dtype=np.int64)
    matrix[:mx, : n1 * n2] = np.kron(h1, np.eye(n2, dtype=np.int64))
    matrix[:mx, n1 * n2 : n] = np.kron(np.eye(r1, dtype=np.int64), h2.T)
    matrix[mx:, n : n + n1 * n2] = np.kron(np.eye(n1, dtype=np.int64), h2)
    matrix[mx:, n + n1 * n2 :] = np.kron(-h1.T % d, np.eye(r2, dtype=np.int64))
    return StabilizerCode(d, matrix, strict_degree=strict_degree)


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


# --------------------------------------------------------------------------
# random regular bipartite graphs
# --------------------------------------------------------------------------

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


# --------------------------------------------------------------------------
# classical parity codes
# --------------------------------------------------------------------------

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
    import itertools
    import math

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


def parse_sparse_rows(text: str) -> np.ndarray:
    """Plain-text sparse row format: one row per line, entries 'col' or 'col:val'."""
    rows = []
    entries = []
    max_col = -1
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        row = {}
        for tok in line.split():
            if ":" in tok:
                c, v = tok.split(":")
                row[int(c)] = int(v)
            else:
                row[int(tok)] = 1
            max_col = max(max_col, max(row))
        rows.append(row)
    mat = np.zeros((len(rows), max_col + 1), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            mat[i, c] = v
    return mat
