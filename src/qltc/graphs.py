"""Bipartite qudit/constraint interaction graphs.

Left vertices are qudits, right vertices are constraints.  Neighborhoods
are kept as index lists, and Gamma(q) once more as a row of uint64 bit
words over the constraints for the expansion scan.  Every count of a
qudit set S reads `touches(S)`, how many qudits of S each constraint
touches: once for a unique neighbor, more for a multi neighbor.

The small-set expansion scan enumerates connected qudit sets by ESU
(Wernicke 2006) one level, one set size, at a time.  A level is a set of
array rows, one per set: its root, its constraint mask and its closed
qudit-neighbourhood mask as uint64 words, its degree total and its
extension list (CSR).  The next level follows by fancy indexing, its
expansion errors by np.bitwise_count of the masks; levels are built in
blocks of LEVEL_BYTES.  The witness set is named by a depth-first walk
through the same children, one row at a time.  A scan past
EXPANSION_GUARD sets visited raises Refusal, the one in-band refusal of
the package, defined here as the lowest module that refuses.
A caller may pass qudit automorphisms (a code's symmetries; the graph
holds none), each checked to map the constraint supports onto themselves,
else AssertionError.  ESU then roots at the least qudit of each orbit
alone (orbit pruning, McKay 1998), with the same maximum and witness.

Pcg64 draws numpy's default_rng(seed) stream in Python integers: the
greedy t-independent set's order and the dense verifier's samples, both
pinned by reports drawn with numpy, without importing numpy.random.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# refuse an exhaustive expansion scan as soon as it would count more connected sets than this
EXPANSION_GUARD = 2_000_000
# bytes of level rows and their temporaries the expansion scan builds at once
# (toric:16 at cap 4: 1.3 MiB traced peak, against 10 MiB with no blocks)
LEVEL_BYTES = 1 << 20


class Refusal(ValueError):
    """A request past a guard or a precondition that does not hold; reported in-band, not a fault."""


@dataclass(frozen=True)
class ExpansionStats:
    """Expansion data of a qudit set S: |Gamma(S)| = unique + multi."""

    set_size: int
    gamma_size: int
    unique_neighbors: int
    multi_neighbors: int
    total_degree: int

    @property
    def epsilon(self) -> float:
        return 1.0 - self.gamma_size / self.total_degree

    def to_json(self) -> dict:
        return {
            "set_size": self.set_size,
            "gamma_size": self.gamma_size,
            "unique_neighbors": self.unique_neighbors,
            "multi_neighbors": self.multi_neighbors,
            "total_degree": self.total_degree,
            "epsilon": self.epsilon,
        }


class BipartiteGraph:
    """Bipartite graph with n left (qudit) and m right (constraint) vertices.

    Multi-edges are rejected: a constraint touches a qudit at most once.
    """

    def __init__(self, n: int, m: int, right_adj: Sequence[Sequence[int]]):
        if len(right_adj) != m:
            raise ValueError("right adjacency length mismatch")
        self.n = n
        self.m = m
        # one (constraint, qudit) pair per edge, in input order
        lens, quds = _flatten(right_adj)
        cons = np.repeat(np.arange(m), lens)
        by_con = np.lexsort((quds, cons))  # edges by constraint, then qudit
        c_sorted, q_sorted = cons[by_con], quds[by_con]
        repeated = (c_sorted[1:] == c_sorted[:-1]) & (q_sorted[1:] == q_sorted[:-1])
        multi = np.bincount(c_sorted[1:][repeated], minlength=m) > 0
        bad = (quds < 0) | (quds >= n)
        # the first constraint at fault raises: its multi-edge, else its first bad qudit
        faulty = multi | (np.bincount(cons[bad], minlength=m) > 0)
        if faulty.any():
            c = int(np.argmax(faulty))
            if multi[c]:
                raise ValueError(f"multi-edge at constraint {c}")
            raise IndexError(f"qudit {quds[(cons == c) & bad][0]} out of range")
        self.right_adj: list[list[int]] = _split(q_sorted, lens)
        left_lens = np.bincount(quds, minlength=n)
        self.left_adj: list[list[int]] = _split(cons[np.lexsort((cons, quds))], left_lens)
        self.D_L = int(left_lens[0]) if n and np.all(left_lens == left_lens[0]) else None
        self.k = int(lens[0]) if m and np.all(lens == lens[0]) else None

    # --- neighborhoods ------------------------------------------------
    def gamma(self, vertices: Iterable[int], side: str, i: int = 1) -> set[int]:
        """Gamma^(i) of `vertices`: neighbor sets taken i times, alternating sides,
        starting from the given side ('left' or 'right')."""
        if side not in ("left", "right"):
            raise ValueError(f"invalid side {side!r}")
        if i < 1:
            raise ValueError("iteration count must be >= 1")
        adjs = (self.left_adj, self.right_adj) if side == "left" else (self.right_adj, self.left_adj)
        cur = set(vertices)
        for step in range(i):
            adj, nxt = adjs[step % 2], set()
            for v in cur:
                nxt.update(adj[v])
            cur = nxt
        return cur

    @functools.cached_property
    def sharing_adjacency(self) -> list[list[int]]:
        """Qudit graph: q ~ q' iff they share a constraint."""
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for c_nbrs in self.right_adj:
            for q in c_nbrs:
                nbrs[q].update(c_nbrs)
        return [sorted(s - {q}) for q, s in enumerate(nbrs)]

    # --- expansion ----------------------------------------------------
    def touches(self, qudits: Iterable[int]) -> np.ndarray:
        """How many qudits of S each constraint touches, as a length-m int array."""
        return np.bincount(_flatten([self.left_adj[q] for q in qudits])[1], minlength=self.m)

    def expansion_stats(self, qudits: Iterable[int]) -> ExpansionStats:
        qudits = list(qudits)
        if not qudits:
            raise ValueError("expansion of the empty set is undefined")
        hits = self.touches(qudits)
        total = int(hits.sum())
        if not total:
            raise ValueError(f"qudit {qudits[0]} touches no constraint: the expansion is undefined")
        unique, multi = int(np.count_nonzero(hits == 1)), int(np.count_nonzero(hits > 1))
        return ExpansionStats(len(qudits), unique + multi, unique, multi, total)

    def small_set_expansion_error(self, size_cap: int, symmetries: Sequence = ()) -> dict:
        """Max expansion error over qudit sets of size <= size_cap.

        Enumerates connected sets only (connected in the constraint-sharing
        relation); this is exact for the maximum, since the expansion error
        of a disconnected set is a weighted average of its components'
        errors.  ESU roots at the orbit minima of the qudit permutations
        symmetries (p maps q to p[q]), every qudit with none; each is first
        checked to map the constraint supports onto themselves, else
        AssertionError.  A connected S whose least orbit minimum is r maps
        onto a set whose least qudit is r.  The witness is the first set in
        ESU order that attains the maximum, its qudits in discovery order;
        its root, the least qudit whose sets attain it, is an orbit minimum
        by the same map, so the roots keep the witness too.  sets_scanned
        counts the sets visited; the scan finishes iff they are at most
        EXPANSION_GUARD; else it raises Refusal once the sets it has
        counted, with the children of the level at hand, pass the guard,
        before it builds that next level; so a refusal costs at most that
        much scanning (toric:10 at cap 8 with no symmetries: about 0.3 s).
        """
        if size_cap < 1:
            raise ValueError(f"size_cap must be >= 1, got {size_cap}")
        idle = next((q for q, cons in enumerate(self.left_adj) if not cons), None)
        if idle is not None:
            raise ValueError(f"qudit {idle} touches no constraint: its expansion is undefined")
        root_best, scanned = self._level_scan(size_cap, self._orbit_minima(symmetries))
        best = float(root_best.max(initial=0.0))
        witness = None
        if best > 0:  # the first set in ESU order grows from the smallest root attaining best
            witness = self._witness(size_cap, int(np.argmax(root_best)), best)
        return {
            "epsilon_star": best,
            "witness": witness,
            "kind": "exact",
            "size_cap": size_cap,
            "sets_scanned": scanned,
        }

    @functools.cached_property
    def _level_tables(self) -> tuple[np.ndarray, ...]:
        """(constraint masks, closed-neighbourhood masks, degrees, adjacency offsets,
        adjacency) of the qudits: masks as rows of uint64 words with bit i in word
        i >> 6, the sharing adjacency as CSR in the order of sharing_adjacency."""
        n = self.n
        deg, cons = _flatten(self.left_adj)
        adj_len, adj_idx = _flatten(self.sharing_adjacency)
        qudits = np.arange(n)
        closed_rows = np.concatenate([qudits, np.repeat(qudits, adj_len)])
        return (
            _bit_rows(n, self.m, np.repeat(qudits, deg), cons),
            _bit_rows(n, n, closed_rows, np.concatenate([qudits, adj_idx])),
            deg,
            np.concatenate([[0], np.cumsum(adj_len)]),
            adj_idx,
        )

    def _orbit_minima(self, symmetries: Sequence) -> np.ndarray:
        """The least qudit of each orbit of the permutations' group, ascending, once each is
        checked to map the sorted supports onto themselves as a multiset, else AssertionError.
        Orbits are the components of the edges q -- p[q]: hook roots onto smaller ones, jump."""
        qudits = np.arange(self.n)
        if not len(symmetries):
            return qudits
        lens, flat = _flatten(self.right_adj)
        supports = np.full((self.m, int(lens.max())), self.n)  # padded past every qudit
        supports[np.repeat(np.arange(self.m), lens), _ranges(0 * lens, lens)] = flat
        want = supports[np.lexsort(supports.T)]
        for i, perm in enumerate(symmetries):
            if np.shape(perm) != (self.n,) or not np.array_equal(np.sort(perm), qudits):
                raise AssertionError(f"symmetry {i} is not a permutation of the {self.n} qudits")
            image = np.sort(np.append(perm, self.n)[supports], axis=1)
            if not np.array_equal(image[np.lexsort(image.T)], want):
                raise AssertionError(f"symmetry {i} does not map the constraint supports onto"
                                     " themselves: it is not an automorphism")
        a, b = np.tile(qudits, len(symmetries)), np.concatenate(symmetries)
        root, last = qudits, None
        while not np.array_equal(root, last):
            last, root = root, root.copy()
            np.minimum.at(root, last[a], last[b])
            np.minimum.at(root, last[b], last[a])
            while not np.array_equal(root[root], root):
                root = root[root]
        return np.flatnonzero(root == qudits)

    def _level_scan(self, size_cap: int, roots: np.ndarray) -> tuple[np.ndarray, int]:
        """(largest expansion error of the sets grown from each root, by qudit, number
        of sets) over the connected sets of size <= size_cap whose least qudit is a root.

        ESU one level at a time.  A row of a level is a set V with root r, its
        smallest qudit: r, the OR of its constraint masks, the OR of its
        closed-neighbourhood masks N(V), its degree total and its extension
        list (CSR).  The qudits ESU excludes at V are {r} | (N(V) & (> r)),
        which depends on V alone, so each level follows from the one before by
        array operations (_children).  A level past LEVEL_BYTES is built in
        blocks of parent rows, depth first, which changes nothing but the peak
        memory.
        """
        cmask, nmask, _, adj_ptr, _ = self._level_tables
        root_best = np.zeros(self.n)
        scanned = 0
        # bytes a child row costs at most: two copies of its masks, root, degree,
        # offset, the parent's extension and the adjacency filtered for it
        words = cmask.shape[1] + nmask.shape[1]
        child_bytes = 8 * (2 * words + 3 + 6 * int(np.diff(adj_ptr).max(initial=0)))

        def visit(level, size):
            nonlocal scanned
            root, mask, _, total, ptr, _ = level
            # a level that grows already counts its children in ptr[-1], and
            # the scan visits them all, so it refuses before building them
            children = int(ptr[-1]) if size < size_cap else 0
            if scanned + root.size + children > EXPANSION_GUARD:
                raise Refusal(
                    f"exhaustive scan infeasible (over {EXPANSION_GUARD} connected sets"
                    f" of size <= {size_cap}); lower the set-size cap (--sets)"
                )
            gamma = np.bitwise_count(mask).sum(axis=1, dtype=np.int64)
            np.maximum.at(root_best, root, 1.0 - gamma / total)
            scanned += root.size
            if size == size_cap:
                return
            lens = np.diff(ptr)
            cost = np.cumsum(lens * (child_bytes + 8 * lens))
            start = 0
            while start < root.size:
                base = cost[start - 1] if start else 0
                stop = max(start + 1, int(np.searchsorted(cost, base + LEVEL_BYTES, "right")))
                visit(self._children(level, start, stop, size + 1 < size_cap), size + 1)
                start = stop

        visit(self._first_level(roots), 1)
        return root_best, scanned

    def _first_level(self, roots: np.ndarray):
        """The level of the one-qudit sets, row i for {roots[i]}: the extension of
        {r} is the qudits sharing a constraint with r that exceed r."""
        cmask, nmask, deg, adj_ptr, adj_idx = self._level_tables
        if roots.size < self.n:  # the roots' rows of the tables; every qudit: the tables
            cmask, nmask, deg = cmask[roots], nmask[roots], deg[roots]
        lens = adj_ptr[roots + 1] - adj_ptr[roots]
        nbrs = adj_idx[_ranges(adj_ptr[roots], lens)]
        later = nbrs > np.repeat(roots, lens)
        row = np.repeat(np.arange(roots.size), lens)[later]
        ptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=roots.size))])
        return roots, cmask, nmask, deg, ptr, nbrs[later]

    def _children(self, level, start: int, stop: int, grow: bool):
        """The level of sets one qudit larger grown from rows [start, stop) of level.

        Child j of a row V with root r adds w = ext[j].  When grow, its
        extension is ext[:j] followed by [u in adj[w] : u > r, u not in N(V)]
        and its N is N(V) | N(w); else both are left out (None).
        """
        cmask, nmask, deg, adj_ptr, adj_idx = self._level_tables
        root, mask, nbr, total, ptr, ext = level
        w = ext[ptr[start] : ptr[stop]]
        parent = np.repeat(np.arange(start, stop), np.diff(ptr[start : stop + 1]))
        child_root = root[parent]
        child_mask = mask[parent] | cmask[w]
        child_total = total[parent] + deg[w]
        if not grow:
            return child_root, child_mask, None, child_total, None, None
        j = np.arange(ptr[start], ptr[stop]) - ptr[parent]
        adj_len = adj_ptr[w + 1] - adj_ptr[w]
        owner = np.repeat(np.arange(w.size), adj_len)
        u = adj_idx[_ranges(adj_ptr[w], adj_len)]
        bit = np.uint64(1) << (u & 63).astype(np.uint64)
        fresh = (u > child_root[owner]) & (nbr[parent[owner], u >> 6] & bit == 0)
        new_len = np.bincount(owner[fresh], minlength=w.size)
        child_ptr = np.concatenate([[0], np.cumsum(j + new_len)])
        child_ext = np.empty(child_ptr[-1], dtype=np.int64)
        child_ext[_ranges(child_ptr[:-1], j)] = ext[_ranges(ptr[parent], j)]
        child_ext[_ranges(child_ptr[:-1] + j, new_len)] = u[fresh]
        return child_root, child_mask, nbr[parent] | nmask[w], child_total, child_ptr, child_ext

    def _witness(self, size_cap: int, root: int, best: float) -> tuple[int, ...]:
        """The first set grown from root, in ESU order, whose expansion error is best,
        its qudits in discovery order.

        A depth-first walk through _children one row at a time: each set comes
        right before the sets grown from it, and its children are taken last
        extension first, as ESU pops them from its extension list.
        """
        stack = [(self._first_level(np.array([root])), 0, (root,))]
        while stack:
            level, i, qudits = stack.pop()
            _, mask, _, total, ptr, ext = level
            if 1.0 - np.bitwise_count(mask[i]).sum(dtype=np.int64) / total[i] == best:
                return qudits
            if len(qudits) < size_cap:  # a full-size set is never extended
                children = self._children(level, i, i + 1, len(qudits) + 1 < size_cap)
                added = ext[ptr[i] : ptr[i + 1]].tolist()
                stack += [(children, j, (*qudits, w)) for j, w in enumerate(added)]
        raise AssertionError(f"no set grown from root {root} has expansion error {best}")

    # --- independent sets ---------------------------------------------
    def greedy_t_independent(
        self, t: int, target_size: int, seed: int = 0
    ) -> list[int]:
        """Greedy t-independent constraint set (Gamma^(2t+1) pairwise disjoint).

        Constraints are visited in a seeded random order; after picking u,
        every constraint within graph distance 4t+2 of u is discarded.
        Yield shortfall is reported by returning fewer than target_size.
        The order is numpy's default_rng(seed).permutation(m), drawn by
        Pcg64 without importing numpy.random; any other stream would change
        U for every seed, and every pinned report with it.
        """
        if t < 1 or target_size < 1:
            raise ValueError("t and target_size must be >= 1")
        alive = np.ones(self.m, dtype=bool)
        chosen: list[int] = []
        for u in Pcg64(seed).permutation(self.m):
            if not alive[u]:
                continue
            chosen.append(u)
            if len(chosen) == target_size:
                break
            # remove every constraint whose (2t+1)-ball can intersect u's: those
            # within distance 4t+2 of u (each even frontier holds the one before)
            alive[list(self.gamma([u], "right", 4 * t + 2))] = False
        return chosen

    def verify_t_independent(self, constraints: Sequence[int], t: int) -> bool:
        """Post-hoc Gamma^(2t+1) disjointness check: the balls are pairwise
        disjoint iff their sizes sum to the size of their union."""
        balls = [self.gamma([u], "right", 2 * t + 1) for u in constraints]
        return sum(map(len, balls)) == len(set().union(*balls))


# default_rng(seed)'s constants: SeedSequence's hash multipliers and initial values
# (hashmix on the entropy, then on the state words) and its mix multipliers, and
# PCG64's 128-bit multiplier
_HASH_A, _MULT_A, _HASH_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


class Pcg64:
    """numpy's np.random.default_rng(seed) stream, in Python integers.

    The stream of PCG64 (O'Neill 2014) seeded by SeedSequence(seed), as
    numpy draws it: every draw here reads 32-bit halves of its 64-bit
    outputs, the low half first, the high half kept for the next draw.
    numpy.random is not imported: that would cost a CLI process about
    11 ms and 5 MB, more than the attacks' greedy search it seeds.
    """

    def __init__(self, seed: int):
        self._next = _uint32_stream(*_seeded(seed)).__next__

    def permutation(self, m: int) -> list[int]:
        """Generator.permutation(m): Fisher-Yates on range(m) from the end, swapping i
        with j <= i drawn as the bits of i's width, drawn again while j > i."""
        items = list(range(m))
        draw = self._next
        for i in range(m - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = draw() & mask
            while j > i:
                j = draw() & mask
            items[i], items[j] = items[j], items[i]
        return items

    def integers(self, d: int, size: int | None = None):
        """Generator.integers(d) for 2 <= d <= 2**32, or a list of size such draws.

        Lemire's rule (arXiv:1805.10941): a draw u scales to u * d, whose
        high 32 bits are the value; it is drawn again while its low 32 bits
        are below 2**32 mod d.
        """
        threshold = ((1 << 32) - d) % d
        draw = self._next

        def one():
            scaled = draw() * d
            while scaled & _M32 < threshold:
                scaled = draw() * d
            return scaled >> 32

        return one() if size is None else [one() for _ in range(size)]


def _seeded(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) as default_rng(seed) sets them.

    SeedSequence(seed) hashes the seed's 32-bit words, least significant
    first, into a pool of 4 words and the pool into 8 words; paired low
    word first, they are the 128-bit initial state and sequence.
    """
    import operator  # no module-level import: loaded already with numpy

    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"a seed is a non-negative integer, got {seed}")
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    hash_a = _HASH_A

    def hashmix(v: int) -> int:
        nonlocal hash_a
        v ^= hash_a
        hash_a = hash_a * _MULT_A & _M32
        v = v * hash_a & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for word in words[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(word))
    hash_b, state = _HASH_B, []
    for i in range(8):
        v = pool[i % 4] ^ hash_b
        hash_b = hash_b * _MULT_B & _M32
        v = v * hash_b & _M32
        state.append(v ^ v >> 16)
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    # from state 0: one step, add the initial state, one more step
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128, inc


def _uint32_stream(state: int, inc: int):
    """PCG64's outputs from state on, each as its low then its high 32 bits.

    An output steps the state (state * _PCG_MULT + inc mod 2**128), then
    takes XSL-RR of it: the xor of its 64-bit halves rotated right by its
    top 6 bits.
    """
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        v = (state >> 64) ^ (state & _M64)
        r = state >> 122
        v = (v >> r | v << (64 - r)) & _M64
        yield v & _M32
        yield v >> 32


def _split(flat: np.ndarray, lens: np.ndarray) -> list[list[int]]:
    """flat cut into consecutive lists of the given lengths (one reshape if they are equal)."""
    if lens.size and np.all(lens == lens[0]):
        return flat.reshape(lens.size, int(lens[0])).tolist()
    items, ends = flat.tolist(), np.cumsum(lens).tolist()
    return [items[end - size : end] for end, size in zip(ends, lens.tolist())]


def _flatten(lists: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, concatenation) of lists of ints as int64 arrays."""
    lens = np.fromiter(map(len, lists), np.int64, count=len(lists))
    flat = np.fromiter(itertools.chain.from_iterable(lists), np.int64, count=int(lens.sum()))
    return lens, flat


def _bit_rows(rows: int, width: int, row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """(rows, ceil(width / 64)) uint64 bit rows with bit col of row `row` set for each pair."""
    out = np.zeros((rows, (width + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(out, (row, col >> 6), np.uint64(1) << (col & 63).astype(np.uint64))
    return out


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges [s, s + l) for each start s and length l, concatenated."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if ends.size else 0)
