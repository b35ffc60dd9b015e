"""Bipartite qudit/constraint interaction graphs.

Left vertices are qudits, right vertices are constraints.  Neighborhoods
are kept both as index lists and as integer bitmasks over constraints, so
expansion counts over many small subsets reduce to OR + popcount.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# refuse exhaustive expansion scans estimated to visit more connected sets
EXPANSION_GUARD = 20_000_000


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
        lens = np.fromiter(map(len, right_adj), dtype=np.int64, count=m)
        cons = np.repeat(np.arange(m), lens)
        quds = np.fromiter(itertools.chain.from_iterable(right_adj), np.int64, count=cons.size)
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
        # left_masks[q] packs Gamma(q) over constraints: bit c of row q, little-endian
        width = (m + 7) // 8
        packed = np.zeros((n, width), dtype=np.uint8)
        np.bitwise_or.at(packed, (quds, cons >> 3), (1 << (cons & 7)).astype(np.uint8))
        rows = packed.tobytes()
        self.left_masks = [int.from_bytes(rows[q * width : (q + 1) * width], "little")
                           for q in range(n)]
        self.D_L = int(left_lens[0]) if n and np.all(left_lens == left_lens[0]) else None
        self.k = int(lens[0]) if m and np.all(lens == lens[0]) else None

    # --- neighborhoods ------------------------------------------------
    def gamma(self, vertices: Iterable[int], side: str) -> set[int]:
        """Neighbor set of `vertices` on the given side ('left' or 'right')."""
        adj = self._adj(side)
        out: set[int] = set()
        for v in vertices:
            out.update(adj[v])
        return out

    def gamma_iter(self, vertices: Iterable[int], side: str, i: int) -> set[int]:
        """Gamma^(i): alternate sides i times starting from `side`."""
        if i < 1:
            raise ValueError("iteration count must be >= 1")
        cur = set(vertices)
        cur_side = side
        for _ in range(i):
            cur = self.gamma(cur, cur_side)
            cur_side = _other(cur_side)
        return cur

    def _adj(self, side: str):
        if side == "left":
            return self.left_adj
        if side == "right":
            return self.right_adj
        raise ValueError(f"invalid side {side!r}")

    @functools.cached_property
    def sharing_adjacency(self) -> list[list[int]]:
        """Qudit graph: q ~ q' iff they share a constraint."""
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for c_nbrs in self.right_adj:
            for q in c_nbrs:
                nbrs[q].update(c_nbrs)
        return [sorted(s - {q}) for q, s in enumerate(nbrs)]

    # --- expansion ----------------------------------------------------
    def neighbor_masks(self, qudits: Iterable[int]) -> tuple[int, int, int]:
        """(once, more, total) of a qudit set S.

        once and more are constraint bitmasks: the constraints S touches
        exactly once and at least twice; total is the degree sum of S.
        """
        once = more = total = 0
        for q in qudits:
            mask = self.left_masks[q]
            more |= once & mask
            once = (once | mask) & ~more
            total += len(self.left_adj[q])
        return once, more, total

    def expansion_stats(self, qudits: Iterable[int]) -> ExpansionStats:
        qudits = list(qudits)
        if not qudits:
            raise ValueError("expansion of the empty set is undefined")
        once, more, total = self.neighbor_masks(qudits)
        unique, multi = once.bit_count(), more.bit_count()
        return ExpansionStats(len(qudits), unique + multi, unique, multi, total)

    def small_set_expansion_error(self, size_cap: int) -> dict:
        """Max expansion error over qudit sets of size <= size_cap.

        Enumerates connected sets only (connected in the constraint-sharing
        relation); this is exact for the maximum, since the expansion error
        of a disconnected set is a weighted average of its components'
        errors.  The witness lists its qudits in discovery order.
        """
        if size_cap < 1:
            raise ValueError(f"size_cap must be >= 1, got {size_cap}")
        est = self._connected_set_estimate(size_cap)
        if est > EXPANSION_GUARD:
            raise ValueError(
                f"exhaustive scan infeasible (~{est} connected sets, guard {EXPANSION_GUARD});"
                " lower the set-size cap (--sets)"
            )
        best = 0.0
        best_set: tuple[int, ...] | None = None
        scanned = 0
        for s, mask, total in self._connected_sets(size_cap):
            scanned += 1
            eps = 1.0 - mask.bit_count() / total
            if eps > best:
                best = eps
                best_set = tuple(s)
        return {
            "epsilon_star": best,
            "witness": best_set,
            "kind": "exact",
            "size_cap": size_cap,
            "sets_scanned": scanned,
        }

    def _connected_set_estimate(self, size_cap: int) -> int:
        adj = self.sharing_adjacency
        avg_deg = max(1, sum(len(a) for a in adj) // max(1, self.n))
        sizes = range(1, min(size_cap, self.n) + 1)  # no set exceeds the n qudits
        return self.n * sum(math.comb(avg_deg * s, s - 1) for s in sizes)

    def _connected_sets(self, size_cap: int):
        """Yield (set, OR of its left_masks, degree total) once per connected set.

        ESU (Wernicke 2006): a set grows from its smallest qudit, the root.
        A qudit joins the extension only if it exceeds the root and is not
        excluded; the excluded set holds the set itself and every qudit
        ever put in an extension on the way down, so no set is reached
        twice.  Extensions are consumed from the end, and each set comes
        right before the sets grown from it.
        """
        adj = self.sharing_adjacency
        masks = self.left_masks
        degs = [len(v) for v in self.left_adj]

        def extend(sub, ext, excluded, root, mask, total):
            while ext:
                w = ext.pop()
                child, child_mask, child_total = sub + [w], mask | masks[w], total + degs[w]
                yield child, child_mask, child_total
                if len(child) < size_cap:  # a full-size set is never extended
                    new = [u for u in adj[w] if u > root and u not in excluded]
                    excluded.update(new)
                    yield from extend(child, ext + new, excluded, root, child_mask, child_total)
                    excluded.difference_update(new)

        for v in range(self.n):
            yield [v], masks[v], degs[v]
            if size_cap > 1:
                ext = [u for u in adj[v] if u > v]
                yield from extend([v], ext, {v, *ext}, v, masks[v], degs[v])

    # --- independent sets ---------------------------------------------
    def greedy_t_independent(
        self, t: int, target_size: int, seed: int = 0
    ) -> list[int]:
        """Greedy t-independent constraint set (Gamma^(2t+1) pairwise disjoint).

        Constraints are visited in a seeded random order; after picking u,
        every constraint within graph distance 4t+2 of u is discarded.
        Yield shortfall is reported by returning fewer than target_size.
        """
        if t < 1 or target_size < 1:
            raise ValueError("t and target_size must be >= 1")
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.m)
        alive = np.ones(self.m, dtype=bool)
        chosen: list[int] = []
        for u in order:
            u = int(u)
            if not alive[u]:
                continue
            chosen.append(u)
            if len(chosen) == target_size:
                break
            # remove every constraint whose (2t+1)-ball can intersect u's
            ball = {u}
            frontier = {u}
            side = "right"
            for _ in range(4 * t + 2):
                frontier = self.gamma(frontier, side)
                side = _other(side)
                if side == "right":
                    ball |= frontier
            for c in ball:
                alive[c] = False
        return chosen

    def verify_t_independent(self, constraints: Sequence[int], t: int) -> bool:
        """Post-hoc pairwise Gamma^(2t+1) disjointness check."""
        balls = [frozenset(self.gamma_iter([u], "right", 2 * t + 1)) for u in constraints]
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                if balls[i] & balls[j]:
                    return False
        return True


def _split(flat: np.ndarray, lens: np.ndarray) -> list[list[int]]:
    """flat cut into consecutive lists of the given lengths (one reshape if they are equal)."""
    if lens.size and np.all(lens == lens[0]):
        return flat.reshape(lens.size, int(lens[0])).tolist()
    items, ends = flat.tolist(), np.cumsum(lens).tolist()
    return [items[end - size : end] for end, size in zip(ends, lens.tolist())]


def _other(side: str) -> str:
    return "right" if side == "left" else "left"
