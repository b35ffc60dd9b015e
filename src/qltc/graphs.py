"""Bipartite qudit/constraint interaction graphs.

Left vertices are qudits, right vertices are constraints.  Neighborhoods
are kept both as index lists and as integer bitmasks, so expansion scans
over many small subsets reduce to OR + popcount.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


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
        self.right_adj: list[list[int]] = []
        self.left_adj: list[list[int]] = [[] for _ in range(n)]
        for c, nbrs in enumerate(right_adj):
            nbrs = list(nbrs)
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"multi-edge at constraint {c}")
            for q in nbrs:
                if not 0 <= q < n:
                    raise IndexError(f"qudit {q} out of range")
                self.left_adj[q].append(c)
            self.right_adj.append(sorted(nbrs))
        self.left_adj = [sorted(v) for v in self.left_adj]
        # bitmask caches: left_masks[q] packs Gamma(q) over constraints,
        # right_masks[c] packs Gamma(c) over qudits
        self.left_masks = [_mask(v) for v in self.left_adj]
        self.right_masks = [_mask(v) for v in self.right_adj]
        left_degs = {len(v) for v in self.left_adj}
        right_degs = {len(v) for v in self.right_adj}
        self.D_L = left_degs.pop() if len(left_degs) == 1 else None
        self.k = right_degs.pop() if len(right_degs) == 1 else None

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

    def qudit_neighborhood(self, q: int) -> set[int]:
        """N(q) = Gamma^(2)(q): all qudits sharing a constraint with q."""
        return self.gamma_iter([q], "left", 2)

    def _adj(self, side: str):
        if side == "left":
            return self.left_adj
        if side == "right":
            return self.right_adj
        raise ValueError(f"invalid side {side!r}")

    # --- expansion ----------------------------------------------------
    def expansion_stats(self, qudits: Iterable[int]) -> ExpansionStats:
        qudits = list(qudits)
        if not qudits:
            raise ValueError("expansion of the empty set is undefined")
        counts: dict[int, int] = {}
        total = 0
        for q in qudits:
            for c in self.left_adj[q]:
                counts[c] = counts.get(c, 0) + 1
            total += len(self.left_adj[q])
        unique = sum(1 for v in counts.values() if v == 1)
        return ExpansionStats(len(qudits), len(counts), unique, len(counts) - unique, total)

    def expansion_stats_matrix(self, qudits: Iterable[int]) -> ExpansionStats:
        """Independent recount via incidence-matrix multiplication (oracle)."""
        qudits = list(qudits)
        inc = np.zeros((self.m, self.n), dtype=np.int64)
        for c, nbrs in enumerate(self.right_adj):
            inc[c, nbrs] = 1
        ind = np.zeros(self.n, dtype=np.int64)
        ind[qudits] = 1
        deg = inc @ ind
        gamma_size = int(np.count_nonzero(deg))
        unique = int(np.count_nonzero(deg == 1))
        total = int(deg.sum())
        return ExpansionStats(len(qudits), gamma_size, unique, gamma_size - unique, total)

    def small_set_expansion_error(
        self,
        size_cap: int,
        mode: str = "exhaustive",
        samples: int = 0,
        seed: int | None = None,
        sample_guard: int = 20_000_000,
    ) -> dict:
        """Max expansion error over qudit sets of size <= size_cap.

        Exhaustive mode enumerates connected sets only (connected in the
        constraint-sharing relation); this is exact for the maximum, since
        the expansion error of a disconnected set is a weighted average of
        its components' errors.  Sampled mode reports a lower bound.
        """
        if size_cap < 1:
            raise ValueError(f"size_cap must be >= 1, got {size_cap}")
        if mode == "exhaustive":
            est = self._connected_set_estimate(size_cap)
            if est > sample_guard:
                raise ValueError(
                    f"exhaustive scan infeasible (~{est} connected sets); use sampled mode"
                )
            best = 0.0
            best_set: tuple[int, ...] | None = None
            for s in self._connected_sets(size_cap):
                eps = self._epsilon_mask(s)
                if eps > best:
                    best = eps
                    best_set = tuple(s)
            return {"epsilon_star": best, "witness": best_set, "kind": "exact", "size_cap": size_cap}
        if mode == "sampled":
            if samples < 1 or seed is None:
                raise ValueError("sampled mode needs samples >= 1 and a seed")
            rng = np.random.default_rng(seed)
            best = 0.0
            best_set = None
            for _ in range(samples):
                size = int(rng.integers(1, size_cap + 1))
                s = rng.choice(self.n, size=size, replace=False).tolist()
                eps = self._epsilon_mask(s)
                if eps > best:
                    best = eps
                    best_set = tuple(sorted(s))
            return {
                "epsilon_star": best,
                "witness": best_set,
                "kind": "sampled_lower_bound",
                "samples": samples,
                "size_cap": size_cap,
            }
        raise ValueError(f"unknown mode {mode!r}")

    def _epsilon_mask(self, qudits: Sequence[int]) -> float:
        mask = 0
        total = 0
        for q in qudits:
            mask |= self.left_masks[q]
            total += len(self.left_adj[q])
        return 1.0 - mask.bit_count() / total

    def sharing_adjacency(self) -> list[list[int]]:
        """Qudit graph: q ~ q' iff they share a constraint."""
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for c_nbrs in self.right_adj:
            for q in c_nbrs:
                nbrs[q].update(c_nbrs)
        return [sorted(s - {q}) for q, s in enumerate(nbrs)]

    def _connected_set_estimate(self, size_cap: int) -> int:
        import math

        adj = self.sharing_adjacency()
        avg_deg = max(1, sum(len(a) for a in adj) // max(1, self.n))
        return self.n * sum(math.comb(avg_deg * s, s - 1) for s in range(1, size_cap + 1))

    def _connected_sets(self, size_cap: int):
        """Enumerate sets connected in the sharing relation (ESU-style)."""
        adj = self.sharing_adjacency()

        def extend(sub: list[int], ext: list[int], root: int):
            yield sub
            if len(sub) == size_cap:
                return
            while ext:
                w = ext.pop()
                new_ext = list(ext)
                in_old = set(sub) | set(ext) | {w}
                for u in adj[w]:
                    if u > root and u not in in_old:
                        new_ext.append(u)
                        in_old.add(u)
                yield from extend(sub + [w], new_ext, root)

        for v in range(self.n):
            yield from extend([v], [u for u in adj[v] if u > v], v)

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

    # --- serialization ------------------------------------------------
    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "constraints": [list(v) for v in self.right_adj]}

    @staticmethod
    def from_json(obj: dict) -> "BipartiteGraph":
        return BipartiteGraph(int(obj["n"]), int(obj["m"]), obj["constraints"])

    def to_text(self) -> str:
        """Plain edge-list form (one 'constraint qudit' pair per line)."""
        lines = [f"p bipartite {self.n} {self.m}"]
        for c, nbrs in enumerate(self.right_adj):
            for q in nbrs:
                lines.append(f"e {c} {q}")
        return "\n".join(lines) + "\n"


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _other(side: str) -> str:
    return "right" if side == "left" else "left"
