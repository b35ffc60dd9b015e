"""Weight-ordered candidate enumeration over symplectic vectors.

The coset-minimum searches (weight modulo group / centralizer, code
distance, succinctness) all reduce to: find the minimum-weight vector
v in Z_d^{2n} satisfying a linear acceptance test.  Cost then scales
with the answer weight, not the group size.  Candidates are generated
in batches (support-major, symbol-minor, both lexicographic) so the
first accepted index is the canonical minimum; acceptance tests are
vectorized matrix products mod d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .pauli import nonidentity_symbols

# float64 matmul is exact here (entries < d <= 47, inner dim bounded) and
# hits BLAS instead of numpy's slow integer path; an operand already held as
# float64 is used without a copy
_FLOAT_SAFE = 2**52


def modmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    bound = a.shape[-1] * (p - 1) * (p - 1)
    if bound < _FLOAT_SAFE:
        prod = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
        prod = np.rint(prod).astype(np.int64)
    else:
        prod = a.astype(np.int64) @ b.astype(np.int64)
    return prod % p


def pure_symbols(d: int, kind: str) -> list[tuple[int, int]]:
    """Single-type per-site symbols: X-type (a,0) or Z-type (0,a), a != 0."""
    if kind == "x":
        return [(a, 0) for a in range(1, d)]
    if kind == "z":
        return [(0, a) for a in range(1, d)]
    raise ValueError(kind)


def candidate_batches(
    n: int,
    d: int,
    w: int,
    symbols: Sequence[tuple[int, int]] | None = None,
    support_chunk: int = 512,
) -> Iterator[np.ndarray]:
    """Batches of symplectic (x|z) row vectors of weight exactly w.

    Canonical order within and across batches: supports lexicographic,
    then per-site symbols lexicographic.
    """
    if symbols is None:
        symbols = nonidentity_symbols(d)
    s = len(symbols)
    combos = np.array(list(itertools.product(range(s), repeat=w)), dtype=np.int64)
    sym = np.array(symbols, dtype=np.int64)  # (s, 2)
    symarr = sym[combos]  # (c, w, 2)
    c = symarr.shape[0]
    chunk: list[tuple[int, ...]] = []
    for supp in itertools.combinations(range(n), w):
        chunk.append(supp)
        if len(chunk) == support_chunk:
            yield _build_batch(chunk, symarr, n, c)
            chunk = []
    if chunk:
        yield _build_batch(chunk, symarr, n, c)


def _build_batch(supports, symarr, n, c):
    supp = np.asarray(supports, dtype=np.int64)  # (b, w)
    b = supp.shape[0]
    v = np.zeros((b * c, 2 * n), dtype=np.int64)
    rows = np.arange(b * c)[:, None]
    cols = np.repeat(supp, c, axis=0)  # (b*c, w)
    sym = np.tile(symarr, (b, 1, 1))  # (b*c, w, 2)
    v[rows, cols] = sym[:, :, 0]
    v[rows, cols + n] = sym[:, :, 1]
    return v


def candidates_at_weight(n: int, d: int, w: int, symbols=None) -> int:
    s = (d * d - 1) if symbols is None else len(symbols)
    return math.comb(n, w) * s**w


@dataclass
class SearchResult:
    """Outcome of a weight-ordered search.

    found_weight/vector describe the first accepted candidate (canonical
    order), or None.  exhausted_weight is the largest weight whose
    candidates were all tested without acceptance; any accepted vector has
    weight > exhausted_weight.  budget_hit marks an early stop.
    """

    found_weight: int | None
    vector: np.ndarray | None
    exhausted_weight: int
    candidates_tested: int
    budget_hit: bool


def _weight1_images(n: int, d: int, symbols, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images A v for every weight-1 candidate, support-major symbol-minor."""
    sym = np.asarray(symbols, dtype=np.int64)
    s = len(sym)
    rows = np.arange(n * s)
    qudits = np.arange(n).repeat(s)
    v1 = np.zeros((n * s, 2 * n), dtype=np.int64)
    v1[rows, qudits] = np.tile(sym[:, 0], n)
    v1[rows, qudits + n] = np.tile(sym[:, 1], n)
    return v1, modmul(v1, matrix.T, d)


def _weight2_linear_search(
    n: int, d: int, symbols, matrix: np.ndarray, target: np.ndarray
) -> np.ndarray | None:
    """Exact weight-2 pass for a linear acceptance A v == target.

    Images are additive over disjoint supports, so a hash join over the
    weight-1 images replaces the quadratic candidate sweep; the returned
    vector is the canonical (support-then-symbol lexicographic) minimum.
    """
    s = len(symbols)
    v1, y = _weight1_images(n, d, symbols, matrix)
    by_image: dict[bytes, list[int]] = {}
    for i in range(n * s):
        by_image.setdefault(y[i].tobytes(), []).append(i)
    best_key = None
    best = None
    need = (target[None, :] - y) % d
    for i in range(n * s):
        q_i, s_i = divmod(i, s)
        for j in by_image.get(need[i].tobytes(), ()):
            if j // s > q_i:  # distinct, unordered pairs once
                key = (q_i, j // s, s_i, j % s)
                if best_key is None or key < best_key:
                    best_key, best = key, (v1[i] + v1[j]) % d
                break  # later j only increase (q_j, s_j)
    return best


def min_weight_vector(
    n: int,
    d: int,
    w_max: int,
    accept_batch: Callable[[np.ndarray], np.ndarray],
    budget: int | None = None,
    symbol_sets: Sequence[Sequence[tuple[int, int]] | None] = (None,),
    linear: tuple[np.ndarray, np.ndarray] | None = None,
) -> SearchResult:
    """Find the minimum-weight symplectic vector accepted by accept_batch.

    symbol_sets allows parallel restricted searches (e.g. X-type and Z-type
    words for CSS codes) advanced in lockstep weight by weight.  When the
    acceptance is the linear equality A v == t, passing linear=(A, t)
    enables an exact hash-join shortcut at weight 2.
    """
    tested = 0
    for w in range(1, w_max + 1):
        hit_vec = None
        for symbols in symbol_sets:
            if w == 2 and linear is not None:
                syms = symbols if symbols is not None else nonidentity_symbols(d)
                need = n * len(syms)
                if budget is not None and tested + need > budget:
                    return SearchResult(None, None, w - 1, tested, True)
                cand = _weight2_linear_search(n, d, syms, *linear)
                tested += need
                if cand is not None and hit_vec is None:
                    hit_vec = cand
                continue
            need = candidates_at_weight(n, d, w, symbols)
            if budget is not None and tested + need > budget:
                return SearchResult(None, None, w - 1, tested, True)
            for batch in candidate_batches(n, d, w, symbols):
                mask = accept_batch(batch)
                tested += batch.shape[0]
                if mask.any():
                    idx = int(np.argmax(mask))
                    cand = batch[idx]
                    if hit_vec is None:
                        hit_vec = cand
                    break  # first hit in this symbol set is its minimum
        if hit_vec is not None:
            return SearchResult(w, hit_vec, w - 1, tested, False)
    return SearchResult(None, None, w_max, tested, False)
