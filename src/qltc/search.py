"""One weight search: the least weight of v in Z_d^{2n} with A v = t.

Every coset-minimum query (weight modulo the group or the centralizer,
code distance, succinctness) asks for the least weight of a symplectic
word v with matrix @ v == target (mod d), some also with nonzero @ v != 0.
The image of a word is the sum of its site images (the images of its
weight-1 parts), so weight w = a + b, a = ceil(w/2), b = floor(w/2), is a
hash join of the images of all weight-a words against target minus the
images of all weight-b words (meet in the middle; Dumer, Kovalev and
Pryadko, arXiv:1611.07164).  A hit whose halves share a site is a word of
lower weight that passes the same test, which the weights already
searched rule out, so the join needs no disjointness check.  Cost scales
with C(n, w/2), not with the group size.  Each image is summed in a
type that holds 2d, one gather and one add per site, reduced mod d by
one wrap-around minimum instead of a %; the nonzero filter is summed
only for the probes that found a partner.

Every map comes as its Sites, the nonzero (row, qudit) sites of a
k-local matrix, and site_images builds the weight-1 images of any map
(the syndrome map, the logicals, the two stacked, the pivot filter)
with one scatter over those sites.

_words holds the canonical order of one weight's words, which the join's half
tables and candidate_batches (the profile's and the verifier's batches) share.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .fieldmath import modmul  # noqa: F401 -- bench/tracing.py wraps search.modmul
from .fieldmath import residue_dtype
from .pauli import nonidentity_symbols

# rows per candidate_batches batch, which holds 2 n bytes a row below d = 256
BATCH_ROWS = 1 << 12
# estimated peak bytes of one half-table join (_join_bytes); a weight that
# needs more ends the search as a budget hit
HALF_TABLE_BYTES = 1 << 27


def pure_symbols(d: int, kind: str) -> list[tuple[int, int]]:
    """Single-type per-site symbols: X-type (a,0) or Z-type (0,a), a != 0."""
    if kind not in ("x", "z"):
        raise ValueError(kind)
    return [(a, 0) if kind == "x" else (0, a) for a in range(1, d)]


def _words(n: int, s: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Every word of weight h on n sites with s symbols a site, in canonical order.

    supports holds every h-subset of range(n), choices every h-tuple of
    symbol indices below s, one int32 row each, both lexicographic; the
    words run as each support with each choice, supports outermost.
    """
    c = math.comb(n, h)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), h))
    supports = np.fromiter(flat, dtype=np.int32, count=c * h).reshape(c, h)
    # a C-ordered copy: the half table's broadcast add reads it about 1.5x faster
    choices = np.ascontiguousarray(np.indices((s,) * h, dtype=np.int32).reshape(h, s**h).T)
    return supports, choices


def candidate_batches(
    n: int, d: int, w: int, symbols: Sequence[tuple[int, int]] | None = None
) -> Iterator[np.ndarray]:
    """Batches of at most BATCH_ROWS symplectic (x|z) rows, every word of weight w once.

    The words of _words, in its order, scattered into rows in
    residue_dtype(d).  The weight's symbol values are gathered from its
    choices once; a batch holds whole supports while their s**w choices
    fit in BATCH_ROWS, else one support's choices in pieces of BATCH_ROWS.
    """
    sym = np.array(nonidentity_symbols(d) if symbols is None else symbols, dtype=residue_dtype(d))
    supports, choices = _words(n, len(sym), w)
    vals = np.concatenate([sym[choices, 0], sym[choices, 1]], axis=1)  # the w x's, then the w z's
    per = max(1, BATCH_ROWS // len(vals))  # supports a batch
    for lo in range(0, len(supports), per):
        supp = supports[lo : lo + per]
        cols = np.concatenate([supp, supp + n], axis=1)  # the x, then the z columns
        for start in range(0, len(vals), BATCH_ROWS):
            part = vals[start : start + BATCH_ROWS]
            v = np.zeros((len(supp), len(part), 2 * n), dtype=sym.dtype)
            # v[k, j, cols[k, i]] = part[j, i]: the index arrays hold one entry a
            # site of a support, a quarter of the time of a flat index a cell
            v[np.arange(len(supp))[:, None], :, cols] = part.T
            yield v.reshape(-1, 2 * n)


def candidates_at_weight(n: int, d: int, w: int, symbols=None) -> int:
    s = (d * d - 1) if symbols is None else len(symbols)
    return math.comb(n, w) * s**w


@dataclass
class SearchResult:
    """Outcome of a weight-ordered search.

    found_weight is the least weight of a solution and vector one such
    word, or both None.  exhausted_weight is the largest weight up to
    which no solution exists.  candidates_tested counts half-table words;
    budget_hit marks an early stop (budget or half-table cap).
    """

    found_weight: int | None
    vector: np.ndarray | None
    exhausted_weight: int
    candidates_tested: int
    budget_hit: bool


class Sites(NamedTuple):
    """A map on symplectic words, shape r x 2n, as its nonzero (row, qudit) sites.

    By qudit, then row: x, z are the map's entries in columns q and n + q
    at site (row, q), in int64 (the code's validation multiplies and
    subtracts them); first[i] indexes the first site of qudit[i], so each
    qudit's sites run from first[i] in row order.
    """

    row: np.ndarray
    qudit: np.ndarray
    x: np.ndarray
    z: np.ndarray
    first: np.ndarray
    shape: tuple[int, int]

    @staticmethod
    def of(matrix: np.ndarray) -> "Sites":
        m, n = matrix.shape[0], matrix.shape[1] // 2
        acts = np.logical_or(matrix[:, :n], matrix[:, n:])
        row, qudit = np.divmod(np.flatnonzero(acts), n)
        qudit, row = np.divmod(np.sort(qudit * m + row), m)
        first = np.searchsorted(qudit, qudit)
        x, z = (matrix[row, qudit + c].astype(np.int64) for c in (0, n))
        return Sites(row, qudit, x, z, first, matrix.shape)

    def above(self, below: "Sites") -> "Sites":
        """This map with the rows of below under its own, on the same words."""
        qudit = np.concatenate([self.qudit, below.qudit])
        order = np.argsort(qudit, kind="stable")  # a qudit's own rows stay first
        qudit = qudit[order]
        row, x, z = (np.concatenate([a, b])[order] for a, b in (
            (self.row, below.row + self.shape[0]), (self.x, below.x), (self.z, below.z)))
        shape = (self.shape[0] + below.shape[0], self.shape[1])
        return Sites(row, qudit, x, z, np.searchsorted(qudit, qudit), shape)


def _rows(a: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque value, ordered as bytes."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()


def _image_dtype(d: int) -> np.dtype:
    """Least unsigned type that holds 2d, so a sum of two images below d never wraps."""
    return np.min_scalar_type(2 * d)


def _join_bytes(size_a: int, a: int, b: int, row_bytes: int) -> int:
    """Peak bytes of a join, per word of the larger (weight-a) table: four image
    rows (site images, sorted targets, probe, partner), twice the int32 site
    indices of both halves, and 16 bytes of indices and masks."""
    return size_a * (4 * row_bytes + 8 * (a + b) + 16)


def site_images(sites: Sites, d: int, symbols) -> np.ndarray:
    """Image of the weight-1 word with symbol j at qudit q under a map, at row q*s + j.

    Symbol (a, b) at qudit q has image x a + z b at each row with a site
    at q and 0 at the others, so one assignment per site and symbol fills
    the table.
    """
    m, n = sites.shape[0], sites.shape[1] // 2
    sym = np.array(symbols, dtype=np.int64)
    out = np.zeros((n, len(sym), m), dtype=_image_dtype(d))
    out[sites.qudit[:, None], np.arange(len(sym)), sites.row[:, None]] = (
        np.outer(sites.x, sym[:, 0]) + np.outer(sites.z, sym[:, 1])) % d
    return out.reshape(n * len(sym), m)


def _half_table(n: int, s: int, h: int) -> np.ndarray:
    """Site-image rows of every weight-h word, one word per row (int32 holds
    q*s + j: a table of 2**31 words is far past HALF_TABLE_BYTES)."""
    supports, choices = _words(n, s, h)
    return (supports[:, None, :] * s + choices).reshape(len(supports) * len(choices), h)


def _images(words: np.ndarray, images: np.ndarray, d: int) -> np.ndarray:
    """Image rows of words given as site-image indices, reduced mod d.

    Each sum is a gather and an add, reduced by one wrap-around minimum:
    _image_dtype(d) holds 2d, every value the join reduces lies in [0, 2d)
    (two residues sum to at most 2d - 2, target + d - image is at most
    2d - 1), and when x < d the unsigned x - d wraps to at least d + 1 > x,
    so min(x, x - d) is x mod d.  A word of no sites has image zero.
    """
    if not words.shape[1]:
        return np.zeros((words.shape[0], images.shape[1]), dtype=images.dtype)
    out = images[words[:, 0]]
    for col in words.T[1:]:
        out += images[col]
        _wrap(out, d)
    return out


def _wrap(x: np.ndarray, d: int) -> None:
    """x mod d in place, for unsigned x in [0, 2d) (see _images)."""
    np.minimum(x, x - d, out=x)


def _meet(n, d, s, a, b, images, nz_images, target):
    """Site-image rows of a word of weight <= a + b that solves the search, or None."""
    words_b = _half_table(n, s, b)
    need = _images(words_b, images, d)
    np.subtract(target + d, need, out=need)
    _wrap(need, d)
    order = np.argsort(_rows(need), kind="stable")
    need = _rows(need)[order]
    words_b = words_b[order]
    del order
    # a permutation of the weight-b table is as good a probe table
    words_a = words_b if a == b else _half_table(n, s, a)
    probe = _rows(_images(words_a, images, d))
    # one partner per probe: of the weight-b words with the image it needs,
    # the first in the half table (the sort is stable)
    j = np.searchsorted(need, probe)
    np.minimum(j, need.size - 1, out=j)
    hits = np.flatnonzero(need[j] == probe)
    del need, probe
    if nz_images is not None:
        # One partner per probe is enough, as the target is zero and no
        # lighter word solves: if partner j cancels the probe's filter image
        # and partner j' does not, then j' - j is a lighter solution when
        # b < a; when b == a, partner j taken as a probe gets a partner that
        # does not cancel it.  So the filter runs on the hits alone.
        pairs = np.concatenate([words_a[hits], words_b[j[hits]]], axis=1)
        hits = hits[_images(pairs, nz_images, d).any(axis=1)]
    if not hits.size:
        return None
    return np.concatenate([words_a[hits[0]], words_b[j[hits[0]]]])


def min_weight_vector(
    n: int,
    d: int,
    w_max: int,
    matrix: Sites,
    target: np.ndarray,
    nonzero: Sites | None = None,
    budget: int | None = None,
    symbol_sets: Sequence[Sequence[tuple[int, int]] | None] = (None,),
) -> SearchResult:
    """Least weight w <= w_max of v with matrix @ v == target and nonzero @ v != 0 (mod d).

    symbol_sets runs searches restricted to per-site symbols closed under
    addition (e.g. X-type and Z-type words of a CSS code) in lockstep,
    weight by weight.  Each weight w costs C(n,a) s^a half-table words, plus
    C(n,b) s^b when b != a (s symbols per site); budget caps their total
    (candidates_tested), and HALF_TABLE_BYTES caps the memory of one join.  nonzero
    goes with a zero target, and only there: it excludes the empty word.
    Both maps come as their sites (Sites.of turns a dense one into them).
    A set's symbols (None: all d^2 - 1) are listed once both caps admit its first join.
    """
    target = np.asarray(target).astype(np.int64) % d
    if (nonzero is None) != bool(target.any()):
        raise ValueError("a nonzero filter goes with a zero target, and only there")
    target = target.astype(_image_dtype(d))
    row_bytes = target.itemsize * (target.size + (0 if nonzero is None else nonzero.shape[0]))
    sets = list(symbol_sets)
    images: list = [None] * len(sets)
    tested = 0
    for w in range(1, min(w_max, n) + 1):
        a, b = (w + 1) // 2, w // 2
        for k, symbols in enumerate(sets):
            size_a = candidates_at_weight(n, d, a, symbols)
            need = size_a + (candidates_at_weight(n, d, b, symbols) if b != a else 0)
            over_budget = budget is not None and tested + need > budget
            if over_budget or _join_bytes(size_a, a, b, row_bytes) > HALF_TABLE_BYTES:
                return SearchResult(None, None, w - 1, tested, True)
            tested += need
            if images[k] is None:
                sets[k] = symbols = nonidentity_symbols(d) if symbols is None else list(symbols)
                images[k] = [None if m is None else site_images(m, d, symbols)
                             for m in (matrix, nonzero)]
            sites = _meet(n, d, len(symbols), a, b, *images[k], target)
            if sites is not None:
                v = np.zeros(2 * n, dtype=np.int64)
                for r in sites:
                    q, j = divmod(int(r), len(symbols))
                    v[q] += symbols[j][0]
                    v[q + n] += symbols[j][1]
                return SearchResult(w, v % d, w - 1, tested, False)
    return SearchResult(None, None, w_max, tested, False)
