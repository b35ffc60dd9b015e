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
with C(n, w/2), not with the group size.

The join holds each image as a key: its m residues packed into uint64
words, a field of field_width(d) bits a residue as in fieldmath's packed
elimination, but with no field across a 32-bit half (see _key_halves).  A
word's key is the sum of its site keys, one gather and one add a site:
over GF(2) an XOR, at odd d a SWAR add mod d (the guard bit above each
residue takes the carry; fieldmath._field_ops does the same on Python
ints).  A key of one word sorts and is searched as a uint64, a longer one
as one opaque value of its words.  The nonzero filter is summed, as keys
too, only for the probes that found a partner.  The soundness profile
packs its syndromes into keys of the same layout, with no guard bit, by
one BLAS product (key_powers, row_keys) and counts their nonzero fields
(key_weights).

Every map comes as its fieldmath.Sites, the nonzero (row, qudit) sites
of a k-local matrix, and site_keys packs the weight-1 images of any map
(the syndrome map, the logicals, the two stacked, the pivot filter) from
those sites, once a search.

_words holds the canonical order of one weight's words, which the join's half
tables and candidate_batches (the profile's and the verifier's batches) share;
a search builds each half table once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .fieldmath import modmul  # noqa: F401 -- bench/tracing.py wraps search.modmul
from .fieldmath import Sites, field_width, residue_dtype
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
    supports = _subsets(n, h)
    # a C-ordered copy: the half table's broadcast add reads it about 1.5x faster
    choices = np.ascontiguousarray(np.indices((s,) * h, dtype=np.int32).reshape(h, s**h).T)
    return supports, choices


def _subsets(n: int, h: int) -> np.ndarray:
    """Every h-subset of range(n), one ascending int32 row each, in lexicographic order.

    Built one column at a time: a row whose last entry is a is repeated
    once for each next entry in (a, n - h + c] (c the new column's index),
    and the new column counts up from a + 1 along each row's repeats.
    """
    rows = np.zeros((1, 0), dtype=np.int32)  # the empty subset
    last = np.full(1, -1)
    for c in range(h):
        counts = np.maximum(n - h + c - last, 0)
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        # along a row's repeats: a + 1, a + 2, ..., as the position less its start
        last = np.arange(total) - np.repeat(starts - last - 1, counts)
        rows = np.concatenate([np.repeat(rows, counts, axis=0), last[:, None]], axis=1,
                              dtype=np.int32)
    return rows


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


def _join_bytes(size_a: int, a: int, b: int, row_bytes: int) -> int:
    """Peak bytes of a join, per word of the larger (weight-a) table: four rows
    of row_bytes (sums, sorted targets, probe, partner), twice the int32 site
    indices of both halves, and 16 bytes of indices and masks.  A row is
    priced as an image, m + r residues in the least type that holds 2d,
    though the join holds it as a key."""
    return size_a * (4 * row_bytes + 8 * (a + b) + 16)


# --- keys: rows of residues packed into uint64 words ------------------------

def _key_halves(m: int, w: int) -> tuple[int, int]:
    """The fields a 32-bit half and the halves a key of m fields of w bits takes.

    Residue i takes the field at bit w (i % e) of half i // e, e = 32 // w,
    so no field crosses a half.  The halves, at least two and padded to an
    even number, pair up into little-endian uint64 words: half 2j is the
    low half of word j.  The join's fields are field_width(d) bits, a guard
    bit above the residue at odd d that takes a sum's carry; the profile,
    which only compares and counts keys, packs (d - 1).bit_length() bits.
    """
    e = 32 // w
    halves = max(1, -(-m // e))
    return e, halves + halves % 2


def key_powers(m: int, w: int) -> np.ndarray:
    """(m, halves) float64 matrix that packs a row of m residues into w-bit fields
    by one product; every half of rows @ powers is below 2**32, so it is exact."""
    e, halves = _key_halves(m, w)
    half, place = np.divmod(np.arange(m), e)
    powers = np.zeros((m, halves))
    powers[np.arange(m), half] = np.exp2(w * place)
    return powers


def _key_words(halves: np.ndarray) -> np.ndarray:
    """Exact float64 halves (rows, 2 W) as the rows' uint64 key words (rows, W)."""
    return halves.astype(np.uint32).view(np.uint64)


def _packed(row: np.ndarray | int, col: np.ndarray, val: np.ndarray, count: int, m: int,
            w: int) -> np.ndarray:
    """Key words of count rows of m residues in w-bit fields, given by entries (row, col, val).

    row and col broadcast to the shape of val; one weighted count a half
    places each entry in its field, and (row, col) pairs are distinct, so
    each field takes one residue.
    """
    e, halves = _key_halves(m, w)
    half, place = np.divmod(col, e)
    flat = np.bincount((row * halves + half).ravel(), weights=(val * np.exp2(w * place)).ravel(),
                       minlength=count * halves)
    return _key_words(flat.reshape(count, halves))


def _as_keys(words: np.ndarray) -> np.ndarray:
    """One sortable key a row of words: the uint64 itself, or one opaque value
    of the row's words (ordered as bytes) when there are several."""
    if words.shape[1] == 1:
        return words[:, 0]
    words = np.ascontiguousarray(words)
    return words.view(np.dtype((np.void, words.shape[1] * 8)))[:, 0]


def row_keys(rows: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The key of each row of residues, by one BLAS product with key_powers.

    Two rows are equal iff their keys are.
    """
    return _as_keys(_key_words(rows.astype(np.float64) @ powers))


def _field_bases(w: int) -> np.uint64:
    """The word with a 1 at the lowest bit of every w-bit field of the key layout."""
    low = sum(1 << (w * j) for j in range(32 // w))
    return np.uint64(low | low << 32)


def key_weights(keys: np.ndarray, w: int) -> np.ndarray:
    """Number of nonzero w-bit fields of each key: the weight of its row of residues.

    Each field is ORed onto its low bit by w - 1 shifts; a mask keeps the
    low bits, whose popcount over a key's words counts the fields.  No
    shift carries a bit into a lower field's low bit, nor across halves.
    """
    words = keys.view(np.uint64).reshape(len(keys), -1)
    folded = words.copy()
    for shift in range(1, w):
        folded |= words >> np.uint64(shift)
    folded &= _field_bases(w)
    return np.bitwise_count(folded).sum(axis=1, dtype=np.int64)


def _reduce(s: np.ndarray, d: int, tmp: np.ndarray) -> None:
    """Join keys whose fields lie in [0, 2d) brought mod d in place (odd d), tmp a scratch.

    fieldmath._field_ops' add on uint64 words: adding 2**(w-1) - d to a
    field of w = field_width(d) bits sets its guard bit iff the field is d
    or more, without leaving the field, and d times that bit is taken off.
    """
    top = field_width(d) - 1
    ones = _field_bases(top + 1)
    np.add(s, ones * np.uint64((1 << top) - d), out=tmp)
    tmp >>= np.uint64(top)
    tmp &= ones
    tmp *= np.uint64(d)
    s -= tmp


def _key_add(u: np.ndarray, v: np.ndarray, d: int, tmp: np.ndarray | None = None) -> None:
    """u += v mod d field by field on join keys, in place (SWAR; over GF(2) one XOR)."""
    if d == 2:
        u ^= v
        return
    u += v
    _reduce(u, d, np.empty_like(u) if tmp is None else tmp)


def _key_sub(t: np.ndarray, v: np.ndarray, d: int) -> None:
    """v = t - v mod d field by field on join keys, in place: one negate, d - v
    in [1, d], and one add of t with its reduction."""
    if d == 2:
        v ^= t
        return
    np.subtract(_field_bases(field_width(d)) * np.uint64(d), v, out=v)
    _key_add(v, np.broadcast_to(t, v.shape), d)


def site_keys(sites: Sites, d: int, symbols) -> np.ndarray:
    """Key words of the image of the weight-1 word with symbol j at qudit q, at row q*s + j.

    Symbol (a, b) at qudit q has image x a + z b at each row with a site
    at q and 0 at the others, so one residue per site and symbol fills
    the table.
    """
    m, n = sites.shape[0], sites.shape[1] // 2
    sym = np.array(symbols, dtype=np.int64)
    # one row a symbol, one column a site: the long axis innermost
    vals = (sym[:, :1] * sites.x + sym[:, 1:] * sites.z) % d
    row = sites.qudit * len(sym) + np.arange(len(sym))[:, None]
    return _packed(row, sites.row, vals, n * len(sym), m, field_width(d))


def _half_table(n: int, s: int, h: int) -> np.ndarray:
    """Site indices of every weight-h word, one word per row (int32 holds
    q*s + j: a table of 2**31 words is far past HALF_TABLE_BYTES)."""
    supports, choices = _words(n, s, h)
    return (supports[:, None, :] * s + choices).reshape(len(supports) * len(choices), h)


def _key_sum(words: np.ndarray, keys: np.ndarray, d: int) -> np.ndarray:
    """Key words of words given as site indices: the sum of their site keys.

    One gather and one SWAR add a site, into one scratch buffer.  A word
    of no sites has key zero.
    """
    if not words.shape[1]:
        return np.zeros((words.shape[0], keys.shape[1]), dtype=np.uint64)
    out = keys[words[:, 0]]
    tmp = np.empty_like(out)
    for col in words.T[1:]:
        np.take(keys, col, axis=0, out=tmp)
        _key_add(out, tmp, d, tmp)
    return out


def _meet(d, words_a, words_b, keys, nz_keys, target):
    """Site indices of a word of weight <= a + b that solves the search, or None.

    words_a and words_b are the half tables (the same array when a == b),
    keys and nz_keys the site keys of the map and of the filter, target
    the target's key words.
    """
    sums = _key_sum(words_b, keys, d)
    same = words_a is words_b
    need = sums.copy() if same else sums
    _key_sub(target, need, d)
    order = np.argsort(_as_keys(need), kind="stable")
    need = _as_keys(need[order])
    words_b = words_b[order]
    if same:
        # a permutation of the weight-b table is as good a probe table
        words_a, probe = words_b, _as_keys(sums[order])
    else:
        probe = _as_keys(_key_sum(words_a, keys, d))
    del sums, order
    # one partner per probe: of the weight-b words with the key it needs,
    # the first in the half table (the sort is stable)
    j = np.searchsorted(need, probe)
    np.minimum(j, need.size - 1, out=j)
    hits = np.flatnonzero(need[j] == probe)
    del probe
    if nz_keys is not None:
        # One partner per probe is enough, as the target is zero and no
        # lighter word solves: if partner j cancels the probe's filter image
        # and partner j' does not, then j' - j is a lighter solution when
        # b < a; when b == a, partner j taken as a probe gets a partner that
        # does not cancel it.  So the filter runs on the hits alone.
        pairs = np.concatenate([words_a[hits], words_b[j[hits]]], axis=1)
        hits = hits[_key_sum(pairs, nz_keys, d).any(axis=1)]
    if not hits.size:
        return None
    first = hits[0] if not same else hits[_least_as_bytes(need[hits], d)]
    return np.concatenate([words_a[first], words_b[j[first]]])


def _least_as_bytes(keys: np.ndarray, d: int) -> int:
    """Index of the first least of keys, read as the rows of residues they pack
    (in the least unsigned type that holds 2d) and compared as bytes.

    When a == b the probe table is the weight-b table in the sorted order
    of the keys the probes need, and the witness is its first hit.  Taking
    the hit whose needed image is least as bytes (the first in the table
    among equals) fixes the witness, whatever order the keys sort in.
    """
    w = field_width(d)
    halves = keys.view(np.uint32).reshape(len(keys), -1)
    shifts = w * np.arange(32 // w, dtype=np.uint32)
    # filled one half at a time, so no temporary holds every field as a uint32
    rows = np.empty((len(keys), halves.shape[1], len(shifts)), dtype=np.min_scalar_type(2 * d))
    for h in range(halves.shape[1]):
        rows[:, h] = halves[:, h, None] >> shifts & ((1 << w) - 1)
    rows = rows.reshape(len(keys), -1)
    return int(np.argsort(rows.view(np.dtype((np.void, rows[0].nbytes)))[:, 0], kind="stable")[0])


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
    m = target.size
    # the cap prices a word's image as its m + r residues in the least type that holds 2d
    rows = m + (0 if nonzero is None else nonzero.shape[0])
    row_bytes = np.min_scalar_type(2 * d).itemsize * rows
    col = np.flatnonzero(target)
    target = _packed(0, col, target[col], 1, m, field_width(d))[0]
    sets = list(symbol_sets)
    keys: list = [None] * len(sets)
    tables: dict[tuple[int, int], np.ndarray] = {}  # (s, h): the weight-h half table
    tested = 0
    for w in range(1, min(w_max, n) + 1):
        a, b = (w + 1) // 2, w // 2
        for key in [key for key in tables if key[1] < b]:  # no later weight takes them
            del tables[key]
        for k, symbols in enumerate(sets):
            size_a = candidates_at_weight(n, d, a, symbols)
            need = size_a + (candidates_at_weight(n, d, b, symbols) if b != a else 0)
            over_budget = budget is not None and tested + need > budget
            if over_budget or _join_bytes(size_a, a, b, row_bytes) > HALF_TABLE_BYTES:
                return SearchResult(None, None, w - 1, tested, True)
            tested += need
            if keys[k] is None:
                sets[k] = symbols = nonidentity_symbols(d) if symbols is None else list(symbols)
                keys[k] = [None if f is None else site_keys(f, d, symbols)
                           for f in (matrix, nonzero)]
            s = len(symbols)
            for h in {a, b}:
                if (s, h) not in tables:
                    tables[s, h] = _half_table(n, s, h)
            sites = _meet(d, tables[s, a], tables[s, b], *keys[k], target)
            if sites is not None:
                v = np.zeros(2 * n, dtype=np.int64)
                for r in sites:
                    q, j = divmod(int(r), s)
                    v[q] += symbols[j][0]
                    v[q + n] += symbols[j][1]
                return SearchResult(w, v % d, w - 1, tested, False)
    return SearchResult(None, None, w_max, tested, False)
