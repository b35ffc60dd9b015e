import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qltc import search, stabilizer
from qltc.fieldmath import field_width, residue_dtype
from qltc.pauli import PauliOp, nonidentity_symbols
from qltc.search import (
    BATCH_ROWS,
    Sites,
    candidate_batches,
    min_weight_vector,
    modmul,
    pure_symbols,
)
from qltc.stabilizer import BoundedWeight
from qltc.zoo import steane_code, toric_code
from helpers import dense_min_weight_vector, image_dtype, kernel, python_keys, site_images
from test_stabilizer import five_qubit_code


# --- the slow oracle: the dense candidate sweep the join replaced ----------

def dense_min_weight(n, d, w_max, accept, symbol_sets=(None,)):
    """Least weight w <= w_max of a word accepted by accept, trying every word."""
    for w in range(1, w_max + 1):
        for symbols in symbol_sets:
            for batch in candidate_batches(n, d, w, symbols):
                if accept(batch).any():
                    return w
    return None


def sites_of(matrix):
    return None if matrix is None else Sites.of(matrix)


def linear_accept(d, matrix, target, nonzero=None):
    def accept(batch):
        ok = np.all(modmul(batch, matrix.T, d) == target, axis=1)
        if nonzero is not None:
            ok &= np.any(modmul(batch, nonzero.T, d), axis=1)
        return ok
    return accept


# the acceptance predicates the four StabilizerCode queries used
def centralizer_accept(code, e):
    target = code.syndrome(e)
    return lambda batch: np.all(code.syndrome_batch(batch) == target, axis=1)


def group_accept(code, e):
    null = kernel(code.symplectic_matrix, code.d)
    target = modmul(null, e.symplectic(), code.d)
    return lambda batch: np.all(modmul(batch, null.T, code.d) == target, axis=1)


def distance_accept(code):
    null = kernel(code.symplectic_matrix, code.d)

    def accept(batch):
        zero_syn = ~np.any(code.syndrome_batch(batch), axis=1)
        return zero_syn & np.any(modmul(batch, null.T, code.d), axis=1)
    return accept


def succinct_accept(code):
    null = kernel(code.symplectic_matrix, code.d)
    return lambda batch: ~np.any(modmul(batch, null.T, code.d), axis=1)


def half_table_words(n, s, w):
    a, b = (w + 1) // 2, w // 2
    return math.comb(n, a) * s**a + (math.comb(n, b) * s**b if b != a else 0)


def check_witness(res, n, d, matrix, target, nonzero, symbol_sets):
    v = res.vector
    assert np.count_nonzero(v[:n] | v[n:]) == res.found_weight
    assert np.array_equal(modmul(matrix, v, d), np.asarray(target) % d)
    if nonzero is not None:
        assert modmul(nonzero, v, d).any()
    sites = [(int(v[q]), int(v[q + n])) for q in range(n) if v[q] or v[q + n]]
    assert any(all(s in (syms or nonidentity_symbols(d)) for s in sites) for syms in symbol_sets)


def check_against_oracle(res, oracle, w_max):
    if res.budget_hit:
        assert res.found_weight is None
        assert oracle is None or oracle > res.exhausted_weight
    else:
        assert res.found_weight == oracle
        assert res.exhausted_weight == (w_max if oracle is None else oracle - 1)


# --- the kernel against the oracle ------------------------------------------

@st.composite
def linear_searches(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 6 if d < 5 else 4))
    symbol_sets = [(None,), (pure_symbols(d, "x"), pure_symbols(d, "z"))][rng.integers(2)]
    # the target is the image of a random word of weight 1..3 in one symbol
    # set, or zero with a filter
    v0 = np.zeros(2 * n, dtype=np.int64)
    supp = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    syms = np.array(symbol_sets[rng.integers(len(symbol_sets))] or nonidentity_symbols(d))
    syms = syms[rng.integers(len(syms), size=supp.size)]
    v0[supp], v0[supp + n] = syms[:, 0], syms[:, 1]
    matrix = rng.integers(d, size=(int(rng.integers(1, 2 * n + 1)), 2 * n))
    target = modmul(matrix, v0, d)
    nonzero = None
    if rng.random() < 0.5 or not target.any():
        target[:] = 0
        nonzero = rng.integers(d, size=(int(rng.integers(1, 4)), 2 * n))
    budget = None if rng.random() < 0.5 else int(rng.integers(0, 300))
    return n, d, 3, matrix, target, nonzero, symbol_sets, budget


@given(linear_searches())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_dense_sweep(case):
    n, d, w_max, matrix, target, nonzero, symbol_sets, budget = case
    res = min_weight_vector(n, d, w_max, Sites.of(matrix), target, nonzero=sites_of(nonzero),
                            budget=budget, symbol_sets=symbol_sets)
    oracle = dense_min_weight(n, d, w_max, linear_accept(d, matrix, target, nonzero), symbol_sets)
    check_against_oracle(res, oracle, w_max)
    if res.found_weight is not None:
        check_witness(res, n, d, matrix, target, nonzero, symbol_sets)


@pytest.mark.parametrize("d,w_max", [(127, 2), (131, 2), (131, 3), (257, 2)])
def test_kernel_matches_dense_sweep_past_one_byte(d, w_max):
    # at d = 127 the join's sums reach 2d - 2 = 252 in one byte; at d = 131
    # they pass 255, and at d = 257 one image is already past it: a
    # one-byte image type would wrap
    rng = np.random.default_rng(d)
    n, x = 3, pure_symbols(d, "x")
    for _ in range(3):
        matrix = rng.integers(d, size=(2, 2 * n))
        v0 = np.zeros(2 * n, dtype=np.int64)
        v0[rng.choice(n, size=w_max, replace=False)] = rng.integers(1, d, size=w_max)
        nonzero = rng.integers(d, size=(1, 2 * n))
        for target, nz in ((modmul(matrix, v0, d), None), (np.zeros(2, dtype=np.int64), nonzero)):
            res = min_weight_vector(n, d, w_max, Sites.of(matrix), target, nonzero=sites_of(nz),
                                    symbol_sets=(x,))
            oracle = dense_min_weight(n, d, w_max, linear_accept(d, matrix, target, nz), (x,))
            check_against_oracle(res, oracle, w_max)
            if res.found_weight is not None:
                check_witness(res, n, d, matrix, target, nz, (x,))
        # all d^2 - 1 symbols per site, at weight 1
        target = modmul(matrix, v0 * (np.arange(2 * n) == np.flatnonzero(v0)[0]), d)
        res = min_weight_vector(n, d, 1, Sites.of(matrix), target)
        assert res.found_weight == dense_min_weight(n, d, 1, linear_accept(d, matrix, target))
        check_witness(res, n, d, matrix, target, None, (None,))


# --- keys: the layout and its SWAR sums against Python ints ----------------

@st.composite
def key_rows(draw, d):
    """Three stacks of rows of m residues mod d, each entry 0, 1, d - 1 or any
    residue; m gives keys of one word or several, and puts fields on both
    sides of a 32-bit half boundary from m = e + 1 (e fields a half) up."""
    e = 32 // field_width(d)
    m = draw(st.sampled_from([1, e, e + 1, 2 * e, 2 * e + 1, 4 * e + 1]) | st.integers(1, 6 * e))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.array([0, 1, d - 1])
    rows = []
    for _ in range(3):
        r = rng.integers(d, size=(8, m))
        r = np.where(rng.random((8, m)) < 0.5, edges[rng.integers(3, size=(8, m))], r)
        r[0], r[1] = 0, d - 1  # every field empty, every field full
        rows.append(r.astype(residue_dtype(d)))
    return rows


def dense_words(rows, d):
    """Key words of rows of residues by the profile's product, at the join's width."""
    keys = search.row_keys(rows, search.key_powers(rows.shape[1], field_width(d)))
    return keys.view(np.uint64).reshape(len(rows), -1)


def sparse_words(rows, d):
    """Key words of rows of residues by the join's placement of nonzero entries."""
    r, c = np.nonzero(rows)
    return search._packed(r, c, rows[r, c].astype(np.int64), len(rows), rows.shape[1],
                          field_width(d))


@pytest.mark.parametrize("d", [2, 3, 5, 127, 257, 65521])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_key_sums_are_residue_sums_field_by_field(d, data):
    # a sum of two residues reaches 2d - 2 and t + d - v reaches 2d - 1 in a
    # field: the guard bit holds both, and one reduction brings them below d
    u, v, t = data.draw(key_rows(d))
    m = u.shape[1]
    words = [dense_words(r, d) for r in (u, v, t)]
    for r, ku in zip((u, v, t), words):
        assert ku.dtype == np.uint64 and ku.tolist() == python_keys(r, field_width(d))
        assert np.array_equal(sparse_words(r, d), ku)
    ku, kv, kt = words
    assert (ku.shape[1] == 1) == (m <= 2 * (32 // field_width(d)))
    counted = search.key_weights(search._as_keys(ku), field_width(d))
    assert counted.tolist() == np.count_nonzero(u, axis=1).tolist()
    u64, v64, t64 = (r.astype(np.int64) for r in (u, v, t))
    total = ku.copy()
    search._key_add(total, kv, d)
    assert total.tolist() == python_keys((u64 + v64) % d, field_width(d))
    diff = kv.copy()
    search._key_sub(kt[3], diff, d)  # one target against every row, as the join's need
    assert diff.tolist() == python_keys((t64[3] - v64) % d, field_width(d))
    negated = kv.copy()
    search._key_sub(np.zeros(kv.shape[1], dtype=np.uint64), negated, d)
    assert negated.tolist() == python_keys(-v64 % d, field_width(d))
    # a word's key is the sum of its sites' keys
    words_of = np.array([[0, 1, 2], [1, 1, 1], [7, 0, 3]], dtype=np.int32)
    summed = search._key_sum(words_of, kv, d)
    assert summed.tolist() == python_keys(v64[words_of].sum(axis=1) % d, field_width(d))


# --- the keyed join against the dense-image join ----------------------------

@st.composite
def join_searches(draw):
    """A search both joins run: m up to 90 rows of rank at most 3, so words of
    zero image exist, and a target from a random word or zero with a filter."""
    d = draw(st.sampled_from([2, 3, 5, 257]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 6))
    x, z = pure_symbols(d, "x"), pure_symbols(d, "z")
    choices = [(x,), (z,), (x, z)] if d == 257 else [(None,), (x,), (x, z)]
    symbol_sets = choices[rng.integers(len(choices))]
    w_max = {2: 4, 3: 4, 5: 3, 257: 2}[d]

    def low_rank(rows):
        mat = rng.integers(d, size=(rows, 3)) @ rng.integers(d, size=(3, 2 * n)) % d
        return mat * (rng.random((rows, 1)) < 0.8)

    matrix = low_rank(draw(st.integers(1, 90)))
    v0 = np.zeros(2 * n, dtype=np.int64)
    supp = rng.choice(n, size=int(rng.integers(1, min(n, w_max + 1) + 1)), replace=False)
    syms = np.array(symbol_sets[rng.integers(len(symbol_sets))] or nonidentity_symbols(d))
    syms = syms[rng.integers(len(syms), size=supp.size)]
    v0[supp], v0[supp + n] = syms[:, 0], syms[:, 1]
    target = modmul(matrix, v0, d)
    nonzero = None
    if draw(st.booleans()) or not target.any():
        target[:] = 0
        nonzero = low_rank(draw(st.integers(1, 70)))
    budget = draw(st.none() | st.integers(0, 3000))
    return n, d, w_max, matrix, target, nonzero, symbol_sets, budget


@given(join_searches())
@settings(max_examples=150, deadline=None)
def test_keyed_join_matches_dense_join(case):
    # the same found weight, witness, count and stop as the join on image rows
    n, d, w_max, matrix, target, nonzero, symbol_sets, budget = case
    args = (n, d, w_max, Sites.of(matrix), target)
    kwargs = dict(nonzero=sites_of(nonzero), budget=budget, symbol_sets=symbol_sets)
    got, ref = min_weight_vector(*args, **kwargs), dense_min_weight_vector(*args, **kwargs)
    assert (got.found_weight, got.exhausted_weight, got.candidates_tested, got.budget_hit) == (
        ref.found_weight, ref.exhausted_weight, ref.candidates_tested, ref.budget_hit)
    assert (got.vector is None) == (ref.vector is None)
    if got.vector is not None:
        assert np.array_equal(got.vector, ref.vector)
        check_witness(got, n, d, matrix, target, nonzero, symbol_sets)


def test_distance_past_one_byte():
    assert toric_code(2, 131).code_distance() == BoundedWeight.exactly(2)
    assert toric_code(2, 257).code_distance() == BoundedWeight.exactly(2)


CODES = {
    "toric:2": lambda: toric_code(2),
    "toric:3": lambda: toric_code(3),
    "toric:2:3": lambda: toric_code(2, 3),
    "toric:2:5": lambda: toric_code(2, 5),
    "steane": steane_code,
    "five-qubit": five_qubit_code,
}
_built = {}


def code_named(name):
    if name not in _built:
        _built[name] = CODES[name]()
    return _built[name]


@given(st.sampled_from(sorted(CODES)), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.integers(0, 3000)))
@settings(max_examples=60, deadline=None)
def test_coset_weights_match_dense_sweep(name, seed, budget):
    code = code_named(name)
    rng = np.random.default_rng(seed)
    w = int(rng.integers(1, (3 if code.d == 5 else 4) + 1))
    supp = rng.choice(code.n, size=w, replace=False)
    syms = np.array(nonidentity_symbols(code.d))[rng.integers(code.d**2 - 1, size=w)]
    x = np.zeros(code.n, dtype=np.int64)
    z = np.zeros(code.n, dtype=np.int64)
    x[supp], z[supp] = syms[:, 0], syms[:, 1]
    e = PauliOp(code.d, code.n, x, z)
    for query, accept in ((code.wt_mod_centralizer, centralizer_accept(code, e)),
                          (code.wt_mod_group, group_accept(code, e))):
        got = query(e, budget=budget)
        if got.exact and got.value == 0:
            continue
        oracle = dense_min_weight(code.n, code.d, w - 1, accept) or w
        assert got.low <= oracle <= got.high
        if budget is None:
            assert got.exact


@pytest.mark.parametrize("name", sorted(CODES))
def test_distance_and_succinctness_match_dense_sweep(name):
    code = code_named(name)
    css = code.is_css()
    sets = (pure_symbols(code.d, "x"), pure_symbols(code.d, "z")) if css else (None,)
    assert code.code_distance().value == dense_min_weight(code.n, code.d, code.n,
                                                          distance_accept(code), sets)
    succinct = dense_min_weight(code.n, code.d, code.k - 1, succinct_accept(code)) is None
    assert code.is_succinct() is succinct


# --- pinned results of the four queries ------------------------------------

PINNED_CODES = {
    "toric:5": lambda: toric_code(5),
    "toric:3:3": lambda: toric_code(3, 3),
    "toric:4:5": lambda: toric_code(4, 5),
    "steane": steane_code,
    "toric:6": lambda: toric_code(6),
}

# per query: found_weight, exhausted_weight, candidates_tested, budget_hit
# and the witness as {index: entry} over its nonzero entries
PINNED_SEARCHES = {
    "toric:5": {
        "code_distance": (5, 4, 26027, False, {0: 1, 5: 1, 10: 1, 15: 1, 20: 1}),
        "is_succinct": (None, 3, 11476, False, None),
        "code_distance:budget": (None, 3, 2752, True, None),
        "wt_mod_centralizer:0": (None, 3, 11476, False, None),
        "wt_mod_group:0": (None, 3, 11476, False, None),
        "wt_mod_centralizer:1": (3, 2, 11476, False, {0: 1, 23: 1, 50: 1, 73: 1, 75: 1}),
        "wt_mod_group:1": (3, 2, 11476, False, {0: 1, 23: 1, 50: 1, 73: 1, 75: 1}),
        "wt_mod_centralizer:2": (None, 3, 11476, False, None),
        "wt_mod_group:2": (None, 3, 11476, False, None),
        "wt_mod_centralizer:3": (3, 2, 11476, False, {3: 1, 29: 1, 53: 1, 91: 1}),
        "wt_mod_group:3": (3, 2, 11476, False, {3: 1, 29: 1, 53: 1, 91: 1}),
        "wt_mod_group:budget": (None, 2, 301, True, None),
    },
    "toric:3:3": {
        "code_distance": (3, 2, 794, False, {0: 1, 3: 1, 6: 1}),
        "is_succinct": (None, 3, 10225, False, None),
        "code_distance:budget": (3, 2, 794, False, {0: 1, 3: 1, 6: 1}),
        "wt_mod_centralizer:0": (None, 3, 10225, False, None),
        "wt_mod_group:0": (None, 3, 10225, False, None),
        "wt_mod_centralizer:1": (None, 3, 10225, False, None),
        "wt_mod_group:1": (None, 3, 10225, False, None),
        "wt_mod_centralizer:2": (None, 3, 10225, False, None),
        "wt_mod_group:2": (None, 3, 10225, False, None),
        "wt_mod_centralizer:3": (None, 3, 10225, False, None),
        "wt_mod_group:3": (None, 3, 10225, False, None),
        "wt_mod_group:budget": (None, 2, 289, True, None),
    },
    "toric:4:5": {
        "code_distance": (4, 3, 24578, False, {28: 4, 29: 4, 30: 4, 31: 4}),
        "is_succinct": (None, 3, 288001, False, None),
        "code_distance:budget": (None, 2, 514, True, None),
        "wt_mod_centralizer:0": (None, 3, 288001, False, None),
        "wt_mod_group:0": (None, 3, 288001, False, None),
        "wt_mod_centralizer:1": (None, 3, 288001, False, None),
        "wt_mod_group:1": (None, 3, 288001, False, None),
        "wt_mod_centralizer:2": (None, 3, 288001, False, None),
        "wt_mod_group:2": (None, 3, 288001, False, None),
        "wt_mod_centralizer:3": (None, 3, 288001, False, None),
        "wt_mod_group:3": (None, 3, 288001, False, None),
        "wt_mod_group:budget": (None, 0, 0, True, None),
    },
    "steane": {
        "code_distance": (3, 2, 58, False, {0: 1, 1: 1, 2: 1}),
        "is_succinct": (None, 3, 253, False, None),
        "code_distance:budget": (3, 2, 58, False, {0: 1, 1: 1, 2: 1}),
        "wt_mod_centralizer:0": (2, 1, 43, False, {0: 1, 10: 1}),
        "wt_mod_group:0": (3, 2, 253, False, {3: 1, 4: 1, 7: 1, 11: 1}),
        "wt_mod_centralizer:1": (2, 1, 43, False, {4: 1, 12: 1}),
        "wt_mod_group:1": (2, 1, 43, False, {2: 1, 5: 1, 12: 1}),
        "wt_mod_centralizer:2": (2, 1, 43, False, {4: 1, 5: 1, 11: 1}),
        "wt_mod_group:2": (2, 1, 43, False, {4: 1, 5: 1, 11: 1}),
        "wt_mod_centralizer:3": (2, 1, 43, False, {1: 1, 13: 1}),
        "wt_mod_group:3": (3, 2, 253, False, {0: 1, 2: 1, 9: 1, 10: 1}),
        "wt_mod_group:budget": (3, 2, 253, False, {0: 1, 2: 1, 9: 1, 10: 1}),
    },
    "toric:6": {
        "code_distance": (6, 5, 194690, False, {66: 1, 67: 1, 68: 1, 69: 1, 70: 1, 71: 1}),
        "is_succinct": (None, 3, 23653, False, None),
        "code_distance:budget": (None, 2, 2918, True, None),
        "wt_mod_centralizer:0": (None, 3, 23653, False, None),
        "wt_mod_group:0": (None, 3, 23653, False, None),
        "wt_mod_centralizer:1": (3, 2, 23653, False, {0: 1, 34: 1, 72: 1, 106: 1, 108: 1}),
        "wt_mod_group:1": (3, 2, 23653, False, {0: 1, 34: 1, 72: 1, 106: 1, 108: 1}),
        "wt_mod_centralizer:2": (None, 3, 23653, False, None),
        "wt_mod_group:2": (None, 3, 23653, False, None),
        "wt_mod_centralizer:3": (None, 3, 23653, False, None),
        "wt_mod_group:3": (None, 3, 23653, False, None),
        "wt_mod_group:budget": (None, 2, 433, True, None),
    },
}


def error_near_two_checks(code, seed):
    """A weight-4 error on qudits where two random generators act."""
    rng = np.random.default_rng(seed)
    near = np.flatnonzero(code.symplectic_matrix[rng.choice(code.m, size=2)].any(axis=0)) % code.n
    supp = rng.choice(np.unique(near), size=4, replace=False)
    syms = np.array(nonidentity_symbols(code.d))[rng.integers(code.d**2 - 1, size=4)]
    x = np.zeros(code.n, dtype=np.int64)
    z = np.zeros(code.n, dtype=np.int64)
    x[supp], z[supp] = syms[:, 0], syms[:, 1]
    return PauliOp(code.d, code.n, x, z)


@pytest.mark.parametrize("name", sorted(PINNED_CODES))
def test_search_results_are_pinned(monkeypatch, name):
    # every SearchResult the queries get, witness included: a faster join
    # must find the same word, test the same count and stop at the same weight.
    # The packing of violated generators settles some weights modulo the
    # centralizer with no search, so those pins run the search that query
    # would make (the syndrome map, E's syndrome, cap wt(E) - 1) directly.
    code = PINNED_CODES[name]()
    seen = []

    def recorded(*args, **kwargs):
        res = search.min_weight_vector(*args, **kwargs)
        seen.append(res)
        return res

    monkeypatch.setattr(stabilizer, "min_weight_vector", recorded)
    queries = {"code_distance": code.code_distance, "is_succinct": code.is_succinct,
               "code_distance:budget": lambda: code.code_distance(budget=3000)}
    errors = [error_near_two_checks(code, seed) for seed in range(4)]
    for seed, e in enumerate(errors):
        queries[f"wt_mod_centralizer:{seed}"] = lambda e=e: recorded(
            code.n, code.d, e.weight() - 1, code._syndrome_map, code.syndrome(e))
        queries[f"wt_mod_group:{seed}"] = lambda e=e: code.wt_mod_group(e)
    queries["wt_mod_group:budget"] = lambda e=e: code.wt_mod_group(e, budget=500)
    got = {}
    for query, run in queries.items():
        seen.clear()
        run()
        (res,) = seen
        v = None if res.vector is None else {
            int(i): int(res.vector[i]) for i in np.flatnonzero(res.vector)}
        got[query] = (res.found_weight, res.exhausted_weight, res.candidates_tested,
                      res.budget_hit, v)
    assert got == PINNED_SEARCHES[name]
    for seed, e in enumerate(errors):
        found, _, _, budget_hit, _ = PINNED_SEARCHES[name][f"wt_mod_centralizer:{seed}"]
        assert not budget_hit
        pinned = e.weight() if found is None else found
        assert code.wt_mod_centralizer(e) == BoundedWeight.exactly(pinned)


def test_join_partner_is_the_first_of_equal_images_in_the_half_table():
    # X on qudit 0 meets (1, 0), X on any of the 299 others meets (0, 1): each
    # of those is a partner of qudit 0 for the target (1, 1), and the join
    # takes the first in the half table, where an unstable sort of the equal
    # images would leave another first
    n = 300
    m = np.zeros((2, 2 * n), dtype=np.uint8)
    m[0, 0] = m[1, 1:n] = 1
    res = min_weight_vector(n, 2, 2, Sites.of(m), np.array([1, 1]),
                            symbol_sets=(pure_symbols(2, "x"),))
    assert res.found_weight == 2 and np.flatnonzero(res.vector).tolist() == [0, 1]


# --- what the kernel counts ------------------------------------------------

def test_candidates_tested_counts_half_tables():
    # toric:3 distance 3, CSS lockstep with one symbol per set: both sets
    # exhaust weights 1 and 2, the X set then finds a logical at weight 3
    c = toric_code(3)
    res = min_weight_vector(c.n, c.d, c.n, Sites.of(c.syndrome_matrix), np.zeros(c.m),
                            nonzero=Sites.of(kernel(c.symplectic_matrix, c.d)),
                            symbol_sets=(pure_symbols(2, "x"), pure_symbols(2, "z")))
    assert res.found_weight == 3 and not res.budget_hit
    per_set = [half_table_words(c.n, 1, w) for w in (1, 2, 3)]
    assert per_set == [18 + 1, 18, 153 + 18]
    assert res.candidates_tested == 2 * (per_set[0] + per_set[1]) + per_set[2]
    # the full symbol set, exhausted to w_max without a hit
    e = PauliOp.single(c.n, 2, 0, 1, 1)
    target = c.syndrome(e)
    res = min_weight_vector(c.n, c.d, 3, Sites.of(c.syndrome_matrix), target)
    assert res.found_weight == 1
    assert res.candidates_tested == half_table_words(c.n, 3, 1)
    far = min_weight_vector(c.n, c.d, 2, Sites.of(c.syndrome_matrix), (target + c.syndrome(
        PauliOp.single(c.n, 2, 9, 1, 0)) + c.syndrome(PauliOp.single(c.n, 2, 4, 0, 1))) % 2)
    assert far.found_weight is None and far.exhausted_weight == 2
    assert far.candidates_tested == half_table_words(c.n, 3, 1) + half_table_words(c.n, 3, 2)


def test_a_search_builds_each_half_table_once(monkeypatch):
    # toric:5 distance runs two sets of one symbol each up to weight 5: the
    # half tables of weight 0 to 3, each built once for both sets
    built = []
    words = search._words
    monkeypatch.setattr(search, "_words", lambda n, s, h: built.append((s, h)) or words(n, s, h))
    assert toric_code(5).code_distance() == BoundedWeight.exactly(5)
    assert sorted(built) == [(1, 0), (1, 1), (1, 2), (1, 3)]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_subsets_are_the_combinations_in_their_order(data):
    # the half tables pass h from 0 (weight 1's empty half) up, the batches
    # the weights of the profile and the verifier: any h, also past n
    n = data.draw(st.integers(0, 40))
    h = data.draw(st.integers(0, n + 1).filter(lambda h: math.comb(n, h) <= 100_000))
    supports, choices = search._words(n, 1, h)
    c = math.comb(n, h)
    expected = np.array(list(itertools.combinations(range(n), h)), dtype=np.int32)
    assert supports.dtype == np.int32 and supports.flags.c_contiguous
    assert supports.shape == (c, h)
    assert np.array_equal(supports, expected.reshape(c, h))
    assert choices.shape == (1, h)


def test_budget_stops_before_a_weight_it_cannot_pay_for():
    c = toric_code(3)
    full = half_table_words(c.n, 3, 1) + half_table_words(c.n, 3, 2)
    target = (c.syndrome(PauliOp.single(c.n, 2, 0, 1, 0))
              + c.syndrome(PauliOp.single(c.n, 2, 5, 0, 1))
              + c.syndrome(PauliOp.single(c.n, 2, 11, 1, 1))) % 2
    for budget, exhausted in ((full - 1, 1), (full, 2), (0, 0)):
        res = min_weight_vector(c.n, c.d, 2, Sites.of(c.syndrome_matrix), target, budget=budget)
        assert res.found_weight is None and res.exhausted_weight == exhausted
        assert res.budget_hit == (budget < full)
        assert res.candidates_tested <= budget


def test_half_table_cap_is_a_budget_hit(monkeypatch):
    c = toric_code(4)
    row_bytes = c.m + len(kernel(c.symplectic_matrix, c.d))
    monkeypatch.setattr(search, "HALF_TABLE_BYTES", search._join_bytes(100, 2, 2, row_bytes))
    # weight 3 needs the C(32, 2) = 496 weight-2 words per set, over the cap
    assert c.code_distance() == BoundedWeight(3, None)


# --- the one scatter against the dense per-qudit images ---------------------

def dense_site_images(matrix, n, d, symbols):
    """Image of the weight-1 word with symbol j at qudit q, at row q*s + j: one modmul a qudit."""
    out = np.empty((n, len(symbols), matrix.shape[0]), dtype=image_dtype(d))
    sym = np.array(symbols, dtype=np.int64)
    for q in range(n):
        out[q] = modmul(sym, matrix[:, [q, q + n]].T, d)
    return out.reshape(n * len(symbols), -1)


@st.composite
def sparse_maps(draw):
    """A random m x 2n map over GF(d) in the layouts and types the searches meet."""
    d = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = (int(v) for v in rng.integers(1, 7, size=2))
    matrix = rng.integers(d, size=(m, 2 * n)) * (rng.random((m, 2 * n)) < rng.random())
    if draw(st.booleans()):  # x and z both nonzero at one (row, qudit)
        q = int(rng.integers(n))
        matrix[rng.integers(m), [q, q + n]] = rng.integers(1, d, size=2)
    if draw(st.booleans()):  # an all-zero row
        matrix[rng.integers(m)] = 0
    if draw(st.booleans()):  # an all-zero qudit
        q = int(rng.integers(n))
        matrix[:, [q, q + n]] = 0
    matrix = matrix.astype(draw(st.sampled_from([np.uint8, np.int64, np.float64])))
    if draw(st.booleans()):  # F-ordered
        matrix = np.asfortranarray(matrix)
    symbols = draw(st.sampled_from([None, "x", "z"]))
    symbols = nonidentity_symbols(d) if symbols is None else pure_symbols(d, symbols)
    return matrix, n, d, symbols


@given(sparse_maps())
@settings(max_examples=200, deadline=None)
def test_scattered_site_images_match_dense(case):
    matrix, n, d, symbols = case
    sites = Sites.of(matrix)
    m = matrix.shape[0]
    expected = [(r, q) for q in range(n) for r in range(m) if matrix[r, q] or matrix[r, q + n]]
    assert list(zip(sites.row.tolist(), sites.qudit.tolist())) == expected
    assert sites.first.tolist() == [sites.qudit.tolist().index(q) for q in sites.qudit.tolist()]
    images = site_images(sites, d, symbols)
    assert images.dtype == image_dtype(d)
    assert np.array_equal(images, dense_site_images(matrix, n, d, symbols))
    # the join's site keys pack those rows
    assert search.site_keys(sites, d, symbols).tolist() == python_keys(images, field_width(d))


def test_join_bytes_bound_the_join():
    # the estimate covers what one join allocates (tracemalloc sees numpy's
    # buffers), here for toric:5 distance at weight 4 over all symbols
    c = toric_code(5)
    symbols = nonidentity_symbols(2)
    null = kernel(c.symplectic_matrix, c.d)
    keys = [search.site_keys(Sites.of(m), 2, symbols) for m in (c.syndrome_matrix, null)]
    target = np.zeros(keys[0].shape[1], dtype=np.uint64)
    tracemalloc.start()
    try:
        table = search._half_table(c.n, 3, 2)
        search._meet(2, table, table, *keys, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row_bytes = c.m + len(null)
    assert peak <= search._join_bytes(math.comb(c.n, 2) * 9, 2, 2, row_bytes)


def test_filter_goes_with_zero_target_only():
    ones = Sites.of(np.ones((1, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        min_weight_vector(2, 2, 2, ones, np.zeros(1))
    with pytest.raises(ValueError):
        min_weight_vector(2, 2, 2, ones, np.ones(1), nonzero=ones)


# --- candidate_batches -----------------------------------------------------

def itertools_words(n, d, w, symbols=None):
    symbols = nonidentity_symbols(d) if symbols is None else symbols
    out = []
    for supp in itertools.combinations(range(n), w):
        for combo in itertools.product(symbols, repeat=w):
            v = np.zeros(2 * n, dtype=np.int64)
            for q, (x, z) in zip(supp, combo):
                v[q], v[q + n] = x, z
            out.append(v)
    return np.array(out, dtype=np.int64).reshape(len(out), 2 * n)


def test_candidate_batches_are_bounded():
    # 8^4 = 4096 symbol combinations per support: batches span whole supports
    first = next(candidate_batches(18, 3, 4))
    assert 0 < first.shape[0] <= BATCH_ROWS
    # 24^3 = 13824 combinations exceed one batch: a support spans batches
    batches = list(candidate_batches(4, 5, 3))
    assert all(b.shape[0] <= BATCH_ROWS for b in batches) and len(batches) > 4


@pytest.mark.parametrize("n,d,w,rows", [(5, 3, 2, None), (4, 5, 3, None), (6, 2, 3, 7),
                                        (5, 3, 2, 5), (3, 2, 0, 4)])
def test_candidate_batches_equal_itertools(monkeypatch, n, d, w, rows):
    if rows is not None:
        monkeypatch.setattr(search, "BATCH_ROWS", rows)
    got = np.concatenate(list(candidate_batches(n, d, w)))
    assert np.array_equal(got, itertools_words(n, d, w))
    x = pure_symbols(d, "x")
    assert np.array_equal(np.concatenate(list(candidate_batches(n, d, w, x))),
                          itertools_words(n, d, w, x))


@pytest.mark.parametrize("n,d,h", [(7, 2, 3), (6, 3, 2), (5, 5, 2), (9, 2, 4), (5, 3, 0), (4, 2, 4)])
def test_half_table_words_equal_itertools(n, d, h):
    # the join's half table and candidate_batches take one order from _words:
    # row q*s + j of the site images is symbol j at qudit q
    sym = np.array(nonidentity_symbols(d))
    table = search._half_table(n, len(sym), h)
    assert table.dtype == np.int32 and table.shape == (math.comb(n, h) * len(sym)**h, h)
    q, j = np.divmod(table, len(sym))
    words = np.zeros((len(table), 2 * n), dtype=np.int64)
    rows = np.arange(len(table))[:, None]
    words[rows, q], words[rows, q + n] = sym[j, 0], sym[j, 1]
    assert np.array_equal(words, itertools_words(n, d, h))


def test_a_refused_join_lists_no_symbols(monkeypatch):
    # the d^2 - 1 symbols are listed only for a join the caps admit: at d = 3001
    # toric:3's weight-1 join over all 9,006,000 symbols is past HALF_TABLE_BYTES
    def listed(d):
        raise AssertionError(f"listed the {d * d - 1} symbols")

    monkeypatch.setattr(search, "nonidentity_symbols", listed)
    c = toric_code(3, 3001)
    assert c.is_succinct() is None
    res = min_weight_vector(c.n, c.d, 3, c._syndrome_map, np.zeros(c.m), budget=0,
                            nonzero=Sites.of(kernel(c.symplectic_matrix, c.d)))
    assert res.budget_hit and res.exhausted_weight == 0 and res.candidates_tested == 0
