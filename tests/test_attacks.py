import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qltc
from qltc import attacks, search, zoo
from qltc.attacks import (
    IslandTrialStats,
    NotAnErrorError,
    alphabet_alpha,
    alphabet_attack,
    alphabet_t,
    evaluate_r,
    expander_attack,
    island_attack,
    refined_expander_attack,
    soundness_profile,
)
from qltc.pauli import PauliOp, nonidentity_symbols
from qltc.search import candidate_batches
from qltc.fieldmath import RowSpace, residue_dtype
from qltc.stabilizer import StabilizerCode, build_code
from qltc.zoo import steane_code, toric_code
from helpers import (
    identity,
    consistent_phases,
    ilp_coset_weight,
    kernel,
    paired_circulant_matrix,
    python_keys,
    r_at_coset_weight,
    random_open_path,
    regular_circulant_matrix,
    string_error,
    vertex_path_edges,
    wrap_loop_edges,
)


def test_alphabet_constants():
    assert alphabet_t(2) == pytest.approx(1 / 3)
    assert alphabet_alpha(2) == pytest.approx(2 / 3)
    assert alphabet_t(3) == pytest.approx(1 / 8)
    assert alphabet_alpha(3) == pytest.approx(7 / 8)
    assert alphabet_alpha(5) == pytest.approx(23 / 24)


# --- evaluate_r ------------------------------------------------------------

def test_evaluate_open_string_toric4():
    # L-shaped path whose endpoints are lattice distance 3 apart, so the
    # coset weight equals the string length
    c = toric_code(4)
    e = string_error(4, vertex_path_edges(4, [(0, 0), (0, 1), (0, 2), (1, 2)]), kind="z")
    rep = evaluate_r(c, e)
    assert rep.penalty == 2
    assert rep.wt_mod_centralizer.value == 3
    assert rep.delta_low == pytest.approx(3 / 32)
    assert rep.R == pytest.approx(2 / 32)
    assert rep.r == pytest.approx((2 / 32) / (4 * 3 / 32))


def test_evaluate_staple_path_shortens():
    # a length-3 "staple" whose endpoints are adjacent reduces to weight 1
    c = toric_code(4)
    e = string_error(4, vertex_path_edges(4, [(3, 2), (2, 2), (2, 3), (3, 3)]), kind="z")
    rep = evaluate_r(c, e)
    assert rep.weight == 3 and rep.wt_mod_centralizer.value == 1


def test_evaluate_single_qubit_x():
    c = toric_code(3)
    e = PauliOp.single(c.n, 2, 0, x=1, z=0)
    rep = evaluate_r(c, e)
    assert rep.penalty == 2  # its two vertex checks
    assert rep.delta_low == pytest.approx(1 / c.n)
    assert rep.wt_mod_group.exact or rep.wt_mod_group.low >= 1


def test_evaluate_rejects_non_errors():
    assert issubclass(NotAnErrorError, attacks.Refusal)
    c = toric_code(2)
    with pytest.raises(NotAnErrorError):
        evaluate_r(c, c.generators[0])
    with pytest.raises(NotAnErrorError):
        evaluate_r(c, identity(c.n, 2))
    logical = string_error(2, wrap_loop_edges(2, 0, "horizontal"), kind="z")
    with pytest.raises(NotAnErrorError):
        evaluate_r(c, logical)


@pytest.mark.parametrize("make", [lambda: toric_code(3), lambda: toric_code(3, 3), steane_code],
                         ids=["toric:3", "toric:3:3", "steane"])
def test_evaluate_r_wt_mod_group_is_the_budget_0_search(make):
    """evaluate_r reports the weight modulo the group without a search; the
    budget-0 search stays the oracle, on random errors with nonzero penalty."""
    code = make()
    rng = np.random.default_rng(0)
    weights = set()
    checked = 0
    while checked < 40:
        x, z = rng.integers(code.d, size=(2, code.n))
        keep = rng.random(code.n) < rng.uniform(0.05, 0.6)
        e = PauliOp(code.d, code.n, x * keep, z * keep, 0)
        if code.penalty(e) == 0:
            continue
        assert evaluate_r(code, e).wt_mod_group == code.wt_mod_group(e, budget=0)
        weights.add(e.weight())
        checked += 1
    assert 1 in weights and len(weights) > 3


def test_interval_r_pessimistic():
    c = toric_code(3)
    e = string_error(3, random_open_path(3, 3, np.random.default_rng(1)), kind="z")
    rep = evaluate_r(c, e, budget=1)  # too small to verify the coset weight
    assert not rep.wt_mod_centralizer.exact
    assert rep.r_pessimistic >= rep.r_optimistic
    with pytest.raises(ValueError):
        rep.r
    obj = rep.to_json()
    assert obj["r"]["kind"] == "interval"
    json.dumps(obj)  # serializable


# --- coset weights against the integer program -----------------------------

def _least_weights(code, w_max):
    """Syndrome bytes -> the least weight of a word with that syndrome, over every word of
    weight <= w_max."""
    least = {}
    for w in range(1, w_max + 1):
        for batch in candidate_batches(code.n, code.d, w):
            for key in map(bytes, code.syndrome_batch(batch).astype(np.uint8)):
                least.setdefault(key, w)
    return least


def _check_ilp_against_exhaustive(code, w_max, far):
    """The ILP's value on sampled syndromes of every weight <= w_max is the least weight,
    and on syndromes of weight-far words that no word of weight <= w_max has, above w_max."""
    least = _least_weights(code, w_max)
    rng = np.random.default_rng(0)
    by_weight = {w: [key for key, v in least.items() if v == w] for w in range(1, w_max + 1)}
    for w, keys in by_weight.items():
        for i in rng.choice(len(keys), size=min(10, len(keys)), replace=False):
            assert ilp_coset_weight(code, np.frombuffer(keys[i], dtype=np.uint8)) == w
    beyond = 0
    for batch in candidate_batches(code.n, code.d, far):
        for target in code.syndrome_batch(batch[rng.choice(len(batch), 4)]).astype(np.uint8):
            if bytes(target) not in least:
                assert ilp_coset_weight(code, target) > w_max
                beyond += 1
        if beyond >= 10:
            break
    assert beyond >= 10


def test_ilp_coset_weight_matches_exhaustive_enumeration_on_toric3():
    _check_ilp_against_exhaustive(toric_code(3), 4, 8)


@pytest.mark.parametrize("d", [3, 5])
def test_ilp_coset_weight_matches_exhaustive_enumeration_at_odd_d(d):
    # x and z range over [0, d - 1], each covered by (d - 1) y, and the slack is d k
    _check_ilp_against_exhaustive(toric_code(3, d), 2, 4)


@pytest.mark.parametrize("L, d", [(10, 2), (16, 2), (24, 2), (10, 3), (16, 3), (24, 3), (10, 5),
                                  (16, 5)],
                         ids=["10", "16", "24", "10:3", "16:3", "24:3", "10:5", "16:5"])
@pytest.mark.parametrize("attack", [expander_attack, alphabet_attack])
def test_reported_coset_weight_interval_holds_the_ilp_value(L, d, attack):
    # the packing of violated checks reaches wt(E) on every row, so the
    # reported weight is exact, where the join alone stops at weight 3
    code = toric_code(L, d)
    report = attack(code, 0.05, seed=1)
    syndrome = code.syndrome(report.error)
    exact = ilp_coset_weight(code, syndrome)
    bounds = report.wt_mod_centralizer
    assert bounds.low <= exact <= bounds.high
    assert exact == {10: 8, 16: 22, 24: 51}[L] == report.weight
    assert code._packing(syndrome) == exact and bounds.exact


# --- expander attack -------------------------------------------------------

def test_expander_single_island_exact():
    c = toric_code(3)
    rep = expander_attack(c, 1 / c.n, seed=0)
    assert rep.weight == 1
    assert rep.wt_mod_centralizer.value == 1  # weight-1 error with syndrome
    assert rep.meta["attack"] == "expander" and len(rep.meta["U"]) == 1


def test_expander_two_islands_verified():
    h = regular_circulant_matrix(4, 2, seed=1)
    c = zoo.css_hypergraph_product(h, h)
    rep = expander_attack(c, 2 / c.n, seed=3)
    assert len(rep.meta["U"]) == 2
    # exact: all weight-1 candidates exhausted
    assert rep.wt_mod_centralizer.value == 2


def test_expander_r_bound_on_toric():
    c = toric_code(4)
    eps_star = c.graph.small_set_expansion_error(c.k)["epsilon_star"]
    assert eps_star < 0.5
    rep = expander_attack(c, 1 / c.n, seed=0)
    assert rep.r <= 2 * eps_star + 1e-12


def test_expander_penalty_bound_meta():
    c = toric_code(4)
    rep = expander_attack(c, 2 / c.n, seed=1)
    assert rep.penalty <= rep.meta["predicted_penalty_bound"]


def test_expander_rejects_bad_delta():
    with pytest.raises(ValueError):
        expander_attack(toric_code(2), 0.0)


def _circulant_hgp8():
    h = regular_circulant_matrix(8, 2, seed=1)
    return zoo.css_hypergraph_product(h, h)


PIN_CODES = {
    "toric:6": lambda: toric_code(6),
    "toric:4:3": lambda: toric_code(4, 3),
    "hgp:circulant8": _circulant_hgp8,
}


# (code, delta, seed) -> (U, chosen_qudits, predicted_penalty_bound)
@pytest.mark.parametrize("name, delta, seed, pinned", [
    ("toric:6", 4 / 72, 2, ([51, 25, 5], [15, 24, 4], 9)),
    ("hgp:circulant8", 3 / 128, 5, ([32, 111, 29], [0, 42, 53], 9)),
    ("toric:4:3", 2 / 32, 1, ([26, 16], [10, 0], 6)),
])
def test_expander_attack_golden(name, delta, seed, pinned):
    meta = expander_attack(PIN_CODES[name](), delta, seed=seed).meta
    assert (meta["U"], meta["chosen_qudits"], meta["predicted_penalty_bound"]) == pinned


def _stats(size, gamma, unique, total, eps):
    return {"set_size": size, "gamma_size": gamma, "unique_neighbors": unique,
            "multi_neighbors": gamma - unique, "total_degree": total, "epsilon": eps}


# (code, |U| target, seed, delta') -> (U, chosen_qudits, gamma_u_stats)
@pytest.mark.parametrize("name, target, seed, delta_prime, pinned", [
    ("toric:6", 6, 2, 3 / 72, ([51, 25, 5], [4, 15, 24], _stats(12, 27, 12, 48, 0.4375))),
    ("hgp:circulant8", 4, 5, 2 / 128,
     ([32, 111, 29, 57], [0, 17], _stats(16, 36, 16, 64, 0.4375))),
    ("toric:4:3", 3, 1, 2 / 32, ([26, 16], [0, 10], _stats(8, 18, 8, 32, 0.4375))),
])
def test_refined_expander_attack_golden(name, target, seed, delta_prime, pinned):
    code = PIN_CODES[name]()
    u_set = code.graph.greedy_t_independent(1, target, seed=seed)
    meta = refined_expander_attack(code, u_set, delta_prime).meta
    assert (meta["U"], meta["chosen_qudits"], meta["gamma_u_stats"]) == pinned


def _mask(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("name", sorted(PIN_CODES))
def test_attack_counts_match_per_constraint_popcounts(name):
    """The two attack counts against a recount over each constraint's qudit mask."""
    code = PIN_CODES[name]()
    g = code.graph
    right = [_mask(v) for v in g.right_adj]
    for u in range(code.m):
        # expander: checks at q sharing >= 2 qudits with generator u
        multi = {q: sum(1 for c in g.left_adj[q] if (right[c] & right[u]).bit_count() >= 2)
                 for q in g.right_adj[u]}
        best = min(g.right_adj[u], key=lambda q: (multi[q], q))
        assert attacks._select_qudit(code, u) == (best, multi[best])
    rng = np.random.default_rng(0)
    for _ in range(30):
        s = rng.choice(code.n, size=int(rng.integers(1, 13)), replace=False).tolist()
        # refined: checks at q seeing exactly one qudit of S
        once = g.touches(s) == 1
        for q in s:
            uniq = sum(1 for c in g.left_adj[q] if (right[c] & _mask(s)).bit_count() == 1)
            assert int(once[g.left_adj[q]].sum()) == uniq


# --- refined attack --------------------------------------------------------

def test_refined_on_toric():
    c = toric_code(4)
    u = c.graph.greedy_t_independent(1, 2, seed=2)
    rep = refined_expander_attack(c, u, len(u) / c.n)
    assert rep.meta["attack"] == "refined_expander"
    # measured inequality from the claim
    assert rep.r_pessimistic <= rep.meta["r_bound"] + 1e-12 or not rep.wt_mod_centralizer.exact
    assert rep.r <= rep.meta["r_bound"] + 1e-12


def test_refined_subset_delta():
    c = toric_code(4)
    u = c.graph.greedy_t_independent(1, 3, seed=5)
    assert len(u) >= 2
    rep = refined_expander_attack(c, u, 1 / c.n)
    assert rep.weight == 1


def test_refined_rejects_bad_u():
    c = toric_code(3)
    # adjacent constraints are not 1-independent
    c0 = 0
    c1 = sorted(c.graph.gamma(c.graph.gamma([c0], "right"), "left") - {c0})[0]
    with pytest.raises(ValueError):
        refined_expander_attack(c, [c0, c1], 1 / c.n)
    u = c.graph.greedy_t_independent(1, 2, seed=0)
    with pytest.raises(attacks.Refusal):
        refined_expander_attack(c, u, 1.0)  # delta' n > |U|


# --- alphabet attack -------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 5])
def test_alphabet_attack_bound(d):
    c = toric_code(3, d)
    rep = alphabet_attack(c, 1 / c.n, seed=0)
    assert rep.r <= alphabet_alpha(d) + 1e-12
    fracs = rep.meta["per_qudit_violation_fraction"]
    assert all(f <= alphabet_alpha(d) + 1e-12 for f in fracs)


def test_alphabet_majority_on_uniform_qudit():
    # on the toric code every qudit sees 2 X-type and 2 Z-type checks, so
    # the majority is the lexicographically first tied symbol
    c = toric_code(3)
    x, z, count = attacks.majority_restriction(c, 0)
    assert count == 2


# --- island attack ---------------------------------------------------------

def _hgp_instance():
    h = regular_circulant_matrix(6, 2, seed=3)
    return zoo.css_hypergraph_product(h, h)


def test_island_stats_shape():
    c = _hgp_instance()
    stats = island_attack(c, trials=300, seed=4)
    assert stats.histogram.sum() == 300 * len(stats.u_set)
    assert len(stats.s_qudits) == len(stats.u_set) * c.k
    assert stats.p == pytest.approx(1 / (10 * c.k))
    assert 0 <= stats.epsilon_prime < 1
    assert stats.best_trial.penalty > 0
    json.dumps(stats.to_json())


def _fresh_stream(seed, trial):
    """The oracle's stream for a trial: a new Generator on Philox(key=seed, counter=trial << 64)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=trial << 64))


def _assert_raw_outputs_are_numpys(seed, trials, first, count):
    raw = attacks._philox_raw(seed, np.array(trials, dtype=np.uint64), first, count)
    assert raw.shape == (len(trials), count) and raw.dtype == np.uint64
    for t, row in zip(trials, raw):
        want = np.random.Philox(key=seed, counter=t << 64).random_raw(first + count)
        assert np.array_equal(row, want[first:])


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64 + 5, 2**128 - 1])
def test_trial_streams_match_fresh_philox(seed):
    # every first output mod 4, so each lane's block and the cut inside it are checked
    for first in range(9):
        for count in (1, 4, 7):
            _assert_raw_outputs_are_numpys(seed, [0, 1, 5, 2**20, 2**64 - 1], first, count)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), trial=st.integers(0, 2**64 - 1),
       first=st.integers(0, 40), count=st.integers(1, 12))
def test_philox_kernel_matches_numpy_on_any_key(seed, trial, first, count):
    _assert_raw_outputs_are_numpys(seed, [trial, 3], first, count)


def test_philox_kernel_refuses_keys_numpy_refuses():
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            np.random.Philox(key=seed)
        with pytest.raises(ValueError, match="Philox key"):
            attacks._philox_raw(seed, np.arange(2), 0, 4)


class _PhiloxCount:
    """np.random.Philox that counts its constructions: none is made by the package."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = np.random.Philox

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)


def _generator_symbols(seed, trials, first, counts, n):
    """integers(n, size=c) of each trial's fresh Generator after `first` uniforms, concatenated."""
    want = []
    for t, c in zip(trials, counts):
        stream = _fresh_stream(seed, t)
        stream.random(first)  # a uniform is one raw output
        want.extend(stream.integers(n, size=c).tolist())
    return want


@pytest.mark.parametrize("n", [3, 8, 24, 10007**2 - 1, 3 * 2**30 + 1])
def test_trial_symbols_match_generator_integers(monkeypatch, n):
    # at n = 3 * 2**30 + 1 about a quarter of the draws are rejected by
    # Lemire's rule, so most trials read their streams past the first outputs
    rng = np.random.default_rng(n)
    trials = np.sort(rng.choice(10**6, size=200, replace=False))
    counts = rng.integers(1, 13, size=200)
    want = _generator_symbols(11, trials.tolist(), 9, counts.tolist(), n)
    philox = _PhiloxCount(monkeypatch)
    got = attacks._trial_symbols(11, trials, 9, counts, n)
    assert got.dtype == np.int64 and got.tolist() == want
    assert philox.calls == 0


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([10007**2 - 1, 3 * 2**30 + 1]), seed=st.integers(0, 2**128 - 1),
       first=st.integers(0, 40),
       draws=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 12)), min_size=1,
                      max_size=8, unique_by=lambda draw: draw[0]))
def test_trial_symbols_read_past_rejections_as_the_generator_does(n, seed, first, draws):
    # about 2% (n = 10007**2 - 1) and 25% (n = 3 * 2**30 + 1) of the draws
    # are rejected, so trials are often short and read one output further
    trials, counts = map(list, zip(*draws))
    got = attacks._trial_symbols(seed, np.array(trials, dtype=np.uint64), first,
                                 np.array(counts), n)
    assert got.tolist() == _generator_symbols(seed, trials, first, counts, n)


def test_a_draw_whose_low_bits_equal_the_threshold_is_accepted():
    # Lemire's rule keeps x when the low 32 bits of x * n are at least
    # 2**32 mod n = 2**32 - q n, q = floor(2**32 / n); for odd n they equal
    # it at x = 2**32 - q.  So the first half x of trial 5's stream above
    # 2**32 - 2**15 sets q, and an odd n with floor(2**32 / n) = q
    raw = np.random.Philox(key=11, counter=5 << 64).random_raw(2**18)
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
    at = int(np.argmax(halves > 2**32 - 2**15))
    x = int(halves[at])
    q = 2**32 - x
    n = next(n for n in range(2**32 // q, 2**32 // (q + 1), -1) if n % 2)
    assert 2**32 // n == q and x * n % 2**32 == 2**32 % n
    first = at // 2  # the draws start at the output holding x, its low half first
    got = attacks._trial_symbols(11, np.array([5]), first, np.array([3]), n)
    assert got.tolist() == _generator_symbols(11, [5], first, [3], n)
    assert x * n >> 32 in got.tolist()[:2]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_scalar_symbol_draw_reads_the_stream_as_size_one(d):
    # a trial with one error draws one symbol: the kernel's draw is numpy's,
    # whether read as a scalar or with size=1, after any number of uniforms
    n_symbols = d * d - 1
    for key in range(500):
        t = key % 7
        rngs = [_fresh_stream(key, t) for _ in range(2)]
        for rng in rngs:
            rng.random(key % 9)  # a trial's uniforms come first
        one = attacks._trial_symbols(key, np.array([t]), key % 9, np.array([1]), n_symbols)
        assert one.tolist() == [rngs[0].integers(n_symbols)]
        assert one.tolist() == rngs[1].integers(n_symbols, size=1).tolist()


def test_island_draws_every_trial_by_the_kernel(monkeypatch):
    # the bench's island job: no trial's stream is built as a numpy Philox,
    # so none of them fell back from the array kernel to the Generator
    philox = _PhiloxCount(monkeypatch)
    stats = island_attack(_island_code("toric:16"), trials=4000, seed=1276)
    assert stats.trials == 4000 and stats.mean_weight > 0
    assert philox.calls == 0


def test_island_determinism():
    c = _hgp_instance()
    a = island_attack(c, trials=100, seed=9)
    b = island_attack(c, trials=100, seed=9)
    assert np.array_equal(a.histogram, b.histogram)
    assert a.mean_penalty == b.mean_penalty
    assert a.best_trial.error == b.best_trial.error


def test_island_rate_within_3_sigma():
    c = _hgp_instance()
    trials = 2000
    stats = island_attack(c, trials=trials, seed=1)
    p = stats.p
    n_draws = trials * len(stats.s_qudits)
    sigma = np.sqrt(p * (1 - p) / n_draws)
    assert abs(stats.empirical_qudit_rate - p) <= 3 * sigma


def test_island_rejects_bad_trials():
    with pytest.raises(ValueError):
        island_attack(_hgp_instance(), trials=0, seed=0)
    with pytest.raises(attacks.Refusal, match="no trial produced an error"):
        island_attack(toric_code(3), trials=7, seed=2)


def test_island_bound_is_unknown_without_a_left_degree():
    # qudits 2 and 3 sit on all four checks and the others on two, so the
    # code has no single left degree D_L for p*alpha*|S|*D_L*(1 - p*alpha*eps')
    def op(word):
        return PauliOp(2, 6, [int(c == "X") for c in word], [int(c == "Z") for c in word])

    with pytest.warns(UserWarning, match="irregular left degrees"):
        code = build_code([op(w) for w in ("XXXXII", "ZZZZII", "IIXXXX", "IIZZZZ")],
                          strict_degree=False)
    assert code.D_L is None
    stats = island_attack(code, trials=500, seed=3)
    assert stats.expected_penalty_bound is None
    report = json.loads(json.dumps(stats.to_json()))
    assert report["expected_penalty_bound"] == {"kind": "unknown", "value": None}
    assert report["mean_penalty"]["value"] > 0  # a bound of 0 would be false


# --- island attack: golden reports and the per-trial oracle ----------------

def _paired_hgp():
    """Hypergraph product with 16 logicals and distance 2: some island errors are logicals."""
    h = paired_circulant_matrix(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return zoo.css_hypergraph_product(h, h, strict_degree=False)


def _bell_pair(d):
    """<X X, Z Z^-1> on two qudits: k = 2, so some island errors lie in the group."""
    return build_code([PauliOp(d, 2, [1, 1], [0, 0]), PauliOp(d, 2, [0, 0], [1, d - 1])])


ISLAND_CODES = {
    "toric:3": lambda: toric_code(3),
    "toric:4": lambda: toric_code(4),
    "toric:4:3": lambda: toric_code(4, 3),
    "toric:3:5": lambda: toric_code(3, 5),
    "toric:10": lambda: toric_code(10),
    "toric:10:3": lambda: toric_code(10, 3),
    "toric:10:5": lambda: toric_code(10, 5),
    "toric:16": lambda: toric_code(16),
    "hgp:circulant6": _hgp_instance,
    "bell:2": lambda: _bell_pair(2),
    "bell:3": lambda: _bell_pair(3),
    "steane": steane_code,
    "hgp:paired4": _paired_hgp,
}


@functools.lru_cache(maxsize=None)
def _island_code(name):
    return ISLAND_CODES[name]()


def _island_oracle(code, trials, seed):
    """The per-trial loop: one PauliOp, one penalty and one in_span call per trial."""
    k = code.k
    u_set = attacks._independent_set(code, k, code.m, seed)
    g = code.graph
    s = sorted(g.gamma(u_set, "right"))
    eps_prime = g.expansion_stats(s).epsilon
    p = 1.0 / (10 * k)
    symbols = np.array(nonidentity_symbols(code.d), dtype=np.int64)
    s_arr = np.array(s)
    s_pos = {q: i for i, q in enumerate(s)}
    island_pos = [np.array([s_pos[q] for q in g.right_adj[u]]) for u in u_set]
    histogram = np.zeros(k + 1, dtype=np.int64)
    penalties = np.zeros(trials, dtype=np.int64)
    weights = np.zeros(trials)
    nonid_total = 0
    zero_coset = 0
    best = None
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=t << 64))
        active = rng.random(len(s)) < p
        x = np.zeros(code.n, dtype=np.int64)
        z = np.zeros(code.n, dtype=np.int64)
        idx = np.nonzero(active)[0]
        if idx.size:
            picks = rng.integers(len(symbols), size=idx.size)
            x[s_arr[idx]] = symbols[picks, 0]
            z[s_arr[idx]] = symbols[picks, 1]
        e = PauliOp(code.d, code.n, x, z, 0)
        for pos in island_pos:
            histogram[int(active[pos].sum())] += 1
        pen = code.penalty(e)
        w = int(idx.size)
        penalties[t] = pen
        weights[t] = w
        nonid_total += w
        if w and code.in_span(e.symplectic()):
            zero_coset += 1
        if pen > 0 and w > 0 and (best is None or pen / w > best[0]):
            best = (pen / w, t, e)
    if best is None:
        raise ValueError("no trial produced an error; increase trials or |U|")
    best_report = evaluate_r(code, best[2], seed=seed,
                             meta={"attack": "island", "trial": best[1], "U": list(u_set)})
    alpha = alphabet_alpha(code.d)
    # the sample standard error sqrt((N S2 - S1^2) / (N^2 (N - 1))), from exact sums
    s1, s2 = int(penalties.sum()), int((penalties * penalties).sum())
    sem = math.sqrt((trials * s2 - s1**2) / (trials**2 * (trials - 1))) if trials > 1 else 0.0
    return IslandTrialStats(
        trials=trials,
        u_set=list(u_set),
        s_qudits=s,
        k=k,
        p=p,
        epsilon_prime=eps_prime,
        expansion_hypothesis_met=eps_prime >= 0.32,
        histogram=histogram,
        mean_penalty=float(penalties.mean()),
        penalty_sem=sem,
        mean_weight=float(weights.mean()),
        empirical_qudit_rate=nonid_total / (trials * len(s)),
        zero_coset_weight_trials=zero_coset,
        expected_penalty_bound=(
            None if code.D_L is None else p * alpha * len(s) * code.D_L * (1 - p * alpha * eps_prime)
        ),
        best_trial=best_report,
        seed=seed,
    )


def _island_batched(code, trials, seed):
    return island_attack(code, trials=trials, seed=seed)


def _island_json(fn, name, seed, trials):
    """The report as JSON, or the refusal message."""
    try:
        return json.loads(json.dumps(fn(_island_code(name), trials, seed).to_json()))
    except ValueError as exc:
        return {"refused": str(exc)}


with open(os.path.join(os.path.dirname(__file__), "data", "island_golden.json")) as _f:
    ISLAND_GOLDEN = json.load(_f)


@pytest.mark.parametrize("case", sorted(ISLAND_GOLDEN))
def test_island_golden_reports(case):
    # pinned from the per-trial loop; the trial counts are not multiples of
    # the chunk size, and the bell pairs have trials whose error is in the group
    name, seed, trials = case.split()
    seed, trials = int(seed.removeprefix("seed=")), int(trials.removeprefix("trials="))
    batched = _island_json(_island_batched, name, seed, trials)
    assert batched == ISLAND_GOLDEN[case]
    assert _island_json(_island_oracle, name, seed, trials) == ISLAND_GOLDEN[case]


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(ISLAND_CODES)), seed=st.integers(0, 10**6),
       trials=st.integers(1, 1100))
def test_island_matches_per_trial_oracle(name, seed, trials):
    batched = _island_json(_island_batched, name, seed, trials)
    assert batched == _island_json(_island_oracle, name, seed, trials)


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_island_chunk_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(attacks, "TRIAL_CHUNK", chunk)
    for name, seed, trials in [("bell:2", 1, 200), ("hgp:circulant6", 4, 23),
                               ("toric:10:3", 2, 20), ("toric:3", 2, 7), ("toric:3", 2, 40)]:
        batched = _island_json(_island_batched, name, seed, trials)
        assert batched == _island_json(_island_oracle, name, seed, trials)


# trials of penalty 0, and of them those in the group, in the runs below
PENALTY_ZERO_TRIALS = {"toric:16": (0, 0), "bell:2": (4, 4), "hgp:paired4": (2, 0)}


@pytest.mark.parametrize("name, seed, trials", [("toric:16", 1276, 4000), ("bell:2", 1, 3000),
                                                ("hgp:paired4", 0, 2000)])
def test_island_products_see_only_the_checks_on_s_and_zero_penalty_trials(
        monkeypatch, name, seed, trials):
    # toric:16 at seed 1276 is the bench's island job; the bell pair has
    # trials whose error lies in the group and no logicals; hgp:paired4 has
    # two trials of penalty 0, both logicals
    code = _island_code(name)
    products, tested = [], []
    real_modmul, real_contains = attacks.modmul, RowSpace.contains_batch

    def spy_modmul(a, b, p):
        products.append((a.copy(), b))
        return real_modmul(a, b, p)

    def spy_contains(self, vs):
        tested.append(vs.copy())
        return real_contains(self, vs)

    monkeypatch.setattr(attacks, "modmul", spy_modmul)
    monkeypatch.setattr(RowSpace, "contains_batch", spy_contains)
    stats = island_attack(code, trials=trials, seed=seed)
    s = np.array(stats.s_qudits)
    s_cols = np.concatenate([s, code.n + s])
    touched = sorted(code.graph.gamma(stats.s_qudits, "left"))  # the checks that touch S
    syndrome_s = code.syndrome_matrix[touched][:, s_cols].T
    assert all(np.array_equal(b, syndrome_s) for _, b in products)
    if name == "toric:16":
        assert len(touched) == 18  # of m = 512 checks

    # only trials with an error on S are scored, and only those with penalty
    # 0 are tested for the group: full rows in the residue type, zero off S
    assert products and all(a.any(axis=1).all() for a, _ in products)
    zero_penalty = sum(int(np.count_nonzero(~real_modmul(a, syndrome_s, code.d).any(axis=1)))
                       for a, _ in products)
    rows = np.concatenate(tested) if tested else np.zeros((0, 2 * code.n), dtype=np.uint8)
    assert len(rows) == zero_penalty
    assert all(t.dtype == residue_dtype(code.d) for t in tested)
    assert not np.delete(rows, s_cols, axis=1).any()
    # the row space's kernel decides membership, independently of the logicals
    in_group = int(np.count_nonzero(~np.any(
        rows.astype(np.int64) @ kernel(code.symplectic_matrix, code.d).T.astype(np.int64)
        % code.d, axis=1)))
    assert stats.zero_coset_weight_trials == in_group
    assert (zero_penalty, in_group) == PENALTY_ZERO_TRIALS[name]


def test_island_memory_is_flat_in_the_trials():
    # exact sums in place of per-trial arrays: 10x the trials, the same peak
    code = _island_code("toric:16")
    island_attack(code, trials=100, seed=1)  # the code's cached maps are built outside the trace
    peaks = []
    for trials in (10_000, 100_000):
        tracemalloc.start()
        try:
            island_attack(code, trials=trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**19


# --- soundness profile -----------------------------------------------------

def test_profile_toric2_single_errors():
    c = toric_code(2)
    prof = soundness_profile(c, 2)
    # single-qudit errors violate exactly 2 checks
    assert prof.min_penalty[1] == 2
    assert prof.R(1 / c.n) * c.m <= 2
    assert all(p > 0 for p in prof.min_penalty.values())


def test_profile_monotone_R():
    c = toric_code(2)
    prof = soundness_profile(c, 3)
    deltas = [w / c.n for w in sorted(prof.min_penalty)]
    values = [prof.R(dl) for dl in deltas]
    assert values == sorted(values)


def test_profile_coverage_and_guard():
    c = toric_code(2)
    prof = soundness_profile(c, c.n)
    assert prof.coverage_complete
    assert prof.syndromes_seen == 2**c.rank - 1
    with pytest.raises(ValueError):
        soundness_profile(toric_code(4), 10)


def test_profile_R_past_its_cap_is_refused():
    c = toric_code(2)
    prof = soundness_profile(c, 2)
    assert prof.R(2 / c.n) == prof.min_penalty[2] / c.m
    with pytest.raises(ValueError, match="no coset weight >= 3 within cap 2"):
        prof.R(3 / c.n)


def test_attacks_never_beat_oracle():
    for code in (steane_code(), toric_code(2)):
        prof = soundness_profile(code, 3)
        for seed in range(3):
            rep = expander_attack(code, 1 / code.n, seed=seed)
            w = rep.wt_mod_centralizer.value
            if w in prof.min_penalty:
                assert rep.r >= r_at_coset_weight(prof, w) - 1e-12


def test_profile_json():
    # per-coset-weight minima are always exact (penalty and coset weight are
    # functions of the syndrome); R rows are only upper bounds until every
    # syndrome has been seen
    partial = soundness_profile(toric_code(2), 2).to_json()
    json.dumps(partial)
    assert partial["min_penalty_per_coset_weight"]["1"]["kind"] == "exact"
    assert partial["table"][0]["kind"] == "upper_bound"
    full = soundness_profile(toric_code(2), 8).to_json()
    assert full["coverage_complete"]
    assert all(row["kind"] == "exact" for row in full["table"])


def _profile_oracle(code, weight_cap):
    """(min_penalty, syndromes_seen, coverage_complete) from a dict of syndrome bytes,
    filled word by word in itertools order.

    A word's syndrome is the sum of the syndromes of its one-qudit parts, each
    taken once on the site path, code.syndrome(PauliOp.single(...)); neither the
    profile's word batches nor its batch product enter.  (A PauliOp per word
    would cost about 25 us a word, 7 s for the 286,464 words of toric:4:5 at
    cap 2.)  The words of one support are summed together, in product order.
    """
    n, d, m = code.n, code.d, code.m
    symbols = nonidentity_symbols(d)
    single = np.array([[code.syndrome(PauliOp.single(n, d, q, x, z)) for x, z in symbols]
                       for q in range(n)])
    seen, min_penalty = {}, {}
    for w in range(1, min(weight_cap, n) + 1):
        for supp in itertools.combinations(range(n), w):
            syns = np.zeros((1, m), dtype=np.int64)
            for q in supp:
                syns = (syns[:, None, :] + single[q][None, :, :]).reshape(-1, m)
            syns %= d
            for row, pen in zip(syns, np.count_nonzero(syns, axis=1).tolist()):
                if pen == 0:
                    continue  # centralizer element, not an error
                key = row.tobytes()
                if key not in seen:
                    seen[key] = w
                    if w not in min_penalty or pen < min_penalty[w]:
                        min_penalty[w] = pen
    return min_penalty, len(seen), len(seen) == code.d**code.rank - 1


def _profile_facts(prof):
    return prof.min_penalty, prof.syndromes_seen, prof.coverage_complete


def _scrambled(code, rng):
    """code under a random symplectic map per qudit (over GF(2) only X <-> Z swaps, which
    make no Y) and random qudit and generator orders, with the phases that keep its
    codespace: a valid code whose syndromes are permuted and relabelled."""
    n, d = code.n, code.d
    x, z = code.symplectic_matrix[:, :n].copy(), code.symplectic_matrix[:, n:].copy()
    for q in range(n):
        if d == 2:
            a, b, c, e = (0, 1, 1, 0) if rng.integers(2) else (1, 0, 0, 1)
        else:
            while True:  # a determinant-1 map keeps every symplectic product
                a, b, c, e = rng.integers(d, size=4)
                if (a * e - b * c) % d == 1:
                    break
        x[:, q], z[:, q] = (a * x[:, q] + b * z[:, q]) % d, (c * x[:, q] + e * z[:, q]) % d
    perm = rng.permutation(n)
    matrix = np.concatenate([x[:, perm], z[:, perm]], axis=1)[rng.permutation(code.m)]
    return StabilizerCode(d, matrix, consistent_phases(matrix, d), strict_degree=False)


# (source, cap) pairs of at most about 10^5 words each
PROFILE_CASES = {2: [("toric:2", 8), ("toric:3", 3), ("steane", 7), ("toric:4", 2)],
                 3: [("toric:2", 4), ("toric:3", 2)],
                 5: [("toric:2", 3), ("toric:3", 2)]}


@pytest.mark.filterwarnings("ignore:irregular left degrees")  # a scrambled steane code
@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=30, deadline=None)
def test_profile_matches_dict_oracle(d, data):
    source, cap_max = data.draw(st.sampled_from(PROFILE_CASES[d]))
    code = zoo.steane_code() if source == "steane" else toric_code(int(source[6:]), d)
    if data.draw(st.booleans()):
        code = _scrambled(code, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    cap = data.draw(st.integers(1, cap_max))
    assert _profile_facts(soundness_profile(code, cap)) == _profile_oracle(code, cap)


@pytest.mark.parametrize("L, d, cap", [(6, 2, 1), (6, 2, 2), (4, 5, 1), (4, 5, 2)])
def test_profile_keys_of_several_words(L, d, cap):
    # m = 72 one-bit fields (32 a half) or m = 32 three-bit fields (10 a half):
    # four 32-bit halves, so two uint64 words a key
    code = toric_code(L, d)
    assert search.key_powers(code.m, (d - 1).bit_length()).shape[1] == 4
    assert _profile_facts(soundness_profile(code, cap)) == _profile_oracle(code, cap)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 131])
def test_key_fields_pack_the_residues_and_count_the_penalty(d):
    # the profile's keys: b = (d - 1).bit_length() bits a residue, no guard
    # bit, 32 // b residues a 32-bit half; m spans three halves and one field,
    # padded to four halves: two words
    b = (d - 1).bit_length()
    e = 32 // b
    rng = np.random.default_rng(d)
    m = 3 * e + 1
    syn = rng.integers(d, size=(40, m)).astype(residue_dtype(d))
    syn[0] = d - 1  # every field full
    syn[1] = 0
    syn[2:8] = syn[8:14]  # equal rows
    syn[14:20] *= rng.random((6, m)) < 0.2  # sparse rows: most fields zero
    powers = search.key_powers(m, b)
    assert powers.shape == (m, 4) and powers.dtype == np.float64
    keys = search.row_keys(syn, powers)
    assert keys.view(np.uint64).reshape(len(syn), 2).tolist() == python_keys(syn, b)
    assert (keys[2:8] == keys[8:14]).all()
    assert len(np.unique(keys)) == len({tuple(row) for row in syn.tolist()})
    counted = np.count_nonzero(syn, axis=1)
    assert search.key_weights(keys, b).tolist() == counted.tolist()
    assert counted[0] == m and counted[1] == 0
    # one word a key: e residues fill one half, padded to two
    single = search.row_keys(syn[:, :e], search.key_powers(e, b))
    assert single.dtype == np.uint64 and single.tolist() == [w for w, in python_keys(syn[:, :e], b)]
    assert search.key_weights(single, b).tolist() == np.count_nonzero(syn[:, :e], axis=1).tolist()


def test_profile_stops_once_every_syndrome_is_seen(monkeypatch):
    # toric:2 has all 2**6 syndromes by weight 3: the walk to cap 8 checks the
    # 24 + 252 + 1512 words of weights 1 to 3 and no heavier one
    code = toric_code(2)
    real = attacks.candidate_batches
    walked = []

    def counted(n, d, w):
        for batch in real(n, d, w):
            walked.append((w, len(batch)))
            yield batch

    monkeypatch.setattr(attacks, "candidate_batches", counted)
    prof = soundness_profile(code, 8)
    assert [w for w, _ in walked] == [1, 2, 3]
    assert sum(rows for _, rows in walked) == 24 + 252 + 1512
    assert prof.coverage_complete and prof.weight_cap == 8
    assert _profile_facts(prof) == _profile_oracle(code, 8)


@pytest.mark.parametrize("L, d, cap, seen, min_penalty", [
    # the words to cap 7 are past the guard, but those to cap 6 fit and see all
    # 65,535 syndromes, at weight 5: the answer is the cap-5 table
    (3, 2, 7, 65_535, {1: 2, 2: 2, 3: 4, 4: 4, 5: 8}),
    (2, 3, 99_999, 728, {1: 2, 2: 2, 3: 6}),  # 43,046,720 words to n = 8
])
def test_profile_past_the_guard_answers_when_the_walk_stops_within_it(L, d, cap, seen, min_penalty):
    prof = soundness_profile(toric_code(L, d), cap)
    assert prof.coverage_complete and prof.syndromes_seen == seen
    assert prof.min_penalty == min_penalty and prof.weight_cap == cap


@pytest.mark.parametrize("L, cap", [(4, 10), (6, 99_999)])
def test_profile_refused_up_front_when_the_guard_cannot_see_every_syndrome(L, cap):
    # the words within the guard are fewer than the 2**30 (2**70) syndromes
    code = toric_code(L)
    start = time.perf_counter()
    with pytest.raises(attacks.Refusal, match="exceeds the guard"):
        soundness_profile(code, cap)
    assert time.perf_counter() - start < 0.5


def test_profile_refused_before_the_weight_that_passes_the_guard(monkeypatch):
    # at a guard of 300,000 words, toric:3's weights 1 to 4 fit (271,323 words,
    # more than its 65,535 syndromes) and are walked; weight 5 would pass it
    monkeypatch.setattr(attacks, "PROFILE_GUARD", 300_000)
    real = attacks.candidate_batches
    walked = []

    def counted(n, d, w):
        for batch in real(n, d, w):
            walked.append((w, len(batch)))
            yield batch

    monkeypatch.setattr(attacks, "candidate_batches", counted)
    with pytest.raises(attacks.Refusal, match="past weight 4 exceeds the guard"):
        soundness_profile(toric_code(3), 7)
    assert sorted({w for w, _ in walked}) == [1, 2, 3, 4]
    assert sum(rows for _, rows in walked) == 271_323


def test_profile_first_sighting_sets_the_coset_weight():
    # every syndrome seen at weight 1 on toric:3 comes back at weights 2 and 3 (a
    # weight-3 string is logical); had a later sighting won, weight 3 would report
    # their penalty 2, not the least penalty of the syndromes new at weight 3
    prof = soundness_profile(toric_code(3), 3)
    assert prof.min_penalty == {1: 2, 2: 2, 3: 4}


@pytest.mark.parametrize("L, d, cap, min_penalty, seen, complete", [
    (3, 3, 3, {1: 2, 2: 2, 3: 3}, 321_804, False),
    (4, 5, 2, {1: 2, 2: 2}, 285_888, False),  # keys of two words base 5
    (6, 2, 2, {1: 2, 2: 2}, 23_004, False),  # keys of two words over GF(2)
])
def test_profile_golden_values(L, d, cap, min_penalty, seen, complete):
    prof = soundness_profile(toric_code(L, d), cap)
    assert _profile_facts(prof) == (min_penalty, seen, complete)


def test_profile_peak_memory():
    code = toric_code(4)
    tracemalloc.start()
    try:
        soundness_profile(code, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


def test_invariant_breach_exits_2_under_python_O():
    # the t-independence check is an explicit raise, so -O keeps it
    src = os.path.dirname(os.path.dirname(qltc.__file__))
    script = (
        "import sys\n"
        "from qltc.graphs import BipartiteGraph\n"
        "BipartiteGraph.verify_t_independent = lambda self, u, t: False\n"
        "from qltc.cli import main\n"
        "sys.exit(main(['attack', 'toric:4', 'expander', '--delta', '0.05', '--seed', '1']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 2 and "invariant" in proc.stderr
