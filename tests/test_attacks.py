import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qltc
from qltc import attacks, zoo
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
from qltc.fieldmath import RowSpace
from qltc.stabilizer import Sites, StabilizerCode, build_code, product_phase
from qltc.zoo import (
    random_open_path,
    steane_code,
    string_error,
    toric_code,
    vertex_path_edges,
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
        evaluate_r(c, PauliOp.identity(c.n, 2))
    logical = string_error(2, zoo.wrap_loop_edges(2, 0, "horizontal"), kind="z")
    with pytest.raises(NotAnErrorError):
        evaluate_r(c, logical)


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


# --- expander attack -------------------------------------------------------

def test_expander_single_island_exact():
    c = toric_code(3)
    rep = expander_attack(c, 1 / c.n, seed=0)
    assert rep.weight == 1
    assert rep.wt_mod_centralizer.value == 1  # weight-1 error with syndrome
    assert rep.meta["attack"] == "expander" and len(rep.meta["U"]) == 1


def test_expander_two_islands_verified():
    h = zoo.regular_circulant_matrix(4, 2, seed=1)
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
    h = zoo.regular_circulant_matrix(8, 2, seed=1)
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
        once = g.neighbor_masks(s)[0]
        for q in s:
            uniq = sum(1 for c in g.left_adj[q] if (right[c] & _mask(s)).bit_count() == 1)
            assert (g.left_masks[q] & once).bit_count() == uniq


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
    h = zoo.regular_circulant_matrix(6, 2, seed=3)
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


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64 + 5, 2**128 - 1])
def test_trial_streams_match_fresh_philox(seed):
    stream = attacks._trial_streams(seed)
    # revisits and leftover 32-bit halves must not leak from one trial into the next
    for t in (0, 1, 5, 1, 2**20, 0):
        fresh = np.random.Generator(np.random.Philox(key=seed, counter=t << 64))
        rng = stream(t)
        assert np.array_equal(rng.integers(1000, size=3, dtype=np.int32),
                              fresh.integers(1000, size=3, dtype=np.int32))
        assert np.array_equal(rng.random(5), fresh.random(5))
        assert np.array_equal(rng.integers(3, size=7), fresh.integers(3, size=7))


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


# --- island attack: golden reports and the per-trial oracle ----------------

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
    "hgp:circulant6": _hgp_instance,
    "bell:2": lambda: _bell_pair(2),
    "bell:3": lambda: _bell_pair(3),
    "steane": steane_code,
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
    penalties = np.zeros(trials)
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
        penalty_sem=float(np.std(penalties, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        mean_weight=float(weights.mean()),
        empirical_qudit_rate=nonid_total / (trials * len(s)),
        zero_coset_weight_trials=zero_coset,
        expected_penalty_bound=p * alpha * len(s) * (code.D_L or 0) * (1 - p * alpha * eps_prime),
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


def test_attacks_never_beat_oracle():
    for code in (steane_code(), toric_code(2)):
        prof = soundness_profile(code, 3)
        for seed in range(3):
            rep = expander_attack(code, 1 / code.n, seed=seed)
            w = rep.wt_mod_centralizer.value
            if w in prof.min_penalty:
                assert rep.r >= prof.r_at_coset_weight(w) - 1e-12


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
    filled word by word in enumeration order."""
    seen, min_penalty = {}, {}
    for w in range(1, min(weight_cap, code.n) + 1):
        for batch in candidate_batches(code.n, code.d, w):
            syn = code.syndrome_batch(batch)
            for row, pen in zip(syn, np.count_nonzero(syn, axis=1)):
                if pen == 0:
                    continue  # centralizer element, not an error
                key = row.tobytes()
                if key not in seen:
                    seen[key] = w
                    if w not in min_penalty or pen < min_penalty[w]:
                        min_penalty[w] = int(pen)
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
    # each left-kernel row ends at its dependent row, with a 1 there and 0 at the other
    # dependent rows: that row's phase alone sets the phase of the product
    phases = np.zeros(code.m, dtype=np.int64)
    sites = Sites.of(matrix)
    for c in RowSpace(matrix, d).left_kernel:
        phases[np.flatnonzero(c)[-1]] = -product_phase(sites, phases, c, d) % d
    return StabilizerCode(d, matrix, phases, strict_degree=False)


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
    # m = 72 binary digits or m = 32 digits base 5 (27 a word): two int64 words a key
    code = toric_code(L, d)
    assert attacks._key_powers(code.m, d).shape[1] == 2
    assert _profile_facts(soundness_profile(code, cap)) == _profile_oracle(code, cap)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 131])
def test_key_words_are_exact_base_d_numbers(d):
    # the most digits e with d**e < 2**63 a word; one digit more would wrap in int64
    e = max(e for e in range(1, 64) if d**e < 2**63)
    rng = np.random.default_rng(d)
    m = 3 * e + 1
    syn = rng.integers(d, size=(20, m))
    syn[0] = d - 1
    syn[1] = 0
    keys = syn @ attacks._key_powers(m, d)
    assert keys.shape == (20, 4)
    for row, key in zip(syn.tolist(), keys.tolist()):
        words = [sum(v * d**i for i, v in enumerate(row[j: j + e])) for j in range(0, m, e)]
        assert key == words


def test_profile_first_sighting_sets_the_coset_weight():
    # every syndrome seen at weight 1 on toric:3 comes back at weights 2 and 3 (a
    # weight-3 string is logical); had a later sighting won, weight 3 would report
    # their penalty 2, not the least penalty of the syndromes new at weight 3
    prof = soundness_profile(toric_code(3), 3)
    assert prof.min_penalty == {1: 2, 2: 2, 3: 4}


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
