"""End-to-end acceptance criteria.

Each test covers one numbered criterion and prints a single
``[criterion N] PASS/FAIL`` line on the real terminal (pytest capture is
suspended for the line itself).  All checks are exact unless a criterion
explicitly defines a statistical tolerance.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from qltc import attacks, dense
from qltc.attacks import (
    alphabet_alpha,
    alphabet_attack,
    expander_attack,
    island_attack,
    refined_expander_attack,
    soundness_profile,
)
from qltc.pauli import PauliOp
from qltc.zoo import css_hypergraph_product, steane_code, toric_code
from helpers import (
    ClassicalParityCode,
    classical_soundness_check,
    classify_string,
    group_contains,
    r_at_coset_weight,
    random_open_path,
    random_regular_bipartite,
    rectangle_loop_edges,
    regular_circulant_matrix,
    string_error,
    verify_energy_identity,
    wrap_loop_edges,
)


@contextmanager
def criterion(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num:2d}] FAIL: {desc}")
        raise
    with capsys.disabled():
        print(f"[criterion {num:2d}] PASS: {desc}")


# --------------------------------------------------------------------------
# 1. toric string trichotomy
# --------------------------------------------------------------------------

def test_criterion_01_toric_string_trichotomy(capsys):
    with criterion(capsys, 1, "toric string trichotomy, open penalty exactly 2"):
        t0 = time.monotonic()
        for L in (2, 3, 4):
            code = toric_code(L)
            rng = np.random.default_rng(100 + L)
            for length in range(1, L + 1):
                for _ in range(5):
                    e = string_error(L, random_open_path(L, length, rng), kind="z")
                    assert code.penalty(e) == 2
                    assert classify_string(code, e) == "open"
            for r0, c0 in itertools.product(range(L), repeat=2):
                loop = string_error(L, rectangle_loop_edges(L, r0, c0, 1, 1), kind="z")
                assert group_contains(code, loop).in_span
                assert classify_string(code, loop) == "stabilizer"
            for index in range(L):
                for direction in ("horizontal", "vertical"):
                    wrap = string_error(L, wrap_loop_edges(L, index, direction), kind="z")
                    assert code.penalty(wrap) == 0
                    assert not group_contains(code, wrap).in_span
                    assert classify_string(code, wrap) == "logical"
        assert time.monotonic() - t0 < 60


# --------------------------------------------------------------------------
# 2. brute-force distances
# --------------------------------------------------------------------------

def test_criterion_02_distances(capsys):
    with criterion(capsys, 2, "distances: toric L=2,3,4 -> L, steane -> 3 (exact)"):
        for L in (2, 3, 4):
            assert toric_code(L).code_distance().value == L
        assert steane_code().code_distance().value == 3


# --------------------------------------------------------------------------
# 3. expansion facts: both 2-eps bounds on random regular graphs
# --------------------------------------------------------------------------

def test_criterion_03_expansion_facts(capsys):
    with criterion(capsys, 3, "2-eps bounds on 200 graphs x 20 sets, zero failures"):
        graphs = 0
        for seed in range(200):
            g = random_regular_bipartite(24, 18, 3, 4, seed=seed)
            graphs += 1
            rng = np.random.default_rng(seed)
            qualifying = 0
            attempts = 0
            while qualifying < 20:
                attempts += 1
                assert attempts <= 200  # eps >= 1/2 sets are rare here
                size = int(rng.integers(1, 6))
                s = rng.choice(g.n, size=size, replace=False).tolist()
                stats = g.expansion_stats(s)
                # integer-exact: eps < 1/2  <=>  2|Gamma| > |S| D_L
                if 2 * stats.gamma_size <= size * g.D_L:
                    continue
                qualifying += 1
                slack = size * g.D_L - stats.gamma_size  # eps * |S| D_L
                # multi-covered fraction of Gamma(S) is at most 2 eps
                assert stats.multi_neighbors * size * g.D_L <= 2 * slack * stats.gamma_size
                # some qudit of S has at most 2 eps D_L multi-covered checks
                s_set = set(s)
                best = min(
                    sum(
                        1
                        for c in g.left_adj[q]
                        if len(set(g.right_adj[c]) & s_set) >= 2
                    )
                    for q in s
                )
                assert best * size <= 2 * slack
        assert graphs >= 200


# --------------------------------------------------------------------------
# 4. expander attack r <= 2 eps* on 10 instances
# --------------------------------------------------------------------------

def _criterion4_instances():
    for L in (12, 16, 20):
        yield f"toric:{L}", toric_code(L), L  # lattice distance equals L
    for n1 in range(12, 19):
        h = regular_circulant_matrix(n1, 2, seed=n1)
        code = css_hypergraph_product(h, h)
        # certified lower bound: no logical of weight <= 2
        dist_low = code.code_distance(w_max=2).low
        yield f"hgp:{n1}", code, dist_low


def test_criterion_04_expander_bound(capsys):
    with criterion(capsys, 4, "expander attack r <= 2 eps* on 10 instances, exact"):
        instances = 0
        for name, code, dist_low in _criterion4_instances():
            instances += 1
            exp = code.graph.small_set_expansion_error(code.k)
            assert exp["kind"] == "exact"
            eps_star = exp["epsilon_star"]
            assert eps_star < 0.5
            delta_cap = min(1.0 / (code.k**3 * code.D_L), dist_low / (2 * code.n))
            targets = (1, 2, 3) if name == "toric:20" else (1,)
            for target in targets:
                delta = target / code.n
                assert delta < delta_cap
                rep = expander_attack(code, delta, seed=7)
                assert rep.meta["shortfall"] == 0
                assert rep.wt_mod_centralizer.exact
                assert rep.wt_mod_centralizer.value == len(rep.meta["U"])
                assert rep.r <= 2 * eps_star
        assert instances >= 10


# --------------------------------------------------------------------------
# 5. alphabet bound r <= alpha(d), d in {2, 3, 5}
# --------------------------------------------------------------------------

def test_criterion_05_alphabet_bound(capsys):
    with criterion(capsys, 5, "alphabet attack r <= alpha(d) for d in {2,3,5}, exact"):
        for d in (2, 3, 5):
            code = toric_code(12, d)
            delta = Fraction(1, code.n)
            assert delta < Fraction(1, code.k**3 * code.D_L)
            rep = alphabet_attack(code, float(delta), seed=5)
            assert rep.meta["delta_precondition_met"]
            assert rep.wt_mod_centralizer.value == 1
            # exact rational comparison of r against alpha(d)
            r = Fraction(rep.penalty, rep.m) / min(code.k * delta, Fraction(1))
            assert r <= Fraction(d * d - 2, d * d - 1)


# --------------------------------------------------------------------------
# 6. onion corollary: no weight-2 error inside one generator shrinks
# --------------------------------------------------------------------------

def test_criterion_06_onion_corollary(capsys):
    with criterion(capsys, 6, "onion corollary on toric L=4, exhaustive, exact"):
        code = toric_code(4)
        patterns = 0
        for g in code.generators:
            support = g.support()
            assert len(support) == code.k == 4
            for qa, qb in itertools.combinations(support, 2):
                for (xa, za), (xb, zb) in itertools.product(
                    [(x, z) for x in range(2) for z in range(2) if (x, z) != (0, 0)],
                    repeat=2,
                ):
                    x = np.zeros(code.n, dtype=np.int64)
                    z = np.zeros(code.n, dtype=np.int64)
                    x[qa], z[qa] = xa, za
                    x[qb], z[qb] = xb, zb
                    e = PauliOp(2, code.n, x, z, 0)
                    assert code.wt_mod_group(e).value == 2
                    patterns += 1
        assert patterns == code.m * math.comb(4, 2) * 9


# --------------------------------------------------------------------------
# 7. island-attack statistics
# --------------------------------------------------------------------------

def test_criterion_07_island_statistics(capsys):
    with criterion(capsys, 7, "island histogram chi^2 at 0.01 and mean-penalty bound"):
        t0 = time.monotonic()
        h = regular_circulant_matrix(12, 2, seed=3)
        code = css_hypergraph_product(h, h)
        stats = island_attack(code, trials=10_000, seed=2024)
        assert len(stats.u_set) >= 1

        # (a) per-island error counts vs Binomial(k, 1/(10k)); merge the
        # tail so every expected bin count is >= 5
        observed = stats.histogram.astype(float)
        expected = stats.binomial_model() * observed.sum()
        cut = len(expected)
        while cut > 2 and expected[cut - 1 :].sum() < 5:
            cut -= 1
        obs = np.append(observed[: cut - 1], observed[cut - 1 :].sum())
        exp = np.append(expected[: cut - 1], expected[cut - 1 :].sum())
        result = scipy.stats.chisquare(obs, exp)
        assert result.pvalue >= 0.01

        # (b) empirical mean penalty against the expansion bound
        assert stats.mean_penalty <= stats.expected_penalty_bound + 3 * stats.penalty_sem
        assert time.monotonic() - t0 < 300


# --------------------------------------------------------------------------
# 8. classical contrast
# --------------------------------------------------------------------------

def test_criterion_08_classical_contrast(capsys):
    with criterion(capsys, 8, "classical unique-neighbor soundness on 10 graphs, exact"):
        for seed in range(10):
            g = random_regular_bipartite(24, 18, 3, 4, seed=1000 + seed)
            report = classical_soundness_check(ClassicalParityCode(g), 3)
            assert report["kind"] == "exact"
            assert report["bounds_hold"] is True


# --------------------------------------------------------------------------
# 9. attacks never beat the exhaustive soundness oracle
# --------------------------------------------------------------------------

def _all_attacks(code, seed):
    delta = 1 / code.n
    yield expander_attack(code, delta, seed=seed)
    yield alphabet_attack(code, delta, seed=seed)
    u = code.graph.greedy_t_independent(1, 1, seed=seed)
    yield refined_expander_attack(code, u, delta)
    yield island_attack(code, trials=200, seed=seed).best_trial


def test_criterion_09_oracle_consistency(capsys):
    with criterion(capsys, 9, "attack r >= exhaustive profile minimum, exact"):
        for code in (steane_code(), toric_code(2)):
            prof = soundness_profile(code, code.n)
            assert prof.coverage_complete
            for seed in range(3):
                for rep in _all_attacks(code, seed):
                    w = rep.wt_mod_centralizer.value
                    assert rep.r >= r_at_coset_weight(prof, w)


# --------------------------------------------------------------------------
# 10. dense Hilbert-space equivalences
# --------------------------------------------------------------------------

def test_criterion_10_dense_equivalences(capsys):
    with criterion(capsys, 10, "dense energy, detectability, dimension to 1e-9"):
        t0 = time.monotonic()
        for code in (steane_code(), toric_code(2)):
            rng = np.random.default_rng(17)
            errors = []
            while len(errors) < 50:
                e = PauliOp(
                    code.d,
                    code.n,
                    rng.integers(code.d, size=code.n),
                    rng.integers(code.d, size=code.n),
                    0,
                )
                if e.weight():
                    errors.append(e)
            energy = verify_energy_identity(code, errors)
            assert energy["passed"] and energy["max_deviation"] < 1e-9

            distance = code.code_distance().value
            det = dense.verify_detectability(code, rho=distance)
            assert det["passed"] and det["max_residual"] < 1e-9

            dim = dense.codespace_basis(code).shape[1]
            assert dim == code.d ** (code.n - code.rank)
        assert time.monotonic() - t0 < 120


# --------------------------------------------------------------------------
# 11. determinism
# --------------------------------------------------------------------------

def test_criterion_11_determinism(capsys):
    with criterion(capsys, 11, "identical seeds produce identical reports"):
        code = toric_code(4)
        a = expander_attack(code, 2 / code.n, seed=3)
        b = expander_attack(code, 2 / code.n, seed=3)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

        h = regular_circulant_matrix(12, 2, seed=3)
        hgp = css_hypergraph_product(h, h)
        s1 = island_attack(hgp, trials=500, seed=11)
        s2 = island_attack(hgp, trials=500, seed=11)
        assert json.dumps(s1.to_json(), sort_keys=True) == json.dumps(s2.to_json(), sort_keys=True)

        p1 = soundness_profile(code, 2).to_json()
        p2 = soundness_profile(code, 2).to_json()
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
