import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qltc
from qltc.graphs import BipartiteGraph
from qltc.zoo import random_regular_bipartite, toric_code


def small_graph():
    # 4 qudits, 3 constraints
    return BipartiteGraph(4, 3, [[0, 1], [1, 2], [2, 3]])


def test_build_and_adjacency():
    g = small_graph()
    assert g.left_adj == [[0], [0, 1], [1, 2], [2]]
    assert g.D_L is None and g.k == 2  # irregular left side
    with pytest.raises(ValueError):
        BipartiteGraph(4, 1, [[0, 0]])  # multi-edge
    with pytest.raises(IndexError):
        BipartiteGraph(2, 1, [[0, 5]])


def test_gamma_and_iteration():
    g = small_graph()
    assert g.gamma([0], "left") == {0}
    assert g.gamma([0], "right") == {0, 1}
    assert g.gamma([], "left") == set()
    assert g.gamma_iter([1], "left", 2) == {0, 1, 2}  # N(q) includes q
    assert g.qudit_neighborhood(1) == {0, 1, 2}
    with pytest.raises(ValueError):
        g.gamma([0], "middle")
    with pytest.raises(ValueError):
        g.gamma_iter([0], "left", 0)


def test_toric_constraint_gamma_size():
    code = toric_code(3)
    for c in range(code.m):
        assert len(code.graph.gamma([c], "right")) == 4


def test_expansion_stats_examples():
    g = BipartiteGraph(2, 2, [[0, 1], [0, 1]])  # both qudits share both checks
    s = g.expansion_stats([0, 1])
    assert s.epsilon == 0.5 and s.unique_neighbors == 0
    g2 = BipartiteGraph(2, 4, [[0], [0], [1], [1]])
    s2 = g2.expansion_stats([0, 1])
    assert s2.epsilon == 0.0 and s2.unique_neighbors == 4
    with pytest.raises(ValueError):
        g.expansion_stats([])


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_expansion_matches_matrix_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_regular_bipartite(12, 9, 3, 4, seed=seed)
    size = int(rng.integers(1, 5))
    s = rng.choice(12, size=size, replace=False).tolist()
    a = g.expansion_stats(s)
    b = g.expansion_stats_matrix(s)
    assert a == b
    assert a.gamma_size == a.unique_neighbors + a.multi_neighbors
    assert 0 <= a.epsilon < 1


def test_small_set_expansion_toric():
    code = toric_code(3)
    res = code.graph.small_set_expansion_error(2)
    # parallel adjacent edges share one of their 4+4 checks (eps 1/8);
    # perpendicular edges at a corner share a vertex and a face (eps 1/4)
    assert res["kind"] == "exact"
    assert res["epsilon_star"] == pytest.approx(1 / 4)
    assert code.graph.small_set_expansion_error(1)["epsilon_star"] == 0.0


def test_small_set_expansion_rejects_cap_below_1():
    # in a fresh interpreter with a timeout, so that an endless scan fails the test
    src = os.path.dirname(os.path.dirname(qltc.__file__))
    script = (
        "from qltc.zoo import toric_code\n"
        "g = toric_code(3).graph\n"
        "for mode in ('exhaustive', 'sampled'):\n"
        "    try:\n"
        "        g.small_set_expansion_error(0, mode=mode, samples=5, seed=0)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.count("size_cap") == 2


def test_small_set_exhaustive_matches_full_bruteforce():
    g = random_regular_bipartite(10, 5, 2, 4, seed=7)
    res = g.small_set_expansion_error(3)
    brute = 0.0
    for size in (1, 2, 3):
        for s in itertools.combinations(range(10), size):
            brute = max(brute, g.expansion_stats(s).epsilon)
    assert res["epsilon_star"] == pytest.approx(brute)
    assert g.expansion_stats(res["witness"]).epsilon == pytest.approx(brute)


def test_disjoint_checks_graph_has_zero_eps():
    g = BipartiteGraph(4, 8, [[i // 2] for i in range(8)])
    assert g.small_set_expansion_error(2)["epsilon_star"] == 0.0


def test_sampled_mode_is_lower_bound():
    g = random_regular_bipartite(20, 10, 2, 4, seed=1)
    exact = g.small_set_expansion_error(2)["epsilon_star"]
    sampled = g.small_set_expansion_error(2, mode="sampled", samples=200, seed=3)
    assert sampled["kind"] == "sampled_lower_bound"
    assert sampled["epsilon_star"] <= exact + 1e-12
    with pytest.raises(ValueError):
        g.small_set_expansion_error(2, mode="sampled")  # seed required


# --- expansion facts (2-eps bounds) ---------------------------------------

def _random_instances(count, rng):
    for _ in range(count):
        seed = int(rng.integers(10**9))
        yield random_regular_bipartite(24, 18, 3, 4, seed=seed), seed


def test_two_eps_bounds_on_random_graphs():
    """For eps(S) < 1/2: multi-covered fraction of Gamma(S) is at most 2*eps,
    and some member of S has at most 2*eps*D_L multiply-covered checks."""
    rng = np.random.default_rng(42)
    checked = 0
    for g, seed in _random_instances(60, rng):
        set_rng = np.random.default_rng(seed)
        for _ in range(10):
            size = int(set_rng.integers(1, 6))
            s = set_rng.choice(g.n, size=size, replace=False).tolist()
            stats = g.expansion_stats(s)
            eps = stats.epsilon
            if eps >= 0.5:
                continue
            checked += 1
            assert stats.multi_neighbors <= 2 * eps * stats.gamma_size + 1e-9
            best = min(
                sum(
                    1
                    for c in g.left_adj[q]
                    if len(set(g.right_adj[c]) & set(s)) >= 2
                )
                for q in s
            )
            assert best <= 2 * eps * g.D_L + 1e-9
    assert checked > 100


# --- independent sets -----------------------------------------------------

def test_greedy_independent_toric():
    g = toric_code(4).graph
    u = g.greedy_t_independent(1, 4, seed=0)
    assert len(u) >= 2
    assert g.verify_t_independent(u, 1)
    assert g.greedy_t_independent(1, 1, seed=5) != [] and len(
        g.greedy_t_independent(1, 1, seed=5)
    ) == 1


def test_greedy_independent_verified_on_random_graphs():
    for seed in range(5):
        g = random_regular_bipartite(40, 30, 3, 4, seed=seed)
        for t in (1, 2):
            u = g.greedy_t_independent(t, 10, seed=seed)
            assert u  # at least one constraint always fits
            assert g.verify_t_independent(u, t)
            # yield matches the eta(k, D_L) guarantee (trivially small here)
            eta = g.k ** -(2 * g.k + 1) * g.D_L ** -(2 * g.k - 1)
            assert len(u) >= int(eta * g.n)


def test_greedy_independent_determinism():
    g = toric_code(4).graph
    assert g.greedy_t_independent(1, 4, seed=9) == g.greedy_t_independent(1, 4, seed=9)


def test_verify_rejects_adjacent():
    g = toric_code(3).graph
    # two constraints sharing a qudit are never 1-independent
    c0 = 0
    c1 = next(iter(g.gamma(g.gamma([c0], "right"), "left") - {c0}))
    assert not g.verify_t_independent([c0, c1], 1)


# --- serialization --------------------------------------------------------

def test_graph_serialization():
    g = small_graph()
    g2 = BipartiteGraph.from_json(g.to_json())
    assert g2.right_adj == g.right_adj and g2.n == g.n
    text = g.to_text()
    assert text.startswith("p bipartite 4 3")
    assert "e 0 0" in text and text.count("\ne ") + text.startswith("e ") == 6
