import functools
import importlib.util
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qltc
from qltc import graphs
from qltc.cli import load_code
from qltc.fieldmath import Sites
from qltc.graphs import BipartiteGraph, ExpansionStats
from qltc.stabilizer import StabilizerCode
from qltc.zoo import css_hypergraph_product, steane_code, toric_code
import helpers
from helpers import connected_sets, random_regular_bipartite, regular_circulant_matrix


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


def reference_graph(n, m, right_adj):
    """The per-edge Python loop the constructor used before its numpy build: the oracle
    for its adjacency lists, degrees and the first error it raises."""
    if len(right_adj) != m:
        raise ValueError("right adjacency length mismatch")
    right, left = [], [[] for _ in range(n)]
    for c, nbrs in enumerate(right_adj):
        nbrs = list(nbrs)
        if len(set(nbrs)) != len(nbrs):
            raise ValueError(f"multi-edge at constraint {c}")
        for q in nbrs:
            if not 0 <= q < n:
                raise IndexError(f"qudit {q} out of range")
            left[q].append(c)
        right.append(sorted(nbrs))
    left = [sorted(v) for v in left]
    left_degs, right_degs = {len(v) for v in left}, {len(v) for v in right}
    return {"right_adj": right, "left_adj": left,
            "D_L": left_degs.pop() if len(left_degs) == 1 else None,
            "k": right_degs.pop() if len(right_degs) == 1 else None}


def _outcome(build):
    try:
        return build()
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


@st.composite
def adjacency(draw):
    """(n, m, right_adj): regular, ragged or empty rows, some with repeated or
    out-of-range qudits, and sometimes the wrong number of rows."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 20))
    qudit = st.integers(-2, n + 1) if draw(st.booleans()) else st.integers(0, max(n - 1, 0))
    k = draw(st.integers(0, max(n, 1)))
    row = st.lists(qudit, min_size=k, max_size=k) if draw(st.booleans()) else st.lists(qudit, max_size=n + 1)
    if draw(st.booleans()):
        row = row.map(lambda r: sorted(set(r)))
    rows = draw(st.lists(row, min_size=m, max_size=m))
    return n, m + (draw(st.integers(-1, 1)) if draw(st.booleans()) else 0), rows


@given(adjacency())
@settings(max_examples=400, deadline=None)
def test_graph_build_matches_reference_loop(case):
    n, m, rows = case
    want = _outcome(lambda: reference_graph(n, m, rows))

    def build():
        g = BipartiteGraph(n, m, rows)
        return {"right_adj": g.right_adj, "left_adj": g.left_adj, "D_L": g.D_L, "k": g.k}

    assert _outcome(build) == want


def test_gamma_and_iteration():
    g = small_graph()
    assert g.gamma([0], "left") == {0}
    assert g.gamma([0], "right") == {0, 1}
    assert g.gamma([], "left") == set()
    assert g.gamma([1], "left", 2) == {0, 1, 2}  # N(q) includes q
    assert g.gamma([0], "right", 2) == {0, 1} and g.gamma([0], "right", 3) == {0, 1, 2}
    with pytest.raises(ValueError, match="invalid side"):
        g.gamma([0], "middle")
    with pytest.raises(ValueError, match="iteration count"):
        g.gamma([0], "left", 0)


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


def _expansion_stats_matrix(g, qudits):
    """Independent recount via incidence-matrix multiplication (oracle)."""
    qudits = list(qudits)
    inc = np.zeros((g.m, g.n), dtype=np.int64)
    for c, nbrs in enumerate(g.right_adj):
        inc[c, nbrs] = 1
    ind = np.zeros(g.n, dtype=np.int64)
    ind[qudits] = 1
    deg = inc @ ind
    gamma_size = int(np.count_nonzero(deg))
    unique = int(np.count_nonzero(deg == 1))
    total = int(deg.sum())
    return ExpansionStats(len(qudits), gamma_size, unique, gamma_size - unique, total)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_expansion_matches_matrix_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_regular_bipartite(12, 9, 3, 4, seed=seed)
    size = int(rng.integers(1, 5))
    s = rng.choice(12, size=size, replace=False).tolist()
    a = g.expansion_stats(s)
    b = _expansion_stats_matrix(g, s)
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
        "try:\n"
        "    toric_code(3).graph.small_set_expansion_error(0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.count("size_cap") == 1


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


def _circulant_hgp_graph():
    h = regular_circulant_matrix(8, 2, seed=1)
    return css_hypergraph_product(h, h).graph


EXPANSION_GRAPHS = {
    "toric:3": lambda: toric_code(3).graph,
    "toric:4": lambda: toric_code(4).graph,
    "toric:12": lambda: toric_code(12).graph,
    "hgp:circulant8": _circulant_hgp_graph,
    "random 24x18 seed 5": lambda: random_regular_bipartite(24, 18, 3, 4, seed=5),
    "random 30x20 seed 11": lambda: random_regular_bipartite(30, 20, 2, 3, seed=11),
}

# (graph, size cap) -> (epsilon*, witness in discovery order), pinned from the
# enumeration that allowed duplicate sets
EXPANSION_PINS = {
    ("toric:3", 2): (0.25, (0, 16)),
    ("toric:3", 3): (0.33333333333333337, (0, 16, 7)),
    ("toric:3", 4): (0.4375, (0, 16, 15, 6)),
    ("toric:4", 2): (0.25, (0, 29)),
    ("toric:4", 3): (0.33333333333333337, (0, 29, 13)),
    ("toric:4", 4): (0.4375, (0, 29, 28, 12)),
    ("toric:12", 2): (0.25, (0, 277)),
    ("toric:12", 3): (0.33333333333333337, (0, 277, 133)),
    ("toric:12", 4): (0.4375, (0, 277, 276, 132)),
    ("hgp:circulant8", 2): (0.25, (0, 109)),
    ("hgp:circulant8", 3): (0.33333333333333337, (0, 109, 9)),
    ("hgp:circulant8", 4): (0.4375, (0, 109, 108, 8)),
    ("random 24x18 seed 5", 2): (0.33333333333333337, (1, 5)),
    ("random 24x18 seed 5", 3): (0.4444444444444444, (2, 22, 18)),
    ("random 24x18 seed 5", 4): (0.5, (1, 20, 16, 10)),
    ("random 30x20 seed 11", 2): (0.5, (0, 4)),
    ("random 30x20 seed 11", 3): (0.5, (0, 25, 4)),
    ("random 30x20 seed 11", 4): (0.5, (0, 25, 27, 4)),
}


@pytest.mark.parametrize("name, cap", sorted(EXPANSION_PINS))
def test_small_set_expansion_golden(name, cap):
    res = EXPANSION_GRAPHS[name]().small_set_expansion_error(cap)
    assert (res["epsilon_star"], res["witness"]) == EXPANSION_PINS[name, cap]
    assert res["kind"] == "exact" and res["size_cap"] == cap


def _duplicating_connected_sets(g, size_cap):
    """The enumeration the scan used before ESU: every connected set, some more than once."""
    adj = g.sharing_adjacency

    def extend(sub, ext, root):
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

    for v in range(g.n):
        yield from extend([v], [u for u in adj[v] if u > v], v)


def _first_occurrences(sets):
    seen = set()
    out = []
    for s in sets:
        if frozenset(s) not in seen:
            seen.add(frozenset(s))
            out.append(list(s))
    return out


def _connected_subset_count(g, size_cap):
    """Brute force: subsets of size <= size_cap that a BFS inside the subset covers."""
    adj = g.sharing_adjacency
    count = 0
    for size in range(1, size_cap + 1):
        for s in itertools.combinations(range(g.n), size):
            members = set(s)
            seen = {s[0]}
            stack = [s[0]]
            while stack:
                for u in adj[stack.pop()]:
                    if u in members and u not in seen:
                        seen.add(u)
                        stack.append(u)
            count += len(seen) == size
    return count


@given(st.integers(0, 10**6), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_connected_sets_match_first_occurrences_of_the_duplicating_rule(seed, cap):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 10)), int(rng.integers(1, 8))
    right_adj = [
        rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist()
        for _ in range(m)
    ]
    g = BipartiteGraph(n, m, right_adj)
    scanned = list(_esu_sets(g, cap))
    assert [s for s, _, _ in scanned] == _first_occurrences(_duplicating_connected_sets(g, cap))
    assert len(scanned) == _connected_subset_count(g, cap)
    for s, gamma, total in scanned:
        stats = _expansion_stats_matrix(g, s)
        assert (gamma, total) == (stats.gamma_size, stats.total_degree)


def _esu_sets(g, size_cap):
    """The ESU walk from every root in turn: every connected set once, in scan order."""
    for root in range(g.n):
        yield from connected_sets(g, size_cap, root)


def _esu_scan(g, size_cap):
    """(epsilon*, witness, sets scanned) of the set-at-a-time ESU walk the level scan
    replaced: the first set in walk order with the largest expansion error wins."""
    best, witness, scanned = 0.0, None, 0
    for s, gamma, total in _esu_sets(g, size_cap):
        scanned += 1
        eps = 1.0 - gamma / total
        if eps > best:
            best, witness = eps, tuple(s)
    return best, witness, scanned


def _scan_result(g, size_cap):
    res = g.small_set_expansion_error(size_cap)
    return res["epsilon_star"], res["witness"], res["sets_scanned"]


@st.composite
def ragged_graphs(draw):
    """Graphs with constraints of 1 to 5 qudits, some qudits sharing no constraint with
    any other (so some extension lists are empty), and every qudit on a constraint."""
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 5)),
                         max_size=10))
    rows = [sorted(r) for r in rows]
    covered = set().union(*rows)
    rows += [[q] for q in range(n) if q not in covered]
    return BipartiteGraph(n, len(rows), rows)


@given(ragged_graphs(), st.integers(1, 6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_level_scan_matches_esu_walk(g, cap, past_n):
    if past_n:
        cap += g.n  # every connected set, capped by n alone
    assert _scan_result(g, cap) == _esu_scan(g, cap)


@pytest.mark.parametrize("name", ["toric:4", "hgp:circulant8", "random 24x18 seed 5"])
def test_level_scan_in_one_row_blocks(monkeypatch, name):
    g = EXPANSION_GRAPHS[name]()
    want = {cap: _scan_result(g, cap) for cap in (1, 2, 3, 4)}
    monkeypatch.setattr(graphs, "LEVEL_BYTES", 1)  # every block holds one parent row
    assert {cap: _scan_result(g, cap) for cap in (1, 2, 3, 4)} == want
    assert want[4] == _esu_scan(g, 4)


def test_level_scan_memory_is_bounded_by_its_blocks():
    import tracemalloc

    g = toric_code(16).graph
    g.sharing_adjacency
    tracemalloc.start()
    try:
        res = g.small_set_expansion_error(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res["sets_scanned"] == 69120
    # the levels built at once would take over 10 MiB
    assert peak < 4 * 2**20


def test_idle_qudit_is_refused_by_name():
    g = BipartiteGraph(3, 1, [[0, 1]])
    for scan in (lambda: g.small_set_expansion_error(2), lambda: g.expansion_stats([2])):
        with pytest.raises(ValueError, match="qudit 2 touches no constraint"):
            scan()
    assert g.expansion_stats([2, 0]).epsilon == 0.0


@pytest.mark.parametrize("L, cap, count", [(4, 4, 4272), (6, 4, 9720)])
def test_sets_scanned_counts_each_connected_set_once(L, cap, count):
    g = toric_code(L).graph
    assert _connected_subset_count(g, cap) == count
    assert g.small_set_expansion_error(cap)["sets_scanned"] == count


def test_expansion_guard_bounds_the_sets_the_scan_counts(monkeypatch):
    g = toric_code(4).graph  # 4,272 connected sets of size <= 4
    monkeypatch.setattr(graphs, "EXPANSION_GUARD", 4272)
    assert g.small_set_expansion_error(4)["sets_scanned"] == 4272
    monkeypatch.setattr(graphs, "EXPANSION_GUARD", 4271)
    with pytest.raises(graphs.Refusal, match="infeasible.*--sets"):
        g.small_set_expansion_error(4)


@pytest.mark.parametrize("guard, built", [(4271, [128, 640]), (799, [128]), (159, [])])
def test_expansion_refusal_comes_before_the_level_that_passes_the_guard(monkeypatch, guard, built):
    # toric:4 has 32, 128, 640 and 3,472 connected sets of sizes 1 to 4; a level
    # counts its children before they are built, so the level that would take
    # the count past the guard is never built
    g = toric_code(4).graph
    sizes = []
    real = BipartiteGraph._children

    def spy(self, *args):
        level = real(self, *args)
        sizes.append(level[0].size)
        return level

    monkeypatch.setattr(BipartiteGraph, "_children", spy)
    monkeypatch.setattr(graphs, "EXPANSION_GUARD", guard)
    with pytest.raises(graphs.Refusal, match="infeasible.*--sets"):
        g.small_set_expansion_error(4)
    assert sizes == built


# --- the scan rooted at orbit minima ------------------------------------------

def _rooted_scan_matches_full(g, symmetries, cap):
    """The scan rooted at the orbit minima of symmetries: its epsilon*, witness and kind
    are the full scan's, its witness attains epsilon*, and it visits no more sets."""
    rooted, full = g.small_set_expansion_error(cap, symmetries), g.small_set_expansion_error(cap)
    keys = ("epsilon_star", "witness", "kind")
    assert [rooted[k] for k in keys] == [full[k] for k in keys]
    if rooted["witness"] is not None:
        assert g.expansion_stats(rooted["witness"]).epsilon == rooted["epsilon_star"]
    assert rooted["sets_scanned"] <= full["sets_scanned"]
    return rooted


@functools.lru_cache(maxsize=None)
def _toric(L, d):
    return toric_code(L, d)


def test_only_toric_codes_carry_symmetries(tmp_path):
    code = toric_code(3)
    assert len(code.symmetries) == 2
    assert code.graph._orbit_minima(code.symmetries).tolist() == [0, 9]
    assert code.graph._orbit_minima(()).tolist() == list(range(18))
    code.save(tmp_path / "toric3.json")
    h = regular_circulant_matrix(4, 2, seed=0)
    for other in (load_code(str(tmp_path / "toric3.json")), steane_code(),
                  css_hypergraph_product(h, h)):
        assert other.symmetries == ()


@given(st.integers(2, 8), st.sampled_from([2, 3, 5]), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
@example(12, 2, 4).via("the CI step's bench-scale witness")
def test_rooted_scan_matches_the_full_scan_on_toric_codes(L, d, cap):
    code = _toric(L, d)
    _rooted_scan_matches_full(code.graph, code.symmetries, cap)


def _cyclic_shifts(s1, s2):
    """The shifts of both factors of the hypergraph product of an s1 x s1 and an s2 x s2
    circulant: (i, j) -> (i + 1, j) and (i, j + 1) on the n1 n2 qudits (i, j) and on
    the r1 r2 qudits (a, b) alike, as rows and columns of a circulant shift together."""
    i, j = np.divmod(np.arange(s1 * s2), s2)
    return (np.r_[(i + 1) % s1 * s2 + j, s1 * s2 + (i + 1) % s1 * s2 + j],
            np.r_[i * s2 + (j + 1) % s2, s1 * s2 + i * s2 + (j + 1) % s2])


@given(st.integers(3, 6), st.integers(3, 6), st.integers(2, 3), st.integers(2, 3),
       st.integers(0, 100), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_rooted_scan_matches_the_full_scan_on_circulant_products(s1, s2, deg1, deg2, seed, cap):
    h1 = regular_circulant_matrix(s1, deg1, seed=seed)
    h2 = regular_circulant_matrix(s2, deg2, seed=seed + 1)
    code = css_hypergraph_product(h1, h2)
    _rooted_scan_matches_full(code.graph, _cyclic_shifts(s1, s2), cap)


@given(st.integers(2, 6), st.sampled_from([2, 3, 5]), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_relabelled_toric_code_keeps_epsilon_star(L, d, cap, seed):
    # relabel qudit q as perm[q] and conjugate the translations t into perm t perm^-1;
    # the orbit minima are then the least labels of the two edge types, not {0, L^2}
    code = _toric(L, d)
    perm = np.random.default_rng(seed).permutation(code.n)
    back = np.argsort(perm)
    s = code._sites
    relabelled = StabilizerCode(d, Sites.at(s.row, perm[s.qudit], s.x, s.z, s.shape),
                                symmetries=[perm[t[back]] for t in code.symmetries])
    minima = relabelled.graph._orbit_minima(relabelled.symmetries)
    assert minima.tolist() == sorted([perm[: L * L].min(), perm[L * L :].min()])
    rooted = _rooted_scan_matches_full(relabelled.graph, relabelled.symmetries, cap)
    assert rooted["epsilon_star"] == code.graph.small_set_expansion_error(cap)["epsilon_star"]
    if rooted["witness"] is not None:  # the witness maps back to a set of the same error
        assert code.graph.expansion_stats(back[list(rooted["witness"])]).epsilon == (
            rooted["epsilon_star"])


def test_a_permutation_that_is_not_an_automorphism_is_refused():
    g = toric_code(4).graph
    swap = np.arange(g.n)
    swap[[0, 1]] = [1, 0]
    with pytest.raises(AssertionError, match="symmetry 0 .* not an automorphism"):
        g.small_set_expansion_error(2, [swap])
    for bad in (swap[:-1], np.zeros(g.n, dtype=np.int64)):
        with pytest.raises(AssertionError, match="not a permutation of the 32 qudits"):
            g.small_set_expansion_error(2, [bad])


def test_touches_counts_the_qudits_of_s_at_each_constraint():
    g = random_regular_bipartite(24, 18, 3, 4, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = rng.choice(g.n, size=int(rng.integers(1, 7)), replace=False).tolist()
        hits = [len(set(g.right_adj[c]) & set(s)) for c in range(g.m)]
        assert g.touches(s).tolist() == hits
        stats = g.expansion_stats(s)
        assert stats.unique_neighbors == sum(h == 1 for h in hits)
        assert stats.multi_neighbors == sum(h >= 2 for h in hits)
        assert stats.total_degree == sum(hits)


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


@pytest.mark.parametrize("t, target", [(0, 4), (-1, 4), (1, 0), (1, -2)])
def test_greedy_independent_refuses_t_or_target_below_1(t, target):
    with pytest.raises(ValueError, match="t and target_size must be >= 1"):
        toric_code(3).graph.greedy_t_independent(t, target)


def test_greedy_independent_determinism():
    g = toric_code(4).graph
    assert g.greedy_t_independent(1, 4, seed=9) == g.greedy_t_independent(1, 4, seed=9)


@st.composite
def ragged_graphs(draw):
    """A graph of 1-30 qudits and 1-20 constraints, each on 1-4 distinct qudits."""
    n = draw(st.integers(1, 30))
    right_adj = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                              min_size=1, max_size=20))
    return BipartiteGraph(n, len(right_adj), [sorted(c) for c in right_adj])


@given(ragged_graphs(), st.integers(1, 4), st.integers(0, 2**128), st.integers(1, 20))
@settings(max_examples=150, deadline=None)
def test_greedy_independent_matches_the_numpy_oracle(g, t, seed, target):
    assert g.greedy_t_independent(t, target, seed=seed) == helpers.greedy_t_independent(
        g, t, target, seed)


def _bench_attack_jobs(directory, monkeypatch):
    """(source, attack, seed) of every attack job of the bench's three workloads at
    seed 0, their matrix files written into directory."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "jobs.py")
    spec = importlib.util.spec_from_file_location("bench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)  # its dataclasses look it up
    spec.loader.exec_module(jobs)
    out = []
    for workload in ("sweep", "island", "certify"):
        hgp = jobs.make_inputs(workload, 0, os.path.join(directory, workload))
        for job in jobs.make_jobs(workload, 0, hgp):
            if job.argv[0] == "attack":
                argv = list(job.argv)
                out.append((argv[1], argv[2], int(argv[argv.index("--seed") + 1])))
    return out


def test_greedy_independent_matches_the_numpy_oracle_at_the_bench_seeds(tmp_path, monkeypatch):
    # an attack's U is a prefix of the greedy run to target m: t = k for the
    # island attack (toric:16, hgp:12 and toric:10:3), t = 1 for the others
    jobs = _bench_attack_jobs(str(tmp_path), monkeypatch)
    assert len(jobs) == 87 and {a for _, a, _ in jobs} == {"expander", "alphabet", "refined",
                                                           "island"}
    for source, attack, seed in jobs:
        code = load_code(source)
        t = code.k if attack == "island" else 1
        got = code.graph.greedy_t_independent(t, code.m, seed=seed)
        assert got == helpers.greedy_t_independent(code.graph, t, code.m, seed), (source, seed)


# --- numpy's default_rng stream, reproduced --------------------------------

@given(st.integers(0, 2**256 - 1), st.integers(0, 1200))
@example(0, 1200)
@example(2**64 - 1, 700)
@example(2**128 - 1, 513)
@example(2**255 + 9, 64)
@settings(max_examples=200, deadline=None)
def test_pcg64_permutation_matches_numpy(seed, m):
    # seeds past 2**128 are more than 4 words, mixed into the pool one by one
    want = np.random.default_rng(seed).permutation(m).tolist()
    assert graphs.Pcg64(seed).permutation(m) == want


@pytest.mark.parametrize("d", [2, 3, 5, 7, 257, 65521])
@given(seed=st.integers(0, 2**256 - 1), n=st.integers(0, 41))
@example(seed=156434, n=5)  # draw 7 is redrawn at d = 65521
@example(seed=2**200 + 5, n=3)
@settings(max_examples=60, deadline=None)
def test_pcg64_integers_match_numpy(d, seed, n):
    # an odd n leaves the high half of an output for the next call to start with
    ours, theirs = graphs.Pcg64(seed), np.random.default_rng(seed)
    assert ours.integers(d, size=n) == theirs.integers(d, size=n).tolist()
    assert ours.integers(d, size=n) == theirs.integers(d, size=n).tolist()
    assert ours.integers(d) == theirs.integers(d)


def test_pcg64_refuses_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        graphs.Pcg64(-1)


def test_verify_rejects_adjacent():
    g = toric_code(3).graph
    # two constraints sharing a qudit are never 1-independent
    c0 = 0
    c1 = next(iter(g.gamma(g.gamma([c0], "right"), "left") - {c0}))
    assert not g.verify_t_independent([c0, c1], 1)


def _pairwise_disjoint_balls(g, constraints, t):
    """The pairwise loop verify_t_independent replaced: every two balls compared."""
    balls = [g.gamma([u], "right", 2 * t + 1) for u in constraints]
    return not any(balls[i] & balls[j] for i, j in itertools.combinations(range(len(balls)), 2))


@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_verify_t_independent_matches_the_pairwise_loop(seed, t):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 30)), int(rng.integers(1, 20))
    right_adj = [
        rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist()
        for _ in range(m)
    ]
    g = BipartiteGraph(n, m, right_adj)
    # greedy picks (independent), random picks (mostly not) and repeated constraints
    picks = [g.greedy_t_independent(t, m, seed=seed),
             rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False).tolist(),
             rng.integers(0, m, size=3).tolist()]
    for u in picks:
        assert g.verify_t_independent(u, t) == _pairwise_disjoint_balls(g, u, t)
