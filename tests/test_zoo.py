import itertools

import numpy as np
import pytest

from qltc import zoo
from qltc.graphs import BipartiteGraph
from qltc.fieldmath import CodeValidationError
from qltc.pauli import PauliOp
from qltc.stabilizer import NonAbelianError
from qltc.zoo import (
    css_code,
    css_hypergraph_product,
    hamming7_matrix,
    steane_code,
    toric_code,
)
from helpers import (
    ClassicalParityCode,
    classical_soundness_check,
    classify_string,
    group_contains,
    random_open_path,
    random_regular_bipartite,
    rectangle_loop_edges,
    regular_circulant_matrix,
    string_error,
    symplectic_product,
    vertex_path_edges,
    wrap_loop_edges,
)


# --- toric -----------------------------------------------------------------

@pytest.mark.parametrize("L", [2, 3, 4])
def test_toric_shape(L):
    c = toric_code(L)
    assert (c.n, c.m, c.k, c.D_L) == (2 * L * L, 2 * L * L, 4, 4)
    assert c.rank == 2 * L * L - 2  # one global dependency per generator type
    assert c.is_css()


@pytest.mark.parametrize("d", [3, 5])
def test_toric_qudit_dimensions(d):
    c = toric_code(3, d)
    assert c.d == d and c.rank == 16
    assert c.code_distance(w_max=4).value == 3


def test_toric_rejects_bad_args():
    with pytest.raises(ValueError):
        toric_code(1)
    with pytest.raises(ValueError):
        toric_code(3, 4)


def test_string_trichotomy_all_sizes():
    for L in (2, 3, 4):
        c = toric_code(L)
        rng = np.random.default_rng(L)
        for length in range(1, L + 1):
            e = string_error(L, random_open_path(L, length, rng), kind="z")
            assert c.penalty(e) == 2
            assert classify_string(c, e) == "open"
        loop = string_error(L, rectangle_loop_edges(L, 0, 0, 1, 1), kind="z")
        assert classify_string(c, loop) == "stabilizer"
        for direction in ("horizontal", "vertical"):
            wrap = string_error(L, wrap_loop_edges(L, 0, direction), kind="z")
            assert c.penalty(wrap) == 0
            assert classify_string(c, wrap) == "logical"


def test_plaquette_loop_is_a_generator():
    L = 3
    c = toric_code(L)
    loop = string_error(L, rectangle_loop_edges(L, 1, 1, 1, 1), kind="z")
    mem = group_contains(c, loop)
    assert mem.in_span and np.count_nonzero(mem.coefficients) == 1


def test_dual_x_string_open_penalty():
    # X-type strings violate plaquette checks at their dual endpoints; an
    # x-wrap of horizontal edges in one column is the dual logical
    L = 4
    c = toric_code(L)
    wrap = string_error(L, [zoo.toric_edge_indices(L)[0](r, 0) for r in range(L)], kind="x")
    assert classify_string(c, wrap) == "logical"


def test_path_validation():
    with pytest.raises(ValueError):
        vertex_path_edges(3, [(0, 0), (1, 1)])  # not adjacent
    with pytest.raises(ValueError):
        string_error(3, [0, 0])  # repeated edge
    with pytest.raises(ValueError):
        string_error(3, [99])


# --- CSS / HGP -------------------------------------------------------------

def test_steane():
    c = steane_code()
    assert (c.n, c.m, c.d, c.k) == (7, 6, 2, 4)
    assert c.rank == 6
    assert c.code_distance().value == 3


def test_css_rejects_non_orthogonal():
    hx = np.array([[1, 1, 0], [0, 1, 1]])
    hz = np.array([[1, 1, 0], [1, 0, 1]])
    # X_0 commutes with Z_0 (hx[0] . hz[0] = 2), not with Z_1: generators 0 and 2 + 1
    with pytest.raises(NonAbelianError) as refused:
        css_code(hx, hz)
    assert refused.value.pair == (0, 3)
    assert isinstance(refused.value, CodeValidationError)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_css_refuses_exactly_the_pairs_that_are_not_orthogonal(d):
    # the dense product is the oracle: Hx @ Hz.T != 0 mod d iff some <X_a, Z_b> != 0
    rng = np.random.default_rng(d)
    for _ in range(200):
        n, rx, rz, k = (int(v) for v in rng.integers(2, 6, size=4))
        k = min(k, n)
        hx, hz = (np.zeros((r, n), dtype=np.int64) for r in (rx, rz))
        for h in (hx, hz):
            for row in h:
                row[rng.choice(n, size=k, replace=False)] = rng.integers(1, d, size=k)
        bad = np.argwhere(hx @ hz.T % d)
        try:
            css_code(hx, hz, d, strict_degree=False)
        except NonAbelianError as exc:
            assert bad.size and exc.pair == (int(bad[0, 0]), rx + int(bad[0, 1]))
        except CodeValidationError:  # a trivial qudit, after the commutation check
            assert not bad.size
        else:
            assert not bad.size


def test_css_over_the_build_guard_is_refused_before_any_product():
    # a pair that is not orthogonal, on 25,000 qudits: the guard refuses it
    # before the commutation check could
    hx, hz = np.zeros((1, 25_000), dtype=np.int64), np.zeros((1, 25_000), dtype=np.int64)
    hx[0, [0, 1]] = hz[0, [1, 2]] = 1
    with pytest.raises(CodeValidationError, match="guard"):
        css_code(hx, hz)


def test_css_qudit_orthogonality():
    # GF(3): [1,1,1] . [1,1,1] = 3 = 0 mod 3
    h = np.array([[1, 1, 1]])
    c = css_code(h, h, d=3, strict_degree=False)
    assert c.d == 3 and c.m == 2


def test_hgp_shape_and_validity():
    h = regular_circulant_matrix(4, 2, seed=0)
    c = css_hypergraph_product(h, h)
    assert c.n == 2 * 16 and c.m == 2 * 16
    assert (c.k, c.D_L) == (4, 4)
    assert c.is_css()


def test_hgp_orthogonality_random_pair():
    rng = np.random.default_rng(2)
    h1 = regular_circulant_matrix(3, 2, seed=5)
    h2 = regular_circulant_matrix(4, 2, seed=6)
    c = css_hypergraph_product(h1, h2, strict_degree=False)
    assert c.n == 3 * 4 + 3 * 4


def test_parse_sparse_rows():
    text = "0 2\n1 2:2  # comment\n\n0:1 3\n"
    mat = zoo.parse_sparse_rows(text)
    assert mat.tolist() == [
        [1, 0, 1, 0],
        [0, 1, 2, 0],
        [1, 0, 0, 1],
    ]



@pytest.mark.parametrize("text, match", [
    ("0 1\n1 -3\n", "line 2: negative column -3"),
    ("0:99999999999999999999\n", "line 1: a value past int64"),
    pytest.param("0 1\n\n0 99999999999\n", "line 3: a 2 x 100000000000 matrix: .*guard",
                 id="0 1\n\n0 99999999999\n-line 3: column 99999999999"),
    pytest.param("0 5\n" + "0\n" * 40000, "line 25642: a 25642 x 6 matrix: .*guard",
                 id="0 5\n then 40,000 lines 0\n-line 25642"),  # the line that puts it over
    ("0 1.5\n", "1.5"),
    ("0\n0:1:1\n", "line 2: bad entry '0:1:1'"),
    ("0 x:1\n", "line 1: bad entry 'x:1'"),
    ("0 1\n0 2 0\n", "line 2: column 0 repeated"),
    ("0:1 0:2\n", "line 1: column 0 repeated"),
])
def test_parse_sparse_rows_refuses_bad_entries(text, match):
    with pytest.raises(ValueError, match=match):
        zoo.parse_sparse_rows(text)


def _least_refused_columns(r):
    """The fewest columns c at which _check_build_size(r, c, 2) refuses."""
    low, high = 1, zoo.BUILD_GUARD  # the estimate is at least 8rc, so c = BUILD_GUARD refuses
    while low < high:
        mid = (low + high) // 2
        try:
            zoo._check_build_size(r, mid, 2)
            low = mid + 1
        except ValueError:
            high = mid
    return low


@pytest.mark.parametrize("r", [1, 3, 1000, 1 << 14])
def test_matrix_over_the_parse_guard_makes_only_refused_builds(r):
    c = _least_refused_columns(r)  # the parser's rule is the build guard's price of (r, c, 2)
    zoo._check_build_size(r, c - 1, 2)
    with pytest.raises(ValueError, match=f"line {r}: a {r} x {c} matrix: .*guard"):
        zoo.parse_sparse_rows("0\n" * (r - 1) + f"{c - 1}\n")
    # the smallest codes such a matrix makes: css (m >= r generators on c qudits) and the
    # hypergraph product with a 1 x 1 matrix (r + c generators on r + c qudits)
    for m, n in [(r, c), (r + c, r + c)]:
        with pytest.raises(ValueError, match="guard"):
            zoo._check_build_size(m, n, 2)


# --- random graphs ---------------------------------------------------------

def test_random_regular_bipartite():
    g = random_regular_bipartite(24, 18, 3, 4, seed=11)
    assert all(len(v) == 3 for v in g.left_adj)
    assert all(len(v) == 4 for v in g.right_adj)
    assert g.D_L == 3 and g.k == 4


def test_random_regular_rejects_infeasible():
    with pytest.raises(ValueError):
        random_regular_bipartite(10, 7, 3, 4, seed=0)


def test_random_regular_deterministic():
    a = random_regular_bipartite(24, 18, 3, 4, seed=5)
    b = random_regular_bipartite(24, 18, 3, 4, seed=5)
    assert a.right_adj == b.right_adj


# --- classical codes -------------------------------------------------------

def test_classical_single_bit_violations():
    g = random_regular_bipartite(12, 9, 3, 4, seed=1)
    code = ClassicalParityCode(g)
    bits = np.zeros(12, dtype=np.int64)
    bits[3] = 1
    assert code.violations(bits) == g.D_L  # every incident check sees one flip


def test_classical_disjoint_pair():
    # two bits sharing no checks: violations = 2 D_L and eps = 0
    g = BipartiteGraph(4, 4, [[0], [1], [2], [3]])
    code = ClassicalParityCode(g)
    bits = np.zeros(4, dtype=np.int64)
    bits[[0, 2]] = 1
    assert code.violations(bits) == 2
    assert g.expansion_stats([0, 2]).epsilon == 0.0


def test_classical_soundness_scan():
    g = random_regular_bipartite(14, 7, 2, 4, seed=9)
    code = ClassicalParityCode(g)
    report = classical_soundness_check(code, 3)
    assert report["kind"] == "exact"
    assert report["bounds_hold"] is True
    assert set(report["min_relative_soundness"]) == {1, 2, 3}
    assert report["min_relative_soundness"][1] == 1.0  # single bit violates all its checks


def test_classical_scan_guard():
    g = random_regular_bipartite(60, 30, 2, 4, seed=0)
    code = ClassicalParityCode(g)
    with pytest.raises(ValueError):
        classical_soundness_check(code, 6)


def test_classical_quantum_agreement():
    """X-error violations of Z-checks equal classical parity violations."""
    h = regular_circulant_matrix(4, 2, seed=0)
    c = css_hypergraph_product(h, h)
    hz_rows = [g for g in c.generators if not g.x.any()]
    graph = BipartiteGraph(c.n, len(hz_rows), [g.support() for g in hz_rows])
    classical = ClassicalParityCode(graph)
    rng = np.random.default_rng(4)
    for _ in range(20):
        bits = (rng.random(c.n) < 0.1).astype(np.int64)
        e = PauliOp(2, c.n, bits, np.zeros(c.n, dtype=np.int64), 0)
        quantum = sum(1 for g in hz_rows if symplectic_product(g, e) != 0)
        assert quantum == classical.violations(bits)
