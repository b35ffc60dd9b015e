import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qltc.pauli import PauliOp
from qltc.search import candidate_batches
from qltc.stabilizer import (
    BoundedWeight,
    CodeValidationError,
    IrregularDegreeError,
    NonAbelianError,
    NonUniformLocalityError,
    PhaseObstructionError,
    Sites,
    StabilizerCode,
    TrivialQuditError,
    build_code,
    product_phase,
)
from qltc.zoo import (
    css_hypergraph_product,
    regular_circulant_matrix,
    steane_code,
    toric_code,
)


def two_qubit_code():
    # {XX, ZZ}: commuting, weight-2, every qubit covered by a non-commuting pair
    g1 = PauliOp(2, 2, [1, 1], [0, 0], 0)
    g2 = PauliOp(2, 2, [0, 0], [1, 1], 0)
    return build_code([g1, g2])


def five_qubit_code():
    # the non-CSS [[5,1,3]] code: cyclic shifts of XZZXI (qubit degrees 3 and 4)
    rows = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    gens = [PauliOp(2, 5, [c == "X" for c in r], [c == "Z" for c in r]) for r in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_code(gens, strict_degree=False)


# --- validation ------------------------------------------------------------

def test_valid_two_qubit_code():
    c = two_qubit_code()
    assert (c.n, c.m, c.k, c.D_L, c.rank) == (2, 2, 2, 2, 2)


def test_rejects_empty_and_mixed():
    with pytest.raises(CodeValidationError):
        build_code([])
    with pytest.raises(CodeValidationError):
        build_code([PauliOp(2, 2, [1, 1], [0, 0], 0), PauliOp(3, 2, [1, 1], [0, 0], 0)])


def test_rejects_non_abelian():
    g1 = PauliOp(2, 2, [1, 0], [0, 1], 0)  # X Z
    g2 = PauliOp(2, 2, [0, 1], [1, 0], 0)  # Z X
    # <g1,g2> = 2 = 0 mod 2 so that pair is fine; XX vs ZX anti-commutes
    h1 = PauliOp(2, 2, [1, 1], [0, 0], 0)  # XX
    h2 = PauliOp(2, 2, [0, 1], [1, 0], 0)  # ZX
    with pytest.raises(NonAbelianError) as err:
        build_code([h1, h2])
    assert err.value.pair == (0, 1)
    build_code([g1, g2])  # symplectic product cancels: valid


def test_rejects_non_uniform_locality():
    g1 = PauliOp(2, 2, [1, 1], [0, 0], 0)
    g2 = PauliOp(2, 2, [0, 0], [0, 1], 0)
    with pytest.raises(NonUniformLocalityError):
        build_code([g1, g2])


def test_irregular_degree_flag():
    # 3 qubits: XX on {0,1}, ZZ on {0,1} leaves qubit 2 untouched
    g1 = PauliOp(2, 3, [1, 1, 0], [0, 0, 0], 0)
    g2 = PauliOp(2, 3, [0, 0, 0], [1, 1, 0], 0)
    with pytest.raises(IrregularDegreeError):
        build_code([g1, g2], strict_degree=True)
    with pytest.warns(UserWarning):
        with pytest.raises(TrivialQuditError):
            build_code([g1, g2], strict_degree=False)


def test_rejects_trivial_qudit():
    # XX and -XX restrict identically everywhere: no non-commuting pair
    g1 = PauliOp(2, 2, [1, 1], [0, 0], 0)
    g2 = PauliOp(2, 2, [1, 1], [0, 0], 1)
    assert g1.commutes_with(g2)
    with pytest.raises(TrivialQuditError) as err:
        build_code([g1, g2])
    assert err.value.qudit == 0


def test_phase_obstruction_dependent_product():
    # XX, ZZ and -YY: the product of all three is -I (codespace empty)
    g1 = PauliOp(2, 2, [1, 1], [0, 0], 0)
    g2 = PauliOp(2, 2, [0, 0], [1, 1], 0)
    prod = g1.multiply(g2)
    g3 = PauliOp(2, 2, prod.x, prod.z, (prod.phase + 1) % 2)
    with pytest.raises(PhaseObstructionError) as err:
        build_code([g1, g2, g3])
    assert err.value.coeffs == [1, 1, 1]
    # with the honest phase the same set is a valid (redundant) code
    assert build_code([g1, g2, prod]).rank == 2


def test_phase_obstruction_generator_power():
    # d=2 generator with an odd number of Y sites squares to -I
    g = PauliOp(2, 2, [1, 1], [1, 0], 0)  # Y (x) X
    h = PauliOp(2, 2, [1, 0], [0, 1], 0)  # X (x) Z
    assert g.commutes_with(h)
    with pytest.raises(PhaseObstructionError):
        build_code([g, h])


def test_toric_build():
    c = toric_code(3)
    assert (c.n, c.m, c.k, c.D_L, c.rank) == (18, 18, 4, 4, 16)


def test_symplectic_matrix_is_read_only():
    # the constructor keeps an in-range int64 matrix without a copy, so the
    # caller's array must not be able to change the validated code
    matrix = toric_code(2).symplectic_matrix.copy()
    code = StabilizerCode(2, matrix)
    assert code.symplectic_matrix is matrix
    with pytest.raises(ValueError):
        matrix[0, 0] = 1 - matrix[0, 0]
    with pytest.raises(ValueError):
        code.symplectic_matrix[0, 0] = 1


# --- syndromes and penalties ----------------------------------------------

def test_syndrome_of_generators_and_identity():
    c = toric_code(3)
    for g in c.generators:
        assert not c.syndrome(g).any()
    assert not c.syndrome(PauliOp.identity(c.n, c.d)).any()
    assert not c.is_error(c.generators[0])


def test_syndrome_matches_direct_commutation():
    c = toric_code(2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        e = PauliOp(2, c.n, rng.integers(2, size=c.n), rng.integers(2, size=c.n), 0)
        syn = c.syndrome(e)
        direct = [g.symplectic_product(e) for g in c.generators]
        assert syn.tolist() == direct
        assert c.penalty(e) == sum(1 for v in direct if v)


def test_syndrome_homomorphism():
    c = toric_code(2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        e = PauliOp(2, c.n, rng.integers(2, size=c.n), rng.integers(2, size=c.n), 0)
        f = PauliOp(2, c.n, rng.integers(2, size=c.n), rng.integers(2, size=c.n), 0)
        assert np.array_equal(
            c.syndrome(e.multiply(f)), (c.syndrome(e) + c.syndrome(f)) % c.d
        )


def test_syndrome_dimension_check():
    c = toric_code(2)
    with pytest.raises(ValueError):
        c.syndrome(PauliOp.identity(3, 2))


# --- group membership ------------------------------------------------------

def test_group_contains_generator_and_products():
    c = toric_code(3)
    mem = c.group_contains(c.generators[4])
    assert mem.status == "member"
    assert list(np.nonzero(mem.coefficients)[0]) == [4]
    prod = c.generators[0].multiply(c.generators[1])
    mem2 = c.group_contains(prod)
    assert mem2.status == "member" and np.count_nonzero(mem2.coefficients) == 2


def test_group_contains_coefficients_pinned():
    # the certificate is zero on every generator that depends on earlier ones:
    # the ninth star g8 of toric:3 is the product of g0..g7, so g0*g8 = g1*...*g7
    c = toric_code(3)
    mem = c.group_contains(c.generators[0].multiply(c.generators[8]))
    assert mem.status == "member"
    assert list(np.nonzero(mem.coefficients)[0]) == list(range(1, 8))
    c3 = toric_code(3, 3)
    mem3 = c3.group_contains(c3.generators[2].power(2).multiply(c3.generators[10]))
    assert mem3.status == "member" and mem3.phase_difference == 0
    expected = np.zeros(c3.m, dtype=np.int64)
    expected[2], expected[10] = 2, 1
    assert np.array_equal(mem3.coefficients, expected)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(1, 5), st.integers(0, 10**6))
@settings(max_examples=200)
def test_product_phase_matches_multiply_loop(d, n, m, seed):
    # arbitrary (not necessarily commuting) generators, exponents 0..d inclusive
    rng = np.random.default_rng(seed)
    gens = [PauliOp(d, n, rng.integers(d, size=n), rng.integers(d, size=n), int(rng.integers(d)))
            for _ in range(m)]
    c = rng.integers(d + 1, size=m)
    c[rng.integers(m)] = d
    prod = PauliOp.identity(n, d)
    for g, e in zip(gens, c):
        prod = prod.multiply(g.power(int(e)))
    sites = Sites.of(np.stack([g.symplectic() for g in gens]))
    phases = np.array([g.phase for g in gens], dtype=np.int64)
    assert product_phase(sites, phases, c, d) == prod.phase


def test_group_contains_refusals():
    c = toric_code(2)
    from qltc.zoo import string_error, wrap_loop_edges

    logical = string_error(2, wrap_loop_edges(2, 0, "horizontal"), kind="z")
    assert not c.syndrome(logical).any()
    mem = c.group_contains(logical)
    assert mem.status == "not_in_span" and not mem.in_span
    # phase mismatch: a generator times a scalar
    g = c.generators[0]
    scaled = PauliOp(c.d, c.n, g.x, g.z, (g.phase + 1) % c.d)
    mem2 = c.group_contains(scaled)
    assert mem2.status == "phase_mismatch" and mem2.in_span
    assert mem2.phase_difference == 1


# --- weight searches -------------------------------------------------------

def words_of_weight(code, w):
    for batch in candidate_batches(code.n, code.d, w):
        for v in batch:
            yield PauliOp(code.d, code.n, v[: code.n], v[code.n :])


def brute_wt_mod_centralizer(code, e):
    target = code.syndrome(e)
    if not target.any():
        return 0
    for w in range(1, e.weight() + 1):
        for f in words_of_weight(code, w):
            if f.weight() == w and np.array_equal(code.syndrome(f), target):
                return w
    return e.weight()


def brute_wt_mod_group(code, e):
    if code.in_span(e.symplectic()):
        return 0
    for w in range(1, e.weight() + 1):
        for f in words_of_weight(code, w):
            diff = f.multiply(e.inverse())
            if f.weight() == w and code.in_span(diff.symplectic()):
                return w
    return e.weight()


def test_weight_searches_match_bruteforce():
    c = two_qubit_code()
    rng = np.random.default_rng(5)
    for _ in range(15):
        e = PauliOp(2, 2, rng.integers(2, size=2), rng.integers(2, size=2), 0)
        wz = c.wt_mod_centralizer(e)
        wg = c.wt_mod_group(e)
        assert wz.exact and wg.exact
        assert wz.value == brute_wt_mod_centralizer(c, e)
        assert wg.value == brute_wt_mod_group(c, e)
        assert wz.value <= wg.value <= e.weight()


def test_weight_searches_toric_examples():
    c = toric_code(2)
    g = c.generators[0]
    assert c.wt_mod_centralizer(g).value == 0
    assert c.wt_mod_group(g).value == 0
    e = PauliOp.single(c.n, 2, 0, x=1, z=0)
    assert c.penalty(e) == 2
    assert c.wt_mod_centralizer(e).value == 1
    assert c.wt_mod_group(e).value == 1


def test_wt_mod_group_target_on_the_support(monkeypatch):
    from qltc import stabilizer

    c = toric_code(16)
    cols = []
    real = stabilizer.modmul

    def spy(a, b, p):
        cols.append(a.shape[1])  # kernel columns in the target's product
        return real(a, b, p)

    monkeypatch.setattr(stabilizer, "modmul", spy)
    x = np.zeros(c.n, dtype=np.int64)
    x[[0, 40, 300]] = 1
    assert c.wt_mod_group(PauliOp(2, c.n, x, np.zeros(c.n, dtype=np.int64), 0)).value == 3
    assert cols == [3]


def test_weight_ordering_invariant_toric():
    c = toric_code(2)
    rng = np.random.default_rng(11)
    for _ in range(10):
        e = PauliOp(2, c.n, rng.integers(2, size=c.n), rng.integers(2, size=c.n), 0)
        wz = c.wt_mod_centralizer(e, budget=200_000)
        wg = c.wt_mod_group(e, budget=200_000)
        assert wz.low <= wg.low and wg.low <= e.weight()


def test_budget_interval_certified():
    c = toric_code(3)
    # weight-4 error congruent to nothing smaller... budget too small to tell
    e = c.generators[0].multiply(PauliOp.single(c.n, 2, 17, x=1, z=1))
    bounded = c.wt_mod_centralizer(e, budget=3)
    assert not bounded.exact
    exact = c.wt_mod_centralizer(e)
    assert bounded.low <= exact.value <= bounded.high
    with pytest.raises(ValueError):
        bounded.value


def test_same_syndrome_iff_centralizer_coset():
    # two Paulis share a syndrome iff their quotient commutes with all generators
    c = toric_code(2)
    rng = np.random.default_rng(21)
    for _ in range(30):
        e = PauliOp(2, c.n, rng.integers(2, size=c.n), rng.integers(2, size=c.n), 0)
        f = PauliOp(2, c.n, rng.integers(2, size=c.n), rng.integers(2, size=c.n), 0)
        same = np.array_equal(c.syndrome(e), c.syndrome(f))
        quotient = e.multiply(f.inverse())
        assert same == (not c.is_error(quotient))


# --- distance and succinctness --------------------------------------------

def test_distances():
    assert toric_code(2).code_distance().value == 2
    assert toric_code(3).code_distance().value == 3
    assert steane_code().code_distance().value == 3
    assert toric_code(4).code_distance().value == 4
    assert toric_code(5).code_distance().value == 5
    assert toric_code(3, 3).code_distance().value == 3
    assert five_qubit_code().code_distance().value == 3
    # criterion-4 instance hgp:12: no logical of weight <= 2
    h = regular_circulant_matrix(12, 2, seed=12)
    assert css_hypergraph_product(h, h).code_distance(w_max=2) == BoundedWeight(3, None)


def test_css_lockstep_matches_generic():
    for code in (toric_code(2), steane_code()):
        assert code.is_css()
        assert code.code_distance(use_css=True).value == code.code_distance(use_css=False).value


def test_distance_budget_lower_bound():
    c = toric_code(3)
    res = c.code_distance(budget=50)
    assert not res.exact and res.high is None and res.low >= 1


def test_succinctness():
    assert toric_code(3).is_succinct() is True
    assert steane_code().is_succinct() is True
    # adding a redundant product of two adjacent generators with overlapping
    # support yields a weight < k group element is impossible for toric;
    # instead build a code whose group has a low-weight element:
    g1 = PauliOp(2, 2, [1, 1], [0, 0], 0)
    g2 = PauliOp(2, 2, [1, 1], [1, 1], 0)
    c = build_code([g1, g2])
    # g1 * g2 = ZZ has weight 2 = k, so this one is still succinct
    assert c.is_succinct() is True
    assert c.is_succinct(budget=0) is None


def test_not_succinct_example():
    # k=3 CSS code whose X-rows overlap in two positions: their product
    # X2 X3 has weight 2 < k, so the group has a sub-locality element
    g1 = PauliOp(2, 4, [1, 1, 1, 0], [0, 0, 0, 0], 0)
    g2 = PauliOp(2, 4, [1, 1, 0, 1], [0, 0, 0, 0], 0)
    g3 = PauliOp(2, 4, [0, 0, 0, 0], [1, 0, 1, 1], 0)
    g4 = PauliOp(2, 4, [0, 0, 0, 0], [0, 1, 1, 1], 0)
    c = build_code([g1, g2, g3, g4])
    assert c.is_succinct() is False


# (support, x exponents, z exponents) -> (weight mod centralizer, weight mod group)
COSET_PINS = {
    (3, 2): [
        (([4], [1], [0]), (1, 1)),
        (([5, 3], [1, 1], [1, 1]), (2, 2)),
        (([2, 15, 1], [0, 1, 0], [1, 0, 1]), (2, 3)),
        (([17, 10, 12, 8], [1, 0, 0, 0], [0, 1, 1, 1]), (3, 4)),
        (([7, 5, 2, 16, 8], [0, 1, 1, 1, 0], [1, 0, 1, 1, 1]), (4, 5)),
        (([0, 2, 9, 15, 17], [1, 1, 1, 1, 1], [0, 0, 0, 0, 1]), (1, 1)),
    ],
    (3, 3): [
        (([4], [2], [0]), (1, 1)),
        (([5, 3], [2, 2], [2, 2]), (2, 2)),
        (([2, 15, 1], [0, 2, 1], [1, 0, 1]), (3, 3)),
        (([17, 10, 12, 8], [2, 0, 0, 1], [0, 2, 1, 2]), (4, 4)),
        (([7, 5, 2, 16, 8], [0, 2, 2, 2, 0], [1, 0, 2, 2, 1]), (4, 5)),
    ],
}


@pytest.mark.parametrize("L,d", sorted(COSET_PINS))
def test_coset_weights_pinned(L, d):
    c = toric_code(L, d)
    for (supp, xs, zs), expected in COSET_PINS[(L, d)]:
        x = np.zeros(c.n, dtype=np.int64)
        z = np.zeros(c.n, dtype=np.int64)
        x[supp], z[supp] = xs, zs
        e = PauliOp(d, c.n, x, z)
        got = (c.wt_mod_centralizer(e), c.wt_mod_group(e))
        assert got == tuple(BoundedWeight.exactly(w) for w in expected), (supp, got)


def test_no_commute_fact_on_valid_codes():
    # every (qudit, generator-on-it) pair has a witness generator whose
    # restriction fails to commute locally
    for code in (toric_code(2), toric_code(3), steane_code()):
        for q in range(code.n):
            for a in code.graph.left_adj[q]:
                ga = code.generators[a]
                assert any(
                    (ga.z[q] * code.generators[b].x[q] - ga.x[q] * code.generators[b].z[q]) % code.d
                    for b in code.graph.left_adj[q]
                ), (q, a)


# --- serialization ---------------------------------------------------------

def test_code_json_roundtrip(tmp_path):
    c = toric_code(2)
    path = tmp_path / "code.json"
    c.save(path, meta={"family": "toric", "L": 2})
    c2 = StabilizerCode.load(path)
    assert c2.n == c.n and c2.m == c.m and c2.k == c.k
    assert all(a == b for a, b in zip(c.generators, c2.generators))
    import json

    obj = json.loads(path.read_text())
    assert set(obj) == {"d", "n", "k", "generators", "meta"}
    assert obj["meta"]["L"] == 2


def test_bounded_weight():
    b = BoundedWeight.exactly(3)
    assert b.exact and b.value == 3 and b.to_json() == {"kind": "exact", "value": 3}
    i = BoundedWeight(2, 5)
    assert not i.exact and i.to_json() == {"kind": "interval", "low": 2, "high": 5}
