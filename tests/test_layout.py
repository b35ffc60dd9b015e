"""The narrow layout against the int64 path it replaced.

A code holds its symplectic matrix and logicals read-only in the least
unsigned type for d (uint8 below 256, uint16 above) and its syndrome map
as sites: single syndromes, penalties and the searches' weight-1 site
images come from them, and only batch products build the float64
syndrome map, by scattering them.  The
int64 computations here are the dense path: every narrow result must
equal them, on codes CSS and not, over small and large primes.  uint8
arithmetic wraps, so a subtraction or product left in the narrow type
shows up here as a wrong residue for odd d.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qltc import fieldmath, search, zoo
from qltc.attacks import NotAnErrorError, Refusal, alphabet_attack
from qltc.pauli import PauliOp, nonidentity_symbols
from qltc.search import Sites
from qltc.cli import main
from qltc.stabilizer import BoundedWeight, StabilizerCode, build_code
from helpers import (
    consistent_phases, kernel, paired_circulant_matrix, python_keys, regular_circulant_matrix,
    rref_int64,
)
from test_search import dense_site_images

PRIMES = [2, 3, 5, 131, 257]


def five_qudit_matrix(d):
    """<X Z Z^-1 X^-1 I> and its cyclic shifts (four of them): the five-qubit code at d = 2."""
    row = [(1, 0), (0, 1), (0, d - 1), (d - 1, 0), (0, 0)]
    shifted = [row[-i:] + row[:-i] for i in range(4)]
    return np.array([[x for x, _ in r] + [z for _, z in r] for r in shifted], dtype=np.int64)


def random_hgp_matrix(d, rng):
    """A hypergraph product of two circulants with random nonzero entries over GF(d)."""
    mats = []
    for _ in range(2):
        size = int(rng.integers(3, 5))
        h = regular_circulant_matrix(size, 2, seed=int(rng.integers(1000)))
        mats.append(h * rng.integers(1, d, size=h.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = zoo.css_hypergraph_product(*mats, d=d, strict_degree=False)
    return code.symplectic_matrix.astype(np.int64)


def local_map(matrix, d, rng):
    """matrix under a random determinant-1 map per qudit and random qudit and row orders.

    Such a map keeps every symplectic product, so the code stays valid; it
    mixes x and z, so a CSS code stops being one.  At d = 2 the map is the
    identity or the swap of x and z: the others can make Y = ZX, which
    squares to -I, and a generator with an odd number of Y has no valid phase.
    """
    n = matrix.shape[1] // 2
    x, z = matrix[:, :n].copy(), matrix[:, n:].copy()
    for q in range(n):
        while True:
            a, b, c, e = (int(v) for v in rng.integers(d, size=4))
            if (a * e - b * c) % d == 1 and (d > 2 or a == e and b == c):
                break
        x[:, q], z[:, q] = (a * x[:, q] + b * z[:, q]) % d, (c * x[:, q] + e * z[:, q]) % d
    perm = rng.permutation(n)
    return np.concatenate([x[:, perm], z[:, perm]], axis=1)[rng.permutation(len(matrix))]


@st.composite
def codes(draw):
    d = draw(st.sampled_from(PRIMES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["toric", "hgp", "five-qudit"]))
    if family == "toric":
        matrix = zoo.toric_code(draw(st.integers(2, 3)), d).symplectic_matrix.astype(np.int64)
    elif family == "hgp":
        matrix = random_hgp_matrix(d, rng)
    else:
        matrix = five_qudit_matrix(d)
    scrambled = family == "five-qudit" or draw(st.booleans())
    return (*scrambled_code(d, matrix, rng, scrambled), rng)


def scrambled_code(d, matrix, rng, scrambled=True):
    """The code of matrix, under a local map when asked, with phases that clear every
    dependent product (a map can give one a phase)."""
    mapped = local_map(matrix, d, rng) if scrambled else matrix
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return StabilizerCode(d, mapped, consistent_phases(mapped, d), strict_degree=False), mapped


def kernel_int64(mat, p):
    """The int64 RowSpace kernel: rref of [mat | J] by the dense loop, free columns set to 1."""
    m, ncols = mat.shape
    augmented = np.zeros((m, ncols + m), dtype=np.int64)
    augmented[:, :ncols] = mat
    augmented[np.arange(m), ncols + m - 1 - np.arange(m)] = 1
    reduced, pivots = rref_int64(augmented, p)
    pivots = [c for c in pivots if c < ncols]
    free = np.setdiff1d(np.arange(ncols), pivots)
    kernel_t = np.zeros((ncols, free.size), dtype=np.int64)
    kernel_t[free, np.arange(free.size)] = 1
    kernel_t[pivots] = -reduced[: len(pivots), free] % p
    return kernel_t.T


def random_words(n, d, count, rng):
    """count symplectic words of random weight, entries anywhere in [0, d)."""
    words = rng.integers(d, size=(count, 2 * n))
    keep = rng.random((count, n)) < rng.random((count, 1))
    return words * np.concatenate([keep, keep], axis=1)


@given(codes())
@settings(max_examples=60, deadline=None)
def test_narrow_layout_matches_int64_path(case):
    code, matrix, rng = case
    d, n = code.d, code.n
    narrow = np.uint8 if d < 256 else np.uint16
    m64 = matrix % d
    syndrome64 = np.concatenate([m64[:, n:], -m64[:, :n] % d], axis=1)

    # storage: the residue type, read-only, with the int64 values
    assert code.symplectic_matrix.dtype == narrow and not code.symplectic_matrix.flags.writeable
    assert np.array_equal(code.symplectic_matrix, m64)
    assert np.array_equal(code.syndrome_matrix, syndrome64)

    # syndromes and penalties from the sites, batches through the float map
    words = random_words(n, d, 40, rng)
    expected = words @ syndrome64.T % d
    assert np.array_equal(code.syndrome_batch(words), expected)
    for v, syn in zip(words, expected):
        e = PauliOp(d, n, v[:n], v[n:])
        assert code.syndrome(e).dtype == np.int64
        assert np.array_equal(code.syndrome(e), syn)
        assert code.penalty(e) == np.count_nonzero(syn)

    # the kernel oracle: the int64 elimination's, in the residue type
    kernel64 = kernel_int64(m64, d)
    assert kernel(m64, d).dtype == narrow and np.array_equal(kernel(m64, d), kernel64)
    assert not np.any(m64 @ kernel64.T % d)

    # the logicals: 2k' of them, read-only in the residue type, certified:
    # zero products with the generators and the Gram matrix [[0, -I], [I, 0]]
    logicals = code.rowspace.logicals
    k = n - code.rank
    assert logicals.shape == (2 * k, 2 * n)
    assert logicals.dtype == narrow and not logicals.flags.writeable
    w64 = logicals.astype(np.int64)
    assert not np.any(m64 @ w64.T % d)
    gram = (w64[:, n:] @ w64[:, :n].T - w64[:, :n] @ w64[:, n:].T) % d
    form = np.block([[np.zeros((k, k), int), -np.eye(k, dtype=int)],
                     [np.eye(k, dtype=int), np.zeros((k, k), int)]]) % d
    assert np.array_equal(gram, form)
    # each is 1 at its own free column (the x, then the z, columns of the
    # qudits that are neither kind of pivot) and elsewhere meets only pivots
    pivots = code.rowspace.pivots
    free = np.setdiff1d(np.arange(n), np.array(pivots, int) % n)
    own = np.r_[free, free + n]
    assert np.array_equal(w64[np.arange(2 * k), own], np.ones(2 * k))
    off = w64.copy()
    off[np.arange(2 * k), own] = 0
    assert not off[:, np.setdiff1d(np.arange(2 * n), pivots)].any()

    # membership by the logicals against the kernel oracle: members, random
    # words and words of zero syndrome, logicals (b | -a) among them
    members = rng.integers(d, size=(20, code.m)) @ m64 % d
    centralizer = np.concatenate([kernel64[:, n:], -kernel64[:, :n] % d], axis=1)
    ops = np.concatenate([w64[:, n:], -w64[:, :n]], axis=1)  # the logicals as words
    zero_syndrome = np.concatenate([rng.integers(d, size=(20, len(centralizer))) @ centralizer,
                                    ops]) % d
    assert not np.any(zero_syndrome @ syndrome64.T % d)
    batch = np.concatenate([members, words, zero_syndrome])
    in_span = ~np.any(batch @ kernel64.T % d, axis=1)
    assert in_span[: len(members)].all()
    assert np.array_equal(code.rowspace.contains_batch(batch), in_span)
    assert [code.in_span(v) for v in batch[::7]] == in_span[::7].tolist()
    # the island's test: words of zero syndrome as full rows in the residue type
    tested = np.concatenate([members, zero_syndrome]).astype(narrow)
    assert np.array_equal(code.rowspace.contains_batch(tested),
                          in_span[np.r_[: len(members), len(members) + len(words) : len(batch)]])

    # the scattered site keys against the dense images packed, on a sample of symbols
    symbols = nonidentity_symbols(d)
    if len(symbols) > 60:
        symbols = [symbols[i] for i in sorted(rng.choice(len(symbols), 60, replace=False))]
    dense = python_keys(dense_site_images(syndrome64, n, d, symbols), fieldmath.field_width(d))
    assert search.site_keys(code._syndrome_map, d, symbols).tolist() == dense
    assert search.site_keys(Sites.of(code.syndrome_matrix), d, symbols).tolist() == dense

    # alphabet violation counts: (g.x mz - g.z mx) at each chosen qudit, in int64
    try:
        report = alphabet_attack(code, 1.0, seed=int(rng.integers(100)), budget=0)
    except (Refusal, NotAnErrorError):
        return
    for q, frac in zip(report.meta["chosen_qudits"], report.meta["per_qudit_violation_fraction"]):
        acting = np.flatnonzero(m64[:, q] | m64[:, n + q])
        mx, mz = int(report.error.x[q]), int(report.error.z[q])
        viol = np.count_nonzero((m64[acting, q] * mz - m64[acting, n + q] * mx) % d)
        assert frac == viol / len(acting)


@pytest.mark.parametrize("d", PRIMES)
def test_weight_searches_match_on_the_five_qudit_code(d):
    # the centralizer search joins the scattered images; the dense map must agree
    rng = np.random.default_rng(d)
    code, _ = scrambled_code(d, five_qudit_matrix(d), rng)
    symbols = nonidentity_symbols(d) if d < 100 else nonidentity_symbols(d)[:: d + 1]
    n = code.n
    for _ in range(5):
        e = PauliOp.single(n, d, int(rng.integers(n)), *symbols[int(rng.integers(len(symbols)))])
        target = code.syndrome(e)
        res = search.min_weight_vector(n, d, 1, Sites.of(code.syndrome_matrix), target,
                                       symbol_sets=(symbols,))
        assert res.found_weight == 1
        assert code.wt_mod_centralizer(e).value == 1


# --- the logicals at the extremes, and their certificate -------------------

@pytest.mark.parametrize("d", [2, 3])
def test_a_code_without_logicals_decides_membership_by_syndrome(d):
    # the Bell pair <X X, Z Z^-1>: rank 2 on 2 qudits, so k' = 0 and every
    # word of zero syndrome lies in the group
    code = build_code([PauliOp(d, 2, [1, 1], [0, 0]), PauliOp(d, 2, [0, 0], [1, d - 1])])
    assert code.rowspace.logicals.shape == (0, 4)
    words = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, d - 1], [0, 1, 1, 1]])
    assert code.rowspace.contains_batch(words).tolist() == [True, False, True, False]
    assert code.rowspace.contains_batch(words[[0, 2]].astype(np.uint8)).all()
    weights = [code.wt_mod_group(PauliOp(d, 2, w[:2], w[2:])).value for w in words]
    assert weights == [0, 1, 0, 1]
    # no word passes the distance filter: every weight up to n is exhausted
    assert code.code_distance() == BoundedWeight(3, None) and code.is_succinct() is True


# hypergraph products of paired_circulant_matrix(size) with itself, pinned
# from the build that held the kernel: distance, succinctness and
# wt_mod_group of E = X^x Z^z on the support, with the generators' products
MANY_LOGICALS = {
    (8, 2): (2, True, [([80, 65, 107], [0, 0, 0], [0, 1, 1], 2),
                       ([115, 63, 77], [1, 1, 1], [1, 0, 1], 3),
                       ([84, 0, 50], [0, 1, 1], [1, 0, 0], 3),
                       ([2, 69, 108], [0, 0, 0], [0, 0, 0], 0)]),
    (4, 3): (2, True, [([19, 16, 25], [0, 0, 0], [0, 2, 1], 2),
                       ([27, 15, 19], [1, 1, 1], [2, 0, 2], 3),
                       ([20, 0, 12], [0, 2, 2], [2, 0, 0], 3),
                       ([0, 17, 25], [1, 1, 1], [0, 0, 0], 3)]),
}


@pytest.mark.parametrize("size, d", sorted(MANY_LOGICALS))
def test_many_logicals_give_the_kernel_builds_answers(size, d):
    h = paired_circulant_matrix(size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = zoo.css_hypergraph_product(h, h, d, strict_degree=False)
    assert len(code.rowspace.logicals) == 2 * (code.n - code.rank) == size**2
    distance, succinct, pins = MANY_LOGICALS[size, d]
    assert code.code_distance().value == distance and code.is_succinct() is succinct
    for supp, x, z, weight in pins:
        v = np.zeros((2, code.n), dtype=np.int64)
        v[:, supp] = x, z
        assert code.wt_mod_group(PauliOp(d, code.n, *v)).value == weight
    g = code.generators
    x5 = PauliOp.single(code.n, d, 5, 1, 0)
    assert code.wt_mod_group(g[0].multiply(g[1]).multiply(x5)).value == 1
    assert code.wt_mod_group(g[0].multiply(g[3])).value == 0


def test_a_logical_off_the_kernel_is_an_internal_fault(monkeypatch):
    # a word off ker(M) among the logicals fails the check on the sites; with
    # the reduced rows zeroed (packed words at d = 2, int64 rows at odd d),
    # the logicals are bare unit vectors at the free columns: their Gram
    # matrix is still the form, and the check on the sites raises ValueError
    # (no assert, so also under python -O), which the CLI exits 2 on.  A CSS
    # code of zero phases eliminates when its row space is first read: rank
    code = zoo.toric_code(3)
    with monkeypatch.context() as patch:  # unit words at qudits 0..3: each meets an X check
        patch.setattr(fieldmath, "_standard_logicals",
                      lambda *args: np.eye(4, 2 * code.n, dtype=np.uint8))
        with pytest.raises(ValueError, match="nonzero product with generator"):
            code.rank
    real = fieldmath.rref

    def zeroed(mat, p, phases=None):
        reduced, pivots, obstruction = real(mat, p, phases)
        return (reduced if phases is None else reduced * 0), pivots, obstruction

    monkeypatch.setattr(fieldmath, "rref", zeroed)
    for L, d in ((3, 2), (3, 3), (4, 5)):
        code = zoo.toric_code(L, d)
        with pytest.raises(ValueError, match="nonzero product with generator"):
            code.rank
    assert main(["build", "toric:3"]) == 2


def test_logicals_whose_gram_matrix_is_not_the_form_are_refused(monkeypatch):
    # the logicals of toric:3 with their z pair swapped: every product with a
    # generator is zero and the Gram matrix's diagonal is the form's, but its
    # off-diagonal is not, so the certificate refuses them
    real = fieldmath._standard_logicals

    def swapped(*args):
        return real(*args)[[0, 1, 3, 2]]

    monkeypatch.setattr(fieldmath, "_standard_logicals", swapped)
    for d in (2, 3):
        code = zoo.toric_code(3, d)  # CSS with zero phases: the row space is built on first read
        with pytest.raises(ValueError, match="Gram matrix of the logicals"):
            code.rank


def test_logicals_whose_gram_values_are_not_the_form_are_refused(monkeypatch):
    # a toric:3:3 logical scaled by 2: it stays in ker(M) and its Gram matrix has
    # the form's zero pattern, but G[0, k'] is 2 (-1) = 1, not -1 = 2
    real = fieldmath._standard_logicals

    def scaled(*args):
        logicals = real(*args)
        logicals[0] = 2 * logicals[0] % 3
        return logicals

    monkeypatch.setattr(fieldmath, "_standard_logicals", scaled)
    with pytest.raises(ValueError, match="Gram matrix of the logicals"):
        zoo.toric_code(3, 3).rank


def _hgp(h, d):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return zoo.css_hypergraph_product(h, h, d, strict_degree=False)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_pivot_filter_is_the_sites_of_the_unit_pivot_rows(d):
    # is_succinct's filter, read off the pivots, against Sites.of the dense
    # rank x 2n matrix of ones at the pivot columns it replaced
    codes = [zoo.toric_code(L, d) for L in range(3, 9)]
    codes += [_hgp(paired_circulant_matrix(8), d), _hgp(regular_circulant_matrix(8, 2, seed=1), d)]
    for code in codes:
        dense = np.zeros((code.rank, 2 * code.n), dtype=np.uint8)
        dense[np.arange(code.rank), code.rowspace.pivots] = 1
        got, expected = code._pivot_filter(), Sites.of(dense)
        assert got.shape == expected.shape
        for a, b in zip(got[:-1], expected[:-1]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_rows_that_do_not_commute_are_refused():
    # X and Z on qudit 0 of three: rank 2, so 2k' = 2, yet the Gram matrix of
    # ker(M) has rank 4; and X, Z on one qudit have rank 2 > n
    with pytest.raises(ValueError):
        fieldmath.RowSpace(Sites.of(np.array([[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]])), 2)
    with pytest.raises(ValueError, match="do not commute"):
        fieldmath.RowSpace(Sites.of(np.eye(2, dtype=np.int64)), 2)
