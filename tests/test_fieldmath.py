from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qltc import fieldmath as fm
from qltc import zoo

from helpers import (
    coefficients, consistent_phases, kernel, left_kernel, pack_words, phased_relation_generators,
    rref_int64, symplectic_pairs, unpack_words,
)


@st.composite
def matrices_(draw, symplectic=False):
    """Small matrices over GF(2/3/5); symplectic ones have an even width, (x | z) halves."""
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 5))
    cols = 2 * draw(st.integers(1, 3)) if symplectic else draw(st.integers(1, 5))
    data = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return np.array(data, dtype=np.int64).reshape(rows, cols), p


matrices = matrices_()
symplectic_matrices = matrices_(symplectic=True)


def test_is_prime():
    assert [p for p in range(20) if fm.is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        fm.check_prime(4)


def test_inv_mod():
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            assert (a * fm.inv_mod(a, p)) % p == 1


def dependent_rows(mat, p):
    """Rows that are combinations of earlier rows, by prefix ranks (rref_int64 oracle)."""
    ranks = [0] + [len(rref_int64(mat[: i + 1], p)[1]) for i in range(mat.shape[0])]
    return [i for i in range(mat.shape[0]) if ranks[i + 1] == ranks[i]]


def unpacked(reduced, p, ncols):
    """fm.rref's rows as int64 entries: the words unpacked, which pack_words packs back."""
    rows = unpack_words(reduced, p, ncols)
    assert np.array_equal(pack_words(rows, p), reduced)
    return rows


@given(symplectic_matrices)
@settings(max_examples=200)
def test_rref_preserves_rowspace(mp):
    # the nonzero rows of the reduced form, against the oracle: its rank, the
    # identity at the pivots, and the row space of mat
    mat, p = mp
    reduced, pivots, _ = fm.rref(fm.Sites.of(mat), p)
    r = unpacked(reduced, p, mat.shape[1])
    assert len(pivots) == len(rref_int64(mat, p)[1]) == len(r)
    assert np.array_equal(r[:, pivots], np.eye(len(pivots), dtype=np.int64))
    # every reduced row is a combination of original rows and vice versa
    assert not np.any(r @ kernel(mat, p).T % p)
    assert not np.any(mat @ kernel(r, p).T % p)


def gauss_jordan(mat, p):
    """Textbook Gauss-Jordan over GF(p) on Python lists, each row operation over the
    full width: the oracle for rref's odd-p loop."""
    a = [[v % p for v in row] for row in mat.tolist()]
    pivots, r = [], 0
    for c in range(mat.shape[1]):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


ODD_PRIMES = [3, 5, 7, 257, 65521]


@st.composite
def sparse_odd_matrices(draw):
    """Matrices up to 8 x 12, of even width, over GF(p) for odd p from 3 to 65521, mostly
    zeros (so pivot rows are sparse), with entries outside [0, p) to reduce."""
    p = draw(st.sampled_from(ODD_PRIMES))
    rows, cols = draw(st.integers(1, 8)), 2 * draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(p - 1), st.integers(-p, 2 * p - 1))
    data = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return np.array(data, dtype=np.int64).reshape(rows, cols), p


@given(sparse_odd_matrices())
@settings(max_examples=300, deadline=None)
def test_odd_rref_matches_gauss_jordan(mp):
    # the reduced form is unique for a column order: Gauss-Jordan on the
    # standard form's (x, the z of the qudits that are not x pivots, the z
    # of the x pivots) gives fm.rref's nonzero rows and pivots, packed as
    # pack_words packs them
    mat, p = mp
    n = mat.shape[1] // 2
    x_pivots = gauss_jordan(mat[:, :n], p)[1]
    order = [*range(n), *(n + q for q in range(n) if q not in x_pivots), *(n + q for q in x_pivots)]
    want, want_pivots = gauss_jordan(mat[:, order], p)
    r, pivots, _ = fm.rref(fm.Sites.of(mat % p), p)
    assert pivots == [order[c] for c in want_pivots]
    rows = np.zeros((len(pivots), 2 * n), dtype=np.int64)
    rows[:, order] = np.reshape(want[: len(pivots)], rows.shape)
    assert np.array_equal(r, pack_words(rows, p))


@st.composite
def packed_fields(draw):
    """An odd prime, rows u and v of up to 40 residues (each entry p - 1 in one case in
    three, so that every field carries) and a scale k in [1, p)."""
    p = draw(st.sampled_from(ODD_PRIMES))
    count = draw(st.integers(1, 40))
    residue = st.integers(0, p - 1)
    if draw(st.integers(0, 2)) == 0:
        residue = st.just(p - 1)
    u, v = (draw(st.lists(residue, min_size=count, max_size=count)) for _ in range(2))
    return p, u, v, draw(st.integers(1, p - 1))


@given(packed_fields())
@example((3, [2] * 40, [2] * 40, 2))  # p - 1 in every field: each sum carries
@example((65521, [65520] * 40, [65520] * 40, 65520))
@settings(max_examples=300)
def test_field_arithmetic_matches_python_ints(case):
    # _field_ops on rows packed into field_width(p)-bit fields, against the
    # residues as Python ints, field by field
    p, u, v, k = case
    w = fm.field_width(p)
    add, times = fm._field_ops(p, len(u))

    def pack(entries):
        return sum(e << w * j for j, e in enumerate(entries))

    assert add(pack(u), pack(v)) == pack([(a + b) % p for a, b in zip(u, v)])
    assert times(pack(u), k) == pack([k * a % p for a in u])
    assert times(pack(u), p - 1) == pack([-a % p for a in u])  # the negation


@given(symplectic_matrices)
@settings(max_examples=200)
def test_nullspaces_annihilate(mp):
    mat, p = mp
    rank = len(fm.rref(fm.Sites.of(mat), p)[1])
    null = kernel(mat, p)
    assert null.shape == (mat.shape[1] - rank, mat.shape[1])
    assert not np.any((mat @ null.T) % p)
    dep = dependent_rows(mat, p)
    relations = left_kernel(mat, p)
    assert relations.shape == (mat.shape[0] - rank, mat.shape[0])
    assert not np.any((relations @ mat) % p)
    # one row per dependent row, in order: 1 there, 0 at the other dependent rows
    assert np.array_equal(relations[:, dep], np.eye(len(dep), dtype=np.int64))


def css_rows(rng, d, n):
    """Commuting rows (x | z) on n >= 2 qudits over GF(d): random X checks hx and
    Z checks drawn from hx's kernel."""
    hx = rng.integers(d, size=(int(rng.integers(1, n)), n))
    null = kernel(hx, d).astype(np.int64)
    hz = rng.integers(d, size=(int(rng.integers(1, 4)), len(null))) @ null % d
    return np.block([[hx, np.zeros_like(hx)], [np.zeros_like(hz), hz]])


@st.composite
def phased_generators(draw):
    """Commuting generators (x | z) over GF(2/3/5) with relations among them, and their
    phases: random, consistent (no relation is a non-identity scalar), or consistent
    with one bumped.

    A CSS code (Z rows from the kernel of random X rows), under a random
    determinant-1 map per qudit half the time, which makes Y-like sites and odd
    cross terms x.z; over GF(2) a row with odd x.z squares to -I, so those rows
    are dropped.  Random combinations of the rows add the relations.
    """
    d = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 7))
    rows = css_rows(rng, d, n)
    if draw(st.booleans()):
        x, z = rows[:, :n].copy(), rows[:, n:].copy()
        for q in range(n):
            while True:
                a, b, c, e = (int(v) for v in rng.integers(d, size=4))
                if (a * e - b * c) % d == 1:
                    break
            x[:, q], z[:, q] = (a * x[:, q] + b * z[:, q]) % d, (c * x[:, q] + e * z[:, q]) % d
        mapped = np.concatenate([x, z], axis=1)
        if d == 2:
            mapped = mapped[(x * z).sum(axis=1) % 2 == 0]
        rows = mapped if len(mapped) else rows
    extra = rng.integers(d, size=(int(rng.integers(0, 4)), len(rows))) @ rows % d
    rows = np.concatenate([rows, extra])[rng.permutation(len(rows) + len(extra))]
    kind = draw(st.sampled_from(["random", "consistent", "bumped"]))
    if kind == "random":
        return rows, rng.integers(d, size=len(rows)), d
    # then a conjugation by a random Pauli, which keeps every relation's phase
    phases = (consistent_phases(rows, d) + rows @ rng.integers(d, size=2 * n)) % d
    if kind == "bumped":
        phases[rng.integers(len(rows))] += rng.integers(1, d)
    return rows, phases % d, d


@given(phased_generators())
@settings(max_examples=400, deadline=None)
def test_carried_phase_matches_left_kernel_oracle(case):
    rows, phases, d = case
    rs = fm.RowSpace(fm.Sites.of(rows), d, phases)
    named = phased_relation_generators(rows, phases, d)
    assert (rs.obstruction is not None) == bool(named)
    assert rs.obstruction is None or rs.obstruction in named
    assert rs.pivots == fm.RowSpace(fm.Sites.of(rows), d).pivots
    if named:  # the first generator that, times earlier ones, is a scalar other than 1
        first = next(i for i in range(len(rows))
                     if phased_relation_generators(rows[: i + 1], phases[: i + 1], d))
        assert rs.obstruction == first


@given(matrices, st.integers(0, 10**6))
@settings(max_examples=200)
def test_solve_left_roundtrip(mp, seed):
    mat, p = mp
    rng = np.random.default_rng(seed)
    c = rng.integers(p, size=mat.shape[0])
    target = (c @ mat) % p
    sol = coefficients(mat, p, target)
    assert np.array_equal((sol @ mat) % p, target)
    assert not sol[dependent_rows(mat, p)].any()
    w = rng.integers(p, size=mat.shape[1])
    assert (coefficients(mat, p, w) is None) == bool(np.any(kernel(mat, p) @ w % p))


def test_solve_left_inconsistent():
    mat = np.array([[1, 0]], dtype=np.int64)
    assert coefficients(mat, 2, np.array([0, 1])) is None


@given(st.sampled_from([2, 3, 5]), st.integers(0, 10**6))
@settings(max_examples=200)
def test_rowspace_membership(p, seed):
    rng = np.random.default_rng(seed)
    mat = css_rows(rng, p, int(rng.integers(2, 7)))
    rs = fm.RowSpace(fm.Sites.of(mat), p)
    c = rng.integers(p, size=mat.shape[0])
    v = (c @ mat) % p
    coef = coefficients(mat, p, v)
    assert np.array_equal((coef @ mat) % p, v)
    # a member, and a random word as the kernel oracle has it
    w = rng.integers(p, size=mat.shape[1])
    batch = rs.contains_batch(np.vstack([v, w]))
    assert batch[0]
    assert batch[1] == (coefficients(mat, p, w) is not None) == (not np.any(kernel(mat, p) @ w % p))


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_contains_batch_matches_int64_product(p):
    # contains_batch multiplies through modmul (float BLAS); the int64
    # product with the kernel oracle is the reference
    rng = np.random.default_rng(p)
    for _ in range(20):
        mat = css_rows(rng, p, int(rng.integers(2, 8)))
        rs = fm.RowSpace(fm.Sites.of(mat), p)
        members = rng.integers(p, size=(8, len(mat))) @ mat
        vs = np.vstack([members % p, rng.integers(p, size=(24, mat.shape[1]))])
        expected = ~np.any((vs @ kernel(mat, p).T) % p, axis=1)
        assert np.array_equal(rs.contains_batch(vs), expected)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_contains_batch_reduces_entries_outside_the_residues(p):
    # entries p and -1 in int64 give the membership of their residues
    rng = np.random.default_rng(p)
    mat = css_rows(rng, p, 5)
    rs = fm.RowSpace(fm.Sites.of(mat), p)
    vs = np.vstack([rng.integers(p, size=len(mat)) @ mat % p, rng.integers(p, size=(7, 10))])
    expected = rs.contains_batch(vs.astype(np.uint8))
    assert np.array_equal(expected, ~np.any(vs @ kernel(mat, p).T % p, axis=1))
    unreduced = np.where(vs == 0, p, np.where(vs == p - 1, -1, vs))
    assert (unreduced == p).any() and (unreduced == -1).any()
    assert np.array_equal(rs.contains_batch(unreduced), expected)
    assert np.array_equal(rs.contains_batch(unreduced.astype(np.int8)), expected)


def test_contains_batch_refuses_a_non_integer_entry():
    rs = fm.RowSpace(fm.Sites.of(np.array([[1, 0, 1, 0]])), 3)  # X Z on qudit 0
    assert rs.contains_batch(np.array([[2.0, 0.0, 2.0, 0.0]]))[0]
    with pytest.raises(ValueError, match="entries must be integers"):
        rs.contains_batch(np.array([[0.5, 0.0, 0.0, 0.0]]))


def _assert_modmul_is_the_int64_product(a, b, p):
    # _FLOAT32_SAFE = 0 sends a float32 product to float64; each tier returns
    # the residues in residue_dtype(p)
    expected = (a @ b) % p
    for safe32 in (fm._FLOAT32_SAFE, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "_FLOAT32_SAFE", safe32)
            got = fm.modmul(a, b, p)
        assert got.dtype == fm.residue_dtype(p) and np.array_equal(got, expected)


@given(st.sampled_from([2, 3, 5, 131, 251, 257]), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100)
def test_modmul_matches_int64_product(p, seed, vector):
    rng = np.random.default_rng(seed)
    rows, inner, cols = rng.integers(0, 9, size=3)
    a = rng.integers(p, size=(rows, inner))
    b = rng.integers(p, size=inner if vector else (inner, cols))
    _assert_modmul_is_the_int64_product(a, b, p)


@pytest.mark.parametrize("p, rows, inner, cols", [
    (257, 4, 255, 3), (257, 4, 256, 3),  # either side of 2**24 / (p - 1)**2 = 256
    (131, 4, 992, 3), (131, 4, 993, 3),  # either side of 2**24 / 130**2 = 992.7
    (2, 8192, 36, 18), (3, 8192, 36, 18),  # a batch of profile words on toric:3
])
def test_modmul_matches_int64_product_at_the_float32_bound(p, rows, inner, cols):
    rng = np.random.default_rng(inner)
    a = rng.integers(p, size=(rows, inner))
    b = rng.integers(p, size=(inner, cols))
    # the largest odd sum of products: past 2**24, float32 holds no odd integer
    a[0], b[:, 0] = p - 1, p - 1
    a[0, -1], b[-1, 0] = p - 2, p - 2
    _assert_modmul_is_the_int64_product(a, b, p)


@pytest.mark.parametrize("p, entry, inner", [
    (41, 1, 41),  # x = 41: in float32, 41 * (1/41) < 1, so q comes out one low and r = p
    (7, 6, 349530),  # x = 36 * 349530: q comes out one high and r < 0
])
def test_modmul_fixes_a_quotient_one_off(p, entry, inner):
    a = np.full((1, inner), entry)  # a @ a.T is the one entry x = entry**2 * inner
    _assert_modmul_is_the_int64_product(a, a.T, p)


def test_modmul_float64_at_the_largest_prime():
    # p = 65521, the largest prime check_prime admits, over an inner width of
    # 4096: sums of products up to 4096 * 65520**2, about 2**44, exact in float64
    p = 65521
    rng = np.random.default_rng(65521)
    a = rng.integers(p, size=(6, 4096))
    b = rng.integers(p, size=(4096, 5))
    a[0], b[:, 0] = p - 1, p - 1
    _assert_modmul_is_the_int64_product(a, b, p)
    assert fm.residue_dtype(p) == np.uint16


@pytest.mark.parametrize("p", [2, 5, 251, 257, 65521])
def test_residues_of_an_unsigned_matrix(p):
    # an unsigned matrix in the residue type comes back as it is, no copy,
    # when every entry is below p, and is reduced when one is not; it is
    # never scanned for a negative entry
    dtype = fm.residue_dtype(p)
    rng = np.random.default_rng(p)
    mat = rng.integers(p, size=(7, 12)).astype(dtype)
    mat[0, 0] = p - 1
    assert fm.residues(mat, p, dtype) is mat
    wide = mat.copy()
    wide[3, 5] = np.iinfo(dtype).max  # past p - 1
    wide[4, 1] = p
    got = fm.residues(wide, p, dtype)
    assert got is not wide and got.dtype == dtype
    assert np.array_equal(got, wide.astype(np.int64) % p)
    # signed input still reduces its negative entries
    assert np.array_equal(fm.residues(-mat.astype(np.int64), p, dtype), (-mat.astype(np.int64)) % p)


def test_check_prime_refuses_primes_past_the_layout():
    # residues are held in uint8 or uint16, and the bound is tested before
    # the trial division, which would run for long on 10**18 + 3
    fm.check_prime(65521)
    for p in (65537, 10**18 + 3, 2**61 - 1):
        with pytest.raises(ValueError, match="prime below 65536"):
            fm.check_prime(p)


def test_check_prime_runs_the_trial_division_once_per_prime(monkeypatch):
    from qltc.pauli import PauliOp

    calls = []
    real = fm.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(fm, "is_prime", counted)
    monkeypatch.setattr(fm, "_ADMITTED", set())
    for i in range(100):
        PauliOp(65521, 3, [i, 0, 1], [0, i, 2])
    assert calls == [65521]
    # a refused value is checked in full every time: 65537 by the bound alone
    for _ in range(2):
        for p in (65537, 4, 0, -3):
            with pytest.raises(ValueError, match=f"prime below 65536, got {p}$"):
                fm.check_prime(p)
    assert calls == [65521] + [4, 0, -3] * 2


@st.composite
def kernel_queries(draw):
    """Commuting rows over GF(2/3/5), their RowSpace and query rows that are zero, sparse
    (at most three nonzero entries) or dense, some of them members, some not reduced mod p."""
    p = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = css_rows(rng, p, draw(st.integers(2, 20)))
    (rows, cols), count = mat.shape, draw(st.integers(1, 6))
    vs = np.zeros((count, cols), dtype=np.int64)
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if kind == "sparse":
        for v in vs:
            at = rng.choice(cols, size=min(cols, int(rng.integers(1, 4))), replace=False)
            v[at] = rng.integers(1, p, size=at.size)
    elif kind == "dense":
        vs = rng.integers(p, size=(count, cols))
    if draw(st.booleans()):
        vs = np.vstack([vs, rng.integers(p, size=rows) @ mat % p])
    if draw(st.booleans()):
        vs = vs + p * rng.integers(-2, 3, size=vs.shape)
    return mat, fm.RowSpace(fm.Sites.of(mat), p), vs, p


@given(kernel_queries())
@settings(max_examples=200)
def test_contains_batch_on_the_support_matches_the_full_product(case):
    mat, rs, vs, p = case
    expected = ~np.any((vs % p) @ kernel(mat, p).T % p, axis=1)
    assert np.array_equal(rs.contains_batch(vs), expected)


def test_in_span_multiplies_only_the_words_support(monkeypatch):
    code = zoo.toric_code(16)
    code.rank  # the row space is built on its first read, before the spy
    passed = []
    real = fm.modmul

    def spy(a, b, p):
        passed.append(b.shape[0])  # columns of the rows and logicals in the product
        return real(a, b, p)

    monkeypatch.setattr(fm, "modmul", spy)
    v = np.zeros(2 * code.n, dtype=np.int64)
    v[[0, 1, 2]] = 1  # X on three edges, not a product of stars
    assert not code.in_span(v)
    assert passed == [3]


# --- Sites.pairs, the kernel that certifies a code --------------------------

@st.composite
def site_maps(draw):
    """(matrix, p, word): a few rows on a few qudits, CSS (each row pure x or pure z) or not,
    the first three rows all acting on qudit 0, so a qudit meets more than two rows."""
    p = draw(st.sampled_from([2, 3, 5, 257, 65521]))
    rows, n = draw(st.integers(3, 8)), draw(st.integers(1, 4))
    entry = st.integers(0, p - 1) | st.just(0)
    mat = np.array(draw(st.lists(entry, min_size=rows * 2 * n, max_size=rows * 2 * n)),
                   dtype=np.int64).reshape(rows, 2 * n)
    mat[:3, [0, n]] = draw(st.lists(st.tuples(st.integers(1, p - 1), st.integers(0, p - 1)),
                                    min_size=3, max_size=3))
    if draw(st.booleans()):  # CSS: row i keeps its x half if kinds[i], else its z half
        kinds = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
        mat[:, n:][kinds] = 0
        mat[:, :n][~kinds] = 0
        mat[:3, 0] = np.where(kinds[:3], np.maximum(mat[:3, 0], 1), 0)
        mat[:3, n] = np.where(kinds[:3], 0, np.maximum(mat[:3, n], 1))
    word = np.array(draw(st.lists(st.integers(0, p - 1), min_size=2 * n, max_size=2 * n)))
    return mat, p, word


@given(site_maps(), st.integers(0, 8), st.sampled_from([1, 4, fm.PAIR_TERMS]))
@settings(max_examples=300, deadline=None)
def test_site_pairs_match_the_dense_symplectic_products(case, split, block):
    # the pairs, of one map and of two stacked, are the upper triangle of the
    # dense oracle, and those since the split its entries b >= split,
    # when rows are summed in blocks of about `block` terms (1: a row a block)
    # as much as in one; the image of a word is the dense product
    mat, p, word = case
    n = mat.shape[1] // 2
    a, b, value = expected = symplectic_pairs(mat, p)
    since = b >= split
    sites = fm.Sites.of(mat)
    stacked = fm.Sites.of(mat[:split]).above(fm.Sites.of(mat[split:]))
    with mock.patch.object(fm, "PAIR_TERMS", block):
        for got in (sites.pairs(p), stacked.pairs(p)):
            assert all(map(np.array_equal, got, expected))
        got = stacked.pairs(p, since=split)
        assert all(map(np.array_equal, got, (a[since], b[since], value[since])))
    dense = (mat[:, :n] @ word[:n] + mat[:, n:] @ word[n:]) % p
    assert np.array_equal(sites.image(word[:n], word[n:], p), dense)
    assert np.array_equal(stacked.image(word[:n], word[n:], p), dense)
