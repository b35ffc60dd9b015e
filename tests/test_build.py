"""Code build: pinned outputs, the packed elimination and build validation against oracles.

`build_golden.json` was taken from the PauliOp-by-PauliOp build with the
dense int64 elimination, its pivots since from the standard form; every
build must reproduce it bit for bit.  The oracles below
(`standard_form_int64`, from `helpers.rref_int64`, and `reference_build`)
are that older path, kept here so random instances can be checked
against it.
"""

import hashlib
import itertools
import json
import pathlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qltc import fieldmath as fm
from qltc import zoo
from qltc.cli import load_code, main
from qltc.pauli import PauliOp
from qltc.stabilizer import (
    CodeValidationError,
    IrregularDegreeError,
    NonAbelianError,
    NonUniformLocalityError,
    PhaseObstructionError,
    StabilizerCode,
    TrivialQuditError,
    build_code,
)
import helpers
from helpers import (
    identity, kernel, left_kernel, paired_circulant_matrix, paired_rows_matrix, power,
    regular_circulant_matrix,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "build_golden.json"

FIVE_QUBIT_ROWS = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def _code_file(gens):
    return {"d": gens[0].d, "n": gens[0].n, "k": gens[0].weight(),
            "generators": [g.to_json() for g in gens], "meta": {}}


def _five_qubit_file():
    return _code_file([PauliOp(2, 5, [c == "X" for c in r], [c == "Z" for c in r])
                       for r in FIVE_QUBIT_ROWS])


def _phased_toric3_3_file():
    # toric:3:3 with non-zero phases whose sums vanish over each type's one
    # global dependency (the product of all vertex or all plaquette checks)
    L, d = 3, 3
    h, v = zoo.toric_edge_indices(L)
    n = 2 * L * L
    vertex_phases = [1, 2, 0, 1, 1, 1, 0, 0, 0]
    plaquette_phases = [0, 0, 2, 0, 0, 0, 0, 2, 2]
    gens = []
    for i, s in enumerate(vertex_phases):
        r, c = divmod(i, L)
        x = np.zeros(n, dtype=np.int64)
        x[[h(r, c - 1), v(r - 1, c)]] = 1
        x[[h(r, c), v(r, c)]] = d - 1
        gens.append(PauliOp(d, n, x, np.zeros(n, dtype=np.int64), s))
    for i, s in enumerate(plaquette_phases):
        r, c = divmod(i, L)
        z = np.zeros(n, dtype=np.int64)
        z[[h(r, c), v(r, c + 1)]] = 1
        z[[h(r + 1, c), v(r, c)]] = d - 1
        gens.append(PauliOp(d, n, np.zeros(n, dtype=np.int64), z, s))
    return _code_file(gens)


def _source(name, tmp_path):
    """A CLI code source for a pinned code, writing its input files under tmp_path."""
    if name in ("five-qubit", "phased-toric:3:3"):
        path = tmp_path / f"{name}.json"
        body = _five_qubit_file() if name == "five-qubit" else _phased_toric3_3_file()
        path.write_text(json.dumps(body))
        return str(path)
    if name == "hgp:circulant8":
        h = regular_circulant_matrix(8, 2, seed=1)
        path = tmp_path / "circulant8.txt"
        path.write_text("".join(" ".join(map(str, np.nonzero(row)[0])) + "\n" for row in h))
        return f"hgp:{path},{path}"
    return name


PINNED = ["toric:2", "toric:3", "toric:4", "toric:5", "toric:6", "toric:3:3", "toric:4:5",
          "steane", "five-qubit", "hgp:circulant8", "phased-toric:3:3"]


def _digest(a):
    a = np.ascontiguousarray(a, dtype=np.int64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _build_pin(code, report):
    """Everything a build pins: the CLI build report, digests of its arrays, the graph."""
    return {
        "report": {key: value for key, value in report.items() if key not in ("source", "schema")},
        "sha256": {
            "symplectic_matrix": _digest(code.symplectic_matrix),
            "syndrome_matrix": _digest(code.syndrome_matrix),
            "kernel": _digest(kernel(code.symplectic_matrix, code.d)),
            "pivots": _digest(np.array(code.rowspace.pivots, dtype=np.int64)),
        },
        "right_adj": code.graph.right_adj,
        "phases": [g.phase for g in code.generators],
    }


def _pin(name, tmp_path):
    source = _source(name, tmp_path)
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["build", source, "--out", str(out)]) == 0
        code = load_code(source)
    return _build_pin(code, json.loads(out.read_text()))


@pytest.mark.parametrize("name", PINNED)
def test_build_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _pin(name, tmp_path) == golden[name]


# --- the packed elimination against the dense int64 loop ---------------------

def standard_form_int64(sites, p, phases=None):
    """helpers.standard_form of the sites' matrix as fm.rref returns it: packed into words
    of fields (pack_words).

    It carries no phase, so the obstruction is None.
    """
    reduced, pivots = helpers.standard_form(helpers.sites_matrix(sites), p)
    return helpers.pack_words(reduced, p), pivots, None


@st.composite
def field_matrices(draw, primes=(2,)):
    """Tall, wide, zero and full-rank matrices over GF(p), p from primes, some with
    entries outside [0, p); returns (matrix, p)."""
    p = draw(st.sampled_from(primes))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 150))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "full_rank", "unreduced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64), p
    if kind == "full_rank":
        # [I | B] up to a column permutation, mixed by an invertible row operation
        r = min(rows, cols)
        base = np.zeros((rows, cols), dtype=np.int64)
        base[:r, :r] = np.eye(r, dtype=np.int64)
        base[:r, r:] = rng.integers(p, size=(r, cols - r))
        mix = np.tril(rng.integers(p, size=(rows, rows)), -1) + np.eye(rows, dtype=np.int64)
        return (mix @ base % p)[:, rng.permutation(cols)], p
    if kind == "unreduced":
        return rng.integers(-p - 1, 2 * p + 1, size=(rows, cols)), p
    density = 0.5 if kind == "dense" else 0.05
    return (rng.random((rows, cols)) < density) * rng.integers(1, p, size=(rows, cols)), p


@given(field_matrices(primes=(2, 3, 5, 257, 65521)))
@settings(max_examples=400, deadline=None)
def test_rref_matches_int64_loop(mp):
    # the packed words, pivots in standard-form order, against the oracle's;
    # rows run past one word, so odd-p fields straddle words
    mat, p = mp
    mat = mat[:, : mat.shape[1] // 2 * 2]  # (x | z) halves
    words, pivots, _ = fm.rref(fm.Sites.of(mat % p), p)
    reduced, pivots0 = helpers.standard_form(mat, p)
    assert pivots == pivots0
    assert words.shape == (len(pivots), -(-mat.shape[1] * fm.field_width(p) // 64))
    assert np.array_equal(words, helpers.pack_words(reduced, p))


@given(field_matrices(primes=(2, 3, 5, 257)), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_rowspace_matches_int64_loop(mp, seed):
    # commuting rows: X checks mat and Z checks drawn from mat's kernel
    mat, p = mp
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        return
    mat = mat % p
    null = kernel(mat, p).astype(np.int64)
    hz = np.random.default_rng(seed).integers(p, size=(3, len(null))) @ null % p
    rows = np.block([[mat, np.zeros_like(mat)], [np.zeros_like(hz), hz]])
    rs = fm.RowSpace(fm.Sites.of(rows), p)
    with mock.patch.object(fm, "rref", standard_form_int64):
        rs0 = fm.RowSpace(fm.Sites.of(rows), p)
    assert rs.pivots == rs0.pivots and rs.rank == rs0.rank
    assert np.array_equal(rs.logicals, rs0.logicals)
    assert len(rs.logicals) == rows.shape[1] - 2 * rs.rank
    assert not np.any(rows @ rs.logicals.T % p)


@pytest.mark.parametrize("p, n", [(3, 32), (5, 16), (7, 16), (257, 16)])
def test_logicals_read_the_last_field_of_a_full_row(p, n):
    # 2n fields fill whole words, so the bytes a field may span run past the
    # row's end at its last field: a free qudit's z column
    assert 2 * n * fm.field_width(p) % 64 == 0
    rng = np.random.default_rng(p)
    for _ in range(10):
        hx = rng.integers(p, size=(3, n))
        hx[:, -1] = 0
        null = kernel(hx, p).astype(np.int64)
        hz = rng.integers(p, size=(2, len(null))) @ null % p
        hz[:, -1] = 0
        rows = np.block([[hx, np.zeros_like(hx)], [np.zeros_like(hz), hz]])
        rs = fm.RowSpace(fm.Sites.of(rows), p)
        with mock.patch.object(fm, "rref", standard_form_int64):
            assert np.array_equal(rs.logicals, fm.RowSpace(fm.Sites.of(rows), p).logicals)


def _rref_spy(monkeypatch):
    """The shapes of the matrices fm.rref is called on from now, in call order."""
    shapes = []
    real = fm.rref

    def spy(mat, p, phases=None):
        shapes.append(mat.shape)
        return real(mat, p, phases)

    monkeypatch.setattr(fm, "rref", spy)
    return shapes


def test_a_build_makes_exactly_one_elimination(monkeypatch):
    # the logicals are read off the build's one elimination, of the m x 2n
    # matrix: no Gram matrix or other matrix is eliminated beside it.  These
    # CSS codes of zero phases eliminate when their row space is first read
    shapes = _rref_spy(monkeypatch)
    h = helpers.paired_circulant_matrix(40)
    for build in (lambda: zoo.toric_code(4), lambda: zoo.toric_code(3, 3),
                  lambda: zoo.css_hypergraph_product(h, h, strict_degree=False)):
        shapes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = build()
        code.rank
        assert shapes == [(code.m, 2 * code.n)]


# --- when the elimination runs ------------------------------------------------

@st.composite
def css_generator_sets(draw):
    """Commuting pure-x and pure-z rows over d in {2, 3, 5}, with dependent rows:
    more x rows than a row space of n columns holds, and z rows drawn from ker(x rows)."""
    d = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    hx = rng.integers(d, size=(draw(st.integers(1, n + 2)), n))
    hx *= rng.random((len(hx), 1)) < 0.8  # some zero rows
    null = kernel(hx, d).astype(np.int64)
    hz = rng.integers(d, size=(draw(st.integers(0, n + 2)), len(null))) @ null % d
    rows = np.block([[hx, np.zeros_like(hx)], [np.zeros((len(hz), n), dtype=np.int64), hz]])
    return rows[rng.permutation(len(rows))], d


@given(css_generator_sets())
@settings(max_examples=200, deadline=None)
def test_css_rows_of_zero_phase_have_no_obstruction(case):
    # why a CSS code of zero phases may defer its elimination: a product of
    # pure-x rows is a pure-x row of phase 0, and likewise for z, so no
    # product of generators is a scalar other than 1
    rows, d = case
    shapes = []
    real = fm.rref

    def spy(mat, p, phases=None):
        shapes.append(mat.shape)
        return real(mat, p, phases)

    with mock.patch.object(fm, "rref", spy):
        rs = fm.RowSpace(fm.Sites.of(rows), d, np.zeros(len(rows), dtype=np.int64))
    assert shapes == [rows.shape]
    assert rs.obstruction is None


@pytest.mark.parametrize("reader", ["rank", "logicals", "in_span", "code_distance",
                                    "is_succinct", "wt_mod_group"])
def test_a_css_build_of_zero_phases_eliminates_on_its_first_read(monkeypatch, reader):
    shapes = _rref_spy(monkeypatch)
    code = zoo.toric_code(4, 3)
    e = PauliOp.single(code.n, 3, 5, 1, 2)
    # what an attack reads: syndromes, penalties, the weight modulo the centralizer
    code.syndrome(e), code.penalty(e), code.wt_mod_centralizer(e)
    code.syndrome_batch(e.symplectic()[None])
    assert shapes == []
    readers = {
        "rank": lambda: code.rank,
        "logicals": lambda: code.rowspace.logicals,
        "in_span": lambda: code.in_span(e.symplectic()),
        "code_distance": lambda: code.code_distance(w_max=1),
        "is_succinct": lambda: code.is_succinct(budget=0),
        "wt_mod_group": lambda: code.wt_mod_group(e),
    }
    readers[reader]()
    assert shapes == [(code.m, 2 * code.n)]
    for read in readers.values():
        read()
    assert shapes == [(code.m, 2 * code.n)]


@pytest.mark.parametrize("name", ["five-qubit", "phased-toric:3:3"])
def test_codes_whose_products_may_be_scalars_eliminate_at_build(monkeypatch, tmp_path, name):
    # the five-qubit code has generators with x and z entries, phased-toric:3:3
    # nonzero phases: a product of their generators could be a scalar other than 1
    source = _source(name, tmp_path)
    shapes = _rref_spy(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = load_code(source)
    assert shapes == [(code.m, 2 * code.n)]
    code.rank
    assert len(shapes) == 1


def test_an_obstructed_phased_code_is_refused_by_the_build(monkeypatch, tmp_path, capsys):
    # toric:3 with phase 1 (a sign at d = 2) on one star: the product of all
    # the stars is then -I, which the build's elimination finds
    gens = list(zoo.toric_code(3).generators)
    gens[0] = PauliOp(2, gens[0].n, gens[0].x, gens[0].z, 1)
    path = tmp_path / "obstructed.json"
    path.write_text(json.dumps(_code_file(gens)))
    shapes = _rref_spy(monkeypatch)
    with pytest.raises(PhaseObstructionError):
        StabilizerCode.load(path)
    assert len(shapes) == 1
    assert main(["build", str(path)]) == 1
    assert "non-identity scalar" in capsys.readouterr().err


def test_attack_jobs_make_no_elimination(monkeypatch, capsys):
    shapes = _rref_spy(monkeypatch)
    for attack in ("expander", "alphabet", "refined"):
        assert main(["attack", "toric:8", attack, "--delta", "0.05", "--seed", "1"]) == 0
        assert shapes == []
    assert main(["build", "toric:8"]) == 0
    assert shapes == [(128, 256)]
    capsys.readouterr()


# --- the matrix-first build against PauliOp-by-PauliOp validation ------------

class PhasedRelations(CodeValidationError):
    """The reference's refusal of a phased relation: a build may name any of these generators."""

    def __init__(self, generators):
        self.generators = generators
        super().__init__(f"generators {sorted(generators)}")


def reference_build(gens, strict_degree):
    """The validation as it was done per PauliOp, with a dense x.z product and the int64 loop.

    Returns the data a build exposes, or raises the error it must raise.
    """
    if not gens:
        raise CodeValidationError("empty generating set")
    d, n = gens[0].d, gens[0].n
    if any(g.n != n or g.d != d for g in gens):
        raise CodeValidationError("generators with mixed (n, d)")
    weights = [g.weight() for g in gens]
    if len(set(weights)) != 1:
        raise NonUniformLocalityError(weights)
    if weights[0] == 0:
        raise CodeValidationError("identity generator")
    gx = np.stack([g.x for g in gens])
    gz = np.stack([g.z for g in gens])
    xz = gx @ gz.T % d
    bad = np.argwhere((xz.T - xz) % d != 0)
    if bad.size:
        raise NonAbelianError(int(bad[0, 0]), int(bad[0, 1]))
    supports = [g.support() for g in gens]
    acting = [[i for i, s in enumerate(supports) if q in s] for q in range(n)]
    degrees = [len(a) for a in acting]
    if len(set(degrees)) != 1:
        if strict_degree:
            raise IrregularDegreeError(degrees)
        warnings.warn(f"irregular left degrees {sorted(set(degrees))}", stacklevel=2)
    for q in range(n):
        if not any((gx[a, q] * gz[b, q] - gz[a, q] * gx[b, q]) % d
                   for a, b in itertools.combinations(acting[q], 2)):
            raise TrivialQuditError(q)
    matrix = np.concatenate([gx, gz], axis=1)
    with mock.patch.object(fm, "rref", standard_form_int64):
        rs = fm.RowSpace(fm.Sites.of(matrix % d), d)
    null = kernel(matrix, d)
    for i, g in enumerate(gens):
        if power(g, d).phase:
            raise PhaseObstructionError(i)
    relations = left_kernel(matrix, d)
    for c in relations:
        prod = identity(n, d)
        for g, e in zip(gens, c):
            prod = prod.multiply(power(g, int(e)))
        if prod.phase:
            # the phase is linear on the relations: with one phased, every
            # generator in their support lies in a phased one
            raise PhasedRelations(set(np.flatnonzero(relations.any(axis=0)).tolist()))
    return {
        "matrix": matrix,
        "syndrome": np.concatenate([gz, -gx % d], axis=1),
        "k": weights[0],
        "D_L": degrees[0] if len(set(degrees)) == 1 else None,
        "rank": rs.rank,
        "pivots": rs.pivots,
        "kernel": null,
        "logicals": rs.logicals,
        "right_adj": supports,
        "css": all(not (g.x.any() and g.z.any()) for g in gens),
        "phases": [g.phase for g in gens],
    }


def _outcome(build):
    """What a build gives: its exposed data, or the error type with its payload."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = build()
    except CodeValidationError as exc:
        payload = getattr(exc, "pair", getattr(exc, "qudit", getattr(exc, "generator", None)))
        payload = getattr(exc, "generators", payload)
        return type(exc), payload, str(exc)
    if isinstance(code, dict):
        return code
    return {
        "matrix": code.symplectic_matrix, "syndrome": code.syndrome_matrix, "k": code.k,
        "D_L": code.D_L, "rank": code.rank, "pivots": code.rowspace.pivots,
        "kernel": kernel(code.symplectic_matrix, code.d), "logicals": code.rowspace.logicals,
        "right_adj": code.graph.right_adj, "css": code.is_css(),
        "phases": [g.phase for g in code.generators],
    }


def _same(a, b):
    if isinstance(b, tuple) and b[0] is PhasedRelations:
        return (a[0] is PhaseObstructionError and a[1] in b[1]
                and a[2] == str(PhaseObstructionError(a[1])))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            np.array_equal(a[key], b[key]) if isinstance(a[key], np.ndarray) else a[key] == b[key]
            for key in a)
    return a == b


def _random_rows(d, n, m, rng, commuting, uniform):
    """m rows of k-local random symbols, each commuting with the earlier ones if asked."""
    k = int(rng.integers(1, n + 1))
    rows = []
    for _ in range(m):
        for _ in range(50):
            row = np.zeros(2 * n, dtype=np.int64)
            weight = k if uniform else int(rng.integers(1, n + 1))
            for q in rng.choice(n, size=weight, replace=False):
                x, z = 0, 0
                while (x, z) == (0, 0):
                    x, z = rng.integers(d, size=2)
                row[q], row[n + q] = x, z
            if not commuting or all((r[n:] @ row[:n] - r[:n] @ row[n:]) % d == 0 for r in rows):
                break
        rows.append(row)
    return np.array(rows)


def _scrambled_code(d, rng):
    """A valid code (toric:2, {XX, ZZ^-1}, or the five-qubit code) under a random local
    Clifford map per qudit and random qudit and generator orders."""
    bases = [zoo.toric_code(2, d).symplectic_matrix, np.array([[1, 1, 0, 0], [0, 0, 1, d - 1]])]
    if d == 2:
        bases.append(np.array([np.concatenate([[c == "X" for c in r], [c == "Z" for c in r]])
                               for r in FIVE_QUBIT_ROWS], dtype=np.int64))
    matrix = bases[int(rng.integers(len(bases)))]
    n = matrix.shape[1] // 2
    x, z = matrix[:, :n].copy(), matrix[:, n:].copy()
    for q in range(n):
        while True:  # a determinant-1 map keeps every symplectic product
            a, b, c, e = rng.integers(d, size=4)
            if (a * e - b * c) % d == 1:
                break
        x[:, q], z[:, q] = (a * x[:, q] + b * z[:, q]) % d, (c * x[:, q] + e * z[:, q]) % d
    perm = rng.permutation(n)
    return np.concatenate([x[:, perm], z[:, perm]], axis=1)[rng.permutation(len(matrix))]


@st.composite
def generator_sets(draw):
    """Small generating sets over d in {2, 3, 5}: valid codes in disguise, random commuting
    or arbitrary rows, some with dependent rows and phases."""
    d = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows = _scrambled_code(d, rng)
    else:
        rows = _random_rows(d, draw(st.integers(1, 5)), draw(st.integers(1, 6)), rng,
                            commuting=draw(st.booleans()), uniform=draw(st.booleans()))
    # a dependent row (a multiple of an earlier one) puts a phase check in play
    extra = [rows[int(rng.integers(len(rows)))] * int(rng.integers(1, d)) % d
             for _ in range(draw(st.integers(0, 2)))]
    rows = np.concatenate([rows, np.array(extra, dtype=np.int64).reshape(-1, rows.shape[1])])
    phases = rng.integers(d, size=len(rows)) if draw(st.booleans()) else np.zeros(len(rows), int)
    n = rows.shape[1] // 2
    gens = [PauliOp(d, n, r[:n], r[n:], int(s)) for r, s in zip(rows, phases)]
    return gens, draw(st.booleans())


@given(generator_sets())
@settings(max_examples=400, deadline=None)
def test_matrix_first_build_matches_pauli_validation(case):
    gens, strict = case
    d = gens[0].d
    matrix = np.stack([g.symplectic() for g in gens])
    phases = [g.phase for g in gens]
    expected = _outcome(lambda: reference_build(gens, strict))
    assert _same(_outcome(lambda: StabilizerCode(d, matrix, phases, strict_degree=strict)),
                 expected)
    assert _same(_outcome(lambda: build_code(gens, strict_degree=strict)), expected)


# --- a code held as its sites against one built from its dense matrix ----------

@st.composite
def site_built_codes(draw):
    """(d, matrix, phases, sites, built): a generating set over d in {2, 3, 5, 257} as its
    dense matrix and phases, and as Sites.at of its nonzero sites in a random order; built
    is the zoo's own build from sites, or None.  The sets: toric and hypergraph-product
    codes (CSS), or a code under random local Clifford maps (Y-type sites, not CSS), each
    with zero phases, phases that clear every relation, or those with one bumped."""
    d = draw(st.sampled_from([2, 3, 5, 257]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["toric", "hgp", "scrambled"]))
    built = None
    if kind == "toric":
        built = zoo.toric_code(draw(st.integers(2, 4)), d)
    elif kind == "hgp":
        h = regular_circulant_matrix(draw(st.integers(3, 6)), 2, seed=int(rng.integers(100)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            built = zoo.css_hypergraph_product(h, h, d, strict_degree=False)
    matrix = _scrambled_code(d, rng) if built is None else built.symplectic_matrix
    phases = np.zeros(len(matrix), dtype=np.int64)
    n = matrix.shape[1] // 2
    kind = draw(st.sampled_from(["zero", "consistent", "bumped"]))
    if kind != "zero":  # then conjugated by a random Pauli, which keeps every relation's phase
        phases = helpers.consistent_phases(matrix, d) + matrix @ rng.integers(d, size=2 * n)
        phases[int(rng.integers(len(matrix)))] += (kind == "bumped") * int(rng.integers(1, d))
        built = None
    row, qudit = np.nonzero(matrix[:, :n] | matrix[:, n:])
    order = rng.permutation(len(row))
    row, qudit = row[order], qudit[order]
    sites = fm.Sites.at(row, qudit, matrix[row, qudit], matrix[row, n + qudit], matrix.shape)
    return d, np.array(matrix), phases % d, sites, built


@given(site_built_codes(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_a_code_from_sites_is_the_code_from_its_dense_matrix(case, seed):
    # rank, pivots, obstruction, logicals, syndromes, the dense forms and the
    # JSON of a code held as its sites, against the code of its dense matrix
    d, matrix, phases, sites, built = case
    words = np.random.default_rng(seed).integers(d, size=(6, matrix.shape[1]))

    def outcome(build):
        codes = []
        got = _outcome(lambda: codes.append(build()) or codes[0])
        for code in codes[:1] if isinstance(got, dict) else []:
            got.update(json=code.to_json({"seed": seed}), batch=code.syndrome_batch(words),
                       obstruction=code.rowspace.obstruction, syndromes=np.array([
                           code.syndrome(PauliOp(d, code.n, w[:code.n], w[code.n:]))
                           for w in words]))
        return got

    expected = outcome(lambda: StabilizerCode(d, matrix, phases, strict_degree=False))
    assert _same(outcome(lambda: StabilizerCode(d, sites, phases, strict_degree=False)), expected)
    if built is not None:
        assert _same(outcome(lambda: built), expected)


# --- build size: the guard's estimate against the traced peak ------------------

def _traced_peak(build):
    """Peak bytes numpy and Python allocate during build() (tracemalloc sees both)."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [2, 3, 5, 257])
def test_build_size_estimate_bounds_the_traced_peak(d):
    # the estimate prices rows packed in field_width(d) bits an entry, up to
    # toric:32 at d = 3; each traced build reads its rank, so the elimination
    # and the certificates run inside the trace, and at d = 2 the hypergraph
    # product of paired_circulant_matrix(40) (2k' = 1,600 logicals) is traced too
    zoo.toric_code(2, d).rank  # first-call set-up stays out of the trace
    for L in (4, 8, 16, 32) if d == 3 else (4, 8, 16):
        n = 2 * L * L
        assert _traced_peak(lambda: zoo.toric_code(L, d).rank) <= zoo._check_build_size(n, n, d)
    hs = [regular_circulant_matrix(8, 3, seed=1)] + ([paired_circulant_matrix(40)] if d == 2 else [])
    for h in hs:
        n = 2 * h.size
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            peak = _traced_peak(
                lambda: zoo.css_hypergraph_product(h, h, d, strict_degree=False).rank)
        assert peak <= zoo._check_build_size(n, n, d)


def test_toric32_build_stays_at_its_narrow_size():
    # 12.1 MiB traced peak measured with the rank read, 9.4 MiB of it held by
    # the code (33.8 MiB when the reduced rows were unpacked and the draws
    # multiplied in float32, 203 MiB when the matrix and kernel were int64 and
    # the float64 syndrome map was built with the code)
    zoo.toric_code(2).rank
    assert _traced_peak(lambda: zoo.toric_code(32).rank) < 16 * 2**20


@pytest.mark.parametrize("d", [2, 3])
def test_toric32_build_holds_no_dense_matrix(d):
    # m x 2n = 8 MiB is the uint8 symplectic matrix alone: a build from sites,
    # with its rank read, traces 3.3 MiB at d = 2 and 6.5 MiB at d = 3 (12.1 and
    # 14.5 MiB when the builder wrote the dense matrix and the build read it back)
    zoo.toric_code(2, d).rank
    m = n = 2 * 32 * 32
    assert _traced_peak(lambda: zoo.toric_code(32, d).rank) < m * 2 * n


def test_dense_logicals_are_certified_in_blocks():
    # Hx = Hz = paired_rows_matrix(800): 400 generators on 1,600 qudits whose
    # 2k' = 2,404 standard-form logicals meet 3.2 million times at shared qudits.
    # Measured traced peaks: the build with its rank 18.8 MiB (70 MiB with the
    # dense Gram product, 138 MiB with every site pair's term held at once), the
    # logicals' pairs alone 8.3 MiB (121 MiB held at once)
    h = paired_rows_matrix(800, seed=1)
    zoo.toric_code(2).rank
    built = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        peak = _traced_peak(
            lambda: built.append(zoo.css_code(h, h, strict_degree=False).rowspace))
    logicals = built[0].logical_sites
    counts = np.bincount(logicals.qudit)
    assert (counts * (counts - 1) // 2).sum() > 24 * fm.PAIR_TERMS
    assert peak < 32 * 2**20
    assert _traced_peak(lambda: logicals.pairs(2)) < 16 * 2**20


def test_css_files_build_within_the_guard_estimate(tmp_path, capsys):
    # the CLI frees each parsed int64 matrix once it is reduced to uint8, so neither
    # sits on top of the build's own peak
    path = tmp_path / "pairs.txt"
    path.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(1000)))
    zoo.toric_code(2)
    codes = []
    peak = _traced_peak(lambda: codes.append(main(["build", f"css:{path},{path}"])))
    assert codes == [0] and json.loads(capsys.readouterr().out)["n"] == 2000
    assert peak <= zoo._check_build_size(2000, 2000, 2)


def test_hypergraph_product_over_the_guard_refuses_before_any_copy():
    h1, h2 = np.ones((100, 2000), dtype=np.int64), np.ones((100, 2000), dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="guard"):
            zoo.css_hypergraph_product(h1, h2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h1.size  # less than one uint8 copy of an input
