"""Code build: pinned outputs, the GF(2) elimination and build validation against oracles.

`build_golden.json` was taken from the PauliOp-by-PauliOp build with the
dense int64 elimination; every build must reproduce it bit for bit.  The
oracles below (`rref_int64`, `reference_build`) are that older path,
kept here so random instances can be checked against it.
"""

import hashlib
import itertools
import json
import pathlib
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
        h = zoo.regular_circulant_matrix(8, 2, seed=1)
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
            "kernel": _digest(code.rowspace.kernel),
            "left_kernel": _digest(code.rowspace.left_kernel),
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


# --- the GF(2) elimination against the dense int64 loop ----------------------

def rref_int64(mat, p):
    """The dense GF(p) Gauss-Jordan loop: the oracle for the packed GF(2) path."""
    a = np.array(mat, dtype=np.int64)
    a %= p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_rows = np.nonzero(a[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        pr = r + int(pivot_rows[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


@st.composite
def gf2_matrices(draw):
    """Tall, wide, zero and full-rank GF(2) matrices, some with entries outside {0, 1}."""
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 150))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "full_rank", "unreduced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "full_rank":
        # [I | B] up to a column permutation, mixed by an invertible row operation
        r = min(rows, cols)
        base = np.zeros((rows, cols), dtype=np.int64)
        base[:r, :r] = np.eye(r, dtype=np.int64)
        base[:r, r:] = rng.integers(2, size=(r, cols - r))
        mix = np.tril(rng.integers(2, size=(rows, rows)), -1) + np.eye(rows, dtype=np.int64)
        return (mix @ base % 2)[:, rng.permutation(cols)]
    if kind == "unreduced":
        return rng.integers(-3, 5, size=(rows, cols))
    density = 0.5 if kind == "dense" else 0.05
    return (rng.random((rows, cols)) < density).astype(np.int64)


@given(gf2_matrices())
@settings(max_examples=300, deadline=None)
def test_gf2_rref_matches_int64_loop(mat):
    r, pivots = fm.rref(mat, 2)
    r0, pivots0 = rref_int64(mat, 2)
    assert r.shape == r0.shape and np.array_equal(r, r0)
    assert pivots == pivots0


@given(gf2_matrices())
@settings(max_examples=150, deadline=None)
def test_rowspace_matches_int64_loop(mat):
    if mat.shape[0] == 0:
        return
    rs = fm.RowSpace(mat, 2)
    with mock.patch.object(fm, "rref", rref_int64):
        rs0 = fm.RowSpace(mat, 2)
    assert rs.pivots == rs0.pivots and rs.rank == rs0.rank
    for name in ("kernel", "left_kernel", "_pivot_combinations"):
        assert np.array_equal(getattr(rs, name), getattr(rs0, name)), name


# --- the matrix-first build against PauliOp-by-PauliOp validation ------------

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
    with mock.patch.object(fm, "rref", rref_int64):
        rs = fm.RowSpace(matrix, d)
    for i, g in enumerate(gens):
        if g.power(d).phase:
            raise PhaseObstructionError([i])
    for c in rs.left_kernel:
        prod = PauliOp.identity(n, d)
        for g, e in zip(gens, c):
            prod = prod.multiply(g.power(int(e)))
        if prod.phase:
            raise PhaseObstructionError(c)
    return {
        "matrix": matrix,
        "syndrome": np.concatenate([gz, -gx % d], axis=1),
        "k": weights[0],
        "D_L": degrees[0] if len(set(degrees)) == 1 else None,
        "rank": rs.rank,
        "pivots": rs.pivots,
        "kernel": rs.kernel,
        "left_kernel": rs.left_kernel,
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
        payload = getattr(exc, "pair", getattr(exc, "qudit", getattr(exc, "coeffs", None)))
        return type(exc), payload, str(exc)
    if isinstance(code, dict):
        return code
    return {
        "matrix": code.symplectic_matrix, "syndrome": code.syndrome_matrix, "k": code.k,
        "D_L": code.D_L, "rank": code.rank, "pivots": code.rowspace.pivots,
        "kernel": code.rowspace.kernel, "left_kernel": code.rowspace.left_kernel,
        "right_adj": code.graph.right_adj, "css": code.is_css(),
        "phases": [g.phase for g in code.generators],
    }


def _same(a, b):
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
