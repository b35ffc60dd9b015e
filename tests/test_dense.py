"""The dense oracle: pinned `qltc verify` reports, and its fast forms against slow ones.

`densify_kron` (the kron product of site matrices) and
`detectability_oracle` (the projector form ||Pi E Pi - gamma Pi||, with Pi
a product of generator projectors) are the older, slower forms of the
monomial `densify` (a test helper on the oracle's `_monomial`) and the
codespace-basis `verify_detectability`, kept here as oracles on random
instances; `helpers.detectability_loop` and `helpers.equivalence_loop`,
one Pauli and one sample at a time in complex arithmetic, are the
oracles of the checks' batched slices.  `verify_golden.json` was written
by the older forms.
"""

import functools
import itertools
import json
import os
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qltc import Refusal, dense
from qltc.cli import main
from qltc.pauli import PauliOp, nonidentity_symbols
from qltc.stabilizer import CodeValidationError, StabilizerCode, build_code
from qltc.zoo import steane_code, toric_code
from helpers import (densify, detectability_loop, displaced_codeword_energy, equivalence_loop, identity,
                     verify_energy_identity)


def test_densify_bit_flip():
    x = PauliOp.single(1, 2, 0, x=1, z=0)
    assert np.allclose(densify(x), np.array([[0, 1], [1, 0]]))


def test_densify_phase_d3():
    p = PauliOp.single(1, 3, 0, x=0, z=1)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(densify(p), np.diag([1, w, w**2]))


def test_densify_shift_d3():
    x = PauliOp.single(1, 3, 0, x=1, z=0)
    mat = densify(x)
    e0 = np.zeros(3)
    e0[0] = 1
    assert np.allclose(mat @ e0, np.eye(3)[:, 1])  # |0> -> |1>


def test_densify_unitary_and_phase():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        p = PauliOp(d, 2, rng.integers(d, size=2), rng.integers(d, size=2), 1)
        m = densify(p)
        assert np.allclose(m @ m.conj().T, np.eye(d * d), atol=1e-12)
        bare = PauliOp(d, 2, p.x, p.z, 0)
        w = np.exp(2j * np.pi / d)
        assert np.allclose(m, w * densify(bare), atol=1e-12)


def test_size_cap():
    with pytest.raises(Refusal, match="exceeds cap"):
        densify(identity(11, 2))


def test_generator_projector_idempotent():
    c = toric_code(2)
    pi = dense.generator_projector(c.generators[0])
    assert np.linalg.norm(pi @ pi - pi) < 1e-9
    assert np.linalg.norm(pi - pi.conj().T) < 1e-9


def test_codespace_dimensions():
    assert dense.codespace_basis(steane_code()).shape[1] == 2
    assert dense.codespace_basis(toric_code(2)).shape[1] == 4


def test_codeword_energy_zero():
    c = toric_code(2)
    h, basis = dense._system(c)
    assert dense._energies(basis.T, h, c.m).max() < 1e-12


def test_energy_requires_normalized():
    c = toric_code(2)
    with pytest.raises(ValueError):
        dense._energies(np.ones((1, 2**c.n)), dense.hamiltonian(c), c.m)


def test_uniform_superposition_single_z_check():
    # one qubit, generator Z, state |+>: energy 1/2 (half the weight
    # violates); built without the qudit-coverage validation since a
    # single-generator fragment is deliberately degenerate
    import qltc.stabilizer as stab

    g = PauliOp.single(1, 2, 0, x=0, z=1)
    pi = dense.generator_projector(g)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(np.real(plus @ pi @ plus) - 0.5) < 1e-12


def test_displaced_codeword_energy_identity():
    for code in (steane_code(), toric_code(2)):
        rng = np.random.default_rng(7)
        errors = []
        for _ in range(12):
            e = PauliOp(
                code.d, code.n, rng.integers(code.d, size=code.n), rng.integers(code.d, size=code.n), 0
            )
            if e.weight():
                errors.append(e)
        report = verify_energy_identity(code, errors)
        assert report["passed"] and report["max_deviation"] < 1e-9


def test_energy_independent_of_codeword():
    c = toric_code(2)
    e = PauliOp.single(c.n, 2, 3, x=1, z=1)
    energies = [displaced_codeword_energy(c, e, which=i) for i in range(4)]
    assert max(energies) - min(energies) < 1e-12
    assert abs(energies[0] - c.penalty(e) / c.m) < 1e-12


def test_detectability_steane():
    report = dense.verify_detectability(steane_code(), rho=3)
    assert report["passed"] and report["max_residual"] < 1e-9
    # weight-3 errors include logicals: detectability must fail beyond rho
    report4 = dense.verify_detectability(steane_code(), rho=4)
    assert not report4["passed"]


def test_detectability_toric2():
    report = dense.verify_detectability(toric_code(2), rho=2)
    assert report["passed"]


def test_equivalence_reports():
    for code in (steane_code(), toric_code(2)):
        rep = dense.verify_sltc_qltc_equivalence(code, samples=20, seed=1)
        assert rep["passed"]
        assert rep["max_forward_deviation"] < 1e-9
        assert rep["coset_pairs_checked"] > 0


def test_dense_oracle_d3_code():
    # two-qutrit code: X(x)X and Z(x)Z^-1 commute; dense identities hold
    g1 = PauliOp(3, 2, [1, 1], [0, 0], 0)
    g2 = PauliOp(3, 2, [0, 0], [1, 2], 0)
    c = build_code([g1, g2])
    assert dense.codespace_basis(c).shape[1] == 1
    rep = dense.verify_sltc_qltc_equivalence(c, samples=30, seed=2)
    assert rep["passed"]
    det = dense.verify_detectability(c, rho=2)
    assert det["max_residual"] < 1e-9 or det["violator"] is not None


@pytest.mark.parametrize("name", ["steane", "toric:2", "xx_zz2_d3"])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**70 + 3])
def test_equivalence_draws_numpy_stream(monkeypatch, name, seed):
    # the Paulis sampled are numpy's default_rng(seed) draws of x, z and the
    # phase, and the report is the one numpy's own generator gives
    code = {"steane": steane_code, "toric:2": lambda: toric_code(2),
            "xx_zz2_d3": lambda: build_code([PauliOp(3, 2, [1, 1], [0, 0]),
                                             PauliOp(3, 2, [0, 0], [1, 2])])}[name]()
    drawn, draws = [], dense._draws

    def spy(*args):
        drawn.append(draws(*args))
        return drawn[-1]

    monkeypatch.setattr(dense, "_draws", spy)
    report = dense.verify_sltc_qltc_equivalence(code, samples=12, seed=seed)
    (xs, zs, phases), = drawn
    rng = np.random.default_rng(seed)
    for op in (PauliOp(code.d, code.n, *args) for args in zip(xs, zs, phases)):
        x, z = rng.integers(code.d, size=code.n), rng.integers(code.d, size=code.n)
        assert (op.x.tolist(), op.z.tolist(), op.phase) == (x.tolist(), z.tolist(),
                                                            int(rng.integers(code.d)))
    assert len(xs) == 12
    monkeypatch.setattr(dense, "Pcg64", np.random.default_rng)
    assert dense.verify_sltc_qltc_equivalence(code, samples=12, seed=seed) == report


# --- pinned `qltc verify` reports -------------------------------------------

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "verify_golden.json"

# code files written into the working directory, so reports name them by a relative path
CODE_FILES = {
    "xx_zz2_d3.json": [PauliOp(3, 2, [1, 1], [0, 0]), PauliOp(3, 2, [0, 0], [1, 2])],
    "xx_zz_k0.json": [PauliOp(2, 2, [1, 1], [0, 0]), PauliOp(2, 2, [0, 0], [1, 1])],
}
VERIFY_CASES = {
    " ".join([source, *flags]): [source, *flags]
    for source in ["steane", "toric:2", *CODE_FILES]
    for flags in ([], ["--samples", "1"], ["--seed", "7"], ["--seed", "7", "--samples", "1"])
}
VERIFY_CASES["steane --rho 4"] = ["steane", "--rho", "4"]
# compared within FLOAT_ATOL; every other value must be equal
FLOAT_KEYS = {"max_residual", "max_forward_deviation", "max_backward_deviation"}
FLOAT_ATOL = 1e-12


def verify_run(argv, workdir) -> dict:
    """Exit code and report of `qltc verify argv`, run in workdir."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, gens in CODE_FILES.items():
            build_code(gens).save(name)
        code = main(["verify", *argv, "--out", "report.json"])
        if not os.path.exists("report.json"):  # refused as bad input
            return {"exit": code, "report": None}
        with open("report.json") as f:
            return {"exit": code, "report": json.load(f)}
    finally:
        os.chdir(cwd)


def _assert_matches(got, want, key=None):
    if key in FLOAT_KEYS:
        assert abs(got - want) <= FLOAT_ATOL, (key, got, want)
        assert (got <= dense.TOL) == (want <= dense.TOL), (key, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), (key, got, want)
        for k in want:
            _assert_matches(got[k], want[k], k)
    else:
        assert got == want, (key, got, want)


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_matches_golden(case, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    _assert_matches(verify_run(VERIFY_CASES[case], tmp_path), golden[case])


# --- the monomial densify against the kron product ---------------------------

def _site_matrices(d):
    """Shift X|i> = |i+1 mod d> and phase P|j> = w^j |j>."""
    x = np.zeros((d, d), dtype=complex)
    for i in range(d):
        x[(i + 1) % d, i] = 1.0
    w = np.exp(2j * np.pi / d)
    return x, np.diag(w ** np.arange(d))


def densify_kron(op):
    """w^s (Z^z1 X^x1) (x) ... (x) (Z^zn X^xn) as n kron products, site 0 leftmost."""
    xmat, pmat = _site_matrices(op.d)
    out = np.array([[np.exp(2j * np.pi / op.d) ** op.phase]], dtype=complex)
    for i in range(op.n):
        site = np.linalg.matrix_power(pmat, int(op.z[i])) @ np.linalg.matrix_power(xmat, int(op.x[i]))
        out = np.kron(out, site)
    return out


# the most qudits whose dimension d^n the dense oracle accepts
MAX_N = {d: max(n for n in range(1, 12) if d**n <= dense.SIZE_CAP) for d in (2, 3, 5)}


@st.composite
def paulis(draw):
    d = draw(st.sampled_from(sorted(MAX_N)))
    n = draw(st.integers(1, MAX_N[d]))
    exps = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    return PauliOp(d, n, draw(exps), draw(exps), draw(st.integers(0, d - 1)))


@given(paulis())
@example(PauliOp(2, 10, [1, 0, 1, 1, 0, 0, 1, 0, 1, 1], [1, 1, 0, 1, 0, 1, 1, 0, 0, 1], 1))
@example(PauliOp(3, 6, [1, 2, 0, 1, 2, 2], [2, 1, 1, 0, 2, 1], 2))
@example(PauliOp(5, 4, [4, 1, 0, 3], [2, 3, 4, 1], 3))
@settings(max_examples=60, deadline=None)
def test_monomial_densify_matches_kron(op):
    assert np.abs(densify(op) - densify_kron(op)).max() <= 1e-12


def test_densify_refuses_past_the_cap():
    for d, n in MAX_N.items():
        with pytest.raises(Refusal, match="exceeds cap"):
            densify(identity(n + 1, d))


# --- detectability on the codespace basis against the projector form ---------

def detectability_oracle(code, rho):
    """||Pi_C E Pi_C - gamma_E Pi_C|| for every Pauli E with wt(E) < rho, with Pi_C the
    product of the generators' +1 projectors (1/d) sum_j g^j, all from densify_kron."""
    dim = code.d**code.n
    pc = np.eye(dim, dtype=complex)
    for g in code.generators:
        dg = densify_kron(g)
        pc = pc @ sum(np.linalg.matrix_power(dg, j) for j in range(code.d)) / code.d
    dim_c = np.real(np.trace(pc))
    max_residual, checked, violator = 0.0, 0, None
    for w in range(1, min(rho, code.n + 1)):
        for supp in itertools.combinations(range(code.n), w):
            for symbols in itertools.product(nonidentity_symbols(code.d), repeat=w):
                x, z = np.zeros(code.n, int), np.zeros(code.n, int)
                x[list(supp)], z[list(supp)] = zip(*symbols)
                e = PauliOp(code.d, code.n, x, z)
                lhs = pc @ densify_kron(e) @ pc
                res = float(np.linalg.norm(lhs - np.trace(lhs) / dim_c * pc))
                checked += 1
                max_residual = max(max_residual, res)
                if res > dense.TOL and violator is None:
                    violator = e.to_json()
    return {"passed": violator is None, "violator": violator, "paulis_checked": checked,
            "max_residual": max_residual}


FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def _random_code(d, rng):
    """A valid code with d^n <= 243: the five-qubit code or {XX, ZZ^-1} under random local
    SL(2, d) maps, or random commuting rows of one weight; random phases where they fit."""
    while True:
        if rng.random() < 0.4:
            if d == 2 and rng.random() < 0.5:
                rows = np.array([[c == "X" for c in r] + [c == "Z" for c in r] for r in FIVE_QUBIT],
                                dtype=np.int64)
            else:
                rows = np.array([[1, 1, 0, 0], [0, 0, 1, d - 1]])
            n = rows.shape[1] // 2
            x, z = rows[:, :n].copy(), rows[:, n:].copy()
            for q in range(n):
                while True:  # a determinant-1 map keeps every symplectic product
                    a, b, c, e = rng.integers(d, size=4)
                    if (a * e - b * c) % d == 1:
                        break
                x[:, q], z[:, q] = (a * x[:, q] + b * z[:, q]) % d, (c * x[:, q] + e * z[:, q]) % d
            rows = np.concatenate([x, z], axis=1)
        else:
            n = int(rng.integers(2, {2: 6, 3: 4, 5: 3}[d] + 1))
            k = int(rng.integers(1, n + 1))
            rows = []
            for _ in range(int(rng.integers(2, n + 2))):
                row = np.zeros(2 * n, dtype=np.int64)
                for q in rng.choice(n, size=k, replace=False):
                    row[q], row[n + q] = (0, 0)
                    while row[q] == row[n + q] == 0:
                        row[q], row[n + q] = rng.integers(d, size=2)
                if all((r[n:] @ row[:n] - r[:n] @ row[n:]) % d == 0 for r in rows):
                    rows.append(row)
            rows = np.array(rows)
        for phases in (rng.integers(d, size=len(rows)), None):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    return StabilizerCode(d, rows, phases, strict_degree=False)
            except CodeValidationError:
                pass


@given(st.sampled_from([2, 3, 5]), st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_basis_detectability_matches_projector_form(d, seed, rho):
    code = _random_code(d, np.random.default_rng(seed))
    got = dense.verify_detectability(code, rho)
    want = detectability_oracle(code, rho)
    assert (got["passed"], got["violator"], got["paulis_checked"]) == (
        want["passed"], want["violator"], want["paulis_checked"])
    assert abs(got["max_residual"] - want["max_residual"]) <= 1e-12


def test_detectability_past_n_checks_every_pauli_once():
    code = build_code(CODE_FILES["xx_zz2_d3.json"])
    full = dense.verify_detectability(code, rho=code.n + 1)
    assert full["paulis_checked"] == 9**code.n - 1
    far = dense.verify_detectability(code, rho=10**18)
    assert {**far, "rho": full["rho"]} == full


# --- the batched checks against their per-Pauli and per-sample loops ----------

# phased Y-type generators at d = 2: -(ZX)(ZX)(ZX)(ZX) and ZZZZ, K = 4
Y_TYPE = [PauliOp(2, 4, [1, 1, 1, 1], [1, 1, 1, 1], 1), PauliOp(2, 4, [0, 0, 0, 0], [1, 1, 1, 1])]


@st.composite
def random_codes(draw):
    d, seed = draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 2**32 - 1))
    return _random_code(d, np.random.default_rng(seed))


# SLICE_ENTRIES as a function of d^n and K: one Pauli and one sample a slice,
# three samples a slice, three Paulis a slice, and the module's own value
SLICINGS = {"one": lambda dim, k: 1, "three samples": lambda dim, k: 3 * dim,
            "three paulis": lambda dim, k: 3 * dim * k, "default": lambda dim, k: dense.SLICE_ENTRIES}


@given(random_codes(), st.integers(1, 4), st.integers(0, 40), st.integers(0, 2**32 - 1),
       st.sampled_from(sorted(SLICINGS)))
@example(build_code(Y_TYPE), 3, 40, 5, "three paulis")
@example(build_code(Y_TYPE), 4, 17, 1, "three samples")
@example(build_code(CODE_FILES["xx_zz2_d3.json"]), 3, 23, 7, "three paulis")
@settings(max_examples=60, deadline=None)
def test_batched_checks_match_the_loops(code, rho, samples, seed, slicing):
    dim, k = dense.codespace_basis(code).shape
    want_det, want_eq = detectability_loop(code, rho), equivalence_loop(code, samples, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense, "SLICE_ENTRIES", SLICINGS[slicing](dim, k))
        got_det = dense.verify_detectability(code, rho)
        got_eq = dense.verify_sltc_qltc_equivalence(code, samples, seed)
    for got, want, floats in ((got_det, want_det, {"max_residual"}),
                              (got_eq, want_eq, {"max_forward_deviation", "max_backward_deviation"})):
        assert sorted(got) == sorted(want)
        for key in want:
            if key in floats:
                assert abs(got[key] - want[key]) <= 1e-12, (key, got[key], want[key])
            else:
                assert got[key] == want[key], (key, got[key], want[key])


# generators over each field: phased and Y-type at d = 2, where the roots are (1, -1)
FIELD_CASES = {
    "-xx_zz": [PauliOp(2, 2, [1, 1], [0, 0], 1), PauliOp(2, 2, [0, 0], [1, 1])],
    "y_type": Y_TYPE,
    "xx_zz2_d3": CODE_FILES["xx_zz2_d3.json"],
    "xx_zz4_d5": [PauliOp(5, 2, [1, 1], [0, 0], 2), PauliOp(5, 2, [0, 0], [1, 4])],
}


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_real_arithmetic_at_d2(name):
    code = build_code(FIELD_CASES[name])
    dtype = np.float64 if code.d == 2 else np.complex128
    dim = code.d**code.n
    kron = [densify_kron(g) for g in code.generators]
    for g, dg in zip(code.generators, kron):
        assert dense._monomial(g)[1].dtype == dtype
        assert np.abs(densify(g) - dg).max() <= 1e-12
    powers = [sum(np.linalg.matrix_power(dg, j) for j in range(code.d)) / code.d for dg in kron]
    h, basis = dense.hamiltonian(code), dense.codespace_basis(code)
    assert h.dtype == basis.dtype == dtype
    assert np.abs(h - sum(np.eye(dim) - p for p in powers)).max() <= 1e-12
    projector = functools.reduce(np.matmul, powers)  # onto the joint +1 eigenspace
    assert np.abs(basis @ basis.conj().T - projector).max() <= 1e-12


def test_detectability_slice_bounds_memory():
    # d^n = 1024 with K = 64 columns: X and Z on qubits 0-5 and on qubits 4-9
    halves = [[int(q in sites) for q in range(10)] for sites in (range(6), range(4, 10))]
    with pytest.warns(UserWarning, match="irregular left degrees"):
        code = build_code([PauliOp(2, 10, *pair) for h in halves for pair in ((h, [0] * 10), ([0] * 10, h))],
                          strict_degree=False)
    basis = dense.codespace_basis(code)
    assert basis.shape == (1024, 64)
    tracemalloc.start()
    try:
        report = dense.verify_detectability(code, rho=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"] and report["paulis_checked"] == 30
    # one slice's images of the basis (2 MiB) and the little work beside them;
    # all 30 weight-1 Paulis' images at once take 15 MiB, two slices 4 MiB
    bound = 2 * dense.SLICE_ENTRIES * basis.itemsize
    assert peak < bound, (peak, bound)


# --- one Hamiltonian and one eigh per code ------------------------------------

def test_cached_system_is_keyed_on_the_code():
    # two codes on the same (n, d) whose codespaces differ: <XX, ZZ> and <-XX, ZZ>
    plus = build_code([PauliOp(2, 2, [1, 1], [0, 0]), PauliOp(2, 2, [0, 0], [1, 1])])
    minus = build_code([PauliOp(2, 2, [1, 1], [0, 0], 1), PauliOp(2, 2, [0, 0], [1, 1])])
    for code in (plus, minus, plus, toric_code(2), minus):
        basis = dense.codespace_basis(code)
        assert np.linalg.norm(dense.hamiltonian(code) @ basis) < 1e-9  # a fresh, uncached H
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


def test_verify_builds_one_hamiltonian_and_one_eigh(tmp_path, monkeypatch):
    calls = {"hamiltonian": 0, "eigh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dense, "hamiltonian", counted("hamiltonian", dense.hamiltonian))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    for source in ("steane", "toric:2"):
        assert main(["verify", source, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == {"hamiltonian": 2, "eigh": 2}


def test_broken_codespace_dimension_exits_2(tmp_path, monkeypatch, capsys):
    # an explicit raise, not an assert, so the breach is caught under python -O too
    monkeypatch.setattr(dense, "hamiltonian", lambda code: np.eye(code.d**code.n, dtype=complex))
    assert main(["verify", "steane", "--out", str(tmp_path / "report.json")]) == 2
    assert "codespace dimension 0 != d^(n-rank) = 2" in capsys.readouterr().err
