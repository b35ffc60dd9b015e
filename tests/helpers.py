"""Test-only helpers: toric lattice paths and the dense energy identity.

The path helpers give edge sets on the toric lattice of qltc.zoo (see its
convention) and classify the string operators on them; the dense helpers
check the penalty/energy identity on the dense oracle's Hamiltonian.
"""

import numpy as np

from qltc.dense import TOL, _act, _energy, _system
from qltc.pauli import PauliOp
from qltc.stabilizer import StabilizerCode
from qltc.zoo import toric_edge_indices


def vertex_path_edges(L: int, vertices: list[tuple[int, int]]) -> list[int]:
    """Edge indices of a lattice path given as consecutive vertices."""
    h, v = toric_edge_indices(L)
    edges = []
    for (r0, c0), (r1, c1) in zip(vertices, vertices[1:]):
        dr = (r1 - r0) % L
        dc = (c1 - c0) % L
        if dr == 0 and dc == 1:
            edges.append(h(r0, c0))
        elif dr == 0 and dc == L - 1:
            edges.append(h(r0, c0 - 1))
        elif dc == 0 and dr == 1:
            edges.append(v(r0, c0))
        elif dc == 0 and dr == L - 1:
            edges.append(v(r0 - 1, c0))
        else:
            raise ValueError(f"vertices ({r0},{c0}) and ({r1},{c1}) are not adjacent")
    return edges


def random_open_path(L: int, length: int, rng: np.random.Generator) -> list[int]:
    """Simple (self-avoiding) open vertex path; returns its edge indices."""
    if length < 1:
        raise ValueError("length must be >= 1")
    for _ in range(200):
        r, c = int(rng.integers(L)), int(rng.integers(L))
        path = [(r, c)]
        seen = {(r, c)}
        for _ in range(length):
            moves = [(0, 1), (0, -1), (1, 0), (-1, 0)]
            rng.shuffle(moves)
            for dr, dc in moves:
                nxt = ((r + dr) % L, (c + dc) % L)
                if nxt not in seen:
                    path.append(nxt)
                    seen.add(nxt)
                    r, c = nxt
                    break
            else:
                break
        if len(path) == length + 1:
            return vertex_path_edges(L, path)
    raise RuntimeError(f"could not sample a simple path of length {length} on L={L}")


def rectangle_loop_edges(L: int, r0: int, c0: int, height: int, width: int) -> list[int]:
    """Boundary of a height x width rectangle of faces (contractible loop)."""
    if not (1 <= height < L and 1 <= width < L):
        raise ValueError("rectangle must be strictly smaller than the torus")
    h, v = toric_edge_indices(L)
    edges = []
    for c in range(width):
        edges.append(h(r0, c0 + c))
        edges.append(h(r0 + height, c0 + c))
    for r in range(height):
        edges.append(v(r0 + r, c0))
        edges.append(v(r0 + r, c0 + width))
    return edges


def wrap_loop_edges(L: int, index: int, direction: str) -> list[int]:
    """Non-contractible loop wrapping the torus (horizontal or vertical)."""
    h, v = toric_edge_indices(L)
    if direction == "horizontal":
        return [h(index, c) for c in range(L)]
    if direction == "vertical":
        return [v(r, index) for r in range(L)]
    raise ValueError(direction)


def classify_string(code: StabilizerCode, e: PauliOp) -> str:
    """Trichotomy: 'open' (violates checks), 'stabilizer', or 'logical'."""
    if code.is_error(e):
        return "open"
    return "stabilizer" if code.group_contains(e).in_span else "logical"


def displaced_codeword_energy(code: StabilizerCode, e: PauliOp, which: int = 0) -> float:
    """Mean energy of E|eta> for the which-th codespace basis vector.

    Independent of the choice of codeword (the syndrome fixes the
    eigenvalues); equals penalty(E)/m, which the test suite asserts.
    """
    h, basis = _system(code)
    state = _act(e, basis[:, which])
    state = state / np.linalg.norm(state)
    return _energy(state, h, code.m)


def verify_energy_identity(code: StabilizerCode, errors: list[PauliOp]) -> dict:
    """Check that the mean energy of E|eta> is penalty(E)/m for each error, all codewords."""
    h, basis = _system(code)
    max_dev = 0.0
    for e in errors:
        displaced = _act(e, basis)
        displaced /= np.linalg.norm(displaced, axis=0)
        expected = code.penalty(e) / code.m
        for state in displaced.T:
            max_dev = max(max_dev, abs(_energy(state, h, code.m) - expected))
    return {"errors_checked": len(errors), "max_deviation": max_dev, "passed": max_dev <= TOL}
