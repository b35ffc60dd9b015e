"""Generalized n-qudit Pauli operators over prime dimension d.

An operator is stored in symplectic form: exponent vectors x, z in Z_d^n
plus a scalar phase exponent s in Z_d, representing

    w^s * (Z^{z_1} X^{x_1}) (x) ... (x) (Z^{z_n} X^{x_n}),   w = e^{2 pi i / d}.

The per-site normal ordering (Z left of X) fixes the product phase rule:
moving X^a past Z^b costs w^{-a*b}.  Weight, syndromes and group
membership are all insensitive to this convention choice; the dense
oracle pins it down exactly (the matrix of a*b is the product of a's and
b's matrices).

Qubit Y is represented as the product of X and Z with the phase tracked;
the scalar i is never materialized, so phase exponents stay in Z_d.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .fieldmath import check_prime, residues


def _as_vec(v, n: int, d: int) -> np.ndarray:
    a = residues(v, d)
    if a is v:
        a = a.copy()  # the caller's array must stay writable and apart
    if a.shape != (n,):
        raise ValueError(f"expected length-{n} vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class PauliOp:
    """Immutable symplectic Pauli; all operations are pure functions."""

    d: int
    n: int
    x: np.ndarray = field(compare=False)
    z: np.ndarray = field(compare=False)
    phase: int = 0

    def __post_init__(self):
        check_prime(self.d)
        if self.n < 0:
            raise ValueError("qudit count must be non-negative")
        object.__setattr__(self, "x", _as_vec(self.x, self.n, self.d))
        object.__setattr__(self, "z", _as_vec(self.z, self.n, self.d))
        phase = residues(self.phase, self.d)
        if phase.ndim:
            raise ValueError("a phase is one integer")
        object.__setattr__(self, "phase", int(phase))
        self.x.setflags(write=False)
        self.z.setflags(write=False)

    # --- constructors -------------------------------------------------
    @staticmethod
    def single(n: int, d: int, site: int, x: int, z: int, phase: int = 0) -> "PauliOp":
        if not 0 <= site < n:
            raise IndexError(f"site {site} out of range for n={n}")
        xv = np.zeros(n, dtype=np.int64)
        zv = np.zeros(n, dtype=np.int64)
        xv[site] = x % d
        zv[site] = z % d
        return PauliOp(d, n, xv, zv, phase)

    # --- basic queries ------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOp):
            return NotImplemented
        return (
            self.d == other.d
            and self.n == other.n
            and self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self):
        return hash((self.d, self.n, self.phase, self.x.tobytes(), self.z.tobytes()))

    def weight(self) -> int:
        """Number of sites where the operator is non-identity (phase-blind)."""
        return int(np.count_nonzero((self.x != 0) | (self.z != 0)))

    def support(self) -> list[int]:
        return np.nonzero((self.x != 0) | (self.z != 0))[0].tolist()

    def is_identity(self, up_to_phase: bool = False) -> bool:
        flat = not self.x.any() and not self.z.any()
        return flat if up_to_phase else (flat and self.phase == 0)

    def symplectic(self) -> np.ndarray:
        """Concatenated (x | z) vector in Z_d^{2n}."""
        return np.concatenate([self.x, self.z])

    # --- algebra ------------------------------------------------------
    def _check_compat(self, other: "PauliOp") -> None:
        if self.n != other.n or self.d != other.d:
            raise ValueError(
                f"incompatible operators: (n={self.n}, d={self.d}) vs (n={other.n}, d={other.d})"
            )

    def multiply(self, other: "PauliOp") -> "PauliOp":
        """Group product self * other (self applied after... matrix order self @ other)."""
        self._check_compat(other)
        # (Z^za X^xa)(Z^zb X^xb) = w^{-xa*zb} Z^{za+zb} X^{xa+xb} per site,
        # since X P = w^{-1} P X under the defining actions
        phase = (self.phase + other.phase - int(np.dot(self.x, other.z))) % self.d
        return PauliOp(self.d, self.n, (self.x + other.x) % self.d, (self.z + other.z) % self.d, phase)

    __mul__ = multiply

    # --- serialization ------------------------------------------------
    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "x": self.x.tolist(),
            "z": self.z.tolist(),
            "phase": self.phase,
        }

    @staticmethod
    def from_json(obj: dict) -> "PauliOp":
        d, n = operator.index(obj["d"]), operator.index(obj["n"])
        return PauliOp(d, n, obj["x"], obj["z"], obj.get("phase", 0))

    def __repr__(self):
        sites = []
        for i in self.support():
            sites.append(f"{i}:X^{self.x[i]}Z^{self.z[i]}")
        body = " ".join(sites) if sites else "I"
        return f"PauliOp(d={self.d}, n={self.n}, w^{self.phase} {body})"


def nonidentity_symbols(d: int) -> list[tuple[int, int]]:
    """The d^2-1 per-site non-identity (x, z) exponent pairs, lexicographic."""
    return [(x, z) for x in range(d) for z in range(d) if (x, z) != (0, 0)]
