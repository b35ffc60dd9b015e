"""Stabilizer codes as validated generating sets.

A code is built from a list of commuting Pauli generators; construction
validates the Abelian requirement, absence of a phase obstruction (so the
codespace is non-empty), uniform locality, degree regularity and absence
of trivial qudits, each with a specific diagnosis.

Weight modulo the group, weight modulo the centralizer, distance and
succinctness are each one call of search.min_weight_vector: the least
weight of v with A v = t, where A is the syndrome map or the kernel of
A(G), with certified intervals when the budget runs out.  Membership
for weight purposes is scalar-insensitive (a member up to a
root-of-unity counts), since weight and commutation are phase-blind.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fieldmath import RowSpace, modmul
from .graphs import BipartiteGraph
from .pauli import PauliOp
from .search import SearchResult, min_weight_vector, pure_symbols


class CodeValidationError(ValueError):
    pass


class NonAbelianError(CodeValidationError):
    def __init__(self, g: int, h: int):
        self.pair = (g, h)
        super().__init__(f"generators {g} and {h} do not commute")


class PhaseObstructionError(CodeValidationError):
    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        super().__init__(
            f"dependent generator product has non-zero phase (codespace empty); coefficients {self.coeffs}"
        )


class NonUniformLocalityError(CodeValidationError):
    def __init__(self, weights):
        super().__init__(f"generator weights are not uniform: {sorted(set(weights))}")


class IrregularDegreeError(CodeValidationError):
    def __init__(self, degrees):
        super().__init__(f"qudit degrees are not uniform: {sorted(set(degrees))}")


class TrivialQuditError(CodeValidationError):
    def __init__(self, q: int):
        self.qudit = q
        super().__init__(f"qudit {q} has no pair of generators with non-commuting restrictions")


def product_phase(xz: np.ndarray, phases: np.ndarray, c: np.ndarray, d: int) -> int:
    """Phase exponent of g_0^{c_0} g_1^{c_1} ... g_{m-1}^{c_{m-1}}, in that order.

    xz[i, j] = x_i . z_j and phases[i] = s_i describe the generators.  Each
    product moves an X past every later Z (PauliOp.multiply), so the phase
    is c.s - C(c,2).diag(xz) - c.triu(xz, 1).c (mod d).
    """
    supp = np.nonzero(c)[0]
    c = np.asarray(c, dtype=np.int64)[supp]
    xz = xz[np.ix_(supp, supp)]
    phase = c @ phases[supp] - (c * (c - 1) // 2) @ np.diag(xz) - c @ (np.triu(xz, 1) @ c % d)
    return int(phase % d)


@dataclass(frozen=True)
class BoundedWeight:
    """Exact weight (low == high) or a certified interval.

    high=None means unbounded above (search lower bounds only).
    """

    low: int
    high: int | None

    @staticmethod
    def exactly(w: int) -> "BoundedWeight":
        return BoundedWeight(w, w)

    @property
    def exact(self) -> bool:
        return self.high == self.low

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError(f"not an exact weight: {self}")
        return self.low

    def to_json(self) -> dict:
        if self.exact:
            return {"kind": "exact", "value": self.low}
        return {"kind": "interval", "low": self.low, "high": self.high}


@dataclass(frozen=True)
class GroupMembership:
    """Result of a group-membership query.

    status: 'member' (phase-exact), 'phase_mismatch' (member up to a
    scalar), or 'not_in_span'.  coefficients is the certificate c with
    prod_i g_i^{c_i} matching E (up to the stated scalar precision).
    """

    status: str
    coefficients: np.ndarray | None = None
    phase_difference: int | None = None

    @property
    def in_span(self) -> bool:
        return self.status in ("member", "phase_mismatch")


class StabilizerCode:
    """Validated stabilizer code with cached symplectic data.

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, generators: Sequence[PauliOp], strict_degree: bool = True):
        if not generators:
            raise CodeValidationError("empty generating set")
        g0 = generators[0]
        self.n, self.d = g0.n, g0.d
        for g in generators:
            if g.n != self.n or g.d != self.d:
                raise CodeValidationError("generators with mixed (n, d)")
        self.generators = list(generators)
        self.m = len(self.generators)

        weights = [g.weight() for g in self.generators]
        if len(set(weights)) != 1:
            raise NonUniformLocalityError(weights)
        self.k = weights[0]
        if self.k == 0:
            raise CodeValidationError("identity generator")

        gx = np.stack([g.x for g in self.generators])
        gz = np.stack([g.z for g in self.generators])
        self.symplectic_matrix = np.concatenate([gx, gz], axis=1)  # m x 2n
        # xz[i, j] = x_i . z_j gives commutation and every product phase
        self._xz = modmul(gx, gz.T, self.d)
        self._phases = np.array([g.phase for g in self.generators], dtype=np.int64)
        bad = np.argwhere((self._xz.T - self._xz) % self.d != 0)
        if bad.size:
            raise NonAbelianError(int(bad[0, 0]), int(bad[0, 1]))

        self.graph = BipartiteGraph(self.n, self.m, [g.support() for g in self.generators])
        degrees = [len(v) for v in self.graph.left_adj]
        if len(set(degrees)) != 1:
            if strict_degree:
                raise IrregularDegreeError(degrees)
            warnings.warn(f"irregular left degrees {sorted(set(degrees))}", stacklevel=2)
        self.D_L = self.graph.D_L  # None when irregular

        self._check_trivial_qudits(gx, gz)

        self.rowspace = RowSpace(self.symplectic_matrix, self.d)
        self.rank = self.rowspace.rank
        self._check_phase_obstruction()

        # syndrome map: syn(E)_g = <g, E> = g.z . E.x - g.x . E.z, held as
        # float64 so that modmul does not re-cast it on every penalty
        self.syndrome_matrix = np.concatenate([gz, -gx % self.d], axis=1).astype(np.float64)

    # --- validation helpers -------------------------------------------
    def _check_trivial_qudits(self, gx, gz):
        for q in range(self.n):
            acting = self.graph.left_adj[q]
            ok = False
            for i in range(len(acting)):
                for j in range(i + 1, len(acting)):
                    a, b = acting[i], acting[j]
                    s = (gx[a, q] * gz[b, q] - gz[a, q] * gx[b, q]) % self.d
                    if s != 0:
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                raise TrivialQuditError(q)

    def _check_phase_obstruction(self):
        # g^d is always a scalar; a non-zero phase there puts -I-like
        # elements in the group even without a GF(d) row dependency
        powers = np.nonzero(math.comb(self.d, 2) * np.diag(self._xz) % self.d)[0]
        if powers.size:
            raise PhaseObstructionError([int(powers[0])])
        # phase of a dependent product is linear over the left nullspace
        # (commuting generators rearrange exactly), so a basis check suffices
        for c in self.rowspace.left_kernel:
            if product_phase(self._xz, self._phases, c, self.d):
                raise PhaseObstructionError(c)

    # --- syndromes -----------------------------------------------------
    def syndrome(self, e: PauliOp) -> np.ndarray:
        """Per-generator symplectic products; zero vector iff E centralizes."""
        if e.n != self.n or e.d != self.d:
            raise ValueError("operator does not match code dimensions")
        return modmul(self.syndrome_matrix, e.symplectic(), self.d)

    def syndrome_batch(self, vs: np.ndarray) -> np.ndarray:
        return modmul(vs, self.syndrome_matrix.T, self.d)

    def penalty(self, e: PauliOp) -> int:
        """Number of generators that do not commute with E."""
        return int(np.count_nonzero(self.syndrome(e)))

    def is_error(self, e: PauliOp) -> bool:
        return bool(np.any(self.syndrome(e)))

    # --- group membership ----------------------------------------------
    def group_contains(self, e: PauliOp) -> GroupMembership:
        """Solve for E as a product of generators and compare the product's phase."""
        if e.n != self.n or e.d != self.d:
            raise ValueError("operator does not match code dimensions")
        c = self.rowspace.coefficients(e.symplectic())
        if c is None:
            return GroupMembership("not_in_span")
        dphase = (e.phase - product_phase(self._xz, self._phases, c, self.d)) % self.d
        if dphase == 0:
            return GroupMembership("member", c, 0)
        return GroupMembership("phase_mismatch", c, dphase)

    def in_span(self, v: np.ndarray) -> bool:
        """Scalar-insensitive membership of a symplectic vector in A(G)."""
        return self.rowspace.contains(v)

    # --- weight searches -----------------------------------------------
    def wt_mod_centralizer(self, e: PauliOp, budget: int | None = None) -> BoundedWeight:
        """min weight of any Pauli with the same syndrome as E.

        F is in E*Z(G) iff syndrome(F) == syndrome(E); the search is capped
        at wt(E)-1 (E itself certifies the top).
        """
        target = self.syndrome(e)
        if not np.any(target):
            return BoundedWeight.exactly(0)
        w_e = e.weight()
        res = min_weight_vector(
            self.n, self.d, w_e - 1, self.syndrome_matrix, target, budget=budget
        )
        return self._bounded_from_search(res, w_e)

    def wt_mod_group(self, e: PauliOp, budget: int | None = None) -> BoundedWeight:
        """min weight of F with F*E^{-1} in A(G), scalar-insensitive.

        F*E^{-1} is in A(G) iff kernel @ v_F == kernel @ v_E, kernel being a
        basis of the vectors orthogonal to A(G).
        """
        v_e = e.symplectic()
        if self.in_span(v_e):
            return BoundedWeight.exactly(0)
        w_e = e.weight()
        kernel = self.rowspace.kernel
        target = modmul(kernel, v_e, self.d)
        res = min_weight_vector(self.n, self.d, w_e - 1, kernel, target, budget=budget)
        return self._bounded_from_search(res, w_e)

    @staticmethod
    def _bounded_from_search(res: SearchResult, w_e: int) -> BoundedWeight:
        if res.found_weight is not None:
            return BoundedWeight.exactly(res.found_weight)
        if res.budget_hit:
            return BoundedWeight(res.exhausted_weight + 1, w_e)
        return BoundedWeight.exactly(w_e)  # all lower weights exhausted

    # --- distance & succinctness ---------------------------------------
    def is_css(self) -> bool:
        gx = self.symplectic_matrix[:, : self.n]
        gz = self.symplectic_matrix[:, self.n :]
        return all(not (gx[i].any() and gz[i].any()) for i in range(self.m))

    def code_distance(
        self, budget: int | None = None, use_css: bool | None = None, w_max: int | None = None
    ) -> BoundedWeight:
        """Minimum weight of a logical: zero syndrome but outside the span.

        For CSS codes the X-type and Z-type word searches run in lockstep
        (a minimum-weight logical can be taken single-type); validated
        against the generic path on small instances in the test suite.
        """
        if use_css is None:
            use_css = self.is_css()
        symbol_sets = (
            (pure_symbols(self.d, "x"), pure_symbols(self.d, "z")) if use_css else (None,)
        )
        res = min_weight_vector(
            self.n, self.d, w_max or self.n, self.syndrome_matrix, np.zeros(self.m),
            nonzero=self.rowspace.kernel, budget=budget, symbol_sets=symbol_sets,
        )
        if res.found_weight is not None:
            return BoundedWeight.exactly(res.found_weight)
        return BoundedWeight(res.exhausted_weight + 1, None)

    def is_succinct(self, budget: int | None = None) -> bool | None:
        """True iff A(G) has no non-identity element of weight < k.

        None when the budget runs out before the search is complete.  A
        member of A(G) is fixed by its pivot coordinates, so those tell it
        from the identity.
        """
        if self.k <= 1:
            return True
        kernel = self.rowspace.kernel
        pivots = np.eye(2 * self.n, dtype=np.int64)[self.rowspace.pivots]
        res = min_weight_vector(
            self.n, self.d, self.k - 1, kernel, np.zeros(kernel.shape[0]),
            nonzero=pivots, budget=budget,
        )
        if res.found_weight is not None:
            return False
        return None if res.budget_hit else True

    # --- serialization --------------------------------------------------
    def to_json(self, meta: dict | None = None) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "k": self.k,
            "generators": [g.to_json() for g in self.generators],
            "meta": meta or {},
        }

    @staticmethod
    def from_json(obj: dict, strict_degree: bool = False) -> "StabilizerCode":
        if not isinstance(obj, dict) or not isinstance(obj.get("generators"), list):
            raise CodeValidationError("a code must be a JSON object with a list of generators")
        if not all(isinstance(g, dict) for g in obj["generators"]):
            raise CodeValidationError("every generator must be a JSON object")
        try:
            gens = [PauliOp.from_json(g) for g in obj["generators"]]
        except TypeError as exc:  # e.g. null or a list where a number belongs
            raise CodeValidationError(f"malformed generator: {exc}") from exc
        return StabilizerCode(gens, strict_degree=strict_degree)

    def save(self, path, meta: dict | None = None) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(meta), f, indent=1, sort_keys=True)

    @staticmethod
    def load(path, strict_degree: bool = False) -> "StabilizerCode":
        with open(path) as f:
            return StabilizerCode.from_json(json.load(f), strict_degree=strict_degree)


def build_code(generators: Sequence[PauliOp], strict_degree: bool = True) -> StabilizerCode:
    """Validate a generating set and return the code (see class docs)."""
    return StabilizerCode(generators, strict_degree=strict_degree)
