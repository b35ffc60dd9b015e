"""Stabilizer codes as validated generating sets.

A code is built from its m x 2n symplectic matrix (one row (x | z) per
generator) and the generators' phases; `build_code` stacks a list of
Pauli generators into that form.  Construction validates the Abelian
requirement, absence of a phase obstruction (so the codespace is
non-empty), uniform locality, degree regularity and absence of trivial
qudits, each with a specific diagnosis.  Every check runs on the
matrix's nonzero (generator, qudit) sites, so for k-local generators it
costs time in proportion to those sites, not to m x m or m x n.

Weight modulo the group, weight modulo the centralizer, distance and
succinctness are each one call of search.min_weight_vector: the least
weight of v with A v = t, where A is the syndrome map or the kernel of
A(G), with certified intervals when the budget runs out.  Membership
for weight purposes is scalar-insensitive (a member up to a
root-of-unity counts), since weight and commutation are phase-blind.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fieldmath import RowSpace, check_prime, modmul
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


class Sites(NamedTuple):
    """The nonzero (generator, qudit) sites of a symplectic matrix, by qudit, then generator.

    x, z are the exponents there; first[i] indexes the first site of
    qudit[i], so each qudit's sites run from first[i] in generator order.
    """

    row: np.ndarray
    qudit: np.ndarray
    x: np.ndarray
    z: np.ndarray
    first: np.ndarray

    @staticmethod
    def of(matrix: np.ndarray) -> "Sites":
        m, n = matrix.shape[0], matrix.shape[1] // 2
        rows, cols = np.nonzero(matrix)
        key = np.unique(cols % n * m + rows)
        qudit, row = np.divmod(key, m)
        first = np.searchsorted(qudit, qudit)
        return Sites(row, qudit, matrix[row, qudit], matrix[row, qudit + n], first)


def product_phase(sites: Sites, phases: np.ndarray, c: np.ndarray, d: int) -> int:
    """Phase exponent of g_0^{c_0} g_1^{c_1} ... g_{m-1}^{c_{m-1}}, in that order.

    sites and phases[i] = s_i describe the generators.  Each product moves
    an X past every later Z (PauliOp.multiply), so the phase is
    c.s - sum_i C(c_i, 2) x_i.z_i - sum_{i<j} c_i c_j x_i.z_j (mod d), and
    the last sum runs over pairs of generators at a shared qudit.
    """
    c = np.asarray(c, dtype=np.int64)
    cs = c[sites.row]
    own = cs * (cs - 1) // 2 % d * sites.x * sites.z
    a = cs * sites.x % d
    # the a of the earlier generators at the same qudit, summed
    earlier = np.cumsum(a) - a
    earlier -= earlier[sites.first]
    cross = earlier % d * (cs * sites.z % d)
    return int((c @ phases - own.sum() - cross.sum()) % d)


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

    def __init__(
        self, d: int, matrix: np.ndarray, phases: Sequence[int] | None = None,
        strict_degree: bool = True,
    ):
        """matrix is m x 2n, one row (x | z) per generator; phases default to 0.

        An int64 matrix whose entries already lie in [0, d) is kept, not
        copied, and made read-only, so the validated code cannot change.
        """
        check_prime(d)
        self.d = d
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] % 2:
            raise CodeValidationError("a symplectic matrix has one (x | z) row per generator")
        self.m, self.n = matrix.shape[0], matrix.shape[1] // 2
        if self.m == 0:
            raise CodeValidationError("empty generating set")
        if matrix.size and (matrix.min() < 0 or matrix.max() >= d):
            matrix = matrix % d
        matrix.setflags(write=False)
        self.symplectic_matrix = matrix  # m x 2n
        phases = np.zeros(self.m, dtype=np.int64) if phases is None else phases
        self._phases = np.asarray(phases, dtype=np.int64) % d
        if self._phases.shape != (self.m,):
            raise CodeValidationError(f"{self._phases.size} phases for {self.m} generators")
        self._sites = sites = Sites.of(self.symplectic_matrix)

        weights = np.bincount(sites.row, minlength=self.m)
        if np.any(weights != weights[0]):
            raise NonUniformLocalityError(weights.tolist())
        self.k = int(weights[0])
        if self.k == 0:
            raise CodeValidationError("identity generator")
        self._check_commutation()

        right_adj = sites.qudit[np.argsort(sites.row, kind="stable")].reshape(self.m, self.k)
        self.graph = BipartiteGraph(self.n, self.m, right_adj.tolist())
        degrees = [len(v) for v in self.graph.left_adj]
        if len(set(degrees)) != 1:
            if strict_degree:
                raise IrregularDegreeError(degrees)
            warnings.warn(f"irregular left degrees {sorted(set(degrees))}", stacklevel=2)
        self.D_L = self.graph.D_L  # None when irregular

        self._check_trivial_qudits()

        self.rowspace = RowSpace(self.symplectic_matrix, self.d)
        self.rank = self.rowspace.rank
        self._check_phase_obstruction()

        # syndrome map: syn(E)_g = <g, E> = g.z . E.x - g.x . E.z, held as
        # float64 so that modmul does not re-cast it on every penalty
        self.syndrome_matrix = np.empty((self.m, 2 * self.n))
        self.syndrome_matrix[:, : self.n] = matrix[:, self.n :]
        minus_x = self.syndrome_matrix[:, self.n :]
        np.negative(matrix[:, : self.n], out=minus_x)
        minus_x[minus_x < 0] += d

    @functools.cached_property
    def generators(self) -> list[PauliOp]:
        n = self.n
        return [PauliOp(self.d, n, row[:n], row[n:], int(s))
                for row, s in zip(self.symplectic_matrix, self._phases)]

    # --- validation helpers -------------------------------------------
    def _check_commutation(self):
        """Sum <g_a, g_b> over the qudits each pair shares; raise on the first bad pair (a < b)."""
        s, m = self._sites, self.m
        keys, values = [], []
        shift = 1
        while True:
            i = np.flatnonzero(s.qudit[shift:] == s.qudit[:-shift])
            if i.size == 0:
                break  # no qudit has more than `shift` generators
            j = i + shift
            keys.append(s.row[i] * m + s.row[j])
            values.append(s.z[i] * s.x[j] - s.x[i] * s.z[j])
            shift += 1
        if not keys:
            return
        keys, values = np.concatenate(keys), np.concatenate(values)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        bad = keys[starts][np.add.reduceat(values[order], starts) % self.d != 0]
        if bad.size:
            raise NonAbelianError(*(int(v) for v in divmod(int(bad[0]), m)))

    def _check_trivial_qudits(self):
        # restrictions at a qudit live in GF(d)^2, where the vectors that
        # commute with a nonzero one are its multiples: a qudit is trivial
        # iff its first generator commutes there with every other one
        s = self._sites
        witness = (s.x[s.first] * s.z - s.z[s.first] * s.x) % self.d != 0
        ok = np.zeros(self.n, dtype=bool)
        ok[s.qudit[witness]] = True
        if not ok.all():
            raise TrivialQuditError(int(np.argmin(ok)))

    def _check_phase_obstruction(self):
        # g^d is always a scalar; a non-zero phase there puts -I-like
        # elements in the group even without a GF(d) row dependency
        s = self._sites
        xz_own = np.bincount(s.row, weights=s.x * s.z % self.d, minlength=self.m)
        powers = np.nonzero(math.comb(self.d, 2) * xz_own.astype(np.int64) % self.d)[0]
        if powers.size:
            raise PhaseObstructionError([int(powers[0])])
        # phase of a dependent product is linear over the left nullspace
        # (commuting generators rearrange exactly), so a basis check suffices
        for c in self.rowspace.left_kernel:
            if product_phase(s, self._phases, c, self.d):
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
        dphase = (e.phase - product_phase(self._sites, self._phases, c, self.d)) % self.d
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
        supp = np.flatnonzero(v_e)  # kernel @ v_e over the columns where E acts
        target = modmul(kernel[:, supp], v_e[supp], self.d)
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
        return not np.any(gx.any(axis=1) & gz.any(axis=1))

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
        return build_code(gens, strict_degree=strict_degree)

    def save(self, path, meta: dict | None = None) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(meta), f, indent=1, sort_keys=True)

    @staticmethod
    def load(path, strict_degree: bool = False) -> "StabilizerCode":
        with open(path) as f:
            return StabilizerCode.from_json(json.load(f), strict_degree=strict_degree)


def build_code(generators: Sequence[PauliOp], strict_degree: bool = True) -> StabilizerCode:
    """Validate a generating set and return the code (see class docs)."""
    if not generators:
        raise CodeValidationError("empty generating set")
    d, n = generators[0].d, generators[0].n
    if any(g.n != n or g.d != d for g in generators):
        raise CodeValidationError("generators with mixed (n, d)")
    matrix = np.stack([g.symplectic() for g in generators])
    return StabilizerCode(d, matrix, [g.phase for g in generators], strict_degree=strict_degree)
