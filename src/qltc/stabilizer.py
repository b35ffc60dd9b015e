"""Stabilizer codes as validated generating sets.

A code is held as the nonzero (generator, qudit) sites of its m x 2n
symplectic map (fieldmath.Sites, one row (x | z) per generator) and the
generators' phases: the builders in `zoo` emit sites, and a dense matrix
(`build_code` stacks a list of Pauli generators into one) is read into
sites once.  Construction validates the Abelian requirement, absence of a
phase obstruction (no product of generators is a non-identity scalar,
which the row-space elimination finds, so the codespace is non-empty),
uniform locality, degree regularity and absence of trivial qudits, each
with a specific diagnosis: a subclass of `CodeValidationError` (defined in
`fieldmath` and re-exported here), which is the CLI's bad input and also a
`ValueError`; so is a code file that is not UTF-8 JSON or holds a
malformed generator.  Every check runs on the sites, so for k-local
generators it costs time in proportion to them, not to m x m or m x n.
The row space (fieldmath.RowSpace: rank, pivots and the 2k' logicals, k'
= n - rank) is eliminated from the sites on its first read, and the build
reads it at once only when a product of generators could be a scalar
other than 1: when some phase is nonzero or some generator has both x and
z entries.  A CSS code with zero phases has no such product (pure-x rows
multiply to pure-x rows of phase 0, and likewise for z), so its
elimination waits for the first reader of rank, the logicals or
membership; a job that reads only syndromes (an attack) never
eliminates.  Commutation is one call of fieldmath.Sites.pairs, and so is
the logicals' certificate, in RowSpace; a logical that fails raises
ValueError (an internal fault).  The syndrome map, rows (z | -x), is held
as its Sites: single syndromes, penalties and the searches read them, and
the dense syndrome_matrix that syndrome_batch reads, like the dense
symplectic_matrix that generators reads, is scattered from them on first
use.

A word lies in A(G) iff its syndrome and its products with the logicals
vanish, so the syndrome map with the logicals below it, RowSpace.map, has
one image on each coset of A(G).  Weight modulo the group, weight modulo
the centralizer, distance and succinctness are each one call of
search.min_weight_vector: the least weight of v with A v = t, where A
is the syndrome map or RowSpace.map (the distance filters by the
logicals), with certified intervals when the budget runs out.  The
weight modulo the centralizer first packs E's violated generators
(_packing): any word with E's syndrome acts on each of a set of violated
generators with pairwise disjoint supports, so their number is a lower
bound, which certifies wt(E) with no search when the two are equal.
Membership for weight purposes is scalar-insensitive (a member up to a
root-of-unity counts), since weight and commutation are phase-blind.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fieldmath import (
    CodeValidationError, RowSpace, Sites, check_prime, modmul, residue_dtype, residues,
)
from .graphs import BipartiteGraph
from .pauli import PauliOp
from .search import SearchResult, min_weight_vector, pure_symbols


class NonAbelianError(CodeValidationError):
    def __init__(self, g: int, h: int):
        self.pair = (g, h)
        super().__init__(f"generators {g} and {h} do not commute")


class PhaseObstructionError(CodeValidationError):
    def __init__(self, generator: int):
        self.generator = generator
        super().__init__(
            f"a product of generators with generator {generator} is a non-identity scalar"
            " (codespace empty)"
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


class StabilizerCode:
    """Validated stabilizer code with cached symplectic data.

    Immutable after construction, apart from views cached on their first
    read (rowspace, symplectic_matrix, syndrome_matrix, generators), each
    a function of the validated sites and phases, so two workers that read
    one at once build the same value; safe to share across workers.
    """

    def __init__(
        self, d: int, matrix: Sites | np.ndarray, phases: Sequence[int] | None = None,
        strict_degree: bool = True, symmetries: Sequence = (),
    ):
        """matrix is m x 2n, one row (x | z) per generator; phases default to 0;
        symmetries are qudit permutations that map the supports onto themselves
        (toric_code's translations), checked before a scan uses them.

        The builders pass its Sites, residues at distinct nonzero sites,
        which the code holds as they are.  A dense matrix is reduced into
        residue_dtype(d) (uint8 below 256, uint16 above): one of that type
        whose entries already lie in [0, d) is kept, not copied, and held
        read-only as symplectic_matrix, so the validated code cannot
        change; any other integer matrix is reduced into a new one.  Its
        sites are then read once, by Sites.of.  A non-integer exponent or
        phase is refused.
        """
        check_prime(d)
        self.d = d
        self.symmetries = tuple(symmetries)
        try:
            dense = None if isinstance(matrix, Sites) else residues(matrix, d, residue_dtype(d))
            phases = None if phases is None else residues(phases, d).copy()
        except ValueError as exc:
            raise CodeValidationError(str(exc)) from None
        if dense is not None:
            if dense.ndim != 2 or dense.shape[1] % 2:
                raise CodeValidationError("a symplectic matrix has one (x | z) row per generator")
            dense.setflags(write=False)
            self.symplectic_matrix = dense  # m x 2n
            matrix = Sites.of(dense)
        self.m, self.n = matrix.shape[0], matrix.shape[1] // 2
        if self.m == 0:
            raise CodeValidationError("empty generating set")
        self._phases = np.zeros(self.m, dtype=np.int64) if phases is None else phases
        if self._phases.shape != (self.m,):
            raise CodeValidationError(f"{self._phases.size} phases for {self.m} generators")
        self._sites = sites = matrix
        # the syndrome map syn(E)_g = <g, E> = g.z . E.x - g.x . E.z, rows (z | -x)
        self._syndrome_map = sites._replace(x=sites.z, z=-sites.x % d)

        weights = np.bincount(sites.row, minlength=self.m)
        if np.any(weights != weights[0]):
            raise NonUniformLocalityError(weights.tolist())
        self.k = int(weights[0])
        if self.k == 0:
            raise CodeValidationError("identity generator")
        a, b, _ = sites.pairs(d)  # <g_a, g_b> over the qudits they share, a < b
        if a.size:
            raise NonAbelianError(int(a[0]), int(b[0]))

        right_adj = sites.qudit[np.argsort(sites.row, kind="stable")].reshape(self.m, self.k)
        self.graph = BipartiteGraph(self.n, self.m, right_adj.tolist())
        self.D_L = self.graph.D_L  # None when irregular
        if self.D_L is None:
            degrees = sorted({len(v) for v in self.graph.left_adj})
            if strict_degree:
                raise IrregularDegreeError(degrees)
            warnings.warn(f"irregular left degrees {degrees}", stacklevel=2)

        self._check_trivial_qudits()
        self._check_odd_x_dot_z()
        if self._phases.any() or not self.is_css():
            self.rowspace  # a product of generators may be a scalar other than 1: find it now

    @functools.cached_property
    def rowspace(self) -> RowSpace:
        """The row space of the generators, from one elimination on first read.

        Raises PhaseObstructionError when a product of generators is a
        scalar other than 1, and ValueError (an internal fault) unless
        RowSpace certifies its logicals.
        """
        rowspace = RowSpace(self._sites, self.d, self._phases)
        if rowspace.obstruction is not None:
            raise PhaseObstructionError(rowspace.obstruction)
        return rowspace

    @property
    def rank(self) -> int:
        return self.rowspace.rank

    @functools.cached_property
    def symplectic_matrix(self) -> np.ndarray:
        """The generators as dense rows (x | z) in residue_dtype(d), read-only.

        The dense matrix the code was given, else scattered from the sites
        on first use; only generators (and so to_json) reads it.
        """
        return _dense(self._sites, self.d)

    @functools.cached_property
    def syndrome_matrix(self) -> np.ndarray:
        """The syndrome map as dense rows (z | -x) in residue_dtype(d), scattered from its sites.

        Built on first use, and only syndrome_batch reads it (modmul casts it
        to the float type its BLAS product needs); single syndromes, the
        searches and the island trials read the sites.
        """
        return _dense(self._syndrome_map, self.d)

    @functools.cached_property
    def generators(self) -> list[PauliOp]:
        n = self.n
        return [PauliOp(self.d, n, row[:n], row[n:], int(s))
                for row, s in zip(self.symplectic_matrix, self._phases)]

    # --- validation helpers -------------------------------------------
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

    def _check_odd_x_dot_z(self):
        # g^d = w^{-C(d, 2) x.z} I, and C(d, 2) = 0 mod every odd d: so only at
        # d = 2 can a generator be a root of -I, when x.z is odd
        if self.d == 2:
            s = self._sites
            odd = np.flatnonzero(np.bincount(s.row, weights=s.x & s.z, minlength=self.m) % 2)
            if odd.size:
                raise PhaseObstructionError(int(odd[0]))

    # --- syndromes -----------------------------------------------------
    def syndrome(self, e: PauliOp) -> np.ndarray:
        """Per-generator symplectic products; zero vector iff E centralizes.

        E's image under the syndrome map, summed over its sites where E acts.
        """
        return self._image(self._syndrome_map, e)

    def _image(self, sites: Sites, e: PauliOp) -> np.ndarray:
        if e.n != self.n or e.d != self.d:
            raise ValueError("operator does not match code dimensions")
        return sites.image(e.x, e.z, self.d)

    def syndrome_batch(self, vs: np.ndarray) -> np.ndarray:
        return modmul(vs, self.syndrome_matrix.T, self.d)

    def penalty(self, e: PauliOp) -> int:
        """Number of generators that do not commute with E."""
        return int(np.count_nonzero(self.syndrome(e)))

    # --- membership ----------------------------------------------------
    def in_span(self, v: np.ndarray) -> bool:
        """Scalar-insensitive membership of a symplectic vector in A(G)."""
        return bool(self.rowspace.contains_batch(np.asarray(v)[None, :])[0])

    # --- weight searches -----------------------------------------------
    def wt_mod_centralizer(self, e: PauliOp, budget: int | None = None) -> BoundedWeight:
        """min weight of any Pauli with the same syndrome as E.

        F is in E*Z(G) iff syndrome(F) == syndrome(E).  E itself certifies
        the top, and the packing of E's violated generators the bottom: when
        the two meet, wt(E) is exact with no search.  Otherwise the search,
        capped at wt(E)-1, runs, and its low end is raised to the packing.
        """
        target = self.syndrome(e)
        if not np.any(target):
            return BoundedWeight.exactly(0)
        w_e = e.weight()
        packed = self._packing(target)
        if packed == w_e:
            return BoundedWeight.exactly(w_e)
        res = min_weight_vector(
            self.n, self.d, w_e - 1, self._syndrome_map, target, budget=budget
        )
        found = self._bounded_from_search(res, w_e)
        return BoundedWeight(max(found.low, packed), found.high)

    def _packing(self, syndrome: np.ndarray) -> int:
        """Size of a set of violated generators with pairwise disjoint supports.

        The violated generators are walked in index order, and each one whose
        support misses the supports kept so far is kept.  A word with this
        syndrome acts on some qudit of every kept support, so its weight is at
        least their number.
        """
        used = bytearray(self.n)
        kept = 0
        for g in np.flatnonzero(syndrome).tolist():
            support = self.graph.right_adj[g]
            if not any(used[q] for q in support):
                for q in support:
                    used[q] = 1
                kept += 1
        return kept

    def wt_mod_group(self, e: PauliOp, budget: int | None = None) -> BoundedWeight:
        """min weight of F with F*E^{-1} in A(G), scalar-insensitive.

        F*E^{-1} is in A(G) iff F and E have one image under RowSpace.map:
        one syndrome and equal products with the logicals.  Image zero
        means E itself is in A(G).
        """
        group = self.rowspace.map
        target = self._image(group, e)
        if not target.any():
            return BoundedWeight.exactly(0)
        w_e = e.weight()
        res = min_weight_vector(self.n, self.d, w_e - 1, group, target, budget=budget)
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
        """True iff no generator has both x and z entries, read off the sites."""
        s = self._sites
        has_x, has_z = np.zeros((2, self.m), dtype=bool)
        has_x[s.row[s.x != 0]] = True
        has_z[s.row[s.z != 0]] = True
        return not np.any(has_x & has_z)

    def code_distance(self, budget: int | None = None, w_max: int | None = None) -> BoundedWeight:
        """Minimum weight of a logical: zero syndrome but outside the span.

        For CSS codes the X-type and Z-type word searches run in lockstep
        (a minimum-weight logical can be taken single-type); validated
        against the generic search on small instances in the test suite.
        """
        symbol_sets = (
            (pure_symbols(self.d, "x"), pure_symbols(self.d, "z")) if self.is_css() else (None,)
        )
        res = min_weight_vector(
            self.n, self.d, self.n if w_max is None else w_max, self._syndrome_map, np.zeros(self.m),
            nonzero=self.rowspace.logical_sites, budget=budget, symbol_sets=symbol_sets,
        )
        if res.found_weight is not None:
            return BoundedWeight.exactly(res.found_weight)
        return BoundedWeight(res.exhausted_weight + 1, None)

    def is_succinct(self, budget: int | None = None) -> bool | None:
        """True iff A(G) has no non-identity element of weight < k.

        None when the budget runs out before the search is complete.  The
        members of A(G) are the words of image zero under RowSpace.map; a
        member is fixed by its pivot coordinates, so those tell it from the
        identity.  A code has k >= 2: a weight-1 generating set is refused,
        by its commutation or its trivial qudits.
        """
        group = self.rowspace.map
        res = min_weight_vector(
            self.n, self.d, self.k - 1, group, np.zeros(group.shape[0]),
            nonzero=self._pivot_filter(), budget=budget,
        )
        if res.found_weight is not None:
            return False
        return None if res.budget_hit else True

    def _pivot_filter(self) -> Sites:
        """The pivot coordinates as a map: row i is 1 at column pivots[i], read off no matrix."""
        pivots = np.asarray(self.rowspace.pivots, dtype=np.int64)
        x = pivots < self.n
        return Sites.at(np.arange(self.rank), pivots % self.n, x, ~x, (self.rank, 2 * self.n))

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
    def from_json(obj: dict) -> "StabilizerCode":
        if not isinstance(obj, dict) or not isinstance(obj.get("generators"), list):
            raise CodeValidationError("a code must be a JSON object with a list of generators")
        if not all(isinstance(g, dict) for g in obj["generators"]):
            raise CodeValidationError("every generator must be a JSON object")
        try:
            gens = [PauliOp.from_json(g) for g in obj["generators"]]
        except (TypeError, ValueError, KeyError) as exc:  # e.g. 1.5 for an integer, or no "x"
            raise CodeValidationError(f"malformed generator: {exc}") from exc
        return build_code(gens, strict_degree=False)

    def save(self, path, meta: dict | None = None) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(meta), f, indent=1, sort_keys=True)

    @staticmethod
    def load(path) -> "StabilizerCode":
        with open(path) as f:
            try:
                obj = json.load(f)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # not UTF-8 JSON
                raise CodeValidationError(str(exc)) from exc
        return StabilizerCode.from_json(obj)


def _dense(sites: Sites, d: int) -> np.ndarray:
    """The m x 2n map of sites, each of whose rows has a site, read-only in residue_dtype(d)."""
    out = sites.block(np.arange(sites.shape[1] // 2), residue_dtype(d))[1]
    out.setflags(write=False)
    return out


def build_code(generators: Sequence[PauliOp], strict_degree: bool = True) -> StabilizerCode:
    """Validate a generating set and return the code (see class docs)."""
    if not generators:
        raise CodeValidationError("empty generating set")
    d, n = generators[0].d, generators[0].n
    if any(g.n != n or g.d != d for g in generators):
        raise CodeValidationError("generators with mixed (n, d)")
    matrix = np.array([g.symplectic() for g in generators], dtype=residue_dtype(d))
    return StabilizerCode(d, matrix, [g.phase for g in generators], strict_degree=strict_degree)
