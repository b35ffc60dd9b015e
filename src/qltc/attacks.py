"""Adversarial low-soundness error constructions and the exhaustive oracle.

Three constructions drive the upper bounds on relative soundness r(delta):

* expander attack: single-qudit restrictions of a 1-independent constraint
  set, each placed on the qudit with the fewest multi-intersecting checks;
  achieves r <= 2*eps when small sets expand with error eps < 1/2.
* alphabet attack: majority restriction per chosen qudit; achieves
  r <= alpha(d) = 1 - 1/(d^2 - 1) for delta <= 1/(k^3 D_L).
* island attack: random sparse error on the neighborhood of a
  k-independent set, drawn from numpy's Philox streams without
  numpy.random; statistics compared against the binomial model and the
  expected-penalty bound p*alpha*|S|*D_L*(1 - p*alpha*eps').

The soundness profile enumerates all errors up to a coset-weight cap and
records the exact minimum penalty per coset weight (penalty and coset
weight are both functions of the syndrome alone).

An attack whose precondition does not hold, and a profile past
PROFILE_GUARD words, raise Refusal (from graphs): an in-band refusal.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .fieldmath import modmul, residue_dtype
from .graphs import Refusal
from .pauli import PauliOp
from .search import candidate_batches, candidates_at_weight, key_powers, key_weights, row_keys
from .stabilizer import BoundedWeight, StabilizerCode

# lanes (island trials x Philox blocks of their uniforms) drawn and evaluated
# together: it bounds the kernel's uint64 temporaries, the uniforms and the
# products of the trials scored, whatever |S|.  4000 trials in process on 2
# cores, one BLAS thread, median of 9 in each of 5 rounds: toric:16 (|S| = 8)
# 4.3-5.8 ms at a 1.3 MiB tracemalloc peak, 5.0-7.3 ms at 0.9 MiB at 4096;
# toric:40 (|S| = 72) 48-54 ms at 3.0 MiB, 36-50 ms at 5.4 MiB at 16384
TRIAL_CHUNK = 8192
# most island trials a CLI run may ask for: about 1 s on toric:16 on 2 cores
TRIAL_GUARD = 1_000_000
# most words a soundness profile may enumerate
PROFILE_GUARD = 20_000_000
# least keys the profile sorts and looks up at once: a toric:3 profile at
# cap 4 takes 42-43 ms at 2**16 against 54-56 ms when each 8192-row batch
# was one lookup (in process, one BLAS thread, 2 cores)
PROFILE_CHUNK = 1 << 16


class NotAnErrorError(Refusal):
    """The operator commutes with every generator; r is undefined for it."""


def alphabet_t(d: int) -> float:
    return 1.0 / (d * d - 1)


def alphabet_alpha(d: int) -> float:
    return 1.0 - alphabet_t(d)


def alphabet_delta_cap(code: StabilizerCode) -> float | None:
    """1/(k^3 D_L), the largest delta for which alpha(d) bounds the alphabet
    attack's r; None when the code has no single left degree D_L, since the
    bound counts n*D_L = m*k."""
    return None if code.D_L is None else 1.0 / (code.k**3 * code.D_L)


@dataclass(frozen=True)
class AttackReport:
    """Evaluation of one error against one code.

    delta is derived from the coset weight (weight modulo the
    centralizer); when that weight is interval-valued, r is an interval
    and the pessimistic end (largest r, weakest attack) should be used in
    any inequality check.
    """

    error: PauliOp
    weight: int
    wt_mod_group: BoundedWeight
    wt_mod_centralizer: BoundedWeight
    penalty: int
    m: int
    k: int
    n: int
    D_L: int | None
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def R(self) -> float:
        return self.penalty / self.m

    @property
    def raw_delta(self) -> float:
        return self.weight / self.n

    @property
    def delta_low(self) -> float:
        return self.wt_mod_centralizer.low / self.n

    @property
    def delta_high(self) -> float:
        return self.wt_mod_centralizer.high / self.n

    def _r_at(self, delta: float) -> float:
        return self.R / min(self.k * delta, 1.0)

    @property
    def r_pessimistic(self) -> float:
        """Largest consistent r (uses the smallest consistent coset weight)."""
        return self._r_at(self.delta_low)

    @property
    def r_optimistic(self) -> float:
        return self._r_at(self.delta_high)

    @property
    def r(self) -> float:
        if not self.wt_mod_centralizer.exact:
            raise ValueError("r is interval-valued; use r_pessimistic/r_optimistic")
        return self.r_pessimistic

    def to_json(self) -> dict:
        exact = self.wt_mod_centralizer.exact
        return {
            "error": self.error.to_json(),
            "weight": {"kind": "exact", "value": self.weight},
            "wt_mod_group": self.wt_mod_group.to_json(),
            "wt_mod_centralizer": self.wt_mod_centralizer.to_json(),
            "penalty": {"kind": "exact", "value": self.penalty},
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "D_L": self.D_L,
            "R": {"kind": "exact", "value": self.R},
            "raw_delta": {"kind": "exact", "value": self.raw_delta},
            "delta": (
                {"kind": "exact", "value": self.delta_low}
                if exact
                else {"kind": "interval", "low": self.delta_low, "high": self.delta_high}
            ),
            "r": (
                {"kind": "exact", "value": self.r_pessimistic}
                if exact
                else {
                    "kind": "interval",
                    "pessimistic": self.r_pessimistic,
                    "optimistic": self.r_optimistic,
                }
            ),
            "seed": self.seed,
            "meta": self.meta,
        }


def evaluate_r(
    code: StabilizerCode,
    e: PauliOp,
    budget: int | None = None,
    seed: int | None = None,
    meta: dict | None = None,
) -> AttackReport:
    """Measure penalty, coset weights and r for one error.

    Only E's syndrome is read, so the code's row space is not built.  The
    weight modulo the centralizer (which sets delta) is exact with no
    search when the packing of E's violated generators reaches wt(E);
    otherwise budget caps its search.  The weight modulo the group does
    not enter r and is reported without a search as the certified
    interval [1, wt(E)], exact when wt(E) = 1: a nonzero penalty puts E
    outside Z(G), which holds A(G), so no F with F*E^{-1} in A(G) has
    weight 0.  It is what code.wt_mod_group(e, budget=0) reports for
    such an E.
    """
    if e.is_identity(up_to_phase=True):
        raise NotAnErrorError("identity operator")
    penalty = code.penalty(e)
    if penalty == 0:
        raise NotAnErrorError(
            "operator commutes with every generator (stabilizer or logical element)"
        )
    wz = code.wt_mod_centralizer(e, budget=budget)
    return AttackReport(
        error=e,
        weight=e.weight(),
        wt_mod_group=BoundedWeight(1, e.weight()),
        wt_mod_centralizer=wz,
        penalty=penalty,
        m=code.m,
        k=code.k,
        n=code.n,
        D_L=code.D_L,
        seed=seed,
        meta=meta or {},
    )


# --------------------------------------------------------------------------
# expander attack
# --------------------------------------------------------------------------

def _select_qudit(code: StabilizerCode, u: int) -> tuple[int, int]:
    """q(u): the qudit of u minimizing the multi-intersection count (lowest index ties).

    A check at q multi-intersects u when it shares >= 2 qudits with u's
    support, i.e. when u's support hits it at least twice.
    """
    g = code.graph
    more = g.touches(g.right_adj[u]) > 1
    counts = [int(more[g.left_adj[q]].sum()) for q in g.right_adj[u]]
    i = counts.index(min(counts))
    return g.right_adj[u][i], counts[i]


def _tensor_restrictions(code: StabilizerCode, picks: list[tuple[int, int]]) -> PauliOp:
    """Product of u|_q over (u, q) picks; supports are disjoint by independence."""
    x, z = np.zeros((2, code.n), dtype=np.int64)
    u, q = np.array(picks, dtype=np.int64).reshape(-1, 2).T
    s = code._sites
    at = np.searchsorted(s.qudit * code.m + s.row, q * code.m + u)  # u's site in q's run
    x[q], z[q] = s.x[at], s.z[at]
    return PauliOp(code.d, code.n, x, z, 0)


def _target_size(code: StabilizerCode, delta: float) -> int:
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return max(1, math.floor(delta * code.n))


def _independent_set(code: StabilizerCode, t: int, target: int, seed: int) -> list[int]:
    u = code.graph.greedy_t_independent(t, target, seed=seed)
    if not u:
        raise Refusal(f"no non-empty {t}-independent constraint set found")
    if not code.graph.verify_t_independent(u, t):
        raise AssertionError(f"greedy constraint set {u} is not {t}-independent")
    return u


def expander_attack(
    code: StabilizerCode, delta: float, seed: int = 0, budget: int | None = None
) -> AttackReport:
    """Tensor error of single-qudit generator restrictions on a 1-independent set.

    Targets |U| = floor(delta * n); a greedy shortfall is recorded in the
    report metadata and the attack proceeds with the achieved size.  When
    floor(delta * n) = 0 the attack proceeds with a single constraint and
    flags the shortfall (the guarantee needs |U| >= 1).
    """
    target = _target_size(code, delta)
    u_set = _independent_set(code, 1, target, seed)
    picks = []
    predicted = 0
    for u in u_set:
        q, a = _select_qudit(code, u)
        picks.append((u, q))
        predicted += a
    e = _tensor_restrictions(code, picks)
    meta = {
        "attack": "expander",
        "target_size": target,
        "U": list(u_set),
        "shortfall": target - len(u_set),
        "chosen_qudits": [q for _, q in picks],
        "predicted_penalty_bound": predicted,
    }
    report = evaluate_r(code, e, budget=budget, seed=seed, meta=meta)
    if report.penalty > predicted:
        raise AssertionError(f"penalty {report.penalty} exceeds the predicted bound {predicted}")
    return report


def refined_expander_attack(
    code: StabilizerCode, u_set: list[int], delta_prime: float, budget: int | None = None
) -> AttackReport:
    """Restriction attack on the best unique-neighbor sub-slice of Gamma(U).

    S = Gamma(U) is partitioned into k classes (one qudit per constraint
    each); the class most examined by unique neighbors of S is selected,
    and within it the floor(delta_prime * n) qudits with the most unique
    neighbors form the support of the error.
    """
    g = code.graph
    if not g.verify_t_independent(u_set, 1):
        raise ValueError("U is not 1-independent")
    size = math.floor(delta_prime * code.n)
    if not 1 <= size <= len(u_set):
        raise Refusal(f"delta_prime * n = {size} outside [1, |U| = {len(u_set)}]")
    s_all = sorted(g.gamma(u_set, "right"))
    # unique-neighbor count per qudit of S: checks seeing exactly one S-qudit
    once = g.touches(s_all) == 1
    uniq = {q: int(once[g.left_adj[q]].sum()) for q in s_all}
    stats = g.expansion_stats(s_all)
    # partition class i = the i-th qudit (sorted) of each constraint's support
    classes = [[(u, g.right_adj[u][i]) for u in u_set] for i in range(code.k)]
    best_class = max(classes, key=lambda cls: sum(uniq[q] for _, q in cls))
    best_class.sort(key=lambda uq: (-uniq[uq[1]], uq[1]))
    picks = best_class[:size]
    e = _tensor_restrictions(code, picks)
    meta = {
        "attack": "refined_expander",
        "U": list(u_set),
        "chosen_qudits": [q for _, q in picks],
        "epsilon_gamma_u": stats.epsilon,
        "r_bound": 2 * stats.epsilon,
        "gamma_u_stats": stats.to_json(),
    }
    return evaluate_r(code, e, budget=budget, meta=meta)


# --------------------------------------------------------------------------
# alphabet attack
# --------------------------------------------------------------------------

def majority_restriction(code: StabilizerCode, q: int) -> tuple[int, int, int]:
    """Most frequent non-identity (x, z) restriction at qudit q.

    Returns (x, z, count); ties broken lexicographically.  By pigeonhole
    count/deg >= t(d), so the restriction commutes with at least a t(d)
    fraction of the checks at q.
    """
    counts: dict[tuple[int, int], int] = {}
    s = code._sites
    lo, hi = np.searchsorted(s.qudit, [q, q + 1])  # the run of q's sites: the checks at q
    for sym in zip(s.x[lo:hi].tolist(), s.z[lo:hi].tolist()):
        counts[sym] = counts.get(sym, 0) + 1
    sym = min(counts, key=lambda s: (-counts[s], s))
    return sym[0], sym[1], counts[sym]


def alphabet_attack(
    code: StabilizerCode, delta: float, seed: int = 0, budget: int | None = None
) -> AttackReport:
    """Tensor of majority restrictions MAJ(q(u)) over a 1-independent set."""
    target = _target_size(code, delta)
    u_set = _independent_set(code, 1, target, seed)
    x = np.zeros(code.n, dtype=np.int64)
    z = np.zeros(code.n, dtype=np.int64)
    chosen = []
    per_qudit_fraction = []
    for u in u_set:
        q = code.graph.right_adj[u][0]
        mx, mz, _ = majority_restriction(code, q)
        x[q], z[q] = mx, mz
        chosen.append(q)
        viol = code.penalty(PauliOp.single(code.n, code.d, q, mx, mz))
        frac = viol / len(code.graph.left_adj[q])
        if frac > alphabet_alpha(code.d) + 1e-12:
            raise AssertionError(f"majority count bound violated at qudit {q}")
        per_qudit_fraction.append(frac)
    e = PauliOp(code.d, code.n, x, z, 0)
    cap = alphabet_delta_cap(code)
    meta = {
        "attack": "alphabet",
        "target_size": target,
        "U": list(u_set),
        "shortfall": target - len(u_set),
        "chosen_qudits": chosen,
        "per_qudit_violation_fraction": per_qudit_fraction,
        "alpha": alphabet_alpha(code.d),
        "delta_precondition_met": cap is not None and delta <= cap,
    }
    return evaluate_r(code, e, budget=budget, seed=seed, meta=meta)


# --------------------------------------------------------------------------
# island attack
# --------------------------------------------------------------------------

@dataclass
class IslandTrialStats:
    """Aggregate statistics of the random sparse island-error process."""

    trials: int
    u_set: list[int]
    s_qudits: list[int]
    k: int
    p: float
    epsilon_prime: float
    expansion_hypothesis_met: bool  # measured eps' >= 0.32
    histogram: np.ndarray  # islands-with-i-errors counts, i = 0..k
    mean_penalty: float
    penalty_sem: float  # sample standard error of the mean penalty
    mean_weight: float
    empirical_qudit_rate: float
    zero_coset_weight_trials: int  # trials whose error lies in the group
    expected_penalty_bound: float | None  # p*alpha*|S|*D_L*(1 - p*alpha*eps'); None without D_L
    best_trial: AttackReport
    seed: int

    def binomial_model(self) -> np.ndarray:
        """Expected per-island error-count masses B(i) = Binom(k, p)."""
        i = np.arange(self.k + 1)
        return np.array(
            [math.comb(self.k, int(j)) * self.p**j * (1 - self.p) ** (self.k - j) for j in i]
        )

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "U": self.u_set,
            "S_size": len(self.s_qudits),
            "k": self.k,
            "p": self.p,
            "epsilon_prime": {"kind": "exact", "value": self.epsilon_prime},
            "expansion_hypothesis_met": self.expansion_hypothesis_met,
            "histogram": self.histogram.tolist(),
            "binomial_model": self.binomial_model().tolist(),
            "mean_penalty": {"kind": "sampled", "value": self.mean_penalty, "sem": self.penalty_sem},
            "mean_weight": {"kind": "sampled", "value": self.mean_weight},
            "empirical_qudit_rate": {"kind": "sampled", "value": self.empirical_qudit_rate},
            "zero_coset_weight_trials": self.zero_coset_weight_trials,
            "expected_penalty_bound": (
                {"kind": "unknown", "value": None}
                if self.expected_penalty_bound is None
                else {"kind": "exact", "value": self.expected_penalty_bound}
            ),
            "best_trial": self.best_trial.to_json(),
            "seed": self.seed,
        }


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC'11): the multipliers of counter words 0 and 2, and the
# increments of the two key words after each of the 10 rounds
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


def _mulhilo(m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit words of the 128-bit products m * x, the high ones from 32-bit halves."""
    m0, m1 = m & _LOW, m >> _HALF
    x0, x1 = x & _LOW, x >> _HALF
    mid = x1 * m0 + (x0 * m0 >> _HALF)  # below 2**64, as is the sum after it
    mid2 = x0 * m1 + (mid & _LOW)
    return x1 * m1 + (mid >> _HALF) + (mid2 >> _HALF), x * m


def _philox_raw(seed: int, trials: np.ndarray, first: int, count: int) -> np.ndarray:
    """(len(trials), count) uint64: raw outputs first .. first + count - 1 of each trial's stream.

    Trial t's stream is numpy's Philox(key=seed, counter=t << 64): block b,
    its outputs 4b .. 4b + 3, is Philox4x64-10 of the key words (seed's low
    and high 64 bits) and the counter words (b + 1, t, 0, 0), as the bit
    generator adds one to the counter before each block.  Each (trial,
    block) is one lane; words 0 and 2, which a round multiplies, are held
    in one (2, lanes) array and words 1 and 3 in another, so a round is one
    pass over each.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"a Philox key is an integer in [0, 2**128), got {seed}")
    key = np.array([[seed & 0xFFFFFFFFFFFFFFFF], [seed >> 64]], dtype=np.uint64)
    lo, hi = first // 4, (first + count - 1) // 4 + 1
    even = np.zeros((2, len(trials), hi - lo), dtype=np.uint64)
    odd = np.zeros_like(even)
    even[0] = np.arange(lo + 1, hi + 1)
    odd[0] = np.asarray(trials, dtype=np.uint64)[:, None]
    even, odd = even.reshape(2, -1), odd.reshape(2, -1)
    for _ in range(10):
        high, low = _mulhilo(_PHILOX_M, even)
        # words 0, 2 <- hi(M1 w2) ^ w1 ^ k0, hi(M0 w0) ^ w3 ^ k1; words 1, 3 <- lo(M1 w2), lo(M0 w0)
        even, odd = high[::-1] ^ odd ^ key, low[::-1]
        key = key + _PHILOX_W  # wraps mod 2**64
    raw = np.stack([even[0], odd[0], even[1], odd[1]], axis=1).reshape(len(trials), -1)
    return raw[:, first - 4 * lo : first - 4 * lo + count]


def _trial_symbols(seed: int, trials: np.ndarray, first: int, counts: np.ndarray,
                   n: int) -> np.ndarray:
    """integers(n, size=counts[j]) of trial trials[j]'s stream read from its raw
    output `first` on, concatenated over j.

    numpy draws below n < 2**32 (as d^2 - 1 is for every d below
    fieldmath.PRIME_LIMIT) by Lemire's rule, one 32-bit half of an output a
    draw, the low half first: x * n is the draw x in [0, 2**32) scaled, its
    high 32 bits are the value, and it is accepted when its low 32 bits are
    at least 2**32 mod n, else x is drawn again.  So a trial's symbols are
    its first counts[j] accepted halves, found by a cumulative sum of the
    accepted ones along its row; a trial short of counts[j] of them (a draw
    is rejected with probability below n / 2**32) has its stream read one
    output further, until none is short.
    """
    def scaled_halves(rows: np.ndarray, start: int, count: int) -> np.ndarray:
        raw = _philox_raw(seed, rows, start, count)
        return np.stack([raw & _LOW, raw >> _HALF], axis=2).reshape(len(rows), -1) * np.uint64(n)

    scaled = scaled_halves(trials, first, -(-int(counts.max()) // 2))
    while True:
        accepted = (scaled & _LOW) >= np.uint64((1 << 32) % n)
        rank = np.cumsum(accepted, axis=1)
        short = np.flatnonzero(rank[:, -1] < counts)
        if not short.size:
            break
        more = np.zeros((len(trials), 2), dtype=np.uint64)  # the other rows take none of it
        more[short] = scaled_halves(trials[short], first + scaled.shape[1] // 2, 1)
        scaled = np.concatenate([scaled, more], axis=1)
    return (scaled[accepted & (rank <= counts[:, None])] >> _HALF).astype(np.int64)


def island_attack(
    code: StabilizerCode,
    trials: int,
    seed: int,
    best_budget: int | None = None,
) -> IslandTrialStats:
    """Random sparse errors on S = Gamma(U) for a greedy maximal k-independent U.

    Per trial each qudit of S independently stays identity with
    probability 1 - p (p = 1/(10k)) or takes each of the d^2 - 1
    non-identity symbols with probability p * t(d).  Records the
    per-island error-count histogram, penalties, and the best trial
    (largest penalty per unit weight, earliest on ties) re-evaluated as
    an AttackReport.

    Trial t draws from its own stream, numpy's
    Generator(Philox(key=seed, counter=t << 64)): |S| uniforms, one a qudit
    of S, then the symbols of the qudits with an error.  As Philox is
    counter-based, trials are drawn and evaluated together, TRIAL_CHUNK
    lanes (trials x Philox blocks of their uniforms) at a time, and the
    report does not depend on how trials are grouped: _philox_raw computes
    every trial's uniforms as one array, and _trial_symbols the symbols of
    the trials that put an error on S.  Those trials alone are scored, on
    the 2|S| symplectic columns of S, where every trial error lives: one
    syndrome product on the checks that touch S gives their penalties, and
    code.rowspace.contains_batch tests those with penalty 0 as full rows
    (A(G) lies in Z(G), so no other trial is in the group).  Drawn symbol
    i is the pair divmod(i + 1, d), the (i + 1)-th in lexicographic order,
    so no table of the symbols is listed.  Only the best trial is rebuilt
    as a PauliOp; the rest leave exact integer sums, so memory is flat in
    the trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = code.k
    u_set = _independent_set(code, k, code.m, seed)
    g = code.graph
    s = sorted(g.gamma(u_set, "right"))
    stats = g.expansion_stats(s)
    eps_prime = stats.epsilon
    p = 1.0 / (10 * k)
    n_symbols = code.d**2 - 1
    s_arr = np.array(s)
    island_pos = np.searchsorted(s_arr, [g.right_adj[u] for u in u_set])  # s is sorted
    s_cols = np.concatenate([s_arr, code.n + s_arr])
    # rows zero on S are zero for every trial: they neither add to a penalty
    # nor tell a group element from a non-element, so only the checks on S enter
    syndrome_s = code._syndrome_map.block(s_arr)[1].T

    histogram = np.zeros(k + 1, dtype=np.int64)
    pen_sum = pen_squares = weight_sum = zero_coset = 0
    best_score, best_trial = 0.0, None
    chunk = max(1, TRIAL_CHUNK // -(-len(s) // 4))  # a trial's uniforms take ceil(|S| / 4) blocks
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        # numpy's random(): a uniform is the top 53 bits of one raw output
        raw = _philox_raw(seed, np.arange(start, stop), 0, len(s))
        active = (raw >> np.uint64(11)) * 2.0**-53 < p
        w = active.sum(axis=1)
        histogram += np.bincount(active[:, island_pos].sum(axis=2).ravel(), minlength=k + 1)
        weight_sum += int(w.sum())
        hit = np.flatnonzero(w)  # the trials that put an error on S
        if not hit.size:
            continue
        # index i at a qudit of S is its (x, z) = divmod(i, d), 0 the identity; a
        # boolean mask fills row by row, in the order of each trial's draws
        draws = np.zeros((hit.size, len(s)), dtype=np.int64)
        draws[active[hit]] = _trial_symbols(seed, start + hit, len(s), w[hit], n_symbols) + 1
        vs = np.concatenate(np.divmod(draws, code.d), axis=1)
        pen = np.count_nonzero(modmul(vs, syndrome_s, code.d), axis=1)
        pen_sum, pen_squares = pen_sum + int(pen.sum()), pen_squares + int(pen @ pen)
        if not pen.all():
            zero = vs[pen == 0]
            words = np.zeros((len(zero), 2 * code.n), dtype=residue_dtype(code.d))
            words[:, s_cols] = zero
            zero_coset += int(np.count_nonzero(code.rowspace.contains_batch(words)))
        # optimistic-r proxy at fixed k, n; hit trials have w > 0
        score = pen / w[hit]
        j = int(np.argmax(score))
        if score[j] > best_score:
            best_score, best_trial, best_row = score[j], start + int(hit[j]), draws[j]
    if best_trial is None:
        raise Refusal("no trial produced an error; increase trials or |U|")
    x, z = np.zeros((2, code.n), dtype=np.int64)
    x[s_arr], z[s_arr] = np.divmod(best_row, code.d)
    best_report = evaluate_r(
        code,
        PauliOp(code.d, code.n, x, z, 0),
        budget=best_budget,
        seed=seed,
        meta={"attack": "island", "trial": best_trial, "U": list(u_set)},
    )
    alpha = alphabet_alpha(code.d)
    bound = None  # the bound needs one left degree D_L; irregular codes have none
    if code.D_L is not None:
        bound = p * alpha * len(s) * code.D_L * (1 - p * alpha * eps_prime)
    # the sample standard error of the mean penalty from the exact sums; 0 for one trial
    sem = math.sqrt((trials * pen_squares - pen_sum**2) / (trials**2 * max(trials - 1, 1)))
    return IslandTrialStats(
        trials=trials,
        u_set=list(u_set),
        s_qudits=s,
        k=k,
        p=p,
        epsilon_prime=eps_prime,
        expansion_hypothesis_met=eps_prime >= 0.32,
        histogram=histogram,
        mean_penalty=pen_sum / trials,
        penalty_sem=sem,
        mean_weight=weight_sum / trials,
        empirical_qudit_rate=weight_sum / (trials * len(s)),
        zero_coset_weight_trials=zero_coset,
        expected_penalty_bound=bound,
        best_trial=best_report,
        seed=seed,
    )


# --------------------------------------------------------------------------
# exhaustive soundness oracle
# --------------------------------------------------------------------------

@dataclass
class SoundnessProfile:
    """Exact minimum penalty per coset weight, up to weight_cap.

    Enumerates every non-identity Pauli word of weight <= cap in weight
    order; the first weight at which a syndrome appears is the exact coset
    weight of its error class, and the penalty is a function of the
    syndrome, so per-coset-weight minima are exact.  R(delta) is exact
    when every non-zero syndrome was reached within the cap, else an
    upper bound over the enumerated range.
    """

    n: int
    m: int
    k: int
    d: int
    weight_cap: int
    min_penalty: dict  # coset weight w -> exact min penalty
    syndromes_seen: int
    coverage_complete: bool

    def R(self, delta: float) -> float:
        """min over coset weights >= delta*n (within the profile) of penalty/m."""
        w_min = max(1, math.ceil(delta * self.n))
        pens = [p for w, p in self.min_penalty.items() if w >= w_min]
        if not pens:
            raise ValueError(f"no coset weight >= {w_min} within cap {self.weight_cap}")
        return min(pens) / self.m

    def r(self, delta: float) -> float:
        return self.R(delta) / min(self.k * delta, 1.0)

    def table(self) -> list[dict]:
        rows = []
        for w in sorted(self.min_penalty):
            delta = w / self.n
            rows.append(
                {
                    "delta": delta,
                    "R": self.R(delta),
                    "r": self.r(delta),
                    "kind": "exact" if self.coverage_complete else "upper_bound",
                }
            )
        return rows

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "d": self.d,
            "weight_cap": self.weight_cap,
            "min_penalty_per_coset_weight": {
                str(w): {"kind": "exact", "value": p} for w, p in sorted(self.min_penalty.items())
            },
            "syndromes_seen": self.syndromes_seen,
            "coverage_complete": self.coverage_complete,
            "table": self.table(),
        }


def _key_chunks(code: StabilizerCode, w: int, powers: np.ndarray):
    """The keys of the words of weight w in chunks, each sorted without repeats.

    A chunk gathers the keys of PROFILE_CHUNK words or more, the last one
    may hold fewer; every batch of candidate_batches goes through
    code.syndrome_batch.
    """
    chunk: list[np.ndarray] = []
    size = 0
    for batch in candidate_batches(code.n, code.d, w):
        chunk.append(row_keys(code.syndrome_batch(batch), powers))
        size += len(batch)
        if size >= PROFILE_CHUNK:
            yield _sorted_unique(chunk)
            chunk, size = [], 0
    if chunk:
        yield _sorted_unique(chunk)


def _sorted_unique(parts: list[np.ndarray], kind: str | None = None) -> np.ndarray:
    keys = np.sort(np.concatenate(parts), kind=kind)
    return keys[np.r_[True, keys[1:] != keys[:-1]]]


def soundness_profile(code: StabilizerCode, weight_cap: int) -> SoundnessProfile:
    """Brute-force soundness oracle; refuses a walk past PROFILE_GUARD words, counted exactly.

    The syndromes seen at lower weights are held as sorted keys: the m
    residues in fields of (d - 1).bit_length() bits (see key_powers), one float64 BLAS product a
    batch, each key one uint64, or one opaque value (ordered as bytes) of
    the uint64 words when the fields need several (row_keys).  A word of weight w
    whose key is not in that table sees its syndrome first at w, and as
    the penalty is a function of the syndrome, the least penalty of those
    words is min_penalty[w]; it is read off the new keys, as their number
    of nonzero fields.  The keys of a weight's batches gather in chunks of
    at least PROFILE_CHUNK; each chunk is sorted without repeats, looked up
    in one search and keeps its new keys as one sorted run; the runs join
    the table when the weight is done, in one stable sort, which merges
    sorted runs.  The walk stops after the weight at which every nonzero
    syndrome has been seen: no heavier word can bring a new one.  It is refused
    before the first weight that would take it past PROFILE_GUARD words,
    and up front when the words within the guard are fewer than the
    nonzero syndromes, since such a walk cannot stop early.
    """
    weights = range(1, min(weight_cap, code.n) + 1)  # no Pauli on n qudits is heavier than n
    syndromes = code.d**code.rank
    # the words walked by the end of each weight, while they fit in the guard
    walked = list(itertools.takewhile(lambda c: c <= PROFILE_GUARD, itertools.accumulate(
        candidates_at_weight(code.n, code.d, w) for w in weights)))
    refusal = Refusal(f"profile enumeration past weight {len(walked)} exceeds the guard "
                      f"({PROFILE_GUARD} candidates), and the words within it do not "
                      "reach every syndrome")
    # fewer words than nonzero syndromes cannot see them all, so such a walk would not stop
    if len(walked) < len(weights) and (walked[-1] if walked else 0) < syndromes - 1:
        raise refusal
    width = (code.d - 1).bit_length()  # no guard bit: the profile never adds keys
    powers = key_powers(code.m, width)
    # the zero syndrome is a centralizer element, not an error: seen from the start
    table = row_keys(np.zeros((1, code.m), dtype=np.uint8), powers)
    min_penalty: dict[int, int] = {}
    for w in weights:
        if w > len(walked):
            raise refusal
        runs = [table]
        for keys in _key_chunks(code, w, powers):
            at = np.searchsorted(table, keys)
            np.minimum(at, len(table) - 1, out=at)
            fresh = keys[table[at] != keys]
            if len(fresh):
                pen = int(key_weights(fresh, width).min())
                min_penalty[w] = min(min_penalty.get(w, pen), pen)
                runs.append(fresh)
        table = _sorted_unique(runs, "stable")
        if len(table) == syndromes:  # every syndrome, the zero one too, has been seen
            break
    return SoundnessProfile(n=code.n, m=code.m, k=code.k, d=code.d, weight_cap=weight_cap,
                            min_penalty=min_penalty, syndromes_seen=len(table) - 1,
                            coverage_complete=len(table) == syndromes)
