"""Adversarial low-soundness error constructions and the exhaustive oracle.

Three constructions drive the upper bounds on relative soundness r(delta):

* expander attack: single-qudit restrictions of a 1-independent constraint
  set, each placed on the qudit with the fewest multi-intersecting checks;
  achieves r <= 2*eps when small sets expand with error eps < 1/2.
* alphabet attack: majority restriction per chosen qudit; achieves
  r <= alpha(d) = 1 - 1/(d^2 - 1) for delta <= 1/(k^3 D_L).
* island attack: random sparse error on the neighborhood of a
  k-independent set; statistics compared against the binomial model and
  the expected-penalty bound p*alpha*|S|*D_L*(1 - p*alpha*eps').

The soundness profile enumerates all errors up to a coset-weight cap and
records the exact minimum penalty per coset weight (penalty and coset
weight are both functions of the syndrome alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fieldmath import modmul
from .pauli import PauliOp, nonidentity_symbols
from .search import candidate_batches, candidates_at_weight
from .stabilizer import BoundedWeight, StabilizerCode

# island trials drawn and evaluated together; bounds the chunk x |S| symbol
# and chunk x m syndrome arrays (toric:16, 4000 trials: peak RSS +0.7 MB over
# the per-trial loop at 256, +3.3 MB at 512, no faster)
TRIAL_CHUNK = 256


class Refusal(ValueError):
    """A precondition of the attack does not hold; reported in-band, not a fault."""


class NotAnErrorError(Refusal):
    """The operator commutes with every generator; r is undefined for it."""


def alphabet_t(d: int) -> float:
    return 1.0 / (d * d - 1)


def alphabet_alpha(d: int) -> float:
    return 1.0 - alphabet_t(d)


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
    group_budget: int | None = 0,
    seed: int | None = None,
    meta: dict | None = None,
) -> AttackReport:
    """Measure penalty, coset weights and r for one error.

    budget caps the weight-modulo-centralizer search (which sets delta);
    group_budget caps the independent weight-modulo-group search (default
    0: report only the trivial certified interval, it does not enter r).
    """
    if e.is_identity(up_to_phase=True):
        raise NotAnErrorError("identity operator")
    penalty = code.penalty(e)
    if penalty == 0:
        raise NotAnErrorError(
            "operator commutes with every generator (stabilizer or logical element)"
        )
    wz = code.wt_mod_centralizer(e, budget=budget)
    wg = code.wt_mod_group(e, budget=group_budget)
    return AttackReport(
        error=e,
        weight=e.weight(),
        wt_mod_group=wg,
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
    more = g.neighbor_masks(g.right_adj[u])[1]
    best_q, best_a = None, None
    for q in g.right_adj[u]:
        a = (g.left_masks[q] & more).bit_count()
        if best_a is None or a < best_a:
            best_q, best_a = q, a
    return best_q, best_a


def _tensor_restrictions(code: StabilizerCode, picks: list[tuple[int, int]]) -> PauliOp:
    """Product of u|_q over (u, q) picks; supports are disjoint by independence."""
    x = np.zeros(code.n, dtype=np.int64)
    z = np.zeros(code.n, dtype=np.int64)
    u, q = np.array(picks, dtype=np.int64).reshape(-1, 2).T
    x[q] = code.symplectic_matrix[u, q]
    z[q] = code.symplectic_matrix[u, code.n + q]
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
    once = g.neighbor_masks(s_all)[0]
    uniq = {q: (g.left_masks[q] & once).bit_count() for q in s_all}
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
    for c in code.graph.left_adj[q]:
        sym = (int(code.symplectic_matrix[c, q]), int(code.symplectic_matrix[c, code.n + q]))
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
        mx, mz, cnt = majority_restriction(code, q)
        x[q], z[q] = mx, mz
        chosen.append(q)
        acting = code.graph.left_adj[q]
        gx, gz = code.symplectic_matrix[acting, q], code.symplectic_matrix[acting, code.n + q]
        viol = int(np.count_nonzero((gx * mz - gz * mx) % code.d))
        frac = viol / len(acting)
        if frac > alphabet_alpha(code.d) + 1e-12:
            raise AssertionError(f"majority count bound violated at qudit {q}")
        per_qudit_fraction.append(frac)
    e = PauliOp(code.d, code.n, x, z, 0)
    k, dl = code.k, code.D_L
    meta = {
        "attack": "alphabet",
        "target_size": target,
        "U": list(u_set),
        "shortfall": target - len(u_set),
        "chosen_qudits": chosen,
        "per_qudit_violation_fraction": per_qudit_fraction,
        "alpha": alphabet_alpha(code.d),
        "delta_precondition_met": (
            dl is not None and delta <= 1.0 / (k**3 * dl)
        ),
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
    expected_penalty_bound: float  # p*alpha*|S|*D_L*(1 - p*alpha*eps')
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
            "expected_penalty_bound": {"kind": "exact", "value": self.expected_penalty_bound},
            "best_trial": self.best_trial.to_json(),
            "seed": self.seed,
        }


def _trial_streams(seed: int):
    """trial -> the generator of Philox(key=seed, counter=trial * 2**64).

    Counter-based streams make every trial reproducible from (seed, index).
    One Philox is re-keyed per trial instead of built anew: construction
    costs more than a trial's draws.  The returned generator is shared, so
    each call ends the previous trial's stream.
    """
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # the key words and an empty output buffer

    def stream(trial: int) -> np.random.Generator:
        state["state"]["counter"] = np.array([0, trial, 0, 0], dtype=np.uint64)
        bitgen.state = state
        return rng

    return stream


def _draw_trial(rng: np.random.Generator, size: int, p: float, n_symbols: int) -> np.ndarray:
    """Symbol index per qudit of S in one trial: 0 for identity, i for symbol i - 1."""
    row = np.zeros(size, dtype=np.int64)
    idx = np.nonzero(rng.random(size) < p)[0]
    if idx.size:  # most trials leave S clean; skip the second draw
        row[idx] = rng.integers(n_symbols, size=idx.size) + 1
    return row


def island_attack(
    code: StabilizerCode,
    trials: int,
    seed: int,
    u_target: int | None = None,
    best_budget: int | None = None,
) -> IslandTrialStats:
    """Random sparse errors on S = Gamma(U) for a greedy k-independent U.

    Per trial each qudit of S independently stays identity with
    probability 1 - p (p = 1/(10k)) or takes each of the d^2 - 1
    non-identity symbols with probability p * t(d).  Records the
    per-island error-count histogram, penalties, and the best trial
    (largest penalty per unit weight, earliest on ties) re-evaluated as
    an AttackReport.

    Trial t draws from its own Philox stream (_trial_streams(seed)(t)), so
    the report does not depend on how trials are grouped.  Trials are
    evaluated TRIAL_CHUNK at a time on the 2|S| symplectic columns of S
    alone, where every trial error lives: one syndrome product gives the
    penalties and one kernel product the trials whose error lies in the
    group.  Only the best trial is rebuilt as a PauliOp.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = code.k
    u_set = _independent_set(code, k, u_target or code.m, seed)
    g = code.graph
    s = sorted(g.gamma(u_set, "right"))
    stats = g.expansion_stats(s)
    eps_prime = stats.epsilon
    p = 1.0 / (10 * k)
    # row 0 is the identity, so a trial's symbol indices pick its (x, z) per qudit
    table = np.array([(0, 0)] + nonidentity_symbols(code.d), dtype=np.int64)
    s_arr = np.array(s)
    s_pos = {q: i for i, q in enumerate(s)}
    island_pos = np.array([[s_pos[q] for q in g.right_adj[u]] for u in u_set])
    s_cols = np.concatenate([s_arr, code.n + s_arr])
    syndrome_s = code.syndrome_matrix[:, s_cols].T
    kernel_s = code.rowspace.kernel[:, s_cols].T
    trial_rng = _trial_streams(seed)

    histogram = np.zeros(k + 1, dtype=np.int64)
    penalties = np.zeros(trials)
    weights = np.zeros(trials)
    zero_coset = 0
    best_score, best_trial = 0.0, None
    for start in range(0, trials, TRIAL_CHUNK):
        stop = min(start + TRIAL_CHUNK, trials)
        draws = np.stack(
            [_draw_trial(trial_rng(t), len(s), p, len(table) - 1) for t in range(start, stop)]
        )
        active = draws > 0
        vs = np.concatenate([table[draws, 0], table[draws, 1]], axis=1)
        pen = np.count_nonzero(modmul(vs, syndrome_s, code.d), axis=1)
        w = active.sum(axis=1)
        histogram += np.bincount(active[:, island_pos].sum(axis=2).ravel(), minlength=k + 1)
        penalties[start:stop] = pen
        weights[start:stop] = w
        in_group = ~np.any(modmul(vs, kernel_s, code.d), axis=1)
        zero_coset += int(np.count_nonzero(in_group & (w > 0)))
        # optimistic-r proxy at fixed k, n; pen > 0 implies w > 0
        score = np.divide(pen, w, out=np.zeros(len(pen)), where=pen > 0)
        j = int(np.argmax(score))
        if score[j] > best_score:
            best_score, best_trial = score[j], start + j
    if best_trial is None:
        raise Refusal("no trial produced an error; increase trials or |U|")
    row = _draw_trial(trial_rng(best_trial), len(s), p, len(table) - 1)
    x = np.zeros(code.n, dtype=np.int64)
    z = np.zeros(code.n, dtype=np.int64)
    x[s_arr], z[s_arr] = table[row, 0], table[row, 1]
    best_report = evaluate_r(
        code,
        PauliOp(code.d, code.n, x, z, 0),
        budget=best_budget,
        seed=seed,
        meta={"attack": "island", "trial": best_trial, "U": list(u_set)},
    )
    alpha = alphabet_alpha(code.d)
    bound = p * alpha * len(s) * (code.D_L or 0) * (1 - p * alpha * eps_prime)
    sem = float(np.std(penalties, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return IslandTrialStats(
        trials=trials,
        u_set=list(u_set),
        s_qudits=s,
        k=k,
        p=p,
        epsilon_prime=eps_prime,
        expansion_hypothesis_met=eps_prime >= 0.32,
        histogram=histogram,
        mean_penalty=float(penalties.mean()),
        penalty_sem=sem,
        mean_weight=float(weights.mean()),
        empirical_qudit_rate=int(weights.sum()) / (trials * len(s)),
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

    def r_at_coset_weight(self, w: int) -> float:
        """Exact minimum r over errors of coset weight exactly w."""
        delta = w / self.n
        return (self.min_penalty[w] / self.m) / min(self.k * delta, 1.0)

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


def _key_powers(m: int, d: int) -> np.ndarray:
    """(m, words) int64 matrix that packs a row of m base-d digits into words.

    Word j of syn @ powers holds digits j*e .. j*e + e - 1 of syn, e the most
    digits with d**e < 2**63, so every word is exact in int64 and two rows
    are equal iff their keys are.
    """
    e = 1
    while d ** (e + 1) < 1 << 63:
        e += 1
    i = np.arange(m)
    powers = np.zeros((m, -(-m // e)), dtype=np.int64)
    powers[i, i // e] = d ** (i % e)
    return powers


def soundness_profile(
    code: StabilizerCode, weight_cap: int, guard: int = 20_000_000
) -> SoundnessProfile:
    """Brute-force soundness oracle; refuses infeasible caps with an estimate."""
    weights = range(1, min(weight_cap, code.n) + 1)  # no Pauli on n qudits is heavier than n
    total = sum(candidates_at_weight(code.n, code.d, w) for w in weights)
    if total > guard:
        raise ValueError(
            f"profile enumeration of {total} candidates exceeds the guard ({guard})"
        )
    powers = _key_powers(code.m, code.d)
    # keys of the nonzero syndromes seen so far, sorted, each once
    table = np.empty((0, powers.shape[1]), dtype=np.int64)
    min_penalty: dict[int, int] = {}
    for w in weights:
        keys, pens = [table], [np.zeros(len(table), dtype=np.int64)]
        for batch in candidate_batches(code.n, code.d, w):
            syn = code.syndrome_batch(batch)
            pen = np.count_nonzero(syn, axis=1)
            live = pen > 0  # a zero syndrome is a centralizer element, not an error
            keys.append(syn[live] @ powers)
            pens.append(pen[live])
        keys = np.concatenate(keys)
        # tag 0 (seen at a lower weight) sorts before tag 1 among equal keys,
        # so the first row of each run of equal keys is where it was first seen
        tag = np.ones(len(keys), dtype=np.int8)
        tag[: len(table)] = 0
        order = np.lexsort((tag, *keys.T[::-1]))
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        new = first & (tag[order] == 1)
        if new.any():
            min_penalty[w] = int(np.concatenate(pens)[order][new].min())
        table = keys[first]
    complete = len(table) == code.d**code.rank - 1
    return SoundnessProfile(
        n=code.n,
        m=code.m,
        k=code.k,
        d=code.d,
        weight_cap=weight_cap,
        min_penalty=min_penalty,
        syndromes_seen=len(table),
        coverage_complete=complete,
    )
