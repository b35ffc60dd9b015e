"""Seeded workloads for the qltc benchmark: inputs, job lists and output checks.

A workload is a fixed list of jobs made from ``(workload, seed)``.  The
seed picks the circulant hypergraph-product matrix files, the attack
deltas and the attack seeds; qltc itself receives only those generated
inputs.  Sizes and job counts do not depend on the seed:

* every circulant has two ones per row at offsets whose difference is
  coprime to its size, so its Tanner graph is a single cycle and all
  seeds give isomorphic codes (same distance, same expansion scan);
* every delta attack's delta lies strictly inside ``[t/n, (t+1)/n)`` for
  a fixed target ``t``, so its attacked set ``U`` has the same size for
  every seed.

The island attack is the exception: the CLI gives it no target, so its
``U`` is a greedy maximal independent set taken in a seed-permuted order.
Its size, and with it the island work (|S|, the histogram, the ``in_span``
calls), varies with the seed, and so spreads taken across seeds include it.

A job runs in-process through ``qltc.cli.main(argv)``, or through the
public library API where the CLI has no flag for it (``code_distance``
with a weight cap).  Every job loads or builds its own code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import traceback
from dataclasses import dataclass

WORKLOADS = ("sweep", "island", "certify")
DEFAULT_SEED = 0
# statuses a report may put in a "kind" label
LABELS = {"exact", "interval", "sampled", "sampled_lower_bound", "upper_bound", "unknown"}


@dataclass(frozen=True)
class Job:
    """One qltc job; ``argv`` is a CLI argument list unless ``api`` is set."""

    name: str
    argv: tuple[str, ...]
    api: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def island_trials(self) -> int:
        """Monte Carlo trials this job asks for (0 unless an island attack)."""
        if self.command == "attack" and self.argv[2] == "island":
            return int(self.argv[self.argv.index("--trials") + 1])
        return 0


@dataclass
class Outcome:
    """What one job run produced: its parsed report and the problems found."""

    report: dict | None
    problems: list[str]


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def circulant_rows(size: int, rng: random.Random) -> list[tuple[int, int]]:
    """Rows of a size x size circulant with two ones per row, one cycle as Tanner graph."""
    while True:
        a, b = sorted(rng.sample(range(size), 2))
        if math.gcd(size, b - a) == 1:
            return [((i + a) % size, (i + b) % size) for i in range(size)]


def make_inputs(workload: str, seed: int, directory: str) -> dict[int, str]:
    """Write the workload's circulant matrix files; returns size -> "f1,f2"."""
    sizes = {"sweep": (6, 8, 10, 12), "island": (12,), "certify": (14,)}[workload]
    rng = random.Random(f"inputs:{workload}:{seed}")
    os.makedirs(directory, exist_ok=True)
    pairs = {}
    for size in sizes:
        paths = []
        for side in "ab":
            path = os.path.join(directory, f"circ{size}{side}.txt")
            with open(path, "w") as f:
                f.writelines(f"{c0} {c1}\n" for c0, c1 in circulant_rows(size, rng))
            paths.append(path)
        pairs[size] = ",".join(paths)
    return pairs


# --------------------------------------------------------------------------
# job lists
# --------------------------------------------------------------------------

def _delta(rng: random.Random, target: int, n: int) -> str:
    """A delta with floor(delta * n) == target, away from both ends."""
    return repr((target + rng.uniform(0.1, 0.9)) / n)


def _label(source: str) -> str:
    """A source name without the seed-specific matrix file paths."""
    if source.startswith("hgp:"):
        return "hgp:" + re.search(r"circ(\d+)", source).group(1)
    return source


def _attack(rng, source: str, attack: str, target: int, n: int) -> Job:
    argv = ("attack", source, attack, "--delta", _delta(rng, target, n),
            "--seed", str(rng.randrange(10_000)))
    return Job(f"attack {_label(source)} {attack} |U|={target}", argv)


def _island(rng, source: str, trials: int) -> Job:
    argv = ("attack", source, "island", "--trials", str(trials),
            "--seed", str(rng.randrange(10_000)))
    return Job(f"attack {_label(source)} island {trials}", argv)


def sweep_jobs(seed: int, hgp: dict[int, str]) -> list[Job]:
    """Many short CLI jobs, as a paper's tables are made: every job rebuilds its code."""
    rng = random.Random(f"jobs:sweep:{seed}")
    jobs = [Job(f"build toric:{L}", ("build", f"toric:{L}")) for L in range(3, 11)]
    jobs += [Job(f"build toric:{L}:3", ("build", f"toric:{L}:3")) for L in range(3, 7)]
    jobs += [Job(f"build hgp:{s}", ("build", f"hgp:{hgp[s]}")) for s in sorted(hgp)]
    for attack in ("expander", "alphabet", "refined"):
        for L in range(6, 11):
            # the greedy 1-independent set can stop at 2 constraints for L <= 7,
            # where a larger |U| would be refused or cut short on some seeds
            top = 2 if L <= 7 else 3
            for target in (1, 2, top, 1, 2):
                jobs.append(_attack(rng, f"toric:{L}", attack, target, 2 * L * L))
    for d in (3, 5):
        for L in (6, 8):
            for target in (1, 2):
                jobs.append(_attack(rng, f"toric:{L}:{d}", "alphabet", target, 2 * L * L))
    for source in ("toric:3", "toric:4", "steane"):
        for flags in (("--distance",), ("--succinct",), ("--profile", "--wcap", "3")):
            jobs.append(Job(f"analyze {source} {flags[0]}", ("analyze", source, *flags)))
    for source in ("steane", "toric:2"):
        jobs.append(Job(f"verify {source}", ("verify", source, "--seed", str(rng.randrange(10_000)))))
    return jobs


def island_jobs(seed: int, hgp: dict[int, str]) -> list[Job]:
    """Monte Carlo island attacks: the per-trial penalty loop does the work."""
    rng = random.Random(f"jobs:island:{seed}")
    return [_island(rng, source, 4000) for source in ("toric:16", f"hgp:{hgp[12]}", "toric:10:3")]


def certify_jobs(seed: int, hgp: dict[int, str]) -> list[Job]:
    """Exact answers on the largest feasible instances: few calls, large matrices."""
    rng = random.Random(f"jobs:certify:{seed}")
    src = f"hgp:{hgp[14]}"
    return [
        Job("build toric:20", ("build", "toric:20")),
        Job("code_distance hgp:14 w_max=2", ("code_distance", src, "--w-max", "2"), api=True),
        Job("analyze toric:5 --distance", ("analyze", "toric:5", "--distance")),
        Job("analyze hgp:14 --expansion", ("analyze", src, "--expansion", "--sets", "4")),
        Job("analyze toric:12 --expansion", ("analyze", "toric:12", "--expansion", "--sets", "4")),
        _attack(rng, src, "expander", 1, 2 * 14 * 14),
        Job("analyze toric:3 --profile", ("analyze", "toric:3", "--profile", "--wcap", "4")),
    ]


def make_jobs(workload: str, seed: int, hgp: dict[int, str]) -> list[Job]:
    """The workload's job list; names are numbered so each is unique."""
    make = {"sweep": sweep_jobs, "island": island_jobs, "certify": certify_jobs}[workload]
    return [Job(f"{i:03d} {job.name}", job.argv, job.api) for i, job in enumerate(make(seed, hgp))]


# --------------------------------------------------------------------------
# running and checking one job
# --------------------------------------------------------------------------

def _api_code_distance(argv: tuple[str, ...]) -> dict:
    """Library job: weight-capped distance of a hypergraph product, as criterion 4 asks."""
    from qltc import zoo

    _, source, _, w_max = argv
    files = source.partition(":")[2].split(",")
    mats = []
    for path in files:
        with open(path) as f:
            mats.append(zoo.parse_sparse_rows(f.read()))
    code = zoo.css_hypergraph_product(*mats, strict_degree=False)
    dist = code.code_distance(w_max=int(w_max))
    return {"command": "code_distance", "n": code.n, "m": code.m, "w_max": int(w_max),
            "distance": dist.to_json()}


def run_job(job: Job, cli_main) -> tuple[int | None, str, str]:
    """Run a job in-process; returns (exit code or None on a crash, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.api:
                print(json.dumps(_api_code_distance(job.argv)))
                rc = 0
            else:
                rc = cli_main(list(job.argv))
    except SystemExit as exc:  # argparse exits on arguments it rejects
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed job, never the end of the run
        return None, out.getvalue(), err.getvalue() + traceback.format_exc()
    return rc, out.getvalue(), err.getvalue()


def _required_labels(job: Job, report: dict) -> list[tuple]:
    cmd = job.command
    if cmd in ("analyze", "code_distance"):
        paths = [(key,) for key in ("distance", "succinct", "expansion") if key in report]
        if "profile" in report:
            prof = report["profile"]
            paths += [("profile", "min_penalty_per_coset_weight", w)
                      for w in prof.get("min_penalty_per_coset_weight", {})]
            paths += [("profile", "table", i) for i in range(len(prof.get("table", [])))]
        return paths
    if cmd == "attack" and job.argv[2] == "island":
        return [("island_stats", k) for k in ("epsilon_prime", "mean_penalty", "expected_penalty_bound")] + [
            ("best_trial", k) for k in ("wt_mod_centralizer", "delta", "r")]
    if cmd == "attack":
        return [("report", k) for k in ("wt_mod_group", "wt_mod_centralizer", "penalty", "delta", "r")]
    return []


def _kind_at(report: dict, path: tuple):
    obj = report
    for key in path:
        if isinstance(obj, list) and isinstance(key, int) and key < len(obj):
            obj = obj[key]
        elif isinstance(obj, dict) and key in obj:
            obj = obj[key]
        else:
            return None
    return obj.get("kind") if isinstance(obj, dict) else None


def invariant_problems(job: Job, rc: int | None, report: dict | None) -> list[str]:
    """Checks that hold for every seed: exit code, bounds, identities, labels."""
    if rc != 0:
        return [f"exit code {rc}"]
    if report is None:
        return ["no JSON report on stdout"]
    problems = []
    if job.command != "code_distance" and report.get("schema") != "qltc-report/1":
        problems.append(f"schema {report.get('schema')!r}")
    if "refused" in report:
        problems.append(f"refused: {report['refused']}")
    if job.command == "attack":
        attack = job.argv[2]
        if attack in ("expander", "alphabet") and report.get("csv_row", {}).get("bound_holds") is not True:
            problems.append("bound_holds is not true")
        if attack == "island":
            stats = report.get("island_stats", {})
            expected = job.island_trials * len(stats.get("U", ()))
            if sum(stats.get("histogram", ())) != expected or not expected:
                problems.append(f"island histogram total != trials x |U| = {expected}")
    if job.command == "verify":
        if report.get("passed") is not True:
            problems.append("verify did not pass")
        if report.get("codespace_dimension") != report.get("expected_dimension"):
            problems.append("codespace_dimension != expected_dimension")
    if job.command == "analyze" and "profile" in report and "refused" in report["profile"]:
        problems.append(f"profile refused: {report['profile']['refused']}")
    labels = _required_labels(job, report)
    if job.command in ("analyze", "code_distance") and not labels:
        problems.append("no labelled quantity in the report")
    for path in labels:
        kind = _kind_at(report, path)
        if kind not in LABELS:
            problems.append(f"missing exact/interval label at {'.'.join(map(str, path))}: {kind!r}")
    return problems


def reference_mismatches(ref, got, path: str = "") -> list[str]:
    """Keys of ``ref`` whose values differ in ``got``; keys ``ref`` lacks are ignored."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path or '.'}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out += reference_mismatches(value, got[key], f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += reference_mismatches(r, g, f"{path}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if math.isclose(ref, got, rel_tol=1e-9, abs_tol=1e-12) else [f"{path}: {got} != {ref}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def pinned(report: dict) -> dict:
    """The part of a report pinned as a reference: all but the seed-specific file paths."""
    return {k: v for k, v in report.items() if k != "source"}


def execute(job: Job, cli_main, reference: dict | None) -> Outcome:
    """Run a job and check its output against the invariants and, if given, its reference."""
    rc, out, err = run_job(job, cli_main)
    report = None
    problems = []
    if rc is None:
        problems.append("traceback: " + err.strip().splitlines()[-1])
    else:
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = None
        problems += invariant_problems(job, rc, report)
    if reference is not None and report is not None:
        if job.name not in reference:
            problems.append("no pinned reference for this job")
        else:
            problems += reference_mismatches(reference[job.name], report)[:5]
    return Outcome(report, problems)
