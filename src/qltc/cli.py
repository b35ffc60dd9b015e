"""Command-line interface: build / analyze / attack / verify.

Codes are addressed by preset name (toric:L[:d], steane,
hgp:H1.txt,H2.txt, css:Hx.txt,Hz.txt, classical:graph.txt) or by a saved
JSON code file.  Reports are JSON with a schema field and per-quantity
exactness labels; attack runs also emit a CSV row (delta, R, r, bound,
bound_holds).  Exit codes: 0 success (including refusals that produce a
report), 1 invalid input, 2 internal invariant breach or any other fault,
and argparse's usage error (unknown flag, missing argument).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback

import numpy as np

from . import attacks, dense, zoo
from .stabilizer import CodeValidationError, StabilizerCode

SCHEMA = "qltc-report/1"


class InputError(Exception):
    """User-facing input problem; maps to exit code 1."""


def _int_at_least(flag: str, least: int):
    """argparse type of an integer flag with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise InputError(f"{flag} must be an integer >= {least}, got {text!r}")
        return value

    return parse


def _delta_type(text: str) -> float:
    """--delta: the attacked fraction of the n qudits, in (0, 1]."""
    try:
        delta = float(text)
    except ValueError:
        delta = math.nan
    if not 0 < delta <= 1:
        raise InputError(f"--delta must be a number in (0, 1], got {text!r}")
    return delta


def _seed_type(text: str) -> int:
    """--seed: an integer in [0, 2**128), the key range of the island attack's Philox streams."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 1 << 128:
        raise InputError(f"--seed must be an integer in [0, 2**128), got {text!r}")
    return seed


def load_code(source: str, strict_degree: bool = False) -> StabilizerCode:
    """Resolve a JSON code-file path or, when no such file exists, a preset name."""
    if os.path.exists(source):
        try:
            return StabilizerCode.load(source, strict_degree=strict_degree)
        except (OSError, ValueError, KeyError) as exc:
            raise InputError(f"cannot load code file {source}: {exc}") from exc
    if ":" in source or source in ("steane",):
        return _preset(source)
    raise InputError(f"unknown code source {source!r} (not a preset, not a file)")


def _preset(name_spec: str) -> StabilizerCode:
    name, _, rest = name_spec.partition(":")
    try:
        if name == "toric":
            parts = rest.split(":")
            L = int(parts[0])
            d = int(parts[1]) if len(parts) > 1 else 2
            return zoo.toric_code(L, d)
        if name == "steane":
            return zoo.steane_code()
        if name in ("hgp", "css"):
            f1, _, f2 = rest.partition(",")
            if not f2:
                raise InputError(f"{name} preset needs two matrix files, got {rest!r}")
            m1 = _read_matrix(f1)
            m2 = _read_matrix(f2)
            if name == "hgp":
                return zoo.css_hypergraph_product(m1, m2, strict_degree=False)
            return zoo.css_code(m1, m2, strict_degree=False)
    except InputError:
        raise
    except (ValueError, OSError) as exc:
        raise InputError(f"cannot build preset {name_spec!r}: {exc}") from exc
    raise InputError(f"unknown preset {name!r}")


def _read_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as f:
            return zoo.parse_sparse_rows(f.read())
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from exc


def _emit(report: dict, path: str | None) -> None:
    report = {"schema": SCHEMA, **report}
    text = json.dumps(report, indent=1, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_build(args) -> int:
    code = load_code(args.source)
    if args.out_code:
        code.save(args.out_code, meta={"source": args.source})
    report = {
        "command": "build",
        "source": args.source,
        "n": code.n,
        "m": code.m,
        "d": code.d,
        "k": code.k,
        "D_L": code.D_L,
        "rank": code.rank,
        "css": code.is_css(),
        "valid": True,
    }
    _emit(report, args.out)
    return 0


def cmd_analyze(args) -> int:
    code = load_code(args.source)
    report: dict = {
        "command": "analyze",
        "source": args.source,
        "n": code.n,
        "m": code.m,
        "d": code.d,
        "k": code.k,
        "D_L": code.D_L,
        "rank": code.rank,
    }
    if args.distance:
        report["distance"] = code.code_distance(budget=args.budget).to_json()
    if args.succinct:
        s = code.is_succinct(budget=args.budget)
        report["succinct"] = {"kind": "exact" if s is not None else "unknown", "value": s}
    if args.expansion:
        try:
            report["expansion"] = code.graph.small_set_expansion_error(args.sets)
        except ValueError as exc:
            report["expansion"] = {"refused": str(exc)}
    if args.profile:
        try:
            report["profile"] = attacks.soundness_profile(code, args.wcap).to_json()
        except ValueError as exc:
            report["profile"] = {"refused": str(exc)}
    _emit(report, args.out)
    return 0


def _expander_bound(code, rep) -> float:
    try:
        scan = code.graph.small_set_expansion_error(code.k)
    except ValueError as exc:  # the exhaustive scan is infeasible
        raise attacks.Refusal(str(exc)) from exc
    return 2 * scan["epsilon_star"]


_BOUNDS = {
    "expander": _expander_bound,
    "refined": lambda code, rep: rep.meta["r_bound"],
    "alphabet": lambda code, rep: attacks.alphabet_alpha(code.d),
}


def cmd_attack(args) -> int:
    # island_attack keeps a float64 penalty and weight per trial
    if args.attack == "island" and 16 * args.trials > zoo.BUILD_GUARD:
        raise InputError(
            f"--trials {args.trials} needs {16 * args.trials / 1e9:.3g} GB of per-trial arrays,"
            f" over the {zoo.BUILD_GUARD / 1e9:.3g} GB guard"
        )
    code = load_code(args.source)
    if args.attack in ("expander", "refined", "alphabet", "island") and args.seed is None:
        raise InputError("a --seed is mandatory for stochastic attack runs")
    report: dict = {"command": "attack", "source": args.source, "attack": args.attack}
    try:
        return _run_attack(args, code, report)
    except attacks.Refusal as exc:
        # precondition shortfall: refusal with a report, exit 0
        report["refused"] = str(exc)
        _emit(report, args.out)
        return 0


def _run_attack(args, code, report) -> int:
    csv_row = None
    if args.attack == "island":
        stats = attacks.island_attack(
            code, trials=args.trials, seed=args.seed, best_budget=args.budget
        )
        report["island_stats"] = stats.to_json()
        rep = stats.best_trial
        bound = attacks.alphabet_alpha(code.d)
    else:
        if args.delta is None:
            raise InputError(f"attack {args.attack!r} requires --delta")
        if args.attack == "expander":
            rep = attacks.expander_attack(code, args.delta, seed=args.seed, budget=args.budget)
        elif args.attack == "alphabet":
            dl = code.D_L or max(len(v) for v in code.graph.left_adj)
            if args.delta > 1.0 / (code.k**3 * dl):
                report["warning"] = (
                    f"delta {args.delta} exceeds 1/(k^3 D_L) = {1.0 / (code.k ** 3 * dl)}; "
                    "the alpha(d) guarantee does not apply"
                )
            rep = attacks.alphabet_attack(code, args.delta, seed=args.seed, budget=args.budget)
        elif args.attack == "refined":
            target = max(1, int(args.delta * code.n))
            u = code.graph.greedy_t_independent(1, target, seed=args.seed)
            rep = attacks.refined_expander_attack(code, u, args.delta, budget=args.budget)
        else:
            raise InputError(f"unknown attack {args.attack!r}")
        bound = _BOUNDS[args.attack](code, rep)
        report["report"] = rep.to_json()
    if args.attack == "island":
        report_rep = rep.to_json()
        report["best_trial"] = report_rep
    r_pess = rep.r_pessimistic
    csv_row = {
        "delta": rep.delta_low,
        "R": rep.R,
        "r": r_pess,
        "bound": bound,
        "bound_holds": r_pess <= bound + 1e-12,
    }
    report["csv_row"] = csv_row
    if args.csv:
        new = not os.path.exists(args.csv)
        with open(args.csv, "a", newline="") as f:
            w = csv.DictWriter(f, fieldnames=["delta", "R", "r", "bound", "bound_holds"])
            if new:
                w.writeheader()
            w.writerow(csv_row)
    _emit(report, args.out)
    return 0


def cmd_verify(args) -> int:
    code = load_code(args.source)
    try:
        dim = dense._check_cap(code.d, code.n)
    except dense.SizeCapError as exc:
        _emit({"command": "verify", "source": args.source, "refused": str(exc)}, args.out)
        return 0
    work = args.samples * dim * dim
    if work > dense.SAMPLE_WORK_GUARD:
        raise InputError(
            f"--samples {args.samples} asks for {work:.3g} dense multiply-adds"
            f" (samples x d^(2n)), over the {dense.SAMPLE_WORK_GUARD:.3g} guard"
        )
    rho = args.rho
    if rho is None:
        dist = code.code_distance()
        rho = dist.low if not dist.exact else dist.value
    det = dense.verify_detectability(code, rho)
    eq = dense.verify_sltc_qltc_equivalence(code, samples=args.samples, seed=args.seed or 0)
    basis_dim = dense.codespace_basis(code).shape[1]
    report = {
        "command": "verify",
        "source": args.source,
        "codespace_dimension": basis_dim,
        "expected_dimension": code.d ** (code.n - code.rank),
        "detectability": det,
        "energy_equivalence": eq,
        "passed": det["passed"] and eq["passed"],
    }
    _emit(report, args.out)
    if not (det["passed"] and eq["passed"]):
        return 2  # a proven identity failed numerically: internal breach
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """JSON config file whose keys override the parsed flags, read through each flag's type."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.cmd]._actions if a.dest != "help"}
    for key, value in cfg.items():
        action = actions.get(key)
        if action is None:
            raise InputError(f"unknown config key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            if not isinstance(value, bool):
                raise InputError(f"config key {key!r} must be true or false, got {value!r}")
        else:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise InputError(f"config key {key!r} must be a string or a number, got {value!r}")
            try:
                value = (action.type or str)(str(value))
            except (TypeError, ValueError, InputError) as exc:
                raise InputError(f"config key {key!r}: {exc}") from exc
            if action.choices is not None and value not in action.choices:
                raise InputError(f"config key {key!r} must be one of {sorted(action.choices)}")
        setattr(args, key, value)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qltc", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("source", help="preset name or code file")
        sp.add_argument("--out", help="report JSON path (default stdout)")
        sp.add_argument("--config", help="JSON config file overriding flags")
        sp.add_argument("--seed", type=_seed_type, default=None)
        sp.add_argument("--budget", type=_int_at_least("--budget", 0), default=None,
                        help="cap on the half-table words each weight search may build")

    b = sub.add_parser("build", help="build/validate a code and save it")
    common(b)
    b.add_argument("--out-code", help="write the code JSON file here")
    b.set_defaults(fn=cmd_build)

    a = sub.add_parser("analyze", help="distance / succinctness / expansion / profile")
    common(a)
    a.add_argument("--distance", action="store_true")
    a.add_argument("--succinct", action="store_true")
    a.add_argument("--expansion", action="store_true")
    a.add_argument("--sets", type=_int_at_least("--sets", 1), default=2,
                   help="expansion set-size cap")
    a.add_argument("--profile", action="store_true")
    a.add_argument("--wcap", type=_int_at_least("--wcap", 1), default=2,
                   help="profile coset-weight cap")
    a.set_defaults(fn=cmd_analyze)

    t = sub.add_parser("attack", help="run an adversarial construction")
    common(t)
    t.add_argument("attack", choices=["expander", "refined", "alphabet", "island"])
    t.add_argument("--delta", type=_delta_type, default=None)
    t.add_argument("--trials", type=_int_at_least("--trials", 1), default=1000)
    t.add_argument("--csv", help="append the (delta,R,r,bound,bound_holds) row here")
    t.set_defaults(fn=cmd_attack)

    v = sub.add_parser("verify", help="dense Hilbert-space verification")
    common(v)
    v.add_argument("--rho", type=_int_at_least("--rho", 1), default=None,
                   help="detectability weight bound")
    v.add_argument("--samples", type=_int_at_least("--samples", 1), default=50)
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        # a bad flag value raises InputError from its type function; argparse
        # itself still exits 2 on a malformed command line (unknown flag,
        # missing argument), the usage-error code the benchmark harness expects
        args = parser.parse_args(argv)
        _apply_config(args, parser)
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CodeValidationError as exc:
        print(f"invalid code: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a report, code or CSV path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # any other fault is internal too, never a refusal
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
