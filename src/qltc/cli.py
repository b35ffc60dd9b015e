"""Command-line interface: build / analyze / attack / verify.

Codes are addressed by preset name (toric:L[:d], steane,
hgp:H1.txt,H2.txt, css:Hx.txt,Hz.txt) or by a saved JSON code file.
Reports are JSON with a schema field and per-quantity exactness labels;
attack runs also emit a CSV row (delta, R, r, bound, bound_holds).
`main` starts each report, the command fills it in, and `main` emits it
once.  A Refusal (graphs.Refusal, the one in-band refusal) becomes the
report's "refused" field; analyze keeps one per section instead.
Exit codes: 0 success (including refusals that produce a report), 1
bad input (fieldmath.InputError alone, raised where outside input is
checked) or output that cannot be written (a closed stdout included),
2 internal invariant breach or any other fault (a ValueError from
inside a build included) and argparse's usage error (unknown flag,
missing argument).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import traceback

import numpy as np

from . import attacks, dense, zoo
from .fieldmath import CodeValidationError, InputError, residue_dtype, residues
from .graphs import Refusal
from .stabilizer import StabilizerCode

SCHEMA = "qltc-report/1"


@contextlib.contextmanager
def _bad_input(types, context: str = ""):
    """Turn an exception of `types` raised in the block into InputError, after context."""
    try:
        yield
    except types as exc:
        raise InputError(f"{context}{exc}") from exc


def _flag(flag: str, convert, ok, wording: str):
    """argparse type of a flag: its text converted, or InputError unless ok(value)."""

    def parse(text: str):
        with contextlib.suppress(ValueError):  # text that does not convert is bad input
            value = convert(text)
            if ok(value):
                return value
        raise InputError(f"{flag} must be {wording}, got {text!r}")

    return parse


def _count(flag: str, least: int = 1):
    return _flag(flag, int, lambda v: v >= least, f"an integer >= {least}")


def load_code(source: str) -> StabilizerCode:
    """Resolve a JSON code-file path or, when no such file exists, a preset name."""
    if os.path.exists(source):
        with _bad_input((OSError, InputError), f"cannot load code file {source}: "):
            return StabilizerCode.load(source)
    if ":" in source or source in ("steane",):
        return _preset(source)
    raise InputError(f"unknown code source {source!r} (not a preset, not a file)")


def _preset(name_spec: str) -> StabilizerCode:
    name, _, rest = name_spec.partition(":")
    with _bad_input(CodeValidationError, f"cannot build preset {name_spec!r}: "):
        if name == "toric":
            return zoo.toric_code(*_toric_fields(name_spec, rest))
        if name == "steane":
            if name_spec != "steane":
                raise InputError(f"steane preset takes no fields, got {name_spec!r}")
            return zoo.steane_code()
        if name in ("hgp", "css"):
            f1, _, f2 = rest.partition(",")
            if not f2:
                raise InputError(f"{name} preset needs two matrix files, got {rest!r}")
            build = zoo.css_hypergraph_product if name == "hgp" else zoo.css_code
            return build(_read_matrix(f1), _read_matrix(f2), strict_degree=False)
    raise InputError(f"unknown preset {name!r}")


def _toric_fields(name_spec: str, rest: str) -> list[int]:
    """L, or L and d, of a toric preset."""
    fields = rest.split(":")
    with contextlib.suppress(ValueError):  # a field that is not an integer is bad input
        if len(fields) <= 2:
            return [int(field) for field in fields]
    raise InputError(f"toric preset is toric:L or toric:L:d, got {name_spec!r}")


def _read_matrix(path: str) -> np.ndarray:
    # mod 2, as both presets are binary: the int64 matrix dies here, before any build
    with _bad_input((OSError, UnicodeDecodeError), f"cannot read matrix file {path}: "):
        with open(path) as f:
            text = f.read()
    return residues(zoo.parse_sparse_rows(text), 2, residue_dtype(2))


def _emit(report: dict, path: str | None) -> None:
    report = {"schema": SCHEMA, **report}
    text = json.dumps(report, indent=1, sort_keys=True)
    if path:
        with _bad_input(OSError), open(path, "w") as f:
            f.write(text + "\n")
        return
    # flushed here, so a closed stdout is bad output, not a fault at exit
    with _bad_input(OSError, "cannot write the report to stdout: "):
        print(text, flush=True)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _code_fields(code: StabilizerCode) -> dict:
    return {"n": code.n, "m": code.m, "d": code.d, "k": code.k, "D_L": code.D_L,
            "rank": code.rank}


def cmd_build(args, report: dict) -> int:
    code = load_code(args.source)
    if args.out_code:
        with _bad_input(OSError):
            code.save(args.out_code, meta={"source": args.source})
    report.update(_code_fields(code), css=code.is_css(), valid=True)
    return 0


def cmd_analyze(args, report: dict) -> int:
    code = load_code(args.source)
    report.update(_code_fields(code))
    if args.distance:
        report["distance"] = code.code_distance(budget=args.budget).to_json()
    if args.succinct:
        s = code.is_succinct(budget=args.budget)
        report["succinct"] = {"kind": "exact" if s is not None else "unknown", "value": s}
    # a section past its guard is refused alone; the other sections still report
    if args.expansion:
        try:
            report["expansion"] = code.graph.small_set_expansion_error(args.sets, code.symmetries)
        except Refusal as exc:
            report["expansion"] = {"refused": str(exc)}
    if args.profile:
        try:
            report["profile"] = attacks.soundness_profile(code, args.wcap).to_json()
        except Refusal as exc:
            report["profile"] = {"refused": str(exc)}
    return 0


# the bound each attack's r is checked against; the expander's scan may refuse
_BOUNDS = {
    "expander": lambda code, rep: 2 * code.graph.small_set_expansion_error(
        code.k, code.symmetries)["epsilon_star"],
    "refined": lambda code, rep: rep.meta["r_bound"],
    "alphabet": lambda code, rep: attacks.alphabet_alpha(code.d),
    "island": lambda code, rep: attacks.alphabet_alpha(code.d),
}


def cmd_attack(args, report: dict) -> int:
    # the flags are checked before the code, whose build may take seconds
    if args.attack == "island" and args.trials > attacks.TRIAL_GUARD:
        raise InputError(
            f"--trials {args.trials} is over the guard of {attacks.TRIAL_GUARD} island trials"
        )
    if args.seed is None:
        raise InputError("a --seed is mandatory for stochastic attack runs")
    if args.attack != "island" and args.delta is None:
        raise InputError(f"attack {args.attack!r} requires --delta")
    code = load_code(args.source)
    report["attack"] = args.attack
    if args.attack == "island":
        stats = attacks.island_attack(
            code, trials=args.trials, seed=args.seed, best_budget=args.budget
        )
        rep = stats.best_trial
        report.update(island_stats=stats.to_json(), best_trial=rep.to_json())
    else:
        if args.attack == "expander":
            rep = attacks.expander_attack(code, args.delta, seed=args.seed, budget=args.budget)
        elif args.attack == "alphabet":
            cap = attacks.alphabet_delta_cap(code)
            if cap is None:
                report["warning"] = ("the code has no single left degree D_L; "
                                     "the alpha(d) guarantee does not apply")
            elif args.delta > cap:
                report["warning"] = (
                    f"delta {args.delta} exceeds 1/(k^3 D_L) = {cap}; "
                    "the alpha(d) guarantee does not apply"
                )
            rep = attacks.alphabet_attack(code, args.delta, seed=args.seed, budget=args.budget)
        else:
            target = attacks._target_size(code, args.delta)
            u = code.graph.greedy_t_independent(1, target, seed=args.seed)
            rep = attacks.refined_expander_attack(code, u, args.delta, budget=args.budget)
    bound = _BOUNDS[args.attack](code, rep)
    if args.attack != "island":
        report["report"] = rep.to_json()
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
        with _bad_input(OSError), open(args.csv, "a", newline="") as f:
            w = csv.DictWriter(f, fieldnames=["delta", "R", "r", "bound", "bound_holds"])
            if new:
                w.writeheader()
            w.writerow(csv_row)
    return 0


def cmd_verify(args, report: dict) -> int:
    code = load_code(args.source)
    dim = dense._check_cap(code.d, code.n)
    work = args.samples * dim * dim
    if work > dense.SAMPLE_WORK_GUARD:
        raise InputError(
            f"--samples {args.samples} asks for {work:.3g} dense multiply-adds"
            f" (samples x d^(2n)), over the {dense.SAMPLE_WORK_GUARD:.3g} guard"
        )
    dist = code.code_distance()
    rho = args.rho
    if rho is None:
        rho = dist.low
    elif dist.exact and rho > dist.value:
        # a logical of weight dist.value < rho is undetectable: the check would fail by design
        raise InputError(f"--rho {rho} exceeds the code distance {dist.value}")
    det = dense.verify_detectability(code, rho)
    eq = dense.verify_sltc_qltc_equivalence(code, samples=args.samples, seed=args.seed or 0)
    report.update(
        codespace_dimension=dense.codespace_basis(code).shape[1],
        expected_dimension=code.d ** (code.n - code.rank),
        detectability=det,
        energy_equivalence=eq,
        passed=det["passed"] and eq["passed"],
    )
    return 0 if report["passed"] else 2  # a proven identity failed numerically: internal breach


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """JSON config file whose keys override the parsed flags, read through each flag's type."""
    if not getattr(args, "config", None):
        return
    with _bad_input((OSError, UnicodeDecodeError, json.JSONDecodeError),
                    f"cannot read config {args.config}: "), open(args.config) as f:
        cfg = json.load(f)
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
            with _bad_input(InputError, f"config key {key!r}: "):
                value = (action.type or str)(str(value))
            if action.choices is not None and value not in action.choices:
                raise InputError(f"config key {key!r} must be one of {sorted(action.choices)}")
        setattr(args, key, value)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qltc", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, seed: bool = False, budget: bool = False):
        sp.add_argument("source", help="preset name or code file")
        sp.add_argument("--out", help="report JSON path (default stdout)")
        sp.add_argument("--config", help="JSON config file overriding flags")
        if seed:  # a seed keys the island attack's Philox streams
            sp.add_argument("--seed", type=_flag("--seed", int, lambda v: 0 <= v < 1 << 128,
                                                 "an integer in [0, 2**128)"), default=None)
        if budget:
            sp.add_argument("--budget", type=_count("--budget", 0), default=None,
                            help="cap on the half-table words each weight search may build")

    b = sub.add_parser("build", help="build/validate a code and save it")
    common(b)
    b.add_argument("--out-code", help="write the code JSON file here")
    b.set_defaults(fn=cmd_build)

    a = sub.add_parser("analyze", help="distance / succinctness / expansion / profile")
    common(a, budget=True)
    a.add_argument("--distance", action="store_true")
    a.add_argument("--succinct", action="store_true")
    a.add_argument("--expansion", action="store_true")
    a.add_argument("--sets", type=_count("--sets"), default=2,
                   help="expansion set-size cap")
    a.add_argument("--profile", action="store_true")
    a.add_argument("--wcap", type=_count("--wcap"), default=2,
                   help="profile coset-weight cap")
    a.set_defaults(fn=cmd_analyze)

    t = sub.add_parser("attack", help="run an adversarial construction")
    common(t, seed=True, budget=True)
    t.add_argument("attack", choices=["expander", "refined", "alphabet", "island"])
    t.add_argument("--delta", type=_flag("--delta", float, lambda v: 0 < v <= 1,
                                         "a number in (0, 1]"), default=None)
    t.add_argument("--trials", type=_count("--trials"), default=1000)
    t.add_argument("--csv", help="append the (delta,R,r,bound,bound_holds) row here")
    t.set_defaults(fn=cmd_attack)

    v = sub.add_parser("verify", help="dense Hilbert-space verification")
    common(v, seed=True)
    v.add_argument("--rho", type=_count("--rho"), default=None,
                   help="detectability weight bound, at most the code distance")
    v.add_argument("--samples", type=_count("--samples"), default=50)
    v.set_defaults(fn=cmd_verify)
    return p


# argparse keeps no state between parse_args calls: one parser serves every main call
_PARSER = make_parser()


def main(argv=None) -> int:
    try:
        # a bad flag value raises InputError from its type function; argparse
        # itself still exits 2 on a malformed command line (unknown flag,
        # missing argument), the usage-error code the benchmark harness expects
        args = _PARSER.parse_args(argv)
        _apply_config(args, _PARSER)
        report = {"command": args.cmd, "source": args.source}
        try:
            status = args.fn(args, report)
        except Refusal as exc:  # a guard or an unmet precondition: refused in-band, exit 0
            report["refused"] = str(exc)
            status = 0
        _emit(report, args.out)
        return status
    except InputError as exc:  # the one bad-input type
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 2
    except Exception:  # any other fault is internal too, never a refusal
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
