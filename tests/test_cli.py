import contextlib
import csv
import datetime
import io
import json
import os
import signal
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qltc
from qltc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv):
    """Run the CLI in a fresh interpreter; the timeout turns a hang into a failure."""
    src = os.path.dirname(os.path.dirname(qltc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "qltc.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def load_report(path):
    with open(path) as f:
        return json.load(f)


# --- build -----------------------------------------------------------------

def test_build_toric3(capsys):
    code, out, _ = run(capsys, "build", "toric:3")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "qltc-report/1"
    assert (rep["n"], rep["m"], rep["rank"]) == (18, 18, 16)
    assert rep["css"] and rep["valid"]


def test_build_roundtrip_code_file(tmp_path, capsys):
    code_file = tmp_path / "toric2.json"
    code, _, _ = run(capsys, "build", "toric:2", "--out-code", str(code_file))
    assert code == 0 and code_file.exists()
    code, out, _ = run(capsys, "build", str(code_file))
    assert code == 0
    assert json.loads(out)["n"] == 8


def test_build_invalid_css_exits_1(tmp_path, capsys):
    hx = tmp_path / "hx.txt"
    hz = tmp_path / "hz.txt"
    hx.write_text("0 1\n")
    hz.write_text("0 2\n")  # rows not orthogonal over GF(2)
    code, _, err = run(capsys, "build", f"css:{hx},{hz}")
    assert code == 1
    assert "error" in err or "invalid" in err


def test_unknown_source_exits_1(capsys):
    code, _, err = run(capsys, "build", "nonsense")
    assert code == 1 and "unknown code source" in err


def test_unknown_preset_exits_1(capsys):
    code, _, err = run(capsys, "build", "surface:3")
    assert code == 1


def test_code_file_with_non_prime_d_exits_1(tmp_path, capsys):
    path = tmp_path / "d4.json"
    gens = [{"d": 4, "n": 2, "x": [1, 1], "z": [0, 0]}, {"d": 4, "n": 2, "x": [0, 0], "z": [1, 1]}]
    path.write_text(json.dumps({"d": 4, "n": 2, "k": 2, "generators": gens}))
    code, _, err = run(capsys, "build", str(path))
    assert code == 1 and "prime" in err


def test_code_file_with_malformed_generators_exits_1(tmp_path, capsys):
    good = {"d": 2, "n": 2, "x": [1, 1], "z": [0, 0]}
    for body in ({"d": 2, "n": 2, "k": 2, "generators": [good, 5]},
                 [good],
                 {"d": 2, "n": 2, "k": 2, "generators": [{**good, "x": None}]}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        code, out, err = run(capsys, "build", str(path))
        assert code == 1 and out == "" and "cannot load code file" in err


def test_existing_file_wins_over_preset_name(tmp_path, capsys):
    path = tmp_path / "a:b.json"
    assert run(capsys, "build", "toric:2", "--out-code", str(path))[0] == 0
    code, out, _ = run(capsys, "build", str(path))
    assert code == 0 and json.loads(out)["n"] == 8


# --- analyze ---------------------------------------------------------------

def test_analyze_distance_toric4(capsys):
    code, out, _ = run(capsys, "analyze", "toric:4", "--distance")
    assert code == 0
    rep = json.loads(out)
    assert rep["distance"] == {"kind": "exact", "value": 4}


def test_analyze_steane_profile(capsys):
    code, out, _ = run(capsys, "analyze", "steane", "--profile", "--wcap", "3", "--succinct")
    assert code == 0
    rep = json.loads(out)
    assert rep["profile"]["coverage_complete"]
    assert rep["succinct"]["value"] is True


def test_analyze_profile_refused_in_band(capsys):
    code, out, _ = run(capsys, "analyze", "toric:4", "--profile", "--wcap", "10")
    assert code == 0
    assert "refused" in json.loads(out)["profile"]


def test_analyze_expansion(capsys):
    code, out, _ = run(capsys, "analyze", "toric:3", "--expansion", "--sets", "2")
    rep = json.loads(out)
    assert code == 0 and rep["expansion"]["epsilon_star"] == pytest.approx(0.25)
    assert rep["expansion"]["sets_scanned"] == 90  # 18 qudits, 72 adjacent pairs


def test_analyze_expansion_sets_below_1_exits_1(tmp_path):
    proc = run_process("analyze", "toric:3", "--expansion", "--sets", "0")
    assert proc.returncode == 1 and "--sets" in proc.stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sets": -1}))
    proc = run_process("analyze", "toric:3", "--expansion", "--config", str(cfg))
    assert proc.returncode == 1 and "--sets" in proc.stderr


def test_analyze_expansion_refused_in_band(capsys):
    code, out, _ = run(capsys, "analyze", "toric:10", "--expansion", "--sets", "8")
    assert code == 0
    refusal = json.loads(out)["expansion"]["refused"]
    assert "infeasible" in refusal and "--sets" in refusal and "sampled" not in refusal


# --- attack ----------------------------------------------------------------

def test_attack_requires_seed(capsys):
    code, _, err = run(capsys, "attack", "toric:4", "expander", "--delta", "0.03")
    assert code == 1 and "seed" in err


def test_attack_expander_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "attack", "toric:4", "expander", "--delta", "0.03",
        "--seed", "1", "--csv", str(csv_path),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["csv_row"]["bound_holds"] is True
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert float(rows[0]["r"]) == pytest.approx(rep["csv_row"]["r"])
    # appending keeps one header
    run(capsys, "attack", "toric:4", "expander", "--delta", "0.03",
        "--seed", "2", "--csv", str(csv_path))
    with open(csv_path) as f:
        assert len(list(csv.DictReader(f))) == 2


@pytest.mark.parametrize("argv", [
    ("attack", "toric:2:257", "expander", "--delta", "0.1", "--seed", "1"),
    ("analyze", "toric:2:257", "--distance"),
])
def test_qudit_dimension_past_one_byte(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rep = json.loads(out)
    if argv[0] == "analyze":
        assert rep["distance"] == {"kind": "exact", "value": 2}
    else:
        assert rep["csv_row"]["bound_holds"] is True


def test_attack_alphabet_precondition_warning(capsys):
    code, out, _ = run(capsys, "attack", "steane", "alphabet", "--delta", "0.14", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert "warning" in rep  # delta exceeds 1/(k^3 D_L)
    assert rep["csv_row"]["bound_holds"] is True


def test_attack_missing_delta_exits_1(capsys):
    code, _, err = run(capsys, "attack", "toric:3", "expander", "--seed", "0")
    assert code == 1 and "--delta" in err


def test_attack_island(capsys):
    code, out, _ = run(
        capsys, "attack", "toric:4", "island", "--trials", "50", "--seed", "3"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["island_stats"]["trials"] == 50
    assert rep["best_trial"]["penalty"]["value"] > 0


def test_attack_refused_in_band(capsys):
    # delta 0.9 asks for more qudits than toric:3's independent set gives: refusal, exit 0
    code, out, _ = run(capsys, "attack", "toric:3", "refined", "--delta", "0.9", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert "refused" in rep or rep["csv_row"]["bound_holds"]


def test_attack_internal_value_error_exits_2(capsys, monkeypatch):
    # only attacks.Refusal is an in-band refusal; a ValueError from inside
    # the computation is a fault
    from qltc import attacks, cli, fieldmath, search, stabilizer

    def broken(a, b, p):
        raise ValueError("broken product")

    code = qltc.toric_code(4)
    monkeypatch.setattr(cli, "load_code", lambda source: code)
    for module in (fieldmath, search, stabilizer, attacks):
        monkeypatch.setattr(module, "modmul", broken, raising=False)
    code, out, err = run(capsys, "attack", "toric:4", "island", "--trials", "50", "--seed", "3")
    assert code == 2 and out == ""
    assert "broken product" in err


def test_unwritable_report_path_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "build", "toric:2", "--out", str(tmp_path / "no" / "r.json"))
    assert code == 1 and "r.json" in err


def test_attack_infeasible_expander_bound_refused_in_band(capsys, monkeypatch):
    monkeypatch.setattr(qltc.graphs.BipartiteGraph, "_connected_set_estimate",
                        lambda self, size_cap: 10**12)
    code, out, _ = run(capsys, "attack", "toric:3", "expander", "--delta", "0.05", "--seed", "0")
    assert code == 0
    assert "infeasible" in json.loads(out)["refused"]


@pytest.mark.parametrize("argv", [
    ("expander", "--delta", "-1"),
    ("expander", "--delta", "0"),
    ("island", "--trials", "0"),
])
def test_attack_bad_delta_or_trials_exits_1(capsys, argv):
    code, out, err = run(capsys, "attack", "toric:3", *argv, "--seed", "0")
    assert code == 1 and out == ""
    assert ("--delta" if "--delta" in argv else "--trials") in err


def test_non_numeric_value_exits_1(capsys):
    # argparse's own type=int error would exit 2
    code, out, err = run(capsys, "attack", "toric:3", "island", "--trials", "abc", "--seed", "1")
    assert code == 1 and out == "" and "--trials" in err
    code, out, err = run(capsys, "analyze", "toric:3", "--expansion", "--sets", "two")
    assert code == 1 and out == "" and "--sets" in err


@pytest.mark.parametrize("argv", [
    ("attack", "toric:3"),  # the attack name is missing
    ("build",),  # the source is missing
    ("analyze", "toric:3", "--no-such-flag"),
])
def test_malformed_command_line_is_an_argparse_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2 and "usage: qltc" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("verify", "steane", "--samples", "-3"), "--samples"),
    (("analyze", "toric:3", "--distance", "--budget", "-5"), "--budget"),
    (("analyze", "toric:3", "--profile", "--wcap", "-1"), "--wcap"),
    (("verify", "steane", "--rho", "-2"), "--rho"),
    (("attack", "toric:4", "expander", "--delta", "inf", "--seed", "1"), "--delta"),
    # counts too large for memory or time are refused before any work
    (("attack", "toric:2", "island", "--trials", "99999999999", "--seed", "1"), "--trials"),
    (("verify", "steane", "--samples", "99999999999999"), "--samples"),
])
def test_out_of_range_numbers_exit_1(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and flag in err


def test_out_of_range_config_value_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wcap": -1}))
    code, out, err = run(capsys, "analyze", "toric:3", "--profile", "--config", str(cfg))
    assert code == 1 and out == "" and "--wcap" in err


@pytest.mark.parametrize("source", ["toric:64", "toric:100000"])
def test_oversized_build_refused_before_allocation(source):
    # under a 1 GB address-space limit an attempted allocation would fail with
    # exit 2; the size guard refuses first
    import resource

    limit = 1 << 30
    src = os.path.dirname(os.path.dirname(qltc.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "qltc.cli", "build", source], env=env, capture_output=True,
        text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "guard" in proc.stderr


@pytest.mark.parametrize("argv, seed", [
    (("build", "toric:2"), "-1"),
    (("analyze", "toric:3", "--expansion"), "-1"),
    (("attack", "toric:4", "expander", "--delta", "0.03"), "-1"),
    (("attack", "toric:4", "alphabet", "--delta", "0.03"), "-1"),
    (("attack", "toric:4", "refined", "--delta", "0.03"), "-1"),
    (("attack", "toric:4", "island", "--trials", "5"), "-1"),
    (("attack", "toric:4", "island", "--trials", "5"), str(2**128)),
    (("attack", "toric:4", "island", "--trials", "5"), "1.5"),
    (("verify", "steane"), "-1"),
])
def test_seed_outside_128_bits_exits_1(capsys, argv, seed):
    code, out, err = run(capsys, *argv, "--seed", seed)
    assert code == 1 and out == ""
    assert "--seed" in err and "Traceback" not in err


def test_largest_seed_accepted(capsys):
    code, out, _ = run(capsys, "attack", "toric:4", "island", "--trials", "5",
                       "--seed", str(2**128 - 1))
    assert code == 0 and json.loads(out)["island_stats"]["seed"] == 2**128 - 1


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_config_seed_outside_128_bits_exits_1(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}))
    code, out, err = run(capsys, "attack", "toric:4", "island", "--trials", "5",
                         "--config", str(cfg))
    assert code == 1 and out == ""
    assert "seed" in err and "Traceback" not in err


# --- verify ----------------------------------------------------------------

def test_verify_steane(capsys):
    code, out, _ = run(capsys, "verify", "steane", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"]
    assert rep["codespace_dimension"] == rep["expected_dimension"] == 2


def test_verify_toric2(capsys):
    code, out, _ = run(capsys, "verify", "toric:2", "--samples", "20", "--seed", "1")
    assert code == 0
    assert json.loads(out)["codespace_dimension"] == 4


def test_verify_toric4_refused(capsys):
    code, out, _ = run(capsys, "verify", "toric:4")
    assert code == 0
    assert "refused" in json.loads(out)


# --- config / output files -------------------------------------------------

def test_config_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.03, "seed": 7}))
    code, out, _ = run(
        capsys, "attack", "toric:4", "expander", "--delta", "0.9",
        "--seed", "1", "--config", str(cfg),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["seed"] == 7


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "build", "toric:2", "--config", str(cfg))
    assert code == 1 and "unknown config key" in err


def test_config_values_go_through_flag_types(tmp_path, capsys):
    def with_config(cfg, *argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run(capsys, *argv, "--config", str(path))

    code, out, _ = with_config({"sets": "2"}, "analyze", "toric:3", "--expansion")
    assert code == 0 and json.loads(out)["expansion"]["epsilon_star"] == pytest.approx(0.25)
    attack = ("attack", "toric:4", "expander", "--seed", "3")
    code, out, _ = with_config({"delta": "0.05"}, *attack)
    assert code == 0
    assert json.loads(out) == json.loads(run(capsys, *attack, "--delta", "0.05")[1])
    code, out, _ = with_config({"distance": True}, "analyze", "toric:3")
    assert code == 0 and json.loads(out)["distance"] == {"kind": "exact", "value": 3}
    for cfg, argv in (({"sets": "two"}, ("analyze", "toric:3", "--expansion")),
                      ({"sets": 2.5}, ("analyze", "toric:3", "--expansion")),
                      ({"delta": [0.1]}, attack),
                      ({"delta": None}, attack),
                      ({"distance": "yes"}, ("analyze", "toric:3")),
                      ({"distance": 1}, ("analyze", "toric:3")),
                      ({"attack": "bogus"}, attack)):
        code, out, err = with_config(cfg, *argv)
        assert code == 1 and out == "" and "config key" in err, cfg


def test_out_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "build", "toric:2", "--out", str(out_path))
    assert code == 0 and out == ""
    assert load_report(out_path)["rank"] == 6


def test_determinism_identical_reports(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["attack", "toric:4", "island", "--trials", "40", "--seed", "5"]
    run(capsys, *argv, "--out", str(a))
    run(capsys, *argv, "--out", str(b))
    assert a.read_text() == b.read_text()


# --- in-process fuzz of main() ---------------------------------------------

# (good, bad) pools of sources and flag values; a draw is good three times in four.
# Good sources are small presets and presets the dense oracle refuses; good weights
# and set sizes go past n, and good counts past memory, where they must be answered or
# refused, not enumerated.
SOURCES = (["toric:3", "toric:2:3", "steane", "toric:6"],
           ["toric:1", "toric:0", "toric:-2", "toric:3:4", "toric:x", "toric:", "toric:100000",
            "hgp:", "css:no-such-file,no-such-file", "no-such-source", ""])
WEIGHTS = (["1", "2", "3", "99999", "9" * 40],
           ["0", "-1", "abc", "", "1.5", "inf", "nan", "1e3", "0x10"])
COUNTS = (["1", "2", "5", "+4", "99999999999", "99999999999999"],
          ["0", "-3", "abc", "", "2.5", "nan", "1e2"])
SEEDS = (["0", "1", "7", str(2**128 - 1)], ["-1", "abc", "", str(2**128), "1e5", "0b1"])
DELTAS = (["0.05", "0.5", "1", "1e-300", "5e-2"], ["0", "-0.1", "1.5", "inf", "nan", "abc", ""])
FUZZ_FLAGS = {
    "build": {},
    "analyze": {"--distance": None, "--succinct": None, "--expansion": None, "--profile": None,
                "--sets": WEIGHTS, "--wcap": WEIGHTS},
    "attack": {"--delta": DELTAS, "--trials": COUNTS},
    "verify": {"--rho": WEIGHTS, "--samples": COUNTS},
}
RARE_FLAGS = [["--no-such-flag"], ["--help"], ["--config", "no-such-config.json"]]


@st.composite
def command_lines(draw):
    """argv drawn from each command's flags: small presets, malformed numbers, flags
    without their value, missing positionals and unknown flags or commands."""

    def pick(pools):
        return draw(st.sampled_from(pools[0] if draw(st.integers(0, 3)) else pools[1]))

    cmd = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = {"--seed": SEEDS, "--budget": WEIGHTS, **FUZZ_FLAGS[cmd]}
    argv = [cmd] if draw(st.integers(0, 19)) else [draw(st.sampled_from(["no-such-command", ""]))]
    if draw(st.integers(0, 19)):
        argv.append(pick(SOURCES))
    if cmd == "attack" and draw(st.integers(0, 19)):
        argv.append(draw(st.sampled_from(["expander", "refined", "alphabet", "island", "bogus"])))
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=5, unique=True)):
        argv.append(flag)
        if flags[flag] is not None and draw(st.integers(0, 19)):  # rarely, the value is missing
            argv.append(pick(flags[flag]))
    if not draw(st.integers(0, 9)):
        argv.extend(draw(st.sampled_from(RARE_FLAGS)))
    return argv


class Hang(BaseException):
    """A command outlived the fuzz's hard bound (main() catches every Exception)."""


def _run_in_process(argv, seconds=60):
    """main(argv)'s exit code, stdout and stderr.

    The alarm turns a hang, which the hypothesis deadline cannot interrupt, into a failure.
    """

    def hang(signum, frame):
        raise Hang(f"{argv} still running after {seconds} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: --help exits 0, a usage error exits 2
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@given(command_lines())
# weights and set sizes far past n: each of these once hung in its enumeration or estimate
@example(["verify", "steane", "--rho", "9" * 40])
@example(["analyze", "toric:3", "--profile", "--wcap", "99999"])
@example(["analyze", "toric:3", "--expansion", "--sets", "99999"])
# counts past memory or time: the first once ran out of memory, the second hung
@example(["attack", "toric:2", "island", "--trials", "99999999999", "--seed", "1"])
@example(["verify", "steane", "--samples", "99999999999999"])
@settings(max_examples=200, deadline=datetime.timedelta(seconds=10))
def test_main_fuzz_exit_contract(argv):
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code != 2:
        assert "Traceback" not in err, (argv, err)
    elif "Traceback" not in err:
        # exit 2 without a traceback: argparse's usage error, or a verify report whose
        # identities failed (detectability past the distance fails by design)
        verify_failed = argv[:1] == ["verify"] and out and json.loads(out)["passed"] is False
        assert err.startswith("usage: qltc") or verify_failed, (argv, out, err)
