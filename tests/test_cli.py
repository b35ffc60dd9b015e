import argparse
import contextlib
import csv
import datetime
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qltc
import qltc.cli
from qltc.cli import main

DATA = Path(__file__).parent / "data"

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


def test_build_does_not_import_numpy_ma():
    # np.setdiff1d and np.unique import numpy.ma on first use, some 13 ms of a
    # CLI process; the code build takes its free columns from a boolean mask
    src = os.path.dirname(os.path.dirname(qltc.__file__))
    script = (
        "import contextlib, io, sys\n"
        "from qltc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['build', 'toric:3']) == 0\n"
        "sys.exit(1 if 'numpy.ma' in sys.modules else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_attacks_and_verify_do_not_import_numpy_random():
    # numpy.random costs a CLI process some 11 ms and 5 MB on import; the
    # attacks' greedy order and the verifier's samples draw from graphs.Pcg64,
    # and the island's trials from attacks' Philox kernel, rejected draws too
    # (about 2% of them at d = 10007)
    src = os.path.dirname(os.path.dirname(qltc.__file__))
    script = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    sys.exit(3)\n"
        "from qltc.cli import main\n"
        "runs = [['attack', 'toric:4', 'expander', '--delta', '0.05', '--seed', '1'],\n"
        "        ['attack', 'toric:4', 'alphabet', '--delta', '0.05', '--seed', '2'],\n"
        "        ['attack', 'toric:3:3', 'alphabet', '--delta', '0.05', '--seed', '3'],\n"
        "        ['attack', 'toric:4', 'refined', '--delta', '0.05', '--seed', '4'],\n"
        "        ['attack', 'toric:4', 'island', '--trials', '200', '--seed', '5'],\n"
        "        ['attack', 'toric:3:10007', 'island', '--trials', '5000', '--seed', '1'],\n"
        "        ['verify', 'steane', '--seed', '6'], ['verify', 'toric:2']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "sys.exit(2 if any(codes) else 1 if 'numpy.random' in sys.modules else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    if proc.returncode == 3:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert proc.returncode == 0, proc.stderr


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
    hz.write_text("0 2\n")
    code, _, err = run(capsys, "build", f"css:{hx},{hz}")
    assert code == 1
    assert "Hx and Hz must have the same number of columns" in err


def test_build_non_orthogonal_css_exits_1_naming_the_pair(tmp_path, capsys):
    hx = tmp_path / "hx.txt"
    hz = tmp_path / "hz.txt"
    hx.write_text("0 1\n1 2\n")
    hz.write_text("0 2\n")  # hx[0] . hz[0] = 1 over GF(2)
    code, _, err = run(capsys, "build", f"css:{hx},{hz}")
    assert code == 1
    assert "generators 0 and 2 do not commute" in err


@pytest.mark.parametrize("name, fault", [
    ("neg_col.txt", "negative column -3"), ("huge_col.txt", "line 2: a 1 x 100000000000 matrix"),
    ("css:wide.txt", "line 1: a 1 x 30000 matrix"), ("hgp:wide.txt", "line 1: a 1 x 30000 matrix"),
], ids=["neg_col.txt--3", "huge_col.txt-99999999999", "css:wide.txt-29999", "hgp:wide.txt-29999"])
def test_build_css_with_bad_column_exits_1_without_allocating(capsys, tmp_path, name, fault):
    preset, _, name = name.rpartition(":")
    path = DATA / name
    if name == "wide.txt":  # 1,200 x 30,000: refused on its shape, as css and as hgp
        path = tmp_path / name
        path.write_text("".join(f"{i} {29999 - i}\n" for i in range(1200)))
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "build", f"{preset or 'css'}:{path},{path}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and fault in err
    assert peak < 1 << 20
    assert preset == "" or "guard" in err


def test_build_css_with_a_fractional_column_names_its_line(capsys):
    path = DATA / "frac_col.txt"
    code, _, err = run(capsys, "build", f"css:{path},{path}")
    assert code == 1 and "line 2: bad entry '1.5'" in err


def test_unknown_source_exits_1(capsys):
    code, _, err = run(capsys, "build", "nonsense")
    assert code == 1 and "unknown code source" in err


def test_unknown_preset_exits_1(capsys):
    code, _, err = run(capsys, "build", "surface:3")
    assert code == 1


@pytest.mark.parametrize("source", ["toric:3:2:junk", "steane:junk", "steane:", "toric:abc",
                                    "toric:"])
def test_preset_with_extra_fields_exits_1(capsys, source):
    code, out, err = run(capsys, "build", source)
    assert code == 1 and out == "" and "preset" in err and repr(source) in err


def test_code_file_with_non_integer_exponent_exits_1(tmp_path, capsys):
    gens = [{"d": 2, "n": 2, "x": [1.5, 1], "z": [0, 0]}, {"d": 2, "n": 2, "x": [0, 0], "z": [1, 1]}]
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"d": 2, "n": 2, "k": 2, "generators": gens}))
    code, out, err = run(capsys, "build", str(path))
    assert code == 1 and out == "" and "must be integers" in err
    # an integer written as a float, or negative, is still an exponent
    gens[0]["x"] = [1.0, -1]
    path.write_text(json.dumps({"d": 2, "n": 2, "k": 2, "generators": gens}))
    code, out, _ = run(capsys, "build", str(path))
    assert code == 0 and json.loads(out)["rank"] == 2


@pytest.mark.parametrize("source, named", [("toric:2", {3}), ("toric:2:3", {0, 1, 2, 3})])
def test_code_file_with_a_bumped_phase_exits_1_naming_a_generator(tmp_path, capsys, source, named):
    # generators 0-3 are the vertex checks, whose product is I: with generator 0's
    # phase bumped it is a non-identity scalar.  Over GF(2) the elimination names the
    # first generator that, times earlier ones, is that scalar
    path = tmp_path / "bumped.json"
    assert run(capsys, "build", source, "--out-code", str(path))[0] == 0
    body = json.loads(path.read_text())
    body["generators"][0]["phase"] = 1
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, "build", str(path))
    assert code == 1 and out == "" and "codespace empty" in err
    generator = re.search(r"with generator (\d+) ", err)
    assert generator and int(generator[1]) in named, err


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
                 {"d": 2, "n": 2, "k": 2, "generators": [{**good, "x": None}]},
                 {"generators": [{"d": 2, "n": 2, "z": [1, 1]}]}):  # a generator without "x"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        code, out, err = run(capsys, "build", str(path))
        assert code == 1 and out == "" and "cannot load code file" in err


@pytest.mark.parametrize("kind", ["hgp", "css"])
@pytest.mark.parametrize("rest", ["", "{path}", "{path},"])
def test_product_preset_with_one_matrix_file_exits_1(capsys, kind, rest):
    source = f"{kind}:" + rest.format(path=DATA / "rep2.txt")
    code, out, err = run(capsys, "build", source)
    assert code == 1 and out == ""
    assert f"{kind} preset needs two matrix files" in err


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


def _saved(tmp_path, preset):
    """The preset saved as a code file, which carries no symmetries: its scan roots everywhere."""
    path = tmp_path / f"{preset.replace(':', '_')}.json"
    qltc.cli.load_code(preset).save(path)
    return str(path)


def test_analyze_expansion(capsys, tmp_path):
    sets = []
    for source in (_saved(tmp_path, "toric:3"), "toric:3"):
        code, out, _ = run(capsys, "analyze", source, "--expansion", "--sets", "2")
        rep = json.loads(out)
        assert code == 0 and rep["expansion"]["epsilon_star"] == pytest.approx(0.25)
        assert rep["expansion"]["witness"] == [0, 16]
        sets.append(rep["expansion"]["sets_scanned"])
    # from a file: 18 qudits and 72 adjacent pairs; as a preset, rooted at the orbit
    # minima 0 and 9 of the translations: 2 qudits and the 12 pairs they are least in
    assert sets == [90, 14]


def test_analyze_expansion_sets_below_1_exits_1(tmp_path):
    proc = run_process("analyze", "toric:3", "--expansion", "--sets", "0")
    assert proc.returncode == 1 and "--sets" in proc.stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sets": -1}))
    proc = run_process("analyze", "toric:3", "--expansion", "--config", str(cfg))
    assert proc.returncode == 1 and "--sets" in proc.stderr


def test_analyze_expansion_refused_in_band(capsys, tmp_path):
    for source, cap in ((_saved(tmp_path, "toric:10"), "8"), ("toric:16", "9")):
        code, out, _ = run(capsys, "analyze", source, "--expansion", "--sets", cap)
        assert code == 0
        refusal = json.loads(out)["expansion"]["refused"]
        assert "infeasible" in refusal and "--sets" in refusal and "sampled" not in refusal
    # rooted at the orbit minima of its translations, toric:10 at --sets 8 is admitted
    code, out, _ = run(capsys, "analyze", "toric:10", "--expansion", "--sets", "8")
    expansion = json.loads(out)["expansion"]
    assert code == 0 and expansion["kind"] == "exact"
    assert (expansion["epsilon_star"], expansion["sets_scanned"]) == (0.53125, 1404193)


def test_analyze_expansion_scans_every_connected_set_of_toric3(capsys, tmp_path):
    sets = []
    for source in (_saved(tmp_path, "toric:3"), "toric:3"):
        code, out, _ = run(capsys, "analyze", source, "--expansion", "--sets", "99999")
        expansion = json.loads(out)["expansion"]
        assert code == 0 and expansion["kind"] == "exact" and expansion["epsilon_star"] == 0.75
        sets.append(expansion["sets_scanned"])
    # every connected set of the 18 qudits from a file; as a preset, those whose
    # least qudit is an orbit minimum of the translations, 0 or 9
    assert sets == [251133, 127845]


@pytest.mark.parametrize("argv", [
    ("analyze", "toric:4", "--expansion"),
    ("attack", "toric:4", "expander", "--delta", "0.05", "--seed", "0"),
], ids=["analyze", "attack"])
def test_a_symmetry_that_is_not_an_automorphism_exits_2(capsys, monkeypatch, argv):
    # swapping qudits 0 and 1 moves the support of vertex (0, 0) onto no support;
    # the check raises, not asserts, so it holds under python -O too
    from qltc import cli

    code = cli.load_code("toric:4")
    swap = np.arange(code.n)
    swap[[0, 1]] = [1, 0]
    code.symmetries = (code.symmetries[0], swap)
    with pytest.raises(AssertionError, match="symmetry 1 .* not an automorphism"):
        code.graph.small_set_expansion_error(2, code.symmetries)
    monkeypatch.setattr(cli, "load_code", lambda source: code)
    status, out, err = run(capsys, *argv)
    assert status == 2 and out == ""
    assert "internal invariant breach: symmetry 1" in err


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


def test_attack_coset_weight_certified_by_the_packing(capsys):
    # the search's join stops at weight 3 on toric:16; 22 disjoint violated
    # checks certify the error's own weight as its coset weight
    code, out, _ = run(capsys, "attack", "toric:16", "expander", "--delta", "0.05",
                       "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["wt_mod_centralizer"] == {"kind": "exact", "value": 22}
    assert rep["report"]["r"] == {"kind": "exact", "value": 0.5}
    assert rep["csv_row"]["r"] == 0.5 and rep["csv_row"]["bound_holds"] is True


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
    assert "warning" in rep  # Steane has no single left degree D_L
    assert rep["csv_row"]["bound_holds"] is True


@pytest.mark.parametrize("source, delta, warning", [
    # the alpha(d) bound counts n*D_L = m*k: without one D_L no delta meets it,
    # however small, and the report's precondition flag agrees with the warning
    ("steane", "0.001", "the code has no single left degree D_L; "
                        "the alpha(d) guarantee does not apply"),
    ("toric:6", "0.05", "delta 0.05 exceeds 1/(k^3 D_L) = 0.00390625; "
                        "the alpha(d) guarantee does not apply"),
    ("toric:6", "0.003", None),
])
def test_alphabet_warning_and_precondition_read_one_cap(capsys, source, delta, warning):
    code, out, _ = run(capsys, "attack", source, "alphabet", "--delta", delta, "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep.get("warning") == warning
    assert rep["report"]["meta"]["delta_precondition_met"] is (warning is None)


def test_attack_missing_delta_exits_1(capsys):
    code, _, err = run(capsys, "attack", "toric:3", "expander", "--seed", "0")
    assert code == 1 and "--delta" in err


@pytest.mark.parametrize("argv, wording", [
    (("expander", "--delta", "0.01"), "--seed is mandatory"),
    (("island", "--trials", "5"), "--seed is mandatory"),
    (("refined", "--seed", "1"), "requires --delta"),
])
def test_attack_checks_its_flags_before_the_build(capsys, monkeypatch, argv, wording):
    # toric:64 takes seconds to build: a missing flag is reported without it
    from qltc import cli

    def never(source):
        raise AssertionError("built before the flags were checked")

    monkeypatch.setattr(cli, "load_code", never)
    code, out, err = run(capsys, "attack", "toric:64", *argv)
    assert code == 1 and out == "" and wording in err


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


def _break_modmul(monkeypatch):
    from qltc import attacks, fieldmath, search, stabilizer

    def broken(a, b, p):
        raise ValueError("broken product")

    for module in (fieldmath, search, stabilizer, attacks):
        monkeypatch.setattr(module, "modmul", broken, raising=False)


def _break_level_scan(monkeypatch):
    def broken(self, size_cap, roots):
        raise ValueError("broken product")

    monkeypatch.setattr(qltc.graphs.BipartiteGraph, "_level_scan", broken)


@pytest.mark.parametrize("argv, breaks", [
    (("attack", "toric:4", "island", "--trials", "50", "--seed", "3"), _break_modmul),
    (("analyze", "toric:3", "--profile", "--wcap", "2"), _break_modmul),
    (("analyze", "toric:3", "--expansion"), _break_level_scan),
    (("attack", "toric:4", "expander", "--delta", "0.05", "--seed", "0"), _break_level_scan),
], ids=["island", "profile", "expansion", "expander-bound"])
def test_attack_internal_value_error_exits_2(capsys, monkeypatch, argv, breaks):
    # only Refusal is an in-band refusal; a ValueError from inside the
    # computation is a fault, in an attack and in an analyze section alike
    from qltc import cli

    code = cli.load_code(argv[1])  # built before the break, which the build may use
    monkeypatch.setattr(cli, "load_code", lambda source: code)
    breaks(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "broken product" in err


@pytest.mark.parametrize("argv, error", [
    (("build", "toric:3"), ValueError),
    (("build", "toric:3:3"), ValueError),
    (("build", f"css:{DATA / 'hamming7.txt'},{DATA / 'hamming7.txt'}"), ValueError),
    (("build", "saved"), ValueError),
    (("analyze", "toric:3:3", "--distance"), ValueError),
    (("build", "saved"), KeyError),
], ids=["toric", "toric-odd-d", "css", "file", "analyze", "file-key-error"])
def test_internal_fault_inside_a_build_exits_2(capsys, monkeypatch, tmp_path, argv, error):
    # only the checks on outside input are bad input: a ValueError or KeyError
    # from inside the build is a fault, whichever source the code comes from
    if argv[1] == "saved":
        path = tmp_path / "toric2.json"
        assert run(capsys, "build", "toric:2", "--out-code", str(path))[0] == 0
        argv = (argv[0], str(path))

    def broken(*args):
        raise error("broken rref")

    monkeypatch.setattr(qltc.stabilizer, "RowSpace", broken)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "broken rref" in err


@pytest.mark.parametrize("content, kind", [
    (b"\xff\xfe not text", "file"),
    (b"not json", "file"),
    (b"\xff\xfe not text", "css"),
], ids=["file-not-utf8", "file-not-json", "css-not-text"])
def test_file_that_is_not_text_or_not_json_exits_1(capsys, tmp_path, content, kind):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "build", str(path) if kind == "file" else f"css:{path},{path}")
    assert code == 1 and out == "" and str(path) in err


def test_unwritable_report_path_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "build", "toric:2", "--out", str(tmp_path / "no" / "r.json"))
    assert code == 1 and "r.json" in err


@pytest.mark.parametrize("argv", [
    ("build", "toric:3"),
    ("attack", "toric:16", "expander", "--delta", "0.05", "--seed", "1"),
])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # the read end is closed before the process starts, so every write fails
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(qltc.__file__))
    try:
        proc = subprocess.run([sys.executable, "-m", "qltc.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write the report to stdout")
    assert proc.stderr.count("\n") == 1  # no traceback, no "Exception ignored" at exit


@pytest.mark.parametrize("flag", ["--out-code", "--csv"])
def test_unwritable_code_or_csv_path_exits_1(capsys, tmp_path, flag):
    path = str(tmp_path / "no" / "r.json")
    cmd = ["attack", "toric:4", "expander", "--delta", "0.03", "--seed", "1"] if flag == "--csv" \
        else ["build", "toric:2"]
    code, out, err = run(capsys, *cmd, flag, path)
    assert code == 1 and "r.json" in err and "Traceback" not in err


def test_attack_infeasible_expander_bound_refused_in_band(capsys, monkeypatch):
    monkeypatch.setattr(qltc.graphs, "EXPANSION_GUARD", 1)
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
    (("attack", "toric:2", "island", "--trials", "124999999", "--seed", "1"), "--trials"),
    # detectability past the distance fails by design: refused, not an internal breach
    (("verify", "steane", "--rho", "4"), "--rho"),
    (("verify", "toric:2", "--rho", "9"), "--rho"),
])
def test_out_of_range_numbers_exit_1(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and flag in err


def test_out_of_range_config_value_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wcap": -1}))
    code, out, err = run(capsys, "analyze", "toric:3", "--profile", "--config", str(cfg))
    assert code == 1 and out == "" and "--wcap" in err


@pytest.mark.parametrize("source", ["toric:128", "toric:128:3", "toric:100000"])
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


@pytest.mark.parametrize("d", ["65537", str(10**18 + 3)])
def test_primes_past_the_residue_layout_exit_1_at_once(capsys, d):
    # residues are held in uint8 or uint16: the bound is checked before any
    # trial division, which at 10**18 + 3 would run for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "build", f"toric:3:{d}")
    assert code == 1 and out == "" and "prime below 65536" in err
    assert time.perf_counter() - start < 0.5


def test_the_largest_admitted_prime_builds(capsys):
    code, out, _ = run(capsys, "build", "toric:3:65521")
    assert code == 0 and json.loads(out)["rank"] == 16


@pytest.mark.parametrize("argv", [
    ("attack", "toric:3:3001", "expander", "--delta", "0.1", "--seed", "1"),
    ("attack", "toric:3:3001", "island", "--trials", "100", "--seed", "1"),
    ("analyze", "toric:3:3001", "--succinct"),
])
def test_a_large_d_lists_no_symbols_for_refused_work(capsys, argv):
    # the 3001**2 - 1 symbols as a list would take about a gigabyte: the
    # searches list them only for a join their caps admit, and the island maps
    # a drawn index to its symbol by arithmetic
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 50 << 20


@pytest.mark.parametrize("argv, seed", [
    (("verify", "toric:2"), "-1"),
    (("attack", "steane", "alphabet", "--delta", "0.03"), "-1"),
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


@pytest.mark.parametrize("argv, flag", [
    (("build", "toric:2"), "--seed"),
    (("build", "toric:2"), "--budget"),
    (("analyze", "toric:3", "--distance"), "--seed"),
    (("verify", "steane"), "--budget"),
])
def test_flags_no_command_reads_are_refused(tmp_path, capsys, argv, flag):
    # build has no randomness and no search, analyze no randomness, and
    # verify's distance search runs without a budget
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1"])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: 1}))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1 and out == "" and f"unknown config key {flag[2:]!r}" in err


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


def test_config_leaves_no_trace_on_the_next_run(tmp_path, capsys):
    # main reuses one parser: a config read by one call must not reach the next
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wcap": 3}))
    code, out, _ = run(capsys, "analyze", "toric:3", "--profile", "--config", str(cfg))
    assert code == 0 and json.loads(out)["profile"]["weight_cap"] == 3
    code, out, _ = run(capsys, "analyze", "toric:3", "--profile")
    fresh = run_process("analyze", "toric:3", "--profile")
    assert code == 0 and fresh.returncode == 0
    assert json.loads(out) == json.loads(fresh.stdout)
    assert json.loads(out)["profile"]["weight_cap"] == 2


def test_config_that_is_not_text_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe not text")
    code, out, err = run(capsys, "build", "toric:2", "--config", str(cfg))
    assert code == 1 and out == "" and f"cannot read config {cfg}" in err


@pytest.mark.parametrize("value", [[1, 2], "sets", 3, None])
def test_config_that_is_json_but_not_an_object_exits_1(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(value))
    code, out, err = run(capsys, "build", "toric:2", "--config", str(cfg))
    assert code == 1 and out == "" and "config must be a JSON object" in err


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
SOURCES = (["toric:3", "toric:2:3", "steane", "toric:6",
            *(f"{kind}:{DATA / a},{DATA / b}" for kind, a, b in [
                ("css", "hamming7.txt", "hamming7.txt"), ("hgp", "rep2.txt", "rep2.txt")])],
           ["toric:1", "toric:0", "toric:-2", "toric:3:4", "toric:x", "toric:", "toric:100000",
            "hgp:", "css:no-such-file,no-such-file", "no-such-source", "", "toric:3:2:junk",
            "steane:junk",
            *(f"css:{DATA / name},{DATA / name}" for name in
              ["neg_col.txt", "huge_col.txt", "frac_col.txt"])])
WEIGHTS = (["1", "2", "3", "99999", "9" * 40],
           ["0", "-1", "abc", "", "1.5", "inf", "nan", "1e3", "0x10"])
COUNTS = (["1", "2", "5", "+4", "99999999999", "99999999999999"],
          ["0", "-3", "abc", "", "2.5", "nan", "1e2"])
SEEDS = (["0", "1", "7", str(2**128 - 1)], ["-1", "abc", "", str(2**128), "1e5", "0b1"])
DELTAS = (["0.05", "0.5", "1", "1e-300", "5e-2"], ["0", "-0.1", "1.5", "inf", "nan", "abc", ""])
# each command's own flags, apart from --out, --config and the output paths
FUZZ_FLAGS = {
    "build": {},
    "analyze": {"--distance": None, "--succinct": None, "--expansion": None, "--profile": None,
                "--sets": WEIGHTS, "--wcap": WEIGHTS, "--budget": WEIGHTS},
    "attack": {"--delta": DELTAS, "--trials": COUNTS, "--seed": SEEDS, "--budget": WEIGHTS},
    "verify": {"--rho": WEIGHTS, "--samples": COUNTS, "--seed": SEEDS},
}
RARE_FLAGS = [["--no-such-flag"], ["--help"], ["--config", "no-such-config.json"]]


@st.composite
def command_lines(draw):
    """argv drawn from each command's flags: small presets, malformed numbers, flags
    without their value, missing positionals and unknown flags or commands."""

    def pick(pools):
        return draw(st.sampled_from(pools[0] if draw(st.integers(0, 3)) else pools[1]))

    cmd = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[cmd]
    argv = [cmd] if draw(st.integers(0, 19)) else [draw(st.sampled_from(["no-such-command", ""]))]
    if draw(st.integers(0, 19)):
        argv.append(pick(SOURCES))
    if cmd == "attack" and draw(st.integers(0, 19)):
        argv.append(draw(st.sampled_from(["expander", "refined", "alphabet", "island", "bogus"])))
    picked = st.lists(st.sampled_from(sorted(flags)), max_size=5, unique=True) if flags \
        else st.just([])
    for flag in draw(picked):
        argv.append(flag)
        if flags[flag] is not None and draw(st.integers(0, 19)):  # rarely, the value is missing
            argv.append(pick(flags[flag]))
    if not draw(st.integers(0, 9)):
        argv.extend(draw(st.sampled_from(RARE_FLAGS)))
    return argv


def test_fuzz_draws_each_commands_own_flags():
    sub = next(a for a in qltc.cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    for cmd, parser in sub.choices.items():
        options = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert options - {"--help", "--out", "--config", "--out-code", "--csv"} \
            == set(FUZZ_FLAGS[cmd]), cmd


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
# counts past memory or time: the first once ran out of memory, the next two hung
@example(["attack", "toric:2", "island", "--trials", "99999999999", "--seed", "1"])
@example(["attack", "toric:2", "island", "--trials", "124999999", "--seed", "1"])
@example(["verify", "steane", "--samples", "99999999999999"])
# rho past the distance: these once exited 2 as an internal breach
@example(["verify", "steane", "--rho", "4"])
@example(["verify", "toric:2", "--rho", "9"])
# presets with extra fields: these once built toric:3 and Steane with exit 0
@example(["build", "toric:3:2:junk"])
@example(["build", "steane:junk"])
@settings(max_examples=200, deadline=datetime.timedelta(seconds=10))
def test_main_fuzz_exit_contract(argv):
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code != 2:
        assert "Traceback" not in err, (argv, err)
    elif "Traceback" not in err:  # exit 2 without a traceback: argparse's usage error
        assert err.startswith("usage: qltc"), (argv, out, err)
