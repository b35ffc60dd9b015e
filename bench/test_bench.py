"""Tests of the benchmark itself; run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

COUNT_STATS = {"calls", "cells", "macs", "rows", "candidates", "budget_hits", "trials"}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def small_jobs(tmp_path_factory):
    """A short job list that reaches every layer with a count."""
    hgp = jobs.make_inputs("sweep", 3, str(tmp_path_factory.mktemp("inputs")))
    argvs = [
        ("build", "toric:3"),
        ("analyze", "toric:3", "--distance", "--succinct"),
        ("analyze", "steane", "--profile", "--wcap", "2"),
        ("attack", "toric:4", "expander", "--delta", "0.05", "--seed", "1"),
        ("attack", "toric:4", "island", "--trials", "150", "--seed", "2"),
        ("attack", f"hgp:{hgp[6]}", "island", "--trials", "70", "--seed", "3"),
    ]
    return [jobs.Job(" ".join(a), a) for a in argvs] + [
        jobs.Job("distance", ("code_distance", f"hgp:{hgp[6]}", "--w-max", "2"), api=True)]


def traced(job_list, cli):
    res = run.run_pass(job_list, None, cli, traced=True)
    assert not res["failures"]
    return tracing.layer_metrics(res["spans"])


def counts(metrics):
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[1] in COUNT_STATS}


def test_counts_repeat_across_traced_runs(small_jobs, cli):
    m1, m2 = traced(small_jobs, cli), traced(small_jobs, cli)
    assert {k.rsplit(".", 1)[0] for k in counts(m1)} >= {
        "fieldmath.rref", "search.modmul", "search.min_weight_vector",
        "attacks.island_attack", "attacks.soundness_profile", "fieldmath.RowSpace.contains_batch"}
    assert counts(m1) == counts(m2)
    assert m1["search.modmul.macs"] > 0 and m1["fieldmath.rref.cells"] > 0


def test_worker_counts_repeat_and_trials_equal_requested():
    """Two traced worker passes of the island workload at one seed."""
    p1, p2 = run.Pass("island", 5, traced=True), run.Pass("island", 5, traced=True)
    assert not p1.failures and not p2.failures
    assert counts(p1.layers) == counts(p2.layers)
    assert p1.layers["attacks.island_attack.trials"] == 3 * 4000
    assert p1.layers["attacks.island_attack.calls"] == 3


def test_candidates_equal_returned_candidates_tested(small_jobs, cli, monkeypatch):
    import qltc.search
    import qltc.stabilizer

    seen = []
    orig = qltc.search.min_weight_vector

    def recording(*args, **kwargs):
        result = orig(*args, **kwargs)
        seen.append(result.candidates_tested)
        return result

    for module in (qltc.search, qltc.stabilizer):
        monkeypatch.setattr(module, "min_weight_vector", recording)
    metrics = traced(small_jobs, cli)
    assert seen and metrics["search.min_weight_vector.calls"] == len(seen)
    assert metrics["search.min_weight_vector.candidates"] == sum(seen) > 0


def test_profile_candidates_count_the_words_checked(cli, monkeypatch):
    """The profile count follows the batches it checks, not the size of the enumeration."""
    import qltc.attacks
    from qltc import zoo

    orig = qltc.attacks.candidate_batches
    yielded = []

    def first_words_only(*args, **kwargs):
        # an enumeration pruned to the first word of each batch
        for batch in orig(*args, **kwargs):
            yielded.append(1)
            yield batch[:1]

    code = zoo.steane_code()
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        qltc.attacks.soundness_profile(code, 2)
        full = tracing.layer_metrics(tracer.spans)["attacks.soundness_profile.candidates"]
        monkeypatch.setattr(qltc.attacks, "candidate_batches", first_words_only)
        tracer.spans.clear()
        qltc.attacks.soundness_profile(code, 2)
        cut = tracing.layer_metrics(tracer.spans)["attacks.soundness_profile.candidates"]
    finally:
        uninstall()
    assert full == 7 * 3 + 21 * 9
    assert cut == sum(yielded) < full


def test_wrappers_are_removed_after_tracing(small_jobs, cli):
    import qltc.search
    import qltc.stabilizer

    before = (qltc.search.modmul, qltc.stabilizer.StabilizerCode.__dict__["penalty"])
    traced(small_jobs[:2], cli)
    assert (qltc.search.modmul, qltc.stabilizer.StabilizerCode.__dict__["penalty"]) == before
    assert qltc.stabilizer.modmul is qltc.search.modmul


def test_corrupted_reference_counts_as_failure(cli, tmp_path):
    """The pinned certify references pass; changing one pinned value fails that job."""
    hgp = jobs.make_inputs("certify", jobs.DEFAULT_SEED, str(tmp_path))
    job_list = [j for j in jobs.make_jobs("certify", jobs.DEFAULT_SEED, hgp)
                if j.name.endswith(("analyze toric:5 --distance", "analyze toric:3 --profile"))]
    assert len(job_list) == 2
    reference = run.load_reference("certify", jobs.DEFAULT_SEED)
    assert not run.run_pass(job_list, reference, cli, traced=False)["failures"]

    corrupted = copy.deepcopy(reference)
    profile = corrupted[job_list[1].name]["profile"]
    profile["syndromes_seen"] += 1
    failures = run.run_pass(job_list, corrupted, cli, traced=False)["failures"]
    assert len(failures) == 1 and failures[0][0] == job_list[1].name


def test_reference_compares_only_pinned_keys():
    ref = {"a": 1, "b": {"c": [1.0, True]}}
    assert jobs.reference_mismatches(ref, {"a": 1, "b": {"c": [1.0 + 1e-13, True]}, "new": 0}) == []
    assert jobs.reference_mismatches(ref, {"a": 1, "b": {"c": [1.0, 1]}})
    assert jobs.reference_mismatches(ref, {"a": 2, "b": {"c": [1.0, True]}})
    assert jobs.reference_mismatches(ref, {"b": {"c": [1.0, True]}})


def test_bad_exit_and_crash_count_as_failures(cli):
    bad = [jobs.Job("missing file", ("analyze", "no-such-code.json", "--distance")),
           jobs.Job("bad flag", ("analyze", "toric:3", "--no-such-flag")),
           jobs.Job("crash", ("code_distance", "hgp:no-such.txt,no-such.txt", "--w-max", "2"), api=True)]
    failures = run.run_pass(bad, None, cli, traced=False)["failures"]
    assert [name for name, _ in failures] == ["missing file", "bad flag", "crash"]
    assert failures[0][1] == ["exit code 1"] and failures[1][1] == ["exit code 2"]
    assert failures[2][1][0].startswith("traceback")


def test_job_lists_depend_on_seed_but_not_their_size(tmp_path):
    for workload in jobs.WORKLOADS:
        a = jobs.make_jobs(workload, 1, jobs.make_inputs(workload, 1, str(tmp_path / "a")))
        b = jobs.make_jobs(workload, 2, jobs.make_inputs(workload, 2, str(tmp_path / "b")))
        again = jobs.make_jobs(workload, 1, jobs.make_inputs(workload, 1, str(tmp_path / "a")))
        assert a == again
        assert [j.name for j in a] == [j.name for j in b]
        assert [j.argv for j in a] != [j.argv for j in b]
    assert len(jobs.make_jobs("sweep", 1, jobs.make_inputs("sweep", 1, str(tmp_path / "a")))) >= 100


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == tracing.per_layer_spec()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "island", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
