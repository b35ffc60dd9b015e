"""qltc benchmark: times real qltc jobs end to end and, in a traced run, per layer.

Usage, from the root of a source checkout (no install needed)::

    python3 bench/run.py [--workload sweep|island|certify|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: a fixed, seeded list of
jobs (see ``jobs.py``) run back to back through ``qltc.cli.main``, repeated
for a fixed number of passes (``PASSES``).  Each pass over the list runs in
a fresh worker interpreter, as a CLI user's process is fresh.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.py`` plus ``trace.overhead_s``.  Every job's output is checked; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--pin`` rewrites
the reference reports for the default seed.
"""

from __future__ import annotations

import os

# fixed before numpy loads, for this process and the set-up interpreters
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import jobs as jobs_mod  # noqa: E402
import tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
SETUP_PER_PASS = 2
# passes per untraced run, about 25 s on a 2-core machine; a traced run makes
# half as many plain-and-traced pairs.  The counts are fixed, never taken from
# the clock: the best of 2 passes reads slower than the best of 3, so a count
# that followed the machine's speed would move the figures with its load.
PASSES = {"sweep": 3, "island": 4, "certify": 3}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import qltc from this checkout's ``src``, never from an installed copy; returns qltc.cli."""
    if not os.path.isfile(os.path.join(SRC, "qltc", "cli.py")):
        raise BenchError(f"no qltc sources under {SRC}; run from the root of a qltc checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qltc
    import qltc.cli

    if not os.path.abspath(qltc.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported qltc from {qltc.__file__}, not from {SRC}")
    return qltc.cli


# per process, so set-up interpreters never touch the files a run is using
INPUTS = os.path.join(WORK, f"inputs-{os.getpid()}")


def input_dir(workload: str, seed: int) -> str:
    return os.path.relpath(os.path.join(INPUTS, f"{workload}-seed{seed}"), ROOT)


def setup(workload: str, seed: int):
    """Import qltc and write the workload's inputs; returns its job list."""
    import_cli()
    hgp = jobs_mod.make_inputs(workload, seed, input_dir(workload, seed))
    return jobs_mod.make_jobs(workload, seed, hgp)


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports qltc and writes the inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return elapsed


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def run_pass(job_list, reference, cli_module, traced: bool) -> dict:
    """Run the job list once in this process; with ``traced``, record spans."""
    tracer = tracing.Tracer() if traced else None
    uninstall = tracer.install() if tracer else None
    latencies, failures = [], []
    try:
        for job in job_list:
            t0 = time.perf_counter()
            outcome = jobs_mod.execute(job, cli_module.main, reference)
            latencies.append(time.perf_counter() - t0)
            if outcome.problems:
                failures.append((job.name, outcome.problems))
    finally:
        if uninstall:
            uninstall()
    return {
        "latencies": latencies,
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }


def worker(workload: str, seed: int, traced: bool) -> dict:
    """One pass in this fresh interpreter; the traced pass also writes its spans."""
    job_list = setup(workload, seed)
    res = run_pass(job_list, load_reference(workload, seed), import_cli(), traced)
    spans = res.pop("spans")
    if traced:
        write_spans(spans)
        res["layers"] = tracing.layer_metrics(spans)
    return res


class Pass:
    """One pass over a workload's job list, run by a fresh worker interpreter.

    A ``qltc`` command starts in a fresh process.  Passes repeated in one
    process got slower than the first (the toric:16 island job by up to
    40%), so each pass starts in the state a CLI user's process has.
    """

    def __init__(self, workload: str, seed: int, traced: bool = False):
        argv = [sys.executable, os.path.abspath(__file__), "--worker", "--workload", workload,
                "--seed", str(seed), "--trace", str(int(traced))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with code {proc.returncode}: {proc.stderr.strip()}")
        res = json.loads(lines[-1])
        self.latencies = res["latencies"]
        self.failures = res["failures"]
        self.rss_kb = res["rss_kb"]
        self.layers = res.get("layers")
        self.wall = sum(self.latencies)


def measure(workload: str, seed: int, traced: bool):
    """Run the passes; traced runs alternate a plain and a traced pass.

    The machine's speed drifts, so untraced runs start SETUP_PER_PASS
    set-up interpreters before each pass, spreading the set-up samples
    over the whole run.
    """
    plain, traced_passes, setup_times = [], [], []
    passes = max(1, round(PASSES[workload] / 2)) if traced else PASSES[workload]
    for _ in range(passes):
        if not traced:
            setup_times += [setup_seconds(workload, seed) for _ in range(SETUP_PER_PASS)]
        plain.append(Pass(workload, seed))
        if traced:
            traced_passes.append(Pass(workload, seed, traced=True))
    return plain, traced_passes, setup_times


def job_best(passes) -> list[float]:
    """Each job's fastest latency over the passes, in job-list order.

    On a shared machine a job's time varies from one run to the next by
    about 12%, and only upwards (other tenants slow it, nothing speeds it
    up), so the fastest of passes spread over the run is the steadiest
    measure of the program itself.
    """
    return [min(times) for times in zip(*(p.latencies for p in passes))]


def end_to_end(passes, setup_times) -> tuple[dict, dict]:
    """End-to-end metric values and the samples behind each.

    wall_s sums each job's best latency over the passes.  The median and
    p90 are taken over every job run of every pass: a quantile of the
    per-job bests rests on one or two jobs, each of which must have met a
    fast phase of the machine, and read up to twice as spread across seeds.
    """
    lat = job_best(passes)
    every = [t for p in passes for t in p.latencies]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(lat),
        "job_p50_ms": 1000 * statistics.median(every),
        "job_p90_ms": 1000 * statistics.quantiles(every, n=10, method="inclusive")[8],
        "peak_rss_mb": max(p.rss_kb for p in passes) / 1024,
    }
    runs = f"{len(every)} job runs ({len(lat)} jobs x {len(passes)} passes)"
    samples = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "wall_s": f"{len(lat)} jobs, best of {len(passes)} passes per job; whole passes took "
                  + ", ".join(f"{p.wall:.3f}" for p in passes) + " s",
        "job_p50_ms": runs,
        "job_p90_ms": f"{runs}, {sum(x > values['job_p90_ms'] / 1000 for x in every)} beyond",
        "peak_rss_mb": "largest ru_maxrss of the worker processes",
    }
    return values, samples


def per_layer(plain, traced_passes) -> dict:
    """Median of each per-layer metric over the traced passes, plus the trace overhead."""
    layers = [p.layers for p in traced_passes]
    out = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    out["trace.overhead_s"] = sum(job_best(traced_passes)) - sum(job_best(plain))
    return out


# --------------------------------------------------------------------------
# provenance and output
# --------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout; None where it is not a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int, load_at_start: tuple) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "loadavg_at_start": list(load_at_start),
    }


def write_spans(spans: list[list]) -> None:
    """Spans of the last traced pass, one JSON object per line."""
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "spans.jsonl"), "w") as f:
        for name, start, end, parent, counts in spans:
            f.write(json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent, "counts": counts}) + "\n")


def load_reference(workload: str, seed: int) -> dict | None:
    """Pinned reports for the default seed; other seeds are checked by invariants only."""
    if seed != jobs_mod.DEFAULT_SEED:
        return None
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        raise BenchError(f"missing reference file {path}; run with --pin")
    with open(path) as f:
        return json.load(f)


def run_workload(workload: str, seed: int, traced: bool) -> dict:
    """Measure one workload; prints a readable summary and returns the result object."""
    load = os.getloadavg()
    job_list = setup(workload, seed)
    plain, traced_passes, setup_times = measure(workload, seed, traced)
    passes = plain + traced_passes
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"== {workload} seed {seed}: {len(job_list)} jobs x {len(plain)} passes"
          f"{' + traced passes' if traced else ''}; {failed}/{attempted} failed"
          f" (fail_ratio {failed / attempted:.4f})")
    for p in passes:
        for name, problems in p.failures[:10]:
            print(f"   FAIL {name}: {'; '.join(problems)}")
    if traced:
        values = per_layer(plain, traced_passes)
        units = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
        for name, value in values.items():
            print(f"   {name:48s} {value:14.6g} {units[name]}")
    else:
        values, samples = end_to_end(plain, setup_times)
        units = END_TO_END
        for name, value in values.items():
            print(f"   {name:14s} {value:12.4f} {units[name]:5s} ({samples[name]})")
        trials = sum(job.island_trials for job in job_list)
        if trials:
            # island throughput; wall_s already bounds it, as the trial count is fixed
            island_s = sum(t for t, job in zip(job_best(plain), job_list) if job.island_trials)
            print(f"   {'trials_per_s':14s} {trials / island_s:12.4f} 1/s   "
                  f"({trials} trials per pass in {island_s:.3f} s; not in the JSON line)")
    prov = provenance(workload, seed, load)
    print("   provenance " + json.dumps(prov))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"result-{workload}-trace{int(traced)}.json"), "w") as f:
        json.dump({"provenance": prov, **result}, f, indent=1)
    return result


def run_all(seed: int, trace: int) -> dict:
    """Every workload in its own process, so each peak_rss_mb is that workload's own."""
    results = {}
    for workload in jobs_mod.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def pin_references() -> None:
    """Write one pass of every workload at the default seed as the reference reports."""
    cli = import_cli()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in jobs_mod.WORKLOADS:
        ref = {}
        for job in setup(workload, jobs_mod.DEFAULT_SEED):
            outcome = jobs_mod.execute(job, cli.main, None)
            if outcome.problems:
                raise BenchError(f"cannot pin {job.name}: {outcome.problems}")
            ref[job.name] = jobs_mod.pinned(outcome.report)
        with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), "w") as f:
            json.dump(ref, f, indent=0, sort_keys=True)
            f.write("\n")
        print(f"pinned {len(ref)} reports for {workload}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=(*jobs_mod.WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=jobs_mod.DEFAULT_SEED)
    # callers of BENCHMARK.json's command pass its run_seconds; PASSES are sized to it
    p.add_argument("--seconds", type=float, default=25.0,
                   help="run length PASSES are sized for; the pass counts stay fixed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--pin", action="store_true", help="rewrite the default-seed references")
    args = p.parse_args(argv)
    try:
        if args.setup_only:
            setup(args.workload, args.seed)
            return 0
        if args.worker:
            print(json.dumps(worker(args.workload, args.seed, bool(args.trace))))
            return 0
        if args.pin:
            pin_references()
            return 0
        if args.workload == "all":
            final = run_all(args.seed, args.trace)
        else:
            final = run_workload(args.workload, args.seed, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(INPUTS, ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
