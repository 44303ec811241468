"""prlab benchmark: four seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

One run sets up (imports prlab from ./src and derives every input from the
seed), then repeats passes over the workload's job list until --seconds
have elapsed, one job at a time. Every answer is checked by the oracle in
perfbench/oracle.py. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. End-to-end times are
scaled to a reference host speed measured by calibration units interleaved
with the jobs (perfbench/calib.py). A traced run alternates
untraced and traced passes; spans are recorded only around calls into
prlab (perfbench/trace.py) and written to perfbench/out/ when the run ends.
`--workload all` runs every workload untraced and traced in turn.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from calib import UNIT_REF_S, Calibrator

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("coloring_search", "enumerate_index", "certify_batch", "cli_mix")
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # the tail percentile leaves this many jobs of a pass beyond it
CHILD_TIMEOUT_S = 60
# Known exit-contract breaches: they count as failed jobs while they stand,
# but a failure there does not make the run incorrect.
KNOWN_BREACH_KIND = "breach"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

_SELF_S_LAYERS = (
    "search.backtrack", "search.forcing", "search.index", "search.enumerate",
    "core.poly.substitute", "search.witness", "search.extract",
    "rado.columns", "rado.verify", "rado.linear_pr", "rado.blocking_prime", "rado.smod",
    "rado.parametric", "folkman.fs", "folkman.matrix", "folkman.weak_mono",
    "polyreg.check", "polyreg.reciprocal", "omega.canonical", "omega.verify",
    "embed.fe", "embed.classify", "embed.bd", "embed.fmap", "core.parse", "cli.main",
)
_CALL_LAYERS = (
    "search.backtrack", "search.forcing", "search.index", "search.enumerate",
    "core.poly.substitute", "search.witness", "search.extract", "rado.columns", "core.parse",
)
PER_LAYER = tuple(
    [(f"{name}.calls", "count") for name in _CALL_LAYERS]
    + [(f"{name}.self_s", "s") for name in _SELF_S_LAYERS]
    + [
        ("search.backtrack.nodes", "count"),
        ("search.backtrack.nodes_per_s", "1/s"),
        ("search.index.entries", "count"),
        ("search.index.kept_ratio", "ratio"),
        ("search.enumerate.solutions", "count"),
        ("search.witness.found_ratio", "ratio"),
        ("cli.interp_s", "s"),
        ("cli.import_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.uncovered_s", "s"),
        ("trace.spans", "count"),
    ]
)


# -- set-up --------------------------------------------------------------------


def _check_checkout() -> None:
    if not (ROOT / "src" / "prlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no prlab sources under {ROOT / 'src'}")


def _use_checkout_src() -> None:
    """Import prlab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import prlab
    if Path(prlab.__file__).resolve().parent != src / "prlab":
        raise SystemExit(f"error: prlab imported from {prlab.__file__}, not from {src}")


def _digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(repr((job.kind, job.spec)).encode())
    return h.hexdigest()[:16]


def setup(workload: str, seed: int):
    """Import prlab and derive the inputs; returns (jobs, seconds)."""
    t0 = time.perf_counter()
    _use_checkout_src()
    if workload == "cli_mix":
        import prlab.cli  # noqa: F401  (the in-process runner of a traced run calls it)
    from perfbench import workloads
    jobs = workloads.build(workload, seed, OUT / "work" / f"{workload}-{seed}")
    return jobs, time.perf_counter() - t0


def _child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def probe_setup(workload: str, seed: int, calibrator: Calibrator):
    """Set up in fresh interpreters; returns the median seconds, scaled to
    the reference host speed, the median raw seconds and the input digests
    the set-ups reported."""
    times, digests = [], set()
    calibrator.start_pass(SETUP_REPEATS)
    for i in range(SETUP_REPEATS):
        prepaid = calibrator.before_job(times[-1]) if times else False
        cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        rec = json.loads(out.stdout.splitlines()[-1])
        times.append(rec["setup_s"])
        digests.add(rec["digest"])
        calibrator.after_job(i, rec["setup_s"], prepaid)
    factors = calibrator.end_pass()
    return statistics.median(t / f for t, f in zip(times, factors)), statistics.median(times), digests


def machine_meta(seed: int) -> dict:
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, env=env,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


# -- running jobs ------------------------------------------------------------------


def run_child(argv):
    """`python -m prlab.cli argv` in a child; returns (exit, stdout, maxrss KiB)."""
    proc = subprocess.Popen([sys.executable, "-m", "prlab.cli", *argv], cwd=ROOT, env=_child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode("utf-8", "replace")
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def run_inproc(argv):
    """`prlab.cli.main(argv)` in this process; an uncaught exception maps to
    exit 1 as it would in the interpreter."""
    import prlab.cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = prlab.cli.main(list(argv))
        except Exception:
            code = 1
    return code, out.getvalue()


class Runner:
    """Runs passes over one workload's jobs and judges every answer."""

    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.verified: dict[int, object] = {}
        self.attempted = 0
        self.failures: list[tuple[int, str, str]] = []
        self.child_rss_kib = 0
        self.last_lat: list[float] | None = None  # job times of the last calibrated pass

    def _call(self, job, inproc: bool):
        if job.argv is None:
            return job.run(self.ctx)
        if inproc:
            return run_inproc(job.argv)
        code, out, rss = run_child(job.argv)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        return code, out

    def run_pass(self, traced: bool, inproc: bool = False, calibrator: Calibrator | None = None):
        """One pass; returns (wall seconds, per-job seconds, per-job speed
        factors, span range, counters). Wall seconds is the sum of the job
        times; the factors are None without a calibrator, the span range and
        counters None when untraced."""
        tracer = self.tracer if traced else None
        self.ctx: dict = {}
        results, lat = [], []
        gc.collect()
        if tracer is not None:
            tracer.counters.clear()
            tracer.install()
        if calibrator is not None:
            calibrator.start_pass(len(self.jobs))
        lo = len(tracer) if tracer is not None else 0
        try:
            for i, job in enumerate(self.jobs):
                if tracer is not None:
                    tracer.job_id = i
                prepaid = (calibrator.before_job(self.last_lat[i])
                           if calibrator is not None and self.last_lat else False)
                t0 = time.perf_counter()
                try:
                    result, err = self._call(job, inproc), None
                except Exception as exc:  # a failed job is counted, the run goes on
                    result, err = None, f"{type(exc).__name__}: {exc}"[:300]
                lat.append(time.perf_counter() - t0)
                results.append((result, err))
                if calibrator is not None:
                    calibrator.after_job(i, lat[-1], prepaid)
        finally:
            if tracer is not None:
                tracer.uninstall()
        factors = None
        if calibrator is not None:
            factors = calibrator.end_pass()
            self.last_lat = lat
        span_range = (lo, len(tracer)) if tracer is not None else None
        counters = dict(tracer.counters) if tracer is not None else None
        self.judge(results)
        return sum(lat), lat, factors, span_range, counters

    def judge(self, results) -> int:
        """Check every answer of a pass; returns the number of failures."""
        failed = 0
        for i, (job, (result, err)) in enumerate(zip(self.jobs, results)):
            self.attempted += 1
            if err is None:
                try:
                    answer = job.answer(result)
                    if i not in self.verified or self.verified[i] != answer:
                        err = job.check(answer)
                        if err is None:
                            self.verified[i] = answer
                except Exception as exc:  # a malformed answer is a failed job
                    err = f"check raised {type(exc).__name__}: {exc}"[:300]
            if err is not None:
                failed += 1
                self.failures.append((i, job.kind, err))
        return failed

    @property
    def unexpected_failures(self) -> int:
        return sum(1 for _, kind, _ in self.failures if kind != KNOWN_BREACH_KIND)


def _kind_shares(jobs) -> dict:
    counts: dict[str, int] = {}
    for job in jobs:
        counts[job.kind] = counts.get(job.kind, 0) + 1
    return counts


def _peak_rss_mb(runner: Runner) -> float:
    if runner.child_rss_kib:
        return runner.child_rss_kib / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median_wall(cmd) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _latency_stats(lats) -> tuple[float, float, float]:
    """(wall s, p50 ms, tail ms) from per-job medians over the passes."""
    per_job = sorted(statistics.median(lat[i] for lat in lats) for i in range(len(lats[0])))
    return sum(per_job), 1000 * statistics.median(per_job), 1000 * per_job[-(TAIL_BEYOND + 1)]


def end_to_end(runner, lats, factors, setup, calibrator) -> tuple[dict, list[str]]:
    """Latencies are per-job medians over the run's passes of the job times
    divided by their speed factors (calib.py), so they read as seconds on
    the reference host. wall_s, the time to all verdicts of one pass, is
    their sum; the tail is the highest percentile with TAIL_BEYOND jobs
    beyond it. The raw figures are printed as notes."""
    scaled = [[t / f for t, f in zip(lat, fac)] for lat, fac in zip(lats, factors)]
    wall, p50, tail = _latency_stats(scaled)
    raw_wall, raw_p50, raw_tail = _latency_stats(lats)
    setup_s, raw_setup_s = setup
    n_jobs = len(runner.jobs)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "job_ms_p50": p50,
        "job_ms_tail": tail,
        "ok_ratio": 1 - len(runner.failures) / runner.attempted,
        "peak_rss_mb": _peak_rss_mb(runner),
    }
    notes = [
        f"job latencies are per-job medians over {len(lats)} passes of {n_jobs} jobs",
        f"times are scaled to a host where one calibration unit takes {1e6 * UNIT_REF_S:.0f} us; "
        f"this host measured {calibrator.mean_factor:.4f} times that over {calibrator.units} units",
        f"raw: setup_s = {raw_setup_s:.6g} s, wall_s = {raw_wall:.6g} s, "
        f"job_ms_p50 = {raw_p50:.6g} ms, job_ms_tail = {raw_tail:.6g} ms",
        f"job_ms_tail is p{100 * (n_jobs - TAIL_BEYOND) / n_jobs:.2f}, "
        f"{TAIL_BEYOND} of {n_jobs} jobs beyond it",
        f"fail_ratio = {len(runner.failures) / runner.attempted:.6f} "
        f"({len(runner.failures)} of {runner.attempted} jobs)",
    ]
    return metrics, notes


def per_layer(tracer, traced, untraced_walls, workload) -> dict:
    """Per-layer metrics from the traced passes: counts from the first (they
    repeat exactly), times as medians over the traced passes."""
    summaries = [tracer.summarize(*span_range) for _, _, _, span_range, _ in traced]
    counters = traced[0][4]
    if any(other[4] != counters for other in traced[1:]):
        print(f"WARNING: counters differ between traced passes; reporting the first: {counters}")
    first = summaries[0]

    def self_s(name):
        return statistics.median(s["self_s"].get(name, 0.0) for s in summaries)

    traced_wall = statistics.median(w for w, *_ in traced)
    metrics = {f"{name}.calls": first["calls"].get(name, 0) for name in _CALL_LAYERS}
    metrics.update({f"{name}.self_s": self_s(name) for name in _SELF_S_LAYERS})
    nodes = counters.get("search.backtrack.nodes", 0)
    solutions = counters.get("search.index.solutions", 0)
    witness_calls = first["calls"].get("search.witness", 0)
    backtrack_s = self_s("search.backtrack")
    metrics.update({
        "search.backtrack.nodes": nodes,
        "search.backtrack.nodes_per_s": nodes / backtrack_s if backtrack_s else 0.0,
        "search.index.entries": counters.get("search.index.entries", 0),
        "search.index.kept_ratio": counters.get("search.index.entries", 0) / solutions if solutions else 0.0,
        "search.enumerate.solutions": counters.get("search.enumerate.solutions", 0),
        "search.witness.found_ratio": (counters.get("search.witness.found", 0) / witness_calls
                                       if witness_calls else 0.0),
        "cli.interp_s": 0.0,
        "cli.import_s": 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(untraced_walls),
        "trace.uncovered_s": statistics.median(t[0] - s["top_s"] for t, s in zip(traced, summaries)),
        "trace.spans": traced[0][3][1] - traced[0][3][0],
    })
    if workload == "cli_mix":
        interp = _median_wall([sys.executable, "-c", "pass"])
        metrics["cli.interp_s"] = interp
        metrics["cli.import_s"] = _median_wall([sys.executable, "-c", "import prlab.cli"]) - interp
    return metrics


# -- one workload ---------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and the children it starts, so that the
        # calibration units measure the CPU the jobs ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meta = machine_meta(seed)
    # this set-up also writes the bytecode caches, so every probe reads them
    jobs, _ = setup(workload, seed)
    digest = _digest(jobs)
    # a set-up is short, so it gets as much calibration time as it takes itself
    setup_s, raw_setup_s, probe_digests = probe_setup(workload, seed, Calibrator(share=1.0))
    calibrator = None if trace else Calibrator()
    if probe_digests != {digest}:
        raise SystemExit(f"error: inputs differ between set-ups: {sorted(probe_digests)} vs {digest}")
    from perfbench.trace import Tracer
    tracer = Tracer() if trace else None
    runner = Runner(jobs, tracer)
    inproc = trace  # a traced cli_mix run calls prlab.cli.main in-process
    walls, lats, factors, traced = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, lat, fac, _, _ = runner.run_pass(traced=False, inproc=inproc, calibrator=calibrator)
        walls.append(wall)
        lats.append(lat)
        factors.append(fac)
        if trace:
            traced.append(runner.run_pass(traced=True, inproc=True))
        if time.perf_counter() - start >= seconds:
            break

    print(f"workload {workload}: {meta}")
    print(f"inputs digest {digest}; {len(jobs)} jobs per pass; kinds {_kind_shares(jobs)}")
    distinct: dict = {}
    for failure in runner.failures:
        distinct[failure] = distinct.get(failure, 0) + 1
    for (i, kind, err), count in list(distinct.items())[:12]:
        print(f"FAIL job {i} [{kind}] x{count}: {err}")
    if trace:
        metrics = per_layer(tracer, traced, walls, workload)
        units = dict(PER_LAYER)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_tsv(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
    else:
        metrics, notes = end_to_end(runner, lats, factors, (setup_s, raw_setup_s), calibrator)
        units = dict(END_TO_END)
        for note in notes:
            print(note)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": runner.unexpected_failures == 0,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, meta=meta, digest=digest, passes=len(walls), walls=walls,
                  failures=runner.failures[:50])
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            lines = out.splitlines()
            print(f"== {workload} trace={trace}")
            print("\n".join(lines[:-1]))
            rec = json.loads(lines[-1])
            merged["correct"] &= rec["correct"]
            merged["attempted"] += rec["attempted"]
            merged["failed"] += rec["failed"]
            for name, m in rec["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true",
                    help="check that planted wrong answers are counted as failures")
    args = ap.parse_args(argv)
    _check_checkout()
    if args.self_test:
        _use_checkout_src()
        from perfbench.selftest import self_test
        return self_test(Runner, run_child, OUT / "work" / "selftest")
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        jobs, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "digest": _digest(jobs)}))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
