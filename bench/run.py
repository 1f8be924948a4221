"""Verify/certify benchmark for mipcert.

    python3 bench/run.py --workload sst --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                     # every workload, one process

Each workload builds seeded inputs (set-up), then runs closed-loop rounds of
`certifier.solve_and_certify` and `certfile.verify_file` (the calls the CLI
makes) for `--seconds`, one at a time on one thread, and checks every
verdict.  With `--trace 0` it reports the end-to-end metrics; peak memory
comes from a separate tracemalloc pass after the timed rounds.  With
`--trace 1` it runs untraced rounds for half the time and traced rounds for
the other half and reports the per-layer split (see spans.py), per round.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Results are also written to BENCH_<workload>.json (or
BENCH_<workload>_trace.json) at the repository root, stamped with the git
revision, the Python version and the CPU count.  Inputs and certificate
files live in .bench_work/<pid>/ while the benchmark runs.
"""

import argparse
import gc
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / str(os.getpid())   # one directory per process

WORKLOADS = ("stream", "sst", "bnb", "mutants")

SIZES = {
    "full": {"stream_steps": 8000, "sst_n": 12, "bnb_n": 70,
             "goldens": 60, "mutants_per_golden": 6},
    "tiny": {"stream_steps": 40, "sst_n": 4, "bnb_n": 6,
             "goldens": 3, "mutants_per_golden": 4},
}
SETUP_REPEATS = 3
# Times are reported in reference seconds: wall time scaled by REF_LOOP_S
# over what reference_loop() took around the call.  On a shared machine the
# CPU speed a process gets can change by half or more within minutes, and
# the loop slows down with it.  REF_LOOP_S is about the loop's time on an
# idle 2-vCPU x86_64 VM under Python 3.11, so there reference seconds are
# wall seconds.
REF_LOOP_S = 0.004
REF_EVERY_S = 0.2
# a short search; a narrow band keeps the population's cost alike across seeds
GOLDEN_STEPS = range(16, 41)
GOLDEN_NODE_LIMIT = 40    # stops set-up early on searches far too long for the band

END_TO_END = (
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("certify_s", "s"),
    ("verify_peak_mib", "MiB"),
    ("certify_peak_mib", "MiB"),
    ("cert_bytes", "bytes"),
)

STEP_KINDS = ("IMPLIC", "RESOLVE", "SOL", "OBJSWAP", "RED", "DOM",
              "EPS", "XFER", "DEL", "TREE", "EXT", "GOAL")
TIMED_LAYERS = (
    "certfile.tokenize", "certfile.parse_problem", "certfile.parse_step",
    "rules.apply", *("rules." + k for k in STEP_KINDS),
    "exact.linear_combine", "exact.round_integral", "exact.dominates",
    "model.integral_vars",
    "trees.propagate_box", "trees.dcn_and_compare", "trees.check_tree_consistency",
    "certifier.search", "certifier.emit", "certifier.symmetry", "certifier.cuts",
)
COUNTED_LAYERS = (
    "certfile.parse_step", *("rules." + k for k in STEP_KINDS),
    "exact.linear_combine", "exact.round_integral", "exact.dominates",
    "model.integral_vars",
    "trees.propagate_box", "trees.dcn_and_compare", "trees.check_tree_consistency",
    "trees.apply_constraint", "model.linear_eq", "certifier.symmetry",
)
PER_LAYER = (
    *((name + "_s", "s") for name in TIMED_LAYERS),
    *((name + "_calls", "count") for name in COUNTED_LAYERS),
    ("certfile.tokens", "count"),
    ("certfile.zero_token_share", "ratio"),
    ("rules.max_live", "count"),
    ("certifier.nodes", "count"),
    ("certifier.steps", "count"),
    ("certifier.cuts", "count"),
    ("trace.verify_overhead_s", "s"),
    ("trace.certify_overhead_s", "s"),
)

# Checks against wrappers bound in the wrong place: a counter that must stay
# zero, or must fire, on a workload.  stream and bnb have no TREE, RED or
# DOM steps, so nothing reaches the trees layer or the image scans there.
_NO_TREES = {"trees.propagate_box_calls": False, "trees.dcn_and_compare_calls": False,
             "trees.check_tree_consistency_calls": False,
             "trees.apply_constraint_calls": False, "model.linear_eq_calls": False}
PREDICTIONS = {
    "stream": {"certfile.parse_step_calls": True, "exact.linear_combine_calls": True,
               **_NO_TREES},
    "sst": {"certfile.parse_step_calls": True, "trees.propagate_box_calls": True,
            "trees.dcn_and_compare_calls": True, "model.linear_eq_calls": True,
            "certifier.symmetry_calls": True, "rules.DOM_calls": True},
    "bnb": {"certfile.parse_step_calls": True, "certifier.emit_s": True, **_NO_TREES},
    "mutants": {"certfile.parse_step_calls": True, "exact.linear_combine_calls": True},
}


def import_mipcert():
    """Put the checkout's src/ first on the path and import the package;
    returns the import time.  Exits when the sources are missing, so the
    benchmark never measures some other installed copy."""
    src = ROOT / "src"
    if not (src / "mipcert" / "__init__.py").is_file():
        sys.exit(f"bench: no mipcert sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import mipcert.certfile  # noqa: F401
    import mipcert.certifier  # noqa: F401
    elapsed = time.perf_counter() - t0
    if not Path(mipcert.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: imported mipcert from {mipcert.__file__}, not {src}")
    return elapsed


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

class CertifyJob:
    def __init__(self, problem, options, expected):
        self.problem = problem
        self.options = options
        self.expected = expected   # the closed-form or oracle verdict
        self.text = None           # the certificate emitted at set-up


class VerifyJob:
    def __init__(self, path, accept):
        self.path = path
        self.accept = accept       # Report -> bool


class Case:
    def __init__(self, certify, verify):
        self.certify = certify
        self.verify = verify


def _verified_as(verdict, steps=None):
    def accept(report):
        return (report.status == "verified" and report.verdict == verdict
                and (steps is None or report.stats.get("steps") == steps))
    return accept


def _rejected_or(verdict):
    def accept(report):
        return report.status != "verified" or report.verdict == verdict
    return accept


def build_case(name, rng, size, workdir):
    """Make the workload's problems and certificate files from the seed."""
    from mipcert.certfile import parse_text
    from mipcert.certifier import solve_and_certify
    from mipcert.exact import Rat
    from mipcert.oracle import brute_force_optimum
    from mipcert.rules import Verdict

    import workloads

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    def write(index, text):
        path = workdir / f"{index}.cert"
        path.write_text(text, encoding="utf-8")
        return path

    def certified(job):
        _, job.text, _ = solve_and_certify(job.problem, **job.options)
        return job

    if name == "stream":
        problem_text, text, steps = workloads.stream_certificate(rng, size["stream_steps"])
        problem, _ = parse_text(problem_text)
        job = certified(CertifyJob(problem, {}, Verdict("infeasible")))
        return Case([job], [VerifyJob(write(0, text), _verified_as(Verdict("infeasible"), steps))])
    if name in ("sst", "bnb"):
        if name == "sst":
            problem = workloads.set_packing_problem(rng, size["sst_n"])
            job = CertifyJob(problem, {"sst": True}, Verdict("optimal", Rat(-1)))
        else:
            problem = workloads.wide_bnb_problem(rng, size["bnb_n"])
            job = CertifyJob(problem, {}, Verdict("optimal", Rat(0)))
        certified(job)
        return Case([job], [VerifyJob(write(0, job.text), _verified_as(job.expected))])
    if name == "mutants":
        jobs, verify = [], []
        while len(jobs) < size["goldens"]:
            problem = workloads.random_problem(rng)
            try:
                _, text, stats = solve_and_certify(problem, cuts=("cg", "cover"),
                                                   node_limit=GOLDEN_NODE_LIMIT)
            except RuntimeError:
                continue
            if stats["steps"] not in GOLDEN_STEPS:
                continue
            oracle = brute_force_optimum(problem)
            expected = (Verdict("infeasible") if oracle[0] == "infeasible"
                        else Verdict("optimal", oracle[1]))
            job = CertifyJob(problem, {"cuts": ("cg", "cover")}, expected)
            job.text = text
            jobs.append(job)
            verify.append(VerifyJob(write(len(verify), text), _verified_as(expected)))
            for mutant in workloads.sampled_mutants(rng, text, size["mutants_per_golden"]):
                verify.append(VerifyJob(write(len(verify), mutant), _rejected_or(expected)))
        return Case(jobs, verify)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Operations and rounds
# ---------------------------------------------------------------------------

def reference_loop():
    """Seconds a fixed pure-Python loop takes (best of three).  It runs on
    the same CPU as the program, so it slows down when the program does."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def ref_seconds(wall, before, after):
    """Wall time scaled to the reference CPU speed, given the reference
    loop's time just before and just after."""
    return wall * REF_LOOP_S / ((before + after) / 2)


class Tally:
    """Durations and outcomes of the operations of one pass."""

    def __init__(self):
        self.certify = []          # every call's wall time
        self.verify = []
        self.refs = []             # reference-loop samples, in order
        self.certify_rounds = []   # per round, (wall time, refs index before) in job order
        self.verify_rounds = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.nodes = self.steps = self.cuts = 0
        self.max_live = 0

    def outcome(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {what}", file=sys.stderr)


def run_certify(job, tally):
    from mipcert.certifier import solve_and_certify

    t0 = time.perf_counter()
    try:
        verdict, text, stats = solve_and_certify(job.problem, **job.options)
    except Exception as e:  # a crash is a failed operation, not a benchmark error
        tally.certify.append(time.perf_counter() - t0)
        tally.outcome(False, f"certify raised {type(e).__name__}: {e}")
        return
    tally.certify.append(time.perf_counter() - t0)
    tally.nodes += stats["nodes"]
    tally.steps += stats["steps"]
    tally.cuts += stats["cuts"]
    tally.outcome(verdict == job.expected and text == job.text,
                  f"certify gave {verdict!r}, expected {job.expected!r}"
                  + ("" if text == job.text else ", certificate text changed"))


def run_verify(job, tally):
    from mipcert.certfile import verify_file

    t0 = time.perf_counter()
    try:
        report = verify_file(str(job.path))
        code = report.exit_code
    except Exception as e:  # includes a status outside {0, 1, 2}
        tally.verify.append(time.perf_counter() - t0)
        tally.outcome(False, f"verify {job.path.name} raised {type(e).__name__}: {e}")
        return
    tally.verify.append(time.perf_counter() - t0)
    tally.max_live = max(tally.max_live, report.stats.get("max_live", 0))
    tally.outcome(code in (0, 1, 2) and job.accept(report),
                  f"verify {job.path.name}: {report.summary()}")


def run_rounds(case, seconds, tally, after_op=None):
    """Closed loop: one round certifies every problem and verifies every
    certificate once; rounds repeat until `seconds` have passed (at least
    one round).  The reference loop runs at the start of each round and
    whenever REF_EVERY_S has passed since it last ran, outside the timed
    calls."""
    deadline = time.perf_counter() + seconds
    while tally.rounds == 0 or time.perf_counter() < deadline:
        gc.collect()
        tally.refs.append(reference_loop())
        last_ref = time.perf_counter()
        calls = {"certify": [], "verify": []}
        for kind, run_op, jobs in (("certify", run_certify, case.certify),
                                   ("verify", run_verify, case.verify)):
            for job in jobs:
                run_op(job, tally)
                calls[kind].append((getattr(tally, kind)[-1], len(tally.refs) - 1))
                if after_op:
                    after_op()
                if time.perf_counter() - last_ref >= REF_EVERY_S:
                    tally.refs.append(reference_loop())
                    last_ref = time.perf_counter()
        tally.refs.append(reference_loop())
        tally.certify_rounds.append(calls["certify"])
        tally.verify_rounds.append(calls["verify"])
        tally.rounds += 1
    return tally


def peak_mib(case, tally, kind):
    """Median over one pass of certify (or verify) calls of the tracemalloc
    peak each call reaches above what was allocated before it."""
    run_op, jobs = (run_certify, case.certify) if kind == "certify" else (run_verify, case.verify)
    peaks = []
    tracemalloc.start()
    try:
        for job in jobs:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run_op(job, tally)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / 2 ** 20


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def per_call(tally, kind, scaled=True):
    """Time of one call: each job's median over the rounds, averaged over
    the jobs; in reference seconds unless `scaled` is false."""
    refs = tally.refs

    def seconds(wall, i):
        return ref_seconds(wall, refs[i], refs[i + 1]) if scaled else wall

    by_job = zip(*getattr(tally, kind + "_rounds"))
    return statistics.fmean(statistics.median(seconds(*call) for call in calls)
                            for calls in by_job)


def end_to_end(case, seconds, setup_s):
    tally = run_rounds(case, seconds, Tally())
    verify_s, certify_s = per_call(tally, "verify"), per_call(tally, "certify")
    memory = Tally()
    certify_peak = peak_mib(case, memory, "certify")
    verify_peak = peak_mib(case, memory, "verify")
    tally.attempted += memory.attempted
    tally.failed += memory.failed
    metrics = {
        "setup_s": setup_s,
        "verify_s": verify_s,
        "certify_s": certify_s,
        "verify_peak_mib": verify_peak,
        "certify_peak_mib": certify_peak,
        "cert_bytes": statistics.median([len(job.text.encode()) for job in case.certify]),
    }
    extra = {
        "verify_wall_s": (per_call(tally, "verify", scaled=False), "s"),
        "certify_wall_s": (per_call(tally, "certify", scaled=False), "s"),
        "reference_loop_s": (statistics.median(tally.refs), "s"),
        "verify_certify_ratio": (verify_s / certify_s, "ratio"),
        "failed_share": (tally.failed / tally.attempted, "ratio"),
        "rounds": (tally.rounds, "count"),
        "verify_samples": (len(tally.verify), "count"),
        "certify_samples": (len(tally.certify), "count"),
    }
    if len(case.verify) > 1:
        ms = sorted(t * 1000 for t in tally.verify)
        extra["verdict_p50_ms"] = (statistics.median(ms), "ms")
        extra["verdict_p99_ms"] = (ms[min(len(ms) - 1, int(0.99 * len(ms)))], "ms")
    return tally, metrics, extra


def traced(name, case, seconds):
    from spans import Tracer

    plain = run_rounds(case, seconds / 2, Tally())
    tracer = Tracer()
    totals = {}
    tracer.install()
    try:
        tally = run_rounds(case, seconds / 2, Tally(), lambda: tracer.fold(totals))
    finally:
        tracer.uninstall()
    tally.attempted += plain.attempted
    tally.failed += plain.failed

    rounds = tally.rounds
    scale = REF_LOOP_S / statistics.median(tally.refs) / rounds
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[layer + "_s"] = totals.get(layer, [0, 0.0, 0.0])[2] * scale
    for layer in COUNTED_LAYERS:
        metrics[layer + "_calls"] = totals.get(layer, [0])[0] / rounds
    apply_rows = [totals.get("rules." + k, [0, 0.0, 0.0]) for k in STEP_KINDS]
    metrics["rules.apply_s"] = sum(row[2] for row in apply_rows) * scale
    tokens = totals.get("certfile.tokens", [0])[0]
    metrics["certfile.tokens"] = tokens / rounds
    metrics["certfile.zero_token_share"] = (
        totals.get("certfile.zero_tokens", [0])[0] / tokens if tokens else 0.0)
    metrics["rules.max_live"] = tally.max_live
    metrics["certifier.nodes"] = tally.nodes / rounds
    metrics["certifier.steps"] = tally.steps / rounds
    metrics["certifier.cuts"] = tally.cuts / rounds
    for kind in ("verify", "certify"):
        metrics[f"trace.{kind}_overhead_s"] = per_call(tally, kind) - per_call(plain, kind)

    for metric, must_fire in PREDICTIONS[name].items():
        if (metrics[metric] > 0) != must_fire:
            tally.outcome(False, f"trace check: {metric} = {metrics[metric]}, "
                                 f"predicted {'non-zero' if must_fire else 'zero'}")
    extra = {
        "traced_rounds": (rounds, "count"),
        "untraced_rounds": (plain.rounds, "count"),
    }
    return tally, metrics, extra


def run_workload(name, seed, seconds, trace, size="full", import_s=0.0):
    """Set up and measure one workload; returns the result object."""
    builds = []
    for _ in range(SETUP_REPEATS):
        before = reference_loop()
        t0 = time.perf_counter()
        case = build_case(name, random.Random(seed), SIZES[size], WORK / name)
        wall = time.perf_counter() - t0
        builds.append(ref_seconds(wall, before, reference_loop()))
    setup_s = import_s + statistics.median(builds)
    if trace:
        tally, metrics, extra = traced(name, case, seconds)
        units = dict(PER_LAYER)
    else:
        tally, metrics, extra = end_to_end(case, seconds, setup_s)
        units = dict(END_TO_END)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(name, seed, seconds, trace, result):
    for key in ("metrics", "extra"):
        for metric, entry in result[key].items():
            print(f"{name:8s} {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
    stamp = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_rev": git_rev(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }
    suffix = "_trace" if trace else ""
    out = ROOT / f"BENCH_{name}{suffix}.json"
    out.write_text(json.dumps({**stamp, **result}, indent=1) + "\n", encoding="utf-8")


def remove_work():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass   # another run still uses it


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")

    before = reference_loop()
    import_s = ref_seconds(import_mipcert(), before, reference_loop())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  import_s=import_s)
            report(name, args.seed, args.seconds, args.trace, result)
            results[name] = result
    finally:
        remove_work()

    if len(names) == 1:
        summary = results[names[0]]
        summary = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
