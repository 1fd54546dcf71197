"""Benchmark of the grasshilb command line, run in-process.

    python3 bench/run.py --workload cross --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload is a list of jobs, and each
job is one ``grasshilb.cli.main(argv)`` call in this process, one after
another (a closed loop with one client, no worker pool).  A pass runs
every job once; the run repeats whole passes for ``--seconds`` and
checks every job's output after its call returns (see workloads.py).

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json.
After one warm-up pass, every call is timed on the scaled clock of
speed.py, which reads in seconds of a machine at a fixed speed, so that
other load on a shared host does not show as a change of the program.
A job's latency is the median of its calls in the run.  ``solve_s`` is
the sum of these over one pass, ``query_ms_p50`` and ``query_ms_p90``
are their percentiles over the pass's jobs, and ``queries_per_s`` is
jobs per second at that latency.  ``setup_s`` is the median, over
SETUP_SPAWNS fresh interpreters, of the scaled time each takes to import
grasshilb.cli and build its parser, and ``peak_rss_mb`` the max RSS of
a fresh process running one pass.  The unscaled wall time of a pass is
printed too.
``error_rate`` is printed too; the JSON result line carries it as
``failed`` over ``attempted``.

With ``--trace 1`` it alternates untraced and traced passes.  It prints
the per-layer metrics of BENCHMARK.json (median self seconds over the
traced passes, and counts, which must repeat exactly) and
``trace_overhead`` (median ratio of a traced pass to the untraced pass
before it).  It checks the spans (see ``check_spans``) and writes them to
``.bench_out/spans-<workload>-<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# fresh interpreters timed for setup_s, after the timed passes
SETUP_SPAWNS = 15
# a traced job's root span may not be shorter than this share of the
# job's fastest untraced call: tracing only adds work
ROOT_FLOOR = 0.5

SETUP_PROBE = """\
import sys, time
sys.path[:0] = [%r, %r]
import speed
clock = speed.ScaledClock().start()
start = time.perf_counter()
import grasshilb.cli as cli
cli.build_parser()
end = time.perf_counter()
clock.stop()
print(clock.scaled(start, end))
"""
RSS_PROBE = """\
import resource, sys
sys.path[:0] = [%r, %r]
import workloads
from grasshilb import cli
workloads.run_pass(cli.main, workloads.make_jobs(%r, %d))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def setup_once():
    """Scaled seconds (see speed.py) that a fresh interpreter takes to
    import grasshilb.cli and build its parser."""
    code = SETUP_PROBE % (str(BENCH), str(SRC))
    done = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    return float(done.stdout.split()[-1])


def peak_rss_mb(workload, seed):
    """Max RSS, in MiB, of a fresh process that runs one pass."""
    code = RSS_PROBE % (str(BENCH), str(SRC), workload, seed)
    done = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    return float(done.stdout.split()[-1])


def timed_run(main, jobs, args):
    """One warm-up pass, then whole passes for `args.seconds`, timed on
    the scaled clock of speed.py, then the set-up spawns."""
    deadline = time.perf_counter() + args.seconds
    _, failed = workloads.run_pass(main, jobs)  # warm-up, checked
    windows = []

    def recorded(argv):
        start = time.perf_counter()
        try:
            return main(argv)
        finally:
            windows.append((start, time.perf_counter()))

    clock = speed.ScaledClock().start()
    passes = 0
    try:
        while not passes or time.perf_counter() < deadline:
            failed += workloads.run_pass(recorded, jobs)[1]
            passes += 1
    finally:
        clock.stop()
    setups = [setup_once() for _ in range(SETUP_SPAWNS)]

    def latency(seconds):
        """Each job's median over the passes of `seconds` of its call."""
        return [statistics.median(seconds(*windows[p * len(jobs) + j])
                                  for p in range(passes))
                for j in range(len(jobs))]

    scaled = latency(clock.scaled)
    metrics = {
        "solve_s": sum(scaled),
        "query_ms_p50": 1e3 * statistics.median(scaled),
        "query_ms_p90": 1e3 * p90(scaled),
        "queries_per_s": len(scaled) / sum(scaled),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(args.workload, args.seed),
    }
    attempted = (passes + 1) * len(jobs)
    notes = ["1 warm-up and %d timed passes of %d calls, %d set-up spawns"
             % (passes, len(jobs), SETUP_SPAWNS),
             "%d speed probes; unscaled wall time of a pass, probes left "
             "out, %.6g s" % (len(clock.starts), sum(latency(clock.wall))),
             "error_rate %.6g (%d failed / %d attempted)"
             % (failed / attempted, failed, attempted)]
    return metrics, attempted, failed, True, notes


def traced_run(main, jobs, args):
    # untraced and traced passes alternate, so that drift in machine speed
    # does not show up as tracing overhead
    plain = []
    traced = []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        times, bad = workloads.run_pass(main, jobs)
        plain.append(times)
        failed += bad
        tracer = spans.Tracer()
        uninstall = tracer.install()
        try:
            times, bad = workloads.run_pass(tracer.root(main), jobs)
        finally:
            uninstall()
        traced.append((times, tracer.spans))
        failed += bad

    notes = check_spans(plain, traced)
    correct = not notes
    summaries = []
    for _, recorded in traced:
        summaries.append(spans.summarize(recorded, spans.self_times(recorded)))

    metrics = {"trace_overhead": statistics.median(
        sum(t) / sum(u) for (t, _), u in zip(traced, plain))}
    for name in set().union(*summaries):
        values = [s.get(name, 0) for s in summaries]
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                correct = False
                notes.append("count %s differs between passes: %s"
                             % (name, values))

    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": list(spans.Span.__slots__),
                   "passes": [[s.as_list() for s in recorded]
                              for _, recorded in traced]}, fh)
    attempted = (len(plain) + len(traced)) * len(jobs)
    notes += ["%d untraced and %d traced passes of %d calls"
              % (len(plain), len(traced), len(jobs)),
              "spans written to %s" % path.relative_to(ROOT)]
    return metrics, attempted, failed, correct, notes


def check_spans(plain, traced):
    """What is wrong with the spans of the traced passes, one line each.

    In every pass the spans must nest inside their parents and each
    job's self times must add up to its root span.  Each root span must
    fit inside the job's timed call, and the job's shortest root span
    must be at least ROOT_FLOOR of its fastest untraced call."""
    problems = []
    shortest = {}
    for index, (times, recorded) in enumerate(traced):
        bad = spans.misplaced(recorded)
        if bad:
            problems.append("pass %d: spans %s end before they start or "
                            "outside their parent" % (index, bad[:10]))
        bad = spans.root_mismatches(recorded, spans.self_times(recorded))
        if bad:
            problems.append("pass %d: root span != sum of self times in "
                            "jobs %s" % (index, bad[:10]))
        roots = spans.root_seconds(recorded)
        if sorted(roots) != list(range(1, len(times) + 1)):
            problems.append("pass %d: %d root spans for %d jobs"
                            % (index, len(roots), len(times)))
            continue
        for job, seconds in roots.items():
            if seconds > times[job - 1]:
                problems.append("pass %d job %d: root span %.6f s is "
                                "longer than its call %.6f s"
                                % (index, job, seconds, times[job - 1]))
            shortest[job] = min(seconds, shortest.get(job, seconds))
    for job, seconds in sorted(shortest.items()):
        fastest = min(times[job - 1] for times in plain)
        if seconds < ROOT_FLOOR * fastest:
            problems.append("job %d: root span %.6f s is under %g of the "
                            "untraced call %.6f s"
                            % (job, seconds, ROOT_FLOOR, fastest))
    return problems


def declared(section, metrics):
    """The metrics BENCHMARK.json lists in `section`, in its order.  A
    layer the workload never entered reads 0."""
    with open(ROOT / "BENCHMARK.json") as fh:
        entries = json.load(fh)[section]
    out = {}
    for entry in entries:
        name = entry["name"]
        if name not in metrics:
            if section == "end_to_end" or name.rpartition(".")[0] not in spans.LAYERS:
                raise KeyError("benchmark does not measure %s" % name)
        out[name] = {"value": metrics.get(name, 0), "unit": entry["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grasshilb" / "cli.py").is_file():
        print("no grasshilb sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from grasshilb import cli

    jobs = workloads.make_jobs(args.workload, args.seed)
    run = traced_run if args.trace else timed_run
    metrics, attempted, failed, correct, notes = run(cli.main, jobs, args)
    result = declared("per_layer" if args.trace else "end_to_end", metrics)

    print("workload %s seed %d: %s" % (args.workload, args.seed,
                                       "; ".join(notes)))
    for name, entry in result.items():
        print("  %-28s %14.6g %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
