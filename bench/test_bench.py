"""Tests of the benchmark itself:  python3 -m pytest bench"""

import itertools
import json
import random
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from grasshilb import cli, hilbert, polyring, semigroup, trees  # noqa: E402


def _span(sid, parent, start, end, name="x"):
    return spans.Span(sid, parent, 1, name, start, end)


def test_self_times_on_synthetic_tree():
    tree = [
        _span(0, None, 0, 100, "cli"),
        _span(1, 0, 10, 40),
        _span(2, 1, 20, 30),
        _span(3, 0, 50, 90),
        _span(4, 3, 45, 60),   # starts before its parent: clipped
        _span(5, 3, 55, 70),   # overlaps its sibling: counted once
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 30, 1: 20, 2: 10, 3: 20, 4: 15, 5: 15}
    assert spans.root_mismatches(tree, selfs) == [1]  # children overlap
    nested = tree[:4]
    selfs = spans.self_times(nested)
    assert spans.root_mismatches(nested, selfs) == []
    summary = spans.summarize(nested, selfs)
    assert summary["cli.self_s"] == 30e-9
    assert summary["x.self_s"] == 70e-9
    assert summary["x.calls"] == 3


def test_span_checks_catch_bad_spans():
    good = [_span(0, None, 0, 100, "cli"), _span(1, 0, 10, 40)]
    assert spans.misplaced(good) == []
    assert spans.misplaced([good[0], _span(1, 0, 90, 120)]) == [1]
    assert spans.misplaced([_span(0, None, 50, 40, "cli")]) == [0]
    assert run.check_spans([[150e-9]], [([150e-9], good)]) == []
    # the root span outlasts the call that encloses it
    assert len(run.check_spans([[150e-9]], [([50e-9], good)])) == 1
    # the root span is far shorter than the untraced call
    assert len(run.check_spans([[1e-6]], [([1e-6], good)])) == 1
    # a job without a root span
    assert len(run.check_spans([[150e-9]] * 2,
                               [([150e-9, 150e-9], good)])) == 1


def test_scaled_clock_weights_each_stretch_by_its_probe():
    clock = speed.ScaledClock()
    unit = speed.PROBE_SECONDS
    # probes at [10, 10 + unit] (full speed) and [20, 20 + 2 unit] (half)
    clock.starts = [10.0, 20.0]
    clock.ends = [10.0 + unit, 20.0 + 2 * unit]
    assert abs(clock.wall(5.0, 20.0 + 2 * unit) - (15.0 - unit)) < 1e-9
    # 5 s before the first probe at full speed, the rest at half speed
    half = (20.0 - 10.0 - unit) / 2
    assert abs(clock.scaled(5.0, 20.0 + 2 * unit) - (5.0 + half)) < 1e-9
    # a call inside one stretch, and one that starts inside a probe
    assert abs(clock.scaled(12.0, 14.0) - 1.0) < 1e-9
    assert abs(clock.scaled(10.0, 12.0) - (2.0 - unit) / 2) < 1e-9


def test_scaled_clock_leaves_out_its_probes():
    clock = speed.ScaledClock().start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.1:
        speed.probe()
    end = time.perf_counter()
    clock.stop()
    assert len(clock.starts) >= 5
    probes = sum(b - a for a, b in zip(clock.starts, clock.ends) if a < end)
    assert abs(clock.wall(start, end) - (end - start - probes)) < 1e-6
    assert clock.scaled(start, end) > 0


def test_two_row_dim_matches_oracle():
    for n in range(2, 7):
        for lam in itertools.product(range(4), repeat=n):
            if sum(lam) <= 10:
                assert workloads.two_row_dim(lam) == \
                    semigroup.count_gradation(n, lam), lam
    rng = random.Random(11)
    for _ in range(40):
        lam = [rng.randint(0, 5) for _ in range(8)]
        assert workloads.two_row_dim(lam) == semigroup.count_gradation(8, lam)


def test_tree_model_matches_parse_tree():
    rng = random.Random(5)
    for n in (2, 3, 5, 9, 16):
        model = workloads.TreeModel(workloads._random_shape(rng, n))
        tree = trees.parse_tree(model.spec)
        assert tree.edge_count == len(model.edges)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            indicator = [0] * len(model.edges)
            for k in model.path_edges(i, j):
                indicator[k] = 1
            assert tuple(indicator) == tuple(tree.path(i, j).indicator)


def test_query_stream_follows_the_seed():
    argvs = [job.argv for job in workloads.make_jobs("queries", 7)]
    assert argvs == [job.argv for job in workloads.make_jobs("queries", 7)]
    assert argvs != [job.argv for job in workloads.make_jobs("queries", 8)]
    assert len(argvs) >= 100


def test_queries_pass_their_checks():
    jobs = workloads.make_jobs("queries", 3)[:40]
    assert workloads.run_pass(cli.main, jobs)[1] == 0


def test_corrupted_output_raises_error_rate():
    dims = [job for job in workloads.make_jobs("queries", 3)
            if job.kind == "dim"][:3]
    corrupt = dims[1].argv

    def one_garbled(argv):
        code = cli.main(argv)
        if argv is corrupt:
            print("garbage")
        return code

    def wrong_exit(argv):
        cli.main(argv)
        return 1

    def wrong_text(argv):
        print("result: PASS")
        return 0

    assert workloads.run_pass(cli.main, dims)[1] == 0
    times, failed = workloads.run_pass(one_garbled, dims)
    assert (len(times), failed) == (3, 1)
    assert workloads.run_pass(wrong_exit, dims)[1] == 3
    assert workloads.run_pass(wrong_text, workloads.make_jobs("cross", 1))[1] == 1


def test_traced_job_adds_up_and_counts_repeat():
    job = workloads.Job("verify", ["verify", "cross", "--n", "4",
                                   "--max-degree", "6"], lambda c, o: c == 0)
    original = polyring.geometric_expand
    sweep_source = polyring.iter_exponents
    summaries = []
    for _ in range(2):
        tracer = spans.Tracer()
        uninstall = tracer.install()
        try:
            assert hilbert.geometric_expand is not original
            assert "range" in vars(hilbert)
            times, failed = workloads.run_pass(tracer.root(cli.main), [job])
            assert failed == 0
        finally:
            uninstall()
        assert run.check_spans([times], [(times, tracer.spans)]) == []
        selfs = spans.self_times(tracer.spans)
        summary = spans.summarize(tracer.spans, selfs)
        summaries.append({k: v for k, v in summary.items()
                          if not k.endswith(".self_s")})
    assert hilbert.geometric_expand is original
    assert polyring.iter_exponents is sweep_source
    assert "range" not in vars(hilbert)
    assert polyring.IntPolynomial.__radd__ is polyring.IntPolynomial.__add__
    assert summaries[0] == summaries[1]
    assert summaries[0]["semigroup.count.calls"] == 210  # gradings, cap 6
    # one embracing configuration at n = 4: the loop walks one subset
    assert summaries[0]["hilbert.ie.masks"] == 1
    assert summaries[0]["polyring.sweep.cells"] > 0


def test_declared_metrics_name_known_layers():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    for entry in declared["per_layer"]:
        name = entry["name"]
        assert name == "trace_overhead" or \
            name.rpartition(".")[0] in spans.LAYERS, name
