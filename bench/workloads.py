"""Job lists, the seeded query stream and the output checks.

A job is one ``grasshilb.cli.main(argv)`` call plus a check of its exit
code and stdout.  ``run_job`` times only the call; the check runs after
the clock stops.  The checks do not use grasshilb code, so a bug in a
module cannot hide itself:

* fixed jobs: exit code 0 and the sha256 of stdout pinned from commit
  4e7e287, since text and JSON output are kept byte-identical;
* ``dim``: the two-row Kostka closed form dim = N(lam, d) - N(lam, d+1)
  with 2d = |lam|, where N(lam, a) counts the mu with 0 <= mu <= lam
  and |mu| = a;
* ``decompose``: the returned path multiset, re-summed over path
  indicators of the benchmark's own tree model, gives back the input;
* ``relations``: one relation per 4-subset of leaves, C(n, 4) in all.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable

WORKLOADS = ("cross", "numerator-sym", "sweep", "queries")

# stdout sha256 of each fixed job as printed at commit 4e7e287
FIXED_JOBS = {
    "cross": [
        (["verify", "cross", "--n", "6", "--max-degree", "10", "--jobs", "1"],
         "de909b0a3f5baa7d95bad6ae6b99e6ea4fdfb8e23a86ad4abc5d0d8e06a17766"),
    ],
    "numerator-sym": [
        (["numerator", "--n", "7", "--method", "sym", "--format", "json"],
         "0b422fc7122f2ffb3e5de44a7e7bbe6bafb207da759af5e2802feb6180ec075b"),
    ],
    "sweep": [
        (["verify", "delpezzo"],
         "2f7a95e580faae3acb5e9244c7e5f603792248b677112e083939409ea1237f0a"),
        (["series", "--n", "10", "--max-degree", "8", "--format", "json"],
         "a8099b1c5ec49f65e887092bcb5e5fdcd24f5dad93b944dfedaf1ba89fc47f1b"),
    ],
}

# Query stream shape.  Every cell is filled with the same number of
# queries whatever the seed, so the seed moves the inputs but not the mix.
# The mix (240 dim, 300 decompose, 108 relations) puts each percentile on
# the query kind whose layers are meant to move it: decompose calls are
# the largest group and hold the median rank, dim and the larger
# relations calls are the slowest and hold the 90th percentile.  See
# README.md for the sizing.
DIM_CELLS = [(n, total) for n in (8, 9) for total in (14, 16, 18, 20)]
DIM_PER_CELL = 30
DECOMPOSE_LEAVES = 16
DECOMPOSE_QUERIES = 300
# relations cost grows like n^4 (about 20 ms per call at n = 12), so n
# stays small
RELATIONS_LEAVES = range(4, 13)
RELATIONS_PER_N = 12


@dataclass(frozen=True)
class Job:
    kind: str
    argv: list
    check: Callable  # (exit_code, stdout) -> bool


def make_jobs(workload, seed):
    """The job list of one pass.  Only ``queries`` depends on the seed."""
    if workload == "queries":
        return query_stream(seed)
    return [Job(argv[0], argv, partial(_check_pinned, digest))
            for argv, digest in FIXED_JOBS[workload]]


def _check_pinned(digest, code, out):
    return code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# timed calls


def run_job(main, job):
    """Call ``main(job.argv)`` with stdout and stderr captured.

    Returns (seconds, ok).  Only the call is timed.  A job fails on a
    non-zero exit, an exception or output its check rejects.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(job.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        traceback.print_exc()
    seconds = time.perf_counter() - start
    if code is None:
        return seconds, False
    try:
        ok = bool(job.check(code, out.getvalue()))
    except (ValueError, KeyError, TypeError, IndexError):
        ok = False
    return seconds, ok


def run_pass(main, jobs):
    """Run every job once.  Returns (per-call seconds, failed jobs)."""
    times = []
    failed = 0
    for job in jobs:
        seconds, ok = run_job(main, job)
        times.append(seconds)
        if not ok:
            failed += 1
            print("failed: %s" % " ".join(job.argv), file=sys.stderr)
    return times, failed


# ---------------------------------------------------------------------------
# query stream


def query_stream(seed):
    """A seeded stream of dim, decompose and relations queries, shuffled."""
    rng = random.Random(seed)
    jobs = []
    for n, total in DIM_CELLS:
        for _ in range(DIM_PER_CELL):
            lam = _random_grading(rng, n, total)
            jobs.append(Job(
                "dim",
                ["dim", "--n", str(n), "--grading", ",".join(map(str, lam)),
                 "--format", "json"],
                partial(_check_dim, lam)))
    for _ in range(DECOMPOSE_QUERIES):
        shape = _random_shape(rng, DECOMPOSE_LEAVES)
        model = TreeModel(shape)
        pairs = {}
        for _ in range(rng.randint(4, 12)):
            i, j = sorted(rng.sample(range(1, model.n_leaves + 1), 2))
            pairs[(i, j)] = pairs.get((i, j), 0) + rng.randint(1, 3)
        values = model.edge_vector(pairs)
        jobs.append(Job(
            "decompose",
            ["decompose", "--tree", model.spec,
             "--values", ",".join(map(str, values)), "--format", "json"],
            partial(_check_decompose, model, values)))
    for n in RELATIONS_LEAVES:
        for _ in range(RELATIONS_PER_N):
            spec = TreeModel(_random_shape(rng, n)).spec
            jobs.append(Job(
                "relations",
                ["relations", "--tree", spec, "--format", "json"],
                partial(_check_relations, n)))
    rng.shuffle(jobs)
    return jobs


def _random_grading(rng, n, total):
    """A random composition of `total` into n parts, none above total/2
    (a larger part gives dimension 0)."""
    while True:
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if max(parts) <= total // 2:
            return parts


def _random_shape(rng, leaves):
    """A random planar binary shape: "*" or a (left, right) tuple."""
    if leaves == 1:
        return "*"
    k = rng.randint(1, leaves - 1)
    return (_random_shape(rng, k), _random_shape(rng, leaves - k))


# ---------------------------------------------------------------------------
# checks


def bounded_compositions(lam, a):
    """N(lam, a): the number of mu with 0 <= mu_i <= lam_i and |mu| = a."""
    if a < 0:
        return 0
    ways = [1] + [0] * a
    for bound in lam:
        new = []
        window = 0
        for s in range(a + 1):
            window += ways[s]
            if s > bound:
                window -= ways[s - bound - 1]
            new.append(window)
        ways = new
    return ways[a]


def two_row_dim(lam):
    """dim of the lam-graded piece: N(lam, d) - N(lam, d + 1), 2d = |lam|."""
    total = sum(lam)
    if total % 2:
        return 0
    d = total // 2
    return bounded_compositions(lam, d) - bounded_compositions(lam, d + 1)


def _check_dim(lam, code, out):
    return code == 0 and json.loads(out)["dim"] == two_row_dim(lam)


def _check_decompose(model, values, code, out):
    data = json.loads(out)
    if code != 0 or not data["member"]:
        return False
    pairs = {(p["i"], p["j"]): p["mult"]
             for p in data["decomposition"]["pairs"]}
    return model.edge_vector(pairs) == values


def _check_relations(n, code, out):
    data = json.loads(out)
    return (code == 0 and data["n_leaves"] == n
            and len(data["relations"]) == comb(n, 4))


class TreeModel:
    """A trivalent tree built from a shape, numbered as grasshilb's tree
    spec documents: leaves 1..n left to right, edges in construction
    order (an internal vertex's edge to each child follows that child's
    own edges, and the top-level edge comes last)."""

    def __init__(self, shape):
        self.edges = []
        self.leaf_vertices = []
        self._next = 0
        left = self._build(shape[0])
        right = self._build(shape[1])
        self.edges.append((left, right))
        self.n_leaves = len(self.leaf_vertices)
        self.spec = _spec(shape)
        self._adjacent = {}
        for k, (a, b) in enumerate(self.edges):
            self._adjacent.setdefault(a, []).append((b, k))
            self._adjacent.setdefault(b, []).append((a, k))

    def _build(self, shape):
        v = self._next
        self._next += 1
        if shape == "*":
            self.leaf_vertices.append(v)
        else:
            for child in shape:
                self.edges.append((v, self._build(child)))
        return v

    def path_edges(self, i, j):
        """0-based indices of the edges on the path from leaf i to leaf j."""
        start, goal = self.leaf_vertices[i - 1], self.leaf_vertices[j - 1]
        via = {start: None}
        frontier = [start]
        while goal not in via:
            v = frontier.pop()
            for w, k in self._adjacent[v]:
                if w not in via:
                    via[w] = (v, k)
                    frontier.append(w)
        out = []
        v = goal
        while via[v] is not None:
            v, k = via[v]
            out.append(k)
        return out

    def edge_vector(self, pairs):
        """Sum over {(i, j): mult} of mult times the path indicator."""
        total = [0] * len(self.edges)
        for (i, j), mult in pairs.items():
            for k in self.path_edges(i, j):
                total[k] += mult
        return total


def _spec(shape):
    if shape == "*":
        return "*"
    return "(%s,%s)" % (_spec(shape[0]), _spec(shape[1]))
