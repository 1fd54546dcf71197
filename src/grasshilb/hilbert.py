"""Four independent routes to the multigraded series of the plane
Grassmannian torus action.

W_n is the generating function whose coefficient at z^lam is the number
of semigroup elements with gradation lam; equivalently the dimension of
the lam-graded piece of the Grassmannian coordinate ring.  The methods:

* series_by_recursion: W_2 = 1/(1 - z1 z2); each step splits the last
  variable's powers across two new leaf variables and divides by one new
  pair factor.  Exact through a total-degree cap.
* numerator_inclusion_exclusion: the numerator over
  prod_{i<j} (1 - z_i z_j), as an alternating sum over subsets of the
  excluded (unordered-intersecting) pair configurations.
* numerator_symmetric_recursion: a closed-form coefficient recursion in
  terms of elementary and complete homogeneous symmetric polynomials.
  Conjectural: it is validated against the other methods, never assumed.
* the count_gradation oracle from the semigroup module.

cross_validate runs all of them against each other coefficient by
coefficient and reports structured pass/fail results.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from . import polyring, semigroup, trees
from .polyring import (CapacityError, IntPolynomial, all_pairs,
                       complete_homogeneous, elementary_symmetric,
                       geometric_expand, iter_exponents,
                       multiply_by_geometric_series, permute_variables)

#: Largest excluded-configuration set inclusion-exclusion will expand
#: (2^EXC_LIMIT subsets).
EXC_LIMIT = 20

_PERMUTATION_SEED = 271828


@dataclass(frozen=True)
class NumeratorResult:
    n: int
    polynomial: IntPolynomial
    method: str    # "inclusion-exclusion" | "symmetric-recursion"

    @property
    def is_conjectural(self):
        return self.method == "symmetric-recursion"

    def to_json_dict(self):
        data = polyring.to_json_dict(self.polynomial)
        data["n"] = self.n
        data["method"] = self.method
        data["conjectural"] = self.is_conjectural
        return data


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str   # "pass" | "fail"
    detail: str

    def to_json_dict(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class CrossReport:
    n: int
    cap: int
    checks: tuple

    @property
    def passed(self):
        return all(c.status == "pass" for c in self.checks)

    def to_json_dict(self):
        return {"n": self.n, "cap": self.cap,
                "checks": [c.to_json_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# recursion on the series


def series_by_recursion(n, max_total_degree):
    """W_n exact through the given total-degree cap, built variable by
    variable from W_2."""
    if n < 2:
        raise ValueError("need n >= 2")
    cap = max_total_degree
    polyring._check_sweep(n, cap)  # the last sweep is the largest
    series = geometric_expand([(1, 2)], 2, cap)
    for num_vars in range(3, n + 1):
        split = IntPolynomial._trusted(
            num_vars, _split_last_variable(series._terms), cap)
        series = multiply_by_geometric_series(split, (num_vars - 1, num_vars))
    return series


def _split_last_variable(terms):
    """Replace z_m^i by sum_{l=0}^{i} z_m^{i-l} z_{m+1}^l, adding one
    variable.  Total degree is unchanged.  On packed keys: shift every slot
    up one, then move l units from the slot of z_m to the new lowest slot.
    No two terms land on one key (z_m, z_{m+1} give back i and l)."""
    step = (1 << polyring._WIDTH) - 1
    out = {}
    for k, c in terms.items():
        base = k << polyring._WIDTH
        for key in range(base, base - (k & step) * step - 1, -step):
            out[key] = c
    return out


# ---------------------------------------------------------------------------
# numerator by inclusion-exclusion


def embracing_configurations(n):
    """All ((i,j),(i',j')) with i < i' < j' < j, one per 4-subset of 1..n.

    These are exactly the unordered-intersecting pair configurations of
    the caterpillar tree.
    """
    return [((a, d), (b, c))
            for a, b, c, d in combinations(range(1, n + 1), 4)]


def excluded_configurations(tree):
    """All unordered-intersecting 2-tuples of leaf pairs of a tree, each
    as (smaller pair, larger pair)."""
    pairs = all_pairs(tree.n_leaves)
    out = []
    for a, b in combinations(pairs, 2):
        if trees.classify_intersection(tree, a, b).kind == "unordered":
            out.append((a, b))
    return out


def numerator_inclusion_exclusion(n, tree=None):
    """The series numerator over prod (1 - z_i z_j), by
    inclusion-exclusion over the excluded configurations.

    With no tree the caterpillar's embracing configurations are used
    directly.  Each subset S contributes (-1)^|S| times the product of
    z_i z_j over the distinct pairs appearing in S.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if tree is not None:
        if tree.n_leaves != n:
            raise polyring.DimensionError(
                "tree has %d leaves, expected %d" % (tree.n_leaves, n))
        exc = excluded_configurations(tree)
    else:
        exc = embracing_configurations(n)
    if len(exc) > EXC_LIMIT:
        raise CapacityError(
            "%d excluded configurations exceed the limit %d; "
            "use the recursion method" % (len(exc), EXC_LIMIT))
    # each configuration as the set of the keys of its two z_i z_j
    config_pairs = [frozenset(polyring._monomial_key(n, *pair) for pair in cfg)
                    for cfg in exc]
    acc = {0: 1}
    for mask in range(1, 1 << len(exc)):
        pairs = set()
        sign = 1
        m = mask
        idx = 0
        while m:
            if m & 1:
                pairs |= config_pairs[idx]
                sign = -sign
            m >>= 1
            idx += 1
        key = sum(pairs)
        s = acc.get(key, 0) + sign
        if s:
            acc[key] = s
        else:
            del acc[key]
    return NumeratorResult(n, IntPolynomial._trusted(n, acc),
                           "inclusion-exclusion")


def series_from_numerator(numerator, max_total_degree):
    """Expand numerator / prod_{i<j} (1 - z_i z_j) through the cap,
    dividing by one pair factor at a time.  A numerator that is itself a
    series must be exact through the cap (PrecisionError otherwise)."""
    poly = getattr(numerator, "polynomial", numerator)
    series = polyring.truncate(poly, max_total_degree)
    return multiply_by_geometric_series(series, *all_pairs(series.num_vars))


# ---------------------------------------------------------------------------
# numerator by the symmetric-function recursion (conjectural)


def numerator_symmetric_recursion(n):
    """The numerator via the conjectural symmetric-function coefficient
    recursion.

    Going from m-1 to m variables, the coefficients of the new numerator
    with respect to powers of z_m are

        new_t = sum_i old_i * a(t-i, i)

    where, with sigma/h the elementary/complete homogeneous symmetric
    polynomials in the m-2 variables z_1..z_{m-2} and
    H(s, l) = sum_{r=0}^{l} (-1)^r h_{s-r} sigma_r:

        a(k, l) = sum_{beta=0}^{m-3} z_{m-1}^beta
                  sum_{alpha=0}^{k+l} (-1)^alpha sigma_alpha H(k+beta-alpha, beta)

    Coefficient vectors carry n+1 slots; the three slots past the end are
    checked to vanish so silent truncation cannot go unnoticed.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    size = n + 1
    zero = IntPolynomial.zero(n)
    coeffs = [zero] * size
    coeffs[0] = IntPolynomial.one(n)
    for stage in range(3, n + 1):
        coeffs = _symmetric_step(coeffs, stage, n, size)
    poly = zero
    for t, c in enumerate(coeffs):
        if not c.is_zero():
            poly = poly + c * _power_of_variable(n, n, t)
    return NumeratorResult(n, poly, "symmetric-recursion")


def _symmetric_step(coeffs, stage, n, size):
    v = stage - 2          # symmetric polynomials in z_1..z_v
    attach = stage - 1     # powers of z_attach carry the beta sum

    @cache
    def sig(k):
        return _pad(elementary_symmetric(v, k), n)

    @cache
    def hom(k):
        return _pad(complete_homogeneous(v, k), n)

    @cache
    def H(s, l):
        acc = IntPolynomial.zero(n)
        for r in range(l + 1):
            term = hom(s - r) * sig(r)
            acc = acc + (term if r % 2 == 0 else -term)
        return acc

    @cache
    def a_poly(k, l):
        acc = IntPolynomial.zero(n)
        for beta in range(v):
            inner = IntPolynomial.zero(n)
            for alpha in range(k + l + 1):
                term = sig(alpha) * H(k + beta - alpha, beta)
                inner = inner + (term if alpha % 2 == 0 else -term)
            if not inner.is_zero():
                acc = acc + inner * _power_of_variable(n, attach, beta)
        return acc

    occupied = [i for i, c in enumerate(coeffs) if not c.is_zero()]
    new = []
    for t in range(size + 3):
        acc = IntPolynomial.zero(n)
        for i in occupied:
            acc = acc + coeffs[i] * a_poly(t - i, i)
        new.append(acc)
    for t in range(size, size + 3):
        if not new[t].is_zero():
            raise AssertionError(
                "symmetric recursion overflowed %d coefficient slots at "
                "stage %d" % (size, stage))
    return new[:size]


def _pad(poly, n):
    """Reinterpret a polynomial in fewer variables inside n variables."""
    extra = n - poly.num_vars
    if extra < 0:
        raise polyring.DimensionError("cannot shrink variable count")
    return IntPolynomial._trusted(
        n, {k << polyring._WIDTH * extra: c for k, c in poly._terms.items()})


def _power_of_variable(n, index, power):
    """z_index^power in n variables."""
    return IntPolynomial._trusted(
        n, {power * polyring._monomial_key(n, index): 1})


# ---------------------------------------------------------------------------
# cross-validation

ALL_METHODS = ("inclusion-exclusion", "symmetric-recursion", "oracle")


def _oracle_count(args):
    n, lam = args
    return semigroup.count_gradation(n, lam)


def cross_validate(n, max_total_degree, methods=ALL_METHODS, permutations=5,
                   jobs=1, seed=_PERMUTATION_SEED):
    """Check the independent methods against each other through the cap.

    The recursion series is the reference.  Each requested method adds a
    pass/fail entry; a final entry checks invariance of the series under
    `permutations` seeded random variable permutations.  Failures are
    reported with the first differing grading, never raised.
    """
    cap = max_total_degree
    reference = series_by_recursion(n, cap)
    checks = []

    if "inclusion-exclusion" in methods:
        checks.append(_series_check(
            "recursion-vs-inclusion-exclusion", reference,
            lambda: series_from_numerator(numerator_inclusion_exclusion(n), cap)))
    if "symmetric-recursion" in methods:
        checks.append(_series_check(
            "recursion-vs-symmetric-recursion-conjectural", reference,
            lambda: series_from_numerator(numerator_symmetric_recursion(n), cap)))
    if "oracle" in methods:
        checks.append(_oracle_check(reference, jobs))

    rng = random.Random(seed)
    perms_used = []
    status, detail = "pass", ""
    for _ in range(permutations):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        perms_used.append(tuple(perm))
        if permute_variables(reference, perm) != reference:
            status = "fail"
            detail = "series moved under permutation %r" % (perm,)
            break
    if status == "pass":
        detail = "%d permutations: %s" % (
            len(perms_used), " ".join(str(p) for p in perms_used))
    checks.append(CheckResult("permutation-invariance", status, detail))

    return CrossReport(n, cap, tuple(checks))


def _series_check(name, reference, build):
    try:
        other = build()
    except CapacityError as exc:
        return CheckResult(name, "fail", "capacity: %s" % exc)
    if other._terms == reference._terms:
        return CheckResult(name, "pass",
                           "%d coefficients agree" % len(reference._terms))
    for e in iter_exponents(reference.num_vars, reference.max_total_degree):
        a = reference.coefficient(e)
        b = other.coefficient(e)
        if a != b:
            return CheckResult(
                name, "fail",
                "first difference at %r: %d vs %d" % (list(e), a, b))
    raise AssertionError("unreachable")


def _pool_size(jobs, cpus):
    """Worker processes for `jobs` requested on `cpus` CPUs (None when
    unknown, as os.cpu_count() may report): never more than one per CPU."""
    return min(jobs, cpus or 1)


def _oracle_check(reference, jobs):
    n = reference.num_vars
    cap = reference.max_total_degree
    lams = list(iter_exponents(n, cap))
    counts = None
    workers = _pool_size(jobs, os.cpu_count())
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                counts = list(pool.map(
                    _oracle_count, [(n, lam) for lam in lams],
                    chunksize=max(1, len(lams) // (workers * 8))))
        except (OSError, PermissionError):
            counts = None
    if counts is None:
        counts = [semigroup.count_gradation(n, lam) for lam in lams]
    for lam, expected in zip(lams, counts):
        got = reference.coefficient(lam)
        if got != expected:
            return CheckResult(
                "oracle-dimensions", "fail",
                "first difference at %r: series %d vs oracle %d"
                % (list(lam), got, expected))
    return CheckResult("oracle-dimensions", "pass",
                       "%d gradings checked" % len(lams))
