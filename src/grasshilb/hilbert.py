"""Four independent routes to the multigraded series of the plane
Grassmannian torus action.

W_n is the generating function whose coefficient at z^lam is the number
of semigroup elements with gradation lam; equivalently the dimension of
the lam-graded piece of the Grassmannian coordinate ring.  The methods:

* series_by_recursion: W_2 = 1/(1 - z1 z2); each step splits the last
  variable's powers across two new leaf variables and divides by one new
  pair factor.  Exact through a total-degree cap.
* numerator_inclusion_exclusion: the numerator over
  prod_{i<j} (1 - z_i z_j), as an alternating sum over subsets of a
  tree's excluded (unordered-intersecting) pair configurations, by
  default the caterpillar's, summed by a DP over the unions of their
  leaf pairs, not subset by subset.
* numerator_symmetric_recursion: a coefficient recursion whose
  coefficient polynomials, sums of products of elementary and complete
  homogeneous symmetric polynomials, reduce to signed elementary
  symmetric polynomials.
  Conjectural: it is validated against the other methods, never assumed.
* the count_gradation oracle from the semigroup module.

cross_validate runs all of them against each other coefficient by
coefficient and reports structured pass/fail/skip results.  It checks
each numerator in numerator form, against the recursion series times
prod_{i<j} (1 - z_i z_j), and expands a numerator into its series only
to name the first difference of a failing check.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress, count, repeat
from math import comb
from operator import add, eq, itemgetter, sub

from . import polyring, semigroup, trees
from .polyring import (CapacityError, IntPolynomial, all_pairs,
                       geometric_expand, iter_exponents,
                       multiply_by_geometric_series, multiply_by_pair_factors)

#: Largest excluded-configuration set inclusion-exclusion will expand:
#: C(n, 4) <= 35, so n <= 7.  The union DP builds F_7 from 8,557 live
#: unions in about 0.05 s; n = 8 (70 configurations) keeps about 662,000
#: live unions, about 5 s and 180 MiB on a shared 2-vCPU machine, so it
#: is refused.
EXC_LIMIT = 35

#: Largest n the symmetric recursion will run: F_n has about 24 times
#: the terms of F_{n-1}, and F_9 has 1,109,314 (about 3 s and 233 MiB on
#: a shared 2-vCPU machine, Python 3.11; the sparse products take most).
SYM_LIMIT = 9

#: Most key slots the recursion may read, m + 1 per key of W_m: its cells of
#: even degree (cross_validate counts every cell).  The slowest run admitted,
#: (30, 6), takes about 3.6-4.4 s and 440 MiB (shared 2-vCPU machine).
RECURSION_LIMIT = 1 << 28

#: Seeded variable permutations the invariance check of cross_validate tries.
_PERMUTATIONS = 5
_PERMUTATION_SEED = 271828


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str   # "pass" | "fail" | "skip"
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
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self):
        return {"n": self.n, "cap": self.cap,
                "checks": [c.to_json_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# recursion on the series


def series_by_recursion(n, max_total_degree):
    """W_n exact through the given total-degree cap, built variable by
    variable from W_2 = 1/(1 - z1 z2): W_{m+1} is W_m with each z_m^i
    replaced by sum_{l=0}^{i} z_m^{i-l} z_{m+1}^l, over (1 - z_m z_{m+1}).

    With c_i the coefficient of r z_m^i in W_m, r free of z_m, the
    coefficient of r z_m^a z_{m+1}^b in W_{m+1} is c_{|a-b|} + c_{|a-b|+2}
    + ... + c_{a+b}: c_i z_m^{i-l} z_{m+1}^l (z_m z_{m+1})^q lands there
    only for q = (a+b-i)/2, l = (i+b-a)/2, and q >= 0, 0 <= l <= i hold
    exactly for those i.  So each i gives one (l, q), and a coefficient
    is one difference of parity prefix sums: no cell is swept.

    Steps run on blocks: block (D, p) of W_m holds the keys of the rests r
    of degree D and, per i = p, p + 2, ... <= cap - D, the column of c_i
    over them; r z_m^a lands in block (D + a, (p + a) & 1) of W_{m+1}, one
    map of prefix sums per b in the band of live c_i.  Past SWEEP_LIMIT
    cells or RECURSION_LIMIT slots in even degrees, CapacityError is raised."""
    cap = max_total_degree
    _check_request("the recursion", n, cap, 2)
    blocks = _blocks(geometric_expand([(1, 2)], 2, cap)._terms, 2, cap)
    for num_vars in range(2, n):
        blocks = _split_step(blocks, num_vars, cap)
    return IntPolynomial._trusted(n, _flatten(blocks, n), cap)


def _check_request(what, n, cap, step):
    """Refuse a non-int n, n < 2, a non-int cap and, up front with
    CapacityError, a request past SWEEP_LIMIT cells or RECURSION_LIMIT key
    slots in cells of the degrees 0, step, 2 step, ... <= cap."""
    if polyring._check_int(n, "num_vars") < 2:
        raise ValueError("need n >= 2")
    polyring._check_int(cap, "max_total_degree")
    polyring._check_sweep(n, cap)  # C(cap + n, n) bounds the output
    upto = [(c + 1) * comb(c + n + 1, n - 1) + comb(c + n + 1, n) - 2 * c - 3
            for c in range(-1, cap + 1)]  # sum_{m=2}^{n} (m+1) C(c+m, m)
    if sum(upto[d + 1] - upto[d]
           for d in range(0, cap + 1, step)) > RECURSION_LIMIT:
        raise CapacityError(
            "%s to %d variables through degree %d reads more than %d key "
            "slots" % (what, n, cap, RECURSION_LIMIT))


def _blocks(terms, m, cap):
    """Packed terms in m variables as the blocks of series_by_recursion."""
    low, z_m = (1 << polyring._WIDTH) - 1, polyring._monomial_key(m, m)
    rows = {}  # (D, p) -> {r: {i: c_i}}
    for k, c in terms.items():
        rest = k - (k & low) * z_m
        rows.setdefault((rest >> polyring._WIDTH * m, k & 1), {}).setdefault(
            rest, {})[k & low] = c
    return {(d, p): (list(r), [[row.get(i, 0) for row in r.values()]
                               for i in range(p, cap - d + 1, 2)])
            for (d, p), r in rows.items()}


def _split_step(blocks, m, cap):
    """The blocks of W_{m+1} from those of W_m, m variables; empties them."""
    z_m = polyring._monomial_key(m, m) << polyring._WIDTH  # in m + 1
    plan, sizes = [], Counter()  # sizes: output block -> number of keys
    while blocks:
        (d, p), (keys, cols) = blocks.popitem()
        live = [i for i, col in zip(count(p, 2), cols) if any(col)]
        bands = []  # (a, first b, last b): some c_i, |a-b| <= i <= a+b, live
        for a in range(cap - d + 1 if live else 0):
            first = max((p + a) & 1, live[0] - a, a - live[-1])
            last = min(cap - d - a, a + live[-1])
            if first <= last:
                bands.append((a, first, last))
                sizes[d + a, (p + a) & 1] += len(keys)
        plan.append((d, p, keys, cols, bands))
    out = {(d, q): ([], [[0] * size for _ in range((cap - d - q) // 2 + 1)])
           for (d, q), size in sizes.items()}
    while plan:
        d, p, keys, cols, bands = plan.pop()
        run = [0] * len(keys)
        prefix = [run] + [run := list(map(add, run, col)) for col in cols]
        shifted = [k << polyring._WIDTH for k in keys]
        for a, first, last in bands:
            out_keys, out_cols = out[d + a, (p + a) & 1]
            start = len(out_keys)
            out_keys.extend(map(add, shifted, repeat(a * z_m)))
            for b in range(first, last + 1, 2):  # b of parity (p + a) & 1
                out_cols[b >> 1][start:len(out_keys)] = map(
                    sub, prefix[a + b - p + 2 >> 1],
                    prefix[abs(a - b) - p >> 1])
    return out


def _flatten(blocks, m):
    """The nonzero packed terms of blocks in m variables; empties them.
    Keys come from a subtraction, as an int sum keeps a spare digit."""
    z_m, out = polyring._monomial_key(m, m), {}
    while blocks:
        (_, p), (keys, cols) = blocks.popitem()
        top = p + 2 * len(cols)  # past the last i; c is c_i for i = top - j
        keys = list(map(add, keys, repeat(top * z_m)))
        for j, c in zip(count(top - p, -2), cols):
            out.update(compress(zip(map(sub, keys, repeat(j * z_m)), c), c))
    return out


# ---------------------------------------------------------------------------
# numerator by inclusion-exclusion


def excluded_configurations(tree):
    """The unordered-intersecting pairs of leaf pairs of a tree, sorted:
    for each relation i<j<k<l of trees.ideal_relations, (i,k),(j,l) when
    it is W1 and (i,l),(j,k) when it is W2."""
    return sorted(((r.i, r.k), (r.j, r.l)) if r.kind == "W1"
                  else ((r.i, r.l), (r.j, r.k))
                  for r in trees.ideal_relations(tree))


def numerator_inclusion_exclusion(n, tree=None):
    """The series numerator over prod (1 - z_i z_j), by
    inclusion-exclusion over the excluded configurations.

    The configurations are the tree's, read off its relations; with no
    tree, the caterpillar's, which are the embracing pairs ((i,j),(i',j'))
    with i < i' < j' < j.  Each subset S contributes (-1)^|S| times the
    product of z_i z_j over the distinct pairs appearing in S, so only the
    union of those pairs matters.  A DP keeps one coefficient per union, a
    mask over the distinct pairs of the configurations: adding a
    configuration to the subsets maps each union u to u | (its two pairs)
    with the sign flipped, and unions whose coefficient cancels to 0 are
    dropped.  The cost is one step per configuration over the live unions,
    233 of them at n = 6 (8,557 at n = 7), not one per subset.  More than
    EXC_LIMIT configurations (n >= 8) raise CapacityError before any tree
    is built; an n whose type is not int raises TypeError.
    """
    if polyring._check_int(n, "n") < 0:
        raise ValueError("n must be non-negative")
    if tree is not None and tree.n_leaves != n:
        raise polyring.DimensionError(
            "tree has %d leaves, expected %d" % (tree.n_leaves, n))
    if comb(n, 4) > EXC_LIMIT:  # one configuration per 4-subset of leaves
        raise CapacityError(
            "%d excluded configurations exceed the limit %d; "
            "use the recursion method" % (comb(n, 4), EXC_LIMIT))
    exc = (excluded_configurations(tree or trees.caterpillar(n)) if n > 3
           else [])  # fewer than four leaves exclude nothing
    # a union is a mask over `pairs`; the benchmark's trace counts the
    # configurations stepped, drawn from range, as hilbert.ie.masks
    pairs = sorted({p for cfg in exc for p in cfg})
    bits = {p: 1 << i for i, p in enumerate(pairs)}
    unions = {0: 1}
    for b in range(len(exc)):
        mask = bits[exc[b][0]] | bits[exc[b][1]]
        for u, c in list(unions.items()):
            unions[u | mask] = unions.get(u | mask, 0) - c
        unions = {u: c for u, c in unions.items() if c}
    keys = [polyring._monomial_key(n, *p) for p in pairs]
    acc = {}
    for u, c in unions.items():
        key = sum(k for i, k in enumerate(keys) if u >> i & 1)
        acc[key] = acc.get(key, 0) + c
    return IntPolynomial._trusted(n, polyring._nonzero(acc))


def series_from_numerator(numerator, max_total_degree):
    """Expand numerator / prod_{i<j} (1 - z_i z_j) through the cap,
    dividing by one pair factor at a time.  A numerator that is itself a
    series must be exact through the cap (PrecisionError otherwise)."""
    series = polyring.truncate(numerator, max_total_degree)
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
    polynomials in the v = m-2 variables z_1..z_v and
    H(s, l) = sum_{r=0}^{l} (-1)^r h_{s-r} sigma_r:

        a(k, l) = sum_{beta=0}^{m-3} z_{m-1}^beta
                  sum_{alpha=0}^{k+l} (-1)^alpha sigma_alpha H(k+beta-alpha, beta)

    Identities of the formula as written, none of them the conjecture
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3 and I.5):

    * H is a hook Schur polynomial.  By Pieri, h_a sigma_b =
      s_(a,1^b) + s_(a+1,1^(b-1)), so the alternating sum telescopes:
      H(s, l) = (-1)^l s_(s-l,1^l) when s > l, and H(s, l) = [s = 0] when
      s <= l, as sum_{r=0}^{s} (-1)^r h_{s-r} sigma_r = [s = 0].
    * Hook coefficients are binomials: [z^nu] s_(a,1^b) = C(p - 1, b) with
      p the number of nonzero entries of nu, which vanishes once b >= v.
    * [z^mu] (sigma_alpha f) sums [z^(mu - 1_S)] f over the alpha-subsets
      S of the support of mu; when S holds j of the entries of mu equal
      to 1, mu - 1_S has p - j nonzero entries.

    So with mu over z_1..z_v, |mu| = k + beta, p nonzero entries and q of
    them equal to 1, and top = min(k+l, v) (sigma_alpha = 0 for
    alpha > v), the coefficient of z_{m-1}^beta z^mu in a(k, l) is
    c = sum_{alpha=0}^{top} (-1)^alpha T_alpha, where
    T_alpha = (-1)^beta sum_j C(q, j) C(p-q, alpha-j) C(p-j-1, beta) when
    k - alpha >= 1 and T_alpha = [alpha = k + beta = p = q] otherwise.
    With last = min(top, p, k-1), swap the sums over alpha <= last and j;
    as sum_{i<=m} (-1)^i C(N, i) = (-1)^m C(N-1, m), the alpha-sum
    sum_{alpha=j}^{last} (-1)^alpha C(p-q, alpha-j) is
    (-1)^last C(p-q-1, last-j) when p > q and (-1)^j when p = q.  Past last
    only alpha = p survives, when p = q = k + beta <= top (p >= k, beta >= 0).
    No binomial top is negative (j <= q < p, or p = q and j <= k-1 < p),
    so c is one sum over j <= min(q, last) of
    (-1)^beta C(q, j) C(p-j-1, beta) s_j, with s_j that alpha-sum.

    Every call has top >= min(k, v) (top = min(t, v), k = t - i, i >= 0),
    so last = min(p, k-1) as p <= v, and c vanishes unless mu is
    squarefree, p = q = d = k + beta:

    * p > q: the terms live on j in [max(0, last-(p-q)+1),
      min(q, last, p-1-beta)], which is empty as 2p - q <= k + beta: its
      start passes q when last = p, and p-1-beta when last = k-1.
    * p = q = d, k >= 1: last = k-1, and sum_{j=0}^{d} (-1)^j C(d, j)
      C(d-1-j, beta) = 0, C(d-1-j, beta) being a polynomial in j of
      degree beta < d; its terms with k <= j < d vanish and the j = d
      term is (-1)^(d+beta), so c = (-1)^d [d <= top] - (-1)^d.
    * p = q = d, k <= 0: the j-sum is empty, c = (-1)^d [d <= top].

    The squarefree monomials of degree d sum to sigma_d, so a(k, l) is
    the sum over max(0, -k) <= beta <= min(v-1, v-k) of
    eps z_{m-1}^beta sigma_{k+beta}(z_1..z_v), d = k + beta, with
    eps = (-1)^d [d <= top] for k <= 0 and -(-1)^d [d > top] for k >= 1.
    No polynomial product builds a(k, l); a call with top < min(k, v) is
    refused.  Powers of z_{m-1} and z_m are key offsets onto disjoint keys.

    Coefficient vectors carry n+1 slots; the three slots past the end are
    checked to vanish so silent truncation cannot go unnoticed.  n past
    SYM_LIMIT is refused up front with CapacityError; an n whose type is
    not int raises TypeError.
    """
    if polyring._check_int(n, "n") < 2:
        raise ValueError("need n >= 2")
    if n > SYM_LIMIT:
        raise CapacityError(
            "the symmetric recursion for n = %d is past the limit n = %d; "
            "use the recursion method" % (n, SYM_LIMIT))
    coeffs = [{0: 1}] + [{}] * n
    for stage in range(3, n + 1):
        coeffs = _symmetric_step(coeffs, stage, n)
    z_n = polyring._monomial_key(n, n)
    poly = {k + t * z_n: c for t, terms in enumerate(coeffs)
            for k, c in terms.items()}
    return IntPolynomial._trusted(n, poly)


def _symmetric_step(coeffs, stage, n):
    """One stage of the recursion on packed term dicts in n variables."""
    add_product = polyring._add_product
    a_terms = _coefficient_polynomials(stage, n)
    v = stage - 2
    size = len(coeffs)
    occupied = [i for i, c in enumerate(coeffs) if c]
    new = []
    for t in range(size + 3):
        out = {}
        for i in occupied:
            add_product(out, coeffs[i], a_terms(t - i, min(t, v)), n, None)
        new.append(polyring._nonzero(out))
    for t in range(size, size + 3):
        if new[t]:
            raise AssertionError(
                "symmetric recursion overflowed %d coefficient slots at "
                "stage %d" % (size, stage))
    return new[:size]


def _coefficient_polynomials(stage, n):
    """a(k, top) of the stage, sum_beta eps z_{m-1}^beta sigma_{k+beta}, as
    a memo of packed term dicts in n variables.  The keys of sigma_d, the
    sums of the d-subsets of z_1..z_v, are listed once per degree.  No
    memo here calls itself: a closure cycle would keep its cache alive
    past the stage, until the next cyclic garbage collection."""
    v = stage - 2          # symmetric polynomials in z_1..z_v
    z_attach = polyring._monomial_key(n, stage - 1)  # carries the beta sum
    var_keys = [polyring._monomial_key(n, i) for i in range(1, v + 1)]
    elementary = {}        # degree d -> keys of sigma_d

    @cache
    def a_terms(k, top):
        if top < min(k, v):
            raise ValueError("a(k, top) is closed only for top >= min(k, v)")
        out = {}
        for beta in range(max(0, -k), min(v - 1, v - k) + 1):
            d = k + beta
            if (d > top) != (k >= 1):  # eps = 0
                continue
            if d not in elementary:
                elementary[d] = [sum(s) for s in combinations(var_keys, d)]
            shift = beta * z_attach
            out.update(zip([key + shift for key in elementary[d]],
                           repeat((-1) ** (d + (k >= 1)))))
        return out

    return a_terms


# ---------------------------------------------------------------------------
# cross-validation


def cross_validate(n, max_total_degree):
    """Check the independent methods against each other through the cap.

    The recursion series R is the reference: the inclusion-exclusion and
    symmetric-recursion numerators are checked against it, the oracle
    counts every grading, one semigroup.count_gradation call each in the
    calling process, and R must not move under _PERMUTATIONS seeded
    variable permutations.  A numerator F is checked in numerator form,
    truncate(F, cap) against R * P with P = prod_{i<j} (1 - z_i z_j),
    computed once, the first time a numerator route returns.  That is
    the series check itself: R agrees with W_n through the cap and P is
    a polynomial with constant term 1, so R * P agrees with F through the
    cap if and only if F / P agrees with R.  A failing check names the
    first differing grading, never raises; a route refused with
    CapacityError is a skip, which does not fail.
    """
    cap = max_total_degree
    _check_request("verify cross", n, cap, 1)  # oracle grades all
    reference = series_by_recursion(n, cap)
    times_pairs = cache(
        lambda: multiply_by_pair_factors(reference, *all_pairs(n)))
    checks = [
        _series_check("recursion-vs-inclusion-exclusion", reference,
                      times_pairs, lambda: numerator_inclusion_exclusion(n)),
        _series_check("recursion-vs-symmetric-recursion-conjectural",
                      reference, times_pairs,
                      lambda: numerator_symmetric_recursion(n)),
        _oracle_check(reference),
    ]

    rng = random.Random(_PERMUTATION_SEED)
    perms = [list(range(1, n + 1)) for _ in range(_PERMUTATIONS)]
    for perm in perms:
        rng.shuffle(perm)
    # a permutation is a bijection on the keys: the series stays put when
    # each permuted key holds the coefficient its key holds (by key bytes,
    # the identity's first)
    terms = reference._terms
    values = list(terms.values())
    rows = polyring._permuted_rows(terms, n, [range(1, n + 1)] + perms)
    coefficient = dict(zip(next(rows), values)).get
    status, detail = "pass", "%d permutations: %s" % (
        len(perms), " ".join(str(tuple(p)) for p in perms))
    for perm, permuted in zip(perms, rows):
        if list(map(coefficient, permuted)) != values:
            status = "fail"
            detail = "series moved under permutation %r" % (perm,)
            break
    checks.append(CheckResult("permutation-invariance", status, detail))

    return CrossReport(n, cap, tuple(checks))


def _series_check(name, reference, times_pairs, build):
    """Check the numerator `build()` against the reference series through
    numerator form, with times_pairs() the reference times the pair
    factors.  On a mismatch the numerator's series names the first
    difference; if that series agrees after all, the pair product and
    the sweep disagree, and the first numerator difference fails."""
    try:
        numerator = build()
    except CapacityError as exc:
        return CheckResult(name, "skip", "capacity: %s" % exc)
    cap = reference.max_total_degree
    got, expected = polyring.truncate(numerator, cap), times_pairs()
    if got == expected:
        return CheckResult(name, "pass",
                           "%d coefficients agree" % len(reference._terms))
    other = series_from_numerator(numerator, cap)
    if other != reference:
        got, expected = other, reference
        what = "first difference at %r: %d vs %d"
    else:
        what = "series agree, numerators differ at %r: %d vs %d"
    e = polyring._canonical_terms(expected - got)[0][0]
    return CheckResult(name, "fail", what % (
        list(e), expected.coefficient(e), got.coefficient(e)))


def _oracle_check(reference):
    n = reference.num_vars
    cap = reference.max_total_degree
    lams = list(iter_exponents(n, cap))
    counts = list(map(semigroup.count_gradation, repeat(n), lams))
    # the gradings and the reference's canonical keys share one order, so
    # when the nonzero counts are the reference's terms one lazy pass over
    # both shows it; otherwise each grading is looked up, within the cap,
    # to name the first difference
    terms, keys = reference._terms, polyring._canonical_keys(reference)
    if len(keys) != len(counts) - counts.count(0) or not all(map(
            eq, filter(itemgetter(1), zip(lams, counts)),
            zip(polyring._exponents(keys, n), map(terms.__getitem__, keys)))):
        for lam, expected in zip(lams, counts):
            if (got := reference.coefficient(lam)) != expected:
                return CheckResult(
                    "oracle-dimensions", "fail",
                    "first difference at %r: series %d vs oracle %d"
                    % (list(lam), got, expected))
    return CheckResult("oracle-dimensions", "pass",
                       "%d gradings checked" % len(lams))
