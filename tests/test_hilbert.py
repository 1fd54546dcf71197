"""Series and numerator computations, four-way cross-validation."""

import random
from enum import IntEnum
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from grasshilb.fixtures import GOLDEN_RANGE, golden_numerator
from grasshilb.hilbert import (
    EXC_LIMIT,
    SYM_LIMIT,
    CapacityError,
    _blocks,
    _coefficient_polynomials,
    _flatten,
    _oracle_check,
    _split_step,
    cross_validate,
    excluded_configurations,
    numerator_inclusion_exclusion,
    numerator_symmetric_recursion,
    series_by_recursion,
    series_from_numerator,
)
from grasshilb.polyring import (
    IntPolynomial,
    PrecisionError,
    TruncatedSeries,
    all_pairs,
    format_terms,
    geometric_expand,
    iter_exponents,
    multiply_by_geometric_series,
    multiply_by_pair_factors,
    permute_variables,
    truncate,
)
from grasshilb import polyring, semigroup
from grasshilb.semigroup import count_gradation, enumerate_gradation_elements
from grasshilb.trees import (Tree, caterpillar, classify_intersection,
                             parse_tree)

from helpers import (embracing_configurations, random_tree,
                     reference_coefficient_polynomial,
                     reference_hook_coefficient, reference_hook_sum,
                     reference_inclusion_exclusion, reference_next_series,
                     reference_series)


def test_series_base_case():
    s = series_by_recursion(2, 6)
    assert format_terms(s) == "1 + z1*z2 + z1^2*z2^2 + z1^3*z2^3"
    with pytest.raises(ValueError):
        series_by_recursion(1, 4)
    for cap in (True, False):
        with pytest.raises(TypeError, match="max_total_degree"):
            series_by_recursion(2, cap)


def test_series_three_variables_is_geometric():
    assert series_by_recursion(3, 6) == geometric_expand(all_pairs(3), 3, 6)


def test_series_known_coefficients():
    s = series_by_recursion(4, 6)
    assert s.coefficient((1, 1, 1, 1)) == 2
    assert s.coefficient((0, 0, 0, 0)) == 1
    assert s.coefficient((1, 0, 0, 0)) == 0
    assert s.coefficient((1, 1, 0, 0)) == 1
    assert s.coefficient((2, 1, 1, 0)) == 1


def _split_then_divide(series, m):
    """W_{m+1} from W_m by definition, on exponent tuples: z_m^i becomes
    sum_l z_m^(i-l) z_{m+1}^l, then the pair sweep divides by
    1 - z_m z_{m+1}."""
    split = {}
    for e, c in series.terms.items():
        for l in range(e[-1] + 1):
            key = e[:-1] + (e[-1] - l, l)
            split[key] = split.get(key, 0) + c
    cap = series.max_total_degree
    return multiply_by_geometric_series(
        TruncatedSeries(m + 1, cap, split), (m, m + 1))


def _next_series(terms, m, cap):
    """One variable-split step of series_by_recursion on packed terms."""
    return _flatten(_split_step(_blocks(terms, m, cap), m, cap), m + 1)


def test_next_series_matches_its_definition():
    rng = random.Random(31)
    for m in range(2, 7):
        for cap in range(11):
            for _ in range(3):
                terms = {}
                for _ in range(rng.randint(0, 12)):
                    rest = [0] * (m - 1)
                    for _ in range(rng.randint(0, cap)):
                        rest[rng.randrange(m - 1)] += 1
                    i = rng.randint(0, cap - sum(rest))
                    terms[(*rest, i)] = rng.choice([-3, -2, -1, 1, 2, 3])
                series = TruncatedSeries(m, cap, terms)
                got = _next_series(series._terms, m, cap)
                assert got == _split_then_divide(series, m)._terms, (m, cap)
                assert all(got.values())
    # c_0 = 1, c_2 = -1 at r = z1: the coefficient at z1 z2 z3 is
    # c_0 + c_2 = 0 and is not stored, while z1 z3^2 keeps c_2 = -1
    series = TruncatedSeries(2, 4, {(1, 0): 1, (1, 2): -1})
    got = IntPolynomial._trusted(3, _next_series(series._terms, 2, 4), 4)
    assert got == _split_then_divide(series, 2)
    assert (1, 1, 1) not in got.terms
    assert got.coefficient((1, 0, 2)) == -1


def test_series_by_recursion_matches_the_reference_chain():
    # the reference chain through the largest cap within SWEEP_LIMIT is
    # exact there, so its truncations are W_n through every smaller cap
    reference = geometric_expand([(1, 2)], 2, 12)
    for n in range(2, 13):
        top = max(cap for cap in range(13)
                  if comb(cap + n, n) <= polyring.SWEEP_LIMIT)
        if n > 2:
            terms = truncate(reference, top)._terms
            reference = IntPolynomial._trusted(
                n, reference_next_series(terms, n - 1, top), top)
        expected = reference
        for cap in range(top, -1, -1):
            expected = truncate(expected, cap)
            got = series_by_recursion(n, cap)
            assert got == expected, (n, cap)
            assert all(got._terms.values())
    for n, cap in [(3, 60), (4, 30)]:
        assert series_by_recursion(n, cap) == reference_series(n, cap)


def test_embracing_configurations():
    assert embracing_configurations(4) == [((1, 4), (2, 3))]
    for n in range(4, 9):
        configs = embracing_configurations(n)
        assert len(configs) == len(list(combinations(range(n), 4)))
        for (i, j), (ii, jj) in configs:
            assert i < ii < jj < j


def test_excluded_configurations_matches_embracing_on_caterpillar():
    for n in range(4, 8):
        t = caterpillar(n)
        assert sorted(excluded_configurations(t)) == \
            sorted(embracing_configurations(n))


def test_excluded_configurations_general_tree_count():
    t = parse_tree("(((*,*),*),((*,*),*))")
    assert t.n_leaves == 6
    assert len(excluded_configurations(t)) == 15


def test_excluded_configurations_are_the_unordered_pairs_of_pairs():
    rng = random.Random(209)
    for _ in range(40):
        t = random_tree(rng.randint(2, 9), rng)
        want = [(a, b) for a, b in combinations(all_pairs(t.n_leaves), 2)
                if classify_intersection(t, a, b).kind == "unordered"]
        assert excluded_configurations(t) == want
        assert len(want) == comb(t.n_leaves, 4)


def test_relabelled_raw_trees_are_refused_or_answer_right():
    # a numbering the peel cannot reduce is refused when the tree is
    # built; any other gives F_n and the oracle's count of elements
    rng = random.Random(212)
    refused = 0
    for _ in range(120):
        n = rng.randint(5, 8)
        t = random_tree(n, rng)
        leaves = list(t.leaf_vertices)
        rng.shuffle(leaves)
        try:
            raw = Tree(n, t.edges, leaves)
        except ValueError as exc:
            assert "not adjacent" in str(exc)
            refused += 1
            continue
        if comb(n, 4) <= EXC_LIMIT:
            assert numerator_inclusion_exclusion(n, raw) == \
                numerator_inclusion_exclusion(n)
        lam = (2,) * n
        assert len(enumerate_gradation_elements(raw, lam)) == \
            count_gradation(n, lam)
    assert 20 < refused < 110
    # cherries {1, 3} and {2, 4}: read as planar, it gave the relation
    # (1,2,3,4) W1 and the configuration ((1,4),(2,3))
    with pytest.raises(ValueError, match=r"cherry leaves \(1, 3\) are not "
                                         "adjacent among the remaining leaves"):
        Tree(4, [("u", "v"), ("u", "a"), ("v", "b"), ("u", "c"), ("v", "d")],
             ["a", "b", "c", "d"])


def test_numerator_ie_golden():
    for n in GOLDEN_RANGE:
        result = numerator_inclusion_exclusion(n)
        assert result == golden_numerator(n)
    with pytest.raises(KeyError, match="no reference numerator for n=6"):
        golden_numerator(6)
    assert format_terms(numerator_inclusion_exclusion(4)) == \
        "1 - z1*z2*z3*z4"
    # fewer than four leaves exclude nothing, with or without a tree
    for n in range(4):
        assert numerator_inclusion_exclusion(n) == \
            IntPolynomial(n, {(0,) * n: 1})
    for n in (2, 3):
        assert numerator_inclusion_exclusion(n, caterpillar(n)) == \
            IntPolynomial(n, {(0,) * n: 1})


def test_numerator_ie_matches_the_subset_walk():
    for n in range(7):
        assert numerator_inclusion_exclusion(n) == \
            reference_inclusion_exclusion(n, embracing_configurations(n))
    rng = random.Random(419)
    for _ in range(60):
        t = random_tree(rng.randint(4, 6), rng)
        assert numerator_inclusion_exclusion(t.n_leaves, tree=t) == \
            reference_inclusion_exclusion(t.n_leaves,
                                          excluded_configurations(t))


def test_numerator_ie_general_tree_equals_caterpillar():
    t = parse_tree("(((*,*),*),((*,*),*))")
    via_tree = numerator_inclusion_exclusion(6, tree=t)
    via_caterpillar = numerator_inclusion_exclusion(6)
    assert via_tree == via_caterpillar

    rng = random.Random(401)
    for _ in range(5):
        t = random_tree(5, rng)
        assert numerator_inclusion_exclusion(5, tree=t) == \
            golden_numerator(5)


class _Four(IntEnum):
    """An int subclass: the int rule refuses it like a bool."""
    N = 4


def test_numerator_ie_refuses_a_non_int_n():
    # True would pass `n < 0` and the capacity guard as 1; 2.0 would
    # reach math.comb
    for n in (True, 2.0, _Four.N):
        with pytest.raises(TypeError, match=r"^n %r is not an int$" % n):
            numerator_inclusion_exclusion(n)
    with pytest.raises(ValueError):
        numerator_inclusion_exclusion(-1)


def test_numerator_sym_refuses_a_non_int_n():
    # 2.0 would fail deep in the recursion, True would read as 1
    for n in (True, 2.0, 3.0, _Four.N):
        with pytest.raises(TypeError, match=r"^n %r is not an int$" % n):
            numerator_symmetric_recursion(n)
    with pytest.raises(ValueError, match="need n >= 2"):
        numerator_symmetric_recursion(1)


def test_series_by_recursion_checks_the_type_of_n_first():
    for n in (True, False, 2.0):
        with pytest.raises(TypeError,
                           match=r"^num_vars %r is not an int$" % n):
            series_by_recursion(n, 4)
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="need n >= 2"):
            series_by_recursion(n, 4)


def test_cross_validate_checks_the_type_of_n_first():
    for n in (True, 2.0):
        with pytest.raises(TypeError,
                           match=r"^num_vars %r is not an int$" % n):
            cross_validate(n, 2)
    with pytest.raises(ValueError, match="need n >= 2"):
        cross_validate(1, 2)


def test_series_by_recursion_refuses_a_non_int_cap():
    for cap in (None, 2.0, True):
        with pytest.raises(TypeError,
                           match=r"^max_total_degree %r is not an int$" % cap):
            series_by_recursion(3, cap)


def test_cross_validate_refuses_a_non_int_cap():
    for cap in (None, 2.0, True):
        with pytest.raises(TypeError,
                           match=r"^max_total_degree %r is not an int$" % cap):
            cross_validate(3, cap)


def test_numerator_capacity_error():
    assert len(embracing_configurations(8)) == 70 > EXC_LIMIT
    with pytest.raises(CapacityError):
        numerator_inclusion_exclusion(8)
    with pytest.raises(CapacityError):
        numerator_symmetric_recursion(SYM_LIMIT + 1)
    report = cross_validate(SYM_LIMIT + 1, 2)
    skipped = [c for c in report.checks if c.status == "skip"]
    assert [c.name for c in skipped] == [
        "recursion-vs-inclusion-exclusion",
        "recursion-vs-symmetric-recursion-conjectural"]
    assert all(c.detail.startswith("capacity: ") for c in skipped)
    assert report.passed


def test_oversized_sweeps_refused_up_front():
    from grasshilb import polyring

    assert CapacityError is polyring.CapacityError
    with pytest.raises(CapacityError):
        series_by_recursion(8, 72)  # C(80, 8) cells
    with pytest.raises(CapacityError):
        geometric_expand(all_pairs(8), 8, 72)
    with pytest.raises(CapacityError):
        series_from_numerator(golden_numerator(5), 400)  # C(405, 5) cells
    # the largest sweep the package runs, verify delpezzo, stays allowed
    assert polyring.SWEEP_LIMIT > 118_755


def test_recursion_slot_guard_keeps_the_runs_it_should(monkeypatch):
    # the guard alone: each step is stubbed, so nothing large is built;
    # test_cli holds the refusals that used to run for minutes
    from grasshilb import hilbert

    monkeypatch.setattr(hilbert, "_split_step", lambda blocks, m, cap: blocks)
    for n, cap in [(12, 10), (10, 14), (40, 4), (214, 2), (214, 3),
                   (1000, 1), (20000, 1)]:
        series_by_recursion(n, cap)
    with pytest.raises(CapacityError, match="key slots"):
        series_by_recursion(215, 2)
    # the recursion counts the even-degree cells, where W_m has its terms;
    # verify cross counts every cell, as its oracle grades each one, and
    # checks before any route runs.  A limit of the step-by-step sum lets
    # the request through, one less refuses it
    class Passed(Exception):
        pass

    def passed(n, cap):
        raise Passed

    monkeypatch.setattr(hilbert, "series_by_recursion", passed)
    for n in range(2, 40):
        for cap in range(30):
            if comb(cap + n, n) > polyring.SWEEP_LIMIT:
                continue
            slots = [sum((m + 1) * comb(d + m - 1, m - 1)
                         for m in range(2, n + 1)) for d in range(cap + 1)]
            even, every = sum(slots[::2]), sum(slots)
            monkeypatch.setattr(hilbert, "RECURSION_LIMIT", even)
            series_by_recursion(n, cap)
            monkeypatch.setattr(hilbert, "RECURSION_LIMIT", even - 1)
            with pytest.raises(CapacityError, match="key slots"):
                series_by_recursion(n, cap)
            monkeypatch.setattr(hilbert, "RECURSION_LIMIT", every)
            with pytest.raises(Passed):
                cross_validate(n, cap)
            monkeypatch.setattr(hilbert, "RECURSION_LIMIT", every - 1)
            with pytest.raises(CapacityError, match="key slots"):
                cross_validate(n, cap)


def test_numerator_sym_matches_ie():
    for n in range(2, 8):
        sym = numerator_symmetric_recursion(n)
        assert sym == numerator_inclusion_exclusion(n)


def test_numerator_constant_term():
    for n in range(2, 7):
        poly = numerator_symmetric_recursion(n)
        assert poly.coefficient((0,) * n) == 1


@pytest.mark.parametrize("build, n", [
    *[(numerator_symmetric_recursion, n) for n in range(4, 9)],
    *[(numerator_inclusion_exclusion, n) for n in range(4, 7)],
])
def test_numerator_is_gorenstein_symmetric(build, n):
    # every coefficient: c at z^e and (-1)^C(n-2,2) c at z^((n-3,...)-e),
    # and n - 3 bounds every exponent and is reached
    terms = build(n).terms
    sign = (-1) ** comb(n - 2, 2)
    for e, c in terms.items():
        assert terms.get(tuple(n - 3 - x for x in e)) == sign * c
    assert max(max(e) for e in terms) == n - 3


def test_hook_sums_are_signed_hook_binomials():
    # H(s, l) = (-1)^l s_(s-l, 1^l) for s > l, [s = 0] for s <= l, and
    # [z^nu] s_(a, 1^b) = C(p - 1, b) with p the nonzero entries of nu
    for v in range(1, 6):
        for l in range(v):
            for s in range(11):
                hook = reference_hook_sum(v, s, l)
                for e in iter_exponents(v, s):
                    if sum(e) < s:
                        continue
                    p = sum(1 for x in e if x)
                    expected = ((-1) ** l * comb(p - 1, l) if s > l
                                else int(s == 0))
                    assert hook.coefficient(e) == expected, (v, s, l, e)


def test_coefficient_polynomials_match_their_definition():
    # every stage of F_7, every k down to -2 and up through the slots the
    # stage asks for (t <= n + 3), and every top = min(k + l, v) with
    # top >= min(k, v), the domain of the closed form; below it, a raise
    n = 7
    for stage in range(3, n + 1):
        v = stage - 2
        a_terms = _coefficient_polynomials(stage, n)
        for k in range(-2, n + 4):
            for top in range(v + 1):
                if top < min(k, v):
                    with pytest.raises(ValueError, match="closed only"):
                        a_terms(k, top)
                    continue
                closed = IntPolynomial._trusted(n, a_terms(k, top))
                assert closed == reference_coefficient_polynomial(
                    stage, n, k, top - k), (stage, k, top)


def test_hook_coefficient_is_a_signed_squarefree_indicator():
    # the double sum c is 0 for every p > q and eps at p = q = k + beta,
    # eps = (-1)^d [d <= top] for k <= 0 and -(-1)^d [d > top] for k >= 1,
    # on every top >= min(k, v) over a box that holds every argument the
    # recursion passes through F_9 (v <= 7): mu of degree d = k + beta in
    # v variables with p nonzero entries, q of them 1, so p = q = d or
    # q < p and 2p - q <= d
    points = 0
    for v in range(1, 8):
        for k in range(-9, 13):
            for beta in range(max(0, -k), v):
                d = k + beta
                pqs = [(p, q) for p in range(min(d, v) + 1)
                       for q in range(p + 1)
                       if p == q == d or q < p and 2 * p - q <= d]
                for top in range(max(0, min(k, v)), v + 1):
                    eps = ((-1) ** d * (d <= top) if k <= 0
                           else -(-1) ** d * (d > top))
                    for p, q in pqs:
                        want = eps if p == q == d else 0
                        got = reference_hook_coefficient(k, beta, top, p, q)
                        assert got == want, (v, k, beta, top, p, q)
                        points += 1
    assert points == 7605


def test_f8_restricts_to_f7():
    # F_8(z_1, ..., z_7, 0) = F_7: the keys whose z_8 slot is 0, shifted
    # down one slot, are keys in 7 variables
    f8 = numerator_symmetric_recursion(8)
    restricted = {k >> 16: c for k, c in f8._terms.items() if not k & 0xFFFF}
    assert restricted == numerator_symmetric_recursion(7)._terms


def test_series_total_degree_marginal():
    # summed over the gradings of total degree 2d, W_n gives the Hilbert
    # function of G(2, n) in its Pluecker embedding,
    # C(n+d-1, d) C(n+d-2, d)/(d+1), and every odd total degree gives 0
    for n, cap in [*((n, 10) for n in range(2, 8)), (8, 8)]:
        by_degree = [0] * (cap + 1)
        for e, c in series_by_recursion(n, cap).terms.items():
            by_degree[sum(e)] += c
        want = [0 if t % 2 else
                comb(n + t // 2 - 1, t // 2) * comb(n + t // 2 - 2, t // 2)
                // (t // 2 + 1) for t in range(cap + 1)]
        assert by_degree == want, n


def test_numerator_on_the_diagonal_is_narayana():
    # F_n(t, ..., t) = Nar_{n-2}(t^2) (1 - t^2)^(C(n,2) - 2n + 3): the cone
    # over G(2, n) has dimension 2n - 3 and the Narayana numbers
    # N(m, k) = C(m, k) C(m, k-1)/m as its h-vector, Nar_0 = 1
    points = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2))
    for n in range(2, 9):
        f = (numerator_inclusion_exclusion(n) if n <= 7
             else numerator_symmetric_recursion(n))
        by_degree = {}
        for e, c in f.terms.items():
            by_degree[sum(e)] = by_degree.get(sum(e), 0) + c
        m = n - 2
        for t in points:
            x = t * t
            nar = sum(comb(m, k) * comb(m, k - 1) // m * x ** (k - 1)
                      for k in range(1, m + 1)) if m else 1
            assert sum(c * t ** d for d, c in by_degree.items()) == \
                nar * (1 - x) ** (comb(n, 2) - 2 * n + 3), (n, t)


def test_series_from_numerator_matches_recursion():
    for n in range(2, 7):
        numerator = numerator_inclusion_exclusion(n)
        for cap in (0, 1, 2, 7, 10):
            direct = series_by_recursion(n, cap)
            assert direct == series_from_numerator(numerator, cap), (n, cap)
    via_sym = series_from_numerator(numerator_symmetric_recursion(4), 8)
    assert via_sym == series_by_recursion(4, 8)
    # n = 7 at cap 10 by both numerators: verify cross sweeps a
    # numerator only when its check fails
    direct = series_by_recursion(7, 10)
    for numerator in (numerator_inclusion_exclusion(7),
                      numerator_symmetric_recursion(7)):
        assert series_from_numerator(numerator, 10) == direct


def test_reference_times_pair_factors_is_the_numerator():
    for n in range(2, 8):
        numerator = numerator_inclusion_exclusion(n)
        for cap in (0, 1, 2, 7, 10):
            product = multiply_by_pair_factors(series_by_recursion(n, cap),
                                               *all_pairs(n))
            assert product == truncate(numerator, cap), (n, cap)


def test_series_from_numerator_accepts_bare_polynomial():
    poly = numerator_inclusion_exclusion(4)
    assert series_from_numerator(poly, 6) == series_by_recursion(4, 6)


def test_series_from_numerator_refuses_a_shorter_series():
    capped = truncate(numerator_inclusion_exclusion(4), 3)
    assert series_from_numerator(capped, 3) == series_by_recursion(4, 3)
    with pytest.raises(PrecisionError):
        series_from_numerator(capped, 6)


def test_series_coefficients_match_oracle():
    s = series_by_recursion(5, 6)
    rng = random.Random(402)
    for _ in range(30):
        lam = [rng.randint(0, 3) for _ in range(5)]
        if sum(lam) > 6:
            continue
        assert s.coefficient(tuple(lam)) == count_gradation(5, lam)


def test_numerator_symmetry_small():
    poly = numerator_inclusion_exclusion(4)
    for perm in permutations(range(1, 5)):
        assert permute_variables(poly, perm) == poly


def test_series_symmetry():
    s = series_by_recursion(4, 8)
    rng = random.Random(403)
    for _ in range(5):
        perm = list(range(1, 5))
        rng.shuffle(perm)
        assert permute_variables(s, tuple(perm)) == s


def test_cross_validate_passes():
    report = cross_validate(4, 8)
    assert report.passed
    assert report.n == 4
    assert report.cap == 8
    names = [c.name for c in report.checks]
    assert "recursion-vs-inclusion-exclusion" in names
    assert "oracle-dimensions" in names
    assert "permutation-invariance" in names
    for check in report.checks:
        assert check.status == "pass"


def test_cross_validate_json_schema():
    report = cross_validate(4, 6)
    data = report.to_json_dict()
    assert set(data) == {"n", "cap", "checks"}
    for check in data["checks"]:
        assert set(check) == {"name", "status", "detail"}


def test_reference_does_not_share_the_pair_sweep(monkeypatch):
    # the numerator checks compare against the reference times the pair
    # factors: a wrong product fails both, and the reference itself,
    # built without that kernel, still passes the oracle
    import grasshilb.hilbert as hilbert_module

    real = hilbert_module.multiply_by_pair_factors

    def corrupted(series, *pairs):  # adds 1 at z1 z2
        bump = (1, 1) + (0,) * (series.num_vars - 2)
        return real(series, *pairs) + TruncatedSeries(
            series.num_vars, series.max_total_degree, {bump: 1})

    monkeypatch.setattr(hilbert_module, "multiply_by_pair_factors",
                        corrupted)
    status = {c.name: c.status for c in cross_validate(4, 6).checks}
    assert status == {"recursion-vs-inclusion-exclusion": "fail",
                      "recursion-vs-symmetric-recursion-conjectural": "fail",
                      "oracle-dimensions": "pass",
                      "permutation-invariance": "pass"}


def test_numerator_check_fails_when_the_kernels_disagree(monkeypatch):
    # a product kernel that multiplies by nothing, beside a sound sweep:
    # the numerator's series equals the reference, yet the check fails
    import grasshilb.hilbert as hilbert_module

    monkeypatch.setattr(hilbert_module, "multiply_by_pair_factors",
                        lambda series, *pairs: series)
    checks = {c.name: c for c in cross_validate(4, 6).checks}
    detail = "series agree, numerators differ at [1, 1, 0, 0]: 1 vs 0"
    for name in ("recursion-vs-inclusion-exclusion",
                 "recursion-vs-symmetric-recursion-conjectural"):
        assert (checks[name].status, checks[name].detail) == ("fail", detail)
    assert checks["oracle-dimensions"].status == "pass"


@pytest.mark.parametrize("grading, detail", [
    ((1, 0, 0, 0), "first difference at [1, 0, 0, 0]: series 0 vs oracle 1"),
    ((1, 1, 0, 0), "first difference at [1, 1, 0, 0]: series 1 vs oracle 2"),
])
def test_oracle_check_names_the_first_difference(monkeypatch, grading,
                                                 detail):
    real = semigroup.count_gradation

    def off_by_one(n, lam):
        return real(n, lam) + (tuple(lam) == grading)

    monkeypatch.setattr(semigroup, "count_gradation", off_by_one)
    check = _oracle_check(series_by_recursion(4, 6))
    assert (check.status, check.detail) == ("fail", detail)


@pytest.mark.parametrize("exps, coeff, detail", [
    ((1, 1, 0, 0), None,
     "first difference at [1, 1, 0, 0]: series 0 vs oracle 1"),
    ((0, 0, 3, 3), None,  # the last term in canonical order
     "first difference at [0, 0, 3, 3]: series 0 vs oracle 1"),
    ((1, 0, 0, 0), 1,
     "first difference at [1, 0, 0, 0]: series 1 vs oracle 0"),
    ((3, 0, 0, 1), 0, None),
])
def test_oracle_check_compares_every_term(exps, coeff, detail):
    # the reference side corrupted: a deleted term and a term at an odd
    # total fail with the first difference, a stored zero passes
    terms = dict(series_by_recursion(4, 6)._terms)
    if coeff is None:
        del terms[polyring._pack(exps)]
    else:
        terms[polyring._pack(exps)] = coeff
    check = _oracle_check(IntPolynomial._trusted(4, terms, 6))
    if detail is None:
        assert (check.status, check.detail) == ("pass",
                                                "210 gradings checked")
    else:
        assert (check.status, check.detail) == ("fail", detail)


def test_permutation_check_names_the_permutation_that_moves(monkeypatch):
    import grasshilb.hilbert as hilbert_module

    real = hilbert_module.series_by_recursion

    def lopsided(n, cap):
        # R + z_i^2 z_j over all i != j, z1^2 z2 twice: the keys are
        # symmetric, the coefficients are not
        bumps = {}
        for i, j in permutations(range(n), 2):
            bumps[tuple(2 if k == i else int(k == j) for k in range(n))] = 1
        bumps[(2, 1) + (0,) * (n - 2)] = 2
        return real(n, cap) + TruncatedSeries(n, cap, bumps)

    monkeypatch.setattr(hilbert_module, "series_by_recursion", lopsided)
    check = cross_validate(4, 6).checks[-1]
    rng = random.Random(hilbert_module._PERMUTATION_SEED)
    first = list(range(1, 5))
    rng.shuffle(first)
    assert first[:2] != [1, 2]  # so it moves z1^2 z2 onto another bump
    assert (check.name, check.status, check.detail) == (
        "permutation-invariance", "fail",
        "series moved under permutation %r" % (first,))


def test_cross_validate_detects_corruption(monkeypatch):
    import grasshilb.hilbert as hilbert_module

    real = hilbert_module.numerator_inclusion_exclusion
    for extra, detail in [(1, "first difference at [0, 0, 0, 0]: 1 vs 2"),
                          (IntPolynomial.monomial(4, (1, 1, 1, 1)),
                           "first difference at [1, 1, 1, 1]: 2 vs 3")]:
        def corrupted(n, tree=None):
            return real(n, tree) + extra

        monkeypatch.setattr(hilbert_module, "numerator_inclusion_exclusion",
                            corrupted)
        report = cross_validate(4, 6)
        assert not report.passed
        failing = [c for c in report.checks if c.status == "fail"]
        assert [(c.name, c.detail) for c in failing] == [
            ("recursion-vs-inclusion-exclusion", detail)]
