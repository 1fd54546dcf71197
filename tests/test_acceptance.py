"""Acceptance harness: one test per stated criterion.

Each test ends by printing `ACCEPTANCE <k> <label>: PASS`; run pytest
with -s to see the checklist, or rely on the verbose test names.  All
comparisons are exact; the runtime guards use the stated budgets.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations

from grasshilb.cli import main
from grasshilb.delpezzo import (
    GRADING_CAP,
    MONOMIAL_ORDER,
    base_change,
    euler_characteristic,
    fit_quadratic_form,
    verify_against_series,
)
from grasshilb.fixtures import GOLDEN_RANGE, golden_numerator
from grasshilb.hilbert import (
    cross_validate,
    numerator_inclusion_exclusion,
    numerator_symmetric_recursion,
    series_by_recursion,
    series_from_numerator,
)
from grasshilb.polyring import format_terms, permute_variables
from grasshilb.semigroup import count_gradation, decompose
from grasshilb.trees import caterpillar, classify_intersection, ideal_relations

from helpers import all_multisets, random_multiset, random_tree

HALF = Fraction(1, 2)

# Riemann-Roch expansion of chi in (1, a01, a02, a03, a04, a12), frozen
# by hand from the intersection numbers of the 4-point blow-up
RR_EXPANSION = {
    (0, 0): Fraction(1),
    (0, 1): HALF, (0, 2): HALF, (0, 3): HALF, (0, 4): HALF, (0, 5): HALF,
    (1, 1): -HALF, (2, 2): -HALF, (3, 3): -HALF, (4, 4): -HALF, (5, 5): -HALF,
    (1, 5): Fraction(1), (2, 5): Fraction(1),
}


def cli_output(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_acceptance_1_golden_numerators(capsys):
    start = time.perf_counter()
    for n in GOLDEN_RANGE:
        code, out = cli_output(capsys, "numerator", "--n", str(n),
                               "--method", "ie")
        assert code == 0
        assert out == format_terms(golden_numerator(n)) + "\n"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print("ACCEPTANCE 1 golden numerators n=2..5 (%.2fs): PASS" % elapsed)


def test_acceptance_2_symmetric_recursion_conjecture(capsys):
    start = time.perf_counter()
    for n in (3, 4, 5):
        code, out_sym = cli_output(capsys, "numerator", "--n", str(n),
                                   "--method", "sym")
        assert code == 0
        _, out_ie = cli_output(capsys, "numerator", "--n", str(n),
                               "--method", "ie")
        assert out_sym == out_ie
    sym6 = numerator_symmetric_recursion(6)
    assert series_from_numerator(sym6, 12) == series_by_recursion(6, 12)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print("ACCEPTANCE 2 symmetric recursion n=3..6 (%.2fs): PASS" % elapsed)


def test_acceptance_3_four_way_cross_validation():
    start = time.perf_counter()
    for n, cap in ((4, 12), (5, 12), (6, 10)):
        report = cross_validate(n, cap)
        assert report.passed, report.to_json_dict()
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print("ACCEPTANCE 3 four-way cross-validation (%.2fs): PASS" % elapsed)


def test_acceptance_4_oracle_pin():
    assert count_gradation(4, [1, 1, 1, 1]) == 2
    via_recursion = series_by_recursion(4, 4)
    assert via_recursion.coefficient((1, 1, 1, 1)) == 2
    via_numerator = series_from_numerator(numerator_inclusion_exclusion(4), 4)
    assert via_numerator.coefficient((1, 1, 1, 1)) == 2
    print("ACCEPTANCE 4 oracle pin dim[1,1,1,1]=2: PASS")


def test_acceptance_5_symmetry():
    w5 = series_by_recursion(5, 12)
    rng = random.Random(20260823)
    for _ in range(10):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        assert permute_variables(w5, tuple(perm)) == w5
    f5 = numerator_inclusion_exclusion(5)
    for perm in permutations(range(1, 6)):
        assert permute_variables(f5, perm) == f5
    print("ACCEPTANCE 5 symmetry of W_5 and F_5: PASS")


def test_acceptance_6_del_pezzo_sweep(capsys):
    start = time.perf_counter()
    code, out = cli_output(capsys, "verify", "delpezzo")
    assert code == 0
    assert "family: 220/220 pass" in out
    w5 = series_by_recursion(5, GRADING_CAP)
    report = verify_against_series(w5)
    assert report.passed
    assert len(report.entries) == 220
    # both sides of the -2K pin, computed independently
    assert w5.coefficient((4, 4, 4, 4, 4)) == 16
    assert euler_characteristic(base_change((1,) * 10)) == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print("ACCEPTANCE 6 del Pezzo sweep 220/220 (%.2fs): PASS" % elapsed)


def test_acceptance_7_quadratic_form_identity():
    fitted = fit_quadratic_form(series_by_recursion(5, GRADING_CAP))
    named = dict(zip(MONOMIAL_ORDER, fitted))
    for key in MONOMIAL_ORDER:
        assert named[key] == RR_EXPANSION.get(key, Fraction(0)), key
    assert named[(0, 0)] == 1
    assert named[(1, 1)] == -HALF
    print("ACCEPTANCE 7 quadratic form = Riemann-Roch (21 coefficients): PASS")


def check_quadruple(tree, i, j, k, l):
    middle = classify_intersection(tree, (i, k), (j, l))
    first = classify_intersection(tree, (i, j), (k, l))
    last = classify_intersection(tree, (i, l), (j, k))
    assert middle.kind != "disjoint"
    assert (first.kind == "disjoint") != (last.kind == "disjoint")
    middle_sum = tree.distance(i, k) + tree.distance(j, l)
    first_sum = tree.distance(i, j) + tree.distance(k, l)
    last_sum = tree.distance(i, l) + tree.distance(j, k)
    if first.kind == "disjoint":
        assert last_sum == middle_sum
        assert first_sum < middle_sum
    else:
        assert first_sum == middle_sum
        assert last_sum < middle_sum


def test_acceptance_8_tree_lemma_exhaustion():
    for n in range(4, 9):
        tree = caterpillar(n)
        for quad in combinations(range(1, n + 1), 4):
            check_quadruple(tree, *quad)
        for rel in ideal_relations(tree):
            assert rel.t_exponent > 0
    rng = random.Random(808)
    for _ in range(100):
        tree = random_tree(rng.randint(4, 10), rng)
        for quad in combinations(range(1, tree.n_leaves + 1), 4):
            check_quadruple(tree, *quad)
        for rel in ideal_relations(tree):
            assert rel.t_exponent > 0
    print("ACCEPTANCE 8 tree lemma exhaustion: PASS")


def test_acceptance_9_decomposition_properties():
    rng = random.Random(909)
    for _ in range(10 ** 4):
        n = rng.randint(2, 7)
        tree = caterpillar(n)
        multiset = random_multiset(n, rng)
        x = multiset.edge_vector(tree)
        result = decompose(tree, x)
        assert result.edge_vector(tree) == x
        assert result.is_canonical(tree)
    # exhaustive uniqueness: grading total <= 8 means at most 4 paths
    for n in (2, 3, 4, 5):
        tree = caterpillar(n)
        by_vector = {}
        for multiset in all_multisets(n, 4):
            by_vector.setdefault(multiset.edge_vector(tree),
                                 []).append(multiset)
        for x, multisets in by_vector.items():
            canonical = [m for m in multisets if m.is_canonical(tree)]
            assert len(canonical) == 1, x
            assert decompose(tree, list(x)) == canonical[0]
    print("ACCEPTANCE 9 decomposition round-trip and uniqueness: PASS")
