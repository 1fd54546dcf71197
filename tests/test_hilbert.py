"""Series and numerator computations, four-way cross-validation."""

import random
from itertools import combinations, permutations

import pytest

from grasshilb.fixtures import GOLDEN_RANGE, golden_numerator
from grasshilb.hilbert import (
    EXC_LIMIT,
    CapacityError,
    _pool_size,
    cross_validate,
    embracing_configurations,
    excluded_configurations,
    numerator_inclusion_exclusion,
    numerator_symmetric_recursion,
    series_by_recursion,
    series_from_numerator,
)
from grasshilb.polyring import (
    all_pairs,
    format_terms,
    geometric_expand,
    permute_variables,
)
from grasshilb.semigroup import count_gradation
from grasshilb.trees import caterpillar, parse_tree

from helpers import random_tree


def test_series_base_case():
    s = series_by_recursion(2, 6)
    assert format_terms(s) == "1 + z1*z2 + z1^2*z2^2 + z1^3*z2^3"
    with pytest.raises(ValueError):
        series_by_recursion(1, 4)


def test_series_three_variables_is_geometric():
    assert series_by_recursion(3, 6) == geometric_expand(all_pairs(3), 3, 6)


def test_series_known_coefficients():
    s = series_by_recursion(4, 6)
    assert s.coefficient((1, 1, 1, 1)) == 2
    assert s.coefficient((0, 0, 0, 0)) == 1
    assert s.coefficient((1, 0, 0, 0)) == 0
    assert s.coefficient((1, 1, 0, 0)) == 1
    assert s.coefficient((2, 1, 1, 0)) == 1


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


def test_numerator_ie_golden():
    for n in GOLDEN_RANGE:
        result = numerator_inclusion_exclusion(n)
        assert result.polynomial == golden_numerator(n)
        assert result.method == "inclusion-exclusion"
        assert not result.is_conjectural
    assert format_terms(numerator_inclusion_exclusion(4).polynomial) == \
        "1 - z1*z2*z3*z4"


def test_numerator_ie_general_tree_equals_caterpillar():
    t = parse_tree("(((*,*),*),((*,*),*))")
    via_tree = numerator_inclusion_exclusion(6, tree=t)
    via_caterpillar = numerator_inclusion_exclusion(6)
    assert via_tree.polynomial == via_caterpillar.polynomial

    rng = random.Random(401)
    for _ in range(5):
        t = random_tree(5, rng)
        assert numerator_inclusion_exclusion(5, tree=t).polynomial == \
            golden_numerator(5)


def test_numerator_capacity_error():
    assert len(embracing_configurations(7)) == 35 > EXC_LIMIT
    with pytest.raises(CapacityError):
        numerator_inclusion_exclusion(7)


def test_numerator_sym_matches_ie():
    for n in range(2, 7):
        sym = numerator_symmetric_recursion(n)
        assert sym.method == "symmetric-recursion"
        assert sym.is_conjectural
        assert sym.polynomial == numerator_inclusion_exclusion(n).polynomial


def test_numerator_constant_term():
    for n in range(2, 7):
        poly = numerator_symmetric_recursion(n).polynomial
        assert poly.coefficient((0,) * n) == 1


def test_series_from_numerator_matches_recursion():
    for n in (3, 4, 5):
        direct = series_by_recursion(n, 8)
        via_ie = series_from_numerator(numerator_inclusion_exclusion(n), 8)
        assert direct == via_ie
    via_sym = series_from_numerator(numerator_symmetric_recursion(4), 8)
    assert via_sym == series_by_recursion(4, 8)


def test_series_from_numerator_accepts_bare_polynomial():
    poly = numerator_inclusion_exclusion(4).polynomial
    assert series_from_numerator(poly, 6) == series_by_recursion(4, 6)


def test_series_coefficients_match_oracle():
    s = series_by_recursion(5, 6)
    rng = random.Random(402)
    for _ in range(30):
        lam = [rng.randint(0, 3) for _ in range(5)]
        if sum(lam) > 6:
            continue
        assert s.coefficient(tuple(lam)) == count_gradation(5, lam)


def test_numerator_symmetry_small():
    poly = numerator_inclusion_exclusion(4).polynomial
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


def test_cross_validate_deterministic_across_jobs():
    serial = cross_validate(4, 8, jobs=1)
    parallel = cross_validate(4, 8, jobs=3)
    assert serial.to_json_dict() == parallel.to_json_dict()


def test_pool_size_never_exceeds_cpu_count():
    assert _pool_size(1, 8) == 1
    assert _pool_size(3, 8) == 3
    assert _pool_size(3, 2) == 2
    assert _pool_size(10 ** 6, 2) == 2
    assert _pool_size(4, None) == 1


def test_cross_validate_detects_corruption(monkeypatch):
    import grasshilb.hilbert as hilbert_module

    real = hilbert_module.numerator_inclusion_exclusion

    def corrupted(n, tree=None):
        result = real(n, tree)
        poly = result.polynomial + 1
        return hilbert_module.NumeratorResult(n, poly, result.method)

    monkeypatch.setattr(hilbert_module, "numerator_inclusion_exclusion",
                        corrupted)
    report = cross_validate(4, 6)
    assert not report.passed
    failing = [c for c in report.checks if c.status == "fail"]
    assert failing
    assert all("inclusion-exclusion" in c.name for c in failing)
