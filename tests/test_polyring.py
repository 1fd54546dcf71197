"""Polynomial and truncated-series arithmetic."""

import random

import pytest

from grasshilb.polyring import (
    DimensionError,
    IntPolynomial,
    PrecisionError,
    TruncatedSeries,
    all_pairs,
    complete_homogeneous,
    elementary_symmetric,
    format_terms,
    from_json_dict,
    geometric_expand,
    iter_exponents,
    multiply_by_geometric_series,
    permute_variables,
    to_json_dict,
    truncate,
)


def random_poly(rng, num_vars, max_terms=6, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[e] = terms.get(e, 0) + c
    return IntPolynomial(num_vars, terms)


def test_constructors():
    zero = IntPolynomial.zero(3)
    one = IntPolynomial.one(3)
    z2 = IntPolynomial.variable(3, 2)
    assert zero.terms == {}
    assert one.terms == {(0, 0, 0): 1}
    assert z2.terms == {(0, 1, 0): 1}
    assert IntPolynomial.monomial(2, (1, 4), -3).terms == {(1, 4): -3}
    assert IntPolynomial.monomial(2, (1, 4), 0).terms == {}


def test_zero_coefficients_dropped():
    p = IntPolynomial(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    q = IntPolynomial.variable(2, 1) - IntPolynomial.variable(2, 1)
    assert q.terms == {}
    assert q.is_zero()


def test_dimension_mismatch():
    p = IntPolynomial.one(2)
    q = IntPolynomial.one(3)
    with pytest.raises(DimensionError):
        p + q
    with pytest.raises(DimensionError):
        p * q


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(60):
        nv = rng.randint(1, 4)
        a = random_poly(rng, nv)
        b = random_poly(rng, nv)
        c = random_poly(rng, nv)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == IntPolynomial.zero(nv)
        assert a * IntPolynomial.one(nv) == a
        assert a * 0 == IntPolynomial.zero(nv)


def test_int_coercion_and_pow():
    rng = random.Random(102)
    p = random_poly(rng, 3)
    assert p + 0 == p
    assert 1 + p == p + IntPolynomial.one(3)
    assert 2 * p == p + p
    assert p ** 0 == IntPolynomial.one(3)
    assert p ** 3 == p * p * p


def test_total_degree():
    p = IntPolynomial(3, {(0, 0, 0): 1, (2, 1, 0): 5})
    assert p.total_degree() == 3
    assert IntPolynomial.zero(3).total_degree() == -1


def test_format_canonical_order():
    h2 = complete_homogeneous(2, 2)
    s2 = elementary_symmetric(3, 2)
    assert format_terms(h2) == "z1^2 + z1*z2 + z2^2"
    assert format_terms(s2) == "z1*z2 + z1*z3 + z2*z3"
    assert format_terms(IntPolynomial.zero(4)) == "0"
    assert format_terms(IntPolynomial(2, {(0, 0): -1, (1, 1): 2})) == "-1 + 2*z1*z2"
    assert format_terms({(0, 0): 1, (1, 1): -1}) == "1 - z1*z2"


def test_symmetric_polynomial_edge_cases():
    assert elementary_symmetric(3, -1) == IntPolynomial.zero(3)
    assert elementary_symmetric(3, 0) == IntPolynomial.one(3)
    assert elementary_symmetric(3, 4) == IntPolynomial.zero(3)
    assert complete_homogeneous(3, -2) == IntPolynomial.zero(3)
    assert complete_homogeneous(3, 0) == IntPolynomial.one(3)
    assert len(complete_homogeneous(3, 2).terms) == 6


def test_newton_identity():
    # sum_{r=0}^{k} (-1)^r e_r h_{k-r} = 0 for k >= 1
    rng = random.Random(103)
    for _ in range(10):
        nv = rng.randint(1, 4)
        k = rng.randint(1, 5)
        acc = IntPolynomial.zero(nv)
        for r in range(k + 1):
            term = elementary_symmetric(nv, r) * complete_homogeneous(nv, k - r)
            acc = acc + term if r % 2 == 0 else acc - term
        assert acc == IntPolynomial.zero(nv)


def test_iter_exponents_count_and_order():
    exps = list(iter_exponents(3, 4))
    assert len(exps) == 35  # C(4+3, 3)
    totals = [sum(e) for e in exps]
    assert totals == sorted(totals)
    assert exps[0] == (0, 0, 0)
    # within a total degree, descending lexicographic
    deg1 = [e for e in exps if sum(e) == 1]
    assert deg1 == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_truncated_series_cap_invariant():
    s = TruncatedSeries(2, 4, {(1, 1): 1})
    assert s.coefficient((1, 1)) == 1
    assert s.coefficient((2, 1)) == 0
    with pytest.raises(PrecisionError):
        TruncatedSeries(2, 4, {(3, 2): 1})
    with pytest.raises(PrecisionError):
        s.coefficient((3, 2))


def test_series_ops_take_min_cap():
    a = TruncatedSeries(2, 6, {(0, 0): 1, (3, 3): 2})
    b = TruncatedSeries(2, 4, {(1, 1): 1})
    assert a + b == TruncatedSeries(2, 4, {(0, 0): 1, (1, 1): 1})
    assert (a * b).max_total_degree == 4
    p = IntPolynomial(2, {(0, 0): 3, (2, 2): 1})
    for mixed in (p + b, b + p, p * b, b * p, b - p, 1 + b):
        assert isinstance(mixed, TruncatedSeries)
        assert mixed.max_total_degree == 4
    assert (p + 1).max_total_degree is None
    assert not isinstance(p * p, TruncatedSeries)
    assert p != TruncatedSeries(2, 4, p.terms)


def test_geometric_expand_single_pair():
    s = geometric_expand([(1, 2)], 2, 8)
    for k in range(5):
        assert s.coefficient((k, k)) == 1
    assert s.coefficient((1, 0)) == 0
    assert s.coefficient((2, 1)) == 0


def test_geometric_expand_matches_product():
    cap = 8
    left = geometric_expand([(1, 2)], 4, cap)
    right = geometric_expand([(3, 4)], 4, cap)
    both = geometric_expand([(1, 2), (3, 4)], 4, cap)
    assert left * right == both


def test_multiply_by_geometric_series():
    cap = 7
    rng = random.Random(104)
    poly = random_poly(rng, 3, max_exp=2)
    base = TruncatedSeries(3, cap, {e: c for e, c in poly.terms.items()
                                    if sum(e) <= cap})
    stepped = multiply_by_geometric_series(base, (1, 3))
    assert stepped == base * geometric_expand([(1, 3)], 3, cap)


def test_geometric_expand_w4_coefficient():
    s = geometric_expand(all_pairs(4), 4, 4)
    assert s.coefficient((1, 1, 1, 1)) == 3


def test_permute_variables_group_action():
    rng = random.Random(105)
    for _ in range(25):
        nv = rng.randint(2, 5)
        p = random_poly(rng, nv)
        ident = tuple(range(1, nv + 1))
        assert permute_variables(p, ident) == p
        sigma = list(ident)
        tau = list(ident)
        rng.shuffle(sigma)
        rng.shuffle(tau)
        composed = tuple(sigma[tau[i] - 1] for i in range(nv))
        assert permute_variables(permute_variables(p, tau), sigma) == \
            permute_variables(p, composed)


def test_permute_variables_series():
    s = geometric_expand([(1, 2)], 3, 6)
    moved = permute_variables(s, (2, 3, 1))
    assert moved.coefficient((0, 1, 1)) == 1
    assert moved.coefficient((1, 1, 0)) == 0


def test_coefficient_at():
    s = geometric_expand([(1, 2)], 2, 6)
    assert s.coefficient([2, 2]) == 1
    with pytest.raises(PrecisionError):
        s.coefficient((4, 4))
    p = IntPolynomial(2, {(1, 1): -4})
    assert p.coefficient((1, 1)) == -4
    assert p.coefficient((5, 5)) == 0


def test_json_round_trip_polynomial():
    big = 2 ** 80 + 7
    p = IntPolynomial(3, {(0, 0, 0): 1, (2, 1, 0): -big})
    data = to_json_dict(p)
    assert data["max_total_degree"] is None
    assert data["terms"][1]["c"] == str(-big)
    assert from_json_dict(data) == p


@pytest.mark.parametrize("exps, coeff, error", [
    ((1.5, 0), 1, TypeError),
    ((1, 0, 0), 1, DimensionError),
    ((-1, 0), 1, ValueError),
    ((1, 0), 1.5, TypeError),
])
def test_terms_checked_at_the_boundary(exps, coeff, error):
    with pytest.raises(error):
        IntPolynomial(2, {exps: coeff})
    with pytest.raises(error):
        TruncatedSeries(2, 4, {exps: coeff})
    json_coeff = str(coeff) if isinstance(coeff, int) else coeff
    for cap in (None, 4):
        data = {"num_vars": 2, "max_total_degree": cap,
                "terms": [{"e": list(exps), "c": json_coeff}]}
        with pytest.raises(error):
            from_json_dict(data)


def test_json_round_trip_series():
    s = geometric_expand([(1, 2), (1, 3)], 3, 5)
    data = to_json_dict(s)
    assert data["max_total_degree"] == 5
    back = from_json_dict(data)
    assert isinstance(back, TruncatedSeries)
    assert back == s


def test_truncate():
    s = geometric_expand([(1, 2)], 2, 10)
    t = truncate(s, 4)
    assert t.max_total_degree == 4
    assert t.coefficient((2, 2)) == 1
    with pytest.raises(PrecisionError):
        t.coefficient((3, 3))
    with pytest.raises(PrecisionError):
        truncate(t, 9)


def test_all_pairs():
    assert all_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert len(all_pairs(6)) == 15
