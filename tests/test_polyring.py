"""Polynomial and truncated-series arithmetic."""

import json
import random
import re
import tracemalloc
from itertools import permutations, product

import pytest

from grasshilb.polyring import (
    DimensionError,
    IntPolynomial,
    PrecisionError,
    TruncatedSeries,
    all_pairs,
    format_terms,
    from_json_dict,
    geometric_expand,
    iter_exponents,
    iter_json_text,
    multiply_by_geometric_series,
    multiply_by_pair_factors,
    permute_variables,
    to_json_dict,
    truncate,
)
from grasshilb import polyring
from grasshilb.hilbert import series_by_recursion

from helpers import (complete_homogeneous, elementary_symmetric,
                     first_difference)


def random_poly(rng, num_vars, max_terms=6, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[e] = terms.get(e, 0) + c
    return IntPolynomial(num_vars, terms)


class _Int(int):
    """An int subclass: the int rule refuses it like a bool."""


def test_constructors():
    zero = IntPolynomial.zero(3)
    one = IntPolynomial.one(3)
    z2 = IntPolynomial.variable(3, 2)
    assert zero.terms == {}
    assert one.terms == {(0, 0, 0): 1}
    assert z2.terms == {(0, 1, 0): 1}
    assert IntPolynomial.monomial(2, (1, 4), -3).terms == {(1, 4): -3}
    assert IntPolynomial.monomial(2, (1, 4), 0).terms == {}
    # True would read as z1, 1.0 would fail on a list index
    for index in (True, 1.0, _Int(1)):
        with pytest.raises(TypeError, match=r"^variable index %s is not an "
                                            "int$" % re.escape(repr(index))):
            IntPolynomial.variable(2, index)
    with pytest.raises(TypeError, match=r"^num_vars 2\.0 is not an int$"):
        IntPolynomial.variable(2.0, 1)
    with pytest.raises(DimensionError, match="variable index 3 out of range"):
        IntPolynomial.variable(2, 3)
    with pytest.raises(ValueError, match="^num_vars must be non-negative$"):
        IntPolynomial(-1)
    with pytest.raises(ValueError,
                       match="^max_total_degree must be non-negative$"):
        TruncatedSeries(2, -1)


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


def _tuple_product(a, b, cap):
    """a * b through total degree `cap` (None: exact), on exponent tuples."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if cap is None or sum(e) <= cap:
                out[e] = out.get(e, 0) + ca * cb
    return out


def test_add_product_accumulates_the_tuple_product():
    rng = random.Random(107)
    for trial in range(40):
        nv = rng.randint(1, 4)
        # trial % 4: bit 1 makes a a series, bit 2 makes b one
        caps = [rng.randint(0, 8) if trial & bit else None for bit in (1, 2)]
        a, b = [random_poly(rng, nv, max_terms=8) for _ in caps]
        a, b = [x if c is None else truncate(x, c) for x, c in zip((a, b), caps)]
        cap = min([c for c in caps if c is not None], default=None)
        # a start no product can cancel: its exponents are past max_exp
        start = random_poly(rng, nv) + IntPolynomial.monomial(nv, [9] * nv)
        out = dict(start._terms)
        polyring._add_product(out, a._terms, b._terms, nv, cap)
        expected = start.terms
        for e, c in _tuple_product(a.terms, b.terms, cap).items():
            expected[e] = expected.get(e, 0) + c
        got = IntPolynomial._trusted(nv, polyring._nonzero(out)).terms
        assert got == {e: c for e, c in expected.items() if c}


def test_int_coercion():
    rng = random.Random(102)
    p = random_poly(rng, 3)
    assert p + 0 == p
    assert 1 + p == p + IntPolynomial.one(3)
    assert 2 * p == p + p


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


def canonical_sort(terms):
    """Exponent tuples by ascending total degree, then descending lex."""
    return sorted(terms, key=lambda e: (sum(e), tuple(-x for x in e)))


def reference_text(terms):
    parts = []
    for e in canonical_sort(terms):
        c = terms[e]
        factors = [str(abs(c))] if abs(c) != 1 or not any(e) else []
        factors += ["z%d" % (i + 1) if x == 1 else "z%d^%d" % (i + 1, x)
                    for i, x in enumerate(e) if x]
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + "*".join(factors))
    return " ".join(parts) or "0"


def test_canonical_order_matches_the_tuple_sort():
    rng = random.Random(106)
    for _ in range(40):
        nv = rng.randint(0, 5)
        p = random_poly(rng, nv, max_terms=12)
        terms = p.terms
        assert [tuple(t["e"]) for t in to_json_dict(p)["terms"]] == \
            canonical_sort(terms)
        assert format_terms(p) == reference_text(terms)


def test_terms_round_trip_through_the_constructors():
    rng = random.Random(108)
    for _ in range(20):
        nv = rng.randint(0, 5)
        p = random_poly(rng, nv)
        assert IntPolynomial(nv, p.terms) == p
        s = truncate(p, 4)
        assert TruncatedSeries(nv, 4, s.terms) == s
        assert from_json_dict(to_json_dict(s)).terms == s.terms


def test_degree_past_the_key_limit():
    limit = 1 << 16
    for terms in ({(limit, 0): 1}, {(40000, 30000): 1}):
        with pytest.raises(PrecisionError):
            IntPolynomial(2, terms)
        with pytest.raises(PrecisionError):
            from_json_dict({"num_vars": 2, "max_total_degree": None,
                            "terms": [{"e": list(e), "c": "1"}
                                      for e in terms]})
    for build in (lambda: TruncatedSeries(2, limit),
                  lambda: truncate(IntPolynomial.one(2), limit),
                  lambda: geometric_expand([], 2, limit),
                  lambda: from_json_dict({"num_vars": 2,
                                          "max_total_degree": limit,
                                          "terms": []})):
        with pytest.raises(PrecisionError):
            build()
    top = IntPolynomial.monomial(2, (limit - 1, 0))
    assert top.total_degree() == limit - 1
    assert top.terms == {(limit - 1, 0): 1}
    assert IntPolynomial(2, top.terms) == top
    assert top.coefficient((limit - 1, 0)) == 1
    assert top.coefficient((limit, 0)) == 0
    with pytest.raises(PrecisionError):
        top * IntPolynomial.variable(2, 2)
    assert truncate(top, 5) * IntPolynomial.variable(2, 2) == \
        TruncatedSeries(2, 5)


@pytest.mark.parametrize("num_vars", range(7))
def test_iter_exponents_matches_brute_force(num_vars):
    for cap in range(4):
        brute = [e for e in product(range(cap + 1), repeat=num_vars)
                 if sum(e) <= cap]
        assert list(iter_exponents(num_vars, cap)) == canonical_sort(brute)


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
    pairs = [(1, 2), (2, 3), (1, 2), (1, 3)]
    one_at_a_time = base
    for pair in pairs:
        one_at_a_time = multiply_by_geometric_series(one_at_a_time, pair)
    assert multiply_by_geometric_series(base, *pairs) == one_at_a_time
    assert multiply_by_geometric_series(base) == base


def test_geometric_sweep_edges():
    rng = random.Random(107)
    for cap in (0, 1):  # no pair z_i z_j fits under the cap
        for nv in range(2, 6):
            base = TruncatedSeries(nv, cap, {
                e: rng.choice([-2, -1, 1, 2]) for e in iter_exponents(nv, cap)})
            assert multiply_by_geometric_series(base, *all_pairs(nv)) == base
    # (1 - z1 z2)(1 - z1 z3) over the same factors: every pushed sum
    # cancels, and a cancelled coefficient is deleted, not stored as 0
    numerator = TruncatedSeries(3, 6, {(0, 0, 0): 1, (1, 1, 0): -1,
                                       (1, 0, 1): -1, (2, 1, 1): 1})
    one = multiply_by_geometric_series(numerator, (1, 2), (1, 3))
    assert one._terms == {0: 1}  # the constant 1 alone
    for nv in range(2, 6):
        zero = (0,) * nv
        for i, j in all_pairs(nv):
            pair = tuple(int(k in (i, j)) for k in range(1, nv + 1))
            assert geometric_expand([(i, j)], nv, 2) == TruncatedSeries(
                nv, 2, {zero: 1, pair: 1})


def test_multiply_by_geometric_series_needs_a_cap():
    exact = IntPolynomial(3, {(1, 0, 0): 1})
    for pairs in ([(1, 2)], []):
        with pytest.raises(ValueError, match="max_total_degree cap"):
            multiply_by_geometric_series(exact, *pairs)


def test_pair_factors_undo_the_geometric_series():
    rng = random.Random(118)
    for nv in range(2, 6):
        for cap in (0, 1, 2, 5, 8):
            base = TruncatedSeries(nv, cap, {
                e: rng.randint(-5, 5) for e in iter_exponents(nv, cap)
                if rng.random() < 0.4})
            pairs = [rng.choice(all_pairs(nv))
                     for _ in range(rng.randint(0, 5))]
            swept = multiply_by_geometric_series(base, *pairs)
            assert multiply_by_pair_factors(swept, *pairs) == base, (nv, cap)
            product = multiply_by_pair_factors(base, *pairs)
            assert product == base * _pair_factors(nv, pairs, cap)
            assert all(product._terms.values())
    # (1 - z1 z2) times its own series: every subtracted sum cancels
    series = geometric_expand([(1, 2)], 3, 6)
    assert multiply_by_pair_factors(series, (1, 2))._terms == {0: 1}


def _pair_factors(nv, pairs, cap):
    """prod (1 - z_i z_j) over `pairs` by the generic product, as a series
    through `cap`."""
    out = TruncatedSeries(nv, cap, {(0,) * nv: 1})
    for i, j in pairs:
        pair = tuple(int(k in (i, j)) for k in range(1, nv + 1))
        out = out * IntPolynomial(nv, {(0,) * nv: 1, pair: -1})
    return out


def test_multiply_by_pair_factors_refuses_what_the_sweep_refuses():
    exact = IntPolynomial(3, {(1, 0, 0): 1})
    for pairs in ([(1, 2)], []):
        with pytest.raises(ValueError, match="max_total_degree cap"):
            multiply_by_pair_factors(exact, *pairs)
    series = TruncatedSeries(3, 4, {(1, 0, 0): 1})
    for pair in ((2, 1), (1, 4), (0, 2), (2, 2)):
        with pytest.raises(DimensionError):
            multiply_by_pair_factors(series, (1, 2), pair)
        with pytest.raises(DimensionError):
            multiply_by_geometric_series(series, (1, 2), pair)
    # (True, 2) would read as (1, 2), (1, 2.0) would fail on a shift
    for pair in ((True, 2), (1, 2.0), (_Int(1), 2)):
        match = r"^pair %s has a non-int entry$" % re.escape(repr(pair))
        with pytest.raises(TypeError, match=match):
            multiply_by_pair_factors(series, pair)
        with pytest.raises(TypeError, match=match):
            multiply_by_geometric_series(series, pair)
        with pytest.raises(TypeError, match=match):
            geometric_expand([pair], 3, 4)


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
        # against exponent tuples, with a slot value past one byte
        big = p + IntPolynomial.monomial(nv, [300] + [0] * (nv - 1), 7)
        moved = {tuple(e[sigma.index(k + 1)] for k in range(nv)): c
                 for e, c in big.terms.items()}
        assert permute_variables(big, sigma) == IntPolynomial(nv, moved)


def test_permute_variables_series():
    s = geometric_expand([(1, 2)], 3, 6)
    moved = permute_variables(s, (2, 3, 1))
    assert moved.coefficient((0, 1, 1)) == 1
    assert moved.coefficient((1, 1, 0)) == 0


def test_permute_variables_moves_whole_slots_of_a_series():
    # exponents past one byte: a slot split in the wrong byte order moves
    # 300 = 0x012c to 0x2c01
    s = TruncatedSeries(4, 900, {(0, 0, 0, 0): 5, (300, 0, 0, 0): 1,
                                 (0, 257, 1, 0): 2, (1, 2, 3, 511): -3})
    perms = list(permutations(range(1, 5)))
    for sigma in perms:
        moved = {tuple(e[sigma.index(k + 1)] for k in range(4)): c
                 for e, c in s.terms.items()}
        assert permute_variables(s, sigma) == TruncatedSeries(4, 900, moved)
        for tau in perms:
            composed = tuple(sigma[tau[i] - 1] for i in range(4))
            assert permute_variables(permute_variables(s, tau), sigma) == \
                permute_variables(s, composed)
    for bad in [(1, 2, 3), (1, 2, 3, 3), (0, 1, 2, 3)]:
        with pytest.raises(ValueError, match="not a permutation of 1..4"):
            permute_variables(s, bad)
    # True == 1 and 4.0 == 4 would pass the sort, "1" would not sort
    for bad in [(True, 2, 3, 4), (1, 2, 3, 4.0), (1, 2, 3, "4"),
                (1, 2, 3, _Int(4))]:
        with pytest.raises(TypeError, match=r"^permutation %s has a non-int "
                                            "entry$" % re.escape(repr(bad))):
            permute_variables(s, bad)


def test_coefficient_at():
    s = geometric_expand([(1, 2)], 2, 6)
    assert s.coefficient([2, 2]) == 1
    with pytest.raises(PrecisionError):
        s.coefficient((4, 4))
    p = IntPolynomial(2, {(1, 1): -4})
    assert p.coefficient((1, 1)) == -4
    assert p.coefficient((5, 5)) == 0
    # (True, True) would read as (1, 1), (1.0, 1.0) would fail on a shift
    for exps in ((True, True), (1.0, 1.0), (1, _Int(1))):
        for obj in (p, s):
            with pytest.raises(TypeError, match=r"^grading %s has a non-int "
                               "entry$" % re.escape(repr(exps))):
                obj.coefficient(exps)


def test_json_round_trip_polynomial():
    big = 2 ** 80 + 7
    p = IntPolynomial(3, {(0, 0, 0): 1, (2, 1, 0): -big})
    data = to_json_dict(p)
    assert data["max_total_degree"] is None
    assert data["terms"][1]["c"] == str(-big)
    assert from_json_dict(data) == p


BIG = (1 << 64) + 3


@pytest.mark.parametrize("obj", [
    IntPolynomial(0, {}),
    IntPolynomial(0, {(): 7}),
    IntPolynomial(3, {}),
    IntPolynomial(2, {(0, 0): 1, (2, 1): -4, (0, 3): 9}),
    TruncatedSeries(3, 0, {}),
    TruncatedSeries(3, 0, {(0, 0, 0): -2}),
    TruncatedSeries(0, 5, {(): 1}),
    IntPolynomial(3, {(1, 0, 2): -BIG, (0, 0, 0): BIG * BIG, (4, 4, 4): -1}),
    IntPolynomial(2, {(65535, 0): 1, (0, 65535): -1}),
    # one exponent group of WIDE slots next to different partner groups
    IntPolynomial(5, {(255, 256, 257, 0, 1): 3, (1, 0, 0, 256, 255): 2,
                      (255, 256, 257, 256, 255): -BIG,
                      (255, 256, 257, 0, 0): -1}),
], ids=["0-vars", "0-vars-constant", "zero-3-vars", "uncapped", "cap-0-zero",
        "cap-0", "0-vars-series", "big-coefficients", "full-key-slots",
        "wide-groups"])
def test_json_text_matches_json_dumps(obj):
    assert "".join(iter_json_text(obj)) == json.dumps(to_json_dict(obj),
                                                      indent=2)


def test_json_text_matches_json_dumps_random():
    # both writers render each key as two cached exponent groups, the
    # first nv - nv // 2 slots and the last nv // 2: count those
    # polynomials where one first group recurs within a call
    rng = random.Random(109)
    reused = 0
    for nv in range(13):
        for _ in range(6):
            p = random_poly(rng, nv, max_terms=60,
                            max_exp=rng.choice((1, 3)), max_coeff=10 ** 25)
            if rng.random() < 0.5:
                p = truncate(p, rng.randint(0, 6))
            assert "".join(iter_json_text(p)) == json.dumps(to_json_dict(p),
                                                            indent=2)
            assert format_terms(p) == reference_text(p.terms)
            firsts = [e[:nv - nv // 2] for e in p.terms]
            reused += nv >= 2 and len(set(firsts)) < len(firsts)
    assert reused >= 30


CHUNK = polyring._CHUNK
WIDE = (255, 256, 257, 511)  # slots whose low byte alone would read wrong


def chunk_edge_poly(num_terms, cap):
    """`num_terms` terms in 3 variables, exponents 0..15 and WIDE, signed
    coefficients up to past 64 bits; a series when `cap` is not None."""
    rng = random.Random(num_terms)
    exps = list(product(list(range(16)) + list(WIDE), repeat=3))
    rng.shuffle(exps)
    terms = {e: rng.choice((-1, 1)) * rng.choice((1, 2, 999, BIG, BIG * BIG))
             for e in exps[:num_terms]}
    if cap is None:
        return IntPolynomial(3, terms)
    return TruncatedSeries(3, cap, terms)


EDGE_COUNTS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)


@pytest.mark.parametrize("obj", [
    chunk_edge_poly(count, cap) for count in EDGE_COUNTS for cap in (None, 1533)
] + [
    IntPolynomial(0, {}),
    IntPolynomial(0, {(): -BIG}),
    TruncatedSeries(0, 0, {(): 1}),
    TruncatedSeries(0, 5, {}),
], ids=["%d-terms-%s" % (count, cap) for count in EDGE_COUNTS
        for cap in ("null", "cap")]
   + ["0-vars-zero", "0-vars-negative", "0-vars-cap-0", "0-vars-zero-series"])
def test_writers_match_their_references_across_chunk_edges(obj):
    terms = obj.terms
    assert first_difference("".join(iter_json_text(obj)),
                            json.dumps(to_json_dict(obj), indent=2)) is None
    assert [tuple(t["e"]) for t in to_json_dict(obj)["terms"]] == \
        canonical_sort(terms)
    assert first_difference(format_terms(obj), reference_text(terms)) is None


def test_json_text_is_written_in_bounded_pieces():
    series = series_by_recursion(10, 8)  # 27,226 terms, 4.3 MB of JSON
    written = 0
    tracemalloc.start()
    try:
        for piece in iter_json_text(series):
            written += len(piece)  # a sink that keeps nothing
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == len("".join(iter_json_text(series)))
    assert peak < written // 2


@pytest.mark.parametrize("exps, coeff, error", [
    ((1.5, 0), 1, TypeError),
    ((1, 0, 0), 1, DimensionError),
    ((-1, 0), 1, ValueError),
    ((1, 0), 1.5, TypeError),
    # a bool is an int to isinstance, but json.dumps writes it as true
    ((True, True), 1, TypeError),
    ((2, False), 1, TypeError),
    ((1, 1), True, TypeError),
    ((1, 1), False, TypeError),
    ((_Int(1), 1), 1, TypeError),
    ((1, 1), _Int(1), TypeError),
])
def test_terms_checked_at_the_boundary(exps, coeff, error):
    with pytest.raises(error):
        IntPolynomial(2, {exps: coeff})
    with pytest.raises(error):
        TruncatedSeries(2, 4, {exps: coeff})
    json_coeff = str(coeff) if type(coeff) is int else coeff
    for cap in (None, 4):
        data = {"num_vars": 2, "max_total_degree": cap,
                "terms": [{"e": list(exps), "c": json_coeff}]}
        with pytest.raises(error):
            from_json_dict(data)


@pytest.mark.parametrize("num_vars, cap", [
    (2, 4.5), (2.0, 4), (2.0, None), (2, True), (True, 4), (True, None),
    pytest.param(_Int(2), None, id="subclass-None"),
    pytest.param(2, _Int(4), id="2-subclass")])
def test_sizes_checked_at_the_boundary(num_vars, cap):
    # a bool is an int to isinstance, but json.dumps writes it as true
    with pytest.raises(TypeError):
        if cap is None:
            IntPolynomial(num_vars, {(1, 1): 1})
        else:
            TruncatedSeries(num_vars, cap, {(1, 1): 1})
    with pytest.raises(TypeError):
        from_json_dict({"num_vars": num_vars, "max_total_degree": cap,
                        "terms": [{"e": [1, 1], "c": "1"}]})


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
