"""Divisor bookkeeping and the Riemann-Roch cross-check."""

import random
import re
from fractions import Fraction

import pytest

from grasshilb import delpezzo
from grasshilb.delpezzo import (
    GRADING_CAP,
    MONOMIAL_ORDER,
    PAIR_ORDER,
    FamilyRankError,
    FitInconsistencyError,
    _solve_exact,
    base_change,
    divisor_family,
    euler_characteristic,
    fit_quadratic_form,
    kapranov_grading,
    quadratic_monomial_values,
    riemann_roch_coefficients,
    verify_against_series,
)
from grasshilb.hilbert import series_by_recursion
from grasshilb.polyring import IntPolynomial, PrecisionError, TruncatedSeries

HALF = Fraction(1, 2)

# chi as a quadratic form in (1, a01, a02, a03, a04, a12), frozen by hand
RR_EXPANSION = {
    (0, 0): Fraction(1),
    (0, 1): HALF, (0, 2): HALF, (0, 3): HALF, (0, 4): HALF, (0, 5): HALF,
    (1, 1): -HALF, (2, 2): -HALF, (3, 3): -HALF, (4, 4): -HALF, (5, 5): -HALF,
    (1, 5): Fraction(1), (2, 5): Fraction(1),
}


def w5_series():
    if not hasattr(w5_series, "cache"):
        w5_series.cache = series_by_recursion(5, GRADING_CAP)
    return w5_series.cache


def test_pair_order():
    assert len(PAIR_ORDER) == 10
    assert PAIR_ORDER[0] == (0, 1)
    assert PAIR_ORDER[-1] == (3, 4)
    assert all(i < j for i, j in PAIR_ORDER)


def test_base_change_frozen():
    assert base_change((1,) * 10) == (4, 4, -2, -2, 6)
    assert base_change((1, 0, 0, 0, 0, 0, 0, 0, 0, 0)) == (1, 0, 0, 0, 0)
    assert base_change((0,) * 10) == (0, 0, 0, 0, 0)


def test_base_change_linear():
    rng = random.Random(501)
    for _ in range(30):
        a = tuple(rng.randint(-4, 4) for _ in range(10))
        b = tuple(rng.randint(-4, 4) for _ in range(10))
        ab = tuple(x + y for x, y in zip(a, b))
        assert base_change(ab) == tuple(
            x + y for x, y in zip(base_change(a), base_change(b)))


def test_base_change_validation():
    with pytest.raises(ValueError):
        base_change((1, 2, 3))
    with pytest.raises(ValueError):  # a bool is an int to isinstance
        base_change((True,) * 10)


@pytest.mark.parametrize("function", [
    kapranov_grading, euler_characteristic, quadratic_monomial_values])
@pytest.mark.parametrize("divisor5", [
    (1, 2, 3), (1, 0, 0, 0, 0.5), (True, 0, 0, 0, 0), (1, 2, 3, 4, False)],
    ids=["short", "float", "bool-first", "bool-last"])
def test_basis_coordinates_validation(function, divisor5):
    with pytest.raises(ValueError, match="^expected 5 integer basis"):
        function(divisor5)


def test_kapranov_grading_frozen():
    assert kapranov_grading((4, 4, -2, -2, 6)) == (4, 4, 4, 4, 4)
    assert kapranov_grading((1, 0, 0, 0, 0)) == (1, 1, 0, 0, 0)
    assert kapranov_grading((0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0)


def test_euler_characteristic_frozen():
    assert euler_characteristic((0, 0, 0, 0, 0)) == 1
    assert euler_characteristic((1, 0, 0, 0, 0)) == 1
    assert euler_characteristic((4, 4, -2, -2, 6)) == 16


def test_euler_characteristic_always_integer():
    rng = random.Random(502)
    for _ in range(500):
        d = tuple(rng.randint(-6, 6) for _ in range(5))
        assert isinstance(euler_characteristic(d), int)


def test_euler_characteristic_matches_quadratic_expansion():
    rng = random.Random(503)
    rr = dict(zip(MONOMIAL_ORDER, riemann_roch_coefficients()))
    for _ in range(100):
        d = tuple(rng.randint(-5, 5) for _ in range(5))
        values = quadratic_monomial_values(d)
        total = sum(rr[key] * v for key, v in zip(MONOMIAL_ORDER, values))
        assert total == euler_characteristic(d)


def test_riemann_roch_coefficients_frozen():
    named = dict(zip(MONOMIAL_ORDER, riemann_roch_coefficients()))
    for key in MONOMIAL_ORDER:
        assert named[key] == RR_EXPANSION.get(key, Fraction(0))


def test_divisor_family():
    fam = divisor_family()
    assert len(fam) == 220
    assert fam[0] == (3, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    ones = (1,) * 10
    for d in fam:
        deltas = [x - y for x, y in zip(d, ones)]
        assert sum(abs(v) for v in deltas) in (0, 2)


def test_family_gradings_in_box():
    for d10 in divisor_family():
        grading = kapranov_grading(base_change(d10))
        assert all(g >= 0 for g in grading)
        assert sum(grading) <= GRADING_CAP


def test_verify_against_series_passes():
    report = verify_against_series(w5_series())
    assert report.passed
    assert report.pass_count == 220
    entry = report.entries[0]
    data = entry.to_json_dict()
    assert set(data) == {"divisor10", "divisor5", "grading", "chi",
                         "series_coeff", "status"}
    assert data["status"] == "pass"


def test_verify_against_series_guards():
    too_short = series_by_recursion(5, GRADING_CAP - 1)
    for check in (verify_against_series, fit_quadratic_form):
        with pytest.raises(PrecisionError):
            check(too_short)
        with pytest.raises(ValueError):
            check(series_by_recursion(4, 4))
        with pytest.raises(ValueError, match="cap >= 24"):
            check(IntPolynomial(5, {}))


def test_verify_detects_corrupted_series():
    good = w5_series()
    terms = dict(good.terms)
    key = (4, 4, 4, 4, 4)
    terms[key] = terms[key] + 1
    bad = TruncatedSeries(5, good.max_total_degree, terms)
    report = verify_against_series(bad)
    assert not report.passed
    failing = [e for e in report.entries if e.status == "fail"]
    assert failing
    assert all(e.grading == key for e in failing)
    # -2K + E_k - E_k for every k and sign split hits that grading
    assert len(failing) == 20


def test_fit_quadratic_form_recovers_riemann_roch():
    fitted = fit_quadratic_form(w5_series())
    assert fitted == riemann_roch_coefficients()
    named = dict(zip(MONOMIAL_ORDER, fitted))
    assert named[(0, 0)] == 1
    assert named[(1, 1)] == -HALF


def test_solve_exact_rank_deficient():
    # two proportional rows cannot determine two unknowns
    matrix = [[Fraction(1), Fraction(2), Fraction(3)],
              [Fraction(2), Fraction(4), Fraction(6)]]
    with pytest.raises(FamilyRankError):
        _solve_exact(matrix, 2)


def test_exact_quotient_refuses_a_remainder():
    assert delpezzo._exact_quotient(-8, 2) == -4
    with pytest.raises(ArithmeticError,
                       match="^fraction-free elimination: 7 is not a "
                             "multiple of 2$"):
        delpezzo._exact_quotient(7, 2)


def test_solve_exact_inconsistent():
    matrix = [[Fraction(1), Fraction(0), Fraction(1)],
              [Fraction(0), Fraction(1), Fraction(1)],
              [Fraction(1), Fraction(1), Fraction(3)]]
    with pytest.raises(FitInconsistencyError):
        _solve_exact(matrix, 2)


def test_solve_exact_unique_solution():
    matrix = [[Fraction(2), Fraction(1), Fraction(5)],
              [Fraction(1), Fraction(-1), Fraction(1)]]
    assert _solve_exact(matrix, 2) == [Fraction(2), Fraction(1)]


def reference_solve(matrix, ncols):
    """Gauss-Jordan over Fractions, the reference for _solve_exact."""
    matrix = [[Fraction(v) for v in row] for row in matrix]
    nrows = len(matrix)
    pivot_rows = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(nrows):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b
                             for a, b in zip(matrix[r], matrix[rank])]
        pivot_rows.append(col)
        rank += 1
    if rank < ncols:
        raise FamilyRankError("rank %d < %d" % (rank, ncols))
    for r in range(rank, nrows):
        if matrix[r][ncols]:
            raise FitInconsistencyError("inconsistent")
    solution = [Fraction(0)] * ncols
    for r, col in enumerate(pivot_rows):
        solution[col] = matrix[r][ncols]
    return solution


def outcome(solve, matrix, ncols):
    """The solution, (FamilyRankError, rank) or (FitInconsistencyError,)."""
    try:
        return solve([list(row) for row in matrix], ncols)
    except FamilyRankError as exc:  # both messages name the rank first
        return FamilyRankError, int(re.search(r"\d+", str(exc)).group())
    except FitInconsistencyError:
        return FitInconsistencyError,


def random_system(rng, kind):
    """A small integer augmented matrix of the given kind."""
    ncols = rng.randint(1, 4)
    if kind == "tall":
        nrows = rng.randint(ncols + 4, max(ncols + 4, 4 * ncols))
    else:
        nrows = ncols + rng.randint(0, 3)

    def entry():
        return rng.choice((0, 0, rng.randint(-5, 5)))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if kind == "consistent":  # rhs from an integer solution
        x = [rng.randint(-4, 4) for _ in range(ncols)]
        return [row + [sum(a * b for a, b in zip(row, x))] for row in rows]
    if kind == "tall":  # solution y_c / s_c, then about half the systems
        # get one rhs entry moved by 1
        scale = [rng.randint(1, 3) for _ in range(ncols)]
        y = [rng.randint(-4, 4) for _ in range(ncols)]
        tall = [[a * s for a, s in zip(row, scale)]
                + [sum(a * b for a, b in zip(row, y))] for row in rows]
        if rng.random() < 0.5:
            tall[rng.randrange(nrows)][-1] += rng.choice((-1, 1))
        return tall
    if kind == "zero column":
        col = rng.randrange(ncols)
        for row in rows:
            row[col] = 0
    if kind == "row swap":  # the first row cannot hold the first pivot
        rows[0][0] = 0
        rows[-1][0] = rng.choice((-3, -1, 2, 5))
    return [row + [rng.randint(-6, 6)] for row in rows]


def test_solve_exact_matches_the_fraction_reference():
    rng = random.Random(504)
    kinds = ("consistent", "free", "zero column", "row swap", "tall")
    seen = set()
    for i in range(250):
        kind = kinds[i % len(kinds)]
        matrix = random_system(rng, kind)
        ncols = len(matrix[0]) - 1
        expected = outcome(reference_solve, matrix, ncols)
        assert outcome(_solve_exact, matrix, ncols) == expected, matrix
        seen.add((kind, "unique" if isinstance(expected, list)
                  else expected[0]))
    assert seen >= {("consistent", "unique"), ("row swap", "unique"),
                    ("zero column", FamilyRankError),
                    ("free", FamilyRankError),
                    ("free", FitInconsistencyError),
                    ("tall", "unique"), ("tall", FitInconsistencyError)}


def w5_family_system():
    """The augmented system fit_quadratic_form hands to _solve_exact."""
    rows = {}
    for d10 in divisor_family():
        d5 = base_change(d10)
        rows[quadratic_monomial_values(d5)] = w5_series().coefficient(
            kapranov_grading(d5))
    return [list(row) + [rhs] for row, rhs in sorted(rows.items())]


def test_solve_exact_on_the_family_system(monkeypatch):
    matrix = w5_family_system()
    ncols = len(MONOMIAL_ORDER)
    assert len(matrix) == 141
    calls = []
    exact_quotient = delpezzo._exact_quotient

    def counted(numerator, divisor):
        calls.append(numerator)
        return exact_quotient(numerator, divisor)

    monkeypatch.setattr(delpezzo, "_exact_quotient", counted)
    assert _solve_exact(matrix, ncols) == list(riemann_roch_coefficients())
    # each of the 21 steps rewrites, in the 20 other rows, the columns
    # right of the pivot column: 20 * (21 + 20 + ... + 1) = 4,620
    assert len(calls) == 4620
    for col in (0, 7, ncols - 1):
        dropped = [row[:col] + [0] + row[col + 1:] for row in matrix]
        with pytest.raises(FamilyRankError, match=(
                "^family only determines 20 of 21 quadratic coefficients$")):
            _solve_exact(dropped, ncols)
    for r in (0, 70, len(matrix) - 1):
        moved = [row[:] for row in matrix]
        moved[r][ncols] += 1
        assert outcome(reference_solve, moved, ncols) == (
            FitInconsistencyError,)
        with pytest.raises(FitInconsistencyError, match=(
                "^series values are inconsistent with a quadratic form$")):
            _solve_exact(moved, ncols)
