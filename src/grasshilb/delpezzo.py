"""Riemann-Roch cross-check on the blow-up of the plane in four points.

The degree-5 del Pezzo surface is the 4-point blow-up of the projective
plane; its Picard lattice here uses the basis
(E_{0,1}, E_{0,2}, E_{0,3}, E_{0,4}, E_{1,2}).  Divisors first arrive as
integer combinations of the ten classes E_{i,j}, 0 <= i < j <= 4, in
lexicographic order; base_change() rewrites them in the 5-element basis.

For a divisor D in that basis, Riemann-Roch gives

    chi(O(D)) = (D.D - K.D)/2 + 1

with K the canonical class; euler_characteristic() evaluates it exactly.
kapranov_grading() maps the divisor to the 5-variable grading at which
the same number must appear as a coefficient of W_5.  The verification
sweeps 220 divisors around -2K and also refits the quadratic form from
the series coefficients alone, recovering Riemann-Roch with no prior
knowledge of it: the fit solves its 21 normal equations fraction-free,
checks every family row by substitution and returns exact Fractions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import mul

from .polyring import PrecisionError

#: Order of the E_{i,j} coordinates in a 10-entry divisor.
PAIR_ORDER = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
              (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

#: Total degrees the 220-divisor family reaches; the series cap must cover
#: the top one.
GRADING_CAP = 24


class ChiIntegralityError(ArithmeticError):
    """chi came out non-integral, signalling a wrong divisor basis."""


class FamilyRankError(ValueError):
    """The divisor family does not determine the quadratic form."""


class FitInconsistencyError(ValueError):
    """The series coefficients are not the values of any quadratic form on
    the family."""


def _check_coords(divisor, size, what):
    divisor = tuple(divisor)
    # polyring._check_ints' rule, raising the ValueError this module names
    if len(divisor) != size or not {int}.issuperset(map(type, divisor)):
        raise ValueError("expected %d integer %s coordinates" % (size, what))
    return divisor


def base_change(divisor10):
    """Rewrite E_{i,j} coordinates in the 5-element Picard basis."""
    (a01, a02, a03, a04, a12,
     a13, a14, a23, a24, a34) = _check_coords(divisor10, 10, "E_{i,j}")
    return (a01 + a23 + a24 + a34,
            a02 + a13 + a14 + a34,
            a03 - a13 - a23 - a34,
            a04 - a14 - a24 - a34,
            a12 + a13 + a14 + a23 + a24 + a34)


def kapranov_grading(divisor5):
    """Grading of W_5 at which chi of the divisor must appear."""
    return _kapranov_grading(_check_coords(divisor5, 5, "basis"))


def _kapranov_grading(divisor5):
    a01, a02, a03, a04, a12 = divisor5
    return (a01 + a02 + a03 + a04, a01, a02, a03 + a12, a04 + a12)


def euler_characteristic(divisor5):
    """chi(O(D)) by Riemann-Roch, as an exact integer.

    (D.D - K.D) must be even; if not, the basis bookkeeping is broken and
    ChiIntegralityError is raised rather than rounding.
    """
    return _euler_characteristic(_check_coords(divisor5, 5, "basis"))


def _euler_characteristic(divisor5):
    a01, a02, a03, a04, a12 = divisor5
    quad = (-a01 * a01 - a02 * a02 - a03 * a03 - a04 * a04 - a12 * a12
            + 2 * a12 * (a01 + a02))
    lin = a01 + a02 + a03 + a04 + a12
    if (quad + lin) % 2:
        raise ChiIntegralityError(
            "D.D - K.D = %d is odd for divisor %r" % (quad + lin, divisor5))
    return (quad + lin) // 2 + 1


def divisor_family():
    """The 220 divisors -2K + s1 E_k + s2 E_l, k <= l, s in {+1, -1},
    in deterministic sweep order.  Duplicates (k == l with opposite
    signs) are retained."""
    out = []
    for k in range(10):
        for l in range(k, 10):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    d = [1] * 10
                    d[k] += s1
                    d[l] += s2
                    out.append(tuple(d))
    return out


class DelPezzoEntry(namedtuple("DelPezzoEntry", "divisor10 divisor5 grading "
                               "chi series_coeff status")):
    """One family divisor in both bases, its grading, chi, the W_5
    coefficient at the grading, and status "pass" when they agree, else
    "fail"."""

    __slots__ = ()

    def to_json_dict(self):
        return {"divisor10": list(self.divisor10),
                "divisor5": list(self.divisor5),
                "grading": list(self.grading),
                "chi": self.chi,
                "series_coeff": self.series_coeff,
                "status": self.status}


class DelPezzoReport(namedtuple("DelPezzoReport", "entries")):
    """The DelPezzoEntry of every family divisor, as a tuple."""

    __slots__ = ()

    @property
    def passed(self):
        return all(e.status == "pass" for e in self.entries)

    @property
    def pass_count(self):
        return sum(1 for e in self.entries if e.status == "pass")

    def to_json_dict(self):
        return {"total": len(self.entries),
                "passed": self.pass_count,
                "entries": [e.to_json_dict() for e in self.entries]}


def _family_rows(series):
    """(divisor10, divisor5, grading, W_5 coefficient) of each family
    divisor.  `series` must be 5-variable and exact through the family's
    top degree, so absent terms are never misread as zeros."""
    if series.num_vars != 5:
        raise ValueError("expected a 5-variable series")
    if series.max_total_degree is None:
        raise ValueError("expected a truncated series with cap >= %d, "
                         "got an exact polynomial" % GRADING_CAP)
    if series.max_total_degree < GRADING_CAP:
        raise PrecisionError(
            "series cap %d is below the family's top degree %d"
            % (series.max_total_degree, GRADING_CAP))
    for d10 in divisor_family():
        d5 = base_change(d10)  # checks the coordinates, once
        grading = _kapranov_grading(d5)
        if any(g < 0 for g in grading) or sum(grading) > GRADING_CAP:
            raise AssertionError("family grading %r escaped the pinned box"
                                 % (grading,))
        yield d10, d5, grading, series.coefficient(grading)


def verify_against_series(series):
    """Compare chi with the W_5 coefficient for every family divisor.

    `series` must be W_5 with cap >= 24; smaller caps raise
    PrecisionError up front instead of misreading absent terms as zeros.
    """
    entries = []
    for d10, d5, grading, coeff in _family_rows(series):
        chi = _euler_characteristic(d5)
        status = "pass" if chi == coeff else "fail"
        entries.append(DelPezzoEntry(d10, d5, grading, chi, coeff, status))
    return DelPezzoReport(tuple(entries))


# ---------------------------------------------------------------------------
# recovering the quadratic form from the series alone

#: Monomial order for the fitted quadratic form: products b_i b_j,
#: 0 <= i <= j <= 5, of b = (1, a01, a02, a03, a04, a12).
MONOMIAL_ORDER = tuple((i, j) for i in range(6) for j in range(i, 6))


def quadratic_monomial_values(divisor5):
    """The 21 monomial values b_i b_j of a divisor, in MONOMIAL_ORDER."""
    return _quadratic_monomial_values(_check_coords(divisor5, 5, "basis"))


def _quadratic_monomial_values(divisor5):
    b = (1,) + divisor5
    return tuple(b[i] * b[j] for i, j in MONOMIAL_ORDER)


def riemann_roch_coefficients():
    """The 21 coefficients of chi as a quadratic form, in MONOMIAL_ORDER.

    Derived from euler_characteristic() by exact finite differences at
    0, +-e_i and e_i + e_j, so this stays in sync with the formula
    instead of duplicating its expansion.
    """
    def unit(i):
        return tuple(1 if k == i else 0 for k in range(5))

    coeffs = {(0, 0): Fraction(euler_characteristic((0,) * 5))}
    for i in range(1, 6):
        plus = euler_characteristic(unit(i - 1))
        minus = euler_characteristic(tuple(-v for v in unit(i - 1)))
        coeffs[(i, i)] = Fraction(plus + minus, 2) - coeffs[(0, 0)]
        coeffs[(0, i)] = Fraction(plus - minus, 2)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            both = euler_characteristic(tuple(
                a + b for a, b in zip(unit(i - 1), unit(j - 1))))
            coeffs[(i, j)] = (both - coeffs[(0, 0)]
                              - coeffs[(0, i)] - coeffs[(0, j)]
                              - coeffs[(i, i)] - coeffs[(j, j)])
    return tuple(coeffs[key] for key in MONOMIAL_ORDER)


def fit_quadratic_form(series):
    """Fit chi as a quadratic form in the 5 basis coordinates using only
    series coefficients at the family's gradings.

    The integer system goes to _solve_exact as it is.  Returns the 21
    coefficients in MONOMIAL_ORDER as exact Fractions.
    Raises FamilyRankError if the family does not pin the form down and
    FitInconsistencyError if no quadratic form matches.
    """
    rows = {}
    for _, d5, _, rhs in _family_rows(series):
        row = _quadratic_monomial_values(d5)
        if row in rows and rows[row] != rhs:
            raise FitInconsistencyError(
                "equal divisors with different series values at %r" % (d5,))
        rows[row] = rhs
    matrix = [list(row) + [rhs] for row, rhs in sorted(rows.items())]
    return tuple(_solve_exact(matrix, len(MONOMIAL_ORDER)))


def _solve_exact(matrix, ncols):
    """Solve an augmented integer matrix (A | b) for ncols unknowns;
    require full column rank and consistency.

    Fraction-free Gauss-Jordan (Bareiss) runs on the ncols normal
    equations (A^T A | A^T b), not on the rows of A.  rank(A^T A) =
    rank(A), so the rank verdict and number are those of A.  With full
    rank the normal equations have one solution x, which solves A x = b
    whenever anything does, so substituting x into every row decides
    consistency.  Each step replaces the entries right of the pivot
    column in every other row by (pivot*a - f*b) / previous_pivot, an
    exact division (the entries are minors); entries at and left of it
    are never read again.  With the last pivot D, x = N/D, N the last
    column.  Rows are checked in integers as a.N == b*D; Fractions
    appear only in the result.
    """
    cols = list(zip(*matrix)) or [()] * (ncols + 1)
    normal = [[0] * i + [sum(map(mul, cols[i], cj)) for cj in cols[i:]]
              for i in range(ncols)]
    for i in range(ncols):
        for j in range(i):
            normal[i][j] = normal[j][i]
    rank = 0
    previous = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, ncols) if normal[r][col]), None)
        if pivot is None:
            continue
        normal[rank], normal[pivot] = normal[pivot], normal[rank]
        prow = normal[rank]
        p = prow[col]
        for r in range(ncols):
            if r != rank:
                row = normal[r]
                f = row[col]
                row[col + 1:] = [
                    _exact_quotient(p * a - f * b, previous)
                    for a, b in zip(row[col + 1:], prow[col + 1:])]
        previous = p
        rank += 1
    if rank < ncols:
        raise FamilyRankError(
            "family only determines %d of %d quadratic coefficients"
            % (rank, ncols))
    numerators = [row[ncols] for row in normal]
    for row in matrix:
        if sum(map(mul, row, numerators)) != row[ncols] * previous:
            raise FitInconsistencyError(
                "series values are inconsistent with a quadratic form")
    return [Fraction(n, previous) for n in numerators]


def _exact_quotient(numerator, divisor):
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError("fraction-free elimination: %d is not a "
                              "multiple of %d" % (numerator, divisor))
    return quotient
