"""Exact sparse polynomials and truncated power series over the integers.

One term store, IntPolynomial, holds both.  Terms are dicts mapping
exponent tuples to nonzero Python ints, so coefficients never overflow
and nothing is ever rounded.  A store with a total-degree cap
(``max_total_degree``) is a TruncatedSeries; sums and products keep the
smaller cap.  Terms are checked where they enter from outside (the
public constructors and from_json_dict), not on every internal result.

Canonical term order (used for printing and serialization): ascending
total degree, ties broken by descending lexicographic order on the
exponent tuple.  So ``h_2`` in two variables prints as
``z1^2 + z1*z2 + z2^2``.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement


class DimensionError(ValueError):
    """Operands disagree on the number of variables."""


class PrecisionError(ValueError):
    """A coefficient beyond the truncation cap of a series was requested."""


# ---------------------------------------------------------------------------
# exponent vectors


def _compositions(total, parts):
    """Yield all tuples of `parts` non-negative ints summing to `total`,
    in descending lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_exponents(num_vars, max_total_degree):
    """Yield every exponent tuple with total degree <= max_total_degree,
    in canonical order."""
    for d in range(max_total_degree + 1):
        yield from _compositions(d, num_vars)


def _canonical_key(exps):
    return (sum(exps), tuple(-e for e in exps))


def _check_sizes(num_vars, cap=None):
    if not isinstance(num_vars, int):
        raise TypeError("num_vars %r is not an int" % (num_vars,))
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    if cap is not None:
        if not isinstance(cap, int):
            raise TypeError("max_total_degree %r is not an int" % (cap,))
        if cap < 0:
            raise ValueError("max_total_degree must be non-negative")


def _validated_terms(num_vars, terms, cap):
    """Check terms arriving from outside the store; zeros are dropped."""
    _check_sizes(num_vars, cap)
    out = {}
    for exps, coeff in terms.items():
        exps = tuple(exps)
        if len(exps) != num_vars:
            raise DimensionError(
                "exponent tuple %r does not have %d entries" % (exps, num_vars))
        if not all(isinstance(e, int) for e in exps):
            raise TypeError("exponent tuple %r has a non-int entry" % (exps,))
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent in %r" % (exps,))
        if not isinstance(coeff, int):
            raise TypeError("coefficient %r is not an int" % (coeff,))
        if coeff:
            if cap is not None and sum(exps) > cap:
                raise PrecisionError(
                    "term of degree %d exceeds cap %d" % (sum(exps), cap))
            out[exps] = out.get(exps, 0) + coeff
            if not out[exps]:
                del out[exps]
    return out


# ---------------------------------------------------------------------------
# the term store


class IntPolynomial:
    """Sparse multivariate polynomial with arbitrary-precision integer
    coefficients; with a total-degree cap, a truncated series.  Instances
    are treated as immutable."""

    __slots__ = ("num_vars", "max_total_degree", "terms")

    def __init__(self, num_vars, terms=None):
        self._fill(num_vars, None,
                   _validated_terms(num_vars, terms or {}, None))

    def _fill(self, num_vars, cap, terms):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "max_total_degree", cap)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def _trusted(num_vars, terms, cap=None):
        """A store over terms already known to be valid for `num_vars`
        and `cap`; a TruncatedSeries when `cap` is not None."""
        obj = object.__new__(IntPolynomial if cap is None else TruncatedSeries)
        obj._fill(num_vars, cap, terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    # -- constructors

    @staticmethod
    def zero(num_vars):
        return IntPolynomial(num_vars, {})

    @staticmethod
    def one(num_vars):
        return IntPolynomial(num_vars, {(0,) * num_vars: 1})

    @staticmethod
    def monomial(num_vars, exps, coeff=1):
        return IntPolynomial(num_vars, {tuple(exps): coeff})

    @staticmethod
    def variable(num_vars, index):
        """The variable z_index, 1-indexed."""
        if not 1 <= index <= num_vars:
            raise DimensionError("variable index %d out of range" % index)
        exps = [0] * num_vars
        exps[index - 1] = 1
        return IntPolynomial.monomial(num_vars, exps)

    # -- queries

    def coefficient(self, exps):
        """Coefficient of z^exps.  For a series this raises PrecisionError
        beyond the cap instead of returning 0."""
        exps = tuple(exps)
        if len(exps) != self.num_vars:
            raise DimensionError("grading has %d entries, expected %d"
                                 % (len(exps), self.num_vars))
        cap = self.max_total_degree
        if cap is not None and sum(exps) > cap:
            raise PrecisionError(
                "degree %d is beyond the series cap %d" % (sum(exps), cap))
        return self.terms.get(exps, 0)

    def total_degree(self):
        """Largest total degree of a term, or -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_zero(self):
        return not self.terms

    # -- arithmetic

    def _operand(self, other):
        """The terms of `other` (an int or a store in as many variables)
        and the cap of the result; None when `other` is neither."""
        if isinstance(other, int):
            constant = {(0,) * self.num_vars: other} if other else {}
            return constant, self.max_total_degree
        if not isinstance(other, IntPolynomial):
            return None
        if other.num_vars != self.num_vars:
            raise DimensionError("operands have %d and %d variables"
                                 % (self.num_vars, other.num_vars))
        caps = [c for c in (self.max_total_degree, other.max_total_degree)
                if c is not None]
        return other.terms, min(caps, default=None)

    def __add__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        terms, cap = operand
        merged = _merge(self.terms, terms)
        if cap is not None:
            merged = _truncated(merged, cap)
        return IntPolynomial._trusted(self.num_vars, merged, cap)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return IntPolynomial._trusted(
            self.num_vars, {e: -c for e, c in self.terms.items()},
            self.max_total_degree)

    def __mul__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        terms, cap = operand
        return IntPolynomial._trusted(
            self.num_vars, _multiply(self.terms, terms, cap), cap)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative int")
        result = IntPolynomial.one(self.num_vars)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        return (isinstance(other, IntPolynomial)
                and self.num_vars == other.num_vars
                and self.max_total_degree == other.max_total_degree
                and self.terms == other.terms)

    def __repr__(self):
        if self.max_total_degree is None:
            return "IntPolynomial(%d, %s)" % (self.num_vars, self)
        return "TruncatedSeries(%d, %d, %s terms)" % (
            self.num_vars, self.max_total_degree, len(self.terms))

    def __str__(self):
        return format_terms(self.terms)


class TruncatedSeries(IntPolynomial):
    """Power series known exactly through a total-degree cap.

    The invariant is strict: every stored term has total degree <= cap and
    every coefficient with total degree <= cap is stored (implicitly zero
    when absent).  Asking for a coefficient beyond the cap raises
    PrecisionError rather than returning a misleading 0.
    """

    __slots__ = ()

    def __init__(self, num_vars, max_total_degree, terms=None):
        self._fill(num_vars, max_total_degree,
                   _validated_terms(num_vars, terms or {}, max_total_degree))


def _merge(terms_a, terms_b):
    out = dict(terms_a)
    for e, c in terms_b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _truncated(terms, cap):
    return {e: c for e, c in terms.items() if sum(e) <= cap}


def _multiply(terms_a, terms_b, cap):
    if len(terms_a) > len(terms_b):
        terms_a, terms_b = terms_b, terms_a
    out = {}
    degs_b = None if cap is None else {e: sum(e) for e in terms_b}
    for ea, ca in terms_a.items():
        da = sum(ea)
        for eb, cb in terms_b.items():
            if cap is not None and da + degs_b[eb] > cap:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def truncate(obj, max_total_degree):
    """Truncate a polynomial or series to the given total-degree cap,
    returning a TruncatedSeries."""
    cap = obj.max_total_degree
    _check_sizes(obj.num_vars, max_total_degree)
    if cap is not None and cap < max_total_degree:
        raise PrecisionError("cannot extend a series from cap %d to %d"
                             % (cap, max_total_degree))
    return IntPolynomial._trusted(obj.num_vars,
                                  _truncated(obj.terms, max_total_degree),
                                  max_total_degree)


# ---------------------------------------------------------------------------
# generators


def all_pairs(num_vars):
    """All (i, j) with 1 <= i < j <= num_vars, lexicographically ordered."""
    return [(i, j) for i in range(1, num_vars + 1)
            for j in range(i + 1, num_vars + 1)]


def _validate_pair(pair, num_vars):
    i, j = pair
    if not (1 <= i < j <= num_vars):
        raise DimensionError("pair (%d, %d) is not 1 <= i < j <= %d"
                             % (i, j, num_vars))
    return i, j


def _geometric_sweep(terms, num_vars, pair, cap):
    """Multiply `terms` by the expansion of 1/(1 - z_i z_j) through total
    degree `cap`.

    Uses the recurrence out[e] = in[e] + out[e - delta] with delta the
    exponent of z_i z_j, walking exponents in ascending total degree so
    the referenced entry is always already final.
    """
    i, j = _validate_pair(pair, num_vars)
    out = {}
    for e in iter_exponents(num_vars, cap):
        c = terms.get(e, 0)
        if e[i - 1] and e[j - 1]:
            prev = list(e)
            prev[i - 1] -= 1
            prev[j - 1] -= 1
            c += out.get(tuple(prev), 0)
        if c:
            out[e] = c
    return out


def geometric_expand(pairs, num_vars, max_total_degree):
    """Expansion of prod 1/(1 - z_i z_j) over the given pairs, exact through
    the total-degree cap.

    The coefficient of z^lam equals the number of ways to write lam as a
    sum of vectors e_i + e_j with multiplicity, one multiplicity per pair.
    An empty pair list gives the constant series 1.
    """
    _check_sizes(num_vars, max_total_degree)
    for p in pairs:
        _validate_pair(p, num_vars)
    terms = {(0,) * num_vars: 1}
    for p in pairs:
        terms = _geometric_sweep(terms, num_vars, p, max_total_degree)
    return IntPolynomial._trusted(num_vars, terms, max_total_degree)


def multiply_by_geometric_series(series, pair):
    """series / (1 - z_i z_j), exact through the cap of `series`."""
    terms = _geometric_sweep(series.terms, series.num_vars, pair,
                             series.max_total_degree)
    return IntPolynomial._trusted(series.num_vars, terms,
                                  series.max_total_degree)


def _sum_of_choices(num_vars, degree, choose):
    """Sum of z_k1 * ... * z_kd over the index tuples that
    choose(range(num_vars), degree) yields; 0 when degree < 0."""
    if degree < 0:
        return IntPolynomial.zero(num_vars)
    _check_sizes(num_vars)
    terms = {}
    for choice in choose(range(num_vars), degree):
        e = [0] * num_vars
        for k in choice:
            e[k] += 1
        terms[tuple(e)] = 1
    return IntPolynomial._trusted(num_vars, terms)


def elementary_symmetric(num_vars, degree):
    """The elementary symmetric polynomial sigma_degree in num_vars
    variables; 1 when degree == 0, 0 when degree < 0 or degree > num_vars."""
    return _sum_of_choices(num_vars, degree, combinations)


def complete_homogeneous(num_vars, degree):
    """The complete homogeneous symmetric polynomial h_degree in num_vars
    variables; 1 when degree == 0, 0 when degree < 0."""
    return _sum_of_choices(num_vars, degree, combinations_with_replacement)


def permute_variables(obj, perm):
    """Apply a variable permutation: the exponent of z_i moves to z_perm[i].

    `perm` is a sequence of length num_vars containing each of 1..num_vars
    exactly once; perm[i-1] is the image of i.  Satisfies
    permute(permute(p, rho), pi) == permute(p, pi o rho).
    """
    perm = tuple(perm)
    n = obj.num_vars
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("%r is not a permutation of 1..%d" % (perm, n))
    new_terms = {}
    for e, c in obj.terms.items():
        ne = [0] * n
        for idx in range(n):
            ne[perm[idx] - 1] = e[idx]
        new_terms[tuple(ne)] = c
    return IntPolynomial._trusted(n, new_terms, obj.max_total_degree)


# ---------------------------------------------------------------------------
# formatting and serialization


def _format_monomial(exps, coeff):
    factors = []
    if abs(coeff) != 1 or not any(exps):
        factors.append(str(abs(coeff)))
    for idx, e in enumerate(exps):
        if e == 0:
            continue
        if e == 1:
            factors.append("z%d" % (idx + 1))
        else:
            factors.append("z%d^%d" % (idx + 1, e))
    return "*".join(factors)


def format_terms(terms):
    """Render a term dict, polynomial, or series as text, e.g.
    ``1 - z1*z2*z3*z4``.

    Terms appear in canonical order; ``^1`` and a ``1*`` coefficient are
    elided; the zero polynomial renders as ``0``.
    """
    terms = getattr(terms, "terms", terms)
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=_canonical_key):
        c = terms[e]
        mono = _format_monomial(e, c)
        if not parts:
            parts.append(mono if c > 0 else "-" + mono)
        else:
            parts.append(("+ " if c > 0 else "- ") + mono)
    return " ".join(parts)


def to_json_dict(obj):
    """Serialize a polynomial or series.  Coefficients become decimal
    strings because they may exceed 64 bits."""
    return {
        "num_vars": obj.num_vars,
        "max_total_degree": obj.max_total_degree,
        "terms": [{"e": list(e), "c": str(obj.terms[e])}
                  for e in sorted(obj.terms, key=_canonical_key)],
    }


def from_json_dict(data):
    """Inverse of to_json_dict.  Coefficients are decimal strings; any
    other non-int coefficient is rejected, not rounded."""
    terms = {tuple(item["e"]): (int(item["c"]) if isinstance(item["c"], str)
                                else item["c"])
             for item in data["terms"]}
    cap = data.get("max_total_degree")
    if cap is None:
        return IntPolynomial(data["num_vars"], terms)
    return TruncatedSeries(data["num_vars"], cap, terms)
