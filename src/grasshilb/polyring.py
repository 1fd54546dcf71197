"""Exact sparse polynomials and truncated power series over the integers.

One term store, IntPolynomial, holds both; with a total-degree cap
(``max_total_degree``) it is a TruncatedSeries, and sums and products
keep the smaller cap.  Coefficients are Python ints, never rounded.
Terms are checked where they enter (the public constructors and
from_json_dict), not on every internal result.  An int argument of any
public call must have type int: a bool, a float, an int subclass such
as IntEnum or a numpy int raises TypeError (_check_int, _check_ints).

Terms map a packed key to the coefficient: z1^e1 ... zn^en is one int
of n + 1 slots, _WIDTH = 16 bits each, holding e1 + ... + en in the top
slot and then e1, ..., en.  A monomial product is a key sum, the
constant term is key 0, and "total degree <= cap" is
``key < (cap + 1) << (16 * n)``.  So that no slot carries, a term, cap
or uncapped product of total degree 2**16 or more raises PrecisionError.
Exponent tuples exist only where terms enter or leave the store.

Canonical term order (printing and serialization): ascending total
degree, then descending lexicographic exponent tuple, which is
descending key.  So ``h_2`` in two variables prints as
``z1^2 + z1*z2 + z2^2``.  A sweep through a cap with more than
SWEEP_LIMIT cells, C(cap + n, n), raises CapacityError up front.

iter_json_text writes the JSON of to_json_dict with indent 2 directly,
byte for byte, and iter_text the text of format_terms, each in pieces
of _CHUNK terms, so no more than one piece is held at a time.  Both
render a term from its two exponent groups, the first n - n//2 key
slots and the last n//2, each distinct group rendered once per call;
beside the piece a call keeps only that cache.  A JSON piece is one
%-format of a repeated per-term template.  The cache is a gain where
groups of several slots repeat, as in the series and numerators of W_n
from four variables on; where groups are all distinct, or one or two
slots, it is slower than formatting each exponent anew.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from functools import cache
from math import comb


class DimensionError(ValueError):
    """Operands disagree on the number of variables."""


class PrecisionError(ValueError):
    """A coefficient beyond the truncation cap of a series was requested,
    or a total degree too large for a packed key."""


class CapacityError(RuntimeError):
    """An inclusion-exclusion expansion or a sweep would be too large."""


#: Bits of one key slot: one big-endian unsigned short ("H").
_WIDTH = 16

#: Most cells (exponents of degree <= cap) a sweep or a series may span.
SWEEP_LIMIT = 2_000_000


# ---------------------------------------------------------------------------
# exponent vectors and packed keys


def iter_exponents(num_vars, max_total_degree):
    """Yield every exponent tuple with total degree <= max_total_degree,
    in canonical order."""
    if num_vars == 0:
        if max_total_degree >= 0:
            yield ()
        return
    last = num_vars - 1
    for degree in range(max_total_degree + 1):
        e = [0] * num_vars
        e[0] = degree
        while True:
            yield tuple(e)
            # next: move one unit from the rightmost nonzero entry before
            # the last to its right neighbour, with the whole last entry
            tail = e[last]
            e[last] = 0
            k = last - 1
            while k >= 0 and not e[k]:
                k -= 1
            if k < 0:
                break
            e[k] -= 1
            e[k + 1] = tail + 1


@cache
def _layout(num_vars):
    return struct.Struct(">%dH" % (num_vars + 1))


def _pack(exps):
    """The key of an exponent sequence of total degree < 2**_WIDTH."""
    return int.from_bytes(_layout(len(exps)).pack(sum(exps), *exps), "big")


def _exponents(keys, num_vars):
    """The exponent tuples of packed `keys`, in order, lazily, from one
    unpack over the joined key bytes."""
    layout = _layout(num_vars)
    data = b"".join([k.to_bytes(layout.size, "big") for k in keys])
    return (e[1:] for e in layout.iter_unpack(data))


def _monomial_key(num_vars, *indices):
    """The key of the product of z_i over the 1-based `indices`."""
    return sum((1 << _WIDTH * num_vars) | (1 << _WIDTH * (num_vars - i))
               for i in indices)


def _check_degree(degree, what):
    if degree >> _WIDTH:
        raise PrecisionError("%s %d is past the degree limit %d"
                             % (what, degree, (1 << _WIDTH) - 1))


def _check_int(value, what):
    """`value`, refused with TypeError unless its type is int itself."""
    if type(value) is not int:
        raise TypeError("%s %r is not an int" % (what, value))
    return value


def _check_ints(values, what):
    """The tuple of `values`, each entry held to _check_int's rule."""
    values = tuple(values)
    if not {int}.issuperset(map(type, values)):
        raise TypeError("%s %r has a non-int entry" % (what, values))
    return values


def _check_sizes(num_vars, cap=None):
    if _check_int(num_vars, "num_vars") < 0:
        raise ValueError("num_vars must be non-negative")
    if cap is not None:
        if _check_int(cap, "max_total_degree") < 0:
            raise ValueError("max_total_degree must be non-negative")
        _check_degree(cap, "max_total_degree")


def _validated_terms(num_vars, terms, cap):
    """Check and pack terms arriving from outside; zeros are dropped."""
    _check_sizes(num_vars, cap)
    out = {}
    for exps, coeff in terms.items():
        exps = _check_ints(exps, "exponent tuple")
        if len(exps) != num_vars:
            raise DimensionError(
                "exponent tuple %r does not have %d entries" % (exps, num_vars))
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent in %r" % (exps,))
        if _check_int(coeff, "coefficient"):
            degree = sum(exps)
            if cap is not None and degree > cap:
                raise PrecisionError(
                    "term of degree %d exceeds cap %d" % (degree, cap))
            _check_degree(degree, "total degree")
            key = _pack(exps)
            out[key] = out.get(key, 0) + coeff
            if not out[key]:
                del out[key]
    return out


# ---------------------------------------------------------------------------
# the term store


class IntPolynomial:
    """Sparse multivariate polynomial with arbitrary-precision integer
    coefficients; with a total-degree cap, a truncated series.  Instances
    are treated as immutable."""

    __slots__ = ("num_vars", "max_total_degree", "_terms")

    def __init__(self, num_vars, terms=None):
        self._fill(num_vars, None,
                   _validated_terms(num_vars, terms or {}, None))

    def _fill(self, num_vars, cap, terms):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "max_total_degree", cap)
        object.__setattr__(self, "_terms", terms)

    @staticmethod
    def _trusted(num_vars, terms, cap=None):
        """A store over packed terms already known to be valid for
        `num_vars` and `cap`; a TruncatedSeries when `cap` is not None."""
        obj = object.__new__(IntPolynomial if cap is None else TruncatedSeries)
        obj._fill(num_vars, cap, terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @property
    def terms(self):
        """A new dict from exponent tuple to nonzero coefficient."""
        return dict(zip(_exponents(self._terms, self.num_vars),
                        self._terms.values()))

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
        _check_sizes(num_vars)
        if not 1 <= _check_int(index, "variable index") <= num_vars:
            raise DimensionError("variable index %d out of range" % index)
        return IntPolynomial._trusted(num_vars,
                                      {_monomial_key(num_vars, index): 1})

    # -- queries

    def coefficient(self, exps):
        """Coefficient of z^exps.  For a series this raises PrecisionError
        beyond the cap instead of returning 0."""
        exps = _check_ints(exps, "grading")
        if len(exps) != self.num_vars:
            raise DimensionError("grading has %d entries, expected %d"
                                 % (len(exps), self.num_vars))
        degree = sum(exps)
        cap = self.max_total_degree
        if cap is not None and degree > cap:
            raise PrecisionError(
                "degree %d is beyond the series cap %d" % (degree, cap))
        if min(exps, default=0) < 0 or degree >> _WIDTH:
            return 0  # no key holds these exponents
        return self._terms.get(_pack(exps), 0)

    def total_degree(self):
        """Largest total degree of a term, or -1 for the zero polynomial."""
        return max(self._terms, default=-1) >> _WIDTH * self.num_vars

    def is_zero(self):
        return not self._terms

    # -- arithmetic

    def _operand(self, other):
        """The packed terms of `other` (a plain int or a store in as many
        variables) and the cap of the result; None when `other` is
        neither."""
        if type(other) is int:
            return ({0: other} if other else {}), self.max_total_degree
        if not isinstance(other, IntPolynomial):
            return None
        if other.num_vars != self.num_vars:
            raise DimensionError("operands have %d and %d variables"
                                 % (self.num_vars, other.num_vars))
        caps = [c for c in (self.max_total_degree, other.max_total_degree)
                if c is not None]
        return other._terms, min(caps, default=None)

    def __add__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        terms, cap = operand
        merged = dict(self._terms)
        for k, c in terms.items():
            merged[k] = merged.get(k, 0) + c
        if cap is not None:
            merged = _truncated(merged, self.num_vars, cap)
        return IntPolynomial._trusted(self.num_vars, _nonzero(merged), cap)

    __radd__ = __add__

    def __sub__(self, other):
        # checked first: negating a bool or an IntEnum gives a plain int
        if self._operand(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return IntPolynomial._trusted(
            self.num_vars, {k: -c for k, c in self._terms.items()},
            self.max_total_degree)

    def __mul__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        terms, cap = operand
        return IntPolynomial._trusted(self.num_vars, _nonzero(_add_product(
            {}, self._terms, terms, self.num_vars, cap)), cap)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, IntPolynomial)
                and self.num_vars == other.num_vars
                and self.max_total_degree == other.max_total_degree
                and self._terms == other._terms)

    def __repr__(self):
        if self.max_total_degree is None:
            return "IntPolynomial(%d, %s)" % (self.num_vars, self)
        return "TruncatedSeries(%d, %d, %s terms)" % (
            self.num_vars, self.max_total_degree, len(self._terms))

    def __str__(self):
        return format_terms(self)


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


def _truncated(terms, num_vars, cap):
    limit = (cap + 1) << _WIDTH * num_vars
    return {k: c for k, c in terms.items() if k < limit}


def _add_product(out, terms_a, terms_b, num_vars, cap):
    """Add a * b through total degree `cap` (None: exact) into the packed
    term dict `out`, keeping cancelled sums as zeros for the caller to
    drop once.  With a cap, terms_b is sorted by key, so for each term of
    terms_a the inner loop stops before the first product past it."""
    if not terms_a or not terms_b:
        return out
    if len(terms_a) > len(terms_b):
        terms_a, terms_b = terms_b, terms_a
    shift = _WIDTH * num_vars
    if cap is None:  # no product goes past the two top degrees: no cut
        _check_degree((max(terms_a) >> shift) + (max(terms_b) >> shift),
                      "product degree")
        items_b, keys_b = terms_b.items(), None
    else:
        limit = (cap + 1) << shift
        items_b = sorted(terms_b.items())
        keys_b = [kb for kb, _ in items_b]
    get = out.get
    for ka, ca in terms_a.items():
        for kb, cb in (items_b if keys_b is None
                       else items_b[:bisect_left(keys_b, limit - ka)]):
            key = ka + kb
            out[key] = get(key, 0) + ca * cb
    return out


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c}


def truncate(obj, max_total_degree):
    """Truncate a polynomial or series to the given total-degree cap,
    returning a TruncatedSeries."""
    cap = obj.max_total_degree
    _check_sizes(obj.num_vars, max_total_degree)
    if cap is not None and cap < max_total_degree:
        raise PrecisionError("cannot extend a series from cap %d to %d"
                             % (cap, max_total_degree))
    return IntPolynomial._trusted(
        obj.num_vars, _truncated(obj._terms, obj.num_vars, max_total_degree),
        max_total_degree)


# ---------------------------------------------------------------------------
# generators


def all_pairs(num_vars):
    """All (i, j) with 1 <= i < j <= num_vars, lexicographically ordered."""
    return [(i, j) for i in range(1, num_vars + 1)
            for j in range(i + 1, num_vars + 1)]


def _validate_pair(pair, num_vars):
    i, j = _check_ints(pair, "pair")
    if not (1 <= i < j <= num_vars):
        raise DimensionError("pair (%d, %d) is not 1 <= i < j <= %d"
                             % (i, j, num_vars))
    return i, j


def _check_sweep(num_vars, cap):
    """Refuse a sweep with no cap, or over more than SWEEP_LIMIT cells,
    up front."""
    if cap is None:
        raise ValueError("expected a truncated series with a "
                         "max_total_degree cap, got an exact polynomial")
    _check_sizes(num_vars, cap)
    cells = comb(cap + num_vars, num_vars)
    if cells > SWEEP_LIMIT:
        raise CapacityError(
            "a series in %d variables through degree %d has %d cells, "
            "more than the limit %d" % (num_vars, cap, cells, SWEEP_LIMIT))


def _geometric_sweep(terms, num_vars, pairs, cap):
    """Multiply packed `terms` of total degree <= cap by the expansion of
    prod 1/(1 - z_i z_j) over `pairs` through degree `cap`.

    Per pair, in place, each nonzero out[e] of total degree <= cap - 2 is
    pushed forward onto out[e + delta], in ascending total degree, so all
    that reaches out[e] has arrived.  e + delta is always a key (nothing
    borrows), and a sum that cancels is deleted."""
    deltas = [_monomial_key(num_vars, *_validate_pair(p, num_vars))
              for p in pairs]
    _check_sweep(num_vars, cap)
    if not deltas:
        return dict(terms)
    pack, from_bytes = _layout(num_vars).pack, int.from_bytes  # _pack inlined
    cells = [from_bytes(pack(sum(e), *e), "big")
             for e in iter_exponents(num_vars, cap - 2)]
    out = dict(terms)
    get = out.get
    for delta in deltas:
        for key in cells:
            c = get(key)
            if c:
                key += delta
                c += get(key, 0)
                if c:
                    out[key] = c
                else:
                    del out[key]
    return out


def geometric_expand(pairs, num_vars, max_total_degree):
    """Expansion of prod 1/(1 - z_i z_j) over the given pairs, exact through
    the total-degree cap.

    The coefficient of z^lam equals the number of ways to write lam as a
    sum of vectors e_i + e_j with multiplicity, one multiplicity per pair.
    An empty pair list gives the constant series 1.
    """
    _check_sizes(num_vars, max_total_degree)
    terms = {0: 1}
    if pairs:
        terms = _geometric_sweep(terms, num_vars, pairs, max_total_degree)
    return IntPolynomial._trusted(num_vars, terms, max_total_degree)


def multiply_by_geometric_series(series, *pairs):
    """series / prod (1 - z_i z_j) over the given pairs, exact through the
    cap of `series`; an exact polynomial (no cap) raises ValueError."""
    terms = _geometric_sweep(series._terms, series.num_vars, pairs,
                             series.max_total_degree)
    return IntPolynomial._trusted(series.num_vars, terms,
                                  series.max_total_degree)


def multiply_by_pair_factors(series, *pairs):
    """series * prod (1 - z_i z_j) over the given pairs, exact through the
    cap of `series`: the inverse of multiply_by_geometric_series, refusing
    what it refuses.  One pass per pair over the terms, not the cells:
    each term c z^e of total degree <= cap - 2 subtracts c from
    z^e z_i z_j, and a sum that cancels is deleted."""
    num_vars, cap = series.num_vars, series.max_total_degree
    deltas = [_monomial_key(num_vars, *_validate_pair(p, num_vars))
              for p in pairs]
    _check_sweep(num_vars, cap)
    limit = (cap - 1) << _WIDTH * num_vars
    out = dict(series._terms)
    get = out.get
    for delta in deltas:
        for key, c in [(k, c) for k, c in out.items() if k < limit]:
            key += delta
            c = get(key, 0) - c
            if c:
                out[key] = c
            else:
                del out[key]
    return IntPolynomial._trusted(num_vars, out, cap)


def permute_variables(obj, perm):
    """Apply a variable permutation: the exponent of z_i moves to z_perm[i].

    `perm` is a sequence of length num_vars containing each of 1..num_vars
    exactly once; perm[i-1] is the image of i.  Satisfies
    permute(permute(p, rho), pi) == permute(p, pi o rho).
    """
    perm = _check_ints(perm, "permutation")
    n = obj.num_vars
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("%r is not a permutation of 1..%d" % (perm, n))
    rows = next(_permuted_rows(obj._terms, n, [perm]))
    keys = [int.from_bytes(row, "big") for row in rows]
    return IntPolynomial._trusted(n, dict(zip(keys, obj._terms.values())),
                                  obj.max_total_degree)


def _permuted_rows(keys, n, perms):
    """For each permutation of `perms`, the big-endian bytes of `keys`, one
    row per key in the order of `keys`, with the exponent of z_i moved to
    z_perm[i].

    Slot i of a key (0: the degree, i: z_i) moves to slot perm[i], one
    column at a time over the joined key bytes, read into slots once for
    all permutations: whole slots move, so the byte order of the array
    does not matter."""
    size = _layout(n).size
    slots = array("H", b"".join([k.to_bytes(size, "big") for k in keys]))
    moved = array("H", slots)  # the degree slot never moves
    rows = struct.Struct("%ds" % size * len(keys)).unpack
    for perm in perms:
        for i, j in enumerate(perm, start=1):
            moved[j::n + 1] = slots[i::n + 1]
        yield rows(moved.tobytes())


# ---------------------------------------------------------------------------
# formatting and serialization

#: Terms that iter_json_text and iter_text render per piece: it bounds the
#: text held at once, and each JSON piece is one %-format.
_CHUNK = 2048


def _canonical_keys(obj):
    """The keys of a store in canonical order: the plain key order is
    ascending degree, so each degree block is reversed in place, its end
    found by bisection."""
    keys = sorted(obj._terms)
    shift = _WIDTH * obj.num_vars
    start = 0
    while start < len(keys):
        end = bisect_left(keys, ((keys[start] >> shift) + 1) << shift, start)
        keys[start:end] = keys[start:end][::-1]
        start = end
    return keys


def _canonical_terms(obj):
    """The (exponent tuple, coefficient) pairs of a store in canonical
    order."""
    keys = _canonical_keys(obj)
    return list(zip(_exponents(keys, obj.num_vars),
                    map(obj._terms.__getitem__, keys)))


class _Groups(dict):
    """The renderings of one exponent group, its `size` slots from z_first
    on, by the group's key bytes, each made on first use by the function
    renderer(first, size) gives for the group's exponent tuple."""

    def __init__(self, renderer, first, size):
        super().__init__()
        self.render = renderer(first, size)
        self.unpack = struct.Struct(">%dH" % size).unpack

    def __missing__(self, group):
        text = self[group] = self.render(self.unpack(group))
        return text


def _group_runs(obj, renderer):
    """The canonical keys of a store in runs of at most _CHUNK, each with
    one list per exponent group of its terms' renderings of that group.
    A key's groups are its first n - n//2 exponent slots (z1 on) and its
    last n//2, an empty group left out; each distinct group is rendered
    once per call, as _Groups renders it."""
    n = obj.num_vars
    cut = n - n // 2  # the first group is z1..z_cut
    spans = [(first, size) for first, size in ((1, cut), (cut + 1, n // 2))
             if size]
    groups = [_Groups(renderer, first, size) for first, size in spans]
    term = "2x" + "".join(["%ds" % (2 * size) for _, size in spans])
    keys = _canonical_keys(obj)
    size = _layout(n).size
    for start in range(0, len(keys), _CHUNK):
        run = keys[start:start + _CHUNK]
        data = struct.unpack(">" + term * len(run),  # 2x skips the degree
                             b"".join([k.to_bytes(size, "big") for k in run]))
        yield run, [list(map(g.__getitem__, data[i::len(groups)]))
                    for i, g in enumerate(groups)]


def _text_factors(first, size):
    names = ["*z%d" % i for i in range(first, first + size)]
    return lambda exps: "".join([z if e == 1 else "%s^%d" % (z, e)
                                 for z, e in zip(names, exps) if e])


def iter_text(obj):
    """The text of format_terms in pieces of at most _CHUNK terms.  A
    term's monomial is its exponent groups' factors, each led by "*"."""
    if not obj._terms:
        yield "0"
        return
    coefficient = obj._terms.__getitem__
    sep = ""
    for run, columns in _group_runs(obj, _text_factors):
        parts = []
        for c, *groups in zip(map(coefficient, run), *columns):
            m = "".join(groups)
            m = (m[1:] or "1") if c == 1 or c == -1 else "%d%s" % (abs(c), m)
            parts.append(("+ " if c > 0 else "- ") + m)
        if not sep:  # the first term: no "+ ", and "-" without the space
            first = parts[0]
            parts[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        yield sep
        yield " ".join(parts)
        sep = " "


def format_terms(obj):
    """Render a polynomial or series as text, e.g. ``1 - z1*z2*z3*z4``.

    Terms appear in canonical order; ``^1`` and a ``1*`` coefficient are
    elided; the zero polynomial renders as ``0``.
    """
    return "".join(iter_text(obj))


def to_json_dict(obj):
    """Serialize a polynomial or series.  Coefficients become decimal
    strings because they may exceed 64 bits."""
    return {
        "num_vars": obj.num_vars,
        "max_total_degree": obj.max_total_degree,
        "terms": [{"e": list(e), "c": str(c)}
                  for e, c in _canonical_terms(obj)],
    }


def _json_rows(first, size):
    return ",\n".join(["        %d"] * size).__mod__


def iter_json_text(obj):
    """``json.dumps(to_json_dict(obj), indent=2)`` in pieces, one per
    _CHUNK terms, each one %-format of a repeated per-term template: the
    rows of the term's exponent groups and its coefficient."""
    cap = obj.max_total_degree
    head = ('{\n  "num_vars": %d,\n  "max_total_degree": %s,\n  "terms": '
            % (obj.num_vars, "null" if cap is None else cap))
    if not obj._terms:
        yield head + "[]\n}"
        return
    coefficient = obj._terms.__getitem__
    sep = head + "[\n"
    for run, columns in _group_runs(obj, _json_rows):
        width = len(columns) + 1
        exps = ("[\n%s\n      ]" % ",\n".join(["%s"] * len(columns))
                if columns else "[]")
        template = '    {\n      "e": %s,\n      "c": "%%d"\n    }' % exps
        values = [None] * (width * len(run))
        for i, column in enumerate(columns):
            values[i::width] = column
        values[width - 1::width] = map(coefficient, run)
        yield sep
        yield ",\n".join([template] * len(run)) % tuple(values)
        sep = ",\n"
    yield "\n  ]\n}"


def from_json_dict(data):
    """Inverse of to_json_dict.  A coefficient neither an int nor a decimal
    string is refused, not rounded; so is an exponent vector listed twice."""
    terms = {tuple(item["e"]): (int(item["c"]) if isinstance(item["c"], str)
                                else item["c"])
             for item in data["terms"]}
    if len(terms) != len(data["terms"]):
        raise ValueError("terms list an exponent vector twice")
    cap = data.get("max_total_degree")
    if cap is None:
        return IntPolynomial(data["num_vars"], terms)
    return TruncatedSeries(data["num_vars"], cap, terms)
