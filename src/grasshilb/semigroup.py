"""The path semigroup of a 3-valent tree.

Elements are non-negative integer edge vectors expressible as sums of
leaf-to-leaf path indicators.  Every element has exactly one decomposition
in which no two chosen paths intersect in an unordered way; decompose()
finds it by peeling cherries (vertices with two consecutive leaves) on the
tree itself, along the peel the Tree records when it is built
(Tree.peel_steps, in edge indices), down to three leaves.
With x_a, x_b the cherry's leaf-edge values and x_v the value on its third
edge, the cherry pair is used a = (x_a + x_b - x_v)/2 times, and the x_v
paths running through the cherry vertex split so that the ones with the
smallest far endpoints attach to the smaller leaf.  Diagnostics name the
tree's own leaves.

The gradation of an element restricts it to the leaf edges.  The number
of elements in a gradation equals the number of multisets of leaf pairs
that add up to it with no pair strictly embracing another
(i < i' < j' < j); count_gradation() walks those multisets, each read
off how many of every leaf's units are right ends, without any tree, and
serves as the independent oracle for the series coefficients.  The walk
starts at the second nonzero leaf, as the first has no choice, and stops
at the third-to-last, where each choice left fixes one multiset, and adds
the number of those choices.
enumerate_gradation_elements() lists the elements of a gradation on a
tree as the lattice points of its toric fibre: edge values with the
gradation on the leaves whose three values at every inner vertex have an
even sum and satisfy the triangle inequalities, walked along the same
peel order, each decomposed into its canonical multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from .polyring import _check_int, _check_ints
from .trees import classify_intersection

#: Largest count the CLI's dim walks with count_gradation, whose time is
#: O(count * n): (1,)*22, count 58,786, takes 0.03 s on a shared 2-vCPU VM.
DIM_LIMIT = 100_000


class NotInSemigroupError(ValueError):
    """The edge vector is not a sum of path vectors; the message names the
    first constraint that failed."""


@dataclass(frozen=True)
class PathMultiset:
    """Multiset of leaf pairs with positive multiplicities."""

    counts: tuple  # sorted tuple of ((i, j), mult)

    @classmethod
    def from_dict(cls, mapping):
        items = []
        for pair, m in mapping.items():
            i, j = pair = _check_ints(pair, "pair")
            if _check_int(m, "multiplicity") < 0:
                raise ValueError("negative multiplicity for pair (%d, %d)" % pair)
            if not 1 <= i < j:
                raise ValueError("pair (%d, %d) is not 1 <= i < j" % pair)
            if m:
                items.append((pair, m))
        return cls(tuple(sorted(items)))

    def as_dict(self):
        return {pair: mult for pair, mult in self.counts}

    def multiplicity(self, pair):
        return self.as_dict().get(tuple(pair), 0)

    def path_count(self):
        return sum(m for _, m in self.counts)

    def edge_vector(self, tree):
        """Sum of mult * path indicator over the tree's edges."""
        total = [0] * tree.edge_count
        for (i, j), mult in self.counts:
            mask = tree.path_mask(i, j)
            while mask:  # add mult at each set bit, lowest first
                total[(mask & -mask).bit_length() - 1] += mult
                mask &= mask - 1
        return tuple(total)

    def grading_vector(self, n_leaves):
        """Sum of mult * (e_i + e_j); the gradation of the element."""
        total = [0] * n_leaves
        for (i, j), mult in self.counts:
            total[i - 1] += mult
            total[j - 1] += mult
        return tuple(total)

    def is_canonical(self, tree):
        """True when no two chosen pairs intersect in an unordered way."""
        pairs = [p for p, _ in self.counts]
        return not any(classify_intersection(tree, a, b).kind == "unordered"
                       for a, b in combinations(pairs, 2))

    def to_json_dict(self):
        return {"pairs": [{"i": i, "j": j, "mult": m}
                          for (i, j), m in self.counts]}

    @classmethod
    def from_json_dict(cls, data):
        return cls.from_dict({(p["i"], p["j"]): p["mult"] for p in data["pairs"]})


@dataclass(frozen=True)
class SemigroupElement:
    values: tuple
    decomposition: PathMultiset


def _check_values(tree, values):
    values = tuple(values)
    if len(values) != tree.edge_count:
        raise ValueError("expected %d edge values, got %d"
                         % (tree.edge_count, len(values)))
    for k, v in enumerate(values, start=1):
        if type(v) is not int:  # polyring._check_int's rule, naming the edge
            raise TypeError("value %r on edge %d is not an int" % (v, k))
    return values


def decompose(tree, values):
    """Canonical path decomposition of an edge vector.

    Raises NotInSemigroupError when the vector is not in the semigroup,
    naming the violated constraint.
    """
    values = _check_values(tree, values)
    for k, v in enumerate(values, start=1):
        if v < 0:
            raise NotInSemigroupError("negative value %d on edge %d" % (v, k))
    counts = _decompose(tree, values)
    result = PathMultiset(tuple(sorted((pair, m) for pair, m in counts.items()
                                       if m)))
    if result.edge_vector(tree) != values:
        raise AssertionError("decomposition %r does not add up to %r"
                             % (result.as_dict(), values))
    return result


def _decompose(tree, values):
    if tree.n_leaves == 2:
        return {(1, 2): values[0]}
    # forward: peel the cherries, the cherry vertex taking l1's place
    lifts = []
    for l1, l2, e1, e2, edge in tree.peel_steps:
        x1 = values[e1]
        x2 = values[e2]
        twice = x1 + x2 - values[edge]
        if twice % 2:
            raise NotInSemigroupError(
                "cherry (%d, %d): x%d + x%d - x_v = %d is odd"
                % (l1, l2, l1, l2, twice))
        a = twice // 2
        if a < 0:
            raise NotInSemigroupError(
                "cherry (%d, %d): pair count (x%d + x%d - x_v)/2 = %d is negative"
                % (l1, l2, l1, l2, a))
        y1 = x1 - a
        y2 = x2 - a
        if y1 < 0 or y2 < 0:
            raise NotInSemigroupError(
                "cherry (%d, %d): through-path count y%d = %d is negative"
                % (l1, l2, l1 if y1 < 0 else l2, min(y1, y2)))
        lifts.append((l1, l2, a, y1, y2))

    # base: the three remaining leaves
    x = {i: values[e] for i, e in tree.peel_base}
    p, q, r = x
    counts = {}
    for a, b, c in ((p, q, r), (p, r, q), (q, r, p)):
        twice = x[a] + x[b] - x[c]
        if twice % 2:
            raise NotInSemigroupError(
                "leaf values x%d + x%d - x%d = %d is odd" % (a, b, c, twice))
        if twice < 0:
            raise NotInSemigroupError(
                "leaf values give negative count (x%d + x%d - x%d)/2 = %d"
                % (a, b, c, twice // 2))
        counts[(a, b)] = twice // 2

    # lift, last peel first: the paths ending at the cherry vertex (now
    # l1), one run (far endpoint, multiplicity) per pair, reattach to l1 or
    # l2 (in no pair yet), the first y1 of them in endpoint order to l1
    for l1, l2, a, y1, y2 in reversed(lifts):
        through = sorted((sum(pair) - l1, counts.pop(pair))
                         for pair in [pair for pair in counts if l1 in pair])
        lifted = sum(m for _, m in through)
        if lifted != y1 + y2:
            raise AssertionError(
                "cherry (%d, %d): %d through-paths lifted, expected %d"
                % (l1, l2, lifted, y1 + y2))
        for other, m in through:
            first = min(m, y1)
            y1 -= first
            for target, k in ((l1, first), (l2, m - first)):
                if k:
                    counts[min(other, target), max(other, target)] = k
        if a:
            counts[(l1, l2)] = a
    return counts


def is_member(tree, values):
    """True when the edge vector lies in the path semigroup."""
    try:
        decompose(tree, values)
    except NotInSemigroupError:
        return False
    return True


def gradation(tree, values):
    """Restriction of an edge vector to the leaf edges, ordered by leaf."""
    values = _check_values(tree, values)
    return tuple(values[tree.leaf_edge(i) - 1] for i in range(1, tree.n_leaves + 1))


def _grading(n, lam):
    """lam as a tuple of n entries, or None when it grades nothing (an
    odd total or a negative entry); an entry whose type is not int raises
    TypeError."""
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError("expected %d grading entries, got %d" % (n, len(lam)))
    _check_ints(lam, "grading")
    if sum(lam) % 2 or min(lam, default=0) < 0:
        return None
    return lam


def count_gradation(n, lam):
    """Number of multisets of pairs (i, j), i < j <= n, whose grading sum
    is lam and in which no pair embraces another (i < i' < j' < j).

    Sorted, such a multiset has non-decreasing left ends and non-decreasing
    right ends: it is a tableau of shape (d, d), and it is fixed by b_k, the
    number of leaf k's lam_k units that are right ends.  With h_k the left
    ends still open before leaf k, the b_k are valid exactly when
    0 <= b_k <= min(lam_k, h_k), h_{k+1} = h_k + lam_k - 2 b_k, h_1 = 0 and
    h_{n+1} = 0.  The h from which 0 is still reachable form an interval
    [lo_k, hi_k], computed in one backward pass over the nonzero leaves (a
    zero entry leaves h as it is): hi_k = hi_{k+1} + lam_k and
    lo_k = max(0, lo_{k+1} - lam_k, lam_k - hi_{k+1}).  The walk keeps each
    h_{k+1} in its interval, so it has no dead branch.  At the first
    nonzero leaf h = 0 forces b = 0, so the walk starts at the second with
    h = lam_first.  At the last nonzero leaf lo = hi = lam_last, so an h
    in the interval of the one before it fixes b at both.  So at the
    third-to-last nonzero leaf each b in its range(first, last + 1) fixes
    the b of the last two leaves, one multiset each, and the walk adds the
    length of that range instead of visiting each child: it reaches that
    leaf at most once per multiset, in time O(count * n).  With at most
    three nonzero leaves every b is forced: one multiset if h_1 = 0 is in
    the first interval.  An odd total or a negative entry gives 0, once a
    wrong length (ValueError) and a non-int entry (TypeError) are refused.

    Pure lattice combinatorics, independent of any tree or series; this is
    the oracle the series methods are checked against.
    """
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError("expected %d grading entries, got %d" % (n, len(lam)))
    # polyring._check_ints' rule, inline: this runs once per grading
    if not {int}.issuperset(map(type, lam)):
        raise TypeError("grading %r has a non-int entry" % (lam,))
    if sum(lam) & 1:
        return 0
    steps = []  # (lam_k, lo_{k+1}, hi_{k+1}) per nonzero leaf, backwards
    lo = hi = 0
    for v in reversed(lam):
        if v > 0:  # a zero entry leaves h as it is
            steps.append((v, lo, hi))
            lo = v - hi if v > hi else lo - v if lo > v else 0
            hi += v
        elif v:
            return 0
    if lo:
        return 0
    if len(steps) < 4:  # at most three nonzero leaves: every b is forced
        return 1
    steps.reverse()
    end = len(steps) - 3  # the third-to-last nonzero leaf
    count = 0
    stack = [(1, steps[0][0])]  # (leaf, open left ends before it)
    push, pop = stack.append, stack.pop
    while stack:
        k, h = pop()
        v, lo, hi = steps[k]
        top = h + v  # h_{k+1} with b_k = 0; top - hi is even
        first = (top - hi) // 2 if top > hi else 0
        last = h if h < v else v
        if top - 2 * last < lo:
            last = (top - lo) // 2
        if k == end:  # each b fixes the b of the last two leaves
            count += last - first + 1
        else:
            for b in range(first, last + 1):
                push((k + 1, top - 2 * b))
    return count


def _two_row_count(lam):
    """count_gradation(len(lam), lam) in closed form, the Kostka number
    K_(d,d),lam for |lam| = 2d: a non-embracing multiset is a tableau of
    shape (d,d), left endpoints in row 1 and right ones in row 2.  By
    Jacobi-Trudi, s_(d,d) = h_d^2 - h_(d+1) h_(d-1), so the count is
    N(d) - N(d+1), N(a) the number of 0 <= mu <= lam with |mu| = a: one
    bounded-composition step per nonzero entry, by prefix sums, in
    O(nonzero entries * d)."""
    if any(v < 0 for v in lam) or sum(lam) % 2:
        return 0
    top = sum(lam) // 2 + 1
    ways = [1] + [0] * top  # ways[a] = N(a) over the entries so far
    for v in filter(None, lam):
        prefix = list(accumulate(ways))
        ways = prefix[:v + 1] + [prefix[a] - prefix[a - v - 1]
                                 for a in range(v + 1, top + 1)]
    return ways[top - 1] - ways[top]


def enumerate_gradation_elements(tree, lam):
    """All semigroup elements with the given gradation, each with its
    canonical decomposition, in lexicographic multiset order.

    Walks the toric fibre along the peel order with an explicit stack:
    a cherry whose edges carry x1 and x2 gives its third edge each value
    from |x1 - x2| to x1 + x2 of their parity, and the three leaves left
    must have an even sum and satisfy the triangle inequalities.
    """
    lam = _grading(tree.n_leaves, lam)
    if lam is None:
        return []
    if tree.n_leaves == 2:
        points = [(lam[0],)] if lam[0] == lam[1] else []
    else:
        points = []
        steps, base = tree.peel_steps, tree.peel_base
        values = [0] * tree.edge_count
        for i, v in enumerate(lam, start=1):
            values[tree.leaf_edge(i) - 1] = v
        stack = [(0, None)]  # (next step, value of the previous step's edge)
        while stack:
            k, v = stack.pop()
            if k:
                values[steps[k - 1][4]] = v
            if k < len(steps):
                x1, x2 = values[steps[k][2]], values[steps[k][3]]
                stack.extend((k + 1, w)
                             for w in range(abs(x1 - x2), x1 + x2 + 1, 2))
                continue
            x, y, z = (values[e] for _, e in base)
            if (x + y + z) % 2 == 0 and abs(x - y) <= z <= x + y:
                points.append(tuple(values))
    found = [SemigroupElement(p, decompose(tree, p)) for p in points]
    found.sort(key=lambda el: el.decomposition.counts)
    return found
