"""The path semigroup of a 3-valent tree.

Elements are non-negative integer edge vectors expressible as sums of
leaf-to-leaf path indicators.  Every element has exactly one decomposition
in which no two chosen paths intersect in an unordered way; decompose()
finds it by peeling one cherry (a vertex with two consecutive leaves) at a
time.  With x_a, x_b the cherry's leaf-edge values and x_v the value on
its third edge, the cherry pair is used a = (x_a + x_b - x_v)/2 times, and
the x_v paths running through the cherry vertex split so that the ones
with the smallest far endpoints attach to the smaller leaf.

The gradation of an element restricts it to the leaf edges.  The number
of elements in a gradation equals the number of multisets of leaf pairs
that add up to it with no pair strictly embracing another
(i < i' < j' < j); count_gradation() counts those multisets directly,
without any tree, and serves as the independent oracle for the series
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import Tree, classify_intersection


class NotInSemigroupError(ValueError):
    """The edge vector is not a sum of path vectors; the message names the
    first constraint that failed."""


@dataclass(frozen=True)
class PathMultiset:
    """Multiset of leaf pairs with positive multiplicities."""

    counts: tuple  # sorted tuple of ((i, j), mult)

    @classmethod
    def from_dict(cls, mapping):
        items = tuple(sorted((tuple(p), m) for p, m in mapping.items() if m))
        for (i, j), m in items:
            if m < 0:
                raise ValueError("negative multiplicity for pair (%d, %d)" % (i, j))
            if i >= j:
                raise ValueError("pair (%d, %d) is not sorted" % (i, j))
        return cls(items)

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
            for k, bit in enumerate(tree.path(i, j).indicator):
                total[k] += mult * bit
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
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                if classify_intersection(tree, pairs[a], pairs[b]).kind == "unordered":
                    return False
        return True

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

    def to_json_dict(self):
        return {"values": list(self.values),
                "decomposition": self.decomposition.to_json_dict()}


def _check_values(tree, values):
    values = tuple(values)
    if len(values) != tree.edge_count:
        raise ValueError("expected %d edge values, got %d"
                         % (tree.edge_count, len(values)))
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
    result = PathMultiset.from_dict(counts)
    if result.edge_vector(tree) != values:
        raise AssertionError("decomposition %r does not add up to %r"
                             % (result.as_dict(), values))
    return result


def _decompose(tree, values):
    n = tree.n_leaves
    if n == 2:
        return {(1, 2): values[0]}
    if n == 3:
        x = [values[tree.leaf_edge(i) - 1] for i in (1, 2, 3)]
        counts = {}
        for (a, b, c) in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
            twice = x[a - 1] + x[b - 1] - x[c - 1]
            if twice % 2:
                raise NotInSemigroupError(
                    "leaf values x%d + x%d - x%d = %d is odd" % (a, b, c, twice))
            if twice < 0:
                raise NotInSemigroupError(
                    "leaf values give negative count (x%d + x%d - x%d)/2 = %d"
                    % (a, b, c, twice // 2))
            counts[(a, b)] = twice // 2
        return counts

    vertex, l1, l2 = _select_cherry(tree)
    x1 = values[tree.leaf_edge(l1) - 1]
    x2 = values[tree.leaf_edge(l2) - 1]
    third = [eidx for eidx in tree.incident_edges(vertex)
             if eidx not in (tree.leaf_edge(l1), tree.leaf_edge(l2))]
    if len(third) != 1:
        raise AssertionError("cherry vertex %d has %d non-leaf edges"
                             % (vertex, len(third)))
    xv = values[third[0] - 1]
    twice = x1 + x2 - xv
    if twice % 2:
        raise NotInSemigroupError(
            "cherry (%d, %d): x%d + x%d - x_v = %d is odd" % (l1, l2, l1, l2, twice))
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

    sub, leaf_map, edge_numbers = tree.peel_cherry(vertex, l1, l2)
    sub_values = tuple(values[k - 1] for k in edge_numbers)
    sub_counts = _decompose(sub, sub_values)

    # lift: paths ending at the collapsed vertex reattach to l1 or l2,
    # smallest far endpoints first to l1
    vn = l1
    through = []
    counts = {}
    for (i, j), mult in sub_counts.items():
        if not mult:
            continue
        if i == vn or j == vn:
            other = j if i == vn else i
            through.extend([other] * mult)
        else:
            oi, oj = leaf_map[i], leaf_map[j]
            pair = (oi, oj) if oi < oj else (oj, oi)
            counts[pair] = counts.get(pair, 0) + mult
    through.sort()
    if len(through) != y1 + y2:
        raise AssertionError(
            "cherry (%d, %d): %d through-paths lifted, expected %d"
            % (l1, l2, len(through), y1 + y2))
    for pos, other in enumerate(through):
        old = leaf_map[other]
        target = l1 if pos < y1 else l2
        pair = (old, target) if old < target else (target, old)
        counts[pair] = counts.get(pair, 0) + 1
    if a:
        counts[(l1, l2)] = counts.get((l1, l2), 0) + a
    return counts


def _select_cherry(tree):
    cherries = tree.cherries()
    if tree.kind == "caterpillar":
        # peel the deepest cherry so that dropping the last two edge
        # coordinates is the projection onto the smaller caterpillar
        want = (tree.n_leaves - 1, tree.n_leaves)
        for v, l1, l2 in cherries:
            if (l1, l2) == want:
                return v, l1, l2
        raise AssertionError("caterpillar without its last cherry")
    for v, l1, l2 in cherries:
        if (l1, l2) != (1, tree.n_leaves):
            return v, l1, l2
    raise AssertionError("no non-wrap cherry found")


def is_member(tree, values):
    """True when the edge vector lies in the path semigroup."""
    values = _check_values(tree, values)
    try:
        decompose(tree, values)
    except NotInSemigroupError:
        return False
    return True


def gradation(tree, values):
    """Restriction of an edge vector to the leaf edges, ordered by leaf."""
    values = _check_values(tree, values)
    return tuple(values[tree.leaf_edge(i) - 1] for i in range(1, tree.n_leaves + 1))


def count_gradation(n, lam):
    """Number of multisets of pairs (i, j), i < j <= n, whose grading sum
    is lam and in which no pair embraces another (i < i' < j' < j).

    Pure lattice combinatorics, independent of any tree or series; this is
    the oracle the series methods are checked against.
    """
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError("expected %d grading entries, got %d" % (n, len(lam)))
    if any(v < 0 for v in lam) or sum(lam) % 2:
        return 0
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    npairs = len(pairs)
    residual = list(lam)
    chosen = []

    def first_nonzero():
        for k, v in enumerate(residual):
            if v:
                return k + 1
        return None

    def conflicts(i, j):
        for (a, b) in chosen:
            if (a < i and j < b) or (i < a and b < j):
                return True
        return False

    def rec(t):
        f = first_nonzero()
        if f is None:
            return 1
        while t < npairs and pairs[t][0] < f:
            t += 1
        if t == npairs or pairs[t][0] > f:
            return 0
        i, j = pairs[t]
        total = rec(t + 1)
        m_max = min(residual[i - 1], residual[j - 1])
        if m_max > 0 and not conflicts(i, j):
            chosen.append((i, j))
            used = 0
            for _ in range(m_max):
                residual[i - 1] -= 1
                residual[j - 1] -= 1
                used += 1
                total += rec(t + 1)
            residual[i - 1] += used
            residual[j - 1] += used
            chosen.pop()
        return total

    return rec(0)


def enumerate_gradation_elements(tree, lam):
    """All semigroup elements with the given gradation, each with its
    canonical decomposition, in lexicographic multiset order.

    Walks multisets of leaf pairs summand by summand, discarding any
    branch whose chosen pairs intersect in an unordered way on the tree.
    """
    n = tree.n_leaves
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError("expected %d grading entries, got %d" % (n, len(lam)))
    if any(v < 0 for v in lam) or sum(lam) % 2:
        return []
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    npairs = len(pairs)
    residual = list(lam)
    chosen = []
    found = []
    unordered_cache = {}

    def is_unordered(pa, pb):
        key = (pa, pb)
        if key not in unordered_cache:
            unordered_cache[key] = (
                classify_intersection(tree, pa, pb).kind == "unordered")
        return unordered_cache[key]

    def conflicts(pair):
        return any(is_unordered(p, pair) for p, _ in chosen)

    def rec(t):
        if not any(residual):
            counts = {p: m for p, m in chosen}
            multiset = PathMultiset.from_dict(counts)
            found.append(SemigroupElement(multiset.edge_vector(tree), multiset))
            return
        f = next(k + 1 for k, v in enumerate(residual) if v)
        while t < npairs and pairs[t][0] < f:
            t += 1
        if t == npairs or pairs[t][0] > f:
            return
        i, j = pairs[t]
        rec(t + 1)
        m_max = min(residual[i - 1], residual[j - 1])
        if m_max > 0 and not conflicts((i, j)):
            used = 0
            for m in range(1, m_max + 1):
                residual[i - 1] -= 1
                residual[j - 1] -= 1
                used += 1
                chosen.append(((i, j), m))
                rec(t + 1)
                chosen.pop()
            residual[i - 1] += used
            residual[j - 1] += used

    rec(0)
    found.sort(key=lambda el: el.decomposition.counts)
    return found
