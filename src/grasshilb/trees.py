"""Planar 3-valent trees with circularly numbered leaves.

A tree with n >= 2 leaves has 2n-3 edges, numbered 1..2n-3.  The leaf
numbering always follows the circular (anticlockwise) order of the leaves
in a planar drawing; for parsed trees that is the left-to-right order of
``*`` in the text.

Caterpillar numbering (spine vertices v_1..v_{n-2}):

    e_1 = (leaf 1, v_1)        e_2 = (leaf 2, v_1)
    e_{2k-1} = (v_{k-1}, v_k)  e_{2k} = (leaf k+1, v_k)   for k = 2..n-2
    e_{2n-3} = (leaf n, v_{n-2})

Chosen so that dropping the last two coordinates projects the edge values
of the (n+1)-leaf caterpillar onto those of the n-leaf one, with the old
last leaf becoming the new deepest spine vertex.

The path between leaves i < j is recorded as a 0/1 indicator over the
edge numbering.  Two paths intersect exactly when they share an edge.
For four distinct endpoints, of the three ways to pair them up exactly
two give intersecting paths; each is the other's "dual", and of the two
the lexicographically smaller (as an ordered tuple of sorted pairs) is
called ordered, the larger unordered.  Pairs of paths sharing an endpoint
are always ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


class TreeParseError(ValueError):
    """Malformed tree text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s at position %d" % (message, position))
        self.position = position


@dataclass(frozen=True)
class PathVector:
    """Edge-indicator vector of the path between leaves i < j."""

    i: int
    j: int
    indicator: tuple

    @property
    def support(self):
        return frozenset(k + 1 for k, v in enumerate(self.indicator) if v)

    def __len__(self):
        return sum(self.indicator)


@dataclass(frozen=True)
class IntersectionResult:
    kind: str                 # "disjoint" | "ordered" | "unordered"
    dual: tuple | None        # the other intersecting pairing, if any

    def to_json_dict(self):
        return {"kind": self.kind,
                "dual": [list(p) for p in self.dual] if self.dual else None}


@dataclass(frozen=True)
class IdealRelation:
    """Quadratic relation attached to a quadruple i<j<k<l, with the degree
    of the degeneration parameter in front of its trailing monomial."""

    i: int
    j: int
    k: int
    l: int
    kind: str          # "W1" | "W2"
    t_exponent: int

    def to_json_dict(self):
        return {"i": self.i, "j": self.j, "k": self.k, "l": self.l,
                "kind": self.kind, "t_exponent": self.t_exponent}

    def __str__(self):
        return "(%d,%d,%d,%d) %s t_exponent=%d" % (
            self.i, self.j, self.k, self.l, self.kind, self.t_exponent)


class Tree:
    """3-valent tree with numbered leaves and numbered edges.

    Construct through caterpillar() or parse_tree(); the raw constructor
    expects a consistent vertex/edge layout.
    """

    def __init__(self, n_leaves, edges, leaf_vertices, kind="general"):
        self.n_leaves = n_leaves
        self.edges = list(edges)                  # edge k -> edges[k-1] = (u, v)
        self.leaf_vertices = list(leaf_vertices)  # leaf i -> leaf_vertices[i-1]
        self.kind = kind
        self._adj = {}
        for idx, (u, v) in enumerate(self.edges, start=1):
            self._adj.setdefault(u, []).append((v, idx))
            self._adj.setdefault(v, []).append((u, idx))
        self._validate()
        self._path_cache = {}

    def _validate(self):
        n = self.n_leaves
        if n < 2:
            raise ValueError("a tree needs at least 2 leaves")
        if len(self.edges) != 2 * n - 3:
            raise ValueError("expected %d edges, got %d" % (2 * n - 3, len(self.edges)))
        if len(self._adj) != 2 * n - 2:
            raise ValueError("expected %d vertices, got %d" % (2 * n - 2, len(self._adj)))
        leaves = set(self.leaf_vertices)
        for v, nbrs in self._adj.items():
            want = 1 if v in leaves else 3
            if len(nbrs) != want:
                raise ValueError("vertex %r has degree %d, expected %d"
                                 % (v, len(nbrs), want))

    @property
    def edge_count(self):
        return len(self.edges)

    def leaf_edge(self, i):
        """Edge number of the single edge incident to leaf i."""
        self._check_leaf(i)
        return self._adj[self.leaf_vertices[i - 1]][0][1]

    def incident_edges(self, vertex):
        """Edge numbers meeting the given vertex."""
        return [eidx for _, eidx in self._adj[vertex]]

    def _check_leaf(self, i):
        if not 1 <= i <= self.n_leaves:
            raise ValueError("leaf %d out of range 1..%d" % (i, self.n_leaves))

    def path(self, i, j):
        """Indicator vector of the path from leaf i to leaf j; needs i < j."""
        if not (1 <= i < j <= self.n_leaves):
            raise ValueError("need 1 <= i < j <= %d, got (%d, %d)"
                             % (self.n_leaves, i, j))
        cached = self._path_cache.get((i, j))
        if cached is not None:
            return cached
        start = self.leaf_vertices[i - 1]
        goal = self.leaf_vertices[j - 1]
        parent = {start: (None, None)}
        stack = [start]
        while stack:
            v = stack.pop()
            if v == goal:
                break
            for w, eidx in self._adj[v]:
                if w not in parent:
                    parent[w] = (v, eidx)
                    stack.append(w)
        indicator = [0] * self.edge_count
        v = goal
        while v != start:
            v, eidx = parent[v]
            indicator[eidx - 1] = 1
        result = PathVector(i, j, tuple(indicator))
        self._path_cache[(i, j)] = result
        return result

    def distance(self, i, j):
        """Number of edges on the path between leaves i < j."""
        return len(self.path(i, j))

    def cherries(self):
        """Vertices adjacent to exactly two leaves, as (vertex, l1, l2)
        with l1 < l2, sorted by (l1, l2)."""
        leaf_of = {v: i for i, v in enumerate(self.leaf_vertices, start=1)}
        found = []
        for v, nbrs in self._adj.items():
            if v in leaf_of:
                continue
            leaves = sorted(leaf_of[w] for w, _ in nbrs if w in leaf_of)
            if len(leaves) == 2:
                found.append((v, leaves[0], leaves[1]))
        found.sort(key=lambda t: (t[1], t[2]))
        return found

    def peel_cherry(self, vertex, l1, l2):
        """Remove leaves l1 < l2 of the cherry at `vertex`, which becomes a
        leaf of the smaller tree.

        Returns (subtree, leaf_map, edge_numbers) where leaf_map sends the
        subtree's leaf numbers to the original ones (the new leaf maps to
        l1, standing in for both), and edge_numbers[k-1] is the original
        number of the subtree's edge k.  The surviving leaves keep their
        circular order; the cherry {1, n} is rejected because no
        renumbering of the peeled tree preserves canonical decompositions
        in that case.
        """
        n = self.n_leaves
        if n < 4:
            raise ValueError("peeling needs at least 4 leaves")
        if (l1, l2) == (1, n):
            raise ValueError("refusing to peel the wrap-around cherry (1, %d)" % n)
        if l2 != l1 + 1:
            raise ValueError("cherry leaves (%d, %d) are not consecutive" % (l1, l2))
        drop_edges = {self.leaf_edge(l1), self.leaf_edge(l2)}
        drop_vertices = {self.leaf_vertices[l1 - 1], self.leaf_vertices[l2 - 1]}
        edge_numbers = [k for k in range(1, self.edge_count + 1)
                        if k not in drop_edges]
        new_edges = [self.edges[k - 1] for k in edge_numbers]
        new_leaf_vertices = []
        leaf_map = {}
        for old in range(1, n + 1):
            if old in (l1, l2):
                continue
            new = old if old < l1 else old - 1
            leaf_map[new] = old
        for new in range(1, n):
            if new == l1:
                new_leaf_vertices.append(vertex)
            else:
                new_leaf_vertices.append(self.leaf_vertices[leaf_map[new] - 1])
        leaf_map[l1] = None  # the collapsed cherry vertex
        sub = Tree(n - 1, new_edges, new_leaf_vertices, kind="general")
        if drop_vertices & set(new_leaf_vertices):
            raise AssertionError("peeled leaf vertex kept as a leaf")
        return sub, leaf_map, edge_numbers

    def __repr__(self):
        return "Tree(n_leaves=%d, kind=%r)" % (self.n_leaves, self.kind)


def caterpillar(n):
    """The caterpillar tree on n >= 2 leaves with the canonical numbering."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return Tree(2, [(0, 1)], [0, 1], kind="caterpillar")
    # leaves are vertices 0..n-1, spine vertex v_k is n-1+k
    spine = lambda k: n - 1 + k
    edges = [(0, spine(1)), (1, spine(1))]
    for k in range(2, n - 1):
        edges.append((spine(k - 1), spine(k)))
        edges.append((k, spine(k)))
    edges.append((n - 1, spine(n - 2)))
    return Tree(n, edges, list(range(n)), kind="caterpillar")


def parse_tree(text):
    """Parse nested-parenthesis tree text such as ``((*,*),(*,*))``.

    ``*`` is a leaf; ``(A,B)`` is either the top-level split across the
    root edge or an internal vertex with two children.  Leaves are
    numbered 1..n in order of appearance; edges are numbered in
    construction order (children before the edge to their parent).
    """
    pos = 0
    n_text = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n_text and text[pos] == " ":
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= n_text or text[pos] != ch:
            raise TreeParseError("expected %r" % ch, pos)
        pos += 1

    next_vertex = [0]
    leaf_vertices = []
    edges = []

    def new_vertex():
        v = next_vertex[0]
        next_vertex[0] += 1
        return v

    def parse_node():
        # returns the vertex id of the subtree root
        nonlocal pos
        skip_ws()
        if pos >= n_text:
            raise TreeParseError("unexpected end of input", pos)
        if text[pos] == "*":
            pos += 1
            v = new_vertex()
            leaf_vertices.append(v)
            return v
        if text[pos] == "(":
            pos += 1
            v = new_vertex()
            left = parse_node()
            edges.append((v, left))
            expect(",")
            right = parse_node()
            edges.append((v, right))
            expect(")")
            return v
        raise TreeParseError("expected '*' or '('", pos)

    skip_ws()
    expect("(")
    left = parse_node()
    expect(",")
    right = parse_node()
    expect(")")
    skip_ws()
    if pos != n_text:
        raise TreeParseError("trailing input", pos)
    edges.append((left, right))
    n = len(leaf_vertices)
    if n < 2:
        raise TreeParseError("a tree needs at least 2 leaves", 0)
    try:
        return Tree(n, edges, leaf_vertices, kind="general")
    except ValueError as exc:
        raise TreeParseError(str(exc), 0) from exc


def _sorted_pairing(pair_a, pair_b):
    return tuple(sorted((tuple(sorted(pair_a)), tuple(sorted(pair_b)))))


def classify_intersection(tree, pair_a, pair_b):
    """Classify how the paths of two leaf pairs meet.

    Returns IntersectionResult with kind "disjoint", "ordered" or
    "unordered"; for intersecting paths on four distinct leaves the result
    also carries the dual pairing of the same four leaves.
    """
    for i, j in (pair_a, pair_b):
        if not (1 <= i < j <= tree.n_leaves):
            raise ValueError("pair (%d, %d) is not 1 <= i < j <= %d"
                             % (i, j, tree.n_leaves))
    a = tuple(pair_a)
    b = tuple(pair_b)
    if set(a) & set(b):
        return IntersectionResult("ordered", None)
    if not (tree.path(*a).support & tree.path(*b).support):
        return IntersectionResult("disjoint", None)
    p1, p2, p3, p4 = sorted(set(a) | set(b))
    pairings = [
        ((p1, p2), (p3, p4)),
        ((p1, p3), (p2, p4)),
        ((p1, p4), (p2, p3)),
    ]
    ours = _sorted_pairing(a, b)
    others = [pg for pg in pairings if pg != ours]
    intersecting = [pg for pg in others
                    if tree.path(*pg[0]).support & tree.path(*pg[1]).support]
    if len(intersecting) != 1:
        raise AssertionError(
            "leaf numbering inconsistent with a planar embedding at %r / %r"
            % (a, b))
    dual = intersecting[0]
    kind = "ordered" if ours < dual else "unordered"
    return IntersectionResult(kind, dual)


def ideal_relations(tree):
    """One quadratic relation per quadruple i<j<k<l of leaves.

    Kind W1 when the (i,j) and (k,l) paths intersect, W2 when the (i,l)
    and (j,k) paths do; exactly one case occurs.  The t_exponent is the
    difference of path-length sums that the degeneration scales by, and is
    always positive.
    """
    out = []
    d = tree.distance
    for i, j, k, l in combinations(range(1, tree.n_leaves + 1), 4):
        if tree.path(i, j).support & tree.path(k, l).support:
            kind = "W1"
            t_exp = d(i, k) + d(j, l) - d(i, l) - d(j, k)
        elif tree.path(i, l).support & tree.path(j, k).support:
            kind = "W2"
            t_exp = d(i, l) + d(j, k) - d(i, j) - d(k, l)
        else:
            raise AssertionError("no intersecting outer pairing for quadruple "
                                 "(%d,%d,%d,%d)" % (i, j, k, l))
        if t_exp <= 0:
            raise AssertionError("non-positive t exponent for quadruple "
                                 "(%d,%d,%d,%d)" % (i, j, k, l))
        out.append(IdealRelation(i, j, k, l, kind, t_exp))
    return out
