"""Planar 3-valent trees with circularly numbered leaves.

A tree with n >= 2 leaves has 2n-3 edges, numbered 1..2n-3.  The leaf
numbering always follows the circular (anticlockwise) order of the leaves
in a planar drawing; for parsed trees that is the left-to-right order of
``*`` in the text; the Tree constructor refuses any other numbering.

Caterpillar numbering (spine vertices v_1..v_{n-2}):

    e_1 = (leaf 1, v_1)        e_2 = (leaf 2, v_1)
    e_{2k-1} = (v_{k-1}, v_k)  e_{2k} = (leaf k+1, v_k)   for k = 2..n-2
    e_{2n-3} = (leaf n, v_{n-2})

Chosen so that dropping the last two coordinates projects the edge values
of the (n+1)-leaf caterpillar onto those of the n-leaf one, with the old
last leaf becoming the new deepest spine vertex.

A path is an edge mask: an int with bit k-1 set when edge k is on it.
The tree keeps the mask of each leaf's path from leaf 1, so the path
between leaves i < j is the xor of two masks; its 0/1 indicator over the
edge numbering is derived from that mask.  Two paths intersect exactly
when they share an edge, that is when their masks have a common bit.
For four distinct endpoints, of the three ways to pair them up exactly
two give intersecting paths; each is the other's "dual", and of the two
the lexicographically smaller (as an ordered tuple of sorted pairs) is
called ordered, the larger unordered.  Pairs of paths sharing an endpoint
are always ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .polyring import CapacityError, _check_int

#: Most relations ideal_relations() will list (n <= 40): one object each,
#: and C(60, 4) = 487,635 of them took 8.2 s and 858 MiB RSS as JSON.
RELATIONS_LIMIT = 100_000


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


@dataclass(frozen=True)
class IntersectionResult:
    kind: str                 # "disjoint" | "ordered" | "unordered"
    dual: tuple | None        # the other intersecting pairing, if any


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
    refuses a layout that is not a connected 3-valent tree, or a leaf
    numbering that is not planar: one whose cherries cannot be peeled down
    to three leaves.  One traversal from leaf 1 stores each leaf's edge
    mask, and path_mask(i, j) is the xor of two of them.  The path
    semigroup is decomposed on the tree itself, along the cherry peel kept
    in edge indices (peel_steps, peel_base); peel_order() lists it in the
    tree's own leaf and edge numbers.
    """

    def __init__(self, n_leaves, edges, leaf_vertices):
        self.n_leaves = n_leaves
        self.edges = list(edges)                  # edge k -> edges[k-1] = (u, v)
        self.leaf_vertices = list(leaf_vertices)  # leaf i -> leaf_vertices[i-1]
        self._adj = {}
        for idx, (u, v) in enumerate(self.edges, start=1):
            self._adj.setdefault(u, []).append((v, idx))
            self._adj.setdefault(v, []).append((u, idx))
        self._validate()
        start = self.leaf_vertices[0]
        mask = {start: 0}  # vertex -> edge mask of its path from leaf 1
        stack = [start]
        while stack:
            v = stack.pop()
            for w, eidx in self._adj[v]:
                if w not in mask:
                    mask[w] = mask[v] | 1 << (eidx - 1)
                    stack.append(w)
        if len(mask) != len(self._adj):
            raise ValueError("the edges leave %d of %d vertices unreachable"
                             % (len(self._adj) - len(mask), len(self._adj)))
        self._leaf_masks = [mask[v] for v in self.leaf_vertices]
        # peel in one stack pass of (label, vertex, the vertex it hangs
        # off, the 0-based edge it hangs from): while the top two hang off
        # one vertex, it takes their place; more than three leaves left
        # means a non-planar numbering
        steps, stack = [], []
        for label, leaf in enumerate(self.leaf_vertices, start=1):
            parent, eidx = self._adj[leaf][0]
            stack.append((label, leaf, parent, eidx - 1))
            while (len(steps) < self.n_leaves - 3 and len(stack) > 1
                   and stack[-1][2] == stack[-2][2]):
                l2, v2, vertex, e2 = stack.pop()
                l1, v1, _, e1 = stack.pop()
                edge, parent = next((eidx - 1, w) for w, eidx
                                    in self._adj[vertex] if w not in (v1, v2))
                stack.append((l1, vertex, parent, edge))
                steps.append((l1, l2, e1, e2, edge))
        if len(steps) < self.n_leaves - 3:
            ends = {}
            for label, _, parent, _ in stack:
                ends.setdefault(parent, []).append(label)
            wrap = [stack[0][0], stack[-1][0]]
            l1, l2 = min(e for e in ends.values() if len(e) == 2 and e != wrap)
            raise ValueError("cherry leaves (%d, %d) are not adjacent "
                             "among the remaining leaves" % (l1, l2))
        #: the peel in 0-based edge indices, into a vector of edge values:
        #: steps (l1, l2, e1, e2, edge), e1 and e2 the edges l1 and l2 hang
        #: from when their cherry is peeled and edge its third one, and the
        #: leaves left (three, or both of a 2-leaf tree) as (leaf, edge)
        self.peel_steps = tuple(steps)
        self.peel_base = tuple((label, edge) for label, _, _, edge in stack)

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
        if not 1 <= i <= self.n_leaves:
            raise ValueError("leaf %d out of range 1..%d" % (i, self.n_leaves))
        return self._adj[self.leaf_vertices[i - 1]][0][1]

    def path_mask(self, i, j):
        """Edge mask of the path from leaf i to leaf j; needs i < j."""
        if not (1 <= i < j <= self.n_leaves):
            raise ValueError("need 1 <= i < j <= %d, got (%d, %d)"
                             % (self.n_leaves, i, j))
        return self._leaf_masks[i - 1] ^ self._leaf_masks[j - 1]

    def path(self, i, j):
        """Indicator vector of the path from leaf i to leaf j; needs i < j."""
        mask = self.path_mask(i, j)
        return PathVector(i, j, tuple(mask >> k & 1
                                      for k in range(self.edge_count)))

    def distance(self, i, j):
        """Number of edges on the path between leaves i < j."""
        return self.path_mask(i, j).bit_count()

    def peel_order(self):
        """The cherry steps (l1, l2, edge) that reduce the tree to three
        leaves in its own leaf and edge numbers, found once when the tree
        is built: each peels the smallest cherry other than the pair of the
        smallest and largest remaining leaf, its vertex taking l1's place
        with its third edge `edge` as l1's leaf edge."""
        return [(l1, l2, edge + 1) for l1, l2, _, _, edge in self.peel_steps]

    def __repr__(self):
        return "Tree(n_leaves=%d)" % self.n_leaves


def caterpillar(n):
    """The caterpillar tree on n >= 2 leaves with the canonical numbering."""
    if _check_int(n, "n") < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return Tree(2, [(0, 1)], [0, 1])
    # leaves are vertices 0..n-1, spine vertex v_k is n-1+k
    spine = lambda k: n - 1 + k
    edges = [(0, spine(1)), (1, spine(1))]
    for k in range(2, n - 1):
        edges.append((spine(k - 1), spine(k)))
        edges.append((k, spine(k)))
    edges.append((n - 1, spine(n - 2)))
    return Tree(n, edges, list(range(n)))


def parse_tree(text):
    """Parse nested-parenthesis tree text such as ``((*,*),(*,*))``.

    ``*`` is a leaf; ``(A,B)`` is either the top-level split across the
    root edge or an internal vertex with two children.  Leaves are
    numbered 1..n in order of appearance; edges are numbered in
    construction order (children before the edge to their parent).
    Spaces are skipped.  One pass over the text with an explicit stack of
    open parentheses, so a spec of any nesting depth parses.
    """
    stack = []  # open parentheses: [vertex, or None at the top; children]
    leaf_vertices, edges = [], []
    vertices = 0
    want = "("  # the next token: "(", "node", ",", ")" or "" for the end
    tokens = [(pos, ch) for pos, ch in enumerate(text) if ch != " "]
    for pos, ch in tokens + [(len(text), "")]:
        child = None
        if want == "node":
            if ch == "*":
                child = vertices
                leaf_vertices.append(child)
            elif ch == "(":
                stack.append([vertices, []])
            else:
                raise TreeParseError("expected '*' or '('" if ch
                                     else "unexpected end of input", pos)
            vertices += 1
        elif ch != want:
            raise TreeParseError("expected %r" % want if want
                                 else "trailing input", pos)
        elif ch == "(":
            stack.append([None, []])
            want = "node"
        elif ch == ",":
            want = "node"
        elif ch == ")":
            vertex, children = stack.pop()
            if vertex is None:
                edges.append(tuple(children))
                want = ""
            else:
                child = vertex
        if child is not None:
            vertex, children = stack[-1]
            children.append(child)
            if vertex is not None:
                edges.append((vertex, child))
            want = "," if len(children) == 1 else ")"
    try:
        return Tree(len(leaf_vertices), edges, leaf_vertices)
    except ValueError as exc:
        raise TreeParseError(str(exc), 0) from exc


def classify_intersection(tree, pair_a, pair_b):
    """Classify how the paths of two leaf pairs meet.

    Returns IntersectionResult with kind "disjoint", "ordered" or
    "unordered"; for intersecting paths on four distinct leaves the result
    also carries the dual pairing of the same four leaves.  With the leaves
    p < q < r < s the planar numbering leaves one bit to read: when
    (p,q),(r,s) meets it is ordered and (p,r),(q,s) unordered, otherwise
    (p,r),(q,s) is ordered and (p,s),(q,r) unordered.
    """
    for i, j in (pair_a, pair_b):
        if not (1 <= i < j <= tree.n_leaves):
            raise ValueError("pair (%d, %d) is not 1 <= i < j <= %d"
                             % (i, j, tree.n_leaves))
    a, b = tuple(pair_a), tuple(pair_b)
    if set(a) & set(b):
        return IntersectionResult("ordered", None)
    if not tree.path_mask(*a) & tree.path_mask(*b):
        return IntersectionResult("disjoint", None)
    p, q, r, s = sorted(a + b)
    if tree.path_mask(p, q) & tree.path_mask(r, s):
        ordered, unordered = ((p, q), (r, s)), ((p, r), (q, s))
    else:
        ordered, unordered = ((p, r), (q, s)), ((p, s), (q, r))
    if tuple(sorted((a, b))) == ordered:  # a and b are sorted pairs already
        return IntersectionResult("ordered", unordered)
    return IntersectionResult("unordered", ordered)


def ideal_relations(tree):
    """One quadratic relation per quadruple i<j<k<l of leaves.

    Kind W1 when the (i,j) and (k,l) paths intersect, W2 when the (i,l)
    and (j,k) paths do; exactly one case occurs.  The t_exponent is the
    difference of path-length sums that the degeneration scales by.  By
    the four-point condition for tree metrics it is t = 2*|shared path|,
    the shared path being the intersection of the two meeting paths, so it
    is always positive.  More than RELATIONS_LIMIT relations are refused
    up front with CapacityError.
    """
    if comb(tree.n_leaves, 4) > RELATIONS_LIMIT:
        raise CapacityError("%d relations exceed the limit %d"
                            % (comb(tree.n_leaves, 4), RELATIONS_LIMIT))
    out = []
    m = tree.path_mask
    for i, j, k, l in combinations(range(1, tree.n_leaves + 1), 4):
        shared = m(i, j) & m(k, l)
        kind = "W1" if shared else "W2"
        shared = shared or m(i, l) & m(j, k)
        out.append(IdealRelation(i, j, k, l, kind, 2 * shared.bit_count()))
    return out
