"""Shared test utilities: random tree shapes, random path multisets,
brute-force decomposition search, a tree's peel rebuilt in edge indices
from its peel order, the caterpillar's embracing configurations in closed
form, inclusion-exclusion subset by subset, the elementary and complete
homogeneous symmetric polynomials, the symmetric-recursion pieces built
from their definitions and the hook coefficient as a double sum, the
recursion's variable-split step term by term, used as independent
cross-checks, and a short report of where two long texts differ."""

from functools import cache
from itertools import combinations, combinations_with_replacement
from math import comb

from grasshilb import PathMultiset, Tree, caterpillar, parse_tree, polyring
from grasshilb.polyring import IntPolynomial, geometric_expand


def first_difference(got, expected):
    """None when the texts are equal, else the first differing offset with
    some context; pytest's own diff of two long texts can take minutes."""
    if got == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    window = slice(max(0, at - 40), at + 40)
    return "offset %d of %d/%d: %r vs %r" % (
        at, len(got), len(expected), got[window], expected[window])


def random_tree_text(n_leaves, rng):
    """Nested-parentheses text for a random tree shape with n_leaves leaves.

    Every recursive split produces a 3-valent shape, so the result always
    parses.
    """
    def build(k):
        if k == 1:
            return "*"
        split = rng.randint(1, k - 1)
        return "(%s,%s)" % (build(split), build(k - split))

    if n_leaves < 2:
        raise ValueError("need at least 2 leaves")
    split = rng.randint(1, n_leaves - 1)
    return "(%s,%s)" % (build(split), build(n_leaves - split))


def random_tree(n_leaves, rng):
    return parse_tree(random_tree_text(n_leaves, rng))


def random_multiset(n_leaves, rng, max_paths=6):
    """A uniform-ish random multiset of leaf pairs, not necessarily
    canonical."""
    pairs = list(combinations(range(1, n_leaves + 1), 2))
    count = rng.randint(0, max_paths)
    counts = {}
    for _ in range(count):
        pair = rng.choice(pairs)
        counts[pair] = counts.get(pair, 0) + 1
    return PathMultiset.from_dict(counts)


def all_multisets(n_leaves, max_paths):
    """Every multiset of at most max_paths leaf pairs."""
    pairs = list(combinations(range(1, n_leaves + 1), 2))
    for size in range(max_paths + 1):
        for combo in combinations_with_replacement(pairs, size):
            counts = {}
            for pair in combo:
                counts[pair] = counts.get(pair, 0) + 1
            yield PathMultiset.from_dict(counts)


def brute_force_decompositions(tree, values):
    """All path multisets summing to the given edge vector, found by
    backtracking with no canonicity filter.  Independent of decompose()."""
    pairs = list(combinations(range(1, tree.n_leaves + 1), 2))
    paths = [tree.path(i, j).indicator for i, j in pairs]
    found = []

    def recurse(idx, residual, counts):
        if not any(residual):
            found.append(dict(counts))
            return
        if idx == len(pairs):
            return
        recurse(idx + 1, residual, counts)
        path = paths[idx]
        current = list(residual)
        mult = 0
        while all(c >= p for c, p in zip(current, path)):
            current = [c - p for c, p in zip(current, path)]
            mult += 1
            counts[pairs[idx]] = mult
            recurse(idx + 1, tuple(current), counts)
        counts.pop(pairs[idx], None)

    recurse(0, tuple(values), {})
    return found


def reference_peel_order(edges, leaf_vertices):
    """Tree.peel_order by its rule, one step at a time: take the smallest
    cherry (l1, l2) other than the pair of the smallest and largest
    remaining leaf, refuse it unless l1 and l2 are adjacent among the
    remaining leaves, and let its vertex stand in for l1.  Quadratic in the
    leaves; built from the edges and leaf vertices of a Tree alone."""
    adj = {}
    for k, (u, v) in enumerate(edges, start=1):
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))
    label = {v: i for i, v in enumerate(leaf_vertices, start=1)}

    def leaves_at(v):
        return sorted(label[w] for w, _ in adj[v] if w in label)

    inner = {v: leaves_at(v) for v in adj if v not in label}
    steps = []
    while len(label) > 3:
        wrap = [min(label.values()), max(label.values())]
        (l1, l2), vertex = min((ends, v) for v, ends in inner.items()
                               if len(ends) == 2 and ends != wrap)
        if any(l1 < i < l2 for i in label.values()):
            raise ValueError("cherry leaves (%d, %d) are not adjacent "
                             "among the remaining leaves" % (l1, l2))
        for w, k in adj[vertex]:
            if w in label:
                del label[w]
            else:
                edge, parent = k, w
        label[vertex] = l1
        del inner[vertex]
        inner[parent] = leaves_at(parent)
        steps.append((l1, l2, edge))
    return steps


def reference_peel(tree):
    """Tree.peel_order() in edge indices (0-based, into a value vector):
    the steps (l1, l2, e1, e2, edge), e1 and e2 the edges l1 and l2 hang
    from when the cherry is peeled and edge its third one, and the three
    leaves left with their edges, as sorted (leaf, edge) pairs."""
    leaf_edge = {i: tree.leaf_edge(i) - 1 for i in range(1, tree.n_leaves + 1)}
    steps = []
    for l1, l2, edge in tree.peel_order():
        steps.append((l1, l2, leaf_edge[l1], leaf_edge.pop(l2), edge - 1))
        leaf_edge[l1] = edge - 1
    return steps, sorted(leaf_edge.items())


def embracing_configurations(n):
    """All ((i,j),(i',j')) with i < i' < j' < j, one per 4-subset of 1..n:
    the unordered-intersecting pair configurations of the caterpillar."""
    return [((a, d), (b, c))
            for a, b, c, d in combinations(range(1, n + 1), 4)]


def reference_inclusion_exclusion(n, exc):
    """The numerator of numerator_inclusion_exclusion as its definition
    writes it: over every subset S of the configurations `exc`, (-1)^|S|
    times the product of z_i z_j over the distinct pairs appearing in S.
    The pairs of S, a mask over all pairs, are those of S less its lowest
    configuration, read from the table, and of that configuration."""
    pairs = list(combinations(range(1, n + 1), 2))
    config_bits = [sum(1 << pairs.index(p) for p in cfg) for cfg in exc]
    union = [0] * (1 << len(exc))
    by_union = {}
    for subset in range(len(union)):
        if subset:
            low = subset & -subset
            union[subset] = (union[subset ^ low]
                             | config_bits[low.bit_length() - 1])
        sign = -1 if bin(subset).count("1") & 1 else 1
        by_union[union[subset]] = by_union.get(union[subset], 0) + sign
    terms = {}
    for u, c in by_union.items():
        exps = [0] * n
        for b, (i, j) in enumerate(pairs):
            if u >> b & 1:
                exps[i - 1] += 1
                exps[j - 1] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return IntPolynomial(n, terms)


def _sum_of_choices(num_vars, degree, choose):
    """Sum of z_k1 * ... * z_kd over the 1-based index tuples that
    choose(range(1, num_vars + 1), degree) yields; 0 when degree < 0."""
    if degree < 0:
        return IntPolynomial.zero(num_vars)
    terms = {}
    for choice in choose(range(1, num_vars + 1), degree):
        exps = [0] * num_vars
        for k in choice:
            exps[k - 1] += 1
        terms[tuple(exps)] = 1
    return IntPolynomial(num_vars, terms)


def elementary_symmetric(num_vars, degree):
    """sigma_degree in num_vars variables: the sum of the products of
    `degree` distinct variables; 1 when degree == 0, 0 when degree < 0 or
    degree > num_vars."""
    return _sum_of_choices(num_vars, degree, combinations)


def complete_homogeneous(num_vars, degree):
    """h_degree in num_vars variables: the sum of every monomial of total
    degree `degree`; 1 when degree == 0, 0 when degree < 0."""
    return _sum_of_choices(num_vars, degree, combinations_with_replacement)


@cache
def reference_hook_sum(v, s, l):
    """H(s, l) = sum_{r=0}^{l} (-1)^r h_{s-r} sigma_r in z_1..z_v, from
    products of complete homogeneous and elementary symmetric
    polynomials."""
    total = IntPolynomial.zero(v)
    for r in range(l + 1):
        total += ((-1) ** r * complete_homogeneous(v, s - r)
                  * elementary_symmetric(v, r))
    return total


@cache
def _sigma_times_hook_sum(v, alpha, s, l):
    return elementary_symmetric(v, alpha) * reference_hook_sum(v, s, l)


def reference_coefficient_polynomial(stage, n, k, l):
    """a(k, l) of numerator_symmetric_recursion at a stage, in n
    variables, as its docstring writes it:
    sum_{beta=0}^{m-3} z_{m-1}^beta
    sum_{alpha=0}^{k+l} (-1)^alpha sigma_alpha H(k+beta-alpha, beta),
    with sigma, h and H in the v = m-2 variables z_1..z_v."""
    v = stage - 2
    total = IntPolynomial.zero(n)
    for beta in range(stage - 2):
        inner = IntPolynomial.zero(v)
        for alpha in range(k + l + 1):
            s = k + beta - alpha
            inner += (-1) ** alpha * _sigma_times_hook_sum(v, alpha, s, beta)
        attach = [0] * n
        attach[stage - 2] = beta  # z_{m-1}
        total += IntPolynomial.monomial(n, attach) * IntPolynomial(
            n, {e + (0,) * (n - v): c for e, c in inner.terms.items()})
    return total


def reference_hook_coefficient(k, beta, top, p, q):
    """c of numerator_symmetric_recursion as its docstring defines it,
    sum_{alpha=0}^{top} (-1)^alpha T_alpha with
    T_alpha = (-1)^beta sum_j C(q, j) C(p-q, alpha-j) C(p-j-1, beta) when
    k - alpha >= 1 and T_alpha = [alpha = k + beta = p = q] otherwise: a
    double sum over alpha and j, stopped at alpha = p, past which no
    alpha-subset of the support exists."""
    c = 0
    for alpha in range(min(top, p) + 1):
        if k - alpha >= 1:
            t = (-1) ** beta * sum(
                comb(q, j) * comb(p - q, alpha - j) * comb(p - j - 1, beta)
                for j in range(min(q, alpha) + 1))
        else:
            t = int(alpha == k + beta == p == q)
        c += (-1) ** alpha * t
    return c


def reference_next_series(terms, m, cap):
    """The packed terms of W_{m+1} from those of W_m, m variables, one
    output term at a time: with the z_m slot lowest, a key is r plus i
    times the key of z_m, and the coefficient of r z_m^a z_{m+1}^b is
    c_{|a-b|} + c_{|a-b|+2} + ... + c_{a+b}, one difference of a row's
    parity prefix sums."""
    low = (1 << polyring._WIDTH) - 1
    z_m = polyring._monomial_key(m, m)
    rows = {}  # r -> [0, 0, c_0, c_1, ...], then prefix sums in place
    for k, c in terms.items():
        rest = k - (k & low) * z_m
        row = rows.get(rest) or rows.setdefault(
            rest, [0] * (cap - (rest >> polyring._WIDTH * m) + 3))
        row[(k & low) + 2] = c
    out = {}
    for rest, row in rows.items():
        if len(row) == 3:  # r of degree cap: c_0 passes on as is
            out[rest << polyring._WIDTH] = row[2]
            continue
        for j in range(4, len(row)):
            row[j] += row[j - 2]
        live = 0  # bit p set once some c_i with i = p mod 2 is nonzero
        for s in range(len(row) - 2):  # s = a + b
            top = row[s + 2]
            live |= bool(top) << (s & 1)
            if live >> (s & 1) & 1:
                key = rest + s * z_m << polyring._WIDTH  # r z_m^s, shifted
                for b, c in enumerate(row[s::-2]):  # |a - b| = s - 2b
                    c = top - c
                    if c:
                        out[key - b * low] = c
                        out[key - (s - b) * low] = c
    return out


def reference_series(n, cap):
    """W_n through the cap as a chain of reference_next_series steps from
    W_2 = 1/(1 - z1 z2)."""
    terms = geometric_expand([(1, 2)], 2, cap)._terms
    for m in range(2, n):
        terms = reference_next_series(terms, m, cap)
    return IntPolynomial._trusted(n, terms, cap)
