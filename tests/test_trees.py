"""Trivalent trees, path vectors, intersection classification, relations."""

import random
from itertools import combinations

import pytest

from grasshilb.trees import (
    Tree,
    TreeParseError,
    caterpillar,
    classify_intersection,
    ideal_relations,
    parse_tree,
)

from helpers import (random_tree, random_tree_text, reference_peel,
                     reference_peel_order)


def test_caterpillar_shape():
    t = caterpillar(4)
    assert t.n_leaves == 4
    assert t.edge_count == 5
    t6 = caterpillar(6)
    assert t6.edge_count == 9
    with pytest.raises(ValueError):
        caterpillar(1)


def test_caterpillar_two_and_three_leaves():
    t2 = caterpillar(2)
    assert t2.edge_count == 1
    assert t2.path(1, 2).indicator == (1,)
    t3 = caterpillar(3)
    assert t3.edge_count == 3
    assert t3.path(1, 2).indicator == (1, 1, 0)
    assert t3.path(1, 3).indicator == (1, 0, 1)
    assert t3.path(2, 3).indicator == (0, 1, 1)


def test_caterpillar_paths_frozen():
    t = caterpillar(4)
    assert t.path(1, 3).indicator == (1, 0, 1, 1, 0)
    assert t.path(2, 4).indicator == (0, 1, 1, 0, 1)
    assert t.path(1, 2).indicator == (1, 1, 0, 0, 0)
    assert t.path(3, 4).indicator == (0, 0, 0, 1, 1)
    assert t.path(1, 4).indicator == (1, 0, 1, 0, 1)
    assert t.path(2, 3).indicator == (0, 1, 1, 1, 0)


def test_path_support_and_distance():
    t = caterpillar(5)
    for i, j in combinations(range(1, 6), 2):
        vec = t.path(i, j)
        assert sum(vec.indicator) == t.distance(i, j)
        mask = t.path_mask(i, j)
        assert [mask >> k & 1 for k in range(t.edge_count)] == list(vec.indicator)
        assert mask >> t.edge_count == 0
    assert t.distance(1, 2) == 2
    assert t.distance(1, 5) == 4
    assert t.distance(2, 4) == 4


def test_path_argument_validation():
    t = caterpillar(4)
    with pytest.raises(ValueError):
        t.path(3, 3)
    with pytest.raises(ValueError):
        t.path(3, 1)
    with pytest.raises(ValueError):
        t.path(0, 2)
    with pytest.raises(ValueError):
        t.path(1, 5)
    for leaf in (0, 5):
        with pytest.raises(ValueError,
                           match=r"^leaf %d out of range 1\.\.4$" % leaf):
            t.leaf_edge(leaf)
    # a bool read as leaf 1, a float as an index: polyring._check_int's rule
    for leaf in (True, 2.0):
        with pytest.raises(TypeError, match=r"^leaf %s is not an int$" % leaf):
            t.leaf_edge(leaf)
    for i, j in [(True, 2), (1, 2.0), (0, 2.0)]:
        match = r"^pair \(%s, %s\) has a non-int entry$" % (i, j)
        for call in (t.path_mask, t.path, t.distance):
            with pytest.raises(TypeError, match=match):
                call(i, j)
    with pytest.raises(TypeError, match=r"^pair \(True, 3\) has a non-int"):
        classify_intersection(t, (True, 3), (2, 4))
    with pytest.raises(TypeError, match=r"^pair \(2, 4\.0\) has a non-int"):
        classify_intersection(t, (1, 3), (2, 4.0))


def test_distance_at_least_two():
    rng = random.Random(201)
    for _ in range(20):
        t = random_tree(rng.randint(3, 9), rng)
        for i, j in combinations(range(1, t.n_leaves + 1), 2):
            assert t.distance(i, j) >= 2


def test_projection_of_caterpillar_numbering():
    # dropping the last two edge coordinates of caterpillar(n+1) paths
    # recovers caterpillar(n) paths, with leaves n and n+1 merging into n
    for n in range(2, 7):
        big = caterpillar(n + 1)
        small = caterpillar(n)
        for i, j in combinations(range(1, n + 1), 2):
            projected = big.path(i, j).indicator[:2 * n - 3]
            assert projected == small.path(i, j).indicator
        for i in range(1, n):
            projected = big.path(i, n + 1).indicator[:2 * n - 3]
            assert projected == small.path(i, n).indicator


def test_parse_tree_basic():
    t = parse_tree("((*,*),(*,*))")
    assert t.n_leaves == 4
    assert t.edge_count == 5
    t2 = parse_tree("(*,*)")
    assert t2.n_leaves == 2
    assert t2.edge_count == 1
    t3 = parse_tree(" ( * , ( * , * ) ) ")
    assert t3.n_leaves == 3


def test_parse_tree_leaf_numbering_by_occurrence():
    t = parse_tree("(*,(*,(*,*)))")
    # leaves numbered left to right: 3,4 form the deep cherry, 1 and 2
    # share the first internal vertex
    assert t.distance(3, 4) == 2
    assert t.distance(1, 2) == 2
    assert t.distance(1, 4) == 3
    assert t.distance(2, 3) == 3


def test_parse_tree_errors_with_position():
    with pytest.raises(TreeParseError) as info:
        parse_tree("((*),*)")
    assert info.value.position == 3
    with pytest.raises(TreeParseError) as info:
        parse_tree("(*,*")
    assert info.value.position == 4
    with pytest.raises(TreeParseError) as info:
        parse_tree("(*,*))")
    assert info.value.position == 5
    with pytest.raises(TreeParseError):
        parse_tree("*")
    with pytest.raises(TreeParseError):
        parse_tree("")
    with pytest.raises(TreeParseError):
        parse_tree("(*,*,*)")
    for text, message, position in [
            ("", "expected '('", 0),
            ("(*,*) x", "trailing input", 6),
            ("(*;*)", "expected ','", 2),
            ("((*),*)", "expected ','", 3),
            ("(*, )", "expected '*' or '('", 4),
            ("(*,(*,*)", "expected ')'", 8)]:
        with pytest.raises(TreeParseError) as info:
            parse_tree(text)
        assert str(info.value) == "%s at position %d" % (message, position)
        assert info.value.position == position


def test_parse_tree_of_any_depth():
    # 1,499 nested parentheses: one parenthesis per level of a recursion
    # would pass Python's default recursion limit
    tree = parse_tree("(*," * 1498 + "(*,*)" + ")" * 1498)
    assert tree.n_leaves == 1500
    assert tree.edge_count == 2997


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(4, edges=((1, 2), (2, 3)), leaf_vertices=(1, 2, 3, 4))
    # right vertex, edge and degree counts, but c-d is cut off from the rest
    with pytest.raises(ValueError, match="unreachable"):
        Tree(4, [("u", "v"), ("u", "v"), ("u", "a"), ("v", "b"), ("c", "d")],
             ["a", "b", "c", "d"])


def test_tree_constructor_refusals():
    with pytest.raises(ValueError, match="^a tree needs at least 2 leaves$"):
        Tree(1, [], ["a"])
    # three edges, as three leaves need, but a triangle of three vertices
    with pytest.raises(ValueError, match="^expected 4 vertices, got 3$"):
        Tree(3, [("a", "b"), ("b", "c"), ("c", "a")], ["a", "b", "c"])
    # a star: the inner vertex u has degree 5 and v is a dead end
    with pytest.raises(ValueError,
                       match="^vertex 'u' has degree 5, expected 3$"):
        Tree(4, [("a", "u"), ("b", "u"), ("c", "u"), ("d", "u"), ("u", "v")],
             ["a", "b", "c", "d"])


def test_classify_refuses_an_out_of_range_pair():
    t = caterpillar(4)
    for a, b, bad in [((1, 5), (2, 3), "1, 5"), ((1, 3), (0, 2), "0, 2"),
                      ((1, 3), (4, 2), "4, 2")]:
        with pytest.raises(ValueError,
                           match=r"^pair \(%s\) is not 1 <= i < j <= 4$" % bad):
            classify_intersection(t, a, b)


def test_classify_frozen_examples():
    t = caterpillar(4)
    r = classify_intersection(t, (1, 4), (2, 3))
    assert r.kind == "unordered"
    assert r.dual == ((1, 3), (2, 4))
    r = classify_intersection(t, (1, 3), (2, 4))
    assert r.kind == "ordered"
    assert r.dual == ((1, 4), (2, 3))
    r = classify_intersection(t, (1, 2), (3, 4))
    assert r.kind == "disjoint"
    assert r.dual is None


def test_classify_shared_endpoint():
    t = caterpillar(5)
    assert classify_intersection(t, (1, 3), (3, 5)).kind == "ordered"
    assert classify_intersection(t, (1, 3), (1, 4)).kind == "ordered"


def test_classify_symmetric_in_arguments():
    rng = random.Random(202)
    for _ in range(10):
        t = random_tree(rng.randint(4, 8), rng)
        pairs = list(combinations(range(1, t.n_leaves + 1), 2))
        for a in pairs:
            for b in pairs:
                if a == b:
                    continue
                ra = classify_intersection(t, a, b)
                rb = classify_intersection(t, b, a)
                assert ra.kind == rb.kind
                assert ra.dual == rb.dual


def test_dual_sum_identity():
    # the dual pairing carries the same total edge vector
    rng = random.Random(203)
    for _ in range(10):
        t = random_tree(rng.randint(4, 8), rng)
        for quad in combinations(range(1, t.n_leaves + 1), 4):
            i, j, k, l = quad
            for a, b in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))):
                r = classify_intersection(t, a, b)
                if r.dual is None:
                    continue
                c, d = r.dual
                left = [x + y for x, y in zip(t.path(*a).indicator,
                                              t.path(*b).indicator)]
                right = [x + y for x, y in zip(t.path(*c).indicator,
                                               t.path(*d).indicator)]
                assert left == right


def test_dual_is_involution():
    t = caterpillar(6)
    for quad in combinations(range(1, 7), 4):
        i, j, k, l = quad
        for a, b in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))):
            r = classify_intersection(t, a, b)
            if r.dual is None:
                continue
            c, d = r.dual
            back = classify_intersection(t, c, d)
            assert back.dual == (a, b)
            # exactly one member of a dual pair is ordered
            assert {r.kind, back.kind} == {"ordered", "unordered"}


def test_embracing_iff_unordered_on_caterpillar():
    for n in (5, 6):
        t = caterpillar(n)
        pairs = list(combinations(range(1, n + 1), 2))
        for a in pairs:
            for b in pairs:
                if len({*a, *b}) < 4:
                    continue
                embraces = (a[0] < b[0] and b[1] < a[1]) or \
                           (b[0] < a[0] and a[1] < b[1])
                kind = classify_intersection(t, a, b).kind
                assert (kind == "unordered") == embraces


def test_ideal_relations_frozen():
    t = caterpillar(4)
    rels = ideal_relations(t)
    assert len(rels) == 1
    rel = rels[0]
    assert (rel.i, rel.j, rel.k, rel.l) == (1, 2, 3, 4)
    assert rel.kind == "W2"
    assert rel.t_exponent == 2
    assert str(rel) == "(1,2,3,4) W2 t_exponent=2"
    assert rel.to_json_dict() == {"i": 1, "j": 2, "k": 3, "l": 4,
                                  "kind": "W2", "t_exponent": 2}
    rels = ideal_relations(parse_tree("((*,*),((*,*),*))"))
    assert [str(rel) for rel in rels] == [
        "(1,2,3,4) W2 t_exponent=4",
        "(1,2,3,5) W2 t_exponent=2",
        "(1,2,4,5) W2 t_exponent=2",
        "(1,3,4,5) W1 t_exponent=2",
        "(2,3,4,5) W1 t_exponent=2",
    ]


def test_ideal_relations_count_and_positivity():
    assert ideal_relations(caterpillar(3)) == []
    assert len(ideal_relations(caterpillar(5))) == 5
    rng = random.Random(204)
    for _ in range(15):
        t = random_tree(rng.randint(4, 9), rng)
        rels = ideal_relations(t)
        n = t.n_leaves
        assert len(rels) == n * (n - 1) * (n - 2) * (n - 3) // 24
        for rel in rels:
            assert rel.t_exponent > 0
            assert rel.kind in ("W1", "W2")


def test_ideal_relation_kind_matches_intersection():
    rng = random.Random(205)
    for _ in range(12):
        t = random_tree(rng.randint(4, 12), rng)
        for rel in ideal_relations(t):
            i, j, k, l = rel.i, rel.j, rel.k, rel.l
            first = classify_intersection(t, (i, j), (k, l)).kind
            if rel.kind == "W1":
                assert first != "disjoint"
                assert rel.t_exponent == (t.distance(i, k) + t.distance(j, l)
                                          - t.distance(i, l) - t.distance(j, k))
            else:
                assert first == "disjoint"
                assert classify_intersection(t, (i, l), (j, k)).kind != "disjoint"
                assert rel.t_exponent == (t.distance(i, l) + t.distance(j, k)
                                          - t.distance(i, j) - t.distance(k, l))


def test_peel_order_skips_wrap_pair():
    rng = random.Random(207)
    trees = [caterpillar(n) for n in range(2, 15)]
    trees += [random_tree(rng.randint(2, 14), rng) for _ in range(60)]
    for t in trees:
        remaining = list(range(1, t.n_leaves + 1))
        steps = t.peel_order()
        assert len(steps) == max(t.n_leaves - 3, 0)
        for l1, l2, edge in steps:
            assert (l1, l2) != (remaining[0], remaining[-1])
            assert remaining[remaining.index(l1) + 1] == l2
            remaining.remove(l2)


def test_peel_order_in_tree_numbers():
    # caterpillar(5): e3 joins v1 to v2, e5 joins v2 to v3
    assert caterpillar(5).peel_order() == [(1, 2, 3), (1, 3, 5)]
    assert caterpillar(3).peel_order() == []
    # leaves 1, 2 hang off the root split, whose edge is the last (e7);
    # 3, 4 form the deep cherry, joined to its parent by e5
    t = parse_tree("((*,*),((*,*),*))")
    assert t.peel_order() == [(1, 2, 7), (3, 4, 5)]


def test_stored_peel_matches_the_peel_order_in_edge_indices():
    rng = random.Random(214)
    trees = [caterpillar(n) for n in range(2, 41)]
    trees += [random_tree(n, rng) for n in range(2, 41) for _ in range(5)]
    trees.append(parse_tree("(*," * 1498 + "(*,*)" + ")" * 1498))
    raw = 0
    for _ in range(200):
        t = random_tree(rng.randint(4, 12), rng)
        leaves = list(t.leaf_vertices)
        rng.shuffle(leaves)
        try:
            trees.append(Tree(t.n_leaves, t.edges, leaves))
        except ValueError:
            continue
        raw += 1
    assert raw > 20
    for t in trees:
        assert t.peel_order() == reference_peel_order(t.edges,
                                                      t.leaf_vertices)
        steps, base = reference_peel(t)
        assert (list(t.peel_steps), list(t.peel_base)) == (steps, base)
        assert len(base) == min(t.n_leaves, 3)


def test_peel_order_rejects_non_planar_numbering():
    # leaves 1 and 3 share vertex 4, leaves 2 and 4 share vertex 5
    with pytest.raises(ValueError, match="not adjacent"):
        Tree(4, [(0, 4), (2, 4), (4, 5), (1, 5), (3, 5)], [0, 1, 2, 3])


def test_peel_order_matches_smallest_cherry_rule():
    rng = random.Random(208)
    trees = [caterpillar(n) for n in range(2, 41)]
    trees += [random_tree(rng.randint(2, 40), rng) for _ in range(1000)]
    trees.append(parse_tree("(*," * 2998 + "(*,*)" + ")" * 2998))
    for t in trees:
        assert t.peel_order() == reference_peel_order(t.edges,
                                                      t.leaf_vertices)
    # raw trees with their leaves rotated (still planar) or shuffled
    refused = 0
    for _ in range(300):
        t = random_tree(rng.randint(4, 12), rng)
        leaves = list(t.leaf_vertices)
        if rng.random() < 0.5:
            k = rng.randrange(len(leaves))
            leaves = leaves[k:] + leaves[:k]
        else:
            rng.shuffle(leaves)
        try:
            want = reference_peel_order(t.edges, leaves)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="not adjacent"):
                Tree(t.n_leaves, t.edges, leaves)
        else:
            assert Tree(t.n_leaves, t.edges, leaves).peel_order() == want
    assert 50 < refused < 250
    # leaves 1 and 5, the pair never peeled, share vertex 5; so do 2 and 4
    with pytest.raises(ValueError, match=r"cherry leaves \(2, 4\) are not"):
        Tree(5, [(0, 5), (4, 5), (1, 6), (3, 6), (5, 7), (6, 7), (2, 7)],
             [0, 1, 2, 3, 4])


def test_one_disjoint_pairing_never_the_crossing_one():
    # the four-point split that classify_intersection reads as one bit
    rng = random.Random(210)
    trees = [caterpillar(n) for n in range(4, 13)]
    trees += [random_tree(rng.randint(4, 12), rng) for _ in range(200)]
    for t in trees:
        m = t.path_mask
        for p, q, r, s in combinations(range(1, t.n_leaves + 1), 4):
            disjoint = [pg for pg in (((p, q), (r, s)), ((p, r), (q, s)),
                                      ((p, s), (q, r)))
                        if not m(*pg[0]) & m(*pg[1])]
            assert len(disjoint) == 1
            assert disjoint != [((p, r), (q, s))]


def _bfs_indicator(tree, i, j):
    """Path indicator from leaf i to leaf j by breadth-first search."""
    start, goal = tree.leaf_vertices[i - 1], tree.leaf_vertices[j - 1]
    came_by = {start: None}
    queue = [start]
    for v in queue:
        for k, (a, b) in enumerate(tree.edges):
            if v in (a, b):
                w = b if v == a else a
                if w not in came_by:
                    came_by[w] = (v, k)
                    queue.append(w)
    indicator = [0] * len(tree.edges)
    v = goal
    while v != start:
        v, k = came_by[v]
        indicator[k] = 1
    return tuple(indicator)


def test_random_trees_parse_and_validate():
    rng = random.Random(206)
    for _ in range(50):
        n = rng.randint(2, 16)
        text = random_tree_text(n, rng)
        t = parse_tree(text)
        assert t.n_leaves == n
        assert t.edge_count == 2 * n - 3
        for i, j in combinations(range(1, n + 1), 2):
            indicator = _bfs_indicator(t, i, j)
            assert t.path(i, j).indicator == indicator
            assert t.distance(i, j) == sum(indicator)
