"""Path semigroup: decomposition, membership, gradations, the oracle."""

import os
import random
import re
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

import grasshilb
from grasshilb.polyring import iter_exponents
from grasshilb.semigroup import (
    NotInSemigroupError,
    PathMultiset,
    _two_row_count,
    count_gradation,
    decompose,
    enumerate_gradation_elements,
    gradation,
    is_member,
)
from grasshilb.trees import Tree, caterpillar

from helpers import (
    all_multisets,
    brute_force_decompositions,
    random_multiset,
    random_tree,
)


def test_multiset_basics():
    m = PathMultiset.from_dict({(1, 3): 2, (2, 4): 1, (1, 2): 0})
    assert m.multiplicity((1, 3)) == 2
    assert m.multiplicity((1, 2)) == 0
    assert m.path_count() == 3
    assert m.as_dict() == {(1, 3): 2, (2, 4): 1}
    t = caterpillar(4)
    assert m.edge_vector(t) == (2, 1, 3, 2, 1)
    assert m.grading_vector(4) == (2, 1, 2, 1)


def test_multiset_json_round_trip():
    m = PathMultiset.from_dict({(1, 4): 3, (2, 3): 1})
    data = m.to_json_dict()
    assert data == {"pairs": [{"i": 1, "j": 4, "mult": 3},
                              {"i": 2, "j": 3, "mult": 1}]}
    assert PathMultiset.from_json_dict(data) == m


def test_decompose_frozen_examples():
    t4 = caterpillar(4)
    assert decompose(t4, [1, 1, 2, 1, 1]).as_dict() == {(1, 3): 1, (2, 4): 1}
    t3 = caterpillar(3)
    assert decompose(t3, [2, 2, 2]).as_dict() == \
        {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    assert decompose(t4, [0, 0, 0, 0, 0]).as_dict() == {}
    with pytest.raises(NotInSemigroupError):
        decompose(t3, [1, 0, 0])


def test_decompose_single_paths():
    for n in range(2, 7):
        t = caterpillar(n)
        for i, j in combinations(range(1, n + 1), 2):
            vec = t.path(i, j).indicator
            assert decompose(t, vec).as_dict() == {(i, j): 1}


def test_decompose_error_diagnostics():
    t = caterpillar(4)
    with pytest.raises(NotInSemigroupError):
        decompose(t, [1, 0, 0, 0, 0])
    with pytest.raises(NotInSemigroupError):
        decompose(t, [-1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        decompose(t, [1, 1, 1])


def test_non_int_inputs_are_refused():
    t = caterpillar(3)
    for call in (decompose, is_member, gradation):
        with pytest.raises(TypeError, match="1.0 on edge 1"):
            call(t, [1.0, 1, 0])
        with pytest.raises(TypeError, match="True on edge 1"):
            call(t, [True, 1, 0])
    with pytest.raises(TypeError, match="True on edge 1"):
        decompose(caterpillar(2), [True])
    with pytest.raises(TypeError, match="multiplicity 1.5"):
        PathMultiset.from_dict({(1, 2): 1.5})
    with pytest.raises(TypeError, match="multiplicity 0.0"):
        PathMultiset.from_dict({(1, 2): 0.0})
    with pytest.raises(TypeError):
        PathMultiset.from_json_dict({"pairs": [{"i": 1, "j": 2, "mult": 1.5}]})
    # a bool multiplicity would be written back as JSON true
    with pytest.raises(TypeError, match="multiplicity True"):
        PathMultiset.from_dict({(1, 2): True})
    with pytest.raises(TypeError, match="multiplicity True"):
        PathMultiset.from_json_dict({"pairs": [{"i": 1, "j": 2,
                                                "mult": True}]})
    # the pair too, which to_json_dict would write back as 1.0, "1", true
    for pair in [(1.0, 2), ("1", "2"), (True, 2)]:
        match = r"^pair %s has a non-int entry$" % re.escape(repr(pair))
        with pytest.raises(TypeError, match=match):
            PathMultiset.from_dict({pair: 1})
        with pytest.raises(TypeError, match=match):
            PathMultiset.from_json_dict({"pairs": [
                {"i": pair[0], "j": pair[1], "mult": 1}]})
    for pair in [(0, 2), (2, 1), (2, 2)]:
        with pytest.raises(ValueError, match=r"^pair %s is not 1 <= i < j$"
                                             % re.escape(repr(pair))):
            PathMultiset.from_dict({pair: 1})
    with pytest.raises(ValueError,
                       match=r"^negative multiplicity for pair \(1, 2\)$"):
        PathMultiset.from_dict({(1, 2): -1})
    with pytest.raises(TypeError, match=r"^n 3\.0 is not an int$"):
        caterpillar(3.0)
    # gradings: a float entry is refused, not counted as 0 or 1
    for lam in [(1.5, 0.5), (2.0, 2.0)]:
        with pytest.raises(TypeError, match="non-int entry"):
            count_gradation(2, lam)
    with pytest.raises(TypeError, match="non-int entry"):
        enumerate_gradation_elements(t, (1.0, 0.0, 0.0))
    # a bool entry too, though its total is an int: before any edge is named
    with pytest.raises(TypeError, match=r"grading \(True, True\) has a "
                                        "non-int entry"):
        count_gradation(2, (True, True))
    with pytest.raises(TypeError, match=r"grading \(True, True, False\) "
                                        "has a non-int entry"):
        enumerate_gradation_elements(t, (True, True, False))
    with pytest.raises(ValueError, match="expected 3 grading entries"):
        enumerate_gradation_elements(t, (1, 1))


def test_decompose_self_check_survives_optimize():
    # python -O strips assert statements; the re-sum check must still run
    script = "\n".join([
        "from grasshilb import semigroup, trees",
        "semigroup._decompose = lambda tree, values: {(1, 2): 5}",
        "try:",
        "    semigroup.decompose(trees.caterpillar(4), [1, 1, 2, 1, 1])",
        "except AssertionError:",
        "    raise SystemExit(0)",
        "raise SystemExit(1)",
    ])
    env = dict(os.environ,
               PYTHONPATH=str(Path(grasshilb.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_is_member():
    t = caterpillar(4)
    assert is_member(t, [1, 1, 2, 1, 1])
    assert is_member(t, [0, 0, 0, 0, 0])
    assert not is_member(t, [1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        is_member(t, [1, 1])


def test_gradation():
    t = caterpillar(4)
    assert gradation(t, [1, 1, 2, 1, 1]) == (1, 1, 1, 1)
    assert gradation(t, [0, 0, 0, 0, 0]) == (0, 0, 0, 0)
    assert gradation(t, t.path(1, 3).indicator) == (1, 0, 1, 0)


def test_decompose_result_is_canonical():
    rng = random.Random(301)
    for _ in range(300):
        n = rng.randint(2, 7)
        t = caterpillar(n)
        original = random_multiset(n, rng)
        x = original.edge_vector(t)
        result = decompose(t, x)
        assert result.edge_vector(t) == x
        assert result.is_canonical(t)
        assert result.grading_vector(n) == original.grading_vector(n)


def test_decompose_fixes_canonical_multisets():
    rng = random.Random(302)
    seen = 0
    for _ in range(500):
        n = rng.randint(2, 7)
        t = caterpillar(n)
        m = random_multiset(n, rng)
        if not m.is_canonical(t):
            continue
        seen += 1
        assert decompose(t, m.edge_vector(t)) == m
    assert seen > 100


def test_decompose_on_random_parsed_trees():
    # every perturbed vector is either refused or decomposed canonically
    rng = random.Random(303)
    refused = 0
    for _ in range(300):
        n = rng.randint(2, 14)
        t = random_tree(n, rng)
        x = list(random_multiset(n, rng).edge_vector(t))
        perturbed = rng.random() < 0.4
        if perturbed:
            x[rng.randrange(len(x))] += rng.choice((-1, 1, 2))
        try:
            result = decompose(t, x)
        except NotInSemigroupError:
            assert perturbed
            refused += 1
            continue
        assert result.edge_vector(t) == tuple(x)
        assert result.is_canonical(t)
    assert refused > 30


def test_is_canonical_flags_unordered_pairs():
    t = caterpillar(4)
    embracing = PathMultiset.from_dict({(1, 4): 1, (2, 3): 1})
    assert not embracing.is_canonical(t)
    ordered = PathMultiset.from_dict({(1, 3): 1, (2, 4): 1})
    assert ordered.is_canonical(t)


def test_projection_compatibility():
    # dropping the last two edges maps the (n+1)-caterpillar semigroup
    # onto the n-caterpillar one; decompose commutes with the projection
    # that relabels leaf n+1 as n and forgets (n, n+1) paths
    rng = random.Random(304)
    for _ in range(200):
        n = rng.randint(2, 6)
        big = caterpillar(n + 1)
        small = caterpillar(n)
        m = random_multiset(n + 1, rng)
        x = m.edge_vector(big)
        small_x = x[:2 * n - 3]
        big_result = decompose(big, x)
        small_result = decompose(small, small_x)
        projected = {}
        for (i, j), mult in big_result.as_dict().items():
            pair = (i, min(j, n))
            if pair[0] == pair[1]:
                continue
            projected[pair] = projected.get(pair, 0) + mult
        assert PathMultiset.from_dict(projected) == small_result


def test_uniqueness_small_scale():
    # among all multisets with a given edge vector, exactly one is
    # canonical, and decompose finds it
    rng = random.Random(305)
    t = caterpillar(5)
    for _ in range(40):
        m = random_multiset(5, rng, max_paths=4)
        x = m.edge_vector(t)
        all_decs = brute_force_decompositions(t, x)
        canonical = [d for d in all_decs
                     if PathMultiset.from_dict(d).is_canonical(t)]
        assert len(canonical) == 1
        assert PathMultiset.from_dict(canonical[0]) == decompose(t, x)


def test_count_gradation_frozen():
    assert count_gradation(4, [1, 1, 1, 1]) == 2
    assert count_gradation(5, [2, 1, 1, 1, 1]) == 3
    assert count_gradation(4, [0, 0, 0, 0]) == 1
    assert count_gradation(3, [1, 1, 0]) == 1
    assert count_gradation(4, [1, 0, 0, 0]) == 0
    assert count_gradation(4, [1, 1, 1, 0]) == 0  # odd total
    assert count_gradation(3, [-1, 1, 2]) == 0  # negative entry
    assert count_gradation(2, [3, 3]) == 1
    assert count_gradation(1, [0]) == 1
    assert count_gradation(1, [2]) == 0
    with pytest.raises(ValueError, match="expected 4 grading entries, got 3"):
        count_gradation(4, [1, 1, 0])


def test_count_gradation_validation_order():
    # a negative entry grades nothing wherever it sits, also where the
    # other entries alone would grade one multiset (even totals)
    for lam in [(-2, 1, 1), (1, -2, 1, 2), (1, 1, -2), (2, -2, 2),
                (-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, 2, 2, 2, 2)]:
        assert count_gradation(len(lam), lam) == 0, lam
    # the entry types are checked before the odd total returns 0
    for lam in [(1.0, 0, 0), (0, 1.5, 1.5), (True, 0, 0), (True, True, True),
                (1, 2, False)]:
        with pytest.raises(TypeError, match="non-int entry"):
            count_gradation(3, lam)
    # and the length before either
    for lam in [(1.0, 0), (True, True), (-1, 2), (1, 2)]:
        with pytest.raises(ValueError, match="expected 3 grading entries"):
            count_gradation(3, lam)


def test_count_gradation_with_three_or_four_nonzero_leaves():
    # every b is forced through three nonzero leaves, and from four on the
    # walk starts at the second nonzero leaf
    for n in range(3, 9):
        for m in (3, 4):
            for support in combinations(range(n), m):
                for values in product(range(1, 7), repeat=m):
                    lam = [0] * n
                    for i, v in zip(support, values):
                        lam[i] = v
                    assert count_gradation(n, lam) == _two_row_count(lam), lam


def pair_walk_count(n, lam):
    """Multisets of pairs (i, j), i < j <= n, with grading sum lam and no
    pair embracing another, built pair by pair in lexicographic order: a
    reference for count_gradation that tests each pair against the ones
    chosen before it."""
    if min(lam, default=0) < 0 or sum(lam) % 2:
        return 0
    pairs = list(combinations(range(1, n + 1), 2))
    residual = list(lam)
    chosen = []

    def rec(t):
        f = next((f for f, v in enumerate(residual, 1) if v), None)
        if f is None:
            return 1
        # pairs before leaf f's first, or ending at a used-up leaf, take
        # no multiplicity: skip them here, not by one recursive call each
        while t < len(pairs) and (pairs[t][0] < f or pairs[t][0] == f
                                  and not residual[pairs[t][1] - 1]):
            t += 1
        if t == len(pairs) or pairs[t][0] > f:
            return 0
        i, j = pairs[t]
        total = rec(t + 1)
        m_max = min(residual[i - 1], residual[j - 1])
        if any(a < i and j < b or i < a and b < j for a, b in chosen):
            return total
        chosen.append((i, j))
        for _ in range(m_max):
            residual[i - 1] -= 1
            residual[j - 1] -= 1
            total += rec(t + 1)
        residual[i - 1] += m_max
        residual[j - 1] += m_max
        chosen.pop()
        return total

    return rec(0)


def test_count_gradation_matches_pair_walk():
    gradings = [lam for n in range(1, 7) for lam in product(range(9), repeat=n)
                if sum(lam) <= 8]
    gradings += [lam for lam in product(range(7), repeat=7) if sum(lam) <= 6]
    rng = random.Random(216)
    gradings += [tuple(rng.randint(0, 3) for _ in range(n))
                 for n in range(8, 13) for _ in range(8)]
    for lam in gradings:
        assert count_gradation(len(lam), lam) == pair_walk_count(len(lam), lam), lam


def test_count_gradation_matches_closed_form_at_reach():
    for lam in ((20,) * 7, (1,) * 22, (10000,) * 4):
        assert count_gradation(len(lam), lam) == _two_row_count(lam), lam
    # the walk's time follows the count: draws counting past 20,000 are
    # passed over, the three gradings above reach further
    rng = random.Random(220)
    gradings = []
    while len(gradings) < 300:
        lam = tuple(rng.randint(0, 6) for _ in range(rng.randint(8, 14)))
        if _two_row_count(lam) <= 20000:
            gradings.append(lam)
    for lam in gradings:
        assert count_gradation(len(lam), lam) == _two_row_count(lam), lam


def test_count_gradation_matches_closed_form_on_every_grading():
    # every grading of (n, cap) = (7, 10): the walk ends at the
    # third-to-last nonzero leaf, so from three nonzero leaves on it adds
    # the length of a range of b instead of visiting each child
    gradings = list(iter_exponents(7, 10))
    assert len(gradings) == 19448
    for lam in gradings:
        assert count_gradation(7, lam) == _two_row_count(lam), lam


def test_count_gradation_has_no_dead_branches():
    # 78,156 multisets, which a walk trying every multiplicity of every
    # pair took about a minute to count
    assert count_gradation(7, (20,) * 7) == 78156


def test_count_gradation_symmetric_in_lambda():
    rng = random.Random(306)
    for _ in range(20):
        n = rng.randint(3, 6)
        lam = [rng.randint(0, 3) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [lam[perm[k]] for k in range(n)]
        assert count_gradation(n, lam) == count_gradation(n, permuted)


def test_enumerate_gradation_frozen():
    t = caterpillar(4)
    els = enumerate_gradation_elements(t, [1, 1, 1, 1])
    assert [e.values for e in els] == [(1, 1, 0, 1, 1), (1, 1, 2, 1, 1)]
    assert els[0].decomposition.as_dict() == {(1, 2): 1, (3, 4): 1}
    assert els[1].decomposition.as_dict() == {(1, 3): 1, (2, 4): 1}
    zero = enumerate_gradation_elements(t, [0, 0, 0, 0])
    assert len(zero) == 1
    assert zero[0].values == (0, 0, 0, 0, 0)
    # two leaves: one element, the path taken lam_1 times, when lam_1 = lam_2
    t2 = caterpillar(2)
    assert [(e.values, e.decomposition.as_dict())
            for e in enumerate_gradation_elements(t2, [3, 3])] == [
                ((3,), {(1, 2): 3})]
    assert enumerate_gradation_elements(t2, [1, 3]) == []


def test_enumerate_matches_count():
    rng = random.Random(307)
    for _ in range(25):
        n = rng.randint(3, 6)
        t = caterpillar(n)
        lam = [rng.randint(0, 2) for _ in range(n)]
        els = enumerate_gradation_elements(t, lam)
        assert len(els) == count_gradation(n, lam)
        assert len({e.values for e in els}) == len(els)
        for e in els:
            assert gradation(t, e.values) == tuple(lam)
            assert e.decomposition.is_canonical(t)


def test_enumerate_single_path_gradation():
    t = caterpillar(5)
    for i, j in combinations(range(1, 6), 2):
        lam = [0] * 5
        lam[i - 1] = lam[j - 1] = 1
        els = enumerate_gradation_elements(t, lam)
        assert len(els) == 1
        assert els[0].decomposition.as_dict() == {(i, j): 1}
    # 1,097 peel steps: the fibre walk must not recurse once per step
    els = enumerate_gradation_elements(caterpillar(1100), [1] + [0] * 1098 + [1])
    assert [e.decomposition.as_dict() for e in els] == [{(1, 1100): 1}]


def test_enumerate_on_general_tree_matches_count():
    # parsed random trees, and the same shapes with their leaves relabelled
    # wherever that numbering still peels
    rng = random.Random(308)
    trees = []
    for _ in range(15):
        n = rng.randint(4, 6)
        t = random_tree(n, rng)
        leaves = list(t.leaf_vertices)
        rng.shuffle(leaves)
        trees.append(t)
        try:
            trees.append(Tree(n, t.edges, leaves))
        except ValueError:
            pass
    assert len(trees) > 20
    for t in trees:
        n = t.n_leaves
        lam = tuple(rng.randint(0, 2) for _ in range(n))
        els = enumerate_gradation_elements(t, lam)
        assert len(els) == count_gradation(n, lam)
        assert len({e.values for e in els}) == len(els)
        for e in els:
            assert gradation(t, e.values) == lam
            assert e.decomposition.is_canonical(t)
            assert decompose(t, e.values) == e.decomposition


def test_count_gradation_equals_filtered_brute_force():
    # independent check: enumerate plain multisets by grading and filter
    # by the no-embracing condition
    t = caterpillar(5)
    from_brute = {}
    for m in all_multisets(5, 3):
        lam = m.grading_vector(5)
        pairs = [p for p, _ in m.counts]
        clash = False
        for a in range(len(pairs)):
            for b in range(len(pairs)):
                if a == b:
                    continue
                (i, j), (ii, jj) = pairs[a], pairs[b]
                if i < ii and jj < j:
                    clash = True
        if not clash:
            from_brute[lam] = from_brute.get(lam, 0) + 1
    for lam, expected in from_brute.items():
        assert count_gradation(5, list(lam)) == expected


def test_two_row_closed_form_matches_oracle():
    # the Kostka number K_(d,d),lam that dim checks its walk against
    gradings = [lam for n in range(2, 7) for lam in product(range(4), repeat=n)
                if sum(lam) <= 10]
    rng = random.Random(213)
    gradings += [tuple(rng.randint(0, 4) for _ in range(8)) for _ in range(40)]
    for lam in gradings:
        assert _two_row_count(lam) == count_gradation(len(lam), lam), lam
    assert _two_row_count((1,) * 30) == 9694845  # Catalan(15)
