"""Path semigroup: decomposition, membership, gradations, the oracle."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import grasshilb
from grasshilb.semigroup import (
    NotInSemigroupError,
    PathMultiset,
    count_gradation,
    decompose,
    enumerate_gradation_elements,
    gradation,
    is_member,
)
from grasshilb.trees import caterpillar, classify_intersection

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
    rng = random.Random(303)
    for _ in range(150):
        n = rng.randint(2, 8)
        t = random_tree(n, rng)
        m = random_multiset(n, rng)
        x = m.edge_vector(t)
        result = decompose(t, x)
        assert result.edge_vector(t) == x
        assert result.is_canonical(t)


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
    assert count_gradation(2, [3, 3]) == 1


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


def test_enumerate_on_general_tree_matches_count():
    rng = random.Random(308)
    for _ in range(15):
        n = rng.randint(4, 6)
        t = random_tree(n, rng)
        lam = [rng.randint(0, 2) for _ in range(n)]
        els = enumerate_gradation_elements(t, lam)
        assert len(els) == count_gradation(n, lam)


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
