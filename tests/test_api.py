"""The public API list of the package."""

import grasshilb


def test_all_names_are_bound_and_listed_once():
    names = grasshilb.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(grasshilb, name)] == []
    namespace = {}
    exec("from grasshilb import *", namespace)
    assert set(names) <= set(namespace)
