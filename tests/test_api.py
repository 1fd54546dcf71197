"""The public API list of the package, and a rule its source keeps."""

import ast
from pathlib import Path

import grasshilb


def test_all_names_are_bound_and_listed_once():
    names = grasshilb.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(grasshilb, name)] == []
    namespace = {}
    exec("from grasshilb import *", namespace)
    assert set(names) <= set(namespace)


def test_source_checks_raise_instead_of_assert():
    # python -O strips assert statements, and a correctness check must
    # still run there
    sources = sorted(Path(grasshilb.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = ["%s:%d" % (path.name, node.lineno) for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
