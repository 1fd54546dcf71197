"""The public API list of the package, and rules its source keeps."""

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


def _source_nodes():
    """(file name, node) for every syntax node of the package's modules."""
    sources = sorted(Path(grasshilb.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    return [(path.name, node) for path in sources
            for node in ast.walk(ast.parse(path.read_text(), str(path)))]


def test_source_checks_raise_instead_of_assert():
    # python -O strips assert statements, and a correctness check must
    # still run there
    found = ["%s:%d" % (name, node.lineno) for name, node in _source_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_int_arguments_are_checked_by_type_not_isinstance():
    # an int argument must have type int itself (polyring._check_int and
    # _check_ints); isinstance(x, bool) and `bool in map(type, xs)` are the
    # spellings that let an int subclass through
    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    found = []
    for name, node in _source_nodes():
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "bool" in names(node.args[1])):
            found.append("%s:%d isinstance" % (name, node.lineno))
        elif (isinstance(node, ast.Compare) and "bool" in names(node.left)
                and any(isinstance(op, (ast.In, ast.NotIn))
                        for op in node.ops)):
            found.append("%s:%d bool in" % (name, node.lineno))
    assert found == []


def test_package_starts_no_processes_or_threads():
    # every route runs in the calling process: no module imports a
    # process or thread API, at module level or inside a function
    banned = {"concurrent", "multiprocessing", "subprocess", "threading"}
    found = []
    for name, node in _source_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += ["%s:%d %s" % (name, node.lineno, module)
                  for module in modules if module.split(".")[0] in banned]
    assert found == []
