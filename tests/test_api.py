"""The public API list of the package, and rules its source keeps."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import grasshilb
from grasshilb import (caterpillar, classify_intersection, decompose,
                       delpezzo, enumerate_gradation_elements, hilbert,
                       ideal_relations)


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


def test_cli_start_up_loads_the_package_and_not_dataclasses():
    # what every grasshilb command pays before any work, in a fresh
    # interpreter: import grasshilb.cli and build the parser.  That loads
    # every package module, so no import waits inside a function, and
    # neither dataclasses nor inspect (about 6 ms to import on a 2-vCPU
    # machine, Python 3.11)
    env = dict(os.environ,
               PYTHONPATH=str(Path(grasshilb.__file__).resolve().parents[1]))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import grasshilb.cli\n"
            "grasshilb.cli.build_parser()\n"
            "print(*sorted(set(sys.modules) - before))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert {"dataclasses", "inspect"} & loaded == set()
    package = {"grasshilb." + name for name in ("cli", "polyring", "trees",
               "semigroup", "hilbert", "delpezzo", "fixtures")}
    assert package | {"fractions"} <= loaded


def _entry():
    """The first entry of verify_against_series on W_5."""
    return delpezzo.DelPezzoEntry((3, 1, 1, 1, 1, 1, 1, 1, 1, 1),
                                  (6, 4, -2, -2, 6), (6, 6, 4, 4, 4), 19, 19,
                                  "pass")


_ENTRY_REPR = ("DelPezzoEntry(divisor10=(3, 1, 1, 1, 1, 1, 1, 1, 1, 1), "
               "divisor5=(6, 4, -2, -2, 6), grading=(6, 6, 4, 4, 4), chi=19, "
               "series_coeff=19, status='pass')")
_ENTRY_JSON = {"divisor10": [3, 1, 1, 1, 1, 1, 1, 1, 1, 1],
               "divisor5": [6, 4, -2, -2, 6], "grading": [6, 6, 4, 4, 4],
               "chi": 19, "series_coeff": 19, "status": "pass"}


# (build one record, its repr, its to_json_dict or None, its str or None
# where that is the repr)
RECORDS = {
    "CheckResult": (
        lambda: hilbert.CheckResult("oracle", "pass", "2 gradings"),
        "CheckResult(name='oracle', status='pass', detail='2 gradings')",
        {"name": "oracle", "status": "pass", "detail": "2 gradings"}, None),
    "CrossReport": (
        lambda: hilbert.CrossReport(
            4, 2, (hilbert.CheckResult("oracle", "skip", ""),)),
        "CrossReport(n=4, cap=2, checks=(CheckResult(name='oracle', "
        "status='skip', detail=''),))",
        {"n": 4, "cap": 2,
         "checks": [{"name": "oracle", "status": "skip", "detail": ""}]},
        None),
    "PathMultiset": (
        lambda: decompose(caterpillar(4), (1, 1, 2, 1, 1)),
        "PathMultiset(counts=(((1, 3), 1), ((2, 4), 1)))",
        {"pairs": [{"i": 1, "j": 3, "mult": 1}, {"i": 2, "j": 4, "mult": 1}]},
        None),
    "SemigroupElement": (
        lambda: enumerate_gradation_elements(caterpillar(4), (1, 1, 1, 1))[0],
        "SemigroupElement(values=(1, 1, 0, 1, 1), decomposition="
        "PathMultiset(counts=(((1, 2), 1), ((3, 4), 1))))", None, None),
    "PathVector": (
        lambda: caterpillar(4).path(1, 3),
        "PathVector(i=1, j=3, indicator=(1, 0, 1, 1, 0))", None, None),
    "IntersectionResult": (
        lambda: classify_intersection(caterpillar(4), (1, 3), (2, 4)),
        "IntersectionResult(kind='ordered', dual=((1, 4), (2, 3)))",
        None, None),
    "IdealRelation": (
        lambda: ideal_relations(caterpillar(4))[0],
        "IdealRelation(i=1, j=2, k=3, l=4, kind='W2', t_exponent=2)",
        {"i": 1, "j": 2, "k": 3, "l": 4, "kind": "W2", "t_exponent": 2},
        "(1,2,3,4) W2 t_exponent=2"),
    "DelPezzoEntry": (_entry, _ENTRY_REPR, _ENTRY_JSON, None),
    "DelPezzoReport": (
        lambda: delpezzo.DelPezzoReport((_entry(),)),
        "DelPezzoReport(entries=(%s,))" % _ENTRY_REPR,
        {"total": 1, "passed": 1, "entries": [_ENTRY_JSON]}, None),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_result_records_are_immutable_values(name):
    build, text, json_dict, string = RECORDS[name]
    record, again = build(), build()
    assert type(record).__name__ == name
    assert repr(record) == text
    assert str(record) == (string or text)
    assert record == again and record is not again
    assert hash(record) == hash(again)
    field = re.match(r"\w+\((\w+)=", text).group(1)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    if json_dict is not None:
        assert record.to_json_dict() == json_dict
