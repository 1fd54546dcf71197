"""Command-line interface.

Subcommands:
  series      truncated Hilbert series W_n up to a total-degree cap
  numerator   numerator polynomial F_n (inclusion-exclusion or the
              conjectural symmetric recursion)
  dim         dimension of a single gradation
  decompose   canonical path decomposition of a semigroup element
  relations   quadratic ideal relations of a tree
  verify      cross-validation of the series methods, or the del Pezzo
              Riemann-Roch sweep
  fixtures    built-in golden numerators n=2..5

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure (a `verify cross` route refused for capacity is
a skip, not a failure; a del Pezzo fit that no quadratic form matches
is a failure), 2 usage or parse error, 3 capacity exceeded,
4 internal error (the traceback goes to stderr).
Output is deterministic byte-for-byte, and every `--format json` output
is the text of `json.dumps(..., indent=2)`.  `series`, `numerator` and
`relations` write it by %-templates (see `_emit_terms` and
`cmd_relations`); the other commands call json.dumps.
`main` parses with the one parser `build_parser` returns, built on the
first call and reused by every later call in the process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain

from . import delpezzo, fixtures, hilbert, semigroup, trees
from . import polyring
from .polyring import CapacityError, PrecisionError, format_terms
from .trees import TreeParseError

INDEX_NOTE = ("variables are z1..zn (1-indexed); formulations indexed "
              "from z0 correspond via z_k -> z_(k+1)")


# One relation's row in the JSON list of `relations`, a %-format of its
# fields in order, at the depth where the list nests it.
_RELATION_ROW = ('    {\n      "i": %d,\n      "j": %d,\n      "k": %d,\n'
                 '      "l": %d,\n      "kind": "%s",\n'
                 '      "t_exponent": %d\n    }')


def _emit(args, text_lines, json_obj):
    """Print the requested format; `text_lines` and `json_obj` are
    callables, so only that one is built.  `json_obj` returns an object
    for json.dumps, which writes the small objects of `dim`, `decompose`,
    `verify` and `fixtures`.  A polynomial or series goes through
    _emit_terms; cmd_relations writes its own."""
    if args.format == "json":
        print(json.dumps(json_obj(), indent=2))
    else:
        for line in text_lines():
            print(line)


def _emit_terms(args, obj):
    """Write a polynomial or series in the requested format to stdout
    piece by piece, then one newline, so its whole text is never held:
    the pieces of polyring.iter_json_text or polyring.iter_text."""
    write = sys.stdout.write
    for piece in (polyring.iter_json_text(obj) if args.format == "json"
                  else polyring.iter_text(obj)):
        write(piece)
    write("\n")


def _parse_int_list(raw, what):
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise ValueError("%s must be comma-separated integers, got %r"
                         % (what, raw))


def _load_tree(spec):
    try:
        return trees.parse_tree(spec)
    except TreeParseError as exc:
        raise ValueError("bad tree spec: %s" % exc)


def cmd_series(args):
    if args.method == "recursion":
        series = hilbert.series_by_recursion(args.n, args.max_degree)
    else:
        numerator = hilbert.numerator_inclusion_exclusion(args.n)
        series = hilbert.series_from_numerator(numerator, args.max_degree)
    _emit_terms(args, series)
    return 0


def cmd_numerator(args):
    if args.method == "ie":
        tree = _load_tree(args.tree) if args.tree else None
        numerator = hilbert.numerator_inclusion_exclusion(args.n, tree=tree)
    else:
        if args.tree:
            raise ValueError("--tree only applies to --method ie")
        numerator = hilbert.numerator_symmetric_recursion(args.n)
    _emit_terms(args, numerator)
    return 0


def cmd_dim(args):
    grading = _parse_int_list(args.grading, "--grading")
    if len(grading) != args.n:
        raise ValueError("--grading needs %d entries, got %d"
                         % (args.n, len(grading)))
    if any(g < 0 for g in grading):
        raise ValueError("--grading entries must be non-negative")
    if args.method == "oracle":
        # the Kostka closed form sizes the walk up front and checks it after
        cells = sum(1 for g in grading if g) * (sum(grading) // 2 + 1)
        if cells > polyring.SWEEP_LIMIT:
            raise CapacityError("the closed form spans %d cells, more than "
                                "the limit %d" % (cells, polyring.SWEEP_LIMIT))
        expected = semigroup._two_row_count(grading)
        if expected > semigroup.DIM_LIMIT:
            raise CapacityError("dimension %d exceeds the limit %d of the "
                                "oracle walk" % (expected, semigroup.DIM_LIMIT))
        value = semigroup.count_gradation(args.n, grading)
        if value != expected:
            raise AssertionError("oracle count %d, closed form %d"
                                 % (value, expected))
    else:
        series = hilbert.series_by_recursion(args.n, sum(grading))
        value = series.coefficient(tuple(grading))
    _emit(args, lambda: [str(value)],
          lambda: {"n": args.n, "grading": grading, "dim": value})
    return 0


def cmd_decompose(args):
    tree = _load_tree(args.tree)
    values = _parse_int_list(args.values, "--values")
    expected = 2 * tree.n_leaves - 3
    if len(values) != expected:
        raise ValueError("--values needs %d entries for a %d-leaf tree, "
                         "got %d" % (expected, tree.n_leaves, len(values)))
    try:
        multiset = semigroup.decompose(tree, values)
    except semigroup.NotInSemigroupError as exc:
        _emit(args, lambda: ["not in semigroup: %s" % exc],
              lambda: {"member": False, "reason": str(exc)})
        return 0
    body = ", ".join("(%d,%d): %d" % (i, j, mult)
                     for (i, j), mult in multiset.counts)
    _emit(args, lambda: ["{%s}" % body],
          lambda: {"member": True, "decomposition": multiset.to_json_dict()})
    return 0


def cmd_relations(args):
    tree = _load_tree(args.tree)
    relations = trees.ideal_relations(tree)
    if args.format == "json":
        # _RELATION_ROW once per relation, filled by one % over every field
        rows = ",\n".join([_RELATION_ROW] * len(relations)) % tuple(
            chain.from_iterable(relations))
        print('{\n  "n_leaves": %d,\n  "relations": %s\n}' % (
            tree.n_leaves, "[\n%s\n  ]" % rows if relations else "[]"))
    else:
        for relation in relations:
            print(relation)
    return 0


def cmd_verify(args):
    """Run the `verify` subparser's suite, a function of the arguments to
    (header lines, CheckResults, verdict, JSON builder); exit 1 on FAIL."""
    header, checks, passed, json_obj = args.suite(args)
    _emit(args, lambda: header + [
        "%s: %s%s" % (c.name, c.status, c.detail and " (%s)" % c.detail)
        for c in checks] + ["result: " + ("PASS" if passed else "FAIL")],
        json_obj)
    return 0 if passed else 1


def cross_suite(args):
    report = hilbert.cross_validate(args.n, args.max_degree)
    return (["n=%d cap=%d" % (report.n, report.cap)], report.checks,
            report.passed, report.to_json_dict)


def delpezzo_suite(args):
    """Family chi against W_5 as the header, the quadratic fit as the check."""
    series = hilbert.series_by_recursion(5, delpezzo.GRADING_CAP)
    report = delpezzo.verify_against_series(series)
    header = ["family: %d/%d pass" % (report.pass_count, len(report.entries))]
    header += ["  fail at grading %s: chi=%d series=%d" % (
        ",".join(map(str, e.grading)), e.chi, e.series_coeff)
        for e in report.entries if e.status != "pass"]
    try:
        fitted = delpezzo.fit_quadratic_form(series)
    except (delpezzo.FamilyRankError, delpezzo.FitInconsistencyError) as exc:
        fit = {"status": "fail", "detail": str(exc)}
    else:
        ok = fitted == delpezzo.riemann_roch_coefficients()
        fit = {"status": "pass" if ok else "fail",
               "coefficients": [str(c) for c in fitted]}
    check = hilbert.CheckResult("quadratic fit", fit["status"],
                                fit.get("detail", ""))
    return (header, (check,), report.passed and check.status == "pass",
            lambda: dict(report.to_json_dict(), quadratic_fit=fit))


def cmd_fixtures(args):
    golden = [(n, fixtures.golden_numerator(n)) for n in fixtures.GOLDEN_RANGE]
    _emit(args, lambda: ["# " + INDEX_NOTE] + [
        "n=%d: %s" % (n, format_terms(poly)) for n, poly in golden],
        lambda: {"note": INDEX_NOTE, "numerators": [
            {"n": n, "polynomial": polyring.to_json_dict(poly)}
            for n, poly in golden]})
    return 0


def _at_least(name, low, message):
    """Ints >= low; argparse's `invalid <name> value` names the type."""
    def convert(raw):
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(message)
        return value
    convert.__name__ = name
    return convert


_positive_leaves = _at_least("_positive_leaves", 2, "need at least 2 leaves")
_job_count = _at_least("_job_count", 1, "--jobs must be >= 1")
_degree_cap = _at_least("_degree_cap", 0, "degree cap must be >= 0")


@cache
def build_parser():
    """The argument parser of the `grasshilb` command, built on the first
    call.  Every later call returns the same parser, the one `main`
    shares across its calls in the process; callers must not mutate it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text",
                        help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="grasshilb",
        description="Multigraded Hilbert series of the Grassmannian of "
                    "planes, path semigroups on trivalent trees, and the "
                    "del Pezzo Riemann-Roch cross-check.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", parents=[common],
                       help="truncated series W_n")
    p.add_argument("--n", type=_positive_leaves, required=True,
                   help="number of variables (leaves), >= 2")
    p.add_argument("--max-degree", type=_degree_cap, required=True,
                   help="total-degree cap")
    p.add_argument("--method", choices=["recursion", "numerator"],
                   default="recursion",
                   help="series construction (default: recursion)")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("numerator", parents=[common],
                       help="numerator polynomial F_n")
    p.add_argument("--n", type=_positive_leaves, required=True)
    p.add_argument("--method", choices=["ie", "sym"], required=True,
                   help="ie: inclusion-exclusion; sym: conjectural "
                        "symmetric recursion")
    p.add_argument("--tree", default=None,
                   help="tree spec like '((*,*),(*,*))'; ie only "
                        "(default: caterpillar)")
    p.set_defaults(func=cmd_numerator)

    p = sub.add_parser("dim", parents=[common],
                       help="dimension of one gradation")
    p.add_argument("--n", type=_positive_leaves, required=True)
    p.add_argument("--grading", required=True,
                   help="comma-separated exponents a1,..,aN")
    p.add_argument("--method", choices=["oracle", "series"],
                   default="oracle",
                   help="oracle: direct count; series: recursion "
                        "coefficient (default: oracle)")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("decompose", parents=[common],
                       help="canonical path decomposition")
    p.add_argument("--tree", required=True,
                   help="tree spec like '((*,*),(*,*))'")
    p.add_argument("--values", required=True,
                   help="comma-separated edge values v1,..,v_(2n-3)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("relations", parents=[common],
                       help="quadratic ideal relations of a tree")
    p.add_argument("--tree", required=True)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("verify", help="consistency checks")
    vsub = p.add_subparsers(dest="target", required=True)

    p = vsub.add_parser("cross", parents=[common],
                        help="cross-validate all series methods")
    p.add_argument("--n", type=_positive_leaves, required=True)
    p.add_argument("--max-degree", type=_degree_cap, required=True)
    p.add_argument("--jobs", type=_job_count, default=1,
                   help="accepted for compatibility, >= 1; no effect: "
                        "the oracle runs in the calling process")
    p.set_defaults(func=cmd_verify, suite=cross_suite)

    p = vsub.add_parser("delpezzo", parents=[common],
                        help="Riemann-Roch sweep on the 4-point blow-up "
                             "of the plane")
    p.set_defaults(func=cmd_verify, suite=delpezzo_suite)

    p = sub.add_parser("fixtures", parents=[common],
                       help="print the built-in golden numerators")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print("capacity exceeded: %s" % exc, file=sys.stderr)
        return 3
    except PrecisionError as exc:
        print("precision cap exceeded: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. | head); suppress the
        # traceback and the interpreter's flush-on-exit complaint.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except Exception:
        # a failed self-check or a bug, never a verdict on the input;
        # traceback is imported here to keep it off the start-up path
        import traceback
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
