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
1 verification failure, 2 usage or parse error, 3 capacity exceeded.
Output is deterministic byte-for-byte, including under --jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import delpezzo, fixtures, hilbert, semigroup, trees
from .hilbert import CapacityError
from . import polyring
from .polyring import PrecisionError, format_terms
from .trees import TreeParseError

INDEX_NOTE = ("variables are z1..zn (1-indexed); formulations indexed "
              "from z0 correspond via z_k -> z_(k+1)")


def _emit(args, text_lines, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    else:
        for line in text_lines:
            print(line)


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
    _emit(args, [format_terms(series)], polyring.to_json_dict(series))
    return 0


def cmd_numerator(args):
    if args.method == "ie":
        tree = _load_tree(args.tree) if args.tree else None
        if tree is not None and tree.n_leaves != args.n:
            raise ValueError("tree has %d leaves but --n is %d"
                             % (tree.n_leaves, args.n))
        result = hilbert.numerator_inclusion_exclusion(args.n, tree=tree)
    else:
        if args.tree:
            raise ValueError("--tree only applies to --method ie")
        result = hilbert.numerator_symmetric_recursion(args.n)
    _emit(args, [format_terms(result.polynomial)],
          polyring.to_json_dict(result.polynomial))
    return 0


def cmd_dim(args):
    grading = _parse_int_list(args.grading, "--grading")
    if len(grading) != args.n:
        raise ValueError("--grading needs %d entries, got %d"
                         % (args.n, len(grading)))
    if any(g < 0 for g in grading):
        raise ValueError("--grading entries must be non-negative")
    if args.method == "oracle":
        value = semigroup.count_gradation(args.n, grading)
    else:
        series = hilbert.series_by_recursion(args.n, sum(grading))
        value = series.coefficient(tuple(grading))
    _emit(args, [str(value)],
          {"n": args.n, "grading": grading, "dim": value})
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
        _emit(args, ["not in semigroup: %s" % exc],
              {"member": False, "reason": str(exc)})
        return 0
    body = ", ".join("(%d,%d): %d" % (i, j, mult)
                     for (i, j), mult in multiset.counts)
    _emit(args, ["{%s}" % body],
          {"member": True, "decomposition": multiset.to_json_dict()})
    return 0


def cmd_relations(args):
    tree = _load_tree(args.tree)
    relations = trees.ideal_relations(tree)
    _emit(args, [str(rel) for rel in relations],
          {"n_leaves": tree.n_leaves,
           "relations": [rel.to_json_dict() for rel in relations]})
    return 0


def cmd_verify_cross(args):
    report = hilbert.cross_validate(args.n, args.max_degree, jobs=args.jobs)
    lines = ["n=%d cap=%d" % (report.n, report.cap)]
    for check in report.checks:
        suffix = " (%s)" % check.detail if check.detail else ""
        lines.append("%s: %s%s" % (check.name, check.status, suffix))
    lines.append("result: %s" % ("PASS" if report.passed else "FAIL"))
    _emit(args, lines, report.to_json_dict())
    return 0 if report.passed else 1


def cmd_verify_delpezzo(args):
    series = hilbert.series_by_recursion(5, delpezzo.GRADING_CAP)
    report = delpezzo.verify_against_series(series)
    fitted = delpezzo.fit_quadratic_form(series)
    expected = delpezzo.riemann_roch_coefficients()
    fit_ok = fitted == expected
    lines = ["family: %d/%d pass" % (report.pass_count, len(report.entries))]
    for entry in report.entries:
        if entry.status != "pass":
            lines.append("  fail at grading %s: chi=%d series=%d"
                         % (",".join(map(str, entry.grading)),
                            entry.chi, entry.series_coeff))
    lines.append("quadratic fit: %s" % ("pass" if fit_ok else "fail"))
    passed = report.passed and fit_ok
    lines.append("result: %s" % ("PASS" if passed else "FAIL"))
    json_obj = report.to_json_dict()
    json_obj["quadratic_fit"] = {
        "status": "pass" if fit_ok else "fail",
        "coefficients": [str(c) for c in fitted],
    }
    _emit(args, lines, json_obj)
    return 0 if passed else 1


def cmd_fixtures(args):
    lines = ["# " + INDEX_NOTE]
    numerators = []
    for n in fixtures.GOLDEN_RANGE:
        poly = fixtures.golden_numerator(n)
        lines.append("n=%d: %s" % (n, format_terms(poly)))
        numerators.append({"n": n, "polynomial": polyring.to_json_dict(poly)})
    _emit(args, lines, {"note": INDEX_NOTE, "numerators": numerators})
    return 0


def _positive_leaves(raw):
    value = int(raw)
    if value < 2:
        raise argparse.ArgumentTypeError("need at least 2 leaves")
    return value


def _job_count(raw):
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("--jobs must be >= 1")
    return value


def _degree_cap(raw):
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("degree cap must be >= 0")
    return value


def build_parser():
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
                   help="worker processes for the oracle sweep, >= 1; "
                        "at most one per CPU is started (default: 1)")
    p.set_defaults(func=cmd_verify_cross)

    p = vsub.add_parser("delpezzo", parents=[common],
                        help="Riemann-Roch sweep on the 4-point blow-up "
                             "of the plane")
    p.set_defaults(func=cmd_verify_delpezzo)

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


if __name__ == "__main__":
    sys.exit(main())
