"""Command-line surface: reduce, test, sat, verify, export-dot.

Machine-readable JSON goes to stdout; human diagnostics go to stderr.
The grid follows from the data, and each verdict names it in `stats.grid`;
`test` and `verify` decide with `septest.decide`, which probes, then refines.
Exit codes: 0 success or affirmative, 1 when verify reports DISAGREE,
2 input error, 3 negative verdict when --exit-code is given, 4 conflict
budget exhausted or a size guard exceeded (compile, or more than
`MAX_SAT_VARIABLES` = 131,072 variables for `sat`).
Set SEPRAT_LOG=debug|info|warning for logging verbosity.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from . import __version__, cnf, reduction, rpcore, satcore, septest
from .numerics import format_rational, parse_rational

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4

# the solver, its literal-code table and branching priority, and the
# model's JSON take about 0.4 KB per declared variable (a 75 MB peak, the
# child's ru_maxrss, for `p cnf 131072 1`; the code table adds 1 MB of
# it), so a wider header stops before any instance
MAX_SAT_VARIABLES = 1 << 17


def _setup_logging() -> None:
    # getLevelName maps a level name to its number and any other string to
    # a string, so an unknown value (even another attribute of `logging`,
    # such as BASIC_FORMAT) falls back to WARNING
    name = os.environ.get("SEPRAT_LOG", "warning").upper()
    level = logging.getLevelName(name)
    logging.getLogger("seprat").setLevel(
        level if isinstance(level, int) else logging.WARNING)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_formula(path: str) -> cnf.CnfFormula:
    return cnf.parse_dimacs(_read(path))


def _load_dataset(path: str) -> reduction.Dataset:
    return reduction.dataset_from_json(_read(path))


def _emit(doc) -> None:
    print(json.dumps(doc))


def _verdict_doc(verdict: septest.TestVerdict) -> dict:
    doc = {"status": verdict.status, "stats": verdict.stats}
    if verdict.witness is not None:
        doc["witness"] = septest.witness_to_json(verdict.witness)
    return doc


def cmd_reduce(args) -> int:
    formula = _load_formula(args.cnf)
    eta = parse_rational(args.positive_prices)
    try:
        ds = reduction.reduce_formula(formula, args.offset_mode, eta)
    except reduction.ConstructionError as exc:
        if eta == 0:
            raise  # the unperturbed construction failing is an internal fault
        raise ValueError(f"--positive-prices {args.positive_prices} is too "
                         f"large for this formula: {exc}") from None
    text = reduction.dataset_to_json(ds)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"reduced L={len(formula.clauses)} I={formula.var_count} -> "
          f"{len(ds.observations)} observations, "
          f"{len(ds.evaluation_points)} evaluation points, "
          f"epsilon={format_rational(ds.epsilon)} M={format_rational(ds.M)}",
          file=sys.stderr)
    return EXIT_OK


def cmd_test(args) -> int:
    ds = _load_dataset(args.dataset)
    verdict = septest.decide(ds, args.tie_mode, conflict_limit=args.budget)
    _emit(_verdict_doc(verdict))
    if args.exit_code and not verdict.rationalizable:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_sat(args) -> int:
    # the int clauses go to the solver as read, with no `Clause` between
    var_count, clauses = cnf.read_dimacs(_read(args.cnf))
    if var_count > MAX_SAT_VARIABLES:
        raise reduction.SizeGuardExceeded(
            f"{var_count} variables exceeds the sat guard of "
            f"{MAX_SAT_VARIABLES}")
    result = satcore.solve(satcore.SatInstance(var_count, clauses),
                           args.budget)
    doc = {"status": result.status}
    if result.model is not None:
        doc["model"] = {str(v + 1): bool(val)
                        for v, val in enumerate(result.model)}
    _emit(doc)
    if args.exit_code and result.status == "unsat":
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_verify(args) -> int:
    formula = _load_formula(args.cnf)
    ds = reduction.reduce_formula(formula, args.offset_mode)
    inst = satcore.SatInstance(
        formula.var_count, [c.to_ints() for c in formula.clauses])
    satisfiable = satcore.solve(inst, args.budget).status == "sat"
    verdict = septest.decide(ds, tie_mode=args.tie_mode,
                             conflict_limit=args.budget)
    agree = satisfiable == verdict.rationalizable
    _emit({"satisfiable": satisfiable,
           "rationalizable": verdict.rationalizable,
           "agree": agree})
    print("AGREE" if agree else "DISAGREE", file=sys.stderr)
    return EXIT_OK if agree else 1


def cmd_export_dot(args) -> int:
    ds = _load_dataset(args.dataset)
    grid = rpcore.build_grid(ds)
    graph = rpcore.revealed_relation(ds, grid, args.tie_mode)
    text = rpcore.to_dot(ds, grid, graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _budget(text: str) -> int:
    # ASCII digits alone: int() would also read a sign, surrounding space,
    # digit separators and the digits of other scripts
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="seprat",
        description="Compile 3SAT formulas into consumption datasets and "
                    "decide separable rationalizability.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_budget, default=None, metavar="N",
                        help="conflict budget for the SAT engine, N >= 0")
    offsets = argparse.ArgumentParser(add_help=False)
    offsets.add_argument("--offset-mode", choices=reduction.OFFSET_MODES,
                         default="paper")

    p = sub.add_parser("reduce", parents=[offsets],
                       help="compile a DIMACS file into a dataset")
    p.add_argument("cnf")
    p.add_argument("-o", "--output")
    p.add_argument("--positive-prices", default="0", metavar="ETA",
                   help="rational added to zero price coordinates")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("test", parents=[budget],
                       help="decide separable rationalizability of a dataset")
    p.add_argument("dataset")
    p.add_argument("--tie-mode", choices=rpcore.TIE_MODES, default="weak")
    p.add_argument("--method", choices=("cegar",), default="cegar")
    p.add_argument("--exit-code", action="store_true",
                   help="exit 3 when not rationalizable")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("sat", parents=[budget],
                       help="solve a 3SAT file with the CDCL engine")
    p.add_argument("cnf")
    p.add_argument("--exit-code", action="store_true")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("verify", parents=[budget, offsets],
                       help="round-trip: satisfiability vs rationalizability")
    p.add_argument("cnf")
    # the acceptance criteria for compiled data are stated for strict ties;
    # an action shared through a parent parser would carry this default
    # into `test` too
    p.add_argument("--tie-mode", choices=rpcore.TIE_MODES, default="strict")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-dot", help="write the revealed graph as DOT")
    p.add_argument("dataset")
    p.add_argument("--tie-mode", choices=rpcore.TIE_MODES, default="strict")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # input errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (satcore.BudgetExhausted, reduction.SizeGuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())


if __name__ == "__main__":
    entry()
