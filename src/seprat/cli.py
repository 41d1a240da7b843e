"""Command-line surface: reduce, test, sat, verify, bench, export-dot.

Machine-readable JSON (or CSV for bench) goes to stdout; human diagnostics
go to stderr.  Exit codes: 0 success or affirmative, 2 input error,
3 negative verdict when --exit-code is given, 4 resource budget exhausted.
Set SEPRAT_LOG=debug|info|warning for logging verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import random
import sys
import time

from . import __version__, cnf, reduction, rpcore, satcore, septest
from .numerics import RationalFormatError, format_rational, parse_rational

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4


def _setup_logging() -> None:
    level = os.environ.get("SEPRAT_LOG", "warning").upper()
    logging.getLogger("seprat").setLevel(
        getattr(logging, level, logging.WARNING))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_formula(path: str) -> cnf.CnfFormula:
    return cnf.parse_dimacs(_read(path))


def _load_dataset(path: str) -> reduction.Dataset:
    return reduction.dataset_from_json(_read(path))


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _verdict_doc(verdict: septest.TestVerdict) -> dict:
    doc = {"status": verdict.status, "stats": verdict.stats}
    if verdict.witness is not None:
        doc["witness"] = septest.witness_to_json(verdict.witness)
    return doc


def cmd_reduce(args) -> int:
    formula = _load_formula(args.cnf)
    eta = parse_rational(args.positive_prices)
    ds = reduction.reduce_formula(formula, args.offset_mode, eta)
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
    verdict = septest.decide(ds, tie_mode=args.tie_mode,
                             grid_mode=args.grid_mode, method=args.method,
                             conflict_limit=args.budget)
    _emit(_verdict_doc(verdict))
    if args.exit_code and not verdict.rationalizable:
        return EXIT_NEGATIVE
    return EXIT_OK


def _solve(formula: cnf.CnfFormula, budget: int | None) -> satcore.SatResult:
    inst = satcore.SatInstance(
        formula.var_count, [list(c.to_ints()) for c in formula.clauses])
    return satcore.solve(inst, budget)


def cmd_sat(args) -> int:
    result = _solve(_load_formula(args.cnf), args.budget)
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
    satisfiable = _solve(formula, args.budget).status == "sat"
    ds = reduction.reduce_formula(formula, args.offset_mode)
    verdict = septest.decide(ds, tie_mode=args.tie_mode,
                             grid_mode=args.grid_mode, method=args.method,
                             conflict_limit=args.budget)
    agree = satisfiable == verdict.rationalizable
    _emit({"satisfiable": satisfiable,
           "rationalizable": verdict.rationalizable,
           "agree": agree})
    print("AGREE" if agree else "DISAGREE", file=sys.stderr)
    return EXIT_OK if agree else 1


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    lo = int(lo)
    hi = int(hi) if hi else lo
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def cmd_bench(args) -> int:
    var_range = _parse_range(args.vars)
    clause_range = _parse_range(args.clauses)
    if min(clause_range) < 1:
        raise ValueError("benchmark requires at least one clause per formula")
    if min(var_range) < 3:
        raise ValueError("benchmark requires at least three variables")
    rng = random.Random(args.seed)
    rows = []
    for nvars in var_range:
        for nclauses in clause_range:
            for idx in range(args.per_cell):
                formula = cnf.random_formula(rng, nvars, nclauses)
                compact = ";".join(
                    ",".join(str(l) for l in c.to_ints())
                    for c in formula.clauses)
                sat = _solve(formula, args.budget).status == "sat"
                t0 = time.perf_counter()
                ds = reduction.reduce_formula(formula, args.offset_mode)
                t1 = time.perf_counter()
                verdict = septest.decide(
                    ds, tie_mode=args.tie_mode, grid_mode=args.grid_mode,
                    method=args.method, conflict_limit=args.budget)
                t2 = time.perf_counter()
                rows.append({
                    "vars": nvars, "clauses": nclauses, "instance": idx,
                    "seed": args.seed, "formula": compact,
                    "satisfiable": int(sat),
                    "rationalizable": int(verdict.rationalizable),
                    "agree": int(sat == verdict.rationalizable),
                    "reduce_seconds": f"{t1 - t0:.6f}",
                    "decide_seconds": f"{t2 - t1:.6f}",
                    "iterations": verdict.stats.get("iterations", 0),
                })
    out = sys.stdout if not args.output else open(
        args.output, "w", encoding="utf-8", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_export_dot(args) -> int:
    ds = _load_dataset(args.dataset)
    grid = rpcore.build_grid(ds, args.grid_mode)
    graph = rpcore.revealed_relation(ds, grid, args.tie_mode)
    text = rpcore.to_dot(ds, grid, graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seprat",
        description="Compile 3SAT formulas into consumption datasets and "
                    "decide separable rationalizability.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tie-mode", choices=rpcore.TIE_MODES, default="weak")
    common.add_argument("--grid-mode", choices=rpcore.GRID_MODES,
                        default="per-level-union")
    common.add_argument("--method", choices=("bruteforce", "cegar", "auto"),
                        default="auto")
    common.add_argument("--budget", type=int, default=None,
                        help="conflict budget for the SAT engine")

    p = sub.add_parser("reduce", help="compile a DIMACS file into a dataset")
    p.add_argument("cnf")
    p.add_argument("-o", "--output")
    p.add_argument("--offset-mode", choices=("paper", "linear"),
                   default="paper")
    p.add_argument("--positive-prices", default="0", metavar="ETA",
                   help="rational added to zero price coordinates")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("test", parents=[common],
                       help="decide separable rationalizability of a dataset")
    p.add_argument("dataset")
    p.add_argument("--exit-code", action="store_true",
                   help="exit 3 when not rationalizable")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("sat", help="solve a 3SAT file with the CDCL engine")
    p.add_argument("cnf")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--exit-code", action="store_true")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("verify", parents=[common],
                       help="round-trip: satisfiability vs rationalizability")
    p.add_argument("cnf")
    p.add_argument("--offset-mode", choices=("paper", "linear"),
                   default="paper")
    # compiled datasets relate observations through strictly cheaper
    # bundles; the weak reading trips over their deliberate cost ties
    p.set_defaults(func=cmd_verify, tie_mode="strict")

    p = sub.add_parser("bench", parents=[common],
                       help="timing grid over random instances")
    p.add_argument("--vars", default="3:4", help="range LO:HI")
    p.add_argument("--clauses", default="1:2", help="range LO:HI")
    p.add_argument("--per-cell", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset-mode", choices=("paper", "linear"),
                   default="paper")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bench, tie_mode="strict")

    p = sub.add_parser("export-dot", help="write the revealed graph as DOT")
    p.add_argument("dataset")
    p.add_argument("--tie-mode", choices=rpcore.TIE_MODES, default="strict")
    p.add_argument("--grid-mode", choices=rpcore.GRID_MODES,
                   default="per-level-union")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (cnf.DimacsError, cnf.FormulaError, reduction.DatasetError,
            rpcore.GridError, RationalFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except satcore.BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())


if __name__ == "__main__":
    entry()
