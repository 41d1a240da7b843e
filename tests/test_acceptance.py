"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

All numeric checks are exact; only runtime ceilings are measured in
seconds.  The round-trip corpus is fixed by CORPUS_SEED and generated
before any verdict is looked at.

Criteria 4 and 5 check the reduction's promise on that corpus: a formula
is satisfiable exactly when its compiled dataset is rationalizable, and
every satisfying assignment yields a witness.  They hold because, under
strict ties, a clause block constrains the u-order only through its three
column-shared slot pairs, each holding the two base bundles of one
variable; no order between different variables is forced (pinned by
tests/test_septest.py::TestConstructionSemantics).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from seprat import cnf, satcore
from seprat.numerics import dot
from seprat.reduction import (CHAIN_EDGES, OBSERVED_SLOTS, OFFSET_MODES,
                              base_points, build_clause_gadget,
                              compute_epsilon_M, reduce_formula)
from seprat.rpcore import build_grid, revealed_relation
from seprat.septest import (decide, decide_bruteforce, decide_cegar,
                            truth_assignment_to_witness, verify_witness,
                            WitnessConstructionError)
from tests.conftest import (ALL_SIGN_PATTERNS, SINGLE_CLAUSE, oracle_decide,
                            pairwise_verify_witness, random_foreign_dataset)

CORPUS_SEED = 20260811
TIE = "strict"  # the construction's revealed relation is the strict one

F = Fraction


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    formulas = []
    for _ in range(50):
        nvars = rng.randint(3, 4)
        nclauses = rng.randint(1, 3)
        formulas.append(cnf.random_formula(rng, nvars, nclauses))
    named = [cnf.parse_dimacs(SINGLE_CLAUSE),
             cnf.parse_dimacs(ALL_SIGN_PATTERNS)]
    return formulas + named


@pytest.fixture(scope="module")
def roundtrip(corpus):
    """decide(reduce(f)) for every corpus formula and both offset modes."""
    t0 = time.perf_counter()
    records = []
    for idx, formula in enumerate(corpus):
        satisfiable = cnf.brute_force_sat(formula) is not None
        for mode in OFFSET_MODES:
            ds = reduce_formula(formula, mode)
            grid = build_grid(ds, "per-level-union")
            verdict = decide_cegar(ds, grid, TIE)
            records.append({
                "index": idx, "formula": formula, "mode": mode,
                "satisfiable": satisfiable, "verdict": verdict,
                "dataset": ds, "grid": grid,
            })
    return {"records": records, "seconds": time.perf_counter() - t0}


def test_criterion_1_base_point_separation():
    t0 = time.perf_counter()
    bp = base_points(10)
    pairs = bp.pairs()
    checked = 0
    ok = True
    for a in pairs:
        for b in pairs:
            cost = dot(bp.p[a], bp.z[b])
            ok = ok and (cost == 1 if a == b else cost > 1)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 400 and elapsed < 1.0
    report(1, "base-point support separation", ok, f"{checked} pairs in {elapsed:.3f}s")
    assert ok


def test_criterion_2_chain_reproduction():
    t0 = time.perf_counter()
    bad = []
    for signs in itertools.product([False, True], repeat=3):
        clause = cnf.Clause(tuple((v, s) for v, s in zip((1, 2, 3), signs)))
        formula = cnf.CnfFormula(3, (clause,))
        ds = reduce_formula(formula)
        grid = build_grid(ds)
        slots = {}
        for o in ds.observations:
            slots[grid.locate(o.x)] = o.k
        for e in ds.evaluation_points:
            slots[grid.locate(e.x)] = e.t
        edges = {(slots[e.src], slots[e.dst])
                 for e in revealed_relation(ds, grid, "strict").edges
                 if e.src in slots and e.dst in slots}
        if edges != CHAIN_EDGES:
            bad.append(signs)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    report(2, "chain reproduction", ok,
           f"8 sign patterns in {elapsed:.3f}s")
    assert ok, bad


def test_criterion_3_epsilon_m_contract():
    ok = True
    for count in range(1, 11):
        bp = base_points(count)
        gc = compute_epsilon_M(bp)
        ones = (F(1), F(1))
        for a in bp.pairs():
            mass = dot(bp.p[a], ones)
            for b in bp.pairs():
                if a == b:
                    continue
                cross = dot(bp.p[a], bp.z[b])
                ok = ok and 1 < 1 + gc.epsilon * mass < cross
                ok = ok and cross + gc.epsilon * mass < gc.M
    bp2 = base_points(2)
    pairs = bp2.pairs()
    cross = [(a, b) for a in pairs for b in pairs if a != b]
    delta = min(dot(bp2.p[a], bp2.z[b]) - 1 for a, b in cross)
    mass = max(dot(bp2.p[a], (F(1), F(1))) for a in pairs)
    oracle_eps = delta / (2 * mass)
    gc2 = compute_epsilon_M(bp2)
    ok = ok and len(cross) == 12 and gc2.epsilon == oracle_eps == F(1, 116)
    report(3, "epsilon/M contract", ok,
           f"I<=10 exhaustive; I=2 epsilon={gc2.epsilon}")
    assert ok


def both_checkers(ds, grid, witness) -> str | None:
    """None when the integer checker and the pairwise oracle both accept
    the witness, else the first rejection's reason."""
    for check in (verify_witness, pairwise_verify_witness):
        result = check(ds, grid, witness, TIE)
        if not result.valid:
            return f"{check.__name__}: {result.reason}"
    return None


def test_criterion_4_satisfiability_round_trip(roundtrip):
    records = roundtrip["records"]
    disagreements = [
        r for r in records
        if r["satisfiable"] != r["verdict"].rationalizable]
    rejected = [r for r in records if r["verdict"].rationalizable
                and both_checkers(r["dataset"], r["grid"],
                                  r["verdict"].witness) is not None]
    elapsed = roundtrip["seconds"]
    ok = not disagreements and not rejected and elapsed <= 600
    detail = (f"{len(records)} runs in {elapsed:.1f}s, "
              f"{len(disagreements)} disagreements, "
              f"{len(rejected)} witnesses rejected by either checker")
    if disagreements:
        sample = sorted({(r["index"],
                          tuple(c.to_ints() for c in r["formula"].clauses))
                         for r in disagreements})[:6]
        detail += f"; e.g. {sample}"
    report(4, "satisfiability round-trip", ok, detail)
    assert ok, detail


def test_criterion_5_witness_soundness(roundtrip, corpus):
    failures = []
    for r in roundtrip["records"]:
        if r["verdict"].rationalizable:
            reason = both_checkers(r["dataset"], r["grid"],
                                   r["verdict"].witness)
            if reason is not None:
                failures.append(("verdict", r["index"], r["mode"], reason))

    def assignments(formula):
        if formula is corpus[-2]:  # the named single clause: all of them
            n = formula.var_count
            for bits in itertools.product([False, True], repeat=n):
                a = {v: bits[v - 1] for v in range(1, n + 1)}
                if cnf.evaluate(formula, a):
                    yield a
        else:
            a = cnf.brute_force_sat(formula)
            if a is not None:
                yield a

    for idx, formula in enumerate(corpus):
        ds = reduce_formula(formula)
        grid = build_grid(ds)
        for a in assignments(formula):
            try:
                witness = truth_assignment_to_witness(formula, ds, grid, a, TIE)
            except WitnessConstructionError as exc:
                failures.append(("assignment", idx, a, str(exc)))
                continue
            reason = both_checkers(ds, grid, witness)
            if reason is not None:
                failures.append(("assignment", idx, a, reason))
    ok = not failures
    detail = f"{len(failures)} failures"
    if failures:
        detail += f"; e.g. {failures[:3]}"
    report(5, "witness soundness", ok, detail)
    assert ok, detail


def test_criterion_6_cross_level_dominance():
    t0 = time.perf_counter()
    formula = cnf.parse_dimacs("p cnf 5 3\n1 2 3 0\n-2 4 5 0\n1 -3 5 0\n")
    ok = True
    for mode in OFFSET_MODES:
        ds = reduce_formula(formula, mode)
        grid = build_grid(ds, "per-level-union")
        graph = revealed_relation(ds, grid, "weak")
        has_edge = {(e.src, e.dst) for e in graph.edges}
        offsets = sorted({o.x[-1] for o in ds.observations})
        level_of_offset = {off: l + 1 for l, off in enumerate(offsets)}
        point_level = [level_of_offset[o[-1]] for _, o in grid.points]
        for obs, src in zip(ds.observations, grid.rows(ds).points):
            for j in range(len(grid.points)):
                if point_level[j] < obs.clause:
                    ok = ok and (src, j) in has_edge
                elif point_level[j] > obs.clause:
                    ok = ok and (src, j) not in has_edge
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(6, "cross-level dominance", ok, f"L=3 both modes in {elapsed:.2f}s")
    assert ok


def test_criterion_7_decider_equivalence():
    # brute force shares the arena with the refinement decider; the
    # oracle shares only the grid, so it also catches a wrong arena edge
    rng = random.Random(CORPUS_SEED + 7)
    disagreements = 0
    runs = 0
    for _ in range(80):
        ds = random_foreign_dataset(rng)
        grid = build_grid(ds, "full-product")
        tie = rng.choice(["strict", "weak"])
        vc = decide_cegar(ds, grid, tie)
        disagreements += vc.status != decide_bruteforce(ds, grid, tie).status
        disagreements += vc.status != oracle_decide(ds, grid, tie).status
        runs += 1
    for _ in range(20):
        formula = cnf.random_formula(rng, rng.randint(3, 5), 1)
        ds = reduce_formula(formula)
        grid = build_grid(ds)
        vc = decide_cegar(ds, grid, "strict")
        disagreements += vc.status != decide_bruteforce(ds, grid,
                                                        "strict").status
        disagreements += vc.status != oracle_decide(ds, grid, "strict").status
        runs += 1
    ok = disagreements == 0 and runs == 100
    report(7, "decider equivalence", ok,
           f"{runs} datasets, {disagreements} disagreements with brute "
           f"force or the oracle")
    assert ok


def test_criterion_8_sat_core_agreement():
    rng = random.Random(CORPUS_SEED + 8)
    checked = 0
    ok = True
    for _ in range(500):
        formula = cnf.random_formula(rng, rng.randint(3, 8),
                                     rng.randint(1, 30))
        inst = satcore.SatInstance(
            formula.var_count, [list(c.to_ints()) for c in formula.clauses])
        result = satcore.solve(inst)
        oracle = cnf.brute_force_sat(formula)
        ok = ok and (result.status == "sat") == (oracle is not None)
        if result.model is not None:
            model = {v + 1: val for v, val in enumerate(result.model)}
            ok = ok and cnf.evaluate(formula, model)
        checked += 1
    report(8, "sat core agreement", ok, f"{checked} formulas")
    assert ok


def test_criterion_9_size_linearity():
    rng = random.Random(CORPUS_SEED + 9)
    ok = True
    for L in range(1, 21):
        formula = cnf.random_formula(rng, 6, L)
        ds = reduce_formula(formula, "paper")
        ok = ok and len(ds.observations) == 6 * L
        ok = ok and len(ds.evaluation_points) == 3 * L
        ok = ok and ds.goods == 9
        ok = ok and all(len(o.x) == 9 == len(o.p) for o in ds.observations)
    ds5 = reduce_formula(cnf.random_formula(rng, 6, 5), "linear")
    ok = ok and len(ds5.observations) == 30 and ds5.goods == 9
    report(9, "size linearity", ok, "L=1..20 paper, L=5 linear")
    assert ok
