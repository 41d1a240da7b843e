import graphlib
import itertools
import random
from fractions import Fraction

import pytest

from seprat import cnf
from seprat.cnf import DimacsError
from seprat.numerics import DimensionMismatch
from seprat.reduction import (_SLOT_O, Z_DIM, ConstructionError, Dataset,
                              EvaluationPoint, GadgetConstants, Observation)
from seprat.rpcore import Grid, revealed_relation
from seprat.satcore import InstanceError
from seprat.septest import SeparabilityWitness, TestVerdict, WitnessCheck

SINGLE_CLAUSE = "p cnf 3 1\n1 2 3 0\n"

# Satisfiable (1 and 2 false, 3 true), yet weak ties reject its compiled
# data in both offset modes; strict ties accept it.
WEAK_TIE_COUNTEREXAMPLE = ("p cnf 3 4\n3 1 2 0\n3 -1 -2 0\n-3 1 -2 0\n"
                           "-1 2 -3 0\n")

# Every sign pattern over (x1, x2, x3): unsatisfiable, and the smallest
# 3SAT instance that is (eight clauses partition the assignment cube).
ALL_SIGN_PATTERNS = "p cnf 3 8\n" + "".join(
    f"{'-' if a else ''}1 {'-' if b else ''}2 {'-' if c else ''}3 0\n"
    for a in (0, 1) for b in (0, 1) for c in (0, 1))

# Satisfiable; the two clauses place variables 1 and 2 in reversed chain
# slots.  A gadget that forced an order between the variables of adjacent
# slots would reject it, so it must compile to rationalizable data (see
# the septest tests).
SLOT_CONFLICT = "p cnf 4 2\n2 1 3 0\n-1 -2 4 0\n"


@pytest.fixture
def single_clause():
    return cnf.parse_dimacs(SINGLE_CLAUSE)


@pytest.fixture
def all_sign_patterns():
    return cnf.parse_dimacs(ALL_SIGN_PATTERNS)


def random_fraction(rng: random.Random, lo=0, hi=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def random_foreign_dataset(rng: random.Random, max_z_parts=6):
    """Small random dataset with positive prices, nothing to do with any
    reduction output."""
    n_z, n_o = 2, rng.randint(1, 2)
    while True:
        obs = []
        for _ in range(rng.randint(2, 4)):
            x = tuple(random_fraction(rng) for _ in range(n_z + n_o))
            p = tuple(random_fraction(rng, 1) + Fraction(1, 4)
                      for _ in range(n_z + n_o))
            obs.append(Observation(x=x, p=p))
        evs = [
            EvaluationPoint(
                x=tuple(random_fraction(rng) for _ in range(n_z + n_o)))
            for _ in range(rng.randint(0, 2))]
        ds = Dataset(n_z=n_z, n_o=n_o, observations=tuple(obs),
                     evaluation_points=tuple(evs))
        z_parts = {tuple(o.x[:n_z]) for o in obs}
        z_parts |= {tuple(e.x[:n_z]) for e in evs}
        if len(z_parts) <= max_z_parts:
            return ds


def dominates(x, y) -> bool:
    """True when x >= y in every coordinate and x != y (product order)."""
    if len(x) != len(y):
        raise DimensionMismatch(f"dimension {len(x)} vs {len(y)}")
    return all(a >= b for a, b in zip(x, y)) \
        and any(a != b for a, b in zip(x, y))


def pairwise_verify_witness(ds: Dataset, grid: Grid,
                            witness: SeparabilityWitness,
                            tie_mode: str = "weak") -> WitnessCheck:
    """Full check of both orders against every constraint family, edge by
    edge over Fractions: the oracle for `seprat.septest.verify_witness`.

    This path deliberately rebuilds all edges pairwise instead of reusing
    the decider's chain shortcut, so the two sides stay independent.  The
    o-part dominance table is computed once and indexed per point pair.
    """
    nz, npts = len(grid.z_parts), len(grid.points)
    if sorted(witness.u_order) != list(range(nz)):
        return WitnessCheck(False, "u-order is not a permutation of z-parts")
    if sorted(witness.v_order) != list(range(npts)):
        return WitnessCheck(False, "v-order is not a permutation of grid points")
    urank = [0] * nz
    for pos, z in enumerate(witness.u_order):
        urank[z] = pos
    vrank = [0] * npts
    for pos, j in enumerate(witness.v_order):
        vrank[j] = pos

    for a in range(nz):
        for b in range(nz):
            if a != b and dominates(grid.z_parts[a], grid.z_parts[b]) \
                    and urank[a] > urank[b]:
                return WitnessCheck(
                    False, f"u-order inverts the dominated z-part pair "
                           f"({a}, {b})")

    base = revealed_relation(ds, grid, tie_mode)
    for e in base.edges:
        if vrank[e.src] > vrank[e.dst]:
            return WitnessCheck(
                False, f"v-order puts an affordable point above the chosen "
                       f"bundle of observation {e.obs}")

    o_dom = [[dominates(oa, ob) for ob in grid.o_parts]
             for oa in grid.o_parts]
    for i in range(npts):
        zi, oi = grid.pt_z[i], grid.pt_o[i]
        for j in range(npts):
            if vrank[i] <= vrank[j]:
                continue  # no edge i -> j can be violated (includes i == j)
            zj, oj = grid.pt_z[j], grid.pt_o[j]
            if oi == oj:
                if urank[zi] < urank[zj]:
                    return WitnessCheck(
                        False, f"v-order violates the order edge between "
                               f"z-parts {zi} and {zj}")
            elif o_dom[oi][oj] and (zi == zj or urank[zi] < urank[zj]):
                return WitnessCheck(
                    False, f"v-order violates the dominance edge from "
                           f"point {i} to {j}")
    return WitnessCheck(True, None)


def oracle_decide(ds: Dataset, grid: Grid,
                  tie_mode: str = "weak") -> TestVerdict:
    """Decide by enumeration, sharing only the grid with the deciders: the
    oracle for `seprat.septest.decide`.

    1-edges come from `revealed_relation`, which costs over Fractions.
    Under each u-order that ranks every dominating z-part above the parts
    it dominates, in lexicographic order, 2-edges and dominance edges are
    built pair by pair of points, and `graphlib` looks for a cycle.  The
    first acyclic order wins, with graphlib's order of the combined
    relation as the v-order."""
    nz, npts = len(grid.z_parts), len(grid.pt_z)
    one_edges = [(e.src, e.dst)
                 for e in revealed_relation(ds, grid, tie_mode).edges]
    z_dom = [(a, b) for a in range(nz) for b in range(nz)
             if dominates(grid.z_parts[a], grid.z_parts[b])]
    same_o, o_dom = [], []  # (i, j, z_i, z_j) per gated pair of points
    for i in range(npts):
        for j in range(npts):
            zi, oi, zj, oj = grid.pt_z[i], grid.pt_o[i], \
                grid.pt_z[j], grid.pt_o[j]
            if oi == oj and zi != zj:
                same_o.append((i, j, zi, zj))
            elif dominates(grid.o_parts[oi], grid.o_parts[oj]):
                o_dom.append((i, j, zi, zj))
    explored = 0
    for perm in itertools.permutations(range(nz)):
        rank = {z: pos for pos, z in enumerate(perm)}
        if any(rank[a] > rank[b] for a, b in z_dom):
            continue
        explored += 1
        # (z, o) -> (z', o) when z is above z'; (z, o) -> (z', o') when o
        # dominates o' and z is at or above z'
        edges = one_edges \
            + [(i, j) for i, j, zi, zj in same_o if rank[zi] < rank[zj]] \
            + [(i, j) for i, j, zi, zj in o_dom if rank[zi] <= rank[zj]]
        preds = {j: set() for j in range(npts)}
        for i, j in edges:
            preds[j].add(i)
        try:
            v_order = tuple(graphlib.TopologicalSorter(preds).static_order())
        except graphlib.CycleError:
            continue
        return TestVerdict(perm, v_order, "oracle", explored, grid.mode)
    return TestVerdict(None, None, "oracle", explored, grid.mode)


def cost(p, x) -> Fraction:
    """Sum of products over every coordinate, zeros included: the compile
    oracles' own inner product, so they share no arithmetic with
    `seprat.numerics.dot`."""
    return sum((a * b for a, b in zip(p, x, strict=True)), Fraction(0))


def pairwise_epsilon_M(bp) -> GadgetConstants:
    """Epsilon and M from one cross cost p_a . z_b per ordered pair a != b
    of the 2I base points and one price mass per point: the oracle for
    `seprat.reduction.compute_epsilon_M`, which assumes the hyperbola's
    geometry to cost O(I) pairs.  Quadratic in I, so tests call it only at
    a few sizes."""
    pairs = bp.pairs()
    cross = {(a, b): cost(bp.p[a], bp.z[b])
             for a in pairs for b in pairs if a != b}
    mass = {a: cost(bp.p[a], (Fraction(1), Fraction(1))) for a in pairs}
    a, b = min(cross, key=cross.get)
    delta = cross[a, b] - 1
    if delta <= 0 or min(mass.values()) <= 0:
        raise ConstructionError(f"epsilon gap fails for {a} vs {b}")
    epsilon = delta / (2 * max(mass.values()))
    M = 1 + max(c + epsilon * mass[src] for (src, _), c in cross.items())
    return GadgetConstants(epsilon, M)


def exhaustive_level_separation(gadgets: list, offsets: list,
                                observations: list) -> None:
    """Point-by-point cross-level check: the oracle for
    `seprat.reduction._verify_level_separation`, which must raise the same
    message on the same inputs.

    Every observation must overspend on each grid point of any lower
    level and underspend on every point of any higher level.  A point of
    level l is z + o + (c_l,), so its cost splits exactly into a z-cost,
    an o-cost and an offset cost; those are computed once per observation
    and every point's sum is compared, level by level, so the first
    failing level is the one named.
    """
    o_parts = sorted(set(_SLOT_O.values()))
    level_z = [sorted(set(b[:Z_DIM] for b in g.bundles.values()))
               for g in gadgets]
    for obs in observations:
        budget = cost(obs.p, obs.x)
        pz, po, p_off = obs.p[:Z_DIM], obs.p[Z_DIM:-1], obs.p[-1]
        o_costs = [cost(po, o) for o in o_parts]
        z_costs = {}
        for other, (zs, off) in enumerate(zip(level_z, offsets)):
            if other + 1 == obs.clause:
                continue
            for z in zs:
                if z not in z_costs:
                    z_costs[z] = cost(pz, z)
                base = z_costs[z] + p_off * off
                if other + 1 < obs.clause and \
                        not all(base + oc < budget for oc in o_costs):
                    raise ConstructionError(
                        f"level {obs.clause} observation k={obs.k} does not "
                        f"dominate level {other + 1}")
                if other + 1 > obs.clause and \
                        not all(base + oc > budget for oc in o_costs):
                    raise ConstructionError(
                        f"level {obs.clause} observation k={obs.k} reaches "
                        f"into level {other + 1}")


def token_by_token_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Every token of every line through one loop, with the same checks in
    the same order: the oracle for `seprat.cnf.read_dimacs`, which must
    give the same clauses, or raise the same message at the same line.
    Lines end at "\\n" alone."""
    header = None
    clauses, pending = [], []
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if not raw.isascii() or "_" in line:
            raise DimacsError(
                f"non-ASCII character or '_' in {line!r}", lineno)
        if line[0] == "p":
            if header is not None:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                header = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if header[0] < 1 or header[1] < 0:
                raise DimacsError(f"bad counts in header {line!r}", lineno)
            continue
        if header is None:
            raise DimacsError(f"clause data before header: {line!r}", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"unexpected token {tok!r}", lineno) from None
            if lit == 0:
                if len(clauses) >= header[1]:
                    raise DimacsError(
                        f"more clauses than the declared {header[1]}", lineno)
                try:
                    cnf.Clause.from_ints(pending)
                except cnf.FormulaError as exc:
                    raise DimacsError(str(exc), lineno) from None
                clauses.append(tuple(pending))
                pending = []
            else:
                if abs(lit) > header[0]:
                    raise DimacsError(
                        f"literal {lit} out of range 1..{header[0]}", lineno)
                if len(clauses) >= header[1]:
                    raise DimacsError(
                        f"trailing garbage after {header[1]} clauses", lineno)
                pending.append(lit)
    last = len(lines)
    if header is None:
        raise DimacsError("missing header", max(last, 1))
    if pending:
        raise DimacsError("unterminated clause at end of input", last)
    if len(clauses) != header[1]:
        raise DimacsError(
            f"header declares {header[1]} clauses, found {len(clauses)}", last)
    return header[0], clauses


def checked_clause(clause, var_count: int) -> tuple[tuple[int, ...], bool]:
    """The clause with repeated literals dropped, each an int (not a bool)
    in 1..var_count or -var_count..-1, and whether it is a tautology,
    checked literal by literal: with `checked_instance`, the oracle for
    the bulk check of `seprat.satcore.SatInstance` and `Solver.add_clause`,
    which must raise the same message."""
    try:
        lits = tuple(clause)
    except TypeError:
        raise InstanceError(f"clause {clause!r} is not a sequence") from None
    tautology = False
    for lit in lits:
        if type(lit) is not int or lit == 0 or abs(lit) > var_count:
            raise InstanceError(f"literal {lit!r} is not a nonzero int "
                                f"within +-{var_count}")
        if -lit in lits:
            tautology = True
    if len(set(lits)) < len(lits):
        lits = tuple(dict.fromkeys(lits))
    return lits, tautology


def checked_instance(var_count: int, clauses) -> tuple[tuple, frozenset]:
    """`checked_clause` on each clause in turn: the clauses and the indices
    of the tautologies among them."""
    checked, tautologies = [], set()
    try:
        for cl in clauses:
            lits, tautology = checked_clause(cl, var_count)
            if tautology:
                tautologies.add(len(checked))
            checked.append(lits)
    except TypeError:
        raise InstanceError("clauses must be a sequence") from None
    return tuple(checked), frozenset(tautologies)
