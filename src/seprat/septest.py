"""Decide separable rationalizability of a dataset over its finite grid.

A dataset is accepted when some strict total order on the grid's
z-projections (the u-order, which must rank componentwise-dominating
projections higher) makes the combined preference relation acyclic.  The
combined relation joins three edge families over grid points:

  1-edges     observation k  ->  any affordable grid point (tie mode decides
              whether equal cost counts);
  2-edges     (z, o) -> (z', o) whenever the u-order puts z above z';
  dominance   (z, o) -> (z', o') whenever z is ranked at or above z' and
              o >= o', with at least one of the two strict.

An accepting run yields a witness: the u-order plus a topological order of
the combined relation (the v-order), which together act as finite value
tables for the two utility layers.  Witnesses are re-verified before being
returned.

Two deciders share these semantics: an order-enumeration brute force for
small grids, and a lazy SAT encoding that learns a blocking clause from
each cycle found (counterexample-guided refinement).  The refinement
loop searches cycles per component of the envelope, the graph of every
edge that some u-order could admit, because no cycle leaves one; each
blocking clause comes from the cycle with the fewest order-gated edges
through a gated edge of the cycle found.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from . import cnf as cnf_mod
from . import satcore
from .numerics import dominates
from .reduction import Dataset, base_points
from .rpcore import (Grid, build_grid, find_cycle_in_adjacency,
                     revealed_relation, strongly_connected_components,
                     topological_order)

log = logging.getLogger(__name__)

BRUTEFORCE_ZPART_GUARD = 9
AUTO_BRUTEFORCE_LIMIT = 6


class GuardExceeded(ValueError):
    """Too many z-parts for order enumeration; use the refinement decider."""


class WitnessConstructionError(RuntimeError):
    """No cycle-free order is compatible with the given truth assignment."""


@dataclass(frozen=True)
class SeparabilityWitness:
    u_order: tuple      # z-part indices, best first
    v_order: tuple      # grid point indices, best first
    method: str
    iterations: int = 0


@dataclass(frozen=True)
class TestVerdict:
    status: str         # "rationalizable" | "not-rationalizable"
    witness: SeparabilityWitness | None
    stats: dict

    @property
    def rationalizable(self) -> bool:
        return self.status == "rationalizable"


@dataclass(frozen=True)
class WitnessCheck:
    valid: bool
    reason: str | None = None


class _Arena:
    """Order-independent precomputation for one (dataset, grid, tie mode).

    Dominance edges come from each ordered pair of o-columns whose o-parts
    dominate: each point of the upper column points at each point of the
    lower one.  Those within one z-part do not depend on the u-order and
    are frozen once, with the 1-edges, as the adjacency list `fixed`;
    those across distinct z-parts are candidates gated by a single rank
    comparison.  2-edges within an o-column are realized as the
    rank-consecutive chain, which has the same reachability as the full
    family.
    """

    def __init__(self, ds: Dataset, grid: Grid, tie_mode: str):
        self.grid = grid
        self.n_points = len(grid.points)
        self.nz = len(grid.z_parts)
        base = revealed_relation(ds, grid, tie_mode)
        self.always = [(e.src, e.dst) for e in base.edges]
        self.dom_candidates = []  # (src_pt, dst_pt, z_src, z_dst)
        self.columns = {}
        for j in range(self.n_points):
            self.columns.setdefault(grid.pt_o[j], []).append(j)
        for oa, upper in self.columns.items():
            for ob, lower in self.columns.items():
                if not dominates(grid.o_parts[oa], grid.o_parts[ob]):
                    continue
                for i in upper:
                    zi = grid.pt_z[i]
                    for j in lower:
                        zj = grid.pt_z[j]
                        if zi == zj:
                            self.always.append((i, j))
                        else:
                            self.dom_candidates.append((i, j, zi, zj))
        self.fixed = [[] for _ in range(self.n_points)]
        for s, d in self.always:
            self.fixed[s].append(d)

        self.z_dom_pairs = []
        for a in range(self.nz):
            for b in range(self.nz):
                if a != b and dominates(grid.z_parts[a], grid.z_parts[b]):
                    self.z_dom_pairs.append((a, b))

    @cached_property
    def envelope(self) -> tuple:
        """(component label per point, frozen successor sets, dominance
        candidates) inside the components of the envelope: the frozen
        edges, every candidate, and each o-column linked both ways.  Every
        edge of the combined relation under any order joins one component,
        so no cycle leaves one.

        Each o-column lies inside one component, so the components are
        those of the graph between o-columns.
        """
        pt_o = self.grid.pt_o
        between = [set() for _ in self.grid.o_parts]
        for s, dsts in enumerate(self.fixed):
            between[pt_o[s]].update(pt_o[d] for d in dsts)
        for s, d, _, _ in self.dom_candidates:
            between[pt_o[s]].add(pt_o[d])
        column_comp = strongly_connected_components(
            [sorted(dsts) for dsts in between])
        comp = [column_comp[o] for o in pt_o]
        frozen = [{d for d in dsts if comp[d] == comp[s]}
                  for s, dsts in enumerate(self.fixed)]
        candidates = [(s, d, zs, zd) for s, d, zs, zd in self.dom_candidates
                      if comp[s] == comp[d]]
        return comp, frozen, candidates

    def adjacency_under(self, rank: list) -> list:
        """The combined relation under `rank`."""
        return self._graph(self.fixed, self.dom_candidates, rank)

    def _graph(self, frozen: list, candidates: list, rank: list) -> list:
        adj = [list(dsts) for dsts in frozen]
        for pts in self.columns.values():
            chain = sorted(pts, key=lambda j: rank[self.grid.pt_z[j]])
            for s, d in zip(chain, chain[1:]):
                adj[s].append(d)
        for s, d, zs, zd in candidates:
            if rank[zs] < rank[zd]:
                adj[s].append(d)
        return adj

    def respects_dominance(self, rank: list) -> bool:
        return all(rank[a] < rank[b] for a, b in self.z_dom_pairs)


def decide_bruteforce(ds: Dataset, grid: Grid,
                      tie_mode: str = "weak") -> TestVerdict:
    """Enumerate strict total orders lexicographically; first acyclic wins."""
    arena = _Arena(ds, grid, tie_mode)
    if arena.nz > BRUTEFORCE_ZPART_GUARD:
        raise GuardExceeded(
            f"{arena.nz} z-parts exceeds the enumeration guard of "
            f"{BRUTEFORCE_ZPART_GUARD}; use decide_cegar")
    explored = 0
    witness = None
    rank = [0] * arena.nz
    for perm in itertools.permutations(range(arena.nz)):
        for pos, z in enumerate(perm):
            rank[z] = pos
        if not arena.respects_dominance(rank):
            continue
        explored += 1
        order = topological_order(arena.adjacency_under(rank))
        if order is not None:
            witness = SeparabilityWitness(tuple(perm), tuple(order),
                                          "bruteforce", 0)
            _assert_valid(ds, grid, witness, tie_mode)
            break
    stats = {"method": "bruteforce", "orders_explored": explored,
             "grid": grid.mode}
    status = "not-rationalizable" if witness is None else "rationalizable"
    return TestVerdict(status, witness, stats)


def _order_var_map(nz: int):
    """SAT variables above(a, b) for every ordered pair of z-parts."""
    var = {}
    for a in range(nz):
        for b in range(nz):
            if a != b:
                var[(a, b)] = len(var) + 1
    return var


def _order_instance(nz: int, var: dict,
                    extra_units=()) -> satcore.SatInstance:
    clauses = []
    for a in range(nz):
        for b in range(a + 1, nz):
            clauses.append([var[(a, b)], var[(b, a)]])
            clauses.append([-var[(a, b)], -var[(b, a)]])
    for a, b, c in itertools.permutations(range(nz), 3):
        clauses.append([-var[(a, b)], -var[(b, c)], var[(a, c)]])
    for a, b in extra_units:
        clauses.append([var[(a, b)]])
    return satcore.SatInstance(len(var), clauses)


def _cegar_search(arena: _Arena, extra_units=(),
                  conflict_limit: int | None = None):
    """Shared refinement loop; returns (u_order, v_order, iterations).

    u_order is the accepted z-part order, best first, and v_order the
    topological order of the combined relation under it; both are None
    when every admissible order leaves a cycle.

    Cycles are searched only inside the envelope's components.  Each
    blocking clause comes from the cycle with the fewest order-gated edges
    through some gated edge of the cycle found; since the frozen edges
    alone are acyclic, every cycle has one.
    """
    if topological_order(arena.fixed) is None:
        return None, None, 0
    _, frozen, candidates = arena.envelope
    pt_z = arena.grid.pt_z
    nz = arena.nz
    var = _order_var_map(nz)
    units = list(arena.z_dom_pairs) + list(extra_units)
    solver = satcore.Solver(_order_instance(nz, var, units), conflict_limit)
    iterations = 0
    while True:
        result = solver.solve()
        if result.status == "unsat":
            return None, None, iterations
        rank = _rank_from_model(nz, var, result.model)
        adj = arena._graph(frozen, candidates, rank)
        for lst in adj:
            lst.sort()
        cycle = find_cycle_in_adjacency(adj)
        if cycle is None:
            order = topological_order(arena.adjacency_under(rank))
            perm = sorted(range(nz), key=lambda z: rank[z])
            return tuple(perm), tuple(order), iterations
        conditions = []
        for s, d in _cycle_edges(_fewest_gated_cycle(adj, frozen, cycle)):
            cond = (pt_z[s], pt_z[d])
            if d not in frozen[s] and cond not in conditions:
                conditions.append(cond)
        solver.add_clause([-var[c] for c in conditions])
        iterations += 1
        log.debug("refinement %d: blocked %d order literals",
                  iterations, len(conditions))


def _cycle_edges(cycle: list):
    return zip(cycle, cycle[1:] + cycle[:1])


def _fewest_gated_cycle(adj: list, frozen: list, cycle: list) -> list:
    """The cycle with the fewest gated edges through one of `cycle`'s gated
    edges (s, d): a 0-1 BFS from d back to s, where frozen edges weigh 0
    and gated edges 1.  The first such edge wins ties."""
    best, best_cost = cycle, None
    for s, d in _cycle_edges(cycle):
        if d in frozen[s]:
            continue
        dist, prev = {d: 0}, {}
        queue = deque([d])
        while queue:
            node = queue.popleft()
            if node == s:
                break
            for nxt in adj[node]:
                gated = nxt not in frozen[node]
                cost = dist[node] + gated
                if cost < dist.get(nxt, cost + 1):
                    dist[nxt], prev[nxt] = cost, node
                    if gated:
                        queue.append(nxt)
                    else:
                        queue.appendleft(nxt)
        if best_cost is None or dist[s] < best_cost:
            path = [s]
            while path[-1] != d:
                path.append(prev[path[-1]])
            best, best_cost = path[::-1], dist[s]
    return best


def _rank_from_model(nz: int, var: dict, model: list) -> list:
    score = [0] * nz
    for (a, b), v in var.items():
        if model[v - 1]:
            score[a] += 1
    order = sorted(range(nz), key=lambda a: (-score[a], a))
    rank = [0] * nz
    for pos, z in enumerate(order):
        rank[z] = pos
    return rank


def decide_cegar(ds: Dataset, grid: Grid, tie_mode: str = "weak",
                 conflict_limit: int | None = None) -> TestVerdict:
    """Lazy SAT search over u-orders with cycle-driven blocking clauses."""
    arena = _Arena(ds, grid, tie_mode)
    u_order, v_order, iterations = _cegar_search(arena, (), conflict_limit)
    stats = {"method": "cegar", "iterations": iterations, "grid": grid.mode}
    if u_order is None:
        return TestVerdict("not-rationalizable", None, stats)
    witness = SeparabilityWitness(u_order, v_order, "cegar", iterations)
    _assert_valid(ds, grid, witness, tie_mode)
    return TestVerdict("rationalizable", witness, stats)


def decide(ds: Dataset, tie_mode: str = "weak",
           grid_mode: str = "per-level-union", method: str = "auto",
           conflict_limit: int | None = None) -> TestVerdict:
    """Grid construction plus method dispatch (auto favors brute force only
    on grids with at most 6 z-parts; from 7 on refinement is never slower)."""
    grid = build_grid(ds, grid_mode)
    if method == "auto":
        method = "bruteforce" if len(grid.z_parts) <= AUTO_BRUTEFORCE_LIMIT \
            else "cegar"
    if method == "bruteforce":
        return decide_bruteforce(ds, grid, tie_mode)
    if method == "cegar":
        return decide_cegar(ds, grid, tie_mode, conflict_limit)
    raise ValueError(f"unknown method {method!r}")


# -- witness verification ----------------------------------------------------

def verify_witness(ds: Dataset, grid: Grid, witness: SeparabilityWitness,
                   tie_mode: str = "weak") -> WitnessCheck:
    """Full check of both orders against every constraint family.

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


def _assert_valid(ds, grid, witness, tie_mode):
    check = verify_witness(ds, grid, witness, tie_mode)
    if not check.valid:
        raise RuntimeError(f"internal error: produced witness fails its own "
                           f"verification: {check.reason}")


# -- from truth assignments to witnesses -------------------------------------

def truth_assignment_to_witness(f: cnf_mod.CnfFormula, ds: Dataset,
                                grid: Grid, assignment: dict,
                                tie_mode: str = "weak") -> SeparabilityWitness:
    """Turn a satisfying assignment into an ordering witness.

    A true variable ranks its second base bundle above the first, which
    disarms that variable's link in the clause chain cycle.  The
    refinement search runs with these pairs pinned, and construction fails
    only if no compatible order exists at all.
    """
    if not cnf_mod.evaluate(f, assignment):
        raise WitnessConstructionError("assignment does not satisfy the formula")
    bp = base_points(f.var_count)
    z_index = {part: idx for idx, part in enumerate(grid.z_parts)}
    pairs = []
    for v in range(1, f.var_count + 1):
        first = z_index.get(bp.z[(v, 1)])
        second = z_index.get(bp.z[(v, 2)])
        if first is None or second is None:
            continue  # variable unused by any clause
        pairs.append((second, first) if assignment[v] else (first, second))

    u_order, v_order, iterations = _cegar_search(
        _Arena(ds, grid, tie_mode), pairs)
    if u_order is None:
        raise WitnessConstructionError(
            "every order compatible with the assignment leaves a preference "
            "cycle on the grid")
    witness = SeparabilityWitness(u_order, v_order, "assignment", iterations)
    _assert_valid(ds, grid, witness, tie_mode)
    return witness


# -- witness serialization ----------------------------------------------------

def witness_to_json(witness: SeparabilityWitness) -> dict:
    return {"u_order": list(witness.u_order),
            "v_order": list(witness.v_order),
            "method": witness.method,
            "iterations": witness.iterations}


def witness_from_json(doc: dict) -> SeparabilityWitness:
    return SeparabilityWitness(
        u_order=tuple(int(v) for v in doc["u_order"]),
        v_order=tuple(int(v) for v in doc["v_order"]),
        method=str(doc.get("method", "unknown")),
        iterations=int(doc.get("iterations", 0)))
