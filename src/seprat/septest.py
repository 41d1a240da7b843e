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
tables for the two utility layers.  An integer checker that shares no
code with the deciders re-verifies every witness before it is returned.

One decider runs in production: it probes brute force's first u-order,
then learns a blocking clause from each cycle in a lazy SAT encoding
(CEGAR).  It and brute force, the tests' oracle, both work on the
envelope's components: the strongly connected components of a graph
between o-columns that holds, under every u-order, each edge family's
step from column to column (`_Arena`).  No cycle leaves one, so
point edges are built only inside them, and a witness's v-order lists the
components in topological order of the condensation, each in its own
order.  The arena runs on integers alone, on one scale: the grid's z- and
o-parts share one common denominator, all its distinct prices share
another, and every cost is an integer inner product over their product,
taken once per distinct price (compiled data repeats its prices across
levels, so most observations need none).
The grid's rows (`Grid.rows`) give each observation's point and the
indices of its distinct z- and o-price, so no step of a decision, the
grid and the witness check included, hashes a `Fraction`.

Neither the arena nor the checker compares all pairs of parts: each
finds dominance between parts from sorted coordinates, as bitsets, by a
method of its own (`_dominated_pairs`, `_dominators`).  Nor does the
checker cost every point above each observation's chosen bundle: it
walks only the o-columns that hold such a point and whose cheapest
possible point could undercut the budget.

The SAT encoding has one order variable per z-pair that can gate a
cycle (`_relevant_pairs`), true when the lower index is above, and two
transitivity clauses per triangle of such pairs (`_order_instance`);
`_cegar_search` says how a model's cycle becomes a blocking clause.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from operator import mul

from . import cnf as cnf_mod
from . import satcore
from .reduction import Dataset, base_points
from .rpcore import (TIE_MODES, Grid, RelationError, build_grid,
                     find_cycle_in_adjacency, strongly_connected_components,
                     topological_order)

log = logging.getLogger(__name__)

BRUTEFORCE_ZPART_GUARD = 9


class GuardExceeded(ValueError):
    """Too many z-parts for order enumeration; use the refinement decider."""


class WitnessConstructionError(RuntimeError):
    """No cycle-free order is compatible with the given truth assignment."""


@dataclass(frozen=True, slots=True)
class SeparabilityWitness:
    """The two orders that `verify_witness` checks (`stats` says how)."""
    u_order: tuple      # z-part indices, best first
    v_order: tuple      # grid point indices, best first


@dataclass(frozen=True, slots=True)
class TestVerdict:
    """A decision, kept flat: the witness's two orders (None when not
    rationalizable) and how it was found.  `status`, `witness` and `stats`
    are built on demand, so a verdict holds no dict and no second object."""
    u_order: tuple | None
    v_order: tuple | None
    method: str         # "cegar" | "bruteforce"
    iterations: int     # refinements, or orders brute force explored
    grid: str           # the grid's mode

    @property
    def rationalizable(self) -> bool:
        return self.u_order is not None

    @property
    def status(self) -> str:
        return "rationalizable" if self.rationalizable \
            else "not-rationalizable"

    @property
    def witness(self) -> SeparabilityWitness | None:
        if self.u_order is None:
            return None
        return SeparabilityWitness(self.u_order, self.v_order)

    @property
    def stats(self) -> dict:
        count = "iterations" if self.method == "cegar" else "orders_explored"
        return {"method": self.method, count: self.iterations,
                "grid": self.grid}


@dataclass(frozen=True, slots=True)
class WitnessCheck:
    valid: bool
    reason: str | None = None


class _Arena:
    """Order-independent precomputation for one (dataset, grid, tie mode),
    built between o-columns first and between points second.

    The column graph links each column to every column whose o-part its own
    dominates, and each observation's column to every column o with
    `o_cost[o] < budget - z_least` (or `==` under weak ties), for z_least
    the least z-cost over all z-parts at the observation's z-price: no
    point of column o costs less than o_cost[o] + z_least.  One scale holds
    every cost: the grid's parts are integers over one common denominator
    D, and all distinct prices of the grid's rows (`Grid.rows`) over one P,
    so every z-cost, o-cost and budget is an integer over P * D, and a
    point's cost is the plain sum of its z-cost and o-cost.  Costs come
    from one vector per distinct z-price and per distinct o-price
    (`_cost_vector`), so an observation whose price repeats an earlier
    one's takes no new inner product, and no cost or comparison touches a
    `Fraction`.  Dominance between parts is found on the scaled parts from
    sorted coordinates (`_dominated_pairs`), with no pairwise comparison.
    Every edge of the combined relation, under any u-order, runs along that
    graph (2-edges stay inside one column), so its strongly connected
    components hold every cycle.  `comp` labels each point by its column's
    component; `strongly_connected_components` numbers them in reverse
    topological order of the condensation.

    Point edges are built only inside components.  Dominance edges come
    from each dominating pair of columns in one component: each point of
    the upper column points at each point of the lower one.  Those within
    one z-part do not depend on the u-order and are frozen once, with the
    1-edges, as the successor sets `fixed`; those across distinct z-parts
    are candidates gated by a single rank comparison.  2-edges within an
    o-column are realized as the rank-consecutive chain, which has the
    same reachability as the full family.  Points and o-columns are the grid's.
    """

    def __init__(self, ds: Dataset, grid: Grid, tie_mode: str):
        if tie_mode not in TIE_MODES:
            raise RelationError(f"unknown tie mode {tie_mode!r}")
        weak = tie_mode == "weak"
        self.grid = grid
        nz = self.nz = len(grid.z_parts)
        pt_z, pt_o = grid.pt_z, grid.pt_o
        # z- and o-parts share one denominator D: scaled apart, each cost
        # sum would weigh its two halves differently
        parts = _lcd_scaled(grid.z_parts + grid.o_parts)
        z_parts, o_parts = parts[:nz], parts[nz:]

        dominating = _dominated_pairs(o_parts)
        between = [set() for _ in o_parts]
        for a, b in dominating:
            between[a].add(b)
        # compiled data repeats its prices, so each cost vector and its
        # least z-cost is taken once per distinct price of the grid's rows;
        # all prices share one denominator P, so every cost below is on
        # the one P * D scale
        rows = grid.rows(ds)
        prices = _lcd_scaled(rows.z_prices + rows.o_prices)
        cut = len(rows.z_prices)
        z_costs = [_cost_vector(p, z_parts) for p in prices[:cut]]
        o_costs = [_cost_vector(p, o_parts) for p in prices[cut:]]
        z_least = [min(z_cost) for z_cost in z_costs]
        revealed = []
        for src, zi, oi in zip(rows.points, rows.z_price, rows.o_price):
            z_cost, o_cost = z_costs[zi], o_costs[oi]
            budget = z_cost[pt_z[src]] + o_cost[pt_o[src]]
            # no point of column o costs less than o_cost[o] + z_least[zi]
            slack = budget - z_least[zi]
            reach = between[pt_o[src]]
            for o, cost in enumerate(o_cost):
                if cost < slack or (weak and cost == slack):
                    reach.add(o)
            revealed.append((src, z_cost, o_cost, budget))

        col_comp = strongly_connected_components(
            [sorted(dsts) for dsts in between])
        self.comp = [col_comp[o] for o in pt_o]
        members = {}
        for j, c in enumerate(self.comp):
            members.setdefault(c, []).append(j)
        self.always = []
        for src, z_cost, o_cost, budget in revealed:
            for j in members[self.comp[src]]:
                if j == src:
                    continue
                cost = z_cost[pt_z[j]] + o_cost[pt_o[j]]
                if cost < budget or (weak and cost == budget):
                    self.always.append((src, j))
        self.dom_candidates = []  # (src_pt, dst_pt, z_src, z_dst)
        for a, b in dominating:
            if col_comp[a] != col_comp[b]:
                continue
            for i in grid.columns[a]:
                zi = pt_z[i]
                for j in grid.columns[b]:
                    zj = pt_z[j]
                    if zi == zj:
                        self.always.append((i, j))
                    else:
                        self.dom_candidates.append((i, j, zi, zj))
        self.fixed = [set() for _ in grid.pt_z]
        for s, d in self.always:
            self.fixed[s].add(d)

        self.z_dom_pairs = _dominated_pairs(z_parts)

    def adjacency_under(self, rank: list) -> list:
        """The combined relation under `rank` inside the components: it
        has a cycle exactly when the whole relation has one."""
        adj = [list(dsts) for dsts in self.fixed]
        pt_z = self.grid.pt_z
        for pts in self.grid.columns:
            chain = sorted(pts, key=lambda j: rank[pt_z[j]])
            for s, d in zip(chain, chain[1:]):
                adj[s].append(d)
        for s, d, zs, zd in self.dom_candidates:
            if rank[zs] < rank[zd]:
                adj[s].append(d)
        return adj

    def v_order(self, adj: list) -> list | None:
        """A topological order of the whole relation from `adj`, one of
        `adjacency_under`'s graphs, or None when `adj` has a cycle: its
        own topological order stable-sorted by component, in topological
        order of the condensation.  Every edge between components follows
        the condensation, so it runs forward too."""
        order = topological_order(adj)
        if order is None:
            return None
        comp = self.comp
        return sorted(order, key=lambda j: -comp[j])

    def respects_dominance(self, rank: list) -> bool:
        return all(rank[a] < rank[b] for a, b in self.z_dom_pairs)


def _lcd_scaled(vectors: list) -> list:
    """`vectors` as integer tuples over one common denominator."""
    ratios = [c.as_integer_ratio() for v in vectors for c in v]
    den = math.lcm(*[d for _, d in ratios])
    flat = (n * (den // d) for n, d in ratios)
    return [tuple(itertools.islice(flat, len(v))) for v in vectors]


def _cost_vector(price: tuple, parts: list) -> list:
    """The cost of each of the integer `parts` at the integer `price`, on
    the one scale of every cost (the parts' D times the prices' P);
    `build_grid` has checked that the lengths agree."""
    return [sum(map(mul, price, part)) for part in parts]


def _dominated_pairs(parts: list) -> list:
    """Index pairs (a, b), a != b, with parts[a] >= parts[b] in every
    coordinate of the integer `parts`, in lexicographic order: grid parts
    are distinct, so parts[a] dominates parts[b].

    Dominance is found from sorted coordinates, not by comparing pairs.
    Per coordinate, one sort of its distinct values and a running union
    give each value the bitset of the parts at or below it there; a
    part's bitset of the parts it dominates is the AND of its values'
    bitsets over all coordinates.  The cost is d sorts, O(d * n) big-int
    operations and one step per pair found."""
    n = len(parts)
    below = [(1 << n) - 1] * n
    for coord in zip(*parts):
        bits = {}
        for a, c in enumerate(coord):
            bits[c] = bits.get(c, 0) | 1 << a
        seen = 0
        for c in sorted(bits):
            seen = bits[c] = seen | bits[c]
        below = [mask & bits[c] for mask, c in zip(below, coord)]
    pairs = []
    for a, mask in enumerate(below):
        mask &= ~(1 << a)
        while mask:
            low = mask & -mask
            pairs.append((a, low.bit_length() - 1))
            mask ^= low
    return pairs


def decide_bruteforce(ds: Dataset, grid: Grid,
                      tie_mode: str = "weak") -> TestVerdict:
    """Test oracle: the lexicographically first acyclic order wins."""
    arena = _Arena(ds, grid, tie_mode)
    if arena.nz > BRUTEFORCE_ZPART_GUARD:
        raise GuardExceeded(
            f"{arena.nz} z-parts exceeds the enumeration guard of "
            f"{BRUTEFORCE_ZPART_GUARD}; use decide_cegar")
    explored = 0
    u_order = v_order = None
    rank = [0] * arena.nz
    for perm in itertools.permutations(range(arena.nz)):
        for pos, z in enumerate(perm):
            rank[z] = pos
        if not arena.respects_dominance(rank):
            continue
        explored += 1
        order = arena.v_order(arena.adjacency_under(rank))
        if order is not None:
            u_order, v_order = tuple(perm), tuple(order)
            _checked(ds, grid, tie_mode, u_order, v_order)
            break
    return TestVerdict(u_order, v_order, "bruteforce", explored, grid.mode)


def _relevant_pairs(arena: _Arena, units) -> set:
    """The unordered z-part pairs (a, b), a < b, whose order can gate an
    edge of a cycle: pairs that share a column of `Grid.columns` in a
    component holding a frozen edge (every cycle holds a 1-edge, and
    1-edges are frozen), the pairs of inner dominance candidates, and the
    pairs of `units`.  No other pair's order changes whether the relation
    has a cycle."""
    comp, pt_z = arena.comp, arena.grid.pt_z
    cyclic = {comp[s] for s, dsts in enumerate(arena.fixed) if dsts}
    # the columns of one level, or of a full-product grid, share a z-set
    z_sets = {tuple(sorted(pt_z[j] for j in pts))
              for pts in arena.grid.columns if comp[pts[0]] in cyclic}
    pairs = set()
    for zs in z_sets:
        pairs.update(itertools.combinations(zs, 2))
    for *_, a, b in arena.dom_candidates:
        pairs.add((min(a, b), max(a, b)))
    for a, b in units:
        pairs.add((min(a, b), max(a, b)))
    return pairs


def _order_var_map(pairs) -> dict:
    """One SAT variable per pair (a, b), a < b, of `pairs`, numbered in
    lexicographic order; it is true when a is above b (`_above`)."""
    return {pair: v for v, pair in enumerate(sorted(pairs), 1)}


def _above(var: dict, a: int, b: int) -> int:
    """The literal for above(a, b): the pair's variable, or its negation
    when a > b."""
    return var[(a, b)] if a < b else -var[(b, a)]


def _order_instance(var: dict, extra_units=()) -> satcore.SatInstance:
    """Transitivity for each triangle a < b < c whose three pairs all have
    variables, as the two clauses that forbid its two 3-cycles (the other
    four transitivity clauses are their rotations), and the units.  A
    model's `above` relation can still be cyclic; `_cegar_search` cuts
    such a cycle lazily."""
    succ = {}
    for a, b in var:
        succ.setdefault(a, []).append(b)
    clauses = []
    for (a, b), ab in var.items():
        for c in succ.get(b, ()):
            ac = var.get((a, c))
            if ac is not None:
                bc = var[(b, c)]
                clauses.append([-ab, -bc, ac])
                clauses.append([ab, bc, -ac])
    clauses.extend([_above(var, a, b)] for a, b in extra_units)
    return satcore.SatInstance(len(var), clauses)


def _cegar_search(arena: _Arena, extra_units=(),
                  conflict_limit: int | None = None):
    """Probe, then refine; returns (u_order, v_order, iterations).

    u_order is the accepted z-part order, best first, and v_order the
    topological order of the combined relation under it; both are None
    when every admissible order leaves a cycle.

    The probe, brute force's first order, is accepted with no iterations
    when its graph is acyclic.  Otherwise a cyclic frozen graph is
    rejected with no iterations, and the SAT search runs as if the probe
    had not.  It has one order variable per relevant pair
    (`_relevant_pairs`, `_order_var_map`), and a model's `above` relation
    is read off each variable's sign: an order that agrees with a model
    on those pairs has a cycle exactly when the model's own lowest-index
    linear extension has one.  Every clause it adds negates
    above-literals (`_above`).  When a model's `above` relation is itself
    cyclic (a cycle through pairs that close no triangle of
    `_order_instance`), that cycle's literals are blocked as one clause,
    a lazy order cut that does not count as an iteration.

    The arena's graph holds only edges inside its components, which is
    where every cycle lies.  Each blocking clause comes from the cycle
    with the fewest order-gated edges through some gated edge of the
    cycle found; since the frozen edges alone are acyclic, every cycle
    has one.  A run of consecutive 2-edges in one o-column, z_a -> ... ->
    z_c, is blocked as the single literal above(z_a, z_c): under that
    pair the full 2-edge family holds (z_a, o) -> (z_c, o), so the cycle
    survives in every order that keeps the clause's other literals.
    """
    frozen = arena.fixed
    nz = arena.nz
    units = list(arena.z_dom_pairs) + list(extra_units)
    probe = _total_order(nz, units)
    if probe is None:
        return None, None, 0
    perm, rank = probe
    v_order = arena.v_order(arena.adjacency_under(rank))
    if v_order is not None:
        return tuple(perm), tuple(v_order), 0
    # an acyclic probe graph holds the frozen graph, so only a cyclic one
    # leaves the frozen graph to check
    if topological_order(frozen) is None:
        return None, None, 0
    var = _order_var_map(_relevant_pairs(arena, units))
    solver = satcore.Solver(_order_instance(var, units), conflict_limit)
    iterations = 0
    while True:
        result = solver.solve()
        if result.status == "unsat":
            return None, None, iterations
        model = result.model
        above = [(a, b) if model[v - 1] else (b, a)
                 for (a, b), v in var.items()]
        order = _total_order(nz, above)
        if order is None:
            below = [[] for _ in range(nz)]
            for a, b in above:
                below[a].append(b)
            cut = list(_cycle_edges(find_cycle_in_adjacency(below)))
            solver.add_clause([-_above(var, a, b) for a, b in cut])
            log.debug("lazy order cut: blocked the %d-pair order cycle %s",
                      len(cut), cut)
            continue
        perm, rank = order
        adj = arena.adjacency_under(rank)
        for lst in adj:
            lst.sort()
        cycle = find_cycle_in_adjacency(adj)
        if cycle is None:
            return tuple(perm), tuple(arena.v_order(adj)), iterations
        cycle = _fewest_gated_cycle(adj, frozen, cycle)
        pairs, gated = _blocked_pairs(arena, cycle)
        solver.add_clause([-_above(var, a, b) for a, b in pairs])
        iterations += 1
        log.debug("refinement %d: component %d, blocked %d order literals "
                  "(%d before the column-run shortcut)", iterations,
                  arena.comp[cycle[0]], len(pairs), gated)


def _blocked_pairs(arena: _Arena, cycle: list) -> tuple:
    """The order pairs that `cycle`'s gated edges need, each once, with
    every maximal run of 2-edges in one o-column z_a -> ... -> z_c as the
    single pair (z_a, z_c); also the number of distinct gated pairs
    before that shortcut.  The cycle is read from one of its frozen
    edges, so no run wraps around its end."""
    frozen, pt_z, pt_o = arena.fixed, arena.grid.pt_z, arena.grid.pt_o
    edges = list(_cycle_edges(cycle))
    start = next(i for i, (s, d) in enumerate(edges) if d in frozen[s])
    pairs, gated, in_run = [], set(), False
    for s, d in edges[start:] + edges[:start]:
        if d in frozen[s]:
            in_run = False
            continue
        gated.add((pt_z[s], pt_z[d]))
        two_edge = pt_o[s] == pt_o[d]
        if in_run and two_edge:
            pairs[-1] = (pairs[-1][0], pt_z[d])
        else:
            pairs.append((pt_z[s], pt_z[d]))
        in_run = two_edge
    return list(dict.fromkeys(pairs)), len(gated)


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


def _total_order(nz: int, pairs) -> tuple | None:
    """Lowest-index (order, ranks) with a above b per pair, or None."""
    below = [[] for _ in range(nz)]
    for a, b in pairs:
        below[a].append(b)
    order = topological_order(below)
    if order is None:
        return None
    rank = [0] * nz
    for pos, z in enumerate(order):
        rank[z] = pos
    return order, rank


def decide_cegar(ds: Dataset, grid: Grid, tie_mode: str = "weak",
                 conflict_limit: int | None = None) -> TestVerdict:
    """One probe, then lazy SAT search with cycle-driven blocking clauses."""
    arena = _Arena(ds, grid, tie_mode)
    u_order, v_order, iterations = _cegar_search(arena, (), conflict_limit)
    if u_order is not None:
        _checked(ds, grid, tie_mode, u_order, v_order)
    return TestVerdict(u_order, v_order, "cegar", iterations, grid.mode)


def decide(ds: Dataset, tie_mode: str = "weak",
           grid_mode: str = "per-level-union",
           conflict_limit: int | None = None) -> TestVerdict:
    """The production decider: `decide_cegar` over the dataset's grid."""
    return decide_cegar(ds, build_grid(ds, grid_mode), tie_mode,
                        conflict_limit)


# -- witness verification ----------------------------------------------------

def _scaled(vectors: list) -> list:
    """`vectors` as integer tuples over one common denominator."""
    ratios = [[c.as_integer_ratio() for c in v] for v in vectors]
    den = math.lcm(*[d for r in ratios for _, d in r])
    return [tuple([n * (den // d) for n, d in r]) for r in ratios]


def verify_witness(ds: Dataset, grid: Grid, witness: SeparabilityWitness,
                   tie_mode: str = "weak") -> WitnessCheck:
    """Full check of both orders against every constraint family, on
    integers and apart from the deciders' code, all on one scale: grid
    parts share one denominator (scaled apart, z- and o-parts would skew
    each cost sum), and all distinct prices of the grid's rows
    (`Grid.rows`) share another, so every cost and budget is an integer
    over their product.  The first failure is reported, in the order of
    the families below.

    Dominance between parts comes from per-part bitsets of dominators,
    built from sorted coordinates (`_dominators`), not from pairwise
    comparisons.  1-edges take one z-cost vector per distinct z-price
    and one o-cost vector per distinct o-price, and a point's cost is
    the sum of its two entries.
    Each o-column's points are sorted by v-rank once.  An observation
    skips a column whose best point ranks below its chosen bundle, and a
    column whose o-cost plus the price's least z-cost (a bound on every
    point of the column, negative coordinates included) is not below
    the least cost found so far, which starts at budget + 1; in any
    other column it walks the points ranked above the bundle.  2-edges
    hold when v-ranks rise along each o-column sorted by u-rank, so a
    column's prefix maximum of v-rank is its last entry.  Each dominance
    edge then needs one bisection into the dominating column, and a
    dominating column whose last point ranks above the dominated
    column's first needs none."""
    if tie_mode not in TIE_MODES:
        raise RelationError(f"unknown tie mode {tie_mode!r}")
    nz, npts = len(grid.z_parts), len(grid.pt_z)
    parts = _scaled(grid.z_parts + grid.o_parts)
    zs, os_ = parts[:nz], parts[nz:]
    if not _is_permutation(witness.u_order, nz):
        return WitnessCheck(False, "u-order is not a permutation of z-parts")
    if not _is_permutation(witness.v_order, npts):
        return WitnessCheck(False, "v-order is not a permutation of grid points")
    urank = [0] * nz
    for pos, z in enumerate(witness.u_order):
        urank[z] = pos
    vrank = [0] * npts
    for pos, j in enumerate(witness.v_order):
        vrank[j] = pos

    # a z-part's dominators that the u-order puts below it; walking the
    # u-order keeps the set already placed above, and the first inverted
    # pair (a, b) in index order is the one named
    z_up = _dominators(zs)
    placed, inverted = 0, []
    for b in witness.u_order:
        late = z_up[b] & ~placed & ~(1 << b)
        if late:
            inverted.append(((late & -late).bit_length() - 1, b))
        placed |= 1 << b
    if inverted:
        a, b = min(inverted)
        return WitnessCheck(
            False, f"u-order inverts the dominated z-part pair ({a}, {b})")

    pt_z, pt_o = grid.pt_z, grid.pt_o
    rows = grid.rows(ds)

    # each o-column's points best first, and the columns in the order of
    # their best points: those with a point above an observation's chosen
    # bundle come first
    by_v = [sorted(col, key=vrank.__getitem__) for col in grid.columns]
    tops = sorted(range(len(by_v)), key=lambda o: vrank[by_v[o][0]])
    top_ranks = [vrank[by_v[o][0]] for o in tops]
    prices = _scaled(rows.z_prices + rows.o_prices)
    cut = len(rows.z_prices)
    z_costs = [[sum(map(mul, p, v)) for v in zs] for p in prices[:cut]]
    z_least = [min(z_cost) for z_cost in z_costs]
    o_costs = [[sum(map(mul, p, v)) for v in os_] for p in prices[cut:]]
    for k, (src, zi, oi) in enumerate(zip(rows.points, rows.z_price,
                                          rows.o_price)):
        z_cost, o_cost = z_costs[zi], o_costs[oi]
        budget = z_cost[pt_z[src]] + o_cost[pt_o[src]]
        rank = vrank[src]
        # no point of a column costs less than its o-cost plus the price's
        # least z-cost, so a column whose bound is not below the least
        # cost found so far cannot lower it
        bound = z_least[zi]
        least = budget + 1
        for o in tops[:bisect_left(top_ranks, rank)]:
            if o_cost[o] + bound >= least:
                continue
            for j in by_v[o]:
                if vrank[j] >= rank:
                    break
                cost = z_cost[pt_z[j]] + o_cost[o]
                if cost < least:
                    least = cost
        if least < budget or (tie_mode == "weak" and least == budget):
            return WitnessCheck(
                False, f"v-order puts an affordable point above the chosen "
                       f"bundle of observation {k}")

    columns = [sorted(col, key=lambda j: urank[pt_z[j]])
               for col in grid.columns]
    for col in columns:
        for s, d in zip(col, col[1:]):
            if vrank[s] > vrank[d]:
                return WitnessCheck(
                    False, f"v-order violates the order edge between "
                           f"z-parts {pt_z[s]} and {pt_z[d]}")
    keys = [[urank[pt_z[j]] for j in col] for col in columns]

    def violated(a, b):
        """The first dominance edge from column a into column b, in
        column b's u-order, that the v-order ranks backwards."""
        for j in columns[b]:
            pos = bisect_right(keys[a], urank[pt_z[j]])
            if pos and vrank[columns[a][pos - 1]] > vrank[j]:
                return columns[a][pos - 1], j
        return None

    # v-ranks rise along each column, so every edge from column a into
    # column b runs forward when a's last point ranks above b's first; the
    # first violated pair (a, b) in index order is the one named, and once
    # one is found, only a lower a can come before it
    lasts = [vrank[col[-1]] for col in columns]
    first = None
    for b, up in enumerate(_dominators(os_)):
        top = vrank[columns[b][0]]
        mask = up & ~(1 << b)
        if first:
            mask &= (1 << first[0]) - 1
        while mask:
            low = mask & -mask
            mask ^= low
            a = low.bit_length() - 1
            if lasts[a] > top:
                edge = violated(a, b)
                if edge:
                    first = (a, *edge)
                    break
    if first:
        _, i, j = first
        return WitnessCheck(
            False, f"v-order violates the dominance edge from point {i} "
                   f"to {j}")
    return WitnessCheck(True, None)


def _is_permutation(order, n: int) -> bool:
    """`order` holds each of 0..n-1 once, as an `int`: a float or bool
    that equals one, or a string, is no index."""
    return set(map(type, order)) <= {int} and sorted(order) == list(range(n))


def _dominators(vectors: list) -> list:
    """Per vector, the bitset of the vectors at or above it in every
    coordinate, itself included: per coordinate, one walk down the
    indices sorted by value, with a running union that each run of equal
    values takes once the run is in, ANDed into the run's bitsets."""
    n = len(vectors)
    masks = [(1 << n) - 1] * n
    for coord in zip(*vectors):
        order = sorted(range(n), key=coord.__getitem__, reverse=True)
        seen = start = 0
        for i, a in enumerate(order, 1):
            seen |= 1 << a
            if i == n or coord[order[i]] != coord[a]:
                for b in order[start:i]:
                    masks[b] &= seen
                start = i
    return masks


def _checked(ds, grid, tie_mode, u_order, v_order) -> SeparabilityWitness:
    """The witness of the two orders, once `verify_witness` accepts it."""
    witness = SeparabilityWitness(u_order, v_order)
    check = verify_witness(ds, grid, witness, tie_mode)
    if not check.valid:
        raise RuntimeError(f"internal error: produced witness fails its own "
                           f"verification: {check.reason}")
    return witness


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
    pairs = []
    for v in range(1, f.var_count + 1):
        first = grid.locate_z(bp.z[(v, 1)])
        second = grid.locate_z(bp.z[(v, 2)])
        if first is None or second is None:
            continue  # variable unused by any clause
        pairs.append((second, first) if assignment[v] else (first, second))

    u_order, v_order, _ = _cegar_search(_Arena(ds, grid, tie_mode), pairs)
    if u_order is None:
        raise WitnessConstructionError(
            "every order compatible with the assignment leaves a preference "
            "cycle on the grid")
    return _checked(ds, grid, tie_mode, u_order, v_order)


# -- witness serialization ----------------------------------------------------

def witness_to_json(witness: SeparabilityWitness) -> dict:
    return {"u_order": list(witness.u_order),
            "v_order": list(witness.v_order)}


def witness_from_json(doc: dict) -> SeparabilityWitness:
    """Both orders must be lists of JSON integers: a float, bool or
    string is refused, naming its field, rather than coerced, and so is a
    document that is not an object or lacks a field.  Other keys are
    ignored."""
    if not isinstance(doc, dict):
        raise ValueError("witness must be a JSON object")
    for key in ("u_order", "v_order"):
        if key not in doc:
            raise ValueError(f"witness has no {key}")
        values = doc[key]
        if not isinstance(values, list) or {type(x) for x in values} - {int}:
            raise ValueError(f"witness {key} must hold JSON integers")
    return SeparabilityWitness(tuple(doc["u_order"]), tuple(doc["v_order"]))
