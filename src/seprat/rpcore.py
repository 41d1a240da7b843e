"""Evaluation grids, revealed-preference graphs, cycles, and a GARP check.

The grid collects the z- and o-projections of all bundles in a dataset
(observations and evaluation points alike) and, per level, forms their
product; a "level" is the clause index recorded by the compiler.  The
full-product mode crosses all projections regardless of level, and data
without clause levels, or without bundles, always gets the full product.
`Grid` is an immutable value: every sequence in it is a tuple, and
`build_grid` makes it in one constructor call.  It is the one map from
bundles and parts to indices: `locate` finds a bundle's point,
`locate_z` a z-part's index and `columns` the points of each o-part.
Bundles, parts and prices are found by integer keys (`_key`), so no
lookup hashes a `Fraction`.  `rows` records each observation's point and
the indices of its distinct z- and o-price; the grid keeps the records
of the dataset it was built from, so a decision keys each bundle and
each price once, in `build_grid`.  The dataset's shape is checked once,
here: `build_grid` checks each bundle's length, and `rows` each price's.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .numerics import DimensionMismatch, dot
from .reduction import Dataset

log = logging.getLogger(__name__)

GRID_MODES = ("per-level-union", "full-product")
TIE_MODES = ("strict", "weak")


class GridError(ValueError):
    """Grid construction or mode problem."""


class RelationError(ValueError):
    """Dataset and grid do not match."""


def _key(values) -> tuple:
    """Integer key of a tuple of rationals: each coordinate as its
    (numerator, denominator) pair, so equal tuples get equal keys and
    no `Fraction` is hashed."""
    return tuple([c.as_integer_ratio() for c in values])


def _index(ids: dict, firsts: list, key, value) -> int:
    """`key`'s index in `ids`, numbered by first appearance; `firsts`
    keeps the `value` that came with each key first."""
    i = ids.setdefault(key, len(ids))
    if i == len(firsts):
        firsts.append(value)
    return i


@dataclass(frozen=True, slots=True)
class ObservationRows:
    """Per observation of one dataset, in row order: its grid point and
    the indices of its z-price and o-price among the distinct ones.  The
    fields are tuples, so a caller cannot change the grid's own record."""
    points: tuple          # grid point per observation
    z_price: tuple         # z_prices index per observation
    o_price: tuple         # o_prices index per observation
    z_prices: tuple        # distinct z-prices, first-appearance order
    o_prices: tuple        # distinct o-prices, first-appearance order


def _observation_rows(ds: Dataset, n_z: int, points: list) -> ObservationRows:
    """`ds`'s records from its observations' points, in row order; the
    errors name the first observation whose bundle is off the grid, then
    the first whose price and bundle differ in length."""
    if None in points:
        raise RelationError(
            f"observation {points.index(None)} bundle is not on the grid")
    z_ids, o_ids, z_prices, o_prices = {}, {}, [], []
    z_price, o_price = [], []
    for k, obs in enumerate(ds.observations):
        if len(obs.p) != len(obs.x):
            raise DimensionMismatch(f"observation {k} price dimension "
                                    f"{len(obs.p)} vs bundle {len(obs.x)}")
        key = _key(obs.p)
        z_price.append(_index(z_ids, z_prices, key[:n_z], tuple(obs.p[:n_z])))
        o_price.append(_index(o_ids, o_prices, key[n_z:], tuple(obs.p[n_z:])))
    return ObservationRows(tuple(points), tuple(z_price), tuple(o_price),
                           tuple(z_prices), tuple(o_prices))


@dataclass(frozen=True, slots=True)
class Grid:
    """The grid's parts and points, and the maps between them.  The grid
    is frozen, its sequences are tuples and its maps from integer keys
    (`_key`) to indices are private, so no caller changes the state a
    decision reads.  A point is its z-part and o-part indices (`pt_z`,
    `pt_o`); `points` spells them out on each read.  `rows` gives a
    dataset's observation records, kept from `build_grid` for the
    dataset the grid was built from."""
    z_parts: tuple         # deduplicated z-projections, first-appearance order
    o_parts: tuple         # deduplicated o-projections, first-appearance order
    pt_z: tuple            # z_parts index per point
    pt_o: tuple            # o_parts index per point
    columns: tuple         # ascending point indices per o_parts index
    n_z: int               # the z-goods lead every bundle
    mode: str
    dataset: Dataset = field(repr=False, compare=False)  # built from
    own_rows: ObservationRows = field(repr=False,
                                      compare=False)  # `dataset`'s rows
    _point_index: dict = field(repr=False, compare=False)  # (zi, oi) -> point
    _z_keys: dict = field(repr=False, compare=False)  # z-part key -> index
    _o_keys: dict = field(repr=False, compare=False)  # o-part key -> index

    @property
    def points(self) -> tuple:
        """(z-part, o-part) per point."""
        z, o = self.z_parts, self.o_parts
        return tuple([(z[zi], o[oi]) for zi, oi in zip(self.pt_z, self.pt_o)])

    def locate(self, x) -> int | None:
        """The point of bundle `x`, or None when it is off the grid."""
        key = _key(x)
        return self._point_index.get((self._z_keys.get(key[:self.n_z]),
                                      self._o_keys.get(key[self.n_z:])))

    def locate_z(self, z) -> int | None:
        """The index of z-part `z`, or None when it is not on the grid."""
        return self._z_keys.get(_key(z))

    def rows(self, ds: Dataset) -> ObservationRows:
        """The records of `ds`: kept for the dataset the grid was built
        from, read again for any other; the error names the first
        observation whose bundle is off the grid."""
        if ds is self.dataset:
            return self.own_rows
        points = [self.locate(obs.x) for obs in ds.observations]
        return _observation_rows(ds, self.n_z, points)


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    obs: int  # index of the observation that reveals the edge


@dataclass
class RevealedGraph:
    edges: list = field(default_factory=list)


def build_grid(ds: Dataset, mode: str = "per-level-union") -> Grid:
    """Build the evaluation grid from all bundles of the dataset, and
    record the dataset's rows (`Grid.rows`)."""
    if mode not in GRID_MODES:
        raise GridError(f"unknown grid mode {mode!r}")
    n_z = ds.n_z
    bundles = [(o.x, o.clause) for o in ds.observations] \
        + [(e.x, e.clause) for e in ds.evaluation_points]
    for r, (x, _) in enumerate(bundles):
        if len(x) != ds.goods:
            what = f"observation {r} bundle" if r < len(ds.observations) \
                else f"evaluation point {r - len(ds.observations)}"
            raise DimensionMismatch(
                f"{what} dimension {len(x)} vs {ds.goods} goods")
    keys = [_key(x) for x, _ in bundles]

    if mode == "per-level-union" and bundles \
            and all(lvl is not None for _, lvl in bundles):
        levels: dict = {}
        for r, (_, lvl) in enumerate(bundles):
            levels.setdefault(lvl, []).append(r)
        groups = [levels[k] for k in sorted(levels)]
    else:
        mode = "full-product"
        groups = [range(len(bundles))]

    # a part's index and a point's index are their first appearance; a
    # part is kept from the first bundle that holds it
    z_keys, o_keys, point_index, z_parts, o_parts = {}, {}, {}, [], []
    cells = [None] * len(bundles)  # each bundle's (z-part, o-part) indices
    for group in groups:
        group_z, group_o = {}, {}
        for r in group:
            x, key = bundles[r][0], keys[r]
            cell = cells[r] = (
                _index(z_keys, z_parts, key[:n_z], tuple(x[:n_z])),
                _index(o_keys, o_parts, key[n_z:], tuple(x[n_z:])))
            group_z[cell[0]] = group_o[cell[1]] = None
        for cell in itertools.product(group_z, group_o):
            point_index.setdefault(cell, len(point_index))
    pt_z, pt_o = tuple(zip(*point_index)) or ((), ())
    columns = [[] for _ in o_parts]
    for j, oi in enumerate(pt_o):
        columns[oi].append(j)
    own_rows = _observation_rows(
        ds, n_z, [point_index[cell] for cell in cells[:len(ds.observations)]])

    log.debug("grid: %d z-parts, %d o-parts, %d points (%s)",
              len(z_parts), len(o_parts), len(pt_z), mode)
    return Grid(tuple(z_parts), tuple(o_parts), pt_z, pt_o,
                tuple(map(tuple, columns)), n_z, mode, ds, own_rows,
                point_index, z_keys, o_keys)


def revealed_relation(ds: Dataset, grid: Grid,
                      tie_mode: str = "weak") -> RevealedGraph:
    """Edges from each observation to every grid point it could afford.

    Strict mode requires the point to be strictly cheaper than the chosen
    bundle; weak mode also relates equally priced points.
    """
    if tie_mode not in TIE_MODES:
        raise RelationError(f"unknown tie mode {tie_mode!r}")
    graph = RevealedGraph()
    sources = grid.rows(ds).points
    for k, (obs, src) in enumerate(zip(ds.observations, sources)):
        budget = dot(obs.p, obs.x)
        pz, po = obs.p[:ds.n_z], obs.p[ds.n_z:]
        z_cost = [dot(pz, part) for part in grid.z_parts]
        o_cost = [dot(po, part) for part in grid.o_parts]
        for j in range(len(grid.pt_z)):
            if j == src:
                continue
            cost = z_cost[grid.pt_z[j]] + o_cost[grid.pt_o[j]]
            if cost < budget or (tie_mode == "weak" and cost == budget):
                graph.edges.append(Edge(src, j, k))
    return graph


# -- cycle detection --------------------------------------------------------

def find_cycle_in_adjacency(adjacency: list) -> list | None:
    """First directed cycle in node-index order, via iterative DFS."""
    n = len(adjacency)
    color = [0] * n  # 0 unseen, 1 on stack, 2 done
    for start in range(n):
        if color[start]:
            continue
        stack = [(start, 0)]
        path = [start]
        color[start] = 1
        while stack:
            node, ptr = stack[-1]
            if ptr < len(adjacency[node]):
                stack[-1] = (node, ptr + 1)
                nxt = adjacency[node][ptr]
                if color[nxt] == 1:
                    return path[path.index(nxt):]
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                stack.pop()
                path.pop()
                color[node] = 2
    return None


def strongly_connected_components(adjacency: list) -> list:
    """Component label per node, via iterative Tarjan.

    Labels count up in the order components complete, which is a reverse
    topological order of the condensation.
    """
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack = []
    counter = labels = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr < len(adjacency[node]):
                work[-1] = (node, ptr + 1)
                nxt = adjacency[node][ptr]
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, 0))
                elif comp[nxt] < 0:  # visited and still on the stack
                    low[node] = min(low[node], index[nxt])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    comp[member] = labels
                    if member == node:
                        break
                labels += 1
    return comp


def topological_order(adjacency: list) -> list | None:
    """Kahn's algorithm with a lowest-index tie-break; None if cyclic."""
    n = len(adjacency)
    indeg = [0] * n
    for lst in adjacency:
        for dst in lst:
            indeg[dst] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    heap = []
    for i in ready:
        heappush(heap, i)
    order = []
    while heap:
        node = heappop(heap)
        order.append(node)
        for dst in adjacency[node]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                heappush(heap, dst)
    return order if len(order) == n else None


# -- plain GARP over observations -------------------------------------------

@dataclass(frozen=True)
class GarpResult:
    consistent: bool
    violation: tuple | None = None  # cycle of observation indices


def garp_check(ds: Dataset) -> GarpResult:
    """Direct weak revealed preference over observations, cycle with a
    strict edge reported if one exists."""
    k = len(ds.observations)
    weak = [[False] * k for _ in range(k)]
    strict = [[False] * k for _ in range(k)]
    budgets = [dot(o.p, o.x) for o in ds.observations]
    for a in range(k):
        pa = ds.observations[a].p
        for b in range(k):
            if a == b:
                continue
            cost = dot(pa, ds.observations[b].x)
            if cost <= budgets[a]:
                weak[a][b] = True
                strict[a][b] = cost < budgets[a]
    closure = [row[:] for row in weak]
    for m in range(k):
        cm = closure[m]
        for a in range(k):
            if closure[a][m]:
                ca = closure[a]
                for b in range(k):
                    if cm[b]:
                        ca[b] = True
    for a in range(k):
        for b in range(k):
            if strict[a][b] and closure[b][a]:
                return GarpResult(False, _garp_cycle(weak, a, b))
    return GarpResult(True, None)


def _garp_cycle(weak, a, b):
    """Shortest weak path b -> a, closed by the strict edge a -> b."""
    if a == b:
        return (a,)
    k = len(weak)
    prev = {b: None}
    queue = [b]
    while queue:
        node = queue.pop(0)
        if node == a:
            break
        for nxt in range(k):
            if weak[node][nxt] and nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    path = [a]
    while path[-1] != b:
        path.append(prev[path[-1]])
    path.reverse()  # b .. a; closing edge a -> b is implicit
    return tuple([a] + path[:-1])


# -- DOT export --------------------------------------------------------------

def to_dot(ds: Dataset, grid: Grid, graph: RevealedGraph) -> str:
    """Stable node names: l<level>_t<slot> from the first compiled row whose
    bundle is the point, else g<zindex>x<oindex>.  Every name is quoted,
    since a level or slot read from JSON may be negative."""
    rows = [(o.x, o.clause, o.k) for o in ds.observations] \
        + [(e.x, e.clause, e.t) for e in ds.evaluation_points]
    labels = {}
    for x, level, slot in rows:
        if level is not None and slot is not None:
            labels.setdefault(grid.locate(x), f"l{level}_t{slot}")
    names = [f'"{labels.get(j, f"g{grid.pt_z[j]}x{grid.pt_o[j]}")}"'
             for j in range(len(grid.pt_z))]
    lines = ["digraph revealed {"]
    for name in names:
        lines.append(f'  {name};')
    for e in graph.edges:
        lines.append(f'  {names[e.src]} -> {names[e.dst]} [label="k{e.obs}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
