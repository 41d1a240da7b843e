"""Evaluation grids, revealed-preference graphs, cycles, and a GARP check.

The grid collects the z- and o-projections of all bundles in a dataset
(observations and evaluation points alike) and, per level, forms their
product; a "level" is the clause index recorded by the compiler.  The
full-product mode crosses all projections regardless of level, and data
without clause levels, or without bundles, always gets the full product.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .numerics import dot
from .reduction import Dataset

log = logging.getLogger(__name__)

GRID_MODES = ("per-level-union", "full-product")
TIE_MODES = ("strict", "weak")


class GridError(ValueError):
    """Grid construction or mode problem."""


class RelationError(ValueError):
    """Dataset and grid do not match."""


@dataclass(frozen=True)
class GridPoint:
    z: tuple
    o: tuple


@dataclass
class Grid:
    z_parts: list          # deduplicated z-projections, first-appearance order
    o_parts: list          # deduplicated o-projections
    points: list           # GridPoint, deduplicated
    pt_z: list             # z_parts index per point
    pt_o: list             # o_parts index per point
    point_index: dict      # GridPoint -> index
    mode: str = "per-level-union"


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    obs: int  # index of the observation that reveals the edge


@dataclass
class RevealedGraph:
    edges: list = field(default_factory=list)


def build_grid(ds: Dataset, mode: str = "per-level-union") -> Grid:
    """Build the evaluation grid from all bundles of the dataset."""
    if mode not in GRID_MODES:
        raise GridError(f"unknown grid mode {mode!r}")
    sources = [(o.x, o.clause) for o in ds.observations] \
        + [(e.x, e.clause) for e in ds.evaluation_points]

    def split(x):
        return tuple(x[:ds.n_z]), tuple(x[ds.n_z:])

    if mode == "per-level-union" and sources \
            and all(lvl is not None for _, lvl in sources):
        levels: dict = {}
        for x, lvl in sources:
            levels.setdefault(lvl, []).append(split(x))
        groups = [levels[k] for k in sorted(levels)]
    else:
        mode = "full-product"
        groups = [[split(x) for x, _ in sources]]

    z_parts, o_parts, points = [], [], []
    z_index, o_index, point_index = {}, {}, {}
    pt_z, pt_o = [], []

    def intern(part, parts, index):
        if part not in index:
            index[part] = len(parts)
            parts.append(part)
        return index[part]

    for group in groups:
        group_z, group_o = [], []
        for z, o in group:
            zi = intern(z, z_parts, z_index)
            oi = intern(o, o_parts, o_index)
            if zi not in group_z:
                group_z.append(zi)
            if oi not in group_o:
                group_o.append(oi)
        for zi in group_z:
            for oi in group_o:
                pt = GridPoint(z_parts[zi], o_parts[oi])
                if pt not in point_index:
                    point_index[pt] = len(points)
                    points.append(pt)
                    pt_z.append(zi)
                    pt_o.append(oi)

    log.debug("grid: %d z-parts, %d o-parts, %d points (%s)",
              len(z_parts), len(o_parts), len(points), mode)
    return Grid(z_parts, o_parts, points, pt_z, pt_o, point_index, mode)


def revealed_relation(ds: Dataset, grid: Grid,
                      tie_mode: str = "weak") -> RevealedGraph:
    """Edges from each observation to every grid point it could afford.

    Strict mode requires the point to be strictly cheaper than the chosen
    bundle; weak mode also relates equally priced points.
    """
    if tie_mode not in TIE_MODES:
        raise RelationError(f"unknown tie mode {tie_mode!r}")
    graph = RevealedGraph()
    for k, obs in enumerate(ds.observations):
        z, o = tuple(obs.x[:ds.n_z]), tuple(obs.x[ds.n_z:])
        try:
            src = grid.point_index[GridPoint(z, o)]
        except KeyError:
            raise RelationError(
                f"observation {k} bundle is not on the grid") from None
        budget = dot(obs.p, obs.x)
        pz, po = obs.p[:ds.n_z], obs.p[ds.n_z:]
        z_cost = [dot(pz, part) for part in grid.z_parts]
        o_cost = [dot(po, part) for part in grid.o_parts]
        for j in range(len(grid.points)):
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
    bundle is the point, else g<zindex>x<oindex>."""
    rows = [(o.x, o.clause, o.k) for o in ds.observations] \
        + [(e.x, e.clause, e.t) for e in ds.evaluation_points]
    labels = {}
    for x, level, slot in rows:
        if level is not None and slot is not None:
            j = grid.point_index[GridPoint(tuple(x[:ds.n_z]),
                                           tuple(x[ds.n_z:]))]
            labels.setdefault(j, f"l{level}_t{slot}")
    names = [labels.get(j, f"g{grid.pt_z[j]}x{grid.pt_o[j]}")
             for j in range(len(grid.points))]
    lines = ["digraph revealed {"]
    for name in names:
        lines.append(f'  {name};')
    for e in graph.edges:
        lines.append(f'  {names[e.src]} -> {names[e.dst]} [label="k{e.obs}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
