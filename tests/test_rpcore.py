import dataclasses
import random
from fractions import Fraction

import pytest

from seprat import cnf
from seprat.numerics import DimensionMismatch, dot
from seprat.reduction import (CHAIN_EDGES, Dataset, EvaluationPoint,
                              Observation, reduce_formula)
from seprat.rpcore import (GRID_MODES, GridError, RelationError,
                           build_grid, find_cycle_in_adjacency, garp_check,
                           revealed_relation, strongly_connected_components,
                           to_dot, topological_order)
from seprat.septest import decide_cegar
from tests.conftest import (SINGLE_CLAUSE, SLOT_CONFLICT,
                            random_foreign_dataset)

F = Fraction

TWO_LEVELS = "p cnf 4 2\n1 2 3 0\n1 2 4 0\n"


def bundle_slots(ds, grid):
    """Grid index -> gadget slot for the compiled bundles of one level."""
    out = {}
    for o in ds.observations:
        out[grid.locate(o.x)] = o.k
    for e in ds.evaluation_points:
        out[grid.locate(e.x)] = e.t
    return out


class TestBuildGrid:
    def test_single_clause_counts(self, single_clause):
        grid = build_grid(reduce_formula(single_clause))
        assert len(grid.z_parts) == 9
        assert len(grid.o_parts) == 6
        assert len(grid.points) == 54

    def test_one_observation_grid(self):
        ds = Dataset(n_z=1, n_o=1,
                     observations=(Observation(x=(F(1), F(2)),
                                               p=(F(1), F(1))),),
                     evaluation_points=())
        grid = build_grid(ds)
        assert len(grid.points) == 1

    def test_two_level_union(self):
        f = cnf.parse_dimacs(TWO_LEVELS)
        grid = build_grid(reduce_formula(f))
        # 54 per level; offsets keep the o-parts of the levels disjoint
        assert len(grid.points) == 108
        assert len(grid.o_parts) == 12

    def test_full_product_mode(self):
        f = cnf.parse_dimacs("p cnf 4 2\n1 2 3 0\n1 2 4 0\n")
        ds = reduce_formula(f)
        grid = build_grid(ds, "full-product")
        assert len(grid.points) == len(grid.z_parts) * len(grid.o_parts)

    def test_foreign_data_gets_the_full_product(self):
        # without clause levels the default mode crosses every projection,
        # whatever the trailing o-coordinate
        obs = (Observation(x=(F(1), F(1), F(0)), p=(F(1), F(1), F(1))),
               Observation(x=(F(2), F(1), F(0)), p=(F(1), F(2), F(1))),
               Observation(x=(F(1), F(2), F(5)), p=(F(1), F(1), F(1))))
        ds = Dataset(n_z=1, n_o=2, observations=obs, evaluation_points=())
        grid = build_grid(ds, "per-level-union")
        assert grid.points == build_grid(ds, "full-product").points
        assert len(grid.points) == 4

    def test_grid_mode_names_the_grid_built(self, single_clause):
        # data without clause levels is labelled with the full product it
        # gets, whichever mode was asked for
        foreign = Dataset(n_z=1, n_o=1,
                          observations=(Observation(x=(F(1), F(2)),
                                                    p=(F(1), F(1))),),
                          evaluation_points=())
        assert build_grid(foreign).mode == "full-product"
        compiled = reduce_formula(single_clause)
        assert build_grid(compiled).mode == "per-level-union"
        assert build_grid(compiled, "full-product").mode == "full-product"

    def test_foreign_data_without_o_goods_gets_the_full_product(self):
        # data with no o-goods has no level structure and is not rejected
        ds = Dataset(n_z=2, n_o=0,
                     observations=(Observation(x=(F(1), F(1)),
                                               p=(F(1), F(1))),),
                     evaluation_points=())
        grid = build_grid(ds, "per-level-union")
        assert grid.points == build_grid(ds, "full-product").points
        assert len(grid.points) == 1

    def test_unknown_mode(self, single_clause):
        with pytest.raises(GridError):
            build_grid(reduce_formula(single_clause), "cartesian")

    def test_raises_on_bundles_of_different_lengths(self):
        # each price matches its own bundle, but the second bundle and the
        # evaluation point do not match the dataset's goods; the error
        # names the first bundle that differs
        obs = (Observation(x=(F(1), F(2), F(3)), p=(F(1), F(1), F(1))),
               Observation(x=(F(2), F(1), F(1), F(1)),
                           p=(F(1), F(1), F(1), F(1))))
        ev = EvaluationPoint(x=(F(1), F(1)))
        ds = Dataset(n_z=2, n_o=1, observations=obs, evaluation_points=(ev,))
        for mode in GRID_MODES:
            with pytest.raises(DimensionMismatch, match="observation 1 "
                               "bundle dimension 4 vs 3 goods"):
                build_grid(ds, mode)
            with pytest.raises(DimensionMismatch, match="evaluation point 0 "
                               "dimension 2 vs 3 goods"):
                build_grid(dataclasses.replace(ds, observations=obs[:1]),
                           mode)

    def test_raises_on_a_price_of_another_length(self):
        # checked for every row, at build time and for a dataset read
        # against the grid later, naming the first row that differs
        x, p = (F(1), F(2), F(3)), (F(1), F(1), F(1))
        ds = Dataset(n_z=2, n_o=1, evaluation_points=(),
                     observations=(Observation(x=x, p=p),) * 3)
        short = dataclasses.replace(ds, observations=(
            Observation(x=x, p=p), Observation(x=x, p=p[:2]),
            Observation(x=x, p=p + p)))
        message = "observation 1 price dimension 2 vs bundle 3"
        with pytest.raises(DimensionMismatch, match=message):
            build_grid(short)
        with pytest.raises(DimensionMismatch, match=message):
            build_grid(ds).rows(short)


def assert_grid_maps(ds, grid):
    """`locate`, `locate_z`, `rows` and `columns` against the points."""
    for row in ds.observations + ds.evaluation_points:
        j = grid.locate(row.x)
        assert grid.points[j] == (row.x[:ds.n_z], row.x[ds.n_z:])
        assert grid.z_parts[grid.pt_z[j]] == row.x[:ds.n_z]
        assert grid.o_parts[grid.pt_o[j]] == row.x[ds.n_z:]
    # the rows recorded at build time: each observation's point and the
    # distinct prices its price splits into, in first-appearance order
    rows = grid.rows(ds)
    assert rows.points == tuple(grid.locate(o.x) for o in ds.observations)
    for obs, j, zi, oi in zip(ds.observations, rows.points, rows.z_price,
                              rows.o_price):
        assert j == grid.locate(obs.x)
        assert rows.z_prices[zi] == obs.p[:ds.n_z]
        assert rows.o_prices[oi] == obs.p[ds.n_z:]
    assert rows.z_prices == tuple(dict.fromkeys(
        o.p[:ds.n_z] for o in ds.observations))
    assert rows.o_prices == tuple(dict.fromkeys(
        o.p[ds.n_z:] for o in ds.observations))
    # an equal but distinct dataset is read again, to the same rows
    copy = dataclasses.replace(ds)
    assert copy is not ds
    assert grid.rows(copy) == rows
    assert len(grid.columns) == len(grid.o_parts)
    for o, col in enumerate(grid.columns):
        assert col == tuple(j for j, oj in enumerate(grid.pt_o) if oj == o)
    assert [grid.locate_z(part) for part in grid.z_parts] == \
        list(range(len(grid.z_parts)))
    # an unseen bundle is off the grid, and `rows` names the first
    # observation that holds one
    off = (F(99),) * ds.goods
    assert grid.locate(off) is None
    assert grid.locate_z(off[:ds.n_z]) is None
    rows = list(ds.observations)
    rows[1] = dataclasses.replace(rows[1], x=off)
    rows[-1] = dataclasses.replace(rows[-1], x=off)
    with pytest.raises(RelationError,
                       match="observation 1 bundle is not on the grid"):
        grid.rows(dataclasses.replace(ds, observations=tuple(rows)))


class TestGridMaps:
    def test_compiled_per_level_grid(self):
        # TestBuildGrid pins their 54 and 108 points
        for text in (SINGLE_CLAUSE, TWO_LEVELS):
            ds = reduce_formula(cnf.parse_dimacs(text))
            grid = build_grid(ds)
            assert grid.mode == "per-level-union"
            assert_grid_maps(ds, grid)

    def test_compiled_full_product_grid(self):
        for text in (SINGLE_CLAUSE, TWO_LEVELS):
            ds = reduce_formula(cnf.parse_dimacs(text))
            assert_grid_maps(ds, build_grid(ds, "full-product"))

    def test_foreign_full_product_grid(self):
        rng = random.Random(11)
        for _ in range(30):
            ds = random_foreign_dataset(rng)
            for mode in GRID_MODES:
                grid = build_grid(ds, mode)
                assert grid.mode == "full-product"
                assert_grid_maps(ds, grid)

    def test_callers_cannot_change_the_recorded_rows(self, single_clause):
        # reversing the list the grid handed out once flipped the next
        # decision on this grid to not-rationalizable
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        rows = grid.rows(ds)
        assert all(isinstance(getattr(rows, f.name), tuple)
                   for f in dataclasses.fields(rows))
        with pytest.raises(AttributeError):
            rows.points.reverse()
        assert decide_cegar(ds, grid, "strict").rationalizable

    @pytest.mark.parametrize("text", [SINGLE_CLAUSE, SLOT_CONFLICT],
                             ids=["single-clause", "slot-conflict"])
    def test_callers_cannot_change_the_grid(self, text):
        # the grid's sequences were its decision's own lists: reversing
        # pt_z, pt_o, z_parts or o_parts flipped the next strict decision
        # on these grids to not-rationalizable, and a point dropped from a
        # column still gave an accepted verdict
        ds = reduce_formula(cnf.parse_dimacs(text))
        grid = build_grid(ds)
        for name in ("pt_z", "pt_o", "z_parts", "o_parts"):
            with pytest.raises(AttributeError):
                getattr(grid, name).reverse()
        with pytest.raises(AttributeError):
            grid.columns[0].pop()
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.pt_z = grid.pt_z[::-1]
        public = [f.name for f in dataclasses.fields(grid)
                  if not f.name.startswith("_")]
        assert not [name for name in public
                    if isinstance(getattr(grid, name), (list, dict))]
        assert all(isinstance(col, tuple) for col in grid.columns)
        assert decide_cegar(ds, grid, "strict").rationalizable

    def test_parts_of_two_levels_make_no_point(self):
        # both parts are on the per-level grid, but their cell is not
        ds = reduce_formula(cnf.parse_dimacs(TWO_LEVELS))
        grid = build_grid(ds)
        level_z = [{o.x[:ds.n_z] for o in ds.observations if o.clause == c}
                   for c in (1, 2)]
        z, o = next(iter(level_z[0] - level_z[1])), \
            ds.observations[-1].x[ds.n_z:]
        assert grid.locate_z(z) is not None and o in grid.o_parts
        assert grid.locate(z + o) is None


class TestRevealedRelation:
    def test_strict_restriction_is_the_three_chains(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        slots = bundle_slots(ds, grid)
        graph = revealed_relation(ds, grid, "strict")
        restricted = {(slots[e.src], slots[e.dst]) for e in graph.edges
                      if e.src in slots and e.dst in slots}
        assert restricted == CHAIN_EDGES

    def test_strict_subset_of_weak(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        strict = {(e.src, e.dst) for e in revealed_relation(ds, grid, "strict").edges}
        weak = {(e.src, e.dst) for e in revealed_relation(ds, grid, "weak").edges}
        assert strict < weak

    def test_weak_mode_includes_tie_edges(self):
        obs = (Observation(x=(F(2), F(0)), p=(F(1), F(1))),
               Observation(x=(F(0), F(2)), p=(F(1), F(1))))
        ds = Dataset(n_z=1, n_o=1, observations=obs, evaluation_points=())
        grid = build_grid(ds, "full-product")
        a, b = grid.locate((F(2), F(0))), grid.locate((F(0), F(2)))
        strict = {(e.src, e.dst) for e in revealed_relation(ds, grid, "strict").edges}
        weak = {(e.src, e.dst) for e in revealed_relation(ds, grid, "weak").edges}
        # the two equally priced choices relate only once ties count
        assert (a, b) not in strict and (b, a) not in strict
        assert (a, b) in weak and (b, a) in weak

    def test_single_point_grid_has_no_edges(self):
        ds = Dataset(n_z=1, n_o=1,
                     observations=(Observation(x=(F(1), F(2)),
                                               p=(F(1), F(1))),),
                     evaluation_points=())
        graph = revealed_relation(ds, build_grid(ds), "weak")
        assert graph.edges == []

    def test_edge_names_the_observation_that_reveals_it(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        points = grid.points
        for tie_mode in ("strict", "weak"):
            graph = revealed_relation(ds, grid, tie_mode)
            assert graph.edges
            for e in graph.edges:
                obs = ds.observations[e.obs]
                assert points[e.src] == (obs.x[:ds.n_z], obs.x[ds.n_z:])
                z, o = points[e.dst]
                cost, budget = dot(obs.p, z + o), dot(obs.p, obs.x)
                assert cost < budget or (tie_mode == "weak"
                                         and cost == budget)


class TestCycles:
    def test_path_is_acyclic(self):
        assert find_cycle_in_adjacency([[1], [2], []]) is None

    def test_two_cycle_found(self):
        assert find_cycle_in_adjacency([[1], [0]]) == [0, 1]

    def test_chain_edges_are_acyclic(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        graph = revealed_relation(ds, grid, "strict")
        slots = bundle_slots(ds, grid)
        adjacency = [[] for _ in grid.points]
        for e in graph.edges:
            if e.src in slots and e.dst in slots \
                    and (slots[e.src], slots[e.dst]) in CHAIN_EDGES:
                adjacency[e.src].append(e.dst)
        assert find_cycle_in_adjacency(adjacency) is None

    def test_cycle_iff_topological_order_fails(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(2, 9)
            adjacency = [[] for _ in range(n)]
            for _ in range(rng.randint(1, 14)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b and b not in adjacency[a]:
                    adjacency[a].append(b)
            for lst in adjacency:
                lst.sort()
            cycle = find_cycle_in_adjacency(adjacency)
            order = topological_order(adjacency)
            assert (cycle is None) == (order is not None)
            if cycle is not None:
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert b in adjacency[a]
            else:
                pos = {v: i for i, v in enumerate(order)}
                for a in range(n):
                    for b in adjacency[a]:
                        assert pos[a] < pos[b]

    def test_components_are_the_mutual_reachability_classes(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 12)
            adjacency = [[] for _ in range(n)]
            for _ in range(rng.randint(0, 24)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    adjacency[a].append(b)
            reach = []
            for start in range(n):
                seen, stack = {start}, [start]
                while stack:
                    for nxt in adjacency[stack.pop()]:
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                reach.append(seen)
            comp = strongly_connected_components(adjacency)
            for a in range(n):
                for b in range(n):
                    assert (comp[a] == comp[b]) == \
                        (b in reach[a] and a in reach[b])
            # labels complete sinks first: every edge leaving a component
            # points at a lower label
            for a in range(n):
                for b in adjacency[a]:
                    assert comp[b] <= comp[a]
            assert sorted(set(comp)) == list(range(len(set(comp))))


class TestGarp:
    def test_mutual_overspending_is_a_violation(self):
        obs = (Observation(x=(F(4), F(0)), p=(F(1), F(1))),
               Observation(x=(F(0), F(3)), p=(F(1, 2), F(1))))
        ds = Dataset(n_z=1, n_o=1, observations=obs, evaluation_points=())
        result = garp_check(ds)
        assert not result.consistent
        assert set(result.violation) == {0, 1}

    def test_single_observation_consistent(self):
        ds = Dataset(n_z=1, n_o=1,
                     observations=(Observation(x=(F(1), F(2)),
                                               p=(F(1), F(1))),),
                     evaluation_points=())
        assert garp_check(ds).consistent

    def test_reduction_outputs_are_consistent(self, single_clause):
        assert garp_check(reduce_formula(single_clause)).consistent

    def test_violation_cycle_has_a_strict_edge(self):
        rng = random.Random(5)
        for _ in range(40):
            ds = random_foreign_dataset(rng)
            result = garp_check(ds)
            if result.consistent:
                continue
            cycle = list(result.violation)
            budgets = [0] * len(ds.observations)
            from seprat.numerics import dot
            strict = False
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                pa, xa = ds.observations[a].p, ds.observations[a].x
                cost = dot(pa, ds.observations[b].x)
                assert cost <= dot(pa, xa)
                strict = strict or cost < dot(pa, xa)
            assert strict


class TestDot:
    def test_export_names_compiled_bundles(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        graph = revealed_relation(ds, grid, "strict")
        text = to_dot(ds, grid, graph)
        assert text.startswith("digraph")
        assert "l1_t1" in text and "l1_t9" in text
        assert "g0x" in text or "g1x" in text  # synthetic grid points
        assert '->' in text

    def test_points_are_named_from_the_dataset_rows(self, single_clause):
        # the nine bundles (six purchases plus three auxiliary ones) take
        # their slot names; the other 45 points are named by z- and o-part
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        slots = bundle_slots(ds, grid)
        assert sorted(slots.values()) == list(range(1, 10))
        text = to_dot(ds, grid, revealed_relation(ds, grid, "strict"))
        nodes = [line.strip().rstrip(";").strip('"')
                 for line in text.splitlines()
                 if line.endswith(";") and "->" not in line]
        assert nodes == [f"l1_t{slots[j]}" if j in slots
                         else f"g{grid.pt_z[j]}x{grid.pt_o[j]}"
                         for j in range(54)]
