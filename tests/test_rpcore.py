import random
from fractions import Fraction

import pytest

from seprat import cnf
from seprat.numerics import dot
from seprat.reduction import (CHAIN_EDGES, Dataset, EvaluationPoint,
                              Observation, reduce_formula)
from seprat.rpcore import (GridError, GridPoint, build_grid,
                           find_cycle_in_adjacency, garp_check,
                           revealed_relation, strongly_connected_components,
                           to_dot, topological_order)

F = Fraction


def bundle_slots(ds, grid):
    """Grid index -> gadget slot for the compiled bundles of one level."""
    out = {}
    for o in ds.observations:
        pt = GridPoint(tuple(o.x[:ds.n_z]), tuple(o.x[ds.n_z:]))
        out[grid.point_index[pt]] = o.k
    for e in ds.evaluation_points:
        pt = GridPoint(tuple(e.x[:ds.n_z]), tuple(e.x[ds.n_z:]))
        out[grid.point_index[pt]] = e.t
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
        f = cnf.parse_dimacs("p cnf 4 2\n1 2 3 0\n1 2 4 0\n")
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
        a = grid.point_index[GridPoint((F(2),), (F(0),))]
        b = grid.point_index[GridPoint((F(0),), (F(2),))]
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
        for tie_mode in ("strict", "weak"):
            graph = revealed_relation(ds, grid, tie_mode)
            assert graph.edges
            for e in graph.edges:
                obs = ds.observations[e.obs]
                assert grid.points[e.src] == GridPoint(
                    tuple(obs.x[:ds.n_z]), tuple(obs.x[ds.n_z:]))
                dst = grid.points[e.dst]
                cost, budget = dot(obs.p, dst.z + dst.o), dot(obs.p, obs.x)
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
        from tests.conftest import random_foreign_dataset
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
        nodes = [line.strip().rstrip(";") for line in text.splitlines()
                 if line.endswith(";") and "->" not in line]
        assert nodes == [f"l1_t{slots[j]}" if j in slots
                         else f"g{grid.pt_z[j]}x{grid.pt_o[j]}"
                         for j in range(54)]
