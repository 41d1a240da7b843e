import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from seprat import cnf
from seprat.numerics import dominates
from seprat.reduction import (Dataset, EvaluationPoint, Observation,
                              base_points, reduce_formula)
from seprat.rpcore import (GridPoint, build_grid, find_cycle_in_adjacency,
                           revealed_relation)
from seprat.septest import (GuardExceeded, SeparabilityWitness, _Arena,
                            WitnessConstructionError, decide,
                            decide_bruteforce, decide_cegar,
                            truth_assignment_to_witness, verify_witness,
                            witness_from_json, witness_to_json)
from tests.conftest import (ALL_SIGN_PATTERNS, SINGLE_CLAUSE, SLOT_CONFLICT,
                            random_foreign_dataset)

F = Fraction


def one_point_dataset():
    return Dataset(n_z=1, n_o=1,
                   observations=(Observation(x=(F(1), F(2)),
                                             p=(F(1), F(1))),),
                   evaluation_points=())


def _reachable(adjacency):
    """Transitive closure as a list of reachable-index sets."""
    n = len(adjacency)
    reach = []
    for start in range(n):
        seen = set()
        stack = list(adjacency[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(adjacency[node])
        reach.append(seen)
    return reach


class TestDecide:
    def test_single_point_trivially_rationalizable(self):
        ds = one_point_dataset()
        verdict = decide_bruteforce(ds, build_grid(ds), "weak")
        assert verdict.rationalizable
        assert verdict.witness.u_order == (0,)

    def test_single_clause_rationalizable_strict(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        vb = decide_bruteforce(ds, grid, "strict")
        vc = decide_cegar(ds, grid, "strict")
        assert vb.rationalizable and vc.rationalizable
        assert verify_witness(ds, grid, vb.witness, "strict").valid
        assert verify_witness(ds, grid, vc.witness, "strict").valid

    def test_all_sign_patterns_not_rationalizable(self, all_sign_patterns):
        ds = reduce_formula(all_sign_patterns)
        verdict = decide(ds, tie_mode="strict")
        assert not verdict.rationalizable
        assert verdict.witness is None

    def test_bruteforce_guard(self, all_sign_patterns):
        ds = reduce_formula(all_sign_patterns)
        grid = build_grid(ds)
        with pytest.raises(GuardExceeded, match="decide_cegar"):
            decide_bruteforce(ds, grid, "strict")

    def test_auto_dispatch(self, single_clause):
        # auto enumerates orders only up to six z-parts; the single clause's
        # nine and the seven below exceed that, so auto refines
        ds = reduce_formula(single_clause)
        verdict = decide(ds, tie_mode="strict", method="auto")
        assert verdict.stats["method"] == "cegar"
        foreign = one_point_dataset()
        assert decide(foreign, method="auto").stats["method"] == "bruteforce"
        for nz, method in ((6, "bruteforce"), (7, "cegar")):
            spread = Dataset(
                n_z=1, n_o=1,
                observations=(Observation(x=(F(0), F(1)), p=(F(1), F(1))),),
                evaluation_points=tuple(EvaluationPoint(x=(F(z), F(1)))
                                        for z in range(1, nz)))
            assert len(build_grid(spread).z_parts) == nz
            assert decide(spread, method="auto").stats["method"] == method

    def test_data_without_bundles_is_rationalizable(self):
        # the empty grid leaves nothing to order, so both deciders accept
        # with an empty witness
        ds = Dataset(n_z=2, n_o=7, observations=(), evaluation_points=())
        grid = build_grid(ds)
        for method in ("auto", "cegar"):
            verdict = decide(ds, tie_mode="strict", method=method)
            assert verdict.rationalizable
            assert verdict.stats["grid"] == "full-product"
            assert verdict.witness.u_order == verdict.witness.v_order == ()
            assert verify_witness(ds, grid, verdict.witness, "strict").valid

    def test_deciders_agree_on_foreign_datasets(self):
        rng = random.Random(41)
        for _ in range(60):
            ds = random_foreign_dataset(rng)
            grid = build_grid(ds, "full-product")
            tie = rng.choice(["strict", "weak"])
            vb = decide_bruteforce(ds, grid, tie)
            vc = decide_cegar(ds, grid, tie)
            assert vb.status == vc.status
            if vb.rationalizable:
                assert verify_witness(ds, grid, vb.witness, tie).valid
                assert verify_witness(ds, grid, vc.witness, tie).valid

    def test_pure_choice_cycle_needs_no_refinement(self):
        # each choice strictly overspends on the other: the affordability
        # edges alone close a cycle before any ordering is considered
        obs = (Observation(x=(F(4), F(0)), p=(F(1), F(1))),
               Observation(x=(F(0), F(3)), p=(F(1, 2), F(1))))
        ds = Dataset(n_z=1, n_o=1, observations=obs, evaluation_points=())
        verdict = decide_cegar(ds, build_grid(ds, "full-product"), "strict")
        assert not verdict.rationalizable
        assert verdict.stats["iterations"] == 0

    def test_single_z_part_accepted_by_both_deciders(self):
        ds = one_point_dataset()
        grid = build_grid(ds)
        vb = decide_bruteforce(ds, grid, "weak")
        vc = decide_cegar(ds, grid, "weak")
        assert vb.rationalizable and vc.rationalizable
        assert vc.witness.u_order == (0,)
        assert verify_witness(ds, grid, vc.witness, "weak").valid

    def test_single_z_part_choice_cycle_rejected_by_both_deciders(self):
        # both choices share the one z-part and each strictly overspends
        # on the other's o-part
        obs = (Observation(x=(F(1), F(4), F(0)), p=(F(1), F(1), F(1))),
               Observation(x=(F(1), F(0), F(3)), p=(F(1), F(1, 2), F(1))))
        ds = Dataset(n_z=1, n_o=2, observations=obs, evaluation_points=())
        grid = build_grid(ds)
        assert len(grid.z_parts) == 1
        for tie in ("strict", "weak"):
            vb = decide_bruteforce(ds, grid, tie)
            vc = decide_cegar(ds, grid, tie)
            assert not vb.rationalizable and not vc.rationalizable
            assert vc.witness is None

    def test_determinism(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        a = decide_cegar(ds, grid, "strict")
        b = decide_cegar(ds, grid, "strict")
        assert a == b

    def test_three_clause_satisfiable_formula(self):
        f = cnf.parse_dimacs("p cnf 5 3\n1 2 3 0\n-2 4 5 0\n1 -3 5 0\n")
        assert cnf.brute_force_sat(f) is not None
        ds = reduce_formula(f)
        grid = build_grid(ds)
        verdict = decide_cegar(ds, grid, "strict")
        assert verdict.rationalizable
        assert verify_witness(ds, grid, verdict.witness, "strict").valid


class TestConstructionSemantics:
    """Pinned behavior of the deciders on compiled datasets.

    These tests document facts about the compiled gadgets, verified
    exactly (see also the acceptance suite):

    * weak (<=) and strict affordability give the same verdicts on the
      named formulas;
    * a clause block ties the u-order only through the three column-shared
      slot pairs (w3, w4), (w6, w7), (w9, w1), one per variable, so no
      order between different variables is forced and clauses whose slots
      reverse each other (SLOT_CONFLICT) stay rationalizable;
    * an assignment that falsifies the clause closes the block cycle.
    """

    def test_weak_mode_trivially_rejects_unperturbed_output(
            self, single_clause, all_sign_patterns):
        # The name records the earlier gadget, under which every
        # unperturbed compiled dataset failed weak ties without any
        # ordering involved.  On the mended gadget weak ties agree with
        # strict ones: the satisfiable clause is accepted with a valid
        # weak witness, and all-sign-patterns is still rejected.
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        verdict = decide_cegar(ds, grid, "weak")
        assert verdict.rationalizable
        assert verify_witness(ds, grid, verdict.witness, "weak").valid
        assert not decide(reduce_formula(all_sign_patterns),
                          tie_mode="weak").rationalizable

    def test_positive_prices_restore_weak_mode(self, single_clause):
        ds = reduce_formula(single_clause, "paper", F(1, 10 ** 6))
        assert decide(ds, tie_mode="weak").rationalizable
        assert decide(ds, tie_mode="strict").rationalizable

    def test_slot_conflict_formula_is_satisfiable_and_accepted(self):
        # The two clauses put variables 1 and 2 in reversed slots; that is
        # harmless once no clause forces an order between variables.
        f = cnf.parse_dimacs(SLOT_CONFLICT)
        assert cnf.brute_force_sat(f) is not None
        for mode in ("paper", "linear"):
            ds = reduce_formula(f, mode)
            verdict = decide(ds, tie_mode="strict")
            assert verdict.rationalizable
            assert verify_witness(ds, build_grid(ds), verdict.witness,
                                  "strict").valid

    def test_falsifying_assignment_always_leaves_the_block_cycle(
            self, single_clause):
        # Pinning every variable's first bundle above its second (the
        # order a falsifying assignment induces) activates all three
        # chain-closing order edges, so whatever the rest of the order
        # does, the block cycle through all six chain edges survives.
        from seprat.rpcore import topological_order
        from seprat.septest import _Arena
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        arena = _Arena(ds, grid, "strict")
        bp = base_points(3)
        zi = {part: i for i, part in enumerate(grid.z_parts)}
        pinned = [(zi[bp.z[(v, 1)]], zi[bp.z[(v, 2)]]) for v in (1, 2, 3)]
        constraints = pinned + arena.z_dom_pairs
        slot_pt = {}
        for o in ds.observations:
            slot_pt[o.k] = grid.point_index[
                GridPoint(tuple(o.x[:2]), tuple(o.x[2:]))]
        for e in ds.evaluation_points:
            slot_pt[e.t] = grid.point_index[
                GridPoint(tuple(e.x[:2]), tuple(e.x[2:]))]
        rng = random.Random(29)
        sampled = 0
        while sampled < 12:
            perm = list(range(arena.nz))
            rng.shuffle(perm)
            rank = [0] * arena.nz
            for pos, z in enumerate(perm):
                rank[z] = pos
            if any(rank[a] >= rank[b] for a, b in constraints):
                continue
            sampled += 1
            adjacency = arena.adjacency_under(rank)
            assert topological_order(adjacency) is None
            reach = _reachable(adjacency)
            for a, b in ((1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)):
                assert slot_pt[b] in adjacency[slot_pt[a]]
            for a, b in ((3, 4), (6, 7), (9, 1)):
                assert slot_pt[b] in reach[slot_pt[a]]

    def test_first_chain_leaves_the_cross_variable_order_free(
            self, single_clause):
        # The middle price r2 charges M on w1's bookkeeping good, so w2 is
        # not revealed preferred to the point (z of w3, o of w1) in w1's
        # column, and the chain w1 > w2 > w3 says nothing about how u
        # ranks the first variable's second bundle against the middle
        # variable's first bundle.  The same holds along the chains
        # j -> h and h -> i: every such pair may be pinned either way.
        from seprat.septest import _Arena, _cegar_search
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        arena = _Arena(ds, grid, "strict")
        bp = base_points(3)
        zi = {part: i for i, part in enumerate(grid.z_parts)}
        for a, b in ((1, 2), (2, 3), (3, 1)):
            upper, lower = zi[bp.z[(a, 2)]], zi[bp.z[(b, 1)]]
            for pin in ((upper, lower), (lower, upper)):
                perm, _, _ = _cegar_search(arena, extra_units=[pin])
                assert perm is not None, (a, b, pin)
                ranks = {z: pos for pos, z in enumerate(perm)}
                assert ranks[pin[0]] < ranks[pin[1]]


class TestVerifyWitness:
    def fixture(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        verdict = decide_cegar(ds, grid, "strict")
        return ds, grid, verdict.witness

    def test_decider_witnesses_are_valid(self, single_clause):
        ds, grid, witness = self.fixture(single_clause)
        assert verify_witness(ds, grid, witness, "strict").valid

    def test_transposition_violating_affordability_names_the_row(
            self, single_clause):
        ds, grid, witness = self.fixture(single_clause)
        # push the best point to the bottom: some observation's choice now
        # sits below a point it could afford
        broken = SeparabilityWitness(
            witness.u_order,
            witness.v_order[1:] + witness.v_order[:1],
            witness.method, witness.iterations)
        check = verify_witness(ds, grid, broken, "strict")
        assert not check.valid
        assert "observation" in check.reason or "edge" in check.reason

    def test_inverted_dominance_pair_is_rejected(self, single_clause):
        ds, grid, witness = self.fixture(single_clause)
        bp = base_points(3)
        zi = {part: i for i, part in enumerate(grid.z_parts)}
        shifted = next(i for i, part in enumerate(grid.z_parts)
                       if part == (bp.z[(2, 1)][0] + ds.epsilon,
                                   bp.z[(2, 1)][1] + ds.epsilon))
        base = zi[bp.z[(2, 1)]]
        u = list(witness.u_order)
        a, b = u.index(shifted), u.index(base)
        u[a], u[b] = u[b], u[a]
        broken = SeparabilityWitness(tuple(u), witness.v_order,
                                     witness.method, witness.iterations)
        check = verify_witness(ds, grid, broken, "strict")
        assert not check.valid
        assert "dominated z-part pair" in check.reason

    def test_malformed_orders_rejected(self, single_clause):
        ds, grid, witness = self.fixture(single_clause)
        bad_u = SeparabilityWitness((0, 0, 1), witness.v_order, "x", 0)
        assert not verify_witness(ds, grid, bad_u, "strict").valid
        bad_v = SeparabilityWitness(witness.u_order, (0,), "x", 0)
        assert not verify_witness(ds, grid, bad_v, "strict").valid


class TestTruthAssignmentToWitness:
    def test_first_satisfying_assignment(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        a = cnf.brute_force_sat(single_clause)
        w = truth_assignment_to_witness(single_clause, ds, grid, a, "strict")
        assert verify_witness(ds, grid, w, "strict").valid

    def test_true_variable_ranks_second_bundle_above_first(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        a = {1: True, 2: True, 3: True}
        w = truth_assignment_to_witness(single_clause, ds, grid, a, "strict")
        assert verify_witness(ds, grid, w, "strict").valid
        bp = base_points(3)
        zi = {part: i for i, part in enumerate(grid.z_parts)}
        ranks = {z: pos for pos, z in enumerate(w.u_order)}
        for v in (1, 2, 3):
            assert ranks[zi[bp.z[(v, 2)]]] < ranks[zi[bp.z[(v, 1)]]]

    def test_negated_literal_swaps_the_pinned_pair(self):
        f = cnf.parse_dimacs("p cnf 3 1\n-1 2 3 0\n")
        ds = reduce_formula(f)
        grid = build_grid(ds)
        a = {1: False, 2: False, 3: False}  # satisfies via the negation
        w = truth_assignment_to_witness(f, ds, grid, a, "strict")
        assert verify_witness(ds, grid, w, "strict").valid
        bp = base_points(3)
        zi = {part: i for i, part in enumerate(grid.z_parts)}
        ranks = {z: pos for pos, z in enumerate(w.u_order)}
        # x1 false pins the first bundle of variable 1 above the second
        assert ranks[zi[bp.z[(1, 1)]]] < ranks[zi[bp.z[(1, 2)]]]

    def test_two_clause_satisfiable_formula(self):
        f = cnf.parse_dimacs("p cnf 4 2\n1 2 3 0\n1 2 4 0\n")
        ds = reduce_formula(f)
        grid = build_grid(ds)
        a = cnf.brute_force_sat(f)
        w = truth_assignment_to_witness(f, ds, grid, a, "strict")
        assert verify_witness(ds, grid, w, "strict").valid

    def test_rejects_non_satisfying_assignment(self, single_clause):
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        with pytest.raises(WitnessConstructionError, match="satisfy"):
            truth_assignment_to_witness(single_clause, ds, grid,
                                        {1: False, 2: False, 3: False},
                                        "strict")

    def test_slot_conflict_assignment_produces_a_valid_witness(self):
        f = cnf.parse_dimacs(SLOT_CONFLICT)
        ds = reduce_formula(f)
        grid = build_grid(ds)
        a = cnf.brute_force_sat(f)
        w = truth_assignment_to_witness(f, ds, grid, a, "strict")
        assert verify_witness(ds, grid, w, "strict").valid


def test_grid_modes_agree_on_compiled_datasets():
    # on compiled data the per-level grid must give the full-product verdict
    rng = random.Random(17)
    divergences = []
    for _ in range(8):
        f = cnf.random_formula(rng, rng.randint(3, 4), rng.randint(1, 2))
        ds = reduce_formula(f)
        a = decide(ds, tie_mode="strict", grid_mode="per-level-union")
        b = decide(ds, tie_mode="strict", grid_mode="full-product")
        if a.status != b.status:
            divergences.append(([c.to_ints() for c in f.clauses],
                                a.status, b.status))
    assert divergences == []


def test_verdicts_name_the_grid_they_were_decided_over(single_clause):
    compiled = reduce_formula(single_clause)
    foreign = one_point_dataset()
    for method in ("bruteforce", "cegar"):
        assert decide(compiled, tie_mode="strict", method=method
                      ).stats["grid"] == "per-level-union"
        assert decide(compiled, tie_mode="strict", method=method,
                      grid_mode="full-product").stats["grid"] == "full-product"
        assert decide(foreign, method=method).stats["grid"] == "full-product"


def _all_pairs_edge_families(ds, grid, tie_mode):
    """The arena's order-independent edges and dominance candidates,
    derived by scanning every ordered pair of grid points."""
    always = Counter((e.src, e.dst)
                     for e in revealed_relation(ds, grid, tie_mode).edges)
    candidates = Counter()
    for i, (zi, oi) in enumerate(zip(grid.pt_z, grid.pt_o)):
        for j, (zj, oj) in enumerate(zip(grid.pt_z, grid.pt_o)):
            if oi == oj or not dominates(grid.o_parts[oi], grid.o_parts[oj]):
                continue
            if zi == zj:
                always[(i, j)] += 1
            else:
                candidates[(i, j, zi, zj)] += 1
    return always, candidates


def test_arena_edge_families_match_an_all_pairs_scan():
    rng = random.Random(23)
    datasets = [random_foreign_dataset(rng) for _ in range(40)]
    for text in (SINGLE_CLAUSE, SLOT_CONFLICT):
        datasets.append(reduce_formula(cnf.parse_dimacs(text)))
    datasets.append(reduce_formula(cnf.random_formula(rng, 4, 3)))
    for ds in datasets:
        grid = build_grid(ds)
        for tie in ("strict", "weak"):
            arena = _Arena(ds, grid, tie)
            always, candidates = _all_pairs_edge_families(ds, grid, tie)
            assert Counter(arena.always) == always
            assert Counter(arena.dom_candidates) == candidates


def test_envelope_components_hold_every_cycle():
    # the refinement loop searches cycles only among edges inside one
    # envelope component; under any order that must find every cycle
    rng = random.Random(37)
    datasets = [reduce_formula(cnf.parse_dimacs(text))
                for text in (SINGLE_CLAUSE, SLOT_CONFLICT, ALL_SIGN_PATTERNS)]
    datasets.append(reduce_formula(cnf.random_formula(rng, 5, 3)))
    datasets += [random_foreign_dataset(rng) for _ in range(40)]
    # two one-point levels: the only cycle runs through the dominance
    # candidate between them, which no product grid can isolate
    datasets.append(Dataset(
        n_z=2, n_o=1,
        observations=(Observation(x=(F(0), F(1), F(1)),
                                  p=(F(1), F(10), F(1)), clause=2),),
        evaluation_points=(EvaluationPoint(x=(F(2), F(0), F(2)),
                                           clause=1),)))
    for ds in datasets:
        grid = build_grid(ds)
        for tie in ("strict", "weak"):
            arena = _Arena(ds, grid, tie)
            comp, frozen, candidates = arena.envelope
            for pts in arena.columns.values():
                assert len({comp[j] for j in pts}) == 1
            for _ in range(25):
                perm = list(range(arena.nz))
                rng.shuffle(perm)
                rank = [0] * arena.nz
                for pos, z in enumerate(perm):
                    rank[z] = pos
                full = arena.adjacency_under(rank)
                inner = [sorted(d for d in dsts if comp[d] == comp[s])
                         for s, dsts in enumerate(full)]
                assert [set(d) for d in inner] == \
                    [set(d) for d in arena._graph(frozen, candidates, rank)]
                assert (find_cycle_in_adjacency(full) is None) == \
                    (find_cycle_in_adjacency(inner) is None)


def test_all_sign_patterns_refines_in_few_iterations(all_sign_patterns):
    # the bounds need each blocking clause to come from a cycle with few
    # order-gated edges; blocking the first cycle a DFS meets takes 88
    # (strict) and 682 (weak) iterations
    for mode in ("paper", "linear"):
        ds = reduce_formula(all_sign_patterns, mode)
        grid = build_grid(ds)
        for tie, most in (("strict", 40), ("weak", 125)):
            verdict = decide_cegar(ds, grid, tie)
            assert not verdict.rationalizable
            assert verdict.stats["iterations"] <= most, (mode, tie)


def test_default_grid_agrees_with_full_product_on_foreign_data():
    # data without clause levels has no per-level structure to exploit, so
    # the default grid must give the full-product verdict
    rng = random.Random(5)
    for _ in range(400):
        ds = random_foreign_dataset(rng)
        for tie in ("strict", "weak"):
            default = decide(ds, tie_mode=tie)
            full = decide(ds, tie_mode=tie, grid_mode="full-product")
            assert default.status == full.status


def test_witness_json_round_trip(single_clause):
    ds = reduce_formula(single_clause)
    grid = build_grid(ds)
    w = decide_cegar(ds, grid, "strict").witness
    doc = witness_to_json(w)
    assert json.loads(json.dumps(doc)) == doc
    assert witness_from_json(doc) == w
    assert doc["method"] == "cegar"
