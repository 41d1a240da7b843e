import dataclasses
import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from operator import ge
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from seprat import cli, cnf, septest
from seprat.numerics import DimensionMismatch, dot
from seprat.reduction import (OFFSET_MODES, Dataset, EvaluationPoint,
                              Observation, base_points, dataset_to_json,
                              reduce_formula)
from seprat.rpcore import (RelationError, build_grid,
                           find_cycle_in_adjacency, revealed_relation,
                           topological_order)
from seprat.septest import (GuardExceeded, SeparabilityWitness, _Arena,
                            WitnessCheck, WitnessConstructionError, decide,
                            decide_bruteforce, decide_cegar,
                            truth_assignment_to_witness, verify_witness,
                            witness_from_json, witness_to_json)
from tests.conftest import (ALL_SIGN_PATTERNS, SINGLE_CLAUSE, SLOT_CONFLICT,
                            WEAK_TIE_COUNTEREXAMPLE, dominates,
                            oracle_decide, pairwise_verify_witness,
                            random_foreign_dataset, random_fraction)

F = Fraction


def one_point_dataset():
    return Dataset(n_z=1, n_o=1,
                   observations=(Observation(x=(F(1), F(2)),
                                             p=(F(1), F(1))),),
                   evaluation_points=())


def hostile_variants(ds):
    """`ds` with its first observation moved off the grid, then with its
    first price shortened, then with its last price shortened, each with
    the error it must raise.  On compiled data with more than one clause
    the last observation's z-price repeats an earlier one's, so the
    shortened price keeps that z-price class: the dimension check must
    look at every row, not only at each distinct price."""
    first, last = ds.observations[0], ds.observations[-1]
    for changed, error in (
            (dataclasses.replace(first, x=(F(99),) * len(first.x)),
             RelationError),
            (dataclasses.replace(first, p=first.p[:-1]), DimensionMismatch)):
        yield dataclasses.replace(
            ds, observations=(changed,) + ds.observations[1:]), error
    changed = dataclasses.replace(last, p=last.p[:-1])
    yield dataclasses.replace(
        ds, observations=ds.observations[:-1] + (changed,)), DimensionMismatch


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

    def test_no_production_path_enumerates_orders(self, monkeypatch, capsys,
                                                   tmp_path, single_clause):
        # `decide` and `seprat test` probe one order, then refine; with
        # order enumeration made to fail they still decide foreign data
        # with one to six z-parts and compiled data
        rng = random.Random(43)
        foreign = [one_point_dataset()] + [random_foreign_dataset(rng)
                                           for _ in range(40)]
        cases = [(ds, tie, decide_bruteforce(ds, build_grid(ds), tie).status)
                 for ds in foreign for tie in ("strict", "weak")]
        assert {len(build_grid(ds).z_parts) for ds in foreign} \
            == set(range(1, 7))
        cases += [(reduce_formula(single_clause), "strict", "rationalizable"),
                  (reduce_formula(cnf.parse_dimacs(SLOT_CONFLICT)), "weak",
                   "rationalizable")]

        def forbidden(*args, **kwargs):
            raise AssertionError("a production path enumerated orders")
        monkeypatch.setattr(septest, "decide_bruteforce", forbidden)
        monkeypatch.setattr(septest.itertools, "permutations", forbidden)
        refined = 0
        path = tmp_path / "ds.json"
        for ds, tie, status in cases:
            verdict = decide(ds, tie)
            assert verdict.status == status
            refined += verdict.stats["iterations"] > 0
            path.write_text(dataset_to_json(ds))
            assert cli.main(["test", str(path), "--tie-mode", tie]) == 0
            assert json.loads(capsys.readouterr().out)["status"] == status
        assert refined  # some cases reach the SAT loop, not just the probe

    def test_probe_is_brute_force_first_order(self, monkeypatch,
                                              single_clause):
        # when the oracle accepts its first order, the probe accepts the
        # same u-order and v-order with no refinement
        rng = random.Random(47)
        probed = 0
        for _ in range(60):
            ds = random_foreign_dataset(rng)
            grid = build_grid(ds, "full-product")
            for tie in ("strict", "weak"):
                vb = decide_bruteforce(ds, grid, tie)
                if not vb.rationalizable or vb.stats["orders_explored"] > 1:
                    continue
                vc = decide_cegar(ds, grid, tie)
                assert vc.stats["iterations"] == 0
                assert vc.witness.u_order == vb.witness.u_order
                assert vc.witness.v_order == vb.witness.v_order
                probed += 1
        assert probed >= 20

        def forbidden(*args, **kwargs):
            raise AssertionError("the probe did not accept")
        # the probe accepts the single clause under strict ties before any
        # SAT instance is built
        monkeypatch.setattr(septest.satcore, "Solver", forbidden)
        verdict = decide(reduce_formula(single_clause), "strict")
        assert verdict.rationalizable
        assert verdict.stats["iterations"] == 0

    def test_data_without_bundles_is_rationalizable(self):
        # the empty grid leaves nothing to order, so the decider and the
        # oracle accept with an empty witness
        ds = Dataset(n_z=2, n_o=7, observations=(), evaluation_points=())
        grid = build_grid(ds)
        for verdict in (decide(ds, tie_mode="strict"), decide_bruteforce(
                ds, build_grid(ds, "per-level-union"), "strict")):
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
            # brute force reads the arena's edges too; the oracle does not
            assert vb.status == vc.status == oracle_decide(ds, grid,
                                                           tie).status
            if vb.rationalizable:
                assert verify_witness(ds, grid, vb.witness, tie).valid
                assert verify_witness(ds, grid, vc.witness, tie).valid

    def test_decide_agrees_with_an_oracle_that_shares_only_the_grid(self):
        # the deciders above share the arena, so an arena edge too many
        # would pass them; the oracle builds its own edges
        rng = random.Random(43)
        rejected = 0
        for _ in range(300):
            ds = random_foreign_dataset(rng)
            grid = build_grid(ds)
            for tie in ("strict", "weak"):
                oracle = oracle_decide(ds, grid, tie)
                assert decide(ds, tie).status == oracle.status, (tie, ds)
                rejected += not oracle.rationalizable
                if oracle.rationalizable:
                    assert pairwise_verify_witness(ds, grid, oracle.witness,
                                                   tie).valid
        # both outcomes are well covered: 183 of the 600 are rejected
        assert 100 <= rejected <= 500

    def test_decide_agrees_with_the_oracle_on_foreign_levels(self):
        # with clause labels the grid is per level, so an envelope
        # component can hold columns of different z-sets; the arena's
        # reach bound is then looser than each column's cheapest point,
        # which may merge components but must not change a verdict
        rng = random.Random(47)
        mixed = rejected = 0
        for _ in range(300):
            ds = random_foreign_dataset(rng)
            ds = dataclasses.replace(ds, observations=tuple(
                dataclasses.replace(o, clause=rng.randint(1, 3))
                for o in ds.observations), evaluation_points=tuple(
                dataclasses.replace(e, clause=rng.randint(1, 3))
                for e in ds.evaluation_points))
            grid = build_grid(ds)
            assert grid.mode == "per-level-union"
            for tie in ("strict", "weak"):
                verdict = decide(ds, tie)
                oracle = oracle_decide(ds, grid, tie)
                assert verdict.status == oracle.status, (tie, ds)
                rejected += not oracle.rationalizable
                for accepted in (verdict, oracle):
                    if accepted.rationalizable:
                        assert pairwise_verify_witness(
                            ds, grid, accepted.witness, tie).valid
                arena = _Arena(ds, grid, tie)
                cyclic = {arena.comp[s] for s, dsts in enumerate(arena.fixed)
                          if dsts}
                z_sets = {}
                for pts in grid.columns:
                    if arena.comp[pts[0]] in cyclic:
                        z_sets.setdefault(arena.comp[pts[0]], set()).add(
                            frozenset(grid.pt_z[j] for j in pts))
                mixed += any(len(s) > 1 for s in z_sets.values())
        # 352 of the 600 decisions have such a component, 157 are rejected
        assert mixed >= 100 and 50 <= rejected <= 500, (mixed, rejected)

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

    def test_deciders_raise_on_hostile_inputs(self, monkeypatch,
                                              single_clause):
        # the arena computes the revealed relation itself, so it must
        # raise what `revealed_relation` raised for the same inputs
        def forbidden(*args, **kwargs):
            raise AssertionError("the deciders reached revealed_relation")
        for name, module in list(sys.modules.items()):
            if name == "seprat" or name.startswith("seprat."):
                for attr, value in list(vars(module).items()):
                    if value is revealed_relation:
                        monkeypatch.setattr(module, attr, forbidden)
        slot_conflict = reduce_formula(cnf.parse_dimacs(SLOT_CONFLICT))
        last = slot_conflict.observations[-1].p[:slot_conflict.n_z]
        assert last in {o.p[:slot_conflict.n_z]
                        for o in slot_conflict.observations[:-1]}
        for ds in (reduce_formula(single_clause), slot_conflict):
            grid = build_grid(ds)
            for decider in (decide_cegar, decide_bruteforce):
                with pytest.raises(RelationError, match="unknown tie mode"):
                    decider(ds, grid, "lenient")
                variants = hostile_variants(ds)
                bad, error = next(variants)
                with pytest.raises(error, match="observation 0 bundle is "
                                                "not on the grid"):
                    decider(bad, grid, "strict")
                for bad, error in variants:
                    with pytest.raises(error, match="dimension"):
                        decider(bad, grid, "strict")

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
      named formulas, but not on all compiled data: weak ties reject the
      satisfiable WEAK_TIE_COUNTEREXAMPLE;
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

    def test_weak_ties_reject_a_satisfiable_formula(self):
        # strict ties are the semantics the construction is proved under;
        # weak ties also relate each observation to the equally priced
        # points on its price line, which closes a cycle here
        f = cnf.parse_dimacs(WEAK_TIE_COUNTEREXAMPLE)
        assert cnf.brute_force_sat(f) == {1: False, 2: False, 3: True}
        for mode in ("paper", "linear"):
            ds = reduce_formula(f, mode)
            strict = decide(ds, tie_mode="strict")
            weak = decide(ds, tie_mode="weak")
            assert (strict.status, strict.stats["iterations"]) == \
                ("rationalizable", 1), mode
            assert (weak.status, weak.stats["iterations"]) == \
                ("not-rationalizable", 18), mode

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
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        arena = _Arena(ds, grid, "strict")
        bp = base_points(3)
        zi = grid.locate_z
        pinned = [(zi(bp.z[(v, 1)]), zi(bp.z[(v, 2)])) for v in (1, 2, 3)]
        constraints = pinned + arena.z_dom_pairs
        slot_pt = {}
        for o in ds.observations:
            slot_pt[o.k] = grid.locate(o.x)
        for e in ds.evaluation_points:
            slot_pt[e.t] = grid.locate(e.x)
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
        zi = grid.locate_z
        for a, b in ((1, 2), (2, 3), (3, 1)):
            upper, lower = zi(bp.z[(a, 2)]), zi(bp.z[(b, 1)])
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
        # move an observation's chosen bundle to just below a point it
        # can afford; every other pair keeps its relative order
        edge = revealed_relation(ds, grid, "strict").edges[0]
        v = list(witness.v_order)
        v.remove(edge.src)
        v.insert(v.index(edge.dst) + 1, edge.src)
        broken = SeparabilityWitness(witness.u_order, tuple(v))
        check = verify_witness(ds, grid, broken, "strict")
        assert not check.valid
        assert "affordable point above the chosen bundle" in check.reason

    def test_inverted_dominance_pair_is_rejected(self, single_clause):
        ds, grid, witness = self.fixture(single_clause)
        bp = base_points(3)
        zi = grid.locate_z
        shifted = zi((bp.z[(2, 1)][0] + ds.epsilon,
                      bp.z[(2, 1)][1] + ds.epsilon))
        base = zi(bp.z[(2, 1)])
        u = list(witness.u_order)
        a, b = u.index(shifted), u.index(base)
        u[a], u[b] = u[b], u[a]
        broken = SeparabilityWitness(tuple(u), witness.v_order)
        check = verify_witness(ds, grid, broken, "strict")
        assert not check.valid
        assert "dominated z-part pair" in check.reason

    def test_malformed_orders_rejected(self, single_clause):
        ds, grid, witness = self.fixture(single_clause)
        bad_u = SeparabilityWitness((0, 0, 1), witness.v_order)
        assert not verify_witness(ds, grid, bad_u, "strict").valid
        bad_v = SeparabilityWitness(witness.u_order, (0,))
        assert not verify_witness(ds, grid, bad_v, "strict").valid

    @pytest.mark.parametrize("entry", [1.0, "1"])
    def test_order_entries_that_are_no_index_rejected(self, single_clause,
                                                      entry):
        # 1.0 == 1, so a float once passed the permutation check and then
        # indexed a list; a string made the sort raise
        ds, grid, witness = self.fixture(single_clause)
        u = tuple(entry if z == 1 else z for z in witness.u_order)
        v = tuple(entry if j == 1 else j for j in witness.v_order)
        for broken, reason in (
                (SeparabilityWitness(u, witness.v_order),
                 "u-order is not a permutation of z-parts"),
                (SeparabilityWitness(witness.u_order, v),
                 "v-order is not a permutation of grid points")):
            assert verify_witness(ds, grid, broken, "strict") == \
                WitnessCheck(False, reason)

    # One hand-made case per violation family.  Each witness breaks only
    # its own family, so both checkers must name it whatever order they
    # check the families in.
    @staticmethod
    def two_column_dataset(obs_x, obs_p, eval_x):
        """n_z = 2, n_o = 1, full-product grid of two incomparable z-parts
        and two o-parts; returns the dataset, grid and a point lookup."""
        ds = Dataset(n_z=2, n_o=1,
                     observations=(Observation(x=obs_x, p=obs_p),),
                     evaluation_points=(EvaluationPoint(x=eval_x),))
        grid = build_grid(ds)

        def point(z, o):
            return grid.locate(z + (F(o),))
        return ds, grid, point

    def assert_family(self, ds, grid, witness, tie_mode, reason):
        for check in (verify_witness, pairwise_verify_witness):
            result = check(ds, grid, witness, tie_mode)
            assert not result.valid
            assert reason in result.reason, (check.__name__, result.reason)

    def test_one_edge_violation_names_the_observation(self):
        a, b = (F(1), F(0)), (F(0), F(1))
        ds, grid, pt = self.two_column_dataset(
            (F(0), F(1), F(0)), (F(1), F(3), F(1)), (F(1), F(0), F(1)))
        u = tuple(grid.locate_z(z) for z in (b, a))
        good = (pt(b, 1), pt(b, 0), pt(a, 1), pt(a, 0))
        assert verify_witness(ds, grid, SeparabilityWitness(u, good),
                              "strict").valid
        # (b, 0) is chosen and (a, 1) costs 2 < 3, so it may not rank above
        broken = (pt(b, 1), pt(a, 1), pt(b, 0), pt(a, 0))
        self.assert_family(ds, grid, SeparabilityWitness(u, broken),
                           "strict", "affordable point above the chosen "
                                     "bundle of observation 0")

    def order_and_dominance_case(self):
        """Nothing is affordable under either tie mode; a and b are
        incomparable and the u-order ranks a above b."""
        a, b = (F(1), F(0)), (F(0), F(2))
        ds, grid, pt = self.two_column_dataset(
            (F(1), F(0), F(0)), (F(1), F(1), F(1)), (F(0), F(2), F(1)))
        u = tuple(grid.locate_z(z) for z in (a, b))
        good = (pt(a, 1), pt(b, 1), pt(a, 0), pt(b, 0))
        for tie in ("strict", "weak"):
            assert verify_witness(ds, grid, SeparabilityWitness(u, good),
                                  tie).valid
        return ds, grid, pt, u, a, b

    def test_order_edge_violation_names_the_z_parts(self):
        ds, grid, pt, u, a, b = self.order_and_dominance_case()
        # (b, o) above (a, o) in both columns; dominance edges all hold
        order = (pt(b, 1), pt(a, 1), pt(b, 0), pt(a, 0))
        for tie in ("strict", "weak"):
            self.assert_family(ds, grid, SeparabilityWitness(u, order),
                               tie, "violates the order edge between")

    def test_dominance_edge_violation_names_the_points(self):
        ds, grid, pt, u, a, b = self.order_and_dominance_case()
        # each o-column is in u-order, but o=1 must rank above o=0
        order = (pt(a, 0), pt(b, 0), pt(a, 1), pt(b, 1))
        for tie in ("strict", "weak"):
            self.assert_family(ds, grid, SeparabilityWitness(u, order),
                               tie, "violates the dominance edge from")
        # one z-part and nothing affordable: the dominating column's last
        # point ranks just below the dominated column's first
        ds = Dataset(n_z=1, n_o=1,
                     observations=(Observation(x=(F(1), F(0)),
                                               p=(F(1), F(1))),),
                     evaluation_points=(EvaluationPoint(x=(F(1), F(1))),))
        grid = build_grid(ds)
        order = (grid.locate((F(1), F(0))), grid.locate((F(1), F(1))))
        for tie in ("strict", "weak"):
            self.assert_family(ds, grid, SeparabilityWitness((0,), order),
                               tie, "violates the dominance edge from")

    def test_z_dominance_violation_names_the_pair(self):
        ds = Dataset(n_z=1, n_o=1,
                     observations=(Observation(x=(F(2), F(0)),
                                               p=(F(1), F(1))),),
                     evaluation_points=(EvaluationPoint(x=(F(1), F(0))),))
        grid = build_grid(ds)
        upper, lower = (grid.locate_z((F(v),)) for v in (2, 1))
        witness = SeparabilityWitness((lower, upper), (0, 1))
        self.assert_family(ds, grid, witness, "strict",
                           f"dominated z-part pair ({upper}, {lower})")


def _mutations(witness, rng):
    """A random v-swap, an adjacent v-swap and an adjacent u-swap."""
    def swapped(order, adjacent):
        order = list(order)
        if adjacent:
            i = rng.randrange(len(order) - 1)
            j = i + 1
        else:
            i, j = rng.sample(range(len(order)), 2)
        order[i], order[j] = order[j], order[i]
        return tuple(order)

    u, v = witness.u_order, witness.v_order
    out = []
    if len(v) > 1:
        out += [SeparabilityWitness(u, swapped(v, False)),
                SeparabilityWitness(u, swapped(v, True))]
    if len(u) > 1:
        out.append(SeparabilityWitness(swapped(u, True), v))
    return out


def _moved_above(ds, grid, witness, rng, count):
    """Up to `count` witnesses, each with one point moved to just above
    some observation's chosen bundle, from an o-column whose points all
    rank below that bundle: the checker's 1-edge walk skips such a column
    until the move, and must see the moved point after it.  The point is
    the dearest one the observation can afford, when there is one: the
    column bound is then closest to the budget."""
    v = witness.v_order
    vrank = {j: r for r, j in enumerate(v)}
    points, sources = grid.points, grid.rows(ds).points
    out = []
    for k in rng.sample(range(len(ds.observations)),
                        min(count, len(ds.observations))):
        obs, src = ds.observations[k], sources[k]
        costs = {j: dot(obs.p, sum(points[j], ()))
                 for col in grid.columns
                 if min(vrank[j] for j in col) > vrank[src] for j in col}
        affordable = [j for j, c in costs.items() if c <= dot(obs.p, obs.x)]
        if costs:
            j = max(affordable, key=costs.get) if affordable \
                else rng.choice(list(costs))
            order = [i for i in v if i != j]
            order.insert(vrank[src], j)
            out.append(SeparabilityWitness(witness.u_order, tuple(order)))
    return out


def _with_negative_z(ds, rng):
    """`ds` with each bundle's first z-coordinate lowered by 0 to 3, so
    that z-parts, and least z-costs, can be negative."""
    def lowered(row):
        return dataclasses.replace(
            row, x=(row.x[0] - rng.randint(0, 3),) + row.x[1:])
    return dataclasses.replace(
        ds, observations=tuple(map(lowered, ds.observations)),
        evaluation_points=tuple(map(lowered, ds.evaluation_points)))


class TestIntegerChecker:
    """`verify_witness` against the pairwise checker it replaced
    (`tests.conftest.pairwise_verify_witness`), kept as its oracle."""

    @staticmethod
    def assert_agreement(ds, grid, witness, rng):
        """Both checkers on the witness and its mutations, in both tie
        modes; returns how many candidates were rejected."""
        rejected = 0
        for candidate in [witness] + _mutations(witness, rng):
            for tie in ("strict", "weak"):
                new = verify_witness(ds, grid, candidate, tie).valid
                old = pairwise_verify_witness(ds, grid, candidate, tie).valid
                assert new == old, (tie, candidate)
                rejected += not new
        return rejected

    def test_agrees_on_compiled_witnesses(self):
        rng = random.Random(1212)
        formulas = [cnf.parse_dimacs(SINGLE_CLAUSE),
                    cnf.parse_dimacs(SLOT_CONFLICT)]
        formulas += [cnf.random_formula(rng, L + 1, L) for L in (3, 4)]
        witnesses = rejected = 0
        for formula in formulas:
            for mode in ("paper", "linear"):
                ds = reduce_formula(formula, mode)
                grid = build_grid(ds)
                for tie in ("strict", "weak"):
                    verdict = decide_cegar(ds, grid, tie)
                    if verdict.rationalizable:
                        witnesses += 1
                        rejected += self.assert_agreement(
                            ds, grid, verdict.witness, rng)
        assert witnesses >= 8 and rejected > 0

    def test_agrees_on_foreign_witnesses(self):
        rng = random.Random(1213)
        witnesses = rejected = 0
        for _ in range(300):
            ds = random_foreign_dataset(rng)
            grid = build_grid(ds)
            for tie in ("strict", "weak"):
                verdict = decide(ds, tie_mode=tie)
                if verdict.rationalizable:
                    witnesses += 1
                    rejected += self.assert_agreement(
                        ds, grid, verdict.witness, rng)
        assert witnesses >= 300 and rejected > 0

    @staticmethod
    def assert_moves_agree(ds, grid, witness, rng, count):
        """Both checkers on `_moved_above`'s moves of `witness`, in both
        tie modes; returns how many were rejected."""
        rejected = 0
        for candidate in _moved_above(ds, grid, witness, rng, count):
            for tie in ("strict", "weak"):
                new = verify_witness(ds, grid, candidate, tie).valid
                old = pairwise_verify_witness(ds, grid, candidate, tie).valid
                assert new == old, (tie, candidate)
                rejected += not new
        return rejected

    def test_agrees_when_a_point_moves_above_a_chosen_bundle_compiled(self):
        # the checker walks an o-column for an observation only when the
        # column's best point ranks above the chosen bundle and its
        # cheapest possible point could undercut the least cost so far
        rng = random.Random(1214)
        witnesses = rejected = 0
        for clauses in (3, 4, 5, 6):
            ds = reduce_formula(cnf.random_formula(rng, clauses + 2, clauses),
                                OFFSET_MODES[clauses % 2])
            grid = build_grid(ds)
            for tie in ("strict", "weak"):
                verdict = decide_cegar(ds, grid, tie)
                if verdict.rationalizable:
                    witnesses += 1
                    rejected += self.assert_moves_agree(
                        ds, grid, verdict.witness, rng, 4)
        assert witnesses >= 4 and rejected > 0

    def test_agrees_when_a_point_moves_above_a_chosen_bundle_foreign(self):
        # negative z-coordinates make negative least z-costs, which the
        # column bound must still take as they are
        rng = random.Random(1215)
        witnesses = rejected = negative = 0
        for _ in range(200):
            ds = _with_negative_z(random_foreign_dataset(rng), rng)
            grid = build_grid(ds)
            for tie in ("strict", "weak"):
                verdict = decide(ds, tie_mode=tie)
                if verdict.rationalizable:
                    witnesses += 1
                    negative += any(dot(o.p[:ds.n_z], z) < 0
                                    for o in ds.observations
                                    for z in grid.z_parts)
                    rejected += self.assert_moves_agree(
                        ds, grid, verdict.witness, rng, 4)
        assert witnesses >= 100 and negative >= 50 and rejected > 0

    def test_agrees_on_every_order_over_mixed_denominators(self):
        # z-parts in halves and o-parts in thirds: scaling them by separate
        # factors would make (1/2, 1/3) and (0, 2/3) cost the same under
        # the first price, dropping its strict 1-edge between them
        ds = Dataset(n_z=1, n_o=1, observations=(
            Observation(x=(F(1, 2), F(1, 3)), p=(F(2, 5), F(2, 5))),
            Observation(x=(F(1, 2), F(2, 3)), p=(F(1, 3), F(1, 2)))),
            evaluation_points=(EvaluationPoint(x=(F(0), F(2, 3))),))
        grid = build_grid(ds)
        counts = Counter()
        for u in itertools.permutations(range(len(grid.z_parts))):
            for v in itertools.permutations(range(len(grid.points))):
                witness = SeparabilityWitness(u, v)
                for tie in ("strict", "weak"):
                    new = verify_witness(ds, grid, witness, tie).valid
                    assert new == pairwise_verify_witness(
                        ds, grid, witness, tie).valid, (tie, witness)
                    counts[tie, new] += 1
        assert counts["strict", True] and counts["weak", True]

    def test_needs_no_relation_dominance_or_dot(self, monkeypatch,
                                                single_clause):
        # the checker scales with its own `_scaled`, not the arena's helper
        ds = reduce_formula(single_clause)
        grid = build_grid(ds)
        witness = decide_cegar(ds, grid, "strict").witness

        def forbidden(*args, **kwargs):
            raise AssertionError("the checker reached the deciders' code")
        for original in (revealed_relation, septest._dominated_pairs,
                         septest._lcd_scaled, dot):
            for name, module in list(sys.modules.items()):
                if name == "seprat" or name.startswith("seprat."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, forbidden)
        assert verify_witness(ds, grid, witness, "strict").valid
        broken = SeparabilityWitness(
            witness.u_order, witness.v_order[1:] + witness.v_order[:1])
        assert not verify_witness(ds, grid, broken, "strict").valid

    @pytest.mark.parametrize("clauses", [3, 4])
    def test_each_distinct_price_is_costed_once(self, monkeypatch, clauses):
        # two scalings: the grid parts, then every distinct z-price and
        # o-price over one denominator, however many observations repeat
        # them
        calls = []
        scaled = septest._scaled

        def counting(vectors):
            calls.append(list(vectors))
            return scaled(vectors)
        monkeypatch.setattr(septest, "_scaled", counting)
        formula = cnf.random_formula(random.Random(clauses), clauses + 2,
                                     clauses)
        for mode in OFFSET_MODES:
            ds = reduce_formula(formula, mode)
            grid = build_grid(ds)
            witness = decide_cegar(ds, grid, "strict").witness
            z_prices = list(dict.fromkeys(o.p[:ds.n_z]
                                          for o in ds.observations))
            o_prices = list(dict.fromkeys(o.p[ds.n_z:]
                                          for o in ds.observations))
            assert len(z_prices) + len(o_prices) < len(ds.observations)
            calls.clear()
            assert verify_witness(ds, grid, witness, "strict").valid
            assert calls == [list(grid.z_parts + grid.o_parts),
                             z_prices + o_prices], mode

    def test_hostile_inputs_raise(self, single_clause):
        for ds in (reduce_formula(single_clause),
                   reduce_formula(cnf.parse_dimacs(SLOT_CONFLICT))):
            grid = build_grid(ds)
            witness = decide_cegar(ds, grid, "strict").witness
            with pytest.raises(RelationError, match="unknown tie mode"):
                verify_witness(ds, grid, witness, "lenient")
            for bad, error in hostile_variants(ds):
                with pytest.raises(error):
                    verify_witness(bad, grid, witness, "strict")
                with pytest.raises(error):
                    pairwise_verify_witness(bad, grid, witness, "strict")


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
        zi = grid.locate_z
        ranks = {z: pos for pos, z in enumerate(w.u_order)}
        for v in (1, 2, 3):
            assert ranks[zi(bp.z[(v, 2)])] < ranks[zi(bp.z[(v, 1)])]

    def test_negated_literal_swaps_the_pinned_pair(self):
        f = cnf.parse_dimacs("p cnf 3 1\n-1 2 3 0\n")
        ds = reduce_formula(f)
        grid = build_grid(ds)
        a = {1: False, 2: False, 3: False}  # satisfies via the negation
        w = truth_assignment_to_witness(f, ds, grid, a, "strict")
        assert verify_witness(ds, grid, w, "strict").valid
        bp = base_points(3)
        zi = grid.locate_z
        ranks = {z: pos for pos, z in enumerate(w.u_order)}
        # x1 false pins the first bundle of variable 1 above the second
        assert ranks[zi(bp.z[(1, 1)])] < ranks[zi(bp.z[(1, 2)])]

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

    def oracle(ds, tie_mode="weak", grid_mode="per-level-union"):
        return decide_bruteforce(ds, build_grid(ds, grid_mode), tie_mode)
    for decider in (decide, oracle):
        assert decider(compiled, tie_mode="strict"
                       ).stats["grid"] == "per-level-union"
        assert decider(compiled, tie_mode="strict",
                       grid_mode="full-product").stats["grid"] == "full-product"
        assert decider(foreign).stats["grid"] == "full-product"


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


def _envelope_partition(grid, always, candidates):
    """The envelope's components as a set of point sets: the all-pairs
    families plus every o-column linked both ways, closed transitively."""
    adjacency = [set() for _ in grid.points]
    for s, d in always:
        adjacency[s].add(d)
    for s, d, _, _ in candidates:
        adjacency[s].add(d)
    for s, os_ in enumerate(grid.pt_o):
        for d, od in enumerate(grid.pt_o):
            if os_ == od and s != d:
                adjacency[s].add(d)
    reach = _reachable(adjacency)
    return {frozenset([i] + [j for j in reach[i] if i in reach[j]])
            for i in range(len(grid.points))}


def _arena_partition(arena):
    members = {}
    for j, c in enumerate(arena.comp):
        members.setdefault(c, set()).add(j)
    return {frozenset(pts) for pts in members.values()}


def _equal_cost_dataset(rng):
    """A foreign dataset with one evaluation point per observation that
    costs exactly its bundle at its price: a move along the first two
    z-goods that trades p[1] of the first for p[0] of the second.  The
    point shares the bundle's o-part, so it lies in the bundle's
    component, where weak ties relate it and strict ties do not."""
    ds = random_foreign_dataset(rng)
    ties = []
    for obs in ds.observations:
        x, p = obs.x, obs.p
        t = x[1] / p[0] if x[1] else F(1)
        ties.append(EvaluationPoint(
            x=(x[0] + p[1] * t, x[1] - p[0] * t) + x[2:]))
    return dataclasses.replace(
        ds, evaluation_points=ds.evaluation_points + tuple(ties))


def test_arena_edge_families_match_an_all_pairs_scan():
    # the arena keeps exactly the all-pairs families inside one envelope
    # component, and its components are the envelope's; the 1-edges come
    # from `revealed_relation` on Fractions, so integer scaling must keep
    # every equality and every strict inequality
    rng = random.Random(23)
    datasets = [random_foreign_dataset(rng) for _ in range(40)]
    for text in (SINGLE_CLAUSE, SLOT_CONFLICT):
        datasets.append(reduce_formula(cnf.parse_dimacs(text)))
    datasets.append(reduce_formula(cnf.random_formula(rng, 4, 3)))
    datasets.append(reduce_formula(cnf.random_formula(rng, 8, 6), "linear",
                                   F(1, 7)))
    # foreign data whose observations share one price: every observation
    # after the first takes its costs from the arena's cache
    shared = random_foreign_dataset(rng)
    price = shared.observations[0].p
    datasets.append(dataclasses.replace(shared, observations=tuple(
        dataclasses.replace(o, p=price) for o in shared.observations)))
    # bundles of equal cost, where weak and strict ties differ, and
    # compiled data with tiny positive prices
    ties = [_equal_cost_dataset(rng) for _ in range(30)]
    datasets += ties + [reduce_formula(cnf.random_formula(rng, 6, 5), mode,
                                       F(1, 10**6)) for mode in OFFSET_MODES]
    dropped = differ = 0
    for ds in datasets:
        grid = build_grid(ds)
        frozen = {}
        for tie in ("strict", "weak"):
            arena = _Arena(ds, grid, tie)
            frozen[tie] = Counter(arena.always)
            always, candidates = _all_pairs_edge_families(ds, grid, tie)
            partition = _envelope_partition(grid, always, candidates)
            assert _arena_partition(arena) == partition
            comp = {j: pts for pts in partition for j in pts}
            inner_always = Counter({(s, d): n for (s, d), n in always.items()
                                    if d in comp[s]})
            inner_candidates = Counter({c: n for c, n in candidates.items()
                                        if c[1] in comp[c[0]]})
            assert Counter(arena.always) == inner_always
            assert Counter(arena.dom_candidates) == inner_candidates
            dropped += always.total() + candidates.total() \
                - len(arena.always) - len(arena.dom_candidates)
        differ += frozen["strict"] != frozen["weak"]
    assert dropped > 0
    assert differ >= len(ties)


@given(st.integers(1, 9).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-3, 3)] * d), max_size=40)))
def test_dominated_pairs_equal_the_all_pairs_scan(parts):
    # ties, duplicate parts and negative values all occur; the order is
    # the all-pairs scan's, which the SAT units and candidates follow
    assert septest._dominated_pairs(parts) == [
        (a, b) for a, pa in enumerate(parts) for b, pb in enumerate(parts)
        if a != b and all(map(ge, pa, pb))]


def test_arena_takes_each_cost_vector_once_per_distinct_price(monkeypatch):
    # compiled data repeats its prices, so the arena's inner products grow
    # with the distinct prices, not with the observations; the parts are
    # scaled once and all prices once, over one denominator
    calls, scalings = [], []
    cost_vector, lcd_scaled = septest._cost_vector, septest._lcd_scaled

    def counted(price, parts):
        calls.extend([None] * len(parts))
        return cost_vector(price, parts)

    def scaled(vectors):
        scalings.append(None)
        return lcd_scaled(vectors)
    monkeypatch.setattr(septest, "_cost_vector", counted)
    monkeypatch.setattr(septest, "_lcd_scaled", scaled)
    f = cnf.random_formula(random.Random(6), 8, 6)
    for mode, eta in (("paper", 0), ("linear", 0), ("linear", F(1, 7))):
        ds = reduce_formula(f, mode, eta)
        grid = build_grid(ds)
        z_prices = {o.p[:ds.n_z] for o in ds.observations}
        o_prices = {o.p[ds.n_z:] for o in ds.observations}
        assert len(o_prices) == 6
        calls.clear()
        scalings.clear()
        _Arena(ds, grid, "strict")
        assert len(calls) == len(z_prices) * len(grid.z_parts) \
            + len(o_prices) * len(grid.o_parts), (mode, eta)
        assert len(scalings) == 2, (mode, eta)


def test_deciders_take_no_fraction_inner_products(monkeypatch):
    # every cost the decision needs is an integer inner product
    datasets = [reduce_formula(cnf.random_formula(random.Random(6), 8, 6),
                               "linear", F(1, 7)),
                reduce_formula(cnf.parse_dimacs(SLOT_CONFLICT))]
    rng = random.Random(29)
    datasets += [random_foreign_dataset(rng) for _ in range(10)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the decision took a Fraction inner product")
    for name, module in list(sys.modules.items()):
        if name == "seprat" or name.startswith("seprat."):
            for attr, value in list(vars(module).items()):
                if value is dot:
                    monkeypatch.setattr(module, attr, forbidden)
    for ds in datasets:
        for tie in ("strict", "weak"):
            decide(ds, tie)


def test_arena_compares_no_fractions(monkeypatch):
    # each cost vector is scaled to integers once per price, so building
    # the arena makes no ordering comparison between Fractions
    rng = random.Random(23)
    datasets = [reduce_formula(cnf.random_formula(random.Random(6), 8, 6),
                               "linear", F(1, 10**6))]
    datasets += [random_foreign_dataset(rng) for _ in range(5)]
    grids = [build_grid(ds) for ds in datasets]

    def refused(*args):
        raise AssertionError("the arena compared two Fractions")
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, refused)
    for ds, grid in zip(datasets, grids):
        for tie in ("strict", "weak"):
            _Arena(ds, grid, tie)


def test_no_fraction_is_hashed_after_the_grid(monkeypatch):
    # build_grid keys every bundle and price by integer pairs once and
    # records each observation's point and price classes; the arena, the
    # search and the checker read those records, and the grid's only maps
    # are keyed by integers, so no step hashes a Fraction
    rng = random.Random(31)
    formulas = [cnf.parse_dimacs(SINGLE_CLAUSE),
                cnf.parse_dimacs(SLOT_CONFLICT), cnf.random_formula(rng, 5, 3)]
    datasets = [reduce_formula(f, mode) for f in formulas
                for mode in OFFSET_MODES]
    datasets += [random_foreign_dataset(rng) for _ in range(20)]
    calls = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)
    monkeypatch.setattr(Fraction, "__hash__", counted)
    grids = [build_grid(ds) for ds in datasets]
    assert calls == []
    witnesses = 0
    for ds, grid in zip(datasets, grids):
        for tie in ("strict", "weak"):
            u_order, v_order, _ = septest._cegar_search(_Arena(ds, grid, tie))
            if u_order is not None:
                witnesses += 1
                witness = SeparabilityWitness(u_order, v_order)
                assert verify_witness(ds, grid, witness, tie).valid
    assert witnesses >= 20
    assert calls == []


def test_envelope_components_hold_every_cycle():
    # the deciders search cycles only among edges inside one envelope
    # component; under any order that must find every cycle, and the
    # arena's v-order must order the whole relation
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
    ordered = 0
    for ds in datasets:
        grid = build_grid(ds)
        for tie in ("strict", "weak"):
            arena = _Arena(ds, grid, tie)
            comp = arena.comp
            always, candidates = _all_pairs_edge_families(ds, grid, tie)
            columns = {}
            for j, o in enumerate(grid.pt_o):
                columns.setdefault(o, []).append(j)
            for pts in columns.values():
                assert len({comp[j] for j in pts}) == 1
            for _ in range(25):
                perm = list(range(arena.nz))
                rng.shuffle(perm)
                rank = [0] * arena.nz
                for pos, z in enumerate(perm):
                    rank[z] = pos
                full = [[] for _ in grid.points]
                for s, d in always:
                    full[s].append(d)
                for s, d, zs, zd in candidates:
                    if rank[zs] < rank[zd]:
                        full[s].append(d)
                for pts in columns.values():
                    chain = sorted(pts, key=lambda j: rank[grid.pt_z[j]])
                    for s, d in zip(chain, chain[1:]):
                        full[s].append(d)
                inner = arena.adjacency_under(rank)
                assert [set(d) for d in inner] == \
                    [{d for d in dsts if comp[d] == comp[s]}
                     for s, dsts in enumerate(full)]
                assert (find_cycle_in_adjacency(full) is None) == \
                    (find_cycle_in_adjacency(inner) is None)
                order = arena.v_order(inner)
                assert (order is None) == \
                    (find_cycle_in_adjacency(inner) is not None)
                if order is not None:
                    ordered += 1
                    position = {j: pos for pos, j in enumerate(order)}
                    assert sorted(order) == list(range(len(grid.points)))
                    assert all(position[s] < position[d]
                               for s, dsts in enumerate(full) for d in dsts)
    assert ordered > 0


def test_all_sign_patterns_refines_in_few_iterations(all_sign_patterns):
    # at most two iterations per clause under strict ties, and weak ties at
    # most three times the strict count.  The bounds need each blocking
    # clause to come from a cycle with few order-gated edges and each
    # column run of 2-edges to be blocked as one literal: blocking the
    # first cycle a DFS meets took 88 (strict) and 682 (weak) iterations,
    # and the fewest-gated cycle without the shortcut 36 and 112
    for mode in ("paper", "linear"):
        ds = reduce_formula(all_sign_patterns, mode)
        grid = build_grid(ds)
        strict = decide_cegar(ds, grid, "strict")
        weak = decide_cegar(ds, grid, "weak")
        assert not strict.rationalizable and not weak.rationalizable
        assert strict.stats["iterations"] <= 2 * len(all_sign_patterns.clauses)
        assert weak.stats["iterations"] <= 3 * strict.stats["iterations"]


@pytest.fixture
def refinement_cuts(monkeypatch):
    """Records what the refinement adds to its SAT instance: `cuts` holds
    every added clause as the (a, b) pairs whose above(a, b) it negates,
    and `blocks` each blocking clause's (component, pairs, pairs before
    the column-run shortcut)."""
    var_maps, cuts, blocks = [], [], []
    real_map, real_blocked = septest._order_var_map, septest._blocked_pairs

    def recording_map(pairs):
        var = real_map(pairs)
        var_maps.append({v: pair for pair, v in var.items()})
        return var

    def recording_blocked(arena, cycle):
        pairs, gated = real_blocked(arena, cycle)
        blocks.append((arena.comp[cycle[0]], pairs, gated))
        return pairs, gated

    class RecordingSolver(septest.satcore.Solver):
        def add_clause(self, clause):
            # pair (a, b), a < b, has one variable, true when a is above
            # b: -v negates above(a, b), and +v negates above(b, a)
            cut = []
            for lit in clause:
                a, b = var_maps[-1][abs(lit)]
                cut.append((a, b) if lit < 0 else (b, a))
            cuts.append(cut)
            super().add_clause(clause)

    monkeypatch.setattr(septest, "_order_var_map", recording_map)
    monkeypatch.setattr(septest, "_blocked_pairs", recording_blocked)
    monkeypatch.setattr(septest.satcore, "Solver", RecordingSolver)
    return cuts, blocks


def _ranks(order, nz):
    """Rank per z-part of `order`, best first; z-parts missing from it rank
    below every z-part in it, by index."""
    rank = [len(order) + z for z in range(nz)]
    for pos, z in enumerate(order):
        rank[z] = pos
    return rank


def _linear_extensions(nodes, pairs):
    """Every order of `nodes`, best first, with a above b for each pair."""
    above = {n: {a for a, b in pairs if b == n} for n in nodes}

    def extend(prefix, placed):
        if len(prefix) == len(nodes):
            yield list(prefix)
        for n in nodes:
            if n not in placed and above[n] <= placed:
                yield from extend(prefix + [n], placed | {n})
    yield from extend([], frozenset())


def _hand_built_arena(nz, columns, frozen):
    """An `_Arena` in one component with the given columns, each a list
    of z-parts, and frozen edges given as pairs of (column, z-part)."""
    points = [(o, z) for o, zs in enumerate(columns) for z in zs]
    index = {pt: j for j, pt in enumerate(points)}
    arena = object.__new__(_Arena)
    arena.grid = SimpleNamespace(
        pt_o=[o for o, _ in points], pt_z=[z for _, z in points],
        columns=[[index[(o, z)] for z in zs] for o, zs in enumerate(columns)])
    arena.nz = nz
    arena.comp = [0] * len(points)
    arena.fixed = [set() for _ in points]
    for src, dst in frozen:
        arena.fixed[index[src]].add(index[dst])
    arena.dom_candidates, arena.z_dom_pairs = [], []
    return arena, index


class TestSparseRefinement:
    def test_added_clauses_hold_in_every_acyclic_order(self, refinement_cuts):
        # every u-order that leaves the relation acyclic must satisfy every
        # blocking clause and lazy order cut, or the search could reject
        # rationalizable data
        cuts, blocks = refinement_cuts
        rng = random.Random(17)
        refined = 0
        while refined < 40:
            ds = random_foreign_dataset(rng, max_z_parts=5)
            grid = build_grid(ds)
            for tie in ("strict", "weak"):
                del cuts[:]
                arena = _Arena(ds, grid, tie)
                septest._cegar_search(arena)
                if not cuts:
                    continue
                refined += 1
                for order in itertools.permutations(range(arena.nz)):
                    rank = _ranks(order, arena.nz)
                    if topological_order(
                            arena.adjacency_under(rank)) is not None:
                        for cut in cuts:
                            assert any(rank[a] > rank[b] for a, b in cut)
        assert any(len(pairs) < gated for _, pairs, gated in blocks)

    @pytest.mark.parametrize("text, tie, falsify", [
        (SINGLE_CLAUSE, "strict", True), (SLOT_CONFLICT, "weak", False)],
        ids=["single-clause-falsified", "slot-conflict-weak"])
    def test_blocking_clauses_on_compiled_data_force_a_cycle(
            self, refinement_cuts, text, tie, falsify):
        # A level has 9 z-parts, too many to try every order of the whole
        # grid in a unit test.  A cycle lies in one component, whose edges
        # depend only on how its own z-parts are ranked, so each clause is
        # checked from the other side: every order of its component's
        # z-parts that respects dominance and keeps all of the clause's
        # pairs leaves a cycle inside that component.
        cuts, blocks = refinement_cuts
        f = cnf.parse_dimacs(text)
        ds = reduce_formula(f)
        grid = build_grid(ds)
        arena = _Arena(ds, grid, tie)
        pins = []
        if falsify:  # the first base bundle of each variable above its second
            bp = base_points(f.var_count)
            zi = grid.locate_z
            pins = [(zi(bp.z[(v, 1)]), zi(bp.z[(v, 2)]))
                    for v in range(1, f.var_count + 1)]
        septest._cegar_search(arena, pins)
        assert len(blocks) == len(cuts) == 1
        for comp, pairs, gated in blocks:
            inside = [j for j, c in enumerate(arena.comp) if c == comp]
            zs = sorted({grid.pt_z[j] for j in inside})
            dom = [(a, b) for a, b in arena.z_dom_pairs if {a, b} <= set(zs)]
            orders = 0
            for order in _linear_extensions(zs, dom + pairs):
                adj = arena.adjacency_under(_ranks(order, arena.nz))
                sub = [[d for d in adj[j] if arena.comp[d] == comp]
                       if arena.comp[j] == comp else [] for j in range(len(adj))]
                assert topological_order(sub) is None
                orders += 1
            assert orders > 0
        assert blocks[-1][1] == cuts[-1]

    def test_a_column_run_is_blocked_as_one_literal(self):
        # z-parts 0 -> 1 -> 2 -> 3 down column 0 are three 2-edges, a
        # dominance edge gated by above(3, 4) leaves the column and a
        # frozen 1-edge comes back; the cycle is listed from the middle of
        # the run, and the dominance edge is not part of the run
        arena, index = _hand_built_arena(
            5, [[0, 1, 2, 3], [4]], [((1, 4), (0, 0))])
        arena.dom_candidates = [(index[(0, 3)], index[(1, 4)], 3, 4)]
        cycle = [index[pt] for pt in ((0, 1), (0, 2), (0, 3), (1, 4), (0, 0))]
        pairs, gated = septest._blocked_pairs(arena, cycle)
        assert pairs == [(0, 3), (3, 4)]
        assert gated == 4

    def test_cyclic_model_gets_a_lazy_order_cut(self, refinement_cuts,
                                                caplog):
        # The relevant pairs of z-parts 1..4 form the chordless 4-cycle
        # 1-2-3-4-1, so no transitivity clause ties them.  With 1 above 2
        # above 3 pinned, a frozen edge forcing 3 above 4 and another
        # forcing 1 above 0 (which refutes the probe), the solver's second
        # model ranks 4 above 1: a cyclic `above` relation that must be cut
        # without counting as an iteration.
        cuts, blocks = refinement_cuts
        arena, _ = _hand_built_arena(
            5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 1]],
            [((0, 1), (0, 0)), ((3, 3), (3, 4))])
        pins = [(1, 2), (2, 3)]
        with caplog.at_level("DEBUG", logger="seprat.septest"):
            u_order, v_order, iterations = septest._cegar_search(arena, pins)
        lazy = [cut for cut in cuts if cut not in [b[1] for b in blocks]]
        assert [sorted(cut) for cut in lazy] == \
            [[(1, 2), (2, 3), (3, 4), (4, 1)]]
        messages = [r.getMessage() for r in caplog.records]
        assert "refinement 1: component 0, blocked 1 order literals (1 " \
            "before the column-run shortcut)" in messages
        assert any(m.startswith("lazy order cut: blocked the 4-pair order "
                                "cycle") for m in messages)
        assert iterations == len(blocks) == 1
        acyclic = [order for order in itertools.permutations(range(5))
                   if all(order.index(a) < order.index(b) for a, b in pins)
                   and topological_order(
                       arena.adjacency_under(_ranks(order, 5))) is not None]
        assert acyclic and u_order is not None
        assert topological_order(
            arena.adjacency_under(_ranks(u_order, 5))) is not None

    def test_order_instance_covers_only_the_relevant_pairs(self):
        # a compiled L=6 dataset with 21 z-parts: the eager instance had
        # 420 variables and 8,409 clauses, and two variables per pair with
        # six clauses per triangle gave 240 and 2,301
        f = cnf.parse_dimacs("p cnf 7 6\n-4 6 5 0\n-4 1 3 0\n-4 1 -5 0\n"
                             "4 5 6 0\n-6 4 5 0\n-4 7 -5 0\n")
        ds = reduce_formula(f, "linear")
        arena = _Arena(ds, build_grid(ds), "strict")
        assert arena.nz == 21
        relevant = septest._relevant_pairs(arena, arena.z_dom_pairs)
        var = septest._order_var_map(relevant)
        instance = septest._order_instance(var, arena.z_dom_pairs)
        assert (instance.var_count, len(instance.clauses)) == (120, 693)
        assert len(var) == len(relevant) and set(var) == relevant
        pair_of = {v: pair for pair, v in var.items()}
        per_triangle = {}
        for clause in instance.clauses:
            if len(clause) == 3:
                pairs = [pair_of[abs(lit)] for lit in clause]
                a, b, c = sorted({z for pair in pairs for z in pair})
                assert pairs == [(a, b), (b, c), (a, c)]
                per_triangle.setdefault((a, b, c), []).append(clause)
        triangles = [(a, b, c) for a, b, c in itertools.combinations(
            range(arena.nz), 3)
            if {(a, b), (b, c), (a, c)} <= relevant]
        assert sorted(per_triangle) == triangles
        assert all(len(clauses) == 2 for clauses in per_triangle.values())

    @pytest.mark.parametrize("chordless", [False, True],
                             ids=["complete-on-5", "chordless-4-cycle"])
    def test_order_instance_forbids_exactly_the_cyclic_triangles(
            self, chordless):
        # Over every assignment, the instance holds exactly when no
        # triangle of relevant pairs is ranked in a cycle.  The chordless
        # set is the relevant pairs of `test_cyclic_model_gets_a_lazy_
        # order_cut`: its 4-cycle 1-2-3-4-1 closes no triangle, so the
        # instance allows ranking it in a cycle.
        if chordless:
            arena, _ = _hand_built_arena(
                5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 1]],
                [((0, 1), (0, 0)), ((3, 3), (3, 4))])
            pairs = septest._relevant_pairs(arena, [(1, 2), (2, 3)])
            assert pairs == {(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)}
        else:
            pairs = set(itertools.combinations(range(5), 2))
        var = septest._order_var_map(pairs)
        instance = septest._order_instance(var)
        triangles = [(a, b, c) for a, b, c in itertools.combinations(
            range(5), 3) if {(a, b), (b, c), (a, c)} <= pairs]
        cyclic_models = four_cycles = 0
        for values in itertools.product((False, True), repeat=len(var)):
            def true(lit):
                return values[abs(lit) - 1] == (lit > 0)

            def above(a, b):
                return true(septest._above(var, a, b))
            holds = all(any(map(true, cl)) for cl in instance.clauses)
            cyclic = any(above(a, b) == above(b, c) == above(c, a)
                         for a, b, c in triangles)
            assert holds == (not cyclic)
            cyclic_models += cyclic
            if chordless:
                four_cycles += above(1, 2) and above(2, 3) and \
                    above(3, 4) and above(4, 1)
        assert len(instance.clauses) == 2 * len(triangles)
        if chordless:
            assert not triangles and four_cycles == 2
        else:
            assert len(triangles) == 10 and cyclic_models > 0


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


def test_added_evaluation_points_never_reject_accepted_data():
    # a separable utility that rationalizes the data orders any finite set
    # of points, so over a sound grid an accepted dataset stays accepted
    # when evaluation points are added; a flip is over-acceptance
    rng = random.Random(703)
    checked = 0
    for _ in range(250):
        ds = random_foreign_dataset(rng)
        for tie in ("strict", "weak"):
            if not decide(ds, tie).rationalizable:
                continue
            for _ in range(2):
                extra = tuple(EvaluationPoint(x=tuple(
                    random_fraction(rng) for _ in range(ds.goods)))
                    for _ in range(2))
                wider = dataclasses.replace(
                    ds, evaluation_points=ds.evaluation_points + extra)
                assert decide(wider, tie).rationalizable, (tie, ds, extra)
                checked += 1
    assert checked >= 650


def test_witness_json_round_trip(single_clause):
    ds = reduce_formula(single_clause)
    grid = build_grid(ds)
    w = decide_cegar(ds, grid, "strict").witness
    doc = witness_to_json(w)
    assert json.loads(json.dumps(doc)) == doc
    assert witness_from_json(doc) == w
    # the witness is its two orders; `stats` says how they were found
    assert list(doc) == ["u_order", "v_order"]
    # older witness JSON also carried the method and iteration count
    assert witness_from_json({**doc, "method": "cegar", "iterations": 2}) == w


@pytest.mark.parametrize("doc, field", [
    ({"u_order": [1.9, True], "v_order": [3], "iterations": 2}, "u_order"),
    ({"u_order": [True], "v_order": [3]}, "u_order"),
    ({"u_order": [1], "v_order": ["3"]}, "v_order"),
    ({"u_order": [1], "v_order": "3"}, "v_order"),
    ([], "witness must be a JSON object"),
    ({"u_order": [0]}, "witness has no v_order"),
])
def test_witness_from_json_accepts_only_integers(doc, field):
    # int() would coerce each of these into a plausible witness
    with pytest.raises(ValueError, match=field):
        witness_from_json(doc)
