import itertools
import random
from fractions import Fraction

import pytest

from seprat import cnf, reduction
from seprat.numerics import dot, parse_rational
from seprat.reduction import (AUXILIARY_SLOTS, CHAIN_EDGES, OBSERVED_SLOTS,
                              ConstructionError, DatasetError, base_points,
                              build_clause_gadget, compute_epsilon_M,
                              dataset_from_json, dataset_to_json,
                              reduce_formula)
from tests.conftest import SINGLE_CLAUSE, SLOT_CONFLICT

F = Fraction
ONES = (F(1), F(1))


class TestBasePoints:
    def test_variable_one_values(self):
        bp = base_points(1)
        assert bp.z[(1, 1)] == (F(1), F(1))
        assert bp.z[(1, 2)] == (F(3, 2), F(2, 3))
        assert bp.p[(1, 1)] == (F(1, 2), F(1, 2))
        assert bp.p[(1, 2)] == (F(1, 3), F(3, 4))

    def test_specific_cross_cost(self):
        bp = base_points(2)
        assert dot(bp.p[(1, 1)], bp.z[(2, 2)]) == F(29, 20)

    @pytest.mark.parametrize("count", [1, 2, 5, 10])
    def test_support_separation(self, count):
        # own cost exactly 1, every cross cost strictly above 1
        bp = base_points(count)
        for a in bp.pairs():
            assert dot(bp.p[a], bp.z[a]) == 1
            for b in bp.pairs():
                if b != a:
                    assert dot(bp.p[a], bp.z[b]) > 1

    def test_second_bundle_is_exact_hyperbola_point(self):
        bp = base_points(4)
        for i in range(1, 5):
            x, y = bp.z[(i, 2)]
            assert x * y == 1


class TestConstants:
    def test_i2_epsilon_against_pair_enumeration(self):
        bp = base_points(2)
        pairs = bp.pairs()
        cross = [(a, b) for a in pairs for b in pairs if a != b]
        assert len(cross) == 12
        delta = min(dot(bp.p[a], bp.z[b]) - 1 for a, b in cross)
        biggest = max(dot(bp.p[a], ONES) for a in pairs)
        assert delta == F(1, 40)
        assert biggest == F(29, 20)
        gc = compute_epsilon_M(bp)
        assert gc.epsilon == delta / (2 * biggest) == F(1, 116)

    def test_i1_delta(self):
        bp = base_points(1)
        pairs = bp.pairs()
        delta = min(dot(bp.p[a], bp.z[b]) - 1
                    for a in pairs for b in pairs if a != b)
        assert delta == F(1, 12)

    @pytest.mark.parametrize("count", range(1, 11))
    def test_gap_conditions_hold(self, count):
        bp = base_points(count)
        gc = compute_epsilon_M(bp)
        for a in bp.pairs():
            mass = dot(bp.p[a], ONES)
            for b in bp.pairs():
                if a == b:
                    continue
                cross = dot(bp.p[a], bp.z[b])
                assert 1 < 1 + gc.epsilon * mass < cross
                assert cross + gc.epsilon * mass < gc.M


def oracle_tables(clause, bp, gc):
    """Independent transcription of the nine-bundle cost tables."""
    eps, M = gc.epsilon, gc.M
    (vi, ni), (vj, nj), (vh, nh) = clause.literals

    def hz(v, neg, q):
        return bp.z[(v, 3 - q if neg else q)]

    def hp(v, neg, q):
        return bp.p[(v, 3 - q if neg else q)]

    z2i, z1j, z2j = hz(vi, ni, 2), hz(vj, nj, 1), hz(vj, nj, 2)
    z1h, z2h, z1i = hz(vh, nh, 1), hz(vh, nh, 2), hz(vi, ni, 1)
    p = {
        1: hp(vi, ni, 2), 2: hp(vj, nj, 1), 4: hp(vj, nj, 2),
        5: hp(vh, nh, 1), 7: hp(vh, nh, 2), 8: hp(vi, ni, 1),
    }

    def e12(k):
        return dot(p[k], ONES)

    expected = {}
    for k in OBSERVED_SLOTS:
        pk = p[k]
        base = {
            1: dot(pk, z2i), 2: dot(pk, z1j) + eps * e12(k),
            3: dot(pk, z1j), 4: dot(pk, z2j),
            5: dot(pk, z1h) + eps * e12(k), 6: dot(pk, z1h),
            7: dot(pk, z2h), 8: dot(pk, z1i) + eps * e12(k),
            9: dot(pk, z1i),
        }
        # Bundle t holds one unit of one bookkeeping good:
        #   w1, w9 -> good 3;  w2 -> 4;  w3, w4 -> 7;  w5 -> 5;
        #   w6, w7 -> 8;  w8 -> 6.
        # r_k charges M on every bookkeeping good except its chain
        # successor's; r2, r5, r8 also leave their own bundle's good free:
        #   r1 frees 4;  r2 frees 4, 7;  r4 frees 5;  r5 frees 5, 8;
        #   r7 frees 6;  r8 frees 6, 3.
        # So bundle t costs an extra M under r_k unless its good is freed.
        spikes = {
            1: {1: M, 3: M, 4: M, 5: M, 6: M, 7: M, 8: M, 9: M},
            2: {1: M, 5: M, 6: M, 7: M, 8: M, 9: M},
            4: {1: M, 2: M, 3: M, 4: M, 6: M, 7: M, 8: M, 9: M},
            5: {1: M, 2: M, 3: M, 4: M, 8: M, 9: M},
            7: {1: M, 2: M, 3: M, 4: M, 5: M, 6: M, 7: M, 9: M},
            8: {2: M, 3: M, 4: M, 5: M, 6: M, 7: M},
        }[k]
        for t in range(1, 10):
            expected[(k, t)] = base[t] + spikes.get(t, 0)
    return expected


ALL_PATTERNS = list(itertools.product([False, True], repeat=3))


class TestClauseGadget:
    def test_positive_clause_first_bundle(self, single_clause):
        bp = base_points(3)
        gc = compute_epsilon_M(bp)
        g = build_clause_gadget(single_clause.clauses[0], bp, gc)
        assert g.bundles[1] == (F(3, 2), F(2, 3), F(1), F(0), F(0), F(0),
                                F(0), F(0))

    def test_negated_first_literal_swaps_the_base_point(self):
        f = cnf.parse_dimacs("p cnf 3 1\n-1 2 3 0\n")
        bp = base_points(3)
        g = build_clause_gadget(f.clauses[0], bp, compute_epsilon_M(bp))
        assert g.bundles[1][:2] == (F(1), F(1))

    def test_budget_cells(self, single_clause):
        bp = base_points(3)
        gc = compute_epsilon_M(bp)
        g = build_clause_gadget(single_clause.clauses[0], bp, gc)
        assert dot(g.prices[1], g.bundles[1]) == 1 + gc.M
        assert dot(g.prices[2], g.bundles[3]) == 1

    @pytest.mark.parametrize("signs", ALL_PATTERNS)
    def test_cost_tables_match_oracle(self, signs):
        clause = cnf.Clause(tuple((v, s) for v, s in zip((1, 2, 3), signs)))
        bp = base_points(3)
        gc = compute_epsilon_M(bp)
        g = build_clause_gadget(clause, bp, gc)
        expected = oracle_tables(clause, bp, gc)
        for k in OBSERVED_SLOTS:
            for t in range(1, 10):
                assert dot(g.prices[k], g.bundles[t]) == expected[(k, t)], \
                    (signs, k, t)

    @pytest.mark.parametrize("signs", ALL_PATTERNS)
    def test_chain_relation_for_every_sign_pattern(self, signs):
        clause = cnf.Clause(tuple((v, s) for v, s in zip((1, 2, 3), signs)))
        bp = base_points(3)
        gc = compute_epsilon_M(bp)
        g = build_clause_gadget(clause, bp, gc)
        edges = set()
        for k in OBSERVED_SLOTS:
            budget = dot(g.prices[k], g.bundles[k])
            for t in range(1, 10):
                if t != k and dot(g.prices[k], g.bundles[t]) < budget:
                    edges.add((k, t))
        assert edges == CHAIN_EDGES

    def test_middle_price_must_follow_the_negation(self):
        # If the second price of the middle slot ignored the negation, the
        # chain would gain a backward edge: with j negated, an unswapped
        # price makes w4 cost more than its own budget line allows for w3.
        f = cnf.parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
        bp = base_points(3)
        gc = compute_epsilon_M(bp)
        g = build_clause_gadget(f.clauses[0], bp, gc)
        wrong_r4 = bp.p[(2, 2)] + g.prices[4][2:]
        assert dot(wrong_r4, g.bundles[4]) > dot(wrong_r4, g.bundles[3])
        # the built gadget uses the swapped support and keeps the chain
        assert dot(g.prices[4], g.bundles[4]) == 1 + gc.M


class TestReduce:
    def test_counts_single_clause(self, single_clause):
        ds = reduce_formula(single_clause)
        assert len(ds.observations) == 6
        assert len(ds.evaluation_points) == 3
        assert ds.goods == 9
        assert {o.k for o in ds.observations} == set(OBSERVED_SLOTS)
        assert {e.t for e in ds.evaluation_points} == set(AUXILIARY_SLOTS)

    def test_counts_scale_linearly(self):
        rng = random.Random(2)
        for L in (2, 5, 8):
            f = cnf.random_formula(rng, 5, L)
            ds = reduce_formula(f)
            assert len(ds.observations) == 6 * L
            assert len(ds.evaluation_points) == 3 * L
            assert all(len(o.x) == 9 == len(o.p) for o in ds.observations)

    def test_paper_offsets_shift_costs_by_m_times_2l(self):
        f = cnf.parse_dimacs("p cnf 4 2\n1 2 3 0\n1 2 4 0\n")
        ds = reduce_formula(f, "paper")
        bp = base_points(4)
        gc = compute_epsilon_M(bp)
        gadget = build_clause_gadget(f.clauses[1], bp, gc)
        for o in ds.observations:
            if o.clause != 2:
                continue
            for t in range(1, 10):
                raw = dot(gadget.prices[o.k], gadget.bundles[t])
                lifted = dot(o.p, gadget.bundles[t] + (gc.M * 4,))
                assert lifted - raw == gc.M * 4

    def test_level_separation_both_modes(self):
        f = cnf.parse_dimacs("p cnf 5 3\n1 2 3 0\n-2 4 5 0\n1 -3 5 0\n")
        for mode in ("paper", "linear"):
            ds = reduce_formula(f, mode)  # raises if separation fails
            assert ds.offset_mode == mode
            offsets = sorted({o.x[-1] for o in ds.observations})
            assert len(offsets) == 3

    def test_level_separation_check_rejects_equal_offsets(self, monkeypatch):
        # with every level at the same offset, level 1 reaches into level 2
        # and level 2 fails to dominate level 1; each direction must raise
        f = cnf.parse_dimacs("p cnf 4 2\n1 2 3 0\n-2 3 4 0\n")
        check = reduction._verify_level_separation
        calls = []

        def record(*args):
            calls.append(args)
            check(*args)

        monkeypatch.setattr(reduction, "_offsets",
                            lambda mode, count, gc, gadgets: [gc.M] * count)
        monkeypatch.setattr(reduction, "_verify_level_separation", record)
        with pytest.raises(ConstructionError, match="level 1 observation "
                           "k=1 reaches into level 2"):
            reduce_formula(f)
        gadgets, offsets, observations = calls[0]
        level_two = [o for o in observations if o.clause == 2]
        with pytest.raises(ConstructionError, match="level 2 observation "
                           "k=1 does not dominate level 1"):
            check(gadgets, offsets, level_two)

    def test_linear_offsets_grow_linearly(self):
        f = cnf.parse_dimacs("p cnf 5 3\n1 2 3 0\n-2 4 5 0\n1 -3 5 0\n")
        ds = reduce_formula(f, "linear")
        offs = sorted({o.x[-1] for o in ds.observations})
        assert offs[1] == 2 * offs[0] and offs[2] == 3 * offs[0]

    @pytest.mark.parametrize("formula", [
        SINGLE_CLAUSE, SLOT_CONFLICT,
        cnf.random_formula(random.Random(5), 7, 5),
        cnf.random_formula(random.Random(6), 7, 5)],
        ids=["single-clause", "slot-conflict", "random-a", "random-b"])
    def test_linear_spread_matches_every_pair(self, formula):
        # oracle: the exhaustive loop over z-part and o-part pairings
        f = cnf.parse_dimacs(formula) if isinstance(formula, str) else formula
        bp = base_points(f.var_count)
        gc = compute_epsilon_M(bp)
        gadgets = [build_clause_gadget(c, bp, gc) for c in f.clauses]
        z_parts = {b[:2] for g in gadgets for b in g.bundles.values()}
        o_parts = {b[2:] for g in gadgets for b in g.bundles.values()}
        spread = F(0)
        for g in gadgets:
            for k in OBSERVED_SLOTS:
                price, budget = g.prices[k], dot(g.prices[k], g.bundles[k])
                for z in z_parts:
                    for o in o_parts:
                        spread = max(spread, abs(dot(price, z + o) - budget))
        offsets = reduction._offsets("linear", len(gadgets), gc, gadgets)
        assert offsets == [l * (1 + spread)
                           for l in range(1, len(gadgets) + 1)]

    def test_deterministic(self, single_clause):
        assert dataset_to_json(reduce_formula(single_clause)) == \
            dataset_to_json(reduce_formula(single_clause))

    def test_unknown_offset_mode(self, single_clause):
        with pytest.raises(ValueError):
            reduce_formula(single_clause, "exponential")

    def test_positive_prices_perturbation(self, single_clause):
        eta = F(1, 10 ** 6)
        ds = reduce_formula(single_clause, "paper", eta)
        for o in ds.observations:
            assert all(c > 0 for c in o.p)
            assert eta in o.p
        with pytest.raises(ValueError):
            reduce_formula(single_clause, "paper", F(-1, 2))

    def test_oversized_perturbation_breaks_the_chain_loudly(self, single_clause):
        with pytest.raises(ConstructionError):
            reduce_formula(single_clause, "paper", F(1000))


class TestDatasetJson:
    def test_round_trip_is_bit_exact(self, single_clause):
        ds = reduce_formula(single_clause)
        again = dataset_from_json(dataset_to_json(ds))
        assert again == ds

    def test_rationals_serialized_as_strings(self, single_clause):
        import json
        ds = reduce_formula(single_clause)
        doc = json.loads(dataset_to_json(ds))
        assert doc["n_z"] == 2 and doc["n_o"] == 7
        assert parse_rational(doc["epsilon"]) == ds.epsilon
        assert parse_rational(doc["M"]) == ds.M
        assert all(isinstance(v, str) for v in doc["observations"][0]["x"])

    @pytest.mark.parametrize("text,fragment", [
        ("[]", "top level"),
        ("{not json", "not valid JSON"),
        ('{"n_z": 2}', "n_z / n_o"),
        ('{"n_z": 1.9, "n_o": 1, "observations": [{"x": ["1", "2"], '
         '"p": ["1", "1"]}]}', "n_z / n_o"),
        ('{"n_z": 1, "n_o": true, "observations": [{"x": ["1", "2"], '
         '"p": ["1", "1"]}]}', "n_z / n_o"),
        ('{"n_z": "2", "n_o": 1, "observations": [{"x": ["1", "2", "1"], '
         '"p": ["1", "1", "1"]}]}', "n_z / n_o"),
        ('{"n_z": 2, "n_o": 1, "observations": [{"x": ["1"], "p": ["1"]}]}',
         "list of 3"),
        ('{"n_z": 2, "n_o": 0, "observations": [{"x": ["1", "0.5"], '
         '"p": ["1", "1"]}]}', "bad rational"),
        ('{"n_z": 2, "n_o": 1, "observations": [{"x": ["1", "1", "1"]}]}',
         "needs x and p"),
        ('{"n_z": 1, "n_o": 1, "evaluation_points": 5}',
         "evaluation_points must be a list"),
        ('{"n_z": 1, "n_o": 1, "observations": {"x": ["1", "1"]}}',
         "observations must be a list"),
        ('{"n_z": 1, "n_o": 1, "observations": [{"x": ["1", "1"], '
         '"p": ["1", "1"], "clause": "1"}]}', "clause must be an integer"),
        ('{"n_z": 1, "n_o": 1, "observations": [{"x": ["1", "1"], '
         '"p": ["1", "1"], "clause": [1]}]}', "clause must be an integer"),
        ('{"n_z": 1, "n_o": 1, "observations": [{"x": ["1", "1"], '
         '"p": ["1", "1"], "clause": 1.5}]}', "clause must be an integer"),
        ('{"n_z": 1, "n_o": 1, "observations": [{"x": ["1", "1"], '
         '"p": ["1", "1"], "clause": true}]}', "clause must be an integer"),
        ('{"n_z": 1, "n_o": 1, "observations": [{"x": ["1", "1"], '
         '"p": ["1", "1"], "k": "2"}]}', "k must be an integer"),
        ('{"n_z": 1, "n_o": 1, "evaluation_points": [{"x": ["1", "1"], '
         '"t": false}]}', "t must be an integer"),
    ])
    def test_rejections(self, text, fragment):
        with pytest.raises(DatasetError, match=fragment):
            dataset_from_json(text)

    def test_foreign_dataset_without_metadata_loads(self):
        text = ('{"n_z": 1, "n_o": 1, "observations": '
                '[{"x": ["1", "2"], "p": ["1", "1/2"]}]}')
        ds = dataset_from_json(text)
        assert ds.observations[0].clause is None
        assert ds.epsilon is None
