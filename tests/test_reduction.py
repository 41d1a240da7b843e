import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from seprat import cnf, reduction
from seprat.numerics import dot, parse_rational
from seprat.reduction import (AUXILIARY_SLOTS, CHAIN_EDGES, MAX_VARIABLES,
                              OBSERVED_SLOTS, ConstructionError, Dataset,
                              DatasetError, SizeGuardExceeded, base_points,
                              build_clause_gadget, compute_epsilon_M,
                              dataset_from_json, dataset_to_json,
                              reduce_formula)
from seprat.rpcore import TIE_MODES
from seprat.septest import decide
from tests.conftest import (ALL_SIGN_PATTERNS, SINGLE_CLAUSE, SLOT_CONFLICT,
                            exhaustive_level_separation, pairwise_epsilon_M)

F = Fraction
ONES = (F(1), F(1))


def _pairing_gaps(gadgets):
    """Oracle: over every pairing of a z-part with an o-part, the largest
    overspend and the largest shortfall against each observed budget."""
    z_parts = {b[:2] for g in gadgets for b in g.bundles.values()}
    o_parts = {b[2:] for g in gadgets for b in g.bundles.values()}
    gaps = [dot(g.prices[k], z + o) - dot(g.prices[k], g.bundles[k])
            for g in gadgets for k in OBSERVED_SLOTS
            for z in z_parts for o in o_parts]
    return max(gaps), -min(gaps)


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

    def test_variable_count_guard(self):
        # above every variable count in use: the compile workload has at
        # most 22 and the L=50 scale formula 52
        assert MAX_VARIABLES >= 52
        assert base_points(MAX_VARIABLES).count == MAX_VARIABLES
        with pytest.raises(SizeGuardExceeded, match="compile guard"):
            base_points(MAX_VARIABLES + 1)
        with pytest.raises(SizeGuardExceeded):
            reduce_formula(cnf.CnfFormula(MAX_VARIABLES + 1, ()))

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

    @pytest.mark.parametrize("count", [*range(1, 17), 22, 64, 128])
    def test_constants_match_the_pairwise_oracle(self, count):
        bp = base_points(count)
        assert compute_epsilon_M(bp) == pairwise_epsilon_M(bp)

    @pytest.mark.parametrize("count", [1, 2, 22, 128])
    def test_each_cross_cost_is_taken_once(self, monkeypatch, count):
        # of the n = 2I base points in sorted order, the n - 1 neighbour
        # pairs and each point against both ends, less the last neighbour
        # pair, which is also an end pair: 3n - 4 cross costs, each taken
        # once, and one price mass per base point
        bp = base_points(count)
        calls = []

        def counting(p, x):
            calls.append(None)
            return dot(p, x)

        monkeypatch.setattr(reduction, "dot", counting)
        compute_epsilon_M(bp)
        n = 2 * count
        assert len(calls) == (3 * n - 4) + n

    @pytest.mark.parametrize("field, value, message", [
        ("z", (F(2), F(1, 3)), r"base point \(2, 1\) is not on xy = 1"),
        ("z", (F(-2), F(-1, 2)), r"base point \(2, 1\) is not on xy = 1"),
        ("p", (F(1, 4), F(1, 2)),
         r"price at \(2, 1\) is not the support price"),
    ])
    def test_a_broken_premise_is_named(self, field, value, message):
        # the O(I) costing holds only on the hyperbola with its support
        # prices; (2, 1) is (2, 1/2) with price (1/4, 1)
        bp = base_points(3)
        points = {"z": dict(bp.z), "p": dict(bp.p)}
        points[field][(2, 1)] = value
        bad = reduction.BasePoints(3, points["z"], points["p"])
        with pytest.raises(ConstructionError, match=message):
            compute_epsilon_M(bad)

    def test_coinciding_base_points_fail_the_epsilon_gap(self, monkeypatch,
                                                         single_clause):
        # compute_epsilon_M is the one check that base points separate:
        # two equal entries cost exactly 1 at each other's price
        bp = base_points(3)
        z, p = dict(bp.z), dict(bp.p)
        z[(2, 1)], p[(2, 1)] = z[(1, 1)], p[(1, 1)]
        bad = reduction.BasePoints(3, z, p)
        assert dot(p[(1, 1)], z[(2, 1)]) == 1  # delta = 0
        with pytest.raises(ConstructionError, match="epsilon gap fails"):
            compute_epsilon_M(bad)
        monkeypatch.setattr(reduction, "base_points", lambda count: bad)
        with pytest.raises(ConstructionError, match="epsilon gap fails"):
            reduce_formula(single_clause)


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
                            lambda mode, count, gc: [gc.M] * count)
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
        # the bound _offsets rests on: over every pairing of a z-part with
        # an o-part, a budget and a level-free point differ by under 2M
        f = cnf.parse_dimacs(formula) if isinstance(formula, str) else formula
        bp = base_points(f.var_count)
        gc = compute_epsilon_M(bp)
        gadgets = [build_clause_gadget(c, bp, gc) for c in f.clauses]
        assert max(*_pairing_gaps(gadgets)) < 2 * gc.M
        assert reduction._offsets("linear", len(gadgets), gc) == \
            [2 * gc.M * l for l in range(1, len(gadgets) + 1)]

    def test_linear_spread_counts_the_cheapest_pairing(self):
        # hand-made blocks whose observed bundles cost far more than the
        # cheapest pairing of parts: their shortfall exceeds 2M, so 2M
        # offsets do not separate them and the exact check says so
        o_price = (F(1, 4),) + (F(0),) * 5
        gadgets = [
            reduction.ClauseGadget(
                bundles={t: (z if t in OBSERVED_SLOTS else (F(0), F(0)))
                         + reduction._SLOT_O[t] for t in range(1, 10)},
                prices={k: (F(1), F(1)) + o_price for k in OBSERVED_SLOTS})
            for z in ((F(4), F(4)), (F(3), F(5)))]
        over, short = _pairing_gaps(gadgets)
        assert (over, short) == (F(1, 4), F(33, 4))
        gc = compute_epsilon_M(base_points(1))
        assert short > 2 * gc.M
        offsets = reduction._offsets("linear", 2, gc)
        observations = [
            reduction.Observation(x=g.bundles[k] + (off,),
                                  p=g.prices[k] + (F(1),), clause=l, k=k)
            for l, (g, off) in enumerate(zip(gadgets, offsets), start=1)
            for k in OBSERVED_SLOTS]
        expected = separation_outcome(exhaustive_level_separation,
                                      gadgets, offsets, observations)
        assert expected == "level 1 observation k=1 reaches into level 2"
        with pytest.raises(ConstructionError, match=expected):
            reduction._verify_level_separation(gadgets, offsets,
                                               observations)

    def test_offset_modes_decide_identically(self):
        # the offset value is free once it separates the levels: paper and
        # linear compilations of a formula give the same decision
        rng = random.Random(2727)
        for _ in range(20):
            L = rng.randint(1, 4)
            f = cnf.random_formula(rng, rng.randint(3, L + 3), L)
            for tie_mode in TIE_MODES:
                paper, linear = (decide(reduce_formula(f, mode), tie_mode)
                                 for mode in ("paper", "linear"))
                assert (paper.status, paper.iterations, paper.u_order,
                        paper.v_order) == (linear.status, linear.iterations,
                                           linear.u_order, linear.v_order)

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

    def test_broken_price_layout_fails_the_emitted_chain_check(
            self, monkeypatch, single_clause):
        # r1 charging M on w2's good loses the edge w1 -> w2
        monkeypatch.setitem(reduction._FREE_GOODS, 1, set())
        with pytest.raises(ConstructionError, match=r"level 1 relation "
                           r"\[.*\] lost the three chains"):
            reduce_formula(single_clause)


def separation_inputs(f, mode):
    """The (gadgets, offsets, observations) that reduce_formula hands to
    its level-separation check."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_verify_level_separation",
                   lambda *args: calls.append(args))
        reduce_formula(f, mode)
    return calls[0]


def relevel(observations, offsets):
    """Observations moved to the given offsets, as if _offsets chose them."""
    return [dataclasses.replace(o, x=o.x[:-1] + (offsets[o.clause - 1],))
            for o in observations]


def separation_outcome(check, gadgets, offsets, observations):
    try:
        check(gadgets, offsets, observations)
    except ConstructionError as exc:
        return str(exc)
    return None


class TestLevelSeparation:
    def separation_corpus(self):
        """Fixed-seed inputs to the level-separation check: compiled data
        in both offset modes, then with rescaled, equal, permuted or
        tightened offsets, perturbed prices, or permuted offsets under a
        negative offset price."""
        rng = random.Random(1616)
        formulas = [cnf.parse_dimacs(SLOT_CONFLICT)] + [
            cnf.random_formula(rng, rng.randint(3, 6), rng.randint(2, 5))
            for _ in range(6)]
        for f in formulas:
            for mode in ("paper", "linear"):
                gadgets, offsets, obs = separation_inputs(f, mode)
                shuffled = offsets[:]
                rng.shuffle(shuffled)
                variants = [(offsets, obs)]
                # offsets one spread apart: where the tightest pairing of
                # a budget with a part meets a neighbouring level, it sits
                # exactly on its bound
                spread = max(*_pairing_gaps(gadgets))
                tight = [l * spread for l in range(1, len(offsets) + 1)]
                for moved in ([c * F(1, 2) for c in offsets],
                              [c / 1000 for c in offsets],
                              [offsets[0]] * len(offsets), shuffled, tight):
                    variants.append((moved, relevel(obs, moved)))
                for eta in (F(1, 10 ** 6), F(1), F(1000)):
                    variants.append((offsets, [dataclasses.replace(
                        o, p=tuple(c if c else eta for c in o.p))
                        for o in obs]))
                variants.append((shuffled, [dataclasses.replace(
                    o, p=o.p[:-1] + (F(-1),))
                    for o in relevel(obs, shuffled)]))
                for offs, rows in variants:
                    yield gadgets, offs, rows
                    level = rng.randint(1, len(gadgets))
                    yield gadgets, offs, [o for o in rows
                                          if o.clause == level]

    def test_agrees_with_the_exhaustive_oracle(self):
        messages = []
        for gadgets, offsets, obs in self.separation_corpus():
            expected = separation_outcome(exhaustive_level_separation,
                                          gadgets, offsets, obs)
            assert separation_outcome(reduction._verify_level_separation,
                                      gadgets, offsets, obs) == expected
            messages.append(expected)
        # the corpus holds passing cases and raising ones in each direction
        assert None in messages
        assert any(m and "does not dominate" in m for m in messages)
        assert any(m and "reaches into" in m for m in messages)

    def test_lower_offsets_bound_by_their_maximum(self):
        # level 1 sits above level 3 although level 2, the neighbour, sits
        # below it: a bound from neighbouring offsets would pass this
        f = cnf.random_formula(random.Random(5), 7, 3)
        gadgets, offsets, obs = separation_inputs(f, "linear")
        c = offsets[0]
        offsets = [3 * c, c, 2 * c]
        level_three = [o for o in relevel(obs, offsets) if o.clause == 3]
        with pytest.raises(ConstructionError, match="level 3 observation "
                           "k=1 does not dominate level 1"):
            reduction._verify_level_separation(gadgets, offsets, level_three)

    def test_inputs_are_validated_before_the_build(self, monkeypatch,
                                                   single_clause):
        def forbidden(*args):
            raise AssertionError("base points built for a rejected input")

        monkeypatch.setattr(reduction, "base_points", forbidden)
        with pytest.raises(ValueError, match="unknown offset mode"):
            reduce_formula(single_clause, "exponential")
        with pytest.raises(ValueError, match="must be nonnegative"):
            reduce_formula(single_clause, "paper", F(-1, 2))


def _json_cases(single_clause):
    """Compiled, linear with positive prices, empty and foreign datasets."""
    return [reduce_formula(single_clause),
            reduce_formula(cnf.parse_dimacs(SLOT_CONFLICT), "linear", F(1, 7)),
            Dataset(n_z=1, n_o=0, observations=(), evaluation_points=()),
            dataset_from_json(
                '{"n_z": 1, "n_o": 1, "observations": [{"x": ["1", "2"], '
                '"p": ["1", "-1/2"]}]}')]


class TestDatasetJson:
    def test_round_trip_is_bit_exact(self, single_clause):
        for ds in _json_cases(single_clause):
            text = dataset_to_json(ds)
            again = dataset_from_json(text)
            assert again == ds
            assert dataset_to_json(again) == text

    def test_text_is_the_one_line_dump_of_the_document(self, single_clause):
        # the text is json.dumps of the whole document, as the CLI writes
        # every other JSON document, also for empty row lists
        for ds in _json_cases(single_clause):
            def vec(x):
                return [str(v) for v in x]
            doc = {
                "n_z": ds.n_z, "n_o": ds.n_o, "offset_mode": ds.offset_mode,
                "epsilon": None if ds.epsilon is None else str(ds.epsilon),
                "M": None if ds.M is None else str(ds.M),
                "observations": [
                    {"x": vec(o.x), "p": vec(o.p), "clause": o.clause,
                     "k": o.k} for o in ds.observations],
                "evaluation_points": [
                    {"x": vec(e.x), "clause": e.clause, "t": e.t}
                    for e in ds.evaluation_points],
            }
            text = dataset_to_json(ds)
            assert text == json.dumps(doc)
            assert "\n" not in text

    def test_compiled_text_digest(self):
        # pins the exact epsilon, M, offsets and row order of compiled
        # data: the named formulas and a small random ladder, in both
        # offset modes, with and without the positive-price perturbation
        rng = random.Random(26)
        formulas = [cnf.parse_dimacs(text) for text in
                    (SINGLE_CLAUSE, SLOT_CONFLICT, ALL_SIGN_PATTERNS)]
        formulas += [cnf.random_formula(rng, clauses + 2, clauses)
                     for clauses in (1, 2, 3, 4)]
        digest = hashlib.sha256()
        for f in formulas:
            for mode in reduction.OFFSET_MODES:
                for eta in (0, F(1, 10 ** 6)):
                    text = dataset_to_json(reduce_formula(f, mode, eta))
                    digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == (
            "d24d131f5fb219ab6e4acfc9acb7aa86c3eac3655824240c9a5b70dca0ccd2a5")

    def test_rationals_serialized_as_strings(self, single_clause):
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
        ('{"n_z": 1, "n_o": 1, "offset_mode": [1, 2]}', "offset_mode must be"),
        ('{"n_z": 1, "n_o": 1, "offset_mode": "exponential"}',
         "offset_mode must be"),
    ])
    def test_rejections(self, text, fragment):
        with pytest.raises(DatasetError, match=fragment):
            dataset_from_json(text)

    def test_each_distinct_literal_is_parsed_once_per_load(self,
                                                            monkeypatch):
        # compiled data repeats a few dozen rationals over all its rows
        f = cnf.parse_dimacs("p cnf 7 6\n-4 6 5 0\n-4 1 3 0\n-4 1 -5 0\n"
                             "4 5 6 0\n-6 4 5 0\n-4 7 -5 0\n")
        ds = reduce_formula(f, "linear")
        text = dataset_to_json(ds)
        doc = json.loads(text)
        literals = [doc["epsilon"], doc["M"]]
        for row in doc["observations"]:
            literals += row["x"] + row["p"]
        for row in doc["evaluation_points"]:
            literals += row["x"]
        calls = []

        def counting(s):
            calls.append(s)
            return parse_rational(s)

        monkeypatch.setattr(reduction, "parse_rational", counting)
        assert dataset_from_json(text) == ds
        assert sorted(calls) == sorted(set(literals))
        assert 10 * len(calls) < len(literals)
        del calls[:]
        assert dataset_from_json(text) == ds  # no table outlives a load
        assert sorted(calls) == sorted(set(literals))

    @pytest.mark.parametrize("bad, message", [
        ('"1/0"', "zero denominator: '1/0'"),
        ("0.5", "bad rational literal: '0.5'"),
        ("true", "bad rational literal: 'True'")])
    def test_a_repeated_malformed_literal_names_its_first_field(
            self, bad, message):
        # a failed parse is not kept: the first row that holds the
        # literal is named, after rows whose literals were looked up
        good = '["1", "1/2"]'
        rows = [f'{{"x": {good}, "p": {good}}}',
                f'{{"x": {good}, "p": ["1", {bad}]}}',
                f'{{"x": [{bad}, "1"], "p": {good}}}']
        text = ('{"n_z": 1, "n_o": 1, "observations": [' + ", ".join(rows)
                + "]}")
        with pytest.raises(DatasetError) as err:
            dataset_from_json(text)
        assert str(err.value) == f"observation 1 price: {message}"

    def test_foreign_dataset_without_metadata_loads(self):
        text = ('{"n_z": 1, "n_o": 1, "observations": '
                '[{"x": ["1", "2"], "p": ["1", "1/2"]}]}')
        ds = dataset_from_json(text)
        assert ds.observations[0].clause is None
        assert ds.epsilon is None
