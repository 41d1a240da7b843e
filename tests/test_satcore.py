import dataclasses
import hashlib
import itertools
import random

import pytest

from seprat import cnf, satcore
from seprat.satcore import (BudgetExhausted, InstanceError, SatInstance,
                            Solver, solve)
from tests.conftest import checked_clause, checked_instance


def check_model(clauses, model):
    for cl in clauses:
        assert any(model[abs(l) - 1] == (l > 0) for l in cl), cl


def pigeonhole(pigeons, holes):
    """Each pigeon in some hole, no two in one: unsat if pigeons > holes."""
    def var(p, h):
        return p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return SatInstance(pigeons * holes, clauses)


class TestSolve:
    def test_contradictory_units(self):
        assert solve(SatInstance(1, [[1], [-1]])).status == "unsat"

    def test_unit_implied(self):
        res = solve(SatInstance(2, [[1, 2], [-1, 2]]))
        assert res.status == "sat"
        assert res.model[1] is True

    def test_empty_instance(self):
        res = solve(SatInstance(0, []))
        assert res.status == "sat" and res.model == []

    def test_empty_clause(self):
        assert solve(SatInstance(2, [[1, 2], []])).status == "unsat"

    def test_tautology_is_harmless(self):
        res = solve(SatInstance(2, [[1, -1, 2], [-2, 1]]))
        assert res.status == "sat"

    def test_tautologies_are_noted_once_and_never_watched(self):
        inst = SatInstance(3, [[1, -1, 2], [-2, 1], [3, 3], [2, -3, -2]])
        assert inst.tautologies == {0, 3}
        solver = Solver(inst)
        solver.add_clause([3, -3])
        watched = [cl for lst in solver.watches for cl in lst]
        assert len(watched) == 2
        assert all(cl is solver.clauses[1] for cl in watched)
        assert solver.solve().status == "sat"

    def test_duplicate_literals_in_clause(self):
        res = solve(SatInstance(2, [[1, 1, 2], [-1, -1]]))
        assert res.status == "sat"
        assert res.model == [False, True]

    def test_literal_out_of_range(self):
        with pytest.raises(InstanceError):
            SatInstance(2, [[3]])

    def test_pigeonhole_unsat(self):
        # 4 pigeons into 3 holes; exercises clause learning
        assert solve(pigeonhole(4, 3)).status == "unsat"

    def test_agreement_with_brute_force(self):
        rng = random.Random(13)
        for _ in range(200):
            f = cnf.random_formula(rng, rng.randint(3, 8), rng.randint(1, 30))
            inst = SatInstance(f.var_count,
                               [list(c.to_ints()) for c in f.clauses])
            res = solve(inst)
            oracle = cnf.brute_force_sat(f)
            assert (res.status == "sat") == (oracle is not None)
            if res.status == "sat":
                check_model(inst.clauses, res.model)

    def test_every_clause_is_checked_against_the_model(self):
        solver = Solver(SatInstance(3, [[1], [2], [-1, 3]]))
        solver._verify([True, True, True])
        with pytest.raises(RuntimeError, match="violates clause"):
            solver._verify([True, True, False])  # only the last clause fails

    def test_models_are_checked_against_input_and_added_clauses_only(
            self, caplog):
        # learned clauses follow from the others, so checking them too
        # would only cost time: the log counts input plus added clauses
        _, inst = pinned_formula(1)
        solver = Solver(inst)
        first = solver.solve()
        assert first.status == "sat" and solver.conflicts > 0
        solver.add_clause([1 if first.model[0] else -1, 2])
        with caplog.at_level("DEBUG", logger="seprat.satcore"):
            second = solver.solve()
        assert second.status == "sat"
        learned = len(solver.clauses) - len(inst.clauses) - 1
        assert learned > 0
        assert [r.getMessage() for r in caplog.records] == \
            [f"model verified against {len(inst.clauses) + 1} clauses"]
        # a clause stored the way learned ones are is not checked, even
        # one the model violates
        solver._store([2 + second.model[0]])  # the false literal of 1
        solver._verify(second.model)

    def test_determinism(self):
        rng = random.Random(3)
        f = cnf.random_formula(rng, 8, 25)
        inst = SatInstance(f.var_count, [list(c.to_ints()) for c in f.clauses])
        first = solve(inst)
        second = solve(SatInstance(f.var_count,
                                   [list(c.to_ints()) for c in f.clauses]))
        assert first.status == second.status
        assert first.model == second.model


# floats, bools and strings are not literals, even where int() takes them;
# then zero, out-of-range literals and clauses that are not sequences
HOSTILE_CLAUSES = [[2.7], [True, 2], ["3"], [-3.9], [1, None], [0], [4],
                   [-4], 5, None]


class TestInstance:
    def test_clauses_are_frozen_tuples(self):
        inst = SatInstance(3, [[1, 1, -2], [3]])
        assert inst.clauses == ((1, -2), (3,))
        with pytest.raises(AttributeError):
            inst.clauses.append([5])
        with pytest.raises(TypeError):
            inst.clauses[0][0] = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.clauses = [[5]]
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.var_count = 0
        assert solve(inst).status == "sat"

    @pytest.mark.parametrize("clause", HOSTILE_CLAUSES, ids=repr)
    def test_hostile_clause_is_refused(self, clause):
        with pytest.raises(InstanceError):
            SatInstance(3, [[1], clause])

    @pytest.mark.parametrize("var_count", [-1, 2.0, "3", True, None])
    def test_hostile_variable_count_is_refused(self, var_count):
        with pytest.raises(InstanceError):
            SatInstance(var_count, [])

    def test_clause_list_must_be_a_sequence(self):
        with pytest.raises(InstanceError):
            SatInstance(3, 7)

    @pytest.mark.parametrize("clause", HOSTILE_CLAUSES, ids=repr)
    def test_hostile_clause_names_the_first_fault(self, clause):
        # after valid clauses, and before others with faults of their own,
        # the bulk check names what the literal-by-literal oracle names
        clauses = [[1, 2, 3], [-1, -1, 2], [3, -3], clause, [7], "x", [0]]
        with pytest.raises(InstanceError) as oracle:
            checked_instance(3, clauses)
        with pytest.raises(InstanceError) as got:
            SatInstance(3, clauses)
        assert str(got.value) == str(oracle.value)
        with pytest.raises(InstanceError) as got:
            Solver(SatInstance(3, [[1, 2]])).add_clause(clause)
        with pytest.raises(InstanceError) as oracle:
            checked_clause(clause, 3)
        assert str(got.value) == str(oracle.value)

    def test_bulk_check_keeps_the_oracles_clauses_and_tautologies(self):
        rng = random.Random(40)
        seen = {"repeat": 0, "tautology": 0, "unused": 0, "not 3SAT": 0}
        for _ in range(2000):
            var_count = rng.randint(1, 6)
            clauses = [
                rng.choice((tuple, list))(
                    rng.choice((1, -1)) * rng.randint(1, var_count)
                    for _ in range(rng.choice((0, 1, 2, 3, 3, 3, 3, 4))))
                for _ in range(rng.randint(0, 8))]
            if rng.random() < 0.5:  # every clause three literals long
                clauses = [cl for cl in clauses if len(cl) == 3]
            inst = SatInstance(var_count, clauses)
            assert (inst.clauses, inst.tautologies) == \
                checked_instance(var_count, clauses)
            seen["repeat"] += any(len(set(cl)) < len(cl) for cl in clauses)
            seen["tautology"] += bool(inst.tautologies)
            seen["unused"] += len({abs(q) for cl in clauses for q in cl}) \
                < var_count
            seen["not 3SAT"] += any(len(cl) != 3 for cl in clauses)
        assert min(seen.values()) >= 300, seen


class TestIncremental:
    def test_pinning_a_variable_flips_the_verdict(self):
        inst = SatInstance(3, [[3], [1, 2, 3]])
        solver = Solver(inst)
        assert solver.solve().status == "sat"
        # the solver reorders literals in its own clause lists only
        assert inst.clauses == ((3,), (1, 2, 3))
        solver.add_clause([-3])
        assert inst.clauses == ((3,), (1, 2, 3))
        assert solver.solve().status == "unsat"
        assert inst.clauses == ((3,), (1, 2, 3))

    def test_duplicate_clause_keeps_verdict(self):
        inst = SatInstance(2, [[1, 2], [-1, 2]])
        solver = Solver(inst)
        solver.add_clause([1, 2])
        assert solver.solve().status == solve(inst).status == "sat"

    def test_empty_clause_added(self):
        solver = Solver(SatInstance(2, [[1, 2]]))
        solver.add_clause([])
        assert solver.solve().status == "unsat"

    def test_out_of_range_literal(self):
        with pytest.raises(InstanceError):
            Solver(SatInstance(2, [])).add_clause([5])

    @pytest.mark.parametrize("clause", HOSTILE_CLAUSES, ids=repr)
    def test_hostile_clause_is_refused(self, clause):
        solver = Solver(SatInstance(3, [[1, 2]]))
        before = [list(cl) for cl in solver.clauses]
        with pytest.raises(InstanceError):
            solver.add_clause(clause)
        assert solver.clauses == before

    def test_solver_object_retains_state_between_calls(self):
        solver = Solver(SatInstance(3, [[1, 2, 3]]))
        assert solver.solve().status == "sat"
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve().status == "sat"
        solver.add_clause([-3])
        assert solver.solve().status == "unsat"
        solver.add_clause([1, 2, 3])  # anything after unsat stays unsat
        assert solver.solve().status == "unsat"


def test_budget_exhaustion_is_an_error_not_a_verdict():
    with pytest.raises(BudgetExhausted):
        solve(pigeonhole(5, 4), conflict_limit=3)



# (seed, status, conflicts, learned clauses, sha256 of bytes(model)[:16])
# for random 3SAT at 4.26 clauses per variable; any change to propagation,
# learning or branching order moves some of them, and with them the
# witnesses that the refinement loop derives from SAT models.
PINNED_SEARCH = [
    (0, "sat", 3, 3, "663e9feb2b83fc0c"), (1, "sat", 24, 24, "6402ccd3e3f0473a"),
    (2, "sat", 0, 0, "6f831c97a81b115c"), (3, "sat", 4, 4, "841c1927c7a0617c"),
    (4, "sat", 11, 11, "b2d5a9ce3085c2db"), (5, "sat", 18, 18, "3c1f2d07e0336c56"),
    (6, "sat", 7, 7, "bb44822041d58bfc"), (7, "sat", 7, 7, "f0e1f6f15c80eb13"),
    (8, "sat", 3, 3, "fd136a8b98f76566"), (9, "unsat", 40, 39, None),
    (10, "unsat", 24, 23, None), (11, "unsat", 31, 30, None),
    (12, "sat", 4, 4, "5433b43efeabbd60"), (13, "unsat", 21, 20, None),
    (14, "unsat", 19, 18, None), (15, "sat", 29, 29, "5ff84d2a9fdc1f3d"),
    (16, "unsat", 27, 26, None), (17, "sat", 4, 4, "11b91824e851ce11"),
    (18, "unsat", 29, 28, None), (19, "sat", 24, 24, "4647294fb4693955"),
    (20, "sat", 5, 5, "cc49ae18008f52fc"), (21, "unsat", 31, 30, None),
    (22, "sat", 25, 25, "152f6acf3f1f892e"), (23, "sat", 2, 2, "4d2e1f91cefcee22"),
    (24, "sat", 10, 10, "91d247143425807b"), (25, "unsat", 25, 24, None),
    (26, "sat", 22, 22, "92593ce75cd8c8de"), (27, "unsat", 31, 30, None),
    (28, "sat", 7, 7, "03bc18d316725385"), (29, "unsat", 26, 25, None),
]


def pinned_formula(seed):
    rng = random.Random(seed)
    var_count = rng.randint(30, 40)
    f = cnf.random_formula(rng, var_count, round(4.26 * var_count))
    return f, SatInstance(var_count, [c.to_ints() for c in f.clauses])


@pytest.mark.parametrize("seed,status,conflicts,learned,digest", PINNED_SEARCH)
def test_search_is_pinned(seed, status, conflicts, learned, digest):
    f, inst = pinned_formula(seed)
    solver = Solver(inst)
    res = solver.solve()
    assert (res.status, solver.conflicts) == (status, conflicts)
    assert len(solver.clauses) - len(inst.clauses) == learned
    if status == "sat":
        assert hashlib.sha256(bytes(res.model)).hexdigest()[:16] == digest
        assert cnf.evaluate(f, dict(enumerate(res.model, 1)))


# the same, for the same formulas under `solve`, which searches in
# occurrence order; the conflicts and learned clauses are read from the one
# Solver it builds, whatever it passes to it
PINNED_SOLVE = [
    (0, "sat", 0, 0, "663e9feb2b83fc0c"), (1, "sat", 0, 0, "6aa2524627da21af"),
    (2, "sat", 1, 1, "973caac46d141cf0"), (3, "sat", 1, 1, "c5aa167ddaa8ae4e"),
    (4, "sat", 14, 14, "b2d5a9ce3085c2db"), (5, "sat", 10, 10, "4063316d0d06df86"),
    (6, "sat", 3, 3, "ec9f7dc4a3513c11"), (7, "sat", 1, 1, "3aba25fe4366eae7"),
    (8, "sat", 0, 0, "e5a2159e519f7903"), (9, "unsat", 28, 27, None),
    (10, "unsat", 36, 35, None), (11, "unsat", 19, 18, None),
    (12, "sat", 2, 2, "fefb9665c4fa7b04"), (13, "unsat", 12, 11, None),
    (14, "unsat", 14, 13, None), (15, "sat", 4, 4, "2ee9122ce85e8503"),
    (16, "unsat", 14, 13, None), (17, "sat", 1, 1, "0344cfccae068d0c"),
    (18, "unsat", 11, 10, None), (19, "sat", 4, 4, "794a4efab0005eb8"),
    (20, "sat", 8, 8, "1233f48f5ee8f968"), (21, "unsat", 19, 18, None),
    (22, "sat", 8, 8, "e620a1eb94e680f7"), (23, "sat", 1, 1, "65c199d34a39a221"),
    (24, "sat", 13, 13, "03aacdb19c80f75f"), (25, "unsat", 13, 12, None),
    (26, "sat", 18, 18, "6955bf785df0f707"), (27, "unsat", 38, 37, None),
    (28, "sat", 3, 3, "7c3da896f825f247"), (29, "unsat", 25, 24, None),
]


@pytest.mark.parametrize("seed,status,conflicts,learned,digest", PINNED_SOLVE)
def test_solve_is_pinned(monkeypatch, seed, status, conflicts, learned,
                         digest):
    made = []

    def recording(*args, **kwargs):
        made.append(Solver(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(satcore, "Solver", recording)
    f, inst = pinned_formula(seed)
    res = solve(inst)
    (solver,) = made
    assert (res.status, solver.conflicts) == (status, conflicts)
    assert len(solver.clauses) - len(inst.clauses) == learned
    if status == "sat":
        assert hashlib.sha256(bytes(res.model)).hexdigest()[:16] == digest
        assert cnf.evaluate(f, dict(enumerate(res.model, 1)))


class ScanCheckedSolver(Solver):
    """Checks each branching pick against a full scan of the variables: the
    free one of highest activity, lowest index first.  Counts the picks
    made among tied activities, and the picks at which a variable once
    bumped reads 0.0 again (flushed by rescaling)."""

    def __init__(self, instance):
        super().__init__(instance)
        self.picks = self.tied_picks = self.flushed_picks = 0
        self.bumped = set()

    def _pick_branch(self):
        pick = super()._pick_branch()
        activity = self.activity
        free = [v for v in range(1, self.n + 1) if self.vals[2 * v] == 0]
        best, best_act = None, -1.0
        for v in free:
            if activity[v] > best_act:
                best, best_act = v, activity[v]
        assert pick == best
        self.picks += 1
        self.tied_picks += sum(activity[v] == best_act for v in free) > 1
        self.flushed_picks += any(activity[v] == 0.0 for v in self.bumped)
        self.bumped.update(v for v, a in enumerate(activity) if a > 0.0)
        return pick


class PriorityScanCheckedSolver(Solver):
    """Checks each branching pick against a full scan of `priority`: the
    free variable of highest activity, earliest in it among equals, and
    each decision against the sign it lists."""

    def __init__(self, instance, priority):
        super().__init__(instance, priority=priority)
        self.listed = list(priority)
        self.picks = self.tied_picks = self.true_first = 0
        self.want = None

    def _pick_branch(self):
        pick = super()._pick_branch()
        activity = self.activity
        free = [q for q in self.listed if self.vals[2 * abs(q)] == 0]
        # max() keeps the first of equal keys
        best = max(free, key=lambda q: activity[abs(q)], default=None)
        assert pick == (None if best is None else abs(best))
        self.want = best
        if free:
            self.picks += 1
            self.tied_picks += sum(activity[abs(q)] == activity[pick]
                                   for q in free) > 1
        return pick

    def _enqueue(self, code, reason):
        if reason is None and self.trail_lim \
                and len(self.trail) == self.trail_lim[-1]:  # a decision
            q = self.want
            assert code == (2 * q if q > 0 else 1 - 2 * q)
            self.true_first += q > 0
        super()._enqueue(code, reason)


class TestBranching:
    def test_priority_picks_as_its_scan_does(self):
        # shuffled variables at random signs: the pinned formulas, and
        # pigeonhole for picks among tied activities
        rng = random.Random(37)
        instances = [pinned_formula(seed)[1] for seed, *_ in PINNED_SEARCH]
        picks = tied_picks = true_first = 0
        for inst in instances + [pigeonhole(5, 4)]:
            priority = [v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, inst.var_count + 1),
                                            inst.var_count)]
            solver = PriorityScanCheckedSolver(inst, priority)
            res = solver.solve()
            assert res.status == Solver(inst).solve().status
            if res.status == "sat":
                check_model(inst.clauses, res.model)
            picks += solver.picks
            tied_picks += solver.tied_picks
            true_first += solver.true_first
        assert picks > true_first > 0 and tied_picks > 0

    def test_pinned_searches_pick_as_the_scan_does(self):
        for seed, status, conflicts, _, _ in PINNED_SEARCH:
            solver = ScanCheckedSolver(pinned_formula(seed)[1])
            assert solver.solve().status == status
            assert solver.conflicts == conflicts
            assert solver.picks > 0

    def test_pigeonhole_picks_as_the_scan_does(self):
        solver = ScanCheckedSolver(pigeonhole(4, 3))
        assert solver.solve().status == "unsat"
        assert solver.tied_picks > 0

    def test_incremental_solves_pick_as_the_scan_does(self):
        f = cnf.random_formula(random.Random(5), 30, 90)
        solver = ScanCheckedSolver(
            SatInstance(30, [c.to_ints() for c in f.clauses]))
        solves = 0
        while (res := solver.solve()).status == "sat":
            solves += 1
            # block this model's values of variables 1..5
            solver.add_clause([-v if res.model[v - 1] else v
                               for v in range(1, 6)])
        assert solves >= 3

    def test_rescaled_activities_pick_as_the_scan_does(self, monkeypatch):
        # a steep decay makes rescales frequent, and repeated rescales
        # flush early activities to 0.0, tying them with unbumped ones
        monkeypatch.setattr(satcore, "_ACT_DECAY", 1e-5)
        monkeypatch.setattr(satcore, "_ACT_RESCALE", 1e10)
        solver = ScanCheckedSolver(pigeonhole(6, 5))
        assert solver.solve().status == "unsat"
        assert solver.flushed_picks > 0 and solver.tied_picks > 0


def satisfiable(var_count, clauses):
    """Brute force over int-literal clauses of any length."""
    return any(all(any(bits[abs(q) - 1] == (q > 0) for q in cl)
                   for cl in clauses)
               for bits in itertools.product((False, True), repeat=var_count))


def mixed_formula(rng):
    """Clauses of 1 to 4 literals drawn with replacement, so that units,
    repeated literals and tautologies occur, over some of the variables;
    the first variable drawn only ever occurs positively."""
    var_count = rng.randint(3, 12)
    used = rng.sample(range(1, var_count + 1), rng.randint(2, var_count))
    pure = used[0]
    clauses = []
    for _ in range(rng.randint(1, 4 * var_count)):
        vs = rng.choices(used, k=rng.choice((1, 2, 3, 3, 3, 4)))
        clauses.append([v if v == pure or rng.random() < 0.5 else -v
                        for v in vs])
    return var_count, clauses


class TestOccurrenceOrder:
    def test_statuses_match_the_given_numbering_and_brute_force(self):
        rng = random.Random(35)
        seen = {"unit": 0, "tautology": 0, "repeat": 0, "unused": 0,
                "sat": 0, "unsat": 0}
        for _ in range(300):
            var_count, clauses = mixed_formula(rng)
            inst = SatInstance(var_count, clauses)
            seen["unit"] += any(len(cl) == 1 for cl in inst.clauses)
            seen["tautology"] += bool(inst.tautologies)
            seen["repeat"] += any(len(set(cl)) < len(cl) for cl in clauses)
            seen["unused"] += len({abs(q) for cl in clauses for q in cl}) \
                < var_count
            res = solve(inst)
            seen[res.status] += 1
            assert res.status == Solver(inst).solve().status
            assert (res.status == "sat") == satisfiable(var_count, clauses)
            if res.status == "sat":
                assert len(res.model) == var_count
                check_model(clauses, res.model)
        assert min(seen.values()) >= 30, seen
        for _ in range(100):  # and on 3SAT, against the formula oracle
            f = cnf.random_formula(rng, rng.randint(3, 12), rng.randint(1, 50))
            clauses = [c.to_ints() for c in f.clauses]
            inst = SatInstance(f.var_count, clauses)
            res = solve(inst)
            assert res.status == Solver(inst).solve().status
            assert (res.status == "sat") == (cnf.brute_force_sat(f) is not None)
            if res.status == "sat":
                assert cnf.evaluate(f, dict(enumerate(res.model, 1)))

    def test_busiest_variable_first_at_its_more_frequent_sign(
            self, monkeypatch):
        # occurrences: 3 three times (twice positive), 2 twice (positive),
        # 4 and 5 twice (once each way), 1 never; 2, 4 and 5 tie, so they
        # keep index order, and only 3 and 2 are tried True first
        given = []

        def recording(*args, **kwargs):
            given.append((args, kwargs))
            return Solver(*args, **kwargs)

        monkeypatch.setattr(satcore, "Solver", recording)
        inst = SatInstance(5, [[3, 2], [3, -4], [-3, 4], [2], [5, -5]])
        res = solve(inst)
        ((args, kwargs),) = given
        assert args[0] is inst  # the instance itself, not a copy
        assert list(kwargs["priority"]) == [3, 2, -4, -5, -1]
        assert res.model == [False, True, True, True, False]

    def test_each_pure_sign_is_tried_first(self):
        # 1 occurs only positively and 2 only negatively, so their first
        # tries satisfy every clause; 4 and 5 are unused and read False
        inst = SatInstance(5, [[1, -2], [1, 3], [-2, -3]])
        assert solve(inst).model == [True, False, False, False, False]
        # Solver alone searches in index order, False first
        assert Solver(inst).solve().model == [False, False, True, False,
                                              False]

    def test_budget_counts_conflicts_of_the_occurrence_order_search(self):
        _, inst = pinned_formula(9)  # 40 conflicts in the given numbering
        assert solve(inst, conflict_limit=28).status == "unsat"
        with pytest.raises(BudgetExhausted):
            solve(inst, conflict_limit=27)
        with pytest.raises(BudgetExhausted):
            Solver(inst, conflict_limit=28).solve()
