import random

import pytest

from seprat import cnf, satcore
from seprat.satcore import (BudgetExhausted, InstanceError, SatInstance,
                            Solver, solve)


def check_model(clauses, model):
    for cl in clauses:
        assert any(model[abs(l) - 1] == (l > 0) for l in cl), cl


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

    def test_duplicate_literals_in_clause(self):
        res = solve(SatInstance(2, [[1, 1, 2], [-1, -1]]))
        assert res.status == "sat"
        assert res.model == [False, True]

    def test_literal_out_of_range(self):
        with pytest.raises(InstanceError):
            SatInstance(2, [[3]])

    def test_pigeonhole_unsat(self):
        # 4 pigeons into 3 holes; exercises clause learning
        def var(p, h):
            return p * 3 + h + 1
        clauses = [[var(p, h) for h in range(3)] for p in range(4)]
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    clauses.append([-var(p1, h), -var(p2, h)])
        assert solve(SatInstance(12, clauses)).status == "unsat"

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

    def test_determinism(self):
        rng = random.Random(3)
        f = cnf.random_formula(rng, 8, 25)
        inst = SatInstance(f.var_count, [list(c.to_ints()) for c in f.clauses])
        first = solve(inst)
        second = solve(SatInstance(f.var_count,
                                   [list(c.to_ints()) for c in f.clauses]))
        assert first.status == second.status
        assert first.model == second.model


class TestIncremental:
    def test_pinning_a_variable_flips_the_verdict(self):
        inst = SatInstance(3, [[3], [1, 2, 3]])
        solver = Solver(inst)
        assert solver.solve().status == "sat"
        # the solver reorders literals in its own clause lists only
        assert inst.clauses == [[3], [1, 2, 3]]
        solver.add_clause([-3])
        assert inst.clauses == [[3], [1, 2, 3]]
        assert solver.solve().status == "unsat"
        assert inst.clauses == [[3], [1, 2, 3]]

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
    def var(p, h):
        return p * 4 + h + 1
    clauses = [[var(p, h) for h in range(4)] for p in range(5)]
    for h in range(4):
        for p1 in range(5):
            for p2 in range(p1 + 1, 5):
                clauses.append([-var(p1, h), -var(p2, h)])
    with pytest.raises(BudgetExhausted):
        solve(SatInstance(20, clauses), conflict_limit=3)

