import random

import pytest

from seprat import cnf
from seprat.cnf import (Clause, CnfFormula, DimacsError, EnumerationLimit,
                        FormulaError, brute_force_sat, evaluate, parse_dimacs,
                        random_formula)


def to_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.var_count} {len(f.clauses)}"]
    for c in f.clauses:
        lines.append(" ".join(str(l) for l in c.to_ints()) + " 0")
    return "\n".join(lines) + "\n"


class TestParse:
    def test_single_clause(self):
        f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert f.var_count == 3
        assert [c.to_ints() for c in f.clauses] == [(1, 2, 3)]

    def test_duplicate_variable_rejected(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p cnf 2 1\n1 -1 2 0\n")

    def test_two_clauses(self):
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
        assert len(f.clauses) == 2
        assert f.clauses[1].to_ints() == (-1, -2, -3)

    def test_comments_and_blank_lines(self):
        f = parse_dimacs(
            "c a comment\n\np cnf 3 2\nc another\n1 2 3 0\n"
            "c between\n-1 2 -3 0\nc trailing\n")
        assert len(f.clauses) == 2

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses[0].to_ints() == (1, 2, 3)

    @pytest.mark.parametrize("text,fragment", [
        ("", "missing header"),
        ("p cnf 3\n1 2 3 0\n", "malformed header"),
        ("p dnf 3 1\n1 2 3 0\n", "malformed header"),
        ("p cnf 0 1\n1 2 3 0\n", "bad counts"),
        ("1 2 3 0\n", "before header"),
        ("p cnf 3 1\n1 2 4 0\n", "out of range"),
        ("p cnf 3 1\n1 2 3 0\n1 -2 3 0\n", "garbage|more clauses"),
        ("p cnf 3 2\n1 2 3 0\n", "declares 2 clauses, found 1"),
        ("p cnf 3 1\n1 2 3\n", "unterminated"),
        ("p cnf 3 1\n1 2 3 0\nxyz\n", "garbage|token"),
        ("p cnf 3 1\n1 2 0\n", "exactly 3"),
        ("p cnf 4 1\n1 2 3 4 0\n", "exactly 3"),
        ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "duplicate header"),
        ("p cnf 1_0 1\n1 2 3 0\n", "line 1: non-ASCII character or '_'"),
        ("p cnf 3 1\n\u0661 2 3 0\n", "line 2: non-ASCII character or '_'"),
    ])
    def test_rejections(self, text, fragment):
        with pytest.raises(DimacsError, match=fragment):
            parse_dimacs(text)

    def test_error_carries_line_number(self):
        with pytest.raises(DimacsError) as err:
            parse_dimacs("p cnf 3 1\nc fine\n1 1 2 0\n")
        assert err.value.line == 3


class TestModel:
    def test_clause_needs_distinct_variables(self):
        with pytest.raises(FormulaError):
            Clause.from_ints([1, -1, 2])

    def test_formula_range_check(self):
        with pytest.raises(FormulaError):
            CnfFormula(2, (Clause.from_ints([1, 2, 3]),))

    def test_to_dimacs_round_trip(self):
        f = parse_dimacs("p cnf 4 2\n1 -2 3 0\n-1 2 -4 0\n")
        assert parse_dimacs(to_dimacs(f)) == f


class TestBruteForce:
    def test_first_satisfying_assignment(self, single_clause):
        # (F,F,F) falsifies the clause; the next assignment in order is
        # (F,F,T), which satisfies it
        assert brute_force_sat(single_clause) == {1: False, 2: False, 3: True}

    def test_all_sign_patterns_unsat(self, all_sign_patterns):
        assert brute_force_sat(all_sign_patterns) is None

    def test_empty_clause_list_vacuous(self):
        f = CnfFormula(1, ())
        assert brute_force_sat(f) == {1: False}

    def test_enumeration_guard(self):
        f = CnfFormula(26, (Clause.from_ints([1, 2, 3]),))
        with pytest.raises(EnumerationLimit):
            brute_force_sat(f)

    def test_returned_assignment_satisfies(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_formula(rng, rng.randint(3, 6), rng.randint(1, 12))
            a = brute_force_sat(f)
            if a is not None:
                assert evaluate(f, a)

    def test_evaluate_domain_check(self, single_clause):
        with pytest.raises(FormulaError):
            evaluate(single_clause, {1: True, 2: True})


def test_random_formula_is_deterministic():
    a = random_formula(random.Random(5), 4, 3)
    b = random_formula(random.Random(5), 4, 3)
    assert a == b
    for c in a.clauses:
        assert len({v for v, _ in c.literals}) == 3


def test_random_formula_bounds():
    with pytest.raises(FormulaError):
        random_formula(random.Random(0), 2, 1)
    with pytest.raises(FormulaError):
        random_formula(random.Random(0), 3, 0)
