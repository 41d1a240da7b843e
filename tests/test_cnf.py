import random

import pytest
from hypothesis import given, strategies as st

from seprat import cnf
from seprat.cnf import (Clause, CnfFormula, DimacsError, EnumerationLimit,
                        FormulaError, brute_force_sat, evaluate, parse_dimacs,
                        random_formula, read_dimacs)
from tests.conftest import token_by_token_dimacs


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
        # only "\n" ends a line: other line breaks of str.splitlines()
        # neither hide a non-ASCII character nor shift a line number
        ("p cnf 3 1\n1 2\u20283 0\n", "line 2: non-ASCII character or '_'"),
        ("p cnf 3 1\n1 2\x853 0\n", "line 2: non-ASCII character or '_'"),
        ("p cnf 3 1\n1 2 3 0\u2028\n", "line 2: non-ASCII character or '_'"),
        ("p cnf 3 1\n1 2\x0c3 4 0\n", "line 2: literal 4 out of range"),
        ("p cnf 3 1\n1\x1c2\x1d3\x1e4 0\n", "line 2: literal 4 out of range"),
    ])
    def test_rejections(self, text, fragment):
        with pytest.raises(DimacsError, match=fragment):
            parse_dimacs(text)

    def test_error_carries_line_number(self):
        with pytest.raises(DimacsError) as err:
            parse_dimacs("p cnf 3 1\nc fine\n1 1 2 0\n")
        assert err.value.line == 3

    def test_crlf_line_endings(self):
        f = parse_dimacs("c dos\r\np cnf 3 2\r\n1 -2 3 0\r\n-1 2\r\n3 0\r\n")
        assert [c.to_ints() for c in f.clauses] == [(1, -2, 3), (-1, 2, 3)]
        with pytest.raises(DimacsError, match="line 3: unterminated"):
            parse_dimacs("p cnf 3 1\r\n1 2\r\n3\r\n")


def read(fn, text):
    """fn's clauses, or the message and line of the DimacsError it raises."""
    try:
        return fn(text)
    except DimacsError as exc:
        return str(exc), exc.line


# lines near and off the dialect: headers, clause lines of every length,
# repeated variables and out-of-range literals, tokens int() reads but the
# dialect does not, other whitespace, comments and blank lines
TOKENS = ["0", "1", "-1", "2", "-2", "3", "-3", "4", "+1", "03", "-0", "x",
          "1_0", "\u0661", "c", "p", "99999999999999999999"]


@st.composite
def dimacs_texts(draw):
    var_count = draw(st.integers(1, 4))
    literal = st.integers(1, var_count + 1).flatmap(
        lambda v: st.sampled_from((v, -v)))
    clause = st.lists(literal, min_size=3, max_size=3,
                      unique_by=abs).map(lambda c: c + [0])
    repeating = st.lists(literal, min_size=3, max_size=3).map(
        lambda c: c + [0])
    other = st.lists(st.one_of(literal, st.just(0)), max_size=5)
    body = draw(st.lists(st.one_of(
        clause.map(lambda c: " ".join(map(str, c))),
        clause.map(lambda c: f"{c[0]}\t{c[1]}  {c[2]} {c[3]} "),
        # other whitespace, ASCII or not, between the tokens and at the end
        st.tuples(clause, st.sampled_from(["\x0c", "\x1c", "\xa0", "\u2028"]))
        .map(lambda t: t[1].join(map(str, t[0])) + t[1]),
        repeating.map(lambda c: " ".join(map(str, c))),
        other.map(lambda c: " ".join(map(str, c))),
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5).map(" ".join),
        st.sampled_from(["", "  ", "c a comment \u00e9", "p cnf 3 1"])),
        max_size=8))
    zeros = sum(tok == "0" for line in body for tok in line.split())
    declared = draw(st.one_of(st.just(zeros), st.integers(0, 4)))
    header = draw(st.sampled_from(
        [f"p cnf {var_count} {declared}"] * 8
        + [f"p  cnf {var_count}\t{declared} ", f"p cnf 0 {declared}",
           "p cnf 3", "p dnf 3 1", "p cnf x 1"]))
    lines = [header] + body
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "c header elsewhere")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestReader:
    @given(dimacs_texts())
    def test_reads_as_token_by_token(self, text):
        # a line that is one whole clause is converted in one step, any
        # other line token by token; both give the oracle's clauses, and
        # its message at its line
        assert read(read_dimacs, text) == read(token_by_token_dimacs, text)

    @given(dimacs_texts())
    def test_parse_dimacs_reads_as_the_reader(self, text):
        got = read(read_dimacs, text)
        formula = read(parse_dimacs, text)
        if isinstance(formula, CnfFormula):
            var_count, clauses = got
            assert formula.var_count == var_count
            assert [c.to_ints() for c in formula.clauses] == clauses
        else:
            assert formula == got


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
