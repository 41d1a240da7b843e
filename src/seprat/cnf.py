"""3SAT formula model, strict DIMACS parsing, and a brute-force oracle.

Clauses carry exactly three literals over three distinct variables; inputs
that merge or complement variables inside one clause are rejected rather
than normalized, because downstream constructions need the three slots.
`_clause_fault` states that rule once; `Clause` applies it on construction.

`read_dimacs` is the one DIMACS reader.  It checks the text (header, tokens,
literal ranges, the clause rule, clause counts) and returns the clauses as
int triples, which `seprat sat` hands to the solver as they are;
`parse_dimacs` builds the `Clause`s of a `CnfFormula` from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

BRUTE_FORCE_VAR_LIMIT = 25


class FormulaError(ValueError):
    """Structurally invalid clause, formula, or assignment."""


class DimacsError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EnumerationLimit(ValueError):
    """Brute force refused: too many variables to enumerate."""


def _clause_fault(literals) -> str | None:
    """Why a clause of `literals`, (variable, sign) pairs in slot order, is
    no 3SAT clause, or None: the one rule that `Clause` and `read_dimacs`
    apply."""
    if len(literals) != 3:
        return f"clause must have exactly 3 literals, got {len(literals)}"
    (a, _), (b, _), (c, _) = literals
    if a < 1 or b < 1 or c < 1:
        return f"variable index below 1 in {[a, b, c]}"
    if a == b or a == c or b == c:
        return f"clause variables not distinct: {[a, b, c]}"
    return None


@dataclass(frozen=True)
class Clause:
    """Three literals, stored as (variable, negated) pairs in slot order."""

    literals: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        fault = _clause_fault(self.literals)
        if fault:
            raise FormulaError(fault)

    @staticmethod
    def from_ints(lits) -> "Clause":
        return Clause(tuple([(abs(l), l < 0) for l in lits]))

    def to_ints(self) -> tuple[int, int, int]:
        return tuple(-v if neg else v for v, neg in self.literals)


@dataclass(frozen=True)
class CnfFormula:
    var_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.var_count < 1:
            raise FormulaError("variable count must be positive")
        for c in self.clauses:
            for v, _ in c.literals:
                if v > self.var_count:
                    raise FormulaError(
                        f"variable {v} above declared count {self.var_count}")


def read_dimacs(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """The variable count and the clauses, as int-literal triples, of the
    "p cnf I L" dialect with 0-terminated clauses: the one reader behind
    `parse_dimacs` and `seprat sat`.

    Lines end at "\\n" alone, so no other character splits a line or shifts
    a line number; surrounding whitespace, a trailing "\\r" included, is
    stripped.  Comment lines (leading "c") and blank lines are allowed
    anywhere; a clause may span lines.  Header counts and literals are
    ASCII integers (`[+-]?[0-9]+`), header counts are validated against
    the body, and errors carry the offending line number.  A line that
    holds one whole valid clause is converted in one step; any other line
    goes token by token, which names the first fault.
    """
    header = False
    clauses: list[tuple[int, int, int]] = []
    pending: list[int] = []

    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # a final "\n" ends the last line; it starts no other
    # int() would read digit separators and non-ASCII digits; a text free
    # of both is checked once here instead of line by line
    plain = text.isascii() and "_" not in text
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        # the raw line, since strip() also drops non-ASCII whitespace
        if not plain and (not raw.isascii() or "_" in line):
            raise DimacsError(
                f"non-ASCII character or '_' in {line!r}", lineno)
        if line[0] == "p":
            if header:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                var_count, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if var_count < 1 or declared < 0:
                raise DimacsError(f"bad counts in header {line!r}", lineno)
            header = True
            continue
        if not header:
            raise DimacsError(f"clause data before header: {line!r}", lineno)
        tokens = line.split()
        if not pending and len(clauses) < declared:
            try:
                a, b, c, end = map(int, tokens)
            except ValueError:  # not four int tokens
                pass
            else:
                x, y, z = abs(a), abs(b), abs(c)
                if not end and max(x, y, z) <= var_count \
                        and _clause_fault(((x, a), (y, b), (z, c))) is None:
                    clauses.append((a, b, c))
                    continue
        for tok in tokens:
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"unexpected token {tok!r}", lineno) from None
            if lit == 0:
                if len(clauses) >= declared:
                    raise DimacsError(
                        f"more clauses than the declared {declared}", lineno)
                fault = _clause_fault([(abs(q), q) for q in pending])
                if fault:
                    raise DimacsError(fault, lineno)
                clauses.append(tuple(pending))
                pending = []
            else:
                if abs(lit) > var_count:
                    raise DimacsError(
                        f"literal {lit} out of range 1..{var_count}", lineno)
                if len(clauses) >= declared:
                    raise DimacsError(
                        f"trailing garbage after {declared} clauses", lineno)
                pending.append(lit)

    last = len(lines)
    if not header:
        raise DimacsError("missing header", max(last, 1))
    if pending:
        raise DimacsError("unterminated clause at end of input", last)
    if len(clauses) != declared:
        raise DimacsError(
            f"header declares {declared} clauses, found {len(clauses)}", last)
    return var_count, clauses


def parse_dimacs(text: str) -> CnfFormula:
    """The formula of a DIMACS text, as read by `read_dimacs`."""
    var_count, clauses = read_dimacs(text)
    # every clause has three literals: (variable, negated) pairs in one
    # pass, then taken three at a time
    pairs = iter([(abs(q), q < 0) for q in chain.from_iterable(clauses)])
    return CnfFormula(var_count, tuple(map(Clause, zip(pairs, pairs, pairs))))


def evaluate(f: CnfFormula, assignment: dict[int, bool]) -> bool:
    """True iff every clause has a literal satisfied by the assignment."""
    if set(assignment) != set(range(1, f.var_count + 1)):
        raise FormulaError("assignment must cover exactly variables 1..I")
    return all(
        any(assignment[v] != neg for v, neg in c.literals) for c in f.clauses)


def brute_force_sat(f: CnfFormula) -> dict[int, bool] | None:
    """First satisfying assignment in lexicographic order, or None.

    Assignments are ordered as tuples (x1,...,xI) with False < True, so
    x1 is the most significant position.
    """
    if f.var_count > BRUTE_FORCE_VAR_LIMIT:
        raise EnumerationLimit(
            f"{f.var_count} variables exceeds the guard of "
            f"{BRUTE_FORCE_VAR_LIMIT}")
    ints = [c.to_ints() for c in f.clauses]
    n = f.var_count
    for m in range(1 << n):
        bits = [(m >> (n - v)) & 1 for v in range(1, n + 1)]
        if all(any((l > 0) == bool(bits[abs(l) - 1]) for l in c) for c in ints):
            return {v: bool(bits[v - 1]) for v in range(1, n + 1)}
    return None


def random_formula(rng: random.Random, var_count: int, clause_count: int) -> CnfFormula:
    """Uniform random 3SAT instance; deterministic for a given rng state."""
    if var_count < 3:
        raise FormulaError("need at least 3 variables for 3-literal clauses")
    if clause_count < 1:
        raise FormulaError("need at least one clause")
    clauses = []
    for _ in range(clause_count):
        vs = rng.sample(range(1, var_count + 1), 3)
        clauses.append(Clause(tuple((v, rng.random() < 0.5) for v in vs)))
    return CnfFormula(var_count, tuple(clauses))
