"""3SAT formula model, strict DIMACS parsing, and a brute-force oracle.

Clauses carry exactly three literals over three distinct variables; inputs
that merge or complement variables inside one clause are rejected rather
than normalized, because downstream constructions need the three slots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BRUTE_FORCE_VAR_LIMIT = 25


class FormulaError(ValueError):
    """Structurally invalid clause, formula, or assignment."""


class DimacsError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EnumerationLimit(ValueError):
    """Brute force refused: too many variables to enumerate."""


@dataclass(frozen=True)
class Clause:
    """Three literals, stored as (variable, negated) pairs in slot order."""

    literals: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        if len(self.literals) != 3:
            raise FormulaError(
                f"clause must have exactly 3 literals, got {len(self.literals)}")
        (a, _), (b, _), (c, _) = self.literals
        if a < 1 or b < 1 or c < 1:
            raise FormulaError(f"variable index below 1 in {[a, b, c]}")
        if a == b or a == c or b == c:
            raise FormulaError(f"clause variables not distinct: {[a, b, c]}")

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


def parse_dimacs(text: str) -> CnfFormula:
    """Parse the "p cnf I L" dialect with 0-terminated clauses.

    Comment lines (leading "c") and blank lines are allowed anywhere; a
    clause may span lines.  Header counts and literals are ASCII integers
    (`[+-]?[0-9]+`), header counts are validated against the body, and
    errors carry the offending line number.
    """
    header: tuple[int, int] | None = None
    clauses: list[Clause] = []
    pending: list[int] = []

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if not line.isascii() or "_" in line:
            # int() would read digit separators and non-ASCII digits
            raise DimacsError(
                f"non-ASCII character or '_' in {line!r}", lineno)
        if line[0] == "p":
            if header is not None:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                var_count, clause_count = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if var_count < 1 or clause_count < 0:
                raise DimacsError(f"bad counts in header {line!r}", lineno)
            header = (var_count, clause_count)
            continue
        if header is None:
            raise DimacsError(f"clause data before header: {line!r}", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"unexpected token {tok!r}", lineno) from None
            if lit == 0:
                if len(clauses) >= header[1]:
                    raise DimacsError(
                        f"more clauses than the declared {header[1]}", lineno)
                try:
                    clauses.append(Clause.from_ints(pending))
                except FormulaError as exc:
                    raise DimacsError(str(exc), lineno) from None
                pending = []
            else:
                if abs(lit) > header[0]:
                    raise DimacsError(
                        f"literal {lit} out of range 1..{header[0]}", lineno)
                if len(clauses) >= header[1]:
                    raise DimacsError(
                        f"trailing garbage after {header[1]} clauses", lineno)
                pending.append(lit)

    last = len(lines)
    if header is None:
        raise DimacsError("missing header", max(last, 1))
    if pending:
        raise DimacsError("unterminated clause at end of input", last)
    if len(clauses) != header[1]:
        raise DimacsError(
            f"header declares {header[1]} clauses, found {len(clauses)}", last)
    return CnfFormula(header[0], tuple(clauses))


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
