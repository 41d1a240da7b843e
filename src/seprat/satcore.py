"""Small complete SAT solver: watched-literal CDCL with first-UIP learning.

A `SatInstance` is frozen: its clauses are int-literal tuples, checked once
on construction (tautologies noted), and the solver trusts them.  The one
check, `_checked`, also serves `Solver.add_clause`: one bulk pass over all
literals, with a literal-by-literal scan only to name the first fault.
Inside the solver a literal is a code: v is `2v` and -v is `2v + 1`, so
`code ^ 1` negates it and `code >> 1` is its variable; one table maps each
literal to its code.  One value array, `vals[code]`, holds 1 when the
literal is true, -1 when false, 0 when free; assignments and backtracks
write both polarities.  Watch lists and reasons hold the clause lists
themselves.

The search is deterministic: branching picks the free variable with the
highest activity, breaking ties by a priority order (index order unless
given), and tries its first literal (False unless given).  Activities
change only in conflict analysis, which always backtracks, and variables
are freed only by backtracking; so the variables are sorted by activity
once per backtrack, and each decision advances a cursor to the first free
one.  There are no restarts and no randomness, so the same instance always
gives the same verdict, model and conflict count.  Every model is checked
against every input and added clause before it is returned (learned
clauses follow from them), and a conflict budget turns a runaway search
into `BudgetExhausted` instead of a wrong verdict.

The refinement loop of the separability decider keeps the default order.
`solve`, the one-shot entry behind `seprat sat` and `verify`, starts in
occurrence order, the static start of Chaff's VSIDS and of Jeroslow-Wang.
As in Chaff and MiniSat, order and polarity are solver state: the
variables keep their numbers.
"""

from __future__ import annotations

import logging
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import eq, ne, or_

log = logging.getLogger(__name__)

_ACT_DECAY = 0.95
_ACT_RESCALE = 1e100


class InstanceError(ValueError):
    """Malformed instance or clause."""


class BudgetExhausted(RuntimeError):
    """Conflict budget ran out before a verdict was reached."""


def _checked(clauses, var_count: int) -> tuple[tuple[tuple[int, ...], ...],
                                              frozenset]:
    """The clauses as tuples of int literals (not bools) in 1..var_count or
    -var_count..-1, each without repeated literals, and the indices of the
    tautologies among them.

    One bulk pass of C-level `map`, set and min/max work checks every
    literal; it allocates nothing that grows with var_count.  Only when it
    fails are the clauses scanned literal by literal, to name the first
    fault.  A clause is rebuilt only when it repeats a literal.
    """
    try:
        clauses = list(clauses)
    except TypeError:
        raise InstanceError("clauses must be a sequence") from None
    lits: list[tuple] = []
    try:
        # extend keeps what it took before the first non-sequence
        lits.extend(map(tuple, clauses))
    except TypeError:
        pass
    flat = list(chain.from_iterable(lits))
    if len(lits) == len(clauses) and {int}.issuperset(map(type, flat)):
        variables = list(map(abs, flat))
        valid = not flat or 0 < min(variables) and max(variables) <= var_count
    else:
        valid = False
    if not valid:
        for q in flat:
            if type(q) is not int or q == 0 or abs(q) > var_count:
                raise InstanceError(f"literal {q!r} is not a nonzero int "
                                    f"within +-{var_count}")
        raise InstanceError(f"clause {clauses[len(lits)]!r} is not a sequence")
    # a clause repeats a variable where its variables are fewer than its
    # literals: then it repeats a literal, is a tautology, or both.  When
    # every clause has three literals, as in 3SAT, its three columns are
    # compared instead
    sizes = list(map(len, lits))
    if sizes.count(3) == len(sizes):
        a, b, c = variables[0::3], variables[1::3], variables[2::3]
        repeats = map(or_, map(or_, map(eq, a, b), map(eq, a, c)),
                      map(eq, b, c))
    else:
        repeats = map(ne, map(len, map(set, map(map, repeat(abs), lits))),
                      sizes)
    tautologies = set()
    for i in compress(range(len(lits)), repeats):
        distinct = set(lits[i])
        if len(distinct) < sizes[i]:
            lits[i] = tuple(dict.fromkeys(lits[i]))
        if len(set(map(abs, distinct))) < len(distinct):
            tautologies.add(i)
    return tuple(lits), frozenset(tautologies)


@dataclass(frozen=True)
class SatInstance:
    var_count: int
    clauses: tuple[tuple[int, ...], ...] = ()
    tautologies: frozenset = field(default=frozenset(), init=False,
                                   repr=False, compare=False)

    def __post_init__(self):
        n = self.var_count
        if type(n) is not int or n < 0:
            raise InstanceError(f"variable count {n!r} is not an int >= 0")
        clauses, tautologies = _checked(self.clauses, n)
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "tautologies", tautologies)


@dataclass
class SatResult:
    status: str  # "sat" | "unsat"
    model: list[bool] | None = None  # model[v-1] is the value of variable v


class Solver:
    """Stateful CDCL solver; clauses may be added between solve() calls.

    Learned clauses are retained across incremental additions, which is
    what the counterexample-refinement loop in the separability decider
    relies on.  `priority` lists each variable once, as the literal it
    tries first, in tie-break order; by default, -1, -2, ..., -n.
    """

    def __init__(self, instance: SatInstance, conflict_limit: int | None = None,
                 *, priority: Sequence[int] | None = None):
        n = self.n = instance.var_count
        self.conflict_limit = conflict_limit
        self.conflicts = 0
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 2)]
        # vals[code] is 1 if the literal is true, -1 if false, 0 if free
        self.vals: list[int] = [0] * (2 * n + 2)
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.level: list[int] = [0] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0] * (n + 1)
        self.act_inc = 1.0
        # the variables in tie-break order, and first[v], the code of the
        # literal v tries first; arrays hold no int objects
        self.priority = range(1, n + 1)
        self.first = array("i", range(1, 2 * n + 2, 2))
        if priority is not None:
            self.priority = array("i", map(abs, priority))
            for q in priority:
                if q > 0:
                    self.first[q] -= 1  # the code of q, not of -q
        # variables by activity, highest first, earliest in the priority
        # among equals; every variable before `cursor` is assigned; None
        # after a backtrack
        self.order: list[int] | None = None
        self.cursor = 0
        # code[q] is the code of literal q (a negative index counts from
        # the end), the one table that encodes input and added clauses
        self.code = array("i", range(0, 2 * n + 1, 2))
        self.code.extend(range(2 * n + 1, 2, -2))
        # `given` holds the input clauses and those from add_clause, which
        # every model must satisfy, and `clauses` also the learned ones,
        # their consequences; both hold the same lists, which propagation
        # reorders
        given = self.given = list(map(list, map(map, repeat(
            self.code.__getitem__), instance.clauses)))
        self.clauses = given.copy()
        self.units: list[int] = []
        self.unsat = [] in given
        watches, tautologies = self.watches, instance.tautologies
        for ci, cl in enumerate(given):
            if len(cl) > 1:
                if ci not in tautologies:
                    watches[cl[0]].append(cl)
                    watches[cl[1]].append(cl)
            elif cl:
                self.units.append(cl[0])

    # -- clause database ------------------------------------------------

    def add_clause(self, clause) -> None:
        """Check a clause as `SatInstance` does, encode it and keep it among
        the clauses that `_verify` checks."""
        (lits,), tautologies = _checked((clause,), self.n)
        cl = list(map(self.code.__getitem__, lits))
        self.given.append(cl)
        self._store(cl, bool(tautologies))

    def _store(self, cl: list[int], tautology: bool = False) -> None:
        """Keep a clause of codes, which propagation reorders, then watch it
        unless it is a tautology, queue it as a unit, or mark the solver
        unsat."""
        self.clauses.append(cl)
        if not cl:
            self.unsat = True
        elif len(cl) == 1:
            self.units.append(cl[0])
        elif not tautology:
            self.watches[cl[0]].append(cl)
            self.watches[cl[1]].append(cl)

    # -- trail ------------------------------------------------------------

    def _enqueue(self, code: int, reason: list[int] | None) -> None:
        self.vals[code] = 1
        self.vals[code ^ 1] = -1
        var = code >> 1
        self.reason[var] = reason
        self.level[var] = len(self.trail_lim)
        self.trail.append(code)

    def _backtrack(self, target_level: int) -> None:
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) > target_level:
            bound = trail_lim[target_level]
            vals = self.vals
            for code in trail[bound:]:
                vals[code] = vals[code ^ 1] = 0
            del trail[bound:], trail_lim[target_level:]
            self.order = None  # freed variables; activities may have moved
        self.qhead = min(self.qhead, len(trail))

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Propagate watched literals; returns a conflicting clause."""
        vals, trail, watches = self.vals, self.trail, self.watches
        reason, level, cur_level = self.reason, self.level, len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            neg = trail[qhead] ^ 1
            qhead += 1
            ws = watches[neg]
            end = len(ws)  # moved watches go to free or true literals, not here
            i = j = 0
            while i < end:
                cl = ws[i]
                i += 1
                first = cl[0]
                if first == neg:
                    first = cl[0] = cl[1]
                    cl[1] = neg
                if vals[first] > 0:
                    ws[j] = cl
                    j += 1
                    continue
                # cl[1] is neg: move its watch to a literal not false,
                # trying cl[2] first (every formula clause has three)
                size = len(cl)
                if size > 2:
                    other = cl[2]
                    if vals[other] >= 0:
                        cl[1] = other
                        cl[2] = neg
                        watches[other].append(cl)
                        continue
                    k = 3
                    while k < size and vals[cl[k]] < 0:
                        k += 1
                    if k < size:
                        other = cl[1] = cl[k]
                        cl[k] = neg
                        watches[other].append(cl)
                        continue
                ws[j] = cl
                j += 1
                if vals[first] < 0:
                    del ws[j:i]
                    self.qhead = qhead
                    return cl
                vals[first] = 1
                vals[first ^ 1] = -1
                var = first >> 1
                reason[var] = cl
                level[var] = cur_level
                trail.append(first)
            del ws[j:end]
        self.qhead = qhead
        return None

    # -- conflict analysis ---------------------------------------------

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the backjump level."""
        n, trail, level, activity = self.n, self.trail, self.level, self.activity
        inc = self.act_inc
        cur_level = len(self.trail_lim)
        seen = [False] * (n + 1)
        learned: list[int] = []
        counter = 0
        idx = len(trail) - 1
        reason_lits = confl
        while True:
            for q in reason_lits:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    activity[v] += inc
                    if activity[v] > _ACT_RESCALE:
                        for u in range(1, n + 1):
                            activity[u] /= _ACT_RESCALE
                        inc /= _ACT_RESCALE
                        self.act_inc = inc
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            uip = trail[idx]
            while not seen[uip >> 1]:
                idx -= 1
                uip = trail[idx]
            v = uip >> 1
            seen[v] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            # clause[0] is the literal the reason clause implied
            reason_lits = self.reason[v][1:]
        learned = [uip ^ 1] + learned
        if len(learned) == 1:
            back = 0
        else:
            # watch position 1 must sit at the backjump level
            levels = [(level[q >> 1], k) for k, q in enumerate(learned[1:], 1)]
            back, kmax = max(levels)
            learned[1], learned[kmax] = learned[kmax], learned[1]
        return learned, back

    # -- search ----------------------------------------------------------

    def _pick_branch(self) -> int | None:
        """The free variable of highest activity, earliest in the priority
        among equals."""
        order = self.order
        if order is None:
            # sorted() is stable under reverse=True, so ties keep the
            # priority's order
            order = self.order = sorted(self.priority,
                                        key=self.activity.__getitem__,
                                        reverse=True)
            self.cursor = 0
        vals, i, end = self.vals, self.cursor, len(order)
        while i < end and vals[2 * order[i]]:
            i += 1
        self.cursor = i
        return order[i] if i < end else None

    def solve(self) -> SatResult:
        if self.unsat:
            return SatResult("unsat")
        self._backtrack(0)
        self.qhead = 0
        vals = self.vals
        for u in self.units:
            val = vals[u]
            if val < 0:
                self.unsat = True
                return SatResult("unsat")
            if val == 0:
                self._enqueue(u, None)
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                if self.conflict_limit is not None and self.conflicts > self.conflict_limit:
                    raise BudgetExhausted(
                        f"conflict budget {self.conflict_limit} exhausted")
                if not self.trail_lim:
                    self.unsat = True
                    return SatResult("unsat")
                learned, back = self._analyze(confl)
                self._backtrack(back)
                self._store(learned)
                self._enqueue(learned[0], learned if len(learned) > 1 else None)
                self.act_inc /= _ACT_DECAY
            else:
                var = self._pick_branch()
                if var is None:
                    model = [x > 0 for x in vals[2::2]]
                    self._verify(model)
                    return SatResult("sat", model)
                self.trail_lim.append(len(self.trail))
                self._enqueue(self.first[var], None)

    def _verify(self, model: list[bool]) -> None:
        """Check `model` against every input and added clause."""
        true_codes = {2 * v + (not b) for v, b in enumerate(model, 1)}
        for cl in self.given:
            if cl and true_codes.isdisjoint(cl):
                lits = [-(c >> 1) if c & 1 else c >> 1 for c in cl]
                raise RuntimeError(f"internal error: model violates clause {lits}")
        log.debug("model verified against %d clauses", len(self.given))


def solve(inst: SatInstance, conflict_limit: int | None = None) -> SatResult:
    """Solve a fresh instance in occurrence order; sound and complete within
    the budget, which counts the conflicts of that search.

    The priority lists the variables by decreasing occurrence count (lowest
    index among equals, so unused ones come last), each at the sign it
    occurs at more often, and at False on a tie.
    """
    n = inst.var_count
    # count[q] for a literal q; a negative index counts from the end
    count = [0] * (2 * n + 1)
    for q in chain.from_iterable(inst.clauses):
        count[q] += 1
    occurrences = [count[v] + count[-v] for v in range(n + 1)]
    # sorted() is stable under reverse=True, so ties keep index order
    order = sorted(range(1, n + 1), key=occurrences.__getitem__, reverse=True)
    priority = array("i", [v if count[v] > count[-v] else -v for v in order])
    del count, occurrences, order  # before the solver's own arrays
    return Solver(inst, conflict_limit, priority=priority).solve()
