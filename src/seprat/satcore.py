"""Small complete SAT solver: watched-literal CDCL with first-UIP learning.

The solver is fully deterministic: branching picks the unassigned variable
with the highest activity, breaking ties toward the lowest index, and
always tries False first.  There are no restarts and no randomness, so the
same instance always produces the same verdict and the same model.

A configurable conflict budget turns runaway searches into an explicit
`BudgetExhausted` error instead of a wrong verdict.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

_ACT_DECAY = 0.95
_ACT_RESCALE = 1e100


class InstanceError(ValueError):
    """Malformed instance or clause."""


class BudgetExhausted(RuntimeError):
    """Conflict budget ran out before a verdict was reached."""


def _checked(clause, var_count: int) -> list[int]:
    """The clause as ints with repeated literals dropped, range-checked."""
    cl = list(dict.fromkeys(int(l) for l in clause))
    for lit in cl:
        if lit == 0 or abs(lit) > var_count:
            raise InstanceError(
                f"literal {lit} out of range for {var_count} variables")
    return cl


@dataclass
class SatInstance:
    var_count: int
    clauses: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if self.var_count < 0:
            raise InstanceError("negative variable count")
        self.clauses = [_checked(cl, self.var_count) for cl in self.clauses]


@dataclass
class SatResult:
    status: str  # "sat" | "unsat"
    model: list[bool] | None = None  # model[v-1] is the value of variable v


class Solver:
    """Stateful CDCL solver; clauses may be added between solve() calls.

    Learned clauses are retained across incremental additions, which is
    what the counterexample-refinement loop in the separability decider
    relies on.
    """

    def __init__(self, instance: SatInstance, conflict_limit: int | None = None):
        self.n = instance.var_count
        self.conflict_limit = conflict_limit
        self.conflicts = 0
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * self.n + 1)]
        self.assign: list[int] = [0] * (self.n + 1)  # 0 free, 1 true, -1 false
        self.reason: list[int | None] = [None] * (self.n + 1)
        self.level: list[int] = [0] * (self.n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0] * (self.n + 1)
        self.act_inc = 1.0
        self.units: list[int] = []
        self.unsat = False
        for cl in instance.clauses:
            self._attach(list(cl))  # propagation reorders the solver's copy

    # -- clause database ------------------------------------------------

    def add_clause(self, clause) -> None:
        self._attach(_checked(clause, self.n))

    def _attach(self, cl: list[int]) -> int:
        """Store a checked clause (no literal twice), then watch it, queue
        it as a unit, or mark the solver unsat; returns its index."""
        self.clauses.append(cl)
        ci = len(self.clauses) - 1
        if not cl:
            self.unsat = True
        elif len(cl) == 1:
            self.units.append(cl[0])
        elif len(set(map(abs, cl))) == len(cl):  # tautologies stay unwatched
            self.watches[self._widx(cl[0])].append(ci)
            self.watches[self._widx(cl[1])].append(ci)
        return ci

    def _widx(self, lit: int) -> int:
        return lit + self.n

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    # -- trail ------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int | None) -> None:
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.reason[var] = reason
        self.level[var] = len(self.trail_lim)
        self.trail.append(lit)

    def _backtrack(self, target_level: int) -> None:
        while len(self.trail_lim) > target_level:
            bound = self.trail_lim.pop()
            while len(self.trail) > bound:
                lit = self.trail.pop()
                self.assign[abs(lit)] = 0
        self.qhead = min(self.qhead, len(self.trail))

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> int | None:
        """Propagate watched literals; returns a conflicting clause index."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            neg = -lit
            ws = self.watches[self._widx(neg)]
            i = j = 0
            while i < len(ws):
                ci = ws[i]
                i += 1
                cl = self.clauses[ci]
                if cl[0] == neg:
                    cl[0], cl[1] = cl[1], cl[0]
                if self._value(cl[0]) > 0:
                    ws[j] = ci
                    j += 1
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if self._value(cl[k]) >= 0:
                        cl[1], cl[k] = cl[k], cl[1]
                        self.watches[self._widx(cl[1])].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = ci
                j += 1
                if self._value(cl[0]) < 0:
                    while i < len(ws):
                        ws[j] = ws[i]
                        i += 1
                        j += 1
                    del ws[j:]
                    return ci
                self._enqueue(cl[0], ci)
            del ws[j:]
        return None

    # -- conflict analysis ---------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.act_inc
        if self.activity[var] > _ACT_RESCALE:
            for v in range(1, self.n + 1):
                self.activity[v] /= _ACT_RESCALE
            self.act_inc /= _ACT_RESCALE

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learned clause and the backjump level."""
        cur_level = len(self.trail_lim)
        seen = [False] * (self.n + 1)
        learned: list[int] = []
        counter = 0
        idx = len(self.trail) - 1
        reason_lits = self.clauses[confl]
        uip = None
        while True:
            for q in reason_lits:
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] == cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            uip = self.trail[idx]
            seen[abs(uip)] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason_cl = self.clauses[self.reason[abs(uip)]]
            reason_lits = reason_cl[1:]  # clause[0] is the literal it implied
        learned = [-uip] + learned
        if len(learned) == 1:
            back = 0
        else:
            # watch position 1 must sit at the backjump level
            levels = [(self.level[abs(q)], k) for k, q in enumerate(learned[1:], 1)]
            back, kmax = max(levels)
            learned[1], learned[kmax] = learned[kmax], learned[1]
        return learned, back

    # -- search ----------------------------------------------------------

    def _pick_branch(self) -> int | None:
        best = None
        best_act = -1.0
        for v in range(1, self.n + 1):
            if self.assign[v] == 0 and self.activity[v] > best_act:
                best = v
                best_act = self.activity[v]
        return best

    def solve(self) -> SatResult:
        if self.unsat:
            return SatResult("unsat")
        self._backtrack(0)
        self.qhead = 0
        for u in self.units:
            val = self._value(u)
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
                ci = self._attach(learned)
                self._enqueue(learned[0], ci if len(learned) > 1 else None)
                self.act_inc /= _ACT_DECAY
            else:
                var = self._pick_branch()
                if var is None:
                    model = [self.assign[v] > 0 for v in range(1, self.n + 1)]
                    self._verify(model)
                    return SatResult("sat", model)
                self.trail_lim.append(len(self.trail))
                self._enqueue(-var, None)  # try False first

    def _verify(self, model: list[bool]) -> None:
        for cl in self.clauses:
            if cl and not any(model[abs(l) - 1] == (l > 0) for l in cl):
                raise RuntimeError(f"internal error: model violates clause {cl}")
        log.debug("model verified against %d clauses", len(self.clauses))


def solve(inst: SatInstance, conflict_limit: int | None = None) -> SatResult:
    """Solve a fresh instance; sound and complete within the budget."""
    return Solver(inst, conflict_limit).solve()
