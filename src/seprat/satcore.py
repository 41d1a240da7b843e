"""Small complete SAT solver: watched-literal CDCL with first-UIP learning.

A `SatInstance` is frozen: its clauses are int-literal tuples, checked once
on construction (tautologies noted), and the solver trusts them.  The
solver keeps one value array, `vals[lit + n]`: 1 when `lit` is true, -1
when false, 0 when free; assignments and backtracks write both polarities.

The search is deterministic: branching picks the free variable with the
highest activity, breaking ties toward the lowest index, and always tries
False first.  There are no restarts and no randomness, so the same instance
always gives the same verdict, model and conflict count.  Every model is
checked against every clause before it is returned, and a conflict budget
turns a runaway search into `BudgetExhausted` instead of a wrong verdict.
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


def _checked(clause, var_count: int) -> tuple[tuple[int, ...], bool]:
    """The clause with repeated literals dropped, each an int (not a bool)
    in 1..var_count or -var_count..-1, and whether it is a tautology."""
    try:
        lits = tuple(clause)
    except TypeError:
        raise InstanceError(f"clause {clause!r} is not a sequence") from None
    tautology = False
    for lit in lits:
        if type(lit) is not int or lit == 0 or abs(lit) > var_count:
            raise InstanceError(f"literal {lit!r} is not a nonzero int "
                                f"within +-{var_count}")
        if -lit in lits:
            tautology = True
    return tuple(dict.fromkeys(lits)), tautology


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
        clauses, tautologies = [], set()
        try:
            for cl in self.clauses:
                lits, tautology = _checked(cl, n)
                if tautology:
                    tautologies.add(len(clauses))
                clauses.append(lits)
        except TypeError:
            raise InstanceError("clauses must be a sequence") from None
        object.__setattr__(self, "clauses", tuple(clauses))
        object.__setattr__(self, "tautologies", frozenset(tautologies))


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
        n = self.n = instance.var_count
        self.conflict_limit = conflict_limit
        self.conflicts = 0
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        # vals[lit + n] is 1 if lit is true, -1 if false, 0 if unassigned
        self.vals: list[int] = [0] * (2 * n + 1)
        self.reason: list[int | None] = [None] * (n + 1)
        self.level: list[int] = [0] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0] * (n + 1)
        self.act_inc = 1.0
        self.units: list[int] = []
        self.unsat = False
        for ci, cl in enumerate(instance.clauses):
            self._attach(list(cl), ci in instance.tautologies)

    # -- clause database ------------------------------------------------

    def add_clause(self, clause) -> None:
        cl, tautology = _checked(clause, self.n)
        self._attach(list(cl), tautology)

    def _attach(self, cl: list[int], tautology: bool = False) -> int:
        """Store a checked clause (a list without repeated literals, which
        propagation reorders), then watch it unless it is a tautology,
        queue it as a unit, or mark the solver unsat; returns its index."""
        self.clauses.append(cl)
        ci = len(self.clauses) - 1
        if not cl:
            self.unsat = True
        elif len(cl) == 1:
            self.units.append(cl[0])
        elif not tautology:
            self.watches[cl[0] + self.n].append(ci)
            self.watches[cl[1] + self.n].append(ci)
        return ci

    # -- trail ------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int | None) -> None:
        n = self.n
        self.vals[n + lit] = 1
        self.vals[n - lit] = -1
        var = abs(lit)
        self.reason[var] = reason
        self.level[var] = len(self.trail_lim)
        self.trail.append(lit)

    def _backtrack(self, target_level: int) -> None:
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) > target_level:
            bound = trail_lim[target_level]
            vals, n = self.vals, self.n
            for lit in trail[bound:]:
                vals[n + lit] = vals[n - lit] = 0
            del trail[bound:], trail_lim[target_level:]
        self.qhead = min(self.qhead, len(trail))

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> int | None:
        """Propagate watched literals; returns a conflicting clause index."""
        n, vals, trail = self.n, self.vals, self.trail
        clauses, watches = self.clauses, self.watches
        reason, level, cur_level = self.reason, self.level, len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            ws = watches[n + neg]
            end = len(ws)  # moved watches go to free or true literals, not here
            i = j = 0
            while i < end:
                ci = ws[i]
                i += 1
                cl = clauses[ci]
                if cl[0] == neg:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if vals[n + first] > 0:
                    ws[j] = ci
                    j += 1
                    continue
                for k in range(2, len(cl)):
                    if vals[n + cl[k]] >= 0:
                        cl[1], cl[k] = cl[k], cl[1]
                        watches[n + cl[1]].append(ci)
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if vals[n + first] < 0:
                        del ws[j:i]
                        self.qhead = qhead
                        return ci
                    vals[n + first] = 1
                    vals[n - first] = -1
                    var = first if first > 0 else -first
                    reason[var] = ci
                    level[var] = cur_level
                    trail.append(first)
            del ws[j:end]
        self.qhead = qhead
        return None

    # -- conflict analysis ---------------------------------------------

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learned clause and the backjump level."""
        n, trail, level, activity = self.n, self.trail, self.level, self.activity
        inc = self.act_inc
        cur_level = len(self.trail_lim)
        seen = [False] * (n + 1)
        learned: list[int] = []
        counter = 0
        idx = len(trail) - 1
        reason_lits = self.clauses[confl]
        while True:
            for q in reason_lits:
                v = q if q > 0 else -q
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
            while not seen[uip if uip > 0 else -uip]:
                idx -= 1
                uip = trail[idx]
            v = uip if uip > 0 else -uip
            seen[v] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            # clause[0] is the literal the reason clause implied
            reason_lits = self.clauses[self.reason[v]][1:]
        learned = [-uip] + learned
        if len(learned) == 1:
            back = 0
        else:
            # watch position 1 must sit at the backjump level
            levels = [(level[abs(q)], k) for k, q in enumerate(learned[1:], 1)]
            back, kmax = max(levels)
            learned[1], learned[kmax] = learned[kmax], learned[1]
        return learned, back

    # -- search ----------------------------------------------------------

    def _pick_branch(self) -> int | None:
        """The free variable of highest activity, lowest index first."""
        n, vals, activity = self.n, self.vals, self.activity
        best = None
        best_act = -1.0
        for v in range(1, n + 1):
            if vals[n + v] == 0 and activity[v] > best_act:
                best = v
                best_act = activity[v]
        return best

    def solve(self) -> SatResult:
        if self.unsat:
            return SatResult("unsat")
        self._backtrack(0)
        self.qhead = 0
        n, vals = self.n, self.vals
        for u in self.units:
            val = vals[n + u]
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
                    model = [x > 0 for x in vals[n + 1:]]
                    self._verify(model)
                    return SatResult("sat", model)
                self.trail_lim.append(len(self.trail))
                self._enqueue(-var, None)  # try False first

    def _verify(self, model: list[bool]) -> None:
        true_lits = {v if b else -v for v, b in enumerate(model, 1)}
        for cl in self.clauses:
            if cl and true_lits.isdisjoint(cl):
                raise RuntimeError(f"internal error: model violates clause {cl}")
        log.debug("model verified against %d clauses", len(self.clauses))


def solve(inst: SatInstance, conflict_limit: int | None = None) -> SatResult:
    """Solve a fresh instance; sound and complete within the budget."""
    return Solver(inst, conflict_limit).solve()
