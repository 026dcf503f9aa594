"""Incremental CDCL SAT solver with assumptions and unsatisfiable cores.

Determinism is a requirement here, not a nicety: branching is static
(lowest unassigned variable id, false phase first), there are no restarts
and no randomized heuristics, so equal inputs give byte-equal behavior.
Resource limits surface as BudgetExceeded, never as a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cnf import Clause, CnfFormula, Lit

SAT = "sat"
UNSAT = "unsat"


class BudgetExceeded(RuntimeError):
    """Conflict limit hit before the solver reached an answer."""


@dataclass
class SatResult:
    status: str
    model: Optional[dict[int, int]] = None       # total over all variables
    core: Optional[tuple[Lit, ...]] = None       # subset of the assumptions

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


def _ilit(l: Lit) -> int:
    return l.var * 2 + (1 if l.neg else 0)


def _ext(il: int) -> Lit:
    return Lit(il >> 1, bool(il & 1))


class Solver:
    """Two-watched-literal CDCL accepting clauses between solve() calls."""

    def __init__(self, num_vars: int, clauses: Iterable = (),
                 conflict_limit: Optional[int] = None):
        self.nvars = num_vars
        self.conflict_limit = conflict_limit
        self.ok = True
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars)]
        self.assign: list[int] = [-1] * num_vars
        self.level: list[int] = [0] * num_vars
        self.reason: list[int] = [-1] * num_vars  # clause index, -1 for decisions
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.num_solves = 0
        self.num_conflicts = 0
        for c in clauses:
            self.add_clause(c)

    # -- bookkeeping --------------------------------------------------------

    def _value(self, il: int) -> int:
        """1 true, 0 false, -1 unassigned."""
        va = self.assign[il >> 1]
        if va < 0:
            return -1
        return va ^ (il & 1)

    def _enqueue(self, il: int, reason: int) -> None:
        v = il >> 1
        self.assign[v] = (il & 1) ^ 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(il)

    def _backtrack(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for il in reversed(self.trail[bound:]):
            self.assign[il >> 1] = -1
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    def add_clause(self, lits) -> None:
        """Add a clause; only legal between solves (decision level 0)."""
        assert not self.trail_lim, "add_clause requires decision level 0"
        if isinstance(lits, Clause):
            lits = lits.lits
        ilits = sorted(set(_ilit(l) for l in lits))
        for il in ilits:
            if il ^ 1 in ilits and il & 1 == 0:
                return  # tautology, always satisfied
            if not 0 <= il >> 1 < self.nvars:
                raise ValueError(f"literal variable {il >> 1} out of solver range")
        if not self.ok:
            return
        keep = []
        for il in ilits:
            v = self._value(il)
            if v == 1:
                return  # satisfied at top level
            if v == -1:
                keep.append(il)
        if not keep:
            self.ok = False
            return
        if len(keep) == 1:
            self._enqueue(keep[0], -1)
            if self._propagate() is not None:
                self.ok = False
            return
        ci = len(self.clauses)
        self.clauses.append(keep)
        self.watches[keep[0]].append(ci)
        self.watches[keep[1]].append(ci)

    # -- search -------------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        watches = self.watches
        assign = self.assign
        clauses = self.clauses
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            fl = p ^ 1  # literal that just became false
            ws = watches[fl]
            i = j = 0
            n = len(ws)
            while i < n:
                ci = ws[i]
                i += 1
                c = clauses[ci]
                # ensure the false literal sits at position 1
                if c[0] == fl:
                    c[0], c[1] = c[1], c[0]
                other = c[0]
                va = assign[other >> 1]
                if va >= 0 and va ^ (other & 1) == 1:
                    ws[j] = ci
                    j += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    lk = c[k]
                    vk = assign[lk >> 1]
                    if vk < 0 or vk ^ (lk & 1) == 1:
                        c[1], c[k] = lk, fl
                        watches[lk].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = ci
                j += 1
                if va < 0:
                    self._enqueue(other, ci)
                else:
                    # conflict: compact the remaining watchers and report
                    while i < n:
                        ws[j] = ws[i]
                        i += 1
                        j += 1
                    del ws[j:]
                    return ci
            del ws[j:]
        return None

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        seen = bytearray(self.nvars)
        learned: list[int] = [0]
        cur_level = len(self.trail_lim)
        counter = 0
        idx = len(self.trail) - 1
        c = self.clauses[confl]
        start = 0  # a reason clause carries its propagated literal at [0]
        while True:
            for k in range(start, len(c)):
                v = c[k] >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    if self.level[v] == cur_level:
                        counter += 1
                    else:
                        learned.append(c[k])
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            t = self.trail[idx]
            v = t >> 1
            idx -= 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                learned[0] = t ^ 1
                break
            c = self.clauses[self.reason[v]]
            start = 1
        if len(learned) == 1:
            return learned, 0
        # place a literal of the backjump level at position 1
        bt = 0
        bi = 1
        for k in range(1, len(learned)):
            lv = self.level[learned[k] >> 1]
            if lv > bt:
                bt = lv
                bi = k
        learned[1], learned[bi] = learned[bi], learned[1]
        return learned, bt

    def _analyze_final(self, failed: int) -> tuple[Lit, ...]:
        """Assumptions implying the negation of the failed assumption."""
        core = [failed]
        seen = {failed >> 1}
        start = self.trail_lim[0] if self.trail_lim else len(self.trail)
        for il in reversed(self.trail[start:]):
            v = il >> 1
            if v not in seen:
                continue
            r = self.reason[v]
            if r < 0:
                core.append(il)  # a decision here is always an assumption
            else:
                for q in self.clauses[r]:
                    if q >> 1 != v and self.level[q >> 1] > 0:
                        seen.add(q >> 1)
        return tuple(_ext(il) for il in core)

    def solve(self, assumptions: Sequence[Lit] = (),
              conflict_limit: Optional[int] = None) -> SatResult:
        self.num_solves += 1
        limit = conflict_limit if conflict_limit is not None else self.conflict_limit
        self._backtrack(0)
        if not self.ok:
            return SatResult(UNSAT, core=())
        iassume = [_ilit(a) for a in assumptions]
        for il in iassume:
            if not 0 <= il >> 1 < self.nvars:
                raise ValueError(f"assumption variable {il >> 1} out of solver range")
        conflicts = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.num_conflicts += 1
                conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return SatResult(UNSAT, core=())
                if limit is not None and conflicts > limit:
                    self._backtrack(0)
                    raise BudgetExceeded(f"conflict limit {limit} exceeded")
                learned, bt = self._analyze(confl)
                self._backtrack(bt)
                if len(learned) == 1:
                    self._enqueue(learned[0], -1)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learned)
                    self.watches[learned[0]].append(ci)
                    self.watches[learned[1]].append(ci)
                    self._enqueue(learned[0], ci)
                continue
            # assumptions first, in the order given
            pending = -1
            for a in iassume:
                va = self._value(a)
                if va == 0:
                    core = self._analyze_final(a)
                    self._backtrack(0)
                    return SatResult(UNSAT, core=core)
                if va == -1:
                    pending = a
                    break
            if pending >= 0:
                self.trail_lim.append(len(self.trail))
                self._enqueue(pending, -1)
                continue
            # static decision: lowest unassigned variable, false first
            v = -1
            for u in range(self.nvars):
                if self.assign[u] < 0:
                    v = u
                    break
            if v < 0:
                model = {u: self.assign[u] for u in range(self.nvars)}
                self._backtrack(0)
                return SatResult(SAT, model=model)
            self.trail_lim.append(len(self.trail))
            self._enqueue(2 * v + 1, -1)


# ---------------------------------------------------------------------------
# module-level conveniences over CnfFormula

def solver_for(f: CnfFormula, conflict_limit: Optional[int] = None) -> Solver:
    return Solver(f.num_vars, f.clauses, conflict_limit=conflict_limit)


def solve(f: CnfFormula, assumptions: Sequence[Lit] = (),
          conflict_limit: Optional[int] = None) -> SatResult:
    return solver_for(f, conflict_limit).solve(assumptions)


def implies(f: CnfFormula, c: Clause,
            conflict_limit: Optional[int] = None,
            solver: Optional[Solver] = None) -> bool:
    """True iff every model of f satisfies c (checked as UNSAT of f ∧ ¬c)."""
    s = solver if solver is not None else solver_for(f, conflict_limit)
    res = s.solve([-l for l in c.lits], conflict_limit=conflict_limit)
    return res.status == UNSAT


def break_implication(f: CnfFormula, q: Iterable[Clause],
                      conflict_limit: Optional[int] = None
                      ) -> Optional[tuple[int, dict[int, int]]]:
    """The first clause of q that f fails to imply, as (its index in q, a
    model of f falsifying it), scanning in order on one solver; None if f
    implies every clause."""
    s = solver_for(f, conflict_limit)
    for i, c in enumerate(q):
        res = s.solve([-l for l in c.lits])
        if res.is_sat:
            return i, res.model
    return None
