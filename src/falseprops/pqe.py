"""Partial quantifier elimination over clause-group mutations.

Given F* = G* ∧ F' over variables split into quantified and free sets, a
solution is a set Q of clauses over the free variables with

    ∃quantified (G* ∧ F')  ≡  Q ∧ ∃quantified F'.

Two engines produce solutions: a truth-table oracle (projection by model
enumeration, exponential in the free variables, trusted) and a CEGAR loop
(candidate model search, UNSAT-core generalization against F*).

The CEGAR search runs over one of two formulas.  For a single-gate
combinational mutation (every variable an input, internal or output, G*
owned by one gate y of the formula's gate table, every other gate's
clauses in F' exactly its own encoding) it is an expansion miter whose
every model is a row that ∃F* lacks: with L* the clauses of y's group in
F* and every other gate a function of its fanins, a row is missing
exactly when neither value of the single bit y satisfies L* and
reproduces the outputs, and that "for all" over one bit expands into one
SAT query (universal expansion, Biere, "Resolve and Expand", SAT 2004;
the classic ATPG miter of Larrabee, IEEE TCAD 1992, over a relational
mutation).  Every other problem (sequential unrollings, formulas without a
gate table, flips of unowned clauses, formulas where some other gate's
group was already changed) searches F' and blocks each row F* extends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterable, Mapping, Optional, Sequence

from .cnf import (Clause, CnfFormula, GroupSplit, Lit, ROLE_INPUT,
                  ROLE_INTERNAL, ROLE_OUTPUT, clause, encode_gate)
from .sat import Solver, implies, solver_for

ENUM_BOUND_DEFAULT = 20


class PqeError(Exception):
    pass


class EnumerationBoundExceeded(PqeError):
    """Too many free variables for explicit truth-table work."""


@dataclass(frozen=True)
class TruthTable:
    """Ones of a boolean relation over an ordered variable tuple."""
    variables: tuple[int, ...]
    rows: frozenset[tuple[int, ...]]

    def __contains__(self, row: tuple[int, ...]) -> bool:
        return row in self.rows


@dataclass(frozen=True)
class PqeProblem:
    formula: CnfFormula            # F* = G* ∧ F'
    gstar: tuple[int, ...]         # clause indices of G*
    fprime: tuple[int, ...]        # clause indices of F'
    quantified: frozenset[int]
    free: tuple[int, ...]          # ascending
    original: Optional[CnfFormula] = None  # unmutated F, needed for early stop

    def __post_init__(self):
        n = self.formula.num_vars
        qs = self.quantified
        fr = set(self.free)
        if qs & fr:
            raise PqeError("quantified and free variable sets overlap")
        if qs | fr != set(range(n)):
            raise PqeError("quantified and free sets must partition the variables")
        if tuple(sorted(self.free)) != self.free:
            raise PqeError("free variables must be in ascending order")
        got = sorted(set(self.gstar) | set(self.fprime))
        if got != list(range(len(self.formula.clauses))):
            raise PqeError("gstar and fprime index sets must partition the clauses")

    @property
    def fprime_formula(self) -> CnfFormula:
        return self.formula.restrict(self.fprime)


def problem_from_split(split: GroupSplit,
                       original: Optional[CnfFormula] = None) -> PqeProblem:
    """Combinational problem: internals quantified, inputs and outputs free."""
    vm = split.formula.varmap
    quantified = frozenset(v for v in range(vm.num_vars)
                           if vm.role_of(v) not in (ROLE_INPUT, ROLE_OUTPUT))
    free = tuple(v for v in range(vm.num_vars)
                 if vm.role_of(v) in (ROLE_INPUT, ROLE_OUTPUT))
    return PqeProblem(split.formula, split.gstar, split.fprime, quantified,
                      free, original)


@dataclass(frozen=True)
class PqeSolution:
    clauses: tuple[Clause, ...]
    certificate_checked: bool = False
    partial: bool = False
    trigger: Optional[Clause] = None   # first clause the original F fails to imply
    stats: Mapping[str, int] = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# enumeration

def _row_assumptions(free: Sequence[int], bits: Sequence[int]) -> list[Lit]:
    return [Lit(v, neg=(b == 0)) for v, b in zip(free, bits)]


def qe_enumerate(f: CnfFormula, quantified: Iterable[int],
                 bound: int = ENUM_BOUND_DEFAULT) -> TruthTable:
    """Truth table of ∃quantified f over the remaining variables."""
    qs = frozenset(quantified)
    for v in qs:
        if not 0 <= v < f.num_vars:
            raise PqeError(f"quantified variable {v} out of range")
    free = tuple(v for v in range((f.num_vars)) if v not in qs)
    if len(free) > bound:
        raise EnumerationBoundExceeded(
            f"{len(free)} free variables exceed the enumeration bound {bound}")
    solver = solver_for(f)
    rows = set()
    for bits in product((0, 1), repeat=len(free)):
        if solver.solve(_row_assumptions(free, bits)).is_sat:
            rows.add(bits)
    return TruthTable(free, frozenset(rows))


def _row_clause(free: Sequence[int], bits: Sequence[int]) -> Clause:
    return clause(*[Lit(v, neg=(b == 1)) for v, b in zip(free, bits)],
                  origin="derived")


def _q_satisfies(clauses: Sequence[Clause], env: Mapping[int, int]) -> bool:
    return all(c.satisfied_by(env) for c in clauses)


def noise_filter(q: Sequence[Clause], fprime: CnfFormula) -> tuple[Clause, ...]:
    """Drop clauses already implied by F' alone: they add nothing over
    ∃quantified F' and would survive into the property as noise."""
    solver = solver_for(fprime)
    return tuple(c for c in q if not implies(fprime, c, solver=solver))


def _subsume(clauses: Sequence[Clause]) -> tuple[Clause, ...]:
    kept: list[Clause] = []
    for c in clauses:
        cs = set(c.lits)
        if any(set(k.lits) <= cs for k in kept):
            continue
        kept = [k for k in kept if not cs <= set(k.lits)] + [c]
    return tuple(kept)


def verify_solution(problem: PqeProblem, clauses: Sequence[Clause],
                    bound: int = ENUM_BOUND_DEFAULT) -> bool:
    """Row-by-row check of the defining equivalence by enumeration."""
    free = problem.free
    tbl_star = qe_enumerate(problem.formula, problem.quantified, bound)
    tbl_prime = qe_enumerate(problem.fprime_formula, problem.quantified, bound)
    for bits in product((0, 1), repeat=len(free)):
        env = dict(zip(free, bits))
        lhs = bits in tbl_star.rows
        rhs = _q_satisfies(clauses, env) and bits in tbl_prime.rows
        if lhs != rhs:
            return False
    return True


def pqe_oracle(problem: PqeProblem, bound: int = ENUM_BOUND_DEFAULT) -> PqeSolution:
    """Reference engine: project both sides, emit one clause per row where
    the mutated projection lost a row the remainder still allows."""
    free = problem.free
    if len(free) > bound:
        raise EnumerationBoundExceeded(
            f"{len(free)} free variables exceed the enumeration bound {bound}")
    tbl_star = qe_enumerate(problem.formula, problem.quantified, bound)
    tbl_prime = qe_enumerate(problem.fprime_formula, problem.quantified, bound)
    q = [_row_clause(free, bits) for bits in sorted(tbl_prime.rows)
         if bits not in tbl_star.rows]
    q = list(noise_filter(q, problem.fprime_formula))
    q = list(_subsume(q))
    if not verify_solution(problem, q, bound):
        raise PqeError("oracle certificate check failed")  # pragma: no cover
    return PqeSolution(tuple(q), certificate_checked=True,
                       stats={"rows": 1 << len(free), "clauses": len(q)})


# ---------------------------------------------------------------------------
# CEGAR engine

def _expansion_miter(problem: PqeProblem
                     ) -> Optional[tuple[int, list[list[Lit]]]]:
    """Variable count and clauses that turn F' into the expansion miter, or
    None when the problem is not a single-gate combinational mutation.
    The miter is exact only if every gate but y is a function of its
    fanins, so each such gate's F' clauses must equal its encoding; a
    formula mutated before (say, a clause flip, then a stuck-at) gets None.

    L* is G* plus the clauses of y's group that stayed in F' (a clause flip
    replaces one clause only).  If y is an output the row fixes it, and the
    miter is F' ∧ ¬L*(y).  Otherwise a copy of y's transitive fanout is
    driven by ¬y, and the miter is F' ∧ ¬L*(y) ∧ (¬L*(¬y) ∨ some output
    differs between the copies).  Each ¬L* takes one selector per clause
    and each output one difference selector, all numbered above the
    formula's variables, after the fanout copy.
    """
    f = problem.formula
    vm = f.varmap
    table = f.gate_table
    if table is None or not set(vm.roles) <= {ROLE_INPUT, ROLE_INTERNAL,
                                              ROLE_OUTPUT}:
        return None
    origins = {f.clauses[i].origin for i in problem.gstar}
    if len(origins) != 1:
        return None
    (y,) = origins
    if not isinstance(y, int) or y not in table:
        return None
    fprime = [f.clauses[i] for i in problem.fprime]
    if problem.quantified != frozenset(vm.with_role(ROLE_INTERNAL)):
        return None
    owned: dict[object, list[Clause]] = {}
    for c in fprime:
        if c.origin != y:
            owned.setdefault(c.origin, []).append(c)
    # every F' clause belongs to a gate, and every gate but y keeps exactly
    # its own encoding, in order (encode_circuit and replace_group keep it;
    # a reordered group only loses the miter)
    if not set(owned) <= set(table) or \
            any(tuple(owned.get(g, ())) != encode_gate(gt)
                for g, gt in table.items() if g != y):
        return None
    lstar = [f.clauses[i] for i in problem.gstar] + \
        [c for c in fprime if c.origin == y]
    readers: dict[int, list[int]] = {}
    for g in table.values():
        for a in set(g.fanins):
            readers.setdefault(a, []).append(g.output)
    fanout: set[int] = set()
    stack = [y]
    while stack:
        for r in readers.get(stack.pop(), ()):
            if r not in fanout:
                fanout.add(r)
                stack.append(r)
    nv = f.num_vars
    copy = {v: nv + k for k, v in enumerate(sorted(fanout))}
    top = nv + len(copy)
    extra: list[list[Lit]] = []

    def flipped(l: Lit) -> Lit:
        if l.var == y:
            return -l
        return Lit(copy[l.var], l.neg) if l.var in copy else l

    def some_false(clauses: Sequence[Clause], rename) -> list[Lit]:
        nonlocal top
        sel = []
        for c in clauses:
            a = Lit(top)
            top += 1
            sel.append(a)
            extra.extend([-a, -rename(l)] for l in c.lits)
        return sel

    extra.append(some_false(lstar, lambda l: l))
    if vm.role_of(y) != ROLE_OUTPUT:
        extra.extend([flipped(l) for l in c.lits]
                     for c in fprime if c.origin in copy)
        alt = some_false(lstar, flipped)
        for o in sorted(copy):
            if vm.role_of(o) == ROLE_OUTPUT:
                d = Lit(top)
                top += 1
                alt.append(d)
                extra.append([-d, Lit(o), Lit(copy[o])])
                extra.append([-d, Lit(o, True), Lit(copy[o], True)])
        extra.append(alt)
    return top, extra


def pqe_cegar(problem: PqeProblem, early_stop: bool = False,
              clause_budget: Optional[int] = None,
              conflict_limit: Optional[int] = None) -> PqeSolution:
    """Model search refuted or generalized against F*.

    The search formula is the expansion miter for a single-gate
    combinational mutation (see the module docstring), and F' otherwise.
    Each candidate model of the search formula ∧ Q (projected to the free
    variables) is checked against F*.  If F* extends it, the row is correct
    and gets blocked from the search only; a miter has no such rows, so
    there it is an error.  Otherwise the UNSAT core over the row
    assumptions shrinks greedily (ascending variable id) and the negation of
    the surviving assumptions joins Q.  The loop ends when the search
    formula ∧ Q is UNSAT.  With early_stop, it returns as soon as an
    emitted clause is not implied by the original formula.
    """
    nv = problem.formula.num_vars
    miter = _expansion_miter(problem)
    n_search, extra = miter if miter is not None else (nv, ())
    search = Solver(n_search, chain((problem.formula.clauses[i]
                                     for i in problem.fprime), extra),
                    conflict_limit=conflict_limit)
    check = Solver(nv, problem.formula.clauses, conflict_limit=conflict_limit)
    orig_solver: Optional[Solver] = None
    if early_stop:
        if problem.original is None:
            raise PqeError("early stop needs the original formula on the problem")
        orig_solver = Solver(nv, problem.original.clauses,
                             conflict_limit=conflict_limit)
    free = problem.free
    q: list[Clause] = []
    trigger: Optional[Clause] = None
    iterations = 0
    drops = 0
    partial = False
    while True:
        res = search.solve()
        if not res.is_sat:
            break
        iterations += 1
        model = res.model
        row = [Lit(v, neg=(model[v] == 0)) for v in free]
        ver = check.solve(row)
        if ver.is_sat:
            if miter is not None:
                raise PqeError("F* extends a row of the expansion miter")
            search.add_clause([-l for l in row])
            continue
        core_vars = {l.var for l in ver.core}
        cur = {l.var: l for l in row if l.var in core_vars}
        for v in sorted(core_vars):
            if v not in cur:
                continue  # an earlier core already discarded it
            rest = [cur[u] for u in sorted(cur) if u != v]
            attempt = check.solve(rest)
            if not attempt.is_sat:
                drops += 1
                keep = {l.var for l in attempt.core}
                cur = {u: l for u, l in cur.items() if u != v and u in keep}
        lits = [cur[u] for u in sorted(cur)]
        emitted = clause(*[-l for l in lits], origin="derived")
        q.append(emitted)
        search.add_clause(emitted)
        if early_stop and not implies(problem.original, emitted, solver=orig_solver):
            trigger = emitted
            partial = True
            break
        if clause_budget is not None and len(q) >= clause_budget:
            if search.solve().is_sat:
                partial = True
            break
    filtered = noise_filter(q, problem.fprime_formula)
    stats = {"iterations": iterations, "generalization_drops": drops,
             "search_solves": search.num_solves, "check_solves": check.num_solves,
             "clauses": len(filtered)}
    return PqeSolution(tuple(filtered), certificate_checked=False,
                       partial=partial, trigger=trigger, stats=stats)
