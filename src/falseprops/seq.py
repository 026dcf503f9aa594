"""Sequential circuits: time-frame unrolling, false safety properties,
counterexample traces, and explicit-state reachability.

Unrolling n frames produces I(S1) ∧ F(S1,X1,Y1,S2) ∧ ... ∧ F(Sn,Xn,Yn,Sn+1)
in one formula; frame k's next-state variables are frame k+1's present-state
variables, so no equality clauses are needed.  Quantifying everything except
S_{n+1} away turns a gate mutation into a property over the final state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Mapping, Optional, Sequence

from .cnf import (Clause, CnfFormula, Lit, ROLE_INPUT, ROLE_INTERNAL,
                  ROLE_NEXT, ROLE_STATE, VarMap, clause,
                  encode_circuit, replace_group)
from .mutate import Mutation
from .netlist import Circuit, simulate
from .pqe import PqeProblem, PqeSolution, pqe_cegar, pqe_oracle
from .sat import break_implication
from .verify import (BugRecord, Property, Specification,
                     STATUS_FALSE, STATUS_TRUE, STATUS_UNKNOWN, VerifyError,
                     _bug_check, _each_gate, cleanup_clauses, _POLICY_ALIASES)


class SeqError(Exception):
    pass


@dataclass(frozen=True)
class UnrolledCnf:
    circuit: Circuit
    n: int
    formula: CnfFormula                      # I(S1) ∧ F_{1,n}
    i1: tuple[int, ...]                      # clause indices of I(S1)
    template: CnfFormula                     # one-frame encoding, for mutations
    frame_vars: tuple[tuple[int, ...], ...]  # frame k: circuit var id -> unrolled id
    frame_clauses: tuple[tuple[int, ...], ...]  # frame k: template idx -> unrolled idx
    initial_states: tuple[int, ...]          # S1 ids, latch order
    final_states: tuple[int, ...]            # S_{n+1} ids, latch order

    @property
    def quantified(self) -> frozenset[int]:
        return frozenset(range(self.formula.num_vars)) - frozenset(self.final_states)


def unroll(circuit: Circuit, n: int) -> UnrolledCnf:
    if not circuit.is_sequential:
        raise SeqError("unrolling needs a sequential circuit (no latches found)")
    if n < 1:
        raise SeqError(f"frame count must be positive, got {n}")
    template = encode_circuit(circuit)
    nv_circ = circuit.num_vars
    presents = tuple(lt.present for lt in circuit.latches)
    nexts = tuple(lt.next for lt in circuit.latches)

    names: list[str] = []
    frames_of: list[int] = []

    def fresh(nm: str, frame: int) -> int:
        names.append(nm)
        frames_of.append(frame)
        return len(names) - 1

    state_in = [fresh(f"{circuit.names[p]}@1", 1) for p in presents]
    frame_vars: list[tuple[int, ...]] = []
    clauses: list[Clause] = []
    frame_clause_ix: list[tuple[int, ...]] = []

    i1: list[int] = []
    for k, lt in enumerate(circuit.latches):
        if lt.init is not None:
            i1.append(len(clauses))
            clauses.append(clause(Lit(state_in[k], neg=(lt.init == 0)),
                                  origin="init"))

    for frame in range(1, n + 1):
        vmap = [-1] * nv_circ
        for k, p in enumerate(presents):
            vmap[p] = state_in[k]
        for v in range(nv_circ):
            if vmap[v] < 0:
                vmap[v] = fresh(f"{circuit.names[v]}@{frame}", frame)
        ix = []
        for cl in template.clauses:
            ix.append(len(clauses))
            clauses.append(Clause(tuple(sorted(Lit(vmap[l.var], l.neg)
                                               for l in cl.lits)), cl.origin))
        frame_vars.append(tuple(vmap))
        frame_clause_ix.append(tuple(ix))
        state_in = [vmap[d] for d in nexts]

    final_states = tuple(state_in)
    initial_states = tuple(frame_vars[0][p] for p in presents)

    # Roles: final states sn, first-frame states s, input copies x, rest y.
    # A final state keeps the name of the frame-n variable computing it.
    roles = [ROLE_INTERNAL] * len(names)
    for frame in range(n):
        for v in circuit.inputs:
            roles[frame_vars[frame][v]] = ROLE_INPUT
    for uv in initial_states:
        roles[uv] = ROLE_STATE
    for uv in final_states:
        roles[uv] = ROLE_NEXT
    vm = VarMap(tuple(roles), frames=tuple(frames_of), names=tuple(names))
    f = CnfFormula(tuple(clauses), vm, gate_table=template.gate_table)
    return UnrolledCnf(circuit, n, f, tuple(i1), template, tuple(frame_vars),
                       tuple(frame_clause_ix), initial_states, final_states)


def _rename_clause(cl: Clause, vmap: Sequence[int]) -> Clause:
    return Clause(tuple(sorted(Lit(vmap[l.var], l.neg) for l in cl.lits)),
                  cl.origin)


def seq_problem(u: UnrolledCnf, m: Mutation, frame: int = 1,
                replicate: bool = False) -> PqeProblem:
    """Place a template mutation into one frame (or all) of the unrolling."""
    if not 1 <= frame <= u.n:
        raise SeqError(f"frame {frame} outside 1..{u.n}")
    frames = range(1, u.n + 1) if replicate else (frame,)
    group: list[int] = []
    gstar: list[Clause] = []
    for fr in frames:
        fmap = u.frame_clauses[fr - 1]
        vmap = u.frame_vars[fr - 1]
        group.extend(fmap[i] for i in m.group)
        gstar.extend(_rename_clause(cl, vmap) for cl in m.gstar)
    split = replace_group(u.formula, group, gstar)
    # two latches sampling the same signal share one final-state variable
    free = tuple(sorted(set(u.final_states)))
    quantified = frozenset(range(u.formula.num_vars)) - frozenset(free)
    return PqeProblem(split.formula, split.gstar, split.fprime, quantified,
                      free, original=u.formula)


def false_safety_prop(u: UnrolledCnf, m: Mutation, frame: int = 1,
                      replicate: bool = False, engine: str = "cegar",
                      clause_budget: Optional[int] = None,
                      conflict_limit: Optional[int] = None
                      ) -> tuple[Property, PqeSolution]:
    """Candidate safety property over the state variables.

    The solution of the mutated unrolling is renamed from S_{n+1} back to the
    circuit's latch ids; whether the original circuit can actually reach a
    state falsifying it is decided by find_counterexample.
    """
    problem = seq_problem(u, m, frame, replicate)
    if engine == "cegar":
        sol = pqe_cegar(problem, clause_budget=clause_budget,
                        conflict_limit=conflict_limit)
    elif engine == "oracle":
        sol = pqe_oracle(problem)
    else:
        raise SeqError(f"unknown engine {engine!r}")
    back = {u.final_states[k]: lt.present
            for k, lt in enumerate(u.circuit.latches)}
    renamed = []
    for cl in sol.clauses:
        renamed.append(Clause(tuple(sorted(Lit(back[l.var], l.neg)
                                           for l in cl.lits)), "derived"))
    return Property(cleanup_clauses(renamed), STATUS_UNKNOWN, m), sol


@dataclass
class CexTrace:
    """States s1..s(n+1) and inputs x1..xn driving the circuit into a state
    that falsifies the property."""
    states: tuple[dict[int, int], ...]
    inputs: tuple[dict[int, int], ...]
    prop: Property
    broken_clause: int

    def to_json(self, c: Circuit) -> dict:
        nm = c.names
        return {
            "states": [{nm[v]: b for v, b in sorted(s.items())} for s in self.states],
            "inputs": [{nm[v]: b for v, b in sorted(x.items())} for x in self.inputs],
            "broken_clause": self.broken_clause,
        }

    def input_key(self):
        return tuple(tuple(sorted(x.items())) for x in self.inputs)


def format_trace(trace: CexTrace, c: Circuit) -> str:
    """Waveform-style table: one row per signal, one column per frame."""
    n = len(trace.inputs)
    width = max([len(c.names[v]) for v in c.inputs] +
                [len(c.names[lt.present]) for lt in c.latches]) + 2
    head = " " * width + "".join(f"{k:>4}" for k in range(1, n + 2))
    rows = [head]
    for lt in c.latches:
        vals = "".join(f"{s[lt.present]:>4}" for s in trace.states)
        rows.append(f"{c.names[lt.present]:<{width}}{vals}")
    for v in c.inputs:
        vals = "".join(f"{x[v]:>4}" for x in trace.inputs) + "   -"
        rows.append(f"{c.names[v]:<{width}}{vals}")
    return "\n".join(rows)


def find_counterexample(u: UnrolledCnf, prop: Property,
                        conflict_limit: Optional[int] = None
                        ) -> Optional[CexTrace]:
    """Trace of the original circuit ending in a state falsifying the
    property, or None when every clause holds on all n-step reachable
    final states."""
    fwd = {lt.present: u.final_states[k]
           for k, lt in enumerate(u.circuit.latches)}
    kept = cleanup_clauses(prop.clauses)
    for cl in kept:
        if any(l.var not in fwd for l in cl.lits):
            raise SeqError(f"property clause {cl!r} mentions a non-state variable")
    finals = [Clause(tuple(Lit(fwd[l.var], l.neg) for l in cl.lits))
              for cl in kept]
    hit = break_implication(u.formula, finals, conflict_limit)
    if hit is None:
        return None
    i, model = hit
    trace = _decode_trace(u, model, prop, i)
    _replay_check(u.circuit, trace)
    return trace


def _decode_trace(u: UnrolledCnf, model: Mapping[int, int], prop: Property,
                  broken: int) -> CexTrace:
    c = u.circuit
    states = []
    inputs = []
    for frame in range(1, u.n + 1):
        vmap = u.frame_vars[frame - 1]
        states.append({lt.present: model[vmap[lt.present]] for lt in c.latches})
        inputs.append({v: model[vmap[v]] for v in c.inputs})
    states.append({lt.present: model[u.final_states[k]]
                   for k, lt in enumerate(c.latches)})
    return CexTrace(tuple(states), tuple(inputs), prop, broken)


def _replay_check(c: Circuit, trace: CexTrace) -> None:
    """Counterexamples must replay: simulation revalidates every step."""
    for k, lt in enumerate(c.latches):
        if lt.init is not None and trace.states[0][lt.present] != lt.init:
            raise SeqError("trace starts outside the initial states")
    cur = trace.states[0]
    for k, x in enumerate(trace.inputs):
        _, nxt = simulate(c, x, cur)
        if nxt != trace.states[k + 1]:
            raise SeqError(f"trace does not replay at step {k + 1}")
        cur = nxt
    broken = trace.prop.clauses[trace.broken_clause]
    if broken.satisfied_by(cur):
        raise SeqError("final state does not falsify the reported clause")


# ---------------------------------------------------------------------------
# explicit-state reachability

MAX_STATES_DEFAULT = 1 << 16


@dataclass(frozen=True)
class ReachSet:
    frames: tuple[frozenset[tuple[int, ...]], ...]  # E_k: states after exactly k steps
    reachable: frozenset[tuple[int, ...]]
    diameter: int


def reach_oracle(c: Circuit, max_states: int = MAX_STATES_DEFAULT,
                 min_frames: int = 0) -> ReachSet:
    """Breadth-first image computation over explicit states.

    frames[k] holds the exact image after k steps (not the union); reachable
    and the diameter come from the accumulated union.  Runs at least
    min_frames images even after the union closes.
    """
    if not c.is_sequential:
        raise SeqError("reachability needs a sequential circuit")
    n_latch = len(c.latches)
    n_in = len(c.inputs)
    if 1 << n_latch > max_states:
        raise SeqError(f"2^{n_latch} states exceed the bound {max_states}")
    if 1 << n_in > max_states:
        raise SeqError(f"2^{n_in} input patterns exceed the bound {max_states}")
    presents = [lt.present for lt in c.latches]
    in_combos = [dict(zip(c.inputs, bits))
                 for bits in product((0, 1), repeat=n_in)]

    def image(state: tuple[int, ...]) -> set[tuple[int, ...]]:
        sdict = dict(zip(presents, state))
        out = set()
        for x in in_combos:
            _, nxt = simulate(c, x, sdict)
            out.add(tuple(nxt[p] for p in presents))
        return out

    init_opts = [(lt.init,) if lt.init is not None else (0, 1)
                 for lt in c.latches]
    e0 = frozenset(product(*[opts for opts in init_opts]))
    frames = [e0]
    union = set(e0)
    diameter = 0
    k = 0
    while True:
        cur = frames[-1]
        nxt = set()
        for st in cur:
            nxt |= image(st)
        frames.append(frozenset(nxt))
        k += 1
        grew = not nxt <= union
        union |= nxt
        if grew:
            diameter = k
        elif k >= min_frames:
            break
        if k > (1 << n_latch) + min_frames:
            break  # safety net; the union must have closed by now
    return ReachSet(tuple(frames), frozenset(union), diameter)


# ---------------------------------------------------------------------------
# sequential complete-set builder

@dataclass
class SeqCompsetReport:
    circuit: Circuit
    policy: str
    n: int
    gate_status: list[dict] = field(default_factory=list)
    false_props: list[Property] = field(default_factory=list)
    traces: list[CexTrace] = field(default_factory=list)
    bugs: list[BugRecord] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)

    @property
    def gates_processed(self) -> tuple[int, ...]:
        return tuple(r["gate"] for r in self.gate_status)

    @property
    def bug_trace(self) -> Optional[CexTrace]:
        return self.bugs[0].test if self.bugs else None

    def to_json(self) -> dict:
        names = self.circuit.names
        return {
            "circuit": self.circuit.name,
            "policy": self.policy,
            "frames": self.n,
            "gates": [dict(r, gate=names[r["gate"]]) for r in self.gate_status],
            "false_properties": [p.to_json(names) for p in self.false_props],
            "traces": [t.to_json(self.circuit) for t in self.traces],
            "bugs": [{"kind": b.kind, "detail": b.detail, "gate": names[b.gate],
                      "trace": b.test.to_json(self.circuit)} for b in self.bugs],
            "skipped": [names[g] for g in self.skipped],
        }


def _seq_golden_disagrees(c: Circuit, golden: Circuit, trace: CexTrace) -> bool:
    """Replay the trace inputs on the golden model from its own initial
    state; any per-frame output difference is a bug."""
    gstate = {lt.present: (lt.init if lt.init is not None else 0)
              for lt in golden.latches}
    cstate = dict(trace.states[0])
    for x in trace.inputs:
        gx = {gv: x[cv] for cv, gv in zip(c.inputs, golden.inputs)}
        gz, gnxt = simulate(golden, gx, gstate)
        cz, cnxt = simulate(c, x, cstate)
        for cv, gv in zip(c.outputs, golden.outputs):
            if cz[cv] != gz[gv]:
                return True
        gstate, cstate = gnxt, cnxt
    return False


def seq_compset(spec: Specification, circuit: Circuit, n: int,
                policy: str = "stuck-at", frame: int = 1,
                replicate: bool = False,
                continue_after_bug: bool = False,
                clause_budget: Optional[int] = None,
                conflict_limit: Optional[int] = None) -> SeqCompsetReport:
    """Mutate every gate inside the unrolling; false safety properties yield
    counterexample traces, checked against the required properties and the
    golden model."""
    if not circuit.is_sequential:
        raise SeqError("seq_compset needs a sequential circuit")
    golden = spec.golden
    if golden is not None:
        if not golden.is_sequential:
            raise VerifyError("golden model must be sequential here")
        if (len(golden.inputs) != len(circuit.inputs)
                or len(golden.outputs) != len(circuit.outputs)
                or len(golden.latches) != len(circuit.latches)):
            raise VerifyError("golden model signature mismatch")
    u = unroll(circuit, n)
    states = frozenset(lt.present for lt in circuit.latches)
    for hp in spec.hard:
        for cl in hp.clauses:
            if not cl.vars <= states:
                raise VerifyError(f"hard property {hp.name!r} must be over state pins")

    def judge(m: Mutation):
        prop, sol = false_safety_prop(u, m, frame=frame, replicate=replicate,
                                      clause_budget=clause_budget,
                                      conflict_limit=conflict_limit)
        if sol.partial:
            return None
        trace = find_counterexample(u, prop, conflict_limit=conflict_limit)
        prop.status = STATUS_TRUE if trace is None else STATUS_FALSE
        return prop, trace

    report = SeqCompsetReport(circuit, _POLICY_ALIASES.get(policy, policy), n)
    bug_of = _bug_check(spec, lambda trace: trace.states[-1],
                        partial(_seq_golden_disagrees, circuit))
    _each_gate(report, u.template, judge, bug_of, report.traces,
               continue_after_bug)
    return report
