"""Property classification, complete false-property sets, test extraction.

A property here is a conjunction of clauses over a circuit's input and
output variables.  It is false exactly when some input/output behavior of
the circuit falsifies one of its clauses; the falsifying behavior is a test.
Mutating every gate and keeping the false properties yields a test set that
exercises each gate's contribution to the circuit function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import (TYPE_CHECKING, Iterable, Mapping, Optional, Sequence,
                    Union)

from .cnf import (Clause, CnfFormula, Lit, ROLE_INPUT, ROLE_OUTPUT, clause,
                  encode_circuit)
from .mutate import Mutation, apply_mutation, clause_flip, gate_subst, stuck_at, substitution_kinds
from .netlist import Circuit, simulate
from .pqe import problem_from_split, pqe_cegar
from .sat import BudgetExceeded, break_implication, solve, solver_for

if TYPE_CHECKING:
    from .seq import CexTrace

STATUS_TRUE = "true"
STATUS_FALSE = "false"
STATUS_UNKNOWN = "unknown"


class VerifyError(Exception):
    pass


@dataclass
class TestVector:
    inputs: dict[int, int]
    outputs: dict[int, int]
    broken_clause: Optional[int] = None

    def input_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.inputs.items()))

    def to_json(self, names: Sequence[str]) -> dict:
        return {
            "inputs": {names[v]: b for v, b in sorted(self.inputs.items())},
            "outputs": {names[v]: b for v, b in sorted(self.outputs.items())},
            "broken_clause": self.broken_clause,
        }


def _clause_json(c: Clause, names: Sequence[str]) -> list[str]:
    return [("-" if l.neg else "") + names[l.var] for l in c.lits]


@dataclass
class Property:
    clauses: tuple[Clause, ...]
    status: str = STATUS_UNKNOWN
    provenance: Optional[Mutation] = None
    witness: Optional[TestVector] = None
    spurious: tuple[Clause, ...] = ()   # dropped input-only clauses

    def to_json(self, names: Sequence[str]) -> dict:
        d: dict = {"status": self.status,
                   "clauses": [_clause_json(c, names) for c in self.clauses]}
        if self.provenance is not None:
            d["mutation"] = self.provenance.to_json(names)
        if self.witness is not None:
            d["witness"] = self.witness.to_json(names)
        if self.spurious:
            d["spurious"] = [_clause_json(c, names) for c in self.spurious]
        return d


def cleanup_clauses(clauses: Iterable[Clause]) -> tuple[Clause, ...]:
    """Drop tautologies and duplicates, keeping first occurrences."""
    out: list[Clause] = []
    for c in clauses:
        if c.is_tautology or c in out:
            continue
        out.append(c)
    return tuple(out)


def classify_property(f: CnfFormula, clauses: Iterable[Clause],
                      provenance: Optional[Mutation] = None,
                      conflict_limit: Optional[int] = None) -> Property:
    """Decide whether the circuit satisfies the property.

    Input-only clauses are split off as spurious: they constrain which
    inputs may arrive, not how the circuit responds, so they are flagged
    rather than emitted.  They still count toward the verdict, though. A
    circuit accepts every input, so an input-only clause can only enter a
    correct solution when the mutation erased those inputs outright, and
    the circuit's behavior on them falsifies the property trivially.  The
    witness is the first circuit behavior falsifying a kept clause, or
    failing that, one falsifying a spurious clause (with no clause index).
    """
    vm = f.varmap
    xs = frozenset(vm.with_role(ROLE_INPUT))
    zs = frozenset(vm.with_role(ROLE_OUTPUT))
    kept: list[Clause] = []
    spurious: list[Clause] = []
    for c in cleanup_clauses(clauses):
        if not c.vars <= xs | zs:
            raise VerifyError(f"property clause {c!r} mentions a non-interface variable")
        if c.vars <= xs:
            spurious.append(c)
        else:
            kept.append(c)
    hit = break_implication(f, kept + spurious, conflict_limit)
    if hit is None:
        return Property(tuple(kept), STATUS_TRUE, provenance, None,
                        tuple(spurious))
    i, model = hit
    tv = TestVector({v: model[v] for v in sorted(xs)},
                    {v: model[v] for v in sorted(zs)},
                    broken_clause=i if i < len(kept) else None)
    return Property(tuple(kept), STATUS_FALSE, provenance, tv, tuple(spurious))


# ---------------------------------------------------------------------------
# specifications (the partial, human-supplied side)

@dataclass(frozen=True)
class NamedProperty:
    name: str
    clauses: tuple[Clause, ...]


@dataclass
class Specification:
    """What is actually known about the design: properties that must hold,
    and optionally a golden model to compare observed behavior against."""
    hard: tuple[NamedProperty, ...] = ()
    golden: Optional[Circuit] = None


def parse_property_file(text: str, circuit: Circuit) -> tuple[NamedProperty, ...]:
    """JSON list of {name?, clauses: [["a", "-b", ...], ...]} over pin names."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise VerifyError(f"property file is not valid JSON: {e}")
    if not isinstance(data, list):
        raise VerifyError("property file must be a JSON list")
    id_of = circuit.id_of
    out = []
    for k, entry in enumerate(data):
        if isinstance(entry, list):
            entry = {"clauses": entry}
        if not isinstance(entry, dict) or "clauses" not in entry:
            raise VerifyError(f"property {k}: expected an object with 'clauses'")
        name = entry.get("name", f"p{k}")
        cls = []
        for row in entry["clauses"]:
            lits = []
            for tok in row:
                t = str(tok)
                negd = t.startswith("-") or t.startswith("~")
                pin = t.lstrip("-~")
                if pin not in id_of:
                    raise VerifyError(f"property {name!r}: unknown pin {pin!r}")
                lits.append(Lit(id_of[pin], negd))
            cls.append(clause(*lits))
        out.append(NamedProperty(str(name), tuple(cls)))
    return tuple(out)


def _falsified_named(p: NamedProperty, env: Mapping[int, int]) -> bool:
    return any(not c.satisfied_by(env) for c in p.clauses
               if c.vars <= set(env) and not c.is_tautology)


# ---------------------------------------------------------------------------
# the complete-set builder

COMPSET_POLICIES = ("stuck-at", "gate-subst", "clause-flip")
_POLICY_ALIASES = {"all-stuck-at": "stuck-at", "all-gate-subst": "gate-subst",
                   "all-clause-flips": "clause-flip"}


def policy_mutation(f: CnfFormula, gate_id: int, policy: str) -> Mutation:
    """The single mutation a policy assigns to a gate, never the identity."""
    policy = _POLICY_ALIASES.get(policy, policy)
    if policy == "stuck-at":
        m = stuck_at(f, gate_id, 0)
        return m if not m.identity else stuck_at(f, gate_id, 1)
    if policy == "gate-subst":
        g = f.gate_table[gate_id]
        kinds = substitution_kinds(g)
        nxt = kinds[(kinds.index(g.kind) + 1) % len(kinds)]
        return gate_subst(f, gate_id, nxt)
    if policy == "clause-flip":
        return clause_flip(f, f.group(gate_id)[0], 0)
    raise VerifyError(f"unknown policy {policy!r}; choose from {COMPSET_POLICIES}")


@dataclass
class BugRecord:
    kind: str                   # "hard-property" | "golden"
    detail: str
    gate: int
    test: Union[TestVector, CexTrace]   # a CexTrace in seq_compset reports


@dataclass
class CompsetReport:
    circuit: Circuit
    policy: str
    gate_status: list[dict] = field(default_factory=list)
    false_props: list[Property] = field(default_factory=list)
    tests: list[TestVector] = field(default_factory=list)
    bugs: list[BugRecord] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)

    @property
    def gates_processed(self) -> tuple[int, ...]:
        return tuple(r["gate"] for r in self.gate_status)

    @property
    def bug_test(self) -> Optional[TestVector]:
        return self.bugs[0].test if self.bugs else None

    def to_json(self) -> dict:
        names = self.circuit.names
        return {
            "circuit": self.circuit.name,
            "policy": self.policy,
            "gates": [dict(r, gate=names[r["gate"]]) for r in self.gate_status],
            "false_properties": [p.to_json(names) for p in self.false_props],
            "tests": [t.to_json(names) for t in self.tests],
            "bugs": [{"kind": b.kind, "detail": b.detail, "gate": names[b.gate],
                      "test": b.test.to_json(names)} for b in self.bugs],
            "skipped": [names[g] for g in self.skipped],
        }


def _check_golden_signature(c: Circuit, golden: Circuit) -> None:
    if golden.is_sequential or c.is_sequential:
        raise VerifyError("golden comparison here is combinational only")
    if len(golden.inputs) != len(c.inputs) or len(golden.outputs) != len(c.outputs):
        raise VerifyError("golden model signature mismatch "
                          f"({len(golden.inputs)}/{len(golden.outputs)} vs "
                          f"{len(c.inputs)}/{len(c.outputs)} pins)")


def _golden_disagrees(c: Circuit, golden: Circuit, tv: TestVector) -> bool:
    gx = {gv: tv.inputs[cv] for cv, gv in zip(c.inputs, golden.inputs)}
    gz, _ = simulate(golden, gx)
    for cv, gv in zip(c.outputs, golden.outputs):
        if cv in tv.outputs and tv.outputs[cv] != gz[gv]:
            return True
    return False


def _bug_check(spec: Specification, env_of, golden_disagrees):
    """The bug_of of _each_gate: a test is a bug when the behavior env_of
    reads from it falsifies a required property, or when
    golden_disagrees(golden, test) finds the golden model behaving
    differently."""
    def bug_of(gate_id: int, test) -> Optional[BugRecord]:
        env = env_of(test)
        for hp in spec.hard:
            if _falsified_named(hp, env):
                return BugRecord("hard-property", hp.name, gate_id, test)
        if spec.golden is not None and golden_disagrees(spec.golden, test):
            return BugRecord("golden", "output mismatch", gate_id, test)
        return None
    return bug_of


def _each_gate(report, f: CnfFormula, judge, bug_of, found: list,
               continue_after_bug: bool) -> None:
    """The per-gate loop of compset and seq_compset.

    Every gate of f gets its policy mutation m, and judge(m) returns None
    when the PQE solution is partial, else the property and its test (None
    when the property holds).  A gate whose budget runs out is skipped.
    Each false property's test is either a bug, which ends the loop unless
    continue_after_bug, or a new test appended to found unless an earlier
    one has the same inputs.
    """
    seen: set = set()
    for gate_id in sorted(f.groups):
        m = policy_mutation(f, gate_id, report.policy)
        try:
            verdict = judge(m)
        except BudgetExceeded:
            verdict = None
        row = {"gate": gate_id, "status": "skipped", "mutation": m.describe()}
        report.gate_status.append(row)
        if verdict is None:
            report.skipped.append(gate_id)
            continue
        prop, test = verdict
        if test is None:
            row["status"] = "true-prop"
            continue
        row.update(status="false-prop", property=len(report.false_props))
        report.false_props.append(prop)
        bug = bug_of(gate_id, test)
        if bug is not None:
            report.bugs.append(bug)
            if not continue_after_bug:
                break
            continue
        key = test.input_key()
        if key not in seen:
            seen.add(key)
            found.append(test)


def compset(spec: Specification, circuit: Circuit, policy: str = "stuck-at",
            continue_after_bug: bool = False,
            clause_budget: Optional[int] = None,
            conflict_limit: Optional[int] = None) -> CompsetReport:
    """Mutate every gate once, keep the false properties, extract their
    breaking tests, and stop early if a test exposes a real bug (it falsifies
    a required property or disagrees with the golden model).
    """
    if circuit.is_sequential:
        raise VerifyError("compset handles combinational circuits; see seq_compset")
    if spec.golden is not None:
        _check_golden_signature(circuit, spec.golden)
    f = encode_circuit(circuit)
    iface = frozenset(f.varmap.with_role(ROLE_INPUT)) | \
        frozenset(f.varmap.with_role(ROLE_OUTPUT))
    for hp in spec.hard:
        for c in hp.clauses:
            if not c.vars <= iface:
                raise VerifyError(
                    f"hard property {hp.name!r} mentions a non-interface pin")

    def judge(m: Mutation):
        sol = pqe_cegar(problem_from_split(apply_mutation(f, m), original=f),
                        clause_budget=clause_budget,
                        conflict_limit=conflict_limit)
        if sol.partial:
            return None
        prop = classify_property(f, sol.clauses, provenance=m,
                                 conflict_limit=conflict_limit)
        return prop, prop.witness

    report = CompsetReport(circuit, _POLICY_ALIASES.get(policy, policy))
    bug_of = _bug_check(spec, lambda tv: {**tv.inputs, **tv.outputs},
                        partial(_golden_disagrees, circuit))
    _each_gate(report, f, judge, bug_of, report.tests, continue_after_bug)
    return report


# ---------------------------------------------------------------------------
# joint tests

def joint_test(f: CnfFormula, p1: Property, p2: Property,
               conflict_limit: Optional[int] = None) -> Optional[TestVector]:
    """A single behavior breaking both properties at once, if any.

    Clause pairs are scanned lexicographically; a pair with contradictory
    negations is simply unsatisfiable and skipped by the solver.
    """
    vm = f.varmap
    xs = sorted(vm.with_role(ROLE_INPUT))
    zs = sorted(vm.with_role(ROLE_OUTPUT))
    s = solver_for(f, conflict_limit)
    for i, c1 in enumerate(p1.clauses):
        for j, c2 in enumerate(p2.clauses):
            assume = [-l for l in c1.lits]
            assume += [-l for l in c2.lits if -l not in assume]
            res = s.solve(assume)
            if res.is_sat:
                return TestVector({v: res.model[v] for v in xs},
                                  {v: res.model[v] for v in zs},
                                  broken_clause=i)
    return None


# ---------------------------------------------------------------------------
# stuck-at test generation

def atpg_stuck_at(circuit: Circuit, gate_id: int, value: int,
                  conflict_limit: Optional[int] = None) -> Optional[TestVector]:
    """Input vector distinguishing the circuit from its stuck-at mutant.

    Runs the CEGAR engine with early stopping: the first property clause the
    healthy circuit fails to imply certifies a behavioral difference, and a
    model of F ∧ ¬clause is the test.  If the engine completes with every
    clause implied, the fault is undetectable (the mutant is equivalent).
    """
    f = encode_circuit(circuit)
    m = stuck_at(f, gate_id, value)
    if m.identity:
        return None  # a constant gate stuck at its own value
    problem = problem_from_split(apply_mutation(f, m), original=f)
    sol = pqe_cegar(problem, early_stop=True, conflict_limit=conflict_limit)
    if sol.trigger is None:
        return None
    res = solve(f, [-l for l in sol.trigger.lits], conflict_limit=conflict_limit)
    if not res.is_sat:
        raise VerifyError("early-stop clause unexpectedly implied")  # pragma: no cover
    vm = f.varmap
    return TestVector({v: res.model[v] for v in sorted(vm.with_role(ROLE_INPUT))},
                      {v: res.model[v] for v in sorted(vm.with_role(ROLE_OUTPUT))})
