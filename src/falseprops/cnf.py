"""CNF encodings of circuits, clause groups, and DIMACS export.

Every circuit variable becomes one CNF variable (same id).  Each gate
contributes a clause group that is satisfied exactly by the assignments
consistent with the gate's truth table; groups are addressable by gate id
so they can be swapped out for mutated versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence, Union

from .netlist import Circuit, Gate, eval_gate

ROLE_INPUT = "x"
ROLE_INTERNAL = "y"
ROLE_OUTPUT = "z"
ROLE_STATE = "s"
ROLE_NEXT = "sn"
ROLES = (ROLE_INPUT, ROLE_INTERNAL, ROLE_OUTPUT, ROLE_STATE, ROLE_NEXT)


class CnfError(Exception):
    pass


@dataclass(frozen=True, order=True)
class Lit:
    var: int
    neg: bool = False

    def __neg__(self) -> "Lit":
        return Lit(self.var, not self.neg)

    def value_in(self, assignment: Mapping[int, int]) -> int:
        return int(assignment[self.var]) ^ int(self.neg)

    def __repr__(self):
        return f"{'-' if self.neg else ''}{self.var}"


def pos(v: int) -> Lit:
    return Lit(v, False)


def neg(v: int) -> Lit:
    return Lit(v, True)


@dataclass(frozen=True)
class Clause:
    lits: tuple[Lit, ...]
    origin: Union[int, str, None] = field(default=None, compare=False)

    @cached_property
    def vars(self) -> frozenset[int]:
        return frozenset(l.var for l in self.lits)

    @property
    def is_tautology(self) -> bool:
        return len(self.vars) < len(self.lits)

    def satisfied_by(self, assignment: Mapping[int, int]) -> bool:
        return any(l.value_in(assignment) for l in self.lits)

    def __repr__(self):
        return "(" + " ".join(repr(l) for l in self.lits) + ")"


def clause(*lits: Lit, origin: Union[int, str, None] = None) -> Clause:
    """Build a clause: literals sorted by (var, polarity), duplicates merged.

    Opposite-polarity duplicates are kept, so the result may be a tautology;
    encodings assert none, property cleanup drops them.
    """
    return Clause(tuple(sorted(set(lits))), origin)


@dataclass(frozen=True)
class VarMap:
    """Role (and optionally time frame and name) of every CNF variable."""
    roles: tuple[str, ...]
    frames: Optional[tuple[int, ...]] = None
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        for r in self.roles:
            if r not in ROLES:
                raise CnfError(f"unknown variable role {r!r}")
        if self.frames is not None and len(self.frames) != len(self.roles):
            raise CnfError("frames/roles length mismatch")
        if self.names is not None and len(self.names) != len(self.roles):
            raise CnfError("names/roles length mismatch")

    @property
    def num_vars(self) -> int:
        return len(self.roles)

    def role_of(self, v: int) -> str:
        return self.roles[v]

    def with_role(self, role: str) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles) if r == role)


def varmap_uniform(n: int, role: str = ROLE_INTERNAL) -> VarMap:
    return VarMap(tuple(role for _ in range(n)))


@dataclass(frozen=True)
class CnfFormula:
    clauses: tuple[Clause, ...]
    varmap: VarMap
    gate_table: Optional[Mapping[int, Gate]] = field(default=None, compare=False)

    @property
    def num_vars(self) -> int:
        return self.varmap.num_vars

    @cached_property
    def groups(self) -> Mapping[int, tuple[int, ...]]:
        """Gate id -> indices of its clause group."""
        acc: dict[int, list[int]] = {}
        for i, cl in enumerate(self.clauses):
            if isinstance(cl.origin, int):
                acc.setdefault(cl.origin, []).append(i)
        return {g: tuple(ix) for g, ix in acc.items()}

    def group(self, gate_id: int) -> tuple[int, ...]:
        try:
            return self.groups[gate_id]
        except KeyError:
            raise CnfError(f"no clause group for gate id {gate_id}")

    def restrict(self, indices: Sequence[int]) -> "CnfFormula":
        """Sub-formula over the same variables (clause subset by index)."""
        return CnfFormula(tuple(self.clauses[i] for i in indices), self.varmap,
                          self.gate_table)


def formula(clauses: Iterable[Clause], num_vars: Optional[int] = None,
            varmap: Optional[VarMap] = None) -> CnfFormula:
    cls = tuple(clauses)
    if varmap is None:
        if num_vars is None:
            num_vars = 1 + max((l.var for c in cls for l in c.lits), default=-1)
        varmap = varmap_uniform(num_vars)
    for c in cls:
        for l in c.lits:
            if not 0 <= l.var < varmap.num_vars:
                raise CnfError(f"literal {l!r} outside variable range")
    return CnfFormula(cls, varmap)


# ---------------------------------------------------------------------------
# gate encodings

@lru_cache(maxsize=512)
def encode_gate(g: Gate) -> tuple[Clause, ...]:
    """Clause group satisfied exactly by the gate's consistent assignments.

    Equal gates share one cached group, so re-encoding a circuit is cheap
    and a group that nothing replaced compares equal to its gate's encoding
    by identity, clause for clause.
    """
    o = g.output
    ins = g.fanins
    kind = g.kind
    out: list[Clause] = []
    if kind == "AND":
        out = [clause(pos(a), neg(o), origin=o) for a in ins]
        out.append(clause(*[neg(a) for a in ins], pos(o), origin=o))
    elif kind == "OR":
        out = [clause(neg(a), pos(o), origin=o) for a in ins]
        out.append(clause(*[pos(a) for a in ins], neg(o), origin=o))
    elif kind == "NAND":
        out = [clause(pos(a), pos(o), origin=o) for a in ins]
        out.append(clause(*[neg(a) for a in ins], neg(o), origin=o))
    elif kind == "NOR":
        out = [clause(neg(a), neg(o), origin=o) for a in ins]
        out.append(clause(*[pos(a) for a in ins], pos(o), origin=o))
    elif kind == "NOT":
        out = [clause(pos(ins[0]), pos(o), origin=o),
               clause(neg(ins[0]), neg(o), origin=o)]
    elif kind == "BUF":
        out = [clause(pos(ins[0]), neg(o), origin=o),
               clause(neg(ins[0]), pos(o), origin=o)]
    elif kind == "CONST0":
        out = [clause(neg(o), origin=o)]
    elif kind == "CONST1":
        out = [clause(pos(o), origin=o)]
    elif kind in ("XOR", "XNOR"):
        # Row encoding over the distinct fanin variables; handles repeated
        # fanins correctly (XOR(a, a) is constant 0).
        vs = sorted(set(ins))
        for bits in product((0, 1), repeat=len(vs)):
            env = dict(zip(vs, bits))
            val = eval_gate(kind, [env[a] for a in ins])
            lits = [Lit(v, neg=bool(b)) for v, b in zip(vs, bits)]
            lits.append(Lit(o, neg=(val == 0)))
            out.append(clause(*lits, origin=o))
    else:
        raise CnfError(f"cannot encode gate kind {kind!r}")
    uniq: list[Clause] = []
    for c in out:
        if c.is_tautology:
            raise CnfError(f"tautology in encoding of {kind}")
        if c not in uniq:
            uniq.append(c)
    return tuple(uniq)


def circuit_roles(c: Circuit) -> tuple[str, ...]:
    # priority on overlap: x > s > sn > z > y
    roles = [ROLE_INTERNAL] * c.num_vars
    gate_outs = frozenset(g.output for g in c.gates)
    for v in c.outputs:
        if v in gate_outs:
            roles[v] = ROLE_OUTPUT
    for lt in c.latches:
        roles[lt.next] = ROLE_NEXT
    for lt in c.latches:
        roles[lt.present] = ROLE_STATE
    for v in c.inputs:
        roles[v] = ROLE_INPUT
    return tuple(roles)


def encode_circuit(c: Circuit) -> CnfFormula:
    """Conjunction of all gate clause groups, with roles from the circuit."""
    vm = VarMap(circuit_roles(c), names=c.names)
    cls: list[Clause] = []
    for g in c.gates:
        cls.extend(encode_gate(g))
    return CnfFormula(tuple(cls), vm, gate_table=dict(c.gate_of))


# ---------------------------------------------------------------------------
# group replacement

@dataclass(frozen=True)
class GroupSplit:
    """A formula G* ∧ F' produced by swapping one clause group."""
    formula: CnfFormula
    gstar: tuple[int, ...]   # indices of the replacement group
    fprime: tuple[int, ...]  # indices of the untouched remainder


def replace_group(f: CnfFormula, group: Sequence[int],
                  gstar: Sequence[Clause]) -> GroupSplit:
    """Remove the clauses at `group` and append `gstar` instead.

    Remainder clauses keep their relative order; the replacement group sits
    at the tail.  Replacement clauses may not introduce new variables.
    """
    drop = frozenset(group)
    for i in drop:
        if not 0 <= i < len(f.clauses):
            raise CnfError(f"clause index {i} out of range")
    for cl in gstar:
        for l in cl.lits:
            if not 0 <= l.var < f.num_vars:
                raise CnfError(f"replacement clause uses unregistered variable {l.var}")
    keep = [cl for i, cl in enumerate(f.clauses) if i not in drop]
    new_clauses = tuple(keep) + tuple(gstar)
    nf = CnfFormula(new_clauses, f.varmap, f.gate_table)
    n_keep = len(keep)
    return GroupSplit(nf, tuple(range(n_keep, n_keep + len(gstar))),
                      tuple(range(n_keep)))


# ---------------------------------------------------------------------------
# DIMACS

def export_dimacs(f: CnfFormula) -> str:
    """DIMACS with role and clause-group comments (variables are id+1)."""
    lines = []
    for role in ROLES:
        vs = f.varmap.with_role(role)
        if vs:
            lines.append("c role " + role + " " + " ".join(str(v + 1) for v in vs))
    for gid in sorted(f.groups):
        ix = f.groups[gid]
        lines.append(f"c group {gid} " + " ".join(str(i) for i in ix))
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    for cl in f.clauses:
        lines.append(" ".join(str(-(l.var + 1) if l.neg else l.var + 1)
                              for l in cl.lits) + " 0")
    return "\n".join(lines) + "\n"
