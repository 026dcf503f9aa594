"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: faulty-circuit
behavior comes from direct topological evaluation, equivalence checks from
exhaustive simulation of a miter, never from the CNF/SAT/PQE stack.
"""

from __future__ import annotations

import random
from itertools import product

from falseprops.cnf import CnfFormula, Lit, ROLE_INPUT, clause, formula
from falseprops.netlist import Circuit, eval_gate
from falseprops.pqe import qe_enumerate
from falseprops import parse_netlist

AND1 = "input v1 v2; v3 = AND(v1, v2); output v3;"
# two-gate circuit: z = (x1 AND x2) OR x3
TWOGATE = """
input x1 x2 x3;
y = AND(x1, x2);
z = OR(y, x3);
output z;
"""


def and1() -> Circuit:
    return parse_netlist(AND1)


def twogate() -> Circuit:
    return parse_netlist(TWOGATE)


def random_cnf(rng: random.Random, n_vars: int, n_clauses: int,
               width: int = 3) -> CnfFormula:
    cls = []
    for _ in range(n_clauses):
        vs = rng.sample(range(n_vars), min(width, n_vars))
        cls.append(clause(*[Lit(v, rng.random() < 0.5) for v in vs]))
    return formula(cls, num_vars=n_vars)


def is_total(fstar: CnfFormula) -> bool:
    """Every input assignment extends to a model of F*: the projection of
    F* onto its inputs has all 2^|x| rows."""
    xs = fstar.varmap.with_role(ROLE_INPUT)
    others = [v for v in range(fstar.num_vars) if v not in xs]
    return len(qe_enumerate(fstar, others).rows) == 1 << len(xs)


def input_combos(c: Circuit):
    for bits in product((0, 1), repeat=len(c.inputs)):
        yield dict(zip(c.inputs, bits))


def eval_full(c: Circuit, x: dict, fault: tuple[int, int] | None = None,
              subst: tuple[int, str] | None = None) -> dict:
    """Topological evaluation with an optional stuck-at fault or kind swap.

    Independent of Circuit.simulate's code path for mutants: the fault is
    applied during evaluation, not by rebuilding the circuit.
    """
    val = dict(x)
    for g in c.topo_gates:
        kind = g.kind
        if subst is not None and g.output == subst[0]:
            kind = subst[1]
        v = eval_gate(kind, [val[a] for a in g.fanins])
        if fault is not None and g.output == fault[0]:
            v = fault[1]
        val[g.output] = v
    return val


def outputs_of(c: Circuit, val: dict) -> tuple[int, ...]:
    return tuple(val[v] for v in c.outputs)


def detect_set(c: Circuit, gate_id: int, value: int) -> set[tuple[int, ...]]:
    """Inputs on which the stuck-at mutant visibly differs (exhaustive)."""
    out = set()
    for x in input_combos(c):
        good = outputs_of(c, eval_full(c, x))
        bad = outputs_of(c, eval_full(c, x, fault=(gate_id, value)))
        if good != bad:
            out.add(tuple(x[v] for v in c.inputs))
    return out


def _canon(c: Circuit):
    """Structure signature invariant under variable renumbering and gate
    reordering; inputs and latches stay identified by declaration position."""
    sig = {}
    for i, v in enumerate(c.inputs):
        sig[v] = ("in", i)
    for i, lt in enumerate(c.latches):
        sig[lt.present] = ("latch", i)
    for g in c.topo_gates:
        sig[g.output] = (g.kind,) + tuple(sig[v] for v in g.fanins)
    return (tuple(sig[v] for v in c.outputs),
            tuple((sig[lt.next], lt.init) for lt in c.latches))


def structurally_isomorphic(a: Circuit, b: Circuit) -> bool:
    """Same graph up to renumbering (emit/parse never merges duplicate
    gates, so equal gate counts plus equal canonical forms suffice)."""
    counts = (len(a.inputs), len(a.outputs), len(a.latches), len(a.gates))
    if counts != (len(b.inputs), len(b.outputs), len(b.latches), len(b.gates)):
        return False
    return _canon(a) == _canon(b)
