"""Seeded random circuits, formulas and mutations for self-checking."""

from __future__ import annotations

import random
from typing import Sequence

from .cnf import CnfFormula
from .netlist import Circuit, Gate, Latch
from . import mutate

_BINARY = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")


def random_circuit(rng: random.Random, n_inputs: int, n_gates: int,
                   n_outputs: int = 1, p_unary: float = 0.15) -> Circuit:
    """Combinational circuit with dense ids: inputs first, then gates.

    The last gate always drives an output, so depth is not wasted.
    """
    if n_gates < 1 or n_inputs < 1:
        raise ValueError("need at least one input and one gate")
    names = [f"x{i}" for i in range(n_inputs)]
    gates = []
    for k in range(n_gates):
        out = n_inputs + k
        names.append(f"g{k}")
        pool = list(range(out))
        if rng.random() < p_unary:
            kind = rng.choice(("NOT", "BUF"))
            fanins = (rng.choice(pool),)
        else:
            kind = rng.choice(_BINARY)
            fanins = tuple(rng.sample(pool, 2)) if len(pool) >= 2 else (pool[0], pool[0])
        gates.append(Gate(kind, fanins, out))
    gate_outs = [g.output for g in gates]
    n_outputs = min(n_outputs, n_gates)
    outputs = [gate_outs[-1]]
    rest = gate_outs[:-1]
    rng.shuffle(rest)
    outputs.extend(rest[:n_outputs - 1])
    return Circuit("rnd", tuple(range(n_inputs)), tuple(outputs), (),
                   tuple(gates), tuple(names))


def random_sequential(rng: random.Random, n_inputs: int, n_gates: int,
                      n_latches: int, n_outputs: int = 1) -> Circuit:
    """Sequential circuit: inputs, then latches, then gates (dense ids)."""
    if min(n_inputs, n_gates, n_latches) < 1:
        raise ValueError("need at least one input, gate and latch")
    names = [f"x{i}" for i in range(n_inputs)]
    names += [f"q{j}" for j in range(n_latches)]
    base = n_inputs + n_latches
    gates = []
    for k in range(n_gates):
        out = base + k
        names.append(f"g{k}")
        pool = list(range(out))
        if rng.random() < 0.15:
            kind = rng.choice(("NOT", "BUF"))
            fanins = (rng.choice(pool),)
        else:
            kind = rng.choice(_BINARY)
            fanins = tuple(rng.sample(pool, 2))
        gates.append(Gate(kind, fanins, out))
    gate_outs = [g.output for g in gates]
    latches = tuple(
        Latch(n_inputs + j, rng.choice(gate_outs), rng.choice((0, 1)))
        for j in range(n_latches))
    n_outputs = min(n_outputs, n_gates)
    outputs = tuple(rng.sample(gate_outs, n_outputs))
    return Circuit("rndseq", tuple(range(n_inputs)), outputs, latches,
                   tuple(gates), tuple(names))


def random_mutation(rng: random.Random, f: CnfFormula,
                    kinds: Sequence[str] = ("gate-subst", "stuck-at", "clause-flip"),
                    ) -> mutate.Mutation:
    """One random non-identity mutation of an encoded circuit.

    A gate-subst picks a kind other than the gate table's, but after an
    earlier mutation the table can describe a group that is no longer
    there, so every candidate is checked for identity.
    """
    while True:
        kind = rng.choice(kinds)
        if kind == "clause-flip":
            ci = rng.randrange(len(f.clauses))
            li = rng.randrange(len(f.clauses[ci].lits))
            return mutate.clause_flip(f, ci, li)
        gid = rng.choice(sorted(f.groups))
        if kind == "stuck-at":
            m = mutate.stuck_at(f, gid, rng.choice((0, 1)))
        else:
            g = f.gate_table[gid]
            alts = [k for k in mutate.substitution_kinds(g) if k != g.kind]
            if not alts:
                continue
            m = mutate.gate_subst(f, gid, rng.choice(alts))
        if not m.identity:
            return m
