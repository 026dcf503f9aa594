"""Seeded live-logic designs for the benchmark workloads.

`falseprops.randcirc` draws gates over any earlier signal and then picks a
few outputs, so most of its logic never reaches an output and nearly every
stuck-at fault on it is undetectable.  The generators here keep the random
gate structure but re-declare the interface: every fanout-free gate becomes
an output (combinational) or is sampled by a latch first (sequential), so
every gate drives something observable.

Designs leave this module as netlist text, so the program parses them the
way a user's design file would be parsed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from falseprops import Circuit, Latch, emit_netlist
from falseprops.randcirc import random_circuit, random_sequential


@dataclass(frozen=True)
class Design:
    """Netlist text for the program, and the same design by pin name for
    the benchmark's own checker."""
    name: str
    text: str
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    gate_list: tuple[tuple[str, str, tuple[str, ...]], ...]  # topological
    latch_list: tuple[tuple[str, str, int], ...]             # (q, next, init)


def _fanout_free(c: Circuit) -> list[int]:
    used = {v for g in c.gates for v in g.fanins}
    return [g.output for g in c.gates if g.output not in used]


def _design(name: str, base: Circuit, outputs: tuple[int, ...],
            latches: tuple[Latch, ...]) -> Design:
    # randcirc numbers every gate after its fanins, so base.gates is
    # already in topological order
    c = Circuit(name, base.inputs, outputs, latches, base.gates, base.names)
    nm = c.names
    return Design(
        name, emit_netlist(c),
        tuple(nm[v] for v in c.inputs), tuple(nm[v] for v in outputs),
        tuple((nm[g.output], g.kind, tuple(nm[a] for a in g.fanins))
              for g in c.gates),
        tuple((nm[lt.present], nm[lt.next], lt.init) for lt in latches))


def live_combinational(rng: random.Random, name: str, n_inputs: int,
                       n_gates: int) -> Design:
    """Random combinational logic whose fanout-free gates are all outputs."""
    c = random_circuit(rng, n_inputs, n_gates)
    return _design(name, c, tuple(_fanout_free(c)), ())


def live_sequential(rng: random.Random, name: str, n_inputs: int,
                    n_gates: int, n_latches: int) -> Design:
    """Random sequential logic; latches sample fanout-free gates first, the
    remaining fanout-free gates become outputs, so no gate is dead."""
    c = random_sequential(rng, n_inputs, n_gates, n_latches)
    free = _fanout_free(c)
    gate_outs = [g.output for g in c.gates]
    nexts = free[:n_latches]
    while len(nexts) < n_latches:
        nexts.append(rng.choice(gate_outs))
    latches = tuple(Latch(lt.present, nxt, lt.init)
                    for lt, nxt in zip(c.latches, nexts))
    return _design(name, c, tuple(free[n_latches:]) or (gate_outs[-1],),
                   latches)
