"""Bundled self-checks: seeded random corpora cross-checked against
independent oracles (exhaustive simulation, enumeration, replay)."""

from __future__ import annotations

import random
from itertools import product

from .cnf import encode_circuit
from .mutate import apply_mutation
from .netlist import Circuit, Gate, emit_netlist, parse_netlist, simulate
from .pqe import problem_from_split, pqe_cegar, verify_solution
from .randcirc import random_circuit, random_sequential
from .sat import solver_for
from .seq import unroll
from .verify import COMPSET_POLICIES, atpg_stuck_at, policy_mutation
from .cnf import Lit


def fault_circuit(c: Circuit, gate_id: int, value: int) -> Circuit:
    """The stuck-at mutant as a circuit (gate replaced by a constant)."""
    gates = tuple(Gate(f"CONST{value}", (), g.output) if g.output == gate_id else g
                  for g in c.gates)
    return Circuit(c.name, c.inputs, c.outputs, c.latches, gates, c.names)


def _input_combos(c: Circuit):
    for bits in product((0, 1), repeat=len(c.inputs)):
        yield dict(zip(c.inputs, bits))


def _check_roundtrip(rng: random.Random, instances: int) -> int:
    failures = 0
    for _ in range(instances):
        c = random_circuit(rng, rng.randint(2, 5), rng.randint(2, 8),
                           n_outputs=rng.randint(1, 2))
        for fmt in ("simple", "aiger"):
            c2 = parse_netlist(emit_netlist(c, fmt), fmt)
            for x in _input_combos(c):
                x2 = dict(zip(c2.inputs, (x[v] for v in c.inputs)))
                z1, _ = simulate(c, x)
                z2, _ = simulate(c2, x2)
                if [z1[v] for v in c.outputs] != [z2[v] for v in c2.outputs]:
                    failures += 1
                    break
    return failures


def _check_encoding(rng: random.Random, instances: int) -> int:
    failures = 0
    for _ in range(instances):
        c = random_circuit(rng, rng.randint(2, 5), rng.randint(2, 8))
        f = encode_circuit(c)
        s = solver_for(f)
        for x in _input_combos(c):
            res = s.solve([Lit(v, neg=(b == 0)) for v, b in x.items()])
            if not res.is_sat:
                failures += 1
                break
            val = {**x}
            exp = simulate(c, x)[0]
            if any(res.model[v] != exp[v] for v in c.outputs):
                failures += 1
                break
    return failures


def _check_pqe(rng: random.Random, instances: int) -> int:
    """CEGAR answers (expansion-miter search) against enumeration, each
    compset policy in turn on a random gate."""
    failures = 0
    for k in range(instances):
        c = random_circuit(rng, rng.randint(2, 4), rng.randint(2, 6))
        f = encode_circuit(c)
        m = policy_mutation(f, rng.choice(sorted(f.groups)),
                            COMPSET_POLICIES[k % len(COMPSET_POLICIES)])
        problem = problem_from_split(apply_mutation(f, m), original=f)
        sol = pqe_cegar(problem)
        if not verify_solution(problem, sol.clauses):
            failures += 1
    return failures


def _check_atpg(rng: random.Random, instances: int) -> int:
    failures = 0
    for _ in range(instances):
        c = random_circuit(rng, rng.randint(2, 4), rng.randint(2, 6))
        for g in c.gates:
            for value in (0, 1):
                mutant = fault_circuit(c, g.output, value)
                diff = None
                for x in _input_combos(c):
                    if simulate(c, x)[0] != simulate(mutant, x)[0]:
                        diff = x
                        break
                tv = atpg_stuck_at(c, g.output, value)
                if (tv is None) != (diff is None):
                    failures += 1
                    continue
                if tv is not None:
                    if simulate(c, tv.inputs)[0] == simulate(mutant, tv.inputs)[0]:
                        failures += 1
    return failures


def _check_unroll(rng: random.Random, instances: int) -> int:
    failures = 0
    for _ in range(instances):
        c = random_sequential(rng, 2, rng.randint(2, 5), rng.randint(1, 2))
        n = rng.randint(1, 3)
        u = unroll(c, n)
        s = solver_for(u.formula)
        presents = [lt.present for lt in c.latches]
        for bits in product((0, 1), repeat=n * len(c.inputs)):
            xs = [dict(zip(c.inputs, bits[k * len(c.inputs):(k + 1) * len(c.inputs)]))
                  for k in range(n)]
            state = {lt.present: (lt.init if lt.init is not None else 0)
                     for lt in c.latches}
            first = dict(state)
            for x in xs:
                _, state = simulate(c, x, state)
            assume = []
            for k, x in enumerate(xs):
                assume += [Lit(u.frame_vars[k][v], neg=(b == 0))
                           for v, b in x.items()]
            assume += [Lit(u.frame_vars[0][p], neg=(first[p] == 0)) for p in presents]
            res = s.solve(assume)
            if not res.is_sat:
                failures += 1
                break
            got = {p: res.model[u.final_states[i]] for i, p in enumerate(presents)}
            if got != state:
                failures += 1
                break
    return failures


CHECKS = (
    ("netlist-roundtrip", _check_roundtrip),
    ("encoding-vs-simulation", _check_encoding),
    ("pqe-equivalence", _check_pqe),
    ("atpg-vs-exhaustive", _check_atpg),
    ("unroll-vs-replay", _check_unroll),
)


def run_selftest(seed: int = 0, instances: int = 5) -> dict:
    checks = []
    passed = True
    for name, fn in CHECKS:
        rng = random.Random(f"{seed}:{name}")
        failures = fn(rng, instances)
        checks.append({"name": name, "instances": instances, "failures": failures})
        if failures:
            passed = False
    return {"seed": seed, "checks": checks, "passed": passed}
