import random
from itertools import product

import numpy as np
import pytest

from falseprops.cnf import Lit, clause, encode_circuit, formula, neg, pos
from falseprops.sat import (SAT, UNSAT, BudgetExceeded, Solver,
                            break_implication, implies, solve, solver_for)

from util import and1, random_cnf


def and1_formula():
    return encode_circuit(and1())


def test_contradiction_unsat_empty_core():
    res = solve(formula([clause(pos(0)), clause(neg(0))], num_vars=1))
    assert res.status == UNSAT
    assert res.core == ()


def test_and_under_assumptions():
    res = solve(and1_formula(), [pos(0), pos(1)])
    assert res.status == SAT
    assert res.model == {0: 1, 1: 1, 2: 1}


def test_model_is_total():
    res = solve(and1_formula())
    assert res.is_sat
    assert sorted(res.model) == [0, 1, 2]


def test_unsat_core_subset_of_assumptions():
    f = and1_formula()
    res = solve(f, [pos(0), pos(1), neg(2)])
    assert res.status == UNSAT
    assert set(res.core) <= {pos(0), pos(1), neg(2)}
    # the core really is unsatisfiable together with the formula
    assert solve(f, res.core).status == UNSAT


def test_core_includes_directly_failed_assumption():
    f = formula([clause(pos(0))], num_vars=2)
    res = solve(f, [neg(0)])
    assert res.status == UNSAT and neg(0) in res.core


def test_incremental_add_clause():
    s = solver_for(and1_formula())
    assert s.solve([pos(2)]).is_sat
    s.add_clause(clause(neg(2)))
    assert s.solve([pos(2)]).status == UNSAT
    assert s.solve([]).is_sat


def test_budget_exceeded_raised():
    rng = random.Random(11)
    # pigeonhole-like hard instance: random 3-CNF past the threshold
    f = random_cnf(rng, 40, 230)
    with pytest.raises(BudgetExceeded):
        solve(f, conflict_limit=1)


def _packed_var_bits(n_vars):
    idx = np.arange(1 << n_vars, dtype=np.uint32)
    return [np.packbits(((idx >> v) & 1).astype(bool)) for v in range(n_vars)]


def _enumerate_sat(f, var_bits):
    """Exhaustive satisfiability over all 2^n assignments, bit-packed."""
    acc = np.full(len(var_bits[0]), 0xFF, dtype=np.uint8)
    for c in f.clauses:
        cm = np.zeros_like(acc)
        for l in c.lits:
            cm |= ~var_bits[l.var] if l.neg else var_bits[l.var]
        acc &= cm
    return bool(acc.any())


def test_random_3cnf_agrees_with_enumeration():
    rng = random.Random(20)
    var_bits = _packed_var_bits(20)
    sat_seen = unsat_seen = 0
    for _ in range(200):
        m = rng.randrange(30, 110)
        f = random_cnf(rng, 20, m)
        res = solve(f)
        assert (res.status == SAT) == _enumerate_sat(f, var_bits)
        if res.is_sat:
            sat_seen += 1
            assert all(c.satisfied_by(res.model) for c in f.clauses)
        else:
            unsat_seen += 1
    assert sat_seen and unsat_seen  # the corpus exercises both answers


def test_implies_subsumption():
    f = formula([clause(pos(0))], num_vars=2)
    assert implies(f, clause(pos(0), pos(1)))


def test_implies_on_and_encoding():
    f = and1_formula()
    assert implies(f, clause(neg(2), pos(0)))
    assert not implies(f, clause(neg(2)))  # 1 AND 1 is a countermodel


def test_implies_matches_enumeration():
    rng = random.Random(7)
    for _ in range(50):
        f = random_cnf(rng, 6, rng.randrange(3, 14))
        c = clause(*[Lit(v, rng.random() < 0.5)
                     for v in rng.sample(range(6), 2)])
        want = all(c.satisfied_by(dict(enumerate(bits)))
                   for bits in product((0, 1), repeat=6)
                   if all(cl.satisfied_by(dict(enumerate(bits)))
                          for cl in f.clauses))
        assert implies(f, c) == want


def test_break_implication_empty_q():
    assert break_implication(and1_formula(), []) is None


def test_break_implication_finds_breaker():
    f = and1_formula()
    q = [clause(neg(2), pos(0)), clause(pos(2), pos(0), pos(1))]
    i, model = break_implication(f, q)
    assert i == 1  # the first clause is implied, the second is not
    assert all(c.satisfied_by(model) for c in f.clauses)
    assert not q[1].satisfied_by(model)


def test_break_implication_returns_first_breaker_index():
    f = and1_formula()
    implied = clause(neg(2), pos(0))
    q = [implied, implied, clause(neg(0)), clause(neg(1)), clause(neg(2))]
    i, model = break_implication(f, q)
    assert i == 2
    assert model[0] == 1 and not q[2].satisfied_by(model)
    assert break_implication(f, q[3:])[0] == 0


def test_break_implication_none_when_implied():
    f = and1_formula()
    assert break_implication(f, [clause(neg(2), pos(0)),
                                 clause(neg(2), pos(1))]) is None


def test_solver_rejects_out_of_range():
    s = Solver(2)
    with pytest.raises(ValueError):
        s.add_clause(clause(pos(5)))
    with pytest.raises(ValueError):
        s.solve([pos(5)])


def test_determinism():
    rng = random.Random(5)
    fs = [random_cnf(rng, 12, rng.randrange(10, 55)) for _ in range(30)]
    runs = []
    for _ in range(2):
        runs.append([(solve(f).status, solve(f).model) for f in fs])
    assert runs[0] == runs[1]
