import random
from itertools import product

import pytest

from falseprops.cnf import (CnfError, Lit, clause, encode_circuit,
                            encode_gate, export_dimacs, formula, neg, pos,
                            replace_group)
from falseprops.netlist import GATE_KINDS, Gate, eval_gate, parse_netlist, simulate
from falseprops.randcirc import random_circuit

from util import and1, twogate


def lits(*pairs):
    return frozenset(Lit(v, n) for v, n in pairs)


def clause_sets(cls):
    return {frozenset(c.lits) for c in cls}


def test_and_gate_encoding_exact():
    got = clause_sets(encode_gate(Gate("AND", (0, 1), 2)))
    want = {lits((0, False), (2, True)),
            lits((1, False), (2, True)),
            lits((0, True), (1, True), (2, False))}
    assert got == want


def test_buf_encoding_exact():
    got = clause_sets(encode_gate(Gate("BUF", (0,), 1)))
    assert got == {lits((0, False), (1, True)), lits((0, True), (1, False))}


def test_xor_encoding_four_clauses():
    cls = encode_gate(Gate("XOR", (0, 1), 2))
    assert len(cls) == 4
    for bits in product((0, 1), repeat=3):
        env = {0: bits[0], 1: bits[1], 2: bits[2]}
        consistent = bits[2] == bits[0] ^ bits[1]
        assert all(c.satisfied_by(env) for c in cls) == consistent


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_encoding_matches_truth_table(kind):
    arity = {"NOT": 1, "BUF": 1, "CONST0": 0, "CONST1": 0}.get(kind, 2)
    fanins = tuple(range(arity))
    g = Gate(kind, fanins, arity)
    cls = encode_gate(g)
    # standard clause counts: k+1 for the monotone kinds, 2^k rows for parity
    if kind in ("AND", "OR", "NAND", "NOR"):
        assert len(cls) == arity + 1
    for bits in product((0, 1), repeat=arity + 1):
        env = dict(zip(range(arity + 1), bits))
        consistent = env[arity] == eval_gate(kind, [env[v] for v in fanins])
        assert all(c.satisfied_by(env) for c in cls) == consistent


def test_encoding_repeated_fanin():
    for kind in ("AND", "OR", "NAND", "NOR", "XOR", "XNOR"):
        cls = encode_gate(Gate(kind, (0, 0), 1))
        for a in (0, 1):
            for o in (0, 1):
                env = {0: a, 1: o}
                consistent = o == eval_gate(kind, (a, a))
                assert all(c.satisfied_by(env) for c in cls) == consistent


def test_no_tautologies_in_encodings():
    rng = random.Random(3)
    for _ in range(20):
        c = random_circuit(rng, 4, 10)
        for cl in encode_circuit(c).clauses:
            assert not cl.is_tautology


def test_encode_and1_roles_and_clauses():
    f = encode_circuit(and1())
    assert len(f.clauses) == 3
    assert f.varmap.with_role("x") == (0, 1)
    assert f.varmap.with_role("z") == (2,)
    assert f.varmap.with_role("y") == ()


def test_encode_twogate_groups():
    f = encode_circuit(twogate())
    assert len(f.clauses) == 6
    assert f.varmap.with_role("y") == (3,)
    assert sorted(f.groups) == [3, 4]
    assert f.group(3) == (0, 1, 2)
    assert f.group(4) == (3, 4, 5)
    with pytest.raises(CnfError):
        f.group(0)


def test_encode_models_match_simulation():
    c = twogate()
    f = encode_circuit(c)
    for bits in product((0, 1), repeat=5):
        env = dict(zip(range(5), bits))
        val = simulate(c, {v: env[v] for v in c.inputs})[0]
        consistent = env[3] == (env[0] & env[1]) and env[4] == (env[3] | env[2])
        assert all(cl.satisfied_by(env) for cl in f.clauses) == consistent


def test_outputs_through_buf_satisfying_count():
    c = parse_netlist("input a b; za = BUF(a); zb = BUF(b); output za zb;")
    f = encode_circuit(c)
    n = sum(all(cl.satisfied_by(dict(zip(range(4), bits))) for cl in f.clauses)
            for bits in product((0, 1), repeat=4))
    assert n == 4  # one model per input assignment


def test_replace_group_and_to_or():
    c = twogate()
    f = encode_circuit(c)
    split = replace_group(f, f.group(3), encode_gate(Gate("OR", (0, 1), 3)))
    assert len(split.formula.clauses) == 6
    assert len(split.gstar) == 3 and len(split.fprime) == 3
    for bits in product((0, 1), repeat=5):
        env = dict(zip(range(5), bits))
        consistent = env[3] == (env[0] | env[1]) and env[4] == (env[3] | env[2])
        got = all(cl.satisfied_by(env) for cl in split.formula.clauses)
        assert got == consistent


def test_replace_group_keeps_remainder():
    f = encode_circuit(twogate())
    orig_or = [f.clauses[i] for i in f.group(4)]
    split = replace_group(f, f.group(3), encode_gate(Gate("NAND", (0, 1), 3)))
    kept = [split.formula.clauses[i] for i in split.fprime]
    assert kept == orig_or


def test_replace_group_stuck_at_polarity():
    # forcing the output literal everywhere flips only the unate clause
    f = encode_circuit(and1())
    flipped = clause(neg(0), neg(1), neg(2))
    split = replace_group(f, (2,), (flipped,))
    got = clause_sets(split.formula.clauses)
    assert clause_sets([clause(pos(0), neg(2)), clause(pos(1), neg(2)), flipped]) == got


def test_replace_group_identity_equivalent():
    f = encode_circuit(twogate())
    split = replace_group(f, f.group(3), [f.clauses[i] for i in f.group(3)])
    for bits in product((0, 1), repeat=5):
        env = dict(zip(range(5), bits))
        a = all(cl.satisfied_by(env) for cl in f.clauses)
        b = all(cl.satisfied_by(env) for cl in split.formula.clauses)
        assert a == b


def test_replace_group_rejects_new_variables():
    f = encode_circuit(and1())
    with pytest.raises(CnfError, match="unregistered"):
        replace_group(f, (0,), (clause(pos(7)),))


def test_clause_normalization():
    cl = clause(pos(3), pos(1), pos(3))
    assert cl.lits == (Lit(1), Lit(3))
    assert clause(pos(1), neg(1)).is_tautology


def test_dimacs_export_and1():
    f = encode_circuit(and1())
    text = export_dimacs(f)
    lines = text.splitlines()
    assert "p cnf 3 3" in lines
    assert "c role x 1 2" in lines
    assert "c role z 3" in lines
    assert "c group 2 0 1 2" in lines
    assert "1 -3 0" in lines and "2 -3 0" in lines and "-1 -2 3 0" in lines


def test_dimacs_empty_formula():
    assert "p cnf 0 0" in export_dimacs(formula([], num_vars=0))


