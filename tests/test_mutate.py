import random
from itertools import product

import pytest

from falseprops.cnf import clause, encode_circuit, neg, pos
from falseprops.mutate import (MutationError, apply_mutation, clause_flip,
                               enumerate_mutations, gate_subst, stuck_at,
                               substitution_kinds)
from falseprops.netlist import parse_netlist
from falseprops.randcirc import random_circuit, random_mutation

from util import and1, eval_full, random_cnf, twogate


def lit_sets(cls):
    return {frozenset(c.lits) for c in cls}


def test_gate_subst_and_to_or():
    f = encode_circuit(and1())
    m = gate_subst(f, 2, "OR")
    assert m.kind == "gate-subst" and m.new_kind == "OR" and not m.identity
    assert m.group == (0, 1, 2)
    assert lit_sets(m.gstar) == lit_sets([clause(neg(0), pos(2)),
                                          clause(neg(1), pos(2)),
                                          clause(pos(0), pos(1), neg(2))])


def test_gate_subst_identity_flag():
    f = encode_circuit(and1())
    assert gate_subst(f, 2, "AND").identity
    assert not gate_subst(f, 2, "NAND").identity


def test_gate_subst_errors():
    f = encode_circuit(and1())
    with pytest.raises(MutationError, match="no gate"):
        gate_subst(f, 0, "OR")
    with pytest.raises(MutationError, match="unknown gate kind"):
        gate_subst(f, 2, "MAJ")
    with pytest.raises(MutationError, match="cannot take"):
        gate_subst(f, 2, "NOT")


def test_gate_subst_semantics():
    c = twogate()
    f = encode_circuit(c)
    for kind in substitution_kinds(c.gate_of[3]):
        split = apply_mutation(f, gate_subst(f, 3, kind))
        for bits in product((0, 1), repeat=5):
            env = dict(zip(range(5), bits))
            want = eval_full(c, {0: bits[0], 1: bits[1], 2: bits[2]},
                             subst=(3, kind))
            consistent = env[3] == want[3] and env[4] == want[4]
            got = all(cl.satisfied_by(env) for cl in split.formula.clauses)
            assert got == consistent


def test_stuck_at_clause_surgery():
    f = encode_circuit(and1())
    m0 = stuck_at(f, 2, 0)
    assert m0.kind == "stuck-at-0" and not m0.identity
    assert lit_sets(m0.gstar) == lit_sets([clause(pos(0), neg(2)),
                                           clause(pos(1), neg(2)),
                                           clause(neg(0), neg(1), neg(2))])
    m1 = stuck_at(f, 2, 1)
    assert lit_sets(m1.gstar) == lit_sets([clause(pos(0), pos(2)),
                                           clause(pos(1), pos(2)),
                                           clause(neg(0), neg(1), pos(2))])


@pytest.mark.parametrize("kind", ["AND", "OR", "NAND", "NOR", "XOR", "XNOR",
                                  "NOT", "BUF"])
@pytest.mark.parametrize("value", [0, 1])
def test_stuck_at_means_output_equals_value(kind, value):
    arity = 1 if kind in ("NOT", "BUF") else 2
    args = ", ".join(f"i{j}" for j in range(arity))
    ins = " ".join(f"i{j}" for j in range(arity))
    c = parse_netlist(f"input {ins}; o = {kind}({args}); output o;")
    f = encode_circuit(c)
    out = c.id_of["o"]
    m = stuck_at(f, out, value)
    for bits in product((0, 1), repeat=arity + 1):
        env = dict(zip(range(arity + 1), bits))
        got = all(cl.satisfied_by(env) for cl in m.gstar)
        assert got == (env[out] == value)


def test_stuck_at_const_identity():
    c = parse_netlist("input a; k = CONST1(); z = AND(a, k); output z;")
    f = encode_circuit(c)
    kid = c.id_of["k"]
    assert stuck_at(f, kid, 1).identity
    assert not stuck_at(f, kid, 0).identity


def test_stuck_at_duplicate_fanin_parity():
    c = parse_netlist("input a; z = XOR(a, a); output z;")
    f = encode_circuit(c)
    m = stuck_at(f, 1, 1)
    for a, z in product((0, 1), repeat=2):
        env = {0: a, 1: z}
        assert all(cl.satisfied_by(env) for cl in m.gstar) == (z == 1)


def test_stuck_at_bad_value():
    f = encode_circuit(and1())
    with pytest.raises(MutationError, match="0 or 1"):
        stuck_at(f, 2, 2)


def test_clause_flip_involution():
    f = encode_circuit(twogate())
    for ci in range(len(f.clauses)):
        orig = f.clauses[ci]
        for li in range(len(orig.lits)):
            m = clause_flip(f, ci, li)
            assert not m.identity and m.group == (ci,)
            flipped = m.gstar[0]
            assert flipped != orig
            back_li = flipped.lits.index(-orig.lits[li])
            relit = list(flipped.lits)
            relit[back_li] = -relit[back_li]
            assert clause(*relit) == orig


def test_clause_flip_owner_recorded():
    f = encode_circuit(twogate())
    assert clause_flip(f, 0, 0).target == 3
    assert clause_flip(f, 5, 0).target == 4


def test_clause_flip_errors():
    f = encode_circuit(and1())
    with pytest.raises(MutationError, match="clause index"):
        clause_flip(f, 9, 0)
    with pytest.raises(MutationError, match="literal index"):
        clause_flip(f, 0, 5)


def test_enumerate_twogate_counts():
    f = encode_circuit(twogate())
    # two 2-input gates: 5 substitutions each, 2 stuck values each,
    # 2+2+3 literal flips per 3-clause group
    assert len(enumerate_mutations(f, "all-gate-subst")) == 10
    assert len(enumerate_mutations(f, "all-stuck-at")) == 4
    assert len(enumerate_mutations(f, "all-clause-flips")) == 14
    assert len(enumerate_mutations(f, "mixed")) == 28


def test_enumerate_identity_and_duplicate_free():
    rng = random.Random(41)
    for _ in range(10):
        c = random_circuit(rng, 3, rng.randrange(2, 8))
        f = encode_circuit(c)
        ms = enumerate_mutations(f, "mixed")
        keys = [(m.group, frozenset(m.gstar)) for m in ms]
        assert len(set(keys)) == len(keys)
        assert not any(m.identity for m in ms)


def test_enumerate_order_by_gate():
    f = encode_circuit(twogate())
    targets = [m.target for m in enumerate_mutations(f, "all-stuck-at")]
    assert targets == [3, 3, 4, 4]


def test_enumerate_bad_policy():
    with pytest.raises(MutationError, match="unknown policy"):
        enumerate_mutations(encode_circuit(and1()), "everything")


def test_enumerate_ungrouped_clauses_flippable():
    f = random_cnf(random.Random(2), 4, 5)
    ms = enumerate_mutations(f, "all-clause-flips")
    assert len(ms) == sum(len(c.lits) for c in f.clauses)
    assert all(m.target is None for m in ms)
    assert enumerate_mutations(f, "all-stuck-at") == []


def test_gstar_vars_stay_inside_group():
    rng = random.Random(8)
    for _ in range(30):
        c = random_circuit(rng, 4, rng.randrange(2, 9))
        f = encode_circuit(c)
        m = random_mutation(rng, f)
        allowed = set()
        for i in m.group:
            allowed |= f.clauses[i].vars
        for cl in m.gstar:
            assert cl.vars <= allowed


def test_random_mutation_never_identity_after_a_gate_subst():
    # the gate table still says AND after AND -> OR, so OR is drawn as an
    # alternative although it is the group's current encoding
    c = parse_netlist("input a b; z = AND(a, b); output z;")
    f = encode_circuit(c)
    f2 = apply_mutation(f, gate_subst(f, c.id_of["z"], "OR")).formula
    rng = random.Random(0)
    for _ in range(200):
        m = random_mutation(rng, f2, kinds=("gate-subst",))
        assert not m.identity and m.new_kind != "OR"


def test_mutation_json_uses_names():
    c = twogate()
    f = encode_circuit(c)
    d = stuck_at(f, 3, 0).to_json(c.names)
    assert d == {"kind": "stuck-at-0", "target": "y", "identity": False}
    d2 = gate_subst(f, 4, "XOR").to_json()
    assert d2["target"] == 4 and d2["new_kind"] == "XOR"
