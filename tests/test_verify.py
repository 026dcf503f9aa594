import random

import pytest

from falseprops.cnf import clause, encode_circuit, neg, pos
from falseprops.mutate import apply_mutation, stuck_at
from falseprops.netlist import parse_netlist
from falseprops.pqe import pqe_cegar, problem_from_split
from falseprops.randcirc import random_circuit
from falseprops.sat import BudgetExceeded
from falseprops.verify import (STATUS_FALSE, STATUS_TRUE, Specification,
                               VerifyError, atpg_stuck_at, classify_property,
                               cleanup_clauses, compset, joint_test,
                               parse_property_file, policy_mutation)

from util import (and1, detect_set, eval_full, input_combos, outputs_of,
                  twogate)


def cegar_property(f, gate_id, value):
    split = apply_mutation(f, stuck_at(f, gate_id, value))
    sol = pqe_cegar(problem_from_split(split, original=f), )
    return classify_property(f, sol.clauses)


# -- classification ----------------------------------------------------------

def test_classify_true_property():
    f = encode_circuit(and1())
    p = classify_property(f, [clause(neg(2), pos(0))])
    assert p.status == STATUS_TRUE and p.witness is None


def test_classify_false_property_witness():
    f = encode_circuit(and1())
    p = classify_property(f, [clause(neg(2))])
    assert p.status == STATUS_FALSE
    assert p.witness.inputs == {0: 1, 1: 1}
    assert p.witness.outputs == {2: 1}
    assert p.witness.broken_clause == 0


def test_classify_reports_first_broken_clause():
    f = encode_circuit(and1())
    p = classify_property(f, [clause(neg(2), pos(0)), clause(neg(2))])
    assert p.status == STATUS_FALSE and p.witness.broken_clause == 1


def test_classify_splits_spurious():
    f = encode_circuit(and1())
    p = classify_property(f, [clause(pos(0)), clause(neg(2))])
    assert p.spurious == (clause(pos(0)),)
    assert p.clauses == (clause(neg(2)),)
    assert p.status == STATUS_FALSE


def test_classify_all_spurious_still_false():
    # The circuit accepts the input 00, so a property forbidding it is false
    # even though no emitted clause survives the input-only filter.
    f = encode_circuit(and1())
    p = classify_property(f, [clause(pos(0), pos(1))])
    assert p.status == STATUS_FALSE and p.clauses == ()
    assert p.spurious == (clause(pos(0), pos(1)),)
    assert p.witness.inputs == {0: 0, 1: 0}
    assert p.witness.outputs == {2: 0}
    assert p.witness.broken_clause is None


def test_classify_rejects_internal_variables():
    f = encode_circuit(twogate())
    with pytest.raises(VerifyError, match="non-interface"):
        classify_property(f, [clause(pos(3))])


def test_classify_empty_property_true():
    f = encode_circuit(and1())
    assert classify_property(f, []).status == STATUS_TRUE


def test_cleanup_clauses():
    taut = clause(pos(0), neg(0))
    dup = clause(pos(1))
    assert cleanup_clauses([taut, dup, dup, clause(neg(2))]) == \
        (dup, clause(neg(2)))


def test_witness_matches_simulation():
    c = twogate()
    f = encode_circuit(c)
    p = classify_property(f, [clause(neg(4))])
    x = dict(p.witness.inputs)
    assert outputs_of(c, eval_full(c, x)) == \
        tuple(p.witness.outputs[v] for v in c.outputs)


# -- property files ----------------------------------------------------------

def test_parse_property_file_forms():
    c = twogate()
    props = parse_property_file(
        '[{"name": "safe", "clauses": [["x3", "-z"]]}, [["~x1"]]]', c)
    assert [p.name for p in props] == ["safe", "p1"]
    assert props[0].clauses == (clause(pos(2), neg(4)),)
    assert props[1].clauses == (clause(neg(0)),)


def test_parse_property_file_errors():
    c = twogate()
    with pytest.raises(VerifyError, match="valid JSON"):
        parse_property_file("{", c)
    with pytest.raises(VerifyError, match="JSON list"):
        parse_property_file('{"clauses": []}', c)
    with pytest.raises(VerifyError, match="unknown pin"):
        parse_property_file('[[["nope"]]]', c)
    with pytest.raises(VerifyError, match="'clauses'"):
        parse_property_file('[{"name": "x"}]', c)


# -- complete property sets --------------------------------------------------

def test_compset_covers_every_gate():
    rep = compset(Specification(), twogate(), policy="stuck-at")
    assert rep.gates_processed == (3, 4)
    assert [r["status"] for r in rep.gate_status] == ["false-prop", "false-prop"]
    assert [tuple(str(c) for c in p.clauses) for p in rep.false_props] == \
        [("(2 -4)",), ("(-4)",)]
    assert [t.inputs for t in rep.tests] == \
        [{0: 1, 1: 1, 2: 0}, {0: 0, 1: 0, 2: 1}]
    assert not rep.bugs and not rep.skipped


def test_compset_policies_differ():
    for policy in ("stuck-at", "gate-subst", "clause-flip"):
        rep = compset(Specification(), twogate(), policy=policy)
        assert rep.gates_processed == (3, 4)
        for r in rep.gate_status:
            assert r["status"] in ("true-prop", "false-prop")


def test_compset_alias_policies():
    a = compset(Specification(), twogate(), policy="all-stuck-at")
    b = compset(Specification(), twogate(), policy="stuck-at")
    assert a.gate_status == b.gate_status


def test_compset_dedups_tests():
    # both mutations of the buffer chain break at the same input
    c = parse_netlist("input a; y = BUF(a); z = BUF(y); output z;")
    rep = compset(Specification(), c, policy="stuck-at")
    assert len(rep.gates_processed) == 2
    assert len(rep.tests) == len({t.input_key() for t in rep.tests})


def test_compset_golden_self_no_bug():
    c = twogate()
    rep = compset(Specification(golden=twogate()), c, policy="stuck-at")
    assert not rep.bugs
    assert len(rep.false_props) == 2


def test_compset_golden_discrepancy_bug():
    impl = parse_netlist("input a b; z = XOR(a, b); output z;")
    golden = parse_netlist("input a b; z = XNOR(a, b); output z;")
    rep = compset(Specification(golden=golden), impl, policy="stuck-at")
    assert rep.bugs and rep.bugs[0].kind == "golden"
    assert rep.bug_test is not None
    # the returned test really does expose the difference
    t = rep.bug_test
    got = eval_full(impl, dict(t.inputs))[impl.outputs[0]]
    want = eval_full(golden, {golden.inputs[i]: t.inputs[impl.inputs[i]]
                              for i in range(2)})[golden.outputs[0]]
    assert got != want
    assert len(rep.gate_status) == 1  # stopped at the first bug


def test_compset_hard_property_bug():
    impl = parse_netlist("input a b; z = NAND(a, b); output z;")
    hard = parse_property_file('[{"name": "no-ghost-one", '
                               '"clauses": [["a", "b", "-z"]]}]', impl)
    rep = compset(Specification(hard=hard), impl, policy="stuck-at")
    assert rep.bugs and rep.bugs[0].kind == "hard-property"
    assert rep.bugs[0].detail == "no-ghost-one"
    env = dict(rep.bug_test.inputs)
    env.update(rep.bug_test.outputs)
    assert not hard[0].clauses[0].satisfied_by(env)


def test_compset_continue_after_bug():
    impl = parse_netlist("input a b; y = XOR(a, b); z = BUF(y); output z;")
    golden = parse_netlist("input a b; y = XNOR(a, b); z = BUF(y); output z;")
    rep = compset(Specification(golden=golden), impl, policy="stuck-at",
                  continue_after_bug=True)
    assert len(rep.gate_status) == 2
    assert len(rep.bugs) == 2


def test_compset_budget_skips_gate():
    rep = compset(Specification(), twogate(), policy="gate-subst",
                  clause_budget=1)
    assert rep.skipped == [3, 4]
    assert [r["status"] for r in rep.gate_status] == ["skipped", "skipped"]
    assert not rep.false_props


def test_compset_classify_budget_skips_gate():
    # PQE for the stuck output fits in one conflict per solve; classifying
    # its property does not, and that gate is skipped, not a crashed run
    c = parse_netlist("input x0 x1 x2; g0 = XOR(x0, x2); g1 = XOR(x2, g0); "
                      "output g1;")
    f = encode_circuit(c)
    g1 = c.id_of["g1"]
    m = policy_mutation(f, g1, "stuck-at")
    sol = pqe_cegar(problem_from_split(apply_mutation(f, m), original=f),
                    conflict_limit=1)
    assert not sol.partial
    with pytest.raises(BudgetExceeded):
        classify_property(f, sol.clauses, m, conflict_limit=1)
    rep = compset(Specification(), c, policy="stuck-at", conflict_limit=1)
    assert g1 in rep.skipped
    status = {r["gate"]: r["status"] for r in rep.gate_status}
    assert status[g1] == "skipped"


def test_compset_rejects_sequential():
    c = parse_netlist("input a; latch s z; z = XOR(a, s); output z;")
    with pytest.raises(VerifyError, match="combinational"):
        compset(Specification(), c)


def test_compset_golden_signature_mismatch():
    golden = parse_netlist("input a; z = BUF(a); output z;")
    with pytest.raises(VerifyError, match="signature"):
        compset(Specification(golden=golden), twogate())


def test_compset_hard_property_pin_check():
    c = twogate()
    hard = parse_property_file('[[["y"]]]', c)
    with pytest.raises(VerifyError, match="non-interface"):
        compset(Specification(hard=hard), c)


def test_compset_calls_classify_through_the_module_once_per_gate(monkeypatch):
    # benchmarks and tracers replace verify.classify_property to observe
    # each verdict; the per-gate loop must look it up there at call time
    import falseprops.verify as verify_mod
    calls = []
    real = verify_mod.classify_property

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "classify_property", counting)
    rng = random.Random(31)
    for policy in ("stuck-at", "gate-subst", "clause-flip"):
        c = random_circuit(rng, 4, 8, n_outputs=2)
        calls.clear()
        rep = compset(Specification(), c, policy=policy)
        assert not rep.skipped
        assert len(calls) == len(rep.gate_status) == len(c.gates)


def test_compset_report_json_shape():
    rep = compset(Specification(), twogate(), policy="stuck-at")
    d = rep.to_json()
    assert d["gates"][0]["gate"] == "y"
    assert d["false_properties"][0]["clauses"] == [["x3", "-z"]]
    assert d["tests"][0]["inputs"] == {"x1": 1, "x2": 1, "x3": 0}
    assert d["bugs"] == [] and d["skipped"] == []


def test_policy_mutation_never_identity():
    c = parse_netlist("input a; k = CONST0(); z = OR(a, k); output z;")
    f = encode_circuit(c)
    m = policy_mutation(f, c.id_of["k"], "stuck-at")
    assert m.kind == "stuck-at-1" and not m.identity


# -- joint tests --------------------------------------------------------------

def test_joint_test_shared_breaker():
    c = twogate()
    f = encode_circuit(c)
    t = joint_test(f, cegar_property(f, 3, 0), cegar_property(f, 4, 0))
    assert t is not None
    assert t.inputs == {0: 1, 1: 1, 2: 0}


def test_joint_test_disjoint_none():
    f = encode_circuit(and1())
    assert joint_test(f, cegar_property(f, 2, 0),
                      cegar_property(f, 2, 1)) is None


def test_joint_test_matches_exhaustive():
    rng = random.Random(55)
    done = 0
    while done < 20:
        c = random_circuit(rng, rng.randrange(3, 6), rng.randrange(3, 9))
        f = encode_circuit(c)
        gids = sorted(f.groups)
        g1, g2 = rng.choice(gids), rng.choice(gids)
        v1, v2 = rng.randrange(2), rng.randrange(2)
        p1, p2 = cegar_property(f, g1, v1), cegar_property(f, g2, v2)
        if p1.status != STATUS_FALSE or p2.status != STATUS_FALSE:
            continue
        done += 1

        def breaks(p, x):
            env = eval_full(c, x)
            return any(not cl.satisfied_by(env) for cl in p.clauses)

        both = [x for x in input_combos(c) if breaks(p1, x) and breaks(p2, x)]
        t = joint_test(f, p1, p2)
        assert (t is not None) == bool(both)
        if t is not None:
            assert breaks(p1, dict(t.inputs)) and breaks(p2, dict(t.inputs))


# -- test generation for stuck-at faults --------------------------------------

def test_atpg_basic_and():
    t = atpg_stuck_at(and1(), 2, 0)
    assert t.inputs == {0: 1, 1: 1} and t.outputs == {2: 1}
    t1 = atpg_stuck_at(and1(), 2, 1)
    assert t1.inputs == {0: 0, 1: 0}


def test_atpg_redundant_fault_undetectable():
    c = parse_netlist("input a b; y = AND(a, b); z = OR(a, y); output z;")
    assert atpg_stuck_at(c, c.id_of["y"], 0) is None
    t = atpg_stuck_at(c, c.id_of["y"], 1)
    assert t is not None and t.inputs[c.id_of["a"]] == 0


def test_atpg_const_at_own_value():
    c = parse_netlist("input a; k = CONST1(); z = AND(a, k); output z;")
    assert atpg_stuck_at(c, c.id_of["k"], 1) is None
    assert atpg_stuck_at(c, c.id_of["k"], 0) is not None


def test_atpg_agrees_with_exhaustive_difference():
    rng = random.Random(23)
    for _ in range(15):
        c = random_circuit(rng, rng.randrange(2, 5), rng.randrange(2, 8))
        for g in c.gates:
            for v in (0, 1):
                t = atpg_stuck_at(c, g.output, v)
                dset = detect_set(c, g.output, v)
                assert (t is not None) == bool(dset)
                if t is not None:
                    key = tuple(t.inputs[i] for i in c.inputs)
                    assert key in dset
