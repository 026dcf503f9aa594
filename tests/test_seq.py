import random
from itertools import product

import pytest

from falseprops.cnf import clause, neg, pos
from falseprops.cnf import Lit
from falseprops.mutate import stuck_at
from falseprops.netlist import parse_netlist, simulate
from falseprops.pqe import pqe_cegar, qe_enumerate, verify_solution
from falseprops.randcirc import random_mutation, random_sequential
from falseprops.sat import BudgetExceeded, solve
from falseprops.seq import (SeqError, false_safety_prop, find_counterexample,
                            format_trace, reach_oracle, seq_compset,
                            seq_problem, unroll)
from falseprops.verify import (Property, Specification, VerifyError,
                               parse_property_file)

TWO = ("circuit two; input en; latch s ns init 0; latch t nt init 0; "
       "ns = XOR(en, s); nt = AND(en, ns); output ns;")
TOGGLE = "circuit toggle; input en; latch s ns init 0; ns = XOR(en, s); output ns;"
MOD3 = ("circuit mod3; latch s0 n0 init 0; latch s1 n1 init 0; "
        "n0 = NOR(s0, s1); n1 = BUF(s0); output n0;")


def toggle():
    return parse_netlist(TOGGLE)


def mod3():
    return parse_netlist(MOD3)


def final_rows(u):
    """States reachable in exactly n steps, read off the unrolling."""
    tbl = qe_enumerate(u.formula, u.quantified)
    pos_of = {v: i for i, v in enumerate(tbl.variables)}
    return {tuple(row[pos_of[v]] for v in u.final_states) for row in tbl.rows}


# -- unrolling ----------------------------------------------------------------

def test_unroll_shape():
    u = unroll(toggle(), 2)
    vm = u.formula.varmap
    assert vm.names == ("s@1", "en@1", "ns@1", "en@2", "ns@2")
    assert vm.roles == ("s", "x", "y", "x", "sn")
    assert vm.frames == (1, 1, 1, 2, 2)
    assert u.initial_states == (0,) and u.final_states == (4,)
    assert [str(u.formula.clauses[i]) for i in u.i1] == ["(-0)"]
    assert len(u.frame_clauses) == 2
    assert u.quantified == {0, 1, 2, 3}


def test_unroll_rejects_bad_input():
    with pytest.raises(SeqError, match="sequential"):
        unroll(parse_netlist("input a; z = BUF(a); output z;"), 1)
    with pytest.raises(SeqError, match="positive"):
        unroll(toggle(), 0)


def test_unroll_models_replay():
    c = toggle()
    for n in (1, 2, 3):
        u = unroll(c, n)
        vm = u.formula.varmap
        for bits in product((0, 1), repeat=n):
            assume = [Lit(u.frame_vars[k][c.inputs[0]], neg=(bits[k] == 0))
                      for k in range(n)]
            res = solve(u.formula, assume)
            assert res.is_sat
            state = {1: 0}
            for k in range(n):
                _, state = simulate(c, {0: bits[k]}, state)
            assert res.model[u.final_states[0]] == state[1]


def test_unroll_projection_equals_reach_frame():
    for text, n in ((TOGGLE, 1), (TOGGLE, 2), (MOD3, 1), (MOD3, 2), (MOD3, 3)):
        c = parse_netlist(text)
        u = unroll(c, n)
        r = reach_oracle(c, min_frames=n)
        assert final_rows(u) == set(r.frames[n])


def test_unroll_shared_next_signal():
    c = parse_netlist("input a; latch p d init 0; latch q d init 1; "
                      "d = XOR(a, p); output d;")
    u = unroll(c, 2)
    assert u.final_states[0] == u.final_states[1]
    m = stuck_at(u.template, c.id_of["d"], 0)
    p = seq_problem(u, m)
    assert p.free == (u.final_states[0],)


# -- property extraction -----------------------------------------------------

def test_false_safety_prop_toggle():
    u = unroll(toggle(), 1)
    m = stuck_at(u.template, 2, 0)
    prop, sol = false_safety_prop(u, m)
    assert prop.clauses == (clause(neg(1)),)  # "s stays 0", false after one tick
    assert not sol.partial


def test_seq_problem_satisfies_equivalence():
    u = unroll(toggle(), 2)
    m = stuck_at(u.template, 2, 0)
    p = seq_problem(u, m, frame=2)
    assert verify_solution(p, pqe_cegar(p).clauses)


def test_fault_frame_placement():
    # a first-frame fault is masked by the healthy second frame;
    # the same fault in the final frame shows up in the property
    u = unroll(toggle(), 2)
    m = stuck_at(u.template, 2, 0)
    early, _ = false_safety_prop(u, m, frame=1)
    late, _ = false_safety_prop(u, m, frame=2)
    both, _ = false_safety_prop(u, m, replicate=True)
    assert early.clauses == ()
    assert late.clauses == (clause(neg(1)),)
    assert both.clauses == (clause(neg(1)),)


def test_seq_problem_frame_range():
    u = unroll(toggle(), 1)
    m = stuck_at(u.template, 2, 0)
    with pytest.raises(SeqError, match="frame"):
        seq_problem(u, m, frame=2)


def test_seq_problem_random_equivalence():
    rng = random.Random(71)
    done = 0
    while done < 15:
        c = random_sequential(rng, rng.randrange(1, 3), rng.randrange(2, 6),
                              rng.randrange(1, 3))
        n = rng.randrange(1, 4)
        u = unroll(c, n)
        m = random_mutation(rng, u.template)
        p = seq_problem(u, m, frame=rng.randrange(1, n + 1),
                        replicate=rng.random() < 0.5)
        assert verify_solution(p, pqe_cegar(p).clauses)
        done += 1


# -- counterexamples ----------------------------------------------------------

def test_find_counterexample_toggle():
    c = toggle()
    u = unroll(c, 1)
    m = stuck_at(u.template, 2, 0)
    prop, _ = false_safety_prop(u, m)
    cex = find_counterexample(u, prop)
    assert cex.states == ({1: 0}, {1: 1})
    assert cex.inputs == ({0: 1},)
    assert cex.broken_clause == 0


def test_find_counterexample_none_for_true_prop():
    u = unroll(toggle(), 1)
    assert find_counterexample(u, Property((clause(pos(1), neg(1)),))) is None
    assert find_counterexample(u, Property(())) is None


def test_find_counterexample_rejects_non_state():
    u = unroll(toggle(), 1)
    with pytest.raises(SeqError, match="non-state"):
        find_counterexample(u, Property((clause(pos(0)),)))
    # every clause is checked before the search, even one after a breaker
    assert find_counterexample(u, Property((clause(neg(1)),))) is not None
    with pytest.raises(SeqError, match="non-state"):
        find_counterexample(u, Property((clause(neg(1)), clause(pos(0)))))


def test_trace_json_and_rendering():
    c = toggle()
    u = unroll(c, 1)
    prop, _ = false_safety_prop(u, stuck_at(u.template, 2, 0))
    cex = find_counterexample(u, prop)
    assert cex.to_json(c) == {"states": [{"s": 0}, {"s": 1}],
                              "inputs": [{"en": 1}], "broken_clause": 0}
    assert format_trace(cex, c) == ("       1   2\n"
                                    "s      0   1\n"
                                    "en     1   -")


def test_counterexamples_replay_on_random_circuits():
    rng = random.Random(19)
    found = 0
    for _ in range(20):
        c = random_sequential(rng, rng.randrange(1, 3), rng.randrange(2, 6),
                              rng.randrange(1, 3))
        u = unroll(c, rng.randrange(1, 3))
        m = random_mutation(rng, u.template)
        prop, sol = false_safety_prop(u, m)
        if sol.partial or not prop.clauses:
            continue
        cex = find_counterexample(u, prop)  # replay-validated internally
        if cex is None:
            continue
        found += 1
        state = dict(cex.states[0])
        for k, x in enumerate(cex.inputs):
            _, state = simulate(c, x, state)
            assert state == cex.states[k + 1]
        assert not prop.clauses[cex.broken_clause].satisfied_by(state)
    assert found >= 5


# -- reachability -------------------------------------------------------------

def test_reach_mod3():
    r = reach_oracle(mod3())
    assert [set(fr) for fr in r.frames[:3]] == \
        [{(0, 0)}, {(1, 0)}, {(0, 1)}]
    assert r.reachable == {(0, 0), (1, 0), (0, 1)}
    assert r.diameter == 2


def test_reach_toggle():
    r = reach_oracle(toggle())
    assert r.reachable == {(0,), (1,)}
    assert r.diameter == 1


def test_reach_unconstrained_init():
    c = parse_netlist("input a; latch s ns init x; ns = XOR(a, s); output ns;")
    r = reach_oracle(c)
    assert set(r.frames[0]) == {(0,), (1,)}
    assert r.diameter == 0


def test_reach_min_frames():
    r = reach_oracle(toggle(), min_frames=5)
    assert len(r.frames) >= 6
    assert r.diameter == 1


def test_reach_guards():
    with pytest.raises(SeqError, match="states exceed"):
        reach_oracle(mod3(), max_states=2)
    c = parse_netlist("input a b; latch s ns init 0; ns = AND(a, b); output ns;")
    with pytest.raises(SeqError, match="input patterns"):
        reach_oracle(c, max_states=2)
    with pytest.raises(SeqError, match="sequential"):
        reach_oracle(parse_netlist("input a; z = BUF(a); output z;"))


# -- the sequential complete-set builder --------------------------------------

def test_seq_compset_toggle():
    rep = seq_compset(Specification(), toggle(), 1)
    assert rep.gates_processed == (2,)
    assert rep.gate_status[0]["status"] == "false-prop"
    assert [str(c) for p in rep.false_props for c in p.clauses] == ["(-1)"]
    assert len(rep.traces) == 1
    assert not rep.bugs and not rep.skipped


def test_seq_compset_golden_self_clean():
    rep = seq_compset(Specification(golden=toggle()), toggle(), 1)
    assert not rep.bugs


def test_seq_compset_golden_bug():
    impl = toggle()
    golden = parse_netlist("circuit toggle; input en; latch s ns init 0; "
                           "ns = XNOR(en, s); output ns;")
    rep = seq_compset(Specification(golden=golden), impl, 1)
    assert rep.bugs and rep.bugs[0].kind == "golden"
    assert rep.bug_trace is not None


def test_seq_compset_hard_property_bug():
    c = toggle()
    hard = parse_property_file('[{"name": "stay-zero", "clauses": [["-s"]]}]', c)
    rep = seq_compset(Specification(hard=hard), c, 1)
    assert rep.bugs and rep.bugs[0].kind == "hard-property"
    assert rep.bugs[0].detail == "stay-zero"
    final = rep.bug_trace.states[-1]
    assert final == {1: 1}


def test_seq_compset_continue_after_bug_records_every_bug():
    c = parse_netlist(TWO)
    hard = parse_property_file('[{"name": "s-low", "clauses": [["-s"]]}]', c)
    spec = Specification(hard=hard)
    ns, nt = c.id_of["ns"], c.id_of["nt"]
    first = seq_compset(spec, c, 1)
    assert [b.gate for b in first.bugs] == [ns]
    assert first.gates_processed == (ns,)
    rep = seq_compset(spec, c, 1, continue_after_bug=True)
    assert [(b.kind, b.detail, b.gate) for b in rep.bugs] == \
        [("hard-property", "s-low", ns), ("hard-property", "s-low", nt)]
    assert [(r["gate"], r["status"], r["property"]) for r in rep.gate_status] \
        == [(ns, "false-prop", 0), (nt, "false-prop", 1)]
    assert all(b.test.states[-1][c.id_of["s"]] == 1 for b in rep.bugs)
    assert rep.bug_trace is rep.bugs[0].test
    assert not rep.traces and not rep.skipped
    d = rep.to_json()
    assert [(b["gate"], b["trace"]["states"][-1]) for b in d["bugs"]] == \
        [("ns", {"s": 1, "t": 1}), ("nt", {"s": 1, "t": 1})]


def test_seq_compset_keeps_one_trace_per_input_sequence():
    c = parse_netlist(TWO)
    rep = seq_compset(Specification(), c, 1)
    assert [r["status"] for r in rep.gate_status] == ["false-prop"] * 2
    assert len(rep.false_props) == 2
    assert [t.inputs for t in rep.traces] == [({c.id_of["en"]: 1},)]


def test_seq_compset_hard_property_must_be_state():
    c = toggle()
    hard = parse_property_file('[[["en"]]]', c)
    with pytest.raises(VerifyError, match="state pins"):
        seq_compset(Specification(hard=hard), c, 1)


def test_seq_compset_golden_signature():
    golden = parse_netlist("input a b; latch s ns init 0; ns = AND(a, b); "
                           "output ns;")
    with pytest.raises(VerifyError, match="signature"):
        seq_compset(Specification(golden=golden), toggle(), 1)
    with pytest.raises(VerifyError, match="sequential"):
        seq_compset(Specification(
            golden=parse_netlist("input a; z = BUF(a); output z;")),
            toggle(), 1)


def test_seq_compset_budget_skips():
    rep = seq_compset(Specification(), toggle(), 1, conflict_limit=0)
    assert rep.skipped == [2]
    assert rep.gate_status[0]["status"] == "skipped"


def test_seq_compset_counterexample_budget_skips():
    # the safety property for g1 stuck-at-0 fits in one conflict per
    # solve; searching its counterexample does not, and the gate is skipped
    c = parse_netlist("input x0 x1; output g3; latch q0 g2 init 1; "
                      "g3 = XNOR(x0, x1); g0 = AND(x0, x1); g1 = OR(g0, x0); "
                      "g2 = AND(q0, g1);")
    u = unroll(c, 2)
    g1 = c.id_of["g1"]
    prop, sol = false_safety_prop(u, stuck_at(u.template, g1, 0),
                                  conflict_limit=1)
    assert not sol.partial
    with pytest.raises(BudgetExceeded):
        find_counterexample(u, prop, conflict_limit=1)
    rep = seq_compset(Specification(), c, 2, policy="stuck-at",
                      conflict_limit=1)
    assert g1 in rep.skipped
    status = {r["gate"]: r["status"] for r in rep.gate_status}
    assert status[g1] == "skipped"


def test_seq_compset_calls_hooks_through_the_module_once_per_gate(monkeypatch):
    # benchmarks and tracers replace these two functions to observe each
    # verdict; the per-gate loop must look them up in seq at call time
    import falseprops.seq as seq_mod
    calls = {"false_safety_prop": 0, "find_counterexample": 0}
    for name in calls:
        def counting(*args, _real=getattr(seq_mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(seq_mod, name, counting)
    rng = random.Random(32)
    for policy in ("stuck-at", "gate-subst", "clause-flip"):
        c = random_sequential(rng, 2, 6, 2)
        for name in calls:
            calls[name] = 0
        rep = seq_compset(Specification(), c, 2, policy=policy)
        assert not rep.skipped
        assert calls == {"false_safety_prop": len(c.gates),
                         "find_counterexample": len(c.gates)}
        assert len(rep.gate_status) == len(c.gates)


def test_seq_compset_json_shape():
    rep = seq_compset(Specification(), toggle(), 1)
    d = rep.to_json()
    assert d["circuit"] == "toggle" and d["frames"] == 1
    assert d["gates"][0]["gate"] == "ns"
    assert d["false_properties"][0]["clauses"] == [["-s"]]
    assert d["traces"][0]["states"] == [{"s": 0}, {"s": 1}]


def test_seq_compset_requires_sequential():
    with pytest.raises(SeqError, match="sequential"):
        seq_compset(Specification(),
                    parse_netlist("input a; z = BUF(a); output z;"), 1)
