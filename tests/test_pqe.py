import random
from itertools import product

import pytest

from falseprops.cnf import clause, encode_circuit, neg, pos
from falseprops.mutate import (apply_mutation, clause_flip, enumerate_mutations,
                               gate_subst, stuck_at)
from falseprops.pqe import (EnumerationBoundExceeded, PqeError, PqeProblem,
                            noise_filter,
                            pqe_cegar, pqe_oracle, problem_from_split,
                            qe_enumerate, verify_solution)
from falseprops.randcirc import random_circuit, random_mutation
from falseprops.netlist import parse_netlist

from util import and1, is_total, twogate


def and_stuck0_problem():
    f = encode_circuit(and1())
    return problem_from_split(apply_mutation(f, stuck_at(f, 2, 0)), original=f)


def test_qe_enumerate_no_quantified():
    f = encode_circuit(and1())
    tbl = qe_enumerate(f, ())
    assert tbl.variables == (0, 1, 2)
    assert tbl.rows == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)}


def test_qe_enumerate_hides_internal():
    f = encode_circuit(twogate())
    tbl = qe_enumerate(f, (3,))
    assert tbl.variables == (0, 1, 2, 4)
    want = {(a, b, c, (a & b) | c) for a, b, c in product((0, 1), repeat=3)}
    assert tbl.rows == want


def test_qe_enumerate_bound():
    f = encode_circuit(twogate())
    with pytest.raises(EnumerationBoundExceeded):
        qe_enumerate(f, (), bound=3)


def test_problem_partition_validated():
    f = encode_circuit(twogate())
    split = apply_mutation(f, stuck_at(f, 3, 0))
    with pytest.raises(PqeError, match="partition"):
        PqeProblem(split.formula, split.gstar, split.fprime,
                   frozenset({3}), (0, 1, 2))
    with pytest.raises(PqeError, match="overlap"):
        PqeProblem(split.formula, split.gstar, split.fprime,
                   frozenset({3, 4}), (0, 1, 2, 4))
    p = problem_from_split(split)
    assert p.quantified == {3}
    assert p.free == (0, 1, 2, 4)


def test_oracle_on_stuck_and():
    # a one-gate circuit leaves no remainder: the oracle keeps one clause
    # per lost row, and together they amount to "the output is never 1"
    p = and_stuck0_problem()
    sol = pqe_oracle(p)
    assert sol.certificate_checked
    assert sol.clauses == (clause(pos(0), pos(1), neg(2)),
                           clause(pos(0), neg(1), neg(2)),
                           clause(neg(0), pos(1), neg(2)),
                           clause(neg(0), neg(1), neg(2)))
    assert verify_solution(p, sol.clauses)


def test_cegar_generalizes_stuck_and():
    p = and_stuck0_problem()
    sol = pqe_cegar(p)
    assert sol.clauses == (clause(neg(2), origin="derived"),)
    assert not sol.partial and sol.trigger is None
    assert verify_solution(p, sol.clauses)


def test_cegar_early_stop_trigger():
    p = and_stuck0_problem()
    sol = pqe_cegar(p, early_stop=True)
    assert sol.partial
    assert sol.trigger == clause(neg(2))
    assert sol.trigger in sol.clauses


def test_early_stop_needs_original():
    f = encode_circuit(and1())
    p = problem_from_split(apply_mutation(f, stuck_at(f, 2, 0)))
    with pytest.raises(PqeError, match="original"):
        pqe_cegar(p, early_stop=True)


def test_early_stop_no_trigger_on_identity_behavior():
    # substituting an equivalent function never produces a trigger
    c = parse_netlist("input a; z = BUF(a); output z;")
    f = encode_circuit(c)
    split = apply_mutation(f, clause_flip(f, 0, 0))
    # flipped clause set is satisfiable but implies nothing new over (a, z)
    p = problem_from_split(split, original=f)
    sol = pqe_cegar(p, early_stop=True)
    for cl in sol.clauses:
        assert sol.trigger == cl or verify_solution(p, sol.clauses)


def test_dead_gate_gives_empty_solution():
    c = parse_netlist("input a b; u = AND(a, b); z = BUF(a); output z;")
    f = encode_circuit(c)
    gid = c.id_of["u"]
    p = problem_from_split(apply_mutation(f, stuck_at(f, gid, 1)), original=f)
    for engine in (pqe_oracle, pqe_cegar):
        sol = engine(p)
        assert sol.clauses == ()
        assert verify_solution(p, ())


def test_identity_mutation_solution_is_implied_by_original():
    # swapping in the same clause set moves G out of the scope unchanged;
    # the solution only restates facts of F, so no clause can be a trigger
    f = encode_circuit(twogate())
    from falseprops.cnf import replace_group
    split = replace_group(f, f.group(3), [f.clauses[i] for i in f.group(3)])
    p = problem_from_split(split, original=f)
    sol = pqe_cegar(p, early_stop=True)
    assert sol.trigger is None and not sol.partial
    assert verify_solution(p, sol.clauses)


def test_noise_filter_drops_injected_clause():
    f = encode_circuit(twogate())
    p = problem_from_split(apply_mutation(f, stuck_at(f, 3, 0)), original=f)
    sol = pqe_cegar(p)
    assert sol.clauses == (clause(pos(2), neg(4)),)
    noisy = sol.clauses + (clause(neg(2), pos(4)),)  # a clause of F' itself
    filtered = noise_filter(noisy, p.fprime_formula)
    assert filtered == sol.clauses
    assert verify_solution(p, filtered)


def test_cegar_output_is_noise_free():
    rng = random.Random(31)
    for _ in range(25):
        c = random_circuit(rng, rng.randrange(2, 5), rng.randrange(2, 8))
        f = encode_circuit(c)
        p = problem_from_split(apply_mutation(f, random_mutation(rng, f)))
        sol = pqe_cegar(p)
        assert noise_filter(sol.clauses, p.fprime_formula) == sol.clauses


def test_clause_budget_marks_partial():
    c = twogate()
    f = encode_circuit(c)
    p = problem_from_split(apply_mutation(f, gate_subst(f, 3, "XOR")), original=f)
    full = pqe_cegar(p)
    assert len(full.clauses) >= 2
    cut = pqe_cegar(p, clause_budget=1)
    assert cut.partial
    assert len(cut.clauses) <= 1


def test_clause_budget_not_partial_when_done():
    p = and_stuck0_problem()
    sol = pqe_cegar(p, clause_budget=10)
    assert not sol.partial
    assert verify_solution(p, sol.clauses)


def test_cegar_matches_oracle_semantics():
    rng = random.Random(97)
    for _ in range(40):
        c = random_circuit(rng, rng.randrange(2, 6), rng.randrange(2, 9))
        f = encode_circuit(c)
        m = random_mutation(rng, f)
        p = problem_from_split(apply_mutation(f, m))
        assert verify_solution(p, pqe_cegar(p).clauses)
        assert verify_solution(p, pqe_oracle(p).clauses)


def test_cegar_stats_sane():
    p = and_stuck0_problem()
    sol = pqe_cegar(p)
    s = sol.stats
    assert s["clauses"] == len(sol.clauses)
    assert 1 <= s["iterations"] <= 1 << len(p.free)
    assert s["search_solves"] >= s["iterations"]
    assert s["check_solves"] >= s["iterations"]


def test_totality_stuck_at_preserves():
    f = encode_circuit(twogate())
    split = apply_mutation(f, stuck_at(f, 4, 1))
    assert is_total(split.formula)


def test_totality_broken_by_clause_flip():
    f = encode_circuit(and1())
    # flipping v1 in (v1 v -v3) forbids the input v1=1, v2=1
    split = apply_mutation(f, clause_flip(f, 0, 0))
    assert not is_total(split.formula)
    assert is_total(f)


def test_input_only_clauses_imply_broken_totality():
    # a certified solution clause over inputs alone rules out whole
    # input rows, which can only happen when F* lost those inputs
    rng = random.Random(13)
    seen_x_only = False
    for _ in range(40):
        c = random_circuit(rng, 3, rng.randrange(2, 7))
        f = encode_circuit(c)
        split = apply_mutation(f, random_mutation(rng, f))
        p = problem_from_split(split)
        xs = set(f.varmap.with_role("x"))
        sol = pqe_cegar(p)
        x_only = [cl for cl in sol.clauses
                  if {l.var for l in cl.lits} <= xs]
        if x_only:
            seen_x_only = True
            assert not is_total(split.formula)
    assert seen_x_only


def test_clause_flip_yields_input_only_clauses():
    f = encode_circuit(twogate())
    # flipping x3 in (¬x3 ∨ z) forbids every input with x3=0, y=0
    split = apply_mutation(f, clause_flip(f, 4, 0))
    p = problem_from_split(split, original=f)
    sol = pqe_cegar(p)
    assert sol.clauses == (clause(pos(0), pos(2)), clause(pos(1), pos(2)))
    assert not is_total(split.formula)
    assert verify_solution(p, sol.clauses)


# -- expansion miter ------------------------------------------------------------

def miter_rows(p):
    """Rows over the free variables that the miter admits."""
    from falseprops.pqe import _expansion_miter
    from falseprops.sat import Solver
    miter = _expansion_miter(p)
    assert miter is not None
    n, extra = miter
    s = Solver(n, [p.formula.clauses[i] for i in p.fprime] + extra)
    return {bits for bits in product((0, 1), repeat=len(p.free))
            if s.solve([pos(v) if b else neg(v)
                        for v, b in zip(p.free, bits)]).is_sat}


def missing_rows(p):
    """Rows of ∃F' that ∃F* lacks, by enumeration."""
    star = qe_enumerate(p.formula, p.quantified).rows
    prime = qe_enumerate(p.fprime_formula, p.quantified).rows
    return prime - star


def assert_miter_exact(p):
    # the miter admits exactly the missing rows, and both engines certify
    missing = missing_rows(p)
    assert miter_rows(p) == missing
    sol = pqe_cegar(p)
    assert verify_solution(p, sol.clauses)
    assert verify_solution(p, pqe_oracle(p).clauses)
    # every miter model emits a clause
    assert sol.stats["iterations"] <= len(missing)
    return sol


def gate_mutations(f, gid):
    return [m for m in enumerate_mutations(f) if m.target == gid]


def test_miter_output_gate():
    # an output with fanout of its own: the row fixes it, so no copy
    c = parse_netlist("input a b c; y = AND(a, b); z = OR(y, c); "
                      "output y z;")
    f = encode_circuit(c)
    for gid in (c.id_of["y"], c.id_of["z"]):
        for m in gate_mutations(f, gid):
            assert_miter_exact(problem_from_split(apply_mutation(f, m),
                                                  original=f))


def test_miter_reconvergent_fanout_to_several_outputs():
    c = parse_netlist("input a b c; u = AND(a, b); p = OR(u, c); "
                      "q = XOR(u, p); r = NAND(u, c); s = AND(q, r); "
                      "output q r s;")
    f = encode_circuit(c)
    for m in gate_mutations(f, c.id_of["u"]):
        assert_miter_exact(problem_from_split(apply_mutation(f, m),
                                              original=f))


def test_miter_gate_without_path_to_output():
    seen = 0
    for seed in range(20):
        if seen >= 3:
            break
        c = random_circuit(random.Random(seed), 3, 6)
        f = encode_circuit(c)
        reaches = set(c.outputs)
        for g in reversed(c.topo_gates):
            if g.output in reaches:
                reaches.update(g.fanins)
        for g in c.gates:
            if g.output in reaches:
                continue
            seen += 1
            for m in gate_mutations(f, g.output):
                p = problem_from_split(apply_mutation(f, m), original=f)
                sol = assert_miter_exact(p)
                # only a clause flip, which may erase inputs, leaves a trace
                assert m.kind == "clause-flip" or sol.clauses == ()
    assert seen


def test_miter_clause_flip_keeps_rest_of_group():
    f = encode_circuit(twogate())
    for ci in f.group(3):
        for li in range(len(f.clauses[ci].lits)):
            split = apply_mutation(f, clause_flip(f, ci, li))
            rest = [i for i in split.fprime
                    if split.formula.clauses[i].origin == 3]
            assert len(rest) == len(f.group(3)) - 1
            assert_miter_exact(problem_from_split(split, original=f))


def test_miter_repeated_fanins_and_constants():
    c = parse_netlist("input a b; u = XOR(a, a); v = XNOR(b, a, b); "
                      "k = CONST1(); j = CONST0(); w = AND(u, v, k); "
                      "t = OR(w, j, a); output w t;")
    f = encode_circuit(c)
    for nm in ("u", "v", "k", "j", "w"):
        for m in gate_mutations(f, c.id_of[nm]):
            assert_miter_exact(problem_from_split(apply_mutation(f, m),
                                                  original=f))


def test_miter_early_stop(monkeypatch):
    from falseprops import pqe
    # a redundant fault: every missing row is one F lacks too, so the
    # search ends with no trigger after one clause, where F' walks its rows
    c = parse_netlist("input a b; u = AND(a, b); z = OR(a, u); output z;")
    f = encode_circuit(c)
    p = problem_from_split(apply_mutation(f, stuck_at(f, c.id_of["u"], 0)),
                           original=f)
    sol = pqe_cegar(p, early_stop=True)
    assert sol.trigger is None and not sol.partial
    assert sol.stats["iterations"] == 1
    assert sol.clauses == (clause(pos(0), neg(3)),)
    with monkeypatch.context() as mp:
        mp.setattr(pqe, "_expansion_miter", lambda _p: None)
        assert pqe_cegar(p, early_stop=True).stats["iterations"] > 1
    # a detectable fault stops at a clause F does not imply, as on F'
    rng = random.Random(5)
    for _ in range(20):
        c = random_circuit(rng, 3, rng.randrange(2, 7), n_outputs=2)
        f = encode_circuit(c)
        for g in c.gates:
            p = problem_from_split(apply_mutation(f, stuck_at(f, g.output, 1)),
                                   original=f)
            got = pqe_cegar(p, early_stop=True)
            with monkeypatch.context() as mp:
                mp.setattr(pqe, "_expansion_miter", lambda _p: None)
                want = pqe_cegar(p, early_stop=True)
            assert (got.trigger is None) == (want.trigger is None)
            assert got.stats["iterations"] <= want.stats["iterations"]


def test_miter_skips_a_formula_whose_other_gate_lost_a_clause():
    # without (u ∨ ¬v), v may be 1 while u is 0: v is no longer a function
    # of its fanin, so the miter's premise fails and the F' search runs
    from falseprops.cnf import replace_group
    from falseprops.pqe import _expansion_miter
    c = parse_netlist("input a b c; u = AND(a, b); v = BUF(u); z = OR(v, c); "
                      "output z;")
    f = encode_circuit(c)
    u, v = c.id_of["u"], c.id_of["v"]
    gone = [i for i in f.group(v) if f.clauses[i] == clause(pos(u), neg(v))]
    broken = replace_group(f, gone, ()).formula
    p = problem_from_split(apply_mutation(broken, stuck_at(broken, u, 0)),
                           original=broken)
    assert _expansion_miter(p) is None
    q = pqe_cegar(p).clauses
    assert verify_solution(p, q)
    assert verify_solution(p, pqe_oracle(p).clauses)


def test_miter_skips_a_formula_whose_other_gate_has_a_flipped_clause():
    # flip g's clause (y ∨ ¬g) to (¬y ∨ ¬g), then freeze y at 1: every row
    # with c = 1 leaves g without a value in F*, while F' still has it
    from falseprops.pqe import _expansion_miter
    c = parse_netlist("input a c; y = BUF(a); g = AND(y, c); output g;")
    f = encode_circuit(c)
    y, g = c.id_of["y"], c.id_of["g"]
    (ci,) = [i for i in f.group(g) if f.clauses[i] == clause(pos(y), neg(g))]
    flipped = apply_mutation(f, clause_flip(f, ci, 0)).formula
    p = problem_from_split(apply_mutation(flipped, stuck_at(flipped, y, 1)),
                           original=flipped)
    assert _expansion_miter(p) is None
    q = pqe_cegar(p).clauses
    assert q
    assert verify_solution(p, q)
    assert verify_solution(p, pqe_oracle(p).clauses)


def test_cegar_on_stacked_mutations():
    # mutating an already mutated formula leaves other gates relational;
    # whichever search runs, the answer must hold
    rng = random.Random(11)
    for _ in range(150):
        c = random_circuit(rng, rng.randint(2, 4), rng.randint(2, 6),
                           n_outputs=rng.randint(1, 3))
        f = encode_circuit(c)
        for _ in range(rng.randint(1, 2)):
            f = apply_mutation(f, random_mutation(rng, f)).formula
        p = problem_from_split(apply_mutation(f, random_mutation(rng, f)),
                               original=f)
        assert verify_solution(p, pqe_cegar(p).clauses)


def test_cegar_raises_if_fstar_extends_a_miter_model(monkeypatch):
    # a search formula with rows F* extends stands in for a wrong miter
    import falseprops.pqe as pqe_mod
    p = and_stuck0_problem()
    monkeypatch.setattr(pqe_mod, "_expansion_miter",
                        lambda problem: (problem.formula.num_vars, []))
    with pytest.raises(PqeError, match="miter"):
        pqe_cegar(p)


def test_sequential_and_dimacs_problems_search_fprime():
    from falseprops.cnf import CnfFormula
    from falseprops.pqe import _expansion_miter
    from falseprops.seq import seq_problem, unroll
    c = parse_netlist("input en; latch s ns init 0; ns = XOR(en, s); "
                      "output ns;")
    u = unroll(c, 2)
    p = seq_problem(u, stuck_at(u.template, c.id_of["ns"], 0))
    assert _expansion_miter(p) is None
    assert verify_solution(p, pqe_cegar(p).clauses)
    assert verify_solution(p, pqe_oracle(p).clauses)
    f = encode_circuit(twogate())
    f = CnfFormula(f.clauses, f.varmap)
    assert f.groups and f.gate_table is None
    for ci in range(len(f.clauses)):
        p = problem_from_split(apply_mutation(f, clause_flip(f, ci, 0)))
        assert _expansion_miter(p) is None
        assert verify_solution(p, pqe_cegar(p).clauses)
        assert verify_solution(p, pqe_oracle(p).clauses)
