"""False-property generation and test extraction for gate-level circuits.

The pipeline: encode a netlist to CNF with addressable gate clause groups,
mutate one group, solve a partial quantifier elimination problem to obtain a
property over the circuit interface, classify it against the original
circuit, and turn false properties into tests.  Doing this for every gate
yields a structurally complete false-property set.
"""

from .netlist import (Circuit, Gate, Latch, NetlistError, ParseError,
                      GATE_KINDS, emit_netlist, eval_gate, parse_netlist,
                      simulate)
from .cnf import (Clause, CnfError, CnfFormula, GroupSplit, Lit, VarMap,
                  clause, encode_circuit, encode_gate, export_dimacs,
                  formula, neg, pos, replace_group)
from .sat import (SAT, UNSAT, BudgetExceeded, SatResult, Solver,
                  break_implication, implies, solve, solver_for)
from .pqe import (ENUM_BOUND_DEFAULT, EnumerationBoundExceeded, PqeError,
                  PqeProblem, PqeSolution, TruthTable, noise_filter,
                  pqe_cegar, pqe_oracle, problem_from_split, qe_enumerate,
                  verify_solution)
from .mutate import (Mutation, MutationError, POLICIES, apply_mutation,
                     clause_flip, enumerate_mutations, gate_subst, stuck_at,
                     substitution_kinds)
from .verify import (CompsetReport, NamedProperty, Property, Specification,
                     TestVector, VerifyError, atpg_stuck_at, classify_property,
                     compset, joint_test, parse_property_file)
from .seq import (CexTrace, ReachSet, SeqCompsetReport, SeqError, UnrolledCnf,
                  false_safety_prop, find_counterexample, format_trace,
                  reach_oracle, seq_compset, unroll)
from .randcirc import random_circuit, random_sequential
from .selftest import run_selftest

__version__ = "0.1.0"
