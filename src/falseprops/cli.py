"""Command-line front end.

Machine-readable output (JSON, or DIMACS for encode/unroll) goes to stdout
or --out; progress and summaries go to stderr.  Exit codes: 0 done without
finding a bug, 1 a bug-exposing test was found (or selftest failed), 2 bad
usage or input, 3 a resource budget was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .cnf import CnfError, encode_circuit, export_dimacs
from .mutate import (MutationError, POLICIES, apply_mutation, clause_flip,
                     enumerate_mutations, gate_subst, stuck_at)
from .netlist import Circuit, NetlistError, emit_netlist, parse_netlist
from .pqe import (EnumerationBoundExceeded, PqeError, problem_from_split,
                  pqe_cegar, pqe_oracle, verify_solution)
from .sat import BudgetExceeded
from .selftest import run_selftest
from .seq import (SeqError, format_trace, reach_oracle, seq_compset, unroll,
                  MAX_STATES_DEFAULT)
from .verify import (Specification, VerifyError, atpg_stuck_at, classify_property,
                     compset, parse_property_file)

EXIT_OK = 0
EXIT_BUG = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_INPUT_ERRORS = (NetlistError, CnfError, MutationError, VerifyError, SeqError,
                 PqeError, OSError, ValueError)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as fh:
        return fh.read()


def _load_circuit(path: str, fmt: Optional[str]) -> Circuit:
    if fmt is None:
        fmt = "aiger" if path.endswith(".aag") else "simple"
    return parse_netlist(_read_text(path), fmt)


def _write_out(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: Optional[str]) -> None:
    _write_out(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _gate_id(c: Circuit, name: str) -> int:
    if name not in c.id_of:
        raise VerifyError(f"no pin named {name!r}")
    gid = c.id_of[name]
    if gid not in c.gate_of:
        raise VerifyError(f"{name!r} is not a gate output")
    return gid


def _parse_mutation(f, c: Circuit, gid: int, text: str):
    if text in ("stuck-at-0", "stuck-at-1"):
        return stuck_at(f, gid, int(text[-1]))
    if text.startswith("gate-subst:"):
        return gate_subst(f, gid, text.split(":", 1)[1].upper())
    if text.startswith("clause-flip:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise MutationError("clause-flip takes clause and literal indices, "
                                "e.g. clause-flip:0:1")
        group = f.group(gid)
        ci = int(parts[1])
        if not 0 <= ci < len(group):
            raise MutationError(f"gate has {len(group)} clauses, index {ci} invalid")
        return clause_flip(f, group[ci], int(parts[2]))
    raise MutationError(f"cannot parse mutation {text!r}")


def _load_spec(args, c: Circuit) -> Specification:
    hard = ()
    golden = None
    if getattr(args, "phrd", None):
        hard = parse_property_file(_read_text(args.phrd), c)
    if getattr(args, "golden", None):
        golden = _load_circuit(args.golden, args.format)
    return Specification(hard, golden)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_encode(args) -> int:
    c = _load_circuit(args.netlist, args.format)
    if args.emit:
        _write_out(emit_netlist(c, args.emit), args.out)
        return EXIT_OK
    _write_out(export_dimacs(encode_circuit(c)), args.out)
    return EXIT_OK


def _cmd_mutate(args) -> int:
    c = _load_circuit(args.netlist, args.format)
    f = encode_circuit(c)
    ms = enumerate_mutations(f, args.policy)
    if args.gate:
        gid = _gate_id(c, args.gate)
        ms = [m for m in ms if m.target == gid]
    _emit_json({"circuit": c.name, "policy": args.policy, "count": len(ms),
                "mutations": [m.to_json(c.names) for m in ms]}, args.out)
    return EXIT_OK


def _cmd_pqe(args) -> int:
    c = _load_circuit(args.netlist, args.format)
    f = encode_circuit(c)
    gid = _gate_id(c, args.gate)
    m = _parse_mutation(f, c, gid, args.mutation)
    problem = problem_from_split(apply_mutation(f, m), original=f)
    if args.engine == "oracle":
        sol = pqe_oracle(problem)
    else:
        sol = pqe_cegar(problem, early_stop=args.early_stop,
                        clause_budget=args.clause_budget,
                        conflict_limit=args.conflict_limit)
    prop = classify_property(f, sol.clauses, provenance=m)
    report = {"circuit": c.name, "gate": c.names[gid],
              "property": prop.to_json(c.names),
              "partial": sol.partial,
              "stats": dict(sol.stats)}
    if args.oracle_check:
        report["oracle_check"] = verify_solution(problem, sol.clauses)
    _emit_json(report, args.out)
    if args.oracle_check and not report["oracle_check"]:
        print("oracle check FAILED", file=sys.stderr)
        return EXIT_BUG
    return EXIT_OK


def _cmd_compset(args) -> int:
    c = _load_circuit(args.netlist, args.format)
    spec = _load_spec(args, c)
    report = compset(spec, c, policy=args.policy,
                     continue_after_bug=args.continue_after_bug,
                     clause_budget=args.clause_budget,
                     conflict_limit=args.conflict_limit)
    _emit_json(report.to_json(), args.out)
    print(f"{len(report.gates_processed)} gates, "
          f"{len(report.false_props)} false properties, "
          f"{len(report.tests)} tests, {len(report.bugs)} bugs, "
          f"{len(report.skipped)} skipped", file=sys.stderr)
    if report.bugs:
        return EXIT_BUG
    if report.skipped:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_atpg(args) -> int:
    c = _load_circuit(args.netlist, args.format)
    if args.all_faults:
        faults = []
        for g in sorted(c.gate_of):
            for v in (0, 1):
                tv = atpg_stuck_at(c, g, v, conflict_limit=args.conflict_limit)
                faults.append({"gate": c.names[g], "stuck_at": v,
                               "detectable": tv is not None,
                               "test": tv.to_json(c.names) if tv else None})
        _emit_json({"circuit": c.name, "faults": faults}, args.out)
        return EXIT_OK
    if not args.gate or args.sa is None:
        raise VerifyError("atpg needs --gate and --sa (or --all-faults)")
    gid = _gate_id(c, args.gate)
    tv = atpg_stuck_at(c, gid, args.sa, conflict_limit=args.conflict_limit)
    _emit_json({"circuit": c.name, "gate": args.gate, "stuck_at": args.sa,
                "detectable": tv is not None,
                "test": tv.to_json(c.names) if tv else None}, args.out)
    if tv is not None:
        pins = " ".join(f"{c.names[v]}={b}" for v, b in sorted(tv.inputs.items()))
        print(f"test {pins}", file=sys.stderr)
    else:
        print("fault undetectable", file=sys.stderr)
    return EXIT_OK


def _cmd_unroll(args) -> int:
    c = _load_circuit(args.netlist, args.format)
    u = unroll(c, args.frames)
    _write_out(export_dimacs(u.formula), args.out)
    return EXIT_OK


def _cmd_seq_compset(args) -> int:
    c = _load_circuit(args.netlist, args.format)
    spec = _load_spec(args, c)
    report = seq_compset(spec, c, args.frames, policy=args.policy,
                         frame=args.frame, replicate=args.replicate,
                         continue_after_bug=args.continue_after_bug,
                         clause_budget=args.clause_budget,
                         conflict_limit=args.conflict_limit)
    _emit_json(report.to_json(), args.out)
    for b in report.bugs:
        print(f"bug ({b.kind}: {b.detail}) via gate {c.names[b.gate]}:",
              file=sys.stderr)
        print(format_trace(b.test, c), file=sys.stderr)
    if report.bugs:
        return EXIT_BUG
    if report.skipped:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_reach(args) -> int:
    c = _load_circuit(args.netlist, args.format)
    rs = reach_oracle(c, max_states=args.max_states, min_frames=args.min_frames)
    enc = ["".join(str(b) for b in st) for st in sorted(rs.reachable)]
    frames = [["".join(str(b) for b in st) for st in sorted(fr)]
              for fr in rs.frames]
    _emit_json({"circuit": c.name,
                "latches": [c.names[lt.present] for lt in c.latches],
                "reachable": enc, "diameter": rs.diameter,
                "frames": frames}, args.out)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    report = run_selftest(seed=args.seed, instances=args.instances)
    _emit_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_BUG


# ---------------------------------------------------------------------------

def _add_common(p, netlist=True):
    if netlist:
        p.add_argument("netlist", help="netlist file ('-' for stdin)")
        p.add_argument("--format", choices=("simple", "aiger"),
                       help="input format (default: by extension)")
    p.add_argument("--out", "-o", help="write the report here instead of stdout")


def _add_budgets(p, clause_budget=True):
    if clause_budget:
        p.add_argument("--clause-budget", type=int,
                       help="stop PQE once it has emitted this many clauses; "
                            "an unfinished answer is partial and its gate "
                            "skipped")
    p.add_argument("--conflict-limit", type=int,
                   help="conflicts allowed in each SAT call (the count "
                        "restarts per call, so it does not bound a gate's "
                        "total work)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="falseprops",
        description="False-property generation and test extraction for "
                    "gate-level circuits")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("encode", help="netlist -> DIMACS with role/group comments")
    _add_common(p)
    p.add_argument("--emit", choices=("simple", "aiger"),
                   help="re-emit the netlist in this format instead of DIMACS")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("mutate", help="list the mutation catalog of a circuit")
    _add_common(p)
    p.add_argument("--policy", default="mixed",
                   choices=POLICIES, help="which mutations to enumerate")
    p.add_argument("--gate", help="restrict to one gate (by output pin name)")
    p.set_defaults(fn=_cmd_mutate)

    p = sub.add_parser("pqe", help="one mutation -> candidate property")
    _add_common(p)
    p.add_argument("--gate", required=True, help="gate output pin name")
    p.add_argument("--mutation", default="stuck-at-0",
                   help="stuck-at-0 | stuck-at-1 | gate-subst:KIND | "
                        "clause-flip:CLAUSE:LIT")
    p.add_argument("--engine", choices=("cegar", "oracle"), default="cegar")
    p.add_argument("--early-stop", action="store_true",
                   help="stop at the first clause the circuit fails to imply")
    _add_budgets(p)
    p.add_argument("--oracle-check", action="store_true",
                   help="re-verify the solution by enumeration")
    p.set_defaults(fn=_cmd_pqe)

    p = sub.add_parser("compset",
                       help="mutate every gate; collect false properties and tests")
    _add_common(p)
    p.add_argument("--policy", default="stuck-at",
                   help="stuck-at | gate-subst | clause-flip "
                        "(all-stuck-at etc. accepted)")
    p.add_argument("--phrd", help="JSON file with properties that must hold")
    p.add_argument("--golden", help="golden-model netlist to compare against")
    p.add_argument("--continue-after-bug", action="store_true")
    _add_budgets(p)
    p.set_defaults(fn=_cmd_compset)

    p = sub.add_parser("atpg", help="stuck-at test generation")
    _add_common(p)
    p.add_argument("--gate", help="gate output pin name")
    p.add_argument("--sa", type=int, choices=(0, 1), help="stuck-at value")
    p.add_argument("--all-faults", action="store_true")
    _add_budgets(p, clause_budget=False)
    p.set_defaults(fn=_cmd_atpg)

    p = sub.add_parser("unroll", help="time-frame expansion -> DIMACS")
    _add_common(p)
    p.add_argument("--frames", "-n", type=int, required=True)
    p.set_defaults(fn=_cmd_unroll)

    p = sub.add_parser("seq-compset",
                       help="compset over an unrolled sequential circuit")
    _add_common(p)
    p.add_argument("--frames", "-n", type=int, required=True)
    p.add_argument("--frame", type=int, default=1,
                   help="frame receiving the mutation (default 1)")
    p.add_argument("--replicate", action="store_true",
                   help="mutate the gate in every frame")
    p.add_argument("--policy", default="stuck-at")
    p.add_argument("--phrd", help="JSON property file over state pins")
    p.add_argument("--golden", help="golden-model netlist")
    p.add_argument("--continue-after-bug", action="store_true")
    _add_budgets(p)
    p.set_defaults(fn=_cmd_seq_compset)

    p = sub.add_parser("reach", help="explicit-state reachability and diameter")
    _add_common(p)
    p.add_argument("--max-states", type=int, default=MAX_STATES_DEFAULT)
    p.add_argument("--min-frames", type=int, default=0)
    p.set_defaults(fn=_cmd_reach)

    p = sub.add_parser("selftest", help="run the bundled oracle suite")
    _add_common(p, netlist=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=5)
    p.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except EnumerationBoundExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
