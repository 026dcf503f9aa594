"""Outside-in layer tracing for the benchmark's traced run.

Spans are recorded around the package's public functions by replacing the
name where its caller looks it up (a module attribute, or a method on the
class), so nothing in the package itself changes.  Each span keeps its
name, start, end, parent span and trace id (one trace per design run) in
flat arrays, and the whole set is written out when the run ends.

`Solver.add_clause` runs hundreds of thousands of times per pass, so it is
timed and counted at its boundary but not kept as individual spans: its
duration is charged to the enclosing span as child time, and to an
aggregate for its layer.

Metric values are per pass over the workload's design batch: counts are
those of one pass (they must repeat exactly across passes), times are the
median over passes of a pass's self time.
"""

from __future__ import annotations

import json
import statistics
import struct
import time
from array import array
from pathlib import Path

# layer metric -> span name whose self time it reports
SELF_TIMES = {
    "netlist.parse_s": "netlist.parse",
    "netlist.simulate_s": "netlist.simulate",
    "cnf.encode_s": "cnf.encode",
    "cnf.replace_group_s": "cnf.replace_group",
    "mutate.s": "mutate",
    "sat.solve_s": "sat.solve",
    "sat.build_s": "sat.build",
    "sat.add_clause_s": "sat.add_clause",
    "pqe.cegar_s": "pqe.cegar",
    "pqe.noise_filter_s": "pqe.noise_filter",
    "verify.classify_s": "verify.classify",
    "verify.compset_self_s": "verify.compset",
    "verify.atpg_self_s": "verify.atpg",
    "seq.unroll_s": "seq.unroll",
    "seq.find_cex_s": "seq.find_cex",
    "seq.reach_s": "seq.reach",
}
# layer metric -> span name whose call count it reports
CALLS = {
    "netlist.simulate_calls": "netlist.simulate",
    "cnf.encode_calls": "cnf.encode",
    "mutate.calls": "mutate",
    "sat.solve_calls": "sat.solve",
    "sat.solvers_built": "sat.build",
    "sat.add_clause_calls": "sat.add_clause",
}
# counters read from call arguments or results
COUNTERS = ("sat.conflicts", "pqe.iterations", "pqe.check_solves",
            "pqe.clauses", "seq.unrolled_clauses")
# counters that must repeat exactly across passes and across traced runs
EXACT = ("pqe.iterations", "sat.solve_calls", "sat.conflicts",
         "sat.solvers_built", "sat.add_clause_calls", "cnf.encode_calls")

UNITS = {**{m: "s" for m in SELF_TIMES}, **{m: "count" for m in CALLS},
         **{m: "count" for m in COUNTERS}, "pqe.emit_ratio": "ratio"}

_LEAF = "sat.add_clause"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.trace = array("q")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")       # time covered by child spans
        self.stack: list[int] = []
        self.trace_id = 0
        self.trace_pass: dict[int, int] = {}
        # (name, trace id) -> [calls, seconds] for the leaf boundary
        self.leaf: dict[tuple[str, int], list] = {}
        # (counter, trace id) -> value
        self.counts: dict[tuple[str, int], int] = {}

    # -- recording ----------------------------------------------------------

    def begin_trace(self, trace_id: int, pass_no: int) -> None:
        self.trace_id = trace_id
        self.trace_pass[trace_id] = pass_no

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, counter: str, n: int) -> None:
        key = (counter, self.trace_id)
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(result, args)` may add counters."""
        nid = self._nid(name)
        clock = time.perf_counter
        stack = self.stack

        def wrapped(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.trace.append(self.trace_id)
            self.parent.append(stack[-1] if stack else -1)
            self.child.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            self.start.append(t0)
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                if stack:
                    self.child[stack[-1]] += t1 - t0
            if after is not None:
                after(res, args)
            return res
        return wrapped

    def leaf_span(self, name: str, fn):
        clock = time.perf_counter
        stack = self.stack

        def wrapped(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if stack:
                    self.child[stack[-1]] += dt
                acc = self.leaf.get((name, self.trace_id))
                if acc is None:
                    acc = self.leaf[(name, self.trace_id)] = [0, 0.0]
                acc[0] += 1
                acc[1] += dt
        return wrapped

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr), after))

    # -- installation -------------------------------------------------------

    def install(self, fp) -> None:
        """Wrap the package's layer boundaries where their callers look
        them up.  `fp` is the imported package."""
        verify, seq, mutate, pqe = fp.verify, fp.seq, fp.mutate, fp.pqe
        solver = fp.sat.Solver
        self.wrap(fp, "compset", "verify.compset")
        self.wrap(fp, "atpg_stuck_at", "verify.atpg")
        self.wrap(fp, "reach_oracle", "seq.reach")
        self.wrap(verify, "classify_property", "verify.classify")
        for owner in (verify, seq):
            self.wrap(owner, "simulate", "netlist.simulate")
            self.wrap(owner, "encode_circuit", "cnf.encode")
            self.wrap(owner, "pqe_cegar", "pqe.cegar", self._cegar_stats)
        for attr in ("stuck_at", "gate_subst", "clause_flip", "apply_mutation"):
            self.wrap(verify, attr, "mutate")
        self.wrap(mutate, "replace_group", "cnf.replace_group")
        self.wrap(seq, "replace_group", "cnf.replace_group")
        self.wrap(pqe, "noise_filter", "pqe.noise_filter")
        self.wrap(seq, "unroll", "seq.unroll",
                  lambda u, _: self.count("seq.unrolled_clauses",
                                          len(u.formula.clauses)))
        self.wrap(seq, "find_counterexample", "seq.find_cex")
        self.wrap(solver, "__init__", "sat.build")
        solver.add_clause = self.leaf_span(_LEAF, solver.add_clause)
        solver.solve = self._solve_span(solver.solve)

    def _cegar_stats(self, sol, _args) -> None:
        self.count("pqe.iterations", sol.stats["iterations"])
        self.count("pqe.check_solves", sol.stats["check_solves"])
        self.count("pqe.clauses", sol.stats["clauses"])

    def _solve_span(self, solve):
        def counted(s, *args, **kwargs):
            before = s.num_conflicts
            try:
                return solve(s, *args, **kwargs)
            finally:
                self.count("sat.conflicts", s.num_conflicts - before)
        return self.span("sat.solve", counted)

    # -- aggregation --------------------------------------------------------

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Pass number -> {span name: self seconds, "#"+name: calls,
        counter: value}."""
        out: dict[int, dict[str, float]] = {}

        def acc(p: int, key: str, v: float) -> None:
            d = out.setdefault(p, {})
            d[key] = d.get(key, 0.0) + v

        for i in range(len(self.start)):
            p = self.trace_pass[self.trace[i]]
            nm = self.names[self.name[i]]
            acc(p, nm, self.end[i] - self.start[i] - self.child[i])
            acc(p, "#" + nm, 1)
        for (nm, tid), (calls, secs) in self.leaf.items():
            p = self.trace_pass[tid]
            acc(p, nm, secs)
            acc(p, "#" + nm, calls)
        for (ctr, tid), v in self.counts.items():
            acc(self.trace_pass[tid], ctr, v)
        return out

    def metrics(self, timed_passes: list[int], setup_passes: list[int]
                ) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics and the names of counters that differ across
        timed passes."""
        pp = self.per_pass()
        timed = [pp.get(p, {}) for p in timed_passes]
        setup = [pp.get(p, {}) for p in setup_passes]
        vals: dict[str, float] = {}
        for metric, span in SELF_TIMES.items():
            src = setup if metric == "netlist.parse_s" else timed
            vals[metric] = statistics.median(d.get(span, 0.0) for d in src)
        first = timed[0]
        for metric, span in CALLS.items():
            vals[metric] = int(first.get("#" + span, 0))
        for ctr in COUNTERS:
            vals[ctr] = int(first.get(ctr, 0))
        it = vals["pqe.iterations"]
        vals["pqe.emit_ratio"] = vals["pqe.clauses"] / it if it else 0.0
        unsteady = []
        for metric in EXACT:
            key = "#" + CALLS[metric] if metric in CALLS else metric
            if len({d.get(key, 0) for d in timed}) > 1:
                unsteady.append(metric)
        return vals, unsteady

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as a length-prefixed JSON header followed by the raw
        arrays, in the host byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.start)
        fields = [("name", self.name), ("trace", self.trace),
                  ("parent", self.parent), ("start", self.start),
                  ("end", self.end)]
        header = json.dumps({
            "spans": n, "names": self.names,
            "fields": [[f, a.typecode, a.itemsize] for f, a in fields],
            "trace_pass": {str(k): v for k, v in self.trace_pass.items()},
            "leaf": [[nm, tid, c, s] for (nm, tid), (c, s) in self.leaf.items()],
        }).encode()
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for _, a in fields:
                a.tofile(fh)
        tmp.replace(path)
