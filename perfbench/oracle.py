"""Independent checker for the benchmark's reports.

It reads the serialized reports by pin name and checks them against the
design as generated, with its own bit-parallel gate evaluator: every signal
is one Python integer whose bit j is the signal's value on input vector j.
It shares no code with the package's simulator, encoder, solver or
reachability engine.

Each check function returns the number of failed verdicts of one design.
"""

from __future__ import annotations

from itertools import product


def _gate(kind: str, vals: list[int], ones: int) -> int:
    if kind in ("AND", "NAND"):
        v = ones
        for x in vals:
            v &= x
    elif kind in ("OR", "NOR"):
        v = 0
        for x in vals:
            v |= x
    elif kind in ("XOR", "XNOR"):
        v = 0
        for x in vals:
            v ^= x
    elif kind in ("BUF", "NOT"):
        v = vals[0]
    elif kind == "CONST0":
        v = 0
    elif kind == "CONST1":
        v = ones
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    if kind in ("NAND", "NOR", "XNOR", "NOT"):
        v ^= ones
    return v


class Model:
    """A design by pin name: gates in topological order."""

    def __init__(self, d):
        self.inputs: tuple[str, ...] = d.input_names
        self.outputs: tuple[str, ...] = d.output_names
        self.gates: tuple[tuple[str, str, tuple[str, ...]], ...] = d.gate_list
        self.latches: tuple[tuple[str, str, int], ...] = d.latch_list

    def run(self, env: dict[str, int], width: int,
            stuck: tuple[str, int] | None = None) -> dict[str, int]:
        """Evaluate every signal; `env` holds inputs (and latch outputs) as
        bit vectors `width` wide.  `stuck` forces one gate to a constant."""
        ones = (1 << width) - 1
        val = dict(env)
        for out, kind, fanins in self.gates:
            if stuck is not None and out == stuck[0]:
                val[out] = ones if stuck[1] else 0
            else:
                val[out] = _gate(kind, [val[a] for a in fanins], ones)
        return val

    def exhaustive(self, state: dict[str, int] | None = None,
                   stuck: tuple[str, int] | None = None) -> dict[str, int]:
        """All 2^inputs input vectors at once; input i is bit i of the
        vector index."""
        n = len(self.inputs)
        width = 1 << n
        env = {}
        for i, x in enumerate(self.inputs):
            env[x] = sum(1 << j for j in range(width) if (j >> i) & 1)
        ones = (1 << width) - 1
        for q, b in (state or {}).items():
            env[q] = ones if b else 0
        return self.run(env, width, stuck)

    def single(self, inputs: dict[str, int],
               state: dict[str, int] | None = None) -> dict[str, int]:
        env = {x: inputs[x] for x in self.inputs}
        env.update(state or {})
        return self.run(env, 1)

    def index_of(self, inputs: dict[str, int]) -> int:
        return sum(inputs[x] << i for i, x in enumerate(self.inputs))


def _lit_vec(lit: str, val: dict[str, int], ones: int) -> int:
    if lit.startswith("-"):
        return val[lit[1:]] ^ ones
    return val[lit]


def _falsified(clause: list[str], env: dict[str, int]) -> bool:
    for lit in clause:
        pin = lit.lstrip("-")
        if pin not in env:
            return False
        if env[pin] != lit.startswith("-"):
            return False
    return True


def _holds_everywhere(clauses: list[list[str]], val: dict[str, int],
                      ones: int) -> bool:
    for cl in clauses:
        v = 0
        for lit in cl:
            v |= _lit_vec(lit, val, ones)
        if v != ones:
            return False
    return True


def _witness_ok(m: Model, tv: dict, prop: dict | None) -> bool:
    """The witness replays on the design, and falsifies its clause."""
    val = m.single(tv["inputs"])
    if any(val[z] != b for z, b in tv["outputs"].items()):
        return False
    if prop is None:
        return True
    env = {**tv["inputs"], **tv["outputs"]}
    bc = tv["broken_clause"]
    if bc is None:
        return any(_falsified(cl, env) for cl in prop.get("spurious", []))
    return _falsified(prop["clauses"][bc], env)


def check_compset(m: Model, report: dict, true_props: list) -> int:
    """compset verdicts: false props need a replaying witness; true props
    must hold on every input vector.  `true_props` lists the clause sets
    (signed pin names) the classifier saw, one per gate in report order."""
    full = m.exhaustive()
    ones = (1 << (1 << len(m.inputs))) - 1
    gates = report["gates"]
    if len(gates) != len(m.gates) or len(true_props) != len(gates) \
            or report["bugs"]:
        return len(m.gates)
    failed = 0
    for row, seen in zip(gates, true_props):
        st = row["status"]
        if st == "false-prop":
            prop = report["false_properties"][row["property"]]
            ok = prop["status"] == "false" and _witness_ok(m, prop["witness"], prop)
        elif st == "true-prop":
            ok = _holds_everywhere(seen, full, ones)
        else:
            ok = False
        failed += not ok
    for tv in report["tests"]:
        if not _witness_ok(m, tv, None):
            return len(m.gates)
    return failed


def check_atpg(m: Model, report: dict) -> int:
    """ATPG verdicts against exhaustive fault simulation."""
    good = m.exhaustive()
    failed = 0
    faults = report["faults"]
    if len(faults) != 2 * len(m.gates):
        return 2 * len(m.gates)
    for f in faults:
        bad = m.exhaustive(stuck=(f["gate"], f["stuck_at"]))
        diff = 0
        for z in m.outputs:
            diff |= good[z] ^ bad[z]
        if "error" in f or f["detectable"] != (diff != 0):
            failed += 1
        elif f["detectable"]:
            tv = f["test"]
            j = m.index_of(tv["inputs"])
            ok = (diff >> j) & 1 and all(
                (good[z] >> j) & 1 == b for z, b in tv["outputs"].items())
            failed += not ok
    return failed


def frames(m: Model, n: int) -> list[set[tuple[int, ...]]]:
    """Exact state sets after 0..n steps, by breadth-first search."""
    latch_q = [q for q, _, _ in m.latches]
    init = [(b,) if b is not None else (0, 1) for _, _, b in m.latches]
    width = 1 << len(m.inputs)
    out = [set(product(*init))]
    for _ in range(n):
        nxt = set()
        for st in out[-1]:
            val = m.exhaustive(dict(zip(latch_q, st)))
            for j in range(width):
                nxt.add(tuple((val[d] >> j) & 1 for _, d, _ in m.latches))
        out.append(nxt)
    return out


def check_seq(m: Model, report: dict, props: list, n: int) -> int:
    """seq-compset verdicts: traces replay from an initial state, false
    properties fail on some exact n-step state, true properties hold on all
    of them.  `props` lists each gate's property clauses in report order."""
    body = report["seq_compset"]
    gates = body["gates"]
    exact = frames(m, n)
    if len(gates) != len(m.gates) or len(props) != len(gates) or body["bugs"]:
        return len(m.gates)
    if report["reach"]["frame_sizes"][:n + 1] != [len(s) for s in exact]:
        return len(m.gates)
    latch_q = [q for q, _, _ in m.latches]
    last = [dict(zip(latch_q, st)) for st in exact[n]]
    failed = 0
    for row, clauses in zip(gates, props):
        st = row["status"]
        if st == "false-prop":
            prop = body["false_properties"][row["property"]]
            ok = prop["status"] == "false" and any(
                _falsified(cl, s) for cl in prop["clauses"] for s in last)
        elif st == "true-prop":
            ok = not any(_falsified(cl, s) for cl in clauses for s in last)
        else:
            ok = False
        failed += not ok
    for tr in body["traces"]:
        if not _trace_replays(m, tr, exact[0], n):
            return len(m.gates)
    return failed


def _trace_replays(m: Model, tr: dict, init: set, n: int) -> bool:
    latch_q = [q for q, _, _ in m.latches]
    states, inputs = tr["states"], tr["inputs"]
    if len(states) != n + 1 or len(inputs) != n:
        return False
    if tuple(states[0][q] for q in latch_q) not in init:
        return False
    for k in range(n):
        val = m.single(inputs[k], states[k])
        if any(val[d] != states[k + 1][q] for q, d, _ in m.latches):
            return False
    return True
