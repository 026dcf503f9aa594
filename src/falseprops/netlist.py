"""Gate-level netlist model: parsing, simulation, emission.

A circuit is a set of densely numbered variables, each defined exactly once
as a primary input, a latch output, or a gate output.  Two textual formats
are supported: a line-oriented "simple" format and ASCII AIGER ("aag").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

GATE_KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "CONST0", "CONST1")
_UNARY = frozenset(("NOT", "BUF"))
_NULLARY = frozenset(("CONST0", "CONST1"))


class NetlistError(Exception):
    """Structural problem in a circuit (cycle, bad arity, multiple drivers...)."""


class ParseError(NetlistError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {msg}" if line else msg)


def gate_arity_ok(kind: str, n: int) -> bool:
    if kind in _NULLARY:
        return n == 0
    if kind in _UNARY:
        return n == 1
    return n >= 2


def eval_gate(kind: str, values: Sequence[int]) -> int:
    """Value of a gate of `kind` on fanin `values` (each 0 or 1)."""
    if kind == "AND":
        return int(all(values))
    if kind == "OR":
        return int(any(values))
    if kind == "NAND":
        return int(not all(values))
    if kind == "NOR":
        return int(not any(values))
    if kind == "XOR":
        return sum(values) & 1
    if kind == "XNOR":
        return (sum(values) & 1) ^ 1
    if kind == "NOT":
        return values[0] ^ 1
    if kind == "BUF":
        return values[0]
    if kind == "CONST0":
        return 0
    if kind == "CONST1":
        return 1
    raise NetlistError(f"unknown gate kind {kind!r}")


@dataclass(frozen=True)
class Gate:
    kind: str
    fanins: tuple[int, ...]
    output: int


@dataclass(frozen=True)
class Latch:
    present: int
    next: int
    init: Optional[int]  # 0, 1, or None for unconstrained


@dataclass(frozen=True)
class Circuit:
    name: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    latches: tuple[Latch, ...]
    gates: tuple[Gate, ...]
    names: tuple[str, ...]  # variable id -> name

    def __post_init__(self):
        self._validate()

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def is_sequential(self) -> bool:
        return bool(self.latches)

    @cached_property
    def gate_of(self) -> Mapping[int, Gate]:
        return {g.output: g for g in self.gates}

    @cached_property
    def id_of(self) -> Mapping[str, int]:
        return {n: i for i, n in enumerate(self.names)}

    @cached_property
    def topo_gates(self) -> tuple[Gate, ...]:
        """Gates ordered so every fanin is an input, latch, or earlier gate."""
        gate_of = self.gate_of
        indeg = {}
        uses: dict[int, list[int]] = {}
        for g in self.gates:
            deps = set(v for v in g.fanins if v in gate_of)
            indeg[g.output] = len(deps)
            for v in deps:
                uses.setdefault(v, []).append(g.output)
        ready = sorted(o for o, d in indeg.items() if d == 0)
        order = []
        while ready:
            o = ready.pop()
            order.append(gate_of[o])
            for u in uses.get(o, ()):
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
        if len(order) != len(self.gates):
            cyclic = sorted(o for o, d in indeg.items() if d > 0)
            names = ", ".join(self.names[o] for o in cyclic[:5])
            raise NetlistError(f"combinational cycle through: {names}")
        return tuple(order)

    def _validate(self):
        n = len(self.names)
        defined: dict[int, str] = {}

        def define(v: int, what: str):
            if not 0 <= v < n:
                raise NetlistError(f"variable id {v} out of range (num_vars={n})")
            if v in defined:
                raise NetlistError(
                    f"multiple drivers for {self.names[v]!r} ({defined[v]} and {what})")
            defined[v] = what

        for v in self.inputs:
            define(v, "input")
        for lt in self.latches:
            define(lt.present, "latch")
            if lt.init not in (0, 1, None):
                raise NetlistError(f"bad latch init {lt.init!r}")
        for g in self.gates:
            if g.kind not in GATE_KINDS:
                raise NetlistError(f"unknown gate kind {g.kind!r}")
            if not gate_arity_ok(g.kind, len(g.fanins)):
                raise NetlistError(
                    f"gate {self.names[g.output]!r}: {g.kind} cannot take "
                    f"{len(g.fanins)} fanins")
            define(g.output, "gate")
        if len(defined) != n:
            missing = [self.names[v] for v in range(n) if v not in defined][:5]
            raise NetlistError(f"undriven variables: {', '.join(missing)}")
        for g in self.gates:
            for v in g.fanins:
                if not 0 <= v < n:
                    raise NetlistError(f"gate {self.names[g.output]!r}: fanin id {v} undefined")
        for lt in self.latches:
            if not 0 <= lt.next < n:
                raise NetlistError(f"latch {self.names[lt.present]!r}: next-state id undefined")
        for v in self.outputs:
            if not 0 <= v < n:
                raise NetlistError(f"output id {v} undefined")
        if len(set(self.names)) != n:
            seen = set()
            for nm in self.names:
                if nm in seen:
                    raise NetlistError(f"duplicate name {nm!r}")
                seen.add(nm)
        self.topo_gates  # raises on cycles


def _evaluate(c: Circuit, x: Mapping[int, int],
             s: Optional[Mapping[int, int]] = None) -> dict[int, int]:
    """Total valuation of every circuit variable under inputs x and state s."""
    val: dict[int, int] = {}
    for v in c.inputs:
        if v not in x:
            raise NetlistError(f"missing value for input {c.names[v]!r}")
        val[v] = int(x[v])
    for lt in c.latches:
        if s is None or lt.present not in s:
            raise NetlistError(f"missing value for state {c.names[lt.present]!r}")
        val[lt.present] = int(s[lt.present])
    for g in c.topo_gates:
        val[g.output] = eval_gate(g.kind, [val[v] for v in g.fanins])
    return val


def simulate(c: Circuit, x: Mapping[int, int],
             s: Optional[Mapping[int, int]] = None
             ) -> tuple[dict[int, int], Optional[dict[int, int]]]:
    """One evaluation of the circuit.

    Returns (outputs, next_state); next_state is None for combinational
    circuits.  Keys are variable ids.
    """
    val = _evaluate(c, x, s)
    z = {v: val[v] for v in c.outputs}
    nxt = {lt.present: val[lt.next] for lt in c.latches} if c.latches else None
    return z, nxt


# ---------------------------------------------------------------------------
# simple format

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_.\[\]]*|[=(),;]|\S")


def _tokenize(text: str) -> Iterator[tuple[str, int, int]]:
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN.finditer(line):
            yield m.group(0), ln, m.start() + 1


def _statements(text: str):
    stmt: list[tuple[str, int, int]] = []
    for tok in _tokenize(text):
        if tok[0] == ";":
            if stmt:
                yield stmt
            stmt = []
        else:
            stmt.append(tok)
    if stmt:
        t, ln, col = stmt[0]
        raise ParseError("statement missing terminating ';'", ln, col)


_KIND_LOOKUP = {k.lower(): k for k in GATE_KINDS}
_KEYWORDS = frozenset(("input", "output", "latch", "circuit", "init"))


def _check_ident(tok: tuple[str, int, int]) -> str:
    t, ln, col = tok
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.\[\]]*", t):
        raise ParseError(f"expected identifier, got {t!r}", ln, col)
    return t


def parse_simple(text: str) -> Circuit:
    name = "main"
    input_names: list[str] = []
    output_refs: list[tuple[str, int, int]] = []
    latch_decls: list[tuple[str, tuple[str, int, int], Optional[int]]] = []
    gate_decls: list[tuple[str, str, list[tuple[str, int, int]]]] = []
    order: list[tuple[str, str]] = []  # (name, "input"|"latch"|"gate") in declaration order

    declared: dict[str, tuple[int, int]] = {}

    def declare(tok: tuple[str, int, int], what: str):
        t, ln, col = tok
        if t in declared:
            raise ParseError(f"{t!r} already defined", ln, col)
        declared[t] = (ln, col)
        order.append((t, what))

    for stmt in _statements(text):
        head, ln, col = stmt[0]
        key = head.lower()
        if key == "circuit":
            if len(stmt) != 2:
                raise ParseError("usage: circuit <name>", ln, col)
            name = _check_ident(stmt[1])
        elif key == "input":
            if len(stmt) < 2:
                raise ParseError("empty input list", ln, col)
            for tok in stmt[1:]:
                declare(tok, "input")
                input_names.append(_check_ident(tok))
        elif key == "output":
            if len(stmt) < 2:
                raise ParseError("empty output list", ln, col)
            output_refs.extend(stmt[1:])
        elif key == "latch":
            if len(stmt) not in (3, 5):
                raise ParseError("usage: latch <q> <d> [init 0|1|x]", ln, col)
            init: Optional[int] = 0
            if len(stmt) == 5:
                kw, kln, kcol = stmt[3]
                iv, iln, icol = stmt[4]
                if kw.lower() != "init":
                    raise ParseError(f"expected 'init', got {kw!r}", kln, kcol)
                if iv not in ("0", "1", "x", "X"):
                    raise ParseError(f"latch init must be 0, 1 or x, got {iv!r}", iln, icol)
                init = None if iv in ("x", "X") else int(iv)
            declare(stmt[1], "latch")
            latch_decls.append((_check_ident(stmt[1]), stmt[2], init))
        else:
            # <out> = KIND ( a , b )
            if len(stmt) < 4 or stmt[1][0] != "=":
                raise ParseError(f"unrecognized statement starting with {head!r}", ln, col)
            out = _check_ident(stmt[0])
            if out.lower() in _KEYWORDS:
                raise ParseError(f"{out!r} is reserved", ln, col)
            kind_tok, kln, kcol = stmt[2]
            kind = _KIND_LOOKUP.get(kind_tok.lower())
            if kind is None:
                raise ParseError(f"unknown gate kind {kind_tok!r}", kln, kcol)
            if stmt[3][0] != "(" or stmt[-1][0] != ")":
                raise ParseError("gate fanins must be parenthesized", kln, kcol)
            args = [t for t in stmt[4:-1] if t[0] != ","]
            declare(stmt[0], "gate")
            gate_decls.append((out, kind, args))

    ids = {nm: i for i, (nm, _) in enumerate(order)}

    def resolve(tok: tuple[str, int, int]) -> int:
        t, ln, col = tok
        if t not in ids:
            raise ParseError(f"undefined name {t!r}", ln, col)
        return ids[t]

    inputs = tuple(ids[nm] for nm in input_names)
    latches = tuple(Latch(ids[q], resolve(d), init) for q, d, init in latch_decls)
    gates = tuple(Gate(kind, tuple(resolve(a) for a in args), ids[out])
                  for out, kind, args in gate_decls)
    outputs = tuple(resolve(t) for t in output_refs)
    return Circuit(name, inputs, outputs, latches, gates,
                   tuple(nm for nm, _ in order))


def emit_simple(c: Circuit) -> str:
    lines = [f"circuit {c.name};"]
    if c.inputs:
        lines.append("input " + " ".join(c.names[v] for v in c.inputs) + ";")
    if c.outputs:
        lines.append("output " + " ".join(c.names[v] for v in c.outputs) + ";")
    for lt in c.latches:
        init = "x" if lt.init is None else str(lt.init)
        lines.append(f"latch {c.names[lt.present]} {c.names[lt.next]} init {init};")
    for g in c.topo_gates:
        args = ", ".join(c.names[v] for v in g.fanins)
        lines.append(f"{c.names[g.output]} = {g.kind}({args});")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ASCII AIGER

def parse_aiger(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("aag"):
        raise ParseError("not an ASCII AIGER file (missing 'aag' header)", 1, 1)
    hdr = lines[0].split()
    if len(hdr) != 6:
        raise ParseError("header must be 'aag M I L O A'", 1, 1)
    try:
        m, ni, nl, no, na = (int(t) for t in hdr[1:])
    except ValueError:
        raise ParseError("non-numeric AIGER header field", 1, 1)
    body = lines[1:]
    if len(body) < ni + nl + no + na:
        raise ParseError("truncated AIGER body", len(lines), 1)

    def lit_of(tok: str, ln: int) -> int:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"bad literal {tok!r}", ln, 1)
        if v < 0 or v > 2 * m + 1:
            raise ParseError(f"literal {v} out of range for M={m}", ln, 1)
        return v

    pos = 0
    in_lits = []
    for k in range(ni):
        ln = 2 + pos
        lt = lit_of(body[pos], ln)
        if lt < 2 or lt & 1:
            raise ParseError(f"input literal must be a positive even literal, got {lt}", ln, 1)
        in_lits.append(lt)
        pos += 1
    latch_rows = []
    for k in range(nl):
        ln = 2 + pos
        parts = body[pos].split()
        if len(parts) not in (2, 3):
            raise ParseError("latch line must be 'cur next [init]'", ln, 1)
        cur = lit_of(parts[0], ln)
        nxt = lit_of(parts[1], ln)
        if cur < 2 or cur & 1:
            raise ParseError(f"latch literal must be a positive even literal, got {cur}", ln, 1)
        init: Optional[int] = 0
        if len(parts) == 3:
            iv = lit_of(parts[2], ln)
            if iv == 0:
                init = 0
            elif iv == 1:
                init = 1
            elif iv == cur:
                init = None
            else:
                raise ParseError(f"latch init must be 0, 1 or the latch literal, got {iv}", ln, 1)
        latch_rows.append((cur, nxt, init))
        pos += 1
    out_lits = []
    for k in range(no):
        out_lits.append(lit_of(body[pos], 2 + pos))
        pos += 1
    and_rows = []
    for k in range(na):
        ln = 2 + pos
        parts = body[pos].split()
        if len(parts) != 3:
            raise ParseError("and line must be 'lhs rhs0 rhs1'", ln, 1)
        lhs, r0, r1 = (lit_of(p, ln) for p in parts)
        if lhs < 2 or lhs & 1:
            raise ParseError(f"and output must be a positive even literal, got {lhs}", ln, 1)
        and_rows.append((lhs, r0, r1))
        pos += 1

    symbols: dict[str, str] = {}
    for ln_no, ln in enumerate(body[pos:], start=2 + pos):
        if ln == "c":
            break
        sm = re.fullmatch(r"([ilo])(\d+)\s+(.+)", ln)
        if sm is None:
            raise ParseError(f"bad symbol line {ln!r}", ln_no, 1)
        symbols[sm.group(1) + sm.group(2)] = sm.group(3).strip()

    # Build the circuit: one variable per AIG variable in slot order, plus
    # NOT/CONST gates materialized for negated or constant literal uses.
    names: list[str] = []
    input_ids: list[int] = []
    gates: list[Gate] = []
    base: dict[int, int] = {}  # even literal -> variable id
    used = set()

    def fresh(nm: str) -> int:
        if nm in used:
            k = 0
            while f"{nm}_{k}" in used:
                k += 1
            nm = f"{nm}_{k}"
        used.add(nm)
        names.append(nm)
        return len(names) - 1

    for k, lt in enumerate(in_lits):
        if lt in base:
            raise ParseError(f"literal {lt} defined twice", 1, 1)
        base[lt] = fresh(symbols.get(f"i{k}", f"i{k}"))
        input_ids.append(base[lt])
    latch_ids = []
    for k, (cur, nxt, init) in enumerate(latch_rows):
        if cur in base:
            raise ParseError(f"literal {cur} defined twice", 1, 1)
        base[cur] = fresh(symbols.get(f"l{k}", f"l{k}"))
        latch_ids.append(base[cur])
    for lhs, r0, r1 in and_rows:
        if lhs in base:
            raise ParseError(f"literal {lhs} defined twice", 1, 1)
        base[lhs] = fresh(f"a{lhs}")

    const_ids: dict[int, int] = {}
    not_ids: dict[int, int] = {}

    def var_for(lit: int) -> int:
        """Variable carrying the value of an AIG literal, adding gates as needed."""
        if lit == 0 or lit == 1:
            if lit not in const_ids:
                vid = fresh(f"const{lit}")
                gates.append(Gate(f"CONST{lit}", (), vid))
                const_ids[lit] = vid
            return const_ids[lit]
        if lit & 1 == 0:
            if lit not in base:
                raise ParseError(f"literal {lit} used but never defined", 1, 1)
            return base[lit]
        if lit not in not_ids:
            src = var_for(lit & ~1)
            vid = fresh(f"n{lit}")
            gates.append(Gate("NOT", (src,), vid))
            not_ids[lit] = vid
        return not_ids[lit]

    for lhs, r0, r1 in and_rows:
        gates.append(Gate("AND", (var_for(r0), var_for(r1)), base[lhs]))
    latches = tuple(Latch(latch_ids[k], var_for(nxt), init)
                    for k, (cur, nxt, init) in enumerate(latch_rows))
    outputs = tuple(var_for(lt) for lt in out_lits)

    # Output symbol names attach to the variable when it has a default name.
    name_arr = list(names)
    for k, v in enumerate(outputs):
        nm = symbols.get(f"o{k}")
        if nm and nm not in used:
            used.discard(name_arr[v])
            name_arr[v] = nm
            used.add(nm)
    return Circuit("main", tuple(input_ids), outputs, latches, tuple(gates),
                   tuple(name_arr))


def emit_aiger(c: Circuit) -> str:
    nv = [0]  # last used AIG variable index
    ands: list[tuple[int, int, int]] = []
    and_memo: dict[tuple[int, int], int] = {}

    def new_var() -> int:
        nv[0] += 1
        return nv[0]

    def mk_and(a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == 0:
            return 0
        if a == 1:
            return b
        if a == b:
            return a
        if a ^ b == 1:
            return 0
        key = (a, b)
        if key not in and_memo:
            lhs = 2 * new_var()
            ands.append((lhs, b, a))  # aag convention: rhs0 >= rhs1
            and_memo[key] = lhs
        return and_memo[key]

    def mk_and_n(lits: Sequence[int]) -> int:
        acc = 1
        for lt in lits:
            acc = mk_and(acc, lt)
        return acc

    def mk_xor(a: int, b: int) -> int:
        return mk_and(mk_and(a, b ^ 1) ^ 1, mk_and(a ^ 1, b) ^ 1) ^ 1

    lit_of: dict[int, int] = {}
    for v in c.inputs:
        lit_of[v] = 2 * new_var()
    for lt in c.latches:
        lit_of[lt.present] = 2 * new_var()

    for g in c.topo_gates:
        ins = [lit_of[v] for v in g.fanins]
        if g.kind == "AND":
            out = mk_and_n(ins)
        elif g.kind == "OR":
            out = mk_and_n([l ^ 1 for l in ins]) ^ 1
        elif g.kind == "NAND":
            out = mk_and_n(ins) ^ 1
        elif g.kind == "NOR":
            out = mk_and_n([l ^ 1 for l in ins])
        elif g.kind == "XOR" or g.kind == "XNOR":
            acc = ins[0]
            for lt_ in ins[1:]:
                acc = mk_xor(acc, lt_)
            out = acc if g.kind == "XOR" else acc ^ 1
        elif g.kind == "NOT":
            out = ins[0] ^ 1
        elif g.kind == "BUF":
            out = ins[0]
        elif g.kind == "CONST0":
            out = 0
        else:
            out = 1
        lit_of[g.output] = out

    out_lits = [lit_of[v] for v in c.outputs]
    latch_lines = []
    for lt in c.latches:
        nxt = lit_of[lt.next]
        init = lit_of[lt.present] if lt.init is None else lt.init
        latch_lines.append((lit_of[lt.present], nxt, init))

    lines = [f"aag {nv[0]} {len(c.inputs)} {len(c.latches)} {len(c.outputs)} {len(ands)}"]
    for v in c.inputs:
        lines.append(str(lit_of[v]))
    for cur, nxt, init in latch_lines:
        lines.append(f"{cur} {nxt}" if init == 0 else f"{cur} {nxt} {init}")
    for lt in out_lits:
        lines.append(str(lt))
    for lhs, r0, r1 in ands:
        lines.append(f"{lhs} {r0} {r1}")
    for k, v in enumerate(c.inputs):
        lines.append(f"i{k} {c.names[v]}")
    for k, lt in enumerate(c.latches):
        lines.append(f"l{k} {c.names[lt.present]}")
    for k, v in enumerate(c.outputs):
        lines.append(f"o{k} {c.names[v]}")
    return "\n".join(lines) + "\n"


FORMATS = ("simple", "aiger")


def parse_netlist(text: str, fmt: str = "simple") -> Circuit:
    if fmt == "simple":
        return parse_simple(text)
    if fmt == "aiger":
        return parse_aiger(text)
    raise ValueError(f"unknown netlist format {fmt!r}")


def emit_netlist(c: Circuit, fmt: str = "simple") -> str:
    if fmt == "simple":
        return emit_simple(c)
    if fmt == "aiger":
        return emit_aiger(c)
    raise ValueError(f"unknown netlist format {fmt!r}")
