"""falseprops benchmark: one workload, one process, one design in flight.

    python3 perfbench/run.py --workload comb-compset --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The seed makes a fixed batch of live-logic designs (see
designs.py).  Set-up imports the package and parses every design's netlist
text, several times over.  The timed loop then drives the public API over
the whole batch, one whole pass at a time, and starts another pass only
if it should end within `--seconds`; every pass does the same work, so
the metrics do not depend on how many passes fit.  The batch is sized so
that one pass takes about `--seconds` on a 2-core x86-64 host.  Outside
the timed intervals, each report of the first pass goes through an
independent checker (oracle.py) as soon as it is made; after the loop a
sixteenth of the batch runs again, and every report's hash must repeat
across passes, across that rerun and across invocations on the same seed.

With `--trace 0` the last line of stdout holds the end-to-end metrics;
with `--trace 1` it holds per-layer metrics from spans recorded around the
package's public functions (tracer.py).  Both write a summary, and the
traced run its spans, under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

POLICIES = ("stuck-at", "gate-subst", "clause-flip")
SETUP_REPEATS = 7
REPEAT_SHARE = 16     # 1/16 of the batch runs again to check determinism
REPEAT_PASS = -1000   # tracer pass number of those repeats
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    kind: str          # "compset" | "atpg" | "seq"
    designs: int       # batch size: one pass runs every design once
    inputs: int
    gates: int
    latches: int = 0
    frames: int = 0


WORKLOADS = {
    "comb-compset": Workload("compset", 62, 7, 32),
    "atpg-faults": Workload("atpg", 64, 7, 60),
    "seq-compset": Workload("seq", 400, 4, 24, 5, 3),
}

END_TO_END_UNITS = {"setup_s": "s", "verdicts_per_s": "1/s",
                    "report_s_p50": "s", "verdict_ms_p50": "ms",
                    "slowest_verdict_ms_p50": "ms", "peak_rss_mb": "MB"}


def make_designs(wl: Workload, seed: int) -> list:
    import designs
    rng = random.Random(seed)
    out = []
    for k in range(wl.designs):
        name = f"d{seed}_{k}"
        if wl.kind == "seq":
            out.append(designs.live_sequential(rng, name, wl.inputs, wl.gates,
                                               wl.latches))
        else:
            out.append(designs.live_combinational(rng, name, wl.inputs,
                                                  wl.gates))
    return out


def fresh_import():
    """Import the package afresh, as a new process would."""
    for m in [m for m in sys.modules
              if m == "falseprops" or m.startswith("falseprops.")]:
        del sys.modules[m]
    return importlib.import_module("falseprops")


class Probe:
    """Verdict time stamps, and the properties behind each verdict for the
    checker.  It wraps the call that completes a verdict where its caller
    looks it up; it records, it does not trace."""

    def __init__(self):
        self.stamps: list[float] = []
        self.props: list = []
        self.keep = False

    def install(self, fp) -> None:
        verify, seq = fp.verify, fp.seq
        classify = verify.classify_property
        find_cex = seq.find_counterexample
        safety = seq.false_safety_prop

        def classified(*args, **kwargs):
            prop = classify(*args, **kwargs)
            self.stamps.append(clock())
            if self.keep:
                self.props.append(prop.clauses + prop.spurious)
            return prop

        def safety_prop(*args, **kwargs):
            res = safety(*args, **kwargs)
            if self.keep:
                self.props.append(res[0].clauses)
            return res

        def counterexample(*args, **kwargs):
            res = find_cex(*args, **kwargs)
            self.stamps.append(clock())
            return res

        verify.classify_property = classified
        seq.false_safety_prop = safety_prop
        seq.find_counterexample = counterexample


def run_compset(fp, c, k: int, wl: Workload, probe: Probe) -> dict:
    spec = fp.Specification(golden=c)
    return fp.compset(spec, c, policy=POLICIES[k % 3]).to_json()


def run_atpg(fp, c, k: int, wl: Workload, probe: Probe) -> dict:
    names = c.names
    faults = []
    for g in sorted(c.gate_of):
        for v in (0, 1):
            try:
                tv = fp.atpg_stuck_at(c, g, v)
            except Exception as e:  # a raising call is a failed verdict
                faults.append({"gate": names[g], "stuck_at": v,
                               "error": repr(e)})
            else:
                faults.append({"gate": names[g], "stuck_at": v,
                               "detectable": tv is not None,
                               "test": tv.to_json(names) if tv else None})
            probe.stamps.append(clock())
    return {"circuit": c.name, "faults": faults}


def run_seq(fp, c, k: int, wl: Workload, probe: Probe) -> dict:
    rs = fp.reach_oracle(c, min_frames=wl.frames)
    rep = fp.seq_compset(fp.Specification(), c, wl.frames,
                         policy=POLICIES[k % 3])
    return {"reach": {"diameter": rs.diameter,
                      "reachable": len(rs.reachable),
                      "frame_sizes": [len(f) for f in rs.frames]},
            "seq_compset": rep.to_json()}


RUNNERS = {"compset": run_compset, "atpg": run_atpg, "seq": run_seq}


def verdicts_of(wl: Workload, d) -> int:
    return len(d.gate_list) * (2 if wl.kind == "atpg" else 1)


def check_design(wl: Workload, d, text: str, props: list, names) -> int:
    """Failed verdicts of one report, by the independent checker."""
    import oracle
    m = oracle.Model(d)
    report = json.loads(text)
    clauses = [[[("-" if l.neg else "") + names[l.var] for l in cl.lits]
                for cl in p] for p in props]
    if wl.kind == "compset":
        return oracle.check_compset(m, report, clauses)
    if wl.kind == "atpg":
        return oracle.check_atpg(m, report)
    return oracle.check_seq(m, report, clauses, wl.frames)


def check_hashes(path: Path, hashes: list[str]) -> list[bool]:
    """Compare with the hashes an earlier invocation on the same batch
    recorded; record them if none did.  True where a design matches."""
    if path.exists():
        earlier = json.loads(path.read_text())
        return [a == b for a, b in zip(hashes, earlier)] + \
            [False] * max(0, len(hashes) - len(earlier))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(hashes))
    tmp.replace(path)
    return [True] * len(hashes)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if not (SRC / "falseprops" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import falseprops
    if not Path(falseprops.__file__).resolve().is_relative_to(SRC):
        print(f"error: falseprops imported from {falseprops.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    designs = make_designs(wl, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    # -- set-up: import the package, parse every netlist ---------------------
    setup_times = []
    setup_passes = []
    for rep in range(SETUP_REPEATS):
        if tracer is not None:
            setup_passes.append(-1 - rep)
            tracer.begin_trace(-10**6 - rep, -1 - rep)
        t0 = clock()
        fp = fresh_import()
        parse = fp.parse_netlist if tracer is None else \
            tracer.span("netlist.parse", fp.parse_netlist)
        circuits = [parse(d.text) for d in designs]
        setup_times.append(clock() - t0)

    # -- timed loop ------------------------------------------------------------
    if tracer is not None:
        tracer.install(fp)
    probe = Probe()
    probe.install(fp)
    runner = RUNNERS[wl.kind]
    n = len(designs)
    hashes: list[list[str]] = [[] for _ in range(n)]
    errors: dict[int, str] = {}

    def run_design(k: int, trace_id: int, pass_no: int) -> str:
        if tracer is not None:
            tracer.begin_trace(trace_id, pass_no)
        probe.stamps.clear()
        probe.props = []
        try:
            text = json.dumps(runner(fp, circuits[k], k, wl, probe), indent=2,
                              sort_keys=True)
        except Exception as e:  # a raising design fails all its verdicts
            text = ""
            errors.setdefault(k, repr(e))
        return text

    report_s: list[float] = []
    latencies: list[float] = []
    slowest: list[float] = []  # each design report's longest verdict
    bad = [0] * n          # failed verdicts per design, by the checker
    passes = 0
    start = clock()
    while True:
        probe.keep = passes == 0
        for k in range(n):
            t0 = clock()
            text = run_design(k, passes * n + k, passes)
            t1 = clock()
            hashes[k].append(digest(text))
            report_s.append(t1 - t0)
            prev = t0
            longest = 0.0
            for s in probe.stamps:
                latencies.append(s - prev)
                longest = max(longest, s - prev)
                prev = s
            slowest.append(longest)
            if passes == 0 and text:
                bad[k] = check_design(wl, designs[k], text, probe.props,
                                      circuits[k].names)
        passes += 1
        elapsed = clock() - start
        if elapsed * (passes + 1) / passes > args.seconds:
            break
    busy = sum(report_s)

    # -- determinism, outside the timed region --------------------------------
    probe.keep = False
    for k in range(max(1, n // REPEAT_SHARE)):
        hashes[k].append(digest(run_design(k, -1 - k, REPEAT_PASS)))
    per_design = [verdicts_of(wl, d) for d in designs]
    attempted = sum(per_design) * passes
    batch_id = digest("".join(d.text for d in designs))[:16]
    same_as_before = check_hashes(
        OUT / f"hashes-{args.workload}-{args.seed}-{batch_id}.json",
        [h[0] for h in hashes])
    failed = 0
    for k in range(n):
        if k in errors or len(set(hashes[k])) > 1 or not same_as_before[k]:
            bad[k] = per_design[k]
        failed += bad[k] * passes
    for k, e in sorted(errors.items()):
        print(f"design {designs[k].name} raised {e}", file=sys.stderr)
    if len(latencies) < 2:
        print("error: no verdicts were completed", file=sys.stderr)
        return 1

    verdicts_per_s = attempted / busy
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "passes": passes, "designs": n,
               "verdicts": attempted, "failed": failed, "busy_s": busy,
               "verdicts_per_s": verdicts_per_s,
               "verdict_ms_p99":
                   statistics.quantiles(latencies, n=100)[98] * 1e3}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "verdicts_per_s": verdicts_per_s,
            "report_s_p50": statistics.median(report_s),
            "verdict_ms_p50": statistics.median(latencies) * 1e3,
            "slowest_verdict_ms_p50": statistics.median(slowest) * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        from tracer import UNITS
        metrics, unsteady = tracer.metrics(list(range(passes)), setup_passes)
        units = UNITS
        summary["unsteady_counters"] = unsteady
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.bin")
        print_layers(args.workload, metrics, units)
    summary["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def print_layers(workload: str, metrics: dict, units: dict) -> None:
    print(f"per-layer metrics, {workload} (one pass):", file=sys.stderr)
    for k in sorted(metrics):
        print(f"  {k:<24} {metrics[k]:>14.6g} {units[k]}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
