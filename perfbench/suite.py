"""Drive run.py over every workload and summarize.

    python3 perfbench/suite.py report --seed 1
        One untraced and two traced runs per workload, each in its own
        process.  Prints every end-to-end metric with its unit (one row per
        workload), the verdict fail ratio, the tracing overhead, per-layer
        self time and counts, and whether the exact counters repeated
        across the two traced runs.

    python3 perfbench/suite.py spread --seeds 1-10 [--workload NAME ...]
        Untraced runs on several seeds; prints each end-to-end metric's
        median and its quartile spread as a share of the median, next to
        the bound in BENCHMARK.json.

Run from the root of a source checkout.  Runs are sequential, so they do
not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import CALLS, EXACT, SELF_TIMES  # noqa: E402

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns its result line and its summary."""
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = json.loads((ROOT / ".perfbench" /
                          f"run-{workload}-{seed}-trace{trace}.json"
                          ).read_text())
    return result, summary


def report(seed: int, workloads: list[str]) -> int:
    e2e = BENCH["end_to_end"]
    head = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in e2e] + \
        ["verdict_fail_ratio", "attempted"]
    rows, traced = [], {}
    for w in workloads:
        res, _ = run(w, seed, 0)
        m = res["metrics"]
        rows.append([w] + [f"{m[x['name']]['value']:.6g}" for x in e2e] +
                     [f"{res['failed'] / res['attempted']:.6g}",
                      str(res["attempted"])])
        traced[w] = [run(w, seed, 1) for _ in range(2)], m["verdicts_per_s"]["value"]
    widths = [max(len(r[i]) for r in [head] + rows) for i in range(len(head))]
    print(f"end-to-end metrics, seed {seed}, untraced:")
    for r in [head] + rows:
        print("  " + "  ".join(c.rjust(wd) for c, wd in zip(r, widths)))
    ok = True
    for w, (pair, untraced_vps) in traced.items():
        (r1, s1), (r2, s2) = pair
        m1, m2 = r1["metrics"], r2["metrics"]
        vps = statistics.median([s1["verdicts_per_s"], s2["verdicts_per_s"]])
        print(f"\n{w}: tracing overhead {1 - vps / untraced_vps:+.1%} "
              f"of verdicts_per_s ({untraced_vps:.4g} untraced, "
              f"{vps:.4g} traced); failed {r1['failed']}, {r2['failed']}")
        busy = statistics.median([s1["busy_s"], s2["busy_s"]]) / s1["passes"]
        print(f"  {'layer metric':<24} {'run 1':>12} {'run 2':>12} "
              f"{'share':>7}")
        for name in sorted(m1):
            a, b = m1[name]["value"], m2[name]["value"]
            share = f"{a / busy:7.1%}" if name in SELF_TIMES else ""
            print(f"  {name:<24} {a:>12.6g} {b:>12.6g} {share:>7}")
        for name in EXACT:
            if m1[name]["value"] != m2[name]["value"]:
                ok = False
                print(f"  counter {name} differs across traced runs")
        for s in (s1, s2):
            if s["unsteady_counters"]:
                print(f"  counters differing across passes: "
                      f"{', '.join(s['unsteady_counters'])}")
        print(f"  exact counters ({', '.join(EXACT)}): "
              f"{'repeat' if ok else 'DIFFER'}")
    return 0 if ok else 1


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(seeds: list[int], workloads: list[str]) -> int:
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    worst = 0.0
    for w in workloads:
        vals: dict[str, list[float]] = {m: [] for m in bounds}
        for s in seeds:
            res, _ = run(w, s, 0)
            if not res["correct"]:
                print(f"{w} seed {s}: {res['failed']} failed verdicts")
            for m in bounds:
                vals[m].append(res["metrics"][m]["value"])
        print(f"{w}, {len(seeds)} seeds:")
        for m, v in vals.items():
            q = statistics.quantiles(v, n=4)
            share = (q[2] - q[0]) / q[1]
            if m != "setup_s":
                worst = max(worst, share / bounds[m])
            print(f"  {m:<16} median {q[1]:>12.6g}  spread {share:6.1%}  "
                  f"bound {bounds[m]:.0%}  values "
                  f"{' '.join(f'{x:.4g}' for x in v)}")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("report")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p = sub.add_parser("spread")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    workloads = args.workload or WORKLOADS
    if args.cmd == "report":
        return report(args.seed, workloads)
    return spread(parse_seeds(args.seeds), workloads)


if __name__ == "__main__":
    sys.exit(main())
