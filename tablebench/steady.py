#!/usr/bin/env python3
"""Steadiness report over sets of benchmark runs.

Make a set (one run per seed and workload, each in a fresh process):
    python3 tablebench/steady.py run --seeds 1-10 --out set1.json [--workloads ensemble-res,...] [--trace 1]
Report one set, or compare two:
    python3 tablebench/steady.py report set1.json [set2.json]

For every workload and metric the report gives the median, quartiles
(statistics.quantiles, n=4), min, max and the spread (q3 - q1) / median. It
flags an end-to-end metric whose spread exceeds its bound in BENCHMARK.json,
and, given two sets, any metric whose second median is worse than the first
by more than the bound. A set of one seed repeated (--seeds 3,3,3,3,3) gives
the spread that comes from the machine alone, without input differences.
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def make_set(args):
    b = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in b["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in seeds(args.seeds):
        for w in workloads:
            cmd = b["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(b["run_seconds"]), "--trace", args.trace]
            t0 = time.monotonic()
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.monotonic() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}", file=sys.stderr)
                continue
            r = json.loads(lines[-1])
            env = json.loads(lines[-2]).get("env", {}) if len(lines) > 1 else {}
            runs[w].append({"seed": seed, "wall_s": wall, "result": r, "env": env})
            m = {k: v["value"] for k, v in r["metrics"].items()}
            print(f"{w} seed {seed}: {wall:.0f}s correct={r['correct']} " +
                  " ".join(f"{k}={v:.4g}" for k, v in sorted(m.items())
                           if not k.startswith(("ensemfdet.", "sampling."))), file=sys.stderr)
            with open(args.out, "w") as fh:
                json.dump(runs, fh, indent=1)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "spread": spread}


def report(args):
    b = spec()
    bounds = {m["name"]: m for m in b["end_to_end"]}
    sets = []
    for path in args.sets:
        with open(path) as fh:
            sets.append(json.load(fh))
    flagged = 0
    for w in sets[0]:
        print(f"\n== {w}")
        print(f"{'metric':34} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11}"
              f" {'spread':>7} {'bound':>6}  note")
        metrics = sorted({k for r in sets[0][w] for k in r["result"]["metrics"]})
        for k in metrics:
            stats = [summary([r["result"]["metrics"][k]["value"] for r in s.get(w, [])
                              if k in r["result"]["metrics"]]) for s in sets]
            bound = bounds.get(k, {}).get("bound")
            notes = []
            for i, st in enumerate(stats):
                if bound is not None and st["spread"] > bound:
                    notes.append(f"set {i + 1} spread over bound")
                elif bound is not None and st["spread"] > bound / 3:
                    notes.append(f"set {i + 1} spread over bound/3")
            if len(stats) == 2 and bound is not None:
                a, c = stats[0]["median"], stats[1]["median"]
                worse = (c - a) / a if bounds[k]["better"] == "lower" else (a - c) / a
                notes.append(f"median shift {worse:+.3f}")
                if worse > bound:
                    notes.append("WORSE THAN BOUND")
            flagged += any("over bound" in n and "bound/3" not in n or "WORSE" in n for n in notes)
            for i, st in enumerate(stats):
                print(f"{(k if i == 0 else '  set 2'):34} {st['n']:>3} {st['median']:>11.5g} {st['q1']:>11.5g}"
                      f" {st['q3']:>11.5g} {st['min']:>11.5g} {st['max']:>11.5g} {st['spread']:>7.3f}"
                      f" {'' if bound is None else bound:>6}  {'; '.join(notes) if i == len(stats) - 1 else ''}")
        for i, st in enumerate(sets):
            calib = [r["env"].get("env.calib_s", 0.0) for r in st.get(w, [])]
            steal = [r["env"].get("env.steal_frac", 0.0) for r in st.get(w, [])]
            if calib:
                print(f"set {i + 1} machine: env.calib_s median {statistics.median(calib):.4f} "
                      f"(min {min(calib):.4f}, max {max(calib):.4f}), env.steal_frac max {max(steal):.3f}")
    print(f"\n{flagged} metric(s) out of bounds")
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    r.add_argument("--trace", default="0", choices=["0", "1"])
    p = sub.add_parser("report")
    p.add_argument("sets", nargs="+")
    args = ap.parse_args()
    if args.cmd == "run":
        make_set(args)
    else:
        sys.exit(report(args))


if __name__ == "__main__":
    main()
