#!/usr/bin/env python3
"""Steadiness report for perfbench's end-to-end metrics.

    python3 perfbench/steadiness.py --rounds 10 [--seconds S] [--seed N] --raw set.jsonl
    python3 perfbench/steadiness.py --report setA.jsonl [setB.jsonl] [--out FILE]

The first form runs the workloads in interleaved rounds (round r runs
every workload once, with seed N+r, rotating which workload goes first)
and writes every run's end-to-end metrics to --raw, one JSON object per
line. The second form renders a report from one or two such sets: for
each workload and metric, the median, quartiles, range, and the spread
(third minus first quartile, as a share of the median) next to the
metric's bound in BENCHMARK.json. With two sets it also gives how far
the second set's median moved from the first's, in the metric's worse
direction. A metric is steady when its spread stays below a third of
its bound; the gate holds when every spread but setup_s's is within
the bound and no median moves worse by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit("run failed: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def measure(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    with open(args.raw, "w") as raw:
        for r in range(args.rounds):
            shift = r % len(workloads)
            for w in workloads[shift:] + workloads[:shift]:
                metrics = run(w, args.seed + r, seconds)
                raw.write(json.dumps({"workload": w, "seed": args.seed + r,
                                      "seconds": seconds,
                                      "metrics": metrics}) + "\n")
                raw.flush()
                print("round %d %s done" % (r, w), file=sys.stderr)


def load_set(path):
    by = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            by.setdefault(row["workload"], []).append(row)
    return by


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def report(args, spec):
    sets = [load_set(p) for p in args.report]
    first = sets[0]
    any_row = next(iter(first.values()))[0]
    out = ["# perfbench steadiness", "",
           "Sets: %s. Each set runs every workload once per round, "
           "interleaved, %d s per run. spread = (q3 - q1) / median, "
           "quartiles as Python's statistics.quantiles(n=4) gives them."
           % (", ".join("%s (%d rounds)" % (
               os.path.basename(p), len(next(iter(s.values()))))
               for p, s in zip(args.report, sets)),
               any_row.get("seconds", spec["run_seconds"])), ""]
    metrics = spec["end_to_end"]
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        out += ["## " + w, ""]
        head = "| metric | bound |"
        rule = "|---|---|"
        for i in range(len(sets)):
            head += " median %s | q1..q3 | min..max | spread |" % "AB"[i]
            rule += "---|---|---|---|"
        if len(sets) == 2:
            head += " B worse than A by |"
            rule += "---|"
        out += [head + " steady |", rule + "---|"]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = "| %s | %.0f%% |" % (name, 100 * bound)
            meds, steady = [], True
            for s in sets:
                vals = [r["metrics"][name] for r in s[w]]
                q1, med, q3, sp = spread(vals)
                meds.append(med)
                row += " %.6g | %.6g..%.6g | %.6g..%.6g | %.1f%% |" % (
                    med, q1, q3, min(vals), max(vals), 100 * sp)
                steady &= name == "setup_s" or sp < bound / 3
                ok &= name == "setup_s" or sp <= bound
            if len(sets) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                row += " %+.1f%% |" % (100 * worse)
                ok &= worse <= bound
            out.append(row + (" yes |" if steady else " no |"))
        out.append("")
    out.append("Gate: %s." % ("every spread within its bound and no "
                              "median worse by more than its bound"
                              if ok else "FAILS"))
    text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=100, help="first seed")
    ap.add_argument("--raw", help="measure, writing every run here")
    ap.add_argument("--report", nargs="+", metavar="RAW",
                    help="render a report from one or two measured sets")
    ap.add_argument("--out", help="also write the report here")
    args = ap.parse_args()
    spec = load_spec()
    if args.report:
        if len(args.report) > 2:
            ap.error("--report takes one or two sets")
        report(args, spec)
    elif args.raw:
        measure(args, spec)
    else:
        ap.error("give --raw to measure or --report to render")


if __name__ == "__main__":
    main()
