#!/usr/bin/env python3
"""Sets of benchmark runs: make them, summarise them, compare two.

    python3 perfbench/stats.py sweep --out FILE [--runs 10] [--first-seed 1]
                                     [--workload NAME ...] [--trace 0|1]
    python3 perfbench/stats.py summary FILE
    python3 perfbench/stats.py compare BASE NEW

Run from the repository root.  `sweep` runs perfbench/run.py once per
seed and workload (seeds first-seed .. first-seed+runs-1, run length
from BENCHMARK.json) and appends every result to FILE.  `summary`
prints, per workload and metric, the median, the quartiles and their
distance as a share of the median, against the metric's bound.
`compare` prints both sides' median and quartiles and flags every
end-to-end metric whose median moved past its bound in the worse
direction, and every workload whose share of failed operations differs.
Quartiles are those of statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def series(recs, name):
    return [r["result"]["metrics"][name]["value"] for r in recs]


def failed_share(recs):
    return sum(r["result"]["failed"] for r in recs), sum(r["result"]["attempted"] for r in recs)


def describe(recs):
    revs = sorted({r["rev"] for r in recs})
    cores = sorted({r["cores"] for r in recs})
    failed, attempted = failed_share(recs)
    return "%d runs, rev %s, cores %s, failed %d of %d" % (
        len(recs), ",".join(revs), ",".join(map(str, cores)), failed, attempted)


def sweep(args):
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for name in names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--record", args.out]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                print("run failed: %s seed %d" % (name, seed), file=sys.stderr)
                return 1
            print("%s seed %d: %s" % (name, seed, r.stdout.strip().splitlines()[-1]), flush=True)
    return summary(argparse.Namespace(file=args.out))


def summary(args):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for (workload, trace), recs in sorted(load(args.file).items()):
        print("%s trace=%d: %s" % (workload, trace, describe(recs)))
        for name in sorted(recs[0]["result"]["metrics"]):
            vals = series(recs, name)
            q1, q2, q3 = quartiles(vals)
            unit = recs[0]["result"]["metrics"][name]["unit"]
            line = "  %-36s median %-12.6g q1 %-12.6g q3 %-12.6g %s" % (name, q2, q1, q3, unit)
            if trace == 0 and bounds.get(name) is not None:
                s = spread(vals)
                flag = "" if name == "setup_s" or s <= bounds[name] else "  OVER BOUND"
                line += "  spread %.4f (bound %.2f)%s" % (s, bounds[name], flag)
            print(line)
    return 0


def compare(args):
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    regressions = 0
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        if key not in base or key not in new:
            print("%s trace=%d: only in %s" % (workload, trace, "base" if key in base else "new"))
            continue
        b, n = base[key], new[key]
        print("%s trace=%d" % (workload, trace))
        print("  base: " + describe(b))
        print("  new:  " + describe(n))
        fb, ab = failed_share(b)
        fn, an = failed_share(n)
        if fb * an != fn * ab:
            print("  FAILED SHARE CHANGED: %d/%d -> %d/%d" % (fb, ab, fn, an))
            regressions += 1
        for name in sorted(b[0]["result"]["metrics"]):
            m = e2e.get(name) or layer.get(name)
            if m is None or name not in n[0]["result"]["metrics"]:
                continue
            bq, nq = quartiles(series(b, name)), quartiles(series(n, name))
            line = "  %-36s base %-12.6g [%-.6g, %-.6g]  new %-12.6g [%-.6g, %-.6g] %s" % (
                name, bq[1], bq[0], bq[2], nq[1], nq[0], nq[2], m["unit"])
            if "bound" in m and bq[1]:
                change = (nq[1] - bq[1]) / bq[1]
                worse = change if m["better"] == "lower" else -change
                line += "  %+.1f%%" % (100 * change)
                if worse > m["bound"]:
                    line += "  REGRESSION (bound %.0f%%)" % (100 * m["bound"])
                    regressions += 1
            print(line)
    print("%d regression(s)" % regressions)
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=sweep)
    p = sub.add_parser("summary")
    p.add_argument("file")
    p.set_defaults(fn=summary)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=compare)
    args = ap.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
