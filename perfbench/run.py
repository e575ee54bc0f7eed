#!/usr/bin/env python3
"""Run one benchmark workload of the YOSO stack and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a source checkout.  Builds perfbench/yosobench.exe
from source with dune (into .bench_build/), runs it, and prints as the
last line of standard output one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
The line before it records the source revision and the core count.
--record FILE also appends the result, with that record, to FILE as one
JSON line, for perfbench/stats.py.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "yosobench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json in the current directory; run from the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no program sources to build (missing %s)" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "-j", "2",
           "./perfbench/yosobench.exe"]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True).stdout.strip()
            return r.stdout.strip() + ("-dirty" if dirty else "")
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", "dune-project")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result to this JSON-lines file")
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    build()
    proc = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("yosobench exited with %d" % proc.returncode)
    raw = json.loads(lines[-1])

    values = raw["values"]
    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            if m["name"] not in values:
                fail("workload %s did not report %s" % (args.workload, m["name"]))
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        # a layer the workload does not exercise reads 0
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rev": revision(), "cores": raw["cores"]}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(dict(meta, result=result)) + "\n")
    print("# " + json.dumps(meta))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
