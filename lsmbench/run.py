#!/usr/bin/env python3
"""Build and run the LSM syscall-path and decision-plane benchmark.

Run from the repository root:

  One run (the last line of stdout is the JSON result):
    python3 lsmbench/run.py --workload lsm-hot --seed 42 --seconds 20 --trace 0

  The whole suite: every workload untraced, then traced, with the same
  seed; prints every metric by name and unit and writes a JSON report.
  Exits 1 if any operation's outcome was wrong:
    python3 lsmbench/run.py --suite --seed 42 -o lsmbench/history/new.json

  A smoke check: short runs of every workload, asserting no failed
  operation and that every metric BENCHMARK.json names is emitted with
  its unit:
    python3 lsmbench/run.py --smoke

The benchmark is built from source with dune into _build/.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "lsmbench", "suite.exe")
WORKLOADS = ["lsm-hot", "lsm-wide", "policy-churn", "plane-storm"]
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 850


def fail(msg, code=2):
    print("lsmbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for path in ("dune-project", "lib", os.path.join("lsmbench", "dune")):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a source checkout")
    # The shared dune cache lives outside the checkout; keep every build
    # product inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./lsmbench/suite.exe"]
    try:
        r = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed", 1)


def run_once(workload, seed, seconds, trace):
    """Run one benchmark process; return its stdout lines."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} run timed out", 1)
    if proc.returncode != 0:
        fail(f"{workload} run exited with {proc.returncode}", 1)
    return out.splitlines()


def parse(lines):
    """Split a run's output into its result object and its named lines."""
    result = json.loads(lines[-1])
    named = {"env": {}, "metric": {}, "detail": {}}
    for line in lines[:-1]:
        parts = line.split(" ")
        if parts[0] == "env" and len(parts) >= 3:
            named["env"][parts[1]] = " ".join(parts[2:])
        elif parts[0] in ("metric", "detail") and len(parts) == 4:
            named[parts[0]][parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    return result, named


def suite(seed, seconds, out):
    report = {"seed": seed, "seconds": seconds, "nproc": os.cpu_count(), "workloads": {}}
    ok = True
    for w in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            result, named = parse(run_once(w, seed, seconds, trace))
            kind = "end_to_end" if trace == 0 else "per_layer"
            entry[kind] = result["metrics"]
            entry[kind + "_detail"] = named["detail"]
            entry[kind + "_env"] = named["env"]
            entry[kind + "_attempted"] = result["attempted"]
            entry[kind + "_failed"] = result["failed"]
            ok = ok and result["correct"]
        e2e, layers = entry["end_to_end"], entry["per_layer"]
        entry["tracing_overhead"] = (
            1 - layers["trace.ops_per_s"]["value"] / e2e["ops_per_s"]["value"])
        entry["additivity_flags"] = sorted(
            name for name, m in entry["per_layer_detail"].items()
            if name.startswith("additivity.") and m["value"] > 0.10)
        report["workloads"][w] = entry
        print(f"== {w}  (seed {seed}, {seconds} s, "
              f"{entry['end_to_end_attempted']} ops, {entry['end_to_end_failed']} failed)")
        for group in ("end_to_end", "end_to_end_detail", "per_layer", "per_layer_detail"):
            for name, m in entry[group].items():
                print(f"  {group:<17} {name:<42} {m['value']:>16.6g} {m['unit']}")
        print(f"  tracing overhead {entry['tracing_overhead']:.3f}   "
              f"additivity flags: {', '.join(entry['additivity_flags']) or 'none'}")
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {out}")
    if not ok:
        fail("some operations had wrong outcomes", 1)


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            result, _ = parse(run_once(w, 1, 1, trace))
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} trace={trace}: {result['failed']} failed")
            for m in wanted[trace]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w} trace={trace}: {m['name']} [{m['unit']}] missing")
            print(f"smoke {w} trace={trace}: {result['attempted']} ops ok")
    if problems:
        fail("smoke failed:\n  " + "\n  ".join(problems), 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("-o", dest="out")
    args = ap.parse_args()
    if not (args.suite or args.smoke or args.workload):
        ap.error("give --workload, --suite or --smoke")
    build()
    if args.smoke:
        smoke()
    elif args.suite:
        suite(args.seed, args.seconds, args.out)
    else:
        sys.stdout.write("\n".join(run_once(args.workload, args.seed, args.seconds, args.trace)) + "\n")


if __name__ == "__main__":
    main()
