"""Print every metric, by name and with its unit, for every workload.

    python3 perfbench/report.py [--seed 1] [--seconds 15] [--workload W ...]

Runs run.py once untraced (end-to-end metrics) and once traced (per-layer
metrics) per workload, each in its own process, and prints one line per
metric.  Exits 1 if any run fails or reports incorrect outputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--workload", action="append",
                    choices=workloads.WORKLOADS)
    args = ap.parse_args()
    ok = True
    for w in args.workload or workloads.WORKLOADS:
        for trace in (0, 1):
            result, notes = run_once(w, args.seed, args.seconds, trace)
            print("== %s (trace %d)" % (w, trace))
            for line in notes:
                print("   " + line)
            if result is None:
                ok = False
                continue
            ok = ok and result["correct"]
            print("   correct %s, attempted %d, failed %d"
                  % (result["correct"], result["attempted"],
                     result["failed"]))
            for name, m in result["metrics"].items():
                print("%-48s %16.6g %s" % (name, m["value"], m["unit"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
