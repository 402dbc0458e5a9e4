"""Repeat run.py over seeds and summarize each metric per workload.

    python3 perfbench/repeat.py --seeds 1-10 [--trace 0|1] [--out FILE]

It runs every workload in BENCHMARK.json for each seed, at the file's
``run_seconds``.  For every workload and metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, flagging an end-to-end spread above a third of the metric's bound in
BENCHMARK.json.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, env = [], None
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append(result)
            rounds = next((json.loads(line[len("# run "):])["round_wall_s"]
                           for line in lines if line.startswith("# run ")), [])
            env = env or next((json.loads(line[len("# env "):])
                               for line in lines if line.startswith("# env ")), None)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_frac={result['failed'] / result['attempted']:.6g} "
                  + " ".join(f"{k}={v['value']:.6g} {v['unit']}"
                             for k, v in result["metrics"].items() if k in bounds)
                  + " rounds=[" + ", ".join(f"{w:.3f}" for w in rounds) + "]", flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else values * 3)
            spread = (q3 - q1) / median if median else 0.0
            metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            if name in bounds:
                flag = "  SPREAD > bound/3" if spread > bounds[name] / 3 else ""
                print(f"  {name:<12} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {spread:.4f} (bound {bounds[name]}){flag}", flush=True)
        summary[workload] = {"seeds": seed_list(args.seeds), "trace": args.trace,
                             "seconds": bench["run_seconds"], "env": env,
                             "all_correct": all(r["correct"] for r in runs),
                             "metrics": metrics}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
