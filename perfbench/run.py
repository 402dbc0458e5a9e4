"""Benchmark of the nmcbounds CLI: one workload per run, single-client
closed loop.

    python3 perfbench/run.py --workload bounds-nonlinear --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each round runs the workload's CLI commands in process, one
after another, and rounds repeat until ``--seconds`` is used up.  Outputs
are checked after the timed loop.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER_METRICS, Tracer, layer_metrics, rebind

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# a new round starts only while it should end within half a round of --seconds
ROUND_OVERRUN = 0.5

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_blas_threads(nproc: int) -> None:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def blas_threads():
    """Thread count OpenBLAS reports, or None if its library is not found."""
    import ctypes
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def git_rev() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "git_rev": git_rev(),
    }


def setup_seconds(repeats: int) -> list:
    """Fresh interpreter until ``import nmcbounds.cli`` completes, timed
    on the system-wide monotonic clock that parent and child share."""
    code = ("import time, nmcbounds.cli; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    samples = []
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


class Capture:
    """Keeps the last (args, kwargs, result) of chosen library functions,
    for checks that read in-memory results the CLI does not write out."""

    def __init__(self, qualnames):
        self.store = {}
        for qualname in qualnames:
            layer, func = qualname.split(".")
            current = getattr(sys.modules[f"nmcbounds.{layer}"], func)
            rebind(current, self._wrap(qualname, current))

    def _wrap(self, qualname, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.store[qualname] = (args, kwargs, result)
            return result
        return captured

    def take(self) -> dict:
        out, self.store = self.store, {}
        return out


def median_round(rounds) -> float:
    """Sum over a round's ops of each op's median time across rounds: a
    round time that one slow op in one round does not move."""
    return sum(statistics.median(times) for times in zip(*rounds))


def run_round(workload, entry, capture, tracer, round_id, traced, outdir):
    """One pass over the workload's ops; returns per-op wall and CPU times
    and the results to check."""
    os.makedirs(outdir)
    walls, cpus, results = [], [], []
    if traced:
        tracer.round_id = round_id
    for op in workload.ops(outdir):
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                code = entry(op.argv)
            except Exception as exc:  # a crashing op is counted, not fatal
                code, error = None, f"{type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
        results.append((op, code, error, capture.take(), sink.getvalue()))
    tracer.round_id = None
    return walls, cpus, results


def check_results(results) -> list:
    """Problems per failed op (an op fails on raise, nonzero exit or a
    failed output check)."""
    failures = []
    for op, code, error, captured, log in results:
        if error is not None:
            failures.append(f"{op.label}: raised {error}")
        elif code != 0:
            tail = log.strip().splitlines()[-1:] or [""]
            failures.append(f"{op.label}: exit code {code}: {tail[0]}")
        else:
            try:
                problems = op.check(captured)
            except Exception as exc:  # unreadable output is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failures.append(f"{op.label}: " + "; ".join(problems))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "nmcbounds", "cli.py")):
        print(f"error: no nmcbounds sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads(nproc)
    sys.path.insert(0, SRC)
    import nmcbounds.cli
    if not os.path.abspath(nmcbounds.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported nmcbounds from {nmcbounds.cli.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS   # imports numpy, so only after the BLAS pin
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    env = environment(nproc)
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = os.path.join(RUNS_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        gen0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        gen_s = time.perf_counter() - gen0
        setup = [] if args.trace else setup_seconds(SETUP_REPEATS)

        # the tracer wraps the capture wrappers, so that it can take its
        # own off again for the untraced rounds
        capture = Capture(workload.capture)
        tracer = Tracer()
        entry = nmcbounds.cli.main
        traced_entry = tracer.wrap("cli.main", entry)

        walls, cpus, traced_walls, results = [], [], {}, []   # per round, per op
        loop0 = time.perf_counter()
        round_id = 0
        while True:
            # a traced run alternates untraced rounds, with no wrappers
            # installed, and traced ones
            traced = bool(args.trace) and round_id % 2 == 1
            if traced:
                tracer.install()
            op_walls, op_cpus, res = run_round(workload, traced_entry if traced else entry,
                                               capture, tracer, round_id, traced,
                                               os.path.join(workdir, f"round{round_id}"))
            if traced:
                tracer.uninstall()
            results += res
            if traced:
                traced_walls[round_id] = op_walls
            else:
                walls.append(op_walls)
                cpus.append(op_cpus)
            round_id += 1
            elapsed = time.perf_counter() - loop0
            if elapsed + ROUND_OVERRUN * sum(op_walls) > args.seconds and (
                    not args.trace or traced_walls):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = check_results(results)
        if args.trace:
            trace_path = os.path.join(RUNS_DIR, f"trace-{args.workload}-s{args.seed}.jsonl")
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "env": env, "traced_op_walls": traced_walls})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": round_id,
        "ops": attempted, "failed_frac": len(failures) / attempted, "gen_s": gen_s,
        "round_wall_s": [sum(w) for w in walls], "round_cpu_s": [sum(c) for c in cpus],
    }
    if args.trace:
        values = layer_metrics(tracer, {r: sum(w) for r, w in traced_walls.items()})
        values["trace.overhead_frac"] = (
            median_round(traced_walls.values()) / median_round(walls) - 1.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_METRICS}
        summary["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        values = {"wall_s": median_round(walls), "cpu_s": median_round(cpus),
                  "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        summary["setup_samples_s"] = setup

    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# run {json.dumps(summary)}")
    for name, metric in metrics.items():
        print(f"# {name:<45} {metric['value']:>16.6g} {metric['unit']}")
    print(f"# {'failed_frac':<45} {summary['failed_frac']:>16.6g} frac")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
