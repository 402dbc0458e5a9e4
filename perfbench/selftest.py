"""Self-test of the benchmark's own logic.

    python3 perfbench/selftest.py

1. Each workload generator writes identical inputs for one seed and
   different inputs for another.
2. One real round of each workload passes its output check, and every
   check rejects deliberately corrupted copies of that output.

Exits 0 when every case behaves, 1 otherwise.  Takes about 30 s.
"""

from __future__ import annotations

import copy
import filecmp
import json
import os
import sys
import tempfile

import run


def _same_inputs(cls, seed_a, seed_b, base) -> bool:
    """Whether two generations (seeds a and b) give identical inputs."""
    dirs = [tempfile.mkdtemp(dir=base) for _ in range(2)]
    made = [cls(seed, d) for seed, d in zip((seed_a, seed_b), dirs)]
    names = sorted(os.listdir(dirs[0]))
    if names != sorted(os.listdir(dirs[1])):
        return False
    if not names:   # no generated files: the seed reaches the program as --seed
        return made[0].ops(base)[0].argv == made[1].ops(base)[0].argv
    return all(filecmp.cmp(os.path.join(dirs[0], n), os.path.join(dirs[1], n), shallow=False)
               for n in names)


def main() -> int:
    run.pin_blas_threads(len(os.sched_getaffinity(0)))
    sys.path.insert(0, run.SRC)
    import numpy as np
    import nmcbounds.cli
    import workloads as wl
    from spans import Tracer

    outcomes = []

    def expect(label, ok):
        outcomes.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)

    def rejects(label, problems):
        expect(f"rejects {label}", bool(problems))

    os.makedirs(run.RUNS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS_DIR) as base:
        for cls in wl.WORKLOADS.values():
            expect(f"{cls.name}: same seed, same inputs", _same_inputs(cls, 5, 5, base))
            expect(f"{cls.name}: other seed, other inputs", not _same_inputs(cls, 5, 6, base))

        def one_round(cls):
            workdir = os.path.join(base, cls.name)
            os.makedirs(workdir)
            workload = cls(3, workdir)
            capture = run.Capture(workload.capture)
            _, _, results = run.run_round(workload, nmcbounds.cli.main, capture, Tracer(),
                                          0, False, os.path.join(workdir, "out"))
            expect(f"{cls.name}: real output passes its check",
                   run.check_results(results) == [])
            return workload, os.path.join(workdir, "out"), results

        # bounds-nonlinear
        _, out, results = one_round(wl.BoundsNonlinear)
        report = results[0][3]["bounds.full_report"][2]
        table = wl.numeric_columns(os.path.join(out, "simulate.csv"))

        def sim(alpha=report.alpha, curves=report.curves, **cols):
            t = copy.deepcopy(table)
            for name, (i, value) in cols.items():
                t[name][i] = value
            return wl.check_simulate(alpha, curves, t)

        rejects("alpha[0] + 1e-6", sim(alpha=[report.alpha[0] + 1e-6] + report.alpha[1:]))
        rejects("a bound curve above 2", sim(md=(0, 2.1)))
        rejects("an increasing bound curve", sim(spectral=(5, table["spectral"][3])))
        rejects("tv_max above combined_small_n",
                sim(tv_max=(4, table["combined_small_n"][4] + 1e-9)))
        kstep = dict(report.curves, kstep_k2=np.array(report.curves["kstep_k2"]))
        kstep["kstep_k2"][3] = kstep["kstep_k2"][1] * 1.01
        rejects("a k-step curve increasing across k steps", sim(curves=kstep))

        # volatility-csv
        workload, out, results = one_round(wl.VolatilityCsv)
        (returns, config), _, tv = results[0][3]["volatility.tv_volatility"]
        header, rows = wl.read_csv(os.path.join(out, "vol_comparison.csv"))
        _, garch_rows = wl.read_csv(os.path.join(out, "vol_garch.csv"))
        prefix = workload.prefix_rerun(returns, config)
        col = header.index

        def vol(rows=rows, tv=tv, prefix=prefix):
            return wl.check_volatility(rows, header, [r[0] for r in garch_rows],
                                       workload.expected_dates, tv, prefix)

        def edited(i, column, value):
            out_rows = copy.deepcopy(rows)
            out_rows[i][col(column)] = value
            return out_rows

        rejects("an indicator value of 2.1", vol(rows=edited(7, "tv_mean", "2.1")))
        rejects("ci_lo above the mean",
                vol(rows=edited(7, "tv_ci_lo", repr(float(rows[7][col("tv_mean")]) + 1e-3))))
        rejects("a missing row", vol(rows=rows[:-1]))
        nudged = copy.copy(prefix)
        object.__setattr__(nudged, "tv_mean", prefix.tv_mean.copy())
        nudged.tv_mean[1] = np.nextafter(nudged.tv_mean[1], 3.0)
        rejects("a prefix rerun one ulp off", vol(prefix=nudged))

        # coupling-large-p
        workload, out, results = one_round(wl.CouplingLargeP)
        p = wl.COUPLING_SIZES[0]
        with open(os.path.join(out, f"p{p}_coefficients.json"), encoding="utf-8") as fh:
            coefficients = json.load(fh)
        curves = wl.numeric_columns(os.path.join(out, f"p{p}_bounds.csv"))

        def coup(scale=1.0, curves=curves):
            c = dict(coefficients, spectral_radius=coefficients["spectral_radius"] * scale)
            return wl.check_coupling(c, curves, p, workload.bracket(p))

        rejects("r x 0.9", coup(0.9))
        rejects("r x 1.1", coup(1.1))
        rejects("a curve above 2", coup(curves=dict(curves, spectral=[2.1] + curves["spectral"][1:])))

    failed = outcomes.count(False)
    print(f"{len(outcomes) - failed}/{len(outcomes)} self-test cases behave")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
