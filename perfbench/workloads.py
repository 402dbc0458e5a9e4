"""Workload inputs, the CLI ops that consume them, and their output checks.

Every input derives from the workload seed alone.  The program sees only
the generated files and ``--seed``; the checks below never depend on the
seed's particular values.  Each check is a pure function of parsed output
so the self-test can feed it corrupted copies.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Markov-Dobrushin alpha_k of example 1's linear part, k = 1..4
EXAMPLE1_ALPHA = (0.6, 0.85, 0.945, 0.98)
ALPHA_TOL = 1e-12
# rho(M) <= r <= rho(M) * (1 + R_OVERSHOOT), r being the reported Gelfand
# estimate: it can only overshoot rho, by about 3e-7 relative after 2^20 powers
RHO_RTOL = 1e-9
R_OVERSHOOT = 1e-4
BOUND_CURVES = ("md", "spectral", "combined_small_n", "combined_large_n")

STEPS = 15
VOL_PRICES = 1500
VOL_STRIDE = 10
VOL_GRID = dict(window_min=60, window_max=80, window_step=5, reps=10, states=3, epochs=15)
VOL_PREFIX_DATES = 3
COUPLING_SIZES = (16, 24, 32, 40)
GARCH_ROWS = ("mu", "omega", "alpha1", "beta1")


@dataclass
class Op:
    """One in-process CLI invocation and the check of what it produced."""

    argv: list
    check: object       # check(captured) -> list of problems
    label: str


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def read_csv(path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def numeric_columns(path) -> dict:
    header, rows = read_csv(path)
    return {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}


def _curve_problems(name, values) -> list:
    """A bound curve lies in [0, 2] and does not increase.  The k-step
    curves carry a (1 + lambda_1)^(n mod k) factor, so they are only
    monotone along n = k, 2k, ..."""
    out = []
    if not all(0.0 <= v <= 2.0 for v in values):
        out.append(f"curve {name} leaves [0, 2]")
    _, _, k = name.rpartition("kstep_k")
    steps = values[int(k) - 1::int(k)] if k.isdigit() else values
    if any(b > a for a, b in zip(steps, steps[1:])):
        out.append(f"curve {name} increases")
    return out


# ---------------------------------------------------------------------------
# bounds-nonlinear


def check_simulate(alpha, curves: dict, table: dict) -> list:
    """alpha pinned; every bound curve in [0, 2] and nonincreasing; the
    true-TV envelope below combined_small_n (criterion 4)."""
    problems = []
    if len(alpha) != len(EXAMPLE1_ALPHA) or any(
            abs(a - e) > ALPHA_TOL for a, e in zip(alpha, EXAMPLE1_ALPHA)):
        problems.append(f"alpha {list(alpha)} != {list(EXAMPLE1_ALPHA)}")
    if table.get("n") != [float(n) for n in range(1, STEPS + 1)]:
        problems.append("simulate table does not hold n = 1..%d" % STEPS)
        return problems
    for name in BOUND_CURVES:
        problems += _curve_problems(name, table[name])
    for name, values in curves.items():
        problems += _curve_problems(f"report.{name}", list(values))
    for lo, mean, hi in zip(table["tv_min"], table["tv_mean"], table["tv_max"]):
        if not 0.0 <= lo <= mean <= hi <= 2.0:
            problems.append("true-TV envelope is not ordered inside [0, 2]")
            break
    if any(tv > bound for tv, bound in zip(table["tv_max"], table["combined_small_n"])):
        problems.append("tv_max exceeds combined_small_n")
    return problems


class BoundsNonlinear:
    name = "bounds-nonlinear"
    capture = ("bounds.full_report",)   # functions whose (args, kwargs, result) checks read

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def ops(self, outdir: str) -> list:
        out = os.path.join(outdir, "simulate.csv")

        def check(captured):
            _, _, report = captured["bounds.full_report"]
            return check_simulate(report.alpha, report.curves, numeric_columns(out))

        argv = ["simulate", "--example", "1", "--kappa", "0.1", "--trials", "100000",
                "--steps", str(STEPS), "--seed", str(self.seed), "--out", out]
        return [Op(argv, check, "simulate")]


# ---------------------------------------------------------------------------
# volatility-csv


def garch_prices(seed: int) -> tuple[list, np.ndarray]:
    """Weekday-dated GARCH(1,1) price path (1% daily unconditional vol)."""
    rng = _rng(seed, 2)
    n = VOL_PRICES
    mu, omega, a1, b1 = 2e-4, 2e-6, 0.09, 0.89
    h = omega / (1.0 - a1 - b1)
    eps = 0.0
    r = np.empty(n - 1)
    for t in range(n - 1):
        h = omega + a1 * eps * eps + b1 * h
        eps = math.sqrt(h) * rng.standard_normal()
        r[t] = mu + eps
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
    dates = []
    day = dt.date(2012, 1, 2)
    while len(dates) < n:
        if day.weekday() < 5:
            dates.append(day)
        day += dt.timedelta(days=1)
    return dates, prices


def write_price_csv(path, dates, prices) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("date,adj_close\n")
        for day, price in zip(dates, prices):
            fh.write(f"{day.isoformat()},{float(price)!r}\n")


def expected_vol_dates(price_dates) -> list:
    longest = VOL_GRID["window_max"]
    returns_dates = price_dates[1:]
    return [returns_dates[i].isoformat()
            for i in range(longest - 1, len(returns_dates), VOL_STRIDE)]


def check_volatility(rows: list, header: list, garch_names: list, expected_dates: list,
                     tv, prefix_tv) -> list:
    """Indicator in [0, 2] inside its interval; row counts as configured;
    the CSV carries the in-memory values; a prefix rerun reproduces the
    first dates bit for bit (the grid's order independence)."""
    problems = []
    col = {name: i for i, name in enumerate(header)}
    if [r[col["date"]] for r in rows] != expected_dates:
        problems.append(f"comparison table has {len(rows)} rows, "
                        f"expected {len(expected_dates)} dates")
        return problems
    if list(garch_names) != list(GARCH_ROWS):
        problems.append(f"garch table rows {list(garch_names)}")
    n_fits = len(range(VOL_GRID["window_min"], VOL_GRID["window_max"] + 1,
                       VOL_GRID["window_step"])) * VOL_GRID["reps"]
    for r in rows:
        lo, mean, hi = (float(r[col[c]]) for c in ("tv_ci_lo", "tv_mean", "tv_ci_hi"))
        if not (0.0 <= lo <= mean <= hi <= 2.0):
            problems.append(f"{r[col['date']]}: ci [{lo}, {hi}] mean {mean} outside order or [0, 2]")
            break
        if not 0 <= int(r[col["quality_flags"]]) <= n_fits:
            problems.append(f"{r[col['date']]}: quality_flags out of range")
            break
    csv_mean = [float(r[col["tv_mean"]]) for r in rows]
    if csv_mean != [float(format(float(v), ".15g")) for v in tv.tv_mean]:
        problems.append("comparison CSV disagrees with the computed indicator")
    k = len(prefix_tv.dates)
    for name in ("tv_mean", "tv_std", "tv_ci_lo", "tv_ci_hi"):
        full = np.asarray(getattr(tv, name))[:k]
        if full.tobytes() != np.asarray(getattr(prefix_tv, name)).tobytes():
            problems.append(f"prefix rerun changes {name} on the first {k} dates")
    if tuple(tv.quality_flags[:k]) != tuple(prefix_tv.quality_flags):
        problems.append("prefix rerun changes quality flags")
    return problems


class VolatilityCsv:
    name = "volatility-csv"
    capture = ("volatility.tv_volatility",)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        dates, prices = garch_prices(seed)
        self.prices_path = os.path.join(workdir, "prices.csv")
        write_price_csv(self.prices_path, dates, prices)
        self.expected_dates = expected_vol_dates(dates)
        self._prefix = None

    def prefix_rerun(self, returns, config):
        """The indicator recomputed on the shortest prefix that yields the
        first VOL_PREFIX_DATES dates (computed once per run)."""
        if self._prefix is None:
            from nmcbounds.signal import ReturnSeries
            from nmcbounds.volatility import tv_volatility
            n = max(config.window_lengths) + config.date_stride * (VOL_PREFIX_DATES - 1)
            self._prefix = tv_volatility(
                ReturnSeries(returns.dates[:n], returns.values[:n]), config)
        return self._prefix

    def ops(self, outdir: str) -> list:
        prefix = os.path.join(outdir, "vol")

        def check(captured):
            (returns, config), _, tv = captured["volatility.tv_volatility"]
            header, rows = read_csv(prefix + "_comparison.csv")
            _, garch_rows = read_csv(prefix + "_garch.csv")
            return check_volatility(rows, header, [r[0] for r in garch_rows],
                                    self.expected_dates, tv,
                                    self.prefix_rerun(returns, config))

        argv = ["volatility", "--prices", self.prices_path, "--date-stride", str(VOL_STRIDE),
                "--seed", str(self.seed), "--out-prefix", prefix]
        for key, value in VOL_GRID.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        return [Op(argv, check, "volatility")]


# ---------------------------------------------------------------------------
# coupling-large-p


def random_linear_model(seed: int, p: int) -> dict:
    """Model JSON of a linear chain with Dirichlet(0.3) rows."""
    rows = _rng(seed, 3 + p).dirichlet(np.full(p, 0.3), size=p)
    rows /= rows.sum(axis=1, keepdims=True)
    return {"p": p, "degree": 1, "coeff": [[float(v) for v in rows.ravel()]]}


def coupling_matrix(P: np.ndarray) -> np.ndarray:
    """The pair matrix over ordered distinct pairs, built independently of
    the program: entry [(x1,x2),(y1,y2)] = r1(y1) r2(y2) / (1 - kappa)."""
    p = P.shape[0]
    x1, x2 = np.array([(a, b) for a in range(p) for b in range(p) if a != b]).T
    overlap = np.minimum(P[x1], P[x2])
    kappa = overlap.sum(axis=1)
    r1, r2 = P[x1] - overlap, P[x2] - overlap
    live = kappa < 1.0 - 1e-12
    M = r1[:, x1] * r2[:, x2]
    M[live] /= (1.0 - kappa[live])[:, None]
    M[~live] = 0.0
    return M


def perron_bracket(M: np.ndarray, rtol: float = 1e-12, max_iter: int = 20000) -> tuple:
    """Collatz-Wielandt bracket lo <= rho(M) <= hi for nonnegative M.

    Power iteration on M + I keeps the iterate positive; for any positive
    x, min and max of ((M + I) x / x) bracket rho(M + I) = rho(M) + 1.
    """
    x = np.full(M.shape[0], 1.0 / M.shape[0])
    lo, hi = 0.0, math.inf
    for _ in range(max_iter):
        y = M @ x + x
        ratio = y / x
        lo, hi = max(lo, float(ratio.min()) - 1.0), min(hi, float(ratio.max()) - 1.0)
        if hi - lo <= rtol * max(hi, 1e-300):
            break
        x = y / y.sum()
    return lo, hi


def check_coupling(coefficients: dict, table: dict, p: int, bracket: tuple) -> list:
    """rho(M) <= r within RHO_RTOL and r not above rho by more than
    R_OVERSHOOT, by the oracle bracket; curves in [0, 2] and nonincreasing."""
    problems = []
    r = coefficients.get("spectral_radius")
    lo, hi = bracket
    if coefficients.get("p") != p or not isinstance(r, float):
        return [f"coefficients JSON lacks p={p} or spectral_radius"]
    if not hi <= r * (1.0 + RHO_RTOL):
        problems.append(f"p={p}: oracle bracket [{lo!r}, {hi!r}] not below r={r!r}")
    if not r <= lo * (1.0 + R_OVERSHOOT):
        problems.append(f"p={p}: r={r!r} overshoots the oracle bracket [{lo!r}, {hi!r}]")
    if table.get("n") != [float(n) for n in range(1, STEPS + 1)]:
        problems.append("bounds table does not hold n = 1..%d" % STEPS)
        return problems
    for name, values in table.items():
        if name != "n":
            problems += _curve_problems(name, values)
    return problems


class CouplingLargeP:
    name = "coupling-large-p"
    capture = ()

    def __init__(self, seed: int, workdir: str):
        self.models = {}
        for p in COUPLING_SIZES:
            path = os.path.join(workdir, f"model_p{p}.json")
            doc = random_linear_model(seed, p)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.models[p] = (path, np.asarray(doc["coeff"][0]).reshape(p, p))
        self._brackets = {}

    def bracket(self, p: int) -> tuple:
        if p not in self._brackets:
            self._brackets[p] = perron_bracket(coupling_matrix(self.models[p][1]))
        return self._brackets[p]

    def ops(self, outdir: str) -> list:
        ops = []
        for p, (path, _) in self.models.items():
            prefix = os.path.join(outdir, f"p{p}")

            def check(captured, p=p, prefix=prefix):
                with open(prefix + "_coefficients.json", encoding="utf-8") as fh:
                    coefficients = json.load(fh)
                return check_coupling(coefficients, numeric_columns(prefix + "_bounds.csv"),
                                      p, self.bracket(p))

            argv = ["bounds", "--model", path, "--steps", str(STEPS), "--out-prefix", prefix]
            ops.append(Op(argv, check, f"bounds p={p}"))
        return ops


WORKLOADS = {w.name: w for w in (BoundsNonlinear, VolatilityCsv, CouplingLargeP)}
