"""Command-line entry point.

Subcommands: bounds, simulate, coupling-check, stats, volatility.  Every
command echoes its effective configuration (defaulted seed included) as a
JSON line on stderr; reruns with the same flags produce byte-identical
outputs.  Exit codes: 0 success, 2 input/validation, 3 numerical
nonconvergence, 4 statistical check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import signal as signal_mod
from . import volatility as vol_mod
from .chain import Distribution, PolynomialKernel, load_model, require_valid
from .coupling import lemma_check
from .errors import NmcError, NonconvergenceError
from .experiments import (ComparisonTable, builtin_example, compare_bounds, export_report,
                          write_atomic)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_STATISTICAL = 4


def _echo_config(command: str, args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    cfg["command"] = command
    print(json.dumps(cfg, sort_keys=True, default=str), file=sys.stderr)


def _resolve_kernel(args) -> PolynomialKernel:
    if args.model is not None:
        kernel = load_model(args.model)
    else:
        kernel = builtin_example(args.example, args.kappa)
    require_valid(kernel)
    return kernel


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model-spec JSON file")
    group.add_argument("--example", type=int, choices=(1, 2), help="built-in example id")
    parser.add_argument("--kappa", type=float, default=0.1,
                        help="nonlinearity strength for built-in examples")


def _check_counts(args) -> None:
    """Reject bad ``--steps`` (and ``--trials`` or ``--samples`` where the
    command has them) before the model is loaded or any work runs."""
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    for flag in ("trials", "samples"):
        if getattr(args, flag, 1) < 1:
            raise ValueError(f"--{flag} must be >= 1, got {getattr(args, flag)}")


def cmd_bounds(args) -> int:
    _check_counts(args)
    kernel = _resolve_kernel(args)
    report = bounds_mod.full_report(kernel, args.steps, seed=args.seed)
    names, rows = report.curve_table()
    export_report(ComparisonTable(names, rows), f"{args.out_prefix}_bounds.csv")
    # strict JSON: RFC 8259 has no NaN or Infinity
    write_atomic(f"{args.out_prefix}_coefficients.json", lambda fh: fh.write(json.dumps(
        report.coefficients_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"))
    show = min(4, args.steps)
    print("bound curves, n = 1..%d" % show)
    print("  ".join(f"{c:>18}" for c in names))
    for row in rows[:show]:
        print("  ".join(f"{v:>18.6g}" for v in row))
    return EXIT_OK


def cmd_simulate(args) -> int:
    _check_counts(args)
    kernel = _resolve_kernel(args)
    table, _ = compare_bounds(kernel, args.steps, trials=args.trials, seed=args.seed)
    export_report(table, args.out)
    print(f"wrote {args.out} ({len(table.rows)} rows)")
    return EXIT_OK


def cmd_coupling_check(args) -> int:
    _check_counts(args)
    kernel = _resolve_kernel(args)
    P = kernel.linear_part
    mu0 = Distribution.point(P.p, 0)
    nu0 = Distribution.uniform(P.p)
    report = lemma_check(P, mu0, nu0, args.steps, args.samples,
                         np.random.default_rng(args.seed))
    if report.underpowered:
        print("warning: underpowered run (samples < 1000); thresholds not enforced",
              file=sys.stderr)
    table = ComparisonTable(
        ["t", "tv1", "tv2", "q_exact", "q_empirical"], list(report.rows()))
    export_report(table, args.out)
    status = "pass" if report.passed else "fail"
    print(f"coupling check: {status} (max tv {max(report.tv1.max(), report.tv2.max()):.4f}, "
          f"max |q_emp - q_exact| {np.abs(report.q_empirical - report.q_exact).max():.4f})")
    if report.underpowered:
        return EXIT_OK
    return EXIT_OK if report.passed else EXIT_STATISTICAL


def _stats_row(label: str, series, flat: bool) -> list:
    st = signal_mod.descriptive_stats(series)
    if flat:
        # no variation above rounding: tests are undefined, row carries the flags
        return [label, st.mean, st.std, math.nan, math.nan,
                math.nan, "degenerate", math.nan, "degenerate"]
    ks = signal_mod.ks_test(series)
    lb = signal_mod.ljung_box(series)
    return [label, st.mean, st.std, st.skewness, st.excess_kurtosis,
            ks.statistic, ks.stars, lb.q_stat, lb.stars]


def cmd_stats(args) -> int:
    prices = signal_mod.load_prices(args.prices, args.date_col, args.price_col)
    den = signal_mod.denoise(prices)
    raw_returns = signal_mod.log_returns(prices)
    den_returns = signal_mod.log_returns(den.denoised)
    columns = ["type", "mean", "std", "skewness", "kurtosis",
               "ks_stat", "ks_stars", "lb_q", "lb_stars"]
    rows = [
        _stats_row("X", raw_returns,
                   signal_mod.is_flat(raw_returns.values, prices.close, log=True)),
        _stats_row("X*", den_returns,
                   signal_mod.is_flat(den_returns.values, den.denoised.close, log=True)),
        _stats_row("noise", den.noise, signal_mod.is_flat(den.noise, prices.close)),
    ]
    table = ComparisonTable(columns, rows)
    export_report(table, args.out)
    print(f"wrote {args.out}")
    for row in rows:
        print("  ".join(str(v) if isinstance(v, str) else format(float(v), ".6g")
                        for v in row))
    return EXIT_OK


def _volatility_config(args) -> vol_mod.VolatilityConfig:
    if args.window_step < 1:
        raise ValueError(f"--window-step must be >= 1, got {args.window_step}")
    if args.states < 2:
        raise ValueError(f"--states must be >= 2, got {args.states}")
    if args.date_stride < 1:
        raise ValueError(f"--date-stride must be >= 1, got {args.date_stride}")
    if args.window_min > args.window_max:
        raise ValueError(f"--window-min ({args.window_min}) must be <= "
                         f"--window-max ({args.window_max})")
    lengths = tuple(range(args.window_min, args.window_max + 1, args.window_step))
    return vol_mod.VolatilityConfig(
        window_lengths=lengths, reps=args.reps, n_states=args.states,
        epochs=args.epochs, seed=args.seed, date_stride=args.date_stride)


def cmd_volatility(args) -> int:
    cfg = _volatility_config(args)
    if args.self_check:
        prices = vol_mod.two_regime_prices(args.seed)
        boundary = 400
        # the self-check isolates the indicator from the denoiser: it
        # verifies the structural response to a variance break on the raw
        # fixture returns
    else:
        prices = signal_mod.denoise(
            signal_mod.load_prices(args.prices, args.date_col, args.price_col)).denoised
    returns = signal_mod.log_returns(prices)
    if signal_mod.is_flat(returns.values, prices.close, log=True):
        # a constant path, denoised or not
        raise ValueError("the price path is constant: its returns do not rise above the "
                         "rounding of the log prices")
    tv = vol_mod.tv_volatility(returns, cfg)
    # checked before any file is written, so a failing check leaves no CSV
    check = vol_mod.variance_break_check(tv, returns, boundary - 1) if args.self_check else None
    garch = vol_mod.fit_garch11(returns)
    sigma = vol_mod.garch_conditional_vol(garch.model, returns)
    table = vol_mod.comparison_table(returns, tv, sigma)
    export_report(table, f"{args.out_prefix}_comparison.csv")
    garch_table = ComparisonTable(
        ["name", "coef", "std_err", "t"],
        [[name, coef, se, t] for name, coef, se, t in garch.table_rows()])
    export_report(garch_table, f"{args.out_prefix}_garch.csv")
    print(json.dumps({"window_lengths": list(cfg.window_lengths),
                      "reps": cfg.reps, "n_states": cfg.n_states,
                      "epochs": cfg.epochs, "evaluated_dates": len(tv.dates)}))
    print("GARCH(1,1) fit:")
    for name, coef, se, t in garch.table_rows():
        print(f"  {name:>7}: coef {coef: .4e}  std err {se: .4e}  t {t: .2f}")
    if garch.boundary_flag:
        print("  note: persistence near the unit boundary", file=sys.stderr)
    if check is not None:
        print(f"self-check: baseline {check.mean_low:.4f} break plateau "
              f"{check.mean_plateau:.4f} (half medians {check.median_plateau_early:.4f} "
              f"{check.median_plateau_late:.4f}) tail {check.mean_tail:.4f} "
              f"(falls back: {'yes' if check.falls_back else 'no'}) -> "
              f"{'pass' if check.elevated_at_break else 'fail'}")
        return EXIT_OK if check.elevated_at_break else EXIT_STATISTICAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmcbounds",
        description="Convergence bounds for finite-state nonlinear Markov chains "
                    "and the TV-volatility indicator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="coefficients and bound curves for one model")
    _add_model_flags(p)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default="bounds")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="true-TV envelope vs bound curves")
    _add_model_flags(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--steps", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="simulate.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("coupling-check", help="statistical validation of the coupling")
    _add_model_flags(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="coupling_check.csv")
    p.set_defaults(func=cmd_coupling_check)

    p = sub.add_parser("stats", help="descriptive statistics of raw/denoised returns")
    p.add_argument("--prices", required=True)
    p.add_argument("--date-col", default="date")
    p.add_argument("--price-col", default="adj_close")
    p.add_argument("--out", default="stats.csv")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("volatility", help="TV-volatility pipeline plus GARCH baseline")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--prices")
    source.add_argument("--self-check", action="store_true",
                        help="run on the built-in two-regime fixture and verify the "
                             "regime elevation property")
    p.add_argument("--date-col", default="date")
    p.add_argument("--price-col", default="adj_close")
    p.add_argument("--window-min", type=int, default=60)
    p.add_argument("--window-max", type=int, default=80)
    p.add_argument("--window-step", type=int, default=5)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--date-stride", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default="volatility")
    p.set_defaults(func=cmd_volatility)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args.command, args)
    try:
        return args.func(args)
    except NonconvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (NmcError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
