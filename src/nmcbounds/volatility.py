"""Sliding-window TV-volatility indicator and the GARCH(1,1) baseline.

Per evaluation date, Gaussian-HMM fits on windows of denoised log returns
produce hidden transition matrices; each matrix yields the one-step
coupling bound 2(1 - 1/K)(r + eps) through its coupling matrix
(``bounds.spectral_bound`` at n = 1), and the mean/spread over (window
length x random restart) pairs is the indicator.
A calm market fits nearly interchangeable states (row overlaps near 1, r
near 0); regime stress separates the states and pushes r up.

The grid runs batch-first on stacked parameter arrays.  Per window length,
one array expression derives the 64-bit key of every (date, restart) slot,
one ``random_inits`` call draws all their starts from those keys'
counter-based streams around one quantile sort of the date windows, one
``fit_window_batch`` call fits them all, and one pass of the batched
coupling operator bounds the fitted transition stack; the starvation mask
becomes the per-date quality flags.  No per-slot generator or model object
is built.

scipy is imported at its call sites: ``scipy.optimize`` inside
``fit_garch11`` and ``scipy.signal`` inside ``_variance_path``, so importing
this module (and the CLI) loads no scipy; a process pays for it at its first
GARCH fit or variance path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as _date
from datetime import timedelta

import numpy as np

from .bounds import spectral_bound
from .coupling import coupling_radii
from .errors import AlignmentError
from .experiments import ComparisonTable
from .ghmm import fit_window_batch, random_inits
from .rng import derive_seed
from .signal import PriceSeries, ReturnSeries

_SEED_T_SHIFT = 2**20
_SEED_L_SHIFT = 2**10


@dataclass(frozen=True)
class VolatilityConfig:
    window_lengths: tuple = (60, 65, 70, 75, 80)
    reps: int = 10
    n_states: int = 3
    epochs: int = 15
    seed: int = 0
    date_stride: int = 1             # evaluate every stride-th date

    def __post_init__(self):
        if not self.window_lengths or min(self.window_lengths) < 20:
            raise ValueError("window lengths must be >= 20")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        # _fit_seed packs (date, length, rep) into one integer; larger
        # lengths or rep counts would make two grid slots share a stream
        if max(self.window_lengths) >= _SEED_T_SHIFT // _SEED_L_SHIFT:
            raise ValueError(f"window lengths must be < {_SEED_T_SHIFT // _SEED_L_SHIFT}")
        if self.reps >= _SEED_L_SHIFT:
            raise ValueError(f"reps must be < {_SEED_L_SHIFT}")
        if self.n_states < 2:
            raise ValueError("n_states must be >= 2")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.date_stride < 1:
            raise ValueError("date_stride must be >= 1")
        object.__setattr__(self, "window_lengths", tuple(sorted(self.window_lengths)))


@dataclass(frozen=True)
class TvVolatilitySeries:
    """Indicator values on the evaluated dates (mean and spread over the
    window-length x restart grid)."""

    dates: tuple
    tv_mean: np.ndarray
    tv_std: np.ndarray
    tv_ci_lo: np.ndarray
    tv_ci_hi: np.ndarray
    n_fits: int
    quality_flags: tuple            # per date: count of starved fits
    config: VolatilityConfig


def _fit_seed(t, length, rep):
    # one derived stream per (date, window length, restart) grid slot; ints
    # or uint64 arrays, which wrap modulo 2**64 like derive_seed's mask
    return t * _SEED_T_SHIFT + length * _SEED_L_SHIFT + rep


def _slot_keys(seed: int, dates, length: int, reps: int) -> np.ndarray:
    """``derive_seed(seed, _fit_seed(t, length, rep))`` of every (date, rep)
    slot, date-major, in one uint64 array expression."""
    t = np.asarray(dates, dtype=np.uint64)[:, None]
    return derive_seed(seed, _fit_seed(t, length, np.arange(reps, dtype=np.uint64)).ravel())


def transition_tv_bounds(transitions, n_states: int) -> np.ndarray:
    """One-step coupling bounds ``spectral_bound(r, eps, K, 1)`` =
    2(1 - 1/K)(r + eps) of a (B, K, K) stack of fitted hidden chains, each
    clipped to [0, 2]."""
    trans = np.asarray(transitions, dtype=np.float64)
    est = coupling_radii(trans / trans.sum(axis=-1, keepdims=True))
    return np.clip(spectral_bound(est.r, est.eps, n_states, 1), 0.0, 2.0)


def transition_tv_bound(transition: np.ndarray, n_states: int) -> float:
    """One-step spectral-radius bound of a fitted hidden chain, in [0, 2]."""
    trans = np.asarray(transition, dtype=np.float64)[None]
    return float(transition_tv_bounds(trans, n_states)[0])


def tv_volatility(returns: ReturnSeries, config: VolatilityConfig | None = None) -> TvVolatilitySeries:
    """Indicator series over all dates with a full longest window behind them.

    Every (date, length, rep) slot starts from its own key,
    ``derive_seed(seed, _fit_seed(t, L, rep))``, so the grid can be
    evaluated in any order, batch or subset (or in parallel) with identical
    results.  GHMM starvation resets degrade into per-date quality flags,
    never failures.
    """
    cfg = config or VolatilityConfig()
    max_len = max(cfg.window_lengths)
    if len(returns) < max_len:
        raise ValueError(f"need at least {max_len} returns, have {len(returns)}")
    eval_idx = list(range(max_len - 1, len(returns), cfg.date_stride))
    D = len(eval_idx)
    n_fits = len(cfg.window_lengths) * cfg.reps

    values = np.empty((D, n_fits))
    bad = np.zeros(D, dtype=int)
    for j, L in enumerate(cfg.window_lengths):
        windows = np.stack([returns.values[t - L + 1:t + 1] for t in eval_idx])
        starts = random_inits(windows, cfg.n_states, _slot_keys(cfg.seed, eval_idx, L, cfg.reps))
        fitted, _, starved = fit_window_batch(np.repeat(windows, cfg.reps, axis=0),
                                              starts, cfg.epochs)
        bounds = transition_tv_bounds(fitted.transition, cfg.n_states)
        values[:, j * cfg.reps:(j + 1) * cfg.reps] = bounds.reshape(D, cfg.reps)
        bad += starved.any(axis=(1, 2)).reshape(D, cfg.reps).sum(axis=1)

    means = values.mean(axis=1)
    stds = values.std(axis=1, ddof=1) if n_fits > 1 else np.zeros(D)
    half = 1.96 * stds / math.sqrt(n_fits)
    return TvVolatilitySeries(
        tuple(returns.dates[t] for t in eval_idx), means, stds,
        np.maximum(means - half, 0.0), np.minimum(means + half, 2.0),
        n_fits, tuple(int(v) for v in bad), cfg)


# ---------------------------------------------------------------------------
# GARCH(1,1) baseline


@dataclass(frozen=True)
class GarchModel:
    mu: float
    omega: float
    alpha1: float
    beta1: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.alpha1 < 0 or self.beta1 < 0:
            raise ValueError("alpha1 and beta1 must be nonnegative")
        if self.alpha1 + self.beta1 >= 1:
            raise ValueError("alpha1 + beta1 must be < 1")


@dataclass(frozen=True)
class GarchFit:
    model: GarchModel
    std_errors: dict
    t_stats: dict
    loglik: float
    boundary_flag: bool
    converged: bool

    def table_rows(self):
        """Rows (name, coef, std err, t) in the usual report layout."""
        out = []
        for name, coef in (("mu", self.model.mu), ("omega", self.model.omega),
                           ("alpha1", self.model.alpha1), ("beta1", self.model.beta1)):
            out.append((name, coef, self.std_errors[name], self.t_stats[name]))
        return out


def _variance_path(mu, omega, alpha1, beta1, r, h0):
    """h_t = omega + alpha1 e_{t-1}^2 + beta1 h_{t-1}, from h_0 = h0 (the
    sample variance of r, computed once per fit by the caller)."""
    e2 = (r - mu) ** 2
    if r.shape[0] == 1:
        return np.array([h0]), e2
    from scipy.signal import lfilter

    x = omega + alpha1 * e2[:-1]
    tail = lfilter([1.0], [1.0, -beta1], x, zi=[beta1 * h0])[0]
    return np.concatenate(([h0], tail)), e2


_RHO_CAP = 1.0 - 1e-7   # keeps the persistence strictly inside the unit interval


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _theta_to_params(theta):
    """(mu, omega, alpha1, beta1) of an unconstrained search point."""
    mu, log_omega, s_rho, s_frac = theta
    rho = min(_sigmoid(s_rho), _RHO_CAP)
    frac = _sigmoid(s_frac)
    return mu, math.exp(log_omega), rho * frac, rho * (1.0 - frac)


def _garch_nll(theta, r, h0):
    h, e2 = _variance_path(*_theta_to_params(theta), r, h0)
    if h.min() <= 0 or not np.all(np.isfinite(h)):
        return 1e12
    return 0.5 * float(np.sum(np.log(2.0 * math.pi * h) + e2 / h))


def fit_garch11(returns) -> GarchFit:
    """Gaussian quasi-MLE of GARCH(1,1) by Nelder-Mead simplex search.

    Constraints come from the parameterization: omega through exp, the
    persistence alpha1+beta1 and its split through logistics, so the
    simplex roams an unconstrained space.  Standard errors use the
    outer-product-of-gradients estimator at the optimum.
    """
    r = returns.values if isinstance(returns, ReturnSeries) else np.asarray(returns, dtype=np.float64)
    if r.shape[0] < 50:
        raise ValueError("need at least 50 observations to fit GARCH(1,1)")
    var = float(r.var())
    if var == 0.0:
        raise ValueError("degenerate returns: zero variance")

    from scipy import optimize

    def logit(x):
        return math.log(x / (1.0 - x))

    starts = []
    for rho0, frac0 in ((0.9, 0.1 / 0.9), (0.5, 0.5), (0.97, 0.05)):
        starts.append(np.array([
            float(r.mean()), math.log(var * (1.0 - rho0)), logit(rho0), logit(frac0)]))
    best = None
    for x0 in starts:
        res = optimize.minimize(
            _garch_nll, x0, args=(r, var), method="Nelder-Mead",
            options={"maxiter": 6000, "xatol": 1e-8, "fatol": 1e-10})
        if best is None or res.fun < best.fun:
            best = res
    # polish from the winner
    res = optimize.minimize(
        _garch_nll, best.x, args=(r, var), method="Nelder-Mead",
        options={"maxiter": 6000, "xatol": 1e-10, "fatol": 1e-12})
    if res.fun > best.fun:
        res = best

    mu, omega, alpha1, beta1 = _theta_to_params(res.x)
    alpha1 = max(alpha1, 0.0)
    beta1 = max(beta1, 0.0)
    boundary = alpha1 + beta1 > 0.999
    model = GarchModel(mu, omega, alpha1, beta1)

    se, tstat = _opg_errors(model, r, var)
    return GarchFit(model, se, tstat, -float(res.fun), boundary, bool(res.success))


def _per_obs_loglik(params, r, h0):
    mu, omega, alpha1, beta1 = params
    h, e2 = _variance_path(mu, omega, alpha1, beta1, r, h0)
    return -0.5 * (np.log(2.0 * math.pi * h) + e2 / h)


def _opg_errors(model: GarchModel, r, h0):
    params = np.array([model.mu, model.omega, model.alpha1, model.beta1])
    steps = np.maximum(np.abs(params) * 1e-5, 1e-9)
    grads = np.empty((r.shape[0], 4))
    for j in range(4):
        hi = params.copy()
        lo = params.copy()
        hi[j] += steps[j]
        lo[j] -= steps[j]
        lo[j] = max(lo[j], 1e-12) if j == 1 else max(lo[j], 0.0) if j in (2, 3) else lo[j]
        grads[:, j] = (_per_obs_loglik(hi, r, h0) - _per_obs_loglik(lo, r, h0)) / (hi[j] - lo[j])
    opg = grads.T @ grads
    try:
        cov = np.linalg.inv(opg)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(opg)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    names = ("mu", "omega", "alpha1", "beta1")
    std_errors = dict(zip(names, se))
    t_stats = {n: (params[i] / se[i] if se[i] > 0 else math.nan)
               for i, n in enumerate(names)}
    return std_errors, t_stats


def garch_conditional_vol(model: GarchModel, returns) -> np.ndarray:
    """sigma_t = sqrt(h_t), one value per return date."""
    r = returns.values if isinstance(returns, ReturnSeries) else np.asarray(returns, dtype=np.float64)
    h, _ = _variance_path(model.mu, model.omega, model.alpha1, model.beta1, r,
                          float(r.var()))
    return np.sqrt(h)


# ---------------------------------------------------------------------------
# joined comparison table


def _minmax(column):
    col = np.asarray(column, dtype=np.float64)
    lo, hi = float(col.min()), float(col.max())
    if hi - lo <= 0:
        return np.zeros_like(col), lo, hi
    return (col - lo) / (hi - lo), lo, hi


def comparison_table(returns: ReturnSeries, tv: TvVolatilitySeries,
                     garch_sigma) -> ComparisonTable:
    """Per-date comparison of squared returns, GARCH sigma and TV volatility.

    Normalized columns are min-max over the evaluated range; the bounds
    used are recorded in the table metadata.
    """
    garch_sigma = np.asarray(garch_sigma, dtype=np.float64)
    if garch_sigma.shape[0] != len(returns):
        raise AlignmentError("garch sigma is not aligned with the return dates")
    index = {d: i for i, d in enumerate(returns.dates)}
    missing = [d for d in tv.dates if d not in index]
    if missing:
        raise AlignmentError(f"tv dates absent from returns: {missing[:3]}...")
    if not tv.dates:
        raise AlignmentError("empty overlap between series")
    rows_idx = [index[d] for d in tv.dates]
    sq = returns.values[rows_idx] ** 2
    gs = garch_sigma[rows_idx]
    norm_sq, sq_lo, sq_hi = _minmax(sq)
    norm_gs, gs_lo, gs_hi = _minmax(gs)
    norm_tv, tv_lo, tv_hi = _minmax(tv.tv_mean)
    columns = ["date", "sq_return", "garch_sigma", "tv_mean", "tv_std",
               "tv_ci_lo", "tv_ci_hi", "norm_sq_return", "norm_garch_sigma",
               "norm_tv_mean", "quality_flags"]
    rows = []
    for i, d in enumerate(tv.dates):
        rows.append([d.isoformat(), float(sq[i]), float(gs[i]),
                     float(tv.tv_mean[i]), float(tv.tv_std[i]),
                     float(tv.tv_ci_lo[i]), float(tv.tv_ci_hi[i]),
                     float(norm_sq[i]), float(norm_gs[i]), float(norm_tv[i]),
                     int(tv.quality_flags[i])])
    meta = {
        "normalization": "min-max over evaluated dates",
        "sq_return_range": (sq_lo, sq_hi),
        "garch_sigma_range": (gs_lo, gs_hi),
        "tv_mean_range": (tv_lo, tv_hi),
        "n_fits_per_date": tv.n_fits,
        "config": tv.config,
    }
    return ComparisonTable(columns, rows, meta)


# ---------------------------------------------------------------------------
# synthetic fixture used by tests and the CLI self-check


def two_regime_prices(seed: int, n_low: int = 400, n_high: int = 400) -> PriceSeries:
    """Lognormal price path from 100 whose daily sigma jumps from 0.005 to
    0.03 after ``n_low`` days."""
    rng = np.random.default_rng(seed)
    rets = np.concatenate([
        rng.normal(0.0, 0.005, n_low),
        rng.normal(0.0, 0.03, n_high),
    ])
    prices = 100.0 * np.exp(np.cumsum(rets))
    first = _date(2020, 1, 1)
    dates = tuple(first + timedelta(days=i) for i in range(prices.shape[0]))
    return PriceSeries(dates, prices)


@dataclass(frozen=True)
class BreakCheckResult:
    """Indicator response to a variance break: the low-regime baseline, the
    plateau of dates whose windows straddle the break (mean, and the median
    of each half in date order), and the tail of fully-high windows.

    ``elevated_at_break`` (plateau mean above baseline mean) is the pass
    criterion of ``volatility --self-check``; ``falls_back`` records whether
    the tail mean lies below the plateau mean.
    """

    mean_low: float
    mean_plateau: float
    mean_tail: float
    median_plateau_early: float
    median_plateau_late: float
    elevated_at_break: bool
    falls_back: bool


def variance_break_check(tv: TvVolatilitySeries, returns: ReturnSeries,
                         boundary_index: int) -> BreakCheckResult:
    """Does the indicator rise when windows start covering the new regime?

    The plateau spans roughly one longest-window length past the break;
    that is the structural response the coupling bound can deliver on
    within-regime-iid data (the fitted chain is scale-free on stationary
    stretches, so the fully-high tail falls back toward the baseline).
    """
    max_len = max(tv.config.window_lengths)
    idx = {d: i for i, d in enumerate(returns.dates)}
    pos = np.array([idx[d] for d in tv.dates])
    low = tv.tv_mean[pos < boundary_index]
    plateau = tv.tv_mean[(pos >= boundary_index) & (pos < boundary_index + max_len - 1)]
    tail = tv.tv_mean[pos >= boundary_index + max_len - 1]
    if low.size < 2 or plateau.size < 2:
        raise ValueError("not enough evaluated dates around the variance break")
    mean_low = float(low.mean())
    mean_plateau = float(plateau.mean())
    mean_tail = float(tail.mean()) if tail.size else math.nan
    half = plateau.size // 2
    return BreakCheckResult(mean_low, mean_plateau, mean_tail,
                            float(np.median(plateau[:half])),
                            float(np.median(plateau[half:])),
                            mean_plateau > mean_low, mean_tail < mean_plateau)
