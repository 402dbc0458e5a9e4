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

In the GARCH(1,1) baseline, the variance path and derivative rows run
through one first-order recursion (``_ar1``, recursive doubling), one
safeguarded Newton search on the analytic Hessian (``_newton``) both finds
and polishes the fit, and the logistic and logit are ``math`` one-liners.
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


def transition_tv_bounds(transitions) -> np.ndarray:
    """One-step coupling bounds ``spectral_bound(r, eps, K, 1)`` =
    2(1 - 1/K)(r + eps) of a (B, K, K) stack of fitted hidden chains, K read
    from the stack's last axis, each clipped to [0, 2]."""
    trans = np.asarray(transitions, dtype=np.float64)
    est = coupling_radii(trans / trans.sum(axis=-1, keepdims=True))
    return np.clip(spectral_bound(est.r, est.eps, trans.shape[-1], 1), 0.0, 2.0)


def transition_tv_bound(transition: np.ndarray) -> float:
    """One-step spectral-radius bound of one fitted (K, K) hidden chain, in
    [0, 2]."""
    trans = np.asarray(transition, dtype=np.float64)[None]
    return float(transition_tv_bounds(trans)[0])


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
        bounds = transition_tv_bounds(fitted.transition)
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
        if not all(math.isfinite(v) for v in (self.mu, self.omega, self.alpha1, self.beta1)):
            raise ValueError("GARCH parameters must be finite")
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


def _ar1(x, beta):
    """y_t = x_t + beta y_{t-1} along the last axis, from y_{-1} = 0, in
    place in x (which is returned).

    Recursive doubling (Kogge & Stone 1973): after the pass with lag k,
    y_t holds sum_{j < 2k} beta^j x_{t-j}, so ceil(log2 n) whole-array
    passes replace the n-step loop.  The sums form a tree, not a chain, and
    each lag's coefficient beta^k is one ``pow``, not repeated squaring,
    so its error does not grow with k.  Overflow leaves inf or nan, as a C loop
    would, for the caller's finiteness check.
    """
    beta = float(beta)
    k, n = 1, x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n:
            c = beta ** k
            if c == 0.0:
                break
            x[..., k:] += c * x[..., :-k]
            k *= 2
    return x


def _variance_path(mu, omega, alpha1, beta1, r, h0):
    """h_t = omega + alpha1 e_{t-1}^2 + beta1 h_{t-1}, from h_0 = h0 (the
    sample variance of r, computed once per fit by the caller)."""
    e2 = (r - mu) ** 2
    x = omega + alpha1 * e2[:-1]
    x[:1] += beta1 * h0
    return np.concatenate(([h0], _ar1(x, beta1))), e2


_RHO_CAP = 1.0 - 1e-7    # keeps the persistence strictly inside the unit interval
_SCORE_TOL = 1e-6        # converged: largest scaled score component
_DEGENERATE = 1e-8       # returns whose std is below this share of max |r|
_SEARCH_STEPS = 400      # Newton steps per start, 100 per parameter
# second derivatives of h that are not zero, as (i, j) in (mu, omega, alpha1, beta1)
_HESS_PAIRS = ((0, 0), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3))


def _garch_terms(params, r, h0):
    """The Gaussian NLL of GARCH(1,1) at (mu, omega, alpha1, beta1), its
    per-observation scores (4, n) and its (4, 4) Hessian; None where the
    variance path is not finite and positive or the NLL overflows.

    Differentiating the recursion gives dh_t = d(omega + alpha1 e_{t-1}^2)
    + h_{t-1} dbeta1 + beta1 dh_{t-1} from dh_0 = 0 (h_0 is fixed per fit),
    so the four derivative rows run through h's own recursion (``_ar1``) in
    one call, and the nonzero second derivatives of h in one more
    (Fiorentini, Calzolari & Panattoni 1996).
    """
    mu, omega, alpha1, beta1 = params
    h, e2 = _variance_path(mu, omega, alpha1, beta1, r, h0)
    if not np.all(np.isfinite(h)) or h.min() <= 0:
        return None
    with np.errstate(over="ignore"):
        nll = 0.5 * float(np.sum(np.log(2.0 * math.pi * h) + e2 / h))
    if not math.isfinite(nll):
        return None
    e = r - mu
    inv_h = 1.0 / h
    u = e2 * inv_h
    dh = np.zeros((4, r.shape[0]))
    dh[0, 1:] = -2.0 * alpha1 * e[:-1]
    dh[1, 1:] = 1.0
    dh[2, 1:] = e2[:-1]
    dh[3, 1:] = h[:-1]
    _ar1(dh[:, 1:], beta1)
    dnll_dh = 0.5 * inv_h * (1.0 - u)
    scores = dh * dnll_dh
    scores[0] -= e * inv_h
    d2h = np.zeros((len(_HESS_PAIRS), r.shape[0]))
    d2h[0, 1:] = 2.0 * alpha1
    d2h[1, 1:] = -2.0 * e[:-1]
    d2h[2, 1:] = dh[0, :-1]
    d2h[3, 1:] = dh[1, :-1]
    d2h[4, 1:] = dh[2, :-1]
    d2h[5, 1:] = 2.0 * dh[3, :-1]
    _ar1(d2h[:, 1:], beta1)
    H = (dh * (0.5 * inv_h * inv_h * (2.0 * u - 1.0))) @ dh.T
    cross = dh @ (e * inv_h * inv_h)
    H[0] += cross
    H[:, 0] += cross
    H[0, 0] += inv_h.sum()
    for (i, j), row in zip(_HESS_PAIRS, d2h @ dnll_dh):
        H[i, j] += row
        if i != j:
            H[j, i] += row
    return nll, scores, H


# the logistic and its inverse; the branch keeps math.exp from overflowing
def _expit(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def _logit(p):
    return math.log(p / (1.0 - p))


def _theta_to_params(theta):
    """(mu, omega, alpha1, beta1) of a search point theta = (mu, log omega,
    logit rho, logit split), with rho = alpha1 + beta1 capped at _RHO_CAP
    and the split alpha1 / rho; also returns rho and the split.  Raises
    OverflowError where omega is not a finite float."""
    mu, log_omega, s_rho, s_frac = theta
    rho = min(_expit(s_rho), _RHO_CAP)
    frac = _expit(s_frac)
    return (float(mu), math.exp(log_omega), rho * frac, rho * (1.0 - frac)), rho, frac


def _search_terms(theta, r, h0):
    """Mean NLL per observation and its gradient and Hessian at a search
    point theta = (mu, log omega, logit rho, logit split), in the units of
    the returns r; None where omega is not a finite float or
    ``_garch_terms`` returns None.

    The Hessian is (J' H J + sum_i g_i d2p_i) / n, with J, H and g the
    Jacobian, NLL Hessian and NLL gradient of p = (mu, omega, alpha1,
    beta1).  The nonzero d2p_i are omega'' = omega, rho'' = rho'(1 - 2 rho),
    f'' = f'(1 - 2 f) of the split f and the mixed rho' f' of alpha1 = rho f
    and beta1 = rho (1 - f).  At the persistence cap rho' = rho'' = 0 and
    logit rho gets a unit row and column, so the search leaves it alone.
    """
    try:
        params, rho, frac = _theta_to_params(theta)
    except OverflowError:
        return None
    terms = _garch_terms(params, r, h0)
    if terms is None:
        return None
    nll, scores, H = terms
    capped = rho >= _RHO_CAP
    drho = 0.0 if capped else rho * (1.0 - rho)
    dfrac = frac * (1.0 - frac)
    jac = np.array([[1.0, 0.0, 0.0, 0.0],
                    [0.0, params[1], 0.0, 0.0],
                    [0.0, 0.0, drho * frac, rho * dfrac],
                    [0.0, 0.0, drho * (1.0 - frac), -rho * dfrac]])
    g = scores.sum(axis=1)
    hess = jac.T @ H @ jac
    hess[1, 1] += g[1] * params[1]
    hess[2, 2] += drho * (1.0 - 2.0 * rho) * (g[2] * frac + g[3] * (1.0 - frac))
    hess[2, 3] += drho * dfrac * (g[2] - g[3])
    hess[3, 2] = hess[2, 3]
    hess[3, 3] += rho * dfrac * (1.0 - 2.0 * frac) * (g[2] - g[3])
    n = r.shape[0]
    hess /= n
    if capped:
        hess[2, 2] = 1.0
    return nll / n, jac.T @ g / n, hess


def _scaled_inverse(A):
    """A^-1 through the unit-diagonal scaling of A (pinv if singular)."""
    d = 1.0 / np.sqrt(np.abs(np.diag(A)))
    try:
        inner = np.linalg.inv(A * d[:, None] * d)
    except np.linalg.LinAlgError:
        inner = np.linalg.pinv(A * d[:, None] * d)
    return inner * d[:, None] * d


def _newton(theta, r, h0):
    """Minimize the mean NLL from the search point theta by Newton steps;
    returns (theta, nll, gradient) at the last accepted point.

    A Hessian that is not positive definite is shifted by tau I (Nocedal &
    Wright 2006, Alg. 3.3), tau from 1e-12 of its largest diagonal entry
    (the Hessian's own rounding) and growing tenfold; a larger floor turns
    steps along a weak negative curvature into crawls of g / tau.  Steps
    backtrack to Armijo's condition (c1 = 1e-4, Alg. 3.1) with the rounding
    slack of an n-term sum, n eps |nll| (Higham 2002, 4.2).  Once the
    gradient is at most _SCORE_TOL / 10 and unshifted, the search stops when
    the Newton decrement g' H^-1 g stops shrinking, which pins the optimum
    to rounding.  It also stops when rounding leaves no descent direction,
    when a trial point equals the current one, and after _SEARCH_STEPS
    steps.
    """
    f, g, hess = _search_terms(theta, r, h0)
    slack = r.shape[0] * np.finfo(float).eps
    decrement = math.inf
    for _ in range(_SEARCH_STEPS):
        shifted, tau = hess, 0.0
        while True:
            try:
                np.linalg.cholesky(shifted)
                break
            except np.linalg.LinAlgError:
                tau = 10.0 * tau if tau else 1e-12 * np.abs(np.diag(hess)).max()
                shifted = hess + tau * np.eye(4)
        step = -_scaled_inverse(shifted) @ g
        slope = float(g @ step)
        if not slope < 0:
            break
        if tau == 0 and np.abs(g).max() <= _SCORE_TOL / 10:
            if not -slope < decrement:
                break
            decrement = -slope
        t = 1.0
        while True:
            trial = theta + t * step
            if np.array_equal(trial, theta):
                return theta, f, g
            terms = _search_terms(trial, r, h0)
            if terms is not None and terms[0] <= f + 1e-4 * t * slope + slack * abs(f):
                break
            t *= 0.5
        theta, (f, g, hess) = trial, terms
    return theta, f, g


def _sandwich_errors(params, capped, scores, H):
    """Bollerslev-Wooldridge standard errors, the diagonal of H^-1 G H^-1
    with G the outer product of the per-observation scores, over the free
    moves of the parameters: all four inside the region; mu, omega and the
    split at the cap, where alpha1 and beta1 get NaN."""
    free = np.eye(4)
    if capped:
        free = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, 0.0, _RHO_CAP], [0.0, 0.0, -_RHO_CAP]])
    hinv = _scaled_inverse(free.T @ H @ free)
    s = free.T @ scores
    cov = hinv @ (s @ s.T) @ hinv
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if capped:
        se = np.concatenate((se[:2], [math.nan, math.nan]))
    names = ("mu", "omega", "alpha1", "beta1")
    std_errors = dict(zip(names, se.tolist()))
    t_stats = {n: (params[i] / se[i] if se[i] > 0 else math.nan)
               for i, n in enumerate(names)}
    return std_errors, t_stats


def fit_garch11(returns) -> GarchFit:
    """Gaussian quasi-MLE of GARCH(1,1) by a Newton search on the exact
    Hessian.

    Constraints come from the parameterization: omega through exp, the
    persistence alpha1 + beta1 (capped at 1 - 1e-7) and its split through
    logistics.  The search (``_newton``) runs from three starts and the
    lowest end point is the fit; at the cap it moves mu, omega and the
    split only.  It fits the returns in units of their std (sd, with
    var = sd^2 their sample variance) and maps the fit back: mu and its
    standard error times sd, omega and its standard error times var, the
    log-likelihood minus n log sd.  ``converged`` says the search's
    gradient (mean over observations, in those units) is at most
    _SCORE_TOL in every component at the returned point.  Standard errors
    are Bollerslev and Wooldridge's sandwich H^-1 G H^-1 from the analytic
    scores and Hessian; at the cap those of alpha1 and beta1 are NaN.
    """
    r = returns.values if isinstance(returns, ReturnSeries) else np.asarray(returns, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise ValueError("returns must be finite")
    if r.shape[0] < 50:
        raise ValueError("need at least 50 observations to fit GARCH(1,1)")
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(r.var())
    if not math.isfinite(var):
        raise ValueError("returns too large: their variance overflows")
    sd = math.sqrt(var)
    if not sd > _DEGENERATE * float(np.abs(r).max()):
        raise ValueError("degenerate returns: no variation on the scale of the returns")

    # the search runs on returns in units of their std, so no scale of the
    # returns overflows or underflows its terms; the units come back after
    z = r / sd
    var_z = float(z.var())
    best = None
    for rho0, frac0 in ((0.9, 0.1 / 0.9), (0.5, 0.5), (0.97, 0.05)):
        x0 = np.array([float(z.mean()), math.log(var_z * (1.0 - rho0)),
                       _logit(rho0), _logit(frac0)])
        end = _newton(x0, z, var_z)
        if best is None or end[1] < best[1]:
            best = end
    x, _, grad = best
    params, rho, _ = _theta_to_params(x)
    capped = rho >= _RHO_CAP
    nll, scores, H = _garch_terms(params, z, var_z)
    converged = bool(np.abs(grad).max() <= _SCORE_TOL)
    se, tstat = _sandwich_errors(params, capped, scores, H)
    mu, omega, alpha1, beta1 = params[0] * sd, params[1] * var, params[2], params[3]
    se = dict(se, mu=se["mu"] * sd, omega=se["omega"] * var)
    return GarchFit(GarchModel(mu, omega, alpha1, beta1), se, tstat,
                    -nll - r.shape[0] * math.log(sd), alpha1 + beta1 > 0.999, converged)


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
        return np.zeros_like(col)
    return (col - lo) / (hi - lo)


def comparison_table(returns: ReturnSeries, tv: TvVolatilitySeries,
                     garch_sigma) -> ComparisonTable:
    """Per-date comparison of squared returns, GARCH sigma and TV volatility.

    Normalized columns are min-max over the evaluated dates, so each range
    is the min and max of the raw column beside it.
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
    norm_sq = _minmax(sq)
    norm_gs = _minmax(gs)
    norm_tv = _minmax(tv.tv_mean)
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
    return ComparisonTable(columns, rows)


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
