import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmcbounds import volatility
from nmcbounds.coupling import coupling_radii
from nmcbounds.errors import AlignmentError
from nmcbounds.rng import derive_seed
from nmcbounds.signal import PriceSeries, ReturnSeries, denoise, log_returns
from nmcbounds.volatility import (
    GarchModel,
    VolatilityConfig,
    _ar1,
    _fit_seed,
    _garch_terms,
    _search_terms,
    _slot_keys,
    comparison_table,
    fit_garch11,
    garch_conditional_vol,
    transition_tv_bound,
    transition_tv_bounds,
    tv_volatility,
    two_regime_prices,
)


def simulate_garch(mu, omega, alpha1, beta1, n, seed):
    gen = np.random.default_rng(seed)
    r = np.empty(n)
    h = omega / (1 - alpha1 - beta1)
    for t in range(n):
        r[t] = mu + np.sqrt(h) * gen.standard_normal()
        h = omega + alpha1 * (r[t] - mu) ** 2 + beta1 * h
    return r


def returns_from(values, start_index=0):
    from datetime import date, timedelta
    d0 = date(2020, 1, 1)
    dates = tuple(d0 + timedelta(days=start_index + i) for i in range(len(values)))
    return ReturnSeries(dates, np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# indicator plumbing


def test_transition_bound_near_zero_for_interchangeable_states():
    # rows nearly identical -> kappa near 1 -> coupling matrix near zero
    trans = np.array([[0.34, 0.33, 0.33],
                      [0.33, 0.34, 0.33],
                      [0.33, 0.33, 0.34]])
    v = transition_tv_bound(trans)
    assert v < 0.05


def test_transition_bound_rises_with_separation():
    sticky = np.array([[0.9, 0.05, 0.05],
                       [0.05, 0.9, 0.05],
                       [0.05, 0.05, 0.9]])
    mixed = np.full((3, 3), 1 / 3)
    assert transition_tv_bound(sticky) > transition_tv_bound(mixed) + 0.3


def test_tv_volatility_iid_small():
    gen = np.random.default_rng(1)
    rets = returns_from(gen.normal(0.0, 0.01, 120))
    cfg = VolatilityConfig(window_lengths=(40,), reps=3, seed=0, date_stride=10)
    tv = tv_volatility(rets, cfg)
    assert (tv.tv_mean >= 0).all() and (tv.tv_mean <= 2).all()
    assert tv.n_fits == 3


def test_tv_volatility_deterministic():
    gen = np.random.default_rng(2)
    rets = returns_from(gen.normal(0.0, 0.01, 100))
    cfg = VolatilityConfig(window_lengths=(40, 50), reps=1, seed=9, date_stride=7)
    a = tv_volatility(rets, cfg)
    b = tv_volatility(rets, cfg)
    assert a.dates == b.dates
    assert (a.tv_mean == b.tv_mean).all()
    assert (a.tv_std == b.tv_std).all()


def test_tv_volatility_variance_break_elevates_indicator():
    # windows containing the variance break carry two genuine volatility
    # states, so the fitted hidden chain mixes slowly there; the plateau
    # lasts about one window length past the break
    prices = two_regime_prices(seed=5, n_low=150, n_high=150)
    rets = log_returns(prices)
    L = 50
    cfg = VolatilityConfig(window_lengths=(L,), reps=3, seed=1, date_stride=5)
    tv = tv_volatility(rets, cfg)
    idx = {d: i for i, d in enumerate(rets.dates)}
    pos = np.array([idx[d] for d in tv.dates])
    low = tv.tv_mean[pos < 149]
    straddle = tv.tv_mean[(pos >= 149) & (pos < 149 + L - 1)]
    assert straddle.mean() > low.mean() + 0.2
    # and including the break, the high-sigma side sits above the low side
    high = tv.tv_mean[pos >= 149]
    assert high.mean() > low.mean()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 20))
def test_batched_transition_bounds_equal_per_fit_bounds(seed, K, B):
    gen = np.random.default_rng(seed)
    stack = gen.dirichlet(np.full(K, 0.5), size=(B, K))
    stack[0] = 1.0 / K                       # kappa = 1 everywhere: bound 0
    values = transition_tv_bounds(stack)
    singles = [transition_tv_bound(P) for P in stack]
    assert values.tolist() == singles
    assert values[0] == 0.0
    # the clipped product equals the former per-item Python-float form
    est = coupling_radii(stack / stack.sum(axis=-1, keepdims=True))
    scale = 2.0 * (1.0 - 1.0 / K)
    assert values.tolist() == [min(max(scale * (r + e) ** 1, 0.0), 2.0)
                               for r, e in zip(est.r.tolist(), est.eps.tolist())]


def test_tv_volatility_prefix_reproduces_first_dates():
    # every (date, length, rep) slot owns its seed stream and the bound pass
    # is per item, so fewer dates in the batch leave the first ones unchanged
    gen = np.random.default_rng(8)
    rets = returns_from(gen.standard_t(4, 140) * 0.01)
    cfg = VolatilityConfig(window_lengths=(30, 40), reps=3, seed=4, date_stride=6)
    full = tv_volatility(rets, cfg)
    n = 40 + 6 * 2                           # the first three dates
    prefix = tv_volatility(ReturnSeries(rets.dates[:n], rets.values[:n]), cfg)
    assert len(prefix.dates) == 3 and prefix.dates == full.dates[:3]
    for name in ("tv_mean", "tv_std", "tv_ci_lo", "tv_ci_hi"):
        assert getattr(prefix, name).tobytes() == getattr(full, name)[:3].tobytes()
    assert prefix.quality_flags == full.quality_flags[:3]


@settings(max_examples=40, deadline=None)
@given(st.integers(-2**70, 2**70),
       st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=4),
       st.integers(20, 1023), st.integers(1, 1023))
@example(-1, [0, 2**63 - 1], 1023, 1023)
@example(2**64 + 2**63 + 5, [2**44 - 1, 2**43 + 17], 1023, 1)
def test_slot_keys_equal_scalar_derive_seed(seed, dates, length, reps):
    # the uint64 expression wraps where the int path masks with 2**64 - 1:
    # negative seeds, seeds of 2**63 and more, and t * 2**20 beyond 2**64
    keys = _slot_keys(seed, dates, length, reps)
    assert keys.dtype == np.uint64 and keys.shape == (len(dates) * reps,)
    assert keys.tolist() == [derive_seed(seed, _fit_seed(t, length, rep))
                             for t in dates for rep in range(reps)]


def test_config_rejects_grids_that_would_share_seed_streams():
    # the per-slot seed is t * 2**20 + L * 2**10 + rep, so a length of 1024
    # or more, or 1024 reps or more, would collide with a neighbouring slot
    VolatilityConfig(window_lengths=(60, 1023), reps=1023)
    with pytest.raises(ValueError, match="window lengths"):
        VolatilityConfig(window_lengths=(60, 1024))
    with pytest.raises(ValueError, match="reps"):
        VolatilityConfig(reps=1024)


def test_tv_volatility_needs_enough_returns():
    rets = returns_from(np.zeros(30))
    with pytest.raises(ValueError):
        tv_volatility(rets, VolatilityConfig(window_lengths=(60,), reps=1))


# ---------------------------------------------------------------------------
# GARCH


def test_garch_recovery():
    r = simulate_garch(0.0, 5e-6, 0.10, 0.85, 3000, seed=3)
    fit = fit_garch11(returns_from(r))
    persistence = fit.model.alpha1 + fit.model.beta1
    assert persistence == pytest.approx(0.95, abs=0.08)
    assert fit.model.omega > 0
    names = [row[0] for row in fit.table_rows()]
    assert names == ["mu", "omega", "alpha1", "beta1"]
    # variance conservation: in-sample average of h_t near the sample variance
    sigma2 = garch_conditional_vol(fit.model, returns_from(r)) ** 2
    assert sigma2.mean() == pytest.approx(r.var(), rel=0.20)


def test_garch_white_noise_degenerates_to_constant_variance():
    gen = np.random.default_rng(4)
    r = gen.normal(0.0, 0.02, 2000)
    fit = fit_garch11(returns_from(r))
    sigma = garch_conditional_vol(fit.model, returns_from(r))
    var = r.var()
    assert sigma.var() / var < 0.05            # nearly constant
    assert np.median(sigma ** 2) == pytest.approx(var, rel=0.10)


def test_garch_conditional_vol_constant_case():
    model = GarchModel(mu=0.0, omega=4e-4, alpha1=0.0, beta1=0.0)
    r = returns_from(np.zeros(10) + 1e-12)
    sigma = garch_conditional_vol(model, r)
    assert sigma[1:] == pytest.approx(np.full(9, 0.02), abs=1e-10)


def test_garch_spike_decays_geometrically():
    model = GarchModel(mu=0.0, omega=1e-6, alpha1=0.1, beta1=0.8)
    r = np.zeros(50)
    r[10] = 0.5
    sigma = garch_conditional_vol(model, returns_from(r))
    h = sigma ** 2
    assert h[11] > 30 * h[10]
    # with zero returns after the spike, h follows h' = omega + beta h:
    # geometric decay at rate beta toward omega / (1 - beta)
    tail = h[12:30] - 1e-6 / (1 - 0.8)
    ratios = tail[1:] / tail[:-1]
    assert np.allclose(ratios, 0.8, atol=1e-6)
    # the expected-variance recursion decays at rate alpha + beta
    eh = np.empty(20)
    eh[0] = h[11]
    for t in range(1, 20):
        eh[t] = 1e-6 + (0.1 + 0.8) * eh[t - 1]
    spread = eh - 1e-6 / (1 - 0.9)
    assert np.allclose(spread[1:] / spread[:-1], 0.9, atol=1e-12)


def test_garch_zero_returns_fixed_point():
    model = GarchModel(mu=0.0, omega=1e-4, alpha1=0.0, beta1=0.5)
    r = returns_from(np.zeros(200) + 1e-15)
    h = garch_conditional_vol(model, r) ** 2
    assert h[-1] == pytest.approx(1e-4 / (1 - 0.5), rel=1e-6)


def test_garch_converged_reads_the_returned_search(monkeypatch):
    r = returns_from(simulate_garch(0.0, 5e-6, 0.10, 0.85, 500, seed=3))
    assert fit_garch11(r).converged is True
    # Newton reaches the tolerance in 4 steps from every start here
    monkeypatch.setattr(volatility, "_SEARCH_STEPS", 2)
    assert fit_garch11(r).converged is False


def test_garch_search_objective_rejects_an_omega_beyond_float_range():
    r = simulate_garch(0.0, 5e-6, 0.10, 0.85, 200, seed=3)
    z = r / r.std()                          # the search runs in units of the std
    for theta in ([0.0, 800.0, 2.0, 0.0], [0.0, 709.0, 2.0, 0.0]):
        assert _search_terms(np.array(theta), z, float(z.var())) is None


@pytest.mark.parametrize("s_rho, capped", [(1.5, False), (20.0, True)], ids=["inside", "at-cap"])
def test_search_hessian_matches_central_differences_of_the_gradient(s_rho, capped):
    # theta = (mu, log omega, logit rho, logit split) in units of the
    # returns' std; logit rho = 20 puts rho past the cap on both sides of
    # every difference
    r = simulate_garch(2e-4, 2e-6, 0.09, 0.89, 300, seed=2)
    z = r / r.std()
    var = float(z.var())
    theta = np.array([0.3, math.log(0.05 * var), s_rho, -1.0])
    f, g, hess = _search_terms(theta, z, var)
    delta = 1e-5
    fd_grad, fd_hess = np.empty(4), np.empty((4, 4))
    for i in range(4):
        step = np.zeros(4)
        step[i] = delta
        hi, lo = _search_terms(theta + step, z, var), _search_terms(theta - step, z, var)
        fd_grad[i] = (hi[0] - lo[0]) / (2 * delta)
        fd_hess[i] = (hi[1] - lo[1]) / (2 * delta)
    assert np.allclose(fd_grad, g, rtol=1e-6, atol=1e-9)
    free = [0, 1, 2, 3]
    if capped:
        # nothing moves with logit rho at the cap; the search sees a unit row
        assert g[2] == 0 and not fd_hess[2].any() and not fd_hess[:, 2].any()
        assert (hess[2] == np.eye(4)[2]).all() and (hess[:, 2] == np.eye(4)[2]).all()
        free = [0, 1, 3]
    sub = np.ix_(free, free)
    assert np.allclose(fd_hess[sub], hess[sub], rtol=1e-5, atol=1e-7 * np.abs(hess).max())


def ar1_loop(x, beta):
    """y_t = x_t + beta y_{t-1}, one step at a time in extended precision."""
    x = x.astype(np.longdouble)
    y = np.empty_like(x)
    acc = np.zeros(x.shape[:-1], dtype=np.longdouble)
    for t in range(x.shape[-1]):
        acc = x[..., t] + np.longdouble(beta) * acc
        y[..., t] = acc
    return y


@pytest.mark.parametrize("beta", [0.0, 1e-300, 1e-3, 0.5, 0.9, 1.0 - 1e-7])
@pytest.mark.parametrize("rows, n", [(1, 1), (1, 2), (6, 5), (1, 129), (6, 1000), (1, 3000)])
def test_ar1_matches_the_sequential_recursion(rows, n, beta):
    # the first row is positive, like a variance path; the others signed,
    # like the derivative rows.  Each lag's coefficient beta^k is one pow,
    # so the error stays a few eps of the sum of |terms| at n = 3000 and
    # beta = 1 - 1e-7, where repeated squaring would give 87 eps.
    from scipy.signal import lfilter

    x = np.random.default_rng([rows, n]).standard_normal((rows, n))
    x[0] = np.abs(x[0])
    exact = ar1_loop(x, beta)
    bound = 64 * np.finfo(float).eps * ar1_loop(np.abs(x), beta)
    y = _ar1(x.copy(), beta)
    assert (np.abs(y - exact) <= bound).all()
    oracle = lfilter([1.0], [1.0, -beta], x, axis=-1)
    assert (np.abs(y - oracle) <= bound).all()


def test_garch_needs_data():
    with pytest.raises(ValueError):
        fit_garch11(returns_from(np.zeros(10) + 1e-6))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_garch_rejects_non_finite_returns(bad):
    r = simulate_garch(0.0, 5e-6, 0.10, 0.85, 200, seed=3)
    r[17] = bad
    with pytest.raises(ValueError, match="returns must be finite"):
        fit_garch11(r)


@pytest.mark.parametrize("scale", [1e156, 1e160, 1e300])
def test_garch_rejects_returns_whose_variance_overflows(scale):
    # finite returns, but their sample variance is beyond float range; the
    # fit refuses them without an overflow warning
    r = simulate_garch(0.0, 5e-6, 0.10, 0.85, 200, seed=3) * scale
    with pytest.raises(ValueError, match="variance overflows"):
        fit_garch11(r)


def white_returns():
    return np.random.default_rng(0).normal(0.0, 0.01, 300)


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e90, 1e150])
def test_garch_fits_returns_at_extreme_scales(scale):
    # the search runs in units of the returns' std, so none of its terms
    # overflows, underflows or divides by zero (the test configuration
    # turns each RuntimeWarning into an error) and the fit scales along
    unit, fit = fit_garch11(white_returns()), fit_garch11(white_returns() * scale)
    assert fit.converged
    assert fit.model.mu / scale == pytest.approx(unit.model.mu, rel=1e-12)
    assert fit.model.omega / scale**2 == pytest.approx(unit.model.omega, rel=1e-12)
    assert fit.model.beta1 == pytest.approx(unit.model.beta1, rel=1e-12)
    assert fit.loglik == pytest.approx(unit.loglik - 300 * math.log(scale), rel=1e-12)


@pytest.mark.parametrize("scale", [2.0**300, 2.0**-300])
def test_garch_fit_scales_exactly_by_a_power_of_two(scale):
    # r * 2^k standardizes to the bits of r, so the search is the same and
    # only the mapping back scales: mu by 2^k, omega by 2^2k
    unit, fit = fit_garch11(white_returns()), fit_garch11(white_returns() * scale)
    assert (fit.model.mu, fit.model.omega) == (unit.model.mu * scale, unit.model.omega * scale**2)
    assert (fit.model.alpha1, fit.model.beta1) == (unit.model.alpha1, unit.model.beta1)
    assert fit.std_errors["mu"] == unit.std_errors["mu"] * scale
    assert fit.std_errors["omega"] == unit.std_errors["omega"] * scale**2
    assert fit.t_stats == pytest.approx(unit.t_stats, nan_ok=True, rel=0, abs=0)
    assert fit.converged == unit.converged


@pytest.mark.parametrize("field", ["mu", "omega", "alpha1", "beta1"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_garch_model_rejects_non_finite_parameters(field, bad):
    params = dict(mu=0.0, omega=1e-6, alpha1=0.1, beta1=0.8)
    with pytest.raises(ValueError, match="finite"):
        GarchModel(**{**params, field: bad})


@pytest.mark.parametrize("r", [np.zeros(300), np.full(300, 1e-3), np.full(300, -2.0),
                               1e-3 + 1e-19 * np.resize([1.0, -1.0, 0.0], 300)],
                         ids=["zeros", "constant", "negative-constant", "rounding-noise"])
def test_garch_rejects_returns_without_variation_on_their_scale(r):
    # 1e-3 repeated has a floating-point variance of about 5e-38, not 0
    with pytest.raises(ValueError, match="degenerate returns"):
        fit_garch11(r)


def test_garch_at_the_persistence_cap_reports_undefined_errors_as_nan():
    fit = fit_garch11(log_returns(two_regime_prices(seed=5, n_low=300, n_high=300)))
    assert fit.converged and fit.boundary_flag
    assert fit.model.alpha1 + fit.model.beta1 == pytest.approx(1.0 - 1e-7, abs=1e-15)
    for name in ("alpha1", "beta1"):
        assert math.isnan(fit.std_errors[name]) and math.isnan(fit.t_stats[name])
    for name in ("mu", "omega"):
        assert fit.std_errors[name] > 0 and math.isfinite(fit.t_stats[name])


@pytest.mark.parametrize("seed, denoised", [(0, False), (3, False), (6, False), (5, True)],
                         ids=["raw-0", "raw-3", "raw-6", "golden-input-denoised"])
def test_garch_fit_follows_a_one_ulp_change_of_one_return(seed, denoised):
    # near the optimum the Newton decrement is far below one ulp of the NLL,
    # so a polish that refuses steps on the NLL's rounding returns the
    # search's end point, which depends on the last bits of the input
    prices = two_regime_prices(seed, n_low=300, n_high=300)
    r = log_returns(denoise(prices).denoised if denoised else prices).values

    def params(x):
        m = fit_garch11(x).model
        return np.array([m.mu, m.omega, m.alpha1, m.beta1])

    base = params(r)
    for i in np.linspace(0, r.shape[0] - 1, 6).astype(int):
        x = r.copy()
        x[i] = np.nextafter(x[i], np.inf)
        assert (np.abs(params(x) - base) <= 1e-12 * np.abs(base)).all(), i


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20), st.floats(0.05, 0.98), st.floats(0.02, 0.98),
       st.floats(-0.5, 0.5), st.floats(0.3, 3.0), st.booleans())
def test_garch_score_and_hessian_match_central_differences(seed, rho, frac, mu_sd,
                                                           omega_ratio, near_cap):
    # derivatives along log parameters (mu in units of the returns' std), so
    # every component is on the scale of the NLL
    r = simulate_garch(2e-4, 2e-6, 0.09, 0.89, 300, seed)
    var = float(r.var())
    if near_cap:
        rho = 1.0 - 1e-7 * (1.0 + 9.0 * frac)
    params = np.array([mu_sd * math.sqrt(var), var * (1.0 - rho) * omega_ratio,
                       rho * frac, rho * (1.0 - frac)])
    scale = np.array([math.sqrt(var), params[1], params[2], params[3]])
    nll, scores, H = _garch_terms(tuple(params), r, var)
    grad = scores.sum(axis=1)
    hess = H * scale[:, None] * scale
    assert np.isfinite(nll)
    # a step of 1e-6 keeps the truncation error of the beta1 derivative
    # small near the cap, where h sums beta1^k over the whole path
    delta = 1e-6
    for i in range(4):
        step = np.zeros(4)
        step[i] = delta * scale[i]
        hi, lo = _garch_terms(tuple(params + step), r, var), _garch_terms(tuple(params - step), r, var)
        fd_grad = (hi[0] - lo[0]) / (2 * delta)
        assert fd_grad == pytest.approx(grad[i] * scale[i], rel=1e-5, abs=1e-4)
        fd_hess = (hi[1].sum(axis=1) - lo[1].sum(axis=1)) * scale / (2 * delta)
        assert np.allclose(fd_hess, hess[i], rtol=1e-5, atol=1e-6 * np.abs(hess).max())


def nelder_mead_loglik(r):
    """Log-likelihood at the optimum of the former fit, kept frozen as an
    oracle: four Nelder-Mead searches (three starts, then a polish from the
    best) on the Gaussian NLL in (mu, log omega, logit rho, logit split),
    rho = alpha1 + beta1 capped at 1 - 1e-7."""
    from scipy import optimize
    from scipy.signal import lfilter

    h0 = float(r.var())

    def sigmoid(x):
        return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))

    def nll(theta):
        mu, log_omega, s_rho, s_frac = theta
        rho = min(sigmoid(s_rho), 1.0 - 1e-7)
        alpha1, beta1 = rho * sigmoid(s_frac), rho * (1.0 - sigmoid(s_frac))
        e2 = (r - mu) ** 2
        tail = lfilter([1.0], [1.0, -beta1], math.exp(log_omega) + alpha1 * e2[:-1],
                       zi=[beta1 * h0])[0]
        h = np.concatenate(([h0], tail))
        if h.min() <= 0 or not np.all(np.isfinite(h)):
            return 1e12
        return 0.5 * float(np.sum(np.log(2.0 * math.pi * h) + e2 / h))

    def logit(x):
        return math.log(x / (1.0 - x))

    best = None
    for rho0, frac0 in ((0.9, 0.1 / 0.9), (0.5, 0.5), (0.97, 0.05)):
        x0 = np.array([float(r.mean()), math.log(h0 * (1.0 - rho0)), logit(rho0), logit(frac0)])
        res = optimize.minimize(nll, x0, method="Nelder-Mead",
                                options={"maxiter": 6000, "xatol": 1e-8, "fatol": 1e-10})
        if best is None or res.fun < best.fun:
            best = res
    res = optimize.minimize(nll, best.x, method="Nelder-Mead",
                            options={"maxiter": 6000, "xatol": 1e-10, "fatol": 1e-12})
    return -min(res.fun, best.fun)


def criterion_11_series():
    """The GARCH path and the white noise of acceptance criterion 11."""
    gen = np.random.default_rng(31)
    r = np.empty(3000)
    h = 5e-6 / (1 - 0.95)
    for t in range(3000):
        r[t] = math.sqrt(h) * gen.standard_normal()
        h = 5e-6 + 0.10 * r[t] ** 2 + 0.85 * h
    return r, gen.normal(0.0, 0.02, 3000)


def benchmark_garch_prices(seed):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # its dataclasses look the module up
    spec.loader.exec_module(module)
    dates, prices = module.garch_prices(seed)
    return PriceSeries(tuple(dates), prices)


@pytest.mark.parametrize("which", ["criterion_11", "white_noise", "two_regime_raw",
                                   "two_regime_denoised", "benchmark_seed_11_denoised"])
def test_garch_fit_is_no_worse_than_the_nelder_mead_oracle(which):
    if which in ("criterion_11", "white_noise"):
        r = criterion_11_series()[which == "white_noise"]
    elif which.startswith("two_regime"):
        prices = two_regime_prices(seed=5, n_low=300, n_high=300)
        r = log_returns(denoise(prices).denoised if which.endswith("denoised") else prices).values
    else:
        r = log_returns(denoise(benchmark_garch_prices(11)).denoised).values
    fit = fit_garch11(r)
    oracle = nelder_mead_loglik(r)
    assert fit.converged
    assert fit.loglik >= oracle - 1e-9 * abs(oracle)


def garch_paths(seed, n_paths, n, t_df=None):
    """(n_paths, n) GARCH(1,1) returns with the benchmark's parameters and
    unit-variance Gaussian or Student-t innovations."""
    gen = np.random.default_rng(seed)
    mu, omega, alpha1, beta1 = 2e-4, 2e-6, 0.09, 0.89
    if t_df is None:
        z = gen.standard_normal((n, n_paths))
    else:
        z = gen.standard_t(t_df, (n, n_paths)) * math.sqrt((t_df - 2) / t_df)
    h = np.full(n_paths, omega / (1 - alpha1 - beta1))
    eps = np.zeros(n_paths)
    r = np.empty((n, n_paths))
    for t in range(n):
        h = omega + alpha1 * eps * eps + beta1 * h
        eps = np.sqrt(h) * z[t]
        r[t] = mu + eps
    return r.T


@pytest.mark.parametrize("t_df, lo, hi", [(None, 0.90, 0.99), (5, 0.80, 1.0)],
                         ids=["gaussian", "student-t5"])
def test_garch_sandwich_errors_cover_the_true_parameters(t_df, lo, hi):
    # 95% intervals from the quasi-MLE sandwich; with fat tails the
    # outer-product errors covered alpha1 and beta1 in only about 58% of
    # paths.  60 paths give a coverage estimate with a std of about 0.03.
    covered = {"alpha1": 0, "beta1": 0}
    for r in garch_paths(0, 60, 1500, t_df):
        fit = fit_garch11(r)
        for name, true in (("alpha1", 0.09), ("beta1", 0.89)):
            covered[name] += abs(getattr(fit.model, name) - true) <= 1.96 * fit.std_errors[name]
    for name, count in covered.items():
        assert lo <= count / 60 <= hi, (name, count)


# ---------------------------------------------------------------------------
# comparison table


def test_comparison_table_columns_and_normalization():
    gen = np.random.default_rng(6)
    rets = returns_from(gen.normal(0, 0.01, 120))
    cfg = VolatilityConfig(window_lengths=(40,), reps=2, seed=0, date_stride=10)
    tv = tv_volatility(rets, cfg)
    fit = fit_garch11(rets)
    sigma = garch_conditional_vol(fit.model, rets)
    table = comparison_table(rets, tv, sigma)
    for name in ("date", "sq_return", "garch_sigma", "tv_mean", "tv_std",
                 "tv_ci_lo", "tv_ci_hi", "norm_sq_return", "norm_garch_sigma",
                 "norm_tv_mean"):
        assert name in table.columns
    for col in ("norm_sq_return", "norm_garch_sigma", "norm_tv_mean"):
        j = table.columns.index(col)
        vals = [row[j] for row in table.rows]
        assert min(vals) >= 0.0 and max(vals) <= 1.0


def test_comparison_table_misalignment_errors():
    gen = np.random.default_rng(7)
    rets = returns_from(gen.normal(0, 0.01, 100))
    cfg = VolatilityConfig(window_lengths=(40,), reps=1, seed=0, date_stride=10)
    tv = tv_volatility(rets, cfg)
    with pytest.raises(AlignmentError):
        comparison_table(rets, tv, np.zeros(10))           # wrong garch length
    other = returns_from(gen.normal(0, 0.01, 100), start_index=500)
    with pytest.raises(AlignmentError):
        comparison_table(other, tv, np.zeros(100))         # disjoint dates


def test_comparison_table_regime_fixture_break_plateau():
    # the acceptance suite checks the break response over 100 seeds through
    # variance_break_check; at module level we pin it on one small fixture,
    # through the comparison table: a sustained plateau of elevated
    # indicator values after the variance break
    prices = two_regime_prices(seed=8, n_low=150, n_high=150)
    rets = log_returns(prices)
    cfg = VolatilityConfig(window_lengths=(40,), reps=2, seed=2, date_stride=5)
    tv = tv_volatility(rets, cfg)
    fit = fit_garch11(rets)
    sigma = garch_conditional_vol(fit.model, rets)
    table = comparison_table(rets, tv, sigma)
    j = table.columns.index("norm_tv_mean")
    idx = {d: i for i, d in enumerate(rets.dates)}
    low = [row[j] for row in table.rows if idx[_parse(row[0])] < 149]
    plateau = [row[j] for row in table.rows if 149 <= idx[_parse(row[0])] < 149 + 39]
    assert len(plateau) >= 5
    assert np.mean(plateau) > np.mean(low)
    assert np.median(plateau) > np.median(low)


def _parse(iso):
    from datetime import date
    return date.fromisoformat(iso)
