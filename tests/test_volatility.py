import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmcbounds.coupling import coupling_matrices, spectral_radii
from nmcbounds.errors import AlignmentError
from nmcbounds.rng import derive_seed
from nmcbounds.signal import ReturnSeries, log_returns
from nmcbounds.volatility import (
    GarchModel,
    VolatilityConfig,
    _fit_seed,
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
    v = transition_tv_bound(trans, 3)
    assert v < 0.05


def test_transition_bound_rises_with_separation():
    sticky = np.array([[0.9, 0.05, 0.05],
                       [0.05, 0.9, 0.05],
                       [0.05, 0.05, 0.9]])
    mixed = np.full((3, 3), 1 / 3)
    assert transition_tv_bound(sticky, 3) > transition_tv_bound(mixed, 3) + 0.3


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
    values = transition_tv_bounds(stack, K)
    singles = [transition_tv_bound(P, K) for P in stack]
    assert values.tolist() == singles
    assert values[0] == 0.0
    # the clipped product equals the former per-item Python-float form
    est = spectral_radii(coupling_matrices(stack / stack.sum(axis=-1, keepdims=True)))
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
    import scipy.optimize
    minimize = scipy.optimize.minimize

    def capped(*args, options, **kwargs):
        return minimize(*args, options={**options, "maxiter": 5}, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", capped)
    assert fit_garch11(r).converged is False


def test_garch_needs_data():
    with pytest.raises(ValueError):
        fit_garch11(returns_from(np.zeros(10) + 1e-6))


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
