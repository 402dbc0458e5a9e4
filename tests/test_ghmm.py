import itertools
import math
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmcbounds.chain import StochasticMatrix
from nmcbounds import ghmm, volatility
from nmcbounds.ghmm import (
    EMISSION_FLOOR,
    STARVATION_MASS,
    VARIANCE_FLOOR,
    GhmmModel,
    GhmmStack,
    fit_baum_welch,
    fit_window_batch,
    quantile_starts,
    random_init,
    random_inits,
    sample_ghmm,
)
from nmcbounds.rng import derive_seed, splitmix64, stream_uniforms
from nmcbounds.signal import log_returns


def three_state_model():
    return GhmmModel(
        initial=np.array([1 / 3, 1 / 3, 1 / 3]),
        transition=np.array([[0.9, 0.05, 0.05],
                             [0.05, 0.9, 0.05],
                             [0.05, 0.05, 0.9]]),
        means=np.array([-0.02, 0.0, 0.02]),
        variances=np.array([0.005 ** 2] * 3),
    )


def align_permutation(true_means, fitted_means):
    best, best_perm = None, None
    for perm in itertools.permutations(range(len(true_means))):
        err = np.abs(np.asarray(fitted_means)[list(perm)] - true_means).sum()
        if best is None or err < best:
            best, best_perm = err, perm
    return list(best_perm)


# ---------------------------------------------------------------------------
# forward-backward

OneModelPass = namedtuple("OneModelPass", "log_likelihood posteriors scales emissions")


def one_model_pass(model, obs):
    """The core's scaled forward and backward passes for one model (B = 1):
    log-likelihood, posteriors (T, K), scales (T,) and emissions (T, K)."""
    initial, transition, means, variances = (getattr(model, name)[..., None]
                                             for name in ghmm._PARAMS)
    obs2d = np.asarray(obs, dtype=np.float64)[:, None]
    emissions, alpha = np.empty((2, obs2d.shape[0]) + means.shape)
    ghmm._squared_deviations(obs2d, means, emissions)
    loglik, alpha, scales, b = ghmm._forward(initial, transition, variances, emissions, alpha)
    # a separate w, since the emissions are read after the backward pass
    gamma, _ = ghmm._posterior(transition, alpha, scales, b, np.empty_like(alpha),
                               np.empty_like(alpha[1:]))
    return OneModelPass(float(loglik[0]), gamma[:, :, 0], scales[:, 0], b[:, :, 0])


def test_single_state_posteriors_and_loglik():
    model = GhmmModel(np.array([1.0]), np.array([[1.0]]),
                      np.array([0.5]), np.array([2.0]))
    obs = np.array([0.1, 0.7, -0.3])
    res = one_model_pass(model, obs)
    assert (res.posteriors == 1.0).all()
    expected = sum(-0.5 * math.log(2 * math.pi * 2.0) - (o - 0.5) ** 2 / 4.0 for o in obs)
    assert res.log_likelihood == pytest.approx(expected, abs=1e-10)


def test_well_separated_states_posterior():
    model = GhmmModel(np.array([0.5, 0.5]),
                      np.array([[0.5, 0.5], [0.5, 0.5]]),
                      np.array([-10.0, 10.0]), np.array([1.0, 1.0]))
    res = one_model_pass(model, np.array([9.8]))
    # direct Bayes at a single step
    from scipy.stats import norm
    w = np.array([norm.pdf(9.8, -10, 1), norm.pdf(9.8, 10, 1)])
    w = w / w.sum()
    assert res.posteriors[0] == pytest.approx(w, abs=1e-12)
    assert res.posteriors[0, 1] > 0.999


def test_identical_states_posteriors_follow_mixture_weights():
    stat = np.array([0.25, 0.75])
    trans = np.array([[0.25, 0.75], [0.25, 0.75]])  # stationary == (0.25, 0.75)
    model = GhmmModel(stat, trans, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    obs = np.random.default_rng(0).standard_normal(20)
    res = one_model_pass(model, obs)
    assert np.abs(res.posteriors - stat[None, :]).max() < 1e-12


def test_posterior_rows_normalized():
    gen = np.random.default_rng(5)
    model = random_init(gen.standard_normal(100), 3, gen)
    res = one_model_pass(model, gen.standard_normal(60))
    assert np.abs(res.posteriors.sum(axis=1) - 1.0).max() < 1e-10


# ---------------------------------------------------------------------------
# Baum-Welch


def test_one_state_recovers_gaussian_mle():
    gen = np.random.default_rng(7)
    obs = gen.normal(0.01, 0.05, 500)
    fit = fit_baum_welch(obs, n_states=1, epochs=5)
    se = obs.std(ddof=1) / math.sqrt(obs.shape[0])
    assert abs(fit.model.means[0] - obs.mean()) < 3 * se
    assert fit.model.variances[0] == pytest.approx(obs.var(), rel=1e-6)


def test_three_state_recovery():
    true = three_state_model()
    _, obs = sample_ghmm(true, 2000, rng=11)
    fit = fit_baum_welch(obs, n_states=3, epochs=15)
    perm = align_permutation(true.means, fit.model.means)
    aligned = fit.model.transition[np.ix_(perm, perm)]
    assert np.abs(aligned - true.transition).max() < 0.1
    assert np.abs(fit.model.means[perm] - true.means).max() < 0.005


def test_epochs_zero_returns_init():
    obs = np.random.default_rng(1).standard_normal(100)
    init = quantile_starts(obs[None], 2).model(0)
    fit = fit_baum_welch(obs, n_states=2, epochs=0)
    assert np.allclose(fit.model.means, init.means)
    assert np.allclose(fit.model.transition, init.transition)
    assert fit.loglik_trace.shape == (1,)


def test_em_monotone_loglik_over_random_fits():
    gen = np.random.default_rng(13)
    for _ in range(50):
        obs = gen.standard_normal(gen.integers(60, 120))
        starts = random_inits(obs, gen.integers(2, 4), [key_of(gen)])
        diffs = np.diff(fit_window_batch(obs[None], starts, 8)[1][0])
        assert (diffs >= -1e-8).all()


def test_permutation_invariance():
    obs = np.random.default_rng(17).standard_normal(200)
    init = quantile_starts(obs[None], 3).model(0)
    perm = [2, 0, 1]
    starts = GhmmStack(np.stack([init.initial, init.initial[perm]]),
                       np.stack([init.transition, init.transition[np.ix_(perm, perm)]]),
                       np.stack([init.means, init.means[perm]]),
                       np.stack([init.variances, init.variances[perm]]))
    fitted, traces, _ = fit_window_batch(np.stack([obs, obs]), starts, 10)
    assert np.allclose(fitted.means[1], fitted.means[0][perm], atol=1e-9)
    assert np.allclose(fitted.transition[1], fitted.transition[0][np.ix_(perm, perm)],
                       atol=1e-9)
    assert traces[0] == pytest.approx(traces[1], abs=1e-8)


def test_fitted_transition_is_stochastic():
    gen = np.random.default_rng(19)
    obs = gen.standard_normal(150)
    fitted = fit_window_batch(obs[None], random_inits(obs, 3, [key_of(gen)]), 15)[0]
    StochasticMatrix(fitted.transition[0])  # validates


def test_fit_requires_enough_data():
    with pytest.raises(ValueError):
        fit_baum_welch(np.zeros(20), n_states=3)


# ---------------------------------------------------------------------------
# sampling


def test_sample_absorbing_state():
    model = GhmmModel(np.array([1.0]), np.array([[1.0]]),
                      np.array([3.0]), np.array([1e-10]))
    states, obs = sample_ghmm(model, 50, rng=0)
    assert (states == 0).all()
    assert np.abs(obs - 3.0).max() < 1e-3


def test_sample_transition_frequencies():
    model = three_state_model()
    states, _ = sample_ghmm(model, 100_000, rng=3)
    counts = np.zeros((3, 3))
    for a, b in zip(states[:-1], states[1:]):
        counts[a, b] += 1
    rows = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(rows - model.transition).max() < 0.01


def test_sample_deterministic():
    model = three_state_model()
    s1, o1 = sample_ghmm(model, 100, rng=9)
    s2, o2 = sample_ghmm(model, 100, rng=9)
    assert (s1 == s2).all() and (o1 == o2).all()


def test_emission_floor_flagged_for_absurd_observation():
    model = GhmmModel(np.array([1.0]), np.array([[1.0]]),
                      np.array([0.0]), np.array([1e-10]))
    res = one_model_pass(model, np.array([0.0, 1e6]))
    assert (res.emissions.max(axis=1) <= EMISSION_FLOOR).any()
    assert np.isfinite(res.log_likelihood)


def test_non_finite_parameters_are_rejected():
    with pytest.raises(ValueError, match="model parameters must be finite"):
        GhmmModel([np.nan, np.nan], np.full((2, 2), np.nan), [0.0, 1.0], [1.0, 1.0])
    params = valid_params(np.random.default_rng(0), 3, 2)
    for i, bad in ((2, np.inf), (3, np.inf), (2, np.nan)):
        broken = [a.copy() for a in params]
        broken[i][1, 0] = bad
        with pytest.raises(ValueError, match="model parameters must be finite"):
            GhmmStack(*broken)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observations_are_rejected(bad):
    obs = np.random.default_rng(2).standard_normal(40)
    obs[5] = bad
    starts = quantile_starts(np.arange(40.0)[None], 2)
    for call in (lambda: fit_baum_welch(obs, n_states=2),
                 lambda: random_init(obs, 2, 0),
                 lambda: fit_window_batch(obs[None], starts, 2)):
        with pytest.raises(ValueError, match="observations must be finite"):
            call()


def key_of(seed):
    """The one stream key random_init draws from a seed or generator."""
    return np.random.default_rng(seed).integers(2**64, size=1, dtype=np.uint64)[0]


def per_rng_random_init(obs, n_states, rng):
    """The quantile start perturbed from one key drawn from ``rng``, with
    the key's stream drawn one splitmix64 step at a time in Python ints and
    the start recomputed per restart (the per-restart form that
    random_inits shares)."""
    key = int(key_of(rng))
    K = n_states
    pairs = (K + 1) // 2
    draws = [splitmix64((key + i * 0x9E3779B97F4A7C15) & (2**64 - 1))
             for i in range(2 * pairs + K + K * K)]
    u = np.array([((x >> 11) + 1) / 2**53 for x in draws])
    normals = []
    for p in range(pairs):
        radius = np.sqrt(-2.0 * np.log(u[2 * p:2 * p + 1]))
        angle = 2.0 * math.pi * u[2 * p + 1:2 * p + 2]
        normals += [radius * np.cos(angle), radius * np.sin(angle)]
    mix = -np.log(u[2 * pairs + K:]).reshape(K, K)
    mix /= mix.sum(axis=1, keepdims=True)
    base = quantile_starts(obs[None], n_states).model(0)
    spread = max(float(np.std(obs)), math.sqrt(1e-10))
    means = base.means + np.concatenate(normals)[:K] * (0.5 * spread)
    variances = np.maximum(base.variances * np.exp(2.0 * u[2 * pairs:2 * pairs + K] - 1.0), 1e-10)
    transition = 0.6 * base.transition + 0.4 * mix
    transition /= transition.sum(axis=1, keepdims=True)
    return GhmmModel(base.initial, transition, means, variances)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6))
def test_shared_base_random_inits_equal_per_rng_random_init(seed, n_states, reps):
    obs = np.random.default_rng(seed).standard_t(3, 70) * 0.01
    shared = random_inits(obs, n_states, [key_of([seed, rep]) for rep in range(reps)])
    assert len(shared) == reps
    for rep in range(reps):
        for single in (random_init(obs, n_states, np.random.default_rng([seed, rep])),
                       per_rng_random_init(obs, n_states, np.random.default_rng([seed, rep]))):
            for name in ("initial", "transition", "means", "variances"):
                assert getattr(shared, name)[rep].tobytes() == getattr(single, name).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 5), st.integers(1, 4))
def test_random_inits_of_many_windows_equal_per_window_starts(seed, n_states, D, reps):
    # a slot's start depends on its window and key only, never on the batch:
    # each window alone, and each single slot alone, gives the same rows
    windows = np.random.default_rng(seed).standard_t(3, (D, 60)) * 0.01
    keys = derive_seed(seed, np.arange(D * reps, dtype=np.uint64))
    stack = random_inits(windows, n_states, keys)
    assert len(stack) == D * reps
    for d in range(D):
        single = random_inits(windows[d], n_states, keys[d * reps:(d + 1) * reps])
        for name in ("initial", "transition", "means", "variances"):
            rows = getattr(stack, name)[d * reps:(d + 1) * reps]
            assert rows.tobytes() == getattr(single, name).tobytes()
        for rep in range(reps):
            i = d * reps + rep
            alone = random_inits(windows[d], n_states, keys[i:i + 1])
            for name in ("initial", "transition", "means", "variances"):
                assert getattr(stack, name)[i].tobytes() == getattr(alone, name)[0].tobytes()


def test_random_inits_needs_the_same_restarts_per_window():
    windows = np.zeros((2, 40))
    with pytest.raises(ValueError, match="same number of keys"):
        random_inits(windows, 2, [0] * 3)
    with pytest.raises(ValueError, match="same number of keys"):
        random_inits(windows, 2, np.zeros((2, 1), dtype=np.uint64))


def test_random_inits_take_keys_as_any_integer_sequence():
    windows = np.random.default_rng(5).normal(size=(2, 40))
    keys = [0, 1, 2**63, 2**64 - 1]
    arrayed = random_inits(windows, 3, np.array(keys, dtype=np.uint64))
    for same in (random_inits(windows, 3, keys), random_inits(windows, 3, tuple(keys))):
        for name in ("initial", "transition", "means", "variances"):
            assert getattr(arrayed, name).tobytes() == getattr(same, name).tobytes()


def ks_statistic(sample, cdf):
    """Kolmogorov-Smirnov distance between a sample and a continuous cdf."""
    x = np.sort(sample)
    F = cdf(x)
    i = np.arange(1, x.size + 1)
    return max((i / x.size - F).max(), (F - (i - 1) / x.size).max())


def normal_cdf(x):
    return 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(x / math.sqrt(2.0)).astype(float))


@pytest.mark.parametrize("K", [2, 3, 4])
def test_start_draws_follow_their_distributions(K):
    # fixed keys, so deterministic: 10**5 normals against N(0, 1) by KS at
    # the 0.1% critical value 1.95 / sqrt(n) and by their first two moments
    # (4 standard errors); uniforms in (0, 1]; Dirichlet rows positive,
    # summing to 1 and with Beta(1, K - 1) marginals
    keys = derive_seed(K, np.arange(-(-10**5 // K), dtype=np.uint64))
    normals, scales, mix = ghmm._start_draws(keys, K)
    z = normals.ravel()
    n = z.size
    assert ks_statistic(z, normal_cdf) < 1.95 / math.sqrt(n)
    assert abs(z.mean()) < 4.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
    u = stream_uniforms(keys, 2 * ((K + 1) // 2) + K + K * K)
    assert (u > 0.0).all() and (u <= 1.0).all()
    assert (scales > -1.0).all() and (scales <= 1.0).all()
    assert (mix > 0.0).all()
    assert np.abs(mix.sum(axis=2) - 1.0).max() <= 1e-15
    first = mix[:, :, 0].ravel()
    assert ks_statistic(first, lambda x: 1.0 - (1.0 - x) ** (K - 1)) < 1.95 / math.sqrt(first.size)


def test_one_slot_stream_is_a_pure_function_of_its_key():
    keys = np.array([3, 2**64 - 1, 3], dtype=np.uint64)
    u = stream_uniforms(keys, 6)
    assert u[0].tobytes() == u[2].tobytes()
    assert u[0].tobytes() == stream_uniforms(keys[:1], 6)[0].tobytes()
    assert stream_uniforms(keys[:1], 3)[0].tobytes() == u[0, :3].tobytes()


# ---------------------------------------------------------------------------
# the batch-first EM core against the former per-model path


def oracle_emissions(obs2d, means, variances):
    """Gaussian densities, shape (T, B, K); floored to avoid hard zeros.

    The EM arithmetic as first written, frozen here as the reference: an
    item-major (B, K) layout with einsum contractions."""
    diff = obs2d[:, :, None] - means[None, :, :]
    b = np.exp(-0.5 * diff * diff / variances[None, :, :])
    b /= np.sqrt(2.0 * math.pi * variances)[None, :, :]
    return np.maximum(b, EMISSION_FLOOR)


def oracle_forward_backward_batch(initial, transition, means, variances, obs2d):
    """Scaled recursions for a batch of models, one observation column each.

    Returns (loglik (B,), gamma (T,B,K), xi_sum (B,K,K), scales (B,T),
    emissions (T,B,K), alpha (T,B,K), beta (T,B,K)).  Each model's scales
    form one contiguous row, so its log-likelihood is summed in the same
    order whatever the batch size.
    """
    T = obs2d.shape[0]
    B, K = means.shape
    b = oracle_emissions(obs2d, means, variances)

    alpha = np.empty((T, B, K))
    scales = np.empty((B, T))
    a = initial * b[0]
    c = a.sum(axis=1)
    scales[:, 0] = c
    alpha[0] = a / c[:, None]
    for t in range(1, T):
        a = np.einsum("bi,bij->bj", alpha[t - 1], transition) * b[t]
        c = a.sum(axis=1)
        scales[:, t] = c
        alpha[t] = a / c[:, None]

    beta = np.empty((T, B, K))
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        w = b[t + 1] * beta[t + 1]
        beta[t] = np.einsum("bij,bj->bi", transition, w) / scales[:, t + 1, None]

    gamma = alpha * beta
    gamma /= gamma.sum(axis=2, keepdims=True)
    if T > 1:
        w = b[1:] * beta[1:] / scales.T[1:, :, None]
        xi_sum = np.einsum("tbi,tbj->bij", alpha[:-1], w) * transition
    else:
        xi_sum = np.zeros((B, K, K))
    loglik = np.log(scales).sum(axis=1)
    return loglik, gamma, xi_sum, scales, b, alpha, beta


def parent_quantile_init(obs, n_states, self_loop=0.8):
    """The per-sequence quantile start: one sort and one mean/var per
    np.array_split group of the 1-d sequence."""
    srt = np.sort(obs)
    groups = np.array_split(srt, n_states)
    means = np.array([g.mean() for g in groups])
    global_var = max(float(obs.var()), VARIANCE_FLOOR)
    variances = np.array([max(float(g.var()), global_var * 1e-3, VARIANCE_FLOOR)
                          for g in groups])
    k = n_states
    transition = np.full((k, k), (1.0 - self_loop) / (k - 1) if k > 1 else 0.0)
    np.fill_diagonal(transition, self_loop if k > 1 else 1.0)
    return GhmmModel(np.full(k, 1.0 / k), transition, means, variances)


def parent_mstep(gamma, xi_sum, obs2d, means_old, global_var):
    """The M-step with its per-(item, state) starvation loop."""
    B, K = means_old.shape
    mass = gamma.sum(axis=0)
    starved = mass < STARVATION_MASS
    safe_mass = np.where(starved, 1.0, mass)
    initial = gamma[0].copy()
    trans_mass = gamma[:-1].sum(axis=0) if gamma.shape[0] > 1 else np.ones((B, K))
    denom = np.where(trans_mass < STARVATION_MASS, 1.0, trans_mass)
    transition = xi_sum / denom[:, :, None]
    row = transition.sum(axis=2, keepdims=True)
    transition = np.where(row > 0, transition / np.maximum(row, 1e-300), 1.0 / K)
    means = np.einsum("tbk,tb->bk", gamma, obs2d) / safe_mass
    means = np.where(starved, means_old, means)
    diff = obs2d[:, :, None] - means[None, :, :]
    variances = np.einsum("tbk,tbk->bk", gamma, diff * diff) / safe_mass
    variances = np.maximum(variances, VARIANCE_FLOOR)
    if starved.any():
        variances = np.where(starved, np.maximum(global_var[:, None], VARIANCE_FLOOR),
                             variances)
        for bidx, k in zip(*np.nonzero(starved)):
            transition[bidx, k, :] = 1.0 / K
    initial /= initial.sum(axis=1, keepdims=True)
    transition /= transition.sum(axis=2, keepdims=True)
    return initial, transition, means, variances, starved


def parent_fit_window_batch(windows, inits, epochs):
    """EM from a list of GhmmModel starts, one GhmmModel and flag list per fit."""
    B = len(inits)
    obs2d = np.ascontiguousarray(windows.T)
    initial = np.stack([m.initial for m in inits])
    transition = np.stack([m.transition for m in inits])
    means = np.stack([m.means for m in inits])
    variances = np.stack([m.variances for m in inits])
    global_var = np.maximum(windows.var(axis=1), VARIANCE_FLOOR)
    traces = np.empty((B, epochs + 1))
    flags = [[] for _ in range(B)]
    for epoch in range(epochs):
        loglik, gamma, xi_sum = oracle_forward_backward_batch(
            initial, transition, means, variances, obs2d)[:3]
        traces[:, epoch] = loglik
        initial, transition, means, variances, starved = parent_mstep(
            gamma, xi_sum, obs2d, means, global_var)
        for bidx, k in zip(*np.nonzero(starved)):
            flags[bidx].append((epoch, int(k)))
    traces[:, epochs] = oracle_forward_backward_batch(
        initial, transition, means, variances, obs2d)[0]
    models = [GhmmModel(initial[i], transition[i], means[i], variances[i]) for i in range(B)]
    return models, traces, flags


def oracle_fit_window_batch(windows, inits, epochs):
    """parent_fit_window_batch with the signature and results of
    fit_window_batch."""
    models, traces, flags = parent_fit_window_batch(
        windows, [inits.model(i) for i in range(len(inits))], epochs)
    stack = GhmmStack(*(np.stack([getattr(m, name) for m in models])
                        for name in ("initial", "transition", "means", "variances")))
    starved = np.zeros((len(models), epochs, inits.n_states), dtype=bool)
    for i, item in enumerate(flags):
        for epoch, k in item:
            starved[i, epoch, k] = True
    return stack, traces, starved


def obs_window(gen, kind, T):
    """One observation window; kinds 1 and 2 tend to starve a state."""
    if kind == 0:
        return gen.standard_t(3, T) * 0.01
    window = np.zeros(T)
    if kind == 1:                       # constant stretch with one outlier
        window[: T // 2] = gen.normal(0.0, 0.01, T // 2)
        window[gen.integers(T)] = 1.0
    else:                               # constant window with one outlier
        window[gen.integers(T)] = gen.normal()
    return window


def assert_matches_parent_path(windows, starts, epochs):
    fitted, traces, starved = fit_window_batch(windows, starts, epochs)
    models, parent_traces, parent_flags = parent_fit_window_batch(
        windows, [starts.model(i) for i in range(len(starts))], epochs)
    assert traces.tobytes() == parent_traces.tobytes()
    for i, model in enumerate(models):
        for name in ("initial", "transition", "means", "variances"):
            assert getattr(fitted, name)[i].tobytes() == getattr(model, name).tobytes()
        assert [(int(e), int(k)) for e, k in zip(*np.nonzero(starved[i]))] == parent_flags[i]
    return starved


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6),
       st.integers(0, 12), st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_fit_window_batch_equals_per_model_path(seed, K, B, epochs, kinds):
    gen = np.random.default_rng(seed)
    T = int(gen.integers(10 * K, 100))
    windows = np.stack([obs_window(gen, kinds[i], T) for i in range(B)])
    starts = random_inits(windows, K, [key_of([seed, i]) for i in range(B)])
    assert_matches_parent_path(windows, starts, epochs)


def test_fit_window_batch_starvation_equals_per_model_path():
    # kinds 1 and 2 starve a state at most starts; the kind-0 window last
    # (a t(3) sample) never did in 400 tries, so both branches always run
    gen = np.random.default_rng(0)
    windows = np.stack([obs_window(gen, 1 + i % 2, 60) for i in range(8)]
                       + [obs_window(gen, 0, 60)])
    for K in (2, 3, 4, 5):
        assert_matches_parent_path(windows, quantile_starts(windows, K), 10)
        starts = random_inits(windows, K, [key_of([K, i]) for i in range(len(windows))])
        starved = assert_matches_parent_path(windows, starts, 10)
        assert 0 < starved.any(axis=(1, 2)).sum() < len(windows)


@pytest.mark.parametrize("T", [1, 2])
def test_one_and_two_step_windows_equal_per_model_path(T):
    # T = 1 takes the xi_sum = 0 and trans_mass = 1 branches
    gen = np.random.default_rng(T)
    for K in (2, 3, 4, 5):
        windows = gen.standard_normal((4, T))
        assert_matches_parent_path(windows, GhmmStack(*valid_params(gen, 4, K)), 4)


def test_batch_across_the_engine_column_cap_equals_per_model_path():
    gen = np.random.default_rng(21)
    B = ghmm._MAX_ENGINE_COLUMNS + 5
    windows = gen.standard_normal((B, 12))
    assert_matches_parent_path(windows, GhmmStack(*valid_params(gen, B, 2)), 2)


@pytest.mark.parametrize("K", [7, 8, 9, 17])
def test_fits_beyond_eight_states_equal_per_model_path(K):
    # numpy changes its summation order at 8 terms (pairwise sums, unrolled
    # einsum dots), so the state-axis sums must follow it there too
    gen = np.random.default_rng(K)
    windows = gen.standard_normal((4, 40))
    assert_matches_parent_path(windows, GhmmStack(*valid_params(gen, 4, K)), 3)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("level", [5e-140, 1e-160])
def test_underflowing_deviations_equal_per_model_path(level, K):
    # a constant window with one one-ulp step: every squared deviation is
    # subnormal (level 5e-140) or zero (1e-160), where -0.5 d d / v and
    # d d / (-2 v) may round apart but exp gives 1.0 either way; the
    # window's variance is far below the floor, so every state sits there
    window = np.full(40, level)
    window[17] = np.nextafter(level, 1.0)
    windows = np.stack([window, window[::-1]])
    starts = quantile_starts(windows, K)
    assert ((windows[:, :, None] - starts.means[:, None, :]) ** 2).max() < np.finfo(float).tiny
    assert_matches_parent_path(windows, starts, 6)
    assert (fit_window_batch(windows, starts, 6)[0].variances == VARIANCE_FLOOR).all()


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_states_held_at_the_variance_floor_equal_per_model_path(K):
    # a window flat for two thirds of its length, whose flat states end
    # each epoch at VARIANCE_FLOOR, and one of noise too small for any
    # state to leave the floor
    gen = np.random.default_rng(K)
    flat = np.zeros(60)
    flat[40:] = gen.normal(0.0, 0.01, 20)
    windows = np.stack([flat, gen.normal(0.0, 1e-6, 60)])
    starts = random_inits(windows, K, [key_of([K, i]) for i in range(2)])
    assert_matches_parent_path(windows, starts, 8)
    variances = fit_window_batch(windows, starts, 8)[0].variances
    assert (variances[1] == VARIANCE_FLOOR).all()
    assert K == 1 or (variances[0] == VARIANCE_FLOOR).any()


def test_variances_past_half_the_float_range_warn_in_the_parent_path():
    # d d / (-2 v) differs from -0.5 d d / v only where 2 v overflows,
    # v > 2^1023.  The normalizer sqrt(2 pi v) of the parent path overflows
    # there already, so no fit it makes without a RuntimeWarning reaches
    # that case; the M-step cannot lead there from the observations
    # either, since a weighted variance is at most range^2 / 4 and a
    # range past 2^512.5 overflows the window's own sum of squared
    # deviations (at least range^2 / 2).
    gen = np.random.default_rng(5)
    wide = np.zeros((2, 30))
    wide[:, :2] = 2.0 ** 511.6, -2.0 ** 511.6
    for K in (1, 2, 3, 4):
        params = valid_params(gen, 2, K)
        windows = gen.standard_normal((2, 30))
        huge = [a.copy() for a in params]
        huge[3][0, -1] = 2.0 ** 1023
        for fit in (fit_window_batch, oracle_fit_window_batch):
            for obs, start in ((windows, huge), (wide, params)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    with pytest.raises(RuntimeWarning, match="overflow"):
                        fit(obs, GhmmStack(*start), 2)


def test_fit_window_batch_chunks_give_the_same_fits(monkeypatch):
    gen = np.random.default_rng(4)
    windows = gen.standard_normal((7, 40))
    starts = random_inits(windows, 3, [key_of([4, i]) for i in range(7)])
    whole = fit_window_batch(windows, starts, 6)
    monkeypatch.setattr(ghmm, "_MAX_ENGINE_COLUMNS", 3)
    chunked = fit_window_batch(windows, starts, 6)
    for name in ("initial", "transition", "means", "variances"):
        assert getattr(chunked[0], name).tobytes() == getattr(whole[0], name).tobytes()
    assert (chunked[2] == whole[2]).all()
    assert chunked[1].tobytes() == whole[1].tobytes()


def test_tv_volatility_equals_the_frozen_em_oracle(monkeypatch):
    rets = log_returns(volatility.two_regime_prices(seed=3, n_low=60, n_high=60))
    cfg = volatility.VolatilityConfig(window_lengths=(40, 50), reps=3, seed=4, date_stride=7)
    live = volatility.tv_volatility(rets, cfg)
    monkeypatch.setattr(volatility, "fit_window_batch", oracle_fit_window_batch)
    frozen = volatility.tv_volatility(rets, cfg)
    assert live.tv_mean.tobytes() == frozen.tv_mean.tobytes()
    assert live.tv_std.tobytes() == frozen.tv_std.tobytes()
    assert live.quality_flags == frozen.quality_flags


def test_trace_does_not_depend_on_the_batch(monkeypatch):
    # one window fitted alone, inside a batch, and as the one-item last chunk
    gen = np.random.default_rng(9)
    windows = gen.standard_normal((5, 150))
    starts = random_inits(windows, 3, [key_of([9, i]) for i in range(5)])
    batched = fit_window_batch(windows, starts, 8)[1]
    alone = fit_window_batch(windows[4:5], random_inits(windows[4], 3, [key_of([9, 4])]), 8)[1]
    monkeypatch.setattr(ghmm, "_MAX_ENGINE_COLUMNS", 2)
    chunked = fit_window_batch(windows, starts, 8)[1]
    assert alone[0].tobytes() == batched[4].tobytes() == chunked[4].tobytes()


def test_fit_window_batch_needs_one_row_per_start():
    starts = quantile_starts(np.zeros((2, 30)) + np.arange(30), 2)
    with pytest.raises(ValueError, match="one window row per init"):
        fit_window_batch(np.zeros((3, 30)), starts, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6), st.integers(20, 130))
def test_quantile_starts_equal_per_window_quantile_init(seed, K, B, T):
    gen = np.random.default_rng(seed)
    windows = np.stack([obs_window(gen, int(gen.integers(3)), T) for _ in range(B)])
    stack = quantile_starts(windows, K)
    for i in range(B):
        for single in (quantile_starts(windows[i][None], K).model(0),
                       parent_quantile_init(windows[i], K)):
            for name in ("initial", "transition", "means", "variances"):
                assert getattr(stack, name)[i].tobytes() == getattr(single, name).tobytes()


def valid_params(gen, B, K):
    return [gen.dirichlet(np.ones(K), size=B), gen.dirichlet(np.ones(K), size=(B, K)),
            gen.standard_normal((B, K)), gen.uniform(0.5, 2.0, (B, K))]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5),
       st.integers(0, 4), st.integers(0, 4))
def test_stack_with_one_bad_start_raises_as_ghmm_model(seed, K, B, which, bad):
    gen = np.random.default_rng(seed)
    params = valid_params(gen, B, K)
    GhmmStack(*params)
    i = which % B
    if bad == 0:
        params[0][i, 0] = -0.1                      # negative initial entry
    elif bad == 1:
        params[0][i] *= 1.001                       # initial does not sum to 1
    elif bad == 2:
        params[1][i, K - 1] *= 1.001                # transition row sum off
    elif bad == 3:
        params[3][i, 0] = VARIANCE_FLOOR / 2        # variance under the floor
    else:
        params[2] = params[2][:, :-1]               # means lose a state
    with pytest.raises(ValueError) as single:
        GhmmModel(*(a[i] for a in params))
    with pytest.raises(ValueError) as stacked:
        GhmmStack(*params)
    assert str(stacked.value) == str(single.value)


def test_stack_is_frozen_and_sized():
    stack = GhmmStack(*valid_params(np.random.default_rng(0), 4, 3))
    assert len(stack) == 4 and stack.n_states == 3
    with pytest.raises(ValueError):
        stack.means[0, 0] = 1.0
    assert isinstance(stack.model(2), GhmmModel)


def oracle_one_model(model, obs):
    """Log-likelihood, posteriors and scales of one model from the frozen
    item-major recursions."""
    loglik, gamma, _, scales, _, _, _ = oracle_forward_backward_batch(
        model.initial[None, :], model.transition[None], model.means[None, :],
        model.variances[None, :], obs[:, None])
    return float(loglik[0]), gamma[:, 0, :], scales.T[:, 0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 120))
def test_one_model_pass_equals_the_oracle(seed, K, T):
    gen = np.random.default_rng(seed)
    model = GhmmStack(*valid_params(gen, 1, K)).model(0)
    obs = gen.standard_normal(T) * 1.5
    res = one_model_pass(model, obs)
    loglik, posteriors, scales = oracle_one_model(model, obs)
    assert res.log_likelihood == loglik
    assert res.posteriors.tobytes() == posteriors.tobytes()
    assert res.scales.tobytes() == scales.tobytes()
