import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmcbounds.chain import StochasticMatrix
from nmcbounds.ghmm import (
    GhmmModel,
    fit_baum_welch,
    fit_baum_welch_batch,
    forward_backward,
    quantile_init,
    random_init,
    random_inits,
    sample_ghmm,
    viterbi,
)


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


def test_single_state_posteriors_and_loglik():
    model = GhmmModel(np.array([1.0]), np.array([[1.0]]),
                      np.array([0.5]), np.array([2.0]))
    obs = np.array([0.1, 0.7, -0.3])
    res = forward_backward(model, obs)
    assert (res.posteriors == 1.0).all()
    expected = sum(-0.5 * math.log(2 * math.pi * 2.0) - (o - 0.5) ** 2 / 4.0 for o in obs)
    assert res.log_likelihood == pytest.approx(expected, abs=1e-10)


def test_well_separated_states_posterior():
    model = GhmmModel(np.array([0.5, 0.5]),
                      np.array([[0.5, 0.5], [0.5, 0.5]]),
                      np.array([-10.0, 10.0]), np.array([1.0, 1.0]))
    res = forward_backward(model, np.array([9.8]))
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
    res = forward_backward(model, obs)
    assert np.abs(res.posteriors - stat[None, :]).max() < 1e-12


def test_posterior_rows_normalized():
    gen = np.random.default_rng(5)
    model = random_init(gen.standard_normal(100), 3, gen)
    res = forward_backward(model, gen.standard_normal(60))
    assert np.abs(res.posteriors.sum(axis=1) - 1.0).max() < 1e-10
    assert np.abs(res.pairwise.sum(axis=(1, 2)) - 1.0).max() < 1e-10


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
    init = quantile_init(obs, 2)
    fit = fit_baum_welch(obs, n_states=2, epochs=0)
    assert np.allclose(fit.model.means, init.means)
    assert np.allclose(fit.model.transition, init.transition)
    assert fit.loglik_trace.shape == (1,)


def test_em_monotone_loglik_over_random_fits():
    gen = np.random.default_rng(13)
    for _ in range(50):
        obs = gen.standard_normal(gen.integers(60, 120))
        fit = fit_baum_welch(obs, n_states=gen.integers(2, 4), epochs=8,
                             init_policy="random", rng=gen)
        diffs = np.diff(fit.loglik_trace)
        assert (diffs >= -1e-8).all()


def test_permutation_invariance():
    obs = np.random.default_rng(17).standard_normal(200)
    init = quantile_init(obs, 3)
    perm = [2, 0, 1]
    permuted = GhmmModel(init.initial[perm], init.transition[np.ix_(perm, perm)],
                         init.means[perm], init.variances[perm])
    fit_a = fit_baum_welch_batch(obs, [init], 10)[0]
    fit_b = fit_baum_welch_batch(obs, [permuted], 10)[0]
    assert np.allclose(fit_b.model.means, fit_a.model.means[perm], atol=1e-9)
    assert np.allclose(fit_b.model.transition, fit_a.model.transition[np.ix_(perm, perm)],
                       atol=1e-9)
    assert fit_a.loglik_trace == pytest.approx(fit_b.loglik_trace, abs=1e-8)


def test_fitted_transition_is_stochastic():
    gen = np.random.default_rng(19)
    obs = gen.standard_normal(150)
    fit = fit_baum_welch(obs, n_states=3, epochs=15, init_policy="random", rng=gen)
    StochasticMatrix(fit.model.transition)  # validates


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


# ---------------------------------------------------------------------------
# viterbi


def test_viterbi_single_state():
    model = GhmmModel(np.array([1.0]), np.array([[1.0]]),
                      np.array([0.0]), np.array([1.0]))
    assert (viterbi(model, np.zeros(10)) == 0).all()


def test_viterbi_matches_nearest_mean_for_uniform_transitions():
    model = GhmmModel(np.array([0.5, 0.5]), np.full((2, 2), 0.5),
                      np.array([-5.0, 5.0]), np.array([1.0, 1.0]))
    obs = np.array([-4.9, 5.2, 4.8, -5.3, -0.1])
    path = viterbi(model, obs)
    assert (path == (obs > 0).astype(int)).all()


def test_viterbi_recovers_deterministic_cycle():
    eps = 1e-9
    trans = np.array([[eps, 1 - eps], [1 - eps, eps]])
    trans /= trans.sum(axis=1, keepdims=True)
    model = GhmmModel(np.array([1.0 - 1e-12, 1e-12]), trans,
                      np.array([0.0, 1.0]), np.array([0.04, 0.04]))
    obs = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    assert (viterbi(model, obs) == np.array([0, 1, 0, 1, 0, 1])).all()


def test_model_json_roundtrip(tmp_path):
    model = three_state_model()
    path = tmp_path / "model.json"
    model.to_json(path)
    back = GhmmModel.from_json(path)
    assert np.allclose(back.transition, model.transition)
    assert np.allclose(back.means, model.means)


def test_emission_floor_flagged_for_absurd_observation():
    model = GhmmModel(np.array([1.0]), np.array([[1.0]]),
                      np.array([0.0]), np.array([1e-10]))
    res = forward_backward(model, np.array([0.0, 1e6]))
    assert res.emission_floored
    assert np.isfinite(res.log_likelihood)


def per_rng_random_init(obs, n_states, rng):
    """The quantile start perturbed for one generator, recomputing the
    start itself (the per-restart form that random_inits shares)."""
    base = quantile_init(obs, n_states)
    spread = max(float(np.std(obs)), math.sqrt(1e-10))
    means = base.means + rng.normal(0.0, 0.5 * spread, n_states)
    variances = np.maximum(base.variances * np.exp(rng.uniform(-1.0, 1.0, n_states)), 1e-10)
    transition = 0.6 * base.transition + 0.4 * rng.dirichlet(np.ones(n_states), size=n_states)
    transition /= transition.sum(axis=1, keepdims=True)
    return GhmmModel(base.initial, transition, means, variances)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6))
def test_shared_base_random_inits_equal_per_rng_random_init(seed, n_states, reps):
    obs = np.random.default_rng(seed).standard_t(3, 70) * 0.01
    shared = random_inits(obs, n_states, [np.random.default_rng([seed, rep]) for rep in range(reps)])
    assert len(shared) == reps
    for rep, model in enumerate(shared):
        for single in (random_init(obs, n_states, np.random.default_rng([seed, rep])),
                       per_rng_random_init(obs, n_states, np.random.default_rng([seed, rep]))):
            for name in ("initial", "transition", "means", "variances"):
                assert getattr(model, name).tobytes() == getattr(single, name).tobytes()
