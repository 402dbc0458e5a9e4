import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmcbounds.bounds import (
    K_RANGE,
    delta_estimate,
    full_report,
    gamma_estimate,
    kstep_bound_curve,
    lipschitz_lambda,
    md_alpha,
    md_bound_curve,
    likelihood_ratio_moments,
    initial_distance_bound,
    initial_distance_bruteforce,
    perturbation_bound,
    combined_bound,
)
from nmcbounds.chain import (
    EVAL_TOL,
    PolynomialKernel,
    StochasticMatrix,
    _clean_rows,
    _flat_dirichlet,
    _flow_steps,
    evaluate_batch,
    validate_kernel,
)
from nmcbounds import bounds as bounds_mod
from nmcbounds.errors import InfiniteGammaError, KernelInvalidError, NonconvergenceError
from nmcbounds.experiments import EXAMPLE1_P, builtin_example
from nmcbounds.rng import as_generator

from conftest import DEGENERATE_CHAINS, bowl_kernel


# ---------------------------------------------------------------------------
# alpha


def test_alpha_published_values(p1_matrix):
    # 2(1 - alpha_k) = 0.8, 0.3, 0.11, 0.04 for k = 1..4
    published = {1: 0.8, 2: 0.3, 3: 0.11, 4: 0.04}
    for k, target in published.items():
        est = md_alpha(p1_matrix, k)
        assert est.direction == "exact"
        assert 2 * (1 - est.value) == pytest.approx(target, abs=0.005)


def test_alpha_identical_rows():
    P = StochasticMatrix(np.tile([0.1, 0.2, 0.7], (3, 1)))
    for k in (1, 2, 5):
        assert md_alpha(P, k).value == pytest.approx(1.0, abs=1e-12)


def loop_alpha(P, k):
    """alpha_k of a matrix by the double loop over state pairs it replaced,
    on P^k as the running product ((P P) P) ... with each entry summed over
    the middle state in sequence, the order of `chain._batch_product`."""
    Pk = P
    for _ in range(k - 1):
        nxt = Pk[:, :1] * P[0]
        for x in range(1, P.shape[0]):
            nxt = nxt + Pk[:, x:x + 1] * P[x]
        Pk = nxt
    best = 1.0
    for x in range(P.shape[0]):
        for xp in range(x + 1, P.shape[0]):
            best = min(best, float(np.minimum(Pk[x], Pk[xp]).sum()))
    return best


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 4), st.booleans())
def test_alpha_equals_the_pair_loop(seed, p, k, equal_rows):
    gen = np.random.default_rng(seed)
    P = gen.dirichlet(np.full(p, 0.3), size=p)
    P /= P.sum(axis=1, keepdims=True)
    if equal_rows:
        P[1:] = P[0]
    assert md_alpha(StochasticMatrix(P), k).value == loop_alpha(P, k)


def test_alpha_nondecreasing_in_k(p1_matrix, p2_matrix):
    for P in (p1_matrix, p2_matrix):
        vals = [md_alpha(P, k).value for k in range(1, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_alpha_rejects_k0(p1_matrix):
    with pytest.raises(ValueError):
        md_alpha(p1_matrix, 0)


def test_alpha_nonlinear_estimate(ex1_k01):
    est = md_alpha(ex1_k01, 1, samples=300, rng=0)
    assert est.direction == "upper-of-inf"
    # worst pair (rows 2 and 4) is unaffected by the perturbation
    assert est.value == pytest.approx(0.6, abs=0.05)


# ---------------------------------------------------------------------------
# lambda


def test_lambda_zero_for_linear():
    est = lipschitz_lambda(PolynomialKernel.linear(EXAMPLE1_P), 1)
    assert est.value == 0.0 and est.direction == "exact"


def test_lambda_example1_bounded_by_2kappa(ex1_k01):
    est = lipschitz_lambda(ex1_k01, 1, samples=500, rng=1)
    assert 0.0 < est.value <= 2 * 0.1 + 1e-12
    # vertex pair (e1, e2) attains the true supremum kappa
    assert est.value == pytest.approx(0.1, abs=1e-9)


def test_lambda_scales_with_kappa(ex1_k01, ex1_k02):
    v1 = lipschitz_lambda(ex1_k01, 1, samples=300, rng=2).value
    v2 = lipschitz_lambda(ex1_k02, 1, samples=300, rng=2).value
    assert v2 == pytest.approx(2 * v1, rel=0.10)


# ---------------------------------------------------------------------------
# curves


def test_md_curve_published_values():
    curve = md_bound_curve(0.6, 0.0, 4)
    assert curve == pytest.approx([0.8, 0.32, 0.128, 0.0512], abs=1e-12)


def test_md_curve_equal_rates():
    curve = md_bound_curve(0.5, 0.5, 4)
    assert curve[3] == pytest.approx(1.0, abs=1e-12)


def test_md_curve_alpha_one():
    assert (md_bound_curve(1.0, 0.0, 5) == 0.0).all()


def test_md_curve_degenerate_warns():
    with pytest.warns(UserWarning):
        curve = md_bound_curve(0.0, 0.0, 3)
    assert (curve == 2.0).all()


def test_kstep_curve_reduces_to_md_powering():
    curve = kstep_bound_curve(0.3, 0.0, 0.0, d0=1.5, k=2, n_max=6)
    expected = [1.5 * 0.7 ** (n // 2) for n in range(1, 7)]
    assert curve == pytest.approx(expected, abs=1e-12)


def test_kstep_curve_equal_rates_plugin():
    k = 3
    curve = kstep_bound_curve(0.2, 0.2, 0.0, d0=2.0, k=k, n_max=5 * k)
    assert curve[5 * k - 1] == pytest.approx(2.0 / (2.0 + 0.2 * 5 * k * 2.0), abs=1e-12)


def test_kstep_k1_reduces_to_md_scaled():
    gen = np.random.default_rng(3)
    for _ in range(20):
        alpha = gen.uniform(0.05, 0.95)
        lam = gen.uniform(0.0, alpha * 0.9)
        d0 = gen.uniform(0.0, 2.0)
        ks = kstep_bound_curve(alpha, lam, lam, d0, 1, 8)
        md = md_bound_curve(alpha, lam, 8) * d0 / 2.0
        assert np.allclose(ks, np.minimum(md, 2.0), atol=1e-12)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_linear_kernel_zero():
    assert gamma_estimate(PolynomialKernel.linear(EXAMPLE1_P)).value == 0.0


def test_gamma_example1_closed_form(ex1_k01, ex1_k02):
    # entry (1,1) = 0.4 - kappa mu1 minimized at mu1 = 1
    g1 = gamma_estimate(ex1_k01)
    assert g1.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert g1.argmax_entry == (0, 0)
    g2 = gamma_estimate(ex1_k02)
    assert g2.value == pytest.approx(1.0, abs=1e-12)


def test_gamma_infinite_for_example2_at_02():
    K = builtin_example(2, 0.2)
    with pytest.raises(InfiniteGammaError):
        gamma_estimate(K)


def test_gamma_at_an_interior_minimum():
    # entry (0,0) = 0.01 + (t - 0.37)^2 bottoms out at t = 0.37, between the
    # vertices: C1(0,0)/0.01 - 1 = 0.1469/0.01 - 1
    g = gamma_estimate(bowl_kernel(0.01))
    assert g.value == pytest.approx(13.69, abs=1e-9)
    assert g.argmax_entry == (0, 0)
    assert g.argmax_mu.tolist() == pytest.approx([0.37, 0.315, 0.315], abs=1e-15)
    with pytest.raises(InfiniteGammaError) as info:
        gamma_estimate(bowl_kernel(0.0))
    assert info.value.entry == (0, 0)
    assert info.value.mu.tolist() == pytest.approx([0.37, 0.315, 0.315], abs=1e-15)


def test_gamma_on_an_invalid_kernel_names_a_distribution():
    # entry (0,0) = (t - 0.5)^2 - 1e-6 dips below 0 around t = mu[0] = 0.5;
    # the error carries validate_kernel's witness, a point of the simplex
    C1 = np.array([[0.25 - 1e-6, 0.75 + 1e-6], [0.5, 0.5]])
    K = PolynomialKernel((C1, np.array([[-1.0, 1.0], [0.0, 0.0]]),
                          np.array([[1.0, -1.0], [0.0, 0.0]])))
    report = validate_kernel(K)
    assert not report.ok
    with pytest.raises(KernelInvalidError) as info:
        gamma_estimate(K)
    mu = info.value.mu
    assert mu.tolist() == report.witness.tolist()
    assert mu.min() >= 0.0 and mu.sum() == pytest.approx(1.0, abs=1e-15)
    assert info.value.worst_entry == report.worst_negative_entry < -EVAL_TOL


def bernstein_kernel(gen, p, degree, floor, concentration):
    """A random valid kernel: row x of P_mu is sum_k b_k(t) Q_k(x, .) over
    the Bernstein basis b_k of degree - 1, with every Q_k row-stochastic and
    >= floor, so every entry stays >= floor on [0, 1]."""
    n = degree - 1
    Q = floor + (1.0 - p * floor) * gen.dirichlet(np.full(p, concentration), size=(n + 1, p))
    coeff = np.zeros((degree, p, p))
    for k in range(n + 1):
        for j in range(k, n + 1):
            coeff[j] += math.comb(n, k) * math.comb(n - k, j - k) * (-1) ** (j - k) * Q[k]
    # the power-basis sums leave a few ulps on the higher rows' zero sums,
    # which PolynomialKernel.certified rejects; make them exactly 0
    coeff[1:, :, -1] = -coeff[1:, :, :-1].sum(axis=-1)
    return PolynomialKernel(tuple(coeff))


def sampled_gamma(K, samples=2000, seed=0):
    """The former estimator: the largest ratio at the vertices, the
    barycenter and ``samples`` flat-Dirichlet points of the simplex."""
    p = K.p
    draws = np.random.default_rng(seed).standard_exponential((samples, p))
    points = np.concatenate([np.eye(p), np.full((1, p), 1.0 / p),
                             draws / draws.sum(axis=1, keepdims=True)])
    Pm = evaluate_batch(K, _clean_rows(points))
    return max(0.0, float((K.coeff[0] / Pm).max()) - 1.0)


def grid_gamma(K, points=20001):
    """The largest ratio over a dense t-grid, every row on the same grid."""
    t = np.linspace(0.0, 1.0, points)
    powers = t[:, None] ** np.arange(K.degree)
    P = np.einsum("nj,jxy->nxy", powers, np.stack(K.coeff))
    return max(0.0, float((K.coeff[0] / P).max()) - 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 4),
       st.floats(0.002, 0.04), st.sampled_from([0.3, 1.0]))
def test_exact_gamma_dominates_sampling_and_matches_a_dense_grid(seed, p, degree, floor,
                                                                 concentration):
    K = bernstein_kernel(np.random.default_rng(seed), p, degree, floor, concentration)
    exact = gamma_estimate(K).value
    assert exact >= sampled_gamma(K, seed=seed) - 1e-12 * (1.0 + exact)
    # a grid of step h misses an entry's minimum by at most |f''| h^2 / 8
    # (below 1e-8 here), a relative 5e-6 of entries >= 0.002
    grid = grid_gamma(K)
    assert grid - 1e-12 * (1.0 + exact) <= exact <= grid + 1e-5 * (1.0 + exact)


# ---------------------------------------------------------------------------
# worst initial distance


def test_initial_distance_values():
    assert initial_distance_bound(4) == pytest.approx(1.5, abs=1e-15)
    assert initial_distance_bound(2) == pytest.approx(1.0, abs=1e-15)
    vals = [initial_distance_bound(p) for p in range(2, 50)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 2.0
    with pytest.raises(ValueError):
        initial_distance_bound(1)


def test_initial_distance_bruteforce_attains_and_never_exceeds():
    for p in (2, 3, 4, 5):
        best, arg = initial_distance_bruteforce(p, trials=20_000, rng=p)
        bound = initial_distance_bound(p)
        assert best == pytest.approx(bound, abs=1e-12)   # vertex attains it
        assert best <= bound + 1e-12
        assert np.count_nonzero(arg) == 1                # witness is a vertex


# ---------------------------------------------------------------------------
# perturbation distance bound


def test_perturbation_bound_gamma_zero_and_n_zero():
    for n in (0, 1, 5, 100):
        assert perturbation_bound(0.0, n) == pytest.approx(2 * math.exp(-1), abs=1e-12)
    assert perturbation_bound(0.5, 0) == pytest.approx(2 * math.exp(-1), abs=1e-12)


def test_perturbation_bound_monotone_and_limits():
    vals = [perturbation_bound(0.1, n) for n in range(0, 2000)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert perturbation_bound(0.1, 10**9) == pytest.approx(2.0, abs=1e-6)
    assert perturbation_bound(math.inf, 3) == 2.0


# ---------------------------------------------------------------------------
# rho moments


def test_ratio_linear_kernel_trivial():
    K = PolynomialKernel.linear(EXAMPLE1_P)
    rep = likelihood_ratio_moments(K, n=5, k=1, samples=2000, rng=0)
    assert rep.mean == pytest.approx(1.0, abs=1e-12)
    assert rep.bound == 1.0 and rep.passed


def test_ratio_mean_one_change_of_measure(ex1_k01):
    rep = likelihood_ratio_moments(ex1_k01, n=6, k=1, samples=20_000, rng=4)
    assert abs(rep.mean - 1.0) <= 3 * rep.std_error
    assert rep.passed


def test_ratio_second_moment_bound(ex1_k01):
    rep = likelihood_ratio_moments(ex1_k01, n=10, k=2, samples=10_000, rng=5)
    assert rep.gamma == pytest.approx(1 / 3, abs=1e-12)
    assert rep.bound == pytest.approx((4 / 3) ** 10, abs=1e-9)
    assert rep.passed


def test_ratio_moments_reproducible_from_the_seed():
    # gamma comes from the kernel, which must not draw from a stream of
    # its own: equal seeds give equal reports
    K = bowl_kernel(0.01)
    first = likelihood_ratio_moments(K, n=3, k=2, samples=1000, rng=7)
    second = likelihood_ratio_moments(K, n=3, k=2, samples=1000, rng=7)
    assert first == second
    assert first.gamma == pytest.approx(13.69, abs=1e-9)


# ---------------------------------------------------------------------------
# delta and the combined bound


@pytest.mark.parametrize("example_id,kappa", [(1, 0.1), (2, 0.1)])
@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("k", [1, 2])
def test_ratio_moments_both_examples(example_id, kappa, n, k):
    rep = likelihood_ratio_moments(builtin_example(example_id, kappa), n=n, k=k,
                           samples=3000, rng=1000 + 10 * n + k)
    assert rep.passed


def test_delta_linear_zero():
    assert delta_estimate(PolynomialKernel.linear(EXAMPLE1_P)) == 0.0


def test_delta_example1(ex1_k01):
    d = delta_estimate(ex1_k01)
    assert 0.0 < d < 0.2


def test_delta_of_a_linear_chain_runs_no_fixed_point_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("stationary called")

    monkeypatch.setattr(bounds_mod, "stationary", no_search)
    for P in (EXAMPLE1_P, [[0.0, 1.0], [1.0, 0.0]]):
        assert delta_estimate(PolynomialKernel.linear(np.asarray(P))) == 0.0


@pytest.mark.parametrize("P", [[[0.0, 1.0], [1.0, 0.0]],
                               [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]])
def test_periodic_linear_chain_reports_delta_zero(P):
    # from the barycenter the second chain alternates between two points,
    # so a fixed-point search would run out of iterations; its delta is 0
    # all the same, since the nonlinear and linear fixed points are one
    with pytest.warns(UserWarning, match="alpha == lambda == 0"):
        report = full_report(PolynomialKernel.linear(np.asarray(P)), 5)
    assert report.delta == 0.0 and report.flags == []


def test_unavailable_delta_leaves_both_combined_curves_nan(monkeypatch, ex1_k01):
    # a fixed-point search that gives up (a flow that settles into a cycle,
    # say) leaves no delta, so the combined curves, which add it, bound nothing
    reference = full_report(ex1_k01, 8, mc_samples=200, seed=0)

    def gives_up(K):
        raise NonconvergenceError("no fixed point within the iteration budget")

    monkeypatch.setattr(bounds_mod, "delta_estimate", gives_up)
    report = full_report(ex1_k01, 8, mc_samples=200, seed=0)
    assert math.isnan(report.delta)
    assert any(f.startswith("delta_unavailable") for f in report.flags)
    assert sorted(report.curves) == sorted(reference.curves)
    for name in ("combined_small_n", "combined_large_n"):
        assert np.isnan(report.curves[name]).all()
    for name in ("md", "md_lipschitz", "spectral", *(f"kstep_k{k}" for k in K_RANGE)):
        assert report.curves[name].tobytes() == reference.curves[name].tobytes()
    coefficients = json.loads(json.dumps(report.coefficients_dict(), allow_nan=False))
    assert coefficients["delta"] is None


def test_combined_bound_example1_value(p1_matrix):
    from nmcbounds.coupling import build_coupling_matrix, spectral_radius
    est = spectral_radius(build_coupling_matrix(p1_matrix))
    val = combined_bound(est.r, est.eps, 0.0, 4, 1, "small-n")
    assert val == pytest.approx(2 / math.e + 0.54, abs=0.02)


def test_combined_bound_limits():
    assert combined_bound(0.0, 0.0, 0.0, 4, 5, "large-n") == 0.0
    assert combined_bound(0.99, 0.5, 1.0, 4, 1, "small-n") <= 2.0
    with pytest.raises(ValueError):
        combined_bound(0.3, 0.0, 0.0, 4, 1, "mid-n")


@pytest.mark.parametrize("seed", [1, 2, 3, 11])
@pytest.mark.parametrize("p", [16, 24, 32, 40])
def test_combined_large_n_is_the_spectral_curve_for_linear_chains(seed, p):
    # delta = 0 on a linear chain, so both curves are spectral_bound clipped
    # to [0, 2]; one evaluation of the formula makes them equal to the bit.
    # The chains are Dirichlet(0.3) rows drawn as the coupling-large-p
    # benchmark draws them.
    P = np.random.default_rng([seed, 3 + p]).dirichlet(np.full(p, 0.3), size=p)
    P /= P.sum(axis=1, keepdims=True)
    curves = full_report(PolynomialKernel.linear(P), 15).curves
    assert curves["combined_large_n"].tobytes() == curves["spectral"].tobytes()


def test_full_report_at_p40_never_holds_a_dense_pair_matrix():
    # the pair matrix of a p = 40 chain is d x d, d = 780: 4.9 MB of doubles,
    # which the matrix-free bracket never allocates
    p = 40
    d = p * (p - 1) // 2
    P = np.random.default_rng(40).dirichlet(np.full(p, 0.3), size=p)
    P /= P.sum(axis=1, keepdims=True)
    K = PolynomialKernel.linear(P)
    tracemalloc.start()
    try:
        report = full_report(K, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < report.eps <= 2e-12 * report.r        # the bracket closed
    assert peak < d * d * 8


# ---------------------------------------------------------------------------
# full report


@pytest.fixture(scope="module")
def ex1_report():
    K = builtin_example(1, 0.1)
    return full_report(K, 10, mc_samples=200, seed=0)


def test_full_report_spectral_values(ex1_report):
    assert ex1_report.curves["spectral"][:3] == pytest.approx([0.54, 0.20, 0.07], abs=0.02)


def test_full_report_coefficients(ex1_report):
    assert 2 * (1 - ex1_report.alpha[0]) == pytest.approx(0.8, abs=0.005)
    assert ex1_report.gamma == pytest.approx(1 / 3, abs=1e-12)
    assert 0 < ex1_report.delta < 0.2
    assert ex1_report.lam[0] == pytest.approx(0.1, abs=1e-9)


def test_full_report_curves_monotone(ex1_report):
    for name, curve in ex1_report.curves.items():
        assert (curve >= 0).all() and (curve <= 2).all(), name
    assert (np.diff(ex1_report.curves["spectral"]) <= 1e-12).all()
    assert (np.diff(ex1_report.curves["md"]) <= 1e-12).all()


def test_full_report_example2_ordering():
    K = builtin_example(2, 0.1)
    report = full_report(K, 10, mc_samples=100, seed=1)
    pure_md = md_bound_curve(report.alpha[0], 0.0, 10)
    assert np.allclose(report.curves["md"], pure_md)
    assert (report.curves["spectral"] < report.curves["md"]).all()
    assert (report.curves["spectral"] < report.curves["md_lipschitz"]).all()


def test_full_report_flags_infinite_gamma():
    K = builtin_example(2, 0.2)
    report = full_report(K, 5, mc_samples=100, seed=2)
    assert math.isinf(report.gamma)
    assert any("gamma" in f for f in report.flags)
    doc = report.coefficients_dict()
    assert doc["gamma"] is None and doc["gamma_infinite"]


@pytest.mark.parametrize("P, meets_at_once", [
    pytest.param(np.tile([0.25, 0.25, 0.25, 0.25], (4, 1)), True, id="rank one"),
    pytest.param(DEGENERATE_CHAINS[1], False, id="nilpotent pair matrix"),
])
def test_full_report_rank_one_all_zero(P, meets_at_once):
    # rank one: every pair meets in one step, so md and spectral read 0.
    # DEGENERATE_CHAINS[1] has alpha_1 = 0, but every pair meets within two
    # steps: its pair matrix is nilpotent, so r = eps = 0 and spectral reads 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # md degenerates to 2 at alpha_1 = 0
        report = full_report(PolynomialKernel.linear(P), 5, mc_samples=10, seed=3)
    assert (report.r, report.eps) == (0.0, 0.0)
    assert (report.curves["spectral"] == 0.0).all()
    assert (report.curves["md"] == 0.0).all() == meets_at_once


# ---------------------------------------------------------------------------
# domination (small-scale; the acceptance suite runs the full version)


def test_domination_small_scale():
    from nmcbounds.chain import flow_batch
    from nmcbounds.chain import stationary as stat
    gen = np.random.default_rng(9)
    for example_id, kappa in ((1, 0.1), (1, 0.2), (2, 0.1), (2, 0.2)):
        K = builtin_example(example_id, kappa)
        report = full_report(K, 30, mc_samples=50, seed=4)
        pi = stat(K).distribution
        draws = gen.standard_exponential((200, K.p))
        draws /= draws.sum(axis=1, keepdims=True)
        flows = flow_batch(K, draws, 30)
        tv = np.abs(flows - pi.probs[None, None, :]).sum(axis=2)
        curve = report.curves["combined_small_n"]
        for n in range(1, 31):
            assert tv[n].max() <= curve[n - 1] + 1e-9, (example_id, kappa, n)


# ---------------------------------------------------------------------------
# the shared sampled core: one pair draw and one flow for every k


def frozen_pairs(p, samples, rng):
    eye = np.eye(p)
    i, j = np.nonzero(eye == 0.0)
    draws = _flat_dirichlet(rng, (samples, 2, p))
    return np.concatenate([eye[i], draws[:, 0]]), np.concatenate([eye[j], draws[:, 1]])


def frozen_products(K, mus, k):
    """The k-step products, each summed over the middle state in order."""
    prod = None
    for P, _ in _flow_steps(K, mus, k):
        if prod is not None:
            nxt = prod[:, :, :1] * P[:, None, 0]
            for x in range(1, K.p):
                nxt += prod[:, :, x, None] * P[:, None, x]
            P = nxt
        prod = P
    return prod


def frozen_md_alpha(K, k, samples, rng):
    """The nonlinear md_alpha as it was before the samplers shared a flow:
    its own draw and its own k-step products."""
    mus, nus = frozen_pairs(K.p, samples, rng)
    n_pairs = mus.shape[0]
    prods = frozen_products(K, np.concatenate([mus, nus]), k)
    A, B = prods[:n_pairs], prods[n_pairs:]
    best = 1.0
    for x in range(K.p):
        best = min(best, float(np.minimum(A[:, x, None, :], B).sum(axis=2).min()))
    return best, n_pairs


def frozen_lipschitz_lambda(K, k, samples, rng):
    """The nonlinear lipschitz_lambda as it was, flowing only the pairs
    with ||mu - nu||_1 >= 1e-12."""
    mus, nus = frozen_pairs(K.p, samples, rng)
    denom = np.abs(mus - nus).sum(axis=1)
    keep = ~(denom < 1e-12)
    mus, nus, denom = mus[keep], nus[keep], denom[keep]
    n_pairs = mus.shape[0]
    prods = frozen_products(K, np.concatenate([mus, nus]), k)
    ratio = np.abs(prods[:n_pairs] - prods[n_pairs:]).sum(axis=2).max(axis=1) / denom
    return max(0.0, float(ratio.max())), n_pairs


def item_major_sampled_kstep(K, k_max, samples, rng):
    """`bounds._sampled_kstep` with its running product item-major,
    (item, x, y), and its sums over y along the contiguous last axis, as
    it was before the product went batch-last; frozen as the reference.
    Returns the (value, samples) of alpha_k and of lambda_k, k = 1..k_max."""
    mus, nus = frozen_pairs(K.p, samples, as_generator(rng))
    n_pairs = mus.shape[0]
    denom = np.abs(mus - nus).sum(axis=1)
    keep = ~(denom < 1e-12)
    denom = denom[keep]
    alphas, lams = [], []
    prod = None
    for P, _ in _flow_steps(K, np.concatenate([mus, nus]), k_max):
        if prod is not None:
            a = np.ascontiguousarray(prod.transpose(1, 2, 0))
            b = np.ascontiguousarray(P.transpose(1, 2, 0))
            P = np.ascontiguousarray(np.einsum("mxb,xyb->myb", a, b).transpose(2, 0, 1))
        prod = P
        A, B = prod[:n_pairs], prod[n_pairs:]
        best = 1.0
        for x in range(K.p):
            best = min(best, float(np.minimum(A[:, x, None, :], B).sum(axis=2).min()))
        alphas.append((best, n_pairs))
        ratio = np.abs(A - B).sum(axis=2).max(axis=1)[keep] / denom
        lams.append((max(0.0, float(ratio.max())), denom.size))
    return alphas, lams


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 6), degree=st.integers(2, 4),
       k_max=st.integers(1, 4), samples=st.integers(0, 50))
def test_sampled_kstep_equals_the_item_major_form(seed, p, degree, k_max, samples):
    K = bernstein_kernel(np.random.default_rng(seed), p, degree, 0.2 / p, 0.5)
    alphas, lams = bounds_mod._sampled_kstep(K, k_max, samples, seed)
    assert ([(a.value, a.samples) for a in alphas], [(v.value, v.samples) for v in lams]) == \
        item_major_sampled_kstep(K, k_max, samples, seed)


def assert_matches_frozen(K, k, samples, seed):
    alpha = md_alpha(K, k, samples, np.random.default_rng(seed))
    lam = lipschitz_lambda(K, k, samples, np.random.default_rng(seed))
    assert (alpha.value, alpha.samples) == frozen_md_alpha(K, k, samples, np.random.default_rng(seed))
    assert (lam.value, lam.samples) == frozen_lipschitz_lambda(K, k, samples,
                                                               np.random.default_rng(seed))
    assert (alpha.direction, lam.direction) == ("upper-of-inf", "lower-of-sup")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 6), degree=st.integers(2, 3),
       k=st.integers(1, 4), samples=st.sampled_from([0, 1, 37]))
@example(seed=317, p=2, degree=3, k=1, samples=0)   # power-basis row sums a few ulps off 0
def test_samplers_equal_their_separate_flows(seed, p, degree, k, samples):
    K = bernstein_kernel(np.random.default_rng(seed), p, degree, 0.2 / p, 0.5)
    assert K.certified
    assert_matches_frozen(K, k, samples, seed)


@pytest.mark.parametrize("example", [(1, 0.1), (1, 0.2), (2, 0.1), (2, 0.2)])
def test_samplers_equal_their_separate_flows_on_the_builtins(example):
    K = builtin_example(*example)
    for seed in range(5):
        for k in (1, 2, 3, 4):
            assert_matches_frozen(K, k, 2000, seed)


@pytest.mark.parametrize("example", [(1, 0.1), (2, 0.2)])
def test_report_coefficients_share_one_sample(example):
    # every k of the report reads the same pairs, so each value is what the
    # standalone sampler gives on a fresh generator with the report's seed
    K = builtin_example(*example)
    samples, seed = 150, 7
    report = full_report(K, 5, mc_samples=samples, seed=seed)
    for k in (1, 2, 3, 4):
        assert report.alpha_nonlinear[k - 1] == md_alpha(K, k, samples, np.random.default_rng(seed)).value
        assert report.lam[k - 1] == lipschitz_lambda(K, k, samples, np.random.default_rng(seed)).value


def test_lambda_skips_pairs_with_equal_arguments(monkeypatch, ex1_k01):
    # a pair with mu == nu has no ratio; alpha still reads it
    drawn = bounds_mod._sample_pairs

    def with_a_tie(p, samples, rng):
        mus, nus = drawn(p, samples, rng)
        return np.concatenate([mus, mus[-1:]]), np.concatenate([nus, mus[-1:]])

    monkeypatch.setattr(bounds_mod, "_sample_pairs", with_a_tie)
    lam = lipschitz_lambda(ex1_k01, 2, 20, np.random.default_rng(3))
    assert md_alpha(ex1_k01, 2, 20, np.random.default_rng(3)).samples == 33
    monkeypatch.undo()
    assert (lam.value, lam.samples) == frozen_lipschitz_lambda(ex1_k01, 2, 20,
                                                               np.random.default_rng(3))


def test_negative_sample_counts_fail_before_any_draw(ex1_k01):
    gen = np.random.default_rng(5)
    state = gen.bit_generator.state
    for sampler in (md_alpha, lipschitz_lambda):
        with pytest.raises(ValueError, match="samples must be >= 0"):
            sampler(ex1_k01, 1, -1, gen)
        assert gen.bit_generator.state == state
    for K in (ex1_k01, PolynomialKernel.linear(EXAMPLE1_P)):     # a linear kernel draws nothing
        with pytest.raises(ValueError, match="samples must be >= 0"):
            full_report(K, 3, mc_samples=-5)


def test_zero_samples_keep_the_vertex_pairs(ex1_k01):
    gen = np.random.default_rng(5)
    state = gen.bit_generator.state
    assert md_alpha(ex1_k01, 2, 0, gen).samples == 12
    assert lipschitz_lambda(ex1_k01, 2, 0, gen).samples == 12
    assert gen.bit_generator.state == state
    report = full_report(ex1_k01, 3, mc_samples=0, seed=0)
    assert report.alpha_nonlinear[0] == 0.6 and report.lam[0] == pytest.approx(0.1, abs=1e-9)


# ---------------------------------------------------------------------------
# sampled coefficients pinned bit for bit


# every k of a report reads one pair sample and one flow, and the engine
# keeps the evaluation and flow arithmetic, so these hold with ==.  The flow
# steps and k-step products are chains over the middle state, not matmuls,
# so they hold on every BLAS kernel.
# delta comes from the Newton solve for the fixed points, which moved it by
# -1.4e-11 and +1.95e-10 from the iteration's residual-1e-10 points
# (0.017993031436055712 and 0.037780323963667234)
PINNED_MC200_SEED0 = {
    (1, 0.1): dict(
        alpha_nonlinear=[0.6, 0.8500000000000001, 0.9450000000000001, 0.98],
        lam=[0.10000000000000013, 0.02299220362762088, 0.0047966299434065215,
             0.0010965475332428332],
        gamma=0.33333333333333326, delta=0.01799303142244818),
    (2, 0.2): dict(
        alpha_nonlinear=[0.30000000000000004, 0.648, 0.8429184000000002,
                         0.9268558553544963],
        lam=[0.20000000000000032, 0.14600000000000002, 0.0716696000000001,
             0.03392092520051203],
        gamma=math.inf, delta=0.03778032415864638),
}


@pytest.mark.parametrize("example", sorted(PINNED_MC200_SEED0))
def test_full_report_sampled_coefficients_pinned(example):
    report = full_report(builtin_example(*example), 10, mc_samples=200, seed=0)
    pinned = PINNED_MC200_SEED0[example]
    assert report.alpha_nonlinear == pinned["alpha_nonlinear"]
    assert report.lam == pinned["lam"]
    assert report.gamma == pinned["gamma"]
    assert report.delta == pinned["delta"]


def test_full_report_lets_unexpected_errors_through(monkeypatch):
    # only a failed fixed-point search becomes a flag; a bug must surface
    def broken(*args, **kwargs):
        raise TypeError("bug inside delta_estimate")

    monkeypatch.setattr(bounds_mod, "delta_estimate", broken)
    with pytest.raises(TypeError, match="bug inside"):
        full_report(builtin_example(1, 0.1), 5, mc_samples=10, seed=0)


def test_md_alpha_and_lambda_count_evaluated_pairs():
    K = builtin_example(1, 0.1)
    # 12 ordered vertex pairs plus the sampled ones
    assert md_alpha(K, 2, samples=30, rng=0).samples == 42
    assert lipschitz_lambda(K, 2, samples=30, rng=0).samples == 42
