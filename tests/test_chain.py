import inspect
import json
import pickle
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmcbounds.chain import (
    EVAL_TOL,
    _NEG_CLIP,
    Distribution,
    PolynomialKernel,
    StochasticMatrix,
    evaluate_batch,
    evaluate_kernel,
    flow_batch,
    load_model,
    stationary,
    _flat_dirichlet,
    _flow_steps,
    _solve,
    _state_sum,
    tv_distance,
    validate_kernel,
)
from nmcbounds.errors import (
    DimensionMismatchError,
    KernelInvalidError,
    ModelSpecError,
    NonconvergenceError,
)
from nmcbounds.experiments import _ENVELOPE_BLOCK, EXAMPLE1_P, builtin_example, tv_envelope
from nmcbounds.ghmm import GhmmModel, GhmmStack
from nmcbounds.rng import as_generator
from nmcbounds.signal import PriceSeries, ReturnSeries

from conftest import NEUTRAL_CHAINS, random_distributions, row_sum_drift_kernel, two_cycle_kernel


# ---------------------------------------------------------------------------
# domain types


def test_distribution_invariants():
    with pytest.raises(ValueError):
        Distribution([0.5, 0.6])
    with pytest.raises(ValueError):
        Distribution([1.1, -0.1])
    with pytest.raises(DimensionMismatchError):
        Distribution([1.0])
    d = Distribution([0.25, 0.75])
    assert d.p == 2
    with pytest.raises(ValueError):
        d.probs[0] = 1.0  # frozen storage


_GHMM = ([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [0.0, 1.0], [1.0, 2.0])
_DATES = ("2020-01-01", "2020-01-02", "2020-01-03")

# value type -> (the arrays it is built from, constructor, its stored arrays)
VALUE_TYPES = {
    "Distribution": ([[0.25] * 4], lambda a: Distribution(*a), lambda v: [v.probs]),
    "StochasticMatrix": ([EXAMPLE1_P], lambda a: StochasticMatrix(*a), lambda v: [v.entries]),
    "PolynomialKernel": ([EXAMPLE1_P, np.diag([-0.1, 0.0, 0.0, 0.0])],
                         lambda a: PolynomialKernel(tuple(a)), lambda v: list(v.coeff)),
    "PolynomialKernel.linear": ([EXAMPLE1_P], lambda a: PolynomialKernel.linear(*a),
                                lambda v: list(v.coeff)),
    "GhmmModel": (list(_GHMM), lambda a: GhmmModel(*a),
                  lambda v: [v.initial, v.transition, v.means, v.variances]),
    "GhmmStack": ([[a, a] for a in _GHMM], lambda a: GhmmStack(*a),
                  lambda v: [v.initial, v.transition, v.means, v.variances]),
    "PriceSeries": ([[100.0, 101.0, 99.5]], lambda a: PriceSeries(_DATES, *a),
                    lambda v: [v.close]),
    "ReturnSeries": ([[0.01, -0.02, 0.0]], lambda a: ReturnSeries(_DATES, *a),
                     lambda v: [v.values]),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_store_frozen_copies(name):
    sources, build, stored = VALUE_TYPES[name]
    arrays = [np.array(a, dtype=np.float64) for a in sources]
    before = [a.copy() for a in arrays]
    kept = stored(build(arrays))
    for a, b in zip(arrays, before):
        assert a.flags.writeable and a.tobytes() == b.tobytes()
    assert len(kept) == len(arrays)
    for s, a in zip(kept, arrays):
        assert not s.flags.writeable and s.flags.c_contiguous and s.dtype == np.float64
        assert not np.shares_memory(s, a) and s.tobytes() == a.tobytes()


def test_stochastic_matrix_invariants():
    with pytest.raises(ValueError):
        StochasticMatrix([[0.5, 0.6], [0.5, 0.5]])
    m = StochasticMatrix([[0.5, 0.5], [0.1, 0.9]])
    assert m.p == 2


def test_kernel_requires_stochastic_linear_part():
    with pytest.raises(ValueError):
        PolynomialKernel((np.array([[0.7, 0.7], [0.5, 0.5]]),))


# ---------------------------------------------------------------------------
# tv_distance


def test_tv_disjoint_supports_hit_maximum():
    a = Distribution([1, 0, 0, 0])
    b = Distribution([0, 1, 0, 0])
    assert tv_distance(a, b) == 2.0


def test_tv_identity():
    mu = Distribution([0.3, 0.3, 0.4])
    assert tv_distance(mu, mu) == 0.0


def test_tv_simple_value():
    assert tv_distance(Distribution([0.5, 0.5]), Distribution([0.75, 0.25])) == pytest.approx(0.5, abs=1e-15)


def test_tv_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        tv_distance(Distribution([0.5, 0.5]), Distribution([0.3, 0.3, 0.4]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tv_metric_properties(seed):
    a, b, c = random_distributions(5, 3, seed)
    dab = tv_distance(a, b)
    assert dab >= 0.0
    assert dab == pytest.approx(tv_distance(b, a), abs=1e-15)
    assert dab <= tv_distance(a, c) + tv_distance(c, b) + 1e-12


def test_tv_overlap_identity_bulk():
    # ||mu - nu|| == 2 (1 - sum min(mu, nu)), exact to 1e-12
    dists = random_distributions(6, 2000, seed=7)
    for a, b in zip(dists[::2], dists[1::2]):
        overlap = np.minimum(a.probs, b.probs).sum()
        assert tv_distance(a, b) == pytest.approx(2.0 * (1.0 - overlap), abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate_kernel


def test_example1_kernel_at_vertex():
    K = builtin_example(1, 0.1)
    m = evaluate_kernel(K, Distribution([1, 0, 0, 0]))
    assert m.entries[0] == pytest.approx([0.3, 0.2, 0.3, 0.2], abs=1e-15)
    assert np.allclose(m.entries[1:], EXAMPLE1_P[1:])


def test_degree1_kernel_is_constant():
    K = PolynomialKernel.linear(EXAMPLE1_P)
    for mu in random_distributions(4, 5, seed=3):
        assert np.allclose(evaluate_kernel(K, mu).entries, EXAMPLE1_P, atol=1e-15)


def test_example2_kernel_at_barycenter():
    K = builtin_example(2, 0.1)
    m = evaluate_kernel(K, Distribution([0.2] * 5))
    assert m.entries[0, 0] == pytest.approx(0.42, abs=1e-15)
    assert m.entries[0, 1] == pytest.approx(0.28, abs=1e-15)


def test_evaluate_kernel_rejects_invalid():
    C2 = np.zeros((4, 4))
    C2[0, 0] = -1.0
    K = PolynomialKernel((EXAMPLE1_P, C2))
    with pytest.raises(KernelInvalidError):
        evaluate_kernel(K, Distribution([1, 0, 0, 0]))


def test_evaluate_batch_matches_evaluate_kernel_rowwise():
    K = builtin_example(2, 0.2)
    mus = np.array([d.probs for d in random_distributions(5, 50, seed=4)])
    batch = evaluate_batch(K, mus)
    assert batch.shape == (50, 5, 5)
    for mu, m in zip(mus, batch):
        assert (evaluate_kernel(K, Distribution(mu)).entries == m).all()


def test_evaluate_batch_reports_first_offending_mu():
    K = row_sum_drift_kernel()
    mus = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
    with pytest.raises(KernelInvalidError) as info:
        evaluate_batch(K, mus)
    assert (info.value.mu == mus[1]).all()
    assert info.value.worst_entry > 0.0           # a row-sum failure, not a sign one
    assert info.value.worst_row_sum_dev == pytest.approx(0.1 * 0.8 * 0.6, abs=1e-15)


def test_kernel_invalid_error_survives_pickling():
    with pytest.raises(KernelInvalidError) as info:
        evaluate_batch(row_sum_drift_kernel(), np.array([[0.2, 0.8]]))
    err, back = info.value, pickle.loads(pickle.dumps(info.value))
    assert str(back) == str(err) and (back.mu == err.mu).all()
    assert (back.worst_entry, back.worst_row_sum_dev) == (err.worst_entry, err.worst_row_sum_dev)


# ---------------------------------------------------------------------------
# validate_kernel


def test_validate_example1_passes():
    # entries 0.4 - kappa*mu and 0.2 + kappa*mu stay in [0.3, 0.4] / [0.2, 0.3]
    report = validate_kernel(builtin_example(1, 0.1))
    assert report.ok
    assert report.worst_negative_entry >= 0.0 - 1e-12
    assert report.worst_row_sum_dev <= 1e-12


def test_validate_negative_coefficient_fails_at_vertex():
    C2 = np.zeros((4, 4))
    C2[0, 0] = -1.0
    report = validate_kernel(PolynomialKernel((EXAMPLE1_P, C2)))
    assert not report.ok
    assert report.worst_negative_entry == pytest.approx(-0.6, abs=1e-12)
    assert report.witness is not None


def test_validate_plain_matrix_kernel():
    assert validate_kernel(PolynomialKernel.linear(EXAMPLE1_P)).ok


def test_validate_kernel_takes_only_the_kernel():
    assert list(inspect.signature(validate_kernel).parameters) == ["K"]


def test_validate_finds_an_interior_dip():
    # row 0 entry 0 is (t - 0.5)^2 - 1e-8: negative only for |t - 0.5| < 1e-4
    C0 = np.array([[0.25 - 1e-8, 0.5 + 1e-8, 0.25], [0.25, 0.25, 0.5], [0.5, 0.25, 0.25]])
    C1, C2 = np.zeros((3, 3)), np.zeros((3, 3))
    C1[0, :2], C2[0, :2] = [-1.0, 1.0], [1.0, -1.0]
    K = PolynomialKernel((C0, C1, C2))
    report = validate_kernel(K)
    assert not report.ok and not K.certified
    assert report.worst_negative_entry == pytest.approx(-1e-8, abs=1e-15)
    assert report.witness[0] == 0.5
    assert report.witness.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(KernelInvalidError):
        evaluate_batch(K, report.witness[None])


def random_kernel(seed, p, degree, scale, zero_sum, concentration=1.0):
    """Dirichlet(``concentration``) linear rows plus normal higher
    coefficients of size ``scale``, their rows centred when ``zero_sum``."""
    gen = np.random.default_rng(seed)
    highs = []
    for _ in range(degree - 1):
        c = gen.normal(size=(p, p)) * scale
        highs.append(c - c.mean(axis=1, keepdims=True) if zero_sum else c)
    return PolynomialKernel((gen.dirichlet(np.full(p, concentration), size=p), *highs))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 6), degree=st.integers(2, 4),
       scale=st.floats(0.01, 1.0), zero_sum=st.booleans())
def test_validate_kernel_is_exact_against_a_dense_grid(seed, p, degree, scale, zero_sum):
    K = random_kernel(seed, p, degree, scale, zero_sum)
    report = validate_kernel(K)
    t = np.linspace(0.0, 1.0, 4001)
    powers = t[:, None] ** np.arange(degree)                     # (N, degree)
    vals = np.einsum("nj,jxy->nxy", powers, np.stack(K.coeff))
    grid_min = vals.min()
    grid_dev = np.abs(vals.sum(axis=2) - 1.0).max()
    # a grid point lies within h/2 of the optimum; slopes bound the gap
    half_step = 0.5 / 4000
    slope = sum(j * np.abs(c) for j, c in enumerate(K.coeff)).max()
    sum_slope = np.abs(sum(j * c.sum(axis=1) for j, c in enumerate(K.coeff))).max()
    assert report.worst_negative_entry <= grid_min + 1e-12
    assert grid_min - report.worst_negative_entry <= slope * half_step + 1e-12
    assert report.worst_row_sum_dev >= grid_dev - 1e-12
    assert report.worst_row_sum_dev - grid_dev <= sum_slope * half_step + 1e-12
    assert report.ok == (report.worst_negative_entry >= -EVAL_TOL
                         and report.worst_row_sum_dev <= EVAL_TOL)
    if not report.ok:
        with pytest.raises(KernelInvalidError):
            evaluate_batch(K, report.witness[None])


# ---------------------------------------------------------------------------
# flow_batch


def test_propagate_linear_one_step():
    K = PolynomialKernel.linear(EXAMPLE1_P)
    mu0 = Distribution([0.1, 0.2, 0.3, 0.4])
    seq = flow_batch(K, mu0.probs[None], 1)[:, 0]
    assert np.allclose(seq[1], mu0.probs @ EXAMPLE1_P, atol=1e-14)


def test_propagate_fixed_point_stays():
    K = builtin_example(1, 0.1)
    pi = stationary(K).distribution
    for mu in flow_batch(K, pi.probs[None], 5)[:, 0]:
        assert tv_distance(Distribution(mu), pi) < 1e-9


def test_propagate_two_steps_match_hand_evaluation():
    # independent arithmetic for example 1, kappa = 0.2, mu0 = e1
    kappa = 0.2
    mu0 = np.array([1.0, 0.0, 0.0, 0.0])

    def hand_matrix(mu):
        m = EXAMPLE1_P.copy()
        m[0, 0] -= kappa * mu[0]
        m[0, 2] += kappa * mu[0]
        return m

    mu1 = mu0 @ hand_matrix(mu0)
    mu2 = mu1 @ hand_matrix(mu1)
    seq = flow_batch(builtin_example(1, kappa), mu0[None], 2)[:, 0]
    assert np.allclose(seq[1], mu1, atol=1e-14)
    assert np.allclose(seq[2], mu2, atol=1e-14)


def test_propagate_matches_matrix_power_for_linear():
    K = PolynomialKernel.linear(EXAMPLE1_P)
    mu0 = Distribution([0.7, 0.1, 0.1, 0.1])
    seq = flow_batch(K, mu0.probs[None], 8)[:, 0]
    for n in range(9):
        expected = mu0.probs @ np.linalg.matrix_power(EXAMPLE1_P, n)
        assert np.abs(seq[n] - expected).max() < 1e-10


def test_propagate_outputs_valid_distributions():
    K = builtin_example(2, 0.2)
    starts = np.array([d.probs for d in random_distributions(5, 20, seed=11)])
    for out in flow_batch(K, starts, 10).reshape(-1, 5):
        assert out.min() >= 0.0
        assert abs(out.sum() - 1.0) <= 1e-12


def test_flow_batch_rows_match_single_start_flows():
    K = builtin_example(1, 0.2)
    starts = np.array([d.probs for d in random_distributions(4, 30, seed=6)])
    flows = flow_batch(K, starts, 12)
    assert flows.shape == (13, 30, 4)
    assert (flows[0] == starts).all()
    for b in (0, 17, 29):
        assert (flow_batch(K, starts[b:b + 1], 12)[:, 0] == flows[:, b]).all()


def test_flow_batch_rows_match_single_start_flows_degree_3():
    C2, C3 = np.zeros((4, 4)), np.zeros((4, 4))
    C2[0, 0], C2[0, 2] = -0.2, 0.2
    C3[1, 1], C3[1, 3] = -0.3, 0.3
    K = PolynomialKernel((EXAMPLE1_P, C2, C3))
    assert K.certified
    starts = np.array([d.probs for d in random_distributions(4, 30, seed=8)])
    flows = flow_batch(K, starts, 12)
    for b in (0, 11, 29):
        assert (flow_batch(K, starts[b:b + 1], 12)[:, 0] == flows[:, b]).all()


def checked_flow(K, starts, n):
    """The flows through `_flow_steps`, which forms and checks every P_mu."""
    return np.stack([starts] + [mus for _, mus in _flow_steps(K, starts, n)])


def certified_kernel(seed, p, degree, room, concentration=1.0):
    """A `random_kernel` whose higher coefficients use at most ``room`` of
    each linear entry, so no entry goes below 0; centring after the shrink
    keeps their row sums at rounding level of the entries, so the kernel is
    certified."""
    K = random_kernel(seed, p, degree, 1.0, True, concentration)
    if degree == 1:
        return K
    spread = sum(np.abs(c) for c in K.coeff[1:])
    shrink = room * (K.coeff[0] / np.where(spread > 0.0, spread, 1.0)).min()
    highs = [c * shrink for c in K.coeff[1:]]
    return PolynomialKernel((K.coeff[0], *(c - c.mean(axis=1, keepdims=True) for c in highs)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 6), degree=st.integers(2, 4),
       room=st.floats(0.0, 0.95))
def test_matrix_free_flow_matches_the_checked_flow(seed, p, degree, room):
    K = certified_kernel(seed, p, degree, room)
    assert K.certified
    draws = np.random.default_rng(seed).standard_exponential((8, p))
    starts = np.concatenate([np.eye(p), draws / draws.sum(axis=1, keepdims=True)])
    assert np.abs(flow_batch(K, starts, 15) - checked_flow(K, starts, 15)).max() <= 1e-14


def test_flow_batch_rejects_row_sum_drift():
    # every entry stays positive, so a check on signs alone lets it through
    starts = np.array([[0.5, 0.5], [0.3, 0.7]])
    with pytest.raises(KernelInvalidError):
        flow_batch(row_sum_drift_kernel(), starts, 3)
    assert (flow_batch(row_sum_drift_kernel(), starts[:1], 3) == 0.5).all()


def test_uncertified_flows_take_the_checked_path():
    K = row_sum_drift_kernel()
    assert validate_kernel(K).ok is False and not K.certified
    with pytest.raises(KernelInvalidError) as info:
        flow_batch(K, np.array([[0.5, 0.5], [0.3, 0.7]]), 3)
    assert (info.value.mu == [0.3, 0.7]).all()
    assert info.value.worst_row_sum_dev == pytest.approx(0.1 * 0.7 * 0.4, abs=1e-15)
    # entry (0, 0) is 0.4 - kappa mu[0], 1e-11 below 0 at mu[0] = 1: valid
    # within EVAL_TOL, not certified, so every step is clipped and renormalized
    C2 = np.zeros((4, 4))
    C2[0, 0], C2[0, 2] = -(0.4 + 1e-11), 0.4 + 1e-11
    K = PolynomialKernel((EXAMPLE1_P, C2))
    assert validate_kernel(K).ok and not K.certified
    assert evaluate_batch(K, np.eye(4)[:1])[0, 0, 0] == 0.0
    starts = np.concatenate([np.eye(4), [d.probs for d in random_distributions(4, 5, seed=2)]])
    assert flow_batch(K, starts, 10).tobytes() == checked_flow(K, starts, 10).tobytes()
    assert_engine_matches_item_major(K, 300, 9)


# ---------------------------------------------------------------------------
# stationary


def test_stationary_rank_one_chain():
    row = np.array([0.2, 0.3, 0.5])
    K = PolynomialKernel.linear(np.tile(row, (3, 1)))
    res = stationary(K)
    assert np.allclose(res.distribution.probs, row, atol=1e-12)
    assert res.iterations <= 2


def test_stationary_linear_matches_elimination_oracle(p1_matrix):
    # solve pi (P - I) = 0 with the sum-to-one constraint by least squares
    P = p1_matrix.entries
    A = np.vstack([(P - np.eye(4)).T, np.ones(4)])
    b = np.concatenate([np.zeros(4), [1.0]])
    pi_oracle, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = stationary(PolynomialKernel.linear(P))
    assert np.abs(res.distribution.probs - pi_oracle).max() < 1e-9


def test_stationary_nonlinear_agrees_with_long_runs():
    K = builtin_example(1, 0.1)
    res = stationary(K)
    # oracle: long propagation from several random starts
    starts = np.array([d.probs for d in random_distributions(4, 5, seed=23)])
    for tail in flow_batch(K, starts, 10_000)[-1]:
        assert tv_distance(Distribution(tail), res.distribution) < 2e-10
    # the nonlinear fixed point sits near the linear one
    lin = stationary(PolynomialKernel.linear(EXAMPLE1_P))
    assert tv_distance(res.distribution, lin.distribution) < 0.1


def test_stationary_residual_contract():
    K = builtin_example(1, 0.2)
    res = stationary(K)
    nxt = res.distribution.probs @ evaluate_kernel(K, res.distribution).entries
    assert np.abs(nxt - res.distribution.probs).sum() <= 1e-10


def test_stationary_nonconvergence_error():
    # the one fixed point of the 2-cycle kernel repels, so the flow cannot
    # settle there; the error names the point and the rate, within a second
    K = two_cycle_kernel()
    start = time.perf_counter()
    with pytest.raises(NonconvergenceError, match=r"stopped at \[0\.38153098 0\.61846902\]") as info:
        stationary(K)
    assert time.perf_counter() - start < 1.0
    assert "linear rate 1.0247" in str(info.value)
    mu = np.array([0.38153098, 0.61846902])
    assert np.abs(mu @ evaluate_batch(K, mu[None])[0] - mu).sum() < 1e-7
    assert np.abs(np.linalg.eigvals(flow_jacobian(K, mu) - mu[:, None])).max() > 1.02
    # from the barycenter the flow settles into a 2-cycle around it
    tail = flow_batch(K, np.full((1, 2), 0.5), 2000)[-3:, 0, 0]
    assert abs(tail[0] - tail[2]) < 1e-12 and abs(tail[0] - tail[1]) > 0.3


def test_stationary_of_the_identity_names_no_attracting_point():
    # every point is fixed, so J - I is singular and none attracts
    with pytest.raises(NonconvergenceError, match=r"stopped at \[0\.33333333 0\.33333333 "
                                                  r"0\.33333333\] .*linear rate 1\.0000"):
        stationary(PolynomialKernel.linear(np.eye(3)))


@pytest.mark.parametrize("P", NEUTRAL_CHAINS, ids=["2-cycle", "2-periodic", "3-cycle"])
def test_stationary_of_a_periodic_chain_names_no_attracting_point(P):
    # the computed rate falls on either side of 1 by rounding; all three raise
    with pytest.raises(NonconvergenceError, match=r"linear rate 1\.0000"):
        stationary(PolynomialKernel.linear(P))


def test_stationary_of_a_nearly_periodic_chain_attracts():
    eps = 1e-6                                       # linear rate 1 - 2e-6
    res = stationary(PolynomialKernel.linear([[eps, 1.0 - eps], [1.0 - eps, eps]]))
    assert (res.distribution.probs == 0.5).all()


def test_solve_matches_lapack_and_refuses_a_singular_matrix():
    gen = np.random.default_rng(12)
    for p in range(1, 13):
        a, b = gen.normal(size=(p, p)), gen.normal(size=p)
        x = _solve(np.column_stack([a, b]))
        assert np.abs(x - np.linalg.solve(a, b)).max() <= 1e-12 * np.linalg.cond(a)
    assert _solve(np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 1.0]])) is None


def flow_jacobian(K, mu):
    """J[y, x] = sum_j (j + 1) C_j(x, y) mu_x^j: the derivative of
    mu -> mu^T P_mu, whose row x reads only mu[x]."""
    return sum((j + 1) * c.T * mu ** j for j, c in enumerate(K.coeff))


def assert_near_the_iteration(K, pi, budget=20_000):
    """Where the frozen iteration stops within ``budget`` steps, its point,
    at residual <= 1e-10, lies within 1e-10 ||(I - J)^-1||_1 of the fixed
    point to first order, plus rounding; (I - J + pi 1^T)^-1 is (I - J)^-1
    on the plane sum = 0 and keeps sums.  1e-10 / (1 - rate) is not a bound
    when J is far from normal."""
    found = item_major_stationary(K, budget)
    if found is not None:
        inverse = np.linalg.inv(np.eye(K.p) - flow_jacobian(K, pi) + pi[:, None])
        assert np.abs(pi - found).sum() <= 1e-10 * np.abs(inverse).sum(axis=0).max() + 1e-14


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 6), degree=st.integers(2, 4),
       room=st.floats(0.0, 0.95), concentration=st.sampled_from([0.3, 1.0]))
@example(seed=1368231803, p=4, degree=3, room=0.282643347710207, concentration=1.0)
def test_newton_fixed_point_against_the_iteration(seed, p, degree, room, concentration):
    K = certified_kernel(seed, p, degree, room, concentration)
    try:
        res = stationary(K)
    except NonconvergenceError:             # a repelling point: the iteration fails too
        assert item_major_stationary(K, 20_000) is None
        return
    pi = res.distribution.probs
    assert res.residual <= 1e-14
    assert np.abs(pi @ evaluate_batch(K, pi[None])[0] - pi).sum() <= 1e-14
    assert np.abs(np.linalg.eigvals(flow_jacobian(K, pi) - pi[:, None])).max() < 1.0
    assert_near_the_iteration(K, pi)


# ---------------------------------------------------------------------------
# the state-major flow engine against the item-major form it replaced


def item_major_clean_rows(v):
    """Clip float-level negative drift and renormalize along the last axis.

    This and the functions below are the certified flow as first written,
    frozen here as the reference: an item-major (B, p) batch with one
    ``bx,xy->by`` einsum per coefficient and sums along the state axis."""
    if v.min() < -_NEG_CLIP:
        raise ValueError(f"entry {v.min():.3e} too negative to be rounding noise")
    v = np.clip(v, 0.0, None)
    return v / v.sum(axis=-1, keepdims=True)


def item_major_free_steps(K, mus, n):
    for _ in range(n):
        w = item_major_clean_rows(mus)
        term = mus
        nxt = np.einsum("bx,xy->by", term, K.coeff[0])
        for c in K.coeff[1:]:
            term = term * w
            nxt += np.einsum("bx,xy->by", term, c)
        mus = nxt
        yield mus


def item_major_flows(K, mus, n):
    if K.certified:
        return item_major_free_steps(K, mus, n)
    return (nxt for _, nxt in _flow_steps(K, mus, n))


def item_major_flow_batch(K, mu0s, n):
    out = np.empty((n + 1,) + mu0s.shape)
    out[0] = mu0s
    for t, mus in enumerate(item_major_flows(K, mu0s, n), start=1):
        out[t] = mus
    return out


def item_major_stationary(K, budget, tol=1e-10):
    """The cleaned fixed point by iteration from the barycenter, or None
    when no step within ``budget`` is at most ``tol``."""
    mu = np.full((1, K.p), 1.0 / K.p)
    for nxt in item_major_flows(K, mu, budget):
        if float(np.abs(nxt - mu).sum()) <= tol:
            return item_major_clean_rows(mu[0])
        mu = nxt
    return None


def item_major_tv_envelope(K, pi, trials, steps, rng):
    starts = _flat_dirichlet(as_generator(rng), (trials, K.p))
    dev = item_major_flow_batch(K, starts, steps)
    dev -= pi
    tv = np.abs(dev, out=dev).sum(axis=2)
    return tv.min(axis=1), tv.mean(axis=1), tv.max(axis=1)


def assert_engine_matches_item_major(K, B, seed, steps=12):
    starts = _flat_dirichlet(np.random.default_rng(seed), (B, K.p))
    assert np.array_equal(flow_batch(K, starts, steps), item_major_flow_batch(K, starts, steps))
    pi = stationary(K).distribution.probs
    assert_near_the_iteration(K, pi)
    env = tv_envelope(K, B, steps, seed)
    frozen = item_major_tv_envelope(K, pi, B, steps, seed)
    for live, old in zip((env.tv_min, env.tv_mean, env.tv_max), frozen):
        assert np.array_equal(live, old)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 20), degree=st.integers(1, 3),
       room=st.floats(0.0, 0.95),
       B=st.sampled_from([1, 2, _ENVELOPE_BLOCK - 1, _ENVELOPE_BLOCK + 1]))
@example(seed=5, p=8, degree=2, room=0.9, B=_ENVELOPE_BLOCK + 1)
@example(seed=6, p=12, degree=3, room=0.5, B=2)
@example(seed=7, p=20, degree=2, room=0.9, B=1)
@example(seed=40, p=40, degree=1, room=0.0, B=1)        # the linear p = 40 stationary search
def test_state_major_engine_equals_item_major_form(seed, p, degree, room, B):
    K = certified_kernel(seed, p, degree, room)
    assert K.certified
    assert_engine_matches_item_major(K, B, seed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 8), degree=st.integers(2, 4),
       room=st.floats(0.0, 0.95), all_zero=st.booleans())
@example(seed=1, p=4, degree=2, room=0.5, all_zero=True)       # a kernel with no nonlinear row
def test_engine_skips_the_linear_rows_without_moving_a_bit(seed, p, degree, room, all_zero):
    # about half the rows of each higher coefficient are 0 (some of them
    # -0.0), one coefficient entirely when all_zero; the engine steps only
    # the other rows, and one start holds -0.0 entries
    gen = np.random.default_rng(seed)
    K = certified_kernel(seed, p, degree, room)
    highs = [c * (gen.random((p, 1)) < 0.5) for c in K.coeff[1:]]
    if all_zero:
        highs[gen.integers(len(highs))][:] = 0.0
    K = PolynomialKernel((K.coeff[0], *highs))
    assert K.certified
    starts = np.concatenate([np.eye(p), _flat_dirichlet(gen, (40, p)), np.eye(p)[:1]])
    starts[-1, 1:] = -0.0
    assert flow_batch(K, starts, 12).tobytes() == item_major_flow_batch(K, starts, 12).tobytes()
    try:
        pi = stationary(K).distribution.probs
    except NonconvergenceError:
        with pytest.raises(NonconvergenceError):
            tv_envelope(K, 50, 12, seed)
        return
    env = tv_envelope(K, 50, 12, seed)
    frozen = item_major_tv_envelope(K, pi, 50, 12, seed)
    for live, old in zip((env.tv_min, env.tv_mean, env.tv_max), frozen):
        assert np.array_equal(live, old)


def test_state_sum_follows_numpy_pairwise_order():
    gen = np.random.default_rng(3)
    for n in (*range(1, 40), 64, 127, 128, 129, 200, 257, 300):
        for B in (1, 3):
            rows = gen.random((B, n)) * 10.0 ** gen.integers(-8, 8, (B, n))
            assert _state_sum(np.ascontiguousarray(rows.T)).tobytes() == rows.sum(axis=1).tobytes()


def explicit_chain(terms):
    """((r0 + r1) + r2) + ... over the leading axis."""
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return total


def test_leading_axis_einsums_add_in_sequence():
    # the state-major contractions of the EM core (forward, one backward
    # lane) and of chain._batch_product: with the summed axis leading and
    # the batch axis innermost, einsum adds the terms in turn
    gen = np.random.default_rng(4)
    for n in range(1, 21):
        for B in (1, 2, 1420, 4097):
            vec, mat, cube = (gen.random(shape) * 10.0 ** gen.integers(-8, 8, shape)
                              for shape in ((n, B), (n, n, B), (n, n, B)))
            forward = np.einsum("ib,ijb->jb", vec, mat)
            assert forward.tobytes() == explicit_chain(vec[:, None] * mat).tobytes()
            backward = np.einsum("jib,jb->ib", mat, vec)
            assert backward.tobytes() == explicit_chain(mat * vec[:, None]).tobytes()
            product = np.einsum("mxb,xyb->myb", cube, mat)
            assert product.tobytes() == explicit_chain(
                cube.transpose(1, 0, 2)[:, :, None] * mat[:, None]).tobytes()


# ---------------------------------------------------------------------------
# _flat_dirichlet


def test_random_distribution_uniform_marginal():
    rng = np.random.default_rng(17)
    samples = _flat_dirichlet(rng, (10_000, 2))[:, 0]
    grid = np.sort(samples)
    ks = np.abs(grid - np.arange(1, 10_001) / 10_000).max()
    assert ks < 0.02


def test_random_distribution_deterministic():
    a = _flat_dirichlet(np.random.default_rng(42), 4)
    b = _flat_dirichlet(np.random.default_rng(42), 4)
    assert (a == b).all()


def test_random_distribution_valid():
    d = Distribution(_flat_dirichlet(np.random.default_rng(1), 4))
    assert d.p == 4
    assert d.probs.min() >= 0
    assert abs(d.probs.sum() - 1) <= 1e-12


# ---------------------------------------------------------------------------
# model-spec files


def _write_model(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_model_roundtrip(tmp_path):
    doc = {"p": 2, "degree": 2,
           "coeff": [[0.5, 0.5, 0.25, 0.75], [0.1, -0.1, 0.0, 0.0]]}
    K = load_model(_write_model(tmp_path, doc))
    assert K.p == 2 and K.degree == 2
    assert np.allclose(K.coeff[0], [[0.5, 0.5], [0.25, 0.75]])


def test_load_model_rejects_unknown_keys(tmp_path):
    doc = {"p": 2, "degree": 1, "coeff": [[0.5, 0.5, 0.5, 0.5]], "extra": 1}
    with pytest.raises(ModelSpecError):
        load_model(_write_model(tmp_path, doc))


def test_load_model_rejects_nonfinite(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"p": 2, "degree": 1, "coeff": [[0.5, 0.5, 0.5, Infinity]]}',
                    encoding="utf-8")
    with pytest.raises(ModelSpecError):
        load_model(path)


def test_load_model_rejects_bad_shapes(tmp_path):
    doc = {"p": 2, "degree": 1, "coeff": [[0.5, 0.5, 0.5]]}
    with pytest.raises(ModelSpecError):
        load_model(_write_model(tmp_path, doc))


def test_tv_metric_properties_bulk():
    # vectorized sweep: nonnegativity, symmetry, triangle inequality
    gen = np.random.default_rng(2718)
    draws = gen.standard_exponential((30_000, 5))
    draws /= draws.sum(axis=1, keepdims=True)
    a, b, c = draws[:10_000], draws[10_000:20_000], draws[20_000:]
    dab = np.abs(a - b).sum(axis=1)
    dba = np.abs(b - a).sum(axis=1)
    dac = np.abs(a - c).sum(axis=1)
    dcb = np.abs(c - b).sum(axis=1)
    assert (dab >= 0).all() and (dab <= 2).all()
    assert np.abs(dab - dba).max() <= 1e-12
    assert (dab <= dac + dcb + 1e-12).all()
