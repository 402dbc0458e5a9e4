from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmcbounds import coupling
from nmcbounds.bounds import full_report
from nmcbounds.chain import (Distribution, PolynomialKernel, StochasticMatrix, _clean_probs,
                             flow_batch, load_model)
from nmcbounds.coupling import (
    SplitLaws,
    build_coupling_matrix,
    coupling_matrices,
    coupling_radii,
    lemma_check,
    lemma_tolerances,
    overlap_curve,
    pairchain_meet_curve,
    sample_coupled_pair,
    simulate_coupled_chain,
    spectral_radius,
    split_densities,
)
from nmcbounds.errors import DimensionMismatchError
from conftest import DEGENERATE_CHAINS, random_distributions


def overlap(P, a, b):
    """Row overlap kappa(a, b) = sum_y min(P(a, y), P(b, y))."""
    return float(np.minimum(P.entries[a], P.entries[b]).sum())


def pairs(M):
    """The state pair {a, b}, a < b, of each row of M, in row order."""
    return list(zip(*np.triu_indices(M.p, 1)))


def max_row_sum(M):
    """Max row sum, the induced infinity-norm of the nonnegative array M."""
    return float(M.sum(axis=-1).max())


# ---------------------------------------------------------------------------
# overlap / split


def test_split_densities_worked_example():
    laws = split_densities(Distribution([0.5, 0.5]), Distribution([0.75, 0.25]))
    assert laws.q == pytest.approx(0.75, abs=1e-15)
    assert laws.xi.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
    assert laws.eta1.probs == pytest.approx([0.0, 1.0], abs=1e-15)
    assert laws.eta2.probs == pytest.approx([1.0, 0.0], abs=1e-15)


def test_marginal_kernels_worked_example(p1_matrix):
    # the one-step kernels of the published matrix from the pair of
    # rows 2 and 4 (0-based 1 and 3): meet with probability kappa = 0.6,
    # else move X by eta1
    laws = split_densities(p1_matrix.row(1), p1_matrix.row(3))
    assert laws.q == pytest.approx(0.6, abs=1e-15)
    assert laws.eta1.probs == pytest.approx([0.25, 0.75, 0.0, 0.0], abs=1e-14)


def test_split_densities_degenerate_branches():
    mu = Distribution([0.3, 0.7])
    laws = split_densities(mu, mu)
    assert laws.q == 1.0 and (laws.xi.probs == mu.probs).all()
    laws = split_densities(Distribution([1, 0]), Distribution([0, 1]))
    assert laws.q == 0.0
    assert (laws.eta1.probs == [1, 0]).all() and (laws.eta2.probs == [0, 1]).all()


def test_split_densities_reconstruction_identity():
    # q * xi + (1-q) * eta1 == mu entrywise (and symmetrically for nu)
    dists = random_distributions(5, 20_000, seed=31)
    for mu, nu in zip(dists[::2], dists[1::2]):
        laws = split_densities(mu, nu)
        lhs = laws.q * laws.xi.probs + (1 - laws.q) * laws.eta1.probs
        assert np.abs(lhs - mu.probs).max() < 1e-12
        rhs = laws.q * laws.xi.probs + (1 - laws.q) * laws.eta2.probs
        assert np.abs(rhs - nu.probs).max() < 1e-12


# ---------------------------------------------------------------------------
# kappa


def test_kappa_values(p1_matrix):
    assert overlap(p1_matrix, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert overlap(p1_matrix, 1, 3) == pytest.approx(0.6, abs=1e-15)
    eye = StochasticMatrix(np.eye(3))
    assert overlap(eye, 0, 2) == 0.0


# ---------------------------------------------------------------------------
# sample_coupled_pair


def test_coupled_pair_equal_laws():
    mu = Distribution([0.4, 0.6])
    rng = np.random.default_rng(0)
    for _ in range(50):
        x1, x2, z = sample_coupled_pair(mu, mu, rng)
        assert x1 == x2 and z == 0


def test_coupled_pair_disjoint_laws():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x1, x2, z = sample_coupled_pair(Distribution([1, 0]), Distribution([0, 1]), rng)
        assert z == 1 and x1 != x2


def test_coupled_pair_meeting_frequency():
    mu = Distribution([0.5, 0.5])
    nu = Distribution([0.75, 0.25])
    rng = np.random.default_rng(8)
    hits = sum(x1 == x2 for x1, x2, _ in
               (sample_coupled_pair(mu, nu, rng) for _ in range(20_000)))
    assert hits / 20_000 == pytest.approx(0.75, abs=0.01)


def test_coupled_pair_marginals():
    mu = Distribution([0.2, 0.3, 0.5])
    nu = Distribution([0.5, 0.25, 0.25])
    rng = np.random.default_rng(4)
    draws = np.array([sample_coupled_pair(mu, nu, rng)[:2] for _ in range(20_000)])
    emp1 = np.bincount(draws[:, 0], minlength=3) / 20_000
    emp2 = np.bincount(draws[:, 1], minlength=3) / 20_000
    assert np.abs(emp1 - mu.probs).sum() < 0.02
    assert np.abs(emp2 - nu.probs).sum() < 0.02


# ---------------------------------------------------------------------------
# simulate_coupled_chain


def test_coupled_chain_meets_at_zero_for_equal_starts(p1_matrix):
    mu = Distribution([0.25] * 4)
    out = simulate_coupled_chain(p1_matrix, mu, mu, 5, rng=3)
    assert out.meet_step == 0
    assert (out.traj1 == out.traj2).all()


def test_coupled_chain_never_meets_on_identity():
    eye = StochasticMatrix(np.eye(3))
    out = simulate_coupled_chain(eye, Distribution([1, 0, 0]), Distribution([0, 0, 1]),
                                 20, rng=3)
    assert out.meet_step is None
    assert (out.traj1 != out.traj2).all()


def test_coupled_chain_absorbing_zeta(p1_matrix):
    rng = np.random.default_rng(21)
    for _ in range(200):
        out = simulate_coupled_chain(p1_matrix, Distribution([1, 0, 0, 0]),
                                     Distribution([0.25] * 4), 10, rng)
        if out.meet_step is not None:
            tail = slice(out.meet_step, None)
            assert (out.traj1[tail] == out.traj2[tail]).all()
            assert (out.zeta[tail] == 0).all()


def test_coupled_chain_meet_frequency_matches_pair_matrix(p1_matrix):
    # empirical meet-by-n against the exact sub-stochastic power computation
    mu0 = Distribution([1, 0, 0, 0])
    nu0 = Distribution([0.25] * 4)
    n = 5
    exact = pairchain_meet_curve(p1_matrix, mu0, nu0, n)
    rng = np.random.default_rng(77)
    runs = 4000
    met_by = np.zeros(n + 1)
    for _ in range(runs):
        out = simulate_coupled_chain(p1_matrix, mu0, nu0, n, rng)
        if out.meet_step is not None:
            met_by[out.meet_step:] += 1
    emp = met_by / runs
    assert np.abs(emp - exact).max() < 0.03


def test_coupled_chain_marginals(p1_matrix):
    # appendix-style check: each coordinate moves with the base matrix
    mu0 = Distribution([1, 0, 0, 0])
    nu0 = Distribution([0.25] * 4)
    rng = np.random.default_rng(13)
    runs = 4000
    n = 4
    c1 = np.zeros((n + 1, 4))
    c2 = np.zeros((n + 1, 4))
    for _ in range(runs):
        out = simulate_coupled_chain(p1_matrix, mu0, nu0, n, rng)
        for t in range(n + 1):
            c1[t, out.traj1[t]] += 1
            c2[t, out.traj2[t]] += 1
    law1 = mu0.probs.copy()
    law2 = nu0.probs.copy()
    for t in range(n + 1):
        assert np.abs(c1[t] / runs - law1).sum() < 0.05
        assert np.abs(c2[t] / runs - law2).sum() < 0.05
        law1 = law1 @ p1_matrix.entries
        law2 = law2 @ p1_matrix.entries


# ---------------------------------------------------------------------------
# the one split and sampler against the code they replaced


def parent_marginal_kernels(P, s):
    """Laws of (eta1, eta2, xi, zeta) from the quadruple s = (eta1, eta2,
    xi, zeta) of states, with their own copy of the split."""
    eta1, eta2, xi, zeta = s
    row1, row2 = P.entries[eta1], P.entries[eta2]
    m = np.minimum(row1, row2)
    k = float(m.sum())
    if zeta == 0:
        zeta_law = np.array([1.0, 0.0])
        xi_law = _clean_probs(P.entries[xi])
    else:
        zeta_law = np.array([k, 1.0 - k])
        xi_law = _clean_probs(P.entries[xi] if k <= 0.0 else m / k)
    if k >= 1.0 - 1e-12:
        eta1_law = eta2_law = _clean_probs(row1)
    else:
        eta1_law = _clean_probs((row1 - m) / (1.0 - k))
        eta2_law = _clean_probs((row2 - m) / (1.0 - k))
    return eta1_law, eta2_law, xi_law, zeta_law, k


def parent_sample_coupled_pair(mu, nu, rng):
    """The scalar draw: one uniform, then one choice per coordinate."""
    laws = split_densities(mu, nu)
    if rng.random() < laws.q:
        x = int(rng.choice(mu.p, p=laws.xi.probs))
        return x, x, 0
    return (int(rng.choice(mu.p, p=laws.eta1.probs)),
            int(rng.choice(nu.p, p=laws.eta2.probs)), 1)


def parent_simulate_coupled_chain(P, mu0, nu0, n, rng):
    """The simulator stepping through marginal kernels of a coupling state."""
    traj = np.empty((3, n + 1), dtype=np.intp)
    x1, x2, z = parent_sample_coupled_pair(mu0, nu0, rng)
    traj[:, 0] = x1, x2, z
    for t in range(n):
        if z == 0:
            x1 = x2 = int(rng.choice(P.p, p=P.entries[x1]))
        else:
            eta1_law, eta2_law, xi_law, zeta_law, _ = parent_marginal_kernels(
                P, (x1, x2, x1, 1))
            if rng.random() < zeta_law[0]:
                z = 0
                x1 = x2 = int(rng.choice(P.p, p=xi_law.probs))
            else:
                x1 = int(rng.choice(P.p, p=eta1_law.probs))
                x2 = int(rng.choice(P.p, p=eta2_law.probs))
        traj[:, t + 1] = x1, x2, z
    return traj


def parent_pairchain_meet_curve(P, mu0, nu0, n):
    """Meet-by-t with the initial pair mass filled pair by pair, each
    unordered pair taking the mass of both its orders."""
    laws0 = split_densities(mu0, nu0)
    M = build_coupling_matrix(P)
    w = np.zeros(M.dim)
    if laws0.q < 1.0:
        joint = np.outer(laws0.eta1.probs, laws0.eta2.probs) * (1.0 - laws0.q)
        for i, (a, b) in enumerate(pairs(M)):
            w[i] = joint[a, b] + joint[b, a]
    out = np.empty(n + 1)
    out[0] = 1.0 - w.sum()
    for t in range(n):
        w = w @ M.entries
        out[t + 1] = 1.0 - w.sum()
    return out


def parent_lemma_arrays(P, mu0, nu0, n, samples, rng):
    """tv1, tv2 and q_empirical of lemma_check with the draw written inline."""
    laws = flow_batch(PolynomialKernel.linear(P), np.stack([mu0.probs, nu0.probs]), n)
    law1, law2 = laws[:, 0], laws[:, 1]
    out = np.empty((3, n + 1))
    for t in range(n + 1):
        laws = split_densities(_clean_probs(law1[t]), _clean_probs(law2[t]))
        met = rng.random(samples) < laws.q
        x1 = np.empty(samples, dtype=np.intp)
        x2 = np.empty(samples, dtype=np.intp)
        n_met = int(met.sum())
        if n_met:
            common = rng.choice(P.p, size=n_met, p=laws.xi.probs)
            x1[met] = common
            x2[met] = common
        if samples - n_met:
            x1[~met] = rng.choice(P.p, size=samples - n_met, p=laws.eta1.probs)
            x2[~met] = rng.choice(P.p, size=samples - n_met, p=laws.eta2.probs)
        out[0, t] = np.abs(np.bincount(x1, minlength=P.p) / samples - law1[t]).sum()
        out[1, t] = np.abs(np.bincount(x2, minlength=P.p) / samples - law2[t]).sum()
        out[2, t] = float((x1 == x2).mean())
    return out


def chain_with_extreme_pairs(seed, p, identical, disjoint):
    """Dirichlet(0.3) chain and two start laws; ``identical`` copies row 0
    into row 1 (kappa = 1), ``disjoint`` gives the last two rows disjoint
    supports (kappa = 0), and the start laws repeat either pattern."""
    gen = np.random.default_rng(seed)
    P = gen.dirichlet(np.full(p, 0.3), size=p)
    P /= P.sum(axis=1, keepdims=True)
    if identical:
        P[1] = P[0]
    if disjoint:
        P[-2:] = 0.0
        P[-2, : p // 2] = gen.dirichlet(np.ones(p // 2))
        P[-1, p // 2:] = gen.dirichlet(np.ones(p - p // 2))
    mu, nu = gen.dirichlet(np.ones(p), size=2)
    if identical and disjoint:
        nu = mu
    elif disjoint:
        mu, nu = P[-2], P[-1]
    return StochasticMatrix(P), Distribution(mu), Distribution(nu)


EPS = np.finfo(np.float64).eps
extreme_chains = st.builds(chain_with_extreme_pairs, st.integers(0, 2**32 - 1),
                           st.integers(2, 6), st.booleans(), st.booleans())


@settings(max_examples=40, deadline=None)
@given(extreme_chains, st.integers(0, 2**32 - 1))
def test_sampler_equals_parent_scalar_draws(chain, seed):
    P, mu, nu = chain
    rng, parent_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for x in range(P.p):
        for y in (mu, nu, P.row(0)):
            for _ in range(20):
                assert (sample_coupled_pair(P.row(x), y, rng)
                        == parent_sample_coupled_pair(P.row(x), y, parent_rng))
    assert rng.random() == parent_rng.random()
    out = simulate_coupled_chain(P, mu, nu, 25, rng)
    parent = parent_simulate_coupled_chain(P, mu, nu, 25, parent_rng)
    assert np.stack([out.traj1, out.traj2, out.zeta]).tobytes() == parent.tobytes()
    met = np.flatnonzero(parent[2] == 0)
    assert out.meet_step == (int(met[0]) if met.size else None)
    assert rng.random() == parent_rng.random()


@settings(max_examples=30, deadline=None)
@given(extreme_chains, st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(1, 3000))
def test_lemma_check_and_meet_curve_equal_parent(chain, seed, n, samples):
    P, mu, nu = chain
    curve = pairchain_meet_curve(P, mu, nu, n)
    assert curve.tobytes() == parent_pairchain_meet_curve(P, mu, nu, n).tobytes()
    report = lemma_check(P, mu, nu, n, samples, np.random.default_rng(seed))
    parent = parent_lemma_arrays(P, mu, nu, n, samples, np.random.default_rng(seed))
    assert np.stack([report.tv1, report.tv2, report.q_empirical]).tobytes() == parent.tobytes()
    gap = overlap_curve(P, mu, nu, n) - curve
    assert gap.tobytes() == (report.q_exact - curve).tobytes()
    assert report.underpowered == (samples < 1000)


@settings(max_examples=40, deadline=None)
@given(extreme_chains)
def test_split_densities_and_residual_rows_are_one_split(chain):
    # the one-pair face and the stack face of the split, on the same rows:
    # the same mass, residuals and dead rule, bit for bit
    P, _, _ = chain
    rows = np.stack([P.row(x).probs for x in range(P.p)])
    r1, r2, one_minus_k, dead = (a[0] for a in coupling._residual_rows(rows[None]))
    for i, (a, b) in enumerate(zip(*np.triu_indices(P.p, 1))):
        laws = split_densities(P.row(a), P.row(b))
        assert dead[i] == (laws.q == 1.0)
        if dead[i]:
            assert one_minus_k[i] == 1.0
            continue
        assert one_minus_k[i] == 1.0 - laws.q
        if laws.q == 0.0:           # disjoint rows: the residuals are the rows
            assert (r1[i] == rows[a]).all() and (r2[i] == rows[b]).all()
            assert (laws.eta1.probs == rows[a]).all() and (laws.eta2.probs == rows[b]).all()
        else:
            assert (laws.eta1.probs == r1[i] / r1[i].sum()).all()
            assert (laws.eta2.probs == r2[i] / r2[i].sum()).all()
            assert (laws.xi.probs == np.minimum(rows[a], rows[b]) / laws.q).all()


# ---------------------------------------------------------------------------
# coupling matrix


def test_coupling_matrix_shape_and_rows(p1_matrix):
    M = build_coupling_matrix(p1_matrix)
    assert M.entries.shape == (6, 6)
    for i, (a, b) in enumerate(pairs(M)):
        k = overlap(p1_matrix, a, b)
        assert M.entries[i].sum() == pytest.approx(1.0 - k, abs=1e-9)


def test_coupling_matrix_identical_rows_zero():
    P = StochasticMatrix(np.tile([0.25, 0.25, 0.25, 0.25], (4, 1)))
    assert (build_coupling_matrix(P).entries == 0).all()


def test_coupling_matrix_example2_rows(p2_matrix):
    M = build_coupling_matrix(p2_matrix)
    assert M.entries.shape == (10, 10)
    for i, (a, b) in enumerate(pairs(M)):
        assert M.entries[i].sum() <= 1.0 - overlap(p2_matrix, a, b) + 1e-9


# ---------------------------------------------------------------------------
# batched coupling operator against the scalar loops it replaced


def loop_coupling_matrix(P):
    """Entry-by-entry pair matrix over ordered pairs (row-major, x1 != x2),
    the scalar loop that `coupling_matrices` replaced."""
    p = P.shape[0]
    pairs = [(a, b) for a in range(p) for b in range(p) if a != b]
    M = np.zeros((len(pairs), len(pairs)))
    for i, (x1, x2) in enumerate(pairs):
        m = np.minimum(P[x1], P[x2])
        k = m.sum()
        if k >= 1.0 - 1e-12:
            continue
        r1 = P[x1] - m
        r2 = P[x2] - m
        for j, (y1, y2) in enumerate(pairs):
            M[i, j] = r1[y1] * r2[y2] / (1.0 - k)
    return M


def fold(M, p):
    """Quotient of an ordered-pair matrix by the swap: the row of (x1, x2),
    x1 < x2, with the columns (y1, y2) and (y2, y1) summed, in the order of
    ``np.triu_indices(p, 1)``."""
    ordered = {pair: i for i, pair in enumerate(
        (a, b) for a in range(p) for b in range(p) if a != b)}
    iu, ju = np.triu_indices(p, 1)
    up = [ordered[a, b] for a, b in zip(iu, ju)]
    down = [ordered[b, a] for a, b in zip(iu, ju)]
    return M[np.ix_(up, up)] + M[np.ix_(up, down)]


def dirichlet_chain(gen, p, a=0.3):
    P = gen.dirichlet(np.full(p, a), size=p)
    return P / P.sum(axis=1, keepdims=True)


def test_degenerate_chains_take_the_early_exits():
    est = coupling_radii(np.stack(DEGENERATE_CHAINS))
    assert est.r[:2].tolist() == [0.0, 0.0] and est.eps[:2].tolist() == [0.0, 0.0]
    assert est.r[2] > 0.0


# every p whose pair matrix (d = p(p - 1)/2) takes the dense eig-seeded path,
# and the smallest that runs matrix-free
DENSE_P_MAX = max(p for p in range(2, 100) if p * (p - 1) // 2 < coupling._BRACKET_MIN_DIM)
BRACKET_P_MIN = DENSE_P_MAX + 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, DENSE_P_MAX), st.integers(1, 12),
       st.sets(st.integers(0, 11), max_size=4))
def test_batched_bound_equals_per_matrix_loop(seed, p, B, degenerate_at):
    # each item of a batch is its matrix alone: the loop's pair matrix and
    # the one-chain radius, bit for bit
    gen = np.random.default_rng(seed)
    stack = [dirichlet_chain(gen, p) for _ in range(B)]
    if p == 3:
        for i in sorted(degenerate_at):
            stack[i % B] = DEGENERATE_CHAINS[i % len(DEGENERATE_CHAINS)]
    Ms = coupling_matrices(np.stack(stack))
    est = coupling_radii(np.stack(stack))
    for i, P in enumerate(stack):
        assert Ms[i].tobytes() == fold(loop_coupling_matrix(P), p).tobytes()
        M = build_coupling_matrix(StochasticMatrix(P))
        single = spectral_radius(M)
        assert (single.r, single.eps) == (est.r[i], est.eps[i])
        assert_spectral_path(M, est.r[i], est.eps[i])


def oracle_bracket(M, rtol=1e-12, max_iter=20000):
    """Power iteration on M + I from the uniform start with the
    Collatz-Wielandt ratios over every entry, as the benchmark's oracle:
    no trimmed lower end and no rounding allowance."""
    x = np.full(M.shape[0], 1.0 / M.shape[0])
    lo, hi = 0.0, np.inf
    for _ in range(max_iter):
        y = M @ x + x
        ratio = y / x
        lo, hi = max(lo, ratio.min() - 1.0), min(hi, ratio.max() - 1.0)
        if hi - lo <= rtol * max(hi, 1e-300):
            break
        x = y / y.sum()
        if not x.min() > 0.0:               # underflow on a reducible M
            break
    return lo, hi


def closed(r, eps):
    """Whether a reported bracket closed: its width is at most 2e-12 r (the
    closing gap plus the rounding allowance); a stalled one is wider."""
    return eps <= 2e-12 * r


def assert_spectral_path(CM, r, eps):
    """[r - eps, r] holds max|eig(M)| within 1e-9 relative, and r = 0 only
    for a nilpotent M (whose LAPACK eigenvalues carry no relative
    accuracy); a closed bracket agrees with the oracle iteration.  r stays
    below the max row sum."""
    M = CM.entries
    assert 0.0 <= eps <= r
    if r == 0.0:
        assert not np.linalg.matrix_power(M, M.shape[0]).any()
    else:
        eig = float(np.abs(np.linalg.eigvals(M)).max())
        assert r - eps <= eig * (1.0 + 1e-9) and eig <= r * (1.0 + 1e-9)
    if closed(r, eps):
        lo, hi = oracle_bracket(M)
        # the plain oracle closes unless M is reducible; it steps on M + I, so
        # its ends carry an absolute error of a few ulps of 1
        if hi - lo <= 1e-12 * hi:
            assert hi <= r * (1.0 + 1e-9) + 8 * EPS and r <= lo * (1.0 + 1e-4) + 8 * EPS
    assert r <= max_row_sum(M) + 1e-12


def near_permutation(gen, p):
    """Row x puts 1 - e_x on pi(x) and spreads e_x in [1e-4, 1e-2] evenly."""
    e = gen.uniform(1e-4, 1e-2, p)
    P = np.repeat((e / (p - 1))[:, None], p, axis=1)
    P[np.arange(p), gen.permutation(p)] = 1.0 - e
    return P


def fixed_chain(kind, p):
    """Chains that stress the bracket: two equal rows (a kappa = 1 pair, so
    a zero row of M), block-diagonal (closed classes of pairs), all rows
    equal (M = 0), and a near-permutation (row x puts 1 - e_x on pi(x) and
    spreads e_x in [1e-4, 1e-2]), whose pair eigenvalues crowd the circle
    of radius rho, so its matrix-free bracket stalls."""
    gen = np.random.default_rng(p)
    if kind == "near-permutation":
        return near_permutation(gen, p)
    if kind == "all rows equal":
        return np.tile(gen.dirichlet(np.full(p, 0.3)), (p, 1))
    P = dirichlet_chain(gen, p)
    if kind == "two equal rows":
        P[1] = P[0]
    else:
        h = p // 2
        P[:h, h:] = P[h:, :h] = 0.0
        P /= P.sum(axis=1, keepdims=True)
    return P


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 24),
       st.sampled_from([0.05, 0.3, 1.0, "near-permutation"]))
def test_bracket_holds_the_spectral_radius(seed, p, a):
    # both paths: dense and eig-seeded for p <= DENSE_P_MAX, matrix-free
    # above; Dirichlet(a) rows, or a near-permutation chain
    gen = np.random.default_rng(seed)
    P = near_permutation(gen, p) if a == "near-permutation" else dirichlet_chain(gen, p, a)
    M = build_coupling_matrix(StochasticMatrix(P))
    est = coupling_radii(P[None])
    assert_spectral_path(M, est.r[0], est.eps[0])
    single = spectral_radius(M)
    assert (single.r, single.eps, single.squarings) == (est.r[0], est.eps[0], 0)


# ``stalled``: the bracket steps per row of Q an item spends without
# closing, the whole budget on the near-permutation chain and none on the
# chains that close
@pytest.mark.parametrize("p", [BRACKET_P_MIN, 20])
@pytest.mark.parametrize("kind, stalled", [
    ("two equal rows", 0), ("block-diagonal", 0), ("all rows equal", 0),
    ("near-permutation", coupling._BRACKET_BUDGET),
])
def test_bracket_on_fixed_chains(kind, stalled, p):
    P = fixed_chain(kind, p)
    M = build_coupling_matrix(StochasticMatrix(P))
    est = coupling_radii(P[None])
    assert closed(est.r[0], est.eps[0]) == (stalled == 0)
    assert_spectral_path(M, est.r[0], est.eps[0])
    if kind == "all rows equal":
        assert (est.r[0], est.eps[0]) == (0.0, 0.0)


def test_bracket_holds_a_closed_form_radius():
    # rho(A kron J/n) = rho(A) for the averaging matrix J/n; for a positive
    # 2 x 2 A it is (a + d)/2 + sqrt(((a - d)/2)^2 + bc), exact to a few ulps.
    # The bracket's lower end lies below it by up to the 1e-12 closing gap,
    # so [r - eps, r] must contain it and r may not stop at the lower end.
    # M is no pair matrix of a chain, so this runs the generic dense bracket.
    n = -(-coupling._BRACKET_MIN_DIM // 2)
    for a, b, c, dd in ([0.5, 0.2, 0.1, 0.3], [0.05, 0.6, 0.3, 0.2], [0.7, 0.01, 0.25, 0.4]):
        M = np.kron(np.array([[a, b], [c, dd]]), np.full((n, n), 1.0 / n))
        rho = (a + dd) / 2 + np.sqrt(((a - dd) / 2) ** 2 + b * c)
        est = coupling._dense_radii(M[None])
        r, eps = est.r[0], est.eps[0]
        assert closed(r, eps)
        assert r - eps <= rho * (1 + 4 * EPS) and rho * (1 - 4 * EPS) <= r


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_batched_builder_equals_loop_dirichlet(seed, p):
    gen = np.random.default_rng(seed)
    stack = np.stack([dirichlet_chain(gen, p) for _ in range(3)])
    Ms = coupling_matrices(stack)
    for P, M in zip(stack, Ms):
        assert M.tobytes() == fold(loop_coupling_matrix(P), p).tobytes()


@pytest.mark.parametrize("p", [24, 40])
def test_builder_equals_loop_at_large_p(p):
    P = dirichlet_chain(np.random.default_rng(p), p)
    M = build_coupling_matrix(StochasticMatrix(P))
    assert M.entries.tobytes() == fold(loop_coupling_matrix(P), p).tobytes()


def chain_with_reducible_parts(seed, p, a, equal_rows, blocks):
    """Dirichlet(a) chain; ``blocks`` makes it block-diagonal (two closed
    classes, p >= 4) and ``equal_rows`` copies row 0 into row 1 (a kappa = 1
    pair, so a zero row of the pair matrix)."""
    gen = np.random.default_rng(seed)
    if blocks and p >= 4:
        h = p // 2
        P = np.zeros((p, p))
        P[:h, :h] = gen.dirichlet(np.full(h, a), size=h)
        P[h:, h:] = gen.dirichlet(np.full(p - h, a), size=p - h)
    else:
        P = gen.dirichlet(np.full(p, a), size=p)
    P /= P.sum(axis=1, keepdims=True)
    if equal_rows:
        P[1] = P[0]
    return P


@settings(max_examples=60, deadline=None)
@given(st.builds(chain_with_reducible_parts, st.integers(0, 2**32 - 1), st.integers(2, 7),
                 st.sampled_from([0.05, 0.3, 1.0]), st.booleans(), st.booleans()))
def test_unordered_pairs_keep_the_radius_and_the_power_norms(P):
    # the ordered-pair matrix commutes with the swap, so its quotient on
    # unordered pairs has the same spectral radius and the same max row sum
    # of every power
    M = loop_coupling_matrix(P)
    Q = coupling_matrices(P[None])[0]
    assert Q.shape == (M.shape[0] // 2,) * 2
    rho_M = np.abs(np.linalg.eigvals(M)).max()
    assert np.abs(np.linalg.eigvals(Q)).max() == pytest.approx(rho_M, rel=1e-12, abs=1e-12)
    for n in (1, 3, 7):
        norm_M = np.linalg.matrix_power(M, n).sum(axis=1).max()
        assert np.linalg.matrix_power(Q, n).sum(axis=1).max() == pytest.approx(
            norm_M, rel=1e-14, abs=1e-15)


# ---------------------------------------------------------------------------
# matrix-free pair operator


def gamma(n):
    """gamma_n = n u / (1 - n u), the bound on n roundings (Higham 2002, 3.1)."""
    u = EPS / 2
    return n * u / (1.0 - n * u)


def operator_chain(seed, p, a, duplicate, zero_columns):
    """Dirichlet(a) rows on the last p - ``zero_columns`` states (no state
    enters the first ones).  A ``duplicate`` share s makes row 1 row 0
    with s of its mass spread evenly: s = 0 is a kappa = 1 pair, s = 1e-13
    a pair within ``_ONE_TOL`` of it, dead with nonzero residuals."""
    z = min(zero_columns, p - 1)
    P = np.zeros((p, p))
    P[:, z:] = np.random.default_rng(seed).dirichlet(np.full(p - z, a), size=p)
    P /= P.sum(axis=1, keepdims=True)
    if duplicate is not None:
        P[1] = (1.0 - duplicate) * P[0] + duplicate / p
    return P


def pair_matvec(P):
    """The matrix-free operator of one chain, with the residual rows it is
    built from."""
    rows = [a[0] for a in coupling._residual_rows(P[None])]
    return coupling._pair_matvec(*rows), rows


duplicates = st.sampled_from([None, 0.0, 1e-13])
operator_chains = st.builds(operator_chain, st.integers(0, 2**32 - 1), st.integers(2, 20),
                            st.floats(0.05, 1.0), duplicates, st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(operator_chains, st.integers(0, 2**32 - 1))
def test_pair_matvec_equals_the_dense_matrix(P, seed):
    p = P.shape[0]
    d = p * (p - 1) // 2
    x = np.random.default_rng(seed).dirichlet(np.ones(d)) if d > 1 else np.ones(1)
    matvec, _ = pair_matvec(P)
    y = matvec(x)
    z = coupling_matrices(P[None])[0] @ x
    assert y.shape == (d,) and np.all(y >= 0.0)
    assert np.all(np.abs(y - z) <= gamma(2 * p + 3) * z)     # dead rows: both exactly 0


@settings(max_examples=25, deadline=None)
@given(st.builds(operator_chain, st.integers(0, 2**32 - 1), st.integers(2, 8),
                 st.floats(0.05, 1.0), duplicates, st.integers(0, 3)),
       st.integers(0, 2**32 - 1), st.booleans())
def test_pair_matvec_is_within_its_rounding_bound(P, seed, with_zeros):
    # against the operator given by the computed r1, r2 and 1 - kappa in
    # exact rational arithmetic: at most 2p + 1 roundings per entry
    p = P.shape[0]
    d = p * (p - 1) // 2
    x = np.random.default_rng(seed).dirichlet(np.ones(d)) if d > 1 else np.ones(1)
    if with_zeros:
        x[::3] = 0.0                    # the trimmed iterate of the bracket's lower end
    matvec, (r1, r2, one_minus_k, dead) = pair_matvec(P)
    y = matvec(x)
    X = np.zeros((p, p))
    iu, ju = np.triu_indices(p, 1)
    X[iu, ju] = X[ju, iu] = x
    assert np.all(y[dead] == 0.0)
    for i in np.flatnonzero(~dead):
        exact = sum(Fraction(r1[i, a]) * Fraction(X[a, b]) * Fraction(r2[i, b])
                    for a in range(p) for b in range(p)) / Fraction(one_minus_k[i])
        assert abs(Fraction(y[i]) - exact) <= Fraction(gamma(2 * p + 1)) * exact


@settings(max_examples=20, deadline=None)
@given(st.builds(chain_with_reducible_parts, st.integers(0, 2**32 - 1), st.integers(11, 16),
                 st.sampled_from([0.05, 0.3, 1.0]), st.booleans(), st.booleans()))
def test_matrix_free_bracket_holds_the_spectral_radius(P):
    M = build_coupling_matrix(StochasticMatrix(P))
    est = coupling_radii(P[None])
    assert_spectral_path(M, est.r[0], est.eps[0])
    dense = coupling._dense_radii(M.entries[None])
    if closed(est.r[0], est.eps[0]) and closed(dense.r[0], dense.eps[0]):
        # two certified brackets of operators within a few roundings of each other
        w = max(est.eps[0], dense.eps[0]) + 8 * EPS * est.r[0]
        assert abs(est.r[0] - dense.r[0]) <= w


def test_matrix_free_mixed_stack_equals_its_items():
    # closed, stalled and all-dead items in one stack, each as if alone
    p = BRACKET_P_MIN
    gen = np.random.default_rng(5)
    chains = np.stack([dirichlet_chain(gen, p), fixed_chain("near-permutation", p),
                       fixed_chain("all rows equal", p), dirichlet_chain(gen, p, 0.05)])
    est = coupling_radii(chains)
    assert [closed(r, eps) for r, eps in zip(est.r, est.eps)] == [True, False, True, True]
    assert (est.r[2], est.eps[2]) == (0.0, 0.0)
    for i, P in enumerate(chains):
        alone = coupling_radii(P[None])
        assert (est.r[i], est.eps[i]) == (alone.r[0], alone.eps[0])


def test_mixed_stack_equals_its_items():
    # closed, stalled and M = 0 items in one stack, in either order, each
    # as the one-chain spectral_radius of its pair matrix gives it
    p = BRACKET_P_MIN
    gen = np.random.default_rng(5)
    chains = np.stack([dirichlet_chain(gen, p), fixed_chain("near-permutation", p),
                       fixed_chain("all rows equal", p), dirichlet_chain(gen, p, 0.05)])
    est = coupling_radii(chains)
    rev = coupling_radii(chains[::-1])
    assert [closed(r, eps) for r, eps in zip(est.r, est.eps)] == [True, False, True, True]
    for i, P in enumerate(chains):
        alone = spectral_radius(build_coupling_matrix(StochasticMatrix(P)))
        assert (est.r[i], est.eps[i]) == (alone.r, alone.eps)
        j = len(chains) - 1 - i
        assert (rev.r[j], rev.eps[j]) == (alone.r, alone.eps)


@pytest.mark.parametrize("P", [dirichlet_chain(np.random.default_rng(p), p) for p in (4, 10, 11, 16)]
                         + [fixed_chain("near-permutation", BRACKET_P_MIN)])
def test_one_radius_per_chain(P):
    single = spectral_radius(build_coupling_matrix(StochasticMatrix(P)))
    est = coupling_radii(P[None])
    assert (single.r, single.eps) == (est.r[0], est.eps[0])


def test_report_radius_is_the_one_chain_radius():
    K = load_model(Path(__file__).parent / "golden" / "p16_model.json")
    report = full_report(K, 3, seed=0)
    single = spectral_radius(build_coupling_matrix(StochasticMatrix(K.coeff[0])))
    assert (report.r, report.eps) == (single.r, single.eps)


def test_coupling_radii_rejects_bad_stacks():
    with pytest.raises(DimensionMismatchError):
        coupling_radii(np.eye(12))
    with pytest.raises(ValueError, match="row sums"):
        coupling_radii(np.full((1, 12, 12), 0.5))


@pytest.mark.parametrize("bad, message", [
    (np.array([[0.5, 0.5], [1.1, -0.1]]), "lie in"),
    (np.array([[0.5, 0.5], [0.5, 0.6]]), "row sums"),
    (np.array([[0.5, 0.5], [np.nan, 0.5]]), "finite"),
])
def test_coupling_matrices_validates_every_item(bad, message):
    good = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ValueError, match=message):
        coupling_matrices(np.stack([good, bad]))
    with pytest.raises(ValueError, match=message):
        StochasticMatrix(bad)


def test_batched_coupling_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        coupling_matrices(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        coupling_matrices(np.ones((2, 1, 1)))


# ---------------------------------------------------------------------------
# spectral radius and max-row-sum norm; the diagonal, zero and random
# sub-stochastic matrices are no pair matrices of a chain, so they run the
# generic dense eig-seeded bracket


def test_spectral_radius_diagonal():
    M = np.diag([0.3, 0.1, 0.2])
    est = coupling._dense_radii(M[None])
    assert est.r[0] == pytest.approx(0.3, abs=1e-9)
    assert max_row_sum(M) == pytest.approx(0.3)


def test_spectral_radius_zero_matrix():
    M = np.zeros((3, 3))
    est = coupling._dense_radii(M[None])
    assert est.r[0] == 0.0 and est.eps[0] == 0.0
    assert max_row_sum(M) == 0.0


def test_spectral_radius_example1_matches_eigenvalue_oracle(p1_matrix):
    M = build_coupling_matrix(p1_matrix)
    est = spectral_radius(M)
    oracle = float(np.abs(np.linalg.eigvals(M.entries)).max())
    assert est.r == pytest.approx(oracle, abs=1e-6)
    assert est.r + est.eps == pytest.approx(0.36, abs=0.02)
    # the published one-step value
    assert 2 * (1 - 1 / 4) * (est.r + est.eps) == pytest.approx(0.54, abs=0.02)


def test_spectral_radius_below_one_norm(p1_matrix, p2_matrix):
    for P in (p1_matrix, p2_matrix):
        M = build_coupling_matrix(P)
        est = spectral_radius(M)
        assert est.r <= max_row_sum(M.entries) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_spectral_radius_random_substochastic(seed, p):
    gen = np.random.default_rng(seed)
    d = p * (p - 1) // 2
    arr = gen.random((d, d))
    arr *= gen.random() / arr.sum(axis=1, keepdims=True)  # row sums < 1
    est = coupling._dense_radii(arr[None])
    assert est.r[0] <= max_row_sum(arr) + 1e-12
    eig = float(np.abs(np.linalg.eigvals(arr)).max())
    assert est.r[0] == pytest.approx(eig, abs=1e-5)


# ---------------------------------------------------------------------------
# lemma_check


def test_lemma_check_equal_starts(p1_matrix):
    mu = Distribution([0.25] * 4)
    report = lemma_check(p1_matrix, mu, mu, 3, 5000, rng=2)
    assert (report.q_empirical == 1.0).all()
    assert report.passed


def test_lemma_check_example1(p1_matrix):
    mu0, nu0 = Distribution([1, 0, 0, 0]), Distribution([0.25] * 4)
    report = lemma_check(p1_matrix, mu0, nu0, 5, 100_000, rng=6)
    assert report.tv1.max() < 0.02
    assert report.tv2.max() < 0.02
    assert np.abs(report.q_empirical - report.q_exact).max() < 0.01
    assert report.passed
    # empirical equality frequency is nondecreasing within 2 standard errors
    se = np.sqrt(report.q_exact * (1 - report.q_exact) / 100_000)
    assert (np.diff(report.q_empirical) >= -2 * (se[1:] + se[:-1])).all()
    # the stepwise pair chain systematically lags the overlap
    gap = overlap_curve(p1_matrix, mu0, nu0, 5) - pairchain_meet_curve(p1_matrix, mu0, nu0, 5)
    assert gap.min() >= -1e-12
    assert gap[1] > 0.01


def test_lemma_check_builds_no_pair_matrix(p1_matrix, monkeypatch):
    mu0, nu0 = Distribution([1, 0, 0, 0]), Distribution([0.25] * 4)
    expected = lemma_check(p1_matrix, mu0, nu0, 5, 2000, rng=6)

    def no_pair_matrix(Ps):
        raise RuntimeError("lemma_check built a pair matrix")

    monkeypatch.setattr(coupling, "coupling_matrices", no_pair_matrix)
    report = lemma_check(p1_matrix, mu0, nu0, 5, 2000, rng=6)
    assert list(report.rows()) == list(expected.rows())
    assert report.passed == expected.passed


def test_lemma_tolerances_shrink_with_samples():
    tv, q = lemma_tolerances(4, 100_000)
    assert tv == pytest.approx(0.0182, abs=1e-4) and q == pytest.approx(0.0085, abs=1e-4)
    tv, q = lemma_tolerances(4, 5000)
    assert tv == pytest.approx(0.0815, abs=1e-4) and q == pytest.approx(0.0381, abs=1e-4)
    # a quarter of the samples doubles both tolerances
    assert lemma_tolerances(4, 1250) == pytest.approx((2 * tv, 2 * q), rel=1e-12)
    assert lemma_tolerances(8, 5000)[0] > lemma_tolerances(4, 5000)[0]
    assert lemma_tolerances(8, 5000)[1] == lemma_tolerances(4, 5000)[1]


_draw_split = coupling._draw_split     # the real sampler, kept before a test patches it


def _residual_draws(laws, size, rng):
    """Broken coupling: never draws from the overlap law, so x1 != x2 always."""
    return _draw_split(SplitLaws(laws.eta1, laws.eta2, laws.xi, 0.0), size, rng)


def _independent_draws(laws, size, rng):
    """Broken coupling: exact marginals, drawn independently of each other."""
    mu = Distribution(laws.q * laws.xi.probs + (1.0 - laws.q) * laws.eta1.probs)
    nu = Distribution(laws.q * laws.xi.probs + (1.0 - laws.q) * laws.eta2.probs)
    return _draw_split(SplitLaws(mu, nu, mu, 0.0), size, rng)


@pytest.mark.parametrize("draws", [_residual_draws, _independent_draws],
                         ids=["residual", "independent"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lemma_check_fails_a_broken_coupling(p1_matrix, monkeypatch, draws, seed):
    monkeypatch.setattr(coupling, "_draw_split", draws)
    report = lemma_check(p1_matrix, Distribution([1, 0, 0, 0]),
                         Distribution([0.25] * 4), 5, 5000, rng=seed)
    assert not report.underpowered and not report.passed
    assert report.q_exact[1:].min() > 0.8
    assert report.q_empirical.max() < (0.01 if draws is _residual_draws else 0.3)
    if draws is _independent_draws:
        # the marginals pass, so the equality-frequency check alone fails it
        assert max(report.tv1.max(), report.tv2.max()) <= lemma_tolerances(4, 5000)[0]


def test_lemma_check_identity_disjoint():
    eye = StochasticMatrix(np.eye(3))
    report = lemma_check(eye, Distribution([1, 0, 0]), Distribution([0, 0, 1]),
                         4, 2000, rng=0)
    assert (report.q_exact == 0.0).all()
    assert (report.q_empirical == 0.0).all()


def test_lemma_check_underpowered_gate(p1_matrix):
    mu = Distribution([0.25] * 4)
    report = lemma_check(p1_matrix, mu, mu, 2, 10, rng=0)
    assert report.underpowered


@pytest.mark.parametrize("samples", [0, -5])
def test_lemma_check_rejects_samples_below_one(p1_matrix, samples):
    mu = Distribution([0.25] * 4)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="samples must be >= 1"):
        lemma_check(p1_matrix, mu, mu, 2, samples, rng)
    assert rng.bit_generator.state == state     # raised before any draw


def test_overlap_curve_monotone(p1_matrix):
    q = overlap_curve(p1_matrix, Distribution([1, 0, 0, 0]), Distribution([0.25] * 4), 10)
    assert (np.diff(q) >= -1e-12).all()
