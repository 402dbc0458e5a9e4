"""Maximal-coupling construction for finite Markov chains.

Two chains sharing a transition matrix are realized jointly through the
quadruple (eta1, eta2, xi, zeta): while zeta = 1 the chains move through
the residual laws eta1/eta2, with probability kappa(x1, x2) per step of
dropping into the overlap law xi, after which zeta = 0 and the chains
coincide forever.  The not-yet-met dynamics restricted to ordered distinct
pairs form a sub-stochastic matrix whose spectral radius sets the
geometric rate of convergence in total variation.

The construction has one split and one sampler: ``split_densities`` alone
forms the overlap and residual laws (``marginal_kernels`` splits two rows),
and ``_draw_split`` makes every joint draw, one pair at a time for
``sample_coupled_pair`` and ``simulate_coupled_chain``, a whole sample per
step for ``lemma_check``.

The coupling operator is batch-first: ``coupling_matrices`` builds the pair
matrices of a (B, p, p) stack of transition matrices and ``spectral_radii``
estimates their spectral radii; ``build_coupling_matrix`` and
``spectral_radius`` are their one-matrix wrappers.  ``spectral_radii`` picks
its path from d = p(p - 1).  Below ``_BRACKET_MIN_DIM`` = 100 (p <= 10) the
whole stack runs the Gelfand iteration, 20 dense squarings at 2 d^3 flops
each; from there on each matrix runs a certified Collatz-Wielandt bracket
by power iteration, O(d^2) per step.  The cutover is measured on
Dirichlet(0.3) chains: Gelfand is faster at d = 90, the bracket from
d = 110.  On both paths r + eps bounds rho from above; on the bracket path
[r - eps, r] is a certified bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Distribution, StochasticMatrix, _check_stochastic, _clean_probs
from .errors import DimensionMismatchError
from .rng import as_generator

_ONE_TOL = 1e-12    # row overlaps / overlap masses this close to 1 are treated as 1
LEMMA_DELTA = 1e-6      # lemma_check: false-alarm probability of each tolerance check
_BRACKET_MIN_DIM = 100  # spectral_radii: smallest d that takes the bracket path (measured cutover)
_BRACKET_RTOL = 1e-12   # the bracket closes when hi - lo <= _BRACKET_RTOL * hi
_BRACKET_BUDGET = 10    # bracket steps per row of M: about the 40 d^3 flops of 20 squarings
_NEGLIGIBLE = 1e-8      # iterate entries below this share of the largest leave the lower end


def overlap_q(mu: Distribution, nu: Distribution) -> float:
    """Overlap mass sum_x min(mu(x), nu(x)) = 1 - TV/2, in [0, 1]."""
    if mu.p != nu.p:
        raise DimensionMismatchError(f"dimension mismatch: {mu.p} vs {nu.p}")
    return float(np.minimum(mu.probs, nu.probs).sum())


@dataclass(frozen=True)
class SplitLaws:
    """The three component laws of the one-shot maximal coupling."""

    eta1: Distribution
    eta2: Distribution
    xi: Distribution
    q: float


def split_densities(mu: Distribution, nu: Distribution) -> SplitLaws:
    """Residual laws (mu - min)/ (1-q), (nu - min)/(1-q) and overlap law min/q.

    Degenerate overlaps fall back to the conventions q=1 -> (mu, mu, mu, 1)
    and q=0 -> (mu, nu, mu, 0).
    """
    if mu.p != nu.p:
        raise DimensionMismatchError(f"dimension mismatch: {mu.p} vs {nu.p}")
    m = np.minimum(mu.probs, nu.probs)
    q = float(m.sum())
    if q >= 1.0 - _ONE_TOL:
        return SplitLaws(mu, mu, mu, 1.0)
    if q <= 0.0:
        return SplitLaws(mu, nu, mu, 0.0)
    r1 = mu.probs - m
    r2 = nu.probs - m
    return SplitLaws(
        Distribution(r1 / r1.sum()),
        Distribution(r2 / r2.sum()),
        Distribution(m / q),
        q,
    )


def kappa(P: StochasticMatrix, x1: int, x2: int) -> float:
    """Row overlap sum_y min(P(x1,y), P(x2,y))."""
    return float(np.minimum(P.entries[x1], P.entries[x2]).sum())


@dataclass(frozen=True)
class CouplingState:
    """Current quadruple of the coupled construction (0-based states)."""

    eta1: int
    eta2: int
    xi: int
    zeta: int

    def __post_init__(self):
        if self.zeta not in (0, 1):
            raise ValueError("zeta must be 0 or 1")


@dataclass(frozen=True)
class MarginalKernels:
    """One-step laws of the four coordinates given the current quadruple.

    ``zeta_law`` is over {0, 1} as [P(next=0), P(next=1)].
    """

    eta1_law: Distribution
    eta2_law: Distribution
    xi_law: Distribution
    zeta_law: np.ndarray
    kappa: float


def marginal_kernels(P: StochasticMatrix, s: CouplingState) -> MarginalKernels:
    """Transition laws of (eta1, eta2, xi, zeta) from state ``s``: the split
    of rows eta1 and eta2 (see ``split_densities``).

    zeta = 0 is absorbing and makes xi carry the merged chain; kappa = 0
    leaves no overlap to land in, so xi then also moves as the base chain.
    """
    laws = split_densities(P.row(s.eta1), P.row(s.eta2))
    zeta_law = np.array([1.0, 0.0] if s.zeta == 0 else [laws.q, 1.0 - laws.q])
    xi_law = P.row(s.xi) if s.zeta == 0 or laws.q <= 0.0 else laws.xi
    return MarginalKernels(laws.eta1, laws.eta2, xi_law, zeta_law, laws.q)


def _draw_split(laws: SplitLaws, size: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``size`` joint draws (x1, x2, met) through the split: met with
    probability q, then a common draw from xi, else independent draws from
    eta1 and eta2 (all met draws first, then eta1, then eta2)."""
    p = laws.xi.p
    met = rng.random(size) < laws.q
    x1 = np.empty(size, dtype=np.intp)
    x2 = np.empty(size, dtype=np.intp)
    n_met = int(met.sum())
    if n_met:
        x1[met] = x2[met] = rng.choice(p, size=n_met, p=laws.xi.probs)
    if size - n_met:
        x1[~met] = rng.choice(p, size=size - n_met, p=laws.eta1.probs)
        x2[~met] = rng.choice(p, size=size - n_met, p=laws.eta2.probs)
    return x1, x2, met


def sample_coupled_pair(mu: Distribution, nu: Distribution, rng) -> tuple[int, int, int]:
    """Draw (x1, x2, zeta) with marginals mu, nu and P(x1 = x2) >= overlap."""
    x1, x2, met = _draw_split(split_densities(mu, nu), 1, as_generator(rng))
    return int(x1[0]), int(x2[0]), 0 if met[0] else 1


@dataclass(frozen=True)
class CoupledTrajectories:
    traj1: np.ndarray
    traj2: np.ndarray
    zeta: np.ndarray
    meet_step: int | None


def simulate_coupled_chain(
    P: StochasticMatrix,
    mu0: Distribution,
    nu0: Distribution,
    n: int,
    rng,
) -> CoupledTrajectories:
    """Run one coupled pair for n steps; reports the first step with zeta=0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = as_generator(rng)
    traj1 = np.empty(n + 1, dtype=np.intp)
    traj2 = np.empty(n + 1, dtype=np.intp)
    zeta = np.empty(n + 1, dtype=np.intp)
    x1, x2, z = sample_coupled_pair(mu0, nu0, rng)
    traj1[0], traj2[0], zeta[0] = x1, x2, z
    for t in range(n):
        if z == 0:
            x1 = x2 = int(rng.choice(P.p, p=P.entries[x1]))
        else:
            x1, x2, z = sample_coupled_pair(P.row(x1), P.row(x2), rng)
        traj1[t + 1], traj2[t + 1], zeta[t + 1] = x1, x2, z
    met = np.nonzero(zeta == 0)[0]
    return CoupledTrajectories(traj1, traj2, zeta, int(met[0]) if met.size else None)


@dataclass(frozen=True)
class CouplingMatrix:
    """Sub-stochastic matrix over ordered distinct state pairs.

    Row/column ``i`` corresponds to ``pairs[i]``; the bijection is
    row-major over (x1, x2), x1 != x2, skipping the diagonal.
    """

    p: int
    entries: np.ndarray

    def __post_init__(self):
        d = self.p * (self.p - 1)
        m = np.asarray(self.entries, dtype=np.float64)
        if m.shape != (d, d):
            raise DimensionMismatchError(f"coupling matrix must be {d} x {d}")
        if m.min() < 0.0:
            raise ValueError("coupling matrix entries must be nonnegative")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.p * (self.p - 1)

    def index_of(self, x1: int, x2: int) -> int:
        if x1 == x2:
            raise ValueError("diagonal pairs are not part of the coupling space")
        return x1 * (self.p - 1) + (x2 if x2 < x1 else x2 - 1)

    def pair_of(self, index: int) -> tuple[int, int]:
        x1, r = divmod(index, self.p - 1)
        x2 = r if r < x1 else r + 1
        return x1, x2

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [self.pair_of(i) for i in range(self.dim)]


def coupling_matrices(Ps) -> np.ndarray:
    """Not-yet-met pair dynamics of a (B, p, p) stack of transition
    matrices, as a (B, d, d) stack with d = p(p - 1).

    Entry [(x1,x2),(y1,y2)] = residual1(y1) * residual2(y2) / (1 - kappa),
    where residual_i(y) = P(x_i, y) - min(P(x1,y), P(x2,y)).  The residuals
    have disjoint supports, so diagonal targets carry no mass and each row
    sums to exactly 1 - kappa(x1, x2).  Rows with kappa = 1 are zero.  The
    rows are filled one x1 block of p - 1 pairs at a time, so no temporary
    grows beyond (B, p - 1, p * p).
    """
    Ps = np.asarray(Ps, dtype=np.float64)
    if Ps.ndim != 3:
        raise DimensionMismatchError("need a (B, p, p) stack of transition matrices")
    _check_stochastic(Ps)
    B, p, _ = Ps.shape
    off_diagonal = ~np.eye(p, dtype=bool).ravel()      # row-major (y1, y2), y1 != y2
    M = np.zeros((B, p * (p - 1), p * (p - 1)))
    for x1 in range(p):
        row1 = Ps[:, x1, None, :]                       # (B, 1, p)
        rows2 = Ps[:, np.arange(p) != x1, :]            # (B, p - 1, p): x2 != x1
        m = np.minimum(row1, rows2)
        k = m.sum(axis=-1)
        dead = k >= 1.0 - _ONE_TOL
        block = ((row1 - m)[..., :, None] * (rows2 - m)[..., None, :]).reshape(B, p - 1, p * p)
        block = block[..., off_diagonal]
        block /= np.where(dead, 1.0, 1.0 - k)[..., None]
        block[dead] = 0.0
        M[:, x1 * (p - 1):(x1 + 1) * (p - 1)] = block
    return M


def build_coupling_matrix(P: StochasticMatrix) -> CouplingMatrix:
    """Pair matrix of one transition matrix (see ``coupling_matrices``)."""
    return CouplingMatrix(P.p, coupling_matrices(P.entries[None])[0])


def _max_row_sums(A: np.ndarray) -> np.ndarray:
    return A.sum(axis=-1).max(axis=-1)


def max_row_sum_norm(M: CouplingMatrix) -> float:
    """Max row sum, the induced infinity-norm (entries are nonnegative)."""
    return float(_max_row_sums(M.entries))


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    r: float
    eps: float
    squarings: int
    estimates: np.ndarray


@dataclass(frozen=True)
class SpectralRadii:
    """Per-item estimates of a stack: r + eps bounds rho from above on both
    paths.  ``estimates[i]`` has ``squarings[i] + 1`` entries: the Gelfand
    sequence, or (r,) for an item the bracket closed (squarings 0)."""

    r: np.ndarray
    eps: np.ndarray
    squarings: np.ndarray
    estimates: tuple


def _gelfand(Ms: np.ndarray, K_max: int) -> SpectralRadii:
    """Gelfand estimates r_k = ||M^(2^k)||^(1/2^k) of a (B, d, d) stack by
    repeated squaring, all items advancing together.

    Powers are renormalized after every squaring (the log scale is carried
    separately) so the iteration cannot under- or overflow.  The sequence
    is nonincreasing; ``eps`` is the final decrement, an upper bound on
    how unconverged the estimate still is in practice.  An item whose
    power vanishes stops there with r = eps = 0.
    """
    steps = 0
    while 2 ** (steps + 1) <= K_max:
        steps += 1
    B = Ms.shape[0]
    est = np.zeros((B, steps + 1))
    squarings = np.zeros(B, dtype=int)
    est[:, 0] = norm0 = _max_row_sums(Ms)
    live = np.flatnonzero(norm0 != 0.0)
    A = Ms[live] / norm0[live, None, None]
    log_scale = np.log(norm0[live])
    for k in range(1, steps + 1):
        if live.size == 0:
            break
        A = A @ A
        c = _max_row_sums(A)
        if not np.all(np.isfinite(c)):
            raise FloatingPointError("non-finite intermediate in spectral radius iteration")
        squarings[live] = k
        vanished = c == 0.0
        if vanished.any():      # est[., k] stays 0 for these
            live, A, c, log_scale = (a[~vanished] for a in (live, A, c, log_scale))
        A /= c[:, None, None]
        log_scale = 2.0 * log_scale + np.log(c)
        est[live, k] = np.exp(log_scale / 2**k)
    r = np.zeros(B)
    eps = np.zeros(B)
    r[live] = est[live, steps]
    if steps:
        eps[live] = np.maximum(0.0, est[live, steps - 1] - est[live, steps])
    return SpectralRadii(r, eps, squarings,
                         tuple(est[i, :n + 1] for i, n in enumerate(squarings.tolist())))


def _perron_bracket(M: np.ndarray) -> tuple[float, float] | None:
    """Certified bracket lo <= rho(M) <= hi of one nonnegative (d, d) matrix,
    or None when it does not close within the budget.

    Power iteration x <- (M + I) x / sum from the uniform start, one BLAS
    matvec y = M x per step.  Collatz-Wielandt (Horn & Johnson, Matrix
    Analysis, ch. 8): hi = max_i y_i / x_i on the strictly positive
    iterate, and lo = min of (M x')_i / x'_i over the support of any
    nonnegative x' != 0.
    Taking x' as x with its negligible entries zeroed lets reducible M
    close, where the decaying entries pin min_i y_i / x_i to a smaller
    class's radius.  Both ends are widened by the rounding error of a
    nonnegative matvec and of the quotient, gamma_(d+1) (Higham 2002, 3.1),
    with three more units for rounding the widening itself.
    """
    d = M.shape[0]
    if not M.min() >= 0.0:         # a negative or NaN entry: no certificate
        return None
    x = np.full(d, 1.0 / d)
    lo, hi = 0.0, np.inf
    for _ in range(_BRACKET_BUDGET * d):
        y = M @ x
        ratio = y / x
        hi = min(hi, float(ratio.max()))
        lo = max(lo, float(ratio.min()))
        if hi - lo > _BRACKET_RTOL * hi:
            keep = x > _NEGLIGIBLE * x.max()
            if not keep.all():
                lo = max(lo, float(((M @ np.where(keep, x, 0.0))[keep] / x[keep]).min()))
        if hi - lo <= _BRACKET_RTOL * hi < np.inf:      # closed, on a finite hi
            u = (d + 4) * np.finfo(np.float64).eps / 2
            gamma = u / (1.0 - u)
            return lo * (1.0 - gamma), hi * (1.0 + gamma)
        x = y + x
        x /= x.sum()
        if not x.min() > 0.0:       # underflow (or a non-finite M): give up
            return None
    return None


def spectral_radii(Ms, K_max: int = 2**20) -> SpectralRadii:
    """Spectral radii of a (B, d, d) stack of nonnegative matrices, by one
    of two paths chosen from d.

    Below ``_BRACKET_MIN_DIM`` every item runs the Gelfand iteration
    (``_gelfand``, up to K_max powers): r is the last estimate, which can
    only overshoot rho (by about 2e-7 relative at K_max = 2^20), and eps the
    last decrement, a measure of how unconverged r still is rather than a
    certificate.  From the cutover on, each item runs the Collatz-Wielandt
    bracket (``_perron_bracket``): r = hi and eps = hi - lo, with
    lo <= rho <= hi certified to 1e-12 relative; squarings reads 0 and
    estimates (r,).  The cutover comes from a sweep over Dirichlet(0.3)
    chains, one matrix per call, on a 2-core x86 VM with OpenBLAS (medians
    of 3, three sweeps): 8 chains took 10.5-11.6 ms by Gelfand and
    14.2-17.2 ms by the bracket at d = 90, 19.6-31.9 ms and 17.6-18.0 ms at
    d = 110, and 90-96 ms and 20-21 ms at d = 240.  An item whose bracket does not close
    within ``_BRACKET_BUDGET`` * d steps (about the flops of the 20
    squarings), or whose iterate loses strict positivity, falls back to
    Gelfand.  On both paths r + eps bounds rho from above, and
    r = eps = 0 when M = 0.
    """
    if K_max < 1:
        raise ValueError("K_max must be >= 1")
    Ms = np.asarray(Ms, dtype=np.float64)
    if Ms.ndim != 3 or Ms.shape[1] != Ms.shape[2]:
        raise DimensionMismatchError("need a (B, d, d) stack of square matrices")
    if Ms.shape[1] < _BRACKET_MIN_DIM:
        return _gelfand(Ms, K_max)
    brackets = [_perron_bracket(M) for M in Ms]
    fallback = [i for i, b in enumerate(brackets) if b is None]
    gelfand = _gelfand(Ms[fallback], K_max)
    r = np.array([0.0 if b is None else b[1] for b in brackets])
    eps = np.array([0.0 if b is None else b[1] - b[0] for b in brackets])
    squarings = np.zeros(len(brackets), dtype=int)
    estimates = [np.array([r_i]) for r_i in r]
    r[fallback], eps[fallback], squarings[fallback] = gelfand.r, gelfand.eps, gelfand.squarings
    for i, e in zip(fallback, gelfand.estimates):
        estimates[i] = e
    return SpectralRadii(r, eps, squarings, tuple(estimates))


def spectral_radius(M: CouplingMatrix, K_max: int = 2**20) -> SpectralRadiusEstimate:
    """Spectral radius of one pair matrix (see ``spectral_radii``)."""
    est = spectral_radii(M.entries[None], K_max)
    return SpectralRadiusEstimate(float(est.r[0]), float(est.eps[0]),
                                  int(est.squarings[0]), est.estimates[0])


# ---------------------------------------------------------------------------
# statistical validation of the coupled construction


def exact_laws(P: StochasticMatrix, mu0: Distribution, n: int) -> np.ndarray:
    """Exact marginal laws mu_0..mu_n as an (n+1, p) array."""
    out = np.empty((n + 1, P.p))
    out[0] = mu0.probs
    for t in range(n):
        out[t + 1] = out[t] @ P.entries
    return out


def overlap_curve(P: StochasticMatrix, mu0: Distribution, nu0: Distribution, n: int) -> np.ndarray:
    """q_t = overlap of the exact laws at t = 0..n (nondecreasing)."""
    law1 = exact_laws(P, mu0, n)
    law2 = exact_laws(P, nu0, n)
    return np.minimum(law1, law2).sum(axis=1)


def pairchain_meet_curve(P: StochasticMatrix, mu0: Distribution, nu0: Distribution, n: int) -> np.ndarray:
    """Exact P(pair chain has met by step t) via powers of the pair matrix.

    The not-yet-met mass evolves under the sub-stochastic pair matrix, so
    meet-by-t = 1 - w0^T M^t 1 with w0 the initial off-diagonal mass.
    This is systematically below the overlap curve: the stepwise pair
    chain meets later than the per-step maximal coupling of the laws.
    """
    laws0 = split_densities(mu0, nu0)
    M = build_coupling_matrix(P)
    joint = np.outer(laws0.eta1.probs, laws0.eta2.probs) * (1.0 - laws0.q)
    w = joint[~np.eye(M.p, dtype=bool)]             # row-major over x1 != x2, as M.pairs
    out = np.empty(n + 1)
    out[0] = 1.0 - w.sum()
    for t in range(n):
        w = w @ M.entries
        out[t + 1] = 1.0 - w.sum()
    return out


@dataclass(frozen=True)
class LemmaCheckReport:
    """Per-step comparison of the sampled coupling against exact laws.

    Columns: tv1[t] / tv2[t] are TV distances between empirical marginals
    and the exact propagated laws; q_exact[t] is the overlap of the exact
    laws and q_empirical[t] the observed equality frequency.

    ``pairchain_meet_gap`` flags the systematic excess q_t minus the exact
    meet-by-t probability of the stepwise pair chain: the two notions of
    "being coupled at t" genuinely differ, and the gap is reported rather
    than folded into the pass decision.
    """

    steps: np.ndarray
    tv1: np.ndarray
    tv2: np.ndarray
    q_exact: np.ndarray
    q_empirical: np.ndarray
    pairchain_meet_gap: np.ndarray
    samples: int
    passed: bool
    underpowered: bool

    def rows(self):
        for i in range(self.steps.size):
            yield (int(self.steps[i]), float(self.tv1[i]), float(self.tv2[i]),
                   float(self.q_exact[i]), float(self.q_empirical[i]))


def lemma_tolerances(p: int, samples: int) -> tuple[float, float]:
    """Monte-Carlo tolerances of ``lemma_check`` at false-alarm level
    ``LEMMA_DELTA`` per check, for ``samples`` draws on p states.

    TV: the L1 deviation of an empirical law of n draws on p states
    exceeds eps with probability at most (2^p - 2) exp(-n eps^2 / 2)
    (Weissman et al. 2003), so eps = sqrt(2 (p ln 2 + ln(1/delta)) / n).
    q: the equality frequency is a mean of n Bernoulli(q_t) draws, so by
    Hoeffding eps = sqrt(ln(2/delta) / (2 n)).  Both shrink as 1/sqrt(n):
    0.018 and 0.0085 at p = 4, n = 100000.
    """
    tv_tol = math.sqrt(2.0 * (p * math.log(2.0) + math.log(1.0 / LEMMA_DELTA)) / samples)
    q_tol = math.sqrt(math.log(2.0 / LEMMA_DELTA) / (2.0 * samples))
    return tv_tol, q_tol


def lemma_check(
    P: StochasticMatrix,
    mu0: Distribution,
    nu0: Distribution,
    n: int,
    samples: int,
    rng,
) -> LemmaCheckReport:
    """Sample the coupling of the exact laws at every step and verify it.

    At each t the pair (X1_t, X2_t) is drawn through the split of the
    exact laws (mu_t, nu_t): common draw from the overlap law with
    probability q_t, independent residual draws otherwise.  The sampled
    marginals must reproduce the laws and the equality frequency must
    match q_t; both are binomial-accurate, so the thresholds are
    Monte-Carlo tolerances that shrink with the sample count
    (``lemma_tolerances``); fewer than 1000 samples marks the report
    underpowered.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = as_generator(rng)
    p = P.p

    law1 = exact_laws(P, mu0, n)
    law2 = exact_laws(P, nu0, n)
    q_exact = np.minimum(law1, law2).sum(axis=1)

    tv1 = np.empty(n + 1)
    tv2 = np.empty(n + 1)
    q_emp = np.empty(n + 1)
    for t in range(n + 1):
        laws = split_densities(_clean_probs(law1[t]), _clean_probs(law2[t]))
        x1, x2, _ = _draw_split(laws, samples, rng)
        e1 = np.bincount(x1, minlength=p) / samples
        e2 = np.bincount(x2, minlength=p) / samples
        tv1[t] = np.abs(e1 - law1[t]).sum()
        tv2[t] = np.abs(e2 - law2[t]).sum()
        q_emp[t] = float((x1 == x2).mean())

    meet_gap = q_exact - pairchain_meet_curve(P, mu0, nu0, n)
    tv_tol, q_tol = lemma_tolerances(p, samples)
    passed = bool(
        tv1.max() <= tv_tol
        and tv2.max() <= tv_tol
        and np.abs(q_emp - q_exact).max() <= q_tol
    )
    return LemmaCheckReport(
        steps=np.arange(n + 1), tv1=tv1, tv2=tv2, q_exact=q_exact,
        q_empirical=q_emp, pairchain_meet_gap=meet_gap, samples=samples,
        passed=passed, underpowered=samples < 1000,
    )
