"""Maximal-coupling construction for finite Markov chains.

Two chains sharing a transition matrix are realized jointly through the
quadruple (eta1, eta2, xi, zeta): while zeta = 1 the chains move through
the residual laws eta1/eta2, with probability kappa(x1, x2) per step of
dropping into the overlap law xi, after which zeta = 0 and the chains
coincide forever.  The not-yet-met dynamics on distinct pairs form a
sub-stochastic matrix whose spectral radius sets the geometric rate of
convergence in total variation.  It commutes with swapping the two
chains, so it is kept on unordered pairs, d = p(p - 1)/2.

The construction has one split, one sampler and one law engine.
``_split`` alone forms the overlap, the residuals, the overlap mass and
the dead rule of two laws along their last axis: of one pair in
``split_densities``, of every state pair of a stack in ``_residual_rows``.
``_draw_split`` makes every joint draw, one pair at a time for
``sample_coupled_pair`` and ``simulate_coupled_chain``, a whole sample per
step for ``lemma_check``.  The exact laws come from ``chain.flow_batch``.

The coupling operator is batch-first.  ``_residual_rows`` forms the
residual rows r1, r2 and the mass 1 - kappa of every pair of a (B, p, p)
stack of transition matrices; ``coupling_matrices`` builds the dense pair
matrices from them.  ``coupling_radii``, the one radius engine behind
``bounds``, ``volatility`` and the one-chain wrappers
``build_coupling_matrix`` and ``spectral_radius``, brackets each pair
matrix's spectral radius by one certified Collatz-Wielandt iteration,
``_perron_brackets``: on the dense matrices from LAPACK's Perron vectors
below ``_BRACKET_MIN_DIM`` = 55 (p <= 10), from there on from the uniform
start on the matrix-free ``_pair_matvec`` (2 d p^2 flops and O(d p)
memory per step, no (d, d) array).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (Distribution, PolynomialKernel, StochasticMatrix, _check_stochastic,
                    _clean_probs, _state_sum, flow_batch)
from .errors import DimensionMismatchError
from .rng import as_generator

_ONE_TOL = 1e-12    # row overlaps / overlap masses this close to 1 are treated as 1
LEMMA_DELTA = 1e-6      # lemma_check: false-alarm probability of each tolerance check
_BRACKET_MIN_DIM = 55   # coupling_radii: smallest d that runs matrix-free (p >= 11)
_BRACKET_RTOL = 1e-12   # the bracket closes when lo >= (1 - _BRACKET_RTOL) hi
_BRACKET_BUDGET = 20    # bracket steps per row of Q: 10 p(p - 1), as measured on ordered pairs
_NEGLIGIBLE = 1e-8      # iterate entries below this share of the largest leave the lower end


@dataclass(frozen=True)
class SplitLaws:
    """The three component laws of the one-shot maximal coupling."""

    eta1: Distribution
    eta2: Distribution
    xi: Distribution
    q: float


def _split(a: np.ndarray, b: np.ndarray):
    """Split of laws a, b along their last axis: the residuals a - m, b - m,
    the overlap m = min(a, b), its mass q and the dead mask q >= 1 - _ONE_TOL."""
    m = np.minimum(a, b)
    q = m.sum(axis=-1)
    return a - m, b - m, m, q, q >= 1.0 - _ONE_TOL


def split_densities(mu: Distribution, nu: Distribution) -> SplitLaws:
    """Residual laws (mu - min)/ (1-q), (nu - min)/(1-q) and overlap law min/q.

    Degenerate overlaps fall back to the conventions q=1 -> (mu, mu, mu, 1)
    and q=0 -> (mu, nu, mu, 0).
    """
    if mu.p != nu.p:
        raise DimensionMismatchError(f"dimension mismatch: {mu.p} vs {nu.p}")
    r1, r2, m, q, dead = _split(mu.probs, nu.probs)
    q = float(q)
    if dead:
        return SplitLaws(mu, mu, mu, 1.0)
    if q <= 0.0:
        return SplitLaws(mu, nu, mu, 0.0)
    return SplitLaws(
        Distribution(r1 / r1.sum()),
        Distribution(r2 / r2.sum()),
        Distribution(m / q),
        q,
    )


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
    """Sub-stochastic pair matrix (``coupling_matrices``) of one chain.

    Row/column ``i`` is the i-th pair {x1, x2}, x1 < x2, in the row-major
    order of ``np.triu_indices(p, 1)``.  The read-only ``entries`` are
    derived from ``transition``, so they always belong to that chain.
    """

    transition: StochasticMatrix
    entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = coupling_matrices(self.transition.entries[None])[0]
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def p(self) -> int:
        return self.transition.p

    @property
    def dim(self) -> int:
        return self.p * (self.p - 1) // 2


def _residual_rows(Ps) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The split of every unordered pair {x1, x2}, x1 < x2 (row order of
    ``np.triu_indices(p, 1)``), of a (B, p, p) stack of transition matrices:
    the residual rows r1, r2 (B, d, p), r_i(y) = P(x_i, y) - min(P(x1, y),
    P(x2, y)), the mass 1 - kappa (B, d), set to 1 on dead pairs, and the
    dead mask (B, d), kappa >= 1 - ``_ONE_TOL``."""
    Ps = np.asarray(Ps, dtype=np.float64)
    if Ps.ndim != 3:
        raise DimensionMismatchError("need a (B, p, p) stack of transition matrices")
    _check_stochastic(Ps)
    iu, ju = np.triu_indices(Ps.shape[1], 1)
    r1, r2, _, k, dead = _split(Ps[:, iu], Ps[:, ju])       # (B, d, p) rows
    return r1, r2, np.where(dead, 1.0, 1.0 - k), dead


def coupling_matrices(Ps) -> np.ndarray:
    """Not-yet-met pair dynamics of a (B, p, p) stack of transition
    matrices, as a (B, d, d) stack over unordered pairs, d = p(p - 1)/2.

    The chain on ordered pairs moves (x1, x2) -> (y1, y2) with probability
    r1(y1) r2(y2) / (1 - kappa), where r_i(y) = P(x_i, y) - min(P(x1, y),
    P(x2, y)).  It commutes with the swap (x1, x2) -> (x2, x1), so its
    spectral radius and the row sums of its powers are those of the
    quotient by the swap (an equitable partition): entry [{x1,x2},{y1,y2}]
    = (r1(y1) r2(y2) + r1(y2) r2(y1)) / (1 - kappa).  The residuals have
    disjoint supports, so one of the two products is exactly 0, diagonal
    targets carry no mass and each row sums to 1 - kappa(x1, x2).  Rows
    with kappa = 1 are zero.
    """
    r1, r2, one_minus_k, dead = _residual_rows(Ps)
    iu, ju = np.triu_indices(r1.shape[-1], 1)
    Q = np.take(r1, iu, axis=-1)                    # take keeps (B, d, d) row-major
    Q *= np.take(r2, ju, axis=-1)
    swapped = np.take(r1, ju, axis=-1)
    swapped *= np.take(r2, iu, axis=-1)
    Q += swapped
    Q /= one_minus_k[..., None]
    Q[dead] = 0.0
    return Q


def _pair_matvec(r1: np.ndarray, r2: np.ndarray, one_minus_k: np.ndarray, dead: np.ndarray):
    """x -> Q x for the pair matrix Q of one item, never forming Q.

    With X the symmetric p x p array holding x[{y1, y2}] at (y1, y2) and
    (y2, y1) and 0 on the diagonal, (Q x)[{x1, x2}] = sum over y1, y2 of
    r1(y1) X(y1, y2) r2(y2) / (1 - kappa): the two orders of each target
    pair carry the two products of ``coupling_matrices``.  One step is the
    (d, p) x (p, p) product r1 X, a row-wise dot product with r2 (the
    product's rows scaled by r2 and summed by a matvec with ones) and a
    division.  The rows of r1 are zeroed on dead pairs (where
    ``one_minus_k`` is 1), so that those give 0.  For nonnegative x each
    result carries at most 2p + 1 roundings of a nonnegative sum (Higham
    2002, 3.1): p in each length-p inner product and one in the division.
    """
    d, p = r1.shape
    r1 = np.where(dead[:, None], 0.0, r1)
    iu, ju = np.triu_indices(p, 1)
    index = np.full((p, p), d)                      # the diagonal reads the zero slot
    index[iu, ju] = index[ju, iu] = np.arange(d)
    padded = np.zeros(d + 1)
    ones = np.ones(p)

    def matvec(x):
        padded[:d] = x
        T = r1 @ padded[index]
        T *= r2
        return T @ ones / one_minus_k

    return matvec


def build_coupling_matrix(P: StochasticMatrix) -> CouplingMatrix:
    """Pair matrix of one transition matrix (see ``coupling_matrices``)."""
    return CouplingMatrix(P)


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """One chain's bracket rho in [r - eps, r]; ``squarings`` always reads 0."""

    r: float
    eps: float
    squarings: int = 0


@dataclass(frozen=True)
class SpectralRadii:
    """Per-item certified brackets of a stack: rho in [r - eps, r]."""

    r: np.ndarray
    eps: np.ndarray


def _perron_brackets(matvec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified brackets lo <= rho(M_b) <= hi of B nonnegative d x d
    operators from strictly positive start iterates x (B, d), no entry
    above 1; ``matvec(x, items)`` applies the operators ``items`` to the
    rows of x.

    Power iteration x <- (M + I) x / sum, batched over the items still
    open.  Collatz-Wielandt (Horn & Johnson, Matrix Analysis, ch. 8):
    hi = max_i (M x)_i / x_i for x > 0, and lo = min of (M x')_i / x'_i
    over the support of any nonnegative x' != 0; x' is x with its
    negligible entries zeroed, so that reducible M close.  An entry that
    underflows to 0 gives an inf or nan ratio, which fmin and fmax skip.
    An item closes when lo >= (1 - ``_BRACKET_RTOL``) hi.  One still open
    after ``_BRACKET_BUDGET`` * d steps keeps its last bracket, or gets
    [0, 0] when a 0/1 power of its support pattern, stepped by the same
    matvec, vanishes within d steps: then M is nilpotent (for
    ``_pair_matvec``, barring the underflow of a product of residuals).

    Both ends are widened by gamma_(d+4) (Higham 2002, 3.1): d + 1
    roundings cover a dense matvec and the quotient, and cover the 2p + 2
    of ``_pair_matvec`` and the quotient for p >= 6; three more cover the
    widening.  What is certified is rho of the operator the matvec computes
    in exact arithmetic.  Each item's arithmetic is its own, so its bracket
    does not depend on the rest of the batch.
    """
    B, d = x.shape
    lo, hi = np.zeros(B), np.full(B, np.inf)
    closed = np.zeros(B, dtype=bool)
    live = np.arange(B)                 # the open items; x, lo_live, hi_live hold their rows
    lo_live, hi_live, x_min = lo.copy(), hi.copy(), x.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_BRACKET_BUDGET * d):
            y = matvec(x, live)
            ratio = y / x
            hi_live = np.fmin(hi_live, np.maximum.reduce(ratio, 1))
            lo_live = np.fmax(lo_live, np.minimum.reduce(ratio, 1))
            wide = lo_live < (1.0 - _BRACKET_RTOL) * hi_live
            # no entry of x exceeds 1, so a row with x_min > _NEGLIGIBLE has none negligible
            if not np.logical_and.reduce(wide & (x_min > _NEGLIGIBLE)):
                floor = _NEGLIGIBLE * x.max(axis=1, keepdims=True)
                trim = wide & (x_min <= floor[:, 0])
                if trim.any():
                    keep = x[trim] > floor[trim]
                    z = matvec(np.where(keep, x[trim], 0.0), live[trim])
                    lo_live[trim] = np.fmax(lo_live[trim], np.where(keep, z / x[trim], np.inf).min(axis=1))
                    wide = lo_live < (1.0 - _BRACKET_RTOL) * hi_live
                done = live[~wide]
                lo[done], hi[done], closed[done] = lo_live[~wide], hi_live[~wide], True
                live, x, y, lo_live, hi_live = live[wide], x[wide], y[wide], lo_live[wide], hi_live[wide]
                if live.size == 0:
                    break
            y += x
            y /= np.add.reduce(y, 1, keepdims=True)
            x, x_min = y, np.minimum.reduce(y, 1)
    lo[live], hi[live] = lo_live, hi_live
    stalled = np.flatnonzero(~closed)
    if stalled.size:
        pattern = np.ones((stalled.size, d))
        for _ in range(d):
            pattern = (matvec(pattern, stalled) > 0.0).astype(np.float64)
        nilpotent = stalled[~pattern.any(axis=1)]
        lo[nilpotent] = hi[nilpotent] = 0.0
    u = (d + 4) * np.finfo(np.float64).eps / 2
    gamma = u / (1.0 - u)
    return lo * (1.0 - gamma), hi * (1.0 + gamma)


def _dense_radii(Ms: np.ndarray) -> SpectralRadii:
    """Brackets of a (B, d, d) stack of nonnegative matrices, each started
    from LAPACK's Perron vector x = |Re v|, v the eigenvector of the
    eigenvalue lambda with the largest real part, which is rho.

    v is accurate to about u max|v| in every entry, so a small entry is
    recomputed by its row of the eigen-equation, x_i = (sum_{j != i} M_ij
    x_j) / (lambda - M_ii), where that is the better conditioned:
    x_i lambda < (lambda - M_ii) max x.  Entries below ``_NEGLIGIBLE``^2 of
    the largest are lifted to that share.  The start sets only how soon an
    item closes.  The matvec is an explicit sum over the state axis
    (``chain._state_sum``), so neither the BLAS kernel nor the batch moves
    it.
    """
    cols = np.moveaxis(Ms, -1, 0)       # cols[j, b] is column j of item b

    def matvec(x, items):
        return _state_sum(cols[:, items] * x.T[:, :, None])

    w, v = np.linalg.eig(Ms)
    top = np.argmax(w.real, axis=-1)[:, None]
    lam = np.take_along_axis(w.real, top, axis=-1)
    x = np.abs(np.take_along_axis(v.real, top[:, :, None], axis=-1)[..., 0])
    diag = np.diagonal(Ms, axis1=-2, axis2=-1)
    gap = lam - diag
    complete = (gap > 0.0) & (x * lam < gap * x.max(axis=-1, keepdims=True))
    x = np.where(complete, (matvec(x, np.arange(len(x))) - diag * x) / np.where(complete, gap, 1.0), x)
    x = np.maximum(x, _NEGLIGIBLE**2 * x.max(axis=-1, keepdims=True))
    lo, hi = _perron_brackets(matvec, x / x.sum(axis=-1, keepdims=True))
    return SpectralRadii(hi, hi - lo)


def coupling_radii(Ps) -> SpectralRadii:
    """Certified brackets rho in [r - eps, r] of the spectral radii of the
    pair matrices (``coupling_matrices``) of a (B, p, p) stack of
    transition matrices, d = p(p - 1)/2: r = hi, eps = hi - lo of
    ``_perron_brackets``.

    Below ``_BRACKET_MIN_DIM`` the stack steps on its dense pair matrices
    from LAPACK's Perron vectors (``_dense_radii``), so most items close in
    one step.  From there on each item steps from the uniform start on
    ``_pair_matvec``, which certifies rho of the operator given by the
    computed r1, r2 and 1 - kappa, entries within two roundings of the
    dense matrix's.  A closed bracket is 1e-12 relative wide plus the
    rounding allowance; an item that stalls (pair eigenvalues crowding the
    circle of radius rho, as on a near-permutation chain) reports its last,
    wider bracket.

    The cutover (between p = 10 and p = 11) comes from sweeps over
    Dirichlet(0.3) chains on a 2-core x86 VM with OpenBLAS, 8 chains one
    per call, medians of 5, three sweeps.  The eig-seeded dense bracket
    took 4.1-6.6 ms at p = 8, 7.7-12.7 ms at p = 10, 13.5-15.9 ms at
    p = 11, 15.9-24.8 ms at p = 12 and 73.7-96.6 ms at p = 16 (eig and each
    dense step grow as d^3 and d^2); the matrix-free bracket took 15.1-30.1,
    14.1-22.2, 20.5-30.7, 13.5-14.6 and 14.7-31.1 ms.  Time alone would cut
    over between p = 11 and p = 12; the cutover stays where it was, at most
    about 1 ms per chain from the faster path at p = 11.
    """
    Ps = np.asarray(Ps, dtype=np.float64)
    p = Ps.shape[-1] if Ps.ndim == 3 else 0
    d = p * (p - 1) // 2
    if d < _BRACKET_MIN_DIM:
        return _dense_radii(coupling_matrices(Ps))
    start = np.full((1, d), 1.0 / d)
    ops = [_pair_matvec(*item) for item in zip(*_residual_rows(Ps))]
    lo, hi = np.array([_perron_brackets(lambda x, _: op(x)[None], start) for op in ops])[..., 0].T
    return SpectralRadii(hi, hi - lo)


def spectral_radius(M: CouplingMatrix) -> SpectralRadiusEstimate:
    """Spectral radius of one chain's pair matrix (see ``coupling_radii``)."""
    est = coupling_radii(M.transition.entries[None])
    return SpectralRadiusEstimate(float(est.r[0]), float(est.eps[0]))


# ---------------------------------------------------------------------------
# statistical validation of the coupled construction


def overlap_curve(P: StochasticMatrix, mu0: Distribution, nu0: Distribution, n: int) -> np.ndarray:
    """q_t = overlap of the exact laws at t = 0..n (nondecreasing)."""
    laws = flow_batch(PolynomialKernel.linear(P), np.stack([mu0.probs, nu0.probs]), n)
    return _split(laws[:, 0], laws[:, 1])[3]


def pairchain_meet_curve(P: StochasticMatrix, mu0: Distribution, nu0: Distribution, n: int) -> np.ndarray:
    """Exact P(pair chain has met by step t) via powers of the pair matrix.

    The not-yet-met mass evolves under the sub-stochastic pair matrix, so
    meet-by-t = 1 - w0^T M^t 1 with w0 the initial mass of each unordered
    pair {x1, x2}, (x1, x2) and (x2, x1) together.
    This is systematically below the overlap curve: the stepwise pair
    chain meets later than the per-step maximal coupling of the laws.
    """
    laws0 = split_densities(mu0, nu0)
    M = build_coupling_matrix(P)
    joint = np.outer(laws0.eta1.probs, laws0.eta2.probs) * (1.0 - laws0.q)
    iu, ju = np.triu_indices(M.p, 1)
    w = joint[iu, ju] + joint[ju, iu]               # mass of each unordered pair, in row order of M
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
    """

    steps: np.ndarray
    tv1: np.ndarray
    tv2: np.ndarray
    q_exact: np.ndarray
    q_empirical: np.ndarray
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

    laws = flow_batch(PolynomialKernel.linear(P), np.stack([mu0.probs, nu0.probs]), n)
    q_exact = _split(laws[:, 0], laws[:, 1])[3]
    tv = np.empty((n + 1, 2))           # the TV of each marginal, (tv1, tv2)
    q_emp = np.empty(n + 1)
    for t in range(n + 1):
        split = split_densities(_clean_probs(laws[t, 0]), _clean_probs(laws[t, 1]))
        x1, x2, _ = _draw_split(split, samples, rng)
        counts = np.stack([np.bincount(x1, minlength=P.p), np.bincount(x2, minlength=P.p)])
        tv[t] = np.abs(counts / samples - laws[t]).sum(axis=1)
        q_emp[t] = float((x1 == x2).mean())

    tv_tol, q_tol = lemma_tolerances(P.p, samples)
    return LemmaCheckReport(
        steps=np.arange(n + 1), tv1=tv[:, 0], tv2=tv[:, 1], q_exact=q_exact, q_empirical=q_emp,
        passed=bool(tv.max() <= tv_tol and np.abs(q_emp - q_exact).max() <= q_tol),
        underpowered=samples < 1000,
    )
