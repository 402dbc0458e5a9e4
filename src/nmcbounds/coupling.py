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
matrices from them, and ``coupling_radii`` estimates the pair matrices'
spectral radii, the one entry point of ``bounds`` and ``volatility``.  It
picks its path from d.  Below ``_BRACKET_MIN_DIM`` = 55 (p <= 10) the
whole stack runs the Gelfand iteration on the dense matrices, 20 dense
squarings at 2 d^3 flops each.  From there on each item runs a certified
Collatz-Wielandt bracket by power iteration on the matrix-free operator
``_pair_matvec``: one (d, p) x (p, p) product and a row-wise dot product
per step, 2 d p^2 flops on O(d p) memory, with no (d, d) array; the dense
matrix is built only for an item whose bracket falls back to Gelfand.  On
both paths r + eps bounds rho from above; on the bracket path [r - eps, r]
is a certified bracket.  It is the only radius engine:
``build_coupling_matrix`` and ``spectral_radius`` are its one-chain
wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (Distribution, PolynomialKernel, StochasticMatrix, _check_stochastic,
                    _clean_probs, flow_batch)
from .errors import DimensionMismatchError
from .rng import as_generator

_ONE_TOL = 1e-12    # row overlaps / overlap masses this close to 1 are treated as 1
LEMMA_DELTA = 1e-6      # lemma_check: false-alarm probability of each tolerance check
_SQUARINGS = 20         # Gelfand powers M^(2^k), k = 1..20
_BRACKET_MIN_DIM = 55   # coupling_radii: smallest d that takes the bracket path (p >= 11)
_BRACKET_RTOL = 1e-12   # the bracket closes when hi - lo <= _BRACKET_RTOL * hi
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


def _max_row_sums(A: np.ndarray) -> np.ndarray:
    return A.sum(axis=-1).max(axis=-1)


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    r: float
    eps: float
    squarings: int


@dataclass(frozen=True)
class SpectralRadii:
    """Per-item estimates of a stack: r + eps bounds rho from above on both
    paths; ``squarings`` is 0 for an item the bracket closed."""

    r: np.ndarray
    eps: np.ndarray
    squarings: np.ndarray


def _gelfand(Ms: np.ndarray) -> SpectralRadii:
    """Gelfand estimates r_k = ||M^(2^k)||^(1/2^k), k <= ``_SQUARINGS``, of a
    (B, d, d) stack by repeated squaring, all items advancing together.

    Powers are renormalized after every squaring (the log scale is carried
    separately) so the iteration cannot under- or overflow.  The sequence
    is nonincreasing; ``eps`` is the final decrement, an upper bound on
    how unconverged the estimate still is in practice.  An item whose
    power vanishes stops there with r = eps = 0.
    """
    B = Ms.shape[0]
    squarings = np.zeros(B, dtype=int)
    norm0 = _max_row_sums(Ms)
    live = np.flatnonzero(norm0 != 0.0)
    A = Ms[live] / norm0[live, None, None]
    log_scale = np.log(norm0[live])
    prev = cur = norm0[live]            # the last two estimates of the live items
    for k in range(1, _SQUARINGS + 1):
        if live.size == 0:
            break
        A = A @ A
        c = _max_row_sums(A)
        if not np.all(np.isfinite(c)):
            raise FloatingPointError("non-finite intermediate in spectral radius iteration")
        squarings[live] = k
        vanished = c == 0.0
        if vanished.any():      # these keep r = eps = 0
            live, A, c, log_scale, cur = (a[~vanished] for a in (live, A, c, log_scale, cur))
        A /= c[:, None, None]
        log_scale = 2.0 * log_scale + np.log(c)
        prev, cur = cur, np.exp(log_scale / 2**k)
    r = np.zeros(B)
    eps = np.zeros(B)
    r[live] = cur
    eps[live] = np.maximum(0.0, prev - cur)
    return SpectralRadii(r, eps, squarings)


def _perron_bracket(matvec, d: int) -> tuple[float, float] | None:
    """Certified bracket lo <= rho(M) <= hi of one nonnegative d x d
    operator given by its matvec x -> M x, or None when it does not close
    within the budget.

    Power iteration x <- (M + I) x / sum from the uniform start, one
    matvec y = M x per step.  Collatz-Wielandt (Horn & Johnson, Matrix
    Analysis, ch. 8): hi = max_i y_i / x_i on the strictly positive
    iterate, and lo = min of (M x')_i / x'_i over the support of any
    nonnegative x' != 0.
    Taking x' as x with its negligible entries zeroed lets reducible M
    close, where the decaying entries pin min_i y_i / x_i to a smaller
    class's radius.  Both ends are widened by gamma_(d+4) (Higham 2002,
    3.1): d + 1 roundings cover a dense nonnegative matvec and the
    quotient, and cover the 2p + 2 of ``_pair_matvec`` and the quotient
    for p >= 6; three more units cover rounding the widening itself.
    What is certified is rho of the operator the matvec computes in exact
    arithmetic: of the computed M for a dense matvec, and of the operator
    given by the computed r1, r2 and 1 - kappa for ``_pair_matvec``.
    """
    x = np.full(d, 1.0 / d)
    x_min = x[0]
    lo, hi = 0.0, np.inf
    for _ in range(_BRACKET_BUDGET * d):
        y = matvec(x)
        ratio = y / x
        hi = min(hi, float(ratio.max()))
        lo = max(lo, float(ratio.min()))
        if hi - lo > _BRACKET_RTOL * hi:
            floor = _NEGLIGIBLE * x.max()
            if not x_min > floor:           # some entries are negligible
                keep = x > floor
                lo = max(lo, float((matvec(np.where(keep, x, 0.0))[keep] / x[keep]).min()))
        if hi - lo <= _BRACKET_RTOL * hi < np.inf:      # closed, on a finite hi
            u = (d + 4) * np.finfo(np.float64).eps / 2
            gamma = u / (1.0 - u)
            return lo * (1.0 - gamma), hi * (1.0 + gamma)
        x = y + x
        x /= x.sum()
        x_min = x.min()
        if not x_min > 0.0:         # underflow (or a non-finite M): give up
            return None
    return None


def coupling_radii(Ps) -> SpectralRadii:
    """Spectral radii of the pair matrices (``coupling_matrices``) of a
    (B, p, p) stack of transition matrices, d = p(p - 1)/2, by one of two
    paths chosen from d.

    Below ``_BRACKET_MIN_DIM`` every item runs the Gelfand iteration
    (``_gelfand``, up to the power 2^20) on its dense pair matrix: r is the
    last estimate, which can only overshoot rho (by about 2e-7 relative),
    and eps the last decrement, a measure of how unconverged r still is
    rather than a certificate.  From the cutover on, each item runs the
    Collatz-Wielandt bracket (``_perron_bracket``) on ``_pair_matvec``,
    which holds only the item's residual rows: r = hi and eps = hi - lo,
    with lo <= rho <= hi certified to 1e-12 relative; squarings reads 0.
    It certifies rho of the operator given by the computed r1, r2 and
    1 - kappa, whose entries are within two roundings of the dense
    matrix's.  An item whose bracket does not close within
    ``_BRACKET_BUDGET`` * d steps or whose iterate loses strict positivity
    falls back to Gelfand on its dense pair matrix, the only one built on
    this path.  On both paths r + eps bounds rho from above, and
    r = eps = 0 when the operator is 0.

    The cutover (between p = 10 and p = 11) comes from sweeps over
    Dirichlet(0.3) chains on a 2-core x86 VM with OpenBLAS, 8 chains one
    per call, medians of 3, three sweeps.  With the matrix-free bracket,
    8 chains take 4.9-7.1 ms by Gelfand and 14.5-20.8 ms by the bracket at
    p = 10, 5.6-7.8 and 18.8-19.7 ms at p = 11, 10.4-10.6 and 16.5-20.9 ms
    at p = 13, 17.3-17.6 and 12.3-18.2 ms at p = 15, and 21.7-24.4 and
    14.4-18.7 ms at p = 16.  Time alone would now cut over near p = 15.
    The cutover stays where the dense bracket on ordered pairs first won
    (p = 11: 19.6-31.9 ms by Gelfand, 17.6-18.0 ms by the bracket), so that
    p = 11..14 keep a certified bracket, for at most about 1.5 ms more per
    chain.
    """
    Ps = np.asarray(Ps, dtype=np.float64)
    p = Ps.shape[-1] if Ps.ndim == 3 else 0
    d = p * (p - 1) // 2
    if d < _BRACKET_MIN_DIM:
        return _gelfand(coupling_matrices(Ps))
    brackets = [_perron_bracket(_pair_matvec(*item), d) for item in zip(*_residual_rows(Ps))]
    fallback = [i for i, b in enumerate(brackets) if b is None]
    r = np.array([0.0 if b is None else b[1] for b in brackets])
    eps = np.array([0.0 if b is None else b[1] - b[0] for b in brackets])
    squarings = np.zeros(len(brackets), dtype=int)
    if fallback:
        gelfand = _gelfand(coupling_matrices(Ps[fallback]))
        r[fallback], eps[fallback], squarings[fallback] = gelfand.r, gelfand.eps, gelfand.squarings
    return SpectralRadii(r, eps, squarings)


def spectral_radius(M: CouplingMatrix) -> SpectralRadiusEstimate:
    """Spectral radius of one chain's pair matrix (see ``coupling_radii``)."""
    est = coupling_radii(M.transition.entries[None])
    return SpectralRadiusEstimate(float(est.r[0]), float(est.eps[0]), int(est.squarings[0]))


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
