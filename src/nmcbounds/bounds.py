"""Convergence-bound coefficients and per-step bound curves.

Everything a bound needs is a handful of scalars: the worst-case k-step
row overlap alpha_k, the kernel's sensitivity lambda_k to its distribution
argument, the perturbation ratio gamma between the linear part and the
nonlinear kernel, the fixed-point discrepancy delta, and the spectral
radius r of the coupling matrix.  On a nonlinear kernel alpha_k and
lambda_k are one-sided sampled estimates; a report's values for all k
share one pair sample and one k-step flow (`_sampled_kstep`), and
`md_alpha` and `lipschitz_lambda` give the same values for the same
generator.  The curve builders then evaluate the classic Markov-Dobrushin
bound, its k-step refinement, the spectral-radius bound and the combined
perturbation bound, all clamped to the TV range [0, 2].  The
spectral-radius formula 2(1 - 1/p)(r + eps)^n is evaluated only in
`spectral_bound`, which the ``spectral`` curve, both combined curves
and the volatility indicator share.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .chain import (
    PolynomialKernel,
    StochasticMatrix,
    _batch_product,
    _critical_points,
    _flat_dirichlet,
    _flow_steps,
    _row_witness,
    evaluate_batch,
    require_valid,
    stationary,
    tv_distance,
)
from .coupling import coupling_radii
from .errors import (
    InfiniteGammaError,
    NmcError,
    NonconvergenceError,
)
from .rng import as_generator


@dataclass(frozen=True)
class CoefficientEstimate:
    """A scalar obtained by sampling, tagged with its one-sided direction.

    ``direction`` is "upper-of-inf" or "lower-of-sup": simplex sampling can
    only overshoot an infimum and undershoot a supremum.  It is "exact" for
    values computed without sampling (finite enumeration).
    """

    value: float
    direction: str
    samples: int = 0


def _alpha_of_matrix(P: np.ndarray, k: int) -> float:
    Pk = reduce(_batch_product, [P[None]] * k)[0]       # alike on every BLAS kernel
    iu, ju = np.triu_indices(P.shape[0], 1)
    return float(np.minimum(Pk[iu], Pk[ju]).sum(axis=1).min(initial=1.0))


def _sample_pairs(p: int, samples: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs plus random simplex pairs, as two (pairs, p) arrays."""
    eye = np.eye(p)
    i, j = np.nonzero(eye == 0.0)
    draws = _flat_dirichlet(rng, (samples, 2, p))
    return (np.concatenate([eye[i], draws[:, 0]]),
            np.concatenate([eye[j], draws[:, 1]]))


def _sampled_kstep(K: PolynomialKernel, k_max: int, samples: int, rng):
    """alpha_k and lambda_k of a nonlinear kernel for k = 1..k_max, as two
    lists of CoefficientEstimate, from one draw of pairs (mu, nu) and one
    k_max-step flow of both sides through the checked `_flow_steps`.

    Each k reads the prefix P_{mu_0} ... P_{mu_{k-1}} of the running
    product: alpha_k is the least row overlap between the two sides (an
    upper estimate of the infimum), lambda_k the largest row gap over
    ||mu - nu||_1 >= 1e-12 (a lower estimate of the supremum).
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    mus, nus = _sample_pairs(K.p, samples, as_generator(rng))
    n_pairs = mus.shape[0]
    denom = np.abs(mus - nus).sum(axis=1)
    keep = ~(denom < 1e-12)
    denom = denom[keep]
    alphas, lams = [], []
    prod = None
    for P, _ in _flow_steps(K, np.concatenate([mus, nus]), k_max):
        prod = P if prod is None else _batch_product(prod, P)
        A, B = prod[:n_pairs], prod[n_pairs:]
        best = 1.0
        for x in range(K.p):
            # row overlaps of A[:, x] with every row of B, one sum per (pair, x')
            best = min(best, float(np.minimum(A[:, x, None, :], B).sum(axis=2).min()))
        alphas.append(CoefficientEstimate(best, "upper-of-inf", n_pairs))
        ratio = np.abs(A - B).sum(axis=2).max(axis=1)[keep] / denom
        lams.append(CoefficientEstimate(max(0.0, float(ratio.max())), "lower-of-sup", denom.size))
    return alphas, lams


def md_alpha(model, k: int, samples: int = 2000, rng=None) -> CoefficientEstimate:
    """Markov-Dobrushin coefficient alpha_k.

    For a stochastic matrix this is the exact minimum over state pairs of
    the k-step row overlap.  For a nonlinear kernel the infimum also runs
    over the distribution arguments; it is probed at vertex pairs plus
    ``samples`` random simplex pairs and reported as an upper estimate
    (`_sampled_kstep`).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    K = PolynomialKernel.linear(model) if isinstance(model, StochasticMatrix) else model
    if K.degree == 1:
        return CoefficientEstimate(_alpha_of_matrix(K.coeff[0], k), "exact")
    return _sampled_kstep(K, k, samples, rng)[0][-1]


def lipschitz_lambda(K: PolynomialKernel, k: int, samples: int = 2000, rng=None) -> CoefficientEstimate:
    """Sensitivity of the k-step kernel to its distribution argument.

    lambda_k = sup over x, mu, nu of ||P^k_mu(x,.) - P^k_nu(x,.)||_TV
    divided by ||mu - nu||_TV.  Zero exactly for linear kernels; otherwise
    a Monte-Carlo lower estimate of the supremum over vertex pairs plus
    random simplex pairs (`_sampled_kstep`).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if K.degree == 1:
        return CoefficientEstimate(0.0, "exact")
    return _sampled_kstep(K, k, samples, rng)[1][-1]


def md_bound_curve(alpha: float, lam: float, n_max: int) -> np.ndarray:
    """Markov-Dobrushin bound 2(1 - alpha + lambda)^n for n = 1..n_max.

    The alpha == lambda > 0 case degrades to the linear-speed bound
    2/(lambda n); alpha == lambda == 0 carries no information and returns
    the constant 2 with a warning.
    """
    if not (0.0 <= alpha <= 1.0 and lam >= 0.0):
        raise ValueError("alpha must lie in [0, 1] and lambda must be >= 0")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    if alpha == lam:
        if lam == 0.0:
            warnings.warn("alpha == lambda == 0: bound degenerates to the constant 2")
            return np.full(n_max, 2.0)
        return np.minimum(2.0 / (lam * n), 2.0)
    return np.minimum(2.0 * (1.0 - alpha + lam) ** n, 2.0)


def kstep_bound_curve(alpha_k: float, lambda_k: float, lambda_1: float,
                      d0: float, k: int, n_max: int) -> np.ndarray:
    """k-step bound d0 (1-alpha_k+lambda_k)^[n/k] (1+lambda_1)^(n mod k).

    When alpha_k == lambda_k > 0 the sharper harmonic form
    d0 / (2 + lambda_k n d0) replaces the geometric factor.
    """
    if not 0.0 <= d0 <= 2.0:
        raise ValueError("d0 must lie in [0, 2]")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = np.arange(1, n_max + 1)
    tail = (1.0 + lambda_1) ** (n % k)
    if alpha_k == lambda_k and lambda_k > 0.0:
        core = d0 / (2.0 + lambda_k * n * d0)
    else:
        core = d0 * (1.0 - alpha_k + lambda_k) ** (n // k)
    return np.clip(core * tail, 0.0, 2.0)


@dataclass(frozen=True)
class GammaEstimate:
    value: float
    argmax_entry: tuple[int, int]
    argmax_mu: np.ndarray


def gamma_estimate(K: PolynomialKernel) -> GammaEstimate:
    """Perturbation size: sup of C1(x,y)/P_mu(x,y) - 1 over entries and mu,
    computed exactly.

    Row x of P_mu depends only on t = mu[x], so the supremum over mu is,
    per row, the largest ratio at the t in [0, 1] where each entry takes
    its minimum: t = 0, t = 1 or a root of the entry's derivative
    (`chain._critical_points`, the candidates of `validate_kernel`).
    ``argmax_mu`` is a point of the simplex with mu[x] = t* for the row x
    of ``argmax_entry``.  Raises InfiniteGammaError when the linear part
    keeps mass on an entry the kernel drives to zero, and KernelInvalidError
    carrying `validate_kernel`'s witness when P_mu is not stochastic
    somewhere on the simplex.
    """
    p = K.p
    C1 = K.coeff[0]
    if K.degree == 1:
        return GammaEstimate(0.0, (0, 0), np.full(p, 1.0 / p))
    require_valid(K)
    T = _critical_points(K)
    Pm = evaluate_batch(K, T)      # Pm[n, x] is row x of P_mu at mu[x] = T[n, x]
    dead = (Pm <= 0.0) & (C1 > 0.0)
    if dead.any():
        n, x, y = map(int, np.argwhere(dead)[0])
        raise InfiniteGammaError(
            f"linear entry ({x},{y}) = {C1[x, y]} has zero kernel mass at some mu: "
            "the perturbation ratio is unbounded",
            entry=(x, y), mu=_row_witness(p, x, T[n, x]),
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(Pm > 0.0, C1 / np.where(Pm > 0.0, Pm, 1.0), 0.0)
    n, x, y = (int(v) for v in np.unravel_index(np.argmax(ratio), ratio.shape))
    value = float(ratio[n, x, y]) - 1.0
    if value <= 0.0:
        return GammaEstimate(0.0, (0, 0), np.full(p, 1.0 / p))
    return GammaEstimate(value, (x, y), _row_witness(p, x, T[n, x]))


def initial_distance_bound(p: int) -> float:
    """Worst initial distance from the uniform start: 2(1 - 1/p)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return 2.0 * (1.0 - 1.0 / p)


def initial_distance_bruteforce(p: int, trials: int, rng) -> tuple[float, np.ndarray]:
    """Independent verifier: max TV(uniform, pi) over vertices and random pi."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = as_generator(rng)
    uniform = np.full(p, 1.0 / p)
    best = -1.0
    arg = uniform
    for v in np.eye(p):
        d = float(np.abs(uniform - v).sum())
        if d > best:
            best, arg = d, v
    draws = _flat_dirichlet(rng, (trials, p))
    dists = np.abs(uniform[None, :] - draws).sum(axis=1)
    i = int(np.argmax(dists))
    if dists[i] > best:
        best, arg = float(dists[i]), draws[i]
    return best, np.asarray(arg)


def perturbation_bound(gamma: float, n: int) -> float:
    """Perturbation-distance bound 2(e^{-(1+n gamma)} + n gamma)/(1 + n gamma)."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0 or gamma == 0.0:
        return 2.0 * math.exp(-1.0)
    if math.isinf(gamma):
        return 2.0
    x = n * gamma
    return min(2.0, 2.0 * (math.exp(-(1.0 + x)) + x) / (1.0 + x))


@dataclass(frozen=True)
class RatioMomentReport:
    mean: float
    std_error: float
    bound: float
    gamma: float
    passed: bool


def likelihood_ratio_moments(K: PolynomialKernel, n: int, k: int, samples: int,
                             rng) -> RatioMomentReport:
    """Monte-Carlo check of E(rho_n^k) <= (1+gamma)^{n(k-1)}.

    rho_n is the likelihood ratio of the linear part against the nonlinear
    kernel along a sampled trajectory from the uniform start, and gamma is
    `gamma_estimate`'s.  For k = 1 the mean is exactly 1 in expectation
    (change of measure), which the caller can use as a calibration case.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    rng = as_generator(rng)
    mu0 = np.full(K.p, 1.0 / K.p)
    gamma = gamma_estimate(K).value
    C1 = K.coeff[0]
    states = rng.choice(K.p, size=samples, p=mu0)
    rho = np.ones(samples)
    for P, _ in _flow_steps(K, mu0[None, :], n):
        Pm = P[0]
        cum = Pm.cumsum(axis=1)
        u = rng.random(samples)
        nxt = (cum[states] < u[:, None]).sum(axis=1)
        nxt = np.minimum(nxt, K.p - 1)
        step_prob = Pm[states, nxt]
        if step_prob.min() <= 0.0:
            raise NmcError("realized transition has zero probability")
        rho *= C1[states, nxt] / step_prob
        states = nxt
    vals = rho ** k
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    bound = (1.0 + gamma) ** (n * (k - 1))
    return RatioMomentReport(mean, se, bound, gamma, mean <= bound + 3.0 * se)


def delta_estimate(K: PolynomialKernel) -> float:
    """TV distance between the nonlinear and linear fixed points; 0 for a
    linear kernel, whose two fixed points are one, without a search."""
    if K.degree == 1:
        return 0.0
    pi = stationary(K).distribution
    pi_star = stationary(PolynomialKernel.linear(K.coeff[0])).distribution
    return tv_distance(pi, pi_star)


def spectral_bound(r, eps, p: int, n):
    """Coupling bound 2(1 - 1/p)(r + eps)^n from the uniform start, not
    clipped; r, eps and n may be arrays."""
    return initial_distance_bound(p) * (r + eps) ** n


def combined_bound(r: float, eps: float, delta: float, p: int, n,
                   regime: str = "small-n"):
    """Combined bound: perturbation floor + spectral-radius decay, for an
    int n or an array of n.

    small-n: 2/e + delta + spectral_bound(r, eps, p, n)
    large-n: 2 delta + spectral_bound(r, eps, p, n)
    """
    if regime not in ("small-n", "large-n"):
        raise ValueError("regime must be 'small-n' or 'large-n'")
    floor = 2.0 * math.exp(-1.0) + delta if regime == "small-n" else 2.0 * delta
    return np.minimum(2.0, floor + spectral_bound(r, eps, p, n))


K_RANGE = (1, 2, 3, 4)      # the k of the k-step coefficients and curves


@dataclass
class BoundReport:
    """All coefficients plus the named per-step bound curves."""

    p: int
    alpha: list          # exact, from the linear part, one per k
    alpha_nonlinear: list  # sampled upper estimates of the nonlinear infimum
    lam: list            # lambda_k estimates, one per k
    gamma: float         # may be inf when the ratio assumption fails
    delta: float
    r: float
    eps: float
    curves: dict = field(default_factory=dict)   # name -> array over n = 1..n_max
    n_max: int = 0
    seed: int | None = None
    mc_samples: int = 0
    flags: list = field(default_factory=list)

    def coefficients_dict(self) -> dict:
        return {
            "p": self.p,
            "alpha": [float(a) for a in self.alpha],
            "alpha_nonlinear": [None if a is None else float(a) for a in self.alpha_nonlinear],
            "lambda": [float(v) for v in self.lam],
            "gamma": None if math.isinf(self.gamma) else float(self.gamma),
            "gamma_infinite": bool(math.isinf(self.gamma)),
            "delta": None if math.isnan(self.delta) else float(self.delta),
            "spectral_radius": float(self.r),
            "eps": float(self.eps),
            "k_range": list(K_RANGE),
            "n_max": int(self.n_max),
            "seed": self.seed,
            "mc_samples": int(self.mc_samples),
            "flags": list(self.flags),
        }

    def curve_table(self):
        """(column names, rows) with one row per step n."""
        names = ["n"] + sorted(self.curves)
        rows = []
        for i in range(self.n_max):
            rows.append([i + 1] + [float(self.curves[c][i]) for c in sorted(self.curves)])
        return names, rows


def full_report(K: PolynomialKernel, n_max: int, mc_samples: int = 2000,
                seed: int | None = None) -> BoundReport:
    """Compute every coefficient and bound curve for one kernel.

    The alpha/lambda estimates target the linear part exactly (that is the
    published comparison) with the nonlinear infimum reported alongside;
    on a nonlinear kernel the sampled alpha_k and lambda_k of all k share
    one draw of ``mc_samples`` pairs from a generator seeded with
    ``seed`` (`_sampled_kstep`), and gamma is exact.  The spectral
    curve is built from the spectral radius of the linear part's pair
    operator (``coupling_radii``).
    Sub-errors (an unbounded gamma, say) become flags, not failures.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if mc_samples < 0:      # a linear kernel draws nothing, so check here
        raise ValueError("samples must be >= 0")
    rng = as_generator(seed)
    p = K.p
    flags = []

    P_lin = StochasticMatrix(K.coeff[0])
    alpha = [md_alpha(P_lin, k).value for k in K_RANGE]
    if K.degree > 1:
        alphas, lams = _sampled_kstep(K, max(K_RANGE), mc_samples, rng)
        alpha_nl = [alphas[k - 1].value for k in K_RANGE]
        lam = [lams[k - 1].value for k in K_RANGE]
    else:
        alpha_nl = [None for _ in K_RANGE]
        lam = [0.0 for _ in K_RANGE]

    try:
        gamma = gamma_estimate(K).value
    except InfiniteGammaError:
        gamma = math.inf
        flags.append("gamma_infinite: ratio assumption fails for this kernel")

    # a failed fixed-point solve leaves the rest of the report usable;
    # anything else is a bug and propagates
    try:
        delta = delta_estimate(K)
    except NonconvergenceError as exc:
        delta = math.nan
        flags.append(f"delta_unavailable: {exc}")

    est = coupling_radii(P_lin.entries[None])
    r, eps = float(est.r[0]), float(est.eps[0])

    n = np.arange(1, n_max + 1, dtype=np.float64)
    # "md" is the published bound of the mapping linear chain; the variant
    # with the kernel-sensitivity term rides alongside
    curves = {
        "md": md_bound_curve(alpha[0], 0.0, n_max),
        "md_lipschitz": md_bound_curve(alpha[0], lam[0], n_max),
        "spectral": np.clip(spectral_bound(r, eps, p, n), 0.0, 2.0),
    }
    d0 = initial_distance_bound(p)
    for i, k in enumerate(K_RANGE):
        curves[f"kstep_k{k}"] = kstep_bound_curve(alpha[i], lam[i], lam[0], d0, k, n_max)
    # an unavailable delta (NaN) leaves both combined curves NaN: no bound
    curves["combined_small_n"] = combined_bound(r, eps, delta, p, n, "small-n")
    curves["combined_large_n"] = combined_bound(r, eps, delta, p, n, "large-n")

    return BoundReport(
        p=p, alpha=alpha, alpha_nonlinear=alpha_nl, lam=lam, gamma=gamma,
        delta=delta, r=r, eps=eps, curves=curves,
        n_max=n_max, seed=seed, mc_samples=mc_samples, flags=flags,
    )
