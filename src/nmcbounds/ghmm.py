"""Gaussian hidden Markov models: scaled forward-backward, Baum-Welch,
sampling and Viterbi decoding.

Emissions are univariate Gaussians, one (mean, variance) pair per hidden
state.  Training runs a fixed number of EM epochs with no early stopping;
the fixed budget doubles as overfitting control for the short windows the
volatility indicator feeds in.  The internal recursions carry a batch
axis so many models can be fitted against the same observation window at
once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .rng import as_generator

VARIANCE_FLOOR = 1e-10
EMISSION_FLOOR = 1e-300
STARVATION_MASS = 1e-8


@dataclass(frozen=True)
class GhmmModel:
    initial: np.ndarray
    transition: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=np.float64)
        transition = np.asarray(self.transition, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        k = initial.shape[0]
        if transition.shape != (k, k) or means.shape != (k,) or variances.shape != (k,):
            raise ValueError("inconsistent state counts across model arrays")
        if abs(initial.sum() - 1.0) > 1e-10 or initial.min() < 0:
            raise ValueError("initial distribution must be a probability vector")
        if np.abs(transition.sum(axis=1) - 1.0).max() > 1e-10 or transition.min() < 0:
            raise ValueError("transition rows must be probability vectors")
        if variances.min() < VARIANCE_FLOOR:
            raise ValueError(f"variances must be >= {VARIANCE_FLOOR}")
        for arr, name in ((initial, "initial"), (transition, "transition"),
                          (means, "means"), (variances, "variances")):
            a = arr.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    def to_json(self, path) -> None:
        doc = {
            "n_states": self.n_states,
            "initial": self.initial.tolist(),
            "transition": self.transition.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "GhmmModel":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(np.asarray(doc["initial"]), np.asarray(doc["transition"]),
                   np.asarray(doc["means"]), np.asarray(doc["variances"]))


def _emissions(obs2d, means, variances):
    """Gaussian densities, shape (T, B, K); floored to avoid hard zeros.

    obs2d has one column per batch model (columns may be broadcast views
    of a shared sequence)."""
    diff = obs2d[:, :, None] - means[None, :, :]
    b = np.exp(-0.5 * diff * diff / variances[None, :, :])
    b /= np.sqrt(2.0 * math.pi * variances)[None, :, :]
    return np.maximum(b, EMISSION_FLOOR)


def _forward_backward_batch(initial, transition, means, variances, obs2d):
    """Scaled recursions for a batch of models, one observation column each.

    Returns (loglik (B,), gamma (T,B,K), xi_sum (B,K,K), scales (T,B),
    emissions (T,B,K), beta (T,B,K), floored_flags (B,)).
    """
    T = obs2d.shape[0]
    B, K = means.shape
    b = _emissions(obs2d, means, variances)
    floored = (b.max(axis=2) <= EMISSION_FLOOR).any(axis=0)

    alpha = np.empty((T, B, K))
    scales = np.empty((T, B))
    a = initial * b[0]
    c = a.sum(axis=1)
    scales[0] = c
    alpha[0] = a / c[:, None]
    for t in range(1, T):
        a = np.einsum("bi,bij->bj", alpha[t - 1], transition) * b[t]
        c = a.sum(axis=1)
        scales[t] = c
        alpha[t] = a / c[:, None]

    beta = np.empty((T, B, K))
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        w = b[t + 1] * beta[t + 1]
        beta[t] = np.einsum("bij,bj->bi", transition, w) / scales[t + 1][:, None]

    gamma = alpha * beta
    gamma /= gamma.sum(axis=2, keepdims=True)
    if T > 1:
        w = b[1:] * beta[1:] / scales[1:][:, :, None]
        xi_sum = np.einsum("tbi,tbj->bij", alpha[:-1], w) * transition
    else:
        xi_sum = np.zeros((B, K, K))
    loglik = np.log(scales).sum(axis=0)
    return loglik, gamma, xi_sum, scales, b, beta, floored


@dataclass(frozen=True)
class ForwardBackwardResult:
    log_likelihood: float
    posteriors: np.ndarray        # (T, K), rows sum to 1
    pairwise: np.ndarray          # (T-1, K, K), each slice sums to 1
    scales: np.ndarray            # (T,), per-step normalization constants
    emission_floored: bool


def forward_backward(model: GhmmModel, obs) -> ForwardBackwardResult:
    """Posteriors and log-likelihood by the scaled forward-backward pass."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 1 or obs.shape[0] < 1:
        raise ValueError("obs must be a non-empty 1-d sequence")
    init = model.initial[None, :]
    trans = model.transition[None, :, :]
    loglik, gamma, _, scales, b, beta, floored = _forward_backward_batch(
        init, trans, model.means[None, :], model.variances[None, :], obs[:, None])
    T, K = obs.shape[0], model.n_states
    # full pairwise posteriors (the batch core only keeps their sum)
    pairwise = np.empty((max(T - 1, 0), K, K))
    if T > 1:
        ahat = init[0] * b[0, 0]
        ahat = ahat / ahat.sum()
        for t in range(T - 1):
            w = b[t + 1, 0] * beta[t + 1, 0] / scales[t + 1, 0]
            xi = ahat[:, None] * model.transition * w[None, :]
            pairwise[t] = xi / xi.sum()
            nxt = (ahat @ model.transition) * b[t + 1, 0]
            ahat = nxt / nxt.sum()
    return ForwardBackwardResult(float(loglik[0]), gamma[:, 0, :], pairwise,
                                 scales[:, 0], bool(floored[0]))


def quantile_init(obs, n_states: int, self_loop: float = 0.8) -> GhmmModel:
    """Deterministic start: contiguous quantile groups set means/variances."""
    obs = np.asarray(obs, dtype=np.float64)
    srt = np.sort(obs)
    groups = np.array_split(srt, n_states)
    means = np.array([g.mean() for g in groups])
    global_var = max(float(obs.var()), VARIANCE_FLOOR)
    variances = np.array([max(float(g.var()), global_var * 1e-3, VARIANCE_FLOOR)
                          for g in groups])
    k = n_states
    transition = np.full((k, k), (1.0 - self_loop) / (k - 1) if k > 1 else 0.0)
    np.fill_diagonal(transition, self_loop if k > 1 else 1.0)
    initial = np.full(k, 1.0 / k)
    return GhmmModel(initial, transition, means, variances)


def random_inits(obs, n_states: int, rngs) -> list:
    """One seeded perturbation of the quantile start per generator (means
    jittered, variances rescaled, transition rows mixed with a Dirichlet
    draw); the quantile start itself is computed once and shared."""
    obs = np.asarray(obs, dtype=np.float64)
    base = quantile_init(obs, n_states)
    spread = max(float(obs.std()), math.sqrt(VARIANCE_FLOOR))
    inits = []
    for rng in rngs:
        rng = as_generator(rng)
        means = base.means + rng.normal(0.0, 0.5 * spread, n_states)
        variances = np.maximum(base.variances * np.exp(rng.uniform(-1.0, 1.0, n_states)),
                               VARIANCE_FLOOR)
        mix = rng.dirichlet(np.ones(n_states), size=n_states)
        transition = 0.6 * base.transition + 0.4 * mix
        transition /= transition.sum(axis=1, keepdims=True)
        inits.append(GhmmModel(base.initial, transition, means, variances))
    return inits


def random_init(obs, n_states: int, rng) -> GhmmModel:
    """Seeded perturbation of the quantile start (see ``random_inits``)."""
    return random_inits(obs, n_states, [rng])[0]


@dataclass
class BaumWelchFit:
    model: GhmmModel
    loglik_trace: np.ndarray      # length epochs + 1: before each update, then final
    starvation_flags: list        # (epoch, state) pairs that needed a reset


def _mstep(gamma, xi_sum, obs2d, means_old, global_var):
    """One batched M-step; returns updated arrays plus starvation mask.

    global_var carries each batch item's own observation variance for the
    starvation reset."""
    B, K = means_old.shape
    mass = gamma.sum(axis=0)                          # (B, K)
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

    # starved states: variance back to that item's global variance, row uniform
    if starved.any():
        variances = np.where(starved,
                             np.maximum(global_var[:, None], VARIANCE_FLOOR),
                             variances)
        for bidx, k in zip(*np.nonzero(starved)):
            transition[bidx, k, :] = 1.0 / K
    initial /= initial.sum(axis=1, keepdims=True)
    transition /= transition.sum(axis=2, keepdims=True)
    return initial, transition, means, variances, starved


_MAX_ENGINE_COLUMNS = 4096   # memory cap per batched EM call


def fit_window_batch(windows, inits: list, epochs: int) -> list:
    """EM for several (sequence, init) pairs at once.

    ``windows`` is (B, T), one observation row per init; all rows share T.
    Runs exactly ``epochs`` updates per model with no early stopping.
    """
    windows = np.asarray(windows, dtype=np.float64)
    B = len(inits)
    if windows.shape[0] != B:
        raise ValueError("one window row per init required")
    if B > _MAX_ENGINE_COLUMNS:
        out = []
        for lo in range(0, B, _MAX_ENGINE_COLUMNS):
            hi = lo + _MAX_ENGINE_COLUMNS
            out.extend(fit_window_batch(windows[lo:hi], inits[lo:hi], epochs))
        return out
    obs2d = np.ascontiguousarray(windows.T)           # (T, B)
    initial = np.stack([m.initial for m in inits])
    transition = np.stack([m.transition for m in inits])
    means = np.stack([m.means for m in inits])
    variances = np.stack([m.variances for m in inits])
    global_var = np.maximum(windows.var(axis=1), VARIANCE_FLOOR)

    traces = np.empty((B, epochs + 1))
    flags = [[] for _ in range(B)]
    for epoch in range(epochs):
        loglik, gamma, xi_sum, _, _, _, _ = _forward_backward_batch(
            initial, transition, means, variances, obs2d)
        traces[:, epoch] = loglik
        initial, transition, means, variances, starved = _mstep(
            gamma, xi_sum, obs2d, means, global_var)
        for bidx, k in zip(*np.nonzero(starved)):
            flags[bidx].append((epoch, int(k)))
    loglik, _, _, _, _, _, _ = _forward_backward_batch(
        initial, transition, means, variances, obs2d)
    traces[:, epochs] = loglik

    fits = []
    for i in range(B):
        model = GhmmModel(initial[i], transition[i], means[i], variances[i])
        fits.append(BaumWelchFit(model, traces[i].copy(), flags[i]))
    return fits


def fit_baum_welch_batch(obs, inits: list, epochs: int) -> list:
    """EM for several inits on one shared sequence."""
    obs = np.asarray(obs, dtype=np.float64)
    windows = np.broadcast_to(obs, (len(inits), obs.shape[0]))
    return fit_window_batch(windows, inits, epochs)


def fit_baum_welch(obs, n_states: int = 3, epochs: int = 15,
                   init_policy: str = "quantile", rng=None) -> BaumWelchFit:
    """Fixed-budget Baum-Welch fit (no early stopping).

    init_policy "quantile" is deterministic; "random" perturbs it with the
    given seed/stream so repeated fits land in different local optima.
    """
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape[0] < 10 * n_states:
        raise ValueError(f"need at least {10 * n_states} observations for {n_states} states")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if init_policy == "quantile":
        init = quantile_init(obs, n_states)
    elif init_policy == "random":
        init = random_init(obs, n_states, rng)
    else:
        raise ValueError("init_policy must be 'quantile' or 'random'")
    return fit_baum_welch_batch(obs, [init], epochs)[0]


def sample_ghmm(model: GhmmModel, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw a hidden path and its Gaussian observations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(rng)
    K = model.n_states
    states = np.empty(n, dtype=np.intp)
    states[0] = rng.choice(K, p=model.initial)
    for t in range(1, n):
        states[t] = rng.choice(K, p=model.transition[states[t - 1]])
    obs = rng.normal(model.means[states], np.sqrt(model.variances[states]))
    return states, obs


def viterbi(model: GhmmModel, obs) -> np.ndarray:
    """Most probable hidden path (log domain, ties toward lower index)."""
    obs = np.asarray(obs, dtype=np.float64)
    T = obs.shape[0]
    if T < 1:
        raise ValueError("obs must be non-empty")
    K = model.n_states
    log_b = np.log(_emissions(obs[:, None], model.means[None, :],
                              model.variances[None, :])[:, 0, :])
    log_t = np.log(np.maximum(model.transition, EMISSION_FLOOR))
    delta = np.log(np.maximum(model.initial, EMISSION_FLOOR)) + log_b[0]
    back = np.empty((T, K), dtype=np.intp)
    for t in range(1, T):
        cand = delta[:, None] + log_t
        back[t] = cand.argmax(axis=0)
        delta = cand[back[t], np.arange(K)] + log_b[t]
    path = np.empty(T, dtype=np.intp)
    path[T - 1] = int(delta.argmax())
    for t in range(T - 2, -1, -1):
        path[t] = back[t + 1][path[t + 1]]
    return path
