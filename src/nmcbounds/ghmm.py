"""Gaussian hidden Markov models: scaled forward-backward, Baum-Welch,
sampling and Viterbi decoding.

Emissions are univariate Gaussians, one (mean, variance) pair per hidden
state.  Training runs a fixed number of EM epochs with no early stopping;
the fixed budget doubles as overfitting control for the short windows the
volatility indicator feeds in.

The EM core is batch-first: starts (``quantile_starts``, ``random_inits``)
and fits (``fit_window_batch``) of a whole (B, T) window array are
``GhmmStack`` parameter stacks.  ``GhmmModel`` and ``BaumWelchFit`` are
built only by the single-model API.
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
SELF_LOOP = 0.8                 # diagonal of the quantile-start transitions

_PARAMS = ("initial", "transition", "means", "variances")


def _check_params(initial, transition, means, variances) -> None:
    """The GhmmModel rules on a stack: (B, K) initial, means and variances
    and (B, K, K) transitions, all finite; initial and transition rows are
    probability vectors and every variance is at least VARIANCE_FLOOR."""
    if (initial.ndim != 2 or transition.shape != initial.shape + initial.shape[1:]
            or means.shape != initial.shape or variances.shape != initial.shape):
        raise ValueError("inconsistent state counts across model arrays")
    if not all(np.isfinite(a).all() for a in (initial, transition, means, variances)):
        raise ValueError("model parameters must be finite")
    if (np.abs(initial.sum(axis=1) - 1.0) > 1e-10).any() or (initial < 0).any():
        raise ValueError("initial distribution must be a probability vector")
    if (np.abs(transition.sum(axis=2) - 1.0) > 1e-10).any() or (transition < 0).any():
        raise ValueError("transition rows must be probability vectors")
    if (variances < VARIANCE_FLOOR).any():
        raise ValueError(f"variances must be >= {VARIANCE_FLOOR}")


def _finite_obs(obs: np.ndarray) -> np.ndarray:
    if not np.isfinite(obs).all():
        raise ValueError("observations must be finite")
    return obs


def _freeze_params(obj) -> list:
    """Store read-only C-ordered float64 copies of obj's parameter arrays
    (the layout fixes the summation order downstream); return them."""
    arrays = [np.asarray(getattr(obj, name), dtype=np.float64).copy() for name in _PARAMS]
    for name, a in zip(_PARAMS, arrays):
        a.flags.writeable = False
        object.__setattr__(obj, name, a)
    return arrays


@dataclass(frozen=True)
class GhmmModel:
    initial: np.ndarray
    transition: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        _check_params(*(a[None] for a in _freeze_params(self)))

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


@dataclass(frozen=True)
class GhmmStack:
    """B parameter sets along a leading axis: initial (B, K), transition
    (B, K, K), means (B, K), variances (B, K).  Validated once per stack by
    the GhmmModel rules."""

    initial: np.ndarray
    transition: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        _check_params(*_freeze_params(self))

    def __len__(self) -> int:
        return self.initial.shape[0]

    @property
    def n_states(self) -> int:
        return self.initial.shape[1]

    def model(self, index: int) -> GhmmModel:
        return GhmmModel(*(getattr(self, name)[index] for name in _PARAMS))


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

    Returns (loglik (B,), gamma (T,B,K), xi_sum (B,K,K), scales (B,T),
    emissions (T,B,K), alpha (T,B,K), beta (T,B,K)).  Each model's scales
    form one contiguous row, so its log-likelihood is summed in the same
    order whatever the batch size.
    """
    T = obs2d.shape[0]
    B, K = means.shape
    b = _emissions(obs2d, means, variances)

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


@dataclass(frozen=True)
class ForwardBackwardResult:
    log_likelihood: float
    posteriors: np.ndarray        # (T, K), rows sum to 1
    pairwise: np.ndarray          # (T-1, K, K), each slice sums to 1
    scales: np.ndarray            # (T,), per-step normalization constants
    emission_floored: bool


def forward_backward(model: GhmmModel, obs) -> ForwardBackwardResult:
    """Posteriors and log-likelihood by the scaled forward-backward pass."""
    obs = _finite_obs(np.asarray(obs, dtype=np.float64))
    if obs.ndim != 1 or obs.shape[0] < 1:
        raise ValueError("obs must be a non-empty 1-d sequence")
    loglik, gamma, _, scales, b, alpha, beta = _forward_backward_batch(
        *(getattr(model, name)[None] for name in _PARAMS), obs[:, None])
    # xi_t(i, j) is proportional to alpha_t(i) a_ij b_j(o_t+1) beta_t+1(j)
    # (Rabiner 1989, eq. 37, in the scaled variables)
    w = b[1:, 0] * beta[1:, 0] / scales[0, 1:, None]
    xi = alpha[:-1, 0, :, None] * model.transition * w[:, None, :]
    pairwise = xi / xi.sum(axis=(1, 2), keepdims=True)
    floored = bool((b[:, 0].max(axis=1) <= EMISSION_FLOOR).any())
    return ForwardBackwardResult(float(loglik[0]), gamma[:, 0, :], pairwise,
                                 scales[0], floored)


def quantile_starts(windows, n_states: int) -> GhmmStack:
    """Deterministic starts for a (B, T) window array: contiguous quantile
    groups of each sorted row set that row's means/variances."""
    windows = _finite_obs(np.asarray(windows, dtype=np.float64))
    groups = np.array_split(np.sort(windows, axis=1), n_states, axis=1)
    means = np.stack([g.mean(axis=1) for g in groups], axis=1)
    global_var = np.maximum(windows.var(axis=1), VARIANCE_FLOOR)
    variances = np.maximum(np.maximum(np.stack([g.var(axis=1) for g in groups], axis=1),
                                      global_var[:, None] * 1e-3), VARIANCE_FLOOR)
    B, k = means.shape
    transition = np.full((k, k), (1.0 - SELF_LOOP) / (k - 1) if k > 1 else 0.0)
    np.fill_diagonal(transition, SELF_LOOP if k > 1 else 1.0)
    return GhmmStack(np.full((B, k), 1.0 / k), np.broadcast_to(transition, (B, k, k)),
                     means, variances)


def quantile_init(obs, n_states: int) -> GhmmModel:
    """Deterministic start of one sequence (see ``quantile_starts``)."""
    return quantile_starts(np.asarray(obs, dtype=np.float64)[None], n_states).model(0)


def random_inits(windows, n_states: int, rngs) -> GhmmStack:
    """Seeded perturbations of the quantile starts of a (D, T) window array
    (or one sequence): means jittered, variances rescaled, transition rows
    mixed with a Dirichlet draw.  ``rngs`` holds R generators per window,
    window-major; the R slots of a window share its quantile start."""
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    rngs = list(rngs)
    D = windows.shape[0]
    if not D or len(rngs) % D:
        raise ValueError("need the same number of generators for every window")
    reps = len(rngs) // D
    base = quantile_starts(windows, n_states)
    spread = np.maximum(windows.std(axis=1), math.sqrt(VARIANCE_FLOOR))
    jitter = np.empty((len(rngs), n_states))
    log_scale = np.empty((len(rngs), n_states))
    mix = np.empty((len(rngs), n_states, n_states))
    for i, rng in enumerate(rngs):
        rng = as_generator(rng)
        jitter[i] = rng.normal(0.0, 0.5 * spread[i // reps], n_states)
        log_scale[i] = rng.uniform(-1.0, 1.0, n_states)
        mix[i] = rng.dirichlet(np.ones(n_states), size=n_states)
    slot = np.repeat(np.arange(D), reps)
    variances = np.maximum(base.variances[slot] * np.exp(log_scale), VARIANCE_FLOOR)
    transition = 0.6 * base.transition[slot] + 0.4 * mix
    transition /= transition.sum(axis=2, keepdims=True)
    return GhmmStack(base.initial[slot], transition, base.means[slot] + jitter, variances)


def random_init(obs, n_states: int, rng) -> GhmmModel:
    """Seeded perturbation of the quantile start (see ``random_inits``)."""
    return random_inits(obs, n_states, [rng]).model(0)


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
    variances = np.where(starved, np.maximum(global_var[:, None], VARIANCE_FLOOR), variances)
    transition[starved] = 1.0 / K
    initial /= initial.sum(axis=1, keepdims=True)
    transition /= transition.sum(axis=2, keepdims=True)
    return initial, transition, means, variances, starved


_MAX_ENGINE_COLUMNS = 4096   # memory cap per batched EM call


def fit_window_batch(windows, inits: GhmmStack, epochs: int):
    """EM for B (window, start) pairs at once.

    ``windows`` is (B, T), one observation row per start in ``inits``; all
    rows share T.  Runs exactly ``epochs`` updates per item with no early
    stopping.  Returns the fitted ``GhmmStack``, the (B, epochs + 1)
    log-likelihood traces (before each update, then final) and the
    (B, epochs, K) starvation mask of the states reset in each epoch.
    """
    windows = _finite_obs(np.asarray(windows, dtype=np.float64))
    B = len(inits)
    if windows.shape[0] != B:
        raise ValueError("one window row per init required")
    fitted = [np.empty_like(getattr(inits, name)) for name in _PARAMS]
    traces = np.empty((B, epochs + 1))
    starved = np.zeros((B, epochs, inits.n_states), dtype=bool)
    for lo in range(0, B, _MAX_ENGINE_COLUMNS):
        part = slice(lo, lo + _MAX_ENGINE_COLUMNS)
        obs2d = np.ascontiguousarray(windows[part].T)         # (T, chunk)
        global_var = np.maximum(windows[part].var(axis=1), VARIANCE_FLOOR)
        initial, transition, means, variances = (getattr(inits, name)[part] for name in _PARAMS)
        for epoch in range(epochs):
            traces[part, epoch], gamma, xi_sum = _forward_backward_batch(
                initial, transition, means, variances, obs2d)[:3]
            initial, transition, means, variances, starved[part, epoch] = _mstep(
                gamma, xi_sum, obs2d, means, global_var)
        traces[part, epochs] = _forward_backward_batch(
            initial, transition, means, variances, obs2d)[0]
        for dst, arr in zip(fitted, (initial, transition, means, variances)):
            dst[part] = arr
    return GhmmStack(*fitted), traces, starved


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
        start = quantile_starts(obs[None], n_states)
    elif init_policy == "random":
        start = random_inits(obs, n_states, [rng])
    else:
        raise ValueError("init_policy must be 'quantile' or 'random'")
    fitted, traces, starved = fit_window_batch(obs[None], start, epochs)
    flags = [(int(epoch), int(k)) for epoch, k in zip(*np.nonzero(starved[0]))]
    return BaumWelchFit(fitted.model(0), traces[0], flags)


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
    obs = _finite_obs(np.asarray(obs, dtype=np.float64))
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
