"""Gaussian hidden Markov models: scaled forward-backward, Baum-Welch and
sampling.

Emissions are univariate Gaussians, one (mean, variance) pair per hidden
state.  Training runs a fixed number of EM epochs with no early stopping;
the fixed budget doubles as overfitting control for the short windows the
volatility indicator feeds in.

The EM core is batch-first: starts (``quantile_starts``, ``random_inits``)
and fits (``fit_window_batch``) of a whole (B, T) window array are
``GhmmStack`` parameter stacks.  ``GhmmModel`` and ``BaumWelchFit`` are
built only by the single-model API.  Random starts are keyed: each slot's
perturbation is a pure function of its 64-bit key, drawn from that key's
counter-based stream (``rng.stream_uniforms``) for all slots in one pass.

Inside the core a batch is stored state-major, with the batch axis last
and contiguous: initial, means and variances are (K, B), transitions
(K, K, B), and emissions, alpha, beta and gamma (T, K, B).  Every
contraction is then an einsum whose summed axis leads and whose batch axis
is innermost, so it adds over that axis in sequence, ((p0 + p1) + p2) +
..., elementwise along B.  The sums keep the orders that numpy 2.4.6 uses
for the item-major (B, K) einsums and sums the core was first written
with, so the fits stay bit-identical to that form:

- forward contraction sum_i alpha_i a_ij (item-major ``bi,bij->bj``, a
  chain): ``ib,ijb->jb``;
- backward contraction sum_j a_ij w_j (item-major ``bij,bj->bi`` over a
  contiguous j, which adds two lanes, even j and odd j, then even + odd):
  ``jib,jb->ib`` once per lane over the lane's rows (``_dot_lanes``), as
  at K = 5, ((p0 + p2) + p4) + (p1 + p3); while the odd lane has at most
  one term (K <= 3) the lanes are one chain, (p0 + p2) + p1 at K = 3, so
  one ``jib,jb->ib`` over the rows gathered in that order forms it;
- a sum over the state axis (``.sum`` along a contiguous K axis): numpy's
  pairwise order, which is the same chain below 8 terms
  (``chain._state_sum``, shared with the kernel flow engine);
- the log-likelihood sums log(scales) along a contiguous (B, T) row, since
  numpy sums it pairwise and a strided row changes the last bits (``log``
  writes the transposed scales in that layout);
- the emission exponent is (obs - mean)^2 / (-2 v), the bits of the
  item-major -0.5 d d / v (``_emissions``);
- the time-axis contractions of xi_sum and the M-step (``tib,tjb->ijb``,
  ``tkb,tb->kb``, ``tkb,tkb->kb``) add over t in sequence; xi_sum's has no
  terms at T = 1, so it is zero there.

These are numpy's orders on x86-64 (baseline SIMD with two float64 lanes,
no fused multiply-add); ``tests/test_ghmm.py`` pins them against a frozen
copy of the item-major core, and ``tests/test_chain.py`` pins these
einsums against the explicit chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import _freeze, _state_sum
from .rng import as_generator, stream_uniforms

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
    """Store obj's parameter arrays through `chain._freeze`; return them."""
    arrays = [_freeze(getattr(obj, name)) for name in _PARAMS]
    for name, a in zip(_PARAMS, arrays):
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


def _dot_lanes(n: int):
    """The two index lanes of einsum's contiguous dot product over n
    terms: even and odd, each taking whole blocks of eight from the top
    down (6, 4, 2, 0 and 7, 5, 3, 1) and then the remainder upward."""
    full = n - n % 8
    even = [i + j for i in range(0, full, 8) for j in (6, 4, 2, 0)] + list(range(full, n, 2))
    odd = [i + j for i in range(0, full, 8) for j in (7, 5, 3, 1)] + list(range(full + 1, n, 2))
    return even, odd


def _squared_deviations(obs2d, means, out):
    """(obs - means)^2 into the (T, K, B) buffer ``out``.

    obs2d is (T, B), one column per batch model (columns may be broadcast
    views of a shared sequence); means are (K, B)."""
    diff = np.subtract(obs2d[:, None, :], means, out=out)
    return np.multiply(diff, diff, out=diff)


def _emissions(sq, variances):
    """Gaussian densities, shape (T, K, B), in place from the squared
    deviations ``sq``; floored to avoid hard zeros.

    (d d) / (-2 v) equals (d (-0.5)) d / v bit for bit, since scaling by a
    power of two is exact, except where d d underflows; there exp gives 1.0
    either way, as v >= VARIANCE_FLOOR.  2 v overflows only where 2 pi v
    does, which the normalizer already cannot survive."""
    b = np.divide(sq, -2.0 * variances, out=sq)
    np.exp(b, out=b)
    b /= np.sqrt(2.0 * math.pi * variances)
    return np.maximum(b, EMISSION_FLOOR, out=b)


def _forward(initial, transition, variances, emissions, alpha):
    """Scaled forward pass for a batch of state-major models.

    ``emissions`` holds the squared deviations of the current means, as
    ``_mstep`` leaves them, and becomes the emission densities; ``alpha``
    is filled.  Both are (T, K, B).  Returns (loglik (B,), alpha, scales
    (T, B), emissions).  Each model's log-likelihood sums its scales as one
    contiguous row, in the same order whatever the batch size.
    """
    b = _emissions(emissions, variances)
    scales = np.empty((b.shape[0],) + variances.shape[1:])
    short = initial.shape[0] < 8          # _state_sum is then one add.reduce
    prev = None
    for b_t, c, a in zip(b, scales, alpha):
        if prev is None:
            np.multiply(initial, b_t, out=a)
        else:
            np.einsum("ib,ijb->jb", prev, transition, out=a)       # sum_i alpha_i a_ij
            a *= b_t
        if short:
            np.add.reduce(a, axis=0, out=c)
        else:
            c[...] = _state_sum(a)
        a /= c
        prev = a
    loglik = np.log(scales.T, order="C").sum(axis=1)
    return loglik, alpha, scales, b


def _posterior(transition, alpha, scales, emissions, beta, w):
    """Scaled backward pass into the (T, K, B) buffer ``beta``; returns the
    state posteriors gamma (T, K, B), written over beta, and the expected
    transition counts xi_sum (K, K, B).

    Row t of the (T - 1, K, B) buffer ``w`` keeps the backward step's
    b_t+1 beta_t+1 for xi; ``w`` may be ``emissions[1:]``, since row t + 1
    of the emissions is read for the last time as that row is written."""
    T, K = alpha.shape[:2]
    even, odd = _dot_lanes(K)
    # the rows a_.j in lane order; while the odd lane has at most one term
    # (K <= 3) the lanes are one chain, (p0 + p2) + p1, and one einsum
    # adds it
    order = np.array(even + odd)
    by_order = np.ascontiguousarray(transition.transpose(1, 0, 2)[order])   # [j, i] = a_ij
    picked = np.empty_like(beta[0])
    split = K if len(odd) <= 1 else len(even)
    head, tail = (by_order[:split], picked[:split]), (by_order[split:], picked[split:])
    beta[T - 1] = 1.0
    for beta_t, beta_next, b_next, w_t, c in zip(
            beta[-2::-1], beta[:0:-1], emissions[:0:-1], w[::-1], scales[:0:-1]):
        np.multiply(b_next, beta_next, out=w_t)
        # the indices are in range; "raise" would buffer the out= copy
        np.take(w_t, order, axis=0, out=picked, mode="clip")
        np.einsum("jib,jb->ib", *head, out=beta_t)                  # sum_j a_ij w_j
        if split < K:
            beta_t += np.einsum("jib,jb->ib", *tail)
        beta_t /= c
    gamma = np.multiply(alpha, beta, out=beta)
    gamma /= _state_sum(gamma.swapaxes(0, 1))[:, None]
    # xi_t(i, j) is proportional to alpha_t(i) a_ij b_j(o_t+1) beta_t+1(j)
    # (Rabiner 1989, eq. 37, in the scaled variables); zero at T = 1
    w /= scales[1:, None]
    xi_sum = np.einsum("tib,tjb->ijb", alpha[:-1], w) * transition
    return gamma, xi_sum


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


def _start_draws(keys, n_states: int):
    """The draws of each keyed slot, from the first uniforms of its
    counter-based stream (``rng.stream_uniforms``): K standard normals by
    Box-Muller from ceil(K / 2) uniform pairs, K uniforms on (-1, 1], and
    K Dirichlet(1, ..., 1) rows as normalised -log U.  Returns arrays of
    shape (N, K), (N, K) and (N, K, K) for N keys."""
    K = n_states
    pairs = (K + 1) // 2
    u = stream_uniforms(keys, 2 * pairs + K + K * K)
    radius = np.sqrt(-2.0 * np.log(u[:, 0:2 * pairs:2]))
    angle = 2.0 * math.pi * u[:, 1:2 * pairs:2]
    normals = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=2)
    scales = 2.0 * u[:, 2 * pairs:2 * pairs + K] - 1.0
    mix = -np.log(u[:, 2 * pairs + K:]).reshape(-1, K, K)
    mix /= mix.sum(axis=2, keepdims=True)
    return normals.reshape(-1, 2 * pairs)[:, :K], scales, mix


def random_inits(windows, n_states: int, keys) -> GhmmStack:
    """Seeded perturbations of the quantile starts of a (D, T) window array
    (or one sequence): means jittered, variances rescaled, transition rows
    mixed with a Dirichlet draw.  ``keys`` holds R 64-bit stream keys per
    window, window-major; the R slots of a window share its quantile start,
    and a slot's draws depend on its key alone (``_start_draws``)."""
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    keys = np.asarray(keys, dtype=np.uint64)
    D = windows.shape[0]
    if keys.ndim != 1 or not D or keys.size % D:
        raise ValueError("need the same number of keys for every window")
    base = quantile_starts(windows, n_states)
    spread = np.maximum(windows.std(axis=1), math.sqrt(VARIANCE_FLOOR))
    normals, log_scale, mix = _start_draws(keys, n_states)
    slot = np.repeat(np.arange(D), keys.size // D)
    variances = np.maximum(base.variances[slot] * np.exp(log_scale), VARIANCE_FLOOR)
    transition = 0.6 * base.transition[slot] + 0.4 * mix
    transition /= transition.sum(axis=2, keepdims=True)
    return GhmmStack(base.initial[slot], transition,
                     base.means[slot] + normals * (0.5 * spread[slot, None]), variances)


def random_init(obs, n_states: int, rng) -> GhmmModel:
    """Seeded perturbation of the quantile start (see ``random_inits``),
    keyed by one 64-bit draw from ``rng`` (a seed or generator)."""
    key = as_generator(rng).integers(2**64, size=1, dtype=np.uint64)
    return random_inits(obs, n_states, key).model(0)


@dataclass
class BaumWelchFit:
    model: GhmmModel
    loglik_trace: np.ndarray      # length epochs + 1: before each update, then final
    starvation_flags: list        # (epoch, state) pairs that needed a reset


def _mstep(gamma, xi_sum, obs2d, means_old, global_var, sq):
    """One batched M-step on state-major arrays; returns the updated
    (K, B) initial, (K, K, B) transition, (K, B) means and variances, and
    the (K, B) starvation mask, and leaves the squared deviations from the
    updated means in the (T, K, B) buffer ``sq`` for the next emissions.

    global_var carries each batch item's own observation variance for the
    starvation reset."""
    K = means_old.shape[0]
    # a sum over the leading axis adds the rows in sequence, so this is
    # gamma.sum(axis=0) bit for bit; at T = 1 trans_mass is 0, so the
    # transition denominator below is 1
    trans_mass = gamma[:-1].sum(axis=0)
    mass = trans_mass + gamma[-1]                     # (K, B)
    starved = mass < STARVATION_MASS
    safe_mass = np.where(starved, 1.0, mass)

    initial = gamma[0].copy()
    denom = np.where(trans_mass < STARVATION_MASS, 1.0, trans_mass)
    transition = xi_sum / denom[:, None]
    row = _state_sum(transition.swapaxes(0, 1))[:, None]
    transition = np.where(row > 0, transition / np.maximum(row, 1e-300), 1.0 / K)

    means = np.einsum("tkb,tb->kb", gamma, obs2d) / safe_mass
    means = np.where(starved, means_old, means)
    variances = np.einsum("tkb,tkb->kb", gamma, _squared_deviations(obs2d, means, sq)) / safe_mass
    variances = np.maximum(variances, VARIANCE_FLOOR)

    # starved states: variance back to that item's global variance, row uniform
    variances = np.where(starved, np.maximum(global_var, VARIANCE_FLOOR), variances)
    np.copyto(transition, 1.0 / K, where=starved[:, None])
    initial /= _state_sum(initial)
    transition /= _state_sum(transition.swapaxes(0, 1))[:, None]
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
        # state-major: batch axis last and contiguous
        initial, transition, means, variances = (
            np.ascontiguousarray(np.moveaxis(getattr(inits, name)[part], 0, -1))
            for name in _PARAMS)
        # emissions (first the squared deviations), alpha, beta (then gamma)
        work = np.empty((3,) + obs2d.shape[:1] + means.shape)
        _squared_deviations(obs2d, means, work[0])
        for epoch in range(epochs):
            traces[part, epoch], alpha, scales, b = _forward(
                initial, transition, variances, *work[:2])
            gamma, xi_sum = _posterior(transition, alpha, scales, b, work[2], b[1:])
            initial, transition, means, variances, mask = _mstep(
                gamma, xi_sum, obs2d, means, global_var, work[0])
            starved[part, epoch] = mask.T
        # the last pass feeds only the trace, so it runs forward only
        traces[part, epochs] = _forward(initial, transition, variances, *work[:2])[0]
        for dst, arr in zip(fitted, (initial, transition, means, variances)):
            dst[part] = np.moveaxis(arr, -1, 0)
    return GhmmStack(*fitted), traces, starved


def fit_baum_welch(obs, n_states: int = 3, epochs: int = 15) -> BaumWelchFit:
    """Fixed-budget Baum-Welch fit (no early stopping) from the
    deterministic quantile start.  Random restarts are ``random_inits``
    followed by ``fit_window_batch``."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape[0] < 10 * n_states:
        raise ValueError(f"need at least {10 * n_states} observations for {n_states} states")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    start = quantile_starts(obs[None], n_states)
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
