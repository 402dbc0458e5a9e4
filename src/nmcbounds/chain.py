"""Finite-state distributions and polynomial nonlinear transition kernels.

A nonlinear chain here is one whose one-step matrix depends on the current
distribution through powers of the row coordinate's own mass:

    P_mu(x, y) = C1(x, y) + C2(x, y) * mu[x] + C3(x, y) * mu[x]**2 + ...

``C1`` is the linear part (an ordinary stochastic matrix); the higher
coefficient matrices encode the perturbation.  All state indices are
0-based.

Row x of P_mu depends on mu only through the scalar mu[x] in [0, 1], so
validity on the whole simplex is a univariate check per row
(`validate_kernel`), and a kernel certified valid steps its flows without
forming P_mu.

The flow engine (`_flows`) is the one core behind `flow_batch` and
`experiments.tv_envelope`; `stationary` solves for the fixed point
instead.  It stores a batch state-major: B distributions are a (p, B)
array, one column each, with the batch axis last and contiguous, so a
step is p-term arithmetic on length-B rows rather than work on a short
state axis; `flow_batch` transposes at its edge.  The engine keeps the
orders of numpy 2.4.6's item-major (B, p) einsums and
sums it was first written with, so flows stay bit-identical to that form:

- a coefficient term sum_x term[x] C_j(x, y) (einsum ``xy,xb->yb``): a
  chain over x, ((t0 + t1) + t2) + ..., as ``bx,xy->by`` added, since an
  einsum whose summed axis leads and whose batch axis is innermost adds in
  sequence, elementwise along B;
- a sum over states (``.sum`` along a contiguous p axis): numpy's pairwise
  order, which is the same chain below 8 terms (`_state_sum`).

The uncertified path (`_flow_steps`, which forms and checks P_mu) stays
item-major and `_flows` transposes at its edge; its products
(`_batch_product`) are the same kind of einsum, ``mxb,xyb->myb`` on
batch-last copies, so they too add over the middle state as a chain.
``tests/test_chain.py`` pins the engine against a frozen copy of the
item-major form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    KernelInvalidError,
    ModelSpecError,
    NonconvergenceError,
)

SUM_TOL = 1e-12          # distribution / row-sum drift allowed at construction
EVAL_TOL = 1e-9          # kernel evaluation validity tolerance
_NEG_CLIP = 1e-15        # float noise clipped to zero by producers


def _freeze(a) -> np.ndarray:
    """A read-only, C-ordered float64 copy of ``a``, the storage of every
    value type built from caller data: the caller's array stays as it was,
    and the layout fixes the summation order downstream."""
    a = np.array(a, dtype=np.float64, order="C", ndmin=1)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Distribution:
    """Probability vector on p >= 2 states."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _freeze(self.probs)
        if probs.ndim != 1 or probs.shape[0] < 2:
            raise DimensionMismatchError("distribution needs a 1-d vector with p >= 2")
        if not np.all(np.isfinite(probs)):
            raise ValueError("distribution entries must be finite")
        if probs.min() < 0.0:
            raise ValueError(f"negative probability {probs.min():.3e}")
        if abs(probs.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def p(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, p: int) -> "Distribution":
        return cls(np.full(p, 1.0 / p))

    @classmethod
    def point(cls, p: int, state: int) -> "Distribution":
        v = np.zeros(p)
        v[state] = 1.0
        return cls(v)


def _clean_rows(v: np.ndarray) -> np.ndarray:
    """Clip float-level negative drift and renormalize along the last axis."""
    if v.min() < -_NEG_CLIP:
        raise ValueError(f"entry {v.min():.3e} too negative to be rounding noise")
    v = np.clip(v, 0.0, None)
    return v / v.sum(axis=-1, keepdims=True)


def _state_sum(rows):
    """Sum over the leading (state) axis of an array in the order of
    numpy's pairwise ``sum`` along a contiguous axis: a chain,
    ((r0 + r1) + r2) + ..., below 8 terms; up to 128, eight strided chains
    added as a tree, then the rest in turn; past 128, the same on two
    halves split at a multiple of 8.  A ``sum`` over the outer axis, which
    numpy adds in sequence, forms each chain."""
    n = len(rows)
    if n < 8:
        return rows.sum(axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _state_sum(rows[:half]) + _state_sum(rows[half:])
    full = n - n % 8
    acc = rows[:full].reshape((full // 8, 8) + rows.shape[1:]).sum(axis=0)
    acc = acc[0::2] + acc[1::2]            # chains (a0 + a1), (a2 + a3), ...
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for row in rows[full:]:
        total += row
    return total


def _clean_probs(vec: np.ndarray) -> Distribution:
    """Build a Distribution from a vector carrying only float-level drift."""
    return Distribution(_clean_rows(np.asarray(vec, dtype=np.float64)))


def _check_stochastic(m: np.ndarray) -> None:
    """The StochasticMatrix rules on a (..., p, p) stack of matrices: square
    with p >= 2, finite, entries in [0, 1], every row sum within SUM_TOL of 1."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 2:
        raise DimensionMismatchError("transition matrix must be square with p >= 2")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if m.min() < 0.0 or m.max() > 1.0:
        raise ValueError("matrix entries must lie in [0, 1]")
    dev = np.abs(m.sum(axis=-1) - 1.0).max()
    if dev > SUM_TOL:
        raise ValueError(f"row sums deviate from 1 by {dev:.3e}")


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic p x p matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = _freeze(self.entries)
        if m.ndim != 2:
            raise DimensionMismatchError("transition matrix must be square with p >= 2")
        _check_stochastic(m)
        object.__setattr__(self, "entries", m)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def row(self, x: int) -> Distribution:
        return _clean_probs(self.entries[x])


@dataclass(frozen=True)
class PolynomialKernel:
    """Distribution-dependent kernel P_mu(x,y) = sum_j coeff[j](x,y) * mu[x]**j.

    ``coeff[0]`` must be a valid stochastic matrix (the linear part).
    """

    coeff: tuple

    def __post_init__(self):
        mats = tuple(_freeze(c) for c in self.coeff)
        if not mats:
            raise ValueError("kernel needs at least the linear coefficient matrix")
        p = mats[0].shape[0]
        for c in mats:
            if c.shape != (p, p):
                raise DimensionMismatchError("all coefficient matrices must be p x p")
            if not np.all(np.isfinite(c)):
                raise ValueError("coefficient entries must be finite")
        StochasticMatrix(mats[0])  # validates the linear part
        object.__setattr__(self, "coeff", mats)

    @property
    def p(self) -> int:
        return self.coeff[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self.coeff)

    @property
    def linear_part(self) -> StochasticMatrix:
        return StochasticMatrix(self.coeff[0])

    @classmethod
    def linear(cls, matrix) -> "PolynomialKernel":
        entries = matrix.entries if isinstance(matrix, StochasticMatrix) else matrix
        return cls((entries,))

    @cached_property
    def _extremes(self) -> tuple[float, float, np.ndarray | None]:
        """(worst entry, worst row-sum deviation, witness) over the whole
        simplex, computed once per kernel (see `validate_kernel`)."""
        return _kernel_extremes(self)

    @cached_property
    def certified(self) -> bool:
        """True when P_mu is stochastic at every mu up to rounding: no entry
        goes below 0 on [0, 1], the linear rows sum to 1 and every higher
        coefficient row sums to 0, each within p * eps * max(1, the row's
        absolute sum).  The flows of a certified kernel skip forming P_mu
        (`flow_batch`, `tv_envelope`); the checked path would only clip and
        renormalize at rounding level there."""
        coeff = np.stack(self.coeff)
        drift = coeff.sum(axis=2)
        drift[0] -= 1.0
        rounding = self.p * np.finfo(np.float64).eps * np.maximum(np.abs(coeff).sum(axis=2), 1.0)
        return self._extremes[0] >= 0.0 and bool((np.abs(drift) <= rounding).all())


def tv_distance(a: Distribution, b: Distribution) -> float:
    """Total variation distance sum_x |a(x) - b(x)|, in [0, 2]."""
    if a.p != b.p:
        raise DimensionMismatchError(f"dimension mismatch: {a.p} vs {b.p}")
    return float(np.abs(a.probs - b.probs).sum())


def _polynomial(K: PolynomialKernel, mus: np.ndarray) -> np.ndarray:
    """Raw P_mu entries for each row of ``mus``, shape (B, p, p), unchecked."""
    B, p = mus.shape
    if p != K.p:
        raise DimensionMismatchError(f"dimension mismatch: kernel p={K.p}, mu p={p}")
    out = np.broadcast_to(K.coeff[0], (B, p, p)).copy()
    power = np.ones_like(mus)
    for c in K.coeff[1:]:
        power = power * mus
        out += np.einsum("bx,xy->bxy", power, c)    # row x reads mu[x]
    return out


def _violations(m: np.ndarray) -> tuple[np.ndarray, float, float, int | None]:
    """The one validity rule for kernels, applied to a (B, p, p) stack.

    Returns the row sums (B, p, 1), the worst entry, the worst row-sum
    deviation and the index of the first matrix with an entry below
    -EVAL_TOL or a row sum off 1 by more than EVAL_TOL (None if all pass).
    """
    sums = m.sum(axis=2, keepdims=True)
    dev = np.abs(sums - 1.0)
    worst_neg, worst_dev = float(m.min()), float(dev.max())
    if not (worst_neg < -EVAL_TOL or worst_dev > EVAL_TOL):
        return sums, worst_neg, worst_dev, None
    bad = (m < -EVAL_TOL).any(axis=(1, 2)) | (dev > EVAL_TOL).any(axis=(1, 2))
    return sums, worst_neg, worst_dev, int(np.argmax(bad))


def evaluate_batch(K: PolynomialKernel, mus) -> np.ndarray:
    """P_mu for each row of ``mus`` (B x p), as a (B, p, p) array.

    Raises KernelInvalidError, carrying the first offending mu, when any
    evaluated matrix has an entry below -EVAL_TOL or a row sum off 1 by
    more than EVAL_TOL; otherwise float noise is clipped and the rows are
    renormalized.
    """
    mus = np.asarray(mus, dtype=np.float64)
    m = _polynomial(K, mus)
    sums, worst_neg, _, i = _violations(m)
    if i is not None:
        raise KernelInvalidError(mus[i].copy(), float(m[i].min()),
                                 float(np.abs(sums[i] - 1.0).max()))
    if worst_neg < 0.0:       # clipping moves the row sums
        np.clip(m, 0.0, None, out=m)
        sums = m.sum(axis=2, keepdims=True)
    m /= sums
    return m


def evaluate_kernel(K: PolynomialKernel, mu: Distribution) -> StochasticMatrix:
    """Evaluate P_mu; raises KernelInvalidError if the result is not stochastic."""
    return StochasticMatrix(evaluate_batch(K, mu.probs[None, :])[0])


@dataclass(frozen=True)
class KernelValidationReport:
    ok: bool
    worst_negative_entry: float
    worst_row_sum_dev: float
    witness: np.ndarray | None    # a mu violating validity, if any


def _critical_points(K: PolynomialKernel) -> np.ndarray:
    """Every t = mu[x] at which an entry of row x or its row sum can take
    its extremes on [0, 1], as an (N, p) array: t = 0, t = 1 and the real
    parts, clipped to [0, 1], of all roots of each derivative.  Keeping the
    real part of complex roots too covers a near-double real root that the
    eigenvalues split into a complex pair; an extra candidate is still a
    point of [0, 1], so it cannot spoil a minimum.  Polynomials of lower
    degree pad their roots with t = 0."""
    p, d = K.p, K.degree
    coeff = np.stack(K.coeff)
    polys = np.concatenate([coeff, coeff.sum(axis=2, keepdims=True)], axis=2)
    deriv = (polys[1:] * np.arange(1.0, d)[:, None, None]).reshape(d - 1, p * (p + 1)).T
    # polynomial x(p + 1) + y is entry (x, y) for y < p and row x's sum for y = p
    roots = np.zeros((p * (p + 1), max(d - 2, 0)))
    for m in range(1, d - 1):              # derivatives of exact degree m
        sel = (deriv[:, m] != 0.0) & ~(deriv[:, m + 1:] != 0.0).any(axis=1)
        c = deriv[sel, :m + 1]                            # ascending powers
        companion = np.zeros((c.shape[0], m, m))
        companion[:, 0, :] = -c[:, m - 1::-1] / c[:, m:]
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        roots[sel, :m] = np.clip(np.linalg.eigvals(companion).real, 0.0, 1.0)
    return np.vstack([np.zeros(p), np.ones(p), roots.reshape(p, -1).T])


def _row_witness(p: int, x: int, t: float) -> np.ndarray:
    """A point of the simplex with mu[x] = t and the rest spread evenly:
    row x of P_mu there is row x of the kernel at t."""
    witness = np.full(p, (1.0 - t) / (p - 1))
    witness[x] = t
    return witness


def _kernel_extremes(K: PolynomialKernel) -> tuple[float, float, np.ndarray | None]:
    T = _critical_points(K)
    m = _polynomial(K, T)          # m[n, x] is row x of P_mu at mu[x] = T[n, x]
    sums, worst_neg, worst_dev, i = _violations(m)
    if i is None:
        return worst_neg, worst_dev, None
    # the row of matrix i furthest past its tolerance (both are EVAL_TOL)
    x = int(np.argmax(np.maximum(-m[i].min(axis=1), np.abs(sums[i, :, 0] - 1.0))))
    return worst_neg, worst_dev, _row_witness(K.p, x, T[i, x])


def validate_kernel(K: PolynomialKernel) -> KernelValidationReport:
    """Exact validity check of P_mu over the whole simplex.

    Row x of P_mu depends on mu only through t = mu[x] in [0, 1], so every
    entry is a polynomial f_xy(t) and the check is univariate per row: the
    minimum of each f_xy and the maximum of |sum_y f_xy(t) - 1| on [0, 1]
    are attained at t = 0, t = 1 or a real root of the derivative, and the
    roots come from companion-matrix eigenvalues.  ``ok`` applies the rule
    of `evaluate_batch` (no entry below -EVAL_TOL, no row sum off 1 by more
    than EVAL_TOL); when it fails, ``witness`` is a mu with mu[x] = t* at a
    violation, where `evaluate_batch` raises.  The result is computed
    once per kernel and shared with `PolynomialKernel.certified`.
    """
    worst_neg, worst_dev, witness = K._extremes
    return KernelValidationReport(witness is None, worst_neg, worst_dev,
                                  None if witness is None else witness.copy())


def require_valid(K: PolynomialKernel) -> None:
    """Raise KernelInvalidError, carrying `validate_kernel`'s witness, unless
    P_mu is stochastic everywhere on the simplex."""
    check = validate_kernel(K)
    if not check.ok:
        raise KernelInvalidError(check.witness, check.worst_negative_entry,
                                 check.worst_row_sum_dev)


def _flow_steps(K: PolynomialKernel, mus: np.ndarray, n: int):
    """Step the exact flows from the rows of ``mus`` (B x p) n times.

    Yields (P_{mu_t}, mu_{t+1}) for t = 0..n-1, with the kernel evaluated
    and checked at the cleaned mu_t and mu_{t+1} = mu_t^T P_{mu_t}.  The
    k-step products, trajectories and the flows of uncertified kernels
    advance through this loop.
    """
    for _ in range(n):
        P = evaluate_batch(K, _clean_rows(mus))
        mus = _batch_product(mus[:, None, :], P)[:, 0, :]
        yield P, mus


def _batch_product(a, P):
    """a @ P per item of a (B, m, p) and a (B, p, p) stack, summed over the
    middle state as a chain, ((a_0 P_0 + a_1 P_1) + a_2 P_2) + ...: a matmul
    rounds as the machine's BLAS kernel does, and an einsum over batch-last
    copies, with the middle state leading, rounds alike on every CPU
    build."""
    a = np.ascontiguousarray(a.transpose(1, 2, 0))
    P = np.ascontiguousarray(P.transpose(1, 2, 0))
    return np.ascontiguousarray(np.einsum("mxb,xyb->myb", a, P).transpose(2, 0, 1))


def _free_steps(K: PolynomialKernel, cols: np.ndarray, n: int):
    """mu_1..mu_n of a certified kernel from the columns of ``cols`` (p x B,
    contiguous), without forming P_mu.

    Row x of P_mu is sum_j C_j(x, .) w[x]^j with w the cleaned mu, so
    mu_{t+1} = sum_j (mu_t * w^j) C_j.  One einsum per coefficient keeps
    the reduction independent of the batch size (a matmul does not).  A
    linear kernel never reads w, so it only checks the drift.
    """
    for _ in range(n):
        low = cols.min()
        if low < -_NEG_CLIP:
            raise ValueError(f"entry {low:.3e} too negative to be rounding noise")
        nxt = np.einsum("xy,xb->yb", K.coeff[0], cols)
        if K.degree > 1:
            w = np.clip(cols, 0.0, None)
            w /= _state_sum(w)
            term = cols
            for c in K.coeff[1:]:
                term = term * w
                nxt += np.einsum("xy,xb->yb", c, term)
        cols = nxt
        yield cols


def _flows(K: PolynomialKernel, cols: np.ndarray, n: int):
    """mu_1..mu_n, each (p, B), from the columns of ``cols`` (p x B,
    contiguous): matrix-free when the kernel is certified, through the
    checked, item-major `_flow_steps` otherwise."""
    if cols.shape[0] != K.p:
        raise DimensionMismatchError(f"dimension mismatch: kernel p={K.p}, mu p={cols.shape[0]}")
    if K.certified:
        return _free_steps(K, cols, n)
    return (rows.T for _, rows in _flow_steps(K, np.ascontiguousarray(cols.T), n))


def flow_batch(K: PolynomialKernel, mu0s, n: int) -> np.ndarray:
    """Exact flows mu_0..mu_n for a batch of starts (B x p), shape (n+1, B, p)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    mu0s = np.asarray(mu0s, dtype=np.float64)
    out = np.empty((n + 1,) + mu0s.shape)
    out[0] = mu0s
    for t, cols in enumerate(_flows(K, np.ascontiguousarray(mu0s.T), n), start=1):
        out[t] = cols.T
    return out


@dataclass(frozen=True)
class StationaryResult:
    distribution: Distribution
    iterations: int
    residual: float


def _solve(m: np.ndarray) -> np.ndarray | None:
    """x with a x = b from the augmented matrix m = [a | b], which it
    overwrites, by Gauss-Jordan elimination with partial pivoting in
    elementwise arithmetic: the same bits on every BLAS kernel, unlike
    LAPACK.  None if a is singular."""
    eye = np.eye(len(m))
    for i in range(len(m)):
        r = i + int(np.abs(m[i:, i]).argmax())
        if m[r, i] == 0.0:
            return None
        row = m[r] / m[r, i]
        m[r] = m[i]
        m[i] = row
        m -= (m[:, i] - eye[i])[:, None] * row
    return m[:, -1]


def stationary(K: PolynomialKernel) -> StationaryResult:
    """Fixed point of Phi(mu) = mu^T P_mu by Newton's method from the barycenter.

    Row x of P_mu reads only mu[x], so Phi_y = sum_{j,x} C_j(x, y) mu_x^(j+1),
    J[y, x] = sum_j (j + 1) C_j(x, y) mu_x^j, and a step solves
    (J - I) d = mu - Phi(mu) with its last row, implied by the others, set to
    sum(d) = 1 - sum(mu).  It stops after a step <= 1e-12, or raises
    NonconvergenceError after 50 steps, at a singular J - I, off the simplex,
    or where pi repels: J - pi 1^T (J on sum(d) = 0) has spectral radius >= 1.
    """
    coeff, j = np.stack(K.coeff), np.arange(K.degree)[:, None]
    mu, size, it = np.full(K.p, 1.0 / K.p), math.inf, 0
    while True:
        powers = mu ** j
        phi = np.einsum("jxy,jx->y", coeff, powers * mu)
        jac = np.einsum("jxy,jx->yx", coeff, powers * (j + 1))
        if size <= 1e-12 or it == 50:
            break
        system = np.column_stack([jac - np.eye(K.p), mu - phi])
        system[-1, :-1], system[-1, -1] = 1.0, 1.0 - mu.sum()
        step = _solve(system)
        if step is None:            # J has eigenvalue 1 on sum(d) = 0
            break
        mu, size, it = mu + step, float(np.abs(step).sum()), it + 1
    residual = float(np.abs(phi - mu).sum())
    rate = float(np.abs(np.linalg.eigvals(jac - mu[:, None])).max())
    if not (size <= 1e-12 and mu.min() >= -_NEG_CLIP and rate < 1.0):
        raise NonconvergenceError(
            f"no attracting fixed point: Newton's method stopped at {np.array2string(mu, precision=8)}"
            f" (residual {residual:.1e}, linear rate {rate:.4f}, Newton steps {it})")
    return StationaryResult(_clean_probs(mu), it, residual)


def _flat_dirichlet(rng, shape) -> np.ndarray:
    """Uniform (flat Dirichlet) points of the simplex along the last axis
    of ``shape``: standard exponentials divided by their sum."""
    draws = rng.standard_exponential(shape)
    return draws / draws.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# model-spec files

_MODEL_KEYS = {"p", "degree", "coeff"}


def _reject_constant(name):
    raise ModelSpecError(f"non-finite number {name!r} in model file")


def load_model(path) -> PolynomialKernel:
    """Read a kernel from a strict JSON model file.

    Schema: {"p": int, "degree": int, "coeff": [degree flat row-major
    p*p arrays]}.  Unknown keys and non-finite numbers are rejected.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ModelSpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelSpecError("model file must contain a JSON object")
    extra = set(doc) - _MODEL_KEYS
    if extra:
        raise ModelSpecError(f"unknown keys in model file: {sorted(extra)}")
    missing = _MODEL_KEYS - set(doc)
    if missing:
        raise ModelSpecError(f"missing keys in model file: {sorted(missing)}")
    p, degree = doc["p"], doc["degree"]
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise ModelSpecError("'p' must be an integer >= 2")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise ModelSpecError("'degree' must be an integer >= 1")
    coeff = doc["coeff"]
    if not isinstance(coeff, list) or len(coeff) != degree:
        raise ModelSpecError("'coeff' must list exactly 'degree' matrices")
    mats = []
    for i, flat in enumerate(coeff):
        if not isinstance(flat, list) or len(flat) != p * p:
            raise ModelSpecError(f"coeff[{i}] must be a flat row-major array of {p * p} numbers")
        for v in flat:
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ModelSpecError(f"coeff[{i}] contains a non-numeric or non-finite entry")
        mats.append(np.asarray(flat, dtype=np.float64).reshape(p, p))
    try:
        return PolynomialKernel(tuple(mats))
    except (ValueError, DimensionMismatchError) as exc:
        raise ModelSpecError(f"model file is not a valid kernel: {exc}") from exc
