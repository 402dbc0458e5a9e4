"""Built-in example kernels, true-TV envelopes and bound-comparison tables.

The two built-in chains are small perturbed matrices (4 and 5 states) with
a single tunable nonlinearity strength kappa; the comparison table puts
the exact propagated TV distances next to every bound curve so the
domination claims can be checked as data.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, full_report
from .chain import PolynomialKernel, _flat_dirichlet, _flows, _state_sum, stationary
from .rng import as_generator, derive_seed

EXAMPLE1_P = np.array([
    [0.4, 0.2, 0.2, 0.2],
    [0.3, 0.4, 0.2, 0.1],
    [0.2, 0.2, 0.4, 0.2],
    [0.2, 0.1, 0.2, 0.5],
])

EXAMPLE2_P = np.array([
    [0.4, 0.3, 0.1, 0.1, 0.1],
    [0.2, 0.4, 0.2, 0.1, 0.1],
    [0.1, 0.2, 0.4, 0.2, 0.1],
    [0.1, 0.1, 0.2, 0.4, 0.2],
    [0.1, 0.1, 0.1, 0.3, 0.4],
])


def builtin_example(example_id: int, kappa: float) -> PolynomialKernel:
    """Degree-2 kernel for one of the two built-in perturbed chains.

    Example 1 (4 states) moves kappa*mu[0] of mass within row 0; example 2
    (5 states) boosts each diagonal by kappa*mu[x] at the expense of one
    neighbor.
    """
    if example_id == 1:
        C1 = EXAMPLE1_P.copy()
        C2 = np.zeros((4, 4))
        C2[0, 0] = -kappa
        C2[0, 2] = +kappa
        return PolynomialKernel((C1, C2))
    if example_id == 2:
        C1 = EXAMPLE2_P.copy()
        C2 = np.zeros((5, 5))
        for x in range(5):
            C2[x, x] = +kappa
        C2[0, 1] = -kappa
        C2[1, 2] = -kappa
        C2[2, 3] = -kappa
        C2[3, 4] = -kappa
        C2[4, 3] = -kappa
        return PolynomialKernel((C1, C2))
    raise ValueError("example_id must be 1 or 2")


@dataclass(frozen=True)
class EnvelopeResult:
    """Per-step min/mean/max of the true TV distance to the fixed point.

    Index t runs 0..steps; row 0 is the spread of the initial draws.
    """

    tv_min: np.ndarray
    tv_mean: np.ndarray
    tv_max: np.ndarray


_ENVELOPE_BLOCK = 8192
"""The most start columns `tv_envelope` flows together (a leaf of its
summation tree).  It must stay >= 128: numpy splits a row only past 128
terms, so a smaller cap would split where numpy adds in one piece."""


def _pairwise_total(n: int, cap: int, leaf):
    """Sum of n terms in the order of numpy's pairwise ``sum`` along a
    contiguous axis, built from ``leaf(m)``, the sum of the next m terms.

    Past ``cap`` (>= 128) terms the run splits as numpy splits it, the
    first half ``n // 2`` rounded down to a multiple of 8, and the two
    halves' totals are added; each leaf of at most ``cap`` terms is summed
    by numpy itself.  The leaves are called in order, left to right."""
    if n <= cap:
        return leaf(n)
    half = n // 2 - n // 2 % 8
    return _pairwise_total(half, cap, leaf) + _pairwise_total(n - half, cap, leaf)


def tv_envelope(K: PolynomialKernel, trials: int, steps: int, rng) -> EnvelopeResult:
    """Envelope of exact ||mu_n - pi||_TV over random (flat Dirichlet)
    initial distributions.

    The trials stream through the leaves of numpy's pairwise summation
    tree over a row of ``trials`` terms: a run of more than
    `_ENVELOPE_BLOCK` terms splits, as numpy splits any run past 128, into
    a first half of ``n // 2`` rounded down to a multiple of 8 and the
    rest, so the cap must stay >= 128.  Each leaf draws its starts from the
    one generator (the same values as one draw of all of them), flows
    them, folds its per-step TV distances into running minima and maxima
    and keeps their per-step sum; the leaf sums are added back up along
    the same tree.  So the mean is ``tv.mean(axis=1)`` of the full
    (steps + 1, trials) matrix bit for bit, and memory is
    O(p * block + steps * leaves), whatever ``trials`` is.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    pi = stationary(K).distribution
    gen = as_generator(rng)
    target = pi.probs[:, None]
    tv_min = np.full(steps + 1, np.inf)
    tv_max = np.full(steps + 1, -np.inf)

    def leaf(m):
        cols = np.ascontiguousarray(_flat_dirichlet(gen, (m, K.p)).T)    # (p, m)
        sums = np.empty(steps + 1)
        for t, mus in enumerate(itertools.chain([cols], _flows(K, cols, steps))):
            tv = _state_sum(np.abs(mus - target))
            tv_min[t] = np.minimum(tv_min[t], tv.min())
            tv_max[t] = np.maximum(tv_max[t], tv.max())
            sums[t] = np.add.reduce(tv)
        return sums

    total = _pairwise_total(trials, _ENVELOPE_BLOCK, leaf)
    return EnvelopeResult(tv_min, total / trials, tv_max)


@dataclass
class ComparisonTable:
    """Plain rectangular table (a header and rows), ready for CSV export."""

    columns: list
    rows: list


def compare_bounds(K: PolynomialKernel, steps: int, trials: int = 1000,
                   seed: int | None = None) -> tuple[ComparisonTable, BoundReport]:
    """True-TV envelope next to every bound curve, one row per step n.

    The report is ``full_report(K, steps, seed=seed)``.  The envelope's
    random starts come from a stream of their own, ``derive_seed(seed, 1)``,
    so they do not depend on how many draws the report's samplers take.
    """
    report = full_report(K, steps, seed=seed)
    env = tv_envelope(K, trials, steps, None if seed is None else derive_seed(seed, 1))
    columns = ["n", "tv_min", "tv_mean", "tv_max",
               "md", "spectral", "combined_small_n", "combined_large_n"]
    rows = []
    for i in range(steps):
        n = i + 1
        rows.append([
            n,
            float(env.tv_min[n]), float(env.tv_mean[n]), float(env.tv_max[n]),
            float(report.curves["md"][i]), float(report.curves["spectral"][i]),
            float(report.curves["combined_small_n"][i]),
            float(report.curves["combined_large_n"][i]),
        ])
    return ComparisonTable(columns, rows), report


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".15g")


def write_atomic(path, write) -> None:
    """Call ``write(fh)`` on a UTF-8, LF-ending temp file beside ``path`` and
    move it into place, so a failure leaves nothing behind."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"directory does not exist: {directory}")
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export_report(table: ComparisonTable, path) -> None:
    """Write a table as CSV through `write_atomic`: header row,
    15-significant-digit values."""
    write_atomic(path, lambda fh: fh.writelines(
        ",".join(map(_format_cell, row)) + "\n" for row in [table.columns, *table.rows]))

