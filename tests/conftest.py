import csv

import numpy as np
import pytest

from nmcbounds.chain import Distribution, PolynomialKernel, StochasticMatrix
from nmcbounds.experiments import EXAMPLE1_P, EXAMPLE2_P, ComparisonTable, builtin_example


@pytest.fixture
def p1_matrix() -> StochasticMatrix:
    return StochasticMatrix(EXAMPLE1_P)


@pytest.fixture
def p2_matrix() -> StochasticMatrix:
    return StochasticMatrix(EXAMPLE2_P)


@pytest.fixture
def ex1_k01() -> PolynomialKernel:
    return builtin_example(1, 0.1)


@pytest.fixture
def ex1_k02() -> PolynomialKernel:
    return builtin_example(1, 0.2)


# degenerate 3-state chains: all rows equal (M = 0, which closes at once);
# rows 1 and 2 equal, so every pair reaches a kappa = 1 pair in one step
# (M @ M = 0: M is nilpotent, so the bracket never closes and the support
# pattern certifies rho = 0); rows 0 and 1 equal (two kappa = 1 rows next to
# live ones)
DEGENERATE_CHAINS = (
    np.tile([0.2, 0.3, 0.5], (3, 1)),
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
    np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.1, 0.2, 0.7]]),
)


# periodic linear chains: the fixed point is neutral (linear rate exactly 1),
# so no flow from another start settles there
NEUTRAL_CHAINS = (
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]),
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
)


def random_distributions(p, count, seed):
    gen = np.random.default_rng(seed)
    draws = gen.standard_exponential((count, p))
    draws /= draws.sum(axis=1, keepdims=True)
    return [Distribution(row) for row in draws]


def row_sum_drift_kernel() -> PolynomialKernel:
    """2-state kernel whose C2 and C3 rows sum to +0.1 and -0.2, so row x
    sums to 1 + 0.1 m (1 - 2 m) with m = mu[x]: stochastic at the barycenter
    (its fixed point), off by up to 0.1 elsewhere, entries always >= 0.4."""
    return PolynomialKernel((np.full((2, 2), 0.5), np.diag([0.1, 0.1]), np.diag([-0.2, -0.2])))


def two_cycle_kernel() -> PolynomialKernel:
    """Certified 2-state degree-2 kernel with one fixed point, mu[0] =
    0.38153098, which repels: the flow's linear rate there is 1.0247, so
    from other starts the flow settles into a 2-cycle around it."""
    C1 = np.array([[0.009164296157704163, 0.9908357038422958],
                   [0.02096185404860789, 0.9790381459513922]])
    C2 = np.array([[0.1358886867263398, -0.1358886867263398],
                   [0.9027083880848846, -0.9027083880848846]])
    return PolynomialKernel((C1, C2))


def bowl_kernel(floor: float) -> PolynomialKernel:
    """Valid degree-3 kernel on 3 states whose entry (0, 0) is
    floor + (t - 0.37)^2 with t = mu[0], the rest of row 0 going to state 1;
    rows 1 and 2 are constant.  Its perturbation ratio peaks inside (0, 1),
    at gamma = (0.1369 + floor)/floor - 1, and is unbounded at floor 0."""
    C1 = np.array([[0.1369 + floor, 0.8631 - floor, 0.0],
                   [0.3, 0.4, 0.3],
                   [0.2, 0.3, 0.5]])
    C2 = np.zeros((3, 3))
    C2[0, :2] = -0.74, 0.74
    C3 = np.zeros((3, 3))
    C3[0, :2] = 1.0, -1.0
    return PolynomialKernel((C1, C2, C3))


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def read_report(path) -> ComparisonTable:
    """A CSV written by ``export_report``, read back with ``csv.reader``:
    numeric cells as float, the others as text."""
    with open(path, newline="", encoding="utf-8") as fh:
        columns, *rows = csv.reader(fh)
    return ComparisonTable(columns, [[_cell(v) for v in row] for row in rows])
