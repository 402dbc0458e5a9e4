"""Exception types shared across the package."""


class NmcError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(NmcError):
    """Two objects that must share a state space do not."""


class KernelInvalidError(NmcError):
    """A kernel evaluated outside the stochastic-matrix cone.

    Carries the offending distribution (a probability vector) and the worst
    violation so callers can report where validity breaks.
    """

    def __init__(self, message, mu=None, worst_entry=None, worst_row_sum_dev=None):
        super().__init__(message)
        self.mu = mu
        self.worst_entry = worst_entry
        self.worst_row_sum_dev = worst_row_sum_dev


class NonconvergenceError(NmcError):
    """Fixed-point iteration did not reach tolerance within max_iter."""

    def __init__(self, message, last_iterate=None, residual=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations


class InfiniteGammaError(NmcError):
    """The linear/nonlinear transition ratio is unbounded (the gamma
    perturbation assumption fails for this kernel)."""

    def __init__(self, message, entry=None, mu=None):
        super().__init__(message)
        self.entry = entry
        self.mu = mu


class ModelSpecError(NmcError):
    """A model-spec JSON file failed strict validation."""


class PriceDataError(NmcError):
    """A price CSV failed ingestion checks."""


class AlignmentError(NmcError):
    """Series that must share dates do not overlap as required."""
