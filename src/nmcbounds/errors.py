"""Exception types shared across the package."""


class NmcError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(NmcError):
    """Two objects that must share a state space do not."""


class KernelInvalidError(NmcError):
    """A kernel evaluated outside the stochastic-matrix cone.

    Carries the offending distribution (a probability vector) and the worst
    violation so callers can report where validity breaks; the message is
    formatted from them, so every raise site reports the same text.
    """

    def __init__(self, mu, worst_entry, worst_row_sum_dev):
        super().__init__(f"kernel invalid at mu: worst entry {worst_entry:.3e}, "
                         f"row-sum deviation {worst_row_sum_dev:.3e}")
        self.mu = mu
        self.worst_entry = worst_entry
        self.worst_row_sum_dev = worst_row_sum_dev

    def __reduce__(self):     # pickle and copy rebuild from the fields
        return type(self), (self.mu, self.worst_entry, self.worst_row_sum_dev)


class NonconvergenceError(NmcError):
    """Newton's method found no fixed point, or the one it found repels."""


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
