"""Shared exception and warning types."""


class EvaluationError(RuntimeError):
    """A user function or integrand produced a non-finite value."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class ConvergenceError(RuntimeError):
    """Adaptive integration exhausted its budget before reaching tolerance.

    Carries the best available estimate and an error bound for it, which is
    inf where part of the domain was never visited.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class CancellationWarning(UserWarning):
    """An alternating sum lost essentially all significant digits."""


class CatalogError(ValueError):
    """A test-function name did not parse against the catalog grammar."""
