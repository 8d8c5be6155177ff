"""Exception types shared across the toolkit."""


class NimregError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(NimregError):
    """Invalid configuration, arguments, or input data."""


class CapabilityError(NimregError):
    """A vector field or driver does not support the requested jet evaluation."""


class PreconditionError(NimregError):
    """An operation was invoked outside its stated contract."""


class FitError(NimregError):
    """Decay fitting failed, usually because too few samples sit above the floor."""


class SearchError(NimregError):
    """A gain search exhausted its budget without meeting the target.

    Carries the search history so the caller can report evidence.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class IntegrationError(NimregError):
    """Integration aborted (divergence past the overflow guard or step underflow).

    ``partial`` holds the trajectory computed so far; ``failed`` is the
    boolean mask of the batch columns that tripped the guard (0-d for an
    (m,) state), or None when the run stopped for another reason.
    """

    def __init__(self, message, partial=None, failed=None, t_fail=None):
        super().__init__(message)
        self.partial = partial
        self.failed = failed
        self.t_fail = t_fail


class BoundednessError(NimregError):
    """Zero-dynamics trajectories escaped the guarded region during attractor
    estimation, which is evidence against the boundedness assumption on the
    sampled scenario sets."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence
