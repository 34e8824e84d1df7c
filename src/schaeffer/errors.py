"""Exception types shared across the package; a bad tuning parameter is a ``DomainError``."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ModeError(ValueError):
    """The operation's hypotheses do not hold; a different routine applies."""


class ResourceError(RuntimeError):
    """A computation would exceed its configured size budget."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed, signalling a construction bug."""
