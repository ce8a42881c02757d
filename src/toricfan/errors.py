"""Exception types shared across the package."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class ResourceLimitError(RuntimeError):
    """An input needs more than a documented resource limit allows; not a bug."""
