"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when parameters violate their domain constraints."""


class ResourceCapError(RuntimeError):
    """Raised when a computation would exceed one of the package's fixed
    resource limits (the oracle's n, the series order, the stores' sizes,
    the int-to-str digits)."""
