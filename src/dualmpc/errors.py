"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent dimensions, invalid tuning constants, or malformed inputs."""


class DivergenceError(RuntimeError):
    """A simulation produced non-finite state."""

