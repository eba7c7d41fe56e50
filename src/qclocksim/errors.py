"""Exception and warning types shared across the package."""


class RegimeWarning(UserWarning):
    """A state or boost left the low-energy regime the model is valid in."""


class RegimeError(ValueError):
    """Regime violation escalated to an error (strict mode, or a hard bound).

    `run` is the index of the offending run within its batch, when known.
    """

    def __init__(self, message: str, run: int | None = None):
        super().__init__(message)
        self.run = run


class SequencingError(RuntimeError):
    """A boost sequence failed to return momenta to their initial values."""


class IdentityViolationError(RuntimeError):
    """A numerically evolved state disagrees with its closed-form prediction."""


class WraparoundError(RuntimeError):
    """Grid-state support reached the edge of the periodic box."""


class IntegrationError(RuntimeError):
    """A pulse propagation failed its own check: the eigendecomposition
    residual or the norm defect of the propagated state exceeded tolerance."""


class GridTooNarrowError(RuntimeError):
    """A scan peak landed on the edge of the detuning grid."""


class ConfigError(ValueError):
    """Scenario configuration is malformed or out of the supported range."""
