"""Exception types the engines raise for a broken method or an unusable input,
refused at load at the field each type names, a RegimeError subclass at its
own field rather than its base's; an oracle deviation or numerical health is returned."""


class RegimeError(ValueError):
    """A level, a boost kick or an accumulated phase left the regime the model is valid in.

    `run` is the index of the offending run within its batch, when known.
    """

    def __init__(self, message: str, run: int | None = None):
        super().__init__(message)
        self.run = run


class PhaseCapError(RegimeError):
    """A round trip's accumulated phase passed the mod-2pi safety cap."""


class LevelResolutionError(RegimeError):
    """A round trip read a dilation factor outside (0, 2) off its level phases."""


class SequencingError(RuntimeError):
    """A boost sequence failed to return momenta to their initial values."""


class ConfigError(ValueError):
    """Scenario configuration is malformed or out of the supported range."""
