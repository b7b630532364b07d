"""Exception types shared across the package."""


class ProxdynError(Exception):
    """Base class for all package errors."""


class ConfigError(ProxdynError):
    """Invalid problem or run configuration (dimensions, parameter ranges)."""


class EvalError(ProxdynError):
    """A user-supplied callable produced non-finite or malformed output."""


class StepSizeTooLarge(ConfigError):
    """Time step breaks the unique-minimizer rule of `core.check_step`:
    tau <= 1/(2*lambda) and 1/tau^2 > 2*lambda."""


class MaxIterExceeded(ProxdynError):
    """Inner solver hit its iteration cap. Carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NonFiniteIterate(ProxdynError):
    """Inner solver produced a NaN/inf iterate."""


class InnerSolverFailed(ProxdynError):
    """Per-step minimization failed; carries the best iterate and step index."""

    def __init__(self, message, best=None, step_index=None):
        super().__init__(message)
        self.best = best
        self.step_index = step_index


class IncompleteTrajectory(ProxdynError):
    """Trajectory lacks data (e.g. step reports) required by a diagnostic."""


class ParseError(ProxdynError):
    """Config file could not be parsed; message carries key/line context."""


class ValidationError(ProxdynError):
    """Config parsed but violates constraints; lists every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
