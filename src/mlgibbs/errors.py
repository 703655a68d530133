"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """An argument is outside its admissible range or has the wrong shape."""


class NumericalOverflowError(ArithmeticError):
    """A simulated path left the representable float range.

    ``step_index`` names the first offending Euler step when known.
    """

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class ConvergenceError(RuntimeError):
    """An iterative search exhausted its iteration budget."""


class InfeasibleCalibrationError(ValueError):
    """The requested accuracy leads to an unusable discretization schedule."""


class OracleFailureError(RuntimeError):
    """A reference-value computation (quadrature or long run) failed."""


class ConfigError(ValueError):
    """Invalid, missing, or unknown experiment configuration field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
