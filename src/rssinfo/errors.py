"""The errors the library raises."""


class InputError(ValueError):
    """An argument breaks a rule: a size, parameter, tolerance, order or spec out of range."""


class DivergentIntegralError(ValueError):
    """An integrand is NaN or +/-inf, at ``x`` and in row ``component`` of a (k, m) one when known:
    the integral diverges (e.g. support mismatch) or is not representable in floats."""

    def __init__(self, message: str, x: float | None = None, component: int | None = None):
        super().__init__(message)
        self.x, self.component = x, component
