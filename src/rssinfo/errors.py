"""The one error every input rule of the library raises."""


class InputError(ValueError):
    """An argument breaks a rule: a size, parameter, tolerance, order or spec out of range."""
