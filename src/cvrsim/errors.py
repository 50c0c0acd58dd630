"""The one cvrsim exception: a scenario rejected on a named field.

The library layers raise plain ``ValueError``s; the scenario parser reports
each one as a :class:`ConfigValidationError` on the field it came from.
"""


class ConfigValidationError(ValueError):
    """A scenario document failed schema validation.

    ``field`` holds a dotted path to the offending entry.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message

    def __reduce__(self):  # a sweep worker's error is pickled back to the parent
        return type(self), (self.field, self.reason)
