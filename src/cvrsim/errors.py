"""The one cvrsim exception: a scenario rejected on a named field.

The library layers raise plain ``ValueError``s; the scenario parser reports
each one as a :class:`ConfigValidationError` on the field it came from,
through :class:`reported_on`.
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


class reported_on:
    """``with reported_on(field):`` reports a ``ValueError`` raised in its block
    as a :class:`ConfigValidationError` on ``field``, with the same message.

    A class, not a generator: the scenario parser enters one per value it reads.
    """

    def __init__(self, field: str):
        self.field = field

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ValueError):
            raise ConfigValidationError(self.field, str(exc)) from None
