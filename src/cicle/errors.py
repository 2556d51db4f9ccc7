"""Exception types shared across the toolkit."""


class CicleError(Exception):
    """Base class for all toolkit errors."""


class DataError(CicleError):
    """Malformed or inconsistent input data (files, rows, configuration)."""


class TransportError(CicleError):
    """A remote call failed, possibly after exhausting retries."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts
