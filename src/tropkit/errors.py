"""Error types shared across the toolkit.

Exit-code contract for the command line front-end:
  0  operation succeeded / predicate true
  1  predicate false
  2  input error (malformed file, bad reference, violated precondition)
  3  certificate failure (an internal consistency check did not hold)
"""


class InputError(ValueError):
    """Malformed input: bad file, bad reference, or violated precondition."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(message)
        self.location = location


class CertificateError(RuntimeError):
    """An internal certificate check failed.

    Raised when a computed result does not satisfy its own optimality or
    consistency certificate. This is never downgraded to a warning: a
    certificate failure means either a bug or inputs outside the theory,
    and silently returning the uncertified value would be worse than
    failing loudly.
    """

    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}
