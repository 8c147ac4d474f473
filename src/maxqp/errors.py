"""Exception types shared by all solver modules."""


class MaxQPError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MaxQPError):
    """Malformed instance/assignment/partition/decomposition input.

    `line` carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(MaxQPError):
    """Input violates a documented precondition or invariant."""


class CapacityError(MaxQPError):
    """Instance exceeds a configured resource cap (width cap, brute-force cap).

    `achieved` carries the offending quantity.  For the width cap it is the
    width of the first bag found over the cap, which is a lower bound on the
    heuristic's final width; for the brute-force cap it is the vertex count.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class InternalError(MaxQPError):
    """A runtime self-check failed; indicates a bug, not bad input."""
