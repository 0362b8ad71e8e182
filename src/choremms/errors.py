"""Exception hierarchy shared across the package."""


class ChoreMMSError(Exception):
    """Base class for all package errors."""


class ParseError(ChoreMMSError):
    """Malformed instance or allocation file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotIDO(ChoreMMSError):
    """No universal ordering exists; apply to_ido first."""


class NotFactored(ChoreMMSError):
    """Cost function is not factored."""


class NotBivalued(ChoreMMSError):
    """Cost function has more than two distinct values."""


class UnsupportedClass(ChoreMMSError):
    """Operation requires a factored or bivalued cost function."""


class TooLarge(ChoreMMSError):
    """Instance exceeds a capacity limit: the brute-force MMS oracle's or
    the subset-sum grid's cap on m."""


class BadParams(ChoreMMSError):
    """Invalid generator or solver parameters."""


class SubsetViolation(ChoreMMSError):
    """Swap arguments are not subsets of their bundles."""


class EmptyBinDeadlock(ChoreMMSError):
    """A fresh HFFD bin accepts no chore for any remaining agent."""

    def __init__(self, chore):
        super().__init__(f"no remaining agent can take chore {chore} even into an empty bin")
        self.chore = chore


class PreconditionViolation(ChoreMMSError):
    """Caller violated an operation's stated preconditions."""


class InvariantViolation(ChoreMMSError):
    """A per-step assertion failed; carries the transcript for replay."""

    def __init__(self, message, transcript=None):
        super().__init__(message)
        self.transcript = transcript


class TheoremViolation(ChoreMMSError):
    """A solver guarantee failed; carries the instance as a counterexample."""

    def __init__(self, message, instance=None):
        super().__init__(message)
        self.instance = instance
