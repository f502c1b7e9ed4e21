"""Exception types shared across the toolkit."""


class SgError(Exception):
    """Base class for all sgplan errors."""


class DimensionMismatch(SgError, ValueError):
    """Strategy or matrix dimensions do not line up."""


class EnumerationCapExceeded(SgError, ValueError):
    """Game too large for support enumeration."""


class DegenerateGame(SgError):
    """No equilibrium survived numerical verification."""


class SelectionFailure(SgError):
    """A selection function failed at a specific backup node."""

    def __init__(self, state, t, cause):
        super().__init__(f"selection failed at state={state}, t={t}: {cause}")
        self.state = state
        self.t = t
        self.cause = cause


class NodeBudgetExceeded(SgError):
    """Sparse-sampling recursion exceeded its node budget."""


class MissingPolicyEntry(SgError, KeyError):
    """A policy has no strategy for a queried (state, t) or state."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class GameFileError(SgError, ValueError):
    """A game/policy/config file failed to parse or validate."""
