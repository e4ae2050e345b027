"""Exception types shared across the package."""


class MaxMinFairError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstance(MaxMinFairError, ValueError):
    """The raw instance description is malformed."""


class DuplicateId(InvalidInstance):
    pass


class UnknownResource(InvalidInstance):
    pass


class UnknownPlayer(InvalidInstance):
    pass


class NegativeValue(InvalidInstance):
    pass


class EmptyPlayers(InvalidInstance):
    pass


class InvalidTarget(MaxMinFairError, ValueError):
    """Normalization target must be strictly positive."""


class DimensionMismatch(MaxMinFairError, ValueError):
    """Linear program rows do not match the objective width."""


class NegativePrice(MaxMinFairError, ValueError):
    """Resource prices for pricing problems must be non-negative."""


class BudgetExceeded(MaxMinFairError, RuntimeError):
    """An exact enumeration would exceed its configured budget."""


class NotAddable(MaxMinFairError, ValueError):
    """The edge violates the addability conditions for the current state."""


class NoRemovableBlocker(MaxMinFairError, RuntimeError):
    """Contraction requires at least one blocker with no blocking edges."""


class PlayerAlreadyMatched(MaxMinFairError, ValueError):
    pass


class MatchingNotPerfect(MaxMinFairError, ValueError):
    pass


class NotAPartition(MaxMinFairError, ValueError):
    """An allocation must cover every resource exactly once."""


class StateNotStuck(MaxMinFairError, ValueError):
    """Dual certificates are only defined for halted search states."""


class VerificationFailed(MaxMinFairError, RuntimeError):
    """An exact re-check of a computed result failed: a solver fault."""
