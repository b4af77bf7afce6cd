"""Error types shared across the package."""

from __future__ import annotations


class ShopstructError(Exception):
    """Base class for all package errors."""


class InputError(ShopstructError):
    """Malformed user input: bad keyword text, bad rule file, bad flags."""


class EmptyKeywordError(InputError):
    """Keyword text contained no tokens."""


class DuplicateKeywordError(InputError):
    """A rule set carried the same keyword twice, or an added keyword already exists."""


class UnknownKeywordError(InputError):
    """An update referenced a keyword that is not in the account."""


class LimitExceededError(ShopstructError):
    """A negative keyword list, campaign or ad group, is over the account's limit."""


class InfeasibleTargetError(ShopstructError):
    """A group-size target is smaller than the largest selected eraser image."""
