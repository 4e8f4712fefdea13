"""Exception taxonomy shared by every module in the package, and the two
rules that check an argument's domain.

The hierarchy is deliberately shallow: callers that only want "did the
library object to my inputs" can catch :class:`Error`; the command-line
front end maps subclasses onto distinct exit codes.

Every range or integer check of an argument or a ``RunConfig`` field goes
through :func:`_count`, for whole numbers, or :func:`_real`, for real
numbers in an interval, so a quantity is refused alike wherever it enters.
"""

import math
import numbers

__all__ = [
    "Error",
    "DomainError",
    "InfeasibleError",
    "ConfigError",
    "MapFormatError",
    "PlacementError",
    "MenuError",
    "BoundInapplicableError",
]


class Error(Exception):
    """Base class for all errors raised by this package."""


class DomainError(Error, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleError(Error):
    """No plan satisfies the requested operating targets."""


class ConfigError(Error):
    """A structurally valid but unusable configuration was supplied."""


class MapFormatError(Error):
    """A persisted transmission map failed to parse or validate."""


class PlacementError(InfeasibleError):
    """A pattern challenge could not be placed on the given map, which
    lacks room for the glyph grid (``shortfall`` ``"grid"``), a
    high-transmission spot in some glyph cell's block (``"high"``) or
    low-transmission spots for the noise (``"noise"``)."""

    def __init__(self, message: str, shortfall: str = "") -> None:
        super().__init__(message)
        self.shortfall = shortfall


class MenuError(InfeasibleError):
    """A candidate menu of the requested size could not be assembled."""


class BoundInapplicableError(DomainError):
    """Inputs violate the validity conditions of an analytic bound."""


def _count(name: str, value, least: int, error: type[Error] = DomainError) -> int:
    """``value`` as an ``int``, if it is an integer of at least ``least``;
    else ``error``.  A bool is refused, and so is a float, whole or not."""
    if type(value) is int and value >= least:  # the common case, checked first
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")
    return value


#: Each interval :func:`_real` checks against, written as its refusals
#: name it, and its membership test.  NaN lies in none of them.
_INTERVALS = {
    "(0, 1)": lambda x: 0.0 < x < 1.0,
    "[0, 1]": lambda x: 0.0 <= x <= 1.0,
    "(0, 1]": lambda x: 0.0 < x <= 1.0,
    "[0, 1)": lambda x: 0.0 <= x < 1.0,
    "(0, 1/2)": lambda x: 0.0 < x < 0.5,
    "[0, inf)": lambda x: 0.0 <= x < math.inf,
    "(0, inf)": lambda x: 0.0 < x < math.inf,
    "(-inf, inf)": math.isfinite,
}

#: How a refusal words the unbounded intervals.
_UNBOUNDED = {"[0, inf)": "be finite and >= 0", "(0, inf)": "be positive and finite",
              "(-inf, inf)": "be finite"}


def _real(name: str, value, interval: str) -> float:
    """``value`` as a ``float``, if it is a real number in ``interval``, a
    key of :data:`_INTERVALS`; else :class:`DomainError`.  A bool, a value
    that is not a real number (a string, None, a complex) and an integer
    past the float range are refused."""
    if type(value) is not float:  # the common case, checked first
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"invalid {name} {value!r}: must be a number")
        try:
            value = float(value)
        except OverflowError:
            raise DomainError(f"invalid {name}: too large for a float") from None
    if _INTERVALS[interval](value):
        return value
    rule = _UNBOUNDED.get(interval, f"lie in {interval}")
    raise DomainError(f"invalid {name} {value!r}: must {rule}")
