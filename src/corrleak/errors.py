"""Exception types, the memory and work budgets shared across the toolkit, and
the checks that turn a malformed 0/1-string, integer or number field into an error."""

import math
import numbers


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class ValidationError(ToolkitError, ValueError):
    """Input data fails a structural or numerical validity check."""


class UsageError(ToolkitError, ValueError):
    """An operation was called with arguments outside its contract."""


class DomainError(ToolkitError, ValueError):
    """A parameter lies outside the mathematical domain of a formula."""


class CapacityError(ToolkitError):
    """A requested computation exceeds the memory budget, the work budget or
    an integer width."""


class InternalConsistencyError(ToolkitError, RuntimeError):
    """A computed quantity violated an exact identity beyond tolerance."""


#: Bytes that the arrays of one enumeration may take at their peak.
MEMORY_BUDGET = 1 << 32


def check_budget(nbytes: int, what: str) -> None:
    """Raise ``CapacityError`` when ``what`` would take more than ``MEMORY_BUDGET`` bytes."""
    if nbytes > MEMORY_BUDGET:  # nbytes may have thousands of digits: name its power of two
        raise CapacityError(
            f"{what} would take at least 2**{nbytes.bit_length() - 1} bytes, over the "
            f"memory budget of 2**{MEMORY_BUDGET.bit_length() - 1}"
        )


#: Steps that one exact computation may take.  A step is one element that the
#: entropy kernel codes or one operation on big integers: about a minute.
WORK_BUDGET = 1 << 32


def check_work(steps: int, what: str) -> None:
    """Raise ``CapacityError`` when ``what`` would take more than ``WORK_BUDGET`` steps."""
    if steps > WORK_BUDGET:
        raise CapacityError(
            f"{what} would take at least 2**{steps.bit_length() - 1} steps, over the "
            f"work budget of 2**{WORK_BUDGET.bit_length() - 1}"
        )


def is_int(value) -> bool:
    """True for an int or a numpy integer, never for a bool."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_bits(value, width: int) -> bool:
    """True for a string of exactly ``width`` ASCII 0/1 characters."""
    return isinstance(value, str) and len(value) == width and set(value) <= {"0", "1"}


def int_field(value, field: str) -> int:
    """``value`` as an int, or a ``ValidationError`` naming the input field:
    a bool, a fractional or non-finite number or a non-integer string is
    refused, never truncated."""
    fractional = isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not fractional:
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{field}: expected an integer, got {value!r}")


def float_field(value, field: str) -> float:
    """``value`` as a finite float, or a ``ValidationError`` naming the input
    field: a bool, NaN, an infinity or a non-number is refused."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number):
            return number
    raise ValidationError(f"{field}: expected a finite number, got {value!r}")
