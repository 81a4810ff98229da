"""Exception types shared across the toolkit, and the integer and number
field checks that turn a malformed input field into a ``ValidationError``."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class ValidationError(ToolkitError, ValueError):
    """Input data fails a structural or numerical validity check."""


class UsageError(ToolkitError, ValueError):
    """An operation was called with arguments outside its contract."""


class DomainError(ToolkitError, ValueError):
    """A parameter lies outside the mathematical domain of a formula."""


class CapacityError(ToolkitError):
    """A requested enumeration exceeds the configured support guard."""


class InternalConsistencyError(ToolkitError, RuntimeError):
    """A computed quantity violated an exact identity beyond tolerance."""


def int_field(value, field: str) -> int:
    """``int(value)``, or a ``ValidationError`` naming the input field."""
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{field}: expected an integer, got {value!r}") from exc


def float_field(value, field: str) -> float:
    """``float(value)``, or a ``ValidationError`` naming the input field."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{field}: expected a number, got {value!r}") from exc
