"""Argument-validation helpers used throughout the library.

Each helper raises :class:`repro.util.errors.ValidationError` with a
message naming the offending argument so failures surface close to the
call site instead of deep inside numerical code.
"""

from __future__ import annotations

import math
from typing import Any

from repro.util.errors import ValidationError


def _reject_non_finite(name: str, value: float) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def require_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number strictly greater than 0."""
    _require_number(name, value)
    _reject_non_finite(name, value)
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number greater than or equal to 0."""
    _require_number(name, value)
    _reject_non_finite(name, value)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def require_positive_int(name: str, value: Any) -> int:
    """Return ``value`` if it is an integer strictly greater than 0.

    Booleans are rejected even though they are ``int`` subclasses:
    passing ``True`` as a core count is always a bug.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return value


def require_non_negative_int(name: str, value: Any) -> int:
    """Return ``value`` if it is an integer greater than or equal to 0.

    Booleans are rejected, as in :func:`require_positive_int`.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def require_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Return ``value`` if it falls within ``[low, high]`` (bounds adjustable)."""
    _require_number(name, value)
    _reject_non_finite(name, value)
    low_ok = value >= low if inclusive_low else value > low
    high_ok = value <= high if inclusive_high else value < high
    if not (low_ok and high_ok):
        lo_b = "[" if inclusive_low else "("
        hi_b = "]" if inclusive_high else ")"
        raise ValidationError(
            f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value!r}"
        )
    return value


def _require_number(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
