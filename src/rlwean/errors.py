"""The prior-compatibility exception and the value checks every config
uses."""

import math
import numbers

import numpy as np


class CompatibilityError(ValueError):
    """A prior artifact does not match the target observation/action space."""


def check_count(name: str, value) -> None:
    """Raise ValueError unless value is an integer >= 1 (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 1:
        raise ValueError(f"{name} must be an integer >= 1")


def check_seed(name: str, value) -> None:
    """Raise ValueError unless value is an integer >= 0 (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number")
