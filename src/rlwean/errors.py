"""Shared exception types and the count check every config uses."""

import numpy as np


class UnsupportedError(ValueError):
    """Operation is not defined for this environment or action space."""


class CompatibilityError(ValueError):
    """A prior artifact does not match the target observation/action space."""


def check_count(name: str, value) -> None:
    """Raise ValueError unless value is an integer >= 1 (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 1:
        raise ValueError(f"{name} must be an integer >= 1")
