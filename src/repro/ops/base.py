"""The error every f-plan operator raises on an illegal configuration."""

from __future__ import annotations


class OperatorError(ValueError):
    """Raised when an operator is applied to an illegal configuration."""
