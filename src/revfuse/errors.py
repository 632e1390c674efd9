"""Failure taxonomy shared across the library.

Errors are split by who is at fault: bad wiring or bad config raises
``ConfigurationError`` before any compute runs, broken bookkeeping raises
``AccountingError``, calling things in an illegal order raises ``StateError``,
and a numerically dead training run raises ``DivergenceError``.
"""

from __future__ import annotations


class RevfuseError(Exception):
    """Base class for all library errors."""


class ConfigurationError(RevfuseError, ValueError):
    """Invalid shapes, channel counts, or configuration values."""


class AccountingError(RevfuseError, RuntimeError):
    """Memory accounting found live activations where none may be (a bug)."""


class StateError(RevfuseError, RuntimeError):
    """An operation was invoked in an illegal order (e.g. backward before forward)."""


class DivergenceError(RevfuseError, RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")
