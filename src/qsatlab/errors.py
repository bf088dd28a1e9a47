"""Shared exception types."""

from __future__ import annotations


class DimacsParseError(ValueError):
    """Raised on malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EnumerationCapError(ValueError):
    """Raised when brute-force enumeration would exceed the variable cap."""


class QubitCapError(ValueError):
    """Raised when a statevector would exceed the simulator qubit cap."""


class InvariantError(RuntimeError):
    """Raised when an internal invariant breaks: a program fault, not bad input."""
