"""Exception hierarchy shared by all nambu-forge modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
module-qualified error identifiers without inspecting exception types.
"""

from __future__ import annotations


class NambuForgeError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class InvalidArgumentError(NambuForgeError):
    """An operation was called with arguments outside its domain."""

    code = "invalid-argument"


class ResourceLimitError(NambuForgeError):
    """A configured size or degree bound would be exceeded."""

    code = "resource-limit"

    @classmethod
    def over(cls, what: str, name: str, bound) -> "ResourceLimitError":
        """The refusal of a named bound, in its one sentence:
        "<what> is over the <name> bound <bound>"."""
        return cls(f"{what} is over the {name} bound {bound}")


class IntegrationFailureError(NambuForgeError):
    """Numeric time evolution produced a non-finite state."""

    code = "integration-failure"

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class ExprSyntaxError(NambuForgeError):
    """Expression text could not be parsed; ``position`` is a 0-based offset."""

    code = "syntax"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
