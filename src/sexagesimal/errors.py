"""Shared exception types for the sexagesimal toolkit."""


class SexagesimalError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SexagesimalError, ValueError):
    """Malformed textual input.

    ``position`` is the 1-based index of the offending character in the
    original input, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


# a diagnostic quotes at most this many characters of the input it rejects
QUOTE_CHARS = 40


def quote(text: str) -> str:
    """``repr`` of an input for a diagnostic: whole when short, else its first
    `QUOTE_CHARS` characters and its length, so that the message stays one
    short line whatever the input."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"


class DomainError(SexagesimalError, ValueError):
    """An operation was called outside its mathematical domain."""
