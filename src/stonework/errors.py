"""Exception types shared across the library."""


class StoneworkError(Exception):
    """Base class for all library errors."""


class InvalidStructure(StoneworkError):
    """Input fails a structural precondition (names the missing property)."""


class GuardExceeded(StoneworkError):
    """A construction would exceed a configured size guard."""

    def __init__(self, what, size, bound):
        super().__init__(f"{what} would need {size} elements, over the guard of {bound}")
        self.what = what
        self.size = size
        self.bound = bound


class CheckFailed(StoneworkError):
    """A verification that a theorem guarantees has failed (bug detector)."""


class ParseError(StoneworkError):
    """Malformed input file; carries line/column where known."""

    def __init__(self, message, line=None, column=None):
        loc = "" if line is None else f" (line {line}" + ("" if column is None else f", col {column}") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class FileError(StoneworkError):
    """An input file exists but cannot be read (a directory, no permission)."""
