"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TierSlicerError(Exception):
    """Base class for all tool errors."""


class ParseError(TierSlicerError):
    """Syntax error with a source position and the expected token."""

    def __init__(self, message: str, line: int, col: int, filename: str = "<input>"):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename


class DuplicateSliceNameError(ParseError):
    pass


class UnknownAnnotationKindError(ParseError):
    pass


class MalformedConfigError(ParseError):
    pass


class MissingPlacementError(TierSlicerError):
    pass


class AllInvalidError(TierSlicerError):
    """No placement of the program is valid."""


class TooManySlicesError(TierSlicerError):
    pass


class TargetNotFoundError(TierSlicerError):
    pass

