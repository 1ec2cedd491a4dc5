"""Exception hierarchy for the cantok package."""


class CantokError(Exception):
    """Base class for all errors raised by cantok."""


class ParseError(CantokError):
    """A capture line could not be decoded.

    Carries the offending line content and the reason so batch loaders can
    report the exact failure location. The message quotes the line's first
    80 characters only, and says how many it cut.
    """

    def __init__(self, line: str, reason: str, lineno: int | None = None):
        self.line = line
        self.reason = reason
        self.lineno = lineno
        where = f" (line {lineno})" if lineno is not None else ""
        more = f" and {len(line) - 80} more characters" if len(line) > 80 else ""
        super().__init__(f"{reason}{where}: {line[:80]!r}{more}")


class AnalysisError(CantokError):
    """An analysis precondition was violated (bad input, not a bug)."""


class InvariantError(CantokError):
    """An internal invariant failed; indicates a bug, not bad input."""
