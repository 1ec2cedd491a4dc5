"""Exception hierarchy for the cantok package."""


class CantokError(Exception):
    """Base class for all errors raised by cantok."""


class ParseError(CantokError):
    """A capture line could not be decoded.

    Carries the offending line content and the reason so batch loaders can
    report the exact failure location. The message holds the first 80
    characters of the reason and of the quoted line only, and says how many
    it cut from each.
    """

    def __init__(self, line: str, reason: str, lineno: int | None = None):
        self.line = line
        self.reason = reason
        self.lineno = lineno
        where = f" (line {lineno})" if lineno is not None else ""
        cut = [f" and {len(s) - 80} more characters" if len(s) > 80 else "" for s in (reason, line)]
        super().__init__(f"{reason[:80]}{cut[0]}{where}: {line[:80]!r}{cut[1]}")


class AnalysisError(CantokError):
    """An analysis precondition was violated (bad input, not a bug)."""


class InvariantError(CantokError):
    """An internal invariant failed; indicates a bug, not bad input."""
