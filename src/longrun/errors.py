"""Exception hierarchy for the longrun package."""


class LongrunError(Exception):
    """Base class for all package errors."""


class ZeroResidual(LongrunError):
    """A residual is exactly zero and the zero policy is 'error'."""


class EmptyAfterDrop(LongrunError):
    """All residuals were zero; nothing remains after dropping them."""


class EmptySequence(LongrunError):
    """A sign sequence with no elements was supplied."""


class ObservedOutOfRange(LongrunError):
    """The observed statistic lies outside 1..n."""


class CapExceeded(LongrunError):
    """Brute-force enumeration was requested beyond ``brute_oracle.ENUMERATION_CAP``."""


class IngestError(LongrunError):
    """Base class for CSV ingestion failures; raised itself when the input cannot be read."""


class ParseError(IngestError):
    """A CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class MissingColumns(IngestError):
    """The CSV header lacks a recognized column set."""


class NonFiniteValue(IngestError):
    """A NaN or infinite value appeared in a numeric column."""

    def __init__(self, line: int, column: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}: non-finite value in column '{column}'")


class UnreadableInput(IngestError):
    """The CSV text could not be decoded or split into fields after ``line`` lines read."""

    def __init__(self, line: int, cause: Exception):
        self.line = line
        super().__init__(f"unreadable text (lines read: {line}): {cause}")
