"""Exception hierarchy for the memory engine."""

from __future__ import annotations


class TimemError(Exception):
    """Base class for all engine errors."""


# --- tree errors ---


class DuplicateId(TimemError):
    pass


class LevelEdgeViolation(TimemError):
    """Parent level is not child level + 1."""


class ContainmentViolation(TimemError):
    """Child interval not covered by parent interval."""


class ParentConflict(TimemError):
    """An adopt whose parent already has children, whose child already
    has a parent, or which names a child twice."""


class UnknownNode(TimemError):
    pass


class UnknownUser(TimemError):
    pass


# --- ingestion / scheduling ---


class NonMonotonicTimestamp(TimemError):
    """A turn arrived with a timestamp earlier than the last ingested one,
    or a node would not sort last on its tree level."""


class BackendFailure(TimemError):
    """A provider call failed; the triggering work is retriable."""


# --- provider errors ---


class ProviderError(TimemError):
    pass


class ProviderTimeout(ProviderError):
    pass


class RateLimited(ProviderError):
    pass


# --- scoring ---


class DimensionMismatch(TimemError):
    pass


class ZeroVector(TimemError):
    pass


class IndexOutOfRange(TimemError):
    pass


# --- persistence / parsing ---


class SchemaError(TimemError):
    """Transcript or questions file does not match the documented schema."""


class CorruptRecord(TimemError):
    """A log record could not be decoded; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class StoreIoError(TimemError):
    pass


# --- metrics ---


class DegenerateInput(TimemError):
    pass
