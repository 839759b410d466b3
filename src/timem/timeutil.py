"""UTC timestamp helpers (second resolution, ISO-8601 with Z suffix)."""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone


def parse_ts(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC.

    The result is in `timezone.utc`, truncated to the second. Python 3.10's
    `fromisoformat` does not read a "Z" suffix, hence the replace. A value
    that is not a string raises `TypeError`.
    """
    if not isinstance(text, str):
        raise TypeError(f"a timestamp is a string, not {type(text).__name__}")
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    elif dt.tzinfo is not timezone.utc:
        dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=0) if dt.microsecond else dt


def format_ts(dt: datetime) -> str:
    """`dt` in UTC as "YYYY-MM-DDTHH:MM:SSZ", the year zero-padded to four
    digits as `parse_ts` requires; naive values are taken as UTC."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc)
    return (f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}"
            f"T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z")


def day_window(dt: datetime) -> tuple[datetime, datetime]:
    """[00:00, next day 00:00) of the UTC calendar day containing dt."""
    start = datetime(dt.year, dt.month, dt.day, tzinfo=timezone.utc)
    return start, start + timedelta(days=1)


def week_window(dt: datetime) -> tuple[datetime, datetime]:
    """[Monday 00:00, next Monday 00:00) of the ISO week containing dt."""
    iso = dt.date().isocalendar()
    monday = date.fromisocalendar(iso[0], iso[1], 1)
    start = datetime(monday.year, monday.month, monday.day, tzinfo=timezone.utc)
    return start, start + timedelta(days=7)


def month_window(dt: datetime) -> tuple[datetime, datetime]:
    """[1st 00:00, 1st of next month 00:00) of the calendar month containing dt."""
    start = datetime(dt.year, dt.month, 1, tzinfo=timezone.utc)
    if dt.month == 12:
        end = datetime(dt.year + 1, 1, 1, tzinfo=timezone.utc)
    else:
        end = datetime(dt.year, dt.month + 1, 1, tzinfo=timezone.utc)
    return start, end

