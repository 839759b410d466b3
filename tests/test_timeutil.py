from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timem.timeutil import format_ts, parse_ts

from conftest import utc

OFFSETS = [timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-5, minutes=-30))]


@given(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                    timezones=st.sampled_from(OFFSETS)))
def test_a_formatted_time_parses_back_to_its_second(dt):
    """Every year from 1 to 9999 round-trips; the day of margin keeps the
    UTC value of an offset time inside the years datetime can hold."""
    parsed = parse_ts(format_ts(dt))
    assert parsed == dt.replace(microsecond=0)
    assert parsed.tzinfo is timezone.utc


def test_a_year_below_1000_is_zero_padded():
    assert format_ts(utc(999, 5, 1, 10)) == "0999-05-01T10:00:00Z"
    assert format_ts(datetime(7, 1, 2, 3, 4, 5)) == "0007-01-02T03:04:05Z"  # naive is UTC


@pytest.mark.parametrize("text", [
    "2023-05-20T09:10:11Z", "2023-05-20T11:10:11+02:00", "2023-05-20T09:10:11",
    "2023-05-20T09:10:11.75Z", "2023-05-20T11:10:11.5+02:00", "2023-05-20T09:10:11+00:00"])
def test_parse_gives_the_utc_second_of_any_form(text):
    parsed = parse_ts(text)
    assert parsed == utc(2023, 5, 20, 9, 10, 11)
    assert parsed.tzinfo is timezone.utc and parsed.microsecond == 0
