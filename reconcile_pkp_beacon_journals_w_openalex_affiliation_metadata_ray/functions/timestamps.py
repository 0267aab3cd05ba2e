"""Timestamp formatting (`parse_record_data_from_files.py:150-169`):
epoch-milliseconds -> UTC 'YYYYMMDDHHMMSS', rejecting non-positive
values and years outside [1990, now+10y] (frozen upper bound 2036 so
results don't depend on wall clock)."""

from __future__ import annotations

from datetime import datetime, timezone

_MIN_YEAR = 1990
_MAX_YEAR = 2036  # frozen (reference used now()+10y; wall-clock-free here)


def format_epoch_ms(ms) -> str:
    """epoch ms -> 'YYYYMMDDHHMMSS' or '' when invalid/out of range."""
    try:
        ms = int(ms)
    except (TypeError, ValueError):
        return ""
    if ms <= 0:
        return ""
    try:
        dt = datetime.fromtimestamp(ms / 1000.0, tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        return ""
    if not (_MIN_YEAR <= dt.year <= _MAX_YEAR):
        return ""
    return dt.strftime("%Y%m%d%H%M%S")
