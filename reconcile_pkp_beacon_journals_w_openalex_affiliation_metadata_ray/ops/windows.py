"""Stream-shaped operators over an ordered event log.

Ray Data is a batch engine with no event-time watermarks (SURVEY.md
§2.9: the reference is purely batch too), so stream semantics are
expressed the canonical Ray way: treat the events table as a
partitioned log — partition by key, sort by timestamp INSIDE each
group, window with vectorized pandas. The ordering assumption is
per-key only; no global order is required.

- :func:`sessionize` — gap-based session ids per user (classic
  lag-gt-gap cumsum).
- :func:`tumbling_window` — fixed-width event-time windows per key
  (floor(ts / width)), pre-aggregated per batch before the keyed
  shuffle.
- :func:`running_aggregate` — per-key cumulative sum ordered by ts
  (the reference's closest analog: deterministic output ordering by
  input line number, `retrieve_landing_pages.py:250`).
"""

from __future__ import annotations

import pandas as pd

from ..functions.pairs import pairs_before
from .relational import bucketed_map_groups


def sessionize(events_ds, key: str = "user_id", ts: str = "ts",
               gap_minutes: float = 30.0):
    """Assign session ids: a new session starts when the gap since the
    previous event of the same key exceeds ``gap_minutes``. Output: one
    row per session (key, session_start, session_end, n_events).
    Deterministic: ties in ts are ordered by event_id.

    One coarse-bucketed shuffle (all rows of a key co-bucketed), then a
    single vectorized pass per bucket: sort by (key, ts, event_id) and
    cumsum session breaks with the key-change positions OR'd in — no
    per-key Python call at any key cardinality."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, "event_id"], kind="mergesort")
        key_change = g[key].ne(g[key].shift())
        new_session = (key_change | (g[ts].diff() > gap)).cumsum()
        agg = g.groupby(new_session, sort=False).agg(
            **{key: (key, "first"), "session_start": (ts, "min"),
               "session_end": (ts, "max"), "n_events": (ts, "size")})
        return agg.reset_index(drop=True)[
            [key, "session_start", "session_end", "n_events"]]

    return bucketed_map_groups(events_ds, key, per_bucket)


def tumbling_window(events_ds, key: str = "event_type", ts: str = "ts",
                    value: str = "value", width: str = "1h"):
    """Fixed event-time windows: (key, window_start) -> count + sum.
    Per-batch partial aggregation before the keyed shuffle (combiner
    pattern) — the shuffle moves one row per (key, window, batch); the
    reduce is bucketed + vectorized ((key, window) cardinality grows
    with the log horizon, so a per-group aggregate doesn't scale)."""
    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        w = b[ts].dt.floor(width)
        g = b.assign(window_start=w).groupby([key, "window_start"],
                                             as_index=False, sort=False)
        return g.agg(n=(value, "size"), sum_value=(value, "sum"))

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby([key, "window_start"], as_index=False, sort=False).agg(
            n=("n", "sum"), sum_value=("sum_value", "sum"))

    partials = events_ds.map_batches(_partial, batch_format="pandas")
    return bucketed_map_groups(partials, [key, "window_start"], _reduce)


def hopping_window(events_ds, key: str = "event_type", ts: str = "ts",
                   value: str = "value", width: str = "1h", hop: str = "30min"):
    """Overlapping (hopping/sliding) event-time windows: hop-aligned
    ``width``-long windows every ``hop``; each event lands in exactly
    width/hop windows. The explode happens INSIDE the per-batch
    combiner (each batch emits one partial row per (key, window) it
    touches), so the shuffle moves aggregates, not width/hop copies of
    the event log; the reduce is the same bucketed vectorized sum as
    :func:`tumbling_window`."""
    w = pd.Timedelta(width)
    h = pd.Timedelta(hop)
    k = int(w / h)
    if w != k * h:
        raise ValueError("width must be an integer multiple of hop")

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        base = b[ts].dt.floor(hop)
        frames = [b.assign(window_start=base - j * h) for j in range(k)]
        x = pd.concat(frames, ignore_index=True)
        g = x.groupby([key, "window_start"], as_index=False, sort=False)
        return g.agg(n=(value, "size"), sum_value=(value, "sum"))

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby([key, "window_start"], as_index=False, sort=False).agg(
            n=("n", "sum"), sum_value=("sum_value", "sum"))

    partials = events_ds.map_batches(_partial, batch_format="pandas")
    return bucketed_map_groups(partials, [key, "window_start"], _reduce)


def grouped_lag_delta(events_ds, key: str = "user_id", ts: str = "ts",
                      id_col: str = "event_id"):
    """Per-key LAG: microseconds since the key's previous event (the
    window-function family's lag/lead, expressed the partitioned-log
    way). First event of a key gets -1 (NULL-free output contract for
    dtype-stable cross-engine hashing). Deterministic at any
    parallelism: ordering is (ts, id_col) within key; integer-exact
    (epoch-microsecond int64 diff, no float time math). One coarse
    bucketed shuffle, one vectorized sort + groupby-diff per bucket."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, id_col], kind="mergesort")
        # normalize to us precision first: pandas blocks may carry
        # datetime64[ns] or [us] depending on the arrow round trip
        us = g[ts].astype("datetime64[us]").astype("int64")
        delta = us.groupby(g[key], sort=False).diff()
        return pd.DataFrame({
            id_col: g[id_col], key: g[key],
            "delta_us": delta.fillna(-1).astype("int64"),
        })

    return bucketed_map_groups(events_ds, key, per_bucket)


def running_aggregate(events_ds, key: str = "user_id", ts: str = "ts",
                      value: str = "value"):
    """Per-key running (cumulative) sum in ts order; output one row per
    event with the running total. Tie-break on event_id keeps it
    deterministic at any parallelism. Vectorized per bucket: one sort +
    one pandas groupby-cumsum over the whole bucket."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, "event_id"], kind="mergesort")
        return pd.DataFrame({
            key: g[key], "event_id": g["event_id"],
            "running_sum": g.groupby(key, sort=False)[value].cumsum().round(6),
        })

    return bucketed_map_groups(events_ds, key, per_bucket)


def cohort_retention(events_ds, user_col: str = "user_id", ts: str = "ts"):
    """Cohort retention triangle: users are cohorted by their FIRST
    active day; output one row per (cohort_day, day_offset) with the
    distinct-user count active at that offset.

    Shuffle discipline: the per-batch combiner collapses the log to
    distinct (user, day) pairs; ONE bucketed shuffle on user co-locates
    each user's days, so first-day and offsets are computed vectorized
    per bucket with no second keyed exchange. Each bucket emits partial
    (cohort_day, day_offset, n) cells; the cross-bucket combine is
    driver-side and bounded by O(days^2 / 2) cells per bucket —
    calendar-sized, not data-sized."""
    import numpy as np

    def _days(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({user_col: b[user_col],
                             "day": b[ts].dt.floor("D")}).drop_duplicates()

    def _per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        first = g.groupby(user_col, sort=False)["day"].transform("min")
        cell = pd.DataFrame({
            "cohort_day": first,
            "day_offset": (g["day"] - first).dt.days.astype("int64")})
        out = cell.groupby(["cohort_day", "day_offset"], as_index=False).size()
        return out.rename(columns={"size": "n_users"}).astype({"n_users": "int64"})

    actives = events_ds.map_batches(_days, batch_format="pandas")
    parts = bucketed_map_groups(actives, user_col, _per_bucket).to_pandas()
    out = parts.groupby(["cohort_day", "day_offset"], as_index=False)["n_users"].sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out


def funnel_counts(events_ds, stages, user_col: str = "user_id",
                  ts: str = "ts", type_col: str = "event_type"):
    """Ordered funnel: how many users performed stage[0], then stage[1]
    STRICTLY AFTER their first stage[0], then stage[2] strictly after
    that, ... (the classic strict-sequence funnel). Returns one row per
    funnel depth with the cumulative stage label and user count.

    The per-batch combiner projects to (user, ts, type) for funnel
    stage types only — all of a user's stage events must co-locate
    (pointer advancement needs the full per-user timeline), so that
    projection is the honest minimum shuffle payload. Per bucket the
    pointer walk is vectorized: per-stage filtered groupby-min +
    threshold merge, no per-user Python loop. Buckets emit
    len(stages)-row partials; the driver sums them."""
    import numpy as np

    stages = list(stages)
    labels = [">".join(stages[:i + 1]) for i in range(len(stages))]

    def _proj(b: pd.DataFrame) -> pd.DataFrame:
        m = b[type_col].isin(stages)
        return pd.DataFrame({user_col: b[user_col][m], ts: b[ts][m],
                             type_col: b[type_col][m]})

    def _per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        counts = []
        cur = None  # Series user -> threshold ts of the previous stage
        for i, s in enumerate(stages):
            ev = g[g[type_col] == s]
            if i > 0:
                ev = ev.merge(cur.rename("__thr"), left_on=user_col,
                              right_index=True)
                # the merge adopts the threshold Series' index NAME
                # (user_col), which would make the groupby below
                # ambiguous (index level vs column)
                ev = ev[ev[ts] > ev["__thr"]].reset_index(drop=True)
            cur = ev.groupby(user_col, sort=False)[ts].min()
            counts.append(len(cur))
        return pd.DataFrame({"depth": np.arange(1, len(stages) + 1,
                                                dtype="int64"),
                             "stage": labels,
                             "n_users": np.asarray(counts, dtype="int64")})

    proj = events_ds.map_batches(_proj, batch_format="pandas")
    parts = bucketed_map_groups(proj, user_col, _per_bucket).to_pandas()
    out = parts.groupby(["depth", "stage"], as_index=False)["n_users"].sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("depth").reset_index(drop=True)


def throttle_events(events_ds, key: str = "user_id", ts: str = "ts",
                    min_gap_seconds: float = 60.0):
    """Rapid-fire event suppression (stream throttle/debounce family):
    keep an event iff it is its key's FIRST event or arrived at least
    ``min_gap_seconds`` after the key's previous event (SQL: lag(ts)
    over (partition by key order by ts, event_id)). Same one-shuffle
    vectorized shape as :func:`sessionize`; the emitted ``gap_us`` is
    integer microseconds (-1 for firsts) so the output value-hashes
    across engines. Note the gap is measured to the previous RAW
    event, not the previous KEPT one — that variant needs a per-key
    sequential scan and is deliberately not this operator."""
    gap = pd.Timedelta(seconds=min_gap_seconds)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, "event_id"], kind="mergesort")
        key_change = g[key].ne(g[key].shift())
        delta = g[ts].diff()
        keep = key_change | (delta >= gap)
        gap_us = (delta.dt.total_seconds() * 1_000_000).round()
        out = g.loc[keep, [key, "event_id", ts]].copy()
        out["gap_us"] = gap_us[keep].where(~key_change[keep], -1).astype("int64")
        return out

    return bucketed_map_groups(events_ds, key, per_bucket)


def interval_self_join(events_ds, key: str = "user_id", ts: str = "ts",
                       id_col: str = "event_id",
                       max_gap_seconds: float = 900.0):
    """Stream-stream self-join within an event-time bound: every
    ORDERED pair of same-key events at most ``max_gap_seconds`` apart
    (left strictly earlier by (ts, id) — each unordered pair emitted
    exactly once). Output: (key, left_id, right_id, gap_us).

    This is the batch expression of a bounded-state streaming join
    (each event joins a window of its key's recent events). Shape: one
    coarse-bucketed shuffle co-locating each key, then a fully
    VECTORIZED windowed pair expansion per bucket — sort by (key, ts,
    id), bound each row's partner range with searchsorted against the
    key-segment end, and materialize pairs with repeat/arange gathers;
    no per-key Python call, no per-row loop. Output size is inherently
    quadratic in per-key density within the gap — the window bound IS
    the state bound, exactly as in a streaming engine."""
    import numpy as np
    import pyarrow as pa

    from .relational import bucketed_map_groups

    gap_us = int(round(max_gap_seconds * 1_000_000))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, id_col], kind="mergesort")
        t = g[ts].astype("int64").to_numpy()  # epoch ticks (us or ns)
        unit = np.datetime_data(g[ts].dtype)[0] if len(g) else "us"
        scale = {"s": 1_000_000, "ms": 1_000, "us": 1, "ns": 1}[unit]
        t_us = t * scale if unit != "ns" else t // 1_000
        k = g[key].to_numpy()
        ids = g[id_col].to_numpy()
        n = len(g)
        if n == 0:
            return pd.DataFrame({key: g[key], "left_id": g[id_col],
                                 "right_id": g[id_col],
                                 "gap_us": pd.Series(dtype="int64")})
        # end of each row's key segment (keys are contiguous after sort)
        seg_change = np.flatnonzero(k[1:] != k[:-1]) + 1
        seg_ends = np.concatenate([seg_change, [n]])
        seg_idx = np.searchsorted(seg_ends, np.arange(n), side="right")
        seg_end_per_row = seg_ends[seg_idx]
        seg_starts = np.concatenate([[0], seg_ends[:-1]])
        # t_us is sorted only WITHIN a key segment. Lift it to one
        # globally monotone axis: segment-relative time + seg_idx * B
        # with B > max segment span + gap, so row i's time bound can
        # never cross into another key's segment and ONE vectorized
        # searchsorted bounds every row.
        rel = t_us - t_us[seg_starts[seg_idx]]
        span = int(rel.max()) if n else 0
        stride = span + gap_us + 1
        if (len(seg_ends)) * stride < (1 << 62):
            m = rel + seg_idx * stride
            hi = np.searchsorted(m, m + gap_us, side="right")
        else:
            # overflow fallback (astronomical spans x key counts in one
            # bucket): per-segment searchsorted
            hi = np.empty(n, dtype="int64")
            for s, e in zip(seg_starts[np.unique(seg_idx)],
                            seg_ends[np.unique(seg_idx)]):
                hi[s:e] = s + np.searchsorted(
                    t_us[s:e], t_us[s:e] + gap_us, side="right")
        left_idx, right_idx = pairs_before(np.minimum(hi, seg_end_per_row))
        return pd.DataFrame({key: k[left_idx], "left_id": ids[left_idx],
                             "right_id": ids[right_idx],
                             "gap_us": (t_us[right_idx]
                                        - t_us[left_idx]).astype("int64")})

    out = bucketed_map_groups(events_ds, key, per_bucket)
    from .dedup import _typed_or_empty

    return _typed_or_empty(out, [(key, pa.int64()),
                                 ("left_id", pa.int64()),
                                 ("right_id", pa.int64()),
                                 ("gap_us", pa.int64())])


def scd2_history(events_ds, key: str = "user_id", ts: str = "ts",
                 id_col: str = "event_id"):
    """Slowly-changing-dimension type-2 history build (Kimball's SCD2,
    public): per key, order change records by (ts, id) and stamp each
    with its validity interval — valid_from = its own timestamp,
    valid_to = the NEXT record's timestamp (NaT on the current row) —
    plus a 1-based version number and an is_current flag. This is the
    warehouse-standard way to turn a change log into a temporally
    queryable dimension.

    Scale shape: one coarse-bucketed keyed shuffle (all rows of a key
    co-bucketed), then a single vectorized pass per bucket — sort by
    (key, ts, id), groupby(key).shift(-1) for the closing timestamp,
    cumcount for versions. No per-key Python call at any cardinality.
    Rows with NULL key are dropped (SQL PARTITION BY semantics)."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.dropna(subset=[key]).sort_values([key, ts, id_col],
                                               kind="mergesort")
        grp = g.groupby(key, sort=False)
        out = pd.DataFrame({
            key: g[key].to_numpy(),
            id_col: g[id_col].astype("int64").to_numpy(),
            "valid_from": g[ts].to_numpy(),
            "valid_to": grp[ts].shift(-1).to_numpy(),
            "version": (grp.cumcount() + 1).astype("int64").to_numpy()})
        out["is_current"] = out["valid_to"].isna()
        return out

    return bucketed_map_groups(events_ds, key, per_bucket)


def trailing_count(events_ds, key: str = "user_id", ts: str = "ts",
                   id_col: str = "event_id", window: str = "1h"):
    """Per-event trailing-window count: for every event, how many
    events of the SAME key fall in [ts - window, ts] — the rate-limit /
    burst-detection primitive, i.e. SQL's
    ``count(*) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN
    INTERVAL w PRECEDING AND CURRENT ROW)``. Boundary semantics match
    RANGE exactly: the lower bound is INCLUSIVE and equal-timestamp
    peers all count (even 'later' rows with the same ts).

    One coarse bucketed shuffle co-locates each key's events; per
    bucket ONE vectorized pass — sort by (key, ts, id), lift each key
    segment onto a disjoint monotone axis (same trick as
    :func:`interval_self_join`: segment-relative ticks + seg_idx *
    stride with stride > span + window, so a window can never cross
    into a neighboring key's segment), then two whole-bucket
    searchsorted calls. No per-key Python call at any key cardinality
    (a per-key groupby loop is the ~40x-slow pattern the working notes
    flag). Returns (id, key, ts, n_trailing)."""
    import numpy as np

    w = pd.Timedelta(window)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              key: pd.Series(dtype="int64"),
                              ts: pd.Series(dtype="datetime64[us]"),
                              "n_trailing": pd.Series(dtype="int64")})
        g = g.dropna(subset=[key])
        if g.empty:
            return empty
        g = g.sort_values([key, ts, id_col], kind="mergesort")
        n = len(g)
        t = g[ts].to_numpy()
        unit = np.datetime_data(t.dtype)[0]
        per_s = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[unit]
        w_ticks = (w.value * per_s) // 10**9  # Timedelta.value is ns
        ticks = t.astype("int64")
        k = g[key].to_numpy()
        seg_change = np.flatnonzero(k[1:] != k[:-1]) + 1
        seg_ends = np.concatenate([seg_change, [n]])
        seg_idx = np.searchsorted(seg_ends, np.arange(n), side="right")
        seg_starts = np.concatenate([[0], seg_ends[:-1]])
        rel = ticks - ticks[seg_starts[seg_idx]]
        span = int(rel.max()) if n else 0
        stride = span + w_ticks + 1
        if len(seg_ends) * stride < (1 << 62):
            m = rel + seg_idx * stride
            hi = np.searchsorted(m, m, side="right")
            lo = np.searchsorted(m, m - w_ticks, side="left")
        else:  # astronomical span x key-count overflow fallback
            hi = np.empty(n, dtype="int64")
            lo = np.empty(n, dtype="int64")
            for s, e in zip(seg_starts[np.unique(seg_idx)],
                            seg_ends[np.unique(seg_idx)]):
                hi[s:e] = s + np.searchsorted(ticks[s:e], ticks[s:e],
                                              side="right")
                lo[s:e] = s + np.searchsorted(ticks[s:e],
                                              ticks[s:e] - w_ticks,
                                              side="left")
        return pd.DataFrame({
            id_col: g[id_col].astype("int64").to_numpy(),
            key: k, ts: t,
            "n_trailing": (hi - lo).astype("int64")})

    return bucketed_map_groups(events_ds, key, per_bucket)
