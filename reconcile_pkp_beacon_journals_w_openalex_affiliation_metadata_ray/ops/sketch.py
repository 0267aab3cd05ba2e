"""Distributed cardinality sketch: HyperLogLog (Flajolet et al. 2007),
built for CROSS-ENGINE reproducibility so even an *approximate*
operator gets a value-hash DuckDB oracle:

- the 64-bit value hash is the first 16 hex chars of md5(str(value)) —
  identical in any engine;
- register index = top ``p`` bits, rho = leading-zero rank of the
  remaining ``64-p`` bits (+1), derived from integer bit-length — no
  floating log anywhere near the bit math;
- the harmonic sum is aggregated as EXACT integers
  (sum of 2^(60 - M_j), Python big-ints / SQL HUGEINT), so it is
  independent of summation order across batches/engines;
- the final estimate uses one fixed float64 expression (documented in
  the oracle SQL), so both engines produce bit-identical doubles.

Scale shape: one pass, per-batch partial register arrays (m=2^p bytes
each), elementwise-max combined — a classic mergeable sketch: partials
are tiny (4 KiB at p=12) regardless of input size, and merging is
associative/commutative, so this runs over any number of blocks with
no shuffle at all.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd

DEFAULT_P = 12


def _partial_registers(values, p: int) -> np.ndarray:
    """Max-rho register array (uint8, length 2^p) for a value batch."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    low_bits = 64 - p
    low_mask = (1 << low_bits) - 1
    for v in values:
        h = int(hashlib.md5(str(v).encode("utf-8")).hexdigest()[:16], 16)
        reg = h >> low_bits
        w = h & low_mask
        rho = (low_bits + 1) if w == 0 else (low_bits + 1 - w.bit_length())
        if rho > regs[reg]:
            regs[reg] = rho
    return regs


def hll_estimate_from_registers(regs: np.ndarray) -> dict:
    """Deterministic HLL estimate. The float expression mirrors the
    oracle SQL verbatim (same operator order -> identical doubles)."""
    m = len(regs)
    used = int((regs > 0).sum())
    zeros = m - used
    # exact integer harmonic sum: sum of 2^(60 - M_j); empty registers
    # contribute 2^60 each
    s_scaled = sum(1 << (60 - int(r)) for r in regs[regs > 0]) + zeros * (1 << 60)
    alpha = 0.7213 / (1 + 1.079 / m)
    e_raw = alpha * m * m * (2.0 ** 60) / float(s_scaled)
    if e_raw <= 2.5 * m and zeros > 0:
        est = m * math.log(m / zeros)
    else:
        est = e_raw
    return {"m": m, "registers_used": used, "estimate": est}


def _cms_buckets(values, d: int, w: int) -> np.ndarray:
    """(len(values), d) bucket indices. Row j's hash for value v is the
    first 16 hex chars of md5("{j}:{v}") mod w — engine-reproducible
    (same derivation as the HLL value hash)."""
    out = np.empty((len(values), d), dtype=np.int64)
    for i, v in enumerate(values):
        s = str(v)
        for j in range(d):
            out[i, j] = int(
                hashlib.md5(f"{j}:{s}".encode("utf-8")).hexdigest()[:16], 16) % w
    return out


def cms_build(ds, col: str, d: int = 4, w: int = 1024) -> np.ndarray:
    """Count-Min sketch (Cormode & Muthukrishnan 2005) of ``ds[col]``:
    a (d, w) int64 counter matrix. Mergeable like the HLL: per-batch
    partials are elementwise-SUMMED (associative/commutative), so the
    sketch streams over any number of blocks with no shuffle — the
    driver folds one d*w*8-byte partial per batch (32 KiB at the
    default) regardless of input size."""
    def _part(b: pd.DataFrame) -> pd.DataFrame:
        counters = np.zeros((d, w), dtype=np.int64)
        bk = _cms_buckets(b[col].tolist(), d, w)
        for j in range(d):
            np.add.at(counters[j], bk[:, j], 1)
        return pd.DataFrame({"counters": [counters.tobytes()]})

    merged = np.zeros((d, w), dtype=np.int64)
    for row in ds.map_batches(_part, batch_format="pandas").iter_rows():
        merged += np.frombuffer(row["counters"], dtype=np.int64).reshape(d, w)
    return merged


def cms_query(counters: np.ndarray, keys) -> np.ndarray:
    """Point-frequency estimates: min over the d rows of each key's
    counter. Never underestimates; overestimates by collision mass
    (eps = e/w with probability 1 - e^-d)."""
    d, w = counters.shape
    bk = _cms_buckets(list(keys), d, w)
    return np.min(
        np.stack([counters[j, bk[:, j]] for j in range(d)]), axis=0)


def hll_distinct(ds, col: str, p: int = DEFAULT_P) -> dict:
    """Approximate COUNT DISTINCT of ``ds[col]`` (±~1.04/sqrt(2^p),
    ~1.6% at the p=12 default). One streaming pass; the driver merges
    one 2^p-byte partial per batch."""
    def _part(b: pd.DataFrame) -> pd.DataFrame:
        regs = _partial_registers(b[col].tolist(), p)
        return pd.DataFrame({"regs": [regs.tobytes()]})

    parts = ds.map_batches(_part, batch_format="pandas")
    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in parts.iter_rows():
        merged = np.maximum(merged, np.frombuffer(row["regs"], dtype=np.uint8))
    return hll_estimate_from_registers(merged)


def hll_distinct_grouped(ds, group_col: str, col: str, p: int = DEFAULT_P) -> pd.DataFrame:
    """Per-GROUP HyperLogLog distinct counts — the mergeable-sketch
    pattern pushed through ONE keyed shuffle: per-batch partials are
    (group, 2^p-byte register blob) rows (one per group PRESENT in the
    batch, regardless of row count), the bucketed reduce elementwise-
    maxes each group's blobs, and the same fixed float expression as
    :func:`hll_distinct` turns registers into estimates — so even the
    grouped approximate op is value-hash reproducible in SQL. Register
    blobs are opaque bytes through the shuffle (no list columns — see
    the repo's Arrow round-trip rule). Driver state: one row per
    group."""
    from .relational import bucketed_map_groups

    def _part(b: pd.DataFrame) -> pd.DataFrame:
        groups, blobs = [], []
        for g, grp in b.groupby(group_col, sort=False):
            groups.append(g)
            blobs.append(_partial_registers(grp[col].tolist(), p).tobytes())
        return pd.DataFrame({group_col: pd.Series(groups, dtype=object),
                             "regs": pd.Series(blobs, dtype=object)})

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        groups, blobs = [], []
        for k, grp in g.groupby(group_col, sort=False):
            arrs = np.stack([np.frombuffer(x, dtype=np.uint8)
                             for x in grp["regs"]])
            groups.append(k)
            blobs.append(arrs.max(axis=0).tobytes())
        return pd.DataFrame({group_col: pd.Series(groups, dtype=object),
                             "regs": pd.Series(blobs, dtype=object)})

    merged = bucketed_map_groups(
        ds.map_batches(_part, batch_format="pandas"), group_col, _reduce).to_pandas()
    rows = []
    for _, r in merged.iterrows():
        est = hll_estimate_from_registers(np.frombuffer(r["regs"],
                                                        dtype=np.uint8))
        rows.append({group_col: r[group_col], "m": est["m"],
                     "registers_used": est["registers_used"],
                     "estimate": est["estimate"]})
    out = pd.DataFrame(rows, columns=[group_col, "m", "registers_used",
                                      "estimate"])
    for c in ("m", "registers_used"):
        out[c] = out[c].astype("int64")
    return out.sort_values(group_col, kind="mergesort").reset_index(drop=True)
