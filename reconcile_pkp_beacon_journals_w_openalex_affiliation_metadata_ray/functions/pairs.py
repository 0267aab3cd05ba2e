"""Pair enumeration on integer codes: the one place the package turns
the rows of a group (a block, a band, a basket, a window) into the
pairs a blocked self-join compares, in a few vectorized numpy passes."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def pairs_before(end) -> tuple[np.ndarray, np.ndarray]:
    """Every row pair ``(i, j)`` with ``i < j < end[i]``, ordered by
    ``i`` then ``j``, as two int64 index arrays: row ``i`` pairs with
    the rows after it up to ``end[i] <= len(end)`` (exclusive; an
    ``end[i] <= i + 1`` pairs it with none)."""
    later = np.maximum(end - 1 - np.arange(len(end)), 0)
    i = np.repeat(np.arange(len(end)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    return i, j


def group_pairs(codes) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of rows ``i < j`` inside each run of equal values of
    the sorted array ``codes`` (the upper triangle of each group), as
    two int64 index arrays ordered by ``i`` then ``j``."""
    return pairs_before(np.searchsorted(codes, codes, side="right"))


def ranked_codes(values) -> tuple[np.ndarray, np.ndarray]:
    """Dense int64 codes of ``values`` whose order is the values' order
    (equal values share a code, a smaller value has a smaller code),
    -1 for a null, and the distinct values in code order. Integers go
    through ``np.unique``; everything else is encoded by Arrow, which
    compares whole strings (pandas' ``factorize`` and ``groupby`` stop
    at a NUL) and orders them by code point, as Python does."""
    if values.dtype.kind in "biu":
        uniq, codes = np.unique(values, return_inverse=True)
        return codes, uniq
    enc = pa.array(values, from_pandas=True).dictionary_encode()
    order = pc.sort_indices(enc.dictionary)
    ranks = np.full(len(order) + 1, -1, dtype=np.int64)
    ranks[order.to_numpy()] = np.arange(len(order))
    return (ranks[enc.indices.fill_null(len(order)).to_numpy()],
            enc.dictionary.take(order).to_numpy(zero_copy_only=False))
