"""Record assembly: unify page-side and authority-side rows into one
linkage-record schema so blocking/scoring/clustering are symmetric.

Record ids keep provenance: ``p:{url}`` for pages, ``w:{work_id}`` for
authority works (the reference's implicit entities are per-DOI groups,
`check...openalex.py:72-74`; here records generalize that to any
web-page corpus).

Schema: RECORD_SCHEMA (record_id, side, doi_norm, host_key, path_key,
authors / insts and their normalized lists, name_blob: the normalized
author names joined, the MinHash input), then the two block-key columns
of ``stages.block.with_block_keys`` (block_keys list<string>,
key_suffix), added in the same per-batch map. Records with neither a
DOI nor any author carry no linkage signal and are dropped (counted
upstream as noise pages).

Each batch is built column-wise in Arrow: the name lists are flattened,
deduplicated and sorted as list kernels, each distinct author or
institution string is normalized once (on the batch's dictionary), and
each distinct name blob is MinHashed once. Only the DOI and URL keys
(``normalize_doi``, ``host_key``, ``path_key``) run per row in Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.doi import clean_doi
from ..functions.textnorm import normalize_text
from ..functions.urlkeys import host_key
from .block import with_block_keys

RECORD_SCHEMA = pa.schema(
    [
        ("record_id", pa.string()),
        ("side", pa.string()),  # 'page' | 'work'
        ("doi_norm", pa.string()),
        ("host_key", pa.string()),
        ("path_key", pa.string()),
        ("authors", pa.list_(pa.string())),
        ("insts", pa.list_(pa.string())),
        ("authors_norm", pa.list_(pa.string())),
        ("insts_norm", pa.list_(pa.string())),
        ("name_blob", pa.string()),
    ]
)


def normalize_doi(doi: str) -> str:
    """Canonical DOI key: clean prefixes, strip, lowercase (DOIs are
    case-insensitive per Crossref display rules)."""
    return clean_doi(doi or "").strip().lower()


import re as _re

_PATH_KEY_RE = _re.compile(r"/index\.php/([^/]+/(?:article|issue)/view/\d+)")


def path_key(url: str) -> str:
    """Structural URL-token blocking key: the OJS journal/article path
    segment, which is host-invariant across mirrors (the 'ISSN-like
    token' key family of the north star). '' when the URL doesn't carry
    the OJS shape."""
    if not url or not isinstance(url, str):
        return ""
    m = _PATH_KEY_RE.search(url)
    return m.group(1).lower() if m else ""


def _nonempty(values: pa.Array, parent: np.ndarray):
    """(values, parent row) of the non-null, non-empty ``values``."""
    ok = pc.fill_null(pc.not_equal(values, ""), False)
    return values.filter(ok), parent[ok.to_numpy(zero_copy_only=False)]


def _entries(lists: pa.Array):
    """:func:`_nonempty` over a list<string> array's entries, in list order."""
    return _nonempty(pc.list_flatten(lists), pc.list_parent_indices(lists).to_numpy())


def _first_seen(codes: np.ndarray, parent: np.ndarray, n_codes: int) -> np.ndarray:
    """Positions of each (row, code)'s first occurrence, in order."""
    _, first = np.unique(parent * n_codes + codes, return_index=True)
    first.sort()
    return first


def _offsets(parent: np.ndarray, n: int) -> pa.Array:
    """List offsets of ``n`` rows whose entries' (sorted) rows are ``parent``."""
    counts = np.bincount(parent, minlength=n)
    return pa.array(np.concatenate([[0], np.cumsum(counts)]), pa.int32())


def _record_table(ids: pa.Array, side: str, dois: list, urls: list,
                  authors, insts, dedup_authors: bool) -> pa.Table:
    """Records of the rows with a DOI or an author, with their block keys.
    ``authors`` and ``insts`` are :func:`_entries` pairs; institutions
    always keep only their first occurrence per row, authors when
    ``dedup_authors``. Every distinct string is normalized once, on the
    batch's dictionary."""
    (a_vals, a_par), (i_vals, i_par) = authors, insts
    doi_n = [normalize_doi(d) for d in dois]
    keep = np.bincount(a_par, minlength=len(ids)) > 0
    keep |= np.fromiter(map(bool, doi_n), bool, len(doi_n))
    rows = np.flatnonzero(keep)
    new_row = np.cumsum(keep) - 1
    a_ok, i_ok = keep[a_par], keep[i_par]
    a_par, i_par = new_row[a_par[a_ok]], new_row[i_par[i_ok]]
    a_vals, i_vals = a_vals.filter(pa.array(a_ok)), i_vals.filter(pa.array(i_ok))

    enc = pc.dictionary_encode(pa.concat_arrays([a_vals, i_vals]))
    words = enc.dictionary
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    a_codes, i_codes = codes[:len(a_vals)], codes[len(a_vals):]
    if dedup_authors:
        first = _first_seen(a_codes, a_par, len(words))
        a_codes, a_par = a_codes[first], a_par[first]
    first = _first_seen(i_codes, i_par, len(words))
    i_codes, i_par = i_codes[first], i_par[first]
    norm = pa.array([normalize_text(w) for w in words.to_pylist()], pa.string())

    m = len(rows)
    a_off, i_off = _offsets(a_par, m), _offsets(i_par, m)
    a_norm = norm.take(a_codes)
    by_name = pc.sort_indices(pa.table({"row": a_par, "name": a_norm}),
                              [("row", "ascending"), ("name", "ascending")])
    blob = pc.binary_join(pa.ListArray.from_arrays(a_off, a_norm.take(by_name)), " ")
    return with_block_keys(pa.table({
        "record_id": ids.take(rows),
        "side": pa.array([side] * m, pa.string()),
        "doi_norm": pa.array([doi_n[r] for r in rows], pa.string()),
        "host_key": pa.array([host_key(urls[r]) for r in rows], pa.string()),
        "path_key": pa.array([path_key(urls[r]) for r in rows], pa.string()),
        "authors": pa.ListArray.from_arrays(a_off, words.take(a_codes)),
        "insts": pa.ListArray.from_arrays(i_off, words.take(i_codes)),
        "authors_norm": pa.ListArray.from_arrays(a_off, a_norm),
        "insts_norm": pa.ListArray.from_arrays(i_off, norm.take(i_codes)),
        "name_blob": blob,
    }, schema=RECORD_SCHEMA))


def page_records_batch(batch: pa.Table) -> pa.Table:
    """extracted pages -> page-side records. Authors and institutions
    are each deduplicated in first-seen order."""
    urls = batch["url"].combine_chunks()
    return _record_table(
        pc.binary_join_element_wise("p:", urls, ""), "page",
        batch["doi"].to_pylist(), urls.to_pylist(),
        _entries(batch["mention_authors"].combine_chunks()),
        _entries(batch["mention_insts"].combine_chunks()), dedup_authors=True)


def work_records_batch(batch: pa.Table) -> pa.Table:
    """reference_works -> work-side records (authority true spellings;
    nested authorships list<struct> from `main.rs:69-84`). Names keep
    their repeats; affiliations, over all of a work's authorships, are
    deduplicated in first-seen order."""
    authorships = batch["authorships"].combine_chunks()
    people = pc.list_flatten(authorships)
    owner = pc.list_parent_indices(authorships).to_numpy()
    affs = pc.struct_field(people, "raw_affiliation_strings")
    return _record_table(
        pc.binary_join_element_wise("w:", batch["work_id"].combine_chunks(), ""), "work",
        batch["doi"].to_pylist(), batch["landing_page_url"].to_pylist(),
        _nonempty(pc.struct_field(people, "raw_author_name"), owner),
        _nonempty(pc.list_flatten(affs), owner[pc.list_parent_indices(affs).to_numpy()]),
        dedup_authors=False)


def build_records(extracted_ds, works_ds):
    """Union of page records and work records as one Dataset, each
    record with its block keys (computed here, in the per-batch map)."""
    pages = extracted_ds.map_batches(page_records_batch, batch_format="pyarrow",
                                     zero_copy_batch=True)
    works = works_ds.map_batches(work_records_batch, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return pages.union(works)


def drop_empty_blocks(records_ds):
    """A MATERIALIZED records Dataset without its 0-row blocks (one is
    kept when all are empty, so the schema survives). A read task whose
    pages all lack linkage signal emits a 0-row records block, and every
    later Ray 2.49 map turns a 0-row block into a schema-less one, which
    Ray logs as "a RefBundle with a different schema". The blocks already
    sit in the object store: this only re-lists the non-empty ones, and
    returns ``records_ds`` itself when none is empty."""
    import ray.data as rd

    refs, empty = [], []
    for bundle in records_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            (refs if meta.num_rows else empty).append(ref)
    if not empty:
        return records_ds
    return rd.from_arrow_refs(refs or empty[:1])
