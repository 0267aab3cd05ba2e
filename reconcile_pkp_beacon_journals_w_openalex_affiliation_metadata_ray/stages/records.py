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
"""

from __future__ import annotations

import pyarrow as pa

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


def _record_rows(ids, sides, dois, hosts, paths, authors_lists, insts_lists):
    out = {name: [] for name in RECORD_SCHEMA.names}
    for rid, side, doi, host, path, authors, insts in zip(
        ids, sides, dois, hosts, paths, authors_lists, insts_lists
    ):
        doi_n = normalize_doi(doi)
        authors = [a for a in (authors or []) if a]
        insts = [i for i in (insts or []) if i]
        if not doi_n and not authors:
            continue  # no linkage signal
        a_norm = [normalize_text(a) for a in authors]
        i_norm = [normalize_text(i) for i in insts]
        out["record_id"].append(rid)
        out["side"].append(side)
        out["doi_norm"].append(doi_n)
        out["host_key"].append(host)
        out["path_key"].append(path)
        out["authors"].append(authors)
        out["insts"].append(insts)
        out["authors_norm"].append(a_norm)
        out["insts_norm"].append(i_norm)
        out["name_blob"].append(" ".join(sorted(a_norm)))
    return with_block_keys(pa.Table.from_pydict(out, schema=RECORD_SCHEMA))


def page_records_batch(batch: pa.Table) -> pa.Table:
    """extracted pages -> page-side records. Institutions are the union
    of per-mention institutions in first-seen order."""
    urls = batch["url"].to_pylist()
    dois = batch["doi"].to_pylist()
    authors_l = batch["mention_authors"].to_pylist()
    insts_l = batch["mention_insts"].to_pylist()
    ids, sides, hosts, paths, auth_out, inst_out = [], [], [], [], [], []
    for url, authors, insts in zip(urls, authors_l, insts_l):
        ids.append("p:" + url)
        sides.append("page")
        hosts.append(host_key(url))
        paths.append(path_key(url))
        # dedup while preserving first-seen order
        seen_a, ua = set(), []
        for a in authors or []:
            if a and a not in seen_a:
                seen_a.add(a)
                ua.append(a)
        seen_i, ui = set(), []
        for i in insts or []:
            if i and i not in seen_i:
                seen_i.add(i)
                ui.append(i)
        auth_out.append(ua)
        inst_out.append(ui)
    return _record_rows(ids, sides, dois, hosts, paths, auth_out, inst_out)


def work_records_batch(batch: pa.Table) -> pa.Table:
    """reference_works -> work-side records (authority true spellings;
    nested authorships list<struct> from `main.rs:69-84`)."""
    work_ids = batch["work_id"].to_pylist()
    dois = batch["doi"].to_pylist()
    urls = batch["landing_page_url"].to_pylist()
    authorships = batch["authorships"].to_pylist()
    ids, sides, hosts, paths, auth_out, inst_out = [], [], [], [], [], []
    for wid, url, auths in zip(work_ids, urls, authorships):
        ids.append("w:" + wid)
        sides.append("work")
        hosts.append(host_key(url))
        paths.append(path_key(url))
        names, insts = [], []
        for a in auths or []:
            name = a.get("raw_author_name") or ""
            if name:
                names.append(name)
            for s in a.get("raw_affiliation_strings") or []:
                if s and s not in insts:
                    insts.append(s)
        auth_out.append(names)
        inst_out.append(insts)
    return _record_rows(ids, sides, dois, hosts, paths, auth_out, inst_out)


def build_records(extracted_ds, works_ds):
    """Union of page records and work records as one Dataset, each
    record with its block keys (computed here, once)."""
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
