"""Stage 1 — EXTRACT: pages(html) -> per-page text + mentions.

Ray-Data-native reimplementation of the reference's extractor
(`parse_landing_page_html.py:25-110,189-228`): a stateless
``map_batches`` over zero-copy Arrow batches. The whole document always
lives in one row, so M11's tag-order state machine and D2's
order-sensitive merge are independent of batch boundaries and
parallelism — that is what makes the extracted ``text`` byte-identical
per url at any ``num_cpus`` (BASELINE.json input_hint invariant).

Output is page-granular with Arrow list columns for the mentions
(explode to the flat mention table with :func:`mentions_from_extracted`
— the reference's ``author_affiliation_doi_merged_*.csv`` contract).
HTML parse errors never fail the task; they land in ``parse_error``
status columns (pattern from `parse_record_data_from_files.py:421-433`).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.htmlextract import extract_page
from ..sources.io import SCAN_TASK_ROWS, plan_rowgroups, read_tasks, scan_tasks

EXTRACTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("lang", pa.string()),
        ("doi", pa.string()),
        ("text", pa.string()),
        ("mention_authors", pa.list_(pa.string())),
        ("mention_insts", pa.list_(pa.string())),
        ("mention_sources", pa.list_(pa.string())),
        ("has_author_tag", pa.bool_()),
        ("has_inst_tag", pa.bool_()),
        ("has_ul_authors", pa.bool_()),
        ("parse_error", pa.string()),
    ]
)
PAGE_MENTIONS_SCHEMA = pa.schema([EXTRACTED_SCHEMA.field(name) for name in (
    "url", "doi", "mention_authors", "mention_insts")])


# what a page whose extraction raised contributes (parse_error says why)
_FAILED_PAGE = {"mentions": [], "doi": "", "text": "", "has_author_tag": False,
                "has_inst_tag": False, "has_ul_authors": False}


def _extract_each(htmls, text: bool = True):
    """``(page, parse_error)`` per html, in order (``extract_page(html,
    text)``). A page's failure never fails the batch: it yields
    :data:`_FAILED_PAGE` and its error (record-level never-fatal
    contract)."""
    for html in htmls:
        try:
            yield extract_page(html, text), ""
        except Exception as exc:
            yield _FAILED_PAGE, f"extract error: {exc}"


def extract_batch(batch: pa.Table) -> pa.Table:
    """Per-batch kernel: parse every page's HTML. The per-document loop
    is irreducible (HTML parsing is per-document work, like model
    inference); everything around it stays Arrow."""
    urls = batch["url"].to_pylist()
    langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [""] * len(urls)
    out = {name: [] for name in EXTRACTED_SCHEMA.names}
    for url, lang, (page, err) in zip(urls, langs, _extract_each(batch["html"].to_pylist())):
        out["url"].append(url)
        out["lang"].append(lang or "")
        out["doi"].append(page["doi"])
        out["text"].append(page["text"])
        out["mention_authors"].append([m[0] for m in page["mentions"]])
        out["mention_insts"].append([m[1] for m in page["mentions"]])
        out["mention_sources"].append([m[2] for m in page["mentions"]])
        out["has_author_tag"].append(page["has_author_tag"])
        out["has_inst_tag"].append(page["has_inst_tag"])
        out["has_ul_authors"].append(page["has_ul_authors"])
        out["parse_error"].append(err)
    return pa.Table.from_pydict(out, schema=EXTRACTED_SCHEMA)


def mentions_batch(batch: pa.Table) -> pa.Table:
    """Per-batch mentions-only kernel: :func:`extract_batch`'s ``url``,
    ``doi``, ``mention_authors`` and ``mention_insts``, the only page
    columns ``records.page_records_batch`` reads, with no page's text
    ever built (``extract_page(html, text=False)``)."""
    out = {name: [] for name in PAGE_MENTIONS_SCHEMA.names}
    out["url"] = batch["url"].to_pylist()
    for page, _ in _extract_each(batch["html"].to_pylist(), text=False):
        out["doi"].append(page["doi"])
        out["mention_authors"].append([m[0] for m in page["mentions"]])
        out["mention_insts"].append([m[1] for m in page["mentions"]])
    return pa.Table.from_pydict(out, schema=PAGE_MENTIONS_SCHEMA)


def extract_pages(pages_ds, batch_size: int = 256):
    """pages Dataset -> extracted Dataset (one row per page): the
    unfused reference that tests compare :func:`read_extract_pages`
    (the pipeline's one extract entry point) against.

    batch_size is modest because html payloads are large (keep
    batch x concurrency within worker heap; SURVEY.md §4 memory row)."""
    return pages_ds.map_batches(
        extract_batch,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def plan_pages(pages_path: str, target_rows: int = SCAN_TASK_ROWS):
    """The read plan of a pages parquet (file or shard directory), its
    footers read once, here (``sources.io.plan_rowgroups``): tasks of at
    most ``target_rows`` rows and at least ~4 per CPU. Every read of
    the pages below takes one."""
    return plan_rowgroups(pages_path, target_rows, scan_tasks())


def read_extract_pages(pages_path: str, target_rows: int = SCAN_TASK_ROWS, plan=None):
    """pages parquet (file or shard directory) -> extracted Dataset,
    with the read FUSED into the extract task. ``plan`` is the pages'
    :func:`plan_pages` when the caller already holds it (its footers are
    then not read again).

    Ray 2.49 never fuses a Read operator with a downstream map, so
    ``read_parquet(...) |> extract_pages`` ships every raw HTML block
    through the object store (serialize + plasma write + read) just to
    parse it once and drop it — measured 9.5-10.6 s for the sf0.1
    extract-only leg vs 2.7-4.0 s fused (the html column is ~3x the
    extracted output). This is the repo's one read body
    (``sources.io.read_tasks``) with ``fn=extract_batch``:
    each task reads its own row groups (columns pruned to
    ``url, lang, html``) and emits extracted rows directly; the html
    bytes never leave the task. The task streams its row groups through
    ``extract_batch`` in slices of at most ``sources.io.SLICE_BYTES``
    of html, so the parser holds one slice's pages at a time; the
    Parquet decode still holds a row group's whole dictionary page when
    ``html`` is dictionary-encoded (``sources.io.read_tasks``). Slicing
    is sound because ``extract_batch`` is row-local
    (each page is parsed on its own, and any ``fn`` given to this reader
    must be). Row order equals read_parquet order (file, then row-group
    order), and the per-row extraction is the same ``extract_batch``,
    so output is byte-identical to the unfused path (equivalence-tested)."""
    # The only page columns extract_batch consumes. The input contract
    # (BASELINE.json input_hint) also carries `text` (a second full-text
    # copy) and `warc_ts`; NOT reading them halves read amplification on
    # a real Common-Crawl-style table (reference analog: the Rust filter
    # deserializes only 3 fields, main.rs:69-84). Paths that need
    # `warc_ts` (canonical keep-latest) read pages.parquet directly with
    # their own projection.
    tasks, schema = plan or plan_pages(pages_path, target_rows)
    return read_tasks(tasks, ["url", "lang", "html"], extract_batch, schema)


def read_page_mentions(plan):
    """The pages of a :func:`plan_pages` plan -> one row per page with
    only the columns the page records read (:func:`mentions_batch`,
    fused into the read task like :func:`read_extract_pages`). The same
    projection as the reference's Rust filter, one step further: no
    ``lang`` is read and no page's text is built."""
    tasks, schema = plan
    return read_tasks(tasks, ["url", "html"], mentions_batch, schema)


def explode_mentions(batch: pa.Table) -> pa.Table:
    """Vectorized explode of the list columns to flat mention rows
    (url, doi, author, institution, source) — the reference's merged
    CSV shape (`parse_landing_page_html.py:241-245`)."""
    batch = batch.combine_chunks()
    if batch.num_rows == 0:
        return pa.table(
            {"url": pa.array([], pa.string()), "doi": pa.array([], pa.string()),
             "author": pa.array([], pa.string()), "institution": pa.array([], pa.string()),
             "source": pa.array([], pa.string())}
        )

    def _col(name):
        col = batch[name]
        return col.chunk(0) if isinstance(col, pa.ChunkedArray) else col

    n_per_row = pa.compute.list_value_length(_col("mention_authors")).fill_null(0)
    idx = _repeat_indices(n_per_row)
    return pa.table(
        {
            "url": _col("url").take(idx),
            "doi": _col("doi").take(idx),
            "author": _col("mention_authors").flatten(),
            "institution": _col("mention_insts").flatten(),
            "source": _col("mention_sources").flatten(),
        }
    )


def _repeat_indices(counts: pa.Array) -> pa.Array:
    """[2,0,3] -> [0,0,2,2,2] (row index repeated by its list length)."""
    import numpy as np

    c = counts.to_numpy(zero_copy_only=False).astype("int64")
    return pa.array(np.repeat(np.arange(len(c), dtype="int64"), c))


def mentions_from_extracted(extracted_ds):
    """Flat mention table (one row per merged (author, institution))."""
    return extracted_ds.map_batches(explode_mentions, batch_format="pyarrow", zero_copy_batch=True)


def oracle_extract(pages_table: pa.Table) -> dict:
    """Single-threaded oracle: url -> (text, mentions, doi). The Ray
    stage's output must equal this byte-for-byte per url at any
    parallelism (SURVEY.md §5 item 2)."""
    out = {}
    for i in range(pages_table.num_rows):
        url = pages_table["url"][i].as_py()
        page = extract_page(pages_table["html"][i].as_py())
        out[url] = {"text": page["text"], "mentions": page["mentions"], "doi": page["doi"]}
    return out
