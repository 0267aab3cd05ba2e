"""Stage 5 — STATS: global + per-entity aggregate statistics.

Parity with the reference's `get_stats.py`:
- overall (A1/A2, `get_stats.py:39-149`): 13 derived counters with the
  same names (..._count / ..._pct), and mean/median/min/max/stdev of the
  two score columns.
- per-DOI (A3, `get_stats.py:152-264`): the 23-column wide rows with
  identical column names.

Scale design: counters and moments are PRE-AGGREGATED inside
``map_batches`` (one partial row per batch) and reduced with a tiny
``aggregate`` — no all-row shuffle. The exact median exploits the
reference's own 2-decimal rounding (`check...openalex.py:254-259`):
scores live on a <=10001-point grid, so a (value -> count) groupby is
bounded and the exact median falls out of a driver-side cumsum over at
most 10001 rows. stdev matches ``statistics.stdev`` (sample, ddof=1).
Per-DOI stats are a ``groupby(doi).map_groups`` — groups are per-entity
and small by construction.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

_COUNTER_DEFS = [
    # name, fn(df) -> bool mask
    ("exact_author_match", lambda d: d["exact_author_match"]),
    ("normalized_author_match", lambda d: d["normalized_author_match"]),
    ("exact_institution_match", lambda d: d["exact_institution_match"]),
    ("normalized_institution_match", lambda d: d["normalized_institution_match"]),
    ("exact_both_match", lambda d: d["exact_author_match"] & d["exact_institution_match"]),
    ("normalized_both_match", lambda d: d["normalized_author_match"] & d["normalized_institution_match"]),
    ("norm_author_not_exact", lambda d: d["normalized_author_match"] & ~d["exact_author_match"]),
    ("norm_inst_not_exact", lambda d: d["normalized_institution_match"] & ~d["exact_institution_match"]),
    ("high_author_score_no_norm_match", lambda d: (d["author_similarity_score"] > 90.0) & ~d["normalized_author_match"]),
    ("high_inst_score_no_norm_match", lambda d: (d["institution_similarity_score"] > 90.0) & ~d["normalized_institution_match"]),
    ("norm_author_match_no_norm_inst", lambda d: d["normalized_author_match"] & ~d["normalized_institution_match"]),
    ("perfect_author_score", lambda d: d["author_similarity_score"] == 100.0),
    ("perfect_inst_score", lambda d: d["institution_similarity_score"] == 100.0),
]


def _partials(batch: pd.DataFrame) -> pd.DataFrame:
    """One partial-aggregate row per batch (combiner; SURVEY.md §4)."""
    d = batch
    row = {"total_rows": len(d)}
    for name, fn in _COUNTER_DEFS:
        row[name] = int(fn(d).sum())
    for prefix, col in (("author_score", "author_similarity_score"),
                        ("inst_score", "institution_similarity_score")):
        s = d[col].astype(float)
        # integer hundredths: scores are 2-decimal by contract, so the
        # partial sums are EXACT ints -> cross-engine reproducible
        c = (s * 100).round().astype("int64")
        row[f"{prefix}_sum"] = int(c.sum())
        row[f"{prefix}_sumsq"] = int((c * c).sum())
        row[f"{prefix}_min"] = float(s.min()) if len(s) else math.inf
        row[f"{prefix}_max"] = float(s.max()) if len(s) else -math.inf
    return pd.DataFrame([row])


def _value_counts(batch: pd.DataFrame) -> pd.DataFrame:
    frames = []
    for col in ("author_similarity_score", "institution_similarity_score"):
        vc = batch[col].astype(float).value_counts()
        frames.append(pd.DataFrame({"col": col, "value": vc.index, "n": vc.values}))
    return pd.concat(frames, ignore_index=True)


def _median_from_counts(counts: pd.DataFrame, total: int) -> float:
    """Exact median (statistics.median semantics) from (value, n) rows."""
    counts = counts.sort_values("value")
    values = counts["value"].to_numpy()
    cum = counts["n"].to_numpy().cumsum()
    if total == 0:
        return 0.0
    if total % 2 == 1:
        k = total // 2  # 0-based middle
        return float(values[np.searchsorted(cum, k + 1)])
    k1, k2 = total // 2 - 1, total // 2
    lo = float(values[np.searchsorted(cum, k1 + 1)])
    hi = float(values[np.searchsorted(cum, k2 + 1)])
    return (lo + hi) / 2.0


def overall_stats(scored_ds) -> dict:
    """Global statistics dict with the reference's key names
    (`get_stats.py:119-141`)."""
    partials = scored_ds.map_batches(_partials, batch_format="pandas").to_pandas()
    total = int(partials["total_rows"].sum())
    out = {"total_rows": total, "valid_rows": total, "skipped_rows": 0}
    for name, _ in _COUNTER_DEFS:
        c = int(partials[name].sum())
        out[f"{name}_count"] = c
        out[f"{name}_pct"] = (c / total) * 100 if total else 0.0

    vc = (
        scored_ds.map_batches(_value_counts, batch_format="pandas")
        .groupby(["col", "value"])
        .sum("n")
        .to_pandas()
    )
    n_col = "sum(n)" if "sum(n)" in vc.columns else "n"
    for prefix in ("author_score", "inst_score"):
        col = "author_similarity_score" if prefix == "author_score" else "institution_similarity_score"
        if total == 0:
            for stat in ("mean", "median", "min", "max", "stdev"):
                out[f"{prefix}_{stat}"] = None
            continue
        c_sum = int(partials[f"{prefix}_sum"].sum())
        c_ssq = int(partials[f"{prefix}_sumsq"].sum())
        mean = c_sum / (total * 100.0)
        out[f"{prefix}_mean"] = mean
        out[f"{prefix}_min"] = float(partials[f"{prefix}_min"].min())
        out[f"{prefix}_max"] = float(partials[f"{prefix}_max"].max())
        if total > 1:
            var = max(0.0, (c_ssq / 10000.0 - total * mean * mean) / (total - 1))
            out[f"{prefix}_stdev"] = math.sqrt(var)
        else:
            out[f"{prefix}_stdev"] = 0.0
        sub = vc[vc["col"] == col][["value", n_col]].rename(columns={n_col: "n"})
        out[f"{prefix}_median"] = _median_from_counts(sub, total)
    return out


PER_DOI_COLUMNS = [
    "DOI", "TotalAuthorsInput", "SkippedRows",
    "CountExactAuthorMatch", "CountNormAuthorMatch",
    "CountExactInstMatch", "CountNormInstMatch",
    "CountExactBothMatch", "CountNormBothMatch",
    "AvgAuthorScore", "MedianAuthorScore", "MinAuthorScore", "MaxAuthorScore",
    "AvgInstScore", "MedianInstScore", "MinInstScore", "MaxInstScore",
    "AllAuthorsExactMatch", "AllAuthorsNormMatch",
    "AnyAuthorExactMatch", "AnyAuthorNormMatch",
    "AllInstExactMatch", "AllInstNormMatch",
]


def _doi_group_stats(g: pd.DataFrame) -> pd.DataFrame:
    n = len(g)
    ea, na = g["exact_author_match"], g["normalized_author_match"]
    ei, ni = g["exact_institution_match"], g["normalized_institution_match"]
    # scores are 2-decimal by contract (`check...openalex.py:254-259`);
    # aggregate in exact integer hundredths so means/medians are
    # reproducible bit-for-bit across engines (no float-sum-order drift)
    a_c = (g["author_similarity_score"].astype(float) * 100).round().astype("int64")
    i_c = (g["institution_similarity_score"].astype(float) * 100).round().astype("int64")
    a_s = a_c / 100.0
    i_s = i_c / 100.0
    row = {
        "DOI": g["doi"].iloc[0] if g["doi"].iloc[0] else "UNKNOWN_DOI",
        "TotalAuthorsInput": n,
        "SkippedRows": 0,
        "CountExactAuthorMatch": int(ea.sum()),
        "CountNormAuthorMatch": int(na.sum()),
        "CountExactInstMatch": int(ei.sum()),
        "CountNormInstMatch": int(ni.sum()),
        "CountExactBothMatch": int((ea & ei).sum()),
        "CountNormBothMatch": int((na & ni).sum()),
        "AvgAuthorScore": float(a_c.sum()) / n / 100.0,
        "MedianAuthorScore": float(a_c.median()) / 100.0,
        "MinAuthorScore": float(a_s.min()),
        "MaxAuthorScore": float(a_s.max()),
        "AvgInstScore": float(i_c.sum()) / n / 100.0,
        "MedianInstScore": float(i_c.median()) / 100.0,
        "MinInstScore": float(i_s.min()),
        "MaxInstScore": float(i_s.max()),
        "AllAuthorsExactMatch": bool(int(ea.sum()) == n),
        "AllAuthorsNormMatch": bool(int(na.sum()) == n),
        "AnyAuthorExactMatch": bool(int(ea.sum()) > 0),
        "AnyAuthorNormMatch": bool(int(na.sum()) > 0),
        "AllInstExactMatch": bool(int(ei.sum()) == n),
        "AllInstNormMatch": bool(int(ni.sum()) == n),
    }
    return pd.DataFrame([row], columns=PER_DOI_COLUMNS)


def _doi_bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
    """Vectorized per-bucket variant of :func:`_doi_group_stats`: one
    pandas groupby over the whole bucket instead of a Python call per
    DOI (same integer-hundredths arithmetic; equality with the
    per-group oracle asserted in tests)."""
    g = g.copy()
    for c in ("exact_author_match", "normalized_author_match",
              "exact_institution_match", "normalized_institution_match"):
        g[c] = g[c].astype(bool)
    g["_a_c"] = (g["author_similarity_score"].astype(float) * 100).round().astype("int64")
    g["_i_c"] = (g["institution_similarity_score"].astype(float) * 100).round().astype("int64")
    g["_a_s"] = g["_a_c"] / 100.0
    g["_i_s"] = g["_i_c"] / 100.0
    g["_eb"] = g["exact_author_match"] & g["exact_institution_match"]
    g["_nb"] = g["normalized_author_match"] & g["normalized_institution_match"]
    a = g.groupby("doi", sort=False).agg(
        TotalAuthorsInput=("doi", "size"),
        CountExactAuthorMatch=("exact_author_match", "sum"),
        CountNormAuthorMatch=("normalized_author_match", "sum"),
        CountExactInstMatch=("exact_institution_match", "sum"),
        CountNormInstMatch=("normalized_institution_match", "sum"),
        CountExactBothMatch=("_eb", "sum"),
        CountNormBothMatch=("_nb", "sum"),
        a_sum=("_a_c", "sum"), a_med=("_a_c", "median"),
        MinAuthorScore=("_a_s", "min"), MaxAuthorScore=("_a_s", "max"),
        i_sum=("_i_c", "sum"), i_med=("_i_c", "median"),
        MinInstScore=("_i_s", "min"), MaxInstScore=("_i_s", "max"),
    ).reset_index()
    n = a["TotalAuthorsInput"]
    out = pd.DataFrame({
        "DOI": a["doi"].map(lambda d: d if d else "UNKNOWN_DOI"),
        "TotalAuthorsInput": n.astype("int64"),
        "SkippedRows": pd.Series(0, index=a.index, dtype="int64"),
        "CountExactAuthorMatch": a["CountExactAuthorMatch"].astype("int64"),
        "CountNormAuthorMatch": a["CountNormAuthorMatch"].astype("int64"),
        "CountExactInstMatch": a["CountExactInstMatch"].astype("int64"),
        "CountNormInstMatch": a["CountNormInstMatch"].astype("int64"),
        "CountExactBothMatch": a["CountExactBothMatch"].astype("int64"),
        "CountNormBothMatch": a["CountNormBothMatch"].astype("int64"),
        "AvgAuthorScore": a["a_sum"].astype(float) / n / 100.0,
        "MedianAuthorScore": a["a_med"].astype(float) / 100.0,
        "MinAuthorScore": a["MinAuthorScore"].astype(float),
        "MaxAuthorScore": a["MaxAuthorScore"].astype(float),
        "AvgInstScore": a["i_sum"].astype(float) / n / 100.0,
        "MedianInstScore": a["i_med"].astype(float) / 100.0,
        "MinInstScore": a["MinInstScore"].astype(float),
        "MaxInstScore": a["MaxInstScore"].astype(float),
        "AllAuthorsExactMatch": (a["CountExactAuthorMatch"] == n),
        "AllAuthorsNormMatch": (a["CountNormAuthorMatch"] == n),
        "AnyAuthorExactMatch": (a["CountExactAuthorMatch"] > 0),
        "AnyAuthorNormMatch": (a["CountNormAuthorMatch"] > 0),
        "AllInstExactMatch": (a["CountExactInstMatch"] == n),
        "AllInstNormMatch": (a["CountNormInstMatch"] == n),
    })
    return out[PER_DOI_COLUMNS]


def per_doi_stats(scored_ds):
    """Per-entity wide stats (`get_stats.py:197-262` column contract).
    Coarse-bucketed: DOI cardinality ~ corpus size, so per-DOI Python
    calls (the old groupby.map_groups) don't scale."""
    from ..ops.relational import bucketed_map_groups

    return bucketed_map_groups(scored_ds, "doi", _doi_bucket_stats)


# ---------------------------------------------------------------------------
# A4 — extraction/parsing statistics (`parse_landing_page_html.py:250-363`)
# ---------------------------------------------------------------------------

def _parse_partials(batch: pd.DataFrame) -> pd.DataFrame:
    """Page-local tallies (one partial row per batch). Mention-level
    counts are derived from the list columns without exploding."""
    f = page_flags(batch)
    return pd.DataFrame([{
        "files_found": len(batch),
        "files_ok": int((~f["failed"]).sum()),
        "files_failed": int(f["failed"].sum()),
        "files_author_tag": int(f["has_author_tag"].sum()),
        "files_inst_tag": int(f["has_inst_tag"].sum()),
        "files_both_tags": int((f["has_author_tag"] & f["has_inst_tag"]).sum()),
        "files_ul": int(f["has_ul_authors"].sum()),
        "rows_total": int(f["n_mentions"].sum()),
        "rows_valid_pairs": int(f["n_valid"].sum()),
        "rows_missing_inst": int(f["n_noinst"].sum()),
        "rows_meta_only": int(f["meta_only"].sum()),
        "rows_ul_only": int(f["ul_only"].sum()),
        "rows_both": int(f["both_src"].sum()),
        "rows_missing_inst_in_tagged_files": int(f["missing_in_tagged"].sum()),
    }])


def page_flags(batch: pd.DataFrame) -> pd.DataFrame:
    """One row PER PAGE with the tallies the parsing statistics sum —
    also the persistable input from which the driver's q_parsing_stats
    oracle recomputes the whole aggregation in SQL."""
    n_mentions = batch["mention_authors"].map(len)
    n_valid = batch["mention_insts"].map(lambda xs: sum(1 for x in xs if x))
    n_noinst = batch["mention_insts"].map(lambda xs: sum(1 for x in xs if not x))
    srcs = batch["mention_sources"]
    inst_tagged = batch["has_inst_tag"].astype(bool)
    return pd.DataFrame({
        "url": batch["url"],
        "failed": batch["parse_error"].map(lambda e: bool(e)),
        "has_author_tag": batch["has_author_tag"].astype(bool),
        "has_inst_tag": inst_tagged,
        "has_ul_authors": batch["has_ul_authors"].astype(bool),
        "n_mentions": n_mentions.astype("int64"),
        "n_valid": n_valid.astype("int64"),
        "n_noinst": n_noinst.astype("int64"),
        "meta_only": srcs.map(lambda xs: sum(1 for s in xs if s == "meta")).astype("int64"),
        "ul_only": srcs.map(lambda xs: sum(1 for s in xs if s == "ul.authors")).astype("int64"),
        "both_src": srcs.map(
            lambda xs: sum(1 for s in xs if "meta" in s and "ul.authors" in s)).astype("int64"),
        "missing_in_tagged": pd.Series(
            [int(n) if t else 0 for n, t in zip(n_noinst, inst_tagged)],
            index=batch.index, dtype="int64"),
    })


def parsing_stats(extracted_ds) -> dict:
    """The reference's parsing-statistics block with identical statistic
    names (`parse_landing_page_html.py:255-351`): partial counters per
    batch + two exact-distinct counts (authors / non-empty institutions,
    D3)."""
    parts = extracted_ds.map_batches(_parse_partials, batch_format="pandas").to_pandas()
    tot = parts.sum(numeric_only=True)

    def _explode_col(col):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            vals = [v for xs in b[col] for v in xs]
            return pd.DataFrame({"v": pd.Series(vals, dtype="string").dropna().unique()})
        return fn

    from ..ops.relational import distinct

    # exact distinct via the bucketed path: a Ray groupby().count()
    # pays per-distinct-value Python overhead (unique authors ~ corpus
    # scale); distinct() is one vectorized call per sort partition
    uniq_authors = distinct(
        extracted_ds.map_batches(_explode_col("mention_authors"),
                                 batch_format="pandas"), "v").count()

    def _nonempty_inst(b: pd.DataFrame) -> pd.DataFrame:
        vals = [v for xs in b["mention_insts"] for v in xs if v]
        return pd.DataFrame({"v": pd.Series(vals, dtype="string").unique()})

    uniq_insts = distinct(
        extracted_ds.map_batches(_nonempty_inst, batch_format="pandas"),
        "v").count()

    ok = int(tot["files_ok"])
    pct = lambda c: f"{(c / ok) * 100:.2f}" if ok else "N/A"
    return {
        "Total HTML files found": int(tot["files_found"]),
        "Files successfully processed (content parsed)": ok,
        "Files failed processing (content/not found)": int(tot["files_failed"]),
        "Files containing citation_author meta tag": int(tot["files_author_tag"]),
        "Files containing citation_author meta tag (%)": pct(int(tot["files_author_tag"])),
        "Files containing citation_author_institution meta tag": int(tot["files_inst_tag"]),
        "Files containing citation_author_institution meta tag (%)": pct(int(tot["files_inst_tag"])),
        "Files containing both meta tags": int(tot["files_both_tags"]),
        "Files containing both meta tags (%)": pct(int(tot["files_both_tags"])),
        "Files containing ul.authors structure": int(tot["files_ul"]),
        "Files containing ul.authors structure (%)": pct(int(tot["files_ul"])),
        "Total unique DOI/author/institution rows extracted (merged)": int(tot["rows_total"]),
        "Total valid author-institution pairs extracted (non-empty institution)": int(tot["rows_valid_pairs"]),
        "Author rows with missing/empty institution": int(tot["rows_missing_inst"]),
        "Rows sourced ONLY from meta tags": int(tot["rows_meta_only"]),
        "Rows sourced ONLY from ul.authors": int(tot["rows_ul_only"]),
        "Rows sourced from BOTH meta and ul.authors": int(tot["rows_both"]),
        "Unique authors found (merged)": int(uniq_authors),
        "Unique institutions found (non-empty, merged)": int(uniq_insts),
        "Author rows missing institution from files with institution meta tags":
            int(tot["rows_missing_inst_in_tagged_files"]),
    }
