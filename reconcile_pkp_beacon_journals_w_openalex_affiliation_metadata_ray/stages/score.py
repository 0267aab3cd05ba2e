"""Stage 3 — SCORE: candidate pairs -> scored pairs; plus the
reference-parity mention scorer.

1. Record-pair scoring for the linkage pipeline. Semantics generalize
   the reference's per-mention comparison (J2 argmax-with-early-exit,
   `check...openalex.py:153-170`; J3 institution membership,
   `:203-237`) to record pairs:
   - equal non-empty DOIs  -> match (score 100);
   - different non-empty DOIs -> non-match (score 0);
   - else fuzzy: per-author best InDel ratio (averaged over the
     smaller side), institution max-ratio with the reference's
     empty-semantics, combined = 0.75*author + 0.25*inst when both
     sides have institutions. Match iff combined >= 90 (name-only
     evidence also needs matching institutions).

   Two ways to bring each pair's two attribute rows together, one
   packer (:func:`pack_attrs`) and one scoring body
   (:func:`_scored_table` over :func:`score_vectors`) behind both:
   - :func:`score_pairs` — the packed table is ``ray.put`` once
     (:func:`broadcast_records`) and stateless tasks gather both sides
     with ``take`` (the small-side trade the reference's Rust filter
     makes with its Arc'd base-URL list, `main.rs:597-603`);
   - :func:`score_pairs_shuffle` — past the object-store budget the
     pairs are joined to the packed table twice by bucketed hash joins
     (ops.relational.bucket_join), nothing broadcast.

2. :func:`score_mentions` — byte-level parity with the reference's
   comparison stage output columns (`check...openalex.py:285-289`):
   flat mentions joined to authority works by DOI, per-mention
   argmax over authorships, 8 added columns with identical names,
   rounding (`:254-259`) and empty-institution edge semantics
   (`:215-228`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.similarity import indel_ratio, indel_ratios_codes
from ..functions.textnorm import normalize_text
from . import block

MATCH_THRESHOLD = 90.0
INST_MATCH_THRESHOLD = 90.0  # name-only tier: institutions must MATCH
AUTHOR_WEIGHT = 0.75
INST_WEIGHT = 0.25

# Scored-pair contract. DOI-decided pairs carry decision-implied scores
# (100/0) rather than fuzzy-kernel outputs: their is_match is
# determined by the DOI alone, so running the O(n^2) author/institution
# kernels on them spends the scoring stage's dominant share of CPU on
# columns that cannot change any decision. This also makes every column
# of a DOI-decided row SQL-derivable (the q_scored_pairs oracle exploits
# that).
SCORED_PAIR_SCHEMA = pa.schema(
    [
        ("left_id", pa.string()),
        ("right_id", pa.string()),
        ("block_key", pa.string()),
        ("author_score", pa.float64()),
        ("inst_score", pa.float64()),
        ("combined_score", pa.float64()),
        ("doi_equal", pa.bool_()),
        ("doi_conflict", pa.bool_()),
        ("is_match", pa.bool_()),
    ]
)
_ID_COLS = ["left_id", "right_id", "block_key"]
_ATTR_COLS = ["doi_norm", "authors_packed", "insts_packed"]
# author / institution lists travel packed into one flat string per
# record: a flat string column measured ~3x cheaper per row to gather
# (take + to_pylist) than list<string>, and survives the pandas<->arrow round
# trips inside a shuffle, which list columns do not
_SEP = "\x1e"
_BATCH_ROWS = 8192


def _round2(x: float) -> float:
    """Round to 2 decimals half-AWAY-from-zero (SQL/DuckDB semantics;
    Python's round() is half-to-even and disagrees at .5 boundaries)."""
    import math

    return math.copysign(math.floor(abs(x) * 100.0 + 0.5) / 100.0, x)


def _best_author_score(a_norm: list, b_norm: list) -> float:
    """Average over the smaller side of best InDel ratio vs the other
    side (argmax with early exit at 100.0, O4 semantics)."""
    if not a_norm or not b_norm:
        return 0.0
    small, large = (a_norm, b_norm) if len(a_norm) <= len(b_norm) else (b_norm, a_norm)
    total = 0.0
    for name in small:
        best = 0.0
        for other in large:
            score = indel_ratio(name, other)
            if score > best:
                best = score
                if best == 100.0:
                    break
        total += best
    return total / len(small)


def _inst_score(a_norm: list, b_norm: list) -> float:
    """Reference empty-institution semantics (`check...openalex.py:215-228`)
    lifted to record level: both empty -> 100, one empty -> 0, else max
    pairwise ratio."""
    if not a_norm and not b_norm:
        return 100.0
    if not a_norm or not b_norm:
        return 0.0
    best = 0.0
    for x in a_norm:
        for y in b_norm:
            s = indel_ratio(x, y)
            if s > best:
                best = s
                if best == 100.0:
                    return best
    return best


def _score_tuple(doi_l, authors_l, insts_l, doi_r, authors_r, insts_r,
                 structural: bool = True) -> tuple:
    """Per-row reference for :func:`score_vectors` over positional
    record attributes (author / institution lists unpacked); returns
    the scored-pair values in SCORED_PAIR_SCHEMA column order after the
    three id columns.

    DOI-decided pairs (equal or conflicting DOIs) short-circuit: every
    score is decision-implied (100/0) and NO fuzzy kernel runs — the
    decision cannot change, and at corpus scale DOI blocks contribute a
    large pair share, so this is the scoring stage's main perf lever.
    """
    doi_equal = bool(doi_l) and doi_l == doi_r
    doi_conflict = bool(doi_l) and bool(doi_r) and doi_l != doi_r
    if doi_equal or doi_conflict:
        v = 100.0 if doi_equal else 0.0
        return (v, v, v, doi_equal, doi_conflict, doi_equal)
    # scores are rounded half-AWAY-from-zero (SQL round semantics, not
    # Python's half-even) BEFORE combining, so every derived column
    # (combined_score, is_match) is bit-reproducible by a SQL engine
    # reading the persisted author/inst scores — the q_scored_pairs
    # oracle recomputes them in DuckDB
    author = _round2(_best_author_score(authors_l, authors_r))
    inst = _round2(_inst_score(insts_l, insts_r))
    # institutions only discriminate when BOTH sides carry them;
    # a missing-inst side must not cap the score (the record-level
    # analog of the reference's empty-inst edge case,
    # `check...openalex.py:215-228`)
    if insts_l and insts_r:
        combined = _round2(AUTHOR_WEIGHT * author + INST_WEIGHT * inst)
    else:
        combined = author
    if structural:
        is_match = combined >= MATCH_THRESHOLD
    else:
        # name-only evidence (the pair co-blocked solely via author
        # name / LSH keys): author similarity alone cannot separate
        # distinct people who share a name, and affiliation strings
        # share so much boilerplate ("University of ...") that a
        # 70-85 inst similarity is NOISE, not corroboration. Demand
        # institutions on both sides that actually match. Prevents
        # same-name bridges from avalanching clusters at scale.
        is_match = (bool(insts_l) and bool(insts_r)
                    and author >= MATCH_THRESHOLD
                    and inst >= INST_MATCH_THRESHOLD)
    return (author, inst, combined, doi_equal, doi_conflict, is_match)


def _column(x) -> pa.Array:
    """One attribute column as a null-free Arrow string array."""
    if isinstance(x, pa.ChunkedArray):
        x = x.combine_chunks()
    elif not isinstance(x, pa.Array):
        x = pa.array(x, pa.string())
    return x.fill_null("")


def _starts(counts):
    return np.cumsum(counts) - counts


def _cross(lo, ln, ro, rn):
    """The full cross product of list pairs given as (offset, length) of
    each side's names: per pair, each left name in order against every
    right name in order. Returns the left and right flat name indices
    and the combo count of each left-name row."""
    rows = np.repeat(np.arange(len(ln)), ln)
    x = lo[rows] + np.arange(len(rows)) - _starts(ln)[rows]
    per_row = rn[rows]
    combo = np.repeat(np.arange(len(rows)), per_row)
    y = ro[rows][combo] + np.arange(len(combo)) - _starts(per_row)[combo]
    return x[combo], y, per_row


def score_vectors(ldoi, rdoi, lauth, rauth, linst, rinst, fams):
    """Vectorized scoring core over PACKED attribute columns (lists
    joined with ``_SEP``; Arrow arrays, chunked or not, or lists):
    returns (author, inst, combined, doi_equal, doi_conflict, is_match)
    numpy arrays, bit-identical to a per-row :func:`_score_tuple` loop
    (equivalence-tested).

    Everything past the DOI decision runs on integer codes. The
    DOI-undecided pairs' four packed columns share one
    ``dictionary_encode`` (whole-string compare, NUL-exact), and
    ``np.unique`` on code pairs interns the distinct author-list pairs
    (ordered: the small side is the first list at equal lengths) and
    institution-list pairs (unordered: the max is symmetric). The
    distinct lists are split once and their names dictionary-encoded;
    each distinct list pair's full name cross product is built with
    repeat/offset arithmetic, and only its distinct unequal name-code
    pairs reach the kernel, once (:func:`indel_ratios_codes`). Equal
    codes score 100 without it: the max is exact and 100 the ceiling,
    so this equals the reference's early exit.

    Per-batch interning is enough: summed over 8192-row batches, sf0.1's
    2,824,253 undecided pairs hold 918,775 distinct author-list pairs
    (862,578 globally) and 1,365,023 institution-list pairs (1,113,806
    globally), so a cross-batch memo could save at most 6.1% / 18% of
    the list-pair work while costing a probe per pair and memory per
    worker."""
    ld, rd = _column(ldoi), _column(rdoi)
    has_l = pc.not_equal(ld, "")
    eq = pc.and_(has_l, pc.equal(ld, rd)).to_numpy(zero_copy_only=False)
    conflict = pc.and_(pc.and_(has_l, pc.not_equal(rd, "")),
                       pc.not_equal(ld, rd)).to_numpy(zero_copy_only=False)

    author = np.where(eq, 100.0, 0.0)
    inst = author.copy()
    combined = author.copy()
    is_match = eq.copy()

    und = np.flatnonzero(~(eq | conflict))
    u = len(und)
    if u:
        rows = pa.array(und)
        enc = pa.concat_arrays([_column(c).take(rows) for c in
                                (lauth, rauth, linst, rinst)]).dictionary_encode()
        codes = enc.indices.to_numpy().astype(np.int64).reshape(4, u)
        d = len(enc.dictionary)
        a_keys, a_inv = np.unique(codes[0] * d + codes[1], return_inverse=True)
        i_keys, i_inv = np.unique(np.minimum(codes[2], codes[3]) * d
                                  + np.maximum(codes[2], codes[3]), return_inverse=True)
        # the distinct lists' names: "" packs an empty list
        lists = pc.split_pattern(enc.dictionary, _SEP)
        names = pc.list_flatten(lists).dictionary_encode()
        name_code = names.indices.to_numpy().astype(np.int64)
        n_off = lists.offsets.to_numpy()[:-1].astype(np.int64)
        n_len = np.where(pc.equal(enc.dictionary, "").to_numpy(zero_copy_only=False), 0,
                         pc.list_value_length(lists).to_numpy())

        # authors: small side (the first list at equal lengths) in list
        # order against the large side, so the add.reduceat sums below
        # run in the reference loop's order and are bit-identical to it
        al, ar = a_keys // d, a_keys % d
        a_has = (n_len[al] > 0) & (n_len[ar] > 0)
        al, ar = al[a_has], ar[a_has]
        flip = n_len[al] > n_len[ar]
        small, large = np.where(flip, ar, al), np.where(flip, al, ar)
        ax, ay, a_per_name = _cross(n_off[small], n_len[small], n_off[large], n_len[large])
        # institutions: both empty -> 100, one empty -> 0, else max
        il, ir = i_keys // d, i_keys % d
        i_both = (n_len[il] > 0) & (n_len[ir] > 0)
        i_none = (n_len[il] == 0) & (n_len[ir] == 0)
        ix, iy, _ = _cross(n_off[il[i_both]], n_len[il[i_both]],
                           n_off[ir[i_both]], n_len[ir[i_both]])

        x = name_code[np.concatenate([ax, ix])]
        y = name_code[np.concatenate([ay, iy])]
        ratios = np.full(len(x), 100.0)
        diff = np.flatnonzero(x != y)
        nd = len(names.dictionary)
        lo, hi = np.minimum(x[diff], y[diff]), np.maximum(x[diff], y[diff])
        combos, inv = np.unique(lo * nd + hi, return_inverse=True)
        ratios[diff] = indel_ratios_codes(names.dictionary, combos // nd, combos % nd)[inv]

        a_dist = np.zeros(len(a_keys), dtype=np.float64)
        if len(ax):
            bests = np.maximum.reduceat(ratios[: len(ax)], _starts(a_per_name))
            n_small = n_len[small]
            a_dist[a_has] = np.add.reduceat(bests, _starts(n_small)) / n_small
        i_dist = np.where(i_none, 100.0, 0.0)
        if len(ix):
            i_dist[i_both] = np.maximum.reduceat(
                ratios[len(ax):], _starts(n_len[il[i_both]] * n_len[ir[i_both]]))

        def _r2(v):
            return np.copysign(np.floor(np.abs(v) * 100.0 + 0.5) / 100.0, v)

        a_r = _r2(a_dist)[a_inv]
        i_r = _r2(i_dist)[i_inv]
        both_inst = i_both[i_inv]
        comb = np.where(both_inst,
                        _r2(AUTHOR_WEIGHT * a_r + INST_WEIGHT * i_r), a_r)
        fam_und = np.asarray(fams, dtype=np.int64)[und]
        structural = (fam_und & 3) != 0
        m = np.where(structural, comb >= MATCH_THRESHOLD,
                     both_inst & (a_r >= MATCH_THRESHOLD)
                     & (i_r >= INST_MATCH_THRESHOLD))
        author[und] = a_r
        inst[und] = i_r
        combined[und] = comb
        is_match[und] = m
    return author, inst, combined, eq, conflict, is_match


def pack_attrs(records_ds, hot_keys=None):
    """records -> (record_id, doi_norm, authors_packed, insts_packed),
    the attribute table both scoring paths bring to their pairs: the
    author / institution lists are ``_SEP``-joined by Arrow (a null
    list packs as ""). Packed DISTRIBUTED, per batch.

    Given the run's hot set (stages.block.find_hot_keys), each record's
    refined key list rides along as ``record_keys``
    (stages.block.key_lists): once :func:`broadcast_records` puts the
    table, the pair shuffle's owner test reads the lists from it instead
    of shipping them on every key row. Scoring never reads them."""
    def _pack(t: pa.Table) -> pa.Table:
        cols = {
            "record_id": t["record_id"],
            "doi_norm": t["doi_norm"],
            "authors_packed": pc.binary_join(t["authors_norm"], _SEP).fill_null(""),
            "insts_packed": pc.binary_join(t["insts_norm"], _SEP).fill_null(""),
        }
        if hot_keys is not None:
            cols["record_keys"] = block.key_lists(t, hot_keys)
        return pa.table(cols)

    return records_ds.map_batches(_pack, batch_format="pyarrow",
                                  zero_copy_batch=True)


def _families(t: pa.Table) -> np.ndarray:
    """Per-pair key-family bits; pairs of unknown provenance score as
    structural evidence (3)."""
    if "families" in t.column_names:
        return t["families"].to_numpy(zero_copy_only=False)
    return np.full(t.num_rows, 3, dtype=np.int64)


def _scored_table(ids: pa.Table, lt: pa.Table, rt: pa.Table, fams) -> pa.Table:
    """The one scoring body of both paths: ``ids`` carries the pairs'
    ``_ID_COLS``, ``lt`` / ``rt`` each side's ``_ATTR_COLS`` row-aligned
    with it, ``fams`` the family bits."""
    author, inst, combined, eq, conflict, m = score_vectors(
        lt["doi_norm"], rt["doi_norm"], lt["authors_packed"], rt["authors_packed"],
        lt["insts_packed"], rt["insts_packed"], fams)
    return pa.Table.from_pydict({
        "left_id": ids["left_id"],
        "right_id": ids["right_id"],
        "block_key": ids["block_key"],
        "author_score": author,
        "inst_score": inst,
        "combined_score": combined,
        "doi_equal": eq,
        "doi_conflict": conflict,
        "is_match": m,
    }, schema=SCORED_PAIR_SCHEMA)


_RECORDS_CACHE: dict = {}


def _get_records(records_ref):
    """Per-worker cache of the plasma-mapped Arrow broadcast
    (:func:`broadcast_records`): (the attribute columns, a ``pd.Index``
    over the record ids, the ``record_keys`` lists or None), kept as
    Arrow. ONE entry: the pair shuffle's owner test
    (stages.block._owned_pairs) and :func:`score_batch` read the same
    broadcast in one fused task, so a second entry would only rebuild
    the index per batch. A ``pd.Index`` over Python strings matches ids
    NUL-exactly. The id lookup is the scoring stage's per-worker fixed
    startup cost — every fresh worker pays it before its first batch,
    which is exactly what erodes 4->16-CPU scaling efficiency — so the
    three candidate structures were measured head-to-head (282k ids,
    8192-row batches, 23 batches/worker): python dict = 0.34 s build +
    9.6 ms/batch; per-batch ``pc.index_in`` = 0 build + 45 ms/batch
    (it re-hashes the value set every call); ``pd.Index.get_indexer``
    = 0.16 s build + 3.1 ms/batch — 2.4x/4.5x better per worker than
    the alternatives."""
    key = records_ref.hex() if hasattr(records_ref, "hex") else id(records_ref)
    if key not in _RECORDS_CACHE:
        import ray

        _RECORDS_CACHE.clear()
        tbl = ray.get(records_ref)
        ids_index = pd.Index(tbl["record_id"].to_pandas())
        lists = tbl["record_keys"].combine_chunks() if "record_keys" in tbl.column_names else None
        _RECORDS_CACHE[key] = (tbl.select(_ATTR_COLS).combine_chunks(), ids_index, lists)
    return _RECORDS_CACHE[key]


def score_batch(batch: pa.Table, records_ref=None) -> pa.Table:
    """Stateless broadcast-scoring task: attribute rows for the batch's
    ids are gathered with one vectorized ``take`` per side (pairs with
    an id missing from the broadcast are dropped) and scored by
    :func:`_scored_table`."""
    attrs, ids_index, _ = _get_records(records_ref)
    # vectorized C-hash id lookup (see _get_records for the measured
    # dict / index_in / pd.Index trade-off)
    li_np = ids_index.get_indexer(batch["left_id"].to_pandas())
    ri_np = ids_index.get_indexer(batch["right_id"].to_pandas())
    keep = np.flatnonzero((li_np >= 0) & (ri_np >= 0))
    lt = attrs.take(pa.array(li_np[keep], pa.int64()))
    rt = attrs.take(pa.array(ri_np[keep], pa.int64()))
    ids = batch.select(_ID_COLS).take(pa.array(keep, pa.int64()))
    return _scored_table(ids, lt, rt, _families(batch)[keep])


def broadcast_records(attrs_ds):
    """Broadcast the packed attribute table (:func:`pack_attrs`, passed
    MATERIALIZED, so reading its blocks executes nothing) as ONE Arrow
    table in the object store: workers map it zero-copy (no per-worker
    unpickle of a Python dict — that was measured to serialize the
    scoring stage) and build only a small id index each
    (:func:`_get_records`). The driver only concatenates the
    already-packed Arrow blocks (memcpy, no per-row Python). Packed with
    the hot set, the table also carries each record's key list, and
    the same reference serves the pair shuffle
    (stages.block.candidate_pairs) and :func:`score_pairs`."""
    import ray

    tbl = pa.concat_tables(
        list(attrs_ds.iter_batches(batch_size=65536, batch_format="pyarrow"))
    ).combine_chunks()
    return ray.put(tbl)


def score_pairs(pairs_ds, records_ref):
    """Broadcast scoring: ``records_ref`` from :func:`broadcast_records`."""
    return pairs_ds.map_batches(
        score_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=_BATCH_ROWS,
        fn_kwargs={"records_ref": records_ref},
    )


def score_pairs_shuffle(pairs_ds, attrs_ds):
    """The 10^12-row-corpus scoring path: when the packed attribute
    table (:func:`pack_attrs`) is too large to broadcast to every node,
    pairs are joined to their two sides' attributes with two bucketed
    hash joins (ops.relational.bucket_join — each side ships only its
    OWN columns into the exchange, each sort partition merged in one
    call) and scored statelessly. Produces EXACTLY the same scored rows
    as the broadcast path (asserted in tests). Each join makes
    ops.relational._shuffle_buckets' fixed hash-range partitions of
    its two inputs' blocks. ``attrs_ds`` is materialized by every
    caller, so both joins read the same blocks. Its key lists, when
    packed, are dropped first: scoring does not read them."""
    from ..ops.relational import bucket_join

    attrs_ds = attrs_ds.select_columns(["record_id"] + _ATTR_COLS)
    pairs_ds = pairs_ds.map_batches(
        lambda t: t.select(_ID_COLS).append_column(
            "families", pa.array(_families(t), pa.int64())),
        batch_format="pyarrow", zero_copy_batch=True)
    left = bucket_join(pairs_ds, attrs_ds.rename_columns({"record_id": "left_id"}),
                       on="left_id").materialize()
    both = bucket_join(left, attrs_ds.rename_columns({"record_id": "right_id"}),
                       on="right_id", suffixes=("_l", "_r"))

    def _score(t: pa.Table) -> pa.Table:
        lt = t.select([c + "_l" for c in _ATTR_COLS]).rename_columns(_ATTR_COLS)
        rt = t.select([c + "_r" for c in _ATTR_COLS]).rename_columns(_ATTR_COLS)
        return _scored_table(t, lt, rt, _families(t))

    return both.map_batches(_score, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=_BATCH_ROWS)


# ---------------------------------------------------------------------------
# Reference-parity mention scorer (the 8 comparison columns)
# ---------------------------------------------------------------------------

ADDED_COLUMNS = [
    "exact_author_match", "normalized_author_match", "author_similarity_score",
    "exact_institution_match", "normalized_institution_match",
    "institution_similarity_score", "openalex_matched_author_name",
    "openalex_matched_institution_strings",
]


class MentionScorer:
    """Parity port of `check...openalex.py:123-269` as an actor-pool
    stage. State: the works authority table broadcast as ONE zero-copy
    Arrow table (the local stand-in for the per-DOI API lookup, J2/S7);
    each actor builds only a doi -> row-index dict in __init__ and
    materializes a doi's authorships lazily, caching per-actor."""

    def __init__(self, works_by_doi_ref):
        import ray

        self.works_tbl = ray.get(works_by_doi_ref)  # arrow, plasma-mapped
        dois = self.works_tbl["doi"].to_pylist()
        self.idx = {d.strip().lower(): i for i, d in enumerate(dois) if d and d.strip()}
        self._auth_cache: dict = {}

    def _authorships(self, doi_lower: str):
        got = self._auth_cache.get(doi_lower)
        if got is None:
            i = self.idx.get(doi_lower)
            got = (self.works_tbl["authorships"][i].as_py() or []) if i is not None else []
            self._auth_cache[doi_lower] = got
        return got

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for rec in batch.to_dict("records"):
            doi = (rec.get("doi") or "").strip()
            # the reference skips rows whose DOI doesn't start '10.'
            # (`check...openalex.py:67-69`); mirrored as a status skip
            if not doi.startswith("10."):
                continue
            authorships = self._authorships(doi.lower())
            author_raw = rec.get("author", "") or ""
            inst_raw = rec.get("institution", "") or ""
            author_norm = normalize_text(author_raw)
            inst_norm = normalize_text(inst_raw)

            # reference falls back to author.display_name when
            # raw_author_name is empty (`check...openalex.py:155-158,184-190`)
            def _api_name(auth):
                return (auth.get("raw_author_name")
                        or (auth.get("author") or {}).get("display_name", "")
                        or "")

            best_score, best_idx = -1.0, -1
            if author_norm and authorships:
                for idx, auth in enumerate(authorships):
                    api_name = _api_name(auth)
                    cur = indel_ratio(author_norm, normalize_text(api_name))
                    if cur > best_score:
                        best_score, best_idx = cur, idx
                        if best_score == 100.0:
                            break

            exact_author = norm_author = False
            author_sim = 0.0
            exact_inst = norm_inst = False
            inst_sim = 0.0
            matched_name = ""
            matched_insts = ""
            if best_idx != -1:
                best = authorships[best_idx]
                api_name = _api_name(best)
                matched_name = api_name
                author_sim = best_score
                exact_author = author_raw == api_name
                norm_author = author_norm == normalize_text(api_name)
                raw_affs = best.get("raw_affiliation_strings") or []
                matched_insts = "; ".join(raw_affs)
                norm_affs = [normalize_text(a) for a in raw_affs if a]
                norm_affs = [a for a in norm_affs if a]
                if not inst_raw:
                    exact_inst = not bool(raw_affs)
                elif raw_affs:
                    exact_inst = any(inst_raw.lower() == a.lower() for a in raw_affs)
                if not inst_norm:
                    norm_inst = not bool(norm_affs)
                elif norm_affs:
                    norm_inst = inst_norm in norm_affs
                if not inst_norm:
                    inst_sim = 100.0 if not norm_affs else 0.0
                elif norm_affs:
                    inst_sim = max(indel_ratio(inst_norm, a) for a in norm_affs)
            rec_out = dict(rec)
            rec_out["exact_author_match"] = exact_author
            rec_out["normalized_author_match"] = norm_author
            rec_out["author_similarity_score"] = round(author_sim if best_idx != -1 else 0.0, 2)
            rec_out["exact_institution_match"] = exact_inst
            rec_out["normalized_institution_match"] = norm_inst
            rec_out["institution_similarity_score"] = round(inst_sim, 2)
            rec_out["openalex_matched_author_name"] = matched_name
            rec_out["openalex_matched_institution_strings"] = matched_insts
            rows.append(rec_out)
        cols = list(batch.columns) + ADDED_COLUMNS
        if not rows:
            return pd.DataFrame({c: pd.Series(dtype=object) for c in cols})
        return pd.DataFrame(rows, columns=cols)


def broadcast_works_by_doi(works_ds):
    """Broadcast the (doi, authorships) authority table as one Arrow
    table — zero-copy mapped by every scorer actor, no per-actor
    unpickling of nested Python structures."""
    import ray

    tbl = pa.concat_tables(
        [b.select(["doi", "authorships"])
         for b in works_ds.iter_batches(batch_size=65536, batch_format="pyarrow")]
    ).combine_chunks()
    return ray.put(tbl)


def score_mentions(mentions_ds, works_by_doi_ref):
    return mentions_ds.map_batches(
        MentionScorer,
        batch_format="pandas",
        batch_size=1024,
        fn_constructor_kwargs={"works_by_doi_ref": works_by_doi_ref},
        concurrency=(1, 8),
    )
