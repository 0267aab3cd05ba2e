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

from ..functions.similarity import indel_ratio, indel_ratios_bulk
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
# record: a flat string column gathers (take + to_pylist) ~3x cheaper
# per row than list<string>, and survives the pandas<->arrow round
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


def _ratios_for_combos(xs: list, ys: list) -> "np.ndarray":
    """InDel ratios for parallel combo lists, float64 array: distinct
    (unordered) string pairs are dict-interned (tuple keys compare
    whole strings, embedded NULs included), run once through the bulk
    kernel and gathered back."""
    seen: dict = {}
    codes = np.fromiter(
        (seen.setdefault((x, y) if x <= y else (y, x), len(seen))
         for x, y in zip(xs, ys)), dtype=np.int64, count=len(xs))
    return np.asarray(indel_ratios_bulk(list(seen)), dtype=np.float64)[codes]


def _intern_pairs(left: list, right: list, rows, ordered: bool):
    """Intern the (left, right) packed-string pairs at ``rows``: returns
    each row's code and the distinct pairs. Both sides share one Arrow
    dictionary (whole-string compare, NUL-exact — unlike pandas' khash);
    an unordered pair is keyed by its sorted codes."""
    enc = pa.array(list(left) + list(right), pa.string()).fill_null("") \
        .dictionary_encode()
    codes = enc.indices.to_numpy().astype(np.int64)
    cl, cr = codes[: len(left)][rows], codes[len(left):][rows]
    if not ordered:
        cl, cr = np.minimum(cl, cr), np.maximum(cl, cr)
    d = len(enc.dictionary)
    keys, inv = np.unique(cl * d + cr, return_inverse=True)
    strs = enc.dictionary.to_pylist()
    return inv, [(strs[k // d], strs[k % d]) for k in keys.tolist()]


def score_vectors(ldoi, rdoi, lauth, rauth, linst, rinst, fams):
    """Vectorized scoring core over PACKED attribute columns (lists
    joined with ``_SEP``): returns (author, inst, combined, doi_equal,
    doi_conflict, is_match) numpy arrays, bit-identical to a per-row
    :func:`_score_tuple` loop (equivalence-tested).

    DOI-undecided pairs are interned per batch into distinct author-list
    pairs (ordered) and institution-list pairs (unordered); each distinct
    pair emits its combos once, ONE kernel pass scores the batch's
    distinct combos, and the per-pair results scatter back through the
    intern codes. Per-batch interning is enough: summed over 8192-row
    batches, sf0.1's 2,824,253 undecided pairs hold 918,775 distinct
    author-list pairs (862,578 globally) and 1,365,023 institution-list
    pairs (1,113,806 globally), so a cross-batch memo could save at most
    6.1% / 18% of the list-pair work while costing a probe per pair
    and memory per worker."""
    n = len(ldoi)
    ld = np.asarray(ldoi, dtype=object)
    rd_ = np.asarray(rdoi, dtype=object)
    has_l = np.fromiter((bool(x) for x in ld), dtype=bool, count=n)
    has_r = np.fromiter((bool(x) for x in rd_), dtype=bool, count=n)
    eq = has_l & (ld == rd_)
    conflict = has_l & has_r & ~eq
    decided = eq | conflict

    author = np.where(eq, 100.0, 0.0)
    inst = author.copy()
    combined = author.copy()
    is_match = eq.copy()

    und = np.flatnonzero(~decided)
    if len(und):
        a_inv, a_pairs = _intern_pairs(lauth, rauth, und, ordered=True)
        i_inv, i_pairs = _intern_pairs(linst, rinst, und, ordered=False)
        # combo emission, once per distinct list pair. Author combos run
        # in (small-side name, large-side other) order — the reference
        # loop's order, so the sequential reduceat sums below are
        # bit-identical to its accumulation; the small side is the
        # first list at equal lengths, which is why author pairs are
        # ORDERED. A name present on the other side contributes 100
        # whatever else it meets (the reference's early exit): it emits
        # one (name, name) combo instead of its cross-product row, and
        # a shared institution likewise makes the max 100.
        xs, ys = [], []
        name_counts = []                    # combos per small-side name
        a_names = np.zeros(len(a_pairs), dtype=np.int64)
        for k, (la_s, ra_s) in enumerate(a_pairs):
            if la_s and ra_s:
                la = la_s.split(_SEP)
                ra = ra_s.split(_SEP)
                small, large = (la, ra) if len(la) <= len(ra) else (ra, la)
                a_names[k] = len(small)
                large_set = set(large)
                for name in small:
                    if name in large_set:
                        name_counts.append(1)
                        xs.append(name)
                        ys.append(name)
                    else:
                        name_counts.append(len(large))
                        xs.extend([name] * len(large))
                        ys.extend(large)
        n_author = len(xs)
        i_counts = np.zeros(len(i_pairs), dtype=np.int64)
        i_none = np.zeros(len(i_pairs), dtype=bool)
        for k, (li_s, ri_s) in enumerate(i_pairs):
            if li_s and ri_s:
                li = li_s.split(_SEP)
                ri = ri_s.split(_SEP)
                common = set(li) & set(ri)
                if common:
                    c0 = next(iter(common))
                    i_counts[k] = 1
                    xs.append(c0)
                    ys.append(c0)
                else:
                    i_counts[k] = len(li) * len(ri)
                    for x in li:
                        xs.extend([x] * len(ri))
                        ys.extend(ri)
            else:
                i_none[k] = not li_s and not ri_s
        ratios = _ratios_for_combos(xs, ys)

        def _offsets(counts):
            return np.concatenate(([0], np.cumsum(counts)[:-1]))

        # author: best ratio per small name (max.reduceat), then the
        # reference's sequential sum over names (add.reduceat) / count
        a_dist = np.zeros(len(a_pairs), dtype=np.float64)
        has = a_names > 0
        if n_author:
            bests = np.maximum.reduceat(ratios[:n_author], _offsets(name_counts))
            a_dist[has] = np.add.reduceat(bests, _offsets(a_names[has])) / a_names[has]
        # institutions: both empty -> 100, one empty -> 0, else max
        i_dist = np.where(i_none, 100.0, 0.0)
        emit = i_counts > 0
        if emit.any():
            i_dist[emit] = np.maximum.reduceat(ratios[n_author:], _offsets(i_counts[emit]))

        def _r2(x):
            return np.copysign(np.floor(np.abs(x) * 100.0 + 0.5) / 100.0, x)

        a_r = _r2(a_dist)[a_inv]
        i_r = _r2(i_dist)[i_inv]
        both_inst = emit[i_inv]
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


def pack_attrs(records_ds):
    """records -> (record_id, doi_norm, authors_packed, insts_packed),
    the attribute table both scoring paths bring to their pairs: the
    author / institution lists are ``_SEP``-joined by Arrow (a null
    list packs as ""). Packed DISTRIBUTED, per batch."""
    def _pack(t: pa.Table) -> pa.Table:
        return pa.table({
            "record_id": t["record_id"],
            "doi_norm": t["doi_norm"],
            "authors_packed": pc.binary_join(t["authors_norm"], _SEP).fill_null(""),
            "insts_packed": pc.binary_join(t["insts_norm"], _SEP).fill_null(""),
        })

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
        lt["doi_norm"].to_pylist(), rt["doi_norm"].to_pylist(),
        lt["authors_packed"].to_pylist(), rt["authors_packed"].to_pylist(),
        lt["insts_packed"].to_pylist(), rt["insts_packed"].to_pylist(),
        fams)
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
    """Per-worker cache of the plasma-mapped Arrow broadcast: the
    attribute columns (kept as Arrow) plus a ``pd.Index`` over the
    record ids. The id lookup is the scoring stage's per-worker fixed
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
        _RECORDS_CACHE[key] = (tbl.select(_ATTR_COLS).combine_chunks(), ids_index)
    return _RECORDS_CACHE[key]


def score_batch(batch: pa.Table, records_ref=None) -> pa.Table:
    """Stateless broadcast-scoring task: attribute rows for the batch's
    ids are gathered with one vectorized ``take`` per side (pairs with
    an id missing from the broadcast are dropped) and scored by
    :func:`_scored_table`."""
    attrs, ids_index = _get_records(records_ref)
    # vectorized C-hash id lookup (see _get_records for the measured
    # dict / index_in / pd.Index trade-off)
    li_np = ids_index.get_indexer(batch["left_id"].to_pandas())
    ri_np = ids_index.get_indexer(batch["right_id"].to_pandas())
    keep = np.flatnonzero((li_np >= 0) & (ri_np >= 0))
    lt = attrs.take(pa.array(li_np[keep], pa.int64()))
    rt = attrs.take(pa.array(ri_np[keep], pa.int64()))
    ids = batch.select(_ID_COLS).take(pa.array(keep, pa.int64()))
    return _scored_table(ids, lt, rt, _families(batch)[keep])


def broadcast_records(records_ds):
    """Broadcast the packed attribute table (:func:`pack_attrs`) as ONE
    Arrow table in the object store: workers map it zero-copy (no
    per-worker unpickle of a Python dict — that was measured to
    serialize the scoring stage) and build only a small id index each.
    The driver only concatenates the already-packed Arrow blocks
    (memcpy, no per-row Python)."""
    import ray

    tbl = pa.concat_tables(
        list(pack_attrs(records_ds).iter_batches(batch_size=65536,
                                                 batch_format="pyarrow"))
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


def score_pairs_shuffle(pairs_ds, records_ds):
    """The 10^12-row-corpus scoring path: when the record-attribute
    table is too large to broadcast to every node, pairs are joined to
    their two sides' packed attributes with two bucketed hash joins
    (ops.relational.bucket_join — each side ships only its OWN columns
    into the exchange) and scored statelessly. Produces EXACTLY the
    same scored rows as the broadcast path (asserted in tests).

    The bucket count scales with the record count
    (``block.adaptive_num_buckets``): this path runs only for the
    largest record tables, where a fixed count serializes the joins
    into a few tasks. ``records_ds`` is materialized by every caller,
    so its count is metadata."""
    from ..ops.relational import bucket_join

    num_buckets = block.adaptive_num_buckets(records_ds.count())
    attrs = pack_attrs(records_ds)
    pairs_ds = pairs_ds.map_batches(
        lambda t: t.select(_ID_COLS).append_column(
            "families", pa.array(_families(t), pa.int64())),
        batch_format="pyarrow", zero_copy_batch=True)
    left = bucket_join(pairs_ds, attrs.rename_columns({"record_id": "left_id"}),
                       on="left_id", num_buckets=num_buckets).materialize()
    both = bucket_join(left, attrs.rename_columns({"record_id": "right_id"}),
                       on="right_id", num_buckets=num_buckets,
                       suffixes=("_l", "_r"))

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
