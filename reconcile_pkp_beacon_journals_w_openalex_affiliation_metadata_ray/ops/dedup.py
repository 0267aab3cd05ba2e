"""Deduplication operators over a documents table.

- exact: content-hash -> hash-partitioned groupby -> keep min id (the
  canonical exact dedup; D1 generalization of `get_journal...py:40-64`).
- MinHash-LSH near-dup: shingle -> signature -> band-key explode ->
  candidate pair gen -> exact n-gram-Jaccard verify.
- SimHash near-dup: 64-bit simhash, banded into 4x16-bit sub-keys
  (Hamming distance <= 3 guarantee via pigeonhole) -> verify Hamming.
- embedding cosine near-dup: OR-amplified random-hyperplane LSH (several
  independent bands) -> exact cosine verify.

Scale discipline (the reason this file looks the way it does):
- Band/bucket shuffles carry (key, id) ONLY — never document text or
  vectors. A band explode that ships payload multiplies the corpus by
  the band count through the all-to-all exchange (16x at the defaults);
  at 100 TB that is petabytes. Payloads are joined back exactly once,
  for the (much smaller) surviving candidate set.
- Candidate generation inside a bucket enumerates each key's pairs on
  integer codes (functions.pairs, one numpy pass per coarse bucket via
  bucketed_map_groups — no per-key Python call), with a deterministic
  per-band width cap and a logged drop count: a degenerate band (e.g.
  the empty-document signature) would otherwise go quadratic.
- Verification joins are hash-partitioned (ops.relational.bucket_join)
  for text payloads; embeddings use the broadcast-Arrow per-worker
  lookup (same pattern as stages/score.py) — documented assumption:
  the embedding table fits the object store; past that, swap in
  bucket_join keyed on id.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.minhash import MinHasher, band_keys, factorize_exact
from ..functions.pairs import group_pairs, ranked_codes
from ..functions.similarity import BoundedCache, ngram_set, set_jaccard
from ..sources.io import cluster_cpus
from .relational import bucket_join, bucketed_map_groups

logger = logging.getLogger(__name__)

_MH: MinHasher | None = None
# per-worker text -> ngram_set memo (verify amortization); byte-aware
# cap — an item count alone would not bound memory for large documents
_GRAM_CACHE = BoundedCache(max_items=200_000, max_cost=512 << 20)
# token SETS keyed by text (setsim verify="join"); separate from
# _GRAM_CACHE — same keys, different value semantics (3-gram sets)
_TOKSET_CACHE = BoundedCache(max_items=200_000, max_cost=512 << 20)


def _typed_or_empty(ds, schema_fields):
    """Aggregates over an empty pair set lose their schema; give empty
    results a stable typed one so downstream consumers (and the
    driver's schema check) see consistent columns."""
    ds = ds.materialize()
    if ds.count() > 0:
        return ds
    # NOTE: Dataset.to_pandas() on a 0-row dataset loses column names,
    # so the empty case returns a typed pandas frame directly
    return pa.table({name: pa.array([], typ) for name, typ in schema_fields}).to_pandas()


def _shuffle_args() -> dict:
    """Per-task ``num_cpus`` reservation for this op family's
    bandwidth-bound stages (signature kernels, bucketed reduces):
    at most ``context.effective_cores()`` run per node concurrently.
    BASELINE §c7: uncapped, minhash at 2M docs REGRESSED 102 s (16
    CPUs) -> 297-522 s (32) on this ~21-effective-core host; more
    slots cannot add memory bandwidth. {} (no-op) at/below the knee."""
    from ..context import shuffle_task_cpus

    t = shuffle_task_cpus()
    return {"num_cpus": t} if t > 1.0 else {}


def _mh(num_perm: int) -> MinHasher:
    global _MH
    if _MH is None or _MH.num_perm != num_perm:
        _MH = MinHasher(num_perm=num_perm)
    return _MH


def exact_dedup(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """One surviving row (min id) per distinct content hash. Returns
    (doc_id, n_copies) — the kept id and its duplicate count."""
    def _hash(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"content_hash": batch[text_col].fillna("").map(
                lambda t: hashlib.md5(t.encode("utf-8")).hexdigest()),
             id_col: batch[id_col]})

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("content_hash", as_index=False, sort=False).agg(
            **{id_col: (id_col, "min"), "n_copies": (id_col, "size")})

    def _combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("content_hash", as_index=False, sort=False).agg(
            **{id_col: (id_col, "min"), "n_copies": ("n_copies", "sum")})
        return agg[[id_col, "n_copies"]]

    # combiner inside map_batches, then ONE coarse-bucketed shuffle with
    # vectorized per-bucket reduce: distinct-hash cardinality ~ corpus
    # size, where Ray's per-group aggregate overhead (~0.7 ms/group)
    # would dominate
    partials = (docs_ds.map_batches(_hash, batch_format="pandas")
                .map_batches(_partial, batch_format="pandas"))
    return bucketed_map_groups(partials, "content_hash", _combine)


def _keyed_pairs(g: pd.DataFrame, key_col: str, id_col: str, max_band_width: int,
                 op_name: str) -> pd.DataFrame:
    """Every pair of ids sharing a key in one bucket of (key, id) rows,
    once, as ``left_id < right_id``, on value-ordered codes
    (functions.pairs, NUL-exact). A key wider than ``max_band_width``
    keeps its smallest ids, with one warning naming ``op_name`` (a
    degenerate band, e.g. the empty document's, would otherwise go
    quadratic). Any other column rides along as ``{col}_x`` /
    ``{col}_y``, from one row of each id."""
    ids = ranked_codes(g[id_col].to_numpy())[0]
    n = max(len(g), 1)
    rows = np.unique(ranked_codes(g[key_col].to_numpy())[0] * n + ids)
    key = rows // n
    kept = np.arange(len(rows)) - np.searchsorted(key, key) < max_band_width
    if not kept.all():
        logger.warning("%s: %d oversized bands truncated to width %d (%d id rows dropped)",
                       op_name, len(np.unique(key[~kept])), max_band_width,
                       int((~kept).sum()))
        rows, key = rows[kept], key[kept]
    i, j = group_pairs(key)
    pair = pd.unique(rows[i] % n * n + rows[j] % n)
    out = {}
    for col in g.columns.drop(key_col):
        v = g[col].to_numpy()
        by_id = np.empty(n, v.dtype)
        by_id[ids] = v
        left, right = ("left_id", "right_id") if col == id_col else (f"{col}_x", f"{col}_y")
        out[left], out[right] = by_id[pair // n], by_id[pair % n]
    return pd.DataFrame(out)


def _distinct_keyed_pairs(keyed_ds, id_col: str, key_col: str, max_band_width: int,
                          op_name: str, verify, cols):
    """:func:`_keyed_pairs` per sort partition of keys, ``verify``
    applied to each partition's pairs in the same task, then the global
    distinct over ``cols``: a pair shared by several keys surfaces from
    each of their partitions (bucketed, as Ray's groupby().aggregate()
    pays ~0.7 ms per distinct group — minutes at 10^5 pairs)."""
    from .relational import distinct

    sh = _shuffle_args()
    pairs = bucketed_map_groups(
        keyed_ds, key_col,
        lambda g: verify(_keyed_pairs(g, key_col, id_col, max_band_width, op_name)),
        ray_remote_args=sh)
    return distinct(pairs, cols, ray_remote_args=sh)


def candidate_pairs_from_keys(keyed_ds, id_col: str, key_col: str = "band_key",
                              max_band_width: int = 5000, op_name: str = "lsh"):
    """(key, id) rows -> distinct candidate (left_id, right_id) pairs:
    one coarse-bucketed shuffle that enumerates each key's pairs
    (:func:`_keyed_pairs`, bands over ``max_band_width`` truncated with
    the drop logged — the no-silent-caps rule), then the distinct."""
    return _distinct_keyed_pairs(keyed_ds, id_col, key_col, max_band_width, op_name,
                                 lambda p: p, ["left_id", "right_id"])


def _attach_payload(pairs_ds, payload_ds, id_col: str, payload_col: str):
    """Join the payload column onto both sides of a pair table via two
    hash-partitioned joins (payload moves at most twice, not once per
    band). The merge tasks carry the shuffle-family CPU reservation:
    payload merges are memory-bandwidth-bound like the signature
    kernels, and uncapped they regressed the 2M-doc verify leg at 32
    CPUs the same way (a 202 s merge+verify phase measured at 32 vs
    the whole op at 102 s at 16)."""
    sh = _shuffle_args()

    def _ren(side):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({side: b[id_col], f"__p_{side}": b[payload_col]})
        return fn

    left_pl = payload_ds.map_batches(_ren("left_id"), batch_format="pandas",
                                     **sh)
    right_pl = payload_ds.map_batches(_ren("right_id"), batch_format="pandas",
                                      **sh)
    withl = bucket_join(pairs_ds, left_pl, on="left_id",
                        ray_remote_args=sh).materialize()
    return bucket_join(withl, right_pl, on="right_id", ray_remote_args=sh)


def minhash_band_rows(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                      num_perm: int = 64, num_bands: int = 16):
    """(band_key, id) rows — the ONLY columns that enter the LSH band
    shuffle (tested: the text payload must never ride this exchange)."""
    def _bands(batch: pd.DataFrame) -> pd.DataFrame:
        from ..functions.minhash import band_keys_u64

        mh = _mh(num_perm)
        texts = batch[text_col].fillna("").tolist()
        sigs = mh.signatures(texts)  # one vectorized reduceat pass
        # int64 band keys, fully vectorized (the per-(doc, band) Python
        # blake2b string loop this replaces measured as a large slice
        # of the signature stage at 2M docs; int keys also skip the
        # string cast in every downstream bucket hash)
        keys = band_keys_u64(sigs, num_bands)
        ids = np.repeat(batch[id_col].to_numpy(), num_bands)
        return pd.DataFrame({"band_key": keys.reshape(-1),
                             id_col: ids})

    return docs_ds.map_batches(_bands, batch_format="pandas",
                               **_shuffle_args())


def _gram_vocab_probe(docs_ds, text_col: str, cap: int, n: int = 3):
    """Global distinct n-gram vocabulary IF it is small (<= cap), else
    None. Cheap on huge corpora by construction: every batch emits at
    most cap+1 rows (a batch whose LOCAL vocab exceeds the cap emits
    one over-cap sentinel and stops accumulating), so the reduce input
    is O(batches x cap) regardless of corpus size."""
    from .relational import distinct

    sentinel = "\x00OVER"  # 5 chars — can never collide with an n-gram

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        grams: set = set()
        for t in b[text_col].fillna(""):
            grams |= ngram_set(t, n)
            if len(grams) > cap:
                return pd.DataFrame({"gram": [sentinel]})
        return pd.DataFrame({"gram": pd.Series(sorted(grams), dtype=object)})

    vocab = distinct(
        docs_ds.map_batches(_partial, batch_format="pandas"),
        "gram").to_pandas()
    if len(vocab) == 0:
        return []
    v = vocab["gram"].tolist()
    if sentinel in v or len(v) > cap:
        return None
    return sorted(v)


def _gram_bitset_refs(docs_ds, id_col: str, text_col: str, vocab: list,
                      n: int = 3):
    """(ids array, docs x W uint64 bitset matrix) in the object store:
    each doc's n-gram set as a multi-word bitset over the (small)
    global vocabulary — the broadcast is W*8 bytes/doc, strictly
    smaller than the text broadcast it replaces."""
    import ray

    W = max(1, (len(vocab) + 63) // 64)
    gidx = {g: i for i, g in enumerate(vocab)}

    def _rows(b: pd.DataFrame) -> pd.DataFrame:
        M = np.zeros((len(b), W), dtype=np.uint64)
        one = np.uint64(1)
        for r, t in enumerate(b[text_col].fillna("")):
            for g in ngram_set(t, n):
                i = gidx[g]
                M[r, i >> 6] |= one << np.uint64(i & 63)
        return pd.DataFrame({id_col: b[id_col].to_numpy(),
                             "bits": [row.tobytes() for row in M]})

    parts = docs_ds.map_batches(_rows, batch_format="pandas").to_pandas()
    ids = parts[id_col].to_numpy()
    mat = (np.frombuffer(b"".join(parts["bits"]), dtype=np.uint64)
           .reshape(len(parts), W) if len(parts)
           else np.zeros((0, W), dtype=np.uint64))
    return ray.put(ids), ray.put(mat)


def _ckpt_stage(checkpoint_dir, stage: str, fp: str, factory,
                partition_key: str = "left_id"):
    """Wrap a dedup sub-stage in the repo's manifest checkpoint
    contract (state/manifest.py): on a hit the factory never runs (its
    upstream — signatures, band shuffle — is never executed); on a
    miss the output lands as per-partition Parquet + MANIFEST before
    anything downstream consumes it. Returns (dataset, resumed)."""
    if not checkpoint_dir:
        return factory(), False
    from ..state import manifest as mf

    return mf.checkpoint(factory, checkpoint_dir, stage, fp,
                         partition_key=partition_key)


def _ckpt_done(checkpoint_dir, stage: str, fp: str):
    """Fast path: if the FINAL pair checkpoint for (stage, fp) is
    complete, return a reader over it, planned from its manifest (None
    otherwise). A full resume never touches the corpus at all — mid-run
    kills of the 400 s-class big-corpus runs no longer repay the
    signature+shuffle cost."""
    if not checkpoint_dir:
        return None
    from ..state import manifest as mf

    read = mf.resume(checkpoint_dir, stage, fp)
    return None if read is None else read()


def minhash_lsh_pairs(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                      num_perm: int = 64, num_bands: int = 16,
                      jaccard_threshold: float = 0.7, max_band_width: int = 5000,
                      verify: str = "broadcast", bitset_max_grams: int = 4096,
                      checkpoint_dir: str | None = None,
                      fingerprint: str = ""):
    """Near-duplicate pairs (left_id < right_id, true n-gram jaccard >=
    threshold).

    Pipeline: per-batch signatures -> (band_key, id) explode [ids only
    through the shuffle] -> bucketed candidate pair gen -> distinct ->
    exact n-gram Jaccard verify. Two verify modes (same split as
    embedding_near_dup_pairs, identical outputs, equivalence-tested):

    **Sizing bands for corpus scale**: rows-per-band r = num_perm /
    num_bands sets the background candidate rate — a random pair
    collides with probability ~ num_bands * j_bg^r, and the candidate
    COUNT is that times n^2/2. The default (64, 16) -> r=4 suits dense
    small corpora (high j_bg, n small); at web scale with background
    char-3-gram jaccard ~0.1 it measured 3.4M candidates from 50k
    random docs (2.4e-3/pair) and grows quadratically. Use r=8
    (num_perm=64, num_bands=8) there: background drops to ~1e-7/pair
    while true pairs at j >= 0.85 are still caught with P ~ 0.99
    (1-(1-j^8)^8). Measured on the 2M-doc bigdocs corpus in
    BASELINE.md; tools/bench_bigdocs.py reproduces.

    - ``verify="broadcast"`` (default): the corpus text table is put in
      the object store ONCE and candidate batches verify against a
      per-worker zero-copy view + gram-set cache. Near-dup candidate
      sets are QUADRATIC in cluster size while the corpus is linear, so
      at every realistic scale the corpus is the SMALL side — the old
      always-join path shipped both texts onto every candidate row
      (measured: the dominant cost of the whole op).
    - ``verify="join"``: the no-broadcast path for corpora larger than
      the object store — texts hash-joined onto the (much fewer)
      surviving candidates via bucket_join, moving the corpus at most
      twice."""
    # materialize the (small) candidate set: the payload joins below
    # probe its schema, and without a checkpoint every probe + the final
    # execution would re-run the whole signature/band pipeline
    out_fields = [("left_id", pa.int64()), ("right_id", pa.int64()),
                  ("jaccard", pa.float64())]
    thr = float(jaccard_threshold)

    ckfp = ""
    if checkpoint_dir:
        from ..state import manifest as mf

        # parameters are part of the fingerprint: a rerun with a
        # different threshold/band layout recomputes, same inputs +
        # params resume. ``fingerprint`` is the caller's input identity
        # (e.g. mf.fingerprint_inputs over the corpus files).
        ckfp = mf.fingerprint_inputs(
            "minhash_lsh_pairs/v1", fingerprint, id_col, text_col,
            num_perm, num_bands, thr, max_band_width, verify,
            bitset_max_grams)
        done = _ckpt_done(checkpoint_dir, "minhash_pairs", ckfp)
        if done is not None:
            return _typed_or_empty(done, out_fields)

    if verify == "broadcast" and bitset_max_grams:
        vocab = _gram_vocab_probe(docs_ds, text_col, bitset_max_grams)
        if vocab is not None:
            # small-gram-alphabet fast path: per-doc multi-word bitsets
            # make the verify a single vectorized popcount pass instead
            # of a per-pair Python gram-set loop; the broadcast shrinks
            # from the full text corpus to W*8 bytes/doc. Candidates
            # still dedup globally first — an A/B showed that verifying
            # cross-band duplicates instead LOSES when survivors are
            # dense (814k survivors at sf0.1 thr 0.6: 40 s vs 19 s),
            # because the survivor distinct just replaces the candidate
            # distinct. Output identical, equivalence-tested.
            import ray

            ids_ref, mat_ref = _gram_bitset_refs(
                docs_ds, id_col, text_col, vocab)
            cand_nd, _ = _ckpt_stage(
                checkpoint_dir, "minhash_candidates", ckfp,
                lambda: candidate_pairs_from_keys(
                    minhash_band_rows(docs_ds, id_col, text_col, num_perm,
                                      num_bands), id_col,
                    max_band_width=max_band_width, op_name="minhash_lsh"))
            _bst: dict = {}

            def _verify_bits(b: pd.DataFrame) -> pd.DataFrame:
                if "mat" not in _bst:
                    _bst["mat"] = ray.get(mat_ref)
                    _bst["idx"] = pd.Index(ray.get(ids_ref))
                mat, idx = _bst["mat"], _bst["idx"]
                li = idx.get_indexer(b["left_id"].to_numpy())
                ri = idx.get_indexer(b["right_id"].to_numpy())
                A = np.take(mat, li, axis=0)
                B = np.take(mat, ri, axis=0)
                inter = _popcnt_mat(A & B).sum(axis=1).astype("float64")
                union = _popcnt_mat(A | B).sum(axis=1).astype("float64")
                jac = np.where(union == 0, 1.0,
                               inter / np.maximum(union, 1.0))
                out = pd.DataFrame({
                    "left_id": b["left_id"].to_numpy(),
                    "right_id": b["right_id"].to_numpy(),
                    "jaccard": np.floor(jac * 1e6 + 0.5) / 1e6})
                return out[jac >= thr]

            out = cand_nd.map_batches(_verify_bits, batch_format="pandas",
                                      **_shuffle_args())
            out, _ = _ckpt_stage(checkpoint_dir, "minhash_pairs", ckfp,
                                 lambda: out)
            return _typed_or_empty(out, out_fields)

    # materialize the (small) candidate set: the payload joins below
    # probe its schema, and without a checkpoint every probe + the final
    # execution would re-run the whole signature/band pipeline
    cand, _ = _ckpt_stage(
        checkpoint_dir, "minhash_candidates", ckfp,
        lambda: candidate_pairs_from_keys(
            minhash_band_rows(docs_ds, id_col, text_col, num_perm,
                              num_bands), id_col,
            max_band_width=max_band_width, op_name="minhash_lsh"))
    cand = cand.materialize()
    if cand.count() == 0:
        # no candidates: skip the payload joins entirely (an all-empty
        # dataset has no schema for bucket_join to type its output by)
        return pa.table({n: pa.array([], t) for n, t in out_fields}).to_pandas()

    from .similarity_search import _round_half_away

    def _grams(t):
        return _GRAM_CACHE.get_or_build(t, lambda: ngram_set(t, 3),
                                        cost=len(t) * 60)

    if verify == "broadcast":
        import ray

        tbl = pa.concat_tables(
            [b.select([id_col, text_col])
             for b in docs_ds.iter_batches(batch_size=65536,
                                           batch_format="pyarrow")]
        ).combine_chunks()
        tbl_ref = ray.put(tbl)
        _state: dict = {}

        def _verify_bcast(b: pd.DataFrame) -> pd.DataFrame:
            # keep the broadcast table as ARROW (plasma zero-copy) and
            # decode per batch only the rows this batch touches — a
            # full per-worker to_pylist of the corpus measured 728 s
            # at 2M docs (1 GB of strings decoded once per worker,
            # all workers at once at stage start), vs 404 s for the
            # join path; per-batch take closes most of that gap
            if "idx" not in _state:
                t = ray.get(tbl_ref)
                _state["tbl"] = t
                _state["idx"] = pd.Index(t[id_col].to_numpy(zero_copy_only=False))
            t, idx = _state["tbl"], _state["idx"]
            li = idx.get_indexer(b["left_id"].to_numpy())
            ri = idx.get_indexer(b["right_id"].to_numpy())
            rows = np.unique(np.concatenate([li, ri]))
            decoded = t[text_col].take(rows).to_pylist()
            pos = {int(r): k for k, r in enumerate(rows.tolist())}
            jac = []
            for l, r in zip(li.tolist(), ri.tolist()):
                tl = decoded[pos[l]] or ""
                tr = decoded[pos[r]] or ""
                jac.append(set_jaccard(_grams(tl), _grams(tr)))
            out = pd.DataFrame({"left_id": b["left_id"], "right_id": b["right_id"],
                                "jaccard": [_round_half_away(s, 6) for s in jac]})
            return out[pd.Series(jac, index=b.index) >= jaccard_threshold]

        out = cand.map_batches(_verify_bcast, batch_format="pandas",
                               **_shuffle_args())
        out, _ = _ckpt_stage(checkpoint_dir, "minhash_pairs", ckfp,
                             lambda: out)
        return _typed_or_empty(out, out_fields)

    joined = _attach_payload(cand, docs_ds.map_batches(
        lambda b: pd.DataFrame({id_col: b[id_col], text_col: b[text_col].fillna("")}),
        batch_format="pandas"), id_col, text_col)

    def _verify(b: pd.DataFrame) -> pd.DataFrame:
        # a document appears in MANY candidate pairs (near-dup clusters
        # are quadratic in pairs, linear in docs): cache each text's
        # gram set per worker so set construction amortizes per doc —
        # per-pair work drops to one C-level intersection (~10x)
        jac = [set_jaccard(_grams(l), _grams(r))
               for l, r in zip(b["__p_left_id"], b["__p_right_id"])]
        # half-away rounding (not Python's half-even) so the value is
        # bit-reproducible by a SQL engine computing the same ratio
        out = pd.DataFrame({"left_id": b["left_id"], "right_id": b["right_id"],
                            "jaccard": [_round_half_away(s, 6) for s in jac]})
        return out[pd.Series(jac, index=b.index) >= jaccard_threshold]

    out = joined.map_batches(_verify, batch_format="pandas",
                             **_shuffle_args())
    out, _ = _ckpt_stage(checkpoint_dir, "minhash_pairs", ckfp, lambda: out)
    return _typed_or_empty(out, out_fields)


def ngram_jaccard_pairs(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                        jaccard_threshold: float = 0.7, n: int = 3):
    """EXACT all-pairs n-gram-Jaccard near-dup detection — the
    quadratic baseline (MinHash-LSH is the scale path; this is the
    ground truth it approximates, and the recall tests compare the
    two). The corpus's gram sets are broadcast once as an Arrow table
    (ids + pre-joined gram strings); each batch compares its rows
    against every doc with a larger id, so the O(n^2) compare is
    sharded across workers and only (left, right, jaccard) survivors
    leave a task. Use only where n^2 is affordable (exact audits,
    per-partition dedup)."""
    import ray

    from .similarity_search import _round_half_away

    # broadcast ONE Arrow table (plasma zero-copy per the repo's
    # broadcast rule — a pickled Python (ids, sets) tuple deserializes
    # per worker); each worker decodes it into gram sets ONCE and
    # caches, instead of per batch. Built by concatenating Arrow
    # batches + an Arrow sort — no per-row Python list on the driver
    # (the corpus must fit driver/object-store memory either way: this
    # is the documented quadratic audit baseline, not the scale path).
    import pyarrow.compute as pc

    tbl = pa.concat_tables(
        [b.select([id_col, text_col])
         for b in docs_ds.iter_batches(batch_size=65536, batch_format="pyarrow")]
    ).combine_chunks()
    tbl = pa.table({"id": tbl[id_col],
                    "text": pc.fill_null(tbl[text_col], "")}).sort_by("id")
    ref = ray.put(tbl)
    _state: dict = {}

    def _cmp(b: pd.DataFrame) -> pd.DataFrame:
        if "ids" not in _state:
            t = ray.get(ref)
            _state["ids"] = t["id"].to_pylist()
            _state["grams"] = [ngram_set(x, n) for x in t["text"].to_pylist()]
            _state["pos"] = {v: k for k, v in enumerate(_state["ids"])}
        all_ids, all_grams, pos = _state["ids"], _state["grams"], _state["pos"]
        left, right, jac = [], [], []
        for i in b[id_col]:
            k = pos[i]
            gi = all_grams[k]
            for j in range(k + 1, len(all_ids)):
                s = set_jaccard(gi, all_grams[j])
                if s >= jaccard_threshold:
                    left.append(i)
                    right.append(all_ids[j])
                    jac.append(_round_half_away(s, 6))
        return pd.DataFrame({"left_id": left, "right_id": right, "jaccard": jac})

    out = docs_ds.map_batches(_cmp, batch_format="pandas")
    return _typed_or_empty(out, [("left_id", pa.int64()), ("right_id", pa.int64()),
                                 ("jaccard", pa.float64())])


def simhash_pairs(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                  max_hamming: int = 3, max_band_width: int = 20000,
                  num_blocks: int = 4):
    """Near-dup pairs by SimHash (left_id < right_id, hamming <=
    max_hamming of 64 bits), verified by full Hamming distance.

    Candidate scheme — ``num_blocks`` (b) splits the 64 bits into b
    near-equal blocks and emits one bucket key per COMBINATION of
    b - max_hamming blocks (pigeonhole: <= k flipped bits corrupt <= k
    blocks, so some (b-k)-subset of blocks is clean and its
    concatenated key collides). b=4 (default) degenerates to the
    classic 4 x 16-bit single-block keys — right for corpora up to
    ~1M docs, but its 2^16 key space yields ~4*n^2/2^16 background
    in-bucket pairs (quadratic; measured 517 s at 2M docs where the
    bucket pair-gen, not the hash kernel, dominates). At larger n use
    b=6: C(6,3)=20 keys/doc over ~33-bit combined keys, background
    collisions ~20*n^2/2/2^33 (linear-ish at realistic n), identical
    output (equivalence-tested). The simhash (one int) rides the
    shuffle; the width cap bounds in-bucket quadratics on degenerate
    keys (e.g. the all-zero hash of empty documents)."""
    from itertools import combinations

    from ..functions.minhash import simhash_batch

    k = max_hamming
    assert 1 <= num_blocks - k <= num_blocks, "need num_blocks > max_hamming"
    widths = [64 // num_blocks + (1 if i < 64 % num_blocks else 0)
              for i in range(num_blocks)]
    shifts = np.cumsum([0] + widths[:-1]).astype(np.uint64)
    masks = np.array([(1 << w) - 1 for w in widths], dtype=np.uint64)
    combos = list(combinations(range(num_blocks), num_blocks - k))

    def _keys(batch: pd.DataFrame) -> pd.DataFrame:
        from ..functions.minhash import _splitmix64

        hs = simhash_batch(batch[text_col].fillna("").tolist())
        blocks = (hs[:, None] >> shifts[None, :]) & masks[None, :]
        ids_np = batch[id_col].to_numpy()
        h64 = hs.astype("int64")
        frames = []
        for ci, combo in enumerate(combos):
            v = np.zeros(len(hs), dtype=np.uint64)
            for bi in combo:
                v = (v << np.uint64(widths[bi])) | blocks[:, bi]
            # int64 keys (combo index mixed in), fully vectorized — the
            # old per-row f-string keys paid one Python format per
            # (doc, combo) and string-hashed through every shuffle tag;
            # a mixer collision can only ADD a candidate (hamming
            # verify filters it), equal (ci, v) always collide
            keys = _splitmix64(
                v ^ _splitmix64(np.full(len(hs), np.uint64(ci),
                                        dtype=np.uint64))).view(np.int64)
            frames.append(pd.DataFrame({"band_key": keys, id_col: ids_np,
                                        "simhash": h64}))
        return pd.concat(frames, ignore_index=True)

    def _near(p: pd.DataFrame) -> pd.DataFrame:
        # vectorized Hamming via uint64 xor + popcount-by-bytes
        x = p["simhash_x"].to_numpy().astype(np.uint64) ^ p["simhash_y"].to_numpy().astype(np.uint64)
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
        keep = ham <= max_hamming
        return pd.DataFrame({"left_id": p["left_id"].to_numpy()[keep],
                             "right_id": p["right_id"].to_numpy()[keep],
                             "hamming": ham[keep].astype("int64")})

    # every copy of a pair carries the same two simhashes, so a distinct
    # over (left_id, right_id, hamming) leaves one row per pair
    out = _distinct_keyed_pairs(
        docs_ds.map_batches(_keys, batch_format="pandas", **_shuffle_args()), id_col,
        "band_key", max_band_width, "simhash", _near, ["left_id", "right_id", "hamming"])
    return _typed_or_empty(out, [("left_id", pa.int64()), ("right_id", pa.int64()),
                                 ("hamming", pa.int64())])


def embedding_near_dup_pairs(emb_ds, id_col: str = "vec_id", vec_col: str = "embedding",
                             cosine_threshold: float = 0.95, num_bands: int = 6,
                             planes_per_band: int = 6, seed: int = 42,
                             max_band_width: int = 4000, verify: str = "broadcast",
                             checkpoint_dir: str | None = None,
                             fingerprint: str = ""):
    """Near-dup pairs by embedding cosine.

    OR-amplified random-hyperplane LSH: ``num_bands`` INDEPENDENT
    hyperplane bands of ``planes_per_band`` sign bits each — a pair at
    cosine c collides in at least one band with probability
    1-(1-(1-acos(c)/pi)^planes)^bands (~0.99 at the 0.95/6x6 defaults;
    the old single 12-plane bucketing missed ~72% of 0.95-pairs).
    Bucket rows carry (bucket, id) only.

    **Sizing bands for corpus scale** (the same knob as minhash r and
    simhash num_blocks): a RANDOM pair collides in one band with
    probability ~0.5^planes, so background candidates are
    ~num_bands * 0.5^planes * n^2/2 — that rate must stay below ~1/n
    or the candidate set (and the verify join that ships vectors onto
    it) grows quadratically. The 6x6 default suits small corpora; at
    1M vectors even 16x18 measured ~30M background candidates (982 s
    wall, join verify). Use ~24x24 there: background ~24*6e-8/pair,
    planted cosine-0.98 detection 1-(1-0.9362^24)^24 ~ 0.996 —
    measured 146 s, recall 0.993/1.0 (BASELINE §c8,
    tools/bench_bigdocs.py reproduces).

    Exact cosine verification:
    ``verify="broadcast"`` (default) maps the id pairs against a
    broadcast Arrow embedding table (per-worker zero-copy, same pattern
    as the scoring stage — assumes the table fits the object store);
    ``verify="join"`` is the 100-TB path: vectors are packed to bytes
    (raw float64 — bytes survive pandas merges where list columns
    don't) and hash-joined onto the pairs, so the embedding table moves
    at most twice and nothing broadcasts. Both paths produce identical
    pairs (equivalence-tested)."""
    import ray

    def _buckets(batch: pd.DataFrame) -> pd.DataFrame:
        from ..functions.minhash import _splitmix64

        mat = np.array(batch[vec_col].tolist(), dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] == 0:
            return pd.DataFrame({"band_key": pd.Series(dtype="int64"),
                                 id_col: pd.Series(dtype="int64")})
        planes = np.random.RandomState(seed).randn(
            mat.shape[1], num_bands * planes_per_band)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        bits = ((mat / norms) @ planes) > 0
        n = mat.shape[0]
        ids_np = batch[id_col].to_numpy()
        key_cols, id_cols = [], []
        for b in range(num_bands):
            band_bits = bits[:, b * planes_per_band : (b + 1) * planes_per_band]
            words = (band_bits @ (1 << np.arange(planes_per_band))
                     ).astype(np.uint64)
            # int64 keys, band index mixed in (see simhash _keys note:
            # mixer collisions only add candidates, verify is exact)
            key_cols.append(_splitmix64(
                words ^ _splitmix64(np.full(n, np.uint64(b),
                                            dtype=np.uint64))).view(np.int64))
            id_cols.append(ids_np)
        return pd.DataFrame({"band_key": np.concatenate(key_cols),
                             id_col: np.concatenate(id_cols)})

    emb_fields = [("left_id", pa.int64()), ("right_id", pa.int64()),
                  ("cosine", pa.float64())]
    ckfp = ""
    if checkpoint_dir:
        from ..state import manifest as mf

        ckfp = mf.fingerprint_inputs(
            "embedding_near_dup_pairs/v1", fingerprint, id_col, vec_col,
            float(cosine_threshold), num_bands, planes_per_band, seed,
            max_band_width, verify)
        done = _ckpt_done(checkpoint_dir, "embdup_pairs", ckfp)
        if done is not None:
            return _typed_or_empty(done, emb_fields)

    cand, _ = _ckpt_stage(
        checkpoint_dir, "embdup_candidates", ckfp,
        lambda: candidate_pairs_from_keys(
            emb_ds.map_batches(_buckets, batch_format="pandas"), id_col,
            max_band_width=max_band_width, op_name="embedding_lsh"))

    def _cos_filter(cos: np.ndarray) -> np.ndarray:
        # round half-away FIRST and filter on the ROUNDED value — the
        # SQL oracle does round(...) then WHERE, and np.round's
        # half-to-even diverges from SQL round at decimal boundaries
        return np.sign(cos) * np.floor(np.abs(cos) * 1e6 + 0.5) / 1e6

    if verify == "join":
        def _pack(b: pd.DataFrame) -> pd.DataFrame:
            vecs = []
            for v in b[vec_col]:
                a = np.asarray(v, dtype=np.float64)
                n = np.linalg.norm(a)
                vecs.append((a / n if n > 0 else a).tobytes())
            return pd.DataFrame({id_col: b[id_col], "vec_bytes": vecs})

        packed = emb_ds.map_batches(_pack, batch_format="pandas")
        cand = cand.materialize()
        if cand.count() == 0:
            return pa.table({"left_id": pa.array([], pa.int64()),
                             "right_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())}).to_pandas()
        joined = _attach_payload(cand, packed, id_col, "vec_bytes")

        def _verify_join(b: pd.DataFrame) -> pd.DataFrame:
            if b.empty:
                return pd.DataFrame({"left_id": pd.Series(dtype="int64"),
                                     "right_id": pd.Series(dtype="int64"),
                                     "cosine": pd.Series(dtype="float64")})
            lm = np.vstack([np.frombuffer(x, dtype=np.float64) for x in b["__p_left_id"]])
            rm = np.vstack([np.frombuffer(x, dtype=np.float64) for x in b["__p_right_id"]])
            cos_r = _cos_filter(np.einsum("ij,ij->i", lm, rm))
            keep = cos_r >= cosine_threshold
            return pd.DataFrame({"left_id": b["left_id"].to_numpy()[keep],
                                 "right_id": b["right_id"].to_numpy()[keep],
                                 "cosine": cos_r[keep]})

        out = joined.map_batches(_verify_join, batch_format="pandas",
                                 **_shuffle_args())
        out, _ = _ckpt_stage(checkpoint_dir, "embdup_pairs", ckfp,
                             lambda: out)
        return _typed_or_empty(out, emb_fields)

    # broadcast the embedding table once (Arrow in plasma, zero-copy)
    tbl = pa.concat_tables(
        [b.select([id_col, vec_col])
         for b in emb_ds.iter_batches(batch_size=65536, batch_format="pyarrow")]
    ).combine_chunks()
    tbl_ref = ray.put(tbl)
    _cache: dict = {}

    def _verify(b: pd.DataFrame) -> pd.DataFrame:
        if "tbl" not in _cache:
            t = ray.get(tbl_ref)
            mat = np.array(t[vec_col].to_pylist(), dtype=np.float64)
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            _cache["mat"] = mat / norms
            _cache["idx"] = {v: i for i, v in enumerate(t[id_col].to_pylist())}
            _cache["tbl"] = True
        mat, idx = _cache["mat"], _cache["idx"]
        li = np.array([idx.get(v, -1) for v in b["left_id"]])
        ri = np.array([idx.get(v, -1) for v in b["right_id"]])
        ok = (li >= 0) & (ri >= 0)
        if not ok.any():
            return pd.DataFrame({"left_id": pd.Series(dtype=b["left_id"].dtype),
                                 "right_id": pd.Series(dtype=b["right_id"].dtype),
                                 "cosine": pd.Series(dtype="float64")})
        cos_r = _cos_filter(np.einsum("ij,ij->i", mat[li[ok]], mat[ri[ok]]))
        keep = cos_r >= cosine_threshold
        return pd.DataFrame({"left_id": b["left_id"].to_numpy()[ok][keep],
                             "right_id": b["right_id"].to_numpy()[ok][keep],
                             "cosine": cos_r[keep]})

    out = cand.map_batches(_verify, batch_format="pandas",
                           **_shuffle_args())
    out, _ = _ckpt_stage(checkpoint_dir, "embdup_pairs", ckfp, lambda: out)
    return _typed_or_empty(out, emb_fields)


def canonical_keep_latest(pages_ds, url_col: str = "url", ts_col: str = "warc_ts"):
    """Canonical-URL keep-latest-crawl dedup — the standard first pass
    over a multi-snapshot web crawl: group crawl records by
    :func:`..functions.urlkeys.canonical_url` and keep, per canonical
    key, the most recent fetch (max ``ts_col``; ties break on min raw
    URL) plus the total crawl count.

    Scale shape mirrors :func:`exact_dedup`: the per-batch combiner
    collapses each batch to <=1 row per canonical key, so the ONE
    coarse-bucketed shuffle moves (canonical_url, url, ts, count)
    partials — never page payloads. Rows whose canonical key is ''
    (non-URL garbage) are dropped.

    Returns (canonical_url, url, warc_ts, n_crawls).
    """
    from ..functions.urlkeys import canonical_url

    cols = ["canonical_url", url_col, ts_col, "n_crawls"]

    def _local(x: pd.DataFrame) -> pd.DataFrame:
        if x.empty:
            return x[cols]  # typed empty: columns inherit b's dtypes
        s = x.sort_values(["canonical_url", ts_col, url_col],
                          ascending=[True, False, True], kind="mergesort")
        g = s.groupby("canonical_url", sort=False)
        top = g.head(1).copy()
        top["n_crawls"] = g["n_crawls"].sum().to_numpy()
        return top[cols]

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        x = pd.DataFrame({"canonical_url": b[url_col].map(canonical_url).astype(object),
                          url_col: b[url_col],
                          ts_col: b[ts_col],
                          "n_crawls": pd.Series(1, index=b.index, dtype="int64")})
        return _local(x[x["canonical_url"] != ""])

    partials = pages_ds.map_batches(_partial, batch_format="pandas")
    return bucketed_map_groups(partials, "canonical_url", _local)


def delta_new_docs(new_ds, corpus_ds, id_col: str = "doc_id",
                   text_col: str = "text"):
    """Incremental-ingest dedup (the daily-crawl merge): which ARRIVING
    documents carry content the existing corpus has never seen. Both
    sides are reduced to md5 content hashes inside map_batches; the
    corpus side collapses to DISTINCT hashes (combiner + one bucketed
    reduce) tagged with a marker; one big-big LEFT bucket_join keys the
    arrival hashes against the markers and keeps the NULL-marker rows —
    an anti join that ships only (hash, id) through the shuffle, never
    document payloads. (A Bloom pre-filter would *drop* genuinely new
    docs on false positives, so the anti side must be exact.)
    Returns (id, content_hash) of the new-content arrivals."""
    import numpy as np

    from .relational import bucket_join, distinct

    def _hash(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {id_col: batch[id_col],
             "content_hash": batch[text_col].fillna("").map(
                 lambda t: hashlib.md5(t.encode("utf-8")).hexdigest())})

    new_h = new_ds.map_batches(_hash, batch_format="pandas")
    seen = distinct(
        corpus_ds.map_batches(
            lambda b: _hash(b)[["content_hash"]], batch_format="pandas"),
        "content_hash").map_batches(
        lambda b: b.assign(__seen=np.int8(1)), batch_format="pandas")
    joined = bucket_join(new_h, seen, on="content_hash", how="left")
    out = joined.map_batches(
        lambda b: b.loc[b["__seen"].isna(), [id_col, "content_hash"]],
        batch_format="pandas")
    return _typed_or_empty(out, [(id_col, pa.int64()),
                                 ("content_hash", pa.string())])


_POP16: np.ndarray | None = None


def _pop16() -> np.ndarray:
    """16-bit popcount lookup table (64 KiB, built once per process)."""
    global _POP16
    if _POP16 is None:
        _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)],
                          dtype=np.uint8)
    return _POP16


def _popcnt_mat(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 matrix via four 16-bit LUT
    gathers (np.take with int32 indices — the fast gather on this
    numpy build, see working notes)."""
    L = _pop16()
    s16, s32, s48 = np.uint64(16), np.uint64(32), np.uint64(48)
    m16 = np.uint64(0xFFFF)
    out = np.take(L, (x & m16).astype(np.int32)).astype(np.int32)
    out += np.take(L, ((x >> s16) & m16).astype(np.int32))
    out += np.take(L, ((x >> s32) & m16).astype(np.int32))
    out += np.take(L, ((x >> s48) & m16).astype(np.int32))
    return out


def _setsim_dense_small_vocab(docs_ds, id_col, text_col, tok_list, bit_of,
                              thr, jac_round, out_fields, max_masks):
    """Exact-set-collapse fast path for small-vocab corpora (vocab <=
    64): docs with IDENTICAL token sets are one uint64 mask, so the
    self-join collapses to all-pairs over the DISTINCT masks (popcount
    Jaccard, vectorized) followed by a group cross-product expansion.
    Every doc pair lives in exactly ONE mask pair — no candidate
    dedup shuffle exists at all (the prefix path's dominant cost: the
    sf0.1 corpus emits 11.3M distinct candidates for 965k true pairs).

    Scale gate: all-pairs over masks is O(m^2) popcounts — quadratic in
    DISTINCT SETS, not docs. Returns None when m > ``max_masks``
    (default 65536 -> <= 4.3e9 popcount cells, seconds across a node)
    and the caller falls back to prefix filtering; the one grouping
    pass wasted on the probe is linear and cheap. Output is bit-equal
    to the prefix path (same jaccard expression, equivalence-tested).

    Shuffle budget: ONE bucketed (id, mask) exchange (16 B/row) to
    group ids per mask; the m-row group table is the only broadcast
    (ids only, never text); mask-pair compare and expansion stream."""
    import ray
    import ray.data as rd

    def _mask_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids, ms = [], []
        for i, t in zip(b[id_col], b[text_col].fillna("")):
            m = 0
            for w in tok_list(t):
                m |= 1 << bit_of[w]
            if m:  # token-less docs never pair (prefix-path parity)
                ids.append(i)
                ms.append(m)
        return pd.DataFrame({id_col: pd.Series(ids, dtype="int64"),
                             "mask": pd.Series(ms, dtype="uint64")})

    def _grp(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(["mask", id_col], kind="mergesort")
        g = b.groupby("mask", sort=False)[id_col]
        out = g.agg(n="size",
                    ids=lambda s: "\x1f".join(map(str, s))).reset_index()
        return out.astype({"n": "int64"})

    groups = bucketed_map_groups(
        docs_ds.map_batches(_mask_rows, batch_format="pandas"), "mask",
        _grp).materialize()
    m = groups.count()
    if m == 0:
        return pa.table({n: pa.array([], t) for n, t in out_fields}).to_pandas()
    if m > max_masks:
        logger.warning(
            "setsim_dense: %d distinct masks > %d cap — falling back to "
            "prefix filtering", m, max_masks)
        return None

    import pyarrow.compute as pc

    gt = pa.concat_tables(
        [b for b in groups.iter_batches(batch_size=65536,
                                        batch_format="pyarrow")]
    ).combine_chunks()
    gt = gt.take(pc.sort_indices(gt, sort_keys=[("mask", "ascending")]))
    gt_ref = ray.put(gt)

    # compare stage: row-range shards vs the broadcast mask vector,
    # j-chunked so the widest temp is (R x JC) int32 (~32 MB)
    R, JC = 256, 16384
    los = np.arange(0, m, R, dtype="int64")
    blocks = rd.from_arrow(pa.table({
        "lo": los, "hi": np.minimum(los + R, m)})).repartition(
        min(len(los), cluster_cpus()), shuffle=False)
    _cst: dict = {}

    def _gt() -> pa.Table:
        if "t" not in _cst:
            _cst["t"] = ray.get(gt_ref)
        return _cst["t"]

    def _cmp(b: pd.DataFrame) -> pd.DataFrame:
        t = _gt()
        ma = t["mask"].to_numpy()
        ns = t["n"].to_numpy()
        gi_out, gj_out, jac_out = [], [], []
        for lo, hi in zip(b["lo"], b["hi"]):
            sub = ma[lo:hi]
            for jlo in range(int(lo), len(ma), JC):
                jm = ma[jlo:jlo + JC]
                inter = _popcnt_mat(sub[:, None] & jm[None, :]).astype(
                    "float64")
                union = _popcnt_mat(sub[:, None] | jm[None, :]).astype(
                    "float64")
                jac = np.where(union == 0, 1.0,
                               inter / np.maximum(union, 1.0))
                gi = np.arange(lo, hi, dtype="int64")[:, None]
                gj = np.arange(jlo, jlo + len(jm), dtype="int64")[None, :]
                keep = (gj > gi) & (jac >= thr)
                kk = np.nonzero(keep)
                gi_out.append((kk[0] + lo).astype("int64"))
                gj_out.append((kk[1] + jlo).astype("int64"))
                jac_out.append(jac[keep])
            # diagonal: identical-set groups pair internally at jac 1.0
            dn = np.arange(int(lo), int(hi), dtype="int64")
            dn = dn[ns[int(lo):int(hi)] >= 2]
            if 1.0 >= thr and len(dn):
                gi_out.append(dn)
                gj_out.append(dn)
                jac_out.append(np.ones(len(dn)))
        if not gi_out:
            return pd.DataFrame({"gi": pd.Series(dtype="int64"),
                                 "gj": pd.Series(dtype="int64"),
                                 "jac": pd.Series(dtype="float64")})
        return pd.DataFrame({"gi": np.concatenate(gi_out),
                             "gj": np.concatenate(gj_out),
                             "jac": np.concatenate(jac_out)})

    _est: dict = {}

    def _expand(b: pd.DataFrame) -> pd.DataFrame:
        if "arrs" not in _est:
            t = _gt()
            _est["arrs"] = [np.array(s.split("\x1f"), dtype="int64")
                            for s in t["ids"].to_pylist()]
            _est["first"] = np.array([a[0] for a in _est["arrs"]],
                                     dtype="int64")
            _est["ns"] = t["n"].to_numpy()
        arrs, first, ns = _est["arrs"], _est["first"], _est["ns"]
        gi = b["gi"].to_numpy()
        gj = b["gj"].to_numpy()
        jac = b["jac"].to_numpy()
        # fast path: both groups singleton (the common case — most
        # distinct sets have one doc) is fully vectorized
        single = (np.take(ns, gi) == 1) & (np.take(ns, gj) == 1)
        li = np.take(first, gi[single])
        ri = np.take(first, gj[single])
        L = [np.minimum(li, ri)]
        Rr = [np.maximum(li, ri)]
        J = [jac[single]]
        for i, j, jv in zip(gi[~single], gj[~single], jac[~single]):
            a = arrs[i]
            if i == j:
                iu, ju = np.triu_indices(len(a), 1)
                l, r = np.take(a, iu), np.take(a, ju)  # a asc -> l < r
            else:
                bb = arrs[j]
                l = np.repeat(a, len(bb))
                r = np.tile(bb, len(a))
                l, r = np.minimum(l, r), np.maximum(l, r)
            L.append(l)
            Rr.append(r)
            J.append(np.full(len(l), jv))
        return pd.DataFrame({"left_id": np.concatenate(L),
                             "right_id": np.concatenate(Rr),
                             "jaccard": jac_round(np.concatenate(J))})

    out = blocks.map_batches(_cmp, batch_format="pandas").map_batches(
        _expand, batch_format="pandas")
    return _typed_or_empty(out, out_fields)


def setsim_prefix_pairs(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                        jaccard_threshold: float = 0.7,
                        max_key_width: int | None = None,
                        verify: str = "broadcast",
                        dense_max_masks: int = 65536,
                        max_candidate_pairs: int | None = 200_000_000):
    """EXACT token-set similarity self-join via prefix filtering — the
    AllPairs/PPJoin family (Bayardo et al., WWW'07; Xiao et al.,
    WWW'08; both public), the scalable *exact* alternative to the
    quadratic :func:`ngram_jaccard_pairs` baseline and the approximate
    MinHash path.

    Filter principle: order every document's distinct tokens by ONE
    global total order (document frequency ascending, token
    lexicographic tie-break — the order that makes prefixes rare), and
    index only each document's first ``|T| - ceil(t*|T|) + 1`` tokens.
    Any pair with token-Jaccard >= t must share at least one token
    inside BOTH prefixes (|x∩y| >= t*|x| since union >= |x|), so
    candidate generation over prefix tokens has NO false negatives —
    the emitted pair set equals the full quadratic join's, verified
    bit-for-bit by the driver oracle's all-pairs SQL recompute.

    Scale shape (same discipline as the LSH ops):
    - token df table is a combiner + bucketed reduce (O(vocab) rows),
      broadcast ONCE as an Arrow table; workers build the token->rank
      dict once each (plasma zero-copy per the repo's broadcast rule);
    - the candidate shuffle carries (int64 token rank, id) ONLY —
      rarest-first ordering keeps prefix-token buckets naturally small;
    - two verify modes (same split as :func:`minhash_lsh_pairs`,
      identical outputs, equivalence-tested):
      ``verify="broadcast"`` (default) puts the corpus text table in
      the object store ONCE and verifies candidate batches against a
      per-worker zero-copy view; ``verify="join"`` is the no-broadcast
      path for corpora larger than the object store — texts are
      hash-joined onto the (far fewer) surviving candidates via
      bucket_join, moving the corpus at most twice.

    ``max_key_width=None`` (default) preserves the exactness guarantee;
    a cap makes the op approximate for pathological hot tokens (drops
    logged — the no-silent-caps rule)."""
    import math

    import ray

    from .relational import pre_aggregated
    from .similarity_search import _round_half_away
    from .text import _TFIDF_TOKEN_RE

    out_fields = [("left_id", pa.int64()), ("right_id", pa.int64()),
                  ("jaccard", pa.float64())]

    def _tok_list(t: str) -> list:
        # ASCII alnum runs, lowered after extraction (engine-identical
        # lowering; same tokenization as ops.text TF-IDF so the SQL
        # oracle reuses the proven regexp_extract_all form)
        return sorted({w.lower() for w in _TFIDF_TOKEN_RE.findall(t or "")})

    def _doc_tokens(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[text_col].fillna("").map(_tok_list)
        out = pd.DataFrame({id_col: batch[id_col].repeat(toks.str.len()),
                            "token": [w for ws in toks for w in ws]})
        if out.empty:
            return pd.DataFrame({id_col: pd.Series(dtype=batch[id_col].dtype),
                                 "token": pd.Series(dtype=object)})
        return out

    tok_rows = docs_ds.map_batches(_doc_tokens, batch_format="pandas")
    dfs = pre_aggregated(tok_rows, "token", counts=True).to_pandas()
    if dfs.empty:
        return pa.table({n: pa.array([], t) for n, t in out_fields}).to_pandas()
    # global total order: df ascending, token ascending — ranks are the
    # shuffle key (int64, not the token string)
    dfs = dfs.sort_values(["n", "token"], kind="mergesort").reset_index(drop=True)
    rank_tbl = pa.table({"token": pa.array(dfs["token"], pa.string()),
                         "rank": pa.array(np.arange(len(dfs)), pa.int64())})
    rank_ref = ray.put(rank_tbl)
    _rk: dict = {}

    def _rank_map() -> dict:
        if "m" not in _rk:
            t = ray.get(rank_ref)
            _rk["m"] = dict(zip(t["token"].to_pylist(), t["rank"].to_pylist()))
        return _rk["m"]

    thr = float(jaccard_threshold)

    def _jac_round(jac):
        # same value as _round_half_away(s, 6), vectorized (jac >= 0)
        return np.floor(np.asarray(jac, dtype="float64") * 1e6 + 0.5) / 1e6

    # vocab <= 64: exact-set-collapse fast path — all-pairs popcount
    # over DISTINCT masks + group expansion; no candidate shuffle at
    # all (see _setsim_dense_small_vocab; falls through to prefix
    # filtering when the distinct-mask count exceeds the gate)
    if len(dfs) <= 64 and dense_max_masks:
        dense = _setsim_dense_small_vocab(
            docs_ds, id_col, text_col, _tok_list,
            dict(zip(dfs["token"], range(len(dfs)))), thr, _jac_round,
            out_fields, dense_max_masks)
        if dense is not None:
            return dense

    def _prefix_len(n_tokens: int) -> int:
        # ceil with a safe-side nudge: a float-error UNDER-estimate of
        # ceil(t*n) lengthens the prefix (never shortens it), so the
        # no-false-negative guarantee survives binary floats
        return n_tokens - int(math.ceil(thr * n_tokens - 1e-9)) + 1

    def _prefix_rows(batch: pd.DataFrame) -> pd.DataFrame:
        rmap = _rank_map()
        ids, keys = [], []
        for i, t in zip(batch[id_col], batch[text_col].fillna("")):
            toks = _tok_list(t)
            if not toks:
                continue
            ranks = sorted(rmap[w] for w in toks)
            for r in ranks[: _prefix_len(len(ranks))]:
                ids.append(i)
                keys.append(r)
        return pd.DataFrame({"band_key": pd.Series(keys, dtype="int64"),
                             id_col: pd.Series(ids, dtype="int64")})

    # materialize the (rank, id) prefix rows once (two int64 cols — the
    # same data the candidate shuffle moves) so a CHEAP per-token count
    # reduce can price the pair enumeration BEFORE running it: the exact
    # candidate volume is sum C(c_token, 2). Exact prefix joins need
    # prefix RARITY; on a vocab << corpus regime (e.g. 50k-word vocab
    # at 500k docs) "rare" tokens still sit in hundreds of prefixes
    # and the candidate set measured ~1e9 rows — it ran a 252 GB disk
    # to the raylet's 95% wall instead of finishing. Fail fast with
    # guidance instead.
    prefix = docs_ds.map_batches(
        _prefix_rows, batch_format="pandas", **_shuffle_args()).materialize()
    pc = pre_aggregated(prefix, "band_key", counts=True).to_pandas()
    c = pc["n"].to_numpy(np.float64) if len(pc) else np.zeros(0)
    if max_key_width:
        # price the enumeration that will ACTUALLY run: candidate_pairs_from_
        # keys truncates each bucket to max_key_width (logged drops), so
        # the estimate must clamp per-token counts the same way — else
        # the guard raises (and its own "set max_key_width" guidance
        # does nothing) even when the capped enumeration is affordable
        c = np.minimum(c, float(max_key_width))
    est_pairs = int((c * (c - 1) / 2).sum())
    logger.info("setsim_prefix: %d prefix rows over %d tokens, "
                "estimated %d candidate pairs", int(c.sum()), len(pc),
                est_pairs)
    if max_candidate_pairs is not None and est_pairs > max_candidate_pairs:
        raise ValueError(
            f"setsim_prefix_pairs: estimated {est_pairs} candidate pairs "
            f"exceeds max_candidate_pairs={max_candidate_pairs}. The "
            "prefix filter is not selective on this corpus (vocabulary "
            "too small relative to corpus size, so prefix tokens are "
            "not rare). Use minhash_lsh_pairs (approximate, linear "
            "candidates at a suitable rows-per-band), raise the "
            "jaccard_threshold, or set max_key_width to cap per-token "
            "buckets (logged drops).")
    cand = candidate_pairs_from_keys(
        prefix, id_col,
        max_band_width=max_key_width if max_key_width else 1 << 62,
        op_name="setsim_prefix").materialize()
    if cand.count() == 0:
        return pa.table({n: pa.array([], t) for n, t in out_fields}).to_pandas()

    # vocab <= 64 -> every token SET is one uint64 bitmask and the
    # exact Jaccard is two vectorized popcounts per pair (the synthetic
    # small-vocab corpora that stress this op emit ~1M true pairs, and
    # a per-pair Python set op was the dominant cost); bigger vocabs
    # keep the per-worker set cache
    small_vocab = len(dfs) <= 64

    def _popcount64(x):
        return np.unpackbits(
            np.ascontiguousarray(x).view(np.uint8)).reshape(len(x), 64
                                                            ).sum(axis=1,
                                                                  dtype="int64")

    if verify == "join":
        # no-broadcast scale path: texts ride TWO hash-partitioned
        # bucket_joins onto the surviving candidates only (mirrors
        # minhash_lsh_pairs verify="join"); nothing corpus-sized is
        # ever ray.put on the driver
        joined = _attach_payload(cand, docs_ds.map_batches(
            lambda b: pd.DataFrame({id_col: b[id_col],
                                    text_col: b[text_col].fillna("")}),
            batch_format="pandas"), id_col, text_col)

        def _verify_join(b: pd.DataFrame) -> pd.DataFrame:
            # intern pair texts so each DISTINCT text in the batch
            # tokenizes once (a doc appears in many candidate pairs);
            # factorize_exact keeps texts differing only after an
            # embedded NUL distinct (pd.factorize merges them)
            texts = pd.concat([b["__p_left_id"], b["__p_right_id"]],
                              ignore_index=True)
            codes, uniq = factorize_exact(
                texts.tolist(),
                has_nul=bool(texts.str.contains("\x00", regex=False).any()))
            n = len(b)
            cl, cr = codes[:n], codes[n:]
            if small_vocab:
                rmap = _rank_map()
                masks = np.zeros(len(uniq), dtype=np.uint64)
                for i, x in enumerate(uniq):
                    m = 0
                    for w in _tok_list(x or ""):
                        m |= 1 << rmap[w]
                    masks[i] = m
                ml, mr = masks[cl], masks[cr]
                inter = _popcount64(ml & mr).astype("float64")
                union = _popcount64(ml | mr).astype("float64")
                jac = np.where(union == 0, 1.0, inter / np.maximum(union, 1.0))
            else:
                sets = [_TOKSET_CACHE.get_or_build(
                    x or "", lambda x=x: set(_tok_list(x or "")),
                    cost=len(x or "") * 60) for x in uniq]
                jac = np.array([set_jaccard(sets[l], sets[r])
                                for l, r in zip(cl, cr)], dtype="float64")
            out = pd.DataFrame({"left_id": b["left_id"],
                                "right_id": b["right_id"],
                                "jaccard": _jac_round(jac)})
            return out[jac >= thr]

        out = joined.map_batches(_verify_join, batch_format="pandas",
                                 **_shuffle_args())
        return _typed_or_empty(out, out_fields)

    corpus = pa.concat_tables(
        [b.select([id_col, text_col])
         for b in docs_ds.iter_batches(batch_size=65536, batch_format="pyarrow")]
    ).combine_chunks()
    corpus_ref = ray.put(corpus)
    _vs: dict = {}

    def _verify(b: pd.DataFrame) -> pd.DataFrame:
        if "idx" not in _vs:
            t = ray.get(corpus_ref)
            texts = (v if v is not None else ""
                     for v in t[text_col].to_pylist())
            if small_vocab:
                rmap = _rank_map()
                masks = np.zeros(len(t), dtype=np.uint64)
                for i, x in enumerate(texts):
                    m = 0
                    for w in _tok_list(x):
                        m |= 1 << rmap[w]
                    masks[i] = m
                _vs["masks"] = masks
            else:
                _vs["sets"] = [set(_tok_list(x)) for x in texts]
            _vs["idx"] = pd.Index(t[id_col].to_pylist())
        idx = _vs["idx"]
        if small_vocab:
            li = idx.get_indexer(b["left_id"].to_numpy())
            ri = idx.get_indexer(b["right_id"].to_numpy())
            ml, mr = _vs["masks"][li], _vs["masks"][ri]
            inter = _popcount64(ml & mr).astype("float64")
            union = _popcount64(ml | mr).astype("float64")
            # both-empty sets: set_jaccard defines 1.0
            jac = np.where(union == 0, 1.0, inter / np.maximum(union, 1.0))
            jr = np.sign(jac) * np.floor(np.abs(jac) * 1e6 + 0.5) / 1e6
            out = pd.DataFrame({"left_id": b["left_id"],
                                "right_id": b["right_id"], "jaccard": jr})
            return out[jac >= thr]
        sets = _vs["sets"]
        li = idx.get_indexer(b["left_id"].to_numpy())
        ri = idx.get_indexer(b["right_id"].to_numpy())
        jac = [set_jaccard(sets[l], sets[r]) for l, r in zip(li, ri)]
        out = pd.DataFrame({"left_id": b["left_id"], "right_id": b["right_id"],
                            "jaccard": [_round_half_away(s, 6) for s in jac]})
        return out[pd.Series(jac, index=b.index) >= thr]

    out = cand.map_batches(_verify, batch_format="pandas",
                           **_shuffle_args())
    return _typed_or_empty(out, out_fields)


def _blocked_self_join(ds, key_cols, text_col: str, id_col: str,
                       keep_empty: bool, score, out_field):
    """The shape of the blocked string self-joins: one coarse bucketed
    shuffle of (key, id, text) rows — the caller prunes columns at the
    read; all rows of a key co-locate in ONE bucket (bucketed_map_groups)
    — whose same-key row pairs are enumerated on one integer code of the
    key columns (functions.pairs, NUL-exact, no Python call per key) and
    handed to ``score(text, i, j)``, which returns the pairs it keeps and
    their values. A row with a null key pairs with none, as pandas'
    groupby drops null keys. Output: (left_id, right_id, value),
    left_id < right_id, with ``out_field`` naming and typing the value."""
    from .relational import bucketed_map_groups

    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def _project(b: pd.DataFrame) -> pd.DataFrame:
        out = b[key_cols + [id_col, text_col]].copy()
        out[text_col] = out[text_col].fillna("")
        return out if keep_empty else out[out[text_col].str.len() > 0]

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        code, valid = np.zeros(len(g), np.int64), np.ones(len(g), bool)
        for col in key_cols:
            kc = ranked_codes(g[col].to_numpy())[0]
            valid &= kc >= 0
            code = np.unique(code * (len(g) + 1) + kc, return_inverse=True)[1]
        rows = np.flatnonzero(valid)
        rows = rows[np.argsort(code[rows], kind="stable")]
        i, j = group_pairs(code[rows])
        i, j, value = score(g[text_col], rows[i], rows[j])
        li, ri = g[id_col].to_numpy(dtype="int64")[i], g[id_col].to_numpy(dtype="int64")[j]
        return pd.DataFrame({"left_id": np.minimum(li, ri), "right_id": np.maximum(li, ri),
                             out_field[0]: value})

    out = bucketed_map_groups(ds.map_batches(_project, batch_format="pandas"),
                              key_cols, _pairs)
    return _typed_or_empty(out, [("left_id", pa.int64()), ("right_id", pa.int64()), out_field])


def edit_distance_self_join(ds, key_cols, text_col: str, id_col: str,
                            max_dist: int = 3):
    """Blocked Levenshtein similarity self-join: every pair of records
    that shares the blocking key(s) and has edit distance <= max_dist
    on ``text_col``. The ER string-join staple the reference's
    DOI/host blocking sidesteps (its fuzzy compare is InDel-only,
    `check..._openalex.py:163`); public design: Gravano et al. 2001
    (length + blocking pre-filters never drop a true pair).

    Scale shape (:func:`_blocked_self_join`): each bucket's same-key
    pairs are pre-filtered by the length lower bound
    ``|len(a)-len(b)| <= max_dist`` (numpy, no kernel calls), and the
    surviving candidates run through the Myers bit-parallel bulk
    kernel (functions.similarity.levenshtein_bulk — bit-exact with the
    scalar DP, property-tested). Heavily-skewed blocking keys should be
    refined upstream, same discipline as stages.block; pair volume per
    key is O(k^2) BY DEFINITION of the operator, so key choice is the
    scale lever. Output: (left_id, right_id, dist), left_id < right_id.
    """
    from ..functions.similarity import levenshtein_bulk

    def _dist(text: pd.Series, i: np.ndarray, j: np.ndarray):
        lens = text.str.len().to_numpy(dtype="int64")
        near = np.abs(lens[i] - lens[j]) <= max_dist
        i, j, texts = i[near], j[near], text.to_numpy()
        d = np.asarray(levenshtein_bulk(list(zip(texts[i], texts[j]))), dtype="int64")
        hit = d <= max_dist
        return i[hit], j[hit], d[hit]

    return _blocked_self_join(ds, key_cols, text_col, id_col, True, _dist,
                              ("dist", pa.int64()))


def semantic_dedup(emb_ds, centroids, threshold: float = 0.95,
                   id_col: str = "vec_id", vec_col: str = "embedding",
                   ndigits: int = 4):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    public): coarse-cluster the embedding space, then drop any vector
    whose rounded cosine similarity to a LOWER-ID vector in the same
    cluster reaches ``threshold``. The lower-id rule (not chain-greedy)
    is deterministic and recursion-free, so a SQL EXISTS reproduces it
    verbatim; at high thresholds the two rules rarely differ.

    Scale shape: assignment is a stateless per-batch pass against the
    broadcast centroid matrix (same rounded-dist2 rank rule as
    clustering.kmeans_assign, so an oracle re-derives it from persisted
    centroids); ONE keyed shuffle moves (cluster, id, packed float64
    bytes) — list columns don't survive pandas shuffles, so vectors
    ride as fixed-width binary — and each cluster computes one
    normalized gram matrix. Per-cluster pair volume is (n/k)^2: k is
    the scale lever, exactly as in the public SemDeDup recipe (they use
    k ~ n/1000). Cosines are rounded half-away at ``ndigits`` BEFORE
    the threshold compare on both engines."""
    import ray

    from .clustering import _dist2_sequential, _mat
    from .relational import bucketed_map_groups

    cent = np.asarray(centroids, dtype=np.float64)
    cent_ref = ray.put(cent)
    scale = 10.0 ** ndigits

    def _assign_pack(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              "cluster": pd.Series(dtype="int64"),
                              "packed": pd.Series(dtype=object)})
        if b.empty:
            return empty
        c = ray.get(cent_ref)
        x = _mat(b[vec_col])
        d2 = _dist2_sequential(x, c)
        d2r = np.floor(d2 * 1e6 + 0.5) / 1e6
        lab = np.argmin(d2r, axis=1)
        return pd.DataFrame({
            id_col: b[id_col].astype("int64").to_numpy(),
            "cluster": lab.astype("int64"),
            "packed": [row.tobytes() for row in x]})

    assigned = emb_ds.map_batches(_assign_pack, batch_format="pandas")

    def _per_cluster(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for cl, grp in g.groupby("cluster", sort=False):
            ids = grp[id_col].to_numpy(dtype="int64")
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            raw = grp["packed"].to_numpy()[order]
            mat = np.frombuffer(b"".join(raw), dtype=np.float64).reshape(
                len(ids), -1)
            # DuckDB list_cosine_similarity's exact expression tree:
            # sequential-order dot products (dimension-by-dimension
            # accumulation, NOT numpy pairwise summation), then
            # dot/(sqrt(aa)*sqrt(bb)) — empirically bit-identical to
            # DuckDB on 400/400 random double vectors, vs 268/400 for
            # dot/sqrt(aa*bb) and 93/400 for pairwise-summed dots.
            dots = np.zeros((len(ids), len(ids)), dtype=np.float64)
            self_dots = np.zeros(len(ids), dtype=np.float64)
            for j in range(mat.shape[1]):
                col = mat[:, j]
                dots += col[:, None] * col[None, :]
                self_dots += col * col
            norms = np.sqrt(self_dots)
            norms[norms == 0] = 1.0
            sims = dots / (norms[:, None] * norms[None, :])
            simsr = np.sign(sims) * np.floor(np.abs(sims) * scale + 0.5) / scale
            dup_of_earlier = np.tril(simsr >= threshold, k=-1).any(axis=1)
            frames.append(pd.DataFrame({
                id_col: ids, "cluster": np.full(len(ids), cl, dtype="int64"),
                "is_kept": ~dup_of_earlier}))
        if not frames:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "cluster": pd.Series(dtype="int64"),
                                 "is_kept": pd.Series(dtype=bool)})
        return pd.concat(frames, ignore_index=True)

    out = bucketed_map_groups(assigned, "cluster", _per_cluster)
    return _typed_or_empty(out, [(id_col, pa.int64()),
                                 ("cluster", pa.int64()),
                                 ("is_kept", pa.bool_())])


def jw_self_join(ds, key_cols, text_col: str, id_col: str,
                 threshold: float = 0.88):
    """Blocked Jaro-Winkler similarity self-join: pairs sharing the
    blocking key(s) with JW similarity >= threshold on ``text_col``.
    The from-scratch kernel (functions.similarity.jaro_winkler) is
    bit-identical to DuckDB's jaro_winkler_similarity on non-empty
    ASCII strings (2000-pair fuzz parity; the ONLY divergence is the
    both-empty convention — we return 1.0, DuckDB 0.0 — so empty texts
    are excluded here), which makes the emitted float scores
    value-hash oracle-able with NO rounding step.

    Scale shape (:func:`_blocked_self_join`): JW admits no sound length
    prefilter, so every in-block pair is scored, but each distinct
    (unordered) text pair in a bucket is scored once, smaller string
    first — blocked corpora draw from a bounded name pool, so that
    collapses most of the quadratic cost."""
    from ..functions.similarity import jaro_winkler

    def _jw(text: pd.Series, i: np.ndarray, j: np.ndarray):
        code, texts = ranked_codes(text.to_numpy())
        n = max(len(code), 1)
        lo, hi = np.minimum(code[i], code[j]), np.maximum(code[i], code[j])
        uniq, at = np.unique(lo * n + hi, return_inverse=True)
        sc = np.fromiter((jaro_winkler(texts[a], texts[b]) for a, b in zip(uniq // n, uniq % n)),
                         dtype="float64", count=len(uniq))[at]
        hit = sc >= threshold
        return i[hit], j[hit], sc[hit]

    return _blocked_self_join(ds, key_cols, text_col, id_col, False, _jw,
                              ("jw", pa.float64()))


def substring_duplicate_windows(docs_ds, id_col: str = "doc_id",
                                text_col: str = "text", window: int = 40,
                                stride: int = 10):
    """Cross-document duplicate-substring detection by hashed stride
    windows (the scalable approximation of exact substring dedup from
    "Deduplicating Training Data Makes Language Models Better", Lee et
    al. 2022 — suffix arrays there, strided fingerprints here): every
    ``window``-char substring starting at character offsets 0, stride,
    2*stride, ... is content-hashed; a window whose hash occurs in >= 2
    distinct documents marks a duplicated span. Returns one row per
    duplicated window: (win_md5, n_docs, n_occurrences).

    Scale shape: the per-batch pass emits (win_md5, doc_id, cnt)
    PARTIALS — each document lives in one row, so per-(window, doc)
    occurrence counts are exact within the batch and the shuffle
    carries 32-char hashes + ids, never text. One coarse-bucketed
    reduce (bucketed_map_groups) merges partials per hash; the >= 2
    distinct-docs filter runs inside the bucket, so singleton windows
    (the overwhelming majority) never leave it. Window extraction is a
    single numpy sliding_window_view over the batch's concatenated
    ASCII buffer (one C gather for all docs); the md5 per surviving
    window is the same C-speed kernel exact_dedup uses.
    """
    def _windows(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[text_col].fillna("")
        ids = batch[id_col].to_numpy()
        lens = texts.str.len().to_numpy(dtype=np.int64)
        keep = lens >= window
        if not keep.any():
            return pd.DataFrame({"win_md5": pd.Series(dtype=object),
                                 id_col: pd.Series(dtype=ids.dtype),
                                 "cnt": pd.Series(dtype="int64")})
        texts, ids, lens = texts[keep], ids[keep], lens[keep]
        blob = "".join(texts)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        n_wins = (lens - window) // stride + 1
        # global char offset of every window (doc-relative offsets are
        # 0, stride, 2*stride, ... so windows never cross doc bounds)
        rel = (np.arange(int(n_wins.sum())) -
               np.repeat(np.cumsum(n_wins) - n_wins, n_wins)) * stride
        offs = np.repeat(starts, n_wins) + rel
        win_doc = np.repeat(ids, n_wins)
        data = blob.encode("utf-8")
        if len(data) == len(blob):  # pure ASCII: bytes == chars
            view = np.lib.stride_tricks.sliding_window_view(
                np.frombuffer(data, dtype=np.uint8), window)
            wins = np.take(view, offs, axis=0).tobytes()
            md5s = [hashlib.md5(wins[i:i + window]).hexdigest()
                    for i in range(0, len(wins), window)]
        else:  # non-ASCII fallback: char-addressed slices (matches
            # SQL substr character semantics)
            md5s = [hashlib.md5(blob[o:o + window].encode("utf-8")).hexdigest()
                    for o in offs]
        part = pd.DataFrame({"win_md5": md5s, id_col: win_doc})
        return part.groupby(["win_md5", id_col], as_index=False,
                            sort=False).agg(cnt=(id_col, "size"))

    def _combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("win_md5", as_index=False, sort=False).agg(
            n_docs=(id_col, "nunique"), n_occurrences=("cnt", "sum"))
        agg = agg[agg["n_docs"] >= 2]
        return agg.astype({"n_docs": "int64", "n_occurrences": "int64"})

    out = bucketed_map_groups(docs_ds.map_batches(_windows, batch_format="pandas"),
                              "win_md5", _combine)
    return _typed_or_empty(out, [("win_md5", pa.string()),
                                 ("n_docs", pa.int64()),
                                 ("n_occurrences", pa.int64())])
