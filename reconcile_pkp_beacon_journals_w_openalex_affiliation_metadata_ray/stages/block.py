"""Stage 2 — BLOCK: records -> candidate pairs.

Blocking keys (north-star inventory):
- ``doi:{doi_norm}``      exact DOI equality (the reference's implicit
                          per-DOI grouping, `check...openalex.py:72-74`)
- ``host:{host_key}``     normalized-hostname equality — the reference's
                          Rust broadcast semi-join key (`main.rs:235-243`)
- ``an:{name}``           exact normalized author-name equality (tiny
                          blocks; catches cross-host light-corruption)
- ``b{i}:{band_hash}``    MinHash-LSH bands (4 bands x 16 rows of a
                          64-perm signature, S-curve threshold ~0.92)
                          over the normalized author name blob — the
                          fuzzy near-identical-set candidates (no
                          reference analog; the scale path)

- ``path:{segment}``      host-invariant OJS URL-path token (the
                          'ISSN-like token' family; links mirrors)

Skew handling (SURVEY.md §4 skew row) is EXPLICIT and two-tier:
host keys are ALWAYS refined by the normalized first-author name
(host equality is the reference's semi-join key, never a sane pair
key on a mega-publisher), and any other key family found hot by a
sampled, shuffle-free counting pass gets the same deterministic
refinement. Refinement — unlike random salting — keeps same-entity
records co-blocked because the attribute is stable under the
corruption model. Oversized blocks after refinement get a
deterministic per-block pair cap with a logged ``dropped_pairs``
count (no silent caps), computed over the VIRTUAL pair-index space so
a million-record block never materializes its cross product.

Pair pruning: in non-DOI blocks, pairs where both records carry a DOI
are skipped — their outcome is already decided by the DOI key family.

Execution shape: key emission is a STATELESS ``map_batches`` task —
its only state (MinHash permutation parameters, the broadcast hot-key
set) is cached per worker process in a module global, so tasks stay
cheap and elastic and never pin CPUs the way a fixed actor pool would.
Pair generation and pair dedup run as coarse bucketed shuffles
(ops.relational.bucketed_map_groups: O(num_buckets) Python calls,
C-level self-merge / groupby-agg inside). All shuffles carry only
(key, record_id, has_doi) — never the heavy record payloads.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.minhash import MinHasher, band_keys

DEFAULT_NUM_PERM = 64
DEFAULT_NUM_BANDS = 4
DEFAULT_HOT_THRESHOLD = 256
DEFAULT_MAX_PAIRS_PER_BLOCK = 20_000


def adaptive_num_buckets(n_records: int, records_per_bucket: int = 1_000,
                         lo: int = 32, hi: int = 4_096) -> int:
    """Bucket count for the pair-gen / pair-dedup shuffles, scaled to
    the record count. The PARALLELISM of a bucketed_map_groups stage —
    and of everything Ray fuses onto its output, which in the flagship
    e2e configuration includes the whole scoring kernel — is bounded
    by the bucket count: groupby().map_groups tasks follow the sort's
    range partitions. A fixed 32 serialized sf1's 120M-candidate
    stream into ~28 tasks of 4M+ pairs each (pair-gen 12.5 min,
    dedup+scoring 11.5 min with a 5-minute single-task tail — BASELINE
    §c15 timeline).

    The count must also be MUCH larger than the wanted parallelism,
    not equal to it: Ray's sort samples quantile boundaries over the
    bucket values, and with only ~hundreds of distinct integers the
    sampled boundaries repeat and partitions COLLAPSE (525 buckets ->
    41 effective scoring partitions at sf1, §c15). records/1k gives
    the sampler ~3k+ distinct values at sf1 so effective parallelism
    is bounded by the input block count instead; at sf0.1 a 52- vs
    210- vs 420-bucket paired A/B is a wash (29.5-34 s, inside host
    noise), so fine buckets cost nothing where 32 was already one
    wave. The floor keeps tiny tiers at the historical 32; the ceiling
    bounds per-bucket Python overhead. Bucket count never changes
    output rows (the bucket key is a pure function of the group key),
    only task granularity."""
    return max(lo, min(hi, int(n_records) // records_per_bucket))

# per-worker-process caches (tasks reuse workers; building the
# MinHasher / fetching the broadcast hot set happens once per worker,
# not once per batch)
_MINHASHER: MinHasher | None = None
_HOT_CACHE: dict = {}


def _get_minhasher(num_perm: int) -> MinHasher:
    global _MINHASHER
    if _MINHASHER is None or _MINHASHER.num_perm != num_perm:
        _MINHASHER = MinHasher(num_perm=num_perm)
    return _MINHASHER


def _get_hot(hot_keys_ref) -> frozenset:
    if hot_keys_ref is None:
        return frozenset()
    key = hot_keys_ref.hex() if hasattr(hot_keys_ref, "hex") else id(hot_keys_ref)
    if key not in _HOT_CACHE:
        import ray

        _HOT_CACHE.clear()
        _HOT_CACHE[key] = ray.get(hot_keys_ref)
    return _HOT_CACHE[key]


def _refine(key: str, hot: frozenset, authors_norm, doi_norm: str) -> str:
    """Hot keys get a secondary attribute appended: the FULL normalized
    first-author name (stable under the light-corruption tier; records
    with heavier corruption are co-blocked via doi/path/LSH keys, so
    deep refinement here costs recall ~nothing while collapsing a
    mega-host block to same-name groups)."""
    if key not in hot:
        return key
    if authors_norm:
        return f"{key}~{authors_norm[0]}"
    if doi_norm:
        return f"{key}~{doi_norm}"
    return f"{key}~_"


def emit_keys_batch(batch: pa.Table, hot_keys_ref=None, num_perm=DEFAULT_NUM_PERM,
                    num_bands=DEFAULT_NUM_BANDS) -> pa.Table:
    mh = _get_minhasher(num_perm)
    hot = _get_hot(hot_keys_ref)
    rids = batch["record_id"].to_pylist()
    dois = batch["doi_norm"].to_pylist()
    hosts = batch["host_key"].to_pylist()
    paths = batch["path_key"].to_pylist()
    blobs = batch["name_blob"].to_pylist()
    authors_norm = batch["authors_norm"].to_pylist()
    # whole-batch vectorized MinHash (one reduceat pass, bit-identical
    # to per-row signature(); empty blobs cost nothing)
    sigs = mh.signatures(blobs)
    keys, out_ids, has_doi = [], [], []

    def emit(k, rid, d):
        keys.append(k)
        out_ids.append(rid)
        has_doi.append(bool(d))

    # first token of the first normalized author name, falling back to
    # the record id for author-less records (so they spread uniformly
    # instead of piling into one "" dedup bucket). Rides every key row
    # so pair generation can form the pair-symmetric name-locality
    # dedup key without a join (see candidate_pairs).
    ftoks = [a[0].split()[0] if a and a[0] else r
             for a, r in zip(authors_norm, rids)]
    ft_map = dict(zip(rids, ftoks))

    for row_i, (rid, doi, host, path, blob, a_norm) in enumerate(
            zip(rids, dois, hosts, paths, blobs, authors_norm)):
        if doi:
            emit("doi:" + doi, rid, doi)
        if path:
            emit("path:" + path, rid, doi)
        if host:
            # host equality alone is the reference's SEMI-JOIN key, not
            # a pair key — for pair generation it is ALWAYS refined by
            # the first author name (else mega-hosts go quadratic)
            suffix = a_norm[0] if a_norm else (doi or "_")
            emit(f"host:{host}~{suffix}", rid, doi)
        # exact normalized author-name keys: cheap, tiny blocks, catch
        # cross-host records whose name normalizes identically (first
        # three authors bound the fanout)
        for name in a_norm[:3]:
            emit(_refine("an:" + name, hot, a_norm, doi), rid, doi)
        if blob:
            for bk in band_keys(sigs[row_i], num_bands):
                emit(_refine(bk, hot, a_norm, doi), rid, doi)
    return pa.table({"block_key": pa.array(keys, pa.string()),
                     "record_id": pa.array(out_ids, pa.string()),
                     "has_doi": pa.array(has_doi, pa.bool_()),
                     "ftok": pa.array([ft_map[r] for r in out_ids],
                                      pa.string())})


def emit_block_keys(records_ds, hot_keys_ref=None):
    return records_ds.map_batches(
        emit_keys_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"hot_keys_ref": hot_keys_ref},
    )


def find_hot_keys(records_ds, threshold=DEFAULT_HOT_THRESHOLD,
                  sample_frac: float = 0.1, sample_min_rows: int = 50_000,
                  driver_merge_rows: int = 500_000):
    """First pass: measure block sizes, return the set of oversized
    keys. No shuffle: each batch emits its per-key value_counts, the
    driver sums the partials (O(distinct keys) rows). Above
    sample_min_rows records the pass runs on a DETERMINISTIC
    content-hash sample (stable pandas row-hash of record_id — the same
    records are sampled at ANY partitioning / parallelism, unlike
    ``random_sample`` whose draw depends on block boundaries, which
    made the hot set — and therefore refined keys and pair counts —
    drift between runs) with the threshold scaled down; hot keys are by
    definition massively over threshold, so sampling detects them
    reliably at a tenth the cost."""
    n = records_ds.count()
    src = records_ds
    eff_threshold = threshold
    if n > sample_min_rows:
        from pandas.util import hash_pandas_object

        cut = int(sample_frac * 10_000)

        def _hash_sample(t: pa.Table) -> pa.Table:
            # pyarrow in/out: records carry list columns, which break
            # pandas->arrow round trips ("numpy type 17")
            keep = (hash_pandas_object(t["record_id"].to_pandas(),
                                       index=False) % 10_000 < cut)
            return t.filter(pa.array(keep.to_numpy()))

        src = records_ds.map_batches(_hash_sample, batch_format="pyarrow",
                                     zero_copy_batch=True)
        eff_threshold = max(8, int(threshold * sample_frac * 0.5))
    keys = emit_block_keys(src)

    def _partial_counts(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["block_key"].value_counts()
        return pd.DataFrame({"block_key": vc.index, "n": vc.values})

    partials_ds = keys.map_batches(_partial_counts, batch_format="pandas")

    if n <= sample_min_rows or n * sample_frac <= driver_merge_rows:
        # bounded key volume (small input, or a sample capped at
        # driver_merge_rows records ≈ 8x that many partial key rows): a
        # driver-side sum of the per-batch partials is cheaper than an
        # AllToAll — this removes the hot-key pre-pass's ONLY shuffle
        # barrier for every tier up to ~5M records (sf1 inclusive),
        # identical hot set either way (same partials, same sum, same
        # threshold)
        partials = partials_ds.to_pandas()
        if partials.empty:
            return frozenset()
        totals = partials.groupby("block_key")["n"].sum()
        return frozenset(totals.index[totals > eff_threshold])

    from ..ops.relational import bucketed_map_groups

    def _sum_counts(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("block_key", as_index=False, sort=False).agg(n=("n", "sum"))

    # large input: reduce + filter DISTRIBUTED, collect only the hot
    # keys — the driver sees O(hot keys) rows, not one per distinct
    # sampled block key
    totals = bucketed_map_groups(partials_ds, "block_key", _sum_counts,
                                 num_buckets=32)
    hot = totals.map_batches(lambda b: b[b["n"] > eff_threshold],
                             batch_format="pandas").to_pandas()
    if hot.empty:
        return frozenset()
    return frozenset(hot["block_key"])


FAMILY_DOI = 1
FAMILY_PATH = 2
FAMILY_HOST = 4
FAMILY_NAME = 8   # an: exact-name and b*: LSH bands


def family_bit(block_key: str) -> int:
    if block_key.startswith("doi:"):
        return FAMILY_DOI
    if block_key.startswith("path:"):
        return FAMILY_PATH
    if block_key.startswith("host:"):
        return FAMILY_HOST
    return FAMILY_NAME


def _triu_unflatten(flat: "np.ndarray", n: int):
    """Flat upper-triangle pair index k (0-based, row-major over i<j)
    -> (i, j). Vectorized."""
    import numpy as np

    # i is the largest row such that offset(i) <= k, where
    # offset(i) = i*n - i*(i+1)/2  (pairs before row i)
    kk = flat.astype(np.float64)
    i = np.floor((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * kk)) / 2).astype(np.int64)
    offset = i * n - (i * (i + 1)) // 2
    # guard against fp rounding at boundaries
    over = offset > flat
    i = i - over.astype(np.int64)
    offset = i * n - (i * (i + 1)) // 2
    j = (flat - offset) + i + 1
    return i, j


def _pairs_for_bucket(df: pd.DataFrame, max_pairs: int) -> pd.DataFrame:
    """Vectorized pair generation for every block key in a bucket.

    In non-DOI blocks, pairs where BOTH records carry a DOI are
    skipped: their outcome is already decided by the DOI itself (equal
    DOIs co-block under the doi: key; different DOIs are a definite
    non-match) — this prunes the dominant both-authoritative share of
    fuzzy blocks without losing a single undecided pair."""
    import numpy as np

    df = df.drop_duplicates(subset=["block_key", "record_id"])
    sizes = df["block_key"].value_counts()
    # keys whose pair count could exceed the cap go through the capped
    # per-key path; the rest use one C-level self-merge
    big = set(sizes.index[(sizes > 500) | (sizes.mul(sizes - 1) // 2 > max_pairs)])
    small = df[~df["block_key"].isin(big)] if big else df

    outs = []
    if len(small):
        # vectorized all-pairs for the (dominant) small blocks: one
        # C-level self-merge instead of a Python loop per key
        m = small.merge(small, on="block_key", suffixes=("_l", "_r"))
        m = m[m["record_id_l"] < m["record_id_r"]]
        decided = (~m["block_key"].str.startswith("doi:")) & m["has_doi_l"] & m["has_doi_r"]
        m = m[~decided]
        if len(m):
            fam = m["block_key"].map(family_bit).astype("int64")
            fl = m["ftok_l"].to_numpy()
            fr = m["ftok_r"].to_numpy()
            outs.append(pd.DataFrame({
                "left_id": m["record_id_l"].to_numpy(),
                "right_id": m["record_id_r"].to_numpy(),
                "block_key": m["block_key"].to_numpy(),
                "dropped_pairs": 0,
                "families": fam.to_numpy(),
                # pair-symmetric name-locality dedup key (min of the two
                # sides' first author tokens): every duplicate of a pair
                # shares it, and same-name pairs co-locate downstream
                "dkey": np.where(fl <= fr, fl, fr),
            }))

    for key in big:
        g = df[df["block_key"] == key]
        n = len(g)
        if n < 2:
            continue
        if key.startswith("doi:"):
            order = np.argsort(g["record_id"].to_numpy())
            ids = g["record_id"].to_numpy()[order]
            fts = g["ftok"].to_numpy()[order]
            total = n * (n - 1) // 2
            if total <= max_pairs:
                iu, ju = np.triu_indices(n, k=1)
                dropped = 0
            else:
                flat = np.unique(np.linspace(0, total - 1, max_pairs).astype(np.int64))
                iu, ju = _triu_unflatten(flat, n)
                dropped = total - len(flat)
            left, right = ids[iu], ids[ju]
            ftl, ftr = fts[iu], fts[ju]
        else:
            order = np.argsort(g["record_id"].to_numpy())
            ids = g["record_id"].to_numpy()[order]
            fts = g["ftok"].to_numpy()[order]
            hd = g["has_doi"].to_numpy()[order]
            nd_ids = ids[~hd]          # no-doi records
            d_ids = ids[hd]            # doi-carrying records
            nd_ft, d_ft = fts[~hd], fts[hd]
            m, d = len(nd_ids), len(d_ids)
            if m == 0:
                continue
            total1 = m * (m - 1) // 2          # no-doi x no-doi
            total2 = m * d                     # no-doi x doi
            grand = total1 + total2
            if grand > max_pairs:
                # deterministic stride sample over the VIRTUAL pair index
                # space (never materialize the full product)
                flat = np.unique(np.linspace(0, grand - 1, max_pairs).astype(np.int64))
                f1 = flat[flat < total1]
                f2 = flat[flat >= total1] - total1
                iu, ju = (_triu_unflatten(f1, m) if len(f1) else
                          (np.array([], np.int64), np.array([], np.int64)))
                l1, r1 = nd_ids[iu], nd_ids[ju]
                fl1, fr1 = nd_ft[iu], nd_ft[ju]
                if len(f2):
                    i2 = (f2 // d).astype(np.int64)
                    j2 = (f2 % d).astype(np.int64)
                    l2, r2 = nd_ids[i2], d_ids[j2]
                    fl2, fr2 = nd_ft[i2], d_ft[j2]
                else:
                    l2 = r2 = np.array([], dtype=nd_ids.dtype)
                    fl2 = fr2 = np.array([], dtype=nd_ft.dtype)
                dropped = grand - len(flat)
            else:
                iu, ju = np.triu_indices(m, k=1)
                l1, r1 = nd_ids[iu], nd_ids[ju]
                fl1, fr1 = nd_ft[iu], nd_ft[ju]
                l2 = np.repeat(nd_ids, d)
                r2 = np.tile(d_ids, m)
                fl2 = np.repeat(nd_ft, d)
                fr2 = np.tile(d_ft, m)
                dropped = 0
            left = np.concatenate([l1, l2])
            right = np.concatenate([r1, r2])
            ftl = np.concatenate([fl1, fl2])
            ftr = np.concatenate([fr1, fr2])
            # canonical ordering left < right (dkey is side-symmetric,
            # so the swap leaves it untouched)
            swap = left > right
            left[swap], right[swap] = right[swap], left[swap].copy()
        outs.append(pd.DataFrame({"left_id": left, "right_id": right,
                                  "block_key": key, "dropped_pairs": dropped,
                                  "families": family_bit(key),
                                  "dkey": np.where(ftl <= ftr, ftl, ftr)}))
    if not outs:
        return pd.DataFrame({"left_id": pd.Series(dtype=str),
                             "right_id": pd.Series(dtype=str),
                             "block_key": pd.Series(dtype=str),
                             "dropped_pairs": pd.Series(dtype="int64"),
                             "families": pd.Series(dtype="int64"),
                             "dkey": pd.Series(dtype=str)})
    return pd.concat(outs, ignore_index=True)


def _dedup_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Per-pair dedup inside a bucket: min block_key, max dropped,
    OR of the key-family bits (the pair's evidence provenance).

    The OUTPUT rows are ordered so equal name-locality keys (dkey) are
    adjacent: when Ray's dynamic block splitting shards a large bucket
    block downstream (≈2M-pair buckets at sf1 exceed the target block
    size), each contiguous shard then keeps whole same-name runs,
    preserving the scoring stage's memo locality. Row ORDER is not part
    of the pair contract (the driver compare and every consumer sort or
    aggregate), only determinism is — a stable argsort of
    first-occurrence codes is deterministic, and pd.factorize's
    NUL-truncation can only merge two dkeys' adjacency groups, never
    alter the rows.

    Everything runs on integer codes: ids are factorized, block keys go
    through a Categorical (whose categories are LEXICOGRAPHICALLY
    sorted, so min-code == min-string), and the bit-OR decomposes into
    per-bit maxima. A direct pandas groupby over the two string id
    columns with a string-min aggregation measured ~40x slower on
    multi-million-row buckets (and a per-group Python lambda for the OR
    was the round-2 pair-dedup regression).

    pandas' khash factorize/Categorical would MERGE ids or keys that
    differ only after an embedded NUL (C-string semantics) — merged ids
    silently DROP distinct pairs, so adversarial web input (a %00 in a
    URL id) takes an exact dict-interning path instead, gated on one
    vectorized contains scan per string column."""
    import numpy as np

    if df.empty:
        return df[["left_id", "right_id", "block_key", "dropped_pairs",
                   "families"]]
    has_nul = any(df[c].str.contains("\x00", regex=False).any()
                  for c in ("left_id", "right_id", "block_key"))
    if has_nul:
        from ..functions.minhash import factorize_exact

        lcodes, lu = factorize_exact(df["left_id"].tolist(), has_nul=True)
        rcodes, ru = factorize_exact(df["right_id"].tolist(), has_nul=True)
        luniq, runiq = pd.Index(lu), pd.Index(ru)
        kcodes, ku = factorize_exact(df["block_key"].tolist(), has_nul=True)
        # min-code == min-string needs LEXICOGRAPHICALLY ranked codes
        ku_arr = np.asarray(ku, dtype=object)
        order = np.argsort(ku_arr, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        bk_codes, bk_categories = rank[kcodes], ku_arr[order]
    else:
        lcodes, luniq = pd.factorize(df["left_id"], sort=False)
        rcodes, runiq = pd.factorize(df["right_id"], sort=False)
        cat = pd.Categorical(df["block_key"])
        bk_codes = np.asarray(cat.codes, dtype=np.int64)
        bk_categories = cat.categories
    pair = lcodes.astype(np.int64) * len(runiq) + rcodes
    fam = df["families"].to_numpy()
    cols = {
        "pair": pair,
        "bkc": bk_codes,
        "dropped_pairs": df["dropped_pairs"].to_numpy(),
        "__b1": (fam & 1) != 0, "__b2": (fam & 2) != 0,
        "__b4": (fam & 4) != 0, "__b8": (fam & 8) != 0,
    }
    # every duplicate of a pair shares its dkey, so "first" is
    # canonical; integer codes because only EQUALITY adjacency matters,
    # not lexicographic order
    cols["dkc"], _ = pd.factorize(df["dkey"], sort=False)
    aggs = dict(
        bkc=("bkc", "min"), dropped_pairs=("dropped_pairs", "max"),
        __b1=("__b1", "max"), __b2=("__b2", "max"),
        __b4=("__b4", "max"), __b8=("__b8", "max"), dkc=("dkc", "first"))
    g = pd.DataFrame(cols).groupby("pair", as_index=False,
                                   sort=False).agg(**aggs)
    pairs = g["pair"].to_numpy()
    out = pd.DataFrame({
        "left_id": luniq.take(pairs // len(runiq)),
        "right_id": runiq.take(pairs % len(runiq)),
        "block_key": np.asarray(bk_categories)[g["bkc"].to_numpy()],
        "dropped_pairs": g["dropped_pairs"].to_numpy(),
        "families": (g["__b1"].astype("int64") + 2 * g["__b2"].astype("int64")
                     + 4 * g["__b4"].astype("int64")
                     + 8 * g["__b8"].astype("int64")),
    })
    order = np.argsort(g["dkc"].to_numpy(), kind="stable")
    return out.take(order).reset_index(drop=True)


def candidate_pairs(records_ds, hot_keys_ref=None,
                    max_pairs_per_block=DEFAULT_MAX_PAIRS_PER_BLOCK,
                    num_buckets: int | None = None):
    """records -> candidate pairs (left_id < right_id). A pair produced
    by several block keys keeps the lexicographically smallest key and
    ORs its family bits. Both shuffles use coarse hash buckets
    (ops.relational.bucketed_map_groups) so Python-per-group overhead
    is O(num_buckets), not O(num_keys).

    ONE stream: pair-gen pipes straight into the dedup shuffle. A
    previous version split the doi family around the dedup (doi pairs
    are provably unique) and union()ed the branches back — at sf1 that
    stalled the stage: Ray's UnionOperator held the fuzzy branch's
    output until ordering resolved, ~24 GB of deduped pairs piled up
    in plasma and backpressured the dedup to ONE task at a time, and
    the pre-dedup stream (118M rows at sf1) also had to be
    materialized for the two-branch split. doi rows riding the dedup
    shuffle cost ~3% extra volume; _dedup_bucket passes them through
    unchanged (min of one key, OR of one bit)."""
    from ..ops.relational import bucketed_map_groups

    if num_buckets is None:
        # records is materialized by every pipeline caller (reused 3x),
        # so count() is metadata-cheap there; test callers hand tiny
        # from_pandas datasets where it is also free.
        num_buckets = adaptive_num_buckets(records_ds.count())
    keys = emit_block_keys(records_ds, hot_keys_ref=hot_keys_ref)
    pairs = bucketed_map_groups(
        keys, "block_key", lambda df: _pairs_for_bucket(df, max_pairs_per_block),
        num_buckets=num_buckets)
    # The dedup bucket key only needs to be a PURE FUNCTION OF THE PAIR
    # (so every duplicate of (l, r) lands in one bucket); beyond that it
    # is a free choice, and it decides which pairs share a downstream
    # scoring task's intern/memo state. Measured on the sf0.1 pair
    # stream (32 buckets, sum over buckets of distinct scoring-kernel
    # comparisons vs the 6.01M global floor):
    #   (left,right) hash — no locality:                 ~2.3x left_id's
    #   left_id — a record's pairs co-locate:            13.84M
    #   dkey, min(first author token of either side):    6.77M
    # dkey co-locates same-name pairs, which is also attr-pair-memo
    # locality: the quadratically-growing fuzzy same-name blocks at
    # bigger tiers repeat identical author-list pairs, and grouping them
    # into one task turns those into memo hits before any cache-cap
    # clear. Author-less records fall back to their record_id (uniform
    # spread, no "" mega-bucket).
    return bucketed_map_groups(pairs, "dkey", _dedup_bucket,
                               num_buckets=num_buckets)
