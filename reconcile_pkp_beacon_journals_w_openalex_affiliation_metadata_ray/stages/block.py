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

Execution shape: MinHash and the key rules run ONCE per record, in
the records stage (:func:`with_block_keys`); the keys ride on the
records as a list column, and later passes only count them
(:func:`find_hot_keys`) and refine them (:func:`key_rows`) with Arrow.
The hot set is a plain frozenset argument. Pair generation is ONE
coarse bucketed shuffle of the key rows (ops.relational.
bucketed_map_groups: O(num_buckets) Python calls, C-level self-merge
inside), and each pair is emitted only by its owner block, so no
second shuffle deduplicates pairs several blocks share. Shuffles carry
only (key, record_id, has_doi, the record's key list) — never the
heavy record payloads.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.minhash import MinHasher, band_keys

NUM_PERM = 64
NUM_BANDS = 4
DEFAULT_HOT_THRESHOLD = 256
DEFAULT_MAX_PAIRS_PER_BLOCK = 20_000


def adaptive_num_buckets(n_records: int, records_per_bucket: int = 1_000,
                         lo: int = 32, hi: int = 4_096) -> int:
    """Bucket count for the pair-generation shuffle (and the joins of
    shuffle scoring), scaled to the record count. The PARALLELISM of a
    bucketed_map_groups stage — and of everything Ray fuses onto its
    output, which in the flagship e2e configuration includes the whole
    scoring kernel — is bounded by the bucket count:
    groupby().map_groups tasks follow the sort's range partitions. A
    fixed 32 serialized sf1's 120M-candidate stream into ~28 tasks of
    4M+ pairs each (pair-gen 12.5 min, then a since-removed pair-dedup
    shuffle + scoring 11.5 min with a 5-minute single-task tail —
    BASELINE §c15 timeline).

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

# per-worker-process MinHasher: its shingle-vector cache warms across
# the record batches a worker maps
_MINHASHER: MinHasher | None = None


def with_block_keys(t: pa.Table) -> pa.Table:
    """Records ``t`` plus each record's block keys, before hot-key
    refinement, as ``block_keys`` (list<string>, duplicates kept) and
    its refinement suffix ``key_suffix``: the first normalized author,
    else the DOI, else ``_``. The keys, in order: ``doi:``, ``path:``,
    ``host:{host}~{suffix}``, ``an:`` for the first three authors, then
    the LSH bands of the name blob. ``records.build_records`` adds them
    in each side's per-batch map, so MinHash runs once per record and
    every later pass (:func:`find_hot_keys`, :func:`key_rows`) reads the
    columns."""
    global _MINHASHER
    if _MINHASHER is None:
        _MINHASHER = MinHasher(num_perm=NUM_PERM)
    blobs = t["name_blob"].to_pylist()
    # whole-batch vectorized MinHash (one reduceat pass, bit-identical
    # to per-row signature(); empty blobs cost nothing)
    sigs = _MINHASHER.signatures(blobs)
    keys, suffixes = [], []
    for doi, path, host, names, blob, sig in zip(
            t["doi_norm"].to_pylist(), t["path_key"].to_pylist(),
            t["host_key"].to_pylist(), t["authors_norm"].to_pylist(), blobs, sigs):
        suffix = names[0] if names else (doi or "_")
        ks = ["doi:" + doi] if doi else []
        if path:
            ks.append("path:" + path)
        if host:
            # host equality alone is the reference's SEMI-JOIN key, not
            # a pair key — for pair generation it is ALWAYS refined by
            # the first author name (else mega-hosts go quadratic)
            ks.append(f"host:{host}~{suffix}")
        # exact normalized author-name keys: cheap, tiny blocks, catch
        # cross-host records whose name normalizes identically (first
        # three authors bound the fanout)
        ks += ["an:" + name for name in names[:3]]
        if blob:
            ks += band_keys(sig, NUM_BANDS)
        keys.append(ks)
        suffixes.append(suffix)
    return (t.append_column("block_keys", pa.array(keys, pa.list_(pa.string())))
            .append_column("key_suffix", pa.array(suffixes, pa.string())))


def key_rows(t: pa.Table, hot_keys=frozenset(), record_keys: bool = False) -> pa.Table:
    """Records (with :func:`with_block_keys`' columns) -> one
    (block_key, record_id, has_doi) row per key, repeats kept. A hot
    ``an:`` or band key becomes ``{key}~{key_suffix}``: the first-author
    name is stable under the light-corruption tier, and records with
    heavier corruption are co-blocked via doi/path/LSH keys, so the
    refinement costs recall ~nothing while collapsing a mega-block to
    same-name groups. ``doi:`` and ``path:`` keys are never refined,
    ``host:`` keys always are (by :func:`with_block_keys`).

    ``record_keys`` adds the shuffle's column: the record's packed key
    list (:func:`_pack_keys`) on each of its rows, so a block can tell
    which pairs it owns (:func:`_owned_pairs`) without a join."""
    keys = t["block_keys"]
    parent = pc.list_parent_indices(keys)
    key = pc.list_flatten(keys)
    if hot_keys:
        hot = pc.and_(pc.is_in(key, value_set=pa.array(list(hot_keys), pa.string())),
                      pc.invert(pc.match_substring_regex(key, "^(doi|path|host):")))
        key = pc.if_else(hot, pc.binary_join_element_wise(
            key, pc.take(t["key_suffix"], parent), "~"), key)
    out = pa.table({"block_key": key,
                    "record_id": pc.take(t["record_id"], parent),
                    "has_doi": pc.take(pc.not_equal(t["doi_norm"], ""), parent)})
    if record_keys:
        out = out.append_column("record_keys", pc.take(
            _pack_keys(key, parent, len(t)), parent))
    return out


def key_rows_ds(records_ds, hot_keys=frozenset(), record_keys: bool = False):
    """:func:`key_rows` over a records Dataset."""
    return records_ds.map_batches(
        key_rows, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"hot_keys": hot_keys, "record_keys": record_keys})


_SEP, _ESC = "\x1e", "\x1d"


def _escape(key: str) -> str:
    """``key`` without ``\\x1e`` (a DOI or URL path may hold any
    character), one to one and order-preserving."""
    return key.replace(_ESC, _ESC + _ESC).replace(_SEP, _ESC + ".")


def _pack_keys(key, parent, n: int) -> pa.Array:
    """Each of ``n`` records' distinct block keys (``key``, owned by the
    record ``parent`` indexes), escaped as :func:`_escape` does, sorted
    and ``\\x1e``-joined (list columns break inside map_groups). Arrow
    compares whole strings, and sorting escaped keys sorts the keys."""
    escaped = pc.replace_substring(pc.replace_substring(key, _ESC, _ESC + _ESC),
                                   _SEP, _ESC + ".")
    rows = pa.table({"p": parent, "k": escaped}).group_by(["p", "k"]).aggregate([]).sort_by(
        [("p", "ascending"), ("k", "ascending")])
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows["p"].to_numpy(), minlength=n))])
    return pc.binary_join(pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), rows["k"].combine_chunks()), _SEP)


def _summed(partials_ds, cols) -> pa.Table | None:
    """The per-batch partials of ``partials_ds`` summed by block key in
    the calling process (Arrow groups by whole strings; pandas' hashing
    stops at a NUL); ``None`` when there are none."""
    parts = list(partials_ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not parts:
        return None
    return pa.concat_tables(parts).group_by("block_key").aggregate(
        [(c, "sum") for c in cols])


def find_hot_keys(records_ds, threshold=DEFAULT_HOT_THRESHOLD,
                  sample_frac: float = 0.1, sample_min_rows: int = 50_000,
                  driver_merge_rows: int = 500_000):
    """The set of oversized unrefined block keys, counted off the
    records' ``block_keys`` lists (a record's repeated key counts each
    time). No shuffle: each batch emits its per-key value_counts, the
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
    sampled = n > sample_min_rows
    cut = int(sample_frac * 10_000)
    eff_threshold = max(8, int(threshold * sample_frac * 0.5)) if sampled else threshold

    def _partial_counts(t: pa.Table) -> pa.Table:
        if sampled:
            from pandas.util import hash_pandas_object

            t = t.filter(pa.array((hash_pandas_object(
                t["record_id"].to_pandas(), index=False) % 10_000 < cut).to_numpy()))
        vc = pc.value_counts(pc.list_flatten(t["block_keys"]))
        return pa.table({"block_key": vc.field("values"), "n": vc.field("counts")})

    partials_ds = records_ds.map_batches(_partial_counts, batch_format="pyarrow")

    if not sampled or n * sample_frac <= driver_merge_rows:
        # bounded key volume (small input, or a sample capped at
        # driver_merge_rows records ≈ 8x that many partial key rows): a
        # driver-side sum of the per-batch partials is cheaper than an
        # AllToAll — this removes the hot-key pre-pass's ONLY shuffle
        # barrier for every tier up to ~5M records (sf1 inclusive),
        # identical hot set either way (same partials, same sum, same
        # threshold)
        totals = _summed(partials_ds, ["n"])
        if totals is None:
            return frozenset()
        return frozenset(totals["block_key"].filter(
            pc.greater(totals["n_sum"], eff_threshold)).to_pylist())

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


def _virtual_pairs(m, d):
    """Size of a block's pair space: its ``m`` pairing records with each
    other and with its ``d`` DOI-carrying ones (``d`` = 0 in a doi:
    block, where every record pairs). Ints or numpy arrays."""
    return m * (m - 1) // 2 + m * d


def _pair_sample(total: int, max_pairs: int):
    """Flat indices of the pairs a block keeps out of its ``total``-pair
    space: all of them up to the cap, past it a deterministic stride
    sample of ``max_pairs`` (the full product is never materialized);
    ``total - len(result)`` pairs are dropped."""
    if total <= max_pairs:
        return np.arange(total, dtype=np.int64)
    return np.unique(np.linspace(0, total - 1, max_pairs).astype(np.int64))


def _pairs_for_bucket(df: pd.DataFrame, max_pairs: int) -> pd.DataFrame:
    """Vectorized pair generation for every block key in a bucket: each
    block's own pairs, with its own ``dropped_pairs`` and family bit.

    In non-DOI blocks, pairs where BOTH records carry a DOI are
    skipped: their outcome is already decided by the DOI itself (equal
    DOIs co-block under the doi: key; different DOIs are a definite
    non-match) — this prunes the dominant both-authoritative share of
    fuzzy blocks without losing a single undecided pair."""
    # a record's repeated key (two equal author names) counts once; a
    # set of tuples, because pandas' multi-column drop_duplicates hashes
    # strings as C strings and merges ids that differ after a NUL
    seen = set()
    df = df[np.fromiter((not (t in seen or seen.add(t))
                         for t in zip(df["block_key"], df["record_id"])), bool, len(df))]
    sizes = df["block_key"].value_counts()
    # keys whose pair count could exceed the cap go through the capped
    # per-key path; the rest use one C-level self-merge
    big = set(sizes.index[(sizes > 500) | (sizes.mul(sizes - 1) // 2 > max_pairs)])
    small = df[~df["block_key"].isin(big)] if big else df

    outs = []
    if len(small):
        # vectorized all-pairs for the (dominant) small blocks: one
        # C-level self-merge instead of a Python loop per key; family
        # bits are looked up per key row, not per pair
        small = small[["block_key", "record_id", "has_doi"]].assign(
            families=small["block_key"].map(family_bit).astype("int64"))
        m = small.merge(small, on=["block_key", "families"], suffixes=("_l", "_r"))
        decided = (m["families"] != FAMILY_DOI) & m["has_doi_l"] & m["has_doi_r"]
        m = m[(m["record_id_l"] < m["record_id_r"]) & ~decided]
        if len(m):
            outs.append(pd.DataFrame({
                "left_id": m["record_id_l"].to_numpy(),
                "right_id": m["record_id_r"].to_numpy(),
                "block_key": m["block_key"].to_numpy(),
                "dropped_pairs": 0,
                "families": m["families"].to_numpy(),
            }))

    for key in big:
        g = df[df["block_key"] == key]
        order = np.argsort(g["record_id"].to_numpy())
        ids = g["record_id"].to_numpy()[order]
        # a doi: block pairs all of its records; elsewhere both-DOI pairs
        # are decided, so only the DOI-less records pair, with each other
        # and with the DOI-carrying ones
        if key.startswith("doi:"):
            pairing = np.ones(len(ids), dtype=bool)
        else:
            pairing = ~g["has_doi"].to_numpy()[order]
        a_ids, b_ids = ids[pairing], ids[~pairing]
        m, d = len(a_ids), len(b_ids)
        total = _virtual_pairs(m, d)
        flat = _pair_sample(total, max_pairs)
        if not len(flat):
            continue
        # the virtual pair space: a x a upper triangle first, then a x b
        within = m * (m - 1) // 2
        f1, f2 = flat[flat < within], flat[flat >= within] - within
        iu, ju = _triu_unflatten(f1, m)
        i2, j2 = (f2 // d, f2 % d) if d else (f2, f2)
        left = np.concatenate([a_ids[iu], a_ids[i2]])
        right = np.concatenate([a_ids[ju], b_ids[j2]])
        # canonical ordering left < right
        swap = left > right
        left[swap], right[swap] = right[swap], left[swap].copy()
        outs.append(pd.DataFrame({"left_id": left, "right_id": right,
                                  "block_key": key,
                                  "dropped_pairs": total - len(flat),
                                  "families": family_bit(key)}))
    if not outs:
        return pd.DataFrame({"left_id": pd.Series(dtype=str),
                             "right_id": pd.Series(dtype=str),
                             "block_key": pd.Series(dtype=str),
                             "dropped_pairs": pd.Series(dtype="int64"),
                             "families": pd.Series(dtype="int64")})
    return pd.concat(outs, ignore_index=True)


def _owned_pairs(df: pd.DataFrame, max_pairs: int, capped=None) -> pd.DataFrame:
    """The pairs of a bucket's blocks (:func:`_pairs_for_bucket`) that
    each block OWNS. The blocks that emit a pair are the keys both its
    records carry, less the non-``doi:`` keys when both carry a DOI and
    the capped keys whose sample dropped the pair; the smallest of them
    owns it. The owner's row gets the OR of their family bits and the
    largest of their ``dropped_pairs``, so each pair is emitted once,
    as the row its blocks' copies would deduplicate to.

    ``capped`` is ``None`` or (``{escaped key: dropped pairs}``, the set
    of ``(escaped key, left_id, right_id)`` each capped block keeps).
    Record ids are taken to be unique (page URLs and work ids are, in
    every input here): a repeated id keeps the first key list its
    bucket sees."""
    pairs = _pairs_for_bucket(df, max_pairs)
    if pairs.empty:
        return pairs
    # one row per record: its DOI flag and its key list as key codes,
    # in key order (padded with -1, which indexes the sentinel appended
    # to every per-key array)
    pos, doi, lists, code = {}, [], [], {}
    for rid, hd, packed in zip(df["record_id"], df["has_doi"], df["record_keys"]):
        if rid not in pos:
            pos[rid] = len(pos)
            doi.append(hd)
            lists.append([code.setdefault(k, len(code)) for k in packed.split(_SEP)])
    has_doi = np.array(doi, dtype=bool)
    codes = np.full((len(lists), max(map(len, lists))), -1, dtype=np.int64)
    for i, ks in enumerate(lists):
        codes[i, :len(ks)] = ks
    keys = list(code)
    fam = np.array([family_bit(k) for k in keys] + [0], dtype=np.int64)
    drops, kept = capped or ({}, ())
    dropped = np.array([drops.get(k, 0) for k in keys] + [0], dtype=np.int64)

    left, right = pairs["left_id"].to_numpy(), pairs["right_id"].to_numpy()
    ids = pd.Index(list(pos))
    li, ri = ids.get_indexer(left), ids.get_indexer(right)
    lc, rc = np.take(codes, li, axis=0), np.take(codes, ri, axis=0)
    # emits[p, j]: the j-th key of the pair's left record emits the pair
    emits = ((lc[:, :, None] == rc[:, None, :]).any(axis=2) & (lc >= 0)
             & ~((has_doi[li] & has_doi[ri])[:, None]
                 & (fam[lc] != FAMILY_DOI)))
    for p, j in zip(*np.nonzero(emits & (dropped[lc] > 0))):
        if (keys[lc[p, j]], left[p], right[p]) not in kept:
            emits[p, j] = False
    # the lists are sorted, so the first emitting key is the owner
    kcode = pairs["block_key"].map({k: code[_escape(k)] for k in set(df["block_key"])})
    own = lc[np.arange(len(pairs)), emits.argmax(axis=1)] == kcode.to_numpy()
    return pairs.assign(
        dropped_pairs=np.where(emits, dropped[lc], 0).max(axis=1),
        families=np.bitwise_or.reduce(np.where(emits, fam[lc], 0), axis=1))[own]


def _capped_blocks(records_ds, hot_keys, max_pairs: int) -> dict:
    """Capped block key -> pairs its cap drops, from block sizes. One
    shuffle-free pass over the records' :func:`key_rows` counts each
    batch's pairing and DOI-carrying records per key after the
    (block_key, record_id) dedup of :func:`_pairs_for_bucket`; the
    calling process sums the partials and runs them through that
    function's cap (:func:`_pair_sample`)."""

    def _sizes(t: pa.Table) -> pa.Table:
        t = key_rows(t, hot_keys).group_by(["block_key", "record_id", "has_doi"]).aggregate([])
        # a doi: block pairs all its records (see _pairs_for_bucket)
        pairing = pc.or_(pc.starts_with(t["block_key"], "doi:"), pc.invert(t["has_doi"]))
        return pa.table({
            "block_key": t["block_key"],
            "m": pc.cast(pairing, pa.int64()),
            "d": pc.cast(pc.invert(pairing), pa.int64()),
        }).group_by("block_key").aggregate([("m", "sum"), ("d", "sum")])

    sizes = _summed(records_ds.map_batches(_sizes, batch_format="pyarrow"), ["m_sum", "d_sum"])
    if sizes is None:
        return {}
    total = _virtual_pairs(sizes["m_sum_sum"].to_numpy(), sizes["d_sum_sum"].to_numpy())
    over = total > max_pairs
    return {key: int(t - len(_pair_sample(t, max_pairs)))
            for key, t in zip(sizes["block_key"].filter(pa.array(over)).to_pylist(), total[over])}


def candidate_pairs(records_ds, hot_keys=frozenset(), max_pairs_per_block=None,
                    num_buckets: int | None = None):
    """records -> candidate pairs (left_id < right_id), one row per pair:
    the smallest of the block keys that emit it, the largest of their
    ``dropped_pairs`` and the OR of their family bits. Block keys are
    the records' own (:func:`with_block_keys`), refined by ``hot_keys``
    (:func:`find_hot_keys`' set, a plain value). The per-block cap
    defaults to DEFAULT_MAX_PAIRS_PER_BLOCK, read at call time as
    :func:`block_caps` reads it.

    ONE shuffle: the :func:`key_rows` group by block key in coarse hash
    buckets (ops.relational.bucketed_map_groups, so Python-per-group
    overhead is O(num_buckets), not O(num_keys)), and each bucket emits
    only the pairs its blocks own (:func:`_owned_pairs`). A pair is
    tested at its smallest shared key, the way a prefix-filter
    similarity join checks a pair only at its first common prefix token,
    so no shuffle is needed to deduplicate pairs that several blocks
    share.

    Whether a capped block kept a pair is not local to the other blocks
    of the pair, so capped blocks are found first, by the shuffle-free
    size pass of :func:`block_caps`. Only when a block is capped are the
    capped blocks' key rows collected and their kept pairs computed
    here; they ship with the bucket function to every owner test."""
    from ..ops.relational import bucketed_map_groups

    if max_pairs_per_block is None:
        max_pairs_per_block = DEFAULT_MAX_PAIRS_PER_BLOCK
    if num_buckets is None:
        # records is materialized by every pipeline caller (reused 3x),
        # so count() is metadata-cheap there; test callers hand tiny
        # from_pandas datasets where it is also free.
        num_buckets = adaptive_num_buckets(records_ds.count())
    capped = None
    drops = _capped_blocks(records_ds, hot_keys, max_pairs_per_block)
    if drops:
        names = pa.array(list(drops), pa.string())
        rows = key_rows_ds(records_ds, hot_keys).map_batches(
            lambda t: t.filter(pc.is_in(t["block_key"], value_set=names)),
            batch_format="pyarrow").to_pandas()
        kept = _pairs_for_bucket(rows, max_pairs_per_block)
        capped = ({_escape(k): n for k, n in drops.items()},
                  set(zip(kept["block_key"].map(_escape), kept["left_id"],
                          kept["right_id"])))
    return bucketed_map_groups(
        key_rows_ds(records_ds, hot_keys, record_keys=True), "block_key",
        lambda df: _owned_pairs(df, max_pairs_per_block, capped),
        num_buckets=num_buckets)


def block_caps(records_ds, hot_keys=frozenset()) -> dict:
    """Capped block key -> pairs its cap dropped, for the blocks
    :func:`candidate_pairs` builds from the same records and hot keys at
    its default cap.

    Computed from block sizes, not read off the pairs: a pair keeps the
    smallest of its block keys but the largest ``dropped_pairs`` of its
    blocks, so grouping pairs by key credits a capped block's drops to
    every smaller key that co-blocks one of its sampled pairs. The size
    pass is the one :func:`candidate_pairs` runs."""
    return _capped_blocks(records_ds, hot_keys, DEFAULT_MAX_PAIRS_PER_BLOCK)
