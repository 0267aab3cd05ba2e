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

Execution shape: the key rules run in the records stage
(:func:`with_block_keys`), once per record batch, MinHash and the band
hashes once per distinct name blob of the batch; the keys ride on the
records as a list column, and later passes only count them
(:func:`find_hot_keys`) and refine them (:func:`key_rows`) with Arrow.
The counting pass is also the block plan (:func:`find_hot_keys`): one
Arrow group_by per batch by (key, refinement suffix) yields the hot set
and the capped blocks together, and the hot set is a frozenset argument
that carries them (:class:`HotKeys`). Pair generation is ONE coarse
bucketed shuffle of the key rows (ops.relational.bucketed_map_groups
in its Arrow form: one Python call per sort partition, pairs
enumerated on integer codes inside), and each pair is emitted only by
its owner block, so no second shuffle deduplicates pairs several
blocks share. Shuffles carry only (key, record_id, has_doi) — never the
heavy record payloads. The owner test reads each record's refined key
list from the scoring stage's broadcast table
(stages.score.broadcast_records), built once per run; a caller with no
broadcast ships the list on each key row instead.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.minhash import MinHasher, band_keys
from ..functions.pairs import group_pairs

NUM_PERM = 64
NUM_BANDS = 4
DEFAULT_HOT_THRESHOLD = 256
DEFAULT_MAX_PAIRS_PER_BLOCK = 20_000
# keys never refined by the hot set: DOI and URL-path keys, and host
# keys, which carry their refinement from with_block_keys
_NEVER_REFINED = "^(doi|path|host):"

# per-worker-process MinHasher: its shingle-vector cache warms across
# the record batches a worker maps
_MINHASHER: MinHasher | None = None


def _strings(col) -> pa.Array:
    """A string column as one string array, nulls as ``""``."""
    return pc.fill_null(col.combine_chunks().cast(pa.string()), "")


def with_block_keys(t: pa.Table) -> pa.Table:
    """Records ``t`` plus each record's block keys, before hot-key
    refinement, as ``block_keys`` (list<string>, duplicates kept) and
    its refinement suffix ``key_suffix``: the first normalized author,
    else the DOI, else ``_``. The keys, in order: ``doi:``, ``path:``,
    ``host:{host}~{suffix}``, ``an:`` for the first three authors, then
    the LSH bands of the name blob. ``records.build_records`` adds them
    in each side's per-batch map, and every later pass
    (:func:`find_hot_keys`, :func:`key_rows`) reads the columns.

    MinHash and the band hashes run once per distinct non-empty name
    blob of the batch; everything else is Arrow. Each key family is one
    string column (a slot), and the key lists are one ``take`` over the
    slots in key order."""
    global _MINHASHER
    if _MINHASHER is None:
        _MINHASHER = MinHasher(num_perm=NUM_PERM)
    n = len(t)
    doi, path, host = (_strings(t[c]) for c in ("doi_norm", "path_key", "host_key"))
    names = t["authors_norm"].combine_chunks()
    n_names = pc.fill_null(pc.list_value_length(names), 0).to_numpy(zero_copy_only=False)
    first = np.cumsum(n_names) - n_names  # each record's first name in `flat`
    flat = pc.list_flatten(names).cast(pa.string())
    suffix = pc.coalesce(flat.take(pa.array(first, mask=n_names == 0)),
                         pc.if_else(pc.equal(doi, ""), "_", doi))
    blobs = pc.dictionary_encode(_strings(t["name_blob"]))
    distinct = blobs.dictionary.to_pylist()
    hashed = [j for j, blob in enumerate(distinct) if blob]
    bands = [k for sig in _MINHASHER.signatures([distinct[j] for j in hashed])
             for k in band_keys(sig, NUM_BANDS)]
    band_of = np.full(len(distinct), -1)
    band_of[hashed] = np.arange(len(hashed)) * NUM_BANDS
    band_of = band_of[blobs.indices.to_numpy(zero_copy_only=False)]

    # slot values, concatenated: doi, path, host (n each), an, bands
    slots = pa.concat_arrays([
        pc.binary_join_element_wise("doi:", doi, ""),
        pc.binary_join_element_wise("path:", path, ""),
        # host equality alone is the reference's SEMI-JOIN key, not a
        # pair key — for pair generation it is ALWAYS refined by the
        # first author name (else mega-hosts go quadratic)
        pc.binary_join_element_wise(pc.binary_join_element_wise("host:", host, ""),
                                    suffix, "~"),
        pc.binary_join_element_wise("an:", flat, ""),
        pa.array(bands, pa.string())])
    row = np.arange(n)
    pick = np.full((n, 6 + NUM_BANDS), -1)  # each record's slot positions
    for slot, col in enumerate((doi, path, host)):
        pick[:, slot] = np.where(pc.not_equal(col, "").to_numpy(zero_copy_only=False),
                                 slot * n + row, -1)
    # exact normalized author-name keys: cheap, tiny blocks, catch
    # cross-host records whose name normalizes identically (first three
    # authors bound the fanout)
    for j in range(3):
        pick[:, 3 + j] = np.where(n_names > j, 3 * n + first + j, -1)
    base = 3 * n + len(flat)
    for b in range(NUM_BANDS):
        pick[:, 6 + b] = np.where(band_of >= 0, base + band_of + b, -1)
    valid = pick >= 0
    offsets = np.concatenate([[0], np.cumsum(valid.sum(axis=1))])
    keys = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), slots.take(pick[valid]))
    return t.append_column("block_keys", keys).append_column("key_suffix", suffix)


def _refined(t: pa.Table, hot_keys):
    """Records -> (refined block key, owning record's row) per listed
    key, repeats kept: :func:`key_rows`' refinement."""
    keys = t["block_keys"]
    parent = pc.list_parent_indices(keys)
    key = pc.list_flatten(keys)
    if hot_keys:
        hot = pc.and_(pc.is_in(key, value_set=pa.array(list(hot_keys), pa.string())),
                      pc.invert(pc.match_substring_regex(key, _NEVER_REFINED)))
        key = pc.if_else(hot, pc.binary_join_element_wise(
            key, pc.take(t["key_suffix"], parent), "~"), key)
    return key, parent


def key_rows(t: pa.Table, hot_keys=frozenset(), record_keys: bool = False) -> pa.Table:
    """Records (with :func:`with_block_keys`' columns) -> one
    (block_key, record_id, has_doi) row per key, repeats kept. A hot
    ``an:`` or band key becomes ``{key}~{key_suffix}``: the first-author
    name is stable under the light-corruption tier, and records with
    heavier corruption are co-blocked via doi/path/LSH keys, so the
    refinement costs recall ~nothing while collapsing a mega-block to
    same-name groups. ``doi:`` and ``path:`` keys are never refined,
    ``host:`` keys always are (by :func:`with_block_keys`).

    ``record_keys`` adds the record's packed key list
    (:func:`key_lists`) on each of its rows, so a block can tell which
    pairs it owns (:func:`_owned_pairs`) without a join. Only a pair
    shuffle with no broadcast table to read the lists from ships it."""
    key, parent = _refined(t, hot_keys)
    out = pa.table({"block_key": key,
                    "record_id": pc.take(t["record_id"], parent),
                    "has_doi": pc.take(pc.not_equal(t["doi_norm"], ""), parent)})
    if record_keys:
        out = out.append_column("record_keys", pc.take(
            _pack_keys(key, parent, len(t)), parent))
    return out


def key_lists(t: pa.Table, hot_keys=frozenset()) -> pa.Array:
    """Each record's distinct refined block keys (:func:`key_rows`),
    packed by :func:`_pack_keys`, row-aligned with ``t``: the list the
    owner test (:func:`_owned_pairs`) reads for the record."""
    return _pack_keys(*_refined(t, hot_keys), len(t))


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


def _escaped(keys):
    """:func:`_escape` over an Arrow string array."""
    return pc.replace_substring(pc.replace_substring(keys, _ESC, _ESC + _ESC), _SEP, _ESC + ".")


def _pack_keys(key, parent, n: int) -> pa.Array:
    """Each of ``n`` records' distinct block keys (``key``, owned by the
    record ``parent`` indexes), escaped as :func:`_escape` does, sorted
    and ``\\x1e``-joined (list columns break inside map_groups). Arrow
    compares whole strings, and sorting escaped keys sorts the keys."""
    escaped = _escaped(key)
    rows = pa.table({"p": parent, "k": escaped}).group_by(["p", "k"]).aggregate([]).sort_by(
        [("p", "ascending"), ("k", "ascending")])
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rows["p"].to_numpy(), minlength=n))])
    return pc.binary_join(pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), rows["k"].combine_chunks()), _SEP)


class HotKeys(frozenset):
    """:func:`find_hot_keys`' hot set, carrying the plan of the blocks
    it refines: ``caps`` maps each capped block key to the pairs its cap
    drops, at ``max_pairs`` pairs per block, in the records it was
    planned on (another Dataset needs its own plan). A plain frozenset
    in every other respect (``len``, ``==``, ``in``; equality ignores
    the caps)."""

    def __new__(cls, keys=(), caps=None, max_pairs=None):
        self = super().__new__(cls, keys)
        self.caps, self.max_pairs = dict(caps or {}), max_pairs
        return self


def _plan_partials(t: pa.Table, sampled: bool, cut: int) -> pa.Table:
    """One batch's block-plan partials, one row per (unrefined key,
    ``key_suffix``): ``n``, the key's occurrences (a record's repeated
    key counts each time) among the hash-sampled records when
    ``sampled``; ``m`` / ``d``, the distinct records that pair in the
    key's blocks / that only pair with those (DOI carriers outside a
    ``doi:`` block, see :func:`_pair_codes`). Record ids are taken to be
    unique, so per-batch distinct counts sum to global ones."""
    keys = t["block_keys"].combine_chunks()
    parent = pc.list_parent_indices(keys)
    key = pc.list_flatten(keys)
    if sampled:
        from pandas.util import hash_pandas_object

        weight = (hash_pandas_object(t["record_id"].to_pandas(), index=False)
                  % 10_000 < cut).to_numpy().astype(np.int64)
    else:
        weight = np.ones(len(t), np.int64)
    pairing = pc.or_(pc.starts_with(key, "doi:"),
                     pc.equal(t["doi_norm"].combine_chunks(), "").take(parent))
    none = pa.nulls(len(key), parent.type)
    distinct = pc.CountOptions(mode="only_valid")
    return pa.table({
        "key": key, "key_suffix": t["key_suffix"].combine_chunks().take(parent),
        "n": pc.take(pa.array(weight), parent),
        "m": pc.if_else(pairing, parent, none), "d": pc.if_else(pairing, none, parent),
    }).group_by(["key", "key_suffix"]).aggregate(
        [("n", "sum"), ("m", "count_distinct", distinct), ("d", "count_distinct", distinct)]
    ).rename_columns(["key", "key_suffix", "n", "m", "d"])


def _plan(partials: pa.Table, hot, max_pairs: int, threshold=None) -> pa.Table:
    """The block plan from :func:`_plan_partials` rows that hold every
    row of their keys: the blocks a ``max_pairs`` cap samples, refined
    by ``hot`` — or, when it is None, by the keys whose summed ``n``
    exceeds ``threshold``, which are then found. A hot key that is
    refinable (not ``doi:``, ``path:`` or ``host:``) has one block per
    ``key_suffix``, sized from its (key, suffix) rows; any other key is
    one block, sized from its summed rows. Returns (``block_key``,
    ``hot``, ``dropped``) rows: one per found hot key, one per capped
    block with the pairs its cap drops."""
    keyed = partials.group_by("key").aggregate([("n", "sum"), ("m", "sum"), ("d", "sum")])
    found = None
    if hot is None:
        found = hot = keyed["key"].filter(pc.greater(keyed["n_sum"], threshold))
    else:
        hot = pa.array(list(hot), pa.string())
    refined = pc.filter(hot, pc.invert(pc.match_substring_regex(hot, _NEVER_REFINED)))
    split = partials.filter(pc.is_in(partials["key"], value_set=refined)).group_by(
        ["key", "key_suffix"]).aggregate([("m", "sum"), ("d", "sum")])
    whole = keyed.filter(pc.invert(pc.is_in(keyed["key"], value_set=refined)))
    block_keys = pa.chunked_array(
        whole["key"].chunks
        + pc.binary_join_element_wise(split["key"], split["key_suffix"], "~").chunks,
        pa.string())
    total = _virtual_pairs(
        np.concatenate([whole["m_sum"].to_numpy(), split["m_sum"].to_numpy()]),
        np.concatenate([whole["d_sum"].to_numpy(), split["d_sum"].to_numpy()]))
    over = np.flatnonzero(total > max_pairs)
    plan = pa.table({
        "block_key": block_keys.take(over),
        "hot": pa.array(np.zeros(len(over), bool)),
        "dropped": pa.array([int(t - len(_pair_sample(t, max_pairs))) for t in total[over]],
                            pa.int64()),
    })
    if found is None:
        return plan
    return pa.concat_tables([pa.table({
        "block_key": found, "hot": pa.array(np.ones(len(found), bool)),
        "dropped": pa.array(np.zeros(len(found), np.int64))}), plan])


def find_hot_keys(records_ds, threshold=DEFAULT_HOT_THRESHOLD,
                  sample_frac: float = 0.1, sample_min_rows: int = 50_000,
                  driver_merge_rows: int = 5_000_000, hot_keys=None,
                  max_pairs=None) -> HotKeys:
    """The set of oversized unrefined block keys, counted off the
    records' ``block_keys`` lists (a record's repeated key counts each
    time), carrying the blocks the per-block cap samples: the block plan
    that :func:`candidate_pairs` and :func:`block_caps` read instead of
    sizing the blocks again. ``hot_keys`` fixes the hot set instead of
    counting it; ``max_pairs`` defaults to DEFAULT_MAX_PAIRS_PER_BLOCK,
    read at call time.

    One pass, no shuffle up to ``driver_merge_rows`` records: each batch
    emits its :func:`_plan_partials`, the calling process sums them
    (Arrow groups by whole strings; pandas' hashing stops at a NUL) and
    plans (:func:`_plan`). Past that the partials are reduced
    distributed, by unrefined key (ops.relational.bucketed_map_groups),
    and only the plan rows reach the calling process. The 5M-record
    default keeps every tier up to sf1 (3.16M records, ~20M partial
    rows) on the calling process, with no AllToAll barrier; the
    distributed reduce is for inputs past that.

    The caps describe the blocks of ``records_ds`` as counted here:
    they hold for pair generation over these same records only, not
    over a filtered or re-read Dataset.

    Above ``sample_min_rows`` records the hot keys are counted on a
    DETERMINISTIC content-hash sample (stable pandas row-hash of
    record_id — the same records are sampled at ANY partitioning /
    parallelism, unlike ``random_sample`` whose draw depends on block
    boundaries, which made the hot set — and therefore refined keys and
    pair counts — drift between runs) with the threshold scaled down;
    hot keys are by definition massively over threshold, so sampling
    detects them reliably. Block sizes count every record.

    A refined key ``{key}~{suffix}`` that equals another record's
    unrefined key is planned as two blocks where pair generation sees
    one; normalized names (stages.records) hold no ``~``, so records
    built there never emit such a pair of keys."""
    if max_pairs is None:
        max_pairs = DEFAULT_MAX_PAIRS_PER_BLOCK
    n = records_ds.count()
    sampled = hot_keys is None and n > sample_min_rows
    cut = int(sample_frac * 10_000)
    eff_threshold = max(8, int(threshold * sample_frac * 0.5)) if sampled else threshold
    partials_ds = records_ds.map_batches(
        _plan_partials, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"sampled": sampled, "cut": cut})

    def _plan_rows(t: pa.Table) -> pa.Table:
        return _plan(t, hot_keys, max_pairs, eff_threshold)

    if n <= driver_merge_rows:
        parts = list(partials_ds.iter_batches(batch_size=None, batch_format="pyarrow"))
        plans = [_plan_rows(pa.concat_tables(parts))] if parts else []
    else:
        from ..ops.relational import bucketed_map_groups

        plans = list(bucketed_map_groups(partials_ds, "key", _plan_rows,
                                         batch_format="pyarrow")
                     .iter_batches(batch_size=None, batch_format="pyarrow"))
    if not plans:
        return HotKeys(hot_keys or (), {}, max_pairs)
    plan = pa.concat_tables(plans)
    found, capped = plan.filter(plan["hot"]), plan.filter(pc.invert(plan["hot"]))
    return HotKeys(found["block_key"].to_pylist() if hot_keys is None else hot_keys,
                   zip(capped["block_key"].to_pylist(), capped["dropped"].to_pylist()),
                   max_pairs)


FAMILY_DOI = 1
FAMILY_PATH = 2
FAMILY_HOST = 4
FAMILY_NAME = 8   # an: exact-name and b*: LSH bands


def _family_bits(keys: pa.Array) -> np.ndarray:
    """Each block key's family bit, with a trailing 0 that a -1 code
    indexes. Escaping (:func:`_escape`) leaves the prefixes intact."""
    bits = np.full(len(keys) + 1, FAMILY_NAME, dtype=np.int64)
    bits[-1] = 0
    for prefix, bit in (("doi:", FAMILY_DOI), ("path:", FAMILY_PATH), ("host:", FAMILY_HOST)):
        bits[:-1][pc.starts_with(keys, prefix).to_numpy(zero_copy_only=False)] = bit
    return bits


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


def _pair_codes(t: pa.Table, max_pairs: int):
    """Every block's own pairs in key rows (an Arrow table of one or
    more whole blocks), on integer codes. Returns the key dictionary, the record ids in sorted order,
    each row's record rank in that order (so ``left_id < right_id`` is
    an int compare), the keys' family bits (:func:`_family_bits`) and
    the pairs as (left rank, right rank, key code, dropped pairs)
    arrays with left < right. Arrow encodes and sorts whole strings,
    NUL-exact.

    A record's repeated key (two equal author names) counts once: one
    row per (key, record), sorted by key then rank, with the first such
    row's DOI flag. Small blocks enumerate the upper triangle of their
    rows; a block over 500 records or over the cap takes the per-key
    path, which samples its virtual pair space (:func:`_pair_sample`).
    In non-DOI blocks, pairs where BOTH records carry a DOI are skipped:
    their outcome is already decided by the DOI itself (equal DOIs
    co-block under the doi: key; different DOIs are a definite
    non-match) — this prunes the dominant both-authoritative share of
    fuzzy blocks without losing a single undecided pair."""
    key = t["block_key"].combine_chunks().dictionary_encode()
    rid = t["record_id"].combine_chunks().dictionary_encode()
    order = pc.sort_indices(rid.dictionary)
    n_keys, n_ids = len(key.dictionary), len(order)
    ranks = np.empty(n_ids, dtype=np.int64)
    ranks[order.to_numpy()] = np.arange(n_ids)
    rank = ranks[rid.indices.to_numpy()]
    fam = _family_bits(key.dictionary)
    rows, first = np.unique(key.indices.to_numpy().astype(np.int64) * n_ids + rank,
                            return_index=True)
    kc, rc, doi = rows // n_ids, rows % n_ids, t["has_doi"].to_numpy()[first]
    sizes = np.bincount(kc, minlength=n_keys)
    big = (sizes > 500) | (sizes * (sizes - 1) // 2 > max_pairs)

    small = np.flatnonzero(~big[kc])
    i, j = group_pairs(kc[small])
    i, j = small[i], small[j]
    keep = (fam[kc[i]] == FAMILY_DOI) | ~(doi[i] & doi[j])
    outs = [(rc[i[keep]], rc[j[keep]], kc[i[keep]], np.zeros(keep.sum(), np.int64))]

    bounds = np.searchsorted(kc, np.arange(n_keys + 1))
    for k in np.flatnonzero(big):
        ids, g_doi = rc[bounds[k]:bounds[k + 1]], doi[bounds[k]:bounds[k + 1]]
        # a doi: block pairs all of its records; elsewhere both-DOI pairs
        # are decided, so only the DOI-less records pair, with each other
        # and with the DOI-carrying ones
        pairing = np.ones(len(ids), bool) if fam[k] == FAMILY_DOI else ~g_doi
        a_ids, b_ids = ids[pairing], ids[~pairing]
        m, d = len(a_ids), len(b_ids)
        total = _virtual_pairs(m, d)
        flat = _pair_sample(total, max_pairs)
        # the virtual pair space: a x a upper triangle first, then a x b
        within = m * (m - 1) // 2
        f1, f2 = flat[flat < within], flat[flat >= within] - within
        iu, ju = _triu_unflatten(f1, m)
        i2, j2 = (f2 // d, f2 % d) if d else (f2, f2)
        left = np.concatenate([a_ids[iu], a_ids[i2]])
        right = np.concatenate([a_ids[ju], b_ids[j2]])
        outs.append((np.minimum(left, right), np.maximum(left, right),
                     np.full(len(flat), k), np.full(len(flat), total - len(flat))))
    return (key.dictionary, rid.dictionary.take(order), rank, fam,
            tuple(np.concatenate(c) for c in zip(*outs)))


def _pair_frame(ids, keys, left, right, kc, dropped, families) -> pa.Table:
    """Pair rows from codes, the strings gathered by Arrow ``take``."""
    return pa.table({"left_id": ids.take(left), "right_id": ids.take(right),
                     "block_key": keys.take(kc), "dropped_pairs": dropped,
                     "families": families})


def _pairs_for_bucket(t: pa.Table, max_pairs: int) -> pd.DataFrame:
    """Every block key's own pairs in key rows, each with
    its block's ``dropped_pairs`` and family bit (:func:`_pair_codes`)."""
    keys, ids, _, fam, (left, right, pk, dropped) = _pair_codes(t, max_pairs)
    return _pair_frame(ids, keys, left, right, pk, dropped, fam[pk]).to_pandas()


# pairs per owner-probe chunk: the probe's matrices are chunk x the
# widest key list, not pairs x it
_PROBE_ROWS = 16_384


def _owned_pairs(t: pa.Table, max_pairs: int, capped=None, records_ref=None) -> pa.Table:
    """The pairs of the key rows' blocks (:func:`_pair_codes`) that each
    block OWNS, as an Arrow table (scoring reads Arrow batches). The
    rows may hold any number of whole blocks: a sort partition of the
    pair shuffle holds one or more buckets. The blocks that emit a pair
    are the keys both its records carry, less the non-``doi:`` keys
    when both carry a DOI and the capped keys whose sample dropped the
    pair; the smallest of them owns it. The owner's row gets the OR of
    their family bits and the largest of their ``dropped_pairs``, so
    each pair is emitted once, as the row its blocks' copies would
    deduplicate to.

    Each record's key list (:func:`key_lists`) is the rows'
    ``record_keys`` column when they carry one (a repeated id keeps the
    first list its partition sees), else it is looked up by id in the
    broadcast table ``records_ref`` (stages.score.broadcast_records)
    through the per-worker id index scoring also reads. The probe runs
    in chunks of ``_PROBE_ROWS`` pairs.

    ``capped`` is ``None`` or (``{escaped key: dropped pairs}``, the set
    of ``(escaped key, left_id, right_id)`` each capped block keeps).
    Record ids are taken to be unique (page URLs and work ids are, in
    every input here)."""
    keys, ids, rank, _, (left, right, pk, none) = _pair_codes(t, max_pairs)
    if not len(left):
        return _pair_frame(ids, keys, left, right, pk, none, none)
    # one key-code list per record (rank): its packed keys split once
    # and encoded once, padded with -1, which indexes the sentinel
    # appended to every per-key array
    _, first = np.unique(rank, return_index=True)
    has_doi = t["has_doi"].to_numpy()[first]
    if "record_keys" in t.column_names:
        packed = t["record_keys"].combine_chunks().take(first)
    else:
        from .score import _get_records

        _, ids_index, lists = _get_records(records_ref)
        packed = lists.take(ids_index.get_indexer(ids.to_pandas()))
    lists = pc.split_pattern(packed, _SEP)
    offsets = lists.offsets.to_numpy().astype(np.int64)
    owner = pc.list_parent_indices(lists).to_numpy().astype(np.int64)
    enc = pc.list_flatten(lists).dictionary_encode()
    listed, key_code = enc.dictionary, enc.indices.to_numpy().astype(np.int64)
    codes = np.full((len(ids), np.diff(offsets).max()), -1, dtype=np.int64)
    codes[owner, np.arange(len(owner)) - offsets[owner]] = key_code
    # every record's (rank, key code) as one sorted int64: a pair's
    # right record carries a key when a probe finds it there
    held = np.sort(owner * len(listed) + key_code)
    fam = _family_bits(listed)
    drops, kept = capped or ({}, ())
    dropped = np.zeros(len(listed) + 1, dtype=np.int64)
    if drops:
        at = pc.index_in(listed, value_set=pa.array(list(drops), pa.string())).fill_null(-1)
        at = at.to_numpy().astype(np.int64)
        dropped[:-1][at >= 0] = np.array(list(drops.values()), np.int64)[at[at >= 0]]
    own_code = pc.index_in(_escaped(keys), value_set=listed).to_numpy().astype(np.int64)

    own = np.zeros(len(left), dtype=bool)
    most, bits = np.zeros(len(left), np.int64), np.zeros(len(left), np.int64)
    names = None
    for start in range(0, len(left), _PROBE_ROWS):
        at = slice(start, start + _PROBE_ROWS)
        lo, ro = left[at], right[at]
        lc = codes[lo]
        probe = ro[:, None] * len(listed) + lc
        # emits[p, j]: the j-th key of the pair's left record emits the pair
        emits = ((held[np.minimum(np.searchsorted(held, probe), len(held) - 1)] == probe)
                 & (lc >= 0)
                 & ~((has_doi[lo] & has_doi[ro])[:, None] & (fam[lc] != FAMILY_DOI)))
        capped_cells = np.nonzero(emits & (dropped[lc] > 0))
        if len(capped_cells[0]) and names is None:
            names = listed.to_pylist(), ids.to_pylist()
        for p, j in zip(*capped_cells):
            if (names[0][lc[p, j]], names[1][lo[p]], names[1][ro[p]]) not in kept:
                emits[p, j] = False
        # the lists are sorted, so the first emitting key is the owner
        own[at] = lc[np.arange(len(lo)), emits.argmax(axis=1)] == own_code[pk[at]]
        most[at] = np.where(emits, dropped[lc], 0).max(axis=1)
        bits[at] = np.bitwise_or.reduce(np.where(emits, fam[lc], 0), axis=1)
    return _pair_frame(ids, keys, left[own], right[own], pk[own], most[own], bits[own])


def candidate_pairs(records_ds, hot_keys=frozenset(), max_pairs_per_block=None,
                    records_ref=None):
    """records -> candidate pairs (left_id < right_id), one row per pair:
    the smallest of the block keys that emit it, the largest of their
    ``dropped_pairs`` and the OR of their family bits. Block keys are
    the records' own (:func:`with_block_keys`), refined by ``hot_keys``
    (:func:`find_hot_keys`' set, a plain value). The per-block cap
    defaults to DEFAULT_MAX_PAIRS_PER_BLOCK, read at call time as
    :func:`block_caps` reads it.

    ONE shuffle: the :func:`key_rows` sorted by the hash of their block
    key (ops.relational.bucketed_map_groups in its Arrow form), and
    each sort partition emits only the pairs its blocks own
    (:func:`_owned_pairs`, one call per partition). A pair is tested at
    its smallest shared key, the way a prefix-filter similarity join
    checks a pair only at its first common prefix token, so no shuffle
    is needed to deduplicate pairs that several blocks share. The
    partitions are fixed, equal ranges of the key hash, one per records
    block up to 4 x the cluster's CPUs (ops.relational._shuffle_buckets),
    and each is one task, which the e2e run's scoring fuses onto.

    The owner test needs each record's key list. ``records_ref`` is the
    scoring broadcast (stages.score.broadcast_records of
    stages.score.pack_attrs over these records and ``hot_keys``), which
    carries them: the key rows are then (block_key, record_id, has_doi)
    only, and the owner test looks the lists up by id. Without it every
    key row carries its record's list.

    Whether a capped block kept a pair is not local to the other blocks
    of the pair, so capped blocks are planned first: ``hot_keys`` from
    :func:`find_hot_keys` carries them at the default cap, and a plain
    set or another cap runs :func:`find_hot_keys` once. Carried caps are
    trusted as they are: ``hot_keys`` must have been planned on these
    same ``records_ds``. Only when a block
    is capped are the capped blocks' key rows collected and their kept
    pairs computed here; they ship with the partition function to every
    owner test."""
    from ..ops.relational import bucketed_map_groups

    if max_pairs_per_block is None:
        max_pairs_per_block = DEFAULT_MAX_PAIRS_PER_BLOCK
    capped = None
    drops = _caps(records_ds, hot_keys, max_pairs_per_block)
    if drops:
        names = pa.array(list(drops), pa.string())
        rows = pa.concat_tables(key_rows_ds(records_ds, hot_keys).map_batches(
            lambda t: t.filter(pc.is_in(t["block_key"], value_set=names)),
            batch_format="pyarrow").iter_batches(batch_size=None, batch_format="pyarrow"))
        kept = _pairs_for_bucket(rows, max_pairs_per_block)
        capped = ({_escape(k): n for k, n in drops.items()},
                  set(zip(kept["block_key"].map(_escape), kept["left_id"],
                          kept["right_id"])))
    return bucketed_map_groups(
        key_rows_ds(records_ds, hot_keys, record_keys=records_ref is None), "block_key",
        lambda t: _owned_pairs(t, max_pairs_per_block, capped, records_ref),
        batch_format="pyarrow")


def _caps(records_ds, hot_keys, max_pairs: int) -> dict:
    """Capped block key -> pairs its cap drops: read off ``hot_keys``
    when :func:`find_hot_keys` planned it at ``max_pairs``, else planned
    once for this hot set and cap."""
    if not (isinstance(hot_keys, HotKeys) and hot_keys.max_pairs == max_pairs):
        hot_keys = find_hot_keys(records_ds, hot_keys=hot_keys, max_pairs=max_pairs)
    return hot_keys.caps


def block_caps(records_ds, hot_keys=frozenset()) -> dict:
    """Capped block key -> pairs its cap dropped, for the blocks
    :func:`candidate_pairs` builds from the same records and hot keys at
    its default cap.

    Computed from block sizes, not read off the pairs: a pair keeps the
    smallest of its block keys but the largest ``dropped_pairs`` of its
    blocks, so grouping pairs by key credits a capped block's drops to
    every smaller key that co-blocks one of its sampled pairs. The sizes
    are :func:`find_hot_keys`': read off :func:`find_hot_keys`' result, so
    a report over a run's hot keys executes nothing more. As in
    :func:`candidate_pairs`, carried caps hold only when ``hot_keys``
    was planned on these same ``records_ds``."""
    return _caps(records_ds, hot_keys, DEFAULT_MAX_PAIRS_PER_BLOCK)
