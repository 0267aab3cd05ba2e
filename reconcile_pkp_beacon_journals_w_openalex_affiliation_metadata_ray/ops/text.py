"""Text-analysis operators over a documents table (doc_id, text, ...).

Training-data-pipeline staples, all vectorized per batch:
- token counting (whitespace split — the SQL-parity definition — plus a
  BPE-ish word/punct regex count),
- quality scoring (length / punctuation / uppercase / digit / stopword
  ratios),
- language ID (stopword-overlap heuristic over a fixed per-language
  function-word table; pure n-gram/stopword heuristic, no model),
- document fingerprinting (md5 content hash for SQL parity + winnowing
  rolling-hash fingerprints from functions.minhash).
"""

from __future__ import annotations

import hashlib
import re

import pandas as pd

from ..functions.minhash import rolling_fingerprints, simhash_batch

_WORD_RE = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")
_UPPER_RE = re.compile(r"[A-Z]")
_DIGIT_RE = re.compile(r"[0-9]")
_PUNCT_RE = re.compile(r"[^\w\s]")

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "for", "it", "with", "was", "on"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "los", "las", "por", "con", "para"},
    "pt": {"o", "a", "de", "que", "e", "em", "um", "uma", "os", "as", "por", "com", "para"},
    "fr": {"le", "la", "de", "et", "les", "des", "un", "une", "du", "en", "est", "que", "pour"},
    "de": {"der", "die", "das", "und", "in", "den", "von", "zu", "mit", "ist", "des", "ein"},
    "id": {"yang", "dan", "di", "dengan", "untuk", "dari", "pada", "ini", "itu", "ke", "adalah"},
}


def token_counts(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """n_tokens = whitespace-token count (== SQL string_split_regex on
    trimmed text); n_words = BPE-ish regex token count."""
    texts = batch[text_col].fillna("")
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": texts.map(lambda t: len(t.split())).astype("int64"),
            "n_words": texts.map(lambda t: len(_WORD_RE.findall(t))).astype("int64"),
        }
    )


def quality_scores(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Deterministic quality features. Ratios rounded to 6 decimals
    (stable across float paths, matches the SQL oracle's ROUND)."""
    texts = batch[text_col].fillna("")
    n_chars = texts.str.len().astype("int64")
    n_tokens = texts.map(lambda t: len(t.split())).astype("int64")
    n_upper = texts.map(lambda t: len(_UPPER_RE.findall(t))).astype("int64")
    n_digit = texts.map(lambda t: len(_DIGIT_RE.findall(t))).astype("int64")
    n_punct = texts.map(lambda t: len(_PUNCT_RE.findall(t))).astype("int64")
    denom = n_chars.where(n_chars > 0, 1)
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_chars": n_chars,
            "n_tokens": n_tokens,
            "upper_ratio": (n_upper / denom).round(6),
            "digit_ratio": (n_digit / denom).round(6),
            "punct_ratio": (n_punct / denom).round(6),
        }
    )


def lang_id(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Stopword-overlap language guess; 'und' (undetermined) when no
    language scores > 0. Ties break alphabetically (deterministic)."""
    def guess(t: str) -> str:
        toks = set(w.lower() for w in t.split())
        best_lang, best = "und", 0
        for lang in sorted(_STOPWORDS):
            score = len(toks & _STOPWORDS[lang])
            if score > best:
                best, best_lang = score, lang
        return best_lang

    return pd.DataFrame(
        {"doc_id": batch["doc_id"], "lang_pred": batch[text_col].fillna("").map(guess)}
    )


def fingerprints(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """md5 hex content hash (SQL-parity via duckdb md5()) + winnowing
    fingerprint count + 64-bit simhash hex."""
    texts = batch[text_col].fillna("")
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "md5": texts.map(lambda t: hashlib.md5(t.encode("utf-8")).hexdigest()),
            "n_fingerprints": texts.map(lambda t: len(rolling_fingerprints(t))).astype("int64"),
            "simhash": [f"{h:016x}" for h in
                        simhash_batch(texts.tolist()).tolist()],
        }
    )


_TFIDF_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def _tfidf_tokens(texts: pd.Series) -> pd.Series:
    """Per-row token lists: ASCII alnum runs, lowered AFTER extraction
    (ASCII-only lower() is engine-identical; lowering the raw text
    first would hit unicode case-folding differences, e.g. dotted I)."""
    return texts.fillna("").map(
        lambda t: [w.lower() for w in _TFIDF_TOKEN_RE.findall(t)])


def term_frequencies(batch: pd.DataFrame, id_col: str = "doc_id",
                     text_col: str = "text") -> pd.DataFrame:
    """(doc, term) -> tf. Docs are atomic rows, so tf is complete
    per batch — no shuffle."""
    toks = _tfidf_tokens(batch[text_col])
    x = pd.DataFrame({id_col: batch[id_col].repeat(toks.str.len()),
                      "term": [w for ws in toks for w in ws]})
    if x.empty:
        return pd.DataFrame({id_col: pd.Series(dtype=batch[id_col].dtype),
                             "term": pd.Series(dtype=object),
                             "tf": pd.Series(dtype="int64")})
    return x.groupby([id_col, "term"], as_index=False, sort=False).agg(
        tf=("term", "size"))


def tfidf_top_terms(ds, n_docs: int, id_col: str = "doc_id",
                    text_col: str = "text", top_n: int = 3):
    """Top-N characteristic terms per document by tf-idf with a
    RATIONAL idf — score = tf * (N + 1) / (df + 1) — monotone in the
    classic log idf but bit-exact across engines (one integer product
    and one IEEE division; no transcendental whose last ulp differs
    between libm implementations), so every score value-hashes in SQL.

    Two passes over the corpus: (1) per-batch tf (doc-local, no
    shuffle) -> bucketed per-term df reduce; (2) per-batch re-tf +
    score + per-doc top-N against the BROADCAST df table (vocabulary
    is the bounded small side — natural-language vocab grows ~O(corpus
    size^0.5) (Heaps' law), not linearly; for an unbounded key domain
    use a bucketed join instead). Ties break on term ASC (ASCII order,
    engine-identical)."""
    import ray

    from .relational import pre_aggregated

    tf_ds = ds.map_batches(
        lambda b: term_frequencies(b, id_col=id_col, text_col=text_col),
        batch_format="pandas")
    df_tbl = pre_aggregated(tf_ds, "term").to_pandas()
    df_ref = ray.put(dict(zip(df_tbl["term"], df_tbl["n"].astype("int64"))))

    def _score(batch: pd.DataFrame) -> pd.DataFrame:
        tf = term_frequencies(batch, id_col=id_col, text_col=text_col)
        if tf.empty:
            return pd.DataFrame({id_col: pd.Series(dtype=batch[id_col].dtype),
                                 "term": pd.Series(dtype=object),
                                 "tf": pd.Series(dtype="int64"),
                                 "df": pd.Series(dtype="int64"),
                                 "score": pd.Series(dtype="float64")})
        dfs = ray.get(df_ref)
        tf["df"] = tf["term"].map(dfs).astype("int64")
        tf["score"] = (tf["tf"] * (n_docs + 1)).astype("float64") / (tf["df"] + 1)
        return (tf.sort_values([id_col, "score", "term"],
                               ascending=[True, False, True], kind="mergesort")
                .groupby(id_col, sort=False).head(top_n))

    return ds.map_batches(_score, batch_format="pandas")


def hash_split(batch: pd.DataFrame, id_col: str = "doc_id",
               boundaries: tuple = (229, 242), salt: str = "split") -> pd.DataFrame:
    """Deterministic train/val/test assignment by content-independent id
    hash — the standard leakage-safe dataset split for training
    pipelines: stable under re-partitioning, resharding and reruns
    (no RNG state to coordinate across workers).

    bucket = first byte pair of md5(salt:id) as an int in [0, 256);
    bucket < boundaries[0] -> 'train', < boundaries[1] -> 'val', else
    'test' (defaults ~89.5/5/5). md5 keeps the rule reproducible in any
    SQL engine (`substr(md5(...), 1, 2)` hex -> int)."""
    def assign(v) -> str:
        h = hashlib.md5(f"{salt}:{v}".encode("utf-8")).hexdigest()
        bucket = int(h[:2], 16)
        if bucket < boundaries[0]:
            return "train"
        if bucket < boundaries[1]:
            return "val"
        return "test"

    return pd.DataFrame({id_col: batch[id_col],
                         "split": batch[id_col].map(assign)})


# --- PII detection / redaction -------------------------------------------

# Both patterns are deliberately RE2-compatible (single greedy runs, no
# lookaround) so DuckDB's regexp_* reproduce the matches bit-for-bit.
_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}")
_PHONE_RE = re.compile(r"\+[0-9]{7,15}")

EMAIL_PATTERN = _EMAIL_RE.pattern
PHONE_PATTERN = _PHONE_RE.pattern


def pii_scrub(batch: pd.DataFrame, id_col: str = "doc_id",
              text_col: str = "text") -> pd.DataFrame:
    """Detect + redact PII (emails, then E.164-ish phone numbers) per
    document. Sequential semantics: emails are replaced with <EMAIL>
    first, phones are counted/replaced on the email-redacted text —
    one well-defined composition both engines can evaluate. Emits match
    counts and the md5 of the redacted text (the redacted corpus itself
    never leaves the workers). Batch-local; no shuffle."""
    texts = batch[text_col].fillna("")
    no_email = texts.map(lambda t: _EMAIL_RE.sub("<EMAIL>", t))
    red = no_email.map(lambda t: _PHONE_RE.sub("<PHONE>", t))
    return pd.DataFrame({
        id_col: batch[id_col],
        "n_emails": texts.map(lambda t: len(_EMAIL_RE.findall(t))).astype("int64"),
        "n_phones": no_email.map(lambda t: len(_PHONE_RE.findall(t))).astype("int64"),
        "n_chars_redacted": red.str.len().astype("int64"),
        "redacted_md5": red.map(lambda t: hashlib.md5(t.encode("utf-8")).hexdigest()),
    })


# --- repetition (Gopher-style) quality signals ---------------------------

def repetition_signals(batch: pd.DataFrame, id_col: str = "doc_id",
                       text_col: str = "text") -> pd.DataFrame:
    """Token-repetition quality signals per document (the Gopher-rules
    family): distinct-token count, the most frequent token (ties break
    on the lexicographically smallest token — byte order, so SQL's
    binary collation agrees), and repetition fractions in integer PPM
    ((x * 1_000_000) // n_tokens) — integer arithmetic is bit-exact
    across engines where a rounded float ratio can straddle a
    half-even/half-away boundary. Batch-local; no shuffle."""
    texts = batch[text_col].fillna("")
    toks = texts.map(str.split)
    x = pd.DataFrame({id_col: batch[id_col].repeat(toks.str.len()),
                      "tok": [w for ws in toks for w in ws]})
    tc = x.groupby([id_col, "tok"], as_index=False, sort=False).agg(n=("tok", "size"))
    agg = tc.groupby(id_col, as_index=False, sort=False).agg(
        n_tokens=("n", "sum"), n_distinct=("n", "size"), mx=("n", "max"))
    top = (tc.sort_values([id_col, "n", "tok"], ascending=[True, False, True],
                          kind="mergesort")
           .groupby(id_col, sort=False).head(1)[[id_col, "tok"]]
           .rename(columns={"tok": "top_token"}))
    out = (pd.DataFrame({id_col: batch[id_col]})
           .merge(agg, on=id_col, how="left").merge(top, on=id_col, how="left"))
    nt = out["n_tokens"].fillna(0).astype("int64")
    nd = out["n_distinct"].fillna(0).astype("int64")
    mx = out["mx"].fillna(0).astype("int64")
    denom = nt.where(nt > 0, 1)
    return pd.DataFrame({
        id_col: out[id_col],
        "n_tokens": nt,
        "n_distinct": nd,
        "top_token": out["top_token"].fillna("").astype(object),
        "top_token_ppm": (mx * 1_000_000 // denom).astype("int64"),
        "dup_token_ppm": ((nt - nd) * 1_000_000 // denom).astype("int64"),
    })


# --- sequence packing (concat-and-chunk) ---------------------------------

def pack_sequences(docs_ds, budget: int = 512, text_col: str = "text",
                   num_ranges: int = 64):
    """GPT-style sequence packing: conceptually concatenate every
    document's tokens in doc_id order and cut the stream every
    ``budget`` tokens; report, per document, its global token offset
    and the [first_seq, last_seq] training-sequence span it lands in.

    The global offset is a distributed exclusive prefix sum
    (:func:`..ops.relational.ordered_cumsum`): only (doc_id, n_tokens)
    pairs ride the scan shuffle — never text. Empty documents occupy
    their boundary sequence (span of one)."""
    import numpy as np

    from .relational import ordered_cumsum

    counts = docs_ds.map_batches(
        lambda b: token_counts(b, text_col=text_col)[["doc_id", "n_tokens"]],
        batch_format="pandas")
    scanned = ordered_cumsum(counts, "doc_id", "n_tokens",
                             num_ranges=num_ranges)

    def _pack(b: pd.DataFrame) -> pd.DataFrame:
        cb = b["cum_before"].astype("int64")
        n = b["n_tokens"].astype("int64")
        span = np.maximum(n.to_numpy(), 1)
        first = (cb // budget).astype("int64")
        last = ((cb + span - 1) // budget).astype("int64")
        return pd.DataFrame({"doc_id": b["doc_id"], "n_tokens": n,
                             "cum_before": cb, "first_seq": first,
                             "last_seq": last,
                             "n_seqs": (last - first + 1).astype("int64")})

    if isinstance(scanned, pd.DataFrame):  # empty-input typed frame
        return _pack(scanned) if len(scanned) else scanned.assign(
            first_seq=pd.Series(dtype="int64"), last_seq=pd.Series(dtype="int64"),
            n_seqs=pd.Series(dtype="int64"))
    return scanned.map_batches(_pack, batch_format="pandas")


def top_bigrams(docs_ds, text_col: str = "text", k: int = 50):
    """Corpus-wide top-k adjacent-token bigrams (count desc, bigram asc
    tie-break — fully deterministic at the k boundary). Tokenization is
    the tf-idf rule (ASCII alnum runs, lowered) so DuckDB re-derives it
    with regexp_extract_all + list_transform.

    Shuffle discipline: the per-batch combiner collapses to one
    (bigram, count) row per distinct bigram per batch; the ONE bucketed
    shuffle moves those partials only. Because bucketing hashes the
    bigram, each bucket holds the COMPLETE count for its bigrams, so a
    per-bucket top-k prune is exact and the driver merges <= buckets*k
    rows."""
    def _part(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tfidf_tokens(batch[text_col])
        grams = [a + " " + b for ws in toks for a, b in zip(ws, ws[1:])]
        if not grams:
            return pd.DataFrame({"bigram": pd.Series(dtype=object),
                                 "n": pd.Series(dtype="int64")})
        vc = pd.Series(grams).value_counts()
        return pd.DataFrame({"bigram": vc.index.to_numpy(),
                             "n": vc.to_numpy().astype("int64")})

    def _bucket_top(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("bigram", as_index=False, sort=False)["n"].sum()
        return (s.sort_values(["n", "bigram"], ascending=[False, True],
                              kind="mergesort").head(k))

    from .relational import bucketed_map_groups

    parts = docs_ds.map_batches(_part, batch_format="pandas")
    tops = bucketed_map_groups(parts, "bigram", _bucket_top).to_pandas()
    return (tops.sort_values(["n", "bigram"], ascending=[False, True],
                             kind="mergesort").head(k).reset_index(drop=True))


# --- inverted index -------------------------------------------------------

def inverted_index(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                   max_postings: int = 1000):
    """Corpus inverted index: term -> (df, postings), postings being
    the comma-joined ASCENDING doc-id list. Terms are the tf-idf
    tokenization (ASCII alnum runs, lowered after extraction) so the
    same SQL re-derivation applies.

    The shuffle payload is the distinct (term, doc_id) pair set — the
    honest minimum for posting-list construction (per-batch dedup is
    the combiner). Mega-terms (stopwords) are deterministically
    truncated to the ``max_postings`` SMALLEST doc ids with the drop
    LOGGED (no-silent-caps rule: ``df`` always remains the full
    distinct-document count, so truncation is visible in the output
    itself as df > n_postings)."""
    import logging

    logger = logging.getLogger(__name__)

    def _pairs(batch: pd.DataFrame) -> pd.DataFrame:
        toks = _tfidf_tokens(batch[text_col])
        x = pd.DataFrame({id_col: batch[id_col].repeat(toks.str.len()),
                          "term": [w for ws in toks for w in ws]})
        if x.empty:  # typed empty — a bare [] column would drift to float64
            return pd.DataFrame({id_col: pd.Series(dtype=batch[id_col].dtype),
                                 "term": pd.Series(dtype=object)})
        return x.drop_duplicates()

    def _build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates().sort_values(["term", id_col], kind="mergesort")
        sizes = g.groupby("term", sort=False)[id_col].size()
        kept = g.groupby("term", sort=False).head(max_postings)
        n_dropped = len(g) - len(kept)
        if n_dropped:
            logger.warning(
                "inverted_index: %d posting entries beyond max_postings=%d "
                "truncated (df still counts them)", n_dropped, max_postings)
        ids = kept[id_col].astype("int64").astype(str)
        postings = ids.groupby(kept["term"].to_numpy(), sort=False).agg(",".join)
        return pd.DataFrame({"term": sizes.index.to_numpy(),
                             "df": sizes.to_numpy().astype("int64"),
                             "postings": postings.reindex(sizes.index).to_numpy()})

    from .relational import bucketed_map_groups

    pairs = docs_ds.map_batches(_pairs, batch_format="pandas")
    return bucketed_map_groups(pairs, "term", _build)


def rare_token_stats(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Per-document corpus-frequency quality signal (the rare-token
    family of training-data filters: documents whose tokens are
    globally rare are likelier OCR noise / boilerplate-free unique
    text): for each doc's DISTINCT term set, the count, the minimum
    corpus document-frequency and the df sum — all integers, so every
    value hash-matches a SQL re-derivation. Pass 1 reuses the tf
    combiner + bucketed df reduce; pass 2 re-tokenizes per batch and
    aggregates per doc WITHIN the batch against the broadcast df table
    (docs are atomic rows — no shuffle; vocabulary is the bounded
    small side, Heaps' law as in tfidf_top_terms)."""
    import ray

    from .relational import pre_aggregated

    tf_ds = ds.map_batches(
        lambda b: term_frequencies(b, id_col=id_col, text_col=text_col),
        batch_format="pandas")
    df_tbl = pre_aggregated(tf_ds, "term").to_pandas()
    df_ref = ray.put(dict(zip(df_tbl["term"], df_tbl["n"].astype("int64"))))

    def _stats(batch: pd.DataFrame) -> pd.DataFrame:
        tf = term_frequencies(batch, id_col=id_col, text_col=text_col)
        if tf.empty:
            return pd.DataFrame({id_col: pd.Series(dtype=batch[id_col].dtype),
                                 "n_terms": pd.Series(dtype="int64"),
                                 "min_df": pd.Series(dtype="int64"),
                                 "sum_df": pd.Series(dtype="int64")})
        tf["df"] = tf["term"].map(ray.get(df_ref)).astype("int64")
        out = tf.groupby(id_col, as_index=False, sort=False).agg(
            n_terms=("term", "size"), min_df=("df", "min"),
            sum_df=("df", "sum"))
        for c in ("n_terms", "min_df", "sum_df"):
            out[c] = out[c].astype("int64")
        return out

    return ds.map_batches(_stats, batch_format="pandas")


def chunk_tokens(batch: pd.DataFrame, window: int = 64, stride: int = 48,
                 id_col: str = "doc_id",
                 text_col: str = "text") -> pd.DataFrame:
    """Overlapping fixed-token-window chunking (LLM context-window
    prep): each document is split into whitespace tokens and re-emitted
    as windows of ``window`` tokens starting every ``stride`` tokens
    (starts = 0, stride, 2*stride, ... while start < n_tokens; the last
    window may be short). Documents with no tokens emit nothing. Docs
    are atomic rows, so this is a pure per-batch flat-map — no shuffle;
    at 100 TB the output fan-out is bounded by window/stride and the
    stage streams. Token rule matches :func:`token_counts` (str.split
    == SQL regexp_split_to_array on trimmed text)."""
    ids, idxs, starts, lens, texts = [], [], [], [], []
    for i, t in zip(batch[id_col], batch[text_col].fillna("")):
        toks = t.split()
        n = len(toks)
        for ci, s in enumerate(range(0, n, stride)):
            w = toks[s:s + window]
            ids.append(i)
            idxs.append(ci)
            starts.append(s)
            lens.append(len(w))
            texts.append(" ".join(w))
    return pd.DataFrame({id_col: pd.Series(ids, dtype="int64"),
                         "chunk_idx": pd.Series(idxs, dtype="int64"),
                         "start_tok": pd.Series(starts, dtype="int64"),
                         "n_chunk_tokens": pd.Series(lens, dtype="int64"),
                         "chunk_text": pd.Series(texts, dtype=object)})


# per-worker decoded benchmark-gram set, keyed by the ObjectRef hex —
# the Arrow table rides plasma zero-copy; the Python set is built once
# per worker, not once per batch
_BENCH_SET_CACHE: dict = {}


def ngram_contamination(docs_ds, bench_ds, id_col: str = "doc_id",
                        text_col: str = "text", n: int = 5):
    """Benchmark decontamination — the training-data hygiene pass every
    LLM corpus needs (public practice: GPT-3 appendix C / PaLM /
    FineWeb decontamination): flag every candidate document sharing at
    least one word ``n``-gram with a benchmark/eval corpus. Returns one
    row per candidate doc: (id, n_hits = count of DISTINCT benchmark
    grams it contains, contaminated).

    Scale shape: the benchmark side is SMALL BY DEFINITION (eval sets
    are MBs while the corpus is TBs) — its distinct grams reduce
    through a per-batch set combiner + one bucketed distinct, then ride
    the object store ONCE as an Arrow table (`ray.put`, zero-copy to
    every worker; the Python set is decoded once per worker, cached).
    The candidate corpus streams through a stateless flag stage — no
    shuffle touches it. If the benchmark gram set ever outgrows worker
    heap, swap the broadcast for ops.relational.bloom_semi_join on the
    gram column (same no-false-negative contract requires a verify
    pass there)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from .relational import distinct

    def _grams_of(t: str) -> set:
        toks = t.split()
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    def _bench_grams(b: pd.DataFrame) -> pd.DataFrame:
        out = set()
        for t in b[text_col].fillna(""):
            out |= _grams_of(t)
        return pd.DataFrame({"g": sorted(out)})

    gdf = distinct(bench_ds.map_batches(_bench_grams, batch_format="pandas"),
                   ["g"]).to_pandas()
    if gdf.empty or "g" not in gdf.columns:
        gdf = pd.DataFrame({"g": pd.Series(dtype=object)})
    gref = ray.put(pa.table({"g": pa.array(gdf["g"], type=pa.string())}))

    def _flag(b: pd.DataFrame) -> pd.DataFrame:
        key = gref.hex()
        gs = _BENCH_SET_CACHE.get(key)
        if gs is None:
            gs = set(ray.get(gref).column("g").to_pylist())
            _BENCH_SET_CACHE.clear()
            _BENCH_SET_CACHE[key] = gs
        hits = [len(_grams_of(t) & gs) for t in b[text_col].fillna("")]
        h = np.asarray(hits, dtype="int64")
        return pd.DataFrame({id_col: b[id_col].astype("int64").to_numpy(),
                             "n_hits": h, "contaminated": h > 0})

    return docs_ds.map_batches(_flag, batch_format="pandas")


def temperature_resample(docs_ds, group_col: str = "lang",
                         id_col: str = "doc_id", seed: str = "resample"):
    """Temperature-based group rebalancing — the multilingual
    data-mixing recipe (mBERT / XLM-R exponential smoothing, public,
    at temperature alpha = 0.5): group g is downsampled at rate

        rate_g = sqrt(n_min / n_g)

    so the smallest group is fully kept and head groups shrink toward
    balance. The keep decision is a deterministic md5 coin per id
    (first 13 hex digits / 2^52 < rate) — stable under resharding and
    bit-reproducible in SQL: sqrt and float division are correctly
    rounded per IEEE-754, and the 52-bit hash fraction is exact, so
    both engines flag identical rows (the reason this uses sqrt rather
    than a general pow(x, alpha), which libm does NOT correctly round).

    Scale shape: group counts reduce through the per-batch combiner of
    relational.pre_aggregated (O(groups x batches) partial rows); the
    tiny rate table closure-captures into a stateless streaming flag
    pass. The corpus itself never shuffles. Output: one row per doc
    (id, group, rate, kept)."""
    import math

    from .relational import pre_aggregated

    counts = pre_aggregated(
        docs_ds.map_batches(lambda b: b[[group_col]].dropna(),
                            batch_format="pandas"),
        [group_col], counts=True).to_pandas()
    if counts.empty:
        rates = {}
    else:
        nmin = int(counts["n"].min())
        rates = {g: math.sqrt(float(nmin) / float(n))
                 for g, n in zip(counts[group_col], counts["n"])}

    def _flag(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[id_col, group_col]].dropna()
        empty = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              group_col: pd.Series(dtype=object),
                              "rate": pd.Series(dtype="float64"),
                              "kept": pd.Series(dtype=bool)})
        if b.empty:
            return empty
        frac = b[id_col].map(lambda v: int(hashlib.md5(
            f"{seed}:{v}".encode("utf-8")).hexdigest()[:13], 16)
            / 4503599627370496.0).to_numpy(dtype="float64")
        rate = b[group_col].map(rates).to_numpy(dtype="float64")
        return pd.DataFrame({id_col: b[id_col].astype("int64").to_numpy(),
                             group_col: b[group_col].to_numpy(),
                             "rate": rate, "kept": frac < rate})

    return docs_ds.map_batches(_flag, batch_format="pandas")
