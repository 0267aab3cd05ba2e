"""Unit tests for the generic operator library (ops/) against
independent pandas/numpy oracles."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
    dedup as dedup_ops,
    multimodal,
    relational,
    similarity_search,
    text as text_ops,
)


@pytest.fixture(scope="module")
def rds(ray_session):
    import ray.data as rd

    return rd


def _sorted(df, cols=None):
    df = df if isinstance(df, pd.DataFrame) else df.to_pandas()
    sort_cols = cols or list(df.columns)
    return (df.sort_values(sort_cols, kind="mergesort")
            .reset_index(drop=True)[sorted(df.columns, key=list(df.columns).index)])


def test_broadcast_join_modes(rds):
    big = rds.from_pandas(pd.DataFrame({"k": [1, 2, 3, 4, 2], "v": list("abcde")}))
    small = pd.DataFrame({"k": [2, 3, 9], "w": ["x", "y", "z"]})
    inner = _sorted(relational.broadcast_join(big, small, on="k", how="inner").to_pandas())
    oracle = _sorted(pd.DataFrame({"k": [1, 2, 3, 4, 2], "v": list("abcde")})
                     .merge(small, on="k", how="inner"))
    pd.testing.assert_frame_equal(inner, oracle, check_dtype=False)

    semi = _sorted(relational.broadcast_join(big, small, on="k", how="semi").to_pandas())
    assert semi["k"].tolist() == [2, 2, 3]
    anti = _sorted(relational.broadcast_join(big, small, on="k", how="anti").to_pandas())
    assert anti["k"].tolist() == [1, 4]

    left = relational.broadcast_join(big, small, on="k", how="left").to_pandas()
    assert len(left) == 5 and left["w"].isna().sum() == 2


def test_bucket_join_matches_pandas(rds):
    rng = np.random.RandomState(0)
    ldf = pd.DataFrame({"k": rng.randint(0, 50, 500), "a": rng.rand(500)})
    rdf = pd.DataFrame({"k": rng.randint(0, 50, 300), "b": rng.rand(300)})
    got = _sorted(relational.bucket_join(rds.from_pandas(ldf), rds.from_pandas(rdf),
                                         on="k").to_pandas())
    want = _sorted(ldf.merge(rdf, on="k", how="inner"))
    pd.testing.assert_frame_equal(got.round(9), want.round(9), check_dtype=False)


def test_bucketed_map_groups_covers_all_keys(rds):
    df = pd.DataFrame({"k": [f"k{i % 17}" for i in range(200)], "v": range(200)})

    def fn(bucket):
        return bucket.groupby("k", as_index=False).agg(s=("v", "sum"))

    got = _sorted(relational.bucketed_map_groups(rds.from_pandas(df), "k", fn).to_pandas())
    want = _sorted(df.groupby("k", as_index=False).agg(s=("v", "sum")))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_cogroup_sides_keep_declared_dtypes(rds):
    """cogroup hands fn each side in its own columns and declared dtypes
    — the union NaN-pads the left's int64 payload with the right's
    extra columns and vice versa — and a TYPED empty frame for a side
    with no rows in the partition. Besides the two-sided run, one run
    has a right side with no rows and one a left side with none, so
    both one-sided calls happen whatever the partitions hold."""
    left = pd.DataFrame({"k": np.arange(40) % 20, "a": np.arange(40)})
    right = pd.DataFrame({"k": np.arange(10, 30), "b": [f"s{i}" for i in range(20)],
                          "c": np.linspace(0.0, 1.0, 20)})

    def _sig(df):
        return ",".join(f"{c}:{t}" for c, t in df.dtypes.items())

    def fn(lf, rf):
        return pd.DataFrame({"n_l": [len(lf)], "n_r": [len(rf)],
                             "l_sig": [_sig(lf)], "r_sig": [_sig(rf)],
                             "l_sum": [int(lf["a"].sum())]})

    def run(lf, rf):
        return relational.cogroup(rds.from_pandas(lf, override_num_blocks=3),
                                  rds.from_pandas(rf, override_num_blocks=2),
                                  "k", fn).to_pandas()

    both = run(left, right)
    got = pd.concat([both, run(left, right.iloc[:0]), run(left.iloc[:0], right)])
    assert set(got["l_sig"]) == {"k:int64,a:int64"}
    assert set(got["r_sig"]) == {"k:int64,b:object,c:float64"}
    assert ((got["n_l"] > 0) & (got["n_r"] == 0)).any()
    assert ((got["n_l"] == 0) & (got["n_r"] > 0)).any()
    assert both["n_l"].sum() == len(left) and both["n_r"].sum() == len(right)
    assert both["l_sum"].sum() == left["a"].sum()


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
def test_shuffle_calls_once_per_sort_partition(rds, batch_format):
    """bucketed_map_groups calls ``fn`` at most once per sort partition
    (a small input gets no more partitions than it has blocks, however
    many CPUs the session has), never with 0 rows, with
    several keys per call, and with every row of a key in one call, in
    both batch formats; a 0-row input block changes none of it."""
    import pyarrow as pa

    frames = [pd.DataFrame({"k": [f"k{i % 60}" for i in range(lo, lo + 150)],
                            "v": np.arange(lo, lo + 150)}) for lo in (0, 150, 300)]
    frames.insert(1, frames[0].iloc[:0])

    def fn(part):
        keys = sorted(set(part["k"].to_pylist() if batch_format == "pyarrow"
                          else part["k"]))
        row = {"n_rows": [len(part)], "n_keys": [len(keys)], "keys": ["|".join(keys)]}
        return pa.table(row) if batch_format == "pyarrow" else pd.DataFrame(row)

    calls = relational.bucketed_map_groups(rds.from_pandas(frames), "k", fn,
                                           batch_format=batch_format).to_pandas()
    assert 1 <= len(calls) <= len(frames)
    assert (calls["n_rows"] > 0).all() and calls["n_rows"].sum() == 450
    assert (calls["n_keys"] > 1).all()
    keys = [k for ks in calls["keys"] for k in ks.split("|")]
    assert len(keys) == len(set(keys)) == 60


def test_no_bucket_count_option():
    """No function in the package takes a bucket-count or block-count
    argument (``num_buckets``, ``max_in_blocks``, ``max_blocks``,
    ``rows_per_block``), and ``adaptive_num_buckets`` and
    ``_shuffle_blocks`` are gone: the keyed shuffles hash into one fixed
    bucket space and pick their own partition count."""
    import ast
    import os

    banned_args = {"num_buckets", "max_in_blocks", "max_blocks", "rows_per_block"}
    banned_names = {"adaptive_num_buckets", "_shuffle_blocks"}
    pkg = os.path.dirname(os.path.dirname(relational.__file__))
    found = []
    for root, _, files in os.walk(pkg):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a = node.args
                    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                    if names & banned_args or node.name in banned_names:
                        found.append(f"{path}:{node.lineno}:{node.name}")
                elif isinstance(node, ast.Name) and node.id in banned_names:
                    found.append(f"{path}:{node.lineno}")
    assert not found, found


def test_keyed_shuffles_never_repartition():
    """Neither ops.relational nor connected_components repartitions:
    the sort behind every keyed shuffle bounds its own output blocks,
    so no coalesce runs before a shuffle or between CC rounds."""
    import ast
    import inspect

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import (
        cluster,
    )

    for src in (inspect.getsource(relational),
                inspect.getsource(cluster.connected_components)):
        calls = [n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute) and n.func.attr == "repartition"]
        assert not calls, [ast.unparse(c) for c in calls]


def test_one_block_input_is_one_partition(rds):
    """A 1-block input gets one sort partition (P = 1 leaves the sort
    to Ray's sampler with no boundaries), so ``fn`` runs once."""
    df = pd.DataFrame({"k": [f"k{i}" for i in range(500)], "v": np.arange(500)})
    ds = rds.from_pandas(df)
    assert ds.materialize().num_blocks() == 1
    calls = relational.bucketed_map_groups(
        ds, "k", lambda part: pd.DataFrame({"n": [len(part)]})).materialize()
    assert calls.num_blocks() == 1
    assert calls.to_pandas()["n"].tolist() == [500]


def test_partition_membership_is_a_function_of_the_key(rds):
    """The keys a partition call sees depend on their hashes only: the
    same 120k distinct keys laid out as 20 blocks and as 40 blocks give
    the same calls (P = min(blocks, 4 x 4 slots) = 16 for both in the
    4-CPU test session), each holding an equal share of the rows."""
    import pyarrow as pa

    n = 120_000
    df = pd.DataFrame({"k": np.arange(n, dtype=np.int64) * 7919})

    def fn(part):
        return pa.table({"n": [part.num_rows], "keys": [part["k"].to_numpy().tobytes()]})

    def calls(blocks):
        ds = rds.from_pandas(df).repartition(blocks).materialize()
        assert ds.num_blocks() == blocks
        got = relational.bucketed_map_groups(ds, "k", fn, batch_format="pyarrow").to_pandas()
        return {frozenset(np.frombuffer(b, np.int64).tolist()) for b in got["keys"]}, got["n"]

    sets20, n20 = calls(20)
    sets40, n40 = calls(40)
    assert len(sets20) == 16 and sets20 == sets40
    assert sum(len(s) for s in sets20) == n
    assert n20.sum() == n and n20.max() / n20.min() <= 1.1
    assert sorted(n20) == sorted(n40)


def test_chained_left_bucket_join_matches_pandas(rds):
    """A how="left" bucket_join's output (NULL right columns on
    unmatched rows) feeding a second bucket_join on an int key: the key
    must stay int64 through the first shuffle, or the second join
    hashes "1.0" vs "1" and silently matches nothing."""
    rng = np.random.RandomState(7)
    a = pd.DataFrame({"k": rng.randint(0, 40, 300), "k2": rng.randint(0, 25, 300),
                      "x": np.arange(300)})
    b = pd.DataFrame({"k": np.arange(0, 40, 2), "y": rng.rand(20)})
    c = pd.DataFrame({"k2": np.arange(25), "z": np.arange(25) * 10})
    first = relational.bucket_join(rds.from_pandas(a, override_num_blocks=4),
                                   rds.from_pandas(b), on="k", how="left")
    got = _sorted(relational.bucket_join(first, rds.from_pandas(c), on="k2").to_pandas(), ["x"])
    want = _sorted(a.merge(b, on="k", how="left").merge(c, on="k2"), ["x"])
    assert got["y"].isna().any()
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)


def test_relational_has_one_shuffle_and_one_side_tag():
    """Every keyed shuffle in the package is the one sort by bucket in
    ops.relational._shuffle_buckets, nothing groups by bucket, and only
    cogroup tags sides."""
    import ast
    import os

    pkg = os.path.dirname(os.path.dirname(relational.__file__))
    shuffles, side_tags = [], []
    for root, _, files in os.walk(pkg):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as fh:
                src = fh.read()
            shuffles.extend([path] * src.count('sort("__bucket"'))
            assert 'groupby("__bucket")' not in src, path
            tree = ast.parse(src)
            allowed = set()
            if path == relational.__file__:
                (cg,) = [n for n in tree.body
                         if isinstance(n, ast.FunctionDef) and n.name == "cogroup"]
                allowed = set(range(cg.lineno, cg.end_lineno + 1))
            side_tags.extend(f"{path}:{node.lineno}" for node in ast.walk(tree)
                             if isinstance(node, ast.Constant) and node.value == "__side"
                             and node.lineno not in allowed)
    assert shuffles == [relational.__file__], shuffles
    assert not side_tags, side_tags


def test_topk_per_group(rds):
    df = pd.DataFrame({"g": [1, 1, 1, 2, 2], "x": [5, 9, 9, 1, 2], "id": [3, 1, 2, 9, 8]})
    got = relational.topk_per_group(rds.from_pandas(df), "g", "x", k=1,
                                    tie_break="id").to_pandas()
    got = _sorted(got, ["g", "x", "id"])
    # group 1: max x=9, tie broken by min id=1; group 2: x=2
    assert got[["g", "x", "id"]].values.tolist() == [[1, 9, 1], [2, 2, 8]]


def test_exact_dedup_finds_planted_duplicates(rds):
    docs = pd.DataFrame({
        "doc_id": range(8),
        "text": ["alpha", "beta", "alpha", "gamma", "beta", "alpha", "", ""],
    })
    got = dedup_ops.exact_dedup(rds.from_pandas(docs)).to_pandas()
    got = _sorted(got, ["doc_id"])
    want = {0: 3, 1: 2, 3: 1, 6: 2}  # kept_id -> n_copies
    assert dict(zip(got.doc_id, got.n_copies)) == want


def test_minhash_lsh_finds_planted_near_dups(rds):
    base = ("the quick brown fox jumps over the lazy dog and keeps running "
            "through the quiet forest while the sun slowly sets behind hills")
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [base,
                 base.replace("quick", "quik"),          # near-dup of 0
                 base,                                     # exact dup of 0
                 "completely different text about databases and query engines"],
    })
    pairs = dedup_ops.minhash_lsh_pairs(rds.from_pandas(docs),
                                        jaccard_threshold=0.7).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs.left_id, pairs.right_id)}
    assert (0, 2) in found and (0, 1) in found and (1, 2) in found
    assert all(3 not in p for p in found)


def test_simhash_pairs_planted(rds):
    base = "word " * 60 + "ending segment alpha beta gamma delta"
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": [base, base, "entirely unrelated content qwerty zxcvb plumbing"],
    })
    pairs = dedup_ops.simhash_pairs(rds.from_pandas(docs)).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs.left_id, pairs.right_id)}
    assert (0, 1) in found
    assert all(2 not in p for p in found)


def test_simhash_pairs_multi_index_equivalent(rds):
    """num_blocks=6/8 (combination multi-index, the large-corpus key
    scheme) must produce byte-identical pairs to the classic 4-block
    keys AND to the brute-force hamming join."""
    import random

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.minhash import (
        simhash_batch,
    )

    random.seed(3)
    vocab = ["".join(random.choice("abcdefghijklmnop") for _ in range(5))
             for _ in range(300)]
    texts = [" ".join(random.choice(vocab) for _ in range(30))
             for _ in range(200)]
    for i in range(0, 190, 10):  # plant 1-token mutations
        w = texts[i].split()
        w[3] = random.choice(vocab)
        texts[i + 1] = " ".join(w)
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})

    def run(b):
        return (dedup_ops.simhash_pairs(rds.from_pandas(df), num_blocks=b)
                .to_pandas().sort_values(["left_id", "right_id"])
                .reset_index(drop=True))

    p4, p6, p8 = run(4), run(6), run(8)
    hs = simhash_batch(texts)
    brute = sorted(
        (i, j, int(bin(int(hs[i]) ^ int(hs[j])).count("1")))
        for i in range(len(texts)) for j in range(i + 1, len(texts))
        if bin(int(hs[i]) ^ int(hs[j])).count("1") <= 3)
    assert list(map(tuple, p4.to_numpy())) == brute
    assert p4.equals(p6) and p4.equals(p8)


def test_embedding_near_dup_planted(rds):
    rng = np.random.RandomState(3)
    base = rng.randn(16)
    vecs = [base, base + rng.randn(16) * 0.01, rng.randn(16), rng.randn(16)]
    ds = rds.from_pandas(pd.DataFrame({"vec_id": range(4),
                                       "embedding": [v.astype("float32").tolist() for v in vecs]}))
    pairs = dedup_ops.embedding_near_dup_pairs(ds, cosine_threshold=0.98).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs.left_id, pairs.right_id)}
    assert (0, 1) in found and len(found) == 1


def test_knn_bruteforce_matches_numpy(rds):
    rng = np.random.RandomState(1)
    mat = rng.randn(200, 8).astype("float64")
    ds = rds.from_pandas(pd.DataFrame({"vec_id": range(200),
                                       "embedding": [v.tolist() for v in mat]}))
    q = mat[:3]
    got = similarity_search.knn_bruteforce(ds, q, [0, 1, 2], k=5)
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qu = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = unit @ qu.T
    for qi in range(3):
        order = np.lexsort((np.arange(200), -sims[:, qi]))[:5]
        want = order.tolist()
        sub = got[got.query_id == qi].sort_values("rank")
        assert sub.neighbor_id.tolist() == want
        assert sub.iloc[0].neighbor_id == qi and sub.iloc[0].cosine == 1.0


def test_knn_ivf_recall(rds):
    rng = np.random.RandomState(2)
    mat = rng.randn(400, 16).astype("float64")
    ds = rds.from_pandas(pd.DataFrame({"vec_id": range(400),
                                       "embedding": [v.tolist() for v in mat]}))
    q = mat[:5]
    exact = similarity_search.knn_bruteforce(ds, q, list(range(5)), k=10)
    approx = similarity_search.knn_ivf(ds, q, list(range(5)), k=10, n_cells=8, nprobe=4)
    recalls = []
    for qi in range(5):
        e = set(exact[exact.query_id == qi].neighbor_id)
        a = set(approx[approx.query_id == qi].neighbor_id)
        recalls.append(len(e & a) / len(e))
    assert sum(recalls) / len(recalls) >= 0.6  # nprobe=4 of 8 cells


def test_text_ops_deterministic(rds):
    docs = pd.DataFrame({"doc_id": [0, 1, 2],
                         "text": ["Hello World 123!", "", "  the and of a to x  "]})
    tok = text_ops.token_counts(docs)
    assert tok.n_tokens.tolist() == [3, 0, 6]
    q = text_ops.quality_scores(docs)
    assert q.n_chars.tolist() == [16, 0, 21]
    assert q.loc[0, "digit_ratio"] == round(3 / 16, 6)
    lang = text_ops.lang_id(docs)
    assert lang.lang_pred.tolist()[2] == "en"
    assert lang.lang_pred.tolist()[1] == "und"
    fp = text_ops.fingerprints(docs)
    import hashlib

    assert fp.md5.tolist()[0] == hashlib.md5(b"Hello World 123!").hexdigest()


def test_media_decoder_plumbing(rds):
    df = pd.DataFrame({"item_id": [1, 2], "payload": [b"\x00\x01binary", b""]})
    out = multimodal.decode_media(rds.from_pandas(df), decoder="fake",
                                  concurrency=(1, 2)).to_pandas()
    assert out.n_bytes.tolist() == [8, 0]
    assert all(out.decode_status == "ok")
    assert all(len(f) == 16 for f in out.features)
    # deterministic features
    out2 = multimodal.decode_media(rds.from_pandas(df), decoder="fake",
                                   concurrency=(1, 2)).to_pandas()
    assert np.allclose(np.vstack(out.features), np.vstack(out2.features))
    with pytest.raises(ValueError):
        multimodal.MediaDecoder(decoder="bogus")
    if multimodal._probe_pil() is None:
        with pytest.raises(NotImplementedError):
            multimodal.MediaDecoder(decoder="real")._decode_one(b"x")


def test_media_decoder_real_routes_through_pil(monkeypatch):
    """decoder="real" must route through PIL when it imports (probed
    once per actor in __init__); a stub PIL proves the routing without
    the dependency. The deps-absent NotImplementedError is covered in
    test_media_decoder_plumbing."""
    import sys
    import types

    class _FakeImg:
        def __init__(self, data):
            self.data = data

        def convert(self, mode):
            assert mode == "L"
            return self

        def resize(self, size, resample=None):
            w, _h = size
            src = self.data or b"\x00"
            return _FakeImg(bytes((src * (w // len(src) + 1))[:w]))

        def __array__(self, dtype=None, copy=None):
            a = np.frombuffer(self.data, dtype=np.uint8).reshape(1, -1)
            return a.astype(dtype) if dtype is not None else a

    image_mod = types.SimpleNamespace(
        open=lambda fp: _FakeImg(fp.read()), NEAREST=0)
    pil_mod = types.ModuleType("PIL")
    pil_mod.Image = image_mod
    monkeypatch.setitem(sys.modules, "PIL", pil_mod)
    monkeypatch.setitem(sys.modules, "PIL.Image", image_mod)

    dec = multimodal.MediaDecoder(decoder="real", feature_dim=8)
    payload = bytes(range(0, 128, 16))
    feat, n = dec._decode_one(payload)
    assert n == 8 and len(feat) == 8
    assert np.isclose(feat[1], 16 / 255.0)


def test_label_centroids_vs_numpy(rds):
    rng = np.random.RandomState(5)
    mat = rng.randn(90, 6)
    labels = rng.randint(0, 3, 90)
    ds = rds.from_pandas(pd.DataFrame({"vec_id": range(90), "label": labels,
                                       "embedding": [v.tolist() for v in mat]}))
    got = similarity_search.label_centroids(ds)
    for _, row in got.iterrows():
        want = mat[labels == row["label"]].mean(axis=0)
        assert np.allclose(row["centroid"], want, atol=1e-6)
        assert row["n"] == int((labels == row["label"]).sum())


def test_minhash_band_shuffle_carries_no_text(rds):
    """Scale invariant: the LSH band exchange moves (band_key, id) only
    — document text through a 16x band explode is petabytes at 100 TB."""
    docs = pd.DataFrame({"doc_id": [0, 1], "text": ["alpha beta gamma", "alpha beta gamma"]})
    bands = dedup_ops.minhash_band_rows(rds.from_pandas(docs))
    assert set(bands.schema().names) == {"band_key", "doc_id"}


def test_embedding_lsh_recall_vs_bruteforce(rds):
    """OR-amplified hyperplane LSH must recover >=90% of the true
    cosine>=0.95 pairs on a shuffled table (the old single-band variant
    missed ~72% of them)."""
    rng = np.random.RandomState(11)
    base = rng.randn(40, 24)
    vecs, ids = [], []
    for i, v in enumerate(base):
        vecs.append(v)
        ids.append(2 * i)
        vecs.append(v + rng.randn(24) * 0.02)  # planted near-dup
        ids.append(2 * i + 1)
    order = rng.permutation(len(vecs))
    df = pd.DataFrame({"vec_id": np.array(ids)[order],
                       "embedding": [vecs[i].tolist() for i in order]})

    unit = np.array(vecs) / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = unit @ unit.T
    truth = {(min(ids[i], ids[j]), max(ids[i], ids[j]))
             for i in range(len(ids)) for j in range(i + 1, len(ids))
             if sims[i, j] >= 0.95}
    assert len(truth) >= 40  # the planted pairs are really there

    got = dedup_ops.embedding_near_dup_pairs(
        rds.from_pandas(df), cosine_threshold=0.95).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(got.left_id, got.right_id)}
    assert not found - truth  # verification is exact: no false positives
    assert len(found & truth) / len(truth) >= 0.9


def test_candidate_pairs_band_width_cap(rds):
    """Oversized bands are truncated deterministically (smallest ids
    kept) instead of going quadratic."""
    keyed = pd.DataFrame({"band_key": ["b"] * 10 + ["c"] * 2,
                          "doc_id": list(range(10)) + [100, 101]})
    out = dedup_ops.candidate_pairs_from_keys(
        rds.from_pandas(keyed), "doc_id", max_band_width=4).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(out.left_id, out.right_id)}
    want_b = {(i, j) for i in range(4) for j in range(i + 1, 4)}  # ids 0..3 kept
    assert pairs == want_b | {(100, 101)}


def test_simhash_pairs_band_width_cap(rds):
    """Oversized simhash sub-key buckets are truncated like LSH bands:
    each key keeps its smallest ids, and the pairs equal a brute-force
    join over those kept ids."""
    import random
    from itertools import combinations

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.minhash import (
        simhash_batch,
    )

    random.seed(5)
    vocab = ["".join(random.choice("abcdefgh") for _ in range(5)) for _ in range(200)]
    hot = " ".join(random.choice(vocab) for _ in range(30))
    texts = [hot] * 12 + [" ".join(random.choice(vocab) for _ in range(30)) for _ in range(30)]
    for i in range(12, 40, 4):  # near-dups of the hot text and of each other
        w = (hot if i < 24 else texts[i]).split()
        w[5] = random.choice(vocab)
        texts[i + 1] = " ".join(w)
    ids = np.random.RandomState(5).permutation(len(texts)).astype(np.int64) * 3
    cap = 5
    out = dedup_ops.simhash_pairs(
        rds.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts})), max_band_width=cap)
    got = sorted(map(tuple, out.to_pandas()[["left_id", "right_id", "hamming"]]
                     .to_numpy().tolist()))

    hs = [int(h) for h in simhash_batch(texts)]
    keys = {}
    for doc_id, h in zip(ids.tolist(), hs):
        for b in range(4):  # num_blocks=4, max_hamming=3: one 16-bit block per key
            keys.setdefault((b, (h >> (16 * b)) & 0xFFFF), []).append(doc_id)
    assert max(map(len, keys.values())) > cap  # the cap really truncates
    h_of = dict(zip(ids.tolist(), hs))
    want = set()
    for members in keys.values():
        for a, b in combinations(sorted(set(members))[:cap], 2):
            d = bin(h_of[a] ^ h_of[b]).count("1")
            if d <= 3:
                want.add((a, b, d))
    assert got == sorted(want)


def test_one_pair_enumerator():
    """Every blocked self-join enumerates its pairs through
    functions.pairs: no frame is merged with itself under ops/ or
    stages/, ``np.triu_indices`` is left only in
    ``_setsim_dense_small_vocab`` (a group x group cross product),
    edit_distance_self_join and jw_self_join (and the
    ``_blocked_self_join`` they share) call no groupby, the
    enumerator's position-in-run arithmetic (``np.arange(...) -
    np.repeat(...)``) appears once in the package (besides
    substring_duplicate_windows, which places each document's windows
    and pairs nothing), and ``distinct_pairs`` is no parameter
    anywhere."""
    import ast
    import os

    pkg = os.path.dirname(os.path.dirname(relational.__file__))
    self_merges, triu, groupbys, run_positions, params = [], [], [], [], []
    for root, _, files in os.walk(pkg):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, pkg)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            spans = {n.name: (n.lineno, n.end_lineno) for n in ast.walk(tree)
                     if isinstance(n, ast.FunctionDef)}

            def inside(node, fn):
                lo, hi = spans.get(fn, (0, -1))
                return lo <= node.lineno <= hi

            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    attr, owner = node.func.attr, node.func.value
                    if (attr == "merge" and rel.split(os.sep)[0] in ("ops", "stages")
                            and isinstance(owner, ast.Name) and node.args
                            and isinstance(node.args[0], ast.Name)
                            and node.args[0].id == owner.id):
                        self_merges.append(f"{rel}:{node.lineno}")
                    if attr == "triu_indices" and not inside(node, "_setsim_dense_small_vocab"):
                        triu.append(f"{rel}:{node.lineno}")
                    if attr == "groupby" and any(inside(node, fn) for fn in (
                            "edit_distance_self_join", "jw_self_join", "_blocked_self_join")):
                        groupbys.append(f"{rel}:{node.lineno}")
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                        and not inside(node, "substring_duplicate_windows")
                        and isinstance(node.right, ast.Call)
                        and getattr(node.right.func, "attr", None) == "repeat"
                        and any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "arange"
                                for n in ast.walk(node.left))):
                    run_positions.append(f"{rel}:{node.lineno}")
                if ((isinstance(node, ast.arg) and node.arg == "distinct_pairs")
                        or (isinstance(node, ast.keyword) and node.arg == "distinct_pairs")):
                    params.append(f"{rel}:{node.lineno}")
    assert not self_merges, self_merges
    assert not triu, triu
    assert not groupbys, groupbys
    assert len(run_positions) == 1 and run_positions[0].startswith(
        os.path.join("functions", "pairs.py")), run_positions
    assert not params, params


def test_running_aggregate_high_cardinality(rds):
    """20k distinct keys through the bucketed path — correctness vs a
    pandas oracle (the per-key map_groups this replaced costs ~0.7 ms
    per key; at this cardinality it took ~15 s, the bucketed path ~2 s)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import windows

    rng = np.random.RandomState(0)
    n = 50_000
    df = pd.DataFrame({
        "user_id": rng.randint(0, 20_000, n),
        "event_id": np.arange(n),
        "ts": pd.Timestamp("2020-01-01") + pd.to_timedelta(rng.randint(0, 10**6, n), unit="s"),
        "value": rng.rand(n),
    })
    got = windows.running_aggregate(rds.from_pandas(df)).to_pandas()
    want = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    want = want.assign(running_sum=want.groupby("user_id", sort=False)["value"]
                       .cumsum().round(6))
    merged = got.merge(want[["event_id", "running_sum"]], on="event_id",
                       suffixes=("", "_want"))
    assert len(merged) == n
    assert np.allclose(merged["running_sum"], merged["running_sum_want"])


def test_topk_per_group_matches_pandas(rds):
    rng = np.random.RandomState(4)
    df = pd.DataFrame({"k": rng.randint(0, 3_000, 20_000),
                       "v": rng.rand(20_000),
                       "id": np.arange(20_000)})
    got = relational.topk_per_group(rds.from_pandas(df), "k", "v", k=2,
                                    tie_break="id").to_pandas()
    want = (df.sort_values(["k", "v", "id"], ascending=[True, False, True],
                           kind="mergesort").groupby("k", sort=False).head(2))
    assert sorted(map(tuple, got[["k", "id"]].to_numpy().tolist())) == \
           sorted(map(tuple, want[["k", "id"]].to_numpy().tolist()))


def test_per_doi_stats_bucketed_equals_pergroup(rds):
    """The vectorized bucketed per-DOI stats must equal the per-group
    reference implementation row for row."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import stats

    rng = np.random.RandomState(9)
    n = 4000
    df = pd.DataFrame({
        "doi": [f"10.1/d{i % 400}" if i % 17 else "" for i in range(n)],
        "exact_author_match": rng.rand(n) < 0.3,
        "normalized_author_match": rng.rand(n) < 0.5,
        "exact_institution_match": rng.rand(n) < 0.2,
        "normalized_institution_match": rng.rand(n) < 0.4,
        "author_similarity_score": (rng.randint(0, 10001, n) / 100.0),
        "institution_similarity_score": (rng.randint(0, 10001, n) / 100.0),
    })
    got = stats.per_doi_stats(rds.from_pandas(df)).to_pandas()
    want = pd.concat([stats._doi_group_stats(g) for _, g in
                      df.groupby("doi", sort=False)], ignore_index=True)
    got = got.sort_values("DOI").reset_index(drop=True)
    want = want.sort_values("DOI").reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_hash_split_deterministic_and_ratioed(rds):
    import hashlib

    df = pd.DataFrame({"doc_id": range(20_000)})
    out = text_ops.hash_split(df)
    again = text_ops.hash_split(df.sample(frac=1.0, random_state=1))  # reshuffled
    merged = out.merge(again, on="doc_id", suffixes=("", "_b"))
    assert (merged["split"] == merged["split_b"]).all()  # order-independent
    frac = out["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 229 / 256) < 0.01
    assert abs(frac["val"] - 13 / 256) < 0.005
    # rule spot-check vs direct md5
    h = int(hashlib.md5(b"split:7").hexdigest()[:2], 16)
    want = "train" if h < 229 else ("val" if h < 242 else "test")
    assert out.loc[out.doc_id == 7, "split"].iloc[0] == want


def test_frame_sampler_chunk_math():
    fs = multimodal.FrameSampler(frame_bytes=4, stride=2)
    out = fs(pd.DataFrame({"doc_id": [0, 1, 2],
                           "payload": [b"abcdefghij", b"", b"abcd"]}))
    # 10 bytes -> frames [abcd, efgh, ij]; stride 2 -> [abcd, ij]
    assert out.loc[0, "n_frames"] == 3
    assert out.loc[0, "n_sampled"] == 2
    assert out.loc[0, "sampled_bytes"] == 6
    assert out.loc[0, "frames"] == [b"abcd", b"ij"]
    assert out.loc[1, ["n_frames", "n_sampled", "sampled_bytes"]].tolist() == [0, 0, 0]
    assert out.loc[2, ["n_frames", "n_sampled", "sampled_bytes"]].tolist() == [1, 1, 4]


def test_embedding_near_dup_verify_paths_equivalent(rds):
    """broadcast and join verification must emit identical pairs and
    cosines (the join path is the no-broadcast 100-TB fallback)."""
    rng = np.random.RandomState(21)
    base = rng.randn(30, 12)
    vecs = []
    ids = []
    for i, v in enumerate(base):
        vecs.append(v); ids.append(2 * i)
        vecs.append(v + rng.randn(12) * 0.02); ids.append(2 * i + 1)
    df = pd.DataFrame({"vec_id": ids, "embedding": [v.tolist() for v in vecs]})

    a = dedup_ops.embedding_near_dup_pairs(rds.from_pandas(df),
                                           cosine_threshold=0.95)
    b = dedup_ops.embedding_near_dup_pairs(rds.from_pandas(df),
                                           cosine_threshold=0.95, verify="join")
    to_df = lambda x: (x if isinstance(x, pd.DataFrame) else x.to_pandas())
    a = to_df(a).sort_values(["left_id", "right_id"]).reset_index(drop=True)
    b = to_df(b).sort_values(["left_id", "right_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert len(a) >= 25


def test_ngram_jaccard_pairs_exact_vs_python(rds):
    """The distributed exact all-pairs op must equal a serial
    brute-force reference, and the MinHash-LSH path must recover >=90%
    of its pairs (LSH is the approximation of exactly this truth)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.similarity import (
        ngram_jaccard,
    )

    rng = np.random.RandomState(13)
    base_words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                  "golf", "hotel", "india", "juliet", "kilo", "lima"]
    texts = []
    for i in range(30):
        t = " ".join(base_words[j] for j in rng.randint(0, 12, 12))
        texts.append(t)
        texts.append(t + " omega")  # planted near-dup
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})

    got = dedup_ops.ngram_jaccard_pairs(rds.from_pandas(docs),
                                        jaccard_threshold=0.7)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    got_pairs = {(int(a), int(b)) for a, b in zip(got.left_id, got.right_id)}

    want = {(i, j) for i in range(len(texts)) for j in range(i + 1, len(texts))
            if ngram_jaccard(texts[i], texts[j]) >= 0.7}
    assert got_pairs == want
    assert len(want) >= 30

    mh = dedup_ops.minhash_lsh_pairs(rds.from_pandas(docs), jaccard_threshold=0.7)
    mh = mh if isinstance(mh, pd.DataFrame) else mh.to_pandas()
    mh_pairs = {(int(a), int(b)) for a, b in zip(mh.left_id, mh.right_id)}
    assert not mh_pairs - want          # LSH emits no false positives
    assert len(mh_pairs & want) / len(want) >= 0.9


def test_split_leakage_detects_planted_duplicates(rds):
    """Duplicate content spread across splits must surface in the
    leakage audit (driver tables have unique texts, so the live query's
    correct answer is empty; this plants real leaks)."""
    import __ray_entry__ as entry

    # 40 ids sharing one text: with ~89.5/5/5 split odds some land in
    # different splits with overwhelming probability (deterministic
    # given the md5 rule — verified below, not assumed)
    df = pd.DataFrame({"doc_id": range(40), "text": ["same text body"] * 40})
    splits = text_ops.hash_split(df)
    assert splits["split"].nunique() > 1  # the plant is real

    import pandas as _pd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        relational as rel,
        text as t_ops,
    )

    ds = rds.from_pandas(df)
    fps = ds.map_batches(t_ops.fingerprints, batch_format="pandas").map_batches(
        lambda b: b[["doc_id", "md5"]], batch_format="pandas")
    sp = ds.map_batches(t_ops.hash_split, batch_format="pandas")
    joined = rel.bucket_join(fps, sp, on="doc_id")

    def _reduce(g):
        agg = g.groupby("md5").agg(n_splits=("split", "nunique"),
                                   n_copies=("split", "size")).reset_index()
        return agg[agg["n_splits"] > 1]

    out = rel.bucketed_map_groups(joined, "md5", _reduce).to_pandas()
    assert len(out) == 1
    assert int(out.iloc[0]["n_copies"]) == 40
    assert int(out.iloc[0]["n_splits"]) == splits["split"].nunique()


def test_empty_bucket_outputs_keep_schema(rds):
    """Every repo per-bucket / per-batch operator must return TYPED
    empty frames for empty or near-empty inputs, so the stream schema
    never drifts. (Ray 2.49's Sort operator itself emits schema-less
    empty blocks for empty partitions — reproducible with pure Ray ops,
    see the note in bench.py — so this test pins the part the repo
    controls: the operator outputs.)"""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import windows

    # one user: one non-empty sort partition
    ev = pd.DataFrame({
        "user_id": [1, 1, 1],
        "event_id": [1, 2, 3],
        "ts": pd.to_datetime(["2024-01-01 00:00", "2024-01-01 00:05",
                              "2024-01-01 09:00"]),
        "value": [1.0, 2.0, 3.0],
    })
    sess = windows.sessionize(rds.from_pandas(ev)).to_pandas()
    assert list(sess.columns) == ["user_id", "session_start", "session_end",
                                  "n_events"]
    assert len(sess) == 2

    run = windows.running_aggregate(rds.from_pandas(ev)).to_pandas()
    assert list(run.columns) == ["user_id", "event_id", "running_sum"]

    # minhash over documents with zero near-dups -> typed empty result
    docs = pd.DataFrame({"doc_id": [1, 2], "text": ["alpha beta gamma", "zzz qqq www"]})
    out = dedup_ops.minhash_lsh_pairs(rds.from_pandas(docs), jaccard_threshold=0.9)
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    assert list(df.columns) == ["left_id", "right_id", "jaccard"]
    assert len(df) == 0

    # candidate pairs over records that share no key -> typed empty
    # result (a 0-row to_pandas drops the columns; the schema keeps them)
    none = _candidate_pairs(rds, {"a": ["x"], "b": ["y"]}).materialize()
    assert none.count() == 0
    assert none.schema().names == ["left_id", "right_id", "block_key",
                                   "dropped_pairs", "families"]


def _candidate_pairs(rds, authors, paths=None, hosts=None):
    """block.candidate_pairs over records keyed only by the given author
    names, URL-path and host keys (no DOI, no LSH bands)."""
    import pyarrow as pa

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import block

    ids = list(authors)
    blank = [""] * len(ids)
    recs = rds.from_arrow(block.with_block_keys(pa.table({
        "record_id": ids, "doi_norm": blank,
        "host_key": [(hosts or {}).get(i, "") for i in ids],
        "path_key": [(paths or {}).get(i, "") for i in ids],
        "name_blob": blank,
        "authors_norm": pa.array([authors[i] for i in ids], pa.list_(pa.string())),
    })))
    return block.candidate_pairs(recs)


def test_candidate_pairs_nul_ids_stay_distinct(rds):
    """pandas factorize/Categorical and multi-column drop_duplicates hash
    strings as C strings, merging ids or keys that differ only after an
    embedded NUL — merged ids silently DROP distinct pairs. Pair
    generation keeps them apart and still picks the lexicographic min
    block_key."""
    out = _candidate_pairs(
        rds,
        # a\x00x / a\x00y share a path block with r, and one name each
        {"a\x00x": ["k1"], "a\x00y": ["k2"], "r": ["k1", "k2"],
         # b / s share a host key and two NUL-divergent name keys
         "b": ["z\x00b", "z\x00a"], "s": ["z\x00b", "z\x00a"]},
        paths={"a\x00x": "p", "a\x00y": "p", "r": "p"},
        hosts={"b": "h", "s": "h"}).to_pandas()
    got = {(lt, rt): (k, d, f) for lt, rt, k, d, f in out.itertuples(index=False)}
    assert len(got) == len(out)  # each pair once
    assert got == {
        ("a\x00x", "a\x00y"): ("path:p", 0, 2),
        ("a\x00x", "r"): ("an:k1", 0, 10),
        ("a\x00y", "r"): ("an:k2", 0, 10),
        # full-string lexicographic min of the keys, OR of host + name bits
        ("b", "s"): ("an:z\x00a", 0, 12),
    }


def test_collect_set_strings_nul_keys(rds):
    """Group boundaries come from full-string adjacent compares, so
    groups differing only after an embedded NUL don't merge."""
    df = pd.DataFrame({"g": ["g\x00a", "g\x00b", "g\x00a", "plain"],
                       "it": ["1", "2", "3", "4"]})
    got = (relational.collect_set_strings(rds.from_pandas(df), "g", "it")
           .to_pandas().sort_values("g").reset_index(drop=True))
    assert len(got) == 3
    by_g = dict(zip(got["g"], got["items"]))
    assert by_g["g\x00a"] == "1|3" and by_g["g\x00b"] == "2"
    assert by_g["plain"] == "4"


def test_asof_join_vs_merge_asof(rds):
    """asof_join over arbitrary partitioning == one global merge_asof."""
    rng = np.random.RandomState(5)
    left = pd.DataFrame({
        "k": rng.randint(0, 20, 300),
        "t": rng.randint(0, 10_000, 300).astype("int64"),
        "lv": np.arange(300),
    })
    right = pd.DataFrame({
        "k": rng.randint(0, 20, 150),
        "t": rng.randint(0, 10_000, 150).astype("int64"),
        "rv": np.arange(150) * 10,
    }).drop_duplicates(["k", "t"])
    got = (relational.asof_join(rds.from_pandas(left, override_num_blocks=5),
                                rds.from_pandas(right, override_num_blocks=3),
                                by="k", on="t")
           .to_pandas().sort_values("lv").reset_index(drop=True))
    want = pd.merge_asof(left.sort_values("t", kind="mergesort"),
                         right.sort_values("t", kind="mergesort"),
                         on="t", by="k", direction="backward")
    want = want.sort_values("lv").reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # unmatched left rows survive with nulls (left-join semantics)
    assert got["rv"].isna().any()


def test_group_quantiles_quantile_disc_parity(rds):
    """group_quantiles == DuckDB quantile_disc (index ceil(q*n)-1)."""
    import duckdb

    rng = np.random.RandomState(11)
    df = pd.DataFrame({"g": rng.randint(0, 7, 500),
                       "v": rng.rand(500).round(4)})
    got = (relational.group_quantiles(rds.from_pandas(df, override_num_blocks=4),
                                      "g", "v", qs=(0.25, 0.5, 0.9))
           .to_pandas().sort_values("g").reset_index(drop=True))
    want = duckdb.sql("""
        SELECT g, quantile_disc(v, 0.25) q25, quantile_disc(v, 0.5) q50,
               quantile_disc(v, 0.9) q90, count(*) n
        FROM df GROUP BY g ORDER BY g""").df()
    pd.testing.assert_frame_equal(
        got[["g", "q25", "q50", "q90", "n"]], want, check_dtype=False)


def test_minhash_verify_paths_equivalent(rds):
    """broadcast-verify and join-verify must emit identical pairs."""
    rng = np.random.RandomState(3)
    base = ["the quick brown fox jumps over the lazy dog " + str(i) for i in range(40)]
    texts = base + [t + " tail" for t in base[:15]]  # 15 near-dups
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ds = rds.from_pandas(df, override_num_blocks=4)
    a = dedup_ops.minhash_lsh_pairs(ds, jaccard_threshold=0.6, verify="broadcast")
    b = dedup_ops.minhash_lsh_pairs(ds, jaccard_threshold=0.6, verify="join")
    a = (a if isinstance(a, pd.DataFrame) else a.to_pandas()).sort_values(
        ["left_id", "right_id"]).reset_index(drop=True)
    b = (b if isinstance(b, pd.DataFrame) else b.to_pandas()).sort_values(
        ["left_id", "right_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert len(a) >= 15


def test_hll_distinct_accuracy_and_mergeability(rds):
    """HLL estimate within the p=12 error envelope; partial merge over
    any partitioning equals the single-pass sketch (mergeable sketch
    property — what makes it a no-shuffle distributed op)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import sketch

    n = 20_000
    vals = pd.DataFrame({"v": np.arange(n) % 7_321})  # 7321 distinct
    res1 = sketch.hll_distinct(rds.from_pandas(vals, override_num_blocks=1), "v")
    res8 = sketch.hll_distinct(rds.from_pandas(vals, override_num_blocks=8), "v")
    assert res1 == res8  # partitioning-invariant
    assert abs(res1["estimate"] - 7_321) / 7_321 < 0.05  # ~3 sigma at 1.6%


def test_tfidf_ranks_rare_terms_over_common(rds):
    """A term unique to one doc outranks corpus-wide boilerplate, and
    the result is partitioning-invariant."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import text as t

    docs = ["common words here zebra", "common words here",
            "common words here", "common words here quark quark"]
    df = pd.DataFrame({"doc_id": range(4), "text": docs})
    outs = []
    for blocks in (1, 3):
        ds = rds.from_pandas(df, override_num_blocks=blocks)
        out = (t.tfidf_top_terms(ds, n_docs=4, top_n=1).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert outs[0].loc[0, "term"] == "zebra"
    assert outs[0].loc[3, "term"] == "quark"
    # doc 1: all terms appear in every doc -> highest tf*(N+1)/(df+1) ties
    # broken by term asc among equal scores
    assert outs[0].loc[1, "df"] == 4


def test_kmeans_recovers_planted_clusters(rds):
    """k-means on 3 well-separated planted clusters recovers the
    partition exactly (assignment agrees with the plant up to label
    permutation), at two partitionings."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import clustering

    rng = np.random.RandomState(11)
    centers = np.array([[0.0] * 8, [50.0] * 8, [-50.0] * 8])
    plant = np.repeat([0, 1, 2], 60)
    X = centers[plant] + rng.randn(180, 8)
    df = pd.DataFrame({"vec_id": np.arange(180),
                       "embedding": [list(map(float, r)) for r in X]})
    for blocks in (1, 6):
        ds = rds.from_pandas(df, override_num_blocks=blocks)
        cent = clustering.kmeans_fit(ds, k=3, iters=5, seed=42)
        got = (clustering.kmeans_assign(ds, cent).to_pandas()
               .sort_values("vec_id").reset_index(drop=True))
        # each planted cluster maps to exactly one learned label
        tab = pd.crosstab(plant, got["cluster"])
        assert (tab.gt(0).sum(axis=1) == 1).all()
        assert got["cluster"].nunique() == 3


def test_bloom_semi_join_exact_under_forced_false_positives(rds):
    """A deliberately tiny bitset (m=256 for 50 keys at k=4) forces
    bloom false positives; both verify paths must still return the
    EXACT semi-join (no false negatives by construction, false
    positives removed by verify), and verify='none' must be a superset
    of it."""
    big = pd.DataFrame({"k": np.arange(1000) % 300, "v": np.arange(1000)})
    keys = pd.DataFrame({"kk": np.arange(0, 300, 6)})  # 50 keys
    exp = big[big.k.isin(keys.kk)].reset_index(drop=True)

    def run(verify, m_bits):
        out = relational.bloom_semi_join(
            rds.from_pandas(big, override_num_blocks=4),
            rds.from_pandas(keys, override_num_blocks=2),
            on="k", small_on="kk", m_bits=m_bits, verify=verify)
        return (out.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
                if out.count() else pd.DataFrame(columns=["k", "v"]))

    for verify in ("broadcast", "join"):
        got = run(verify, m_bits=256)
        pd.testing.assert_frame_equal(
            got, exp.sort_values(["k", "v"]).reset_index(drop=True),
            check_dtype=False)
    superset = run("none", m_bits=256)
    assert len(superset) >= len(exp)
    merged = superset.merge(exp, on=["k", "v"], how="outer", indicator=True)
    assert not (merged["_merge"] == "right_only").any()  # no false negatives


def test_grouped_lag_delta_matches_pandas(rds):
    """grouped_lag_delta == per-key pandas diff at any partitioning."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import windows

    rng = np.random.RandomState(7)
    n = 400
    df = pd.DataFrame({
        "event_id": np.arange(n),
        "user_id": rng.randint(0, 20, n),
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 10**6, n), unit="s"),
    })
    got = (windows.grouped_lag_delta(rds.from_pandas(df, override_num_blocks=5))
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    exp = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    exp["delta_us"] = (exp["ts"].astype("datetime64[us]").astype("int64")
                       .groupby(exp["user_id"], sort=False).diff()
                       .fillna(-1).astype("int64"))
    exp = exp.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, exp[["event_id", "user_id", "delta_us"]], check_dtype=False)


def test_rollup_aggregate_levels(rds):
    """rollup == pandas groupby at each level incl. the grand total."""
    df = pd.DataFrame({
        "a": ["x", "x", "y", "y", "y"],
        "b": ["1", "2", "1", "1", "2"],
        "v": [10, 20, 30, 40, 50],
    })
    out = relational.rollup_aggregate(
        rds.from_pandas(df, override_num_blocks=3), ["a", "b"], sums=("v",))
    total = out[(out.a == "ALL") & (out.b == "ALL")]
    assert total["sum_v"].iloc[0] == 150 and total["n"].iloc[0] == 5
    xa = out[(out.a == "x") & (out.b == "ALL")]
    assert xa["sum_v"].iloc[0] == 30 and xa["n"].iloc[0] == 2
    fine = out[(out.a == "y") & (out.b == "1")]
    assert fine["sum_v"].iloc[0] == 70 and fine["n"].iloc[0] == 2
    assert len(out) == 4 + 2 + 1  # fine grain + per-a + grand


def test_stratified_sample_exact_k_and_partition_invariant(rds):
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources.io import (
        stratified_sample,
    )

    df = pd.DataFrame({"id": np.arange(200), "g": ["a"] * 150 + ["b"] * 47 + ["c"] * 3})
    got1 = stratified_sample(rds.from_pandas(df, override_num_blocks=1),
                             k=5, group_col="g", id_col="id").to_pandas()
    got8 = stratified_sample(rds.from_pandas(df, override_num_blocks=8),
                             k=5, group_col="g", id_col="id").to_pandas()
    s1 = got1.sort_values("id").reset_index(drop=True)
    s8 = got8.sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(s1, s8)
    counts = got1.groupby("g")["id"].count()
    assert counts["a"] == 5 and counts["b"] == 5 and counts["c"] == 3


def test_cms_never_underestimates_and_merges(rds):
    """CMS point estimates are >= the exact counts (one-sided error
    guarantee), exact on a collision-free load, and the partial-sum
    merge is partitioning-invariant (mergeable-sketch property)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import sketch

    vals = pd.DataFrame({"v": np.repeat(np.arange(50), np.arange(1, 51))})
    c1 = sketch.cms_build(rds.from_pandas(vals, override_num_blocks=1), "v", d=4, w=512)
    c8 = sketch.cms_build(rds.from_pandas(vals, override_num_blocks=8), "v", d=4, w=512)
    assert (c1 == c8).all()  # partitioning-invariant
    est = sketch.cms_query(c1, list(range(50)))
    exact = np.arange(1, 51)
    assert (est >= exact).all()  # never underestimates
    # 50 keys in 512 buckets x 4 rows: min-over-rows is exact w.h.p.
    assert (est == exact).all()


def test_range_join_vs_pandas_oracle(rds):
    """range_join == per-key pandas interval containment (inner + left),
    with non-overlapping right intervals per key."""
    left = pd.DataFrame({"k": [1, 1, 1, 2, 2, 3],
                         "t": [5, 12, 40, 7, 100, 1],
                         "lv": list(range(6))})
    right = pd.DataFrame({"k": [1, 1, 2],
                          "s": [4, 30, 5], "e": [13, 45, 9],
                          "rv": [100, 200, 300]})
    got_inner = (relational.range_join(
        rds.from_pandas(left, override_num_blocks=3),
        rds.from_pandas(right, override_num_blocks=2),
        by="k", left_on="t", right_start="s", right_end="e", how="inner")
        .to_pandas().sort_values("lv").reset_index(drop=True))
    want = (left.merge(right, on="k")
            .query("s <= t <= e").sort_values("lv").reset_index(drop=True))
    pd.testing.assert_frame_equal(got_inner[["k", "t", "lv", "s", "e", "rv"]],
                                  want[["k", "t", "lv", "s", "e", "rv"]],
                                  check_dtype=False)
    got_left = (relational.range_join(
        rds.from_pandas(left), rds.from_pandas(right),
        by="k", left_on="t", right_start="s", right_end="e", how="left")
        .to_pandas().sort_values("lv").reset_index(drop=True))
    assert len(got_left) == len(left)
    unmatched = got_left[got_left["rv"].isna()]
    assert set(unmatched["lv"]) == {4, 5}  # t=100 (no interval), k=3 (no right)


def test_canonical_url_rules():
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.urlkeys import (
        canonical_url,
    )

    assert canonical_url("HTTP://Example.COM/Path/?q=1#frag") == "http://example.com/Path/?q=1"
    assert canonical_url("http://a.com/x/") == "http://a.com/x"
    assert canonical_url("https://A.com") == "https://a.com"
    assert canonical_url("notaurl#x") == "notaurl"   # rule 2 skipped, fragment still dropped
    assert canonical_url("/") == ""                  # lone slash strips to empty
    assert canonical_url(None) == "" and canonical_url(123) == ""


def test_canonical_keep_latest_argmax_and_counts(rds):
    """Keep-latest picks max ts (ties: min url) per canonical key;
    counts sum across partitions; '' canonicals are dropped."""
    df = pd.DataFrame({
        "url": ["http://A.com/x#1", "http://a.com/x/", "http://a.com/x",
                "http://b.com/y", "HTTP://B.com/y", ""],
        "warc_ts": [10, 30, 30, 7, 7, 99]})
    got = (dedup_ops.canonical_keep_latest(rds.from_pandas(df, override_num_blocks=3))
           .to_pandas().sort_values("canonical_url").reset_index(drop=True))
    assert list(got["canonical_url"]) == ["http://a.com/x", "http://b.com/y"]
    # a.com: ts 30 tie between 'http://a.com/x' and 'http://a.com/x/' -> min url wins
    assert list(got["url"]) == ["http://a.com/x", "HTTP://B.com/y"]
    assert list(got["warc_ts"]) == [30, 7]
    assert list(got["n_crawls"]) == [3, 2]


def test_pii_scrub_known_vectors(rds):
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import text as T

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["mail a.b+c@x-y.org and d@e.io now",
                 "call +4915512345678 or +123456 (too short)",
                 None]})
    got = T.pii_scrub(df)
    assert list(got["n_emails"]) == [2, 0, 0]
    assert list(got["n_phones"]) == [0, 1, 0]   # +123456 is 6 digits, below the 7 floor
    import hashlib
    want = hashlib.md5("call <PHONE> or +123456 (too short)".encode()).hexdigest()
    assert got["redacted_md5"][1] == want
    assert got["n_chars_redacted"][2] == 0


def test_repetition_signals_known_vector():
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import text as T

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["b a a b a", ""]})
    got = T.repetition_signals(df)
    r = got.iloc[0]
    assert (r["n_tokens"], r["n_distinct"], r["top_token"]) == (5, 2, "a")
    assert r["top_token_ppm"] == 3 * 1_000_000 // 5
    assert r["dup_token_ppm"] == 3 * 1_000_000 // 5
    empty = got.iloc[1]
    assert (empty["n_tokens"], empty["top_token"], empty["top_token_ppm"]) == (0, "", 0)


def test_ordered_cumsum_is_exclusive_scan(rds):
    """Distributed scan == serial exclusive cumsum, invariant to block
    count and to shuffled input order."""
    rng = np.random.RandomState(7)
    ids = rng.permutation(1000)
    df = pd.DataFrame({"k": ids, "v": (ids * 7) % 13})
    want = df.sort_values("k").reset_index(drop=True)
    want["cum_before"] = want["v"].cumsum().shift(1, fill_value=0)
    for blocks in (1, 8):
        got = (relational.ordered_cumsum(
            rds.from_pandas(df, override_num_blocks=blocks), "k", "v", num_ranges=16)
            .to_pandas().sort_values("k").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_pack_sequences_boundaries(rds):
    """Docs spanning a budget boundary get multi-sequence spans; empty
    docs occupy one sequence; offsets chain exactly."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import text as T

    texts = ["w " * 300, "", "w " * 300, "w " * 1100]
    df = pd.DataFrame({"doc_id": [0, 1, 2, 3], "text": [t.strip() for t in texts]})
    got = (T.pack_sequences(rds.from_pandas(df, override_num_blocks=2), budget=512)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(got["cum_before"]) == [0, 300, 300, 600]
    assert list(got["first_seq"]) == [0, 0, 0, 1]
    assert list(got["last_seq"]) == [0, 0, 1, 3]   # doc 2 spans the 512 cut
    assert list(got["n_seqs"]) == [1, 1, 2, 3]


def test_pivot_aggregate_vs_pandas(rds):
    """Distributed pivot == pandas pivot_table; absent combos fill 0;
    undeclared col values are dropped, block-count invariant."""
    rng = np.random.RandomState(3)
    df = pd.DataFrame({"r": rng.randint(0, 20, 500),
                       "c": rng.choice(["a", "b", "z"], 500),
                       "v": rng.randint(0, 100, 500).astype(float)})
    want = (df[df["c"].isin(["a", "b"])]
            .pivot_table(index="r", columns="c", values="v",
                         aggfunc="sum", fill_value=0.0)
            .reindex(columns=["a", "b"], fill_value=0.0).reset_index())
    want.columns = ["r", "sum_a", "sum_b"]
    for blocks in (1, 7):
        got = (relational.pivot_aggregate(
            rds.from_pandas(df, override_num_blocks=blocks),
            "r", "c", "v", ["a", "b"])
            .to_pandas().sort_values("r").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got, want.sort_values("r").reset_index(drop=True),
            check_dtype=False, check_names=False)


def test_inverted_index_postings_and_truncation(rds):
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import text as T

    df = pd.DataFrame({"doc_id": [3, 1, 2],
                       "text": ["Cat dog cat", "dog", "bird DOG bird"]})
    got = (T.inverted_index(rds.from_pandas(df, override_num_blocks=2))
           .to_pandas().sort_values("term").reset_index(drop=True))
    want = {"bird": (1, "2"), "cat": (1, "3"), "dog": (3, "1,2,3")}
    assert dict(zip(got["term"], zip(got["df"], got["postings"]))) == want
    # truncation: cap 2 -> postings keep the 2 smallest ids, df stays full
    got2 = (T.inverted_index(rds.from_pandas(df), max_postings=2)
            .to_pandas().set_index("term"))
    assert got2.loc["dog", "df"] == 3 and got2.loc["dog", "postings"] == "1,2"


def test_fixed_histogram_vs_numpy(rds):
    """Histogram partial-merge == np.histogram on the same edges; empty
    bins present with n=0; out-of-range values clamp to edge bins."""
    rng = np.random.RandomState(7)
    vals = np.concatenate([rng.uniform(0, 100, 800), [-5.0, 250.0]])
    df = pd.DataFrame({"v": vals})
    got = relational.fixed_histogram(
        rds.from_pandas(df, override_num_blocks=5), "v",
        lo=0.0, hi=100.0, nbins=10)
    assert list(got["bin"]) == list(range(10))
    # clip folds the out-of-range values into the edge bins, matching
    # the operator's clamp rule
    want, _ = np.histogram(np.clip(vals, 0, 99.999), bins=10, range=(0, 100))
    assert got["n"].sum() == len(vals)
    assert list(got["n"]) == list(want)
    assert got["n"].dtype == "int64" and got["bin"].dtype == "int64"


def test_global_quantile_disc_matches_duckdb(rds):
    """Exact order-statistic quantile == DuckDB quantile_disc for
    several q, including tie-heavy integer data and tiny n."""
    import duckdb

    rng = np.random.RandomState(11)
    vals = rng.randint(0, 40, 777)
    df = pd.DataFrame({"x": vals})
    con = duckdb.connect()
    con.register("t", df)
    for q in (0.1, 0.5, 0.9, 0.99, 1.0):
        want = con.execute(f"select quantile_disc(x, {q}) from t").fetchone()[0]
        got = relational.global_quantile_disc(
            rds.from_pandas(df, override_num_blocks=6), "x", q)
        assert got == want, (q, got, want)
    assert relational.global_quantile_disc(
        rds.from_pandas(pd.DataFrame({"x": [7]})), "x", 0.5) == 7


def test_top_bigrams_deterministic(rds):
    """Top-k bigrams: counts exact across block counts, tie-break is
    bigram-ascending at equal counts."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import text as T

    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["red cat red cat blue", "red cat sat",
                                "Blue sky; blue sky"]})
    for blocks in (1, 3):
        got = T.top_bigrams(rds.from_pandas(df, override_num_blocks=blocks), k=3)
        assert list(zip(got["bigram"], got["n"])) == [
            ("red cat", 3), ("blue sky", 2), ("cat blue", 1)]


def test_cohort_retention_small(rds):
    """Hand-checked retention triangle; multi-event days count once;
    block-count invariant."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import windows

    ts = pd.to_datetime([
        "2024-01-01 10:00", "2024-01-01 11:00",  # u1 day0 twice
        "2024-01-02 09:00",                        # u1 day1
        "2024-01-01 12:00",                        # u2 day0
        "2024-01-03 08:00",                        # u2 day2
        "2024-01-02 07:00",                        # u3 cohort day 2
    ])
    df = pd.DataFrame({"user_id": [1, 1, 1, 2, 2, 3], "ts": ts})
    for blocks in (1, 4):
        got = windows.cohort_retention(
            rds.from_pandas(df, override_num_blocks=blocks))
        got = got.sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)
        assert list(got["day_offset"]) == [0, 1, 2, 0]
        assert list(got["n_users"]) == [2, 1, 1, 1]
        assert got["cohort_day"].iloc[-1] == pd.Timestamp("2024-01-02")


def test_funnel_counts_strict_order(rds):
    """Strict-sequence semantics: a click BEFORE the first view does
    not advance the funnel; equal timestamps do not advance (strict >)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import windows

    rows = [
        # u1: full funnel in order
        (1, "2024-01-01 10:00", "view"), (1, "2024-01-01 11:00", "click"),
        (1, "2024-01-01 12:00", "purchase"),
        # u2: click before view -> stops at view
        (2, "2024-01-01 10:00", "click"), (2, "2024-01-01 11:00", "view"),
        # u3: click at SAME ts as view -> strict > blocks it
        (3, "2024-01-01 10:00", "view"), (3, "2024-01-01 10:00", "click"),
        # u4: never views, purchases -> counted nowhere
        (4, "2024-01-01 10:00", "purchase"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    df["ts"] = pd.to_datetime(df["ts"])
    for blocks in (1, 3):
        got = windows.funnel_counts(
            rds.from_pandas(df, override_num_blocks=blocks),
            stages=["view", "click", "purchase"])
        assert list(got["stage"]) == ["view", "view>click",
                                      "view>click>purchase"]
        assert list(got["n_users"]) == [3, 1, 1]


def test_set_op_except_intersect(rds):
    """Set ops == pandas set algebra on distinct rows, both modes,
    multi-column keys, block-count invariant."""
    l = pd.DataFrame({"k": [1, 1, 2, 3, 4], "g": list("aabba")})
    r = pd.DataFrame({"k": [2, 4, 5], "g": list("baz")})
    lset = set(map(tuple, l.drop_duplicates().values))
    rset = set(map(tuple, r.drop_duplicates().values))
    for blocks in (1, 3):
        ld = rds.from_pandas(l, override_num_blocks=blocks)
        rd_ = rds.from_pandas(r, override_num_blocks=blocks)
        exc = relational.set_op(ld, rd_, ["k", "g"], op="except").to_pandas()
        assert set(map(tuple, exc.values)) == lset - rset
        inter = relational.set_op(ld, rd_, ["k", "g"], op="intersect").to_pandas()
        assert set(map(tuple, inter.values)) == lset & rset


def test_correlation_exact_matches_numpy(rds):
    """Integer-exact Pearson r == np.corrcoef to float64 precision and
    is block-count invariant (bit-identical across partitionings)."""
    rng = np.random.RandomState(5)
    x = np.round(rng.uniform(0, 500, 1000), 2)
    y = (x * 0.3 + rng.uniform(0, 50, 1000)).astype("int64")
    df = pd.DataFrame({"x": x, "y": y})
    want = np.corrcoef(x, y)[0, 1]
    got = []
    for blocks in (1, 7):
        out = relational.correlation_exact(
            rds.from_pandas(df, override_num_blocks=blocks), "x", "y",
            x_scale=100, y_scale=1)
        assert out["n"].iloc[0] == 1000
        got.append(out["corr"].iloc[0])
    assert got[0] == got[1]              # bit-identical across partitionings
    assert abs(got[0] - want) < 1e-9


def test_weighted_sample_aes(rds):
    """A-ES: deterministic across block counts; heavier weights win
    far more often; zero/negative weights are never selected."""
    n = 2000
    w = np.concatenate([np.full(1000, 10.0), np.full(998, 0.1), [0.0, -1.0]])
    df = pd.DataFrame({"event_id": np.arange(n, dtype="int64"), "w": w})
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources.io import (
        weighted_sample_aes,
    )

    picks = []
    for blocks in (1, 5):
        got = weighted_sample_aes(
            rds.from_pandas(df, override_num_blocks=blocks), k=200,
            weight_col="w", id_col="event_id").to_pandas()
        assert len(got) == 200
        assert not set(got["event_id"]) & {1998, 1999}  # w <= 0 excluded
        picks.append(tuple(sorted(got["event_id"])))
    assert picks[0] == picks[1]
    heavy = sum(1 for i in picks[0] if i < 1000)
    assert heavy > 180  # 100x weight ratio -> heavy side dominates


def test_global_rank_and_sorted_neighborhood():
    """global_rank must equal row_number() over (key, id) for string
    keys incl. heavy ties/empties; sorted_neighborhood_pairs must emit
    exactly the window-successor pairs, each once."""
    import random

    import ray

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import relational as R

    rng = random.Random(3)
    n = 400
    df = pd.DataFrame({
        "k": ["".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
              for _ in range(n)],
        "id": [f"r{i:04d}" for i in range(n)]})
    ds = ray.data.from_pandas(df).repartition(7)
    ranked = R.global_rank(ds, "k", "id").to_pandas().sort_values("rn")
    exp = df.sort_values(["k", "id"], kind="mergesort").reset_index(drop=True)
    assert (ranked.reset_index(drop=True)["id"] == exp["id"]).all()
    assert sorted(ranked["rn"]) == list(range(n))

    w = 5
    pairs = (R.sorted_neighborhood_pairs(ds, "k", "id", window=w).to_pandas()
             .sort_values(["left_id", "right_id"]).reset_index(drop=True))
    order = exp["id"].tolist()
    bf = pd.DataFrame(
        [(order[i], order[i + d], d)
         for i in range(n) for d in range(1, w) if i + d < n],
        columns=["left_id", "right_id", "rank_dist"]
    ).sort_values(["left_id", "right_id"]).reset_index(drop=True)
    assert pairs.equals(bf)


def test_dense_rank_join_ties_and_direction():
    import ray

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import relational as R

    df = pd.DataFrame({"id": list(range(10)),
                       "v": [5, 3, 5, 1, 9, 3, 9, 9, 1, 7]})
    ds = ray.data.from_pandas(df).repartition(4)
    for desc in (True, False):
        got = (R.dense_rank_join(ds, "v", descending=desc, out_col="dr")
               .to_pandas().sort_values("id").reset_index(drop=True))
        exp = df.copy()
        exp["dr"] = exp["v"].rank(method="dense",
                                  ascending=not desc).astype("int64")
        assert got[["id", "v", "dr"]].sort_values("id").reset_index(
            drop=True).equals(exp[["id", "v", "dr"]])


def test_collect_set_and_cooccurrence():
    import ray

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import relational as R

    df = pd.DataFrame({"g": ["u1", "u1", "u1", "u2", "u2", "u3"],
                       "it": ["b", "a", "b", "a", "c", "a"]})
    ds = ray.data.from_pandas(df).repartition(3)
    got = (R.collect_set_strings(ds, "g", "it", out_col="s").to_pandas()
           .sort_values("g").reset_index(drop=True))
    assert got["s"].tolist() == ["a|b", "a|c", "a"]

    # the null group is one group of its own; a null item pairs with nothing
    df = pd.concat([df, pd.DataFrame({"g": [None, None, "u1"], "it": ["a", "c", None]})],
                   ignore_index=True)
    co = (R.cooccurrence_pairs(ray.data.from_pandas(df).repartition(3), "g", "it").to_pandas()
          .sort_values(["item_a", "item_b"]).reset_index(drop=True))
    exp = pd.DataFrame({"item_a": ["a", "a"], "item_b": ["b", "c"],
                        "n_groups": pd.array([1, 2], dtype="int64")})
    assert co.reset_index(drop=True).equals(exp)

    # items differing only after a NUL stay apart (sorted by Python,
    # which compares whole strings; pandas' sort_values stops at a NUL)
    nul = pd.DataFrame({"g": ["u4", "u4", "u5", "u5", "u6", "u6"],
                        "it": ["x\x00a", "y", "x\x00b", "y", "x\x00a", "x\x00b"]})
    co = R.cooccurrence_pairs(ray.data.from_pandas(nul), "g", "it").to_pandas()
    assert sorted(co.itertuples(index=False, name=None)) == [
        ("x\x00a", "x\x00b", 1), ("x\x00a", "y", 1), ("x\x00b", "y", 1)]


def test_throttle_events_gap_semantics():
    import ray

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import windows as W

    ts0 = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2],
        "event_id": [10, 11, 12, 13, 20],
        "ts": [ts0, ts0 + pd.Timedelta(seconds=30),
               ts0 + pd.Timedelta(seconds=90),
               ts0 + pd.Timedelta(seconds=150), ts0]})
    ds = ray.data.from_pandas(df).repartition(2)
    out = (W.throttle_events(ds, min_gap_seconds=60).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    # 11 dropped (30s after 10); 12 kept (60s after RAW 11, >= gap);
    # 13 kept (60s after 12); firsts get gap -1
    assert out["event_id"].tolist() == [10, 12, 13, 20]
    assert out["gap_us"].tolist() == [-1, 60_000_000, 60_000_000, -1]


def test_skew_join_equals_bucket_join():
    """skew_join (hybrid broadcast/hash plan) must produce exactly the
    rows of the plain bucketed hash join on a skewed key mix."""
    import random

    import ray

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import relational as R

    rng = random.Random(11)
    n = 2000
    keys = ["hot" if rng.random() < 0.5 else f"k{rng.randint(0, 50)}"
            for _ in range(n)]
    facts = pd.DataFrame({"fid": list(range(n)), "k": keys})
    dim = pd.DataFrame({"k": sorted(set(keys))})
    dim["attr"] = dim["k"].str.len().astype("int64")
    fds = ray.data.from_pandas(facts).repartition(5)
    dds = ray.data.from_pandas(dim).repartition(2)
    cols = ["fid", "k", "attr"]
    got = (R.skew_join(fds, dds, on="k", hot_threshold=300).to_pandas()[cols]
           .sort_values("fid").reset_index(drop=True))
    exp = (R.bucket_join(ray.data.from_pandas(facts).repartition(5),
                         ray.data.from_pandas(dim).repartition(2),
                         on="k").to_pandas()[cols]
           .sort_values("fid").reset_index(drop=True))
    assert got.equals(exp)
    # the skewed key must actually exceed the threshold (broadcast path taken)
    assert facts["k"].value_counts()["hot"] > 300


def test_pagerank_fixedpoint_matches_reference_loop():
    import random

    import ray

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops.graph import (
        pagerank_fixedpoint,
    )

    rng = random.Random(5)
    edges = {(f"n{rng.randint(0, 30)}", f"n{rng.randint(0, 30)}")
             for _ in range(60)}
    edges = [(a, b) for a, b in edges if a != b]
    df = pd.DataFrame(edges, columns=["left_id", "right_id"])
    ds = ray.data.from_pandas(df).repartition(4)
    got = (pagerank_fixedpoint(ds, iters=3).to_pandas()
           .sort_values("node").reset_index(drop=True))

    # independent plain-python reference
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    s = {v: 1_000_000_000 for v in adj}
    for _ in range(3):
        contrib = {v: s[v] // len(adj[v]) for v in adj}
        s = {v: 150_000_000 + (85 * sum(contrib[u] for u in adj[v])) // 100
             for v in adj}
    exp = (pd.DataFrame(sorted(s.items()), columns=["node", "pagerank_fp"])
           .astype({"pagerank_fp": "int64"}))
    assert got.equals(exp)
    # path graph hand-check: ends 575000000, middle 1850000000 after 1 it
    p = pd.DataFrame([("a", "b"), ("b", "c")], columns=["left_id", "right_id"])
    one = (pagerank_fixedpoint(ray.data.from_pandas(p), iters=1).to_pandas()
           .sort_values("node"))
    assert one["pagerank_fp"].tolist() == [575000000, 1850000000, 575000000]


def test_triangles_and_common_neighbors():
    import itertools
    import random

    import ray

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops.graph import (
        common_neighbor_scores,
        triangle_count,
    )

    rng = random.Random(13)
    edges = {tuple(sorted((f"n{rng.randint(0, 14)}", f"n{rng.randint(0, 14)}")))
             for _ in range(40)}
    edges = [(a, b) for a, b in edges if a != b]
    df = pd.DataFrame(edges, columns=["left_id", "right_id"])
    ds = ray.data.from_pandas(df).repartition(3)

    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = sum(1 for a, b, c in itertools.combinations(sorted(adj), 3)
              if b in adj[a] and c in adj[a] and c in adj[b])
    got = triangle_count(ds)
    assert got["n_triangles"].tolist() == [tri]

    cn = (common_neighbor_scores(ds).to_pandas()
          .sort_values(["node_u", "node_v"]).reset_index(drop=True))
    exp_rows = []
    for u, v in itertools.combinations(sorted(adj), 2):
        common = len(adj[u] & adj[v])
        if common >= 1:
            exp_rows.append((u, v, common,
                             common / float(len(adj[u] | adj[v]))))
    exp = pd.DataFrame(exp_rows,
                       columns=["node_u", "node_v", "common", "jaccard"]
                       ).astype({"common": "int64"})
    assert cn.equals(exp)


def test_setsim_prefix_pairs_exact_vs_bruteforce(rds):
    """Prefix filtering is an EXACT algorithm: the emitted pair set
    must equal the full quadratic token-Jaccard join, across thresholds
    (including docs with empty token sets, which never pair)."""
    rng = np.random.RandomState(31)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel", "india", "juliet"]
    texts = []
    for i in range(25):
        t = " ".join(words[j] for j in rng.randint(0, 10, 8))
        texts.append(t)
        texts.append(t + " kilo")  # high-overlap twin
    texts += ["", "???", None]  # tokenless docs: must never appear
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})

    def toks(t):
        import re
        return {w.lower() for w in re.findall(r"[A-Za-z0-9]+", t or "")}

    for thr in (0.5, 0.8):
        got = dedup_ops.setsim_prefix_pairs(rds.from_pandas(docs),
                                            jaccard_threshold=thr)
        got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
        got_pairs = {(int(a), int(b)) for a, b in zip(got.left_id, got.right_id)}
        want = set()
        for i in range(len(texts)):
            for j in range(i + 1, len(texts)):
                si, sj = toks(texts[i]), toks(texts[j])
                if si and sj and len(si & sj) / len(si | sj) >= thr:
                    want.add((i, j))
        assert got_pairs == want, f"threshold {thr}"
        assert len(want) >= 20


def test_fuse_records_rules_vs_pandas(rds):
    """Survivorship rules (mode/max/longest + count) must equal a
    serial pandas recompute, including all-null columns per key and
    native-order tie-breaks."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        fusion,
    )

    rng = np.random.RandomState(7)
    n = 400
    df = pd.DataFrame({
        "k": rng.randint(0, 40, n),
        "cat": rng.choice(["a", "b", "c", None], n),
        "val": rng.randint(0, 1000, n).astype("int64"),
        "s": rng.choice(["x", "yy", "zzz", "aaa", None], n),
    })
    got = fusion.fuse_records(rds.from_pandas(df), "k",
                              {"cat": "mode", "val": "max", "s": "longest"})
    got = (got if isinstance(got, pd.DataFrame) else got.to_pandas()
           ).sort_values("k").reset_index(drop=True)

    rows = []
    for k, g in df.groupby("k"):
        cats = g["cat"].dropna()
        if len(cats):
            vc = cats.value_counts()
            top = vc[vc == vc.max()].index.min()
        else:
            top = None
        ss = g["s"].dropna()
        longest = (sorted(ss, key=lambda x: (-len(x), x))[0]
                   if len(ss) else None)
        rows.append({"k": k, "cat": top, "val": g["val"].max(),
                     "s": longest, "n_records": len(g)})
    want = pd.DataFrame(rows).astype({"val": "int64", "n_records": "int64"})
    pd.testing.assert_frame_equal(got, want)


def test_fingerprint_clusters_variants(rds):
    """Case/whitespace/token-order variants must collide; singleton
    fingerprints are suppressed; counts and member lists exact."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        fusion,
    )

    vals = ["Jon  Smith", "jon smith", "JON SMITH", "Smith, Jon",
            "Mary Kay", "Kay Mary", "solo name", None, "", "!!!"]
    out = fusion.fingerprint_clusters(
        rds.from_pandas(pd.DataFrame({"a": vals})), "a")
    out = (out if isinstance(out, pd.DataFrame) else out.to_pandas()
           ).sort_values("fingerprint").reset_index(drop=True)
    want = pd.DataFrame({
        "fingerprint": ["jon smith", "kay mary"],
        "n_values": [4, 2], "n_distinct": [4, 2],
        "members": ["JON SMITH|Jon  Smith|Smith, Jon|jon smith",
                    "Kay Mary|Mary Kay"],
    }).astype({"n_values": "int64", "n_distinct": "int64"})
    pd.testing.assert_frame_equal(out, want)


def test_cluster_contingency_and_bcubed(rds):
    """Contingency counts vs a hand-built example, and exact B-cubed /
    purity from the aggregated frame (perfect clustering -> all 1.0)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        er_eval,
    )

    pred = pd.DataFrame({"record_id": list("abcdef"),
                         "cluster_id": ["p1", "p1", "p1", "p2", "p2", "p3"]})
    truth = pd.DataFrame({"record_id": list("abcdef"),
                          "cluster_id": ["t1", "t1", "t2", "t2", "t2", "t3"]})
    cont = er_eval.cluster_contingency(rds.from_pandas(pred),
                                       rds.from_pandas(truth))
    cont = (cont if isinstance(cont, pd.DataFrame) else cont.to_pandas()
            ).sort_values(["pred_cluster", "true_cluster"]).reset_index(drop=True)
    want = pd.DataFrame({"pred_cluster": ["p1", "p1", "p2", "p3"],
                         "true_cluster": ["t1", "t2", "t2", "t3"],
                         "n": [2, 1, 2, 1]}).astype({"n": "int64"})
    pd.testing.assert_frame_equal(cont, want)

    m = er_eval.bcubed_from_contingency(cont)
    # by hand: precision = (1/6)(4/3 + 1/3 + 4/2 + 1/1) = 7/9
    assert abs(m["b3_precision"] - 7 / 9) < 1e-12
    # recall: truth sizes t1=2, t2=3, t3=1 -> (1/6)(4/2 + 1/3 + 4/3 + 1/1)
    sq_over_truth = (4 / 2) + (1 / 3) + (4 / 3) + (1 / 1)
    assert abs(m["b3_recall"] - sq_over_truth / 6) < 1e-12
    assert abs(m["purity"] - (2 + 2 + 1) / 6) < 1e-12

    perfect = er_eval.bcubed_from_contingency(
        pd.DataFrame({"pred_cluster": ["x", "y"], "true_cluster": ["u", "v"],
                      "n": [3, 2]}))
    assert perfect["b3_f1"] == 1.0 and perfect["purity"] == 1.0


def test_uncertainty_band_sample_partition_invariant(rds):
    """The seeded hash-rank sample must be identical regardless of how
    the input is partitioned, stay inside the band, and clamp to the
    band population when k exceeds it."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        er_eval,
    )

    rng = np.random.RandomState(5)
    df = pd.DataFrame({"left_id": [f"l{i}" for i in range(300)],
                       "right_id": [f"r{i}" for i in range(300)],
                       "combined_score": rng.uniform(0, 100, 300).round(2)})
    a = er_eval.uncertainty_band_sample(
        rds.from_pandas(df), 40.0, 60.0, 25)
    b = er_eval.uncertainty_band_sample(
        rds.from_pandas(df).repartition(7), 40.0, 60.0, 25)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 25
    assert ((a["combined_score"] >= 40) & (a["combined_score"] < 60)).all()
    assert a["sample_rank"].is_monotonic_increasing

    band_n = ((df["combined_score"] >= 40) & (df["combined_score"] < 60)).sum()
    c = er_eval.uncertainty_band_sample(rds.from_pandas(df), 40.0, 60.0, 10_000)
    assert len(c) == band_n


def test_validate_constraints_vs_pandas(rds):
    """Every rule type counted against a serial recompute, including
    NULL handling (nulls violate regex/range; nulls are excess rows for
    unique)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        quality,
    )

    df = pd.DataFrame({
        "id": [1, 2, 2, 3, None, 5],
        "name": ["ok_one", "BAD", None, "fine", "also_ok", "x y"],
        "v": [0.0, 5.0, -1.0, None, 99.0, 100.1],
    })
    out = quality.validate_constraints(rds.from_pandas(df), [
        {"type": "not_null", "col": "name"},
        {"type": "regex", "col": "name", "pattern": r"^[a-z_]+$"},
        {"type": "range", "col": "v", "lo": 0.0, "hi": 100.0},
        {"type": "unique", "col": "id"},
    ])
    want = pd.DataFrame({
        "rule": ["not_null", "regex", "range", "unique"],
        "col": ["name", "name", "v", "id"],
        "n_rows": [6] * 4,
        # regex: BAD, None, "x y" -> 3; range: -1, None, 100.1 -> 3
        # unique: 6 rows - 4 distinct non-null (1,2,3,5) -> 2
        "n_violations": [1, 3, 3, 2],
    }).astype({"n_rows": "int64", "n_violations": "int64"})
    pd.testing.assert_frame_equal(out, want)


def test_categorical_gini_exact(rds):
    """Integer partials and the rational gini against a hand example:
    col with counts (3,1) over 4 rows -> gini = 1 - 10/16."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        quality,
    )

    df = pd.DataFrame({"a": ["x", "x", "x", "y", None],
                       "b": [1, 2, 3, 4, 5]})
    out = quality.categorical_gini(rds.from_pandas(df), ["a", "b"])
    want = pd.DataFrame({
        "col": ["a", "b"], "n": [4, 5], "n_distinct": [2, 5],
        "sum_sq": [10, 5],
        "gini": [1 - 10 / 16, 1 - 5 / 25],
    }).astype({"n": "int64", "n_distinct": "int64", "sum_sq": "int64"})
    pd.testing.assert_frame_equal(out, want)


def test_grouped_moments_exact(rds):
    """Fixed-point grouped mean/variance against hand-computed integers:
    group x has values 1.00, 3.00 -> mean 2.0, var_pop 1.0; NULL value
    and NULL group rows are excluded."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        quality,
    )

    df = pd.DataFrame({"g": ["x", "x", "y", None, "y"],
                       "v": [1.00, 3.00, 2.50, 9.0, None]})
    out = quality.grouped_moments(rds.from_pandas(df), "g", "v", decimals=2)
    want = pd.DataFrame({
        "g": ["x", "y"], "n": [2, 1], "sum_s": [400, 250],
        "sum_sq_s": [100 * 100 + 300 * 300, 250 * 250],
        "mean": [400.0 / 200.0, 250.0 / 100.0],
        "var_pop": [100000.0 / 20000.0 - 2.0 * 2.0,
                    62500.0 / 10000.0 - 2.5 * 2.5],
    }).astype({"n": "int64", "sum_s": "int64", "sum_sq_s": "int64"})
    pd.testing.assert_frame_equal(out, want)


def test_grouped_moments_empty_schema(rds):
    """Empty input must return the typed empty frame (schema stability)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        quality,
    )

    df = pd.DataFrame({"g": pd.Series(dtype=object),
                       "v": pd.Series(dtype="float64")})
    out = quality.grouped_moments(rds.from_pandas(df), "g", "v")
    assert list(out.columns) == ["g", "n", "sum_s", "sum_sq_s",
                                 "mean", "var_pop"]
    assert len(out) == 0


def test_zscore_outliers_flags_planted(rds):
    """A planted extreme value must be flagged; the tight cluster must
    not. Group stats: values 10.00 x5 + one 99.99 -> the big one is the
    only point with (v-mean)^2 > 9*var."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        quality,
    )

    vals = [10.0 + 0.01 * (i % 3) for i in range(30)] + [99.99]
    df = pd.DataFrame({"id": np.arange(33, dtype="int64"),
                       "g": ["a"] * 31 + ["b"] * 2,
                       "v": vals + [5.0, 5.0]})
    out = quality.zscore_outliers(rds.from_pandas(df), "g", "v", "id", k=3.0)
    assert out["id"].tolist() == [30]
    assert out["v_h"].tolist() == [9999]
    # zero-variance group b: no flags (d*d > 0 is false for identical values)


def test_fd_audit_held_and_violated(rds):
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        quality,
    )

    df = pd.DataFrame({"k": [1, 1, 2, 2, 3, None],
                       "y": ["a", "b", "c", "c", None, "d"],
                       "u": [10, 11, 20, 20, 30, 40]})
    out = quality.fd_audit(rds.from_pandas(df), [("k", "y"), ("u", "y")])
    row0 = out.iloc[0]  # k->y: k=1 maps to {a,b} -> violated
    assert (row0["n_lhs_groups"], row0["n_violating"],
            row0["max_distinct_rhs"], row0["holds"]) == (2, 1, 2, 0)
    row1 = out.iloc[1]  # u->y holds (u=30 row dropped: NULL y)
    assert (row1["n_lhs_groups"], row1["n_violating"],
            row1["max_distinct_rhs"], row1["holds"]) == (4, 0, 1, 1)


def test_chunk_tokens_hand_example():
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        text as text_ops,
    )

    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["a b  c d e f g", "  x y ", ""]})
    out = text_ops.chunk_tokens(df, window=5, stride=3)
    assert out["doc_id"].tolist() == [1, 1, 1, 2]
    assert out["start_tok"].tolist() == [0, 3, 6, 0]
    assert out["chunk_text"].tolist() == ["a b c d e", "d e f g", "g", "x y"]
    assert out["n_chunk_tokens"].tolist() == [5, 4, 1, 2]
    # empty batch keeps the schema
    empty = text_ops.chunk_tokens(df.iloc[0:0])
    assert list(empty.columns) == ["doc_id", "chunk_idx", "start_tok",
                                   "n_chunk_tokens", "chunk_text"]


def test_trailing_count_hand_example(rds):
    """RANGE-window semantics: inclusive lower bound, equal-ts peers
    all count; keys are isolated; NULL keys drop."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        windows,
    )

    t = pd.Timestamp("2024-01-01 12:00:00")
    m = pd.Timedelta("1min")
    df = pd.DataFrame({
        "user_id": [1.0, 1.0, 1.0, 1.0, 2.0, None],
        "event_id": [1, 2, 3, 4, 5, 6],
        # u1: 12:00, 12:30, 13:00 (x2 peers); u2: 12:00
        "ts": [t, t + 30 * m, t + 60 * m, t + 60 * m, t, t]})
    out = (windows.trailing_count(rds.from_pandas(df), window="1h")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    assert out["event_id"].tolist() == [1, 2, 3, 4, 5]
    # 13:00 window [12:00, 13:00] inclusive -> all four u1 events,
    # both equal-ts peers counted for both rows
    assert out["n_trailing"].tolist() == [1, 2, 4, 4, 1]


def test_incremental_cc_equals_full_recompute(rds):
    """Closure over (old assignment edges + delta) must equal closure
    over (ALL original edges + delta): a delta edge bridging two old
    clusters merges them to the min label; untouched clusters keep
    their labels; singletons survive."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import (
        cluster,
    )

    orig_edges = [("a", "b"), ("b", "c"), ("x", "y")]  # {a,b,c} {x,y} {z}
    nodes = ["a", "b", "c", "x", "y", "z"]
    base = cluster.union_find(orig_edges, nodes=nodes)
    assign = pd.DataFrame({"record_id": sorted(base),
                           "cluster_id": [base[k] for k in sorted(base)]})
    delta = pd.DataFrame({"left_id": ["c"], "right_id": ["x"]})
    upd = cluster.incremental_cc(rds.from_pandas(assign),
                                 rds.from_pandas(delta))
    got = (upd.to_pandas() if not isinstance(upd, pd.DataFrame) else upd)
    got = dict(zip(got["record_id"], got["cluster_id"]))
    want = cluster.union_find(orig_edges + [("c", "x")], nodes=nodes)
    assert got == want
    assert got["x"] == "a" and got["y"] == "a" and got["z"] == "z"


def test_neighborhood_signatures_hand(rds):
    """Signature = md5('node|sorted,distinct,neighbors'); degree counts
    distinct neighbors; duplicate edges collapse; nodes with identical
    neighborhoods but different ids get DIFFERENT signatures (id is
    part of the label)."""
    import hashlib as _h

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        graph,
    )

    df = pd.DataFrame({"s": [1, 1, 1, 2, 2], "d": [30, 10, 10, 10, 30]})
    out = (graph.neighborhood_signatures(rds.from_pandas(df), "s", "d")
           .to_pandas().sort_values("node").reset_index(drop=True))
    assert out["node"].tolist() == [1, 2]
    assert out["degree"].tolist() == [2, 2]
    assert out["signature"].tolist() == [
        _h.md5(b"1|10,30").hexdigest(), _h.md5(b"2|10,30").hexdigest()]
    assert out["signature"][0] != out["signature"][1]


def test_cdc_apply_hand_example(rds):
    """Latest change wins per key (ts then seq tie-break); a trailing
    delete removes the key; an earlier delete is overridden by a later
    upsert; NULL keys drop."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        fusion,
    )

    t = pd.Timestamp("2024-01-01")
    h = pd.Timedelta("1h")
    df = pd.DataFrame({
        "k": [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, None],
        "ts": [t, t + h, t, t + h, t, t, t + h, t],
        "seq": [1, 2, 3, 4, 5, 6, 7, 8],
        "op": ["upsert", "upsert", "upsert", "delete",
               "delete", "upsert", "upsert", "upsert"],
        "v": [10.0, 11.0, 20.0, 0.0, 0.0, 30.0, 31.0, 99.0]})
    out = (fusion.cdc_apply(rds.from_pandas(df), "k", "ts", "seq", "op",
                            ["v"]).to_pandas()
           .sort_values("k").reset_index(drop=True))
    # key 1: latest upsert v=11; key 2: latest is delete -> gone;
    # key 3: same-ts seq tie-break 6>5, then later upsert 7 wins
    assert out["k"].tolist() == [1.0, 3.0]
    assert out["v"].tolist() == [11.0, 31.0]
    assert out["seq"].tolist() == [2, 7]


def test_embedding_dim_stats_exact(rds):
    """Per-dimension fixed-point stats against hand integers: dim 1
    has values 1.0, 3.0 -> mean 2.0, var 1.0; dims are 1-based."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops.clustering import (
        embedding_dim_stats,
    )

    df = pd.DataFrame({"vec_id": [1, 2],
                       "embedding": [[1.0, 0.5], [3.0, 0.5]]})
    out = embedding_dim_stats(rds.from_pandas(df))
    assert out["dim"].tolist() == [1, 2]
    assert out["n"].tolist() == [2, 2]
    assert out["sum_s"].tolist() == [4_000_000, 1_000_000]
    assert out["mean"].tolist() == [2.0, 0.5]
    assert out["var_pop"].tolist() == [1.0, 0.0]


def _whole_string_blocks(df, key):
    """The rows of ``df`` grouped by ``key`` in a Python dict, which
    compares whole strings (pandas' groupby stops at a NUL); null keys
    form no block."""
    blocks = {}
    for row in df.itertuples():
        if getattr(row, key) is not None:
            blocks.setdefault(getattr(row, key), []).append(row)
    return list(blocks.values())


def test_jw_self_join_vs_bruteforce(rds):
    """Blocked JW join equals the quadratic per-block recompute; empty
    texts are excluded (the DuckDB both-empty convention diverges)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.similarity import (
        jaro_winkler,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        dedup,
    )

    # a null key blocks with nothing
    df = pd.DataFrame({
        "id": np.arange(8, dtype="int64"),
        "blk": ["a", "a", "a", "b", "b", "b", "b", None],
        "name": ["martha", "marhta", "jones", "dwayne", "duane", "", "", "martha"]})
    out = dedup.jw_self_join(rds.from_pandas(df), "blk", "name", "id",
                             threshold=0.8)
    got = (out.to_pandas() if not isinstance(out, pd.DataFrame) else out)
    got = got.sort_values(["left_id", "right_id"]).reset_index(drop=True)
    want = []
    for rows in _whole_string_blocks(df[df.name.str.len() > 0], "blk"):
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                s = jaro_winkler(rows[i].name, rows[j].name)
                if s >= 0.8:
                    want.append((rows[i].id, rows[j].id, s))
    want = pd.DataFrame(sorted(want), columns=["left_id", "right_id", "jw"])
    want = want.astype({"left_id": "int64", "right_id": "int64"})
    pd.testing.assert_frame_equal(got, want)
    assert (0, 1) in set(zip(got.left_id, got.right_id))   # martha~marhta
    assert (3, 4) in set(zip(got.left_id, got.right_id))   # dwayne~duane
    # keys differing only after a NUL are different blocks
    nul = pd.DataFrame({"id": np.arange(3, dtype="int64"), "blk": ["z", "a\x00x", "a\x00y"],
                        "name": ["zed", "martha", "martha"]})
    assert _sorted(dedup.jw_self_join(rds.from_pandas(nul), "blk", "name", "id")).empty


def test_ks_drift_known_value(rds):
    """KS against a hand case: a = {1,2}, b = {2,3} -> ECDFs differ by
    1/2 at v=1 and v=2 -> D = max|cum_a*nb - cum_b*na| = 2, ks = 0.5.
    Identical distributions -> ks = 0. Other event types are ignored."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        quality,
    )

    df = pd.DataFrame({"event_type": ["a", "a", "b", "b", "zz"],
                       "value": [0.01, 0.02, 0.02, 0.03, 99.0]})
    out = quality.ks_drift(rds.from_pandas(df), "event_type", "value",
                           "a", "b")
    r = out.iloc[0]
    assert (r["n_a"], r["n_b"], r["d_num"]) == (2, 2, 2)
    assert r["ks"] == 0.5
    same = quality.ks_drift(rds.from_pandas(
        pd.DataFrame({"event_type": ["a", "b"], "value": [1.0, 1.0]})),
        "event_type", "value", "a", "b")
    assert same.iloc[0]["ks"] == 0.0


def test_temperature_resample_rates(rds):
    """Rates must be sqrt(n_min/n_g): the smallest group keeps rate
    1.0 (every member kept — hash frac < 1.0 always); a 4x bigger
    group gets rate 0.5; flags are the deterministic md5 coin."""
    import hashlib as _h

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        text as t_ops,
    )

    df = pd.DataFrame({"doc_id": np.arange(10, dtype="int64"),
                       "lang": ["xx"] * 2 + ["yy"] * 8})
    out = (t_ops.temperature_resample(rds.from_pandas(df)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out.loc[out.lang == "xx", "rate"].eq(1.0).all()
    assert out.loc[out.lang == "xx", "kept"].all()
    assert out.loc[out.lang == "yy", "rate"].eq(0.5).all()
    for _, r in out[out.lang == "yy"].iterrows():
        frac = int(_h.md5(f"resample:{r.doc_id}".encode()).hexdigest()[:13],
                   16) / 4503599627370496.0
        assert bool(r.kept) == (frac < 0.5)


def test_impute_group_median_hand(rds):
    """Missing rows take the quantile_disc median of the non-missing
    rows of their group (even count -> LOWER middle value); clean rows
    pass through untouched."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        quality,
    )

    df = pd.DataFrame({
        "id": np.arange(6, dtype="int64"),
        "g": ["a"] * 5 + ["b"],
        "v": [10.0, 20.0, 30.0, 40.0, 999.0, 7.0],
        "__missing": [False, False, False, False, True, False]})
    out = (quality.impute_group_median(rds.from_pandas(df), "g", "v", "id")
           .to_pandas().sort_values("id").reset_index(drop=True))
    # non-missing of a: [10,20,30,40] -> quantile_disc(0.5) = 20 (ceil(2)-1)
    assert out.loc[4, "v"] == 20.0 and bool(out.loc[4, "was_imputed"])
    assert out.loc[:3, "v"].tolist() == [10.0, 20.0, 30.0, 40.0]
    assert not out.loc[:3, "was_imputed"].any()
    assert out.loc[5, "v"] == 7.0


def test_semantic_dedup_planted(rds):
    """Exact-duplicate vectors in the same cluster must drop (lower id
    wins); orthogonal vectors must survive; drops never cross
    clusters even for identical vectors (assignment is deterministic,
    so identical vectors share a cluster by construction)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        dedup,
    )

    e1, e2 = [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]
    df = pd.DataFrame({
        "vec_id": pd.Series([1, 2, 3, 4, 5], dtype="int64"),
        "embedding": [e1, e1, e2, [0.0, 0.999, 0.04, 0.0], e2]})
    cents = np.array([e1, e2], dtype="float64")
    out = dedup.semantic_dedup(rds.from_pandas(df), cents, threshold=0.95)
    got = (out.to_pandas() if not isinstance(out, pd.DataFrame) else out)
    got = got.sort_values("vec_id").reset_index(drop=True)
    # 1 kept, 2 dup of 1; 3 kept, 4 cos~0.999 dup of 3, 5 dup of 3
    assert got["vec_id"].tolist() == [1, 2, 3, 4, 5]
    assert got["is_kept"].tolist() == [True, False, True, False, False]
    assert got["cluster"].tolist() == [0, 0, 1, 1, 1]


def test_scd2_history_hand_example(rds):
    """Intervals must chain per key (valid_to = next valid_from),
    versions restart per key, last row per key is current, NULL keys
    drop, equal-ts ties order by event_id."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        windows,
    )

    t = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({
        "user_id": [1.0, 1.0, 1.0, 2.0, None],
        "event_id": [11, 10, 12, 20, 30],
        "ts": [t, t, t + pd.Timedelta("1h"), t, t]})
    out = (windows.scd2_history(rds.from_pandas(df)).to_pandas()
           .sort_values(["user_id", "version"]).reset_index(drop=True))
    assert out["event_id"].tolist() == [10, 11, 12, 20]
    assert out["version"].tolist() == [1, 2, 3, 1]
    assert out["is_current"].tolist() == [False, False, True, True]
    # interval chaining: row k's valid_to equals row k+1's valid_from
    assert out.loc[0, "valid_to"] == out.loc[1, "valid_from"]
    assert out.loc[1, "valid_to"] == out.loc[2, "valid_from"]
    assert pd.isna(out.loc[2, "valid_to"]) and pd.isna(out.loc[3, "valid_to"])


def test_ngram_contamination_planted(rds):
    """A doc sharing a 5-gram with the benchmark must flag (n_hits
    counts DISTINCT shared grams); clean and short docs must not."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        text as t_ops,
    )

    bench = pd.DataFrame({"doc_id": [100],
                          "text": ["alpha beta gamma delta epsilon zeta"]})
    cand = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["x alpha beta gamma delta epsilon y",  # 1 shared gram
                 "totally clean text with many words here",
                 "alpha beta gamma delta epsilon zeta",  # 2 shared grams
                 "short"]})
    out = t_ops.ngram_contamination(
        rds.from_pandas(cand), rds.from_pandas(bench), n=5
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["n_hits"].tolist() == [1, 0, 2, 0]
    assert out["contaminated"].tolist() == [True, False, True, False]


def test_fs_mu_weights_hand_counts(rds):
    """Fellegi-Sunter m/u estimation against hand counts: 3 labeled
    matches (2 with name agreement), 2 labeled non-matches (1 agrees),
    one unlabeled pair that must not contribute (inner join)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        er_eval,
    )

    pairs = pd.DataFrame({
        "left_id": ["a", "b", "c", "d", "e", "z"],
        "right_id": ["a2", "b2", "c2", "d2", "e2", "z2"],
        "name_agree": [True, True, False, True, False, True]})
    labels = pd.DataFrame({
        "left_id": ["a", "b", "c", "d", "e"],
        "right_id": ["a2", "b2", "c2", "d2", "e2"],
        "is_match": [True, True, True, False, False]})
    out = er_eval.fs_mu_weights(rds.from_pandas(pairs),
                                rds.from_pandas(labels), ["name_agree"])
    r = out.iloc[0]
    assert (r["feature"], r["m_num"], r["m_den"], r["u_num"],
            r["u_den"]) == ("name_agree", 2, 3, 1, 2)
    assert r["m"] == 2.0 / 3.0 and r["u"] == 0.5


def test_edit_distance_self_join_vs_bruteforce(rds):
    """Blocked Levenshtein join must equal the quadratic per-block
    recompute: pairs cross blocks never emit, ids are ordered, the
    length pre-filter drops nothing that qualifies."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.similarity import (
        levenshtein,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        dedup,
    )

    # a null key blocks with nothing
    df = pd.DataFrame({
        "id": np.arange(9, dtype="int64"),
        "blk": ["a", "a", "a", "a", "b", "b", "b", "c", None],
        "name": ["red bolt", "hot bolt", "red bolts", "green widget",
                 "red bolt", "blue gear", "blue gears", "lone row", "red bolt"]})
    out = dedup.edit_distance_self_join(
        rds.from_pandas(df), "blk", "name", "id", max_dist=3)
    got = (out.to_pandas() if not isinstance(out, pd.DataFrame) else out)
    got = got.sort_values(["left_id", "right_id"]).reset_index(drop=True)
    want = []
    for rows in _whole_string_blocks(df, "blk"):
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                d = levenshtein(rows[i].name, rows[j].name)
                if d <= 3:
                    lo, hi = sorted((rows[i].id, rows[j].id))
                    want.append((lo, hi, d))
    want = pd.DataFrame(sorted(want), columns=["left_id", "right_id", "dist"]
                        ).astype("int64")
    pd.testing.assert_frame_equal(got, want)
    # empty input keeps the typed schema
    e = dedup.edit_distance_self_join(
        rds.from_pandas(df.iloc[0:0]), "blk", "name", "id")
    e = e.to_pandas() if not isinstance(e, pd.DataFrame) else e
    assert list(e.columns) == ["left_id", "right_id", "dist"] and len(e) == 0
    # keys differing only after a NUL are different blocks
    nul = pd.DataFrame({"id": np.arange(3, dtype="int64"), "blk": ["z", "a\x00x", "a\x00y"],
                        "name": ["zed", "red bolt", "red bolt"]})
    assert _sorted(dedup.edit_distance_self_join(rds.from_pandas(nul), "blk", "name", "id")).empty


def test_interval_self_join_vs_bruteforce(rds):
    """Windowed self-join pairs must equal the quadratic per-key
    recompute, including equal-timestamp tie-breaks and key isolation."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        windows,
    )

    rng = np.random.RandomState(11)
    n = 300
    df = pd.DataFrame({
        "user_id": rng.randint(0, 12, n).astype("int64"),
        "event_id": np.arange(n, dtype="int64"),
        "ts": pd.to_datetime("2024-01-01")
              + pd.to_timedelta(rng.randint(0, 7200, n), unit="s"),
    })
    df.loc[1, "ts"] = df.loc[0, "ts"]  # planted equal-ts tie
    df.loc[1, "user_id"] = df.loc[0, "user_id"]

    got = windows.interval_self_join(rds.from_pandas(df), max_gap_seconds=600)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    got_t = set(map(tuple, got[["user_id", "left_id", "right_id",
                                "gap_us"]].itertuples(index=False)))

    want = set()
    for _, a in df.iterrows():
        for _, b in df.iterrows():
            if a.user_id != b.user_id:
                continue
            if (a.ts, a.event_id) >= (b.ts, b.event_id):
                continue
            gap = int((b.ts - a.ts).total_seconds() * 1_000_000)
            if gap <= 600_000_000:
                want.add((a.user_id, a.event_id, b.event_id, gap))
    assert got_t == want
    assert len(want) > 50


def test_quantile_bin_exact_edges(rds):
    """Bin assignment must reproduce the quantile_disc CASE-chain
    semantics (edge-inclusive), give equal-frequency quartiles on a
    permutation input, and send NULLs to bin 0."""
    rng = np.random.RandomState(3)
    vals = rng.permutation(np.arange(1, 101)).astype("float64")
    df = pd.DataFrame({"event_id": np.arange(100, dtype="int64"),
                       "value": vals})
    df.loc[0, "value"] = np.nan
    out = relational.quantile_bin(rds.from_pandas(df), "value", nbins=4)
    out = (out if isinstance(out, pd.DataFrame) else out.to_pandas()
           ).sort_values("event_id").reset_index(drop=True)

    nn = df["value"].dropna().sort_values().to_numpy()
    n = len(nn)
    edges = [nn[int(np.ceil(q * n)) - 1] for q in (0.25, 0.5, 0.75)]
    exp = []
    for v in df["value"]:
        if np.isnan(v):
            exp.append(0)
        else:
            exp.append(next((i + 1 for i, e in enumerate(edges) if v <= e), 4))
    assert out["bin"].tolist() == exp
    counts = out.loc[out["bin"] > 0, "bin"].value_counts()
    assert counts.max() - counts.min() <= 1


def test_quantile_bin_nonpow2_matches_duckdb(rds):
    """ADVICE r3: nbins that aren't powers of two exercise the
    integer-exact rank path (float i/nbins*n double-rounds past exact
    boundaries). Compare edge-for-edge with DuckDB quantile_disc +
    CASE-chain assignment for nbins in (3, 5, 6, 7, 10)."""
    import duckdb

    rng = np.random.RandomState(7)
    vals = rng.randint(0, 40, size=301).astype("float64")  # heavy ties
    df = pd.DataFrame({"event_id": np.arange(301, dtype="int64"),
                       "value": vals})
    for nbins in (3, 5, 6, 7, 10):
        out = relational.quantile_bin(rds.from_pandas(df), "value",
                                      nbins=nbins)
        out = (out if isinstance(out, pd.DataFrame) else out.to_pandas()
               ).sort_values("event_id").reset_index(drop=True)
        con = duckdb.connect()
        qs = ", ".join(
            f"quantile_disc(value, {i}.0/{nbins}) AS e{i}"
            for i in range(1, nbins))
        edges = con.execute(f"SELECT {qs} FROM df").fetchone()
        case = " ".join(
            f"WHEN value <= {edges[i - 1]} THEN {i}"
            for i in range(1, nbins))
        want = con.execute(
            f"SELECT CASE WHEN value IS NULL THEN 0 {case} ELSE {nbins} "
            f"END AS bin FROM df ORDER BY event_id").df()["bin"]
        assert out["bin"].tolist() == want.tolist(), nbins


def test_neighborhood_signatures_null_edges(rds):
    """ADVICE r3: NULL src/dst endpoints must be DROPPED (oracle's
    IS NOT NULL), not crash the int64 cast."""
    import hashlib as _h

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        graph,
    )

    df = pd.DataFrame({"s": [1.0, 1.0, None, 2.0],
                       "d": [30.0, None, 10.0, 30.0]})
    out = (graph.neighborhood_signatures(rds.from_pandas(df), "s", "d")
           .to_pandas().sort_values("node").reset_index(drop=True))
    assert out["node"].tolist() == [1, 2]
    assert out["degree"].tolist() == [1, 1]
    assert out["signature"].tolist() == [
        _h.md5(b"1|30").hexdigest(), _h.md5(b"2|30").hexdigest()]


def test_trailing_count_many_keys_vectorized(rds):
    """The lifted-monotone-axis trailing count must agree with a
    per-key brute force across many keys / shared timestamps (the
    regime the old per-key Python loop handled one groupby call at a
    time)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import windows

    rng = np.random.RandomState(11)
    n = 4000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype="int64"),
        "user_id": rng.randint(0, 700, size=n).astype("int64"),
        "ts": pd.to_datetime(
            rng.randint(0, 3 * 3600, size=n), unit="s", origin="2024-01-01"),
    })
    out = (windows.trailing_count(rds.from_pandas(df), window="15min")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    w = pd.Timedelta("15min")
    want = []
    for _, grp in df.sort_values(["user_id", "ts", "event_id"]).groupby(
            "user_id", sort=False):
        t = grp["ts"].to_numpy()
        hi = np.searchsorted(t, t, side="right")
        lo = np.searchsorted(t, t - w, side="left")
        want.append(pd.DataFrame({"event_id": grp["event_id"].to_numpy(),
                                  "n": hi - lo}))
    want = (pd.concat(want).sort_values("event_id")
            .reset_index(drop=True))
    assert out["n_trailing"].tolist() == want["n"].tolist()


def test_setsim_candidate_budget_guard(rds):
    """When prefix tokens are not rare (vocab << corpus) the candidate
    self-merge is priced BEFORE it runs and the op fails fast with
    guidance instead of spilling to death (measured: ~1e9 candidate
    rows ran the disk to the raylet wall at 500k docs on a 50k-word
    vocab). The estimate is exact — sum C(c_token, 2) over per-token
    prefix counts."""
    import pytest

    vocab = [f"tok{i:03d}" for i in range(70)]  # >64 forces the prefix path
    text = " ".join(vocab)
    docs = pd.DataFrame({"doc_id": range(100), "text": [text] * 100})
    with pytest.raises(ValueError, match="candidate pairs"):
        dedup_ops.setsim_prefix_pairs(rds.from_pandas(docs),
                                      jaccard_threshold=0.7,
                                      max_candidate_pairs=1000)
    # same corpus under the default budget still completes exactly:
    # all 100 docs are identical -> C(100,2) pairs at jaccard 1.0
    got = dedup_ops.setsim_prefix_pairs(rds.from_pandas(docs),
                                        jaccard_threshold=0.7)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert len(got) == 100 * 99 // 2
    assert (got["jaccard"] == 1.0).all()


def test_setsim_verify_paths_equivalent(rds):
    """setsim broadcast-verify and join-verify must emit identical
    (pair, jaccard) sets — in BOTH the small-vocab (<=64 tokens,
    bitmask popcount) and big-vocab (per-worker set cache) regimes."""
    rng = np.random.RandomState(5)
    small = ["alpha bravo charlie delta echo foxtrot golf hotel"]
    small_words = ["alpha", "bravo", "charlie", "delta", "echo",
                   "foxtrot", "golf", "hotel", "india", "juliet"]
    big_words = [f"tok{i:03d}" for i in range(120)]  # vocab > 64
    for words in (small_words, big_words):
        texts = []
        for i in range(30):
            t = " ".join(words[j] for j in rng.randint(0, len(words), 8))
            texts.append(t)
            texts.append(t + " " + words[0])
        docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        ds = rds.from_pandas(docs, override_num_blocks=4)
        a = dedup_ops.setsim_prefix_pairs(ds, jaccard_threshold=0.6,
                                          verify="broadcast")
        b = dedup_ops.setsim_prefix_pairs(ds, jaccard_threshold=0.6,
                                          verify="join")
        a = (a if isinstance(a, pd.DataFrame) else a.to_pandas()).sort_values(
            ["left_id", "right_id"]).reset_index(drop=True)
        b = (b if isinstance(b, pd.DataFrame) else b.to_pandas()).sort_values(
            ["left_id", "right_id"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert len(a) >= 25


def test_substring_duplicate_windows(rds):
    import hashlib

    # doc 0 and 1 share an identical 60-char aligned run; doc 2 is the
    # exact dup of 0; doc 3 is unrelated; doc 4 is too short to window
    run = "x" * 25 + "shared duplicated span of text that repeats here!" + "y" * 25
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4],
        "text": [run, run + " trailing tail beyond", run,
                 "completely different content with no overlap at all padded",
                 "tiny"],
    })
    got = dedup_ops.substring_duplicate_windows(
        rds.from_pandas(docs), window=40, stride=10).to_pandas()
    # brute-force reference over the same windows
    rows = {}
    for did, t in zip(docs.doc_id, docs.text):
        for o in range(0, len(t) - 40 + 1, 10):
            h = hashlib.md5(t[o:o + 40].encode()).hexdigest()
            rows.setdefault(h, []).append(did)
    want = {h: (len(set(ds_)), len(ds_)) for h, ds_ in rows.items()
            if len(set(ds_)) >= 2}
    assert {h: (nd, no) for h, nd, no in
            zip(got.win_md5, got.n_docs, got.n_occurrences)} == want
    assert len(want) > 0
    # doc 3's windows never co-occur
    alone = {hashlib.md5(docs.text[3][o:o + 40].encode()).hexdigest()
             for o in range(0, len(docs.text[3]) - 39, 10)}
    assert not (set(got.win_md5) & alone)


def test_knn_lsh_finds_planted_near_neighbors(rds):
    rng = np.random.RandomState(5)
    base = rng.randn(300, 16).astype("float64")
    # plant 3 near-dups of vector 0 (cosine ~0.999) at ids 300..302
    planted = base[0][None, :] + 0.02 * rng.randn(3, 16)
    mat = np.vstack([base, planted])
    ds = rds.from_pandas(pd.DataFrame({"vec_id": range(len(mat)),
                                       "embedding": [v.tolist() for v in mat]}))
    out = similarity_search.knn_lsh(ds, mat[:1], [0], k=5,
                                    n_tables=16, n_bits=6)
    got = set(out[out.query_id == 0].neighbor_id)
    # high-cosine planted neighbors MUST collide in some table
    assert {300, 301, 302} <= got and 0 in got
    # and the whole result ranks identically to brute force restricted
    # to LSH candidates: rank column is 1..n with no gaps
    assert sorted(out["rank"].tolist()) == list(range(1, len(out) + 1))


def test_substring_windows_non_ascii_char_semantics(rds):
    import hashlib

    # é is 2 UTF-8 bytes but ONE character: windows must be
    # char-addressed (SQL substr semantics), so the two docs sharing a
    # char-identical 40-char run co-block despite multibyte content
    run = "é" * 10 + "duplicated span across both documents!" + "z" * 12
    docs = pd.DataFrame({"doc_id": [0, 1], "text": [run, run]})
    got = dedup_ops.substring_duplicate_windows(
        rds.from_pandas(docs), window=40, stride=10).to_pandas()
    want = {}
    for o in range(0, len(run) - 40 + 1, 10):
        h = hashlib.md5(run[o:o + 40].encode("utf-8")).hexdigest()
        want[h] = want.get(h, 0) + 2
    assert {h: (2, n) for h, n in want.items()} == {
        h: (nd, no) for h, nd, no in
        zip(got.win_md5, got.n_docs, got.n_occurrences)}


def test_cluster_cohesion_hand_example(rds):
    """Density / min / avg per multi-record cluster vs a hand-built
    graph; singleton clusters carry no edges and are excluded."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        er_eval,
    )

    clusters = pd.DataFrame({
        "record_id": ["a", "b", "c", "d", "e", "f"],
        "cluster_id": ["a", "a", "a", "d", "d", "f"]})
    edges = pd.DataFrame({
        "left_id": ["a", "b", "d"],
        "combined_score": [95.0, 90.5, 100.0]})
    out = er_eval.cluster_cohesion(rds.from_pandas(clusters),
                                   rds.from_pandas(edges))
    want = pd.DataFrame({
        "cluster_id": ["a", "d"],
        "n_records": pd.Series([3, 2], dtype="int64"),
        "n_edges": pd.Series([2, 1], dtype="int64"),
        "density": [4.0 / 6.0, 1.0],
        "min_score_h": pd.Series([9050, 10000], dtype="int64"),
        "avg_score": [92.75, 100.0]})
    pd.testing.assert_frame_equal(out, want)


def test_score_calibration_hand_example(rds):
    """Bin counts + empirical precision vs hand counts; reversed
    orientations and duplicate label rows collapse before the join."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        er_eval,
    )

    scored = pd.DataFrame({
        "left_id": ["x1", "x3", "x5", "x8"],
        "right_id": ["x2", "x4", "x6", "x7"],
        "combined_score": [92.0, 88.0, 97.5, 91.0]})
    labels = pd.DataFrame({
        "left_id": ["x2", "x1", "x3"],
        "right_id": ["x1", "x2", "x4"],
        "is_match": [True, True, False]})
    out = er_eval.score_calibration(rds.from_pandas(scored),
                                    rds.from_pandas(labels), bin_width=5)
    want = pd.DataFrame({
        "score_bin": pd.Series([85, 90, 95], dtype="int64"),
        "n_pairs": pd.Series([1, 2, 1], dtype="int64"),
        "n_labeled": pd.Series([1, 1, 0], dtype="int64"),
        "n_true": pd.Series([0, 1, 0], dtype="int64"),
        "bin_precision": [0.0, 1.0, 0.0]})
    pd.testing.assert_frame_equal(out, want)


def test_setsim_dense_path_equivalent_to_prefix(rds):
    """The small-vocab exact-set-collapse path must be bit-equal
    (pairs AND jaccard values) to the prefix-filter path, and the
    max_masks gate must fall back to prefix filtering."""
    import random

    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(23)]
    rows = []
    for i in range(400):
        rows.append((i, " ".join(rng.sample(vocab, rng.randint(0, 9)))))
    df = pd.DataFrame(rows, columns=["doc_id", "text"])

    def run(**kw):
        out = dedup_ops.setsim_prefix_pairs(
            rds.from_pandas(df), jaccard_threshold=0.8, **kw)
        o = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        return o.sort_values(["left_id", "right_id"]).reset_index(drop=True)

    dense = run()
    prefix = run(dense_max_masks=0)
    assert len(dense) > 0
    pd.testing.assert_frame_equal(dense, prefix)
    # gate: a tiny cap must also fall back (not crash) and still agree
    gated = run(dense_max_masks=2)
    pd.testing.assert_frame_equal(gated, prefix)


def test_minhash_bitset_verify_equivalent(rds):
    """The small-gram-alphabet bitset verify must emit the identical
    pair set AND jaccard values as the generic gram-set verify and the
    verify='join' path (empty texts included)."""
    import random

    rng = random.Random(3)
    base = ["the quick brown fox jumps over the lazy dog",
            "lorem ipsum dolor sit amet consectetur",
            "pack my box with five dozen liquor jugs"]
    rows = [(i, base[i % 3] + (" tail " + str(i % 7) if i % 4 == 0 else ""))
            for i in range(200)]
    rows += [(1000, ""), (1001, "")]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])

    def run(**kw):
        out = dedup_ops.minhash_lsh_pairs(
            rds.from_pandas(df), jaccard_threshold=0.7, **kw)
        o = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        return o.sort_values(["left_id", "right_id"]).reset_index(drop=True)

    bitset = run()
    generic = run(bitset_max_grams=0)
    assert len(bitset) > 0
    pd.testing.assert_frame_equal(bitset, generic)
    joinv = run(verify="join")
    pd.testing.assert_frame_equal(bitset, joinv.astype(bitset.dtypes.to_dict()))


def test_setsim_dense_edge_cases(rds):
    """Dense-path edge cases: one giant identical-set group (triu
    expansion), vocab at the 64-bit boundary (bit 63 set), and
    tokenless docs (must never pair, matching the prefix path)."""
    vocab = [f"t{i:02d}" for i in range(64)]
    rows = []
    # 40 docs with the identical full-vocab set -> one mask with bit 63
    for i in range(40):
        rows.append((i, " ".join(vocab)))
    # tokenless docs (punctuation only)
    rows += [(100, ""), (101, "..."), (102, "!!")]
    # two docs sharing 9/10 tokens (jaccard 0.9 boundary region)
    rows.append((200, " ".join(vocab[:10])))
    rows.append((201, " ".join(vocab[:9] + [vocab[20]])))
    df = pd.DataFrame(rows, columns=["doc_id", "text"])

    def run(**kw):
        out = dedup_ops.setsim_prefix_pairs(
            rds.from_pandas(df), jaccard_threshold=0.8, **kw)
        o = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        return o.sort_values(["left_id", "right_id"]).reset_index(drop=True)

    dense = run()
    prefix = run(dense_max_masks=0)
    pd.testing.assert_frame_equal(dense, prefix)
    # the identical-set group contributes exactly C(40,2) pairs at 1.0
    grp = dense[(dense.left_id < 100)]
    assert len(grp) == 40 * 39 // 2
    assert (grp.jaccard == 1.0).all()
    # tokenless docs never pair
    assert not ((dense.left_id >= 100) & (dense.left_id <= 102)).any()
    assert not ((dense.right_id >= 100) & (dense.right_id <= 102)).any()


def test_distinct_nul_and_null_keys(rds):
    """relational.distinct compares whole strings in its partition reduce
    as in its in-batch combiner: ("x\\x00a", 1) and ("x\\x00b", 1) stay
    two rows, from one block (one sort partition, so both keys reach
    one reduce call) or with their duplicates in other blocks (a key's
    bucket does not depend on its block-mates). Null and NaN keys keep
    one row per null key."""
    def rows(df):
        return sorted((tuple(None if pd.isna(v) else v for v in r)
                       for r in df.itertuples(index=False)), key=repr)

    for blocks in ([["x\x00a", "x\x00b"]],
                   [["x\x00a"], ["x\x00b", "x\x00a"], ["x\x00b"]]):
        nul = [pd.DataFrame({"s": b, "n": [1] * len(b)}) for b in blocks]
        got = relational.distinct(rds.from_pandas(nul), ["s", "n"]).to_pandas()
        assert rows(got) == [("x\x00a", 1), ("x\x00b", 1)], blocks

    nulls = [pd.DataFrame({"s": [None, "y"], "v": [1.0, np.nan]}),
             pd.DataFrame({"s": [None, "y", "y"], "v": [1.0, np.nan, 2.0]}),
             pd.DataFrame({"s": [None], "v": [np.nan]})]
    got = relational.distinct(rds.from_pandas(nulls), ["s", "v"]).to_pandas()
    assert rows(got) == sorted([(None, 1.0), ("y", None), ("y", 2.0), (None, None)], key=repr)


def _pre_agg(ds, **kw):
    """pre_aggregated's output: (columns, dtypes, rows sorted by repr)."""
    df = relational.pre_aggregated(ds, **kw).to_pandas()
    rows = sorted((tuple(None if pd.isna(v) else v for v in r)
                   for r in df.itertuples(index=False)), key=repr)
    return list(df.columns), [str(t) for t in df.dtypes], rows


def test_pre_aggregated_null_keys_and_dtypes(rds):
    """Null keys are dropped whatever builds them: None in a pandas
    string column, null or NaN in an Arrow float column, one null part
    of a two-column key. Sums keep their kind (int64 / float64), ``n`` is
    int64 and a sum over nulls only is 0. The rows and dtypes are those
    the pandas bucket reduce gave, but for the last case, whose all-null
    int group turned that reduce's whole column float."""
    import pyarrow as pa

    pages = [pd.DataFrame({"s": [None, "y", "y"], "v": [1.0, np.nan, 2.0]}),
             pd.DataFrame({"s": [None, "y"], "v": [3.0, 4.0]})]
    assert _pre_agg(rds.from_pandas(pages), keys="s", sums=["v"]) == (
        ["s", "sum_v", "n"], ["object", "float64", "int64"], [("y", 6.0, 3)])
    nan_keys = [pa.table({"k": [1.0, float("nan"), 1.0], "v": [1, 2, 3]}),
                pa.table({"k": [float("nan"), 2.0], "v": [5, 6]})]
    assert _pre_agg(rds.from_arrow(nan_keys), keys="k", sums=["v"]) == (
        ["k", "sum_v", "n"], ["float64", "int64", "int64"], [(1.0, 4, 2), (2.0, 6, 1)])
    null_keys = pa.table({"k": pa.array([1.0, None, 1.0]), "v": [1, 2, 3]})
    assert _pre_agg(rds.from_arrow(null_keys), keys="k", sums=["v"])[2] == [
        (1.0, 4, 2)]
    two = pd.DataFrame({"a": ["p", "p", None, "q"], "b": [1, 2, 1, 1], "v": [1.5, 2.5, 3.5, 4.5]})
    assert _pre_agg(rds.from_pandas(two), keys=["a", "b"], sums=["v"]) == (
        ["a", "b", "sum_v", "n"], ["object", "int64", "float64", "int64"],
        [("p", 1, 1.5, 1), ("p", 2, 2.5, 1), ("q", 1, 4.5, 1)])
    three = pa.table({"s": ["a", "a", "b"], "v": [1, 2, 3], "w": [0.5, 0.5, 1.0]})
    assert _pre_agg(rds.from_arrow(three), keys="s", sums=["v", "w"], counts=False) == (
        ["s", "sum_v", "sum_w"], ["object", "int64", "float64"], [("a", 3, 1.0), ("b", 3, 1.0)])
    assert _pre_agg(rds.from_arrow([three, three.slice(0, 1)]), keys="s")[2] == [
        ("a", 3), ("b", 1)]
    null_vals = [pa.table({"s": ["a", "b"], "v": pa.array([1, None], pa.int64())}),
                 pa.table({"s": ["b", "c"], "v": pa.array([None, 7], pa.int64())})]
    assert _pre_agg(rds.from_arrow(null_vals), keys="s", sums=["v"]) == (
        ["s", "sum_v", "n"], ["object", "int64", "int64"], [("a", 1, 1), ("b", 0, 2), ("c", 7, 1)])


def test_pre_aggregated_nul_keys_stay_apart(rds):
    """Strings that differ only after a NUL are two groups even when they
    reach the reduce in one call (a single-block input is one sort
    partition) and when their partials come from different blocks."""
    import pyarrow as pa

    for blocks in ([["x\x00a", "x\x00b"]], [["x\x00a"], ["x\x00b", "x\x00a"]]):
        ds = rds.from_arrow([pa.table({"s": b, "v": [1] * len(b)}) for b in blocks])
        want = sorted((s, sum(1 for b in blocks for t in b if t == s),
                       sum(1 for b in blocks for t in b if t == s)) for s in ("x\x00a", "x\x00b"))
        assert _pre_agg(ds, keys="s", sums=["v"])[2] == want


def test_pre_aggregated_nan_sum_independent_of_blocks(rds):
    """A float sum over a NaN is NaN however the rows are split into
    blocks: the partials reach the reduce as Arrow, where a NaN partial
    stays NaN (a pandas round trip made it a null the sum skipped)."""
    import pyarrow as pa

    rows = pa.table({"s": ["a", "a"], "v": [float("nan"), 1.0]})
    for blocks in ([rows], [rows.slice(0, 1), rows.slice(1)]):
        got = relational.pre_aggregated(rds.from_arrow(blocks), "s", sums=["v"]).to_pandas()
        assert got["s"].tolist() == ["a"] and got["n"].tolist() == [2], blocks
        assert np.isnan(got["sum_v"].iloc[0]), blocks


_KEYS = st.one_of(st.none(), st.sampled_from(["x", "x\x00a", "x\x00b", "", "\x00"]),
                  st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_KEYS, max_size=12), min_size=1, max_size=3))
def test_arrow_buckets_equal_pandas_buckets(chunks):
    """The Arrow tag puts every key in the bucket ``_bucket_of`` gives it
    in the pandas form: arbitrary strings, keys that differ only after a
    NUL, nulls, over a chunked column; and for a two-column key."""
    import pyarrow as pa

    t = pa.concat_tables([pa.table({"k": pa.array(c, pa.string()),
                                    "n": pa.array(range(len(c)), pa.int64())})
                          for c in chunks])
    for cols in (["k"], ["k", "n"]):
        want = relational._bucket_of(t.to_pandas(), cols).tolist()
        assert relational._arrow_bucket_of(t, cols).to_pylist() == want


def test_bucket_of_ignores_block_mates():
    """A key's bucket depends on the key alone: strings that differ only
    after a NUL hash apart whatever else their frame holds, and every
    null representation (None, NaN, NA, string dtype) shares one bucket."""
    def bucket(vals, **kw):
        frame = pd.DataFrame({"k": pd.Series(vals, **kw), "n": [1] * len(vals)})
        return relational._bucket_of(frame, ["k", "n"]).tolist()[-1]

    assert bucket(["x\x00a"]) == bucket(["x\x00b", "x\x00a"])
    assert bucket(["x\x00b"]) == bucket(["x\x00a", "x\x00b"])
    nulls = {bucket([None]), bucket([np.nan], dtype=object), bucket([pd.NA], dtype=object),
             bucket(["y", None]), bucket(["y", None], dtype="string")}
    assert len(nulls) == 1
