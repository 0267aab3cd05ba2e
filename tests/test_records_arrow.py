"""The records stage's Arrow path against the per-row loops it replaced.

``page_records_batch``, ``work_records_batch`` and ``with_block_keys``
build records and their block keys column-wise, normalizing, MinHashing
and band-hashing each distinct value once per batch. The reference
below is the per-row implementation they replaced, kept verbatim; every
output column must equal it (``Table.equals``) on inputs with null,
empty, repeated and NUL-divergent names, non-ASCII names, prefixed and
null DOIs, null lists, and columns sliced and split into chunks the way
Ray's zero-copy batches arrive.
"""

from __future__ import annotations

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.minhash import (
    MinHasher,
    band_keys,
)
from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.textnorm import (
    normalize_text,
)
from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.urlkeys import (
    host_key,
)
from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import block, records
from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.block import (
    NUM_BANDS,
    NUM_PERM,
)
from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.records import (
    RECORD_SCHEMA,
    normalize_doi,
    path_key,
)

# ---- reference: the per-row loops, verbatim ------------------------------

_MINHASHER = None


def with_block_keys(t: pa.Table) -> pa.Table:
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


def _record_rows(ids, sides, dois, hosts, paths, authors_lists, insts_lists):
    out = {name: [] for name in RECORD_SCHEMA.names}
    for rid, side, doi, host, path, authors, insts in zip(
        ids, sides, dois, hosts, paths, authors_lists, insts_lists
    ):
        doi_n = normalize_doi(doi)
        authors = [a for a in (authors or []) if a]
        insts = [i for i in (insts or []) if i]
        if not doi_n and not authors:
            continue  # no linkage signal
        a_norm = [normalize_text(a) for a in authors]
        i_norm = [normalize_text(i) for i in insts]
        out["record_id"].append(rid)
        out["side"].append(side)
        out["doi_norm"].append(doi_n)
        out["host_key"].append(host)
        out["path_key"].append(path)
        out["authors"].append(authors)
        out["insts"].append(insts)
        out["authors_norm"].append(a_norm)
        out["insts_norm"].append(i_norm)
        out["name_blob"].append(" ".join(sorted(a_norm)))
    return with_block_keys(pa.Table.from_pydict(out, schema=RECORD_SCHEMA))


def page_records_batch(batch: pa.Table) -> pa.Table:
    urls = batch["url"].to_pylist()
    dois = batch["doi"].to_pylist()
    authors_l = batch["mention_authors"].to_pylist()
    insts_l = batch["mention_insts"].to_pylist()
    ids, sides, hosts, paths, auth_out, inst_out = [], [], [], [], [], []
    for url, authors, insts in zip(urls, authors_l, insts_l):
        ids.append("p:" + url)
        sides.append("page")
        hosts.append(host_key(url))
        paths.append(path_key(url))
        # dedup while preserving first-seen order
        seen_a, ua = set(), []
        for a in authors or []:
            if a and a not in seen_a:
                seen_a.add(a)
                ua.append(a)
        seen_i, ui = set(), []
        for i in insts or []:
            if i and i not in seen_i:
                seen_i.add(i)
                ui.append(i)
        auth_out.append(ua)
        inst_out.append(ui)
    return _record_rows(ids, sides, dois, hosts, paths, auth_out, inst_out)


def work_records_batch(batch: pa.Table) -> pa.Table:
    work_ids = batch["work_id"].to_pylist()
    dois = batch["doi"].to_pylist()
    urls = batch["landing_page_url"].to_pylist()
    authorships = batch["authorships"].to_pylist()
    ids, sides, hosts, paths, auth_out, inst_out = [], [], [], [], [], []
    for wid, url, auths in zip(work_ids, urls, authorships):
        ids.append("w:" + wid)
        sides.append("work")
        hosts.append(host_key(url))
        paths.append(path_key(url))
        names, insts = [], []
        for a in auths or []:
            name = a.get("raw_author_name") or ""
            if name:
                names.append(name)
            for s in a.get("raw_affiliation_strings") or []:
                if s and s not in insts:
                    insts.append(s)
        auth_out.append(names)
        inst_out.append(insts)
    return _record_rows(ids, sides, dois, hosts, paths, auth_out, inst_out)


# ---- inputs ---------------------------------------------------------------

NAMES = [None, "", "Wei Wang", "wei  wang", "WEI WANG", "a\x00b", "a\x00c", "Zoë Ångström",
         "Łukasz Żółw", "Þór ß", "!!!", "   ", "株式会社", "Ann Lee", "ann-lee", "Bo Chen"]
DOIS = [None, "", "10.1/x", "10.1/X", "https://doi.org/10.1/x", "doi:10.2/Y",
        "https://doi.org/", " 10.3/z "]
URLS = ["https://j.org/index.php/rev/article/view/12", "http://J.org:8080/a",
        "https://mirror.net/ojs/index.php/rev/article/view/12", "notaurl", "http://[bad",
        "", "https://h.org/p\x00q"]
PAGES = pa.schema([("url", pa.string()), ("doi", pa.string()),
                   ("mention_authors", pa.list_(pa.string())),
                   ("mention_insts", pa.list_(pa.string()))])
WORKS = pa.schema([("work_id", pa.string()), ("doi", pa.string()),
                   ("landing_page_url", pa.string()),
                   ("authorships", pa.list_(pa.struct([
                       ("raw_author_name", pa.string()),
                       ("raw_affiliation_strings", pa.list_(pa.string()))])))])

_name = st.one_of(st.sampled_from(NAMES), st.text(max_size=6))
_names = st.one_of(st.none(), st.lists(_name, max_size=6))
_doi = st.one_of(st.sampled_from(DOIS), st.text(max_size=6))
_url = st.one_of(st.sampled_from(URLS), st.text(max_size=12))
_page = st.tuples(_url, _doi, _names, _names)
_authorship = st.fixed_dictionaries({"raw_author_name": _name,
                                     "raw_affiliation_strings": _names})
_work = st.tuples(st.text(max_size=4), _doi, st.one_of(st.none(), _url),
                  st.one_of(st.none(), st.lists(_authorship, max_size=4)))
# (rows dropped from the front, chunk split point) of a Ray-like batch
_layout = st.tuples(st.integers(0, 3), st.integers(0, 40))


def _batch(rows, schema, layout):
    """``rows`` as a table of ``schema`` whose columns are sliced at a
    non-zero offset (junk rows dropped from the front) and, when the
    split point falls inside, split into two chunks."""
    skip, split = layout
    rows = rows[:1] * skip + rows
    t = pa.Table.from_pylist([dict(zip(schema.names, r)) for r in rows], schema=schema)
    t = t.slice(skip if len(t) else 0)
    if 0 < split < len(t):
        t = pa.concat_tables([t.slice(0, split), t.slice(split)])
    return t


_settings = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@given(st.lists(_page, max_size=30), _layout)
@_settings
def test_page_records_equal_per_row_loop(rows, layout):
    batch = _batch(rows, PAGES, layout)
    got = records.page_records_batch(batch)
    assert got.equals(page_records_batch(batch))
    assert got.schema == page_records_batch(batch).schema


@given(st.lists(_work, max_size=30), _layout)
@_settings
def test_work_records_equal_per_row_loop(rows, layout):
    batch = _batch(rows, WORKS, layout)
    got = records.work_records_batch(batch)
    assert got.equals(work_records_batch(batch))


_blob = st.one_of(st.sampled_from(["", "ann lee", "ann lee bo chen", "a\x00b", "a\x00c",
                                   "zoe", "ab"]), st.text(max_size=8))
_key_row = st.tuples(_doi, st.one_of(st.none(), _url), st.one_of(st.none(), _url),
                     st.one_of(st.none(), _blob), st.lists(_blob, max_size=5))
KEYED = pa.schema([("doi_norm", pa.string()), ("host_key", pa.string()),
                   ("path_key", pa.string()), ("name_blob", pa.string()),
                   ("authors_norm", pa.list_(pa.string()))])


@given(st.lists(_key_row, max_size=30), _layout)
@_settings
def test_block_keys_equal_per_row_loop(rows, layout):
    """Hand-built records, whose ``name_blob`` need not match their
    names, get the reference's keys and suffixes."""
    t = _batch(rows, KEYED, layout)
    assert block.with_block_keys(t).equals(with_block_keys(t))


def test_all_rows_dropped_is_typed_empty():
    pages = _batch([("https://h.org/a", None, None, ["Uni"]),
                    ("https://h.org/b", "", ["", None], None)], PAGES, (1, 1))
    works = _batch([("w1", "https://doi.org/", None, [{"raw_author_name": "",
                                                        "raw_affiliation_strings": ["X"]}]),
                    ("w2", None, None, None)], WORKS, (0, 0))
    for got, want in ((records.page_records_batch(pages), page_records_batch(pages)),
                      (records.work_records_batch(works), work_records_batch(works))):
        assert got.num_rows == 0 and got.num_columns == 12
        assert got.schema == want.schema
        assert got.equals(want)


def test_nul_divergent_names_stay_apart():
    batch = _batch([("https://h.org/a", None, ["a\x00b", "a\x00c", "a\x00b"],
                     ["u\x00v", "u\x00w"])], PAGES, (0, 0))
    got = records.page_records_batch(batch)
    assert got["authors"].to_pylist() == [["a\x00b", "a\x00c"]]
    assert got["insts"].to_pylist() == [["u\x00v", "u\x00w"]]
    assert got.equals(page_records_batch(batch))


@pytest.mark.parametrize("side", ["page", "work"])
def test_each_distinct_value_computed_once(monkeypatch, side):
    """One ``normalize_text`` call per distinct author or institution
    string of the records kept, and one MinHash signature per distinct
    non-empty name blob, in each batch: a per-row path fails this."""
    normalized, hashed = [], []
    norm = records.normalize_text
    sigs = MinHasher.signatures
    monkeypatch.setattr(records, "normalize_text", lambda s: normalized.append(s) or norm(s))
    monkeypatch.setattr(MinHasher, "signatures",
                        lambda self, texts: hashed.extend(texts) or sigs(self, texts))
    people = [["Wei Wang", "Ann Lee"], ["Ann Lee", "Wei Wang"], ["Wei Wang", "Ann Lee"],
              ["Bo Chen"], ["bo chen"], [], [""]]
    insts = [["MIT", "ETH"], ["ETH"], ["MIT"], ["Wei Wang"], [], ["Nobody"], ["Dropped"]]
    dois = [None, "10.1/a", None, None, None, None, None]
    if side == "page":
        batch = _batch([(f"https://h.org/{i}", d, p, q)
                        for i, (d, p, q) in enumerate(zip(dois, people, insts))], PAGES, (1, 3))
        got = records.page_records_batch(batch)
    else:
        rows = [(f"w{i}", d, None,
                 [{"raw_author_name": a, "raw_affiliation_strings": q} for a in p]
                 or [{"raw_author_name": None, "raw_affiliation_strings": q}])
                for i, (d, p, q) in enumerate(zip(dois, people, insts))]
        batch = _batch(rows, WORKS, (1, 3))
        got = records.work_records_batch(batch)
    assert got["record_id"].to_pylist()[-1].endswith("4")  # rows 5 and 6 are dropped
    strings = {s for col in ("authors", "insts") for ss in got[col].to_pylist() for s in ss}
    assert sorted(normalized) == sorted(strings)
    assert sorted(hashed) == ["ann lee wei wang", "bo chen"]
