"""Deterministic synthesis of the linkage input tables.

BASELINE.json's input_hint fixes the primary input: a Parquet table
``pages(url, warc_ts, html, text, lang)`` of Common-Crawl-style web
pages. No such table exists in /root/testdata, so it is synthesized
here deterministically (fixed seed, no wall clock, no network) at a
scale tied to each sf tier, together with the correlated side tables
(FIXTURES.md F1-F4):

- ``pages``            the primary input (OJS-style landing pages)
- ``reference_works``  OpenAlex-style authority records with TRUE
                       spellings (shape from `get-openalex...main.rs:69-84`)
- ``base_urls``        blocking side table (`get_journal...py:74-76`)
- ``oai_urls``         raw OAI endpoint rows the base-url pipeline reads
- ``labeled_pairs``    ground truth for the pairwise-F1 >= 0.99 gate

Corruption design (drives the F1 gate margins): page-side mentions are
either (a) byte-exact, (b) "light" — case/diacritic/punct/whitespace
variants that normalize_text() maps to the identical key, or (c) one
character edit on names >= 12 chars (normalized InDel ratio >= 92).
Planted hard negatives share a first name + host but differ by >= 3
character edits in the surname (ratio <= 88) and carry different
institutions, so a match threshold of 90 separates positives from
negatives with margin on BOTH sides. Entities without a DOI on some of
their pages force the fuzzy path; transitive A-B-C page chains force
the clustering stage to infer A-C.

Fixtures are cached under /tmp/graft_fixtures/{tier}/ with a VERSION
stamp; bump _FIXTURE_VERSION whenever generation logic changes.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_FIXTURE_VERSION = "11"

_FILLER_WORDS = (
    "research method analysis data result discussion theory model sample "
    "study review evidence approach framework measure significant factor "
    "development process system context practice knowledge education social "
    "community journal article publication author reader editor volume issue "
    "university institute department laboratory science national regional "
    "international policy economic cultural historical empirical qualitative "
    "quantitative survey interview observation experiment hypothesis variable"
).split()

FIXTURE_ROOT = "/tmp/graft_fixtures"

# entities (works) per tier; pages ~= entities * 1.85 + 15% noise
TIER_ENTITIES = {"sf0.001": 40, "sf0.01": 800, "sf0.1": 90000}

# big tiers go through the SHARDED parallel generator (generate_sharded):
# pages/reference_works/labeled_pairs are written as one-file-per-shard
# parquet DIRECTORIES so generation parallelizes across processes and
# memory stays bounded per shard. The small tiers keep the monolithic
# generator byte-for-byte (their cached fixtures and oracle-persisted
# inputs stay valid — no _FIXTURE_VERSION bump needed for sf1).
# sf0.3 exists for the big-tier SCALING pair: a 4-CPU leg at sf1 costs
# ~3 h on this VM, so the 4x-ratio (4 vs 16 CPU) efficiency evidence
# runs at 3x sf0.1 while sf1 carries the absolute wall-time/no-OOM proof
BIG_TIER_ENTITIES = {"sf1": 900_000, "sf0.3": 270_000}
_BIG_SHARDS = 16
# the raw record files feed parse_records queries that only run at
# sf<=0.1; cap their size at the sf0.1 scale for big tiers
_BIG_RECORD_FILE_CAP = 90_000

_FIRST = [
    "María", "José", "Ana", "Luis", "Carmen", "Juan", "Lucía", "Pedro",
    "Sofía", "Diego", "Elena", "Pablo", "Inés", "Andrés", "Björn", "Søren",
    "Chloé", "François", "Müge", "Jürgen", "Agnieszka", "Paweł", "Nguyễn",
    "Trần", "Siti", "Budi", "Putri", "Agus", "Ratna", "Dewi", "Kofi",
    "Amara", "Yuki", "Haruto", "Wei", "Ling", "Ivan", "Olga", "Dmitri",
    "Svetlana",
]
_LAST = [
    "García", "Rodríguez", "Martínez", "Fernández", "López", "Santos",
    "Pereira", "Oliveira", "Silva", "Souza", "Costa", "Almeida", "Müller",
    "Schneider", "Dubois", "Lefèvre", "Kowalski", "Nowak", "Santoso",
    "Wijaya", "Kusuma", "Hidayat", "Okafor", "Mensah", "Tanaka", "Sato",
    "Zhang", "Wang", "Petrov", "Ivanova", "Johansson", "Andersen",
    "Papadopoulos", "Rossi", "Bianchi", "Moreau", "Hansen", "Virtanen",
    "Nakamura", "Kimura",
]
_INST_A = [
    "Universidad de", "Universidade Federal de", "University of",
    "Institut de Recherche de", "Universitas", "Instituto Nacional de",
    "Politécnico de", "Academia de Ciencias de", "Center for Advanced Study of",
    "Laboratório de",
]
_INST_B = [
    "Chile", "São Paulo", "Antioquia", "Yogyakarta", "Cataluña", "Lisboa",
    "Guadalajara", "Heidelberg", "Kraków", "Bandung", "Nairobi", "Kyoto",
    "Montevideo", "La Plata", "Tromsø", "Gdańsk", "Córdoba", "Valparaíso",
    "Recife", "Medellín",
]

_LANGS = ["en", "es", "pt", "id"]
_LANG_P = [0.45, 0.25, 0.2, 0.1]

# OJS host pool shapes; a couple of mega-publishers own a large share
# of journals to exercise hot-key salting (SURVEY.md §4 skew row).
_TLDS = ["edu", "org", "ac.id", "edu.br", "cl", "edu.co", "org.pe", "ac.uk"]


def _hosts(rng, n_hosts):
    hosts = []
    for i in range(n_hosts):
        tld = _TLDS[i % len(_TLDS)]
        hosts.append(f"journals{i}.univ{i % 97}.{tld}")
    return hosts


def _light_variant(rng, text):
    """Variant that normalize_text() maps to the same key."""
    mode = rng.randint(4)
    if mode == 0:
        return text.upper()
    if mode == 1:
        return text.lower()
    if mode == 2:
        return "  " + text.replace(" ", "  ") + " "
    # strip diacritics crudely by NFKD-folding via our own normalizer input
    from ..functions.textnorm import ascii_fold

    return ascii_fold(text)


def _edit_variant(rng, text):
    """One-character edit (delete) away; only for len >= 12."""
    if len(text) < 12:
        return text
    pos = 1 + rng.randint(len(text) - 2)
    return text[:pos] + text[pos + 1 :]


def _corrupt(rng, text):
    r = rng.rand()
    if r < 0.55:
        return text
    if r < 0.90:
        return _light_variant(rng, text)
    return _edit_variant(rng, text)


def _page_html(rng, template, doi, authors_insts, lang, noise_tag=False):
    """Assemble an OJS-like landing page. template in
    {'meta','ul','both'}; authors_insts = [(author, [insts])]."""
    head = ["<html><head><title>Article view</title>"]
    body = ["<body>"]
    if doi:
        head.append(f'<meta name="citation_doi" content="{doi}">')
    head.append(f'<meta name="citation_language" content="{lang}">')
    if noise_tag:
        # institution tag before any author tag: dropped by M11
        head.append('<meta name="citation_author_institution" content="Orphan Institute">')
    if template in ("meta", "both"):
        for author, insts in authors_insts:
            nm = "Citation_Author" if rng.rand() < 0.15 else "citation_author"
            head.append(f'<meta name="{nm}" content="{author}">')
            for inst in insts:
                head.append(f'<meta name="citation_author_institution" content="{inst}">')
        if rng.rand() < 0.1:
            head.append('<meta name="citation_author" content="   ">')  # empty content skipped
    if template in ("ul", "both"):
        body.append('<ul class="authors">')
        for author, insts in authors_insts:
            aff = f'<span class="affiliation">{insts[0]}</span>' if insts else ""
            body.append(f'<li><span class="name">{author}</span>{aff}</li>')
        body.append("</ul>")
    body.append(f"<h1>Research article {rng.randint(10000)}</h1>")
    body.append(f"<p>Abstract text segment {rng.randint(10**6)} about topic {rng.randint(500)}.</p>")
    # realistic Common-Crawl-ish page weight (~15-25 KB of body):
    # article full text, nav boilerplate, reference list. One RNG draw
    # for the whole page keeps generation fast at bench scale.
    n_paras = 12 + rng.randint(12)
    n_refs = 8 + rng.randint(12)
    word_idx = rng.randint(0, len(_FILLER_WORDS), size=n_paras * 110 + n_refs * 14)
    wpos = 0
    for pi in range(n_paras):
        take = 60 + (int(word_idx[wpos]) % 60)
        chunk = " ".join(_FILLER_WORDS[w] for w in word_idx[wpos:wpos + take])
        wpos += take
        body.append(f'<p id="para{pi}">{chunk}.</p>')
    body.append('<div class="references"><h2>References</h2><ol>')
    for ri in range(n_refs):
        take = 8 + (int(word_idx[wpos]) % 6)
        chunk = " ".join(_FILLER_WORDS[w] for w in word_idx[wpos:wpos + take])
        wpos += take
        body.append(f"<li>{chunk} ({1980 + (int(word_idx[wpos-1]) % 45)}).</li>")
    body.append("</ol></div>")
    body.append("<script>var ignored = 1;</script>")
    body.append("</body></html>")
    head.append("</head>")
    return "".join(head) + "".join(body)


def _person(rng):
    """Name with optional middle initial — the initial lifts name-space
    entropy so identical-name collisions across entities stay rare even
    at sf0.1 cardinalities (keeps LSH blocks from degenerating into
    same-name cliques)."""
    first = _FIRST[rng.randint(len(_FIRST))]
    last = _LAST[rng.randint(len(_LAST))]
    if rng.rand() < 0.85:
        mi = chr(ord('A') + rng.randint(26))
        return f"{first} {mi}. {last}"
    return f"{first} {last}"


def _institution(rng):
    """Department-qualified institution: lifts the effective pool from
    200 to ~20k distinct strings (closer to the real affiliation-string
    space), so cross-entity (same name, same institution) collisions —
    genuinely ambiguous records — stay rare."""
    base = f"{_INST_A[rng.randint(len(_INST_A))]} {_INST_B[rng.randint(len(_INST_B))]}"
    if rng.rand() < 0.8:
        return f"{base}, Departamento {rng.randint(100)}"
    return base


def _oa_record_line(i: int) -> str:
    """Deterministic nested OpenAlex JSONL line exercising the M6
    fallback chain + status enum (every branch of
    `parse_record_data_from_files.py:189-312` reachable from data)."""
    case = i % 14
    host = f"oa{i % 7}.example.org"
    doi = f"https://doi.org/10.{1000 + i % 50}/rec.{i}"
    landing = f"https://{host}/article/view/{i}"
    pdf = f"https://{host}/article/download/{i}"
    rec: dict = {"id": f"https://openalex.org/W{7000000 + i}"}
    if case == 4:  # DOI present but prefix not extractable
        rec["doi"] = "weird-doi"
        rec["primary_location"] = {"landing_page_url": landing, "pdf_url": pdf}
    elif case == 5:  # pdf + doi only in best_oa_location
        rec["primary_location"] = {"landing_page_url": landing}
        rec["best_oa_location"] = {"pdf_url": pdf, "doi": doi}
    elif case == 6:  # landing/pdf fallback to best_oa_location
        rec["doi"] = doi
        rec["primary_location"] = {"landing_page_url": None, "pdf_url": None}
        rec["best_oa_location"] = {"landing_page_url": landing, "pdf_url": pdf}
    elif case == 7:  # URL_INVALID
        rec["doi"] = doi
        rec["primary_location"] = {"landing_page_url": "not a url", "pdf_url": pdf}
    elif case == 8:  # URL_MISSING (no locations)
        rec["doi"] = doi
    elif case == 9:  # ID_INVALID_TYPE (numeric id)
        rec["id"] = 7000000 + i
        rec["doi"] = doi
        rec["primary_location"] = {"landing_page_url": landing, "pdf_url": pdf}
    elif case == 10:  # doi only in primary_location
        rec["primary_location"] = {"landing_page_url": landing, "pdf_url": pdf,
                                   "doi": doi}
    elif case == 11:  # PDF_URL_INVALID
        rec["doi"] = doi
        rec["primary_location"] = {"landing_page_url": landing,
                                   "pdf_url": "not-a-pdf-url"}
    elif case == 12:  # ID_INVALID_TYPE (boolean id — Python str() is 'True')
        rec["id"] = True
        rec["doi"] = doi
        rec["primary_location"] = {"landing_page_url": landing, "pdf_url": pdf}
    elif case == 13:  # percent-encoded DOI (prefix extracted AFTER unquote,
        # `parse_record_data_from_files.py:105-113`)
        rec["doi"] = f"10.{1000 + i % 50}%2Fenc.{i}"
        rec["primary_location"] = {"landing_page_url": landing, "pdf_url": pdf}
    else:  # 0-3 plain rows (pdf sometimes absent — no status impact)
        rec["doi"] = doi
        rec["primary_location"] = {"landing_page_url": landing,
                                   "pdf_url": pdf if i % 2 else None}
    return json.dumps(rec)


def _cr_record_line(i: int) -> str:
    """Deterministic nested Crossref JSONL line (M7 branches:
    `parse_record_data_from_files.py:116-186`)."""
    case = i % 8
    host = f"cr{i % 5}.example.org"
    doi = f"10.{2000 + i % 30}/cr.{i}"
    url = f"https://{host}/article/{i}"
    ts = 1577836800000 + i * 977
    rec: dict = {"DOI": doi, "resource": {"primary": {"URL": url}},
                 "deposited": {"timestamp": ts}}
    if case == 2:
        del rec["DOI"]  # doi '' -> prefix falls back to path (or '')
    elif case == 3:
        del rec["deposited"]  # missing ts -> OK with ''
    elif case == 4:
        del rec["resource"]  # URL_MISSING
    elif case == 5:
        rec["resource"]["primary"]["URL"] = "://broken"  # URL_INVALID
    elif case == 6:
        rec["deposited"]["timestamp"] = -5  # non-positive -> TS error
    elif case == 7:
        rec["deposited"]["timestamp"] = 33000000000000  # year 3015 -> TS error
    return json.dumps(rec)


# special raw lines injected at deterministic positions in the first shard
_OA_SPECIALS = ["", "{bad json", "[1, 2]"]  # empty / decode error / non-dict
_CR_SPECIALS = ["", "{bad json", "[1, 2]"]  # non-dict -> UNEXPECTED_PARSE_ERROR


def _write_jsonl_gz(path: str, lines) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as f:
        for ln in lines:
            f.write(ln + "\n")


def _generate_record_files(out_dir: str, n_entities: int) -> None:
    """M6/M7 fixture: *.jsonl.gz trees of nested OpenAlex / Crossref
    records (engine input) plus raw-line parquet mirrors
    records_{openalex,crossref}_raw.parquet (source_file_relative,
    line_number, raw) so the DuckDB oracle re-derives the flat contract
    from the SAME raw lines fully independently."""
    raw = {"openalex": [], "crossref": []}

    def _emit(kind: str, rel: str, lines) -> None:
        _write_jsonl_gz(os.path.join(out_dir, f"records_{kind}", rel), lines)
        for n, ln in enumerate(lines, 1):
            raw[kind].append((rel, n, ln))

    # --- openalex: flat shards ---
    n_oa = max(96, n_entities // 4)
    shard_size = 400
    oa_lines = [_oa_record_line(i) for i in range(n_oa)]
    # specials early in shard 0 (line numbers shift the rest — intended)
    for pos, special in enumerate(_OA_SPECIALS):
        oa_lines.insert(3 + 5 * pos, special)
    for s in range(0, len(oa_lines), shard_size):
        _emit("openalex", f"shard-{s // shard_size:03d}.jsonl.gz",
              oa_lines[s : s + shard_size])

    # --- crossref: <member>/<prefix>/ tree + flat + invalid-path ---
    n_cr = max(64, n_entities // 6)
    cr_lines = [_cr_record_line(i) for i in range(n_cr)]
    groups = {"501/10.2000/data.jsonl.gz": [],
              "502/10.2001/data.jsonl.gz": [],
              "flat.jsonl.gz": [],
              "abc/9.99/data.jsonl.gz": []}
    keys = list(groups)
    for i, ln in enumerate(cr_lines):
        groups[keys[i % 4]].append(ln)
    for pos, special in enumerate(_CR_SPECIALS):
        groups["501/10.2000/data.jsonl.gz"].insert(2 + 3 * pos, special)
    for rel, lines in groups.items():
        _emit("crossref", rel, lines)

    for kind, rows in raw.items():
        pq.write_table(
            pa.table({
                "source_file_relative": pa.array([r[0] for r in rows], pa.string()),
                "line_number": pa.array([r[1] for r in rows], pa.int64()),
                "raw": pa.array([r[2] for r in rows], pa.string()),
            }),
            os.path.join(out_dir, f"records_{kind}_raw.parquet"),
            row_group_size=1024)


def generate(tier: str, out_dir: str) -> None:
    """Generate all fixture tables for a tier into out_dir."""
    n_entities = TIER_ENTITIES[tier]
    rng = np.random.RandomState(42)

    n_hosts = max(8, n_entities // 25)
    hosts = _hosts(rng, n_hosts)
    # journal -> host assignment; first 2 hosts are mega-publishers
    n_journals = max(4, n_entities // 8)
    journal_host = []
    for j in range(n_journals):
        r = rng.rand()
        if r < 0.22:
            journal_host.append(hosts[0])
        elif r < 0.40:
            journal_host.append(hosts[1])
        else:
            journal_host.append(hosts[2 + rng.randint(n_hosts - 2)])
    journal_scheme = ["https" if rng.rand() < 0.8 else "http" for _ in range(n_journals)]
    journal_name = [f"rev{j}" for j in range(n_journals)]

    # ---- entities (works) ----
    entities = []
    for e in range(n_entities):
        j = rng.randint(n_journals)
        n_auth = 1 + rng.randint(4)
        authors = []
        for _ in range(n_auth):
            name = _person(rng)
            n_inst = rng.randint(3)  # 0..2
            insts = [_institution(rng) for _ in range(n_inst)]
            authors.append((name, insts))
        has_doi = rng.rand() < 0.9
        doi = f"10.{4000 + j % 800}/{journal_name[j]}.v{e}" if has_doi else ""
        entities.append({"eid": e, "journal": j, "doi": doi, "authors": authors})

    # hard negatives: for ~10% of entities plant a sibling entity on the
    # SAME journal whose first author shares the first name but has a
    # surname >= 3 edits away and different institutions.
    n_base = len(entities)
    for e in range(0, n_base, 10):
        ent = entities[e]
        j = ent["journal"]
        first = ent["authors"][0][0].split(" ")[0]
        other_last = _LAST[(e * 7 + 3) % len(_LAST)]
        # ensure a genuinely different surname
        if other_last == ent["authors"][0][0].split(" ")[-1]:
            other_last = _LAST[(e * 7 + 13) % len(_LAST)]
        sib_authors = [(f"{first} {other_last}", [_institution(rng)])]
        eid = len(entities)
        entities.append(
            {"eid": eid, "journal": j,
             "doi": f"10.{4000 + j % 800}/{journal_name[j]}.v{eid}" if rng.rand() < 0.9 else "",
             "authors": sib_authors, "sibling_of": e}
        )

    # ---- reference_works (authority, true spellings) ----
    rw_rows = {"work_id": [], "doi": [], "landing_host": [], "landing_page_url": [],
               "authorships": []}
    for ent in entities:
        j = ent["journal"]
        url = f"{journal_scheme[j]}://{journal_host[j]}/index.php/{journal_name[j]}/article/view/{ent['eid']}"
        rw_rows["work_id"].append(f"W{100000 + ent['eid']}")
        rw_rows["doi"].append(ent["doi"])
        rw_rows["landing_host"].append(journal_host[j])
        rw_rows["landing_page_url"].append(url)
        rw_rows["authorships"].append(
            [{"raw_author_name": a, "raw_affiliation_strings": list(insts)} for a, insts in ent["authors"]]
        )

    # ---- pages ----
    pages = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}
    page_entity = []  # parallel truth: entity id or -1 (noise)
    templates = ["meta", "ul", "both"]
    base_ts = 1577836800_000_000  # 2020-01-01 in epoch micros

    for ent in entities:
        j = ent["journal"]
        k = rng.choice([1, 2, 3], p=[0.35, 0.45, 0.20])
        # page 0 on the journal host; later pages may sit on a mirror host
        for p in range(k):
            host = journal_host[j] if (p == 0 or rng.rand() < 0.5) else hosts[(j + 3) % n_hosts]
            scheme = journal_scheme[j]
            url = f"{scheme}://{host}/index.php/{journal_name[j]}/article/view/{ent['eid']}" + (
                f"/version/{p}" if p else "")
            corrupted = []
            for a, insts in ent["authors"]:
                ca = _corrupt(rng, a)
                cinsts = [_corrupt(rng, i) for i in insts]
                corrupted.append((ca, cinsts))
            include_doi = bool(ent["doi"]) and rng.rand() < 0.8
            template = templates[rng.randint(3)]
            lang = _LANGS[int(rng.choice(len(_LANGS), p=_LANG_P))]
            html = _page_html(rng, template, ent["doi"] if include_doi else "",
                              corrupted, lang, noise_tag=rng.rand() < 0.05)
            pages["url"].append(url)
            pages["warc_ts"].append(base_ts + len(pages["url"]) * 61_000_000 + rng.randint(1000))
            pages["html"].append(html.encode("utf-8"))
            pages["text"].append("")
            pages["lang"].append(lang)
            page_entity.append(ent["eid"])

    # noise pages: no metadata at all / malformed
    n_noise = max(4, int(0.15 * len(page_entity)))
    for z in range(n_noise):
        host = hosts[rng.randint(n_hosts)]
        url = f"https://{host}/index.php/misc/issue/view/{z}"
        if rng.rand() < 0.3:
            html = f"<html><body><p>Announcement {z}</p>"  # truncated
        else:
            html = f"<html><head><title>Issue {z}</title></head><body><div>Table of contents {z}</div></body></html>"
        pages["url"].append(url)
        pages["warc_ts"].append(base_ts + len(pages["url"]) * 61_000_000 + rng.randint(1000))
        pages["html"].append(html.encode("utf-8"))
        pages["text"].append("")
        pages["lang"].append("en")
        page_entity.append(-1)

    # ---- oai_urls + base_urls ----
    oai_rows = []
    for j in range(n_journals):
        base = f"{journal_scheme[j]}://{journal_host[j]}"
        suffix = ["/index.php/index/oai", "/journal/index.php/index/oai", "/oai"][rng.randint(3)]
        oai_rows.append(base + suffix)
        if rng.rand() < 0.3:
            oai_rows.append(base + suffix)  # duplicate -> dedup target
    oai_rows.append("")  # blank row skipped
    oai_rows.append("https://decoy.example.net/no-suffix-endpoint")

    from ..functions.urlkeys import strip_oai_suffix, url_key

    base_set = set()
    for u in oai_rows:
        if u and u.strip():
            b = strip_oai_suffix(u.strip())
            if b:
                base_set.add(b)
    base_urls = sorted(base_set)
    bu_rows = {"base_url": [], "scheme": [], "host": [], "port": []}
    for b in base_urls:
        key = url_key(b)
        bu_rows["base_url"].append(b)
        bu_rows["scheme"].append(key[0] if key else "")
        bu_rows["host"].append(key[1] if key else "")
        bu_rows["port"].append(key[2] if key else 0)

    # ---- labeled_pairs ----
    # records: pages (p:url) and works (w:Wid). Positives: all
    # page-page / page-work pairs of the same entity. Negatives:
    # sibling hard negatives + sampled same-journal pairs.
    ent_pages: dict[int, list[int]] = {}
    for idx, eid in enumerate(page_entity):
        if eid >= 0:
            ent_pages.setdefault(eid, []).append(idx)

    lp = {"left_id": [], "right_id": [], "block_key": [], "is_match": []}

    def _add_pair(lid, rid, key, match):
        if lid > rid:
            lid, rid = rid, lid
        lp["left_id"].append(lid)
        lp["right_id"].append(rid)
        lp["block_key"].append(key)
        lp["is_match"].append(match)

    for ent in entities:
        eid = ent["eid"]
        pidx = ent_pages.get(eid, [])
        wid = "w:" + f"W{100000 + eid}"
        j = ent["journal"]
        hostkey = f"host:{journal_scheme[j]}://{journal_host[j]}:{443 if journal_scheme[j]=='https' else 80}"
        for a_i, a in enumerate(pidx):
            _add_pair("p:" + pages["url"][a], wid, hostkey, True)
            for b in pidx[a_i + 1 :]:
                _add_pair("p:" + pages["url"][a], "p:" + pages["url"][b],
                          hostkey if a_i == 0 else "transitive", True)
        # hard negative vs sibling
        sib = ent.get("sibling_of")
        if sib is not None:
            for a in pidx:
                _add_pair("p:" + pages["url"][a], f"w:W{100000 + sib}", hostkey, False)
            _add_pair(wid, f"w:W{100000 + sib}", hostkey, False)
            for b in ent_pages.get(sib, [])[:2]:
                for a in pidx:
                    _add_pair("p:" + pages["url"][a], "p:" + pages["url"][b], hostkey, False)
    # sampled same-journal negatives
    by_journal: dict[int, list] = {}
    for ent in entities:
        by_journal.setdefault(ent["journal"], []).append(ent)
    for j, ents in sorted(by_journal.items()):
        if len(ents) < 2:
            continue
        for _ in range(min(len(ents), 20)):
            e1, e2 = rng.choice(len(ents), 2, replace=False)
            a_ent, b_ent = ents[int(e1)], ents[int(e2)]
            if a_ent.get("sibling_of") == b_ent["eid"] or b_ent.get("sibling_of") == a_ent["eid"]:
                continue
            pga, pgb = ent_pages.get(a_ent["eid"], []), ent_pages.get(b_ent["eid"], [])
            if pga and pgb:
                hostkey = f"host:{journal_scheme[j]}://{journal_host[j]}:{443 if journal_scheme[j]=='https' else 80}"
                _add_pair("p:" + pages["url"][pga[0]], "p:" + pages["url"][pgb[0]], hostkey, False)

    # dedup labeled pairs (a pair may be added through several paths;
    # is_match is consistent per pair by construction)
    seen = {}
    for i in range(len(lp["left_id"])):
        seen[(lp["left_id"][i], lp["right_id"][i])] = i
    keep = sorted(seen.values())
    lp = {k: [v[i] for i in keep] for k, v in lp.items()}

    # ---- write ----
    os.makedirs(out_dir, exist_ok=True)
    _generate_record_files(out_dir, n_entities)
    pages_tbl = pa.table(
        {
            "url": pa.array(pages["url"], pa.string()),
            "warc_ts": pa.array(pages["warc_ts"], pa.timestamp("us")),
            "html": pa.array(pages["html"], pa.binary()),
            "text": pa.array(pages["text"], pa.string()),
            "lang": pa.array(pages["lang"], pa.string()),
        }
    )
    # small row groups so a parquet scan splits into many parallel read
    # tasks (a single default-sized row group caps extraction fan-out)
    pq.write_table(pages_tbl, os.path.join(out_dir, "pages.parquet"),
                   row_group_size=1024)

    auth_type = pa.list_(
        pa.struct(
            [("raw_author_name", pa.string()), ("raw_affiliation_strings", pa.list_(pa.string()))]
        )
    )
    rw_tbl = pa.table(
        {
            "work_id": pa.array(rw_rows["work_id"], pa.string()),
            "doi": pa.array(rw_rows["doi"], pa.string()),
            "landing_host": pa.array(rw_rows["landing_host"], pa.string()),
            "landing_page_url": pa.array(rw_rows["landing_page_url"], pa.string()),
            "authorships": pa.array(rw_rows["authorships"], auth_type),
        }
    )
    pq.write_table(rw_tbl, os.path.join(out_dir, "reference_works.parquet"))

    pq.write_table(
        pa.table({"oai_url": pa.array(oai_rows, pa.string())}),
        os.path.join(out_dir, "oai_urls.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "base_url": pa.array(bu_rows["base_url"], pa.string()),
                "scheme": pa.array(bu_rows["scheme"], pa.string()),
                "host": pa.array(bu_rows["host"], pa.string()),
                "port": pa.array(bu_rows["port"], pa.int32()),
            }
        ),
        os.path.join(out_dir, "base_urls.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "left_id": pa.array(lp["left_id"], pa.string()),
                "right_id": pa.array(lp["right_id"], pa.string()),
                "block_key": pa.array(lp["block_key"], pa.string()),
                "is_match": pa.array(lp["is_match"], pa.bool_()),
            }
        ),
        os.path.join(out_dir, "labeled_pairs.parquet"),
    )
    with open(os.path.join(out_dir, "VERSION"), "w") as f:
        f.write(_FIXTURE_VERSION)


def _journal_tables(n_entities: int):
    """Deterministic GLOBAL journal/host assignment, identical in every
    shard process (RandomState(42), same construction as generate()'s
    first block): shards may differ in entities but must agree on which
    journal lives on which host, or cross-shard blocking would see
    phantom hosts."""
    rng = np.random.RandomState(42)
    n_hosts = max(8, n_entities // 25)
    hosts = _hosts(rng, n_hosts)
    n_journals = max(4, n_entities // 8)
    journal_host = []
    for j in range(n_journals):
        r = rng.rand()
        if r < 0.22:
            journal_host.append(hosts[0])
        elif r < 0.40:
            journal_host.append(hosts[1])
        else:
            journal_host.append(hosts[2 + rng.randint(n_hosts - 2)])
    journal_scheme = ["https" if rng.rand() < 0.8 else "http"
                      for _ in range(n_journals)]
    journal_name = [f"rev{j}" for j in range(n_journals)]
    return hosts, n_hosts, journal_host, journal_scheme, journal_name


def _generate_shard(tier: str, shard: int, n_shards: int, out_dir: str) -> int:
    """One shard of a big tier: entities with GLOBAL ids in
    [shard*N/n_shards, (shard+1)*N/n_shards) plus their sibling hard
    negatives (sibling eids offset past N so they never collide across
    shards), the pages for both, and the shard's labeled pairs. Same
    distributions as generate() (authors, corruption, templates, noise
    share); rng stream is per-shard-seeded, so the DATASET differs from
    the monolith's bytes but the statistical shape and the
    positive/negative pair structure are identical. Returns the page
    count written."""
    n_entities = BIG_TIER_ENTITIES[tier]
    hosts, n_hosts, journal_host, journal_scheme, journal_name = \
        _journal_tables(n_entities)
    lo = shard * n_entities // n_shards
    hi = (shard + 1) * n_entities // n_shards
    rng = np.random.RandomState(100_000 + shard)

    entities = []
    for e in range(lo, hi):
        j = rng.randint(len(journal_host))
        n_auth = 1 + rng.randint(4)
        authors = []
        for _ in range(n_auth):
            name = _person(rng)
            insts = [_institution(rng) for _ in range(rng.randint(3))]
            authors.append((name, insts))
        doi = (f"10.{4000 + j % 800}/{journal_name[j]}.v{e}"
               if rng.rand() < 0.9 else "")
        entities.append({"eid": e, "journal": j, "doi": doi,
                         "authors": authors})

    base = list(entities)
    for ent in base:
        e = ent["eid"]
        if e % 10:
            continue
        j = ent["journal"]
        first = ent["authors"][0][0].split(" ")[0]
        other_last = _LAST[(e * 7 + 3) % len(_LAST)]
        if other_last == ent["authors"][0][0].split(" ")[-1]:
            other_last = _LAST[(e * 7 + 13) % len(_LAST)]
        eid = n_entities + e // 10  # globally unique sibling id space
        entities.append({"eid": eid, "journal": j,
                         "doi": (f"10.{4000 + j % 800}/{journal_name[j]}.v{eid}"
                                 if rng.rand() < 0.9 else ""),
                         "authors": [(f"{first} {other_last}",
                                      [_institution(rng)])],
                         "sibling_of": e})

    rw_rows = {"work_id": [], "doi": [], "landing_host": [],
               "landing_page_url": [], "authorships": []}
    for ent in entities:
        j = ent["journal"]
        url = (f"{journal_scheme[j]}://{journal_host[j]}/index.php/"
               f"{journal_name[j]}/article/view/{ent['eid']}")
        rw_rows["work_id"].append(f"W{100000 + ent['eid']}")
        rw_rows["doi"].append(ent["doi"])
        rw_rows["landing_host"].append(journal_host[j])
        rw_rows["landing_page_url"].append(url)
        rw_rows["authorships"].append(
            [{"raw_author_name": a, "raw_affiliation_strings": list(insts)}
             for a, insts in ent["authors"]])

    pages = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}
    page_entity = []
    templates = ["meta", "ul", "both"]
    base_ts = 1577836800_000_000
    for ent in entities:
        j = ent["journal"]
        k = rng.choice([1, 2, 3], p=[0.35, 0.45, 0.20])
        for p in range(k):
            host = (journal_host[j] if (p == 0 or rng.rand() < 0.5)
                    else hosts[(j + 3) % n_hosts])
            scheme = journal_scheme[j]
            url = (f"{scheme}://{host}/index.php/{journal_name[j]}"
                   f"/article/view/{ent['eid']}"
                   + (f"/version/{p}" if p else ""))
            corrupted = [( _corrupt(rng, a), [_corrupt(rng, i) for i in insts])
                         for a, insts in ent["authors"]]
            include_doi = bool(ent["doi"]) and rng.rand() < 0.8
            template = templates[rng.randint(3)]
            lang = _LANGS[int(rng.choice(len(_LANGS), p=_LANG_P))]
            html = _page_html(rng, template,
                              ent["doi"] if include_doi else "",
                              corrupted, lang, noise_tag=rng.rand() < 0.05)
            pages["url"].append(url)
            pages["warc_ts"].append(base_ts + (ent["eid"] * 4 + p)
                                    * 61_000_000 + rng.randint(1000))
            pages["html"].append(html.encode("utf-8"))
            pages["text"].append("")
            pages["lang"].append(lang)
            page_entity.append(ent["eid"])

    n_noise = max(4, int(0.15 * len(page_entity)))
    for z in range(n_noise):
        host = hosts[rng.randint(n_hosts)]
        url = f"https://{host}/index.php/misc/issue/view/{shard}_{z}"
        if rng.rand() < 0.3:
            html = f"<html><body><p>Announcement {z}</p>"
        else:
            html = (f"<html><head><title>Issue {z}</title></head>"
                    f"<body><div>Table of contents {z}</div></body></html>")
        pages["url"].append(url)
        pages["warc_ts"].append(base_ts + (n_entities * 8 + shard * n_noise
                                           + z) * 61_000_000
                                + rng.randint(1000))
        pages["html"].append(html.encode("utf-8"))
        pages["text"].append("")
        pages["lang"].append("en")
        page_entity.append(-1)

    # ---- labeled pairs (same structure as generate()) ----
    ent_pages: dict[int, list[int]] = {}
    for idx, eid in enumerate(page_entity):
        if eid >= 0:
            ent_pages.setdefault(eid, []).append(idx)
    lp = {"left_id": [], "right_id": [], "block_key": [], "is_match": []}

    def _add_pair(lid, rid, key, match):
        if lid > rid:
            lid, rid = rid, lid
        lp["left_id"].append(lid)
        lp["right_id"].append(rid)
        lp["block_key"].append(key)
        lp["is_match"].append(match)

    def _hostkey(j):
        return (f"host:{journal_scheme[j]}://{journal_host[j]}:"
                f"{443 if journal_scheme[j] == 'https' else 80}")

    for ent in entities:
        eid = ent["eid"]
        pidx = ent_pages.get(eid, [])
        wid = "w:" + f"W{100000 + eid}"
        hostkey = _hostkey(ent["journal"])
        for a_i, a in enumerate(pidx):
            _add_pair("p:" + pages["url"][a], wid, hostkey, True)
            for b in pidx[a_i + 1:]:
                _add_pair("p:" + pages["url"][a], "p:" + pages["url"][b],
                          hostkey if a_i == 0 else "transitive", True)
        sib = ent.get("sibling_of")
        if sib is not None:
            for a in pidx:
                _add_pair("p:" + pages["url"][a], f"w:W{100000 + sib}",
                          hostkey, False)
            _add_pair(wid, f"w:W{100000 + sib}", hostkey, False)
            for b in ent_pages.get(sib, [])[:2]:
                for a in pidx:
                    _add_pair("p:" + pages["url"][a], "p:" + pages["url"][b],
                              hostkey, False)
    by_journal: dict[int, list] = {}
    for ent in entities:
        by_journal.setdefault(ent["journal"], []).append(ent)
    for j, ents in sorted(by_journal.items()):
        if len(ents) < 2:
            continue
        for _ in range(min(len(ents), 20)):
            e1, e2 = rng.choice(len(ents), 2, replace=False)
            a_ent, b_ent = ents[int(e1)], ents[int(e2)]
            if (a_ent.get("sibling_of") == b_ent["eid"]
                    or b_ent.get("sibling_of") == a_ent["eid"]):
                continue
            pga = ent_pages.get(a_ent["eid"], [])
            pgb = ent_pages.get(b_ent["eid"], [])
            if pga and pgb:
                _add_pair("p:" + pages["url"][pga[0]],
                          "p:" + pages["url"][pgb[0]], _hostkey(j), False)
    seen = {}
    for i in range(len(lp["left_id"])):
        seen[(lp["left_id"][i], lp["right_id"][i])] = i
    keep = sorted(seen.values())
    lp = {k: [v[i] for i in keep] for k, v in lp.items()}

    # ---- write this shard's files ----
    tag = f"shard-{shard:03d}.parquet"
    pq.write_table(
        pa.table({
            "url": pa.array(pages["url"], pa.string()),
            "warc_ts": pa.array(pages["warc_ts"], pa.timestamp("us")),
            "html": pa.array(pages["html"], pa.binary()),
            "text": pa.array(pages["text"], pa.string()),
            "lang": pa.array(pages["lang"], pa.string()),
        }),
        os.path.join(out_dir, "pages.parquet", tag), row_group_size=1024)
    auth_type = pa.list_(pa.struct(
        [("raw_author_name", pa.string()),
         ("raw_affiliation_strings", pa.list_(pa.string()))]))
    pq.write_table(
        pa.table({
            "work_id": pa.array(rw_rows["work_id"], pa.string()),
            "doi": pa.array(rw_rows["doi"], pa.string()),
            "landing_host": pa.array(rw_rows["landing_host"], pa.string()),
            "landing_page_url": pa.array(rw_rows["landing_page_url"],
                                         pa.string()),
            "authorships": pa.array(rw_rows["authorships"], auth_type),
        }),
        os.path.join(out_dir, "reference_works.parquet", tag))
    pq.write_table(
        pa.table({
            "left_id": pa.array(lp["left_id"], pa.string()),
            "right_id": pa.array(lp["right_id"], pa.string()),
            "block_key": pa.array(lp["block_key"], pa.string()),
            "is_match": pa.array(lp["is_match"], pa.bool_()),
        }),
        os.path.join(out_dir, "labeled_pairs.parquet", tag))
    return len(pages["url"])


def generate_sharded(tier: str, out_dir: str,
                     n_shards: int = _BIG_SHARDS) -> None:
    """Parallel sharded generation for big tiers (sf1): shards run in
    a process pool (each bounded at ~1/n_shards of the corpus in
    memory), pages/reference_works/labeled_pairs land as per-shard
    files inside parquet DIRECTORIES (readers — sources.io.
    read_parquet_rowgroups and pq.read_table — both accept directories). Journal/host tables
    are deterministic and shared (see :func:`_journal_tables`)."""
    from concurrent.futures import ProcessPoolExecutor

    n_entities = BIG_TIER_ENTITIES[tier]
    os.makedirs(out_dir, exist_ok=True)
    for d in ("pages.parquet", "reference_works.parquet",
              "labeled_pairs.parquet"):
        os.makedirs(os.path.join(out_dir, d), exist_ok=True)

    workers = min(n_shards, max(2, (os.cpu_count() or 8) * 3 // 8))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        futs = [ex.submit(_generate_shard, tier, s, n_shards, out_dir)
                for s in range(n_shards)]
        total = sum(f.result() for f in futs)

    # journal-level side tables + capped raw record files (parent-side,
    # cheap relative to the page corpus)
    rng = np.random.RandomState(43)
    hosts, n_hosts, journal_host, journal_scheme, journal_name = \
        _journal_tables(n_entities)
    oai_rows = []
    for j in range(len(journal_host)):
        base = f"{journal_scheme[j]}://{journal_host[j]}"
        suffix = ["/index.php/index/oai", "/journal/index.php/index/oai",
                  "/oai"][rng.randint(3)]
        oai_rows.append(base + suffix)
        if rng.rand() < 0.3:
            oai_rows.append(base + suffix)
    oai_rows.append("")
    oai_rows.append("https://decoy.example.net/no-suffix-endpoint")

    from ..functions.urlkeys import strip_oai_suffix, url_key

    base_set = set()
    for u in oai_rows:
        if u and u.strip():
            b = strip_oai_suffix(u.strip())
            if b:
                base_set.add(b)
    bu_rows = {"base_url": [], "scheme": [], "host": [], "port": []}
    for b in sorted(base_set):
        key = url_key(b)
        bu_rows["base_url"].append(b)
        bu_rows["scheme"].append(key[0] if key else "")
        bu_rows["host"].append(key[1] if key else "")
        bu_rows["port"].append(key[2] if key else 0)
    pq.write_table(pa.table({"oai_url": pa.array(oai_rows, pa.string())}),
                   os.path.join(out_dir, "oai_urls.parquet"))
    pq.write_table(
        pa.table({
            "base_url": pa.array(bu_rows["base_url"], pa.string()),
            "scheme": pa.array(bu_rows["scheme"], pa.string()),
            "host": pa.array(bu_rows["host"], pa.string()),
            "port": pa.array(bu_rows["port"], pa.int32()),
        }),
        os.path.join(out_dir, "base_urls.parquet"))
    _generate_record_files(out_dir, min(n_entities, _BIG_RECORD_FILE_CAP))
    with open(os.path.join(out_dir, "VERSION"), "w") as f:
        f.write(_FIXTURE_VERSION)
    del total  # page count is re-derived by readers; kept for debuggers


def ensure_fixtures(sf_dir: str) -> str:
    """Idempotently materialize the fixture tables for the tier implied
    by sf_dir (basename, e.g. 'sf0.01'); returns the fixture dir.
    Cached across processes via the VERSION stamp."""
    tier = os.path.basename(os.path.normpath(sf_dir))
    if tier not in TIER_ENTITIES and tier not in BIG_TIER_ENTITIES:
        tier = "sf0.01"
    out_dir = os.path.join(FIXTURE_ROOT, tier)
    version_file = os.path.join(out_dir, "VERSION")
    if os.path.exists(version_file):
        with open(version_file) as f:
            if f.read().strip() == _FIXTURE_VERSION:
                return out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    if tier in BIG_TIER_ENTITIES:
        generate_sharded(tier, tmp)
    else:
        generate(tier, tmp)
    # atomic-ish publish; a concurrent process may have won the race
    try:
        os.rename(tmp, out_dir)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
    return out_dir
