"""Seeded input generator for the benchmark workloads.

Writes the linkage inputs the pipeline consumes -- ``pages(url, warc_ts,
html, text, lang)``, ``reference_works`` and ``labeled_pairs`` -- into one
directory, from a workload shape and a seed. Page HTML, name corruption
and institutions come from the repository's own rng-taking fixture
helpers (``_page_html``, ``_corrupt``, ``_institution``), and the
labeled pairs follow the same rules as the tier fixtures: every
page-page and page-work pair of one entity is a positive, planted
same-journal hard negatives and sampled same-journal pairs are
negatives.

What the shape adds over the tier fixtures:

- ``entities``: number of authority works (siblings and pages follow).
- ``name_pool``: size of the full-name pool authors are drawn from;
  ``None`` draws every author independently (a large distinct-name
  space), a small pool makes same-name blocks dense and hot.
- ``page_weight``: ``"light"`` drops the article body, ``"full"`` keeps
  the fixture page, ``"heavy"`` adds navigation, script and style
  boilerplate on top (~45 KB pages, crawl-like).
- ``noise_share``: noise pages (no metadata) per entity page.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources.fixtures import (
    _FILLER_WORDS,
    _LANG_P,
    _LANGS,
    _LAST,
    _corrupt,
    _hosts,
    _institution,
    _page_html,
    _person,
)

GEN_VERSION = "2"

# pages per entity in the fixtures' 35/45/20% proportions, assigned by
# entity id so every seed of a shape has the same number of pages
_PAGES_PER_ENTITY = (1,) * 7 + (2,) * 9 + (3,) * 4

_TAG_RE = re.compile(r"<[^>]+>")
_BODY_FILLER_RE = re.compile(r'<p id="para\d+">.*?</p>|<div class="references">.*?</div>')


def _boilerplate(rng, n_links: int = 260, n_rules: int = 220, n_script: int = 160) -> tuple[str, str]:
    """(head, body) boilerplate of one site's page template: a
    stylesheet, a tracking script and a navigation menu. Styles and
    scripts are skipped by text extraction; the menu is visible text."""
    words = rng.randint(0, len(_FILLER_WORDS), size=n_links + n_rules + n_script)
    css = "".join(
        f".c{i}-{_FILLER_WORDS[w]}{{margin:{i % 9}px;color:#{(w * 7919) % 0xFFFFFF:06x}}}"
        for i, w in enumerate(words[:n_rules]))
    js = ";".join(
        f"var t{i}='{_FILLER_WORDS[w]}'+{i}" for i, w in enumerate(words[n_rules:n_rules + n_script]))
    links = "".join(
        f'<li><a href="/index.php/{_FILLER_WORDS[w]}/{i}">{_FILLER_WORDS[w].title()} {i}</a></li>'
        for i, w in enumerate(words[n_rules + n_script:]))
    head = f"<style>{css}</style><script>{js}</script>"
    body = f'<nav class="site-menu"><ul>{links}</ul></nav>'
    return head, body


def _shape_page(html: str, weight: str, template: tuple[str, str]) -> str:
    if weight == "light":
        return _BODY_FILLER_RE.sub("", html)
    if weight == "heavy":
        head, body = template
        html = html.replace("</head>", head + "</head>", 1)
        return html.replace("<body>", "<body>" + body, 1)
    return html


def generate(out_dir: str, seed: int, entities: int, name_pool: int | None,
             page_weight: str, noise_share: float) -> dict:
    """Generate the workload inputs into ``out_dir``; returns a summary
    (page, entity and labeled-pair counts)."""
    rng = np.random.RandomState(seed)
    n_hosts = max(8, entities // 25)
    hosts = _hosts(rng, n_hosts)
    n_journals = max(4, entities // 8)
    journal_host = []
    for _ in range(n_journals):
        r = rng.rand()
        if r < 0.22:
            journal_host.append(hosts[0])
        elif r < 0.40:
            journal_host.append(hosts[1])
        else:
            journal_host.append(hosts[2 + rng.randint(n_hosts - 2)])
    journal_scheme = ["https" if rng.rand() < 0.8 else "http" for _ in range(n_journals)]
    journal_name = [f"rev{j}" for j in range(n_journals)]

    pool = None
    if name_pool:
        names: list[str] = []
        while len(names) < name_pool:
            name = _person(rng)
            if name not in names:
                names.append(name)
        pool = names

    def _author():
        return pool[rng.randint(len(pool))] if pool else _person(rng)

    ents = []
    for e in range(entities):
        j = rng.randint(n_journals)
        authors = [(_author(), [_institution(rng) for _ in range(rng.randint(3))])
                   for _ in range(1 + rng.randint(4))]
        doi = f"10.{4000 + j % 800}/{journal_name[j]}.v{e}" if rng.rand() < 0.9 else ""
        ents.append({"eid": e, "journal": j, "doi": doi, "authors": authors})

    # hard negatives: a same-journal sibling whose first author keeps the
    # first name under a different surname and institution
    for e in range(0, entities, 10):
        ent = ents[e]
        j = ent["journal"]
        first_author = ent["authors"][0][0]
        other_last = _LAST[(e * 7 + 3) % len(_LAST)]
        if other_last == first_author.split(" ")[-1]:
            other_last = _LAST[(e * 7 + 13) % len(_LAST)]
        eid = len(ents)
        ents.append({"eid": eid, "journal": j,
                     "doi": f"10.{4000 + j % 800}/{journal_name[j]}.v{eid}" if rng.rand() < 0.9 else "",
                     "authors": [(f"{first_author.split(' ')[0]} {other_last}", [_institution(rng)])],
                     "sibling_of": e})

    rw = {"work_id": [], "doi": [], "landing_host": [], "landing_page_url": [], "authorships": []}
    for ent in ents:
        j = ent["journal"]
        rw["work_id"].append(f"W{100000 + ent['eid']}")
        rw["doi"].append(ent["doi"])
        rw["landing_host"].append(journal_host[j])
        rw["landing_page_url"].append(
            f"{journal_scheme[j]}://{journal_host[j]}/index.php/{journal_name[j]}/article/view/{ent['eid']}")
        rw["authorships"].append([{"raw_author_name": a, "raw_affiliation_strings": list(insts)}
                                  for a, insts in ent["authors"]])

    pages = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}
    page_entity = []
    base_ts = 1577836800_000_000

    def _add_page(url, html, lang, eid):
        pages["url"].append(url)
        pages["warc_ts"].append(base_ts + len(pages["url"]) * 61_000_000 + rng.randint(1000))
        pages["html"].append(html.encode("utf-8"))
        # the crawl's own plain-text rendition: tags stripped, whitespace folded
        pages["text"].append(" ".join(_TAG_RE.sub(" ", html).split()))
        pages["lang"].append(lang)
        page_entity.append(eid)

    site_templates: dict[str, tuple[str, str]] = {}
    for ent in ents:
        j = ent["journal"]
        for p in range(_PAGES_PER_ENTITY[ent["eid"] % len(_PAGES_PER_ENTITY)]):
            host = journal_host[j] if (p == 0 or rng.rand() < 0.5) else hosts[(j + 3) % n_hosts]
            url = (f"{journal_scheme[j]}://{host}/index.php/{journal_name[j]}/article/view/{ent['eid']}"
                   + (f"/version/{p}" if p else ""))
            corrupted = [(_corrupt(rng, a), [_corrupt(rng, i) for i in insts])
                         for a, insts in ent["authors"]]
            include_doi = bool(ent["doi"]) and rng.rand() < 0.8
            template = ("meta", "ul", "both")[rng.randint(3)]
            lang = _LANGS[int(rng.choice(len(_LANGS), p=_LANG_P))]
            html = _page_html(rng, template, ent["doi"] if include_doi else "",
                              corrupted, lang, noise_tag=rng.rand() < 0.05)
            if host not in site_templates and page_weight == "heavy":
                site_templates[host] = _boilerplate(rng)
            _add_page(url, _shape_page(html, page_weight, site_templates.get(host)), lang, ent["eid"])

    n_noise = max(4, int(noise_share * len(page_entity)))
    for z in range(n_noise):
        url = f"https://{hosts[rng.randint(n_hosts)]}/index.php/misc/issue/view/{z}"
        if rng.rand() < 0.3:
            html = f"<html><body><p>Announcement {z}</p>"
        else:
            html = (f"<html><head><title>Issue {z}</title></head>"
                    f"<body><div>Table of contents {z}</div></body></html>")
        _add_page(url, html, "en", -1)

    ent_pages: dict[int, list[int]] = {}
    for idx, eid in enumerate(page_entity):
        if eid >= 0:
            ent_pages.setdefault(eid, []).append(idx)
    lp: dict[tuple[str, str], tuple[str, bool]] = {}

    def _add_pair(lid, rid, key, match):
        lp[(lid, rid) if lid < rid else (rid, lid)] = (key, match)

    def _hostkey(j):
        return f"host:{journal_scheme[j]}://{journal_host[j]}:{443 if journal_scheme[j] == 'https' else 80}"

    urls = pages["url"]
    for ent in ents:
        eid = ent["eid"]
        pidx = ent_pages.get(eid, [])
        wid = f"w:W{100000 + eid}"
        hostkey = _hostkey(ent["journal"])
        for a_i, a in enumerate(pidx):
            _add_pair("p:" + urls[a], wid, hostkey, True)
            for b in pidx[a_i + 1:]:
                _add_pair("p:" + urls[a], "p:" + urls[b], hostkey if a_i == 0 else "transitive", True)
        sib = ent.get("sibling_of")
        if sib is not None:
            for a in pidx:
                _add_pair("p:" + urls[a], f"w:W{100000 + sib}", hostkey, False)
            _add_pair(wid, f"w:W{100000 + sib}", hostkey, False)
            for b in ent_pages.get(sib, [])[:2]:
                for a in pidx:
                    _add_pair("p:" + urls[a], "p:" + urls[b], hostkey, False)
    by_journal: dict[int, list] = {}
    for ent in ents:
        by_journal.setdefault(ent["journal"], []).append(ent)
    for j, group in sorted(by_journal.items()):
        if len(group) < 2:
            continue
        for _ in range(min(len(group), 20)):
            e1, e2 = rng.choice(len(group), 2, replace=False)
            a_ent, b_ent = group[int(e1)], group[int(e2)]
            if a_ent.get("sibling_of") == b_ent["eid"] or b_ent.get("sibling_of") == a_ent["eid"]:
                continue
            pga, pgb = ent_pages.get(a_ent["eid"], []), ent_pages.get(b_ent["eid"], [])
            if pga and pgb:
                _add_pair("p:" + urls[pga[0]], "p:" + urls[pgb[0]], _hostkey(j), False)

    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(pa.table({
        "url": pa.array(pages["url"], pa.string()),
        "warc_ts": pa.array(pages["warc_ts"], pa.timestamp("us")),
        "html": pa.array(pages["html"], pa.binary()),
        "text": pa.array(pages["text"], pa.string()),
        "lang": pa.array(pages["lang"], pa.string()),
    }), os.path.join(out_dir, "pages.parquet"), row_group_size=1024)
    auth_type = pa.list_(pa.struct([("raw_author_name", pa.string()),
                                    ("raw_affiliation_strings", pa.list_(pa.string()))]))
    pq.write_table(pa.table({
        "work_id": pa.array(rw["work_id"], pa.string()),
        "doi": pa.array(rw["doi"], pa.string()),
        "landing_host": pa.array(rw["landing_host"], pa.string()),
        "landing_page_url": pa.array(rw["landing_page_url"], pa.string()),
        "authorships": pa.array(rw["authorships"], auth_type),
    }), os.path.join(out_dir, "reference_works.parquet"))
    keys = list(lp)
    pq.write_table(pa.table({
        "left_id": pa.array([k[0] for k in keys], pa.string()),
        "right_id": pa.array([k[1] for k in keys], pa.string()),
        "block_key": pa.array([lp[k][0] for k in keys], pa.string()),
        "is_match": pa.array([lp[k][1] for k in keys], pa.bool_()),
    }), os.path.join(out_dir, "labeled_pairs.parquet"))
    return {"pages": len(pages["url"]), "entities": len(ents), "labeled_pairs": len(keys),
            "html_mb": sum(len(h) for h in pages["html"]) / 1e6}
