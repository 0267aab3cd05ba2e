"""Equivalence gate for the strict fast HTML extractor
(functions/htmlextract._fast_extract).

The fast path must either produce the EXACT page dict the stdlib
`_TreeBuilder` DOM path would — mentions, doi, flags, text spec — or
return None and let the stdlib path run. These tests pin both halves:
equality on the whole sf0.001 fixture corpus plus structured fuzz, and
explicit fallback triggers for every tolerance feature the strict
shapes exclude. The mentions-only mode (``text=False``) must give the
same dict minus ``text``, and fall back on exactly the same documents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions import (
    htmlextract as hx,
)

SF = "/root/testdata/sf0.001"


def stdlib_tree(html: str) -> hx._TreeBuilder:
    b = hx._TreeBuilder()
    try:
        b.feed(html)
        b.close()
    except Exception:
        pass
    return b


def dom_extract(html: str) -> dict:
    b = stdlib_tree(html)
    meta_pairs, has_author, has_inst, doi = hx.extract_meta_pairs(b)
    ul_pairs = hx.extract_ul_pairs(b)
    return {
        "mentions": hx.merge_mentions(meta_pairs, ul_pairs),
        "doi": doi,
        "text": hx.extract_text(b),
        "has_author_tag": has_author,
        "has_inst_tag": has_inst,
        "has_ul_authors": bool(ul_pairs),
    }


def assert_mentions_mode_equivalent(html: str):
    """Mentions-only mode = the full extraction minus ``text``, through
    the public entry and on the fast path, which it takes on exactly the
    documents the full mode takes it on."""
    full = hx.extract_page(html)
    del full["text"]
    assert hx.extract_page(html, text=False) == full, html[:200]
    fe, fm = hx._fast_extract(html), hx._fast_extract(html, text=False)
    assert (fe is None) == (fm is None), html[:200]
    if fe is not None:
        del fe["text"]
        assert fm == fe, html[:200]


def assert_extract_equivalent(html: str):
    """If the fast path accepts the document, its page dict must equal
    the DOM-path extraction exactly (and the mentions-only mode its
    projection)."""
    assert_mentions_mode_equivalent(html)
    fe = hx._fast_extract(html)
    if fe is None:
        return False
    assert fe == dom_extract(html), html[:200]
    return True


FALLBACK_DOCS = [
    "a &amp; b",                      # charref: stdlib unescapes
    "<!-- comment --><p>x</p>",        # declaration/comment
    "<?php echo ?>",                   # processing instruction
    "<DIV>x</DIV>",                    # uppercase tag name
    '<p CLASS="x">y</p>',              # uppercase attr name
    "</p junk>",                       # attrs on an end tag
    "<p",                              # unterminated tag
    "a < b",                           # stray '<' as text
    '<meta name="citation_author" content="A &quot;Q&quot;">',
]


@pytest.mark.parametrize("doc", FALLBACK_DOCS)
def test_tolerance_features_fall_back(doc):
    assert hx._fast_extract(doc) is None
    # and the public entry still parses them (stdlib path)
    page = hx.extract_page(doc)
    assert isinstance(page["text"], str)
    assert_mentions_mode_equivalent(doc)


def test_charref_fallback_unescapes():
    page = hx.extract_page("<p>a &amp; b</p>")
    assert page["text"] == "a & b"


STRICT_OK_DOCS = [
    "",
    "plain text only",
    "<p>a<p>b<p>c",                          # implied closes
    "<ul><li>one<li>two</ul>",
    "<table><tr><td>a<td>b<tr><td>c</table>",
    "<script>var x = 1 < no, wait</script><p>t</p>",  # CDATA keeps raw '<'
    "<script>never closed...",
    "<style>.a{}</style><p>s</p>",
    "<br/><img src='x.png'/><p a b c>flags</p>",
    "<p class='sq' id=unq data-x=\"dq\">mix</p>",
    "<div><span>deep</span></div></div></div>",       # unmatched ends
    "<meta name='citation_author' content='X'><meta name='citation_author_institution' content='U'>",
    "<ul class='authors'><li><span class='name'>N</span><span class='affiliation'>A</span></ul>",
    "<p>line\none</p>\n\n<p>  spaced   out  </p>",
    "<script/>not cdata<p>y</p>",                     # self-closed script
    "<sCript>mixed case gate</sCript>",               # falls back (uppercase)
    "<p>trailing text after last tag</p> tail ",
]


@pytest.mark.parametrize("doc", STRICT_OK_DOCS)
def test_strict_docs_equivalent(doc):
    # equivalence required whenever the fast path accepts; acceptance
    # itself isn't asserted (the gate may legitimately refuse)
    assert_extract_equivalent(doc)
    assert hx.extract_page(doc) == dom_extract(doc)


_tag_names = st.sampled_from(["p", "li", "ul", "div", "span", "meta", "script",
                              "td", "tr", "table", "title", "head", "b"])
_attr_vals = st.text(
    alphabet=st.characters(blacklist_characters='&<>"\'`=', min_codepoint=32,
                           max_codepoint=122),
    max_size=8)
_words = st.text(alphabet=st.characters(blacklist_characters="&<",
                                        min_codepoint=32, max_codepoint=122),
                 max_size=12)


@st.composite
def _html_docs(draw):
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 3))
        tag = draw(_tag_names)
        if kind == 0:
            parts.append(draw(_words))
        elif kind == 1:
            attrs = ""
            for _ in range(draw(st.integers(0, 2))):
                attrs += f' class="{draw(_attr_vals)}"' if draw(st.booleans()) \
                    else f" name={draw(st.integers(0, 9))}"
            parts.append(f"<{tag}{attrs}>")
        elif kind == 2:
            parts.append(f"</{tag}>")
        else:
            parts.append(f"<{tag}/>")
    return "".join(parts)


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_fuzz_arbitrary_text_public_api_consistent(doc):
    """extract_page through the public entry (fast-or-fallback) must
    equal a forced-stdlib extraction for ANY input."""
    assert hx.extract_page(doc) == dom_extract(doc)
    assert_mentions_mode_equivalent(doc)


def test_fast_extract_fixture_corpus_all_fast_and_identical():
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources.fixtures import (
        ensure_fixtures,
    )
    import os
    import pyarrow.parquet as pq

    fdir = ensure_fixtures(SF)
    t = pq.read_table(os.path.join(fdir, "pages.parquet"), columns=["html"])
    n_fast = 0
    for h in t["html"].to_pylist():
        if isinstance(h, bytes):
            h = h.decode()
        n_fast += assert_extract_equivalent(h)
    assert n_fast == t.num_rows


EXTRACT_EDGE_DOCS = [
    # ul.authors structural edges
    "<ul class='authors'><li><span class='name'>N1</span>"
    "<span class='affiliation'>A1</span><li><span class='name'>N2</span></ul>",
    "<ul class='authors'><li><div><span class='name'>deep</span></div></ul>",
    "<ul class='authors'><li><span class='name'/></ul>",       # empty author
    "<ul class='authors'><li><span class='name affiliation'>both</span></ul>",
    "<ul class='authors'><li><span class='name'>outer"
    "<span class='affiliation'>inner</span>tail</span></ul>",   # nested spans
    "<ul class='authors'/><ul class='authors'><li>"
    "<span class='name'>late</span></ul>",  # first (empty) ul wins
    "<ul class='authors'><li><span class='name'>eof",           # open at EOF
    "<ul><li><ul class='authors'><li><span class='name'>n</span></ul></ul>",
    "<ul class='authors'><li><ul><li><span class='name'>nested-li</span>"
    "</ul><span class='affiliation'>aff</span></ul>",  # span in non-direct li
    "<div><ul class='authors'><li><span class='name'>x</span></li></ul>"
    "</div><ul class='authors'><li><span class='name'>y</span></ul>",
    # li implied-close separating items
    "<ul class='authors'><li><span class='name'>a</span>"
    "<li><span class='affiliation'>only-aff</span></ul>",
    # script/style interactions
    "<script>var x=1;</script><p>t</p>",
    "<style>.a{color:red}</style><p>s</p>",
    "<p><script>hidden</script>shown</p>",
    "<ul class='authors'><li><span class='name'>n<script>js</script>m"
    "</span></ul>",  # CDATA inside an active collector -> stdlib
    "<script>unterminated",
    "<script></script>",
    "<title>skipped title</title><p>kept</p>",
    # meta edges
    "<meta name='citation_author' content=' pad '>"
    "<meta name='citation_author_institution' content='U1'>"
    "<meta name='citation_author_institution' content='U2'>"
    "<meta name='citation_author' content='B'>",
    "<meta name='citation_doi' content='10.1/x'>"
    "<meta name='citation_doi' content='10.2/y'>",  # first doi wins
    "<meta name='citation_author_institution' content='orphan'>",
    "<meta content='no-name'><meta name='citation_author'>",
    # text-spec edges
    "a  b\n\n c<p> d   e </p>",
    "<head><p>inside head</p></head>after",
    "tail after last tag</p> trailing ",
    # tag-shape edges
    '<p title="x>y">quoted gt</p>',
    '<p title="x<y">quoted lt</p>',
    "<p>a</p >b",
    "<a href=x/>t</a>",   # the slash belongs to the bare value: no self-close
    "a<br />b",
    "<p>x</p><",          # trailing '<' at EOF
    "<title/>x",
    "<p><title>x<p>y",    # an implied close pops a skip element
    "<div><title>t</div>shown",  # an outer end tag pops a skip element
    "<p>a</p><p> b</p>",  # leading space in a token after a tag
    "<script><meta name='citation_author' content='X'></script>",  # raw text
    "<head><script>x</head>y",  # only </script> ends raw text
    "<title>t</title a='>'>x",  # the stdlib ends an end tag at its first '>'
]


@pytest.mark.parametrize("doc", EXTRACT_EDGE_DOCS)
def test_fast_extract_edges_equivalent(doc):
    # acceptance not asserted (the gate may refuse); equivalence is
    assert_extract_equivalent(doc)
    # and the public entry agrees with the forced DOM path regardless
    assert hx.extract_page(doc) == dom_extract(doc)


@given(_html_docs())
@settings(max_examples=300, deadline=None)
def test_fuzz_fast_extract_matches_dom(doc):
    assert_extract_equivalent(doc)


_ul_tags = st.sampled_from(["ul", "li", "span", "div", "script", "p"])
_ul_classes = st.sampled_from(
    ["authors", "name", "affiliation", "name affiliation", "x", ""])


@st.composite
def _ul_docs(draw):
    """Tag soup biased toward the ul.authors state machine: the magic
    class names appear constantly, in valid and invalid nestings."""
    parts = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.integers(0, 3))
        tag = draw(_ul_tags)
        if kind == 0:
            parts.append(draw(_words))
        elif kind == 1:
            cls = draw(_ul_classes)
            parts.append(f'<{tag} class="{cls}">' if cls else f"<{tag}>")
        elif kind == 2:
            parts.append(f"</{tag}>")
        else:
            cls = draw(_ul_classes)
            parts.append(f'<{tag} class="{cls}"/>' if cls else f"<{tag}/>")
    return "".join(parts)


@given(_ul_docs())
@settings(max_examples=500, deadline=None)
def test_fuzz_ul_state_machine_matches_dom(doc):
    assert_extract_equivalent(doc)


def _crawl_page() -> str:
    """A crawl-shaped page: stylesheet and script boilerplate in head,
    citation metas, a 260-link nav menu, an article body and a
    ul.authors block."""
    css = "".join(f".c{i}-w{{margin:{i % 9}px;color:#{i * 7919 % 0xFFFFFF:06x}}}" for i in range(200))
    js = ";".join(f"var t{i}='w{i}'+{i}" for i in range(150))
    menu = "".join(f'<li><a href="/index.php/topic/{i}">Topic {i}</a></li>' for i in range(260))
    metas = (
        '<meta name="citation_doi" content="10.4092/rev92.v0">'
        '<meta name="citation_author" content="Soren T. Souza">'
        '<meta name="citation_author_institution" content="  Center  for  Study ">'
        '<meta name="citation_author" content="Ana Z. Kowalski">'
    )
    body = "".join(f'<p id="para{i}">word {i} of the article body.</p>' for i in range(20))
    authors = (
        '<ul class="authors"><li><span class="name">  Soren  Souza </span>'
        '<span class="affiliation">Center for Study</span></li>'
        '<li><span class="name">Ana Kowalski</span></li></ul>'
    )
    return (
        f"<html><head><title>Article view</title>{metas}<style>{css}</style>"
        f"<script>{js}</script></head><body>"
        f'<nav class="site-menu"><ul>{menu}</ul></nav><h1>Title</h1>{authors}{body}'
        "<script>var ignored = 1;</script></body></html>"
    )


def test_crawl_shaped_page_takes_fast_path():
    """A silent fallback on boilerplate-heavy pages costs ~10x per page
    and changes no output, so only this test would notice it."""
    html = _crawl_page()
    page = hx._fast_extract(html)
    assert page is not None
    assert page == dom_extract(html)
    assert page["has_ul_authors"] and page["has_author_tag"]
    assert "Topic 259" in page["text"] and "var t1" not in page["text"]
    assert_mentions_mode_equivalent(html)


_quoted_values = st.text(alphabet=st.sampled_from(list("ab <>/='\" x")), max_size=8)


@st.composite
def _quoted_attr_docs(draw):
    """Tag soup whose quoted attribute values may hold '<', '>' and '/',
    around the tags the fast path looks at one by one."""
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 3))
        tag = draw(st.sampled_from(["p", "a", "ul", "li", "span", "meta", "title", "script", "head"]))
        if kind == 0:
            parts.append(draw(_words))
        elif kind == 1:
            name = draw(st.sampled_from(["class", "name", "content", "href"]))
            q = draw(st.sampled_from(['"', "'"]))
            v = draw(_quoted_values).replace(q, "")
            parts.append(f"<{tag} {name}={q}{v}{q}{draw(st.sampled_from(['', '/', ' /']))}>")
        elif kind == 2:
            parts.append(f"</{tag}>")
        else:
            parts.append(f'<{tag} class="{draw(st.sampled_from(["authors", "name", "affiliation"]))}">')
    return "".join(parts)


@given(_quoted_attr_docs())
@settings(max_examples=400, deadline=None)
def test_fuzz_quoted_attr_values_match_dom(doc):
    assert_extract_equivalent(doc)
    assert hx.extract_page(doc) == dom_extract(doc)


_tagish = st.lists(st.sampled_from(list("ab-_:.=/'\"` \t\n<>1") + ["class", "\x1c"]),
                  max_size=14).map("".join)


@given(st.sampled_from(["<", "</"]), st.sampled_from(["a", "p", "li", "x1-", "B"]), _tagish)
@settings(max_examples=500, deadline=None)
def test_bare_tag_re_matches_the_strict_tags(lt, name, rest):
    """_BARE_TAG_RE (group-less, possessive) blanks exactly the tags
    _TAG_RE accepts, with the same extent, minus end tags with attrs."""
    s = lt + name + rest
    m = hx._TAG_RE.match(s)
    if m is not None and m.group(1) and (m.group(3) or m.group(4)):
        m = None
    b = hx._BARE_TAG_RE.match(s)
    assert (b and b.end()) == (m and m.end())


_stretches = st.lists(st.sampled_from(
    ["<", ">", "</", "/>", "<p>", "</p>", "<br/>", "<a b='<'>", '<a b="x>y">', "</p a>",
     "<B>", "<p", "x", " ", "\n", "=", "'", '"', "a", "-", "1", "<!--", "&"]),
    max_size=12).map("".join)


@given(_stretches, _stretches, _stretches)
@settings(max_examples=500, deadline=None)
def test_stretch_validation_matches_subn_count(head, stretch, tail):
    """The mentions-only mode validates a stretch outside every region
    with one ``_STRETCH_RE.fullmatch``; the full mode blanks it with
    ``_BARE_TAG_RE.subn`` and falls back when a '<' is left over. Both
    accept exactly the same stretches, also inside a longer document."""
    run, n = hx._BARE_TAG_RE.subn("<", stretch)
    want = run.count("<") == n
    assert (hx._STRETCH_RE.fullmatch(stretch) is not None) == want
    doc = head + stretch + tail
    pos, end = len(head), len(head) + len(stretch)
    assert (hx._STRETCH_RE.fullmatch(doc, pos, end) is not None) == want


def test_bytes_decode_drops_undecodable_bytes():
    """Bytes are utf-8 decoded with errors='ignore': a switch to
    'replace' would change the extracted text per url."""
    assert hx.extract_page(b"<p>a\xffb</p>")["text"] == "ab"
