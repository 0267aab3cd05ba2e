"""From-scratch HTML parsing + mention extraction.

Reimplements, without bs4, the reference's landing-page extractor
(`parse_landing_page_html.py`):

- M11 meta-tag state machine (`:54-81`): iterate ``<meta>`` tags in
  document order; a non-empty ``citation_author`` content starts a new
  author; subsequent non-empty ``citation_author_institution`` contents
  attach to the current author; the last open author is flushed at EOF;
  the ``name`` attribute is compared case-insensitively; ``content`` is
  stripped and empty content skipped.
- M12 ``ul.authors`` DOM path (`:83-97`): the FIRST ``<ul>`` whose class
  list contains ``authors``; its DIRECT ``<li>`` children only
  (recursive=False); per item the first descendant ``span.name`` /
  ``span.affiliation``; author required, affiliation defaults to ``""``;
  text via get_text(strip=True) semantics (stripped strings joined with
  no separator).
- D2 merge (`:189-228`): key = (author.strip(), institution.strip());
  meta rows first (an author with no institutions produces one row with
  institution ""), then ul rows; sources accumulate as a set joined
  ";"-sorted; a ul row OVERWRITES the stored original text even when the
  key already exists ("ul original wins").

Also defines the engine's frozen text-extraction spec (the
byte-identical-per-url invariant target, BASELINE.json input_hint):
pre-order traversal of the DOM, skipping ``script/style/noscript/
template/head/title``, each text node whitespace-collapsed and
non-empty nodes joined with a single ``\\n``. The reference never
extracts full page text (its fetcher stores raw HTML,
`retrieve_landing_pages.py:119-135`), so this spec — implemented once
here and used by both the Ray stage and the single-threaded oracle —
IS the invariant's definition.

The DOM builder is a minimal, deterministic tree parser on stdlib
``html.parser.HTMLParser``: void elements, ``li``/``p``/``tr``/``td``
implied end tags, unmatched end tags ignored. It is not a full HTML5
tree constructor; the fixture generator only emits constructs this
parser and a browser agree on.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

VOID_ELEMENTS = frozenset(
    "meta br img link input hr area base col embed source track wbr param".split()
)

# tag -> set of open tags it implicitly closes (scanning up to a boundary)
_IMPLIED_CLOSE = {
    "li": ("li",),
    "p": ("p",),
    "tr": ("tr", "td", "th"),
    "td": ("td", "th"),
    "th": ("td", "th"),
    "option": ("option",),
}
_CLOSE_BOUNDARY = frozenset("ul ol table body html div section article".split())

_TEXT_SKIP = frozenset("script style noscript template head title".split())


class Node:
    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag, attrs=None, parent=None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children = []  # Node | str
        self.parent = parent

    def classes(self):
        return self.attrs.get("class", "").split()

    def iter_nodes(self):
        """Pre-order traversal of element nodes (excluding self)."""
        for child in self.children:
            if isinstance(child, Node):
                yield child
                yield from child.iter_nodes()

    def find(self, tag, cls=None):
        """First descendant with tag (and class containing cls), like
        bs4 ``find`` (recursive)."""
        for node in self.iter_nodes():
            if node.tag == tag and (cls is None or cls in node.classes()):
                return node
        return None

    def find_direct(self, tag):
        """Direct children with tag (bs4 find_all(recursive=False))."""
        return [c for c in self.children if isinstance(c, Node) and c.tag == tag]

    def get_text_stripped(self):
        """bs4 get_text(strip=True) parity: all descendant strings,
        stripped, empties dropped, joined with no separator."""
        parts = []

        def walk(node):
            for child in node.children:
                if isinstance(child, str):
                    s = child.strip()
                    if s:
                        parts.append(s)
                else:
                    walk(child)

        walk(self)
        return "".join(parts)


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Node("[document]")
        self.stack = [self.root]
        self.meta_tags = []  # document-order <meta> nodes

    def handle_starttag(self, tag, attrs):
        attr_dict = {}
        for k, v in attrs:
            if k not in attr_dict:  # first occurrence wins
                attr_dict[k] = v if v is not None else ""
        if tag in VOID_ELEMENTS:
            node = Node(tag, attr_dict, self.stack[-1])
            self.stack[-1].children.append(node)
            if tag == "meta":
                self.meta_tags.append(node)
            return
        closes = _IMPLIED_CLOSE.get(tag)
        if closes:
            for i in range(len(self.stack) - 1, 0, -1):
                t = self.stack[i].tag
                if t in _CLOSE_BOUNDARY:
                    break
                if t in closes:
                    del self.stack[i:]
                    break
        node = Node(tag, attr_dict, self.stack[-1])
        self.stack[-1].children.append(node)
        self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag not in VOID_ELEMENTS:
            self.handle_endtag(tag)

    def handle_endtag(self, tag):
        if tag in VOID_ELEMENTS:
            return
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # unmatched end tag: ignored

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


# ---------------------------------------------------------------------------
# Fast path.
#
# The stdlib HTMLParser path costs ~10x the fast path per page (8.6 ms on
# a crawl page). Well-formed
# lowercase HTML without charrefs, comments or declarations -- every page
# the fixture and benchmark generators emit -- needs none of its
# tolerance machinery. `_fast_extract` computes `extract_page`'s result
# from strict regex tokens; anything the strict shapes do not cover (a
# `&` anywhere, `<!`/`<?`, uppercase or exotic tag/attr names, attrs on
# end tags, a `<` that does not start a strict tag, markup inside
# script/style) aborts to the stdlib path for the WHOLE document, so the
# fast path either reproduces the `_TreeBuilder` extraction exactly
# (equivalence-tested on the fixture corpus, fuzz and crawl-shaped
# pages) or is not used.
#
# Cost grows with tag tokens per page, not with text bytes. A crawl page
# (~38 KB, ~1,160 tags, most of them a 260-link nav menu) cost 1,489
# us/page when one 4-group `_TAG_RE.split` fed a Python loop over every
# token: 540 us of split, 755 us of per-token work, 194 us of whitespace
# collapse. Cutting script/style content out first saves nothing worth
# having (544 -> 529 us of split): each such element is one data token.
# So only the tags that can change the extraction are handled one by
# one: every tag inside a region (a text-skipped element or the first
# ul.authors) and the start tags that open one or carry meta attrs
# (`_MARKED_RE`). The tags between those are validated and blanked by
# one group-less `subn` per stretch, whose kept text is whitespace-
# collapsed per stretch, not per token. Same pages, 596 us/page: 273 us
# tokenizer (marked-tag search + subn), 127 us per-token work, 196 us
# whitespace collapse (crawl seeds 101-105, every 5th page, min of 3
# timings per page, one core of a shared 4-vCPU VM, CPython 3.11).
#
# The mentions-only mode (`text=False`, what the flagship's records
# read) keeps no data token: a stretch is only validated, by one
# `_STRETCH_RE.fullmatch` (no subn, no split, no collapse), and a
# region's data feeds only the span collectors. Whole pages, min of 5
# passes on one pinned vCPU: crawl seed 101 (2,099 pages) 326 -> 142
# us/page, 3,250 sf0.1 pages 135 -> 48, dense_names seed 101 37 -> 32.

_TAG_RE = re.compile(
    r"<(/?)([a-z][a-z0-9-]*)"
    r"((?:\s+[a-z][a-z0-9_:.-]*(?:\s*=\s*(?:\"[^\"]*\"|'[^']*'|[^\s>'\"=`]+))?)*)"
    r"\s*(/?)>"
)
# the same shapes without groups, for tags that are only validated and
# blanked: no attrs or self-close slash on end tags (the stdlib ends
# those at the first '>', even a quoted one); possessive quantifiers keep
# sre from saving backtrack state (this grammar never needs to backtrack,
# so the matches are the same)
_BARE_TAG_RE = re.compile(
    r"<(?:/[a-z][a-z0-9-]*+\s*+|[a-z][a-z0-9-]*+"
    r"(?:\s++[a-z][a-z0-9_:.-]*+(?:\s*+=\s*+(?:\"[^\"]*+\"|'[^']*+'|[^\s>'\"=`]++))?+)*+"
    r"\s*+/?)>"
)
# a region's next token: the data before a tag, then the tag
_DATA_TAG_RE = re.compile(r"([^<]*)" + _TAG_RE.pattern)
# a stretch outside every region whose every '<' starts a strict tag:
# the mentions-only mode's validation, accepting exactly the stretches
# whose `_BARE_TAG_RE.subn` leaves no '<' of their own
_STRETCH_RE = re.compile(r"[^<]*+(?:%s[^<]*+)*+" % _BARE_TAG_RE.pattern)
_ATTR_RE = re.compile(
    r"([a-z][a-z0-9_:.-]*)(?:\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>'\"=`]+)))?"
)


# start tags that matter outside every region: region openers and meta
_MARKED_RE = re.compile(
    r"<(?:%s)(?![a-z0-9-])" % "|".join(sorted(_TEXT_SKIP | {"meta", "ul"})))


def _parse_attrs(attrtext):
    attrs = {}
    for name, dq, sq, bare in _ATTR_RE.findall(attrtext):
        if name not in attrs:  # first occurrence wins
            attrs[name] = dq or sq or bare
    return attrs


def _run_tokens(run):
    """The data tokens of a '<'-joined run, each whitespace-collapsed as
    the text spec does. A data token never holds '<', so the collapse
    can run over the whole run; most runs have nothing to collapse (no
    whitespace but single spaces between other characters) and skip it."""
    if not (run.isprintable() and "  " not in run and " <" not in run
            and "< " not in run and run[:1] != " " and run[-1:] != " "):
        run = " ".join(run.split()).replace(" <", "<").replace("< ", "<")
    return run.split("<")


def _fast_extract(html: str, text: bool = True):
    """Fast-path extractor: computes :func:`extract_page`'s result
    without a DOM (without its ``"text"`` when ``text`` is False: no data
    token is then collapsed or kept, and a stretch outside every region
    is only validated). Returns the page dict, or None when any token falls
    outside the strict shapes or the answer would depend on elements
    the fast path does not track; the caller then runs the stdlib
    `_TreeBuilder` path, the reference this one is equivalence-tested
    against, so the answer is identical either way.

    Only a region's elements are tracked. A region opens at a start tag
    of a `_TEXT_SKIP` element or of the first ul.authors and closes when
    that element is popped; inside one, every tag is simulated on a
    stack of the region's open elements. Outside every region the open
    elements cannot change the extraction: no text-skipped element is
    open, so every data token is kept text; the ul.authors collectors
    are idle; metas are void. So there only the next start tag of a
    region opener or a meta is looked at (`_MARKED_RE`), and the tags
    in between are validated and blanked in bulk. A close tag or an
    implied close inside a region that matches no element of the region
    would act on the untracked elements below it: abort.

    Parity argument (each point mirrors a `_TreeBuilder` invariant):
    pre-order of the final tree = start-tag token order, so "first
    ul.authors" / "first descendant span" = first matching start tag;
    a node's subtree = the token interval while it is on the stack, so
    span text = data tokens seen while the span's stack slot is live;
    text nodes are exactly the inter-tag runs, so get_text_stripped's
    per-child strip/join is reproduced per data token."""
    if "&" in html:
        return None
    texts = []  # collapsed data tokens the text spec keeps (empty ones too)
    metas = []  # attr dicts, document order
    stack = []  # open tag NAMES of the outermost open region, bottom first
    nskip = 0  # _TEXT_SKIP elements on the stack; 0 -> text is kept
    cdata = None  # script/style open: the next tag MUST close it
    # ul.authors state machine (extract_ul_pairs semantics)
    ul_found = False
    ul_idx = -1  # stack index of the OPEN target ul, -1 when closed/absent
    li_idx = -1  # stack index of the current DIRECT li of the target ul
    # span collector states: None = not found yet; [parts, start_idx] =
    # collecting; str = finalized text
    li_name = None
    li_aff = None
    ul_items = []  # finalized (author_text_or_None, affiliation_text)

    def _pop(newlen):
        """Pop the stack to newlen, finalizing span collectors, the open
        direct li and the target ul -- innermost first."""
        nonlocal nskip, ul_idx, li_idx, li_name, li_aff
        for t in stack[newlen:]:
            if t in _TEXT_SKIP:
                nskip -= 1
        del stack[newlen:]
        if type(li_name) is list and li_name[1] >= newlen:
            li_name = "".join(li_name[0])
        if type(li_aff) is list and li_aff[1] >= newlen:
            li_aff = "".join(li_aff[0])
        if li_idx >= newlen:
            ul_items.append((li_name if type(li_name) is str else None,
                             li_aff if type(li_aff) is str else ""))
            li_idx = -1
            li_name = None
            li_aff = None
        if ul_idx >= newlen:
            ul_idx = -1

    pos = 0
    while True:
        if stack:
            mt = _DATA_TAG_RE.match(html, pos)
            if mt is None:  # EOF
                data = html[pos:]
                if "<" in data:
                    return None  # a '<' that starts no strict tag
            else:
                data, close, tag, attrtext, selfclose = mt.groups()
            if data:
                if text and not nskip:
                    texts.append(" ".join(data.split()))
                if li_idx >= 0:
                    if type(li_name) is list:
                        s = data.strip()
                        if s:
                            li_name[0].append(s)
                    if type(li_aff) is list:
                        s = data.strip()
                        if s:
                            li_aff[0].append(s)
            if mt is None:
                break
        else:
            m = _MARKED_RE.search(html, pos)
            end = len(html) if m is None else m.start()
            if text:
                run, n = _BARE_TAG_RE.subn("<", html[pos:end])
                tokens = _run_tokens(run)
                if len(tokens) != n + 1:
                    return None  # a '<' that starts no strict tag
                texts += tokens
            elif _STRETCH_RE.fullmatch(html, pos, end) is None:
                return None  # a '<' that starts no strict tag
            if m is None:
                break
            mt = _TAG_RE.match(html, end)
            if mt is None:
                return None
            close, tag, attrtext, selfclose = mt.groups()
        pos = mt.end()
        if close:
            if attrtext or selfclose:
                return None  # attrs on an end tag: tolerance territory
            if cdata is not None:
                # stdlib CDATA mode: the only token shape representable
                # here is an immediate plain close tag
                if tag != cdata:
                    return None
                cdata = None
            if tag in VOID_ELEMENTS:
                continue  # _TreeBuilder ignores void end tags
            for j in range(len(stack) - 1, -1, -1):
                if stack[j] == tag:
                    _pop(j)
                    break
            else:
                return None  # may close an element below the region
            continue
        if cdata is not None:
            return None
        if tag in VOID_ELEMENTS:
            if tag == "meta":
                metas.append(_parse_attrs(attrtext))
            continue
        closes = _IMPLIED_CLOSE.get(tag)
        if closes:
            for j in range(len(stack) - 1, -1, -1):
                t = stack[j]
                if t in _CLOSE_BOUNDARY:
                    break
                if t in closes:
                    _pop(j)
                    break
            else:
                return None  # the scan would continue below the region
        if tag == "ul":
            if not ul_found and "authors" in _parse_attrs(attrtext).get("class", "").split():
                ul_found = True
                if not selfclose:
                    ul_idx = len(stack)
            elif not stack:
                continue  # a plain ul outside every region opens none
        elif tag == "li":
            # direct child of the target ul (post implied-close)
            if ul_idx >= 0 and len(stack) == ul_idx + 1 and not selfclose:
                li_idx = len(stack)
                li_name = None
                li_aff = None
            # a self-closed li has no children: author None, skipped
        elif tag == "span" and li_idx >= 0 and (li_name is None or li_aff is None):
            cl = _parse_attrs(attrtext).get("class", "").split()
            if li_name is None and "name" in cl:
                li_name = "" if selfclose else [[], len(stack)]
            if li_aff is None and "affiliation" in cl:
                li_aff = "" if selfclose else [[], len(stack)]
        if not selfclose:
            stack.append(tag)
            if tag in _TEXT_SKIP:
                nskip += 1
                if tag == "script" or tag == "style":
                    if type(li_name) is list or type(li_aff) is list:
                        # raw-text content inside an ACTIVE span
                        # collector: stdlib drops unterminated CDATA,
                        # which this token stream can't always see --
                        # the stdlib parser resolves it exactly
                        return None
                    cdata = tag
    _pop(0)  # EOF: finalize everything still open (open li still counts)

    ul_pairs = [(a, aff, "ul.authors") for a, aff in ul_items if a]
    # meta state machine (extract_meta_pairs semantics, over attr dicts)
    pairs = []
    current_author = None
    current_insts: list = []
    has_author_tag = False
    has_inst_tag = False
    doi = ""
    for attrs in metas:
        content = attrs.get("content")
        if not content:
            continue
        content = content.strip()
        if not content:
            continue
        name = (attrs.get("name") or "").lower()
        if name == "citation_author":
            has_author_tag = True
            if current_author is not None:
                pairs.append((current_author, current_insts, "meta"))
            current_author = content
            current_insts = []
        elif name == "citation_author_institution":
            has_inst_tag = True
            if current_author is not None:
                current_insts.append(content)
        elif name == "citation_doi" and not doi:
            doi = content
    if current_author is not None:
        pairs.append((current_author, current_insts, "meta"))
    page = {
        "mentions": merge_mentions(pairs, ul_pairs),
        "doi": doi,
        "has_author_tag": has_author_tag,
        "has_inst_tag": has_inst_tag,
        "has_ul_authors": bool(ul_pairs),
    }
    if text:
        page["text"] = "\n".join(filter(None, texts))
    return page


def parse_html(html):
    """Parse HTML (str, or bytes decoded as utf-8 with undecodable bytes
    dropped, errors="ignore", as in `extract_page`) into a DOM tree with
    the tolerant stdlib parser; never raises on malformed input."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="ignore")
    builder = _TreeBuilder()
    try:
        builder.feed(html)
        builder.close()
    except Exception:
        pass  # salvage whatever tree was built; record-level errors never fatal
    return builder


def extract_meta_pairs(builder: _TreeBuilder):
    """M11: [(author, [institutions], 'meta')...] in document order, plus
    tag-presence flags and the first citation_doi content."""
    pairs = []
    current_author = None
    current_insts = []
    has_author_tag = False
    has_inst_tag = False
    doi = ""
    for tag in builder.meta_tags:
        name = (tag.attrs.get("name") or "").lower()
        content = tag.attrs.get("content")
        if not content:
            continue
        content = content.strip()
        if not content:
            continue
        if name == "citation_author":
            has_author_tag = True
            if current_author is not None:
                pairs.append((current_author, list(current_insts), "meta"))
            current_author = content
            current_insts = []
        elif name == "citation_author_institution":
            has_inst_tag = True
            if current_author is not None:
                current_insts.append(content)
        elif name == "citation_doi" and not doi:
            doi = content
    if current_author is not None:
        pairs.append((current_author, list(current_insts), "meta"))
    return pairs, has_author_tag, has_inst_tag, doi


def extract_ul_pairs(builder: _TreeBuilder):
    """M12: [(author, affiliation, 'ul.authors')...] from the first
    ul.authors, direct li children only."""
    out = []
    authors_ul = builder.root.find("ul", cls="authors")
    if authors_ul is None:
        return out
    for item in authors_ul.find_direct("li"):
        name_tag = item.find("span", cls="name")
        aff_tag = item.find("span", cls="affiliation")
        author = name_tag.get_text_stripped() if name_tag else None
        affiliation = aff_tag.get_text_stripped() if aff_tag else ""
        if author:
            out.append((author, affiliation, "ul.authors"))
    return out


def merge_mentions(meta_pairs, ul_pairs):
    """D2 merge: returns [(author, institution, source)] in insertion
    order, source = ';'.join(sorted(set)). 'ul original wins' on key
    collision."""
    combined = {}
    for author, institutions, source in meta_pairs:
        author_stripped = author.strip() if author else ""
        if not institutions:
            key = (author_stripped, "")
            if key not in combined:
                combined[key] = {"sources": set(), "original": [author, ""]}
            combined[key]["sources"].add(source)
        else:
            for institution in institutions:
                inst_stripped = institution.strip() if institution else ""
                key = (author_stripped, inst_stripped)
                if key not in combined:
                    combined[key] = {"sources": set(), "original": [author, institution]}
                combined[key]["sources"].add(source)
    for author, institution, source in ul_pairs:
        author_stripped = author.strip() if author else ""
        inst_stripped = institution.strip() if institution else ""
        key = (author_stripped, inst_stripped)
        if key not in combined:
            combined[key] = {"sources": set(), "original": [author, institution]}
        combined[key]["sources"].add(source)
        combined[key]["original"] = [author, institution]
    rows = []
    for data in combined.values():
        original_author, original_institution = data["original"]
        rows.append((original_author, original_institution, ";".join(sorted(data["sources"]))))
    return rows


def extract_text(builder) -> str:
    """Frozen text-extraction spec (the byte-identical invariant): each
    text node outside script/style/noscript/template/head/title is
    whitespace-collapsed; non-empty results joined with '\\n'."""
    parts = []

    def walk(node):
        for child in node.children:
            if isinstance(child, str):
                s = " ".join(child.split())
                if s:
                    parts.append(s)
            elif child.tag not in _TEXT_SKIP:
                walk(child)

    walk(builder.root)
    return "\n".join(parts)


def extract_page(html, text: bool = True):
    """Full per-page extraction: returns a dict with
    ``mentions``: [(author, institution, source)], ``doi``, ``text``,
    ``has_author_tag``, ``has_inst_tag``, ``has_ul_authors``. With
    ``text=False`` the dict has no ``text`` and the page's text is never
    built (mentions-only mode); every other key is the same.

    This single function is the unit of determinism: the Ray stage maps
    it over rows, the oracle calls it in a plain loop — outputs must be
    identical at any parallelism (whole document always in one row)."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="ignore")
    if isinstance(html, str):
        try:
            page = _fast_extract(html, text)
        except Exception:
            page = None
        if page is not None:
            return page
    builder = parse_html(html)
    meta_pairs, has_author, has_inst, doi = extract_meta_pairs(builder)
    ul_pairs = extract_ul_pairs(builder)
    page = {
        "mentions": merge_mentions(meta_pairs, ul_pairs),
        "doi": doi,
        "has_author_tag": has_author,
        "has_inst_tag": has_inst,
        "has_ul_authors": bool(ul_pairs),
    }
    if text:
        page["text"] = extract_text(builder)
    return page
