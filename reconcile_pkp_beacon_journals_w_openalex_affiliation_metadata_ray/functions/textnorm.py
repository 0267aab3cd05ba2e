"""Text normalization for match keys.

Reimplements, from scratch, the normalizer used by the reference's
comparison stage (`check_landing_page_author_affiliation_parsing_against_openalex.py:16-27`):
ASCII fold -> lowercase -> strip non [a-z0-9\\s] -> collapse whitespace.

The reference uses the `unidecode` package for the ASCII fold; it is not
available here, so the fold is a frozen, documented NFKD-based
transliteration with an explicit table for Latin letters NFKD cannot
decompose (German sharp s, ae/oe ligatures, slashed o, eth, thorn,
stroked d/l, etc.). Fixtures only use characters this table covers, so
the normalizer is fully deterministic and self-consistent in-repo.
"""

from __future__ import annotations

import re
import unicodedata

# Latin specials that NFKD decomposition does not reduce to ASCII.
# Frozen: changing any entry changes match keys and thus blocking output.
_SPECIALS = {
    "ß": "ss", "ẞ": "SS",
    "æ": "ae", "Æ": "AE",
    "œ": "oe", "Œ": "OE",
    "ø": "o", "Ø": "O",
    "đ": "d", "Đ": "D",
    "ð": "d", "Ð": "D",
    "þ": "th", "Þ": "Th",
    "ł": "l", "Ł": "L",
    "ı": "i", "İ": "I",
    "ħ": "h", "Ħ": "H",
    "ŋ": "ng", "Ŋ": "NG",
    "ĸ": "k",
    "ſ": "s",
    "’": "'", "‘": "'", "“": '"', "”": '"',
    "–": "-", "—": "-", " ": " ",
}

_SPECIALS_RE = re.compile("|".join(re.escape(k) for k in _SPECIALS))
_NON_ALNUM_RE = re.compile(r"[^a-z0-9\s]")


def ascii_fold(text: str) -> str:
    """Deterministic ASCII transliteration (unidecode-lite).

    Map the frozen specials table, NFKD-decompose, then drop every
    non-ASCII codepoint: the combining marks NFKD splits off (all of
    them non-ASCII) and any untransliterable leftover (matches
    unidecode's behavior of omitting untransliterable characters).
    Each step runs in C; an ASCII string is returned as is.
    """
    if not text:
        return ""
    if text.isascii():
        return text
    text = _SPECIALS_RE.sub(lambda m: _SPECIALS[m.group(0)], text)
    return unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode()


def normalize_text(text) -> str:
    """Match-key normalizer with the reference's exact pipeline
    (`check...openalex.py:16-27`): fold -> lower -> strip punctuation ->
    collapse whitespace. Non-strings normalize to ''."""
    if not isinstance(text, str):
        return ""
    text = ascii_fold(text)
    text = text.lower()
    text = _NON_ALNUM_RE.sub("", text)
    return " ".join(text.split())


_PHONETIC_MAP = {c: d for cs, d in
                 (("BFPV", "1"), ("CGJKQSXZ", "2"), ("DT", "3"),
                  ("L", "4"), ("MN", "5"), ("R", "6"))
                 for c in cs}


def phonetic_key(name) -> str:
    """Soundex-style phonetic blocking key (beyond-reference ER
    operator): first letter + the first 3 collapsed consonant codes,
    zero-padded — 'Robert' and 'Rupert' both key to R163, so
    misspelled author/entity names land in the same block.

    Deliberate simplification vs archival US Soundex, chosen so the key
    is EXACTLY re-derivable in SQL (regexp_replace chains, no
    positional lambda): dropped letters (vowels, H, W, Y) do NOT act as
    code separators — adjacent equal codes collapse even across them.
    The first letter's own code (and its immediate run) is stripped per
    the standard rule. Non-letters are ignored; no letters -> ''."""
    if not isinstance(name, str):
        return ""
    letters = [c for c in name.upper() if "A" <= c <= "Z"]
    if not letters:
        return ""
    digits = [d for d in (_PHONETIC_MAP.get(c, "") for c in letters) if d]
    out: list[str] = []
    for d in digits:
        if not out or out[-1] != d:
            out.append(d)
    s = "".join(out)
    first = letters[0]
    if s and _PHONETIC_MAP.get(first, "") == s[0]:
        s = s[1:]
    return first + (s + "000")[:3]
