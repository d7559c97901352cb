"""Description cleanup, PII masking, and two filter rules: the length bounds
(``length_exclusion``) and the rare-language cut (``common_languages``).

The cleaning and masking steps are deterministic text transforms; the
judge-based quality and PII checks live in judges.py.

Masking is linear in the text, and the regex engine does its scanning in C:

- The URL and phone patterns start with a character class. ``re`` gives such
  a pattern a prefix set, and its search skips in C to the characters a match
  can start with. A pattern that starts with a lookbehind, or with a letter
  under ``re.IGNORECASE``, gets none, and the full matcher starts at every
  position. So the URL pattern spells out each letter's case variants
  (``[Ssſ]`` is exactly what ``re.IGNORECASE`` matches for ``s``), and the
  phone pattern checks its "no digit or dot before" lookbehind one character
  in, after the class has matched the first character.
- An e-mail local part is a run of ``[A-Za-z0-9._%+-]``, and a plain
  ``finditer`` retries such a run from every position inside it, so its cost
  grows with the square of the run. ``_email_matches`` finds the same
  leftmost matches in one pass: it tries a match where the last one ended,
  and otherwise searches on only from positions with no local-part character
  before them. That is exact, because a leftmost match that starts later
  cannot have a local-part character before it: a match would then start one
  position earlier.

``clean_text`` repeats ``_clean_once`` until nothing changes, but stops without
a confirming pass once a pass leaves text that holds no ``<`` and that
``html.unescape`` leaves as it is. Such text is its own ``_clean_once``:
HTMLParser only unescapes text without ``<``, and a pass's output is already
free of bracket pairs and collapsed.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass
from html.parser import HTMLParser
from typing import Iterable, Iterator

from .config import FilterConfig

EMAIL_TOKEN = "<EMAIL>"
URL_TOKEN = "<URL>"
PHONE_TOKEN = "<TELEPHONE>"

_SQUARE_BRACKETS_RE = re.compile(r"\[[^][]*\]")
_CURLY_BRACKETS_RE = re.compile(r"\{[^{}]*\}")

_EMAIL_LOCAL = "[A-Za-z0-9._%+-]"
_EMAIL_RE = re.compile(_EMAIL_LOCAL + r"+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
# The same pattern, allowed to start only where no local-part character precedes.
_EMAIL_START_RE = re.compile(f"(?<!{_EMAIL_LOCAL})" + _EMAIL_RE.pattern)
# (?:(?:https?|ftp)://|www\.)[^\s<>]+ under re.IGNORECASE, led by a class.
_URL_RE = re.compile(r"[HhFfWw](?:(?<=[Hh])[Tt][Tt][Pp][Ssſ]?://|(?<=[Ff])[Tt][Pp]://"
                     r"|(?<=[Ww])[Ww][Ww]\.)[^\s<>]+")
# Phone candidates: 7-15 digits with space/dash/dot/parenthesis separators and
# an optional leading "+" or "(".  The lookarounds refuse windows inside longer
# digit runs (raw coordinate strings, IDs).  This is (?<![\d.])[+(]?\d[\d\s().-]*\d(?!\d)
# with the lookbehind checked after the first character.
_PHONE_CANDIDATE_RE = re.compile(r"[+(\d](?<![\d.][+(\d])(?:(?<=[+(])\d|(?<=\d))"
                                 r"[\d\s().-]*\d(?!\d)")
_NEGATIVE_NUMBER_RE = re.compile(r"(?:^|\s)-\d")
_URL_TRAILING_PUNCT = ".,;:!?)'\""


class _TagStripper(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []

    def handle_data(self, data: str) -> None:
        self.parts.append(data)


def _strip_html(text: str) -> str:
    stripper = _TagStripper()
    stripper.feed(text)
    stripper.close()
    return "".join(stripper.parts)


def _clean_once(text: str) -> str:
    text = _strip_html(text)
    # Bracketed app tags can nest; peel until stable.
    while True:
        reduced = _CURLY_BRACKETS_RE.sub(" ", _SQUARE_BRACKETS_RE.sub(" ", text))
        if reduced == text:
            break
        text = reduced
    # str.split() splits at exactly the characters re's \s matches.
    return " ".join(text.split())


def clean_text(raw: str) -> str:
    """Normalize a raw description: drop HTML tags, decode entity references,
    remove [...] and {...} app tags, and collapse all whitespace runs to
    single spaces.

    Applied to its own fixed point, so cleaning is idempotent even when
    entity decoding uncovers new tags or brackets.
    """
    current = raw
    while True:
        cleaned = _clean_once(current)
        if cleaned == current or ("<" not in cleaned and html.unescape(cleaned) == cleaned):
            return cleaned
        current = cleaned


def length_exclusion(text: str, config: FilterConfig) -> str | None:
    """"desc-too-short" or "desc-too-long" when the cleaned, masked text
    length is outside the configured bounds (inclusive minimum, exclusive
    maximum, counted in code points); None when it is inside."""
    if len(text) < config.desc_min_chars:
        return "desc-too-short"
    if len(text) >= config.desc_max_chars_exclusive:
        return "desc-too-long"
    return None


@dataclass
class PiiFlags:
    email: bool = False
    url: bool = False
    phone: bool = False


def _looks_like_phone(candidate: str) -> bool:
    digits = sum(c.isdigit() for c in candidate)
    if not 7 <= digits <= 15:
        return False
    # A whitespace-minus-digit run is a negative number (coordinates), never
    # phone formatting.
    if _NEGATIVE_NUMBER_RE.search(candidate):
        return False
    return True


def _phone_matches(text: str) -> Iterator[re.Match]:
    return (m for m in _PHONE_CANDIDATE_RE.finditer(text) if _looks_like_phone(m.group(0)))


def _url_spans(text: str) -> Iterator[tuple[int, int]]:
    # Trailing punctuation belongs to the sentence; it never reaches the
    # match's first character, a letter.
    for match in _URL_RE.finditer(text):
        yield match.start(), match.start() + len(match.group(0).rstrip(_URL_TRAILING_PUNCT))


def _email_matches(text: str) -> Iterator[re.Match]:
    """The matches of ``_EMAIL_RE.finditer(text)``, found in linear time."""
    if "@" not in text:
        return
    pos = 0
    while True:
        match = _EMAIL_RE.match(text, pos) or _EMAIL_START_RE.search(text, pos + 1)
        if match is None:
            return
        yield match
        pos = match.end()


def _replace(text: str, spans: Iterable[tuple[int, int]], token: str) -> tuple[str, bool]:
    """``text`` with each of the ordered, disjoint ``spans`` replaced by
    ``token``, and whether there was any."""
    out: list[str] = []
    cursor = 0
    for start, end in spans:
        out += (text[cursor:start], token)
        cursor = end
    out.append(text[cursor:])
    return "".join(out), len(out) > 1


def mask_pii(text: str) -> tuple[str, PiiFlags]:
    """Replace emails, URLs and phone numbers with placeholder tokens.

    Masks in the order email, URL, phone so an address like user@host.example
    is never half-consumed by the URL pattern.  Returns the masked text and
    flags saying which classes fired.  Masking is idempotent: the tokens
    contain nothing the patterns can re-match.
    """
    flags = PiiFlags()
    masked, flags.email = _replace(text, (m.span() for m in _email_matches(text)), EMAIL_TOKEN)
    masked, flags.url = _replace(masked, _url_spans(masked), URL_TOKEN)
    masked, flags.phone = _replace(masked, (m.span() for m in _phone_matches(masked)), PHONE_TOKEN)
    return masked, flags


def find_raw_pii(text: str) -> list[str]:
    """All substrings the masking patterns would replace; empty after masking."""
    hits = [m.group(0) for m in _email_matches(text)]
    hits += [m.group(0) for m in _URL_RE.finditer(text)]
    hits += [m.group(0) for m in _phone_matches(text)]
    return hits


def common_languages(counts: dict[str, int], cutoff: int) -> set[str]:
    """The languages that survive the corpus-level rare-language cut, from each
    one's item count over the whole collection: every language but "unknown"
    that occurs more than ``cutoff`` times."""
    return {lang for lang, count in counts.items() if lang != "unknown" and count > cutoff}
