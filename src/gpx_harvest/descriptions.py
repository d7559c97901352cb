"""Description cleanup, PII masking, and two filter rules: the length bounds
(``length_exclusion``) and the rare-language cut (``common_languages``).

The cleaning and masking steps are deterministic text transforms; the
judge-based quality and PII checks live in judges.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html.parser import HTMLParser

from .config import FilterConfig

EMAIL_TOKEN = "<EMAIL>"
URL_TOKEN = "<URL>"
PHONE_TOKEN = "<TELEPHONE>"

_SQUARE_BRACKETS_RE = re.compile(r"\[[^][]*\]")
_CURLY_BRACKETS_RE = re.compile(r"\{[^{}]*\}")

_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
_URL_RE = re.compile(r"(?:(?:https?|ftp)://|www\.)[^\s<>]+", re.IGNORECASE)
# Phone candidates: 7-15 digits with space/dash/dot/parenthesis separators and
# an optional leading "+" or "(".  The lookarounds refuse windows inside longer
# digit runs (raw coordinate strings, IDs).
_PHONE_CANDIDATE_RE = re.compile(r"(?<![\d.])[+(]?\d[\d\s().-]*\d(?!\d)")
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
        if cleaned == current:
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


def _mask_phones(text: str) -> tuple[str, bool]:
    out: list[str] = []
    cursor = 0
    fired = False
    for match in _PHONE_CANDIDATE_RE.finditer(text):
        if not _looks_like_phone(match.group(0)):
            continue
        out.append(text[cursor:match.start()])
        out.append(PHONE_TOKEN)
        cursor = match.end()
        fired = True
    out.append(text[cursor:])
    return "".join(out), fired


def _mask_urls(text: str) -> tuple[str, bool]:
    out: list[str] = []
    cursor = 0
    fired = False
    for match in _URL_RE.finditer(text):
        span = match.group(0)
        trimmed = span.rstrip(_URL_TRAILING_PUNCT)
        if not trimmed:
            continue
        out.append(text[cursor:match.start()])
        out.append(URL_TOKEN)
        cursor = match.start() + len(trimmed)
        fired = True
    out.append(text[cursor:])
    return "".join(out), fired


def mask_pii(text: str) -> tuple[str, PiiFlags]:
    """Replace emails, URLs and phone numbers with placeholder tokens.

    Masks in the order email, URL, phone so an address like user@host.example
    is never half-consumed by the URL pattern.  Returns the masked text and
    flags saying which classes fired.  Masking is idempotent: the tokens
    contain nothing the patterns can re-match.
    """
    flags = PiiFlags()
    masked, n = _EMAIL_RE.subn(EMAIL_TOKEN, text)
    flags.email = n > 0
    masked, flags.url = _mask_urls(masked)
    masked, flags.phone = _mask_phones(masked)
    return masked, flags


def find_raw_pii(text: str) -> list[str]:
    """All substrings the masking patterns would replace; empty after masking."""
    hits = [m.group(0) for m in _EMAIL_RE.finditer(text)]
    hits += [m.group(0) for m in _URL_RE.finditer(text)]
    hits += [m.group(0) for m in _PHONE_CANDIDATE_RE.finditer(text) if _looks_like_phone(m.group(0))]
    return hits


def common_languages(counts: dict[str, int], cutoff: int) -> set[str]:
    """The languages that survive the corpus-level rare-language cut, from each
    one's item count over the whole collection: every language but "unknown"
    that occurs more than ``cutoff`` times."""
    return {lang for lang, count in counts.items() if lang != "unknown" and count > cutoff}
