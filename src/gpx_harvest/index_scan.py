"""Scan crawl index shards for GPX candidates.

Index shards are CDX-J: one record per line, two space-separated prefix
fields (sortable URL key and timestamp) followed by a JSON payload carrying
at least url, filename, offset and length.

Both URL checks on a line have a fast path that decides only where a plain
string test proves the answer ``urllib.parse.urlsplit`` would give, and fall
back to ``urlsplit`` otherwise.  ``CandidateRecord`` accepts a URL as absolute
when ``_ABSOLUTE_URL`` matches it: an ASCII scheme, ``://`` and a whole netloc
of printable ASCII without ``[`` or ``]``.  ``is_gpx_candidate`` rejects a URL
whose lowercased text holds no ``.gpx`` at all, unless it holds a tab, CR or
LF: ``urlsplit`` deletes those, so ``x.g``, a tab and ``px`` make the path ``x.gpx``.
"""

from __future__ import annotations

import gzip
import io
import re
from dataclasses import dataclass
from pathlib import Path
from types import NoneType
from typing import Iterable, Iterator
from urllib.parse import urlsplit

import orjson

_CRAWL_ID_RE = re.compile(r"CC-MAIN-\d{4}-\d{2}")

# A URL that ``urlsplit`` gives a scheme and a netloc: an ASCII letter and
# scheme characters, "://", then a netloc running to "/", "?", "#" or the end,
# of printable ASCII without "[" or "]".  The first character being a letter
# leaves nothing for ``urlsplit`` to strip in front, the netloc cannot hold
# the tab, CR or LF it deletes, and an ASCII netloc without brackets passes
# its IPv6 and NFKC checks.  The netloc characters are listed, not negated:
# a negated class spanning all of Unicode takes milliseconds to compile.
_NETLOC_CHARS = re.escape("".join(chr(code) for code in range(0x21, 0x7f)
                                  if chr(code) not in "/?#[]"))
_ABSOLUTE_URL = re.compile(rf"[A-Za-z][A-Za-z0-9+.-]*://[{_NETLOC_CHARS}]+(?:[/?#]|\Z)")

# The longest WARC record a candidate may point at, in compressed bytes.  One
# index line must not make fetch request an unbounded range; a longer one is
# a malformed line.
MAX_WARC_LEN = 16 << 20

# One past the largest WARC offset a candidate may hold: the stage writer
# encodes integers in 64 bits, and no file is 8 EiB long.
WARC_OFFSET_LIMIT = 1 << 63


@dataclass
class CandidateRecord:
    """One index hit pointing at a byte range inside a WARC file."""

    url: str
    mime_detected: str
    warc_file: str
    warc_offset: int
    warc_len: int
    crawl_id: str

    def __post_init__(self) -> None:
        if self.warc_offset < 0:
            raise ValueError(f"warc_offset must be >= 0, got {self.warc_offset}")
        if self.warc_offset >= WARC_OFFSET_LIMIT:
            raise ValueError(f"warc_offset must be < 2**63, got {self.warc_offset}")
        if self.warc_len <= 0:
            raise ValueError(f"warc_len must be > 0, got {self.warc_len}")
        if self.warc_len > MAX_WARC_LEN:
            raise ValueError(f"warc_len must be <= {MAX_WARC_LEN}, got {self.warc_len}")
        if not _ABSOLUTE_URL.match(self.url):
            parts = urlsplit(self.url)
            if not parts.scheme or not parts.netloc:
                raise ValueError(f"url must be absolute, got {self.url!r}")


@dataclass
class ScanStats:
    lines: int = 0
    candidates: int = 0
    not_candidate: int = 0
    malformed: int = 0
    blank: int = 0


# A MIME value may be absent or null; any other value but a string is malformed.
_MIME_TYPES = (str, NoneType)


def _crawl_id_from(filename: str) -> str:
    match = _CRAWL_ID_RE.search(filename)
    return match.group(0) if match else ""


def parse_index_line(line: str) -> CandidateRecord | None:
    """Parse one CDX-J line; None for blank, comment-like or malformed lines.

    The JSON payload must carry url, filename, offset and length, with
    url and filename as strings and offset/length as base-10 integers.
    "mime-detected" is preferred for the MIME string, falling back to "mime",
    then to empty; a MIME value that is neither a string nor null is
    malformed.

    The payload is decoded by orjson, so a line whose payload holds NaN or
    Infinity, a number beyond a double's range or a lone surrogate escape
    (``\\ud800``) is malformed, as is one whose payload is no JSON object or
    nests a field's value too deep to turn into a string.  So is an offset
    below 0 or at least 2**63, a length of 0 or above ``MAX_WARC_LEN``, and a
    URL without a scheme and a netloc: the checks of ``CandidateRecord``.
    """
    stripped = line.strip()
    if not stripped:
        return None
    brace = stripped.find("{")
    if brace < 0:
        return None
    try:
        payload = orjson.loads(stripped[brace:])
    except orjson.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None

    url = payload.get("url")
    filename = payload.get("filename")
    offset = payload.get("offset")
    length = payload.get("length")
    detected, mime = payload.get("mime-detected"), payload.get("mime")
    if (not url or not filename or offset is None or length is None
            or type(url) is not str or type(filename) is not str
            or type(detected) not in _MIME_TYPES or type(mime) not in _MIME_TYPES):
        return None
    try:
        record = CandidateRecord(
            url=url,
            mime_detected=(detected or mime or "").lower(),
            warc_file=filename,
            warc_offset=int(str(offset), 10),
            warc_len=int(str(length), 10),
            crawl_id=_crawl_id_from(filename),
        )
    except (ValueError, RecursionError):  # a bad value, or str() of one nested too deep
        return None
    return record


def is_gpx_candidate(record: CandidateRecord) -> bool:
    """True when the MIME type mentions gpx or the URL path ends in .gpx.

    Both checks are case-insensitive; query string and fragment are stripped
    before the extension test (crawled URLs often carry "?download=1").  A URL
    without ".gpx" anywhere, and without the tab, CR or LF that ``urlsplit``
    deletes, is rejected without splitting it.
    """
    if "gpx" in record.mime_detected.lower():
        return True
    url = record.url
    if ".gpx" not in url.lower() and "\t" not in url and "\r" not in url and "\n" not in url:
        return False
    return urlsplit(url).path.lower().endswith(".gpx")


def scan_index(lines: Iterable[str], stats: ScanStats | None = None) -> Iterator[CandidateRecord]:
    """Yield the GPX candidates from an index shard, in input order.

    Malformed lines are counted and skipped, never fatal: a large shard set
    must survive isolated corruption.  Pass a ScanStats to collect the
    line/candidate/malformed counters.
    """
    if stats is None:
        stats = ScanStats()
    for line in lines:
        stats.lines += 1
        if not line.strip():
            stats.blank += 1
            continue
        record = parse_index_line(line)
        if record is None:
            stats.malformed += 1
            continue
        if is_gpx_candidate(record):
            stats.candidates += 1
            yield record
        else:
            stats.not_candidate += 1


def iter_shard_lines(path: str | Path) -> Iterator[str]:
    """Lines of a plain or gzip-compressed index shard file."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as handle:
            for raw in io.TextIOWrapper(handle, encoding="utf-8", errors="replace"):
                yield raw
    else:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            yield from handle
