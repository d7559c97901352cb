"""Scan crawl index shards for GPX candidates.

Index shards are CDX-J: one record per line, two space-separated prefix
fields (sortable URL key and timestamp) followed by a JSON payload carrying
at least url, filename, offset and length.
"""

from __future__ import annotations

import gzip
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator
from urllib.parse import urlsplit

_CRAWL_ID_RE = re.compile(r"CC-MAIN-\d{4}-\d{2}")

# The longest WARC record a candidate may point at, in compressed bytes.  One
# index line must not make fetch request an unbounded range; a longer one is
# a malformed line.
MAX_WARC_LEN = 16 << 20


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
        if self.warc_len <= 0:
            raise ValueError(f"warc_len must be > 0, got {self.warc_len}")
        if self.warc_len > MAX_WARC_LEN:
            raise ValueError(f"warc_len must be <= {MAX_WARC_LEN}, got {self.warc_len}")
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


def _crawl_id_from(filename: str) -> str:
    match = _CRAWL_ID_RE.search(filename)
    return match.group(0) if match else ""


def parse_index_line(line: str) -> CandidateRecord | None:
    """Parse one CDX-J line; None for blank, comment-like or malformed lines.

    The JSON payload must carry url, filename, offset and length, with
    offset/length as base-10 integers.  "mime-detected" is preferred for the
    MIME string, falling back to "mime", then to empty.
    """
    stripped = line.strip()
    if not stripped:
        return None
    brace = stripped.find("{")
    if brace < 0:
        return None
    try:
        payload = json.loads(stripped[brace:])
    except (ValueError, RecursionError):  # bad JSON, an over-long integer, deep nesting
        return None
    if not isinstance(payload, dict):
        return None

    url = payload.get("url")
    filename = payload.get("filename")
    offset = payload.get("offset")
    length = payload.get("length")
    if not url or not filename or offset is None or length is None:
        return None
    try:
        record = CandidateRecord(
            url=str(url),
            mime_detected=str(payload.get("mime-detected") or payload.get("mime") or "").lower(),
            warc_file=str(filename),
            warc_offset=int(str(offset), 10),
            warc_len=int(str(length), 10),
            crawl_id=_crawl_id_from(str(filename)),
        )
    except ValueError:
        return None
    return record


def is_gpx_candidate(record: CandidateRecord) -> bool:
    """True when the MIME type mentions gpx or the URL path ends in .gpx.

    Both checks are case-insensitive; query string and fragment are stripped
    before the extension test (crawled URLs often carry "?download=1").
    """
    if "gpx" in record.mime_detected.lower():
        return True
    return urlsplit(record.url).path.lower().endswith(".gpx")


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
