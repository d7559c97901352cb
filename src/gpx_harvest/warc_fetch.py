"""Fetch single WARC records by HTTP byte range and unwrap them to payloads.

A WARC file is a concatenation of independently gzip-compressed records; the
index gives each record's offset and length, so one ranged GET retrieves one
record without downloading the archive.
"""

from __future__ import annotations

import gzip
import os
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator
from urllib.parse import urlsplit

import requests

from .index_scan import CandidateRecord

DEFAULT_BASE_URL = "https://data.commoncrawl.org"
BASE_URL_ENV = "GPX_HARVEST_BASE_URL"


def default_base_url() -> str:
    return os.environ.get(BASE_URL_ENV, DEFAULT_BASE_URL)


@dataclass
class FetchPolicy:
    """Politeness controls for the archive endpoint."""

    max_retries: int = 3  # total attempts per candidate
    backoff_base_s: float = 1.0  # doubles after every failed attempt
    max_parallel: int = 8
    rate_limit_per_s: float = 4.0
    base_url: str = ""

    def __post_init__(self) -> None:
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if self.rate_limit_per_s <= 0:
            raise ValueError("rate_limit_per_s must be > 0")
        if not self.base_url:
            self.base_url = default_base_url()


@dataclass
class WarcSlice:
    """The raw bytes of one WARC record (one gzip member) plus its candidate."""

    record_bytes: bytes
    candidate: CandidateRecord


class FetchFailedError(Exception):
    """Candidate could not be retrieved after all attempts."""


class PayloadError(Exception):
    """Base for record-unwrapping problems."""


class PayloadDecodeError(PayloadError):
    """Record bytes are corrupt: not gzip, truncated, or malformed envelopes."""


class WarcRecordSkippedError(PayloadError):
    """Record is well-formed but not a usable response (wrong type or status)."""


def build_range_header(offset: int, length: int) -> str:
    """Range header value covering [offset, offset + length - 1]."""
    if length <= 0:
        raise ValueError(f"length must be > 0, got {length}")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    return f"bytes={offset}-{offset + length - 1}"


class RateLimiter:
    """Thread-safe limiter spacing acquisitions at least 1/rate apart."""

    def __init__(self, per_second: float, clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if per_second <= 0:
            raise ValueError("per_second must be > 0")
        self._interval = 1.0 / per_second
        self._lock = threading.Lock()
        self._next_slot = 0.0
        self._clock = clock
        self._sleep = sleep

    def acquire(self) -> None:
        with self._lock:
            now = self._clock()
            wait = self._next_slot - now
            self._next_slot = max(now, self._next_slot) + self._interval
        if wait > 0:
            self._sleep(wait)


class HttpRangeTransport:
    """Ranged GET over live HTTP.  Returns (status_code, body bytes)."""

    def __init__(self, timeout_s: float = 60.0, get: Callable = requests.get) -> None:
        self._timeout = timeout_s
        self._get = get

    def get_range(self, url: str, offset: int, length: int) -> tuple[int, bytes]:
        response = self._get(url, headers={"Range": build_range_header(offset, length)},
                             timeout=self._timeout)
        return response.status_code, response.content


class FixtureTransport:
    """Serves ranges from WARC files in a local directory, for offline runs.

    The WARC path is taken from the request URL's path, so the same candidate
    records work against either transport.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def get_range(self, url: str, offset: int, length: int) -> tuple[int, bytes]:
        relative = urlsplit(url).path.lstrip("/")
        path = self.root / relative
        if not path.exists():
            return 404, b""
        with open(path, "rb") as handle:
            handle.seek(offset)
            return 206, handle.read(length)  # short when the range runs past EOF


def fetch_candidate(candidate: CandidateRecord, policy: FetchPolicy, transport,
                    limiter: RateLimiter | None = None,
                    sleep: Callable[[float], None] = time.sleep) -> WarcSlice:
    """Retrieve the candidate's exact byte range, retrying with backoff.

    Makes at most policy.max_retries attempts, doubling the backoff between
    them.  Accepts 206 (the range) or 200 (whole file, sliced locally); any
    other status, a short read, or a transport exception counts as a failed
    attempt.  Raises FetchFailedError once attempts are exhausted.
    """
    url = policy.base_url.rstrip("/") + "/" + candidate.warc_file.lstrip("/")
    offset, length = candidate.warc_offset, candidate.warc_len

    last_problem = "no attempts made"
    attempts = max(1, policy.max_retries)
    for attempt in range(attempts):
        if attempt:
            sleep(policy.backoff_base_s * (2 ** (attempt - 1)))
        if limiter is not None:
            limiter.acquire()
        try:
            status, body = transport.get_range(url, offset, length)
        except Exception as exc:
            last_problem = f"transport error: {exc}"
            continue
        if status == 200:
            body = body[offset:offset + length]
        elif status != 206:
            last_problem = f"http status {status}"
            continue
        if len(body) != length:
            last_problem = f"short read: {len(body)} of {length} bytes"
            continue
        return WarcSlice(record_bytes=body, candidate=candidate)

    raise FetchFailedError(f"{candidate.url}: {last_problem}")


def fetch_many(candidates: Iterable[CandidateRecord], policy: FetchPolicy,
               transport) -> Iterator[tuple[CandidateRecord, WarcSlice | FetchFailedError]]:
    """Fetch candidates concurrently, yielding results in candidate order.

    Concurrency is capped at policy.max_parallel and all workers share one
    rate limiter.  Failures are yielded as FetchFailedError values so the
    caller can log them and keep going.
    """
    items = list(candidates)
    limiter = RateLimiter(policy.rate_limit_per_s)

    def fetch_one(candidate: CandidateRecord) -> WarcSlice | FetchFailedError:
        try:
            return fetch_candidate(candidate, policy, transport, limiter=limiter)
        except FetchFailedError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=policy.max_parallel) as pool:
        yield from zip(items, pool.map(fetch_one, items))


def _parse_header_block(block: bytes, what: str) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in block.split(b"\r\n"):
        if b":" not in line:
            continue
        key, _, value = line.partition(b":")
        headers[key.strip().decode("latin-1").lower()] = value.strip().decode("latin-1")
    if not headers:
        raise PayloadDecodeError(f"empty {what} header block")
    return headers


def _dechunk(body: bytes) -> bytes:
    out = bytearray()
    rest = body
    while True:
        line, sep, rest = rest.partition(b"\r\n")
        if not sep:
            raise PayloadDecodeError("truncated chunked body")
        try:
            size = int(line.split(b";")[0].strip(), 16)
        except ValueError as exc:
            raise PayloadDecodeError(f"bad chunk size line {line!r}") from exc
        if size == 0:
            return bytes(out)
        if len(rest) < size:
            raise PayloadDecodeError("truncated chunk")
        out += rest[:size]
        rest = rest[size:]
        if rest[:2] != b"\r\n":
            raise PayloadDecodeError("missing chunk terminator")
        rest = rest[2:]


def _content_length(headers: dict[str, str], layer: str) -> int:
    """The declared Content-Length; PayloadDecodeError unless a whole number >= 0."""
    try:
        declared = int(headers["content-length"])
    except ValueError as exc:
        raise PayloadDecodeError(f"bad {layer} Content-Length") from exc
    if declared < 0:
        raise PayloadDecodeError(f"bad {layer} Content-Length")
    return declared


def extract_payload(record: WarcSlice | bytes) -> bytes:
    """Unwrap gzip member -> WARC record -> HTTP response -> body bytes.

    Only WARC "response" records carrying an HTTP 200 are accepted; anything
    else raises WarcRecordSkippedError.  Content-Length is honored when
    present and chunked transfer encoding is decoded.  Corrupt or truncated
    records raise PayloadDecodeError.
    """
    member = record.record_bytes if isinstance(record, WarcSlice) else record
    try:
        raw = gzip.decompress(member)
    except (OSError, EOFError, zlib.error) as exc:
        raise PayloadDecodeError(f"record is not gzip: {exc}") from exc

    warc_head, sep, warc_content = raw.partition(b"\r\n\r\n")
    if not sep:
        raise PayloadDecodeError("missing WARC header terminator")
    if not warc_head.startswith(b"WARC/"):
        raise PayloadDecodeError("missing WARC version line")
    warc_headers = _parse_header_block(warc_head, "WARC")

    warc_type = warc_headers.get("warc-type", "")
    if warc_type.lower() != "response":
        raise WarcRecordSkippedError(f"warc record type {warc_type!r}")

    if "content-length" in warc_headers:
        declared = _content_length(warc_headers, "WARC")
        if len(warc_content) < declared:
            raise PayloadDecodeError("truncated WARC content")
        http_block = warc_content[:declared]
    else:
        http_block = warc_content.rstrip(b"\r\n")

    http_head, sep, body = http_block.partition(b"\r\n\r\n")
    if not sep:
        raise PayloadDecodeError("missing HTTP header terminator")
    status_line = http_head.split(b"\r\n", 1)[0]
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise PayloadDecodeError(f"bad HTTP status line {status_line!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise PayloadDecodeError(f"bad HTTP status line {status_line!r}") from exc
    if status != 200:
        raise WarcRecordSkippedError(f"http status {status}")

    http_headers = _parse_header_block(http_head, "HTTP")
    if "chunked" in http_headers.get("transfer-encoding", "").lower():
        return _dechunk(body)
    if "content-length" in http_headers:
        declared = _content_length(http_headers, "HTTP")
        if len(body) < declared:
            raise PayloadDecodeError("truncated HTTP body")
        return body[:declared]
    return body
