"""Fetch single WARC records by HTTP byte range and unwrap them to payloads.

A WARC file is a concatenation of independently gzip-compressed records; the
index gives each record's offset and length, so one ranged GET retrieves one
record without downloading the archive.

``requests`` is loaded only when an ``HttpRangeTransport`` is built for a
live fetch; offline runs over ``FixtureTransport`` never import it.  Nor does
a one-worker run import ``concurrent.futures`` (``map_ordered``).
"""

from __future__ import annotations

import math
import os
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar
from urllib.parse import urlsplit

from .index_scan import CandidateRecord

T = TypeVar("T")
R = TypeVar("R")

DEFAULT_BASE_URL = "https://data.commoncrawl.org"
BASE_URL_ENV = "GPX_HARVEST_BASE_URL"

# The most bytes one record may decompress to (WARC and HTTP headers plus
# body).  Deflate expands up to about 1000x, so a small hostile member could
# otherwise exhaust memory; a larger one is excluded as "payload-too-large".
MAX_DECOMPRESSED_BYTES = 64 << 20

# map_ordered keeps this many calls per worker submitted ahead of its
# consumer: enough to keep every worker busy, few enough to bound memory.
FETCHES_AHEAD_PER_WORKER = 2


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
        # Written so that NaN, which fails every comparison, is rejected too.
        if not 0 < self.rate_limit_per_s < math.inf:
            raise ValueError("rate_limit_per_s must be finite and > 0")
        if not 0 <= self.backoff_base_s < math.inf:
            raise ValueError("backoff_base_s must be finite and >= 0")
        if not self.base_url:
            self.base_url = default_base_url()


class FetchFailedError(Exception):
    """Candidate could not be retrieved after all attempts."""


class PayloadError(Exception):
    """Base for record-unwrapping problems."""


class PayloadDecodeError(PayloadError):
    """Record bytes are corrupt: not gzip, truncated, or malformed envelopes."""


class WarcRecordSkippedError(PayloadError):
    """Record is well-formed but not a usable response (wrong type or status)."""


class PayloadTooLargeError(PayloadError):
    """Record decompresses to more than MAX_DECOMPRESSED_BYTES."""


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
        if not 0 < per_second < math.inf:
            raise ValueError("per_second must be finite and > 0")
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
    """Ranged GET over live HTTP.  Returns (status_code, body bytes).

    Each thread that fetches gets its own ``requests.Session``, built on its
    first range and kept, so its GETs reuse one connection instead of paying
    a new TCP and TLS handshake each; ``close`` closes them all.  ``get``
    replaces the sessions with one callable taking ``requests.get``'s
    arguments.
    """

    def __init__(self, timeout_s: float = 60.0, get: Callable | None = None) -> None:
        if get is None:
            import requests
            self._new_session = requests.Session
        self._timeout = timeout_s
        self._get = get
        self._local = threading.local()
        self._sessions = []
        self._lock = threading.Lock()

    def get_range(self, url: str, offset: int, length: int) -> tuple[int, bytes]:
        get = self._get
        if get is None:
            session = getattr(self._local, "session", None)
            if session is None:
                session = self._local.session = self._new_session()
                with self._lock:
                    self._sessions.append(session)
            get = session.get
        response = get(url, headers={"Range": build_range_header(offset, length)},
                       timeout=self._timeout)
        return response.status_code, response.content

    def close(self) -> None:
        """Close every session built so far; a later range builds a new one."""
        with self._lock:
            sessions, self._sessions = self._sessions, []
            self._local = threading.local()
        for session in sessions:
            session.close()


class FixtureTransport:
    """Serves ranges from WARC files in a local directory, for offline runs.

    The WARC path is taken from the request URL's path, so the same candidate
    records work against either transport.  A path whose ``..`` parts lead
    out of ``root`` is answered 404, as a missing file is; symlinks under
    ``root`` are the operator's and are followed.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def close(self) -> None:
        """Nothing to release: each range opens and closes its WARC file."""

    def get_range(self, url: str, offset: int, length: int) -> tuple[int, bytes]:
        # Normalized as text, not resolved on disk: resolving costs a system
        # call per path component on every range.
        relative = os.path.normpath(urlsplit(url).path.lstrip("/"))
        path = self.root / relative
        if relative.split(os.sep)[0] == os.pardir or not path.exists():
            return 404, b""
        with open(path, "rb") as handle:
            handle.seek(offset)
            return 206, handle.read(length)  # short when the range runs past EOF


def fetch_candidate(candidate: CandidateRecord, policy: FetchPolicy, transport,
                    limiter: RateLimiter | None = None,
                    sleep: Callable[[float], None] = time.sleep) -> bytes:
    """Retrieve the candidate's exact byte range, retrying with backoff.

    Returns the WARC record's bytes: one gzip member, for ``extract_payload``.

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
        return body

    raise FetchFailedError(f"{candidate.url}: {last_problem}")


def map_ordered(function: Callable[[T], R], items: Iterable[T],
                workers: int) -> Iterator[tuple[T, R]]:
    """``(item, function(item))`` for each item, in item order.

    With one worker each call runs on the calling thread as the consumer
    asks for its result: no executor, future or look-ahead queue.  With more
    workers the calls run in a thread pool of that size, and at most
    FETCHES_AHEAD_PER_WORKER * workers are submitted and not yet yielded,
    so finished results never pile up ahead of a slow consumer.  Either way
    an exception from ``function`` is raised to the consumer at its item.
    ``concurrent.futures`` is imported only when a pool starts, so a
    one-worker run never loads it.
    """
    if workers == 1:
        for item in items:
            yield item, function(item)
        return
    from concurrent.futures import ThreadPoolExecutor

    ahead = FETCHES_AHEAD_PER_WORKER * workers
    pending: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item in items:
            if len(pending) == ahead:
                done, future = pending.popleft()
                yield done, future.result()
            pending.append((item, pool.submit(function, item)))
        while pending:
            done, future = pending.popleft()
            yield done, future.result()


def fetch_many(candidates: Iterable[CandidateRecord], policy: FetchPolicy,
               transport) -> Iterator[tuple[CandidateRecord, bytes | FetchFailedError]]:
    """Fetch candidates concurrently, yielding results in candidate order.

    Concurrency is capped at policy.max_parallel and all workers share one
    rate limiter.  The fetches go through ``map_ordered``: with one worker
    each runs on the calling thread, between the consumer's uses of the
    results; with more, a bounded number run ahead of the consumer in a
    thread pool.  Failures are yielded as FetchFailedError values so the
    caller can log them and keep going.
    """
    limiter = RateLimiter(policy.rate_limit_per_s)

    def fetch_one(candidate: CandidateRecord) -> bytes | FetchFailedError:
        try:
            return fetch_candidate(candidate, policy, transport, limiter=limiter)
        except FetchFailedError as exc:
            return exc

    return map_ordered(fetch_one, candidates, policy.max_parallel)


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
    """Decode a chunked transfer-encoded body in one pass over ``body``."""
    out = bytearray()
    pos = 0
    while True:
        end = body.find(b"\r\n", pos)
        if end < 0:
            raise PayloadDecodeError("truncated chunked body")
        line = body[pos:end]
        try:
            size = int(line.split(b";")[0].strip(), 16)
        except ValueError as exc:
            raise PayloadDecodeError(f"bad chunk size line {line!r}") from exc
        if size < 0:
            raise PayloadDecodeError(f"bad chunk size line {line!r}")
        if size == 0:
            return bytes(out)
        pos = end + 2
        if len(body) - pos < size:
            raise PayloadDecodeError("truncated chunk")
        out += body[pos:pos + size]
        pos += size
        if body[pos:pos + 2] != b"\r\n":
            raise PayloadDecodeError("missing chunk terminator")
        pos += 2


def _gunzip(member: bytes) -> bytes:
    """Decompress the single gzip member a WARC record is stored as, never
    past MAX_DECOMPRESSED_BYTES.

    Anything but zero padding after the member is a PayloadDecodeError, as a
    second member is: ``gzip.decompress`` would join members, copying the
    rest of the input once per member, so many tiny ones took quadratic time.
    """
    inflater = zlib.decompressobj(31)  # 16 + MAX_WBITS: a gzip header and trailer
    try:
        raw = inflater.decompress(member, MAX_DECOMPRESSED_BYTES + 1)
    except zlib.error as exc:
        raise PayloadDecodeError(f"record is not gzip: {exc}") from exc
    if len(raw) > MAX_DECOMPRESSED_BYTES:
        raise PayloadTooLargeError(
            f"record decompresses to more than {MAX_DECOMPRESSED_BYTES} bytes")
    if not inflater.eof:
        raise PayloadDecodeError("record is not gzip: truncated member")
    if inflater.unused_data.lstrip(b"\x00"):
        raise PayloadDecodeError("record is not gzip: data after the member")
    return raw


def _content_length(headers: dict[str, str], layer: str) -> int:
    """The declared Content-Length; PayloadDecodeError unless a whole number >= 0."""
    try:
        declared = int(headers["content-length"])
    except ValueError as exc:
        raise PayloadDecodeError(f"bad {layer} Content-Length") from exc
    if declared < 0:
        raise PayloadDecodeError(f"bad {layer} Content-Length")
    return declared


def extract_payload(record: bytes) -> bytes:
    """Unwrap gzip member -> WARC record -> HTTP response -> body bytes.

    Only WARC "response" records carrying an HTTP 200 are accepted; anything
    else raises WarcRecordSkippedError.  Content-Length is honored when
    present and chunked transfer encoding is decoded.  Corrupt or truncated
    records raise PayloadDecodeError, and one decompressing to more than
    MAX_DECOMPRESSED_BYTES raises PayloadTooLargeError.

    The two layers are found by offsets into the inflated record, so the body
    is copied once, as the returned slice.
    """
    raw = _gunzip(record)

    warc_end = raw.find(b"\r\n\r\n")
    if warc_end < 0:
        raise PayloadDecodeError("missing WARC header terminator")
    warc_head = raw[:warc_end]
    if not warc_head.startswith(b"WARC/"):
        raise PayloadDecodeError("missing WARC version line")
    warc_headers = _parse_header_block(warc_head, "WARC")

    warc_type = warc_headers.get("warc-type", "")
    if warc_type.lower() != "response":
        raise WarcRecordSkippedError(f"warc record type {warc_type!r}")

    # The HTTP block is raw[http_start:http_end].
    http_start = warc_end + 4
    if "content-length" in warc_headers:
        declared = _content_length(warc_headers, "WARC")
        if len(raw) - http_start < declared:
            raise PayloadDecodeError("truncated WARC content")
        http_end = http_start + declared
    else:
        # The block without its trailing line breaks.  A block of nothing but
        # line breaks ends before it starts, so no header terminator is found
        # in it, as in an empty one.
        http_end = len(raw.rstrip(b"\r\n"))

    head_end = raw.find(b"\r\n\r\n", http_start, http_end)
    if head_end < 0:
        raise PayloadDecodeError("missing HTTP header terminator")
    http_head = raw[http_start:head_end]
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
    body_start = head_end + 4
    if "chunked" in http_headers.get("transfer-encoding", "").lower():
        return _dechunk(raw[body_start:http_end])
    if "content-length" in http_headers:
        declared = _content_length(http_headers, "HTTP")
        if http_end - body_start < declared:
            raise PayloadDecodeError("truncated HTTP body")
        http_end = body_start + declared
    return raw[body_start:http_end]
