import gzip
import itertools
import random
import threading
import time
import zlib
from typing import Iterator

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest import warc_fetch
from gpx_harvest.index_scan import CandidateRecord
from gpx_harvest.synthetic import build_demo_crawl, warc_response_member, write_warc
from gpx_harvest.warc_fetch import (FetchFailedError, FetchPolicy, FixtureTransport,
                                    HttpRangeTransport, PayloadDecodeError, PayloadError,
                                    PayloadTooLargeError, RateLimiter,
                                    WarcRecordSkippedError, build_range_header,
                                    extract_payload, fetch_candidate, fetch_many)


def candidate(offset=0, length=1, url="http://a.example/t.gpx",
              warc_file="crawl-data/CC-MAIN-2024-10/seg/warc/x.warc.gz"):
    return CandidateRecord(url=url, mime_detected="application/gpx+xml",
                           warc_file=warc_file, warc_offset=offset, warc_len=length,
                           crawl_id="CC-MAIN-2024-10")


def policy(**kwargs):
    defaults = dict(max_retries=3, backoff_base_s=0.0, max_parallel=4,
                    rate_limit_per_s=10_000.0, base_url="https://data.example")
    defaults.update(kwargs)
    return FetchPolicy(**defaults)


# --- range header -----------------------------------------------------------

def test_build_range_header_exact():
    assert build_range_header(3215, 1091) == "bytes=3215-4305"


def test_build_range_header_single_byte():
    assert build_range_header(0, 1) == "bytes=0-0"


def test_build_range_header_rejects_empty_range():
    with pytest.raises(ValueError):
        build_range_header(10, 0)
    with pytest.raises(ValueError):
        build_range_header(-1, 5)


@given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=1, max_value=2**32))
def test_range_header_spans_exactly_length_bytes(offset, length):
    header = build_range_header(offset, length)
    start, end = map(int, header.removeprefix("bytes=").split("-"))
    assert end - start + 1 == length
    assert start == offset


# --- transports and fetch_candidate ------------------------------------------

class ScriptedTransport:
    """Replays a list of responses; each item is (status, body) or an Exception."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def get_range(self, url, offset, length):
        self.calls.append((url, offset, length))
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def test_fetch_candidate_over_fixture_transport(tmp_path):
    payload = b"<gpx>" + bytes(range(256)) * 4 + b"</gpx>"
    ranges = write_warc(tmp_path / "crawl-data/CC-MAIN-2024-10/seg/warc/x.warc.gz",
                        [("http://a.example/t.gpx", payload)])
    offset, length = ranges[0]
    cand = candidate(offset=offset, length=length)

    result = fetch_candidate(cand, policy(), FixtureTransport(tmp_path))
    assert len(result) == length
    assert extract_payload(result) == payload


def test_fixture_transport_reads_only_the_range(tmp_path):
    data = bytes(range(256)) * 4
    warc = tmp_path / "crawl-data/CC-MAIN-2024-10/seg/warc/x.warc.gz"
    warc.parent.mkdir(parents=True)
    warc.write_bytes(data)
    transport = FixtureTransport(tmp_path)
    url = "https://data.example/crawl-data/CC-MAIN-2024-10/seg/warc/x.warc.gz"
    assert transport.get_range(url, 300, 17) == (206, data[300:317])
    assert transport.get_range(url, 1000, 50) == (206, data[1000:])  # short at EOF
    assert transport.get_range(url, 5000, 10) == (206, b"")
    assert transport.get_range(url.replace("x.warc", "y.warc"), 0, 5) == (404, b"")
    assert transport.get_range("https://data.example/crawl-data/CC-MAIN-2024-10/seg/warc/"
                               "../../../../crawl-data/CC-MAIN-2024-10/seg/warc/x.warc.gz",
                               300, 17) == (206, data[300:317])
    with pytest.raises(FetchFailedError, match="short read: 24 of 50 bytes"):
        fetch_candidate(candidate(offset=1000, length=50), policy(max_retries=1),
                        transport)


@pytest.mark.parametrize("warc_file", ["../outside.bin", "crawl-data/../../outside.bin",
                                       "crawl-data/seg/../../../outside.bin"])
def test_fixture_transport_refuses_paths_outside_its_root(tmp_path, warc_file):
    (tmp_path / "outside.bin").write_bytes(b"secret bytes")
    root = tmp_path / "fixtures"
    (root / "crawl-data").mkdir(parents=True)
    escaping = candidate(offset=0, length=6, warc_file=warc_file)
    with pytest.raises(FetchFailedError, match="http status 404"):
        fetch_candidate(escaping, policy(max_retries=1), FixtureTransport(root))


class RangeResponse:
    status_code = 206
    content = b"abcde"


class FakeSession:
    """Stands in for ``requests.Session``: records each instance and GET."""

    built = []

    def __init__(self):
        self.calls = []
        self.closed = False
        FakeSession.built.append(self)

    def get(self, url, headers=None, timeout=None):
        self.calls.append((url, headers, timeout))
        return RangeResponse()

    def close(self):
        self.closed = True


def test_http_range_transport_uses_a_requests_session_when_built(monkeypatch):
    monkeypatch.setattr(FakeSession, "built", [])
    monkeypatch.setattr(requests, "Session", FakeSession)
    transport = HttpRangeTransport(timeout_s=7.5)
    assert transport.get_range("https://data.example/x.warc.gz", 10, 5) == (206, b"abcde")
    [session] = FakeSession.built
    assert session.calls == [("https://data.example/x.warc.gz", {"Range": "bytes=10-14"}, 7.5)]


def test_http_range_transport_keeps_one_session_per_thread(monkeypatch):
    monkeypatch.setattr(FakeSession, "built", [])
    monkeypatch.setattr(requests, "Session", FakeSession)
    transport = HttpRangeTransport()
    url = "https://data.example/x.warc.gz"
    for offset in (0, 10, 20):
        assert transport.get_range(url, offset, 5) == (206, b"abcde")
    assert [len(s.calls) for s in FakeSession.built] == [3]

    other = threading.Thread(target=transport.get_range, args=(url, 30, 5))
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()
    transport.get_range(url, 40, 5)
    assert [len(s.calls) for s in FakeSession.built] == [4, 1]

    transport.close()
    assert [s.closed for s in FakeSession.built] == [True, True]
    transport.get_range(url, 50, 5)  # a range after close builds a fresh session
    assert [len(s.calls) for s in FakeSession.built] == [4, 1, 1]

    calls = []
    injected = HttpRangeTransport(get=lambda *args, **kwargs: calls.append(args) or RangeResponse())
    assert injected.get_range(url, 0, 5) == (206, b"abcde")
    assert calls == [(url,)]


def test_fetch_candidate_404_exhausts_retries():
    transport = ScriptedTransport([(404, b"")] * 3)
    with pytest.raises(FetchFailedError, match="404"):
        fetch_candidate(candidate(), policy(max_retries=3), transport, sleep=lambda s: None)
    assert len(transport.calls) == 3


def test_fetch_candidate_succeeds_on_third_attempt():
    transport = ScriptedTransport([OSError("boom"), (500, b""), (206, b"x")])
    result = fetch_candidate(candidate(length=1), policy(max_retries=3), transport,
                             sleep=lambda s: None)
    assert result == b"x"
    assert len(transport.calls) == 3


def test_fetch_candidate_short_read_fails():
    transport = ScriptedTransport([(206, b"ab")] * 3)
    with pytest.raises(FetchFailedError, match="short read"):
        fetch_candidate(candidate(length=5), policy(), transport, sleep=lambda s: None)


def test_fetch_candidate_slices_full_200_response():
    body = bytes(range(100))
    transport = ScriptedTransport([(200, body)])
    result = fetch_candidate(candidate(offset=10, length=4), policy(), transport)
    assert result == body[10:14]


def test_fetch_candidate_backoff_doubles():
    sleeps = []
    transport = ScriptedTransport([(500, b"")] * 4)
    with pytest.raises(FetchFailedError):
        fetch_candidate(candidate(), policy(max_retries=4, backoff_base_s=1.0),
                        transport, sleep=sleeps.append)
    assert sleeps == [1.0, 2.0, 4.0]


def test_fetch_candidate_builds_url_from_base():
    transport = ScriptedTransport([(206, b"x")])
    fetch_candidate(candidate(length=1), policy(base_url="https://data.example/"), transport)
    url, offset, length = transport.calls[0]
    assert url == "https://data.example/crawl-data/CC-MAIN-2024-10/seg/warc/x.warc.gz"
    assert (offset, length) == (0, 1)


# --- fetch_many ------------------------------------------------------------------

class InstrumentedTransport:
    def __init__(self, delay=0.005):
        self.delay = delay
        self.in_flight = 0
        self.max_in_flight = 0
        self.lock = threading.Lock()

    def get_range(self, url, offset, length):
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.delay)
        with self.lock:
            self.in_flight -= 1
        return 206, b"z" * length


def test_fetch_many_respects_parallel_cap():
    candidates = [candidate(offset=i, length=1, url=f"http://a.example/{i}.gpx")
                  for i in range(20)]
    transport = InstrumentedTransport()
    results = list(fetch_many(candidates, policy(max_parallel=3), transport))
    assert len(results) == 20
    assert transport.max_in_flight <= 3


def test_fetch_many_preserves_candidate_order_and_reports_failures():
    candidates = [candidate(offset=i, length=1, url=f"http://a.example/{i}.gpx")
                  for i in range(5)]

    class FlakyTransport:
        def get_range(self, url, offset, length):
            if offset == 2:
                return 404, b""
            return 206, b"x"

    results = list(fetch_many(candidates, policy(), FlakyTransport()))
    assert [c.warc_offset for c, _ in results] == [0, 1, 2, 3, 4]
    assert isinstance(results[2][1], FetchFailedError)
    assert [r for c, r in results if c.warc_offset != 2] == [b"x"] * 4


class BlockingTransport:
    """Holds the fetch at offset 0 until ``release`` is set; counts fetches started."""

    def __init__(self):
        self.release = threading.Event()
        self.started = 0
        self.lock = threading.Lock()

    def get_range(self, url, offset, length):
        with self.lock:
            self.started += 1
        if offset == 0:
            self.release.wait(10)
        return 206, bytes([offset]) * length


def test_fetch_many_keeps_a_bounded_number_of_fetches_ahead_of_its_consumer():
    ahead = warc_fetch.FETCHES_AHEAD_PER_WORKER * 2
    candidates = [candidate(offset=i, length=1, url=f"http://a.example/{i}.gpx")
                  for i in range(30)]
    transport = BlockingTransport()
    received = []
    unconsumed = []  # fetches started but not yet handed over, at each hand-over

    def consume():
        for item in fetch_many(candidates, policy(max_parallel=2), transport):
            with transport.lock:
                unconsumed.append(transport.started - len(received))
            received.append(item)

    consumer = threading.Thread(target=consume)
    consumer.start()
    try:
        # The consumer waits on the first fetch while the pool serves every
        # other fetch it has been given.
        deadline = time.monotonic() + 5
        while transport.started < ahead and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)
        stalled = transport.started
    finally:
        transport.release.set()
        consumer.join(10)
    assert stalled == ahead
    assert max(unconsumed) <= ahead
    assert [(c.warc_offset, r) for c, r in received] == [
        (i, bytes([i])) for i in range(30)]


def test_rate_limiter_spaces_acquisitions():
    clock_value = [0.0]
    sleeps = []

    def clock():
        return clock_value[0]

    def sleep(seconds):
        sleeps.append(seconds)
        clock_value[0] += seconds

    limiter = RateLimiter(4.0, clock=clock, sleep=sleep)
    for _ in range(5):
        limiter.acquire()
    # first call free, each subsequent call waits 0.25 s
    assert sleeps == pytest.approx([0.25, 0.25, 0.25, 0.25])


# --- extract_payload ---------------------------------------------------------------

def test_extract_payload_roundtrip_fixture():
    payload = b"<gpx version=\"1.1\"></gpx>" + b"\x00\x01\x02" * 129
    member = warc_response_member("http://a.example/t.gpx", payload)
    assert extract_payload(member) == payload


def test_extract_payload_roundtrip_random_payloads():
    rng = random.Random(20240210)
    for _ in range(50):
        payload = rng.randbytes(rng.randrange(1, 5000))
        member = warc_response_member("http://a.example/t.gpx", payload)
        assert extract_payload(member) == payload


def test_extract_payload_skips_non_response_record():
    member = warc_response_member("http://a.example/t.gpx", b"x", warc_type="revisit")
    with pytest.raises(WarcRecordSkippedError, match="revisit"):
        extract_payload(member)


def test_extract_payload_skips_non_200_status():
    member = warc_response_member("http://a.example/t.gpx", b"x", http_status="301 Moved")
    with pytest.raises(WarcRecordSkippedError, match="301"):
        extract_payload(member)


def test_extract_payload_rejects_not_gzip():
    with pytest.raises(PayloadDecodeError, match="not gzip"):
        extract_payload(b"plainly not gzip")


def test_extract_payload_rejects_truncated_body():
    http = (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort")
    warc = (b"WARC/1.0\r\nWARC-Type: response\r\n"
            + f"Content-Length: {len(http)}\r\n\r\n".encode() + http)
    with pytest.raises(PayloadDecodeError, match="truncated"):
        extract_payload(gzip.compress(warc))


@pytest.mark.parametrize("layer, warc_length, http_length", [
    ("WARC", "1e3", "3"),
    ("WARC", "-3", "3"),
    ("HTTP", None, "-3"),
], ids=["warc-non-integer", "warc-negative", "http-negative"])
def test_extract_payload_rejects_bad_content_length(layer, warc_length, http_length):
    body = b"<gpx>abc</gpx>"
    http = f"HTTP/1.1 200 OK\r\nContent-Length: {http_length}\r\n\r\n".encode() + body
    warc = (b"WARC/1.0\r\nWARC-Type: response\r\n"
            + f"Content-Length: {warc_length or len(http)}\r\n\r\n".encode() + http)
    with pytest.raises(PayloadDecodeError, match=f"bad {layer} Content-Length"):
        extract_payload(gzip.compress(warc))


def test_extract_payload_dechunks_transfer_encoding():
    body = b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"
    http = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + body
    warc = (b"WARC/1.0\r\nWARC-Type: response\r\n"
            + f"Content-Length: {len(http)}\r\n\r\n".encode() + http)
    assert extract_payload(gzip.compress(warc)) == b"Wikipedia"


def test_extract_payload_honors_content_length_over_trailing_bytes():
    payload = b"exact payload"
    member = warc_response_member("http://a.example/t.gpx", payload)
    # the member carries the WARC record terminator after the body
    assert extract_payload(member) == payload
    assert not extract_payload(member).endswith(b"\r\n")


def test_extract_payload_caps_the_decompressed_size(monkeypatch):
    payload = b"<gpx>" + b"\x00" * 10_000 + b"</gpx>"  # deflates to a few dozen bytes
    member = warc_response_member("http://a.example/t.gpx", payload)
    size = len(gzip.decompress(member))
    monkeypatch.setattr(warc_fetch, "MAX_DECOMPRESSED_BYTES", size)
    assert extract_payload(member) == payload
    monkeypatch.setattr(warc_fetch, "MAX_DECOMPRESSED_BYTES", size - 1)
    with pytest.raises(PayloadTooLargeError, match=f"more than {size - 1} bytes"):
        extract_payload(member)


@pytest.mark.parametrize("member, reason", [
    (gzip.compress(b"WARC/1.0") + b"\x00\x00", "missing WARC header terminator"),
    (gzip.compress(b"WARC/1.0")[:-3], "truncated member"),
    (gzip.compress(b"WARC/1.0") + b"junk", "data after the member"),
    (gzip.compress(b"WARC/1.0") + gzip.compress(b"\r\n\r\n"), "data after the member"),
], ids=["zero-padding", "truncated", "trailing-junk", "second-member"])
def test_extract_payload_unwraps_exactly_one_gzip_member(member, reason):
    # Zero padding is skipped, so that record fails only on its WARC header.
    with pytest.raises(PayloadDecodeError, match=reason):
        extract_payload(member)


def _dechunk_reference(body: bytes) -> bytes:
    """The former ``_dechunk``, which copied the rest of the body per chunk."""
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


@st.composite
def _chunked_bodies(draw):
    """Chunked bodies, well-formed or damaged: wrong sizes, odd size lines,
    missing terminators, cut short."""
    body = b""
    for data in draw(st.lists(st.binary(max_size=20), max_size=6)) + [b""]:
        size_line = draw(st.one_of(
            st.just(b"%x" % len(data)),
            st.just(b"%X; ext=1" % len(data)),
            st.just(b" 0%x " % len(data)),
            st.integers(0, 40).map(lambda n: b"%x" % n),
            st.sampled_from([b"", b"zz", b"0x1", b"1_0", b"+2", b"-2", b";", b"\r"]),
        ))
        terminator = draw(st.sampled_from([b"\r\n", b"\r\n", b"\n", b""]))
        body += size_line + b"\r\n" + data + terminator
    return body[:draw(st.integers(0, len(body)))] if draw(st.booleans()) else body


def _outcome(decode, body):
    try:
        return decode(body)
    except Exception as exc:  # the type is what is compared
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_chunked_bodies(), st.binary(max_size=200)))
def test_dechunk_matches_the_former_implementation(body):
    if _outcome(warc_fetch._dechunk, body) != _outcome(_dechunk_reference, body):
        # The former one read a negative size ("-5") backwards from the end of
        # the body; that, and only that, is now a bad chunk size line.
        with pytest.raises(PayloadDecodeError, match=r"bad chunk size line b'\s*-"):
            warc_fetch._dechunk(body)


def test_dechunk_rejects_a_negative_chunk_size():
    body = b"-5\r\nabcde\r\n0\r\n"
    assert _dechunk_reference(body) == b"abcde"
    with pytest.raises(PayloadDecodeError, match="bad chunk size line"):
        warc_fetch._dechunk(body)


def _extract_payload_reference(record: bytes) -> bytes:
    """The former ``extract_payload``, which copied the record's content at
    each ``partition`` and ``[:declared]``."""
    raw = warc_fetch._gunzip(record)

    warc_head, sep, warc_content = raw.partition(b"\r\n\r\n")
    if not sep:
        raise PayloadDecodeError("missing WARC header terminator")
    if not warc_head.startswith(b"WARC/"):
        raise PayloadDecodeError("missing WARC version line")
    warc_headers = warc_fetch._parse_header_block(warc_head, "WARC")

    warc_type = warc_headers.get("warc-type", "")
    if warc_type.lower() != "response":
        raise WarcRecordSkippedError(f"warc record type {warc_type!r}")

    if "content-length" in warc_headers:
        declared = warc_fetch._content_length(warc_headers, "WARC")
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

    http_headers = warc_fetch._parse_header_block(http_head, "HTTP")
    if "chunked" in http_headers.get("transfer-encoding", "").lower():
        return warc_fetch._dechunk(body)
    if "content-length" in http_headers:
        declared = warc_fetch._content_length(http_headers, "HTTP")
        if len(body) < declared:
            raise PayloadDecodeError("truncated HTTP body")
        return body[:declared]
    return body


def _members(warc: bytes) -> list[bytes]:
    """The gzip members a WARC file is a concatenation of."""
    members = []
    while warc:
        inflater = zlib.decompressobj(31)
        inflater.decompress(warc)
        members.append(warc[:len(warc) - len(inflater.unused_data)])
        warc = inflater.unused_data
    return members


@pytest.fixture(scope="module")
def fixture_members(tmp_path_factory):
    crawl = build_demo_crawl(tmp_path_factory.mktemp("crawl"))
    return [member for path in sorted(crawl.warc_dir.rglob("*.warc.gz"))
            for member in _members(path.read_bytes())]


def _record(body: bytes, warc_length="exact", http_status=b"200 OK", http_framing="exact",
            trailer=b"\r\n\r\n", http_terminator=b"\r\n\r\n") -> bytes:
    """The inflated WARC record of an HTTP response carrying ``body``.

    A Content-Length of "exact" is the true one, "short" and "long" are off
    by a few bytes, None leaves the header out, and any other value is
    written as it is; ``http_framing`` may also be "chunked"."""
    def length(value, actual):
        return {"exact": b"%d" % actual, "short": b"%d" % max(actual - 3, 0),
                "long": b"%d" % (actual + 5)}.get(value, value)

    http_head = b"HTTP/1.1 " + http_status + b"\r\nContent-Type: application/gpx+xml"
    if http_framing == "chunked":
        http_head += b"\r\nTransfer-Encoding: chunked"
        half = len(body) // 2
        body = b"%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n" % (half, body[:half],
                                                      len(body) - half, body[half:])
    elif http_framing is not None:
        http_head += b"\r\nContent-Length: " + length(http_framing, len(body))
    http = http_head + http_terminator + body
    warc_head = b"WARC/1.0\r\nWARC-Type: response\r\nWARC-Target-URI: http://a.example/t.gpx"
    if warc_length is not None:
        warc_head += b"\r\nContent-Length: " + length(warc_length, len(http))
    return warc_head + b"\r\n\r\n" + http + trailer


def _hostile_members(body: bytes) -> Iterator[tuple[str, bytes]]:
    """(what it is, gzip member) for records carrying ``body``: every pairing
    of a WARC and an HTTP framing, good or bad, and a few other faults."""
    def member(raw, after=b""):
        return gzip.compress(raw, mtime=0) + after

    framings = ["exact", "short", "long", None, b"1e3", b"-3", b"abc", b" 7 "]
    for warc_length, http_framing, trailer in itertools.product(
            framings, framings + ["chunked"], [b"\r\n\r\n", b"", b"\n\r\n"]):
        yield (f"WARC {warc_length!r}, HTTP {http_framing!r}, trailer {trailer!r}",
               member(_record(body, warc_length, http_framing=http_framing, trailer=trailer)))
    broken_chunks = _record(body, http_framing="chunked").replace(b"\r\n0\r\n", b"\r\nzz\r\n")
    yield "bad chunk size", member(broken_chunks)
    for warc_length in ("exact", None):
        yield (f"no HTTP header terminator, WARC {warc_length!r}",
               member(_record(body, warc_length, http_terminator=b"\r\n")))
        for status in (b"404 Not Found", b"301", b"2OO OK", b""):
            yield (f"status {status!r}, WARC {warc_length!r}",
                   member(_record(body, warc_length, http_status=status)))
        yield (f"only line breaks after the WARC header, WARC {warc_length!r}",
               member(b"WARC/1.0\r\nWARC-Type: response\r\n"
                      + (b"Content-Length: 6\r\n" if warc_length else b"") + b"\r\n\r\n\r\n\n\r\n"))
    yield "no WARC header terminator", member(b"WARC/1.0\r\nWARC-Type: response\r\n" + body)
    for after in (b"junk", b"\0" * 9, gzip.compress(b"\r\n\r\n")):
        yield f"data after the member: {after[:4]!r}", member(_record(body), after)
    yield "truncated member", member(_record(body))[:-5]


def _unwrapped(extract, record: bytes):
    """The payload ``extract`` returns, or the type and text of its error."""
    try:
        return extract(record)
    except PayloadError as exc:
        return type(exc), str(exc)


def test_extract_payload_matches_the_former_implementation(fixture_members):
    assert len(fixture_members) == 6
    outcomes = []
    for fixture in fixture_members:
        body = _extract_payload_reference(fixture)
        assert extract_payload(fixture) == body
        for what, member in _hostile_members(body):
            outcome = _unwrapped(extract_payload, member)
            assert outcome == _unwrapped(_extract_payload_reference, member), what
            outcomes.append(outcome)
    # The variants reach every branch: bodies, and each kind of refusal.
    assert body in outcomes
    messages = {outcome[1] for outcome in outcomes if isinstance(outcome, tuple)}
    for message in ["truncated WARC content", "truncated HTTP body",
                    "bad WARC Content-Length", "bad HTTP Content-Length",
                    "missing WARC header terminator", "missing HTTP header terminator",
                    "http status 404", "bad chunk size line b'zz'",
                    "record is not gzip: data after the member",
                    "record is not gzip: truncated member"]:
        assert message in messages
    assert any(message.startswith("bad HTTP status line") for message in messages)
