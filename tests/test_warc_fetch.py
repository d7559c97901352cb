import gzip
import random
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpx_harvest.index_scan import CandidateRecord
from gpx_harvest.synthetic import warc_response_member, write_warc
from gpx_harvest.warc_fetch import (FetchFailedError, FetchPolicy, FixtureTransport,
                                    PayloadDecodeError, RateLimiter, WarcRecordSkippedError,
                                    WarcSlice, build_range_header, extract_payload,
                                    fetch_candidate, fetch_many)


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
    assert len(result.record_bytes) == length
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
    with pytest.raises(FetchFailedError, match="short read: 24 of 50 bytes"):
        fetch_candidate(candidate(offset=1000, length=50), policy(max_retries=1),
                        transport)


def test_fetch_candidate_404_exhausts_retries():
    transport = ScriptedTransport([(404, b"")] * 3)
    with pytest.raises(FetchFailedError, match="404"):
        fetch_candidate(candidate(), policy(max_retries=3), transport, sleep=lambda s: None)
    assert len(transport.calls) == 3


def test_fetch_candidate_succeeds_on_third_attempt():
    transport = ScriptedTransport([OSError("boom"), (500, b""), (206, b"x")])
    result = fetch_candidate(candidate(length=1), policy(max_retries=3), transport,
                             sleep=lambda s: None)
    assert result.record_bytes == b"x"
    assert len(transport.calls) == 3


def test_fetch_candidate_short_read_fails():
    transport = ScriptedTransport([(206, b"ab")] * 3)
    with pytest.raises(FetchFailedError, match="short read"):
        fetch_candidate(candidate(length=5), policy(), transport, sleep=lambda s: None)


def test_fetch_candidate_slices_full_200_response():
    body = bytes(range(100))
    transport = ScriptedTransport([(200, body)])
    result = fetch_candidate(candidate(offset=10, length=4), policy(), transport)
    assert result.record_bytes == body[10:14]


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
    assert all(isinstance(r, WarcSlice) for _, r in results if not isinstance(r, FetchFailedError))


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
