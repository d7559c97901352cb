"""Fuzz the three parsers that read bytes from outside the program.

Whatever they are given, each either returns a value or raises one of its
documented error types; nothing else may escape and abort a run.
"""

import gzip
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest.gpx_model import GpxDocument, GpxParseError, parse_gpx
from gpx_harvest.index_scan import CandidateRecord, parse_index_line
from gpx_harvest.synthetic import gpx_xml, line_points, warc_response_member
from gpx_harvest.warc_fetch import PayloadDecodeError, WarcRecordSkippedError, extract_payload

_INDEX_PIECES = st.sampled_from([
    "{", "}", "[", "]", ":", ",", " ", '"url"', '"filename"', '"offset"', '"length"',
    '"mime"', '"mime-detected"', '"http://a.example/t.gpx"', '"crawl-data/CC-MAIN-2024-10/x"',
    '"12"', '"-1"', '"0x10"', "12", "-3", "1e999", "null", "true", '"\\ud800"', "1" * 5000,
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200),
                 st.lists(_INDEX_PIECES, max_size=40).map(lambda p: "k 20240101 " + "".join(p))))
def test_parse_index_line_returns_a_candidate_or_none(line):
    result = parse_index_line(line)
    assert result is None or isinstance(result, CandidateRecord)


_HEADER_LINES = st.sampled_from([
    b"WARC/1.0", b"WARC-Type: response", b"WARC-Type: revisit", b"Content-Length: 20",
    b"Content-Length: -1", b"Content-Length: x", b"HTTP/1.1 200 OK", b"HTTP/1.1 404 No",
    b"HTTP/1.1 abc", b"Transfer-Encoding: chunked", b"5", b"zz", b"0", b"", b"hello",
    b"<gpx></gpx>", b":", b"\xff\xfe",
])


@st.composite
def _mutated_member(draw):
    """A valid WARC member with a few of its bytes overwritten."""
    member = bytearray(warc_response_member("http://a.example/t.gpx",
                                            draw(st.binary(min_size=1, max_size=300))))
    for _ in range(draw(st.integers(1, 8))):
        member[draw(st.integers(0, len(member) - 1))] = draw(st.integers(0, 255))
    return bytes(member)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(gzip.compress),
    st.lists(_HEADER_LINES, max_size=20).map(lambda lines: gzip.compress(b"\r\n".join(lines))),
    _mutated_member(),
))
def test_extract_payload_returns_bytes_or_a_decode_error(member):
    try:
        assert isinstance(extract_payload(member), bytes)
    except (PayloadDecodeError, WarcRecordSkippedError):
        pass


_GPX_PIECES = st.sampled_from([
    "<gpx>", "</gpx>", '<gpx xmlns="http://www.topografix.com/GPX/1/1">', "<trk>", "</trk>",
    "<trkseg>", "</trkseg>", '<trkpt lat="50.1" lon="6.2">', '<trkpt lat="nan" lon="1e400">',
    '<trkpt lat="x">', "<trkpt/>", "</trkpt>", "<ele>12.5</ele>", "<ele>inf</ele>",
    "<ele>-</ele>", "<rte>", "</rte>", '<rtept lat="-91" lon="0"/>', "<desc>d</desc>",
    "<name> </name>", "<metadata><desc>m</desc></metadata>", "&amp;", "&bogus;", "<![CDATA[x]]>",
    "<?xml version='1.0' encoding='latin-1'?>", "\x00", "é",
])


@st.composite
def _mutated_gpx(draw):
    """A valid GPX document with a slice cut out or a few bytes overwritten."""
    payload = bytearray(gpx_xml([{"name": "t", "desc": "d",
                                  "segments": [line_points(50.0, 6.0, 5, 50.0, ele=1.0)]}]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    for _ in range(rng.randint(1, 6)):
        start = rng.randrange(len(payload))
        if rng.random() < 0.5:
            del payload[start:start + rng.randint(1, 20)]
        else:
            payload[start] = rng.randrange(256)
    return bytes(payload)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=300),
    st.lists(_GPX_PIECES, max_size=30).map(lambda p: "".join(p).encode("utf-8")),
    _mutated_gpx(),
))
def test_parse_gpx_returns_a_document_or_a_parse_error(payload):
    try:
        assert isinstance(parse_gpx(payload, "http://a.example/t.gpx"), GpxDocument)
    except GpxParseError:
        pass
