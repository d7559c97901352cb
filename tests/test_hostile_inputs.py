"""Fuzz the three parsers that read bytes from outside the program.

Whatever they are given, each either returns a value or raises one of its
documented error types; nothing else may escape and abort a run.
"""

import gzip
import io
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest import gpx_model
from gpx_harvest.gpx_model import GpxDocument, GpxParseError, ParseStats, parse_gpx
from gpx_harvest.index_scan import CandidateRecord, parse_index_line
from gpx_harvest.pipeline import _write_rows
from gpx_harvest.synthetic import gpx_xml, line_points, warc_response_member
from gpx_harvest.warc_fetch import PayloadDecodeError, WarcRecordSkippedError, extract_payload

_INDEX_PIECES = st.sampled_from([
    "{", "}", "[", "]", ":", ",", " ", '"url"', '"filename"', '"offset"', '"length"',
    '"mime"', '"mime-detected"', '"http://a.example/t.gpx"', '"crawl-data/CC-MAIN-2024-10/x"',
    '"12"', '"-1"', '"0x10"', "12", "-3", "1e999", "null", "true", '"\\ud800"', "1" * 5000,
])

# Payloads that hold the four fields a candidate needs, each as JSON text:
# lines that mostly parse, with hostile values where they can hurt the writer.
_INDEX_NUMBERS = st.sampled_from([
    "12", '"12"', "0", '"-1"', "12.0", "1e999", str(2 ** 63 - 1), str(2 ** 63), f'"{2 ** 63}"',
    str(2 ** 64), '"1000000000000000000000000000000"',
])
_INDEX_PAYLOADS = st.fixed_dictionaries({
    "url": st.sampled_from(['"http://a.example/t.gpx"', '"http://a.example/\\ud800.gpx"',
                            '"http://a.example/\\u00e9\\u0000.gpx"', "5"]),
    "filename": st.sampled_from(['"crawl-data/CC-MAIN-2024-10/x"', '"\\udfff"', "[1]", "1.5"]),
    "offset": _INDEX_NUMBERS,
    "length": st.sampled_from(["12", '"12"', "0", "1e999"]),
}, optional={
    "mime": st.sampled_from(['"application/gpx+xml"', '"\\ud83d"', "{}"]),
    "status": st.sampled_from(["200", "NaN", "-Infinity", "1e999"]),
}).map(lambda fields: "k 20240101 {" + ", ".join(f'"{name}": {value}'
                                                for name, value in fields.items()) + "}")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200),
                 st.lists(_INDEX_PIECES, max_size=40).map(lambda p: "k 20240101 " + "".join(p)),
                 _INDEX_PAYLOADS))
def test_parse_index_line_returns_a_candidate_or_none(line):
    result = parse_index_line(line)
    assert result is None or isinstance(result, CandidateRecord)
    if result is not None:  # and index can write every candidate it finds
        _write_rows(io.BytesIO(), [result.__dict__], "index")


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
    # Pieces of the point blocks that parse_gpx reads without ElementTree.
    '<?xml version="1.0" encoding="UTF-8"?>', "\n", '<trkpt lat="-0" lon="1E400">',
    '<trkpt lat="01.5" lon="7">', "<time>2024-03-01T09:00:00Z</time>", "<ele>-0</ele>",
    '<trkseg><trkpt lat="50.1" lon="6.2"><ele>12.5</ele></trkpt></trkseg>',
    '<trkseg gpx-harvest-block="0"></trkseg>', "<?pi x?>",
])


@st.composite
def _mutated_gpx(draw):
    """A valid GPX document with a slice cut out or a few bytes overwritten.
    ``gpx_xml`` writes its segments as the point blocks that parse_gpx reads
    without ElementTree."""
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


_GPX_PAYLOADS = st.one_of(
    st.binary(max_size=300),
    st.lists(_GPX_PIECES, max_size=30).map(lambda p: "".join(p).encode("utf-8")),
    _mutated_gpx(),
)


@settings(max_examples=300, deadline=None)
@given(_GPX_PAYLOADS)
def test_parse_gpx_returns_a_document_or_a_parse_error(payload):
    try:
        assert isinstance(parse_gpx(payload), GpxDocument)
    except GpxParseError:
        pass


def _outcome(payload):
    """The tracks and stats parse_gpx reads from ``payload``, or its error text."""
    stats = ParseStats()
    try:
        doc = parse_gpx(payload, stats)
    except GpxParseError as exc:
        return str(exc)
    return [(track.lat.tobytes(), track.lon.tobytes(), track.ele.tobytes(),
             track.segment_lengths, track.desc) for track in doc.tracks], vars(stats)


@settings(max_examples=300, deadline=None)
@given(_GPX_PAYLOADS)
def test_parse_gpx_reads_damaged_payloads_the_same_without_the_point_block_scan(payload):
    scanned = _outcome(payload)
    with mock.patch.object(gpx_model, "_scan_blocks", return_value=None):
        assert _outcome(payload) == scanned
