import codecs
import math
import random
import re
import struct
from fractions import Fraction
from unittest import mock
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest import gpx_model
from gpx_harvest.gpx_model import (GpxParseError, ParseStats, Track, extract_single_track,
                                   parse_gpx)
from gpx_harvest.synthetic import gpx_xml, line_points


def test_parse_minimal_document_preserves_desc():
    payload = gpx_xml([{"name": "Morning run", "desc": "Two laps\naround the park",
                        "segments": [[(51.0, -0.5, 12.0, "2024-01-01T10:00:00Z"),
                                      (51.001, -0.5, 13.0, None)]]}])
    doc = parse_gpx(payload)
    assert len(doc.tracks) == 1
    track = doc.tracks[0]
    assert track.desc == "Two laps\naround the park"  # verbatim, cleaning happens later
    assert track.point_count() == 2
    assert track.segment_lengths == [2]
    assert (track.lat[0], track.lon[0], track.ele[0]) == (51.0, -0.5, 12.0)


def test_parse_rejects_html():
    with pytest.raises(GpxParseError):
        parse_gpx(b"<html>404 not found</html>")
    with pytest.raises(GpxParseError):
        parse_gpx(b"\x00\x01 not xml at all")


@pytest.mark.parametrize("encoding", ["UT7-8", "rot13", "utf-32", "idna", "punycode"])
def test_parse_rejects_an_encoding_expat_cannot_read(encoding):
    payload = f'<?xml version="1.0" encoding="{encoding}"?><gpx>\xe9</gpx>'.encode("latin-1")
    with pytest.raises(GpxParseError, match="not parseable XML"):
        parse_gpx(payload)


def test_parse_counts_two_tracks():
    payload = gpx_xml([{"segments": [[(50.0, 6.0)]]}, {"segments": [[(50.1, 6.1)]]}])
    assert len(parse_gpx(payload).tracks) == 2


@pytest.mark.parametrize("version,namespace", [("1.0", True), ("1.1", True), ("1.1", False)])
def test_parse_accepts_gpx_versions_and_no_namespace(version, namespace):
    payload = gpx_xml([{"segments": [[(50.0, 6.0, 100.0), (50.001, 6.0, 101.0)]]}],
                      version=version, namespace=namespace)
    doc = parse_gpx(payload)
    assert doc.tracks[0].point_count() == 2


def test_parse_drops_invalid_points_and_counts():
    payload = (b'<?xml version="1.0"?><gpx version="1.1">'
               b'<trk><trkseg>'
               + b"".join(f'<trkpt lat="50.{i:03d}" lon="6.0"></trkpt>'.encode()
                          for i in range(300))
               + b'<trkpt lat="91.0" lon="6.0"></trkpt>'
               b'<trkpt lat="nonsense" lon="6.0"></trkpt>'
               b'</trkseg></trk></gpx>')
    stats = ParseStats()
    doc = parse_gpx(payload, stats)
    assert stats.points_dropped == 2
    # 2 bad out of 302 is under the 1% cutoff: track survives with 300 points
    assert doc.tracks[0].point_count() == 300


def test_parse_drops_track_losing_over_one_percent():
    payload = (b'<?xml version="1.0"?><gpx version="1.1">'
               b'<trk><trkseg>'
               + b"".join(f'<trkpt lat="50.{i:03d}" lon="6.0"></trkpt>'.encode()
                          for i in range(50))
               + b'<trkpt lat="99.0" lon="6.0"></trkpt>'
               b'<trkpt lat="-95.0" lon="6.0"></trkpt>'
               b'</trkseg></trk></gpx>')
    stats = ParseStats()
    doc = parse_gpx(payload, stats)
    assert doc.tracks == []
    assert stats.tracks_dropped == 1


def test_parse_metadata_desc_fallback():
    payload = gpx_xml([{"segments": [[(50.0, 6.0)]]}], metadata_desc="From metadata")
    assert parse_gpx(payload).tracks[0].desc == "From metadata"

    payload = gpx_xml([{"desc": "Track-level wins", "segments": [[(50.0, 6.0)]]}],
                      metadata_desc="From metadata")
    assert parse_gpx(payload).tracks[0].desc == "Track-level wins"


def test_parse_route_becomes_single_segment_track():
    payload = (b'<?xml version="1.0"?>'
               b'<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1">'
               b'<rte><name>Planned ride</name><desc>Signed route</desc>'
               b'<rtept lat="50.0" lon="6.0"><ele>120</ele></rtept>'
               b'<rtept lat="50.01" lon="6.0"><ele>130</ele></rtept>'
               b'</rte></gpx>')
    doc = parse_gpx(payload)
    assert len(doc.tracks) == 1
    track = doc.tracks[0]
    assert track.desc == "Signed route"
    assert track.segment_lengths == [2]
    assert track.point_count() == 2


def test_parse_ignores_extensions_and_waypoints():
    payload = (b'<?xml version="1.0"?>'
               b'<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1" '
               b'xmlns:x="http://vendor.example/x">'
               b'<wpt lat="1.0" lon="1.0"><name>cafe</name></wpt>'
               b'<trk><trkseg><trkpt lat="50.0" lon="6.0">'
               b'<x:speed>4.2</x:speed></trkpt></trkseg></trk></gpx>')
    doc = parse_gpx(payload)
    assert len(doc.tracks) == 1
    assert doc.tracks[0].point_count() == 1


def test_parse_tolerates_bad_ele_and_time():
    payload = (b'<?xml version="1.0"?><gpx version="1.1"><trk><trkseg>'
               b'<trkpt lat="50.0" lon="6.0"><ele>n/a</ele><time>yesterday</time></trkpt>'
               b'</trkseg></trk></gpx>')
    track = parse_gpx(payload).tracks[0]
    assert math.isnan(track.ele[0])


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-Infinity", "1e400"])
def test_parse_treats_non_finite_ele_as_missing(text):
    payload = gpx_xml([{"segments": [[(50.0, 6.0, text), (50.001, 6.0, 120.5)]]}])
    track = parse_gpx(payload).tracks[0]
    assert track.point_count() == 2
    assert math.isnan(track.ele[0])  # no elevation: the track goes to the DEM
    assert track.ele[1] == 120.5


def test_track_arrays_must_match():
    track = Track(lat=[50.0, 50.1], lon=[6.0, 6.1])
    assert track.lat.dtype == track.ele.dtype == np.float64
    assert np.isnan(track.ele).all() and track.point_count() == 2
    with pytest.raises(ValueError):
        Track(lat=[50.0, 50.1], lon=[6.0])
    with pytest.raises(ValueError):
        Track(lat=[50.0], lon=[6.0], ele=[1.0, 2.0])
    with pytest.raises(ValueError):
        Track(lat=[[50.0], [50.1]], lon=[[6.0], [6.1]], ele=[[1.0], [2.0]])
    with pytest.raises(ValueError):
        Track(lat=50.0, lon=6.0, ele=1.0)


@pytest.mark.parametrize("lengths", [[3, 0], [4, -1], [0, 3], [2], [2, 2], []])
def test_track_segment_lengths_must_be_positive_and_sum_to_the_points(lengths):
    with pytest.raises(ValueError):
        Track(lat=[50.0, 50.1, 50.2], lon=[6.0, 6.1, 6.2], segment_lengths=lengths)


def test_an_omitted_segment_lengths_makes_one_segment():
    assert Track(lat=[50.0, 50.1, 50.2], lon=[6.0, 6.1, 6.2]).segment_lengths == [3]
    assert Track(lat=[], lon=[]).segment_lengths == []
    assert Track(lat=[50.0, 50.1, 50.2], lon=[6.0, 6.1, 6.2],
                 segment_lengths=[1, 2]).segment_lengths == [1, 2]


# --- extract_single_track ------------------------------------------------------

def test_extract_single_track_identity():
    doc = parse_gpx(gpx_xml([{"segments": [[(50.0, 6.0), (50.1, 6.0)]]}]))
    track, reason = extract_single_track(doc)
    assert reason is None
    assert track.point_count() == 2


def test_extract_single_track_rejects_multi_track():
    doc = parse_gpx(gpx_xml([{"segments": [[(50.0, 6.0)]]},
                             {"segments": [[(51.0, 6.0)]]}]))
    assert extract_single_track(doc) == (None, "multi-track")


def test_extract_single_track_ignores_empty_second_track():
    doc = parse_gpx(gpx_xml([{"desc": "real", "segments": [[(50.0, 6.0)]]},
                             {"desc": "empty", "segments": [[]]}]))
    track, reason = extract_single_track(doc)
    assert reason is None and track.desc == "real"


def test_extract_single_track_rejects_zero_tracks():
    doc = parse_gpx(gpx_xml([]))
    assert extract_single_track(doc) == (None, "no-track")


def test_extract_single_track_drops_empty_segments():
    doc = parse_gpx(gpx_xml([{"segments": [[], [(50.0, 6.0), (50.1, 6.0)], []]}]))
    track, _ = extract_single_track(doc)
    assert track.segment_lengths == [2]


# --- geometry round-trip -----------------------------------------------------------

def segment_points(track):
    """Per segment, its (lat, lon, ele) tuples, None where there is no elevation."""
    points = [(lat, lon, None if math.isnan(ele) else ele)
              for lat, lon, ele in zip(track.lat.tolist(), track.lon.tolist(),
                                       track.ele.tolist())]
    ends = np.cumsum(track.segment_lengths).tolist()
    return [points[end - length:end] for end, length in zip(ends, track.segment_lengths)]


def test_parse_serialize_roundtrip_is_lossless():
    segments = [[(51.5, -0.25, 32.5), (51.5005, -0.2502, 33.0)],
                [(51.501, -0.251, None), (51.5015, -0.2512, 35.25)]]
    doc = parse_gpx(gpx_xml([{"name": "rt", "segments": segments}]))
    track = doc.tracks[0]

    reserialized = gpx_xml([{"desc": track.desc, "segments": segment_points(track)}])
    reparsed = parse_gpx(reserialized).tracks[0]
    assert segment_points(reparsed) == segments


def test_parse_honors_declared_encoding():
    xml = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n'
           '<gpx version="1.1"><trk><name>H\xfctte</name><desc>Sch\xf6ne Tour</desc>'
           '<trkseg><trkpt lat="47.0" lon="11.0"></trkpt></trkseg></trk></gpx>')
    doc = parse_gpx(xml.encode("iso-8859-1"))
    assert doc.tracks[0].desc == "Schöne Tour"


# --- bulk point reading ----------------------------------------------------------

# Number texts that Python's ``float`` reads and numpy's string casting may
# not, and texts that neither reads.
_NUMBER_TEXTS = ["1_0", "\u0661\u0662", "\u0663.\u0665", " 7 ", "\t-3\n", "+1", "-0", "nan",
                 "NaN", "inf", "-inf", "1e400", "91", "-181"]
_BAD_NUMBER_TEXTS = ["", "abc", "0x10", "1,5"]


@st.composite
def gpx_points(draw, point_tag, prefixes):
    """The points of one segment or route, each tag taking a prefix from
    ``prefixes``, all bound to the document's namespace.  Half of the
    segments draw every point the same way, in that namespace, each value a
    number text and each point with an ``<ele>`` or none without; the other
    half also draw points in another namespace (prefix ``o:``), missing or
    unreadable values and ``<ele>`` in either namespace.  Points may also
    carry ``<time>`` and an extension holding an ``<ele>``."""
    clean = draw(st.booleans())
    point_prefixes = prefixes if clean else prefixes * 2 + ["o:"]
    numbers = st.one_of(st.floats(-200, 200).map(repr), st.sampled_from(_NUMBER_TEXTS))
    if not clean:
        numbers = st.one_of(numbers, st.sampled_from(_BAD_NUMBER_TEXTS))
    with_ele = draw(st.booleans())
    points = []
    for _ in range(draw(st.integers(0, 6))):
        prefix = draw(st.sampled_from(point_prefixes))
        attributes = "".join(f" {name}={quoteattr(text)}" for name in ("lat", "lon")
                             if (text := draw(numbers if clean else numbers | st.none()))
                             is not None)
        children = draw(st.lists(st.sampled_from(
            ["<time>2024-03-01T09:00:00Z</time>", "<extensions><ele>7</ele></extensions>"]
            + ([] if clean else ["<ele/>", "<o:ele>5</o:ele>"])), max_size=2))
        if with_ele if clean else draw(st.booleans()):
            ele = draw(st.sampled_from(prefixes)) + "ele"
            children.insert(0, f"<{ele}>{escape(draw(numbers))}</{ele}>")
        points.append(f"<{prefix}{point_tag}{attributes}>{''.join(children)}"
                      f"</{prefix}{point_tag}>")
    return "".join(points)


# Number texts at the edges of the point-block scan: JSON numbers it reads
# (``0``, ``7``, 40 digits), and texts it leaves to the tree reader.
_SCAN_NUMBER_TEXTS = ["0", "-0", "01.5", "1.", ".5", "7", "1234567890" * 4,
                      "-0.0", "-0e5", "1e-400", "1E400", "51.5e0"]


@st.composite
def block_points(draw):
    """The points of one segment in the point-block scan's form: every point
    ``<trkpt lat="N" lon="N">``, an optional ``<ele>``, an optional
    ``<time>``, ``</trkpt>``, with spaces, tabs or line breaks between tags.
    ``<ele>`` is on all, some or none of the points.  Half of the segments
    also draw number texts from the scan's edge cases."""
    space = st.sampled_from(["", "", " ", "\n", "\r\n", "\t", "  \n  "])
    numbers = st.one_of(st.floats(-200, 200).map(repr),
                        st.integers(-4000, 90000).map(lambda tenths: f"{tenths / 10:.1f}"))
    if draw(st.booleans()):
        numbers |= st.sampled_from(_SCAN_NUMBER_TEXTS)
    eles = draw(st.sampled_from(["all", "some", "none"]))
    points = []
    for _ in range(draw(st.integers(0, 6))):
        ele = ""
        if eles == "all" or eles == "some" and draw(st.booleans()):
            ele = f"<ele>{draw(numbers)}</ele>{draw(space)}"
        time = draw(st.sampled_from(["", "<time>2024-03-01T09:00:00Z</time>", "<time></time>",
                                     "<time>2024-03-01T09:00:00.5+01:00</time>"]))
        points.append(f'{draw(space)}<trkpt lat="{draw(numbers)}" lon="{draw(numbers)}">'
                      f'{draw(space)}{ele}{time}{draw(space) if time else ""}</trkpt>')
    return "".join(points) + draw(space)


@st.composite
def gpx_documents(draw):
    """A GPX document of one route, or of one track with up to three segments,
    each in the point-block scan's form or not; with or without an XML
    declaration.  In a document with a namespace, each GPX tag is written
    bare or with the prefix ``g:``, which is bound to the same namespace."""
    namespace = draw(st.sampled_from(["http://www.topografix.com/GPX/1/1",
                                      "http://www.topografix.com/GPX/1/0", None]))
    prefixes = ["", "g:"] if namespace else [""]
    prefix = st.sampled_from(prefixes)
    extension = st.sampled_from(["", "", "<extensions><ele>1</ele></extensions>"])
    if draw(st.booleans()):
        route = draw(prefix) + "rte"
        body = f"<{route}>{draw(gpx_points('rtept', prefixes))}</{route}>"
    else:
        segment = st.one_of(st.tuples(gpx_points("trkpt", prefixes), extension).map("".join),
                            block_points())
        segments = draw(st.lists(st.tuples(prefix, segment), max_size=3))
        track = draw(prefix) + "trk"
        body = (f"<{track}>" + "".join(f"<{tag}trkseg>{points}</{tag}trkseg>"
                                       for tag, points in segments) + f"</{track}>")
    declaration = draw(st.sampled_from(["", '<?xml version="1.0" encoding="UTF-8"?>\n',
                                        '<?xml version="1.1" encoding="UTF-8"?>']))
    namespaces = f'xmlns="{namespace}" xmlns:g="{namespace}" ' if namespace else ""
    root = draw(prefix) + "gpx"
    return (f'{declaration}<{root} {namespaces}xmlns:o="urn:other">{body}</{root}>'
            ).encode("utf-8")


def parsed(payload):
    """The tracks of ``payload`` as comparable values (bits, not numbers, so
    that NaN equals NaN), and the parse stats."""
    stats = ParseStats()
    doc = parse_gpx(payload, stats)
    return ([(track.lat.tobytes(), track.lon.tobytes(), track.ele.tobytes(),
              track.segment_lengths, track.desc) for track in doc.tracks], vars(stats))


@settings(max_examples=300, deadline=None)
@given(gpx_documents())
def test_point_block_scan_equals_the_tree_readers(payload):
    scanned = parsed(payload)
    with mock.patch.object(gpx_model, "_scan_blocks", return_value=None):
        assert parsed(payload) == scanned


NAN = math.nan


@pytest.mark.parametrize("points, track, stats", [
    # A point and its <ele> are read only in the document's namespace; one in
    # another namespace is skipped, as an extension is.
    ('<trkpt lat="1" lon="2"/><o:trkpt lat="1" lon="2"/>',
     ([1], [2], [NAN]), ParseStats()),
    ('<trkpt lat="1" lon="2"><o:ele>4</o:ele></trkpt><o:trkpt lat="3" lon="4"><ele>6</ele>'
     '<o:ele>5</o:ele></o:trkpt>', ([1], [2], [NAN]), ParseStats()),
    # An unparsable lat or lon drops the point, and here its track, which
    # lost more than 1% of its points.
    ('<trkpt lat="1" lon="2"/><trkpt lat="x" lon="2"/>',
     None, ParseStats(points_dropped=1, tracks_dropped=1)),
    # Each value is read as Python's float reads it; a point without <ele>
    # has none.
    ('<trkpt lat="1" lon="2"><ele>3</ele></trkpt><trkpt lat="1_0" lon=" 2 "/>',
     ([1, 10], [2, 2], [3, NAN]), ParseStats()),
    ('<trkpt lat="1" lon="2"><ele>3</ele></trkpt><trkpt lat="1_0" lon=" 2 "><ele>nan</ele>'
     '</trkpt>', ([1, 10], [2, 2], [3, NAN]), ParseStats()),
    # Extensions, on a point or beside the points, are ignored.
    ('<trkpt lat="1" lon="2"/><trkpt lat="\u0661" lon="2"><extensions/></trkpt><extensions/>',
     ([1, 1], [2, 2], [NAN, NAN]), ParseStats()),
], ids=["foreign-namespace-point", "ele-in-the-point-namespace", "unparsable-lat",
        "float-texts", "nan-ele", "extensions"])
def test_the_tree_reader_reads_each_point_by_its_own_rules(points, track, stats):
    payload = (f'<gpx xmlns="http://www.topografix.com/GPX/1/1" xmlns:o="urn:other"><trk>'
               f'<trkseg>{points}</trkseg></trk></gpx>').encode("utf-8")
    assert gpx_model._scan_blocks(payload) is None
    read = ParseStats()
    tracks = parse_gpx(payload, read).tracks
    assert read == stats
    if track is None:
        assert tracks == []
        return
    lat, lon, ele = track
    [parsed_track] = tracks
    assert parsed_track.lat.tolist() == lat and parsed_track.lon.tolist() == lon
    # Compared as bits, so that NaN equals NaN.
    assert parsed_track.ele.tobytes() == np.array(ele, dtype=np.float64).tobytes()
    assert parsed_track.segment_lengths == [len(lat)]


def all_prefixed(payload):
    """``payload`` with every element given the prefix ``g:``, bound to the
    namespace its default namespace declaration names."""
    return re.sub(rb"<(/?)(?=[A-Za-z])", rb"<\1g:", payload).replace(b"xmlns=", b"xmlns:g=")


@pytest.mark.parametrize("payload", [
    gpx_xml([{"desc": "Two laps", "segments": [[(50.0, 6.0, 12.5), (50.001, 6.0, None)],
                                                [(50.002, 6.0, 13.0)]]}]),
    gpx_xml([{"segments": [[(50.0, 6.0, 12.5), (50.001, 6.0, 13.0)]]}],
            metadata_desc="From metadata"),
], ids=["track-desc", "metadata-desc"])
def test_an_all_prefixed_document_reads_as_the_unprefixed_one(payload):
    prefixed = all_prefixed(payload)
    assert b"<g:gpx " in prefixed and b"<g:trkpt " in prefixed and b"<trk" not in prefixed
    assert parsed(prefixed) == parsed(payload)
    assert parsed(payload)[0][0][4] is not None  # the description


_OTHER = '<gpx xmlns="http://www.topografix.com/GPX/1/1" xmlns:o="urn:other">{}</gpx>'


@pytest.mark.parametrize("body", [
    '<o:trk><trkseg><trkpt lat="1" lon="2"></trkpt></trkseg></o:trk>',  # a point block
    '<o:trk><o:trkseg><o:trkpt lat="1" lon="2"/></o:trkseg></o:trk>',
    '<o:rte><rtept lat="1" lon="2"/></o:rte>',
    '<trk><o:trkseg><trkpt lat="1" lon="2"/></o:trkseg></trk>',
], ids=["track-of-a-block", "all-foreign-track", "route", "segment"])
def test_a_track_in_another_namespace_is_no_track(body):
    assert extract_single_track(parse_gpx(_OTHER.format(body).encode())) == (None, "no-track")


@pytest.mark.parametrize("root, inside, desc", [
    ("", "<o:desc>Foreign</o:desc>", None),
    ("<o:desc>Foreign</o:desc>", "", None),
    ("<o:metadata><desc>Foreign</desc></o:metadata>", "", None),
    ("<metadata><o:desc>Foreign</o:desc></metadata>", "", None),
    ("", "<o:desc>Foreign</o:desc><desc>Own</desc>", "Own"),
    ("<o:desc>Foreign</o:desc><desc>Own</desc>", "", "Own"),
    ("<metadata><o:desc>Foreign</o:desc><desc>Own</desc></metadata>", "", "Own"),
], ids=["track-desc", "document-desc", "metadata", "metadata-desc", "track-desc-then-own",
        "document-desc-then-own", "metadata-desc-then-own"])
def test_a_description_in_another_namespace_is_never_used(root, inside, desc):
    payload = _OTHER.format(f'{root}<trk>{inside}<trkseg><trkpt lat="1" lon="2"/></trkseg>'
                            f'</trk>').encode()
    [track] = parse_gpx(payload).tracks
    assert track.desc == desc


# --- the point-block scan ------------------------------------------------------

_BLOCK_POINTS = ('<trkpt lat="50.0" lon="6.0"><ele>12.5</ele><time>2024-03-01T09:00:00Z</time>'
                 '</trkpt>\n<trkpt lat="50.001" lon="6.0"><ele>13</ele></trkpt>')


def block_document(points=_BLOCK_POINTS, prolog='<?xml version="1.0" encoding="UTF-8"?>\n',
                   desc="Loop", inside="", after=""):
    """A one-track GPX document whose one segment holds ``points``."""
    return (f'{prolog}<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1">'
            f'<trk><desc>{desc}</desc>{inside}<trkseg>{points}</trkseg></trk></gpx>{after}'
            ).encode("utf-8")


def test_a_block_document_takes_the_scan():
    skeleton, blocks = gpx_model._scan_blocks(block_document())
    assert b"<trkpt" not in skeleton
    assert [len(lat) for lat, _, _ in blocks] == [2]
    track = parse_gpx(block_document()).tracks[0]
    assert track.ele.tolist() == [12.5, 13.0]


@pytest.mark.parametrize("payload", [
    block_document(desc="Loop<!-- two laps -->"),
    block_document(desc="<![CDATA[Loop]]>"),
    block_document(prolog='<?xml version="1.0" encoding="UTF-8"?>\n<!DOCTYPE gpx>'),
    block_document(prolog='<?xml version="1.0" encoding="UTF-8"?>'
                          '<?xml-stylesheet href="gpx.xsl"?>'),
    codecs.BOM_UTF8 + block_document(prolog=""),
    block_document(prolog='<?xml version="1.0" encoding="ISO-8859-1"?>\n'),
    block_document(prolog="<?xml version='1.0' encoding='UTF-8'?>\n"),
    block_document(points='<trkpt lon="6.0" lat="50.0"></trkpt>'),
    block_document(points="<trkpt lat='50.0' lon='6.0'></trkpt>"),
    block_document(points='<trkpt lat="50.0" lon="6.0"><extensions><hr>120</hr></extensions>'
                          '</trkpt>'),
    block_document(desc="gpx-harvest-block"),
    block_document(inside=f'<trkseg gpx-harvest-block="1">{_BLOCK_POINTS}</trkseg>'),
    block_document(inside=f"<?keep <trkseg>{_BLOCK_POINTS}</trkseg>?>"),
], ids=["comment", "cdata", "doctype", "instruction-after-declaration", "bom", "iso-8859-1",
        "single-quoted-declaration", "lon-before-lat", "single-quoted-attributes", "extensions",
        "attribute-name-in-payload", "attribute-in-payload", "block-in-instruction"])
def test_inputs_the_scan_cannot_read_exactly_take_the_tree_readers(payload):
    assert gpx_model._scan_blocks(payload) is None
    with mock.patch.object(gpx_model, "_scan_blocks", return_value=None):
        tree = parsed(payload)
    assert parsed(payload) == tree
    assert tree[0]  # the document's track


@pytest.mark.parametrize("text", _SCAN_NUMBER_TEXTS)
@pytest.mark.parametrize("axis", ["lat", "lon", "ele"])
def test_the_scan_reads_each_edge_number_text_as_the_tree_readers_do(text, axis):
    values = {"lat": "50.5", "lon": "6.5", "ele": "12.5", axis: text}
    payload = block_document(points=f'<trkpt lat="{values["lat"]}" lon="{values["lon"]}">'
                                    f'<ele>{values["ele"]}</ele></trkpt>')
    with mock.patch.object(gpx_model, "_scan_blocks", return_value=None):
        tree = parsed(payload)
    assert parsed(payload) == tree


def test_a_block_after_the_root_fails_with_the_tree_readers_error():
    payload = block_document(after=f"\n<trkseg>{_BLOCK_POINTS}</trkseg>")
    assert gpx_model._scan_blocks(payload) is not None  # but ElementTree refuses its skeleton
    with mock.patch.object(gpx_model, "_scan_blocks", return_value=None):
        with pytest.raises(GpxParseError) as tree:
            parse_gpx(payload)
    with pytest.raises(GpxParseError) as scanned:
        parse_gpx(payload)
    assert str(scanned.value) == str(tree.value)
    assert "junk after document element" in str(tree.value)


def parsed_or_error(payload):
    """``parsed(payload)``, or the text of the GpxParseError it raises."""
    try:
        return parsed(payload)
    except GpxParseError as exc:
        return str(exc)


def two_block_document(before="", between="", after="", after_root=""):
    """A one-track document of two point blocks, with text put before the
    first, between them, after the last and after the root element."""
    return (f'<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1"><trk><desc>Loop</desc>'
            f'{before}<trkseg>{_BLOCK_POINTS}</trkseg>{between}<trkseg>{_BLOCK_POINTS}</trkseg>'
            f'{after}</trk></gpx>{after_root}').encode("utf-8")


def block_matches():
    """Patches that count every match of either block form."""
    return (mock.patch.object(gpx_model, "_BLOCK_WITH_ELE",
                              mock.Mock(wraps=gpx_model._BLOCK_WITH_ELE)),
            mock.patch.object(gpx_model, "_BLOCK_WITHOUT_ELE",
                              mock.Mock(wraps=gpx_model._BLOCK_WITHOUT_ELE)))


def test_two_block_document_takes_the_scan():
    skeleton, blocks = gpx_model._scan_blocks(two_block_document())
    assert len(blocks) == 2 and b"<trkpt" not in skeleton


@pytest.mark.parametrize("where", ["before", "between", "after", "after_root"])
@pytest.mark.parametrize("text", [
    "<!-- two laps -->", "<![CDATA[Loop]]>", "<!DOCTYPE gpx>", "<?keep going?>", "\0",
    "gpx-harvest-block", '<trkseg gpx-harvest-block="0"></trkseg>',
], ids=["comment", "cdata", "doctype", "instruction", "nul", "attribute-name", "attribute"])
def test_what_the_scan_declines_declines_it_wherever_it_sits(text, where):
    payload = two_block_document(**{where: text})
    with_ele, without_ele = block_matches()
    with with_ele as with_ele_match, without_ele as without_ele_match:
        assert gpx_model._scan_blocks(payload) is None
    # The bytes up to a <trkseg> are searched before its body is matched.
    matches = with_ele_match.match.call_count + without_ele_match.match.call_count
    assert matches == {"before": 0, "between": 1}.get(where, 2)
    with mock.patch.object(gpx_model, "_scan_blocks", return_value=None):
        tree = parsed_or_error(payload)
    assert parsed_or_error(payload) == tree


def test_a_doctype_prefix_declines_before_any_block_is_matched():
    payload = block_document(prolog='<?xml version="1.0" encoding="UTF-8"?>\n'
                                    '<!DOCTYPE gpx [<!ENTITY lap "Loop">]>', desc="&lap;")
    with_ele, without_ele = block_matches()
    with with_ele as with_ele_match, without_ele as without_ele_match:
        assert gpx_model._scan_blocks(payload) is None
    with_ele_match.match.assert_not_called()
    without_ele_match.match.assert_not_called()
    assert parsed(payload)[0][0][4] == "Loop"


def test_the_attribute_name_in_a_time_text_takes_the_scan():
    points = _BLOCK_POINTS.replace("2024-03-01T09:00:00Z", "gpx-harvest-block")
    payload = block_document(points=points)
    assert b"<time>gpx-harvest-block</time>" in payload
    skeleton, blocks = gpx_model._scan_blocks(payload)
    assert len(blocks) == 1 and gpx_model._BLOCK_ATTRIBUTE.encode() + b'="0"' in skeleton
    with mock.patch.object(gpx_model, "_scan_blocks", return_value=None):
        tree = parsed(payload)
    assert parsed(payload) == tree


def test_segments_that_are_not_blocks_are_searched_in_one_pass():
    # Single-quoted attributes are not of the block form, so every <trkseg>
    # but the last stays in the skeleton.  A search of all the skeleton's
    # bytes so far at each <trkseg> would cover 20,000 times as many.
    segments = "<trkseg><trkpt lat='50.0' lon='6.0'></trkpt></trkseg>" * 20_000
    payload = block_document(inside=segments)
    searched = []
    unscannable = gpx_model._unscannable

    def spy(payload, start, end=None):
        searched.append((start, len(payload) if end is None else end))
        return unscannable(payload, start, end)
    with mock.patch.object(gpx_model, "_unscannable", spy):
        skeleton, blocks = gpx_model._scan_blocks(payload)
    assert len(blocks) == 1 and len(searched) == 20_002
    assert all(end <= start for (_, end), (start, _) in zip(searched, searched[1:]))
    assert sum(end - start for start, end in searched) < len(payload)
    with mock.patch.object(gpx_model, "_scan_blocks", return_value=None):
        tree = parsed(payload)
    assert parsed(payload) == tree


def _exact_decimal(value: Fraction) -> str:
    """A fraction whose denominator is a power of two, written out in full."""
    sign = "-" if value < 0 else ""
    numerator, denominator = abs(value.numerator), value.denominator
    places = denominator.bit_length() - 1
    assert denominator == 1 << places
    digits = str(numerator * 5 ** places).rjust(places + 1, "0")
    return sign + (f"{digits[:-places]}.{digits[-places:]}" if places else digits)


def _number_corpus(seed: int, count: int) -> list[bytes]:
    """``count`` JSON number texts the scan reads: GPS-style ``repr``s,
    1-decimal elevations, long mantissas, exact decimals halfway between two
    floats (and one digit past), exponents, subnormals and integers."""
    rng = random.Random(seed)

    def gps():
        value = rng.uniform(-180.0, 180.0)
        return repr(round(value, rng.randint(0, 12)) if rng.random() < 0.5 else value)

    def elevation():
        return f"{rng.randint(-4000, 90000) / 10:.1f}"

    def long_mantissa():
        size = rng.randint(17, 39)
        digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=size - 1))
        cut = rng.randint(1, size)
        text = digits[:cut] + (f".{digits[cut:]}" if cut < size else "")
        return ("-" if rng.random() < 0.5 and len(text) < 40 else "") + text

    def halfway():
        while True:
            low = rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(21, 128)
            middle = (Fraction(low) + Fraction(float(np.nextafter(low, np.inf)))) / 2
            text = _exact_decimal(middle if rng.random() < 0.5 else -middle)
            if "." in text and rng.random() < 0.3:
                text += rng.choice("19")  # just past halfway, either way
            if len(text) <= gpx_model._MAX_NUMBER_CHARS:
                return text

    def exponent():
        mantissa = rng.choice([f"{rng.uniform(0.0, 10.0):.{rng.randint(1, 16)}f}",
                               str(rng.randint(1, 10 ** 17))])
        return (f"{'-' if rng.random() < 0.5 else ''}{mantissa}{rng.choice('eE')}"
                f"{rng.choice(['', '+', '-'])}{rng.randint(0, 290)}")

    def subnormal():
        value = struct.unpack("<d", struct.pack("<Q", rng.randint(1, (1 << 52) - 1)))[0]
        return repr(value) if rng.random() < 0.5 else _exact_decimal(Fraction(value))[:40]

    def integer():
        return str(rng.choice([rng.randint(0, 9999), rng.randint(0, 2 ** 64),
                               rng.randint(0, 10 ** 39), -rng.randint(1, 2 ** 63)]))

    makers = [gps, elevation, long_mantissa, halfway, exponent, subnormal, integer]
    return [rng.choice(makers)().encode() for _ in range(count)]


def test_the_scan_reads_every_number_text_as_float_does():
    texts = _number_corpus(305, 100_000)
    number = re.compile(gpx_model._number(rb"$"))
    assert all(number.fullmatch(text) for text in texts)
    assert max(map(len, texts)) == gpx_model._MAX_NUMBER_CHARS
    scanned = gpx_model._numbers(texts)
    expected = np.array([float(text) for text in texts])
    assert scanned.tobytes() == expected.tobytes()


def _long_ride(rng: random.Random, points: int, with_ele: bool) -> bytes:
    """A payload shaped like the benchmark's long tracks: 1-3 segments of
    legs a few metres apart, every point timed, 1-decimal elevations on all
    points or on none."""
    segments = []
    lat, lon = rng.uniform(45.0, 55.0), rng.uniform(-3.0, 12.0)
    sizes = [points // 3] * 2 + [points - 2 * (points // 3)]
    for size in sizes[:rng.randint(1, 3)]:
        base = rng.uniform(300.0, 1500.0)
        segment = line_points(lat, lon, size, rng.uniform(3.0, 6.0),
                              bearing=rng.choice(("east", "north")), times=True,
                              ele=(lambda i: round(base + 40.0 * math.sin(i / 60.0), 1))
                              if with_ele else None)
        segments.append(segment)
        lat, lon = segment[-1][0] + 0.0005, segment[-1][1] + 0.0005
    return gpx_xml([{"name": "Long ride", "desc": "Along the river and back.",
                     "segments": segments}])


@pytest.mark.parametrize("with_ele", [True, False])
def test_every_segment_of_a_long_track_takes_the_scan(with_ele):
    rng = random.Random(7)
    for points in (2000, 3500):
        payload = _long_ride(rng, points, with_ele)
        skeleton, blocks = gpx_model._scan_blocks(payload)
        assert len(blocks) == payload.count(b"<trkseg>") >= 1
        assert b"<trkpt" not in skeleton
        scanned = parsed(payload)
        with mock.patch.object(gpx_model, "_scan_blocks", return_value=None):
            assert parsed(payload) == scanned
