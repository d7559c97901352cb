import math
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
from gpx_harvest.synthetic import gpx_xml

URL = "http://a.example/t.gpx"


def test_parse_minimal_document_preserves_desc():
    payload = gpx_xml([{"name": "Morning run", "desc": "Two laps\naround the park",
                        "segments": [[(51.0, -0.5, 12.0, "2024-01-01T10:00:00Z"),
                                      (51.001, -0.5, 13.0, None)]]}])
    doc = parse_gpx(payload, URL)
    assert len(doc.tracks) == 1
    track = doc.tracks[0]
    assert track.desc == "Two laps\naround the park"  # verbatim, cleaning happens later
    assert track.point_count() == 2
    assert track.segment_lengths == [2]
    assert (track.lat[0], track.lon[0], track.ele[0]) == (51.0, -0.5, 12.0)


def test_parse_rejects_html():
    with pytest.raises(GpxParseError):
        parse_gpx(b"<html>404 not found</html>", URL)
    with pytest.raises(GpxParseError):
        parse_gpx(b"\x00\x01 not xml at all", URL)


@pytest.mark.parametrize("encoding", ["UT7-8", "rot13", "utf-32", "idna", "punycode"])
def test_parse_rejects_an_encoding_expat_cannot_read(encoding):
    payload = f'<?xml version="1.0" encoding="{encoding}"?><gpx>\xe9</gpx>'.encode("latin-1")
    with pytest.raises(GpxParseError, match="not parseable XML"):
        parse_gpx(payload, URL)


def test_parse_counts_two_tracks():
    payload = gpx_xml([{"segments": [[(50.0, 6.0)]]}, {"segments": [[(50.1, 6.1)]]}])
    assert len(parse_gpx(payload, URL).tracks) == 2


@pytest.mark.parametrize("version,namespace", [("1.0", True), ("1.1", True), ("1.1", False)])
def test_parse_accepts_gpx_versions_and_no_namespace(version, namespace):
    payload = gpx_xml([{"segments": [[(50.0, 6.0, 100.0), (50.001, 6.0, 101.0)]]}],
                      version=version, namespace=namespace)
    doc = parse_gpx(payload, URL)
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
    doc = parse_gpx(payload, URL, stats)
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
    doc = parse_gpx(payload, URL, stats)
    assert doc.tracks == []
    assert stats.tracks_dropped == 1


def test_parse_metadata_desc_fallback():
    payload = gpx_xml([{"segments": [[(50.0, 6.0)]]}], metadata_desc="From metadata")
    assert parse_gpx(payload, URL).tracks[0].desc == "From metadata"

    payload = gpx_xml([{"desc": "Track-level wins", "segments": [[(50.0, 6.0)]]}],
                      metadata_desc="From metadata")
    assert parse_gpx(payload, URL).tracks[0].desc == "Track-level wins"


def test_parse_route_becomes_single_segment_track():
    payload = (b'<?xml version="1.0"?>'
               b'<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1">'
               b'<rte><name>Planned ride</name><desc>Signed route</desc>'
               b'<rtept lat="50.0" lon="6.0"><ele>120</ele></rtept>'
               b'<rtept lat="50.01" lon="6.0"><ele>130</ele></rtept>'
               b'</rte></gpx>')
    doc = parse_gpx(payload, URL)
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
    doc = parse_gpx(payload, URL)
    assert len(doc.tracks) == 1
    assert doc.tracks[0].point_count() == 1


def test_parse_tolerates_bad_ele_and_time():
    payload = (b'<?xml version="1.0"?><gpx version="1.1"><trk><trkseg>'
               b'<trkpt lat="50.0" lon="6.0"><ele>n/a</ele><time>yesterday</time></trkpt>'
               b'</trkseg></trk></gpx>')
    track = parse_gpx(payload, URL).tracks[0]
    assert math.isnan(track.ele[0])


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-Infinity", "1e400"])
def test_parse_treats_non_finite_ele_as_missing(text):
    payload = gpx_xml([{"segments": [[(50.0, 6.0, text), (50.001, 6.0, 120.5)]]}])
    track = parse_gpx(payload, URL).tracks[0]
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
    doc = parse_gpx(gpx_xml([{"segments": [[(50.0, 6.0), (50.1, 6.0)]]}]), URL)
    track, reason = extract_single_track(doc)
    assert reason is None
    assert track.point_count() == 2


def test_extract_single_track_rejects_multi_track():
    doc = parse_gpx(gpx_xml([{"segments": [[(50.0, 6.0)]]},
                             {"segments": [[(51.0, 6.0)]]}]), URL)
    assert extract_single_track(doc) == (None, "multi-track")


def test_extract_single_track_ignores_empty_second_track():
    doc = parse_gpx(gpx_xml([{"desc": "real", "segments": [[(50.0, 6.0)]]},
                             {"desc": "empty", "segments": [[]]}]), URL)
    track, reason = extract_single_track(doc)
    assert reason is None and track.desc == "real"


def test_extract_single_track_rejects_zero_tracks():
    doc = parse_gpx(gpx_xml([]), URL)
    assert extract_single_track(doc) == (None, "no-track")


def test_extract_single_track_drops_empty_segments():
    doc = parse_gpx(gpx_xml([{"segments": [[], [(50.0, 6.0), (50.1, 6.0)], []]}]), URL)
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
    doc = parse_gpx(gpx_xml([{"name": "rt", "segments": segments}]), URL)
    track = doc.tracks[0]

    reserialized = gpx_xml([{"desc": track.desc, "segments": segment_points(track)}])
    reparsed = parse_gpx(reserialized, URL).tracks[0]
    assert segment_points(reparsed) == segments


def test_parse_honors_declared_encoding():
    xml = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n'
           '<gpx version="1.1"><trk><name>H\xfctte</name><desc>Sch\xf6ne Tour</desc>'
           '<trkseg><trkpt lat="47.0" lon="11.0"></trkpt></trkseg></trk></gpx>')
    doc = parse_gpx(xml.encode("iso-8859-1"), URL)
    assert doc.tracks[0].desc == "Schöne Tour"


# --- bulk point reading ----------------------------------------------------------

# Number texts that Python's ``float`` reads and numpy's string casting may
# not, and texts that neither reads.
_NUMBER_TEXTS = ["1_0", "\u0661\u0662", "\u0663.\u0665", " 7 ", "\t-3\n", "+1", "-0", "nan",
                 "NaN", "inf", "-inf", "1e400", "91", "-181"]
_BAD_NUMBER_TEXTS = ["", "abc", "0x10", "1,5"]


@st.composite
def gpx_points(draw, point_tag):
    """The points of one segment or route.  Half of the segments draw every
    point the same way, in one namespace, each value a number text and each
    point with an ``<ele>`` or none without; the other half mix namespaces
    (prefix ``o:``), missing or unreadable values and ``<ele>`` in either
    namespace.  Points may also carry ``<time>`` and an extension holding an
    ``<ele>``."""
    clean = draw(st.booleans())
    prefixes = [""] if clean else ["", "", "o:"]
    numbers = st.one_of(st.floats(-200, 200).map(repr), st.sampled_from(_NUMBER_TEXTS))
    if not clean:
        numbers = st.one_of(numbers, st.sampled_from(_BAD_NUMBER_TEXTS))
    with_ele = draw(st.booleans())
    points = []
    for _ in range(draw(st.integers(0, 6))):
        prefix = draw(st.sampled_from(prefixes))
        attributes = "".join(f" {name}={quoteattr(text)}" for name in ("lat", "lon")
                             if (text := draw(numbers if clean else numbers | st.none()))
                             is not None)
        children = draw(st.lists(st.sampled_from(
            ["<time>2024-03-01T09:00:00Z</time>", "<extensions><ele>7</ele></extensions>"]
            + ([] if clean else ["<ele/>", "<o:ele>5</o:ele>"])), max_size=2))
        if with_ele if clean else draw(st.booleans()):
            children.insert(0, f"<{prefix}ele>{escape(draw(numbers))}</{prefix}ele>")
        points.append(f"<{prefix}{point_tag}{attributes}>{''.join(children)}"
                      f"</{prefix}{point_tag}>")
    return "".join(points)


@st.composite
def gpx_documents(draw):
    """A GPX document of one route, or of one track with up to three segments."""
    namespace = draw(st.sampled_from(['xmlns="http://www.topografix.com/GPX/1/1"',
                                      'xmlns="http://www.topografix.com/GPX/1/0"', ""]))
    extension = st.sampled_from(["", "", "<extensions><ele>1</ele></extensions>"])
    if draw(st.booleans()):
        body = f"<rte>{draw(gpx_points('rtept'))}</rte>"
    else:
        segments = draw(st.lists(gpx_points("trkpt"), max_size=3))
        body = "<trk>" + "".join(f"<trkseg>{points}{draw(extension)}</trkseg>"
                                 for points in segments) + "</trk>"
    return f'<gpx {namespace} xmlns:o="urn:other">{body}</gpx>'.encode("utf-8")


def parsed(payload):
    """The tracks of ``payload`` as comparable values (bits, not numbers, so
    that NaN equals NaN), and the parse stats."""
    stats = ParseStats()
    doc = parse_gpx(payload, URL, stats)
    return ([(track.lat.tobytes(), track.lon.tobytes(), track.ele.tobytes(),
              track.segment_lengths, track.desc) for track in doc.tracks], vars(stats))


@settings(max_examples=300, deadline=None)
@given(gpx_documents())
def test_bulk_point_reading_equals_the_per_point_loop(payload):
    bulk = parsed(payload)
    with mock.patch.object(gpx_model, "_bulk_point_values", return_value=None):
        assert parsed(payload) == bulk


@pytest.mark.parametrize("points, bulk", [
    ('<trkpt lat="1" lon="2"><ele>3</ele></trkpt><trkpt lat="1_0" lon=" 2 "/>', False),
    ('<trkpt lat="1" lon="2"><ele>3</ele></trkpt><trkpt lat="1_0" lon=" 2 "><ele>nan</ele>'
     '</trkpt>', True),
    ('<trkpt lat="1" lon="2"/><trkpt lat="\u0661" lon="2"><extensions/></trkpt><extensions/>',
     True),
    ('<trkpt lat="1" lon="2"/><trkpt lat="x" lon="2"/>', False),
    ('<trkpt lat="1" lon="2"/><o:trkpt lat="1" lon="2"/>', False),
])
def test_bulk_point_reading_leaves_only_mixed_namespaces_and_bad_values_to_the_loop(points,
                                                                                    bulk):
    root = ElementTree.fromstring(f'<gpx xmlns="http://www.topografix.com/GPX/1/1" '
                                  f'xmlns:o="urn:other"><trk><trkseg>{points}</trkseg></trk>'
                                  f'</gpx>')
    segment = root[0][0]
    values = gpx_model._bulk_point_values(segment, "trkpt")
    assert (values is not None) is bulk
    if bulk:
        expected = gpx_model._point_values(segment, "trkpt")
        assert np.array(values[:3]).tobytes() == np.array(expected[:3]).tobytes()
        assert values[3] == expected[3] == 0
