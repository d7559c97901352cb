import pytest

from gpx_harvest.gpx_model import GpxParseError, ParseStats, extract_single_track, parse_gpx
from gpx_harvest.synthetic import gpx_xml

URL = "http://a.example/t.gpx"


def test_parse_minimal_document_preserves_desc():
    payload = gpx_xml([{"name": "Morning run", "desc": "Two laps\naround the park",
                        "segments": [[(51.0, -0.5, 12.0, "2024-01-01T10:00:00Z"),
                                      (51.001, -0.5, 13.0, None)]]}])
    doc = parse_gpx(payload, URL)
    assert len(doc.tracks) == 1
    track = doc.tracks[0]
    assert track.name == "Morning run"
    assert track.desc == "Two laps\naround the park"  # verbatim, cleaning happens later
    assert track.point_count() == 2
    first = track.segments[0].points[0]
    assert (first.lat, first.lon, first.ele) == (51.0, -0.5, 12.0)
    assert len(doc.content_hash) == 32


def test_parse_rejects_html():
    with pytest.raises(GpxParseError):
        parse_gpx(b"<html>404 not found</html>", URL)
    with pytest.raises(GpxParseError):
        parse_gpx(b"\x00\x01 not xml at all", URL)


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
    assert track.name == "Planned ride"
    assert len(track.segments) == 1
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
    point = parse_gpx(payload, URL).tracks[0].segments[0].points[0]
    assert point.ele is None


def test_content_hash_is_payload_digest():
    import hashlib
    payload = gpx_xml([{"segments": [[(50.0, 6.0)]]}])
    assert parse_gpx(payload, URL).content_hash == hashlib.sha256(payload).digest()


# --- extract_single_track ------------------------------------------------------

def test_extract_single_track_identity():
    doc = parse_gpx(gpx_xml([{"segments": [[(50.0, 6.0), (50.1, 6.0)]]}]), URL)
    track = extract_single_track(doc)
    assert track is not None
    assert track.point_count() == 2


def test_extract_single_track_rejects_multi_track():
    doc = parse_gpx(gpx_xml([{"segments": [[(50.0, 6.0)]]},
                             {"segments": [[(51.0, 6.0)]]}]), URL)
    assert extract_single_track(doc) is None


def test_extract_single_track_ignores_empty_second_track():
    doc = parse_gpx(gpx_xml([{"name": "real", "segments": [[(50.0, 6.0)]]},
                             {"name": "empty", "segments": [[]]}]), URL)
    track = extract_single_track(doc)
    assert track is not None and track.name == "real"


def test_extract_single_track_rejects_zero_tracks():
    doc = parse_gpx(gpx_xml([]), URL)
    assert extract_single_track(doc) is None


def test_extract_single_track_drops_empty_segments():
    doc = parse_gpx(gpx_xml([{"segments": [[], [(50.0, 6.0), (50.1, 6.0)], []]}]), URL)
    track = extract_single_track(doc)
    assert len(track.segments) == 1


# --- geometry round-trip -----------------------------------------------------------

def test_parse_serialize_roundtrip_is_lossless():
    segments = [[(51.5, -0.25, 32.5), (51.5005, -0.2502, 33.0)],
                [(51.501, -0.251, None), (51.5015, -0.2512, 35.25)]]
    doc = parse_gpx(gpx_xml([{"name": "rt", "segments": segments}]), URL)
    track = doc.tracks[0]

    reserialized = gpx_xml([{"name": track.name,
                             "segments": [[(p.lat, p.lon, p.ele) for p in s.points]
                                          for s in track.segments]}])
    reparsed = parse_gpx(reserialized, URL).tracks[0]
    assert [[(p.lat, p.lon, p.ele) for p in s.points] for s in reparsed.segments] == segments


def test_parse_honors_declared_encoding():
    xml = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n'
           '<gpx version="1.1"><trk><name>H\xfctte</name><desc>Sch\xf6ne Tour</desc>'
           '<trkseg><trkpt lat="47.0" lon="11.0"></trkpt></trkseg></trk></gpx>')
    doc = parse_gpx(xml.encode("iso-8859-1"), URL)
    assert doc.tracks[0].name == "Hütte"
    assert doc.tracks[0].desc == "Schöne Tour"
