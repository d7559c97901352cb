import csv
import json
import math
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest import records as records_module
from gpx_harvest.config import FilterConfig
from gpx_harvest.descriptions import CleanDescription, PiiFlags
from gpx_harvest.geo_metrics import EARTH_RADIUS_M, TrackMetrics
from gpx_harvest.gpx_model import Segment, Track
from gpx_harvest.index_scan import CandidateRecord
from gpx_harvest.records import (ALL_PROPERTIES, SCALAR_PROPERTIES,
                                 RecordAssemblyError, assemble_record, dedup,
                                 export_records, passes_track_filters,
                                 record_json, record_properties)

CONFIG = FilterConfig()


def make_track(point_count=10, spacing_m=100.0):
    step = math.degrees(spacing_m / EARTH_RADIUS_M)
    segment = Segment(lat=[0.0] * point_count, lon=[i * step for i in range(point_count)],
                      ele=[100.0 + i for i in range(point_count)])
    return Track(name="t", desc="d", segments=[segment])


# --- track filters -------------------------------------------------------------

@pytest.mark.parametrize("length,expected,reason", [
    (500.0, True, None),
    (100_000.0, True, None),
    (499.0, False, "too-short"),
    (100_001.0, False, "too-long"),
    (12_100.0, True, None),
])
def test_length_bounds_inclusive(length, expected, reason):
    track = make_track(point_count=2000)  # density never the limiting factor
    ok, why = passes_track_filters(track, length, CONFIG)
    assert (ok, why) == (expected, reason)


def test_density_boundary_one_point_per_100m():
    ok, why = passes_track_filters(make_track(point_count=10), 1000.0, CONFIG)
    assert (ok, why) == (True, None)
    ok, why = passes_track_filters(make_track(point_count=9), 1000.0, CONFIG)
    assert (ok, why) == (False, "low-density")


def test_filters_report_first_failed_rule():
    # a 400 m track with terrible density still reports too-short first
    ok, why = passes_track_filters(make_track(point_count=1), 400.0, CONFIG)
    assert (ok, why) == (False, "too-short")


def test_realistic_track_against_filters():
    track = make_track(point_count=500, spacing_m=24.2)
    from gpx_harvest.geo_metrics import length_2d
    length = length_2d(track)
    assert 12_000 < length < 12_200  # about the typical mid-range activity
    ok, why = passes_track_filters(track, length, CONFIG)
    assert ok, why


# --- assembly --------------------------------------------------------------------

def candidate():
    return CandidateRecord(url="http://a.example/t.gpx", mime_detected="application/gpx+xml",
                           warc_file="crawl-data/CC-MAIN-2024-10/w.warc.gz",
                           warc_offset=3215, warc_len=1091, crawl_id="CC-MAIN-2024-10")


def metrics(circular=False):
    return TrackMetrics(length_2d=1234.5678, length_3d=1250.1234, elev_highest=200.0,
                        elev_lowest=100.0, uphill=55.557, downhill=44.444,
                        is_circular=circular)


def description(lang="en", text=None):
    text = text or "A fine walk over the moor with wide views of the valley below."
    return CleanDescription(text=text, lang=lang,
                            text_en=text if lang == "en" else f"[{lang}->en] {text}",
                            pii=PiiFlags())


def two_segment_track():
    return Track(name="t", desc="d", segments=[
        Segment(lat=[53.8, 53.8], lon=[-2.45, -2.44], ele=[80.0, 81.0]),
        Segment(lat=[53.81], lon=[-2.44], ele=[82.0]),
    ])


def test_assemble_record_has_all_17_properties():
    record = assemble_record(candidate(), two_segment_track(), metrics(),
                             description(), "United Kingdom", "GPS")
    assert set(record.__dict__) == set(ALL_PROPERTIES)
    assert record.url == "http://a.example/t.gpx"
    assert record.country == "United Kingdom"
    assert json.loads(record.geometry) == [[[-2.45, 53.8, 80.0], [-2.44, 53.8, 81.0]],
                                           [[-2.44, 53.81, 82.0]]]


def test_assemble_record_names_missing_component():
    with pytest.raises(RecordAssemblyError, match="country"):
        assemble_record(candidate(), two_segment_track(), metrics(), description(), "", "GPS")
    with pytest.raises(RecordAssemblyError, match="desc"):
        assemble_record(candidate(), two_segment_track(), metrics(), None, "UK", "GPS")


def test_assemble_record_rejects_missing_elevation():
    track = Track(segments=[Segment(lat=[53.8], lon=[-2.45])])
    with pytest.raises(RecordAssemblyError, match="elevation"):
        assemble_record(candidate(), track, metrics(), description(), "UK", "GPS")


def test_properties_rounded_to_two_decimals_geometry_full_precision():
    track = Track(segments=[Segment(lat=[53.812345678], lon=[-2.456789012], ele=[80.123456])])
    record = assemble_record(candidate(), track, metrics(), description(), "UK", "GPS")
    properties = record_properties(record)
    assert properties["length_2d"] == 1234.57
    assert properties["length_3d"] == 1250.12
    assert properties["uphill"] == 55.56
    assert properties["downhill"] == 44.44
    assert json.loads(record.geometry)[0][0] == [-2.456789012, 53.812345678, 80.123456]
    feature = json.loads(record_json(record, feature=True))
    assert feature["geometry"]["coordinates"][0][0] == [-2.456789012, 53.812345678, 80.123456]


# --- dedup -----------------------------------------------------------------------

def row(url, crawl, digest):
    return {"url": url, "crawl_id": crawl, "content_hash": digest, "record": {"url": url}}


def test_dedup_same_url_two_crawls():
    rows = [row("http://a.example/t.gpx", "CC-MAIN-2024-10", "h2"),
            row("http://a.example/t.gpx", "CC-MAIN-2023-50", "h1")]
    survivors = dedup(rows)
    assert len(survivors) == 1
    assert survivors[0]["crawl_id"] == "CC-MAIN-2023-50"  # ascending (url, crawl)


def test_dedup_same_bytes_two_urls():
    rows = [row("http://b.example/t.gpx", "c", "same"),
            row("http://a.example/t.gpx", "c", "same")]
    survivors = dedup(rows)
    assert len(survivors) == 1
    assert survivors[0]["url"] == "http://a.example/t.gpx"


def test_dedup_distinct_rows_survive():
    rows = [row("http://a.example/1.gpx", "c", "h1"),
            row("http://a.example/2.gpx", "c", "h2")]
    assert len(dedup(rows)) == 2


def test_dedup_order_independent():
    rows = [row(f"http://x.example/{i}.gpx", f"crawl-{i % 3}", f"h{i % 7}")
            for i in range(20)]
    rng = random.Random(3)
    expected = dedup(rows)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert dedup(shuffled) == expected


def test_dedup_reports_counts():
    counts = {}
    rows = [row("http://a.example/t.gpx", "c1", "h1"),
            row("http://a.example/t.gpx", "c2", "h1"),
            row("http://b.example/t.gpx", "c1", "h1"),
            row("http://c.example/t.gpx", "c1", "h9")]
    survivors = dedup(rows, counts=counts)
    assert len(survivors) == 2
    assert counts == {"duplicate-url": 1, "duplicate-content": 1}


# --- export ----------------------------------------------------------------------

def sample_records():
    first = assemble_record(candidate(), two_segment_track(), metrics(),
                            description(), "United Kingdom", "GPS")
    other_candidate = CandidateRecord(url="http://b.example/loop.gpx", mime_detected="",
                                      warc_file="crawl-data/CC-MAIN-2024-10/w.warc.gz",
                                      warc_offset=9000, warc_len=500, crawl_id="CC-MAIN-2024-10")
    loop = Track(segments=[Segment(lat=[49.3, 49.31, 49.3], lon=[6.8, 6.81, 6.8],
                                   ele=[250.0, 251.0, 250.0])])
    second = assemble_record(other_candidate, loop, metrics(circular=True),
                             description(lang="de", text="Eine schöne Runde am Fluss entlang, "
                                                         "mit Blick über die alte Brücke."),
                             "Germany", "DEM")
    return [first, second]


def test_export_writes_three_formats(tmp_path):
    paths = export_records(sample_records(), tmp_path)
    collection = json.loads(paths["geojson"].read_text(encoding="utf-8"))
    assert collection["type"] == "FeatureCollection"
    assert len(collection["features"]) == 2
    for feature in collection["features"]:
        assert feature["geometry"]["type"] == "MultiLineString"
        assert set(feature["properties"]) == set(SCALAR_PROPERTIES)
        for line in feature["geometry"]["coordinates"]:
            assert all(len(position) == 3 for position in line)

    lines = paths["jsonl"].read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert all(set(json.loads(line)) == set(ALL_PROPERTIES) for line in lines)

    with open(paths["csv"], newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(SCALAR_PROPERTIES)
    assert len(rows) == 3  # header + 2 records


def test_export_keeps_previous_files_when_encoding_fails(tmp_path, monkeypatch):
    paths = export_records(sample_records(), tmp_path)
    before = {name: path.read_bytes() for name, path in paths.items()}

    encoded = []

    def fail_on_fourth_record(record, feature=False):
        if len(encoded) == 3:
            raise ValueError("encoding failed part-way through the re-export")
        encoded.append(record)
        return record_json(record, feature)

    # tracks.geojson is fully encoded by then; tracks.jsonl fails on its second line.
    monkeypatch.setattr(records_module, "record_json", fail_on_fourth_record)
    with pytest.raises(ValueError, match="part-way"):
        export_records(list(reversed(sample_records())), tmp_path)
    assert {name: path.read_bytes() for name, path in paths.items()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "tracks.csv", "tracks.geojson", "tracks.jsonl"]

def test_export_segment_count_maps_to_line_count(tmp_path):
    three_segments = Track(segments=[
        Segment(lat=[53.8, 53.8], lon=[-2.45, -2.44], ele=[80.0, 81.0]),
        Segment(lat=[53.81, 53.82], lon=[-2.44, -2.44], ele=[82.0, 83.0]),
        Segment(lat=[53.83], lon=[-2.44], ele=[84.0]),
    ])
    record = assemble_record(candidate(), three_segments, metrics(),
                             description(), "United Kingdom", "GPS")
    assert len(json.loads(record.geometry)) == 3
    paths = export_records([record], tmp_path)
    collection = json.loads(paths["geojson"].read_text(encoding="utf-8"))
    assert len(collection["features"][0]["geometry"]["coordinates"]) == 3


def test_export_deterministic_bytes(tmp_path):
    first_dir = tmp_path / "one"
    second_dir = tmp_path / "two"
    export_records(sample_records(), first_dir)
    export_records(sample_records(), second_dir)
    for name in ("tracks.geojson", "tracks.jsonl", "tracks.csv"):
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()


def test_export_contains_no_time_keys(tmp_path):
    paths = export_records(sample_records(), tmp_path)

    def key_names(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield key
                yield from key_names(value)
        elif isinstance(obj, list):
            for item in obj:
                yield from key_names(item)

    collection = json.loads(paths["geojson"].read_text(encoding="utf-8"))
    assert "time" not in set(key_names(collection))
    assert "time" not in paths["csv"].read_text(encoding="utf-8")


def test_exported_descriptions_keep_unicode(tmp_path):
    paths = export_records(sample_records(), tmp_path)
    text = paths["jsonl"].read_text(encoding="utf-8")
    assert "Eine schöne Runde" in text  # not escaped to ö


# --- export bytes against the dict-based encoding ------------------------------------
# The reference is the former encoder: whole dicts with the coordinates as nested
# lists, each passed to one json.dumps.

def reference_feature(record, coordinates):
    return {
        "type": "Feature",
        "properties": record_properties(record),
        "geometry": {"type": "MultiLineString", "coordinates": coordinates},
    }


def reference_json_obj(record, coordinates):
    obj = record_properties(record)
    obj["geometry"] = {"type": "MultiLineString", "coordinates": coordinates}
    return obj


_NUMBERS = st.one_of(st.sampled_from([-0.0, 0.0, 1e-7, -1e-7, 123456.789012345, 5e-324]),
                     st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
_POINTS = st.tuples(_NUMBERS, _NUMBERS, _NUMBERS)
_TEXT = st.text(st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u2028", "ö", "日"]),
                          st.characters(blacklist_categories=("Cs",))), min_size=1, max_size=40)


@st.composite
def _records(draw):
    """An assembled record and its coordinates as the nested lists export used to take."""
    segments = draw(st.lists(st.lists(_POINTS, min_size=1, max_size=4), min_size=1, max_size=3))
    track = Track(segments=[Segment(lat=[p[1] for p in points], lon=[p[0] for p in points],
                                    ele=[p[2] for p in points]) for points in segments])
    desc = CleanDescription(text=draw(_TEXT), lang=draw(st.sampled_from(["en", "de", "ja"])),
                            text_en=draw(_TEXT), pii=PiiFlags())
    values = [draw(_NUMBERS) for _ in range(6)]
    track_metrics = TrackMetrics(length_2d=values[0], length_3d=values[1],
                                 elev_highest=values[2], elev_lowest=values[3],
                                 uphill=values[4], downhill=values[5],
                                 is_circular=draw(st.booleans()))
    record = assemble_record(candidate(), track, track_metrics, desc, draw(_TEXT),
                             draw(st.sampled_from(["GPS", "DEM"])))
    return record, [[list(point) for point in points] for points in segments]


@settings(max_examples=100, deadline=None)
@given(st.lists(_records(), max_size=3))
def test_export_bytes_equal_the_dict_based_encoding(drawn):
    collection = {"type": "FeatureCollection",
                  "features": [reference_feature(r, coords) for r, coords in drawn]}
    jsonl = "".join(json.dumps(reference_json_obj(r, coords), ensure_ascii=False) + "\n"
                    for r, coords in drawn)
    with tempfile.TemporaryDirectory() as out_dir:
        paths = export_records([record for record, _ in drawn], out_dir)
        assert paths["geojson"].read_bytes() == json.dumps(
            collection, ensure_ascii=False).encode("utf-8")
        assert paths["jsonl"].read_bytes() == jsonl.encode("utf-8")

