import csv
import io
import json
import math
import random
import sys
import tempfile
import types

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpx_harvest import records as records_module
from gpx_harvest.cli import main
from gpx_harvest.config import FilterConfig
from gpx_harvest.geo_metrics import EARTH_RADIUS_M
from gpx_harvest.gpx_model import Track
from gpx_harvest.records import (ALL_PROPERTIES, SCALAR_PROPERTIES, RecordAssemblyError,
                                 coordinates_text, dedup, encode_record, export_records,
                                 record_properties, track_exclusion)
from gpx_harvest.synthetic import build_demo_crawl

CONFIG = FilterConfig()


def make_track(point_count=10, spacing_m=100.0):
    step = math.degrees(spacing_m / EARTH_RADIUS_M)
    return Track(lat=[0.0] * point_count, lon=[i * step for i in range(point_count)],
                 ele=[100.0 + i for i in range(point_count)], desc="d")


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
    why = track_exclusion(track, length, CONFIG)
    assert (why is None, why) == (expected, reason)


def test_density_boundary_one_point_per_100m():
    assert track_exclusion(make_track(point_count=10), 1000.0, CONFIG) is None
    assert track_exclusion(make_track(point_count=9), 1000.0, CONFIG) == "low-density"


def test_filters_report_first_failed_rule():
    # a 400 m track with terrible density still reports too-short first
    assert track_exclusion(make_track(point_count=1), 400.0, CONFIG) == "too-short"


def test_realistic_track_against_filters():
    track = make_track(point_count=500, spacing_m=24.2)
    from gpx_harvest.geo_metrics import length_2d
    length = length_2d(track)
    assert 12_000 < length < 12_200  # about the typical mid-range activity
    why = track_exclusion(track, length, CONFIG)
    assert why is None, why


# --- records ---------------------------------------------------------------------

def record(track, url="http://a.example/t.gpx", warc_offset=3215, warc_len=1091,
           country="United Kingdom", lang="en", text=None, elev_source="GPS", circular=False):
    """An export record as metrics builds it: the scalars in order, plus the
    track's coordinates text."""
    text = text or "A fine walk over the moor with wide views of the valley below."
    return {"url": url, "warc_file": "crawl-data/CC-MAIN-2024-10/w.warc.gz",
            "warc_offset": warc_offset, "warc_len": warc_len, "country": country,
            "desc": text, "desc_lang": lang,
            "desc_en": text if lang == "en" else f"[{lang}->en] {text}",
            "elev_source": elev_source, "elev_highest": 200.0, "elev_lowest": 100.0,
            "uphill": 55.557, "downhill": 44.444, "length_2d": 1234.5678,
            "length_3d": 1250.1234, "is_circular": circular,
            "geometry": coordinates_text(track, url)}


def two_segment_track():
    return Track(lat=[53.8, 53.8, 53.81], lon=[-2.45, -2.44, -2.44], ele=[80.0, 81.0, 82.0],
                 segment_lengths=[2, 1], desc="d")


def test_coordinates_text_lists_lon_lat_ele_per_segment():
    assert json.loads(coordinates_text(two_segment_track(), "http://a.example/t.gpx")) == [
        [[-2.45, 53.8, 80.0], [-2.44, 53.8, 81.0]], [[-2.44, 53.81, 82.0]]]


def test_coordinates_text_rejects_missing_elevation():
    track = Track(lat=[53.8], lon=[-2.45])
    with pytest.raises(RecordAssemblyError, match="elevation in http://a.example/t.gpx"):
        coordinates_text(track, "http://a.example/t.gpx")


def json_dumps_coordinates(track):
    """The reference bytes: ``json.dumps`` of each segment's [lon, lat, ele]
    lists, encoded."""
    points = np.column_stack((track.lon, track.lat, track.ele))
    ends = np.cumsum(track.segment_lengths).tolist()
    return json.dumps([points[end - length:end].tolist()
                       for end, length in zip(ends, track.segment_lengths)]).encode()


@pytest.fixture
def fast_path_calls(monkeypatch):
    """Each value ``coordinates_text`` hands orjson, in call order: a track
    it writes through ``json.dumps`` adds nothing."""
    calls = []

    def dumps(value, option=None):
        calls.append(value)
        return orjson.dumps(value, option=option)
    monkeypatch.setattr(records_module, "orjson", types.SimpleNamespace(
        dumps=dumps, OPT_SERIALIZE_NUMPY=orjson.OPT_SERIALIZE_NUMPY))
    return calls


# The edges of the range where repr writes a float without an exponent, and
# whether orjson may write the track.  Each value sits in one point of a
# two-point track whose other values are ordinary coordinates.
_EDGES = {
    "lower-bound": (1e-4, True),
    "below-lower-bound": (float(np.nextafter(1e-4, 0)), False),
    "below-upper-bound": (float(np.nextafter(1e16, 0)), True),
    "upper-bound": (1e16, False),
    "smallest-subnormal": (5e-324, False),
    "negative-zero": (-0.0, True),
    "zero": (0.0, True),
    "1e-5": (0.00001, False),
    "negative-below-lower-bound": (-float(np.nextafter(1e-4, 0)), False),
    "negative-lower-bound": (-1e-4, True),
    "huge": (1e300, False),
}


@pytest.mark.parametrize("axis", ["lon", "lat", "ele"])
@pytest.mark.parametrize("value, fast", _EDGES.values(), ids=_EDGES)
def test_coordinates_text_matches_json_dumps_at_the_edges_of_the_fast_range(
        fast_path_calls, axis, value, fast):
    columns = {"lat": [53.8, 53.81], "lon": [-2.45, -2.44], "ele": [80.0, 81.5]}
    columns[axis][1] = value
    track = Track(**columns, segment_lengths=[1, 1])
    assert coordinates_text(track, "http://a.example/t.gpx") == json_dumps_coordinates(track)
    assert len(fast_path_calls) == fast


def test_coordinates_text_of_a_track_without_segments(fast_path_calls):
    assert coordinates_text(Track(lat=[], lon=[], ele=[]), "u") == b"[]"
    assert fast_path_calls == [[]]


def test_coordinates_text_matches_repr_on_many_values_in_the_fast_range(fast_path_calls):
    rng = np.random.default_rng(305)
    # Random magnitudes spread evenly over the exponents of the range.
    spread = 10.0 ** rng.uniform(-4, 16, 30_000)
    # GPS-style values: degrees and metres rounded to 5–7 and 1–2 decimals.
    degrees = [np.round(rng.uniform(-180, 180, 10_000), places) for places in (5, 6, 7)]
    metres = [np.round(rng.uniform(-430, 8850, 10_000), places) for places in (1, 2)]
    # Powers of two inside the range, and one ulp either side of each.
    powers = np.ldexp(1.0, np.arange(-13, 53))
    powers = np.concatenate((powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)))
    values = np.concatenate((spread, -spread, *degrees, *metres, powers, -powers, [1e-4]))
    values = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
    values = np.resize(values, 3 * (len(values) // 3 + 1))
    lat, lon, ele = values.reshape(3, -1)
    track = Track(lat=lat, lon=lon, ele=ele)
    assert coordinates_text(track, "u") == json_dumps_coordinates(track)
    assert len(fast_path_calls) == 1


@st.composite
def tracks_of_finite_values(draw):
    """1–4 segments of finite float64 values: any finite value, subnormals,
    ±0.0 and huge values included, or only values orjson may write."""
    values = draw(st.sampled_from([
        st.floats(allow_nan=False, allow_infinity=False),
        st.one_of(st.floats(1e-4, 1e16, exclude_max=True),
                  st.floats(-1e16, -1e-4, exclude_min=True), st.sampled_from([0.0, -0.0])),
    ]))
    points = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(1, points - 1), max_size=3))) if points > 1 else []
    lat, lon, ele = (draw(st.lists(values, min_size=points, max_size=points)) for _ in range(3))
    return Track(lat=lat, lon=lon, ele=ele,
                 segment_lengths=np.diff([0, *cuts, points]).tolist())


@settings(max_examples=300, deadline=None)
@given(tracks_of_finite_values())
def test_coordinates_text_is_json_dumps_of_every_finite_track(track):
    assert coordinates_text(track, "http://a.example/t.gpx") == json_dumps_coordinates(track)


def test_properties_rounded_to_two_decimals_geometry_full_precision(tmp_path):
    track = Track(lat=[53.812345678], lon=[-2.456789012], ele=[80.123456])
    full = record(track)
    properties = record_properties(full)
    assert list(properties) == list(SCALAR_PROPERTIES)
    assert properties["length_2d"] == 1234.57
    assert properties["length_3d"] == 1250.12
    assert properties["uphill"] == 55.56
    assert properties["downhill"] == 44.44
    assert json.loads(full["geometry"])[0][0] == [-2.456789012, 53.812345678, 80.123456]
    assert json.loads(encode_record(full)[0]) == properties
    feature = json.loads(export_records([full], tmp_path)["geojson"].read_bytes())["features"][0]
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
    loop = Track(lat=[49.3, 49.31, 49.3], lon=[6.8, 6.81, 6.8], ele=[250.0, 251.0, 250.0])
    second = record(loop, url="http://b.example/loop.gpx", warc_offset=9000, warc_len=500,
                    country="Germany", lang="de", elev_source="DEM", circular=True,
                    text="Eine schöne Runde am Fluss entlang, mit Blick über die alte Brücke.")
    return [record(two_segment_track()), second]


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

    def fail_on_second_record(one):
        if len(encoded) == 1:
            raise ValueError("encoding failed part-way through the re-export")
        encoded.append(one)
        return encode_record(one)

    # The first record is already in all three temp files by then.
    monkeypatch.setattr(records_module, "encode_record", fail_on_second_record)
    with pytest.raises(ValueError, match="part-way"):
        export_records(list(reversed(sample_records())), tmp_path)
    assert {name: path.read_bytes() for name, path in paths.items()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "tracks.csv", "tracks.geojson", "tracks.jsonl"]

def test_export_segment_count_maps_to_line_count(tmp_path):
    three_segments = Track(lat=[53.8, 53.8, 53.81, 53.82, 53.83],
                           lon=[-2.45, -2.44, -2.44, -2.44, -2.44],
                           ele=[80.0, 81.0, 82.0, 83.0, 84.0], segment_lengths=[2, 2, 1])
    one = record(three_segments)
    assert len(json.loads(one["geometry"])) == 3
    paths = export_records([one], tmp_path)
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

def reference_feature(one, coordinates):
    return {
        "type": "Feature",
        "properties": record_properties(one),
        "geometry": {"type": "MultiLineString", "coordinates": coordinates},
    }


def reference_json_obj(one, coordinates):
    obj = record_properties(one)
    obj["geometry"] = {"type": "MultiLineString", "coordinates": coordinates}
    return obj


_NUMBERS = st.one_of(st.sampled_from([-0.0, 0.0, 1e-7, -1e-7, 123456.789012345, 5e-324]),
                     st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
_POINTS = st.tuples(_NUMBERS, _NUMBERS, _NUMBERS)
_SPECIAL_CHARACTERS = [",", '"', "\\", "\x00", "\x1f", "\t", "\n", "\r", " ", "\u2028", "ö", "日"]
_SCALARS = [None, True, False, 0, -0.0, 5e-324, 1e16, 2 ** 63 - 1]
_TEXT = st.text(st.one_of(st.sampled_from(_SPECIAL_CHARACTERS),
                          st.characters(blacklist_categories=("Cs",))), min_size=1, max_size=40)


@st.composite
def _records(draw):
    """A record as metrics builds it and its coordinates as the nested lists
    export used to take."""
    segments = draw(st.lists(st.lists(_POINTS, min_size=1, max_size=4), min_size=1, max_size=3))
    flat = [point for line in segments for point in line]
    track = Track(lat=[p[1] for p in flat], lon=[p[0] for p in flat],
                  ele=[p[2] for p in flat], segment_lengths=[len(line) for line in segments])
    drawn = record(track, url=draw(_TEXT), warc_offset=draw(st.integers(0, 2 ** 63 - 1)),
                   country=draw(_TEXT), elev_source=draw(st.sampled_from(["GPS", "DEM"])),
                   circular=draw(st.booleans()))
    # Metrics writes only strings for desc_en; the other scalars check the
    # CSV's rule for values that are not strings.
    drawn.update(desc=draw(_TEXT), desc_lang=draw(st.sampled_from(["en", "de", "ja"])),
                 desc_en=draw(st.one_of(_TEXT, st.sampled_from(_SCALARS))))
    for name in ("length_2d", "length_3d", "elev_highest", "elev_lowest", "uphill", "downhill"):
        drawn[name] = draw(_NUMBERS)
    return drawn, [[list(point) for point in points] for points in segments]


# Python 3.10's csv refuses a NUL, so the reference hands csv an unused
# ordinary character in its place and puts the NUL back.  A CR is quoted as
# Python 3.13 quotes it: with "\r\n" as the line terminator every version's
# csv quotes a field holding a CR or a LF, and each row's terminator is then
# cut back to "\n".  Both give 3.13's bytes on every version.
def reference_csv(records):
    """``tracks.csv`` as ``csv.writer`` writes the records' properties on
    Python 3.13."""
    rows = [record_properties(one) for one in records]
    used = {char for row in rows for value in row.values() if type(value) is str
            for char in value}
    stand_in = next(chr(code) for code in range(0xE000, 0xF900) if chr(code) not in used)
    lines = []
    for values in [list(SCALAR_PROPERTIES), *(row.values() for row in rows)]:
        handle = io.StringIO(newline="")
        csv.writer(handle, lineterminator="\r\n").writerow(
            value.replace("\x00", stand_in) if type(value) is str else value
            for value in values)
        lines.append(handle.getvalue().removesuffix("\r\n").replace(stand_in, "\x00") + "\n")
    return "".join(lines).encode("utf-8")


def _edge_records():
    """One record per field value at the edges of CSV quoting, in ``country``
    and ``desc_en``, with the coordinates of ``two_segment_track``."""
    coordinates = [[[-2.45, 53.8, 80.0], [-2.44, 53.8, 81.0]], [[-2.44, 53.81, 82.0]]]
    values = [*_SPECIAL_CHARACTERS, *_SCALARS, "a,b", 'say "hi"', "two\nlines", "cr\ronly",
              "\x00nul", " lead", "trail ", "", "Grüße, 日本"]
    return [({**record(two_segment_track()), "country": value, "desc_en": value}, coordinates)
            for value in values]


@settings(max_examples=100, deadline=None)
@given(st.lists(_records(), max_size=3))
@example(_edge_records())
def test_export_bytes_equal_the_dict_based_encoding(drawn):
    collection = {"type": "FeatureCollection",
                  "features": [reference_feature(r, coords) for r, coords in drawn]}
    jsonl = "".join(json.dumps(reference_json_obj(r, coords), ensure_ascii=False) + "\n"
                    for r, coords in drawn)
    with tempfile.TemporaryDirectory() as out_dir:
        paths = export_records([one for one, _ in drawn], out_dir)
        assert paths["geojson"].read_bytes() == json.dumps(
            collection, ensure_ascii=False).encode("utf-8")
        assert paths["jsonl"].read_bytes() == jsonl.encode("utf-8")
        assert paths["csv"].read_bytes() == reference_csv([one for one, _ in drawn])



def test_a_url_holding_a_cr_reads_back_from_the_csv_as_one_row(tmp_path):
    # An index URL may hold a CR; unquoted, a CSV reader would split its row.
    url = "http://a.example/x\r.gpx"
    paths = export_records([record(two_segment_track(), url=url)], tmp_path)
    with open(paths["csv"], encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2
    assert rows[0] == list(SCALAR_PROPERTIES)
    assert rows[1][0] == url
    assert paths["csv"].read_bytes().split(b"\n")[1].startswith(b'"http://a.example/x\r.gpx",')


# --- properties written without json.dumps -----------------------------------------

def test_every_code_point_is_escaped_as_json_dumps_escapes_it():
    # Every code point but the surrogates, each between two ASCII letters, and
    # then all of them in one long text, which orjson may escape in bulk.
    texts = ["a" + chr(code) + "b" for code in range(sys.maxunicode + 1)
             if not 0xD800 <= code <= 0xDFFF]
    mismatched = [hex(ord(text[1])) for text in texts if records_module._value_text(text)
                  != json.dumps(text, ensure_ascii=False).encode()]
    assert mismatched == []
    whole = "".join(texts)
    assert records_module._value_text(whole) == json.dumps(whole, ensure_ascii=False).encode()


class _Text(str):
    pass


def _outcome(encode):
    """What ``encode()`` returns, or the type and message of what it raises."""
    try:
        return encode()
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


# (property, value): values at the edges of each JSON writer, in a text, a
# rounded and an unrounded number property.  The unrounded ones reach the
# writer as they are; a type outside str, int, float, bool and None, a lone
# surrogate and an int past Python's digit limit take json.dumps.
_VALUE_EDGES = [
    ("country", None), ("desc_en", None),
    *[(name, value) for name in ("length_2d", "warc_len")
      for value in (-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf"))],
    ("warc_offset", 2 ** 63 - 1), ("warc_offset", 2 ** 64), ("warc_offset", -(10 ** 30)),
    ("desc", _Text("a str subclass, with \"quotes\"")), ("warc_len", np.float64(1.5)),
    ("elev_highest", np.float64(1.5)), ("desc", "lone \ud800 surrogate"),
    ("warc_offset", 10 ** 5000), ("desc_en", ["a", 1]),
]


def _value_id(value):
    try:
        return repr(value)[:30]
    except ValueError:  # an int past Python's digit limit
        return "int-past-the-digit-limit"


@pytest.mark.parametrize("name, value", _VALUE_EDGES, ids=_value_id)
def test_encode_record_writes_what_json_dumps_writes_at_the_edges(name, value):
    one = {**record(two_segment_track()), name: value}
    assert _outcome(lambda: encode_record(one)[0]) == _outcome(
        lambda: json.dumps(record_properties(one), ensure_ascii=False).encode())


def test_an_ordinary_record_is_written_without_json_dumps(monkeypatch):
    expected = [encode_record(one) for one in sample_records()]

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")
    monkeypatch.setattr(records_module, "json", types.SimpleNamespace(dumps=refuse))
    assert [encode_record(one) for one in sample_records()] == expected


def test_a_final_row_whose_desc_holds_a_lone_surrogate_stops_export_on_one_line(tmp_path,
                                                                                capsys):
    # orjson refuses the escape where export reads final.jsonl, so no stage
    # file can hand encode_record a lone surrogate.
    crawl = build_demo_crawl(tmp_path / "crawl")
    workdir = tmp_path / "w"
    assert main(["run", "--config", str(crawl.config), "--workdir", str(workdir)]) == 0
    final = workdir / "final.jsonl"
    lines = final.read_bytes().splitlines()
    row = json.loads(lines[-1])
    row["record"]["desc"] = "lone \ud800 surrogate"
    lines[-1] = json.dumps(row).encode()
    assert b"\\ud800" in lines[-1]
    final.write_bytes(b"\n".join(lines) + b"\n")
    out_dir = workdir / "out"
    exports = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    capsys.readouterr()

    assert main(["export", "--config", str(crawl.config), "--workdir", str(workdir)]) == 1
    assert capsys.readouterr().err == (f"error: stage export: {final} line {len(lines)} "
                                       "is not a JSON object; run metrics again\n")
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == exports
