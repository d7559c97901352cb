"""Acceptance suite: one test per release criterion, run at the stated
tolerances.  The terminal summary prints one PASS/FAIL line per criterion."""

import json
import math
import random
import time

import numpy as np
import pytest

from conftest import network_guard_active
from gpx_harvest.config import FilterConfig, load_config
from gpx_harvest.descriptions import common_languages, find_raw_pii, length_exclusion, mask_pii
from gpx_harvest.elevation import (VOID_VALUE, SrtmTile, read_hgt, sample_elevation,
                                   write_hgt)
from gpx_harvest.geo_metrics import (EARTH_RADIUS_M, compute_track_metrics, haversine_m,
                                     is_circular, point_in_polygon)
from gpx_harvest.gpx_model import Track
from gpx_harvest.judges import (PII_PROMPT_TEMPLATE, QUALITY_PROMPT_TEMPLATE,
                                judge_pii, judge_quality, parse_verdict)
from gpx_harvest.pipeline import run_pipeline
from gpx_harvest.records import ALL_PROPERTIES, SCALAR_PROPERTIES, dedup, track_exclusion
from gpx_harvest.synthetic import build_demo_crawl, warc_response_member
from gpx_harvest.warc_fetch import build_range_header, extract_payload

CONFIG = FilterConfig()


def equator_track(*meter_marks, ele=None):
    lon = [math.degrees(m / EARTH_RADIUS_M) for m in meter_marks]
    return Track(lat=[0.0] * len(lon), lon=lon, ele=[ele] * len(lon))


def test_c01_end_to_end_golden_run(tmp_path):
    crawl = build_demo_crawl(tmp_path / "crawl")
    started = time.monotonic()

    outputs = []
    for name in ("w1", "w2"):
        cfg = load_config(crawl.config)
        cfg.workdir = tmp_path / name
        cfg.out_dir = None
        stats = run_pipeline(cfg)

        assert stats.records() == 2
        exclusions = stats.exclusions()
        assert exclusions.get("multi-track") == 1
        assert exclusions.get("too-short") == 1
        assert exclusions.get("low-density") == 1
        assert exclusions.get("desc-too-short") == 1
        outputs.append({artifact: (cfg.resolved_out_dir() / artifact).read_bytes()
                        for artifact in ("tracks.geojson", "tracks.jsonl", "tracks.csv")})

    assert outputs[0] == outputs[1], "repeated runs differ"
    assert time.monotonic() - started < 10.0


def test_c02_range_header_exact_and_property():
    assert build_range_header(3215, 1091) == "bytes=3215-4305"
    rng = random.Random(2)
    for _ in range(1000):
        offset = rng.randrange(0, 2**40)
        length = rng.randrange(1, 2**31)
        start, end = map(int, build_range_header(offset, length)
                         .removeprefix("bytes=").split("-"))
        assert end - start + 1 == length


def test_c03_warc_round_trip_50_random_payloads():
    rng = random.Random(3)
    for _ in range(50):
        payload = rng.randbytes(rng.randrange(1, 8192))
        member = warc_response_member("http://t.example/x.gpx", payload)
        assert extract_payload(member) == payload


def test_c04_geodesic_accuracy_and_metric_properties():
    oracle = EARTH_RADIUS_M * math.pi / 180.0
    one_degree = haversine_m(0.0, 0.0, 0.0, 1.0)
    assert abs(one_degree - 111_194.93) <= 0.01
    assert one_degree == pytest.approx(oracle, abs=1e-9)

    rng = random.Random(4)
    for _ in range(1000):
        a = (rng.uniform(-89, 89), rng.uniform(-180, 180))
        b = (rng.uniform(-89, 89), rng.uniform(-180, 180))
        c = (rng.uniform(-89, 89), rng.uniform(-180, 180))
        ab = haversine_m(*a, *b)
        assert ab == pytest.approx(haversine_m(*b, *a), rel=1e-12)
        assert ab <= haversine_m(*a, *c) + haversine_m(*c, *b) + 1e-6


def test_c05_three_four_five():
    delta = math.degrees(300.0 / EARTH_RADIUS_M)
    track = Track(lat=[0.0, 0.0], lon=[0.0, delta], ele=[0.0, 400.0])
    metrics = compute_track_metrics(track, circular_radius_m=CONFIG.circular_radius_m,
                                    deadband_m=CONFIG.elev_deadband_m)
    assert metrics.length_3d == pytest.approx(500.0, rel=1e-6)


def test_c06_srtm_sampling_and_round_trip(tmp_path):
    n = 1201
    step = 1.0 / (n - 1)
    grid = np.zeros((n, n), dtype=np.int16)
    grid[0, 0], grid[0, 1], grid[1, 0], grid[1, 1] = 100, 100, 200, 200
    grid[5, 5] = 1234
    tile = SrtmTile(sw_lat=10, sw_lon=20, n=n, samples=grid)

    assert sample_elevation(tile, 11.0 - 5 * step, 20.0 + 5 * step) == 1234.0
    midpoint = sample_elevation(tile, 11.0 - step / 2, 20.0 + step / 2)
    assert midpoint == pytest.approx(150.0, abs=1e-9)

    void_tile = SrtmTile(sw_lat=10, sw_lon=20, n=n,
                         samples=np.full((n, n), VOID_VALUE, dtype=np.int16))
    assert sample_elevation(void_tile, 10.5, 20.5) is None

    rng = np.random.default_rng(6)
    noisy = rng.integers(-400, 4000, size=(n, n)).astype(np.int16)
    path = tmp_path / "N10E020.hgt"
    write_hgt(path, noisy)
    assert np.array_equal(read_hgt(path).rows(0, n), noisy)
    rewritten = tmp_path / "again.hgt"
    write_hgt(rewritten, read_hgt(path).rows(0, n))
    assert rewritten.read_bytes() == path.read_bytes()


def test_c07_filter_thresholds_at_boundaries():
    dense = Track(lat=[0.0] * 2000, lon=[0.0] * 2000)
    assert track_exclusion(dense, 500.0, CONFIG) is None
    assert track_exclusion(dense, 100_000.0, CONFIG) is None
    assert track_exclusion(dense, 499.0, CONFIG) == "too-short"
    assert track_exclusion(dense, 100_001.0, CONFIG) == "too-long"

    ten = Track(lat=[0.0] * 10, lon=[0.0] * 10)
    nine = Track(lat=[0.0] * 9, lon=[0.0] * 9)
    assert track_exclusion(ten, 1000.0, CONFIG) is None
    assert track_exclusion(nine, 1000.0, CONFIG) == "low-density"

    assert length_exclusion("d" * 50, CONFIG) is None
    assert length_exclusion("d" * 49, CONFIG) == "desc-too-short"
    assert length_exclusion("d" * 1999, CONFIG) is None
    assert length_exclusion("d" * 2000, CONFIG) == "desc-too-long"

    # circularity endpoints via inverse displacement, verified by the oracle
    for meters, expected in ((349.0, True), (351.0, False)):
        end = math.degrees(meters / EARTH_RADIUS_M)
        assert haversine_m(0.0, 0.0, 0.0, end) == pytest.approx(meters, abs=1e-6)
        track = Track(lat=[0.0, 0.0], lon=[0.0, end])
        assert is_circular(track, radius_m=CONFIG.circular_radius_m) is expected


PII_TABLE = [
    ("contact: jo@hill.example", "contact: <EMAIL>"),
    ("first.last+tag@sub.domain.example!", "<EMAIL>!"),
    ("ops-team%x@a-b.example", "<EMAIL>"),
    ("docs at https://example.org/a/b?x=1", "docs at <URL>"),
    ("ftp://files.example/data.zip", "<URL>"),
    ("(http://example.org/map)", "(<URL>)"),
    ("try www.example.org.", "try <URL>."),
    ("www.foo.example/path/page", "<URL>"),
    ("+44 20 7946 0958", "<TELEPHONE>"),
    ("(555) 123-4567", "<TELEPHONE>"),
    ("555-123-4567 anytime", "<TELEPHONE> anytime"),
    ("555.123.4567", "<TELEPHONE>"),
    ("call 020 7946 0958", "call <TELEPHONE>"),
    ("+15551234567", "<TELEPHONE>"),
    ("ring 1234567", "ring <TELEPHONE>"),
    ("at 51.5074, -0.1278 by the gate", "at 51.5074, -0.1278 by the gate"),
    ("lat 51.5074 was noted", "lat 51.5074 was noted"),
    ("the 2024 season", "the 2024 season"),
    ("about 100 000 visitors a year", "about 100 000 visitors a year"),
    ("serial 1234567890123456 on the post", "serial 1234567890123456 on the post"),
]


def test_c08_pii_masking_suite():
    assert len(PII_TABLE) == 20
    for raw, expected in PII_TABLE:
        masked, _ = mask_pii(raw)
        assert masked == expected, raw
        assert find_raw_pii(masked) == [], raw
        again, _ = mask_pii(masked)
        assert again == masked, raw


def test_c09_judge_prompt_protocol():
    captured = []

    def make_judge(reply):
        def judge(prompt):
            captured.append(prompt)
            return reply
        return judge

    text = "Forest loop with a steady climb and a long ridge with open views."
    assert judge_quality(text, make_judge("True")) is True
    assert captured[-1] == QUALITY_PROMPT_TEMPLATE.format(text=text)
    assert judge_pii(text, make_judge("False")) is False
    assert captured[-1] == PII_PROMPT_TEMPLATE.format(text=text)

    assert parse_verdict("True", unsure=False) is True
    assert parse_verdict("true, because it names the route and the views",
                         unsure=False) is True
    # unparsable replies fall to the conservative side of each check
    assert judge_quality(text, make_judge("banana")) is False
    assert judge_pii(text, make_judge("banana")) is True


def test_c10_rare_language_filter():
    from collections import Counter
    counts = Counter(["fr"] * 7 + ["eo"] * 5 + ["unknown"])
    assert common_languages(counts, CONFIG.rare_lang_cutoff) == {"fr"}


def test_c11_export_schema(tmp_path):
    crawl = build_demo_crawl(tmp_path / "crawl")
    cfg = load_config(crawl.config)
    run_pipeline(cfg)
    out_dir = cfg.resolved_out_dir()

    def key_names(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield key
                yield from key_names(value)
        elif isinstance(obj, list):
            for item in obj:
                yield from key_names(item)

    collection = json.loads((out_dir / "tracks.geojson").read_text("utf-8"))
    assert len(collection["features"]) == 2
    for feature in collection["features"]:
        assert set(feature["properties"]) == set(SCALAR_PROPERTIES)
        assert feature["geometry"]["type"] == "MultiLineString"
        for line in feature["geometry"]["coordinates"]:
            assert all(len(position) == 3 for position in line)

    for line in (out_dir / "tracks.jsonl").read_text("utf-8").splitlines():
        assert set(json.loads(line)) == set(ALL_PROPERTIES)

    all_keys = set(key_names(collection))
    all_keys |= {k for line in (out_dir / "tracks.jsonl").read_text("utf-8").splitlines()
                 for k in key_names(json.loads(line))}
    assert "time" not in all_keys
    header = (out_dir / "tracks.csv").read_text("utf-8").splitlines()[0]
    assert header.split(",") == list(SCALAR_PROPERTIES)


def test_c12_dedup_fixtures():
    same_url = [{"url": "http://a.example/t.gpx", "crawl_id": "CC-MAIN-2024-10",
                 "content_hash": "h2"},
                {"url": "http://a.example/t.gpx", "crawl_id": "CC-MAIN-2023-50",
                 "content_hash": "h1"}]
    survivors = dedup(same_url)
    assert len(survivors) == 1
    assert survivors[0]["crawl_id"] == "CC-MAIN-2023-50"

    same_bytes = [{"url": "http://b.example/t.gpx", "crawl_id": "c", "content_hash": "x"},
                  {"url": "http://a.example/t.gpx", "crawl_id": "c", "content_hash": "x"}]
    survivors = dedup(same_bytes)
    assert len(survivors) == 1
    assert survivors[0]["url"] == "http://a.example/t.gpx"

    assert dedup(list(reversed(same_bytes))) == survivors  # order-independent


def test_c13_point_in_polygon_oracle_agreement():
    rng = random.Random(13)

    def star(center, count):
        cx, cy = center
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(count))
        ring = [(cx + rng.uniform(1.0, 2.0) * math.cos(a),
                 cy + rng.uniform(1.0, 2.0) * math.sin(a)) for a in angles]
        return ring + [ring[0]]

    def winding(px, py, ring):
        total = 0.0
        for i in range(len(ring) - 1):
            x1, y1 = ring[i][0] - px, ring[i][1] - py
            x2, y2 = ring[i + 1][0] - px, ring[i + 1][1] - py
            total += math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
        return total / (2 * math.pi)

    checked = 0
    for _ in range(10):
        ring = star((rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.randrange(5, 14))
        for _ in range(100):
            px, py = rng.uniform(-4, 4), rng.uniform(-4, 4)
            w = winding(px, py, ring)
            if 0.01 < abs(w) < 0.99:
                continue
            checked += 1
            assert point_in_polygon(px, py, [ring]) == (abs(w) > 0.5)
    assert checked >= 900

    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    hole = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75), (0.25, 0.25)]
    assert not point_in_polygon(0.5, 0.5, [square, hole])
    assert point_in_polygon(0.1, 0.5, [square, hole])


def test_c14_offline_operation():
    # the session-wide guard fails any socket connect attempt; with it active,
    # a green suite demonstrates the pipeline and tests never touch the network
    assert network_guard_active()
