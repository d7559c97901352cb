import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest.config import FilterConfig
from gpx_harvest.geo_metrics import (EARTH_RADIUS_M, BoundaryFileError, compute_track_metrics,
                                     elevation_stats, find_countries, first_point_countries,
                                     haversine_m, is_circular, leg_lengths, length_2d,
                                     load_boundaries, pick_country, point_in_polygon)
from gpx_harvest.gpx_model import Track
from gpx_harvest.records import coordinates_text

FILTERS = FilterConfig()


def metrics_of(track):
    """``compute_track_metrics`` with the default thresholds, as the pipeline calls it."""
    return compute_track_metrics(track, circular_radius_m=FILTERS.circular_radius_m,
                                 deadband_m=FILTERS.elev_deadband_m)


def track_from(*segments):
    """A track of the given segments' points, empty segments left out as parse does."""
    points = [p for seg in segments for p in seg]
    return Track(lat=[p[0] for p in points], lon=[p[1] for p in points],
                 ele=[p[2] if len(p) > 2 else None for p in points],
                 segment_lengths=[len(seg) for seg in segments if seg])


def equator_offset_deg(meters):
    """Longitude degrees spanning `meters` along the equator (inverse displacement)."""
    return math.degrees(meters / EARTH_RADIUS_M)


# --- haversine ----------------------------------------------------------------

def test_haversine_zero_for_identical_points():
    assert haversine_m(48.85, 2.35, 48.85, 2.35) == 0.0


def test_haversine_one_degree_of_arc():
    # independent arithmetic oracle: R * pi / 180
    oracle = EARTH_RADIUS_M * math.pi / 180.0
    value = haversine_m(0.0, 0.0, 0.0, 1.0)
    assert value == pytest.approx(oracle, abs=1e-9)
    assert abs(value - 111_194.93) <= 0.01


def test_haversine_symmetry_random_pairs():
    rng = random.Random(7)
    for _ in range(100):
        lat1, lon1 = rng.uniform(-89, 89), rng.uniform(-180, 180)
        lat2, lon2 = rng.uniform(-89, 89), rng.uniform(-180, 180)
        assert haversine_m(lat1, lon1, lat2, lon2) == pytest.approx(
            haversine_m(lat2, lon2, lat1, lon1), rel=1e-12)


# --- vectorized leg kernel against the scalar oracle ---------------------------

_SPECIAL_POINTS = [(90.0, 0.0), (-90.0, 135.0), (90.0, -60.0),  # poles
                   (0.0, 180.0), (0.0, -180.0), (12.5, 179.9999), (12.5, -179.9999),
                   (-33.0, 180.0), (-33.0, -179.5)]  # either side of the antimeridian


@st.composite
def _segment_points(draw):
    """1-60 points drawn from a small pool, so repeated points are common."""
    anywhere = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))
    pool = draw(st.lists(st.one_of(anywhere, st.sampled_from(_SPECIAL_POINTS)),
                         min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@settings(max_examples=200, deadline=None)
@given(st.lists(_segment_points(), min_size=1, max_size=3))
def test_leg_kernel_matches_summed_scalar_haversine(segments):
    oracle = 0.0
    for points in segments:
        for (lat1, lon1), (lat2, lon2) in zip(points, points[1:]):
            oracle += haversine_m(lat1, lon1, lat2, lon2)
    track = track_from(*segments)
    assert length_2d(track) == pytest.approx(oracle, rel=1e-12, abs=1e-9)
    assert metrics_of(track_from(*[[(lat, lon, 0.0) for lat, lon in points]
                                   for points in segments])).length_2d \
        == pytest.approx(oracle, rel=1e-12, abs=1e-9)
    for points in segments:
        lat, lon = zip(*points)
        legs = leg_lengths(np.array(lat), np.array(lon))
        assert len(legs) == len(points) - 1
        assert legs.tolist() == pytest.approx(
            [haversine_m(*a, *b) for a, b in zip(points, points[1:])], rel=1e-12, abs=1e-9)


@st.composite
def _split_points(draw):
    """``_segment_points`` with an elevation each, and positive segment lengths
    that add up to the point count."""
    points = draw(_segment_points())
    ele = draw(st.lists(st.floats(-500.0, 9000.0), min_size=len(points), max_size=len(points)))
    lengths = []
    while sum(lengths) < len(points):
        lengths.append(draw(st.integers(1, len(points) - sum(lengths))))
    return points, ele, lengths


def _left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


@settings(max_examples=200, deadline=None)
@given(_split_points())
def test_segment_starts_drop_exactly_the_legs_between_segments(drawn):
    points, ele, lengths = drawn
    lat, lon = (np.array(axis) for axis in zip(*points))
    track = Track(lat=lat, lon=lon, ele=ele, segment_lengths=lengths)

    flat, sloped, up, down, lines = [], [], [], [], []
    start = 0
    for length in lengths:
        part = slice(start, start + length)
        start += length
        seg_lat, seg_lon, seg_ele = lat[part], lon[part], np.array(ele[part])
        legs = leg_lengths(seg_lat, seg_lon)
        climb = np.diff(seg_ele)
        flat += legs.tolist()
        sloped += np.where(np.isnan(climb), legs, np.hypot(legs, climb)).tolist()
        up += climb[climb > 0].tolist()
        down += (-climb[climb < 0]).tolist()
        lines.append(np.column_stack((seg_lon, seg_lat, seg_ele)).tolist())

    metrics = metrics_of(track)
    assert length_2d(track) == _left_to_right(flat)
    assert metrics.length_2d == _left_to_right(flat)
    assert metrics.length_3d == _left_to_right(sloped)
    assert metrics.uphill == _left_to_right(up)
    assert metrics.downhill == _left_to_right(down)
    assert coordinates_text(track, "http://a.example/t.gpx") == json.dumps(lines).encode()


# --- lengths ---------------------------------------------------------------------

def test_lengths_zero_for_single_point():
    track = track_from([(50.0, 6.0, 100.0)])
    assert length_2d(track) == 0.0
    assert metrics_of(track).length_3d == 0.0


def test_three_four_five_triangle():
    # two points 300 m apart with a 400 m elevation change: 3D length is 500
    delta = equator_offset_deg(300.0)
    track = track_from([(0.0, 0.0, 0.0), (0.0, delta, 400.0)])
    assert length_2d(track) == pytest.approx(300.0, rel=1e-9)
    assert metrics_of(track).length_3d == pytest.approx(500.0, rel=1e-6)


def test_lengths_match_independent_summation_oracle():
    rng = random.Random(13)
    points = [(50.0 + rng.uniform(-0.01, 0.01), 6.0 + rng.uniform(-0.01, 0.01),
               rng.uniform(100, 200)) for _ in range(10)]
    track = track_from(points)

    # brute-force oracle coded from the formula, independent of the library loop
    def oracle_hav(a, b):
        p1, l1, p2, l2 = map(math.radians, (a[0], a[1], b[0], b[1]))
        h = (math.sin((p2 - p1) / 2) ** 2
             + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2)
        return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))

    flat = sum(oracle_hav(points[i], points[i + 1]) for i in range(9))
    full = sum(math.sqrt(oracle_hav(points[i], points[i + 1]) ** 2
                         + (points[i + 1][2] - points[i][2]) ** 2) for i in range(9))
    assert length_2d(track) == pytest.approx(flat, rel=1e-9)
    assert metrics_of(track).length_3d == pytest.approx(full, rel=1e-9)


def test_segment_gaps_add_no_distance():
    a = [(0.0, 0.0, 0.0), (0.0, equator_offset_deg(100), 0.0)]
    b = [(0.5, 0.5, 0.0), (0.5, 0.5 + equator_offset_deg(100), 0.0)]
    gapped = track_from(a, b)
    assert length_2d(gapped) == pytest.approx(
        length_2d(track_from(a)) + length_2d(track_from(b)), rel=1e-12)


def test_concatenated_segments_sharing_endpoint_sum():
    mid = (0.0, equator_offset_deg(150), 0.0)
    first = [(0.0, 0.0, 0.0), mid]
    second = [mid, (0.0, equator_offset_deg(400), 0.0)]
    assert length_2d(track_from(first + second[1:])) == pytest.approx(
        length_2d(track_from(first)) + length_2d(track_from(second)), rel=1e-12)


def test_length_3d_equals_2d_when_flat():
    track = track_from([(0.0, 0.0, 250.0), (0.0, 0.01, 250.0), (0.0, 0.02, 250.0)])
    assert metrics_of(track).length_3d == length_2d(track)


def test_length_3d_at_least_2d():
    rng = random.Random(99)
    for _ in range(20):
        points = [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 500))
                  for _ in range(5)]
        track = track_from(points)
        assert metrics_of(track).length_3d >= length_2d(track)


def test_missing_ele_pairs_contribute_2d():
    # A pair whose point lacks elevation has no 3D length: metrics need every
    # point backfilled first, and refuse the track otherwise.
    delta = equator_offset_deg(300.0)
    with_gap = track_from([(0.0, 0.0, None), (0.0, delta, 400.0)])
    assert length_2d(with_gap) == pytest.approx(300.0, rel=1e-9)
    with pytest.raises(ValueError, match="every point needs an elevation"):
        metrics_of(with_gap)


# --- elevation stats -----------------------------------------------------------------

def elevation_track(elevations, lat=50.0):
    return track_from([(lat, 6.0 + 0.001 * i, e) for i, e in enumerate(elevations)])


def hysteresis_oracle(elevations, deadband):
    """Anchor-walk oracle implemented with an explicit state machine."""
    up = down = 0.0
    if elevations:
        anchor = elevations[0]
        for value in elevations[1:]:
            move = value - anchor
            if move > deadband:
                up += move
                anchor = value
            elif -move > deadband:
                down += -move
                anchor = value
    return up, down


def test_elevation_stats_basic_sums():
    stats = elevation_stats(elevation_track([100.0, 150.0, 120.0]), deadband_m=0.0)
    assert (stats.highest, stats.lowest) == (150.0, 100.0)
    assert (stats.uphill, stats.downhill) == (50.0, 30.0)


def test_elevation_stats_constant():
    stats = elevation_stats(elevation_track([200.0] * 5), deadband_m=0.0)
    assert (stats.highest, stats.lowest, stats.uphill, stats.downhill) == (200.0, 200.0, 0.0, 0.0)


def test_elevation_stats_deadband_suppresses_jitter():
    stats = elevation_stats(elevation_track([0.0, 1.0, 0.0, 1.0, 0.0]), deadband_m=5.0)
    assert (stats.uphill, stats.downhill) == (0.0, 0.0)


def test_elevation_stats_against_oracle_random_sequences():
    rng = random.Random(41)
    for _ in range(50):
        elevations = [round(rng.uniform(0, 50), 1) for _ in range(rng.randrange(1, 30))]
        deadband = rng.choice([0.0, 2.0, 10.0])
        stats = elevation_stats(elevation_track(elevations), deadband_m=deadband)
        up, down = hysteresis_oracle(elevations, deadband)
        assert stats.uphill == pytest.approx(up, abs=1e-9)
        assert stats.downhill == pytest.approx(down, abs=1e-9)


def test_elevation_stats_requires_elevations():
    with pytest.raises(ValueError):
        elevation_stats(track_from([(50.0, 6.0, 100.0), (50.1, 6.0)]), deadband_m=0.0)
    with pytest.raises(ValueError):
        elevation_stats(Track(lat=[], lon=[]), deadband_m=0.0)


def reverse_track(track):
    return Track(lat=track.lat[::-1], lon=track.lon[::-1], ele=track.ele[::-1],
                 segment_lengths=track.segment_lengths[::-1])


def test_reversal_swaps_uphill_downhill_keeps_lengths():
    rng = random.Random(5)
    for _ in range(10):
        points = [(50.0 + i * 0.001, 6.0, rng.uniform(100, 300)) for i in range(12)]
        track = track_from(points[:5], points[5:])
        reversed_ = reverse_track(track)

        fwd = metrics_of(track)
        rev = metrics_of(reversed_)
        assert length_2d(reversed_) == pytest.approx(length_2d(track), rel=1e-12)
        assert rev.length_3d == pytest.approx(fwd.length_3d, rel=1e-12)
        assert rev.uphill == pytest.approx(fwd.downhill, abs=1e-9)
        assert rev.downhill == pytest.approx(fwd.uphill, abs=1e-9)
        assert rev.is_circular == fwd.is_circular


# --- circularity ----------------------------------------------------------------------

def test_is_circular_identical_endpoints():
    track = track_from([(50.0, 6.0), (50.01, 6.01), (50.0, 6.0)])
    assert is_circular(track, radius_m=350.0)


def test_is_circular_349m_yes_351m_no():
    for meters, expected in ((349.0, True), (351.0, False)):
        end_lon = equator_offset_deg(meters)
        track = track_from([(0.0, 0.0), (0.0, end_lon / 2), (0.0, end_lon)])
        # verify the constructed gap with the distance oracle before asserting
        assert haversine_m(0.0, 0.0, 0.0, end_lon) == pytest.approx(meters, abs=1e-6)
        assert is_circular(track, radius_m=350.0) is expected


def test_is_circular_spans_segments():
    closing_loop = track_from([(0.0, 0.0), (0.0, 0.01)], [(0.01, 0.01), (0.0, 0.0)])
    assert is_circular(closing_loop, radius_m=350.0)


def test_is_circular_boundary_inclusive():
    end_lon = equator_offset_deg(350.0)
    track = track_from([(0.0, 0.0), (0.0, end_lon)])
    gap = haversine_m(0.0, 0.0, 0.0, end_lon)
    assert is_circular(track, radius_m=350.0) is (gap <= 350.0)


# --- geometry aggregate -----------------------------------------------------------------

def test_compute_track_metrics_bundle():
    delta = equator_offset_deg(300.0)
    track = track_from([(0.0, 0.0, 100.0), (0.0, delta, 500.0)])
    metrics = metrics_of(track)
    assert metrics.length_2d == pytest.approx(300.0, rel=1e-9)
    assert metrics.length_3d == pytest.approx(500.0, rel=1e-6)
    assert metrics.elev_highest == 500.0
    assert metrics.elev_lowest == 100.0
    assert metrics.uphill == 400.0
    assert metrics.downhill == 0.0
    assert metrics.is_circular is True  # 300 m gap is under the 350 m radius


# --- point in polygon ----------------------------------------------------------------------

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]


def test_point_in_polygon_unit_square():
    assert point_in_polygon(0.5, 0.5, [UNIT_SQUARE])
    assert not point_in_polygon(1.5, 0.5, [UNIT_SQUARE])
    assert not point_in_polygon(-0.1, 0.99, [UNIT_SQUARE])


def test_point_in_polygon_hole_excluded():
    hole = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75), (0.25, 0.25)]
    rings = [UNIT_SQUARE, hole]
    assert not point_in_polygon(0.5, 0.5, rings)  # inside the hole
    assert point_in_polygon(0.1, 0.1, rings)  # inside the shell, outside the hole


def test_point_on_edge_counts_as_inside():
    assert point_in_polygon(0.5, 0.0, [UNIT_SQUARE])
    assert point_in_polygon(0.0, 0.0, [UNIT_SQUARE])  # vertex
    assert point_in_polygon(1.0, 0.5, [UNIT_SQUARE])


def star_polygon(rng, center, vertex_count):
    cx, cy = center
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(vertex_count))
    ring = [(cx + rng.uniform(1.0, 2.0) * math.cos(a),
             cy + rng.uniform(1.0, 2.0) * math.sin(a)) for a in angles]
    ring.append(ring[0])
    return ring


def winding_number(px, py, ring):
    total = 0.0
    for i in range(len(ring) - 1):
        x1, y1 = ring[i][0] - px, ring[i][1] - py
        x2, y2 = ring[i + 1][0] - px, ring[i + 1][1] - py
        total += math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
    return total / (2 * math.pi)


def test_ray_casting_agrees_with_winding_oracle():
    rng = random.Random(20240210)
    disagreements = 0
    checked = 0
    for _ in range(10):
        ring = star_polygon(rng, (rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.randrange(5, 12))
        for _ in range(100):
            px, py = rng.uniform(-4, 4), rng.uniform(-4, 4)
            w = winding_number(px, py, ring)
            if 0.01 < abs(w) < 0.99:  # numerically on the boundary; skip
                continue
            checked += 1
            if point_in_polygon(px, py, [ring]) != (abs(w) > 0.5):
                disagreements += 1
    assert checked > 900
    assert disagreements == 0


# --- boundaries / country -------------------------------------------------------------------

def boundaries_file(tmp_path, features):
    path = tmp_path / "countries.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def box(name, min_lon, min_lat, max_lon, max_lat, key="shapeName"):
    ring = [[min_lon, min_lat], [max_lon, min_lat], [max_lon, max_lat],
            [min_lon, max_lat], [min_lon, min_lat]]
    return {"type": "Feature", "properties": {key: name},
            "geometry": {"type": "Polygon", "coordinates": [ring]}}


def test_load_boundaries_accepts_name_fallback(tmp_path):
    path = boundaries_file(tmp_path, [box("France", -5, 42, 8, 51, key="name")])
    assert load_boundaries(path)[0].name == "France"


def test_load_boundaries_rejects_unclosed_ring(tmp_path):
    bad = box("Broken", 0, 0, 1, 1)
    bad["geometry"]["coordinates"][0].pop()  # unclose the ring
    with pytest.raises(BoundaryFileError, match="unclosed"):
        load_boundaries(boundaries_file(tmp_path, [bad]))


def test_load_boundaries_rejects_missing_name(tmp_path):
    feature = box("x", 0, 0, 1, 1)
    feature["properties"] = {}
    with pytest.raises(BoundaryFileError, match="name"):
        load_boundaries(boundaries_file(tmp_path, [feature]))


def _with_coordinates(coordinates):
    feature = box("Broken", 0, 0, 1, 1)
    feature["geometry"]["coordinates"] = coordinates
    return {"type": "FeatureCollection", "features": [feature]}


@pytest.mark.parametrize("document", [
    [box("France", -5, 42, 8, 51)],
    {"type": "FeatureCollection", "features": ["not a feature"]},
    _with_coordinates([[[0, 0], [1, "east"], [1, 1], [0, 0]]]),
    _with_coordinates([[[0, 0], [1], [1, 1], [0, 0]]]),
    _with_coordinates(None),
], ids=["top-level-list", "non-dict-feature", "non-numeric-vertex", "one-number-vertex",
        "null-coordinates"])
def test_load_boundaries_classifies_malformed_documents(tmp_path, document):
    path = tmp_path / "countries.geojson"
    path.write_text(json.dumps(document))
    with pytest.raises(BoundaryFileError):
        load_boundaries(path)


@pytest.mark.parametrize("ring", [
    ["00", "20", "22", "02", "00"],
    [[False, False], [True, False], [True, True], [False, True], [False, False]],
    [[0, 0], ["NaN", "NaN"], [1, 1], [0, 0]],
    [[0, 0], [float("nan"), 0], [1, 1], [0, 0]],
    [[0, 0], [1, float("inf")], [1, 1], [0, 0]],
], ids=["two-digit-strings", "booleans", "nan-string", "nan-literal", "infinity-literal"])
def test_load_boundaries_rejects_vertices_that_are_not_finite_numbers(tmp_path, ring):
    path = tmp_path / "countries.geojson"
    path.write_text(json.dumps(_with_coordinates([ring])))  # writes NaN/Infinity literals
    with pytest.raises(BoundaryFileError, match="Broken: malformed vertex"):
        load_boundaries(path)


def test_country_of_first_point_in_france(tmp_path):
    path = boundaries_file(tmp_path, [box("France", -5.0, 42.0, 8.0, 51.0),
                                      box("Belgium", 2.5, 49.5, 6.4, 51.5)])
    boundaries = load_boundaries(path)
    track = track_from([(48.85, 2.35), (48.86, 2.36)])
    assert pick_country(first_point_countries(track, boundaries)) == "France"


def test_country_unknown_when_no_match(tmp_path):
    boundaries = load_boundaries(boundaries_file(tmp_path, [box("France", -5, 42, 8, 51)]))
    track = track_from([(-33.9, 18.4)])
    assert pick_country(first_point_countries(track, boundaries)) == "Unknown"


def test_country_file_order_breaks_ties(tmp_path):
    overlapping = [box("First", 0, 0, 2, 2), box("Second", 0, 0, 2, 2)]
    boundaries = load_boundaries(boundaries_file(tmp_path, overlapping))
    track = track_from([(1.0, 1.0)])
    assert pick_country(first_point_countries(track, boundaries)) == "First"
    assert find_countries(1.0, 1.0, boundaries) == ["First", "Second"]


def test_pick_country_takes_the_first_match_or_unknown():
    assert pick_country(["First", "Second"]) == "First"
    assert pick_country(["Only"]) == "Only"
    assert pick_country([]) == "Unknown"


def test_first_point_countries_reads_the_first_populated_segment(tmp_path):
    overlapping = [box("First", 0, 0, 2, 2), box("Second", 0, 0, 2, 2), box("Far", 9, 9, 10, 10)]
    boundaries = load_boundaries(boundaries_file(tmp_path, overlapping))
    track = track_from([], [(1.0, 1.0), (9.5, 9.5)], [(9.5, 9.5)])
    assert first_point_countries(track, boundaries) == ["First", "Second"]


def test_multipolygon_boundaries(tmp_path):
    feature = {
        "type": "Feature", "properties": {"shapeName": "Islandia"},
        "geometry": {"type": "MultiPolygon", "coordinates": [
            [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
            [[[5, 5], [6, 5], [6, 6], [5, 6], [5, 5]]],
        ]},
    }
    boundaries = load_boundaries(boundaries_file(tmp_path, [feature]))
    assert find_countries(5.5, 5.5, boundaries) == ["Islandia"]
    assert find_countries(3.0, 3.0, boundaries) == []


def test_haversine_bounded_by_half_circumference():
    rng = random.Random(17)
    half_circumference = math.pi * EARTH_RADIUS_M
    for _ in range(500):
        d = haversine_m(rng.uniform(-90, 90), rng.uniform(-180, 180),
                        rng.uniform(-90, 90), rng.uniform(-180, 180))
        assert 0.0 <= d <= half_circumference + 1e-6
    antipodal = haversine_m(0.0, 0.0, 0.0, 180.0)
    assert antipodal == pytest.approx(half_circumference, rel=1e-12)
