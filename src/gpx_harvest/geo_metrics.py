"""Geometric and geographic track properties.

``length_2d`` is the length the parse filters read; ``compute_track_metrics``
gives a fully backfilled track's 2D/3D lengths, elevation statistics and
circularity in one pass, with the thresholds of ``FilterConfig``.  The country
is ``pick_country(first_point_countries(...))``: point-in-polygon tests of the
first point against a boundaries file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gpx_model import Track

# Mean Earth radius, meters.  Pinned so that one degree of arc is
# 111,194.93 m, the value the geodesic checks are frozen against.
EARTH_RADIUS_M = 6_371_000.0


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two points given in degrees."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)

    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def leg_lengths(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Great-circle distance in meters of each consecutive pair of points.

    The vectorized form of ``haversine_m``, with the same arithmetic per leg;
    ``len(lat) - 1`` legs, none for fewer than two points.
    """
    phi = np.radians(lat)
    cos_phi = np.cos(phi)
    dphi = np.radians(np.diff(lat))
    dlam = np.radians(np.diff(lon))
    a = np.sin(dphi / 2.0) ** 2 + cos_phi[:-1] * cos_phi[1:] * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right float sum of ``values``.

    The order is that of a Python ``total += x`` loop, so sums are identical
    to it; ``np.sum`` adds pairwise and can differ in the last digits.
    """
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def _within_segments(track: Track) -> np.ndarray | slice:
    """Which legs (consecutive point pairs) of the track lie within one segment,
    as an index into the legs: every leg of a track of one segment, else a mask.

    A leg into a segment's first point would bridge a recording pause and
    inflate the length, so every length and elevation sum leaves it out.
    """
    if len(track.segment_lengths) <= 1:
        return slice(None)
    keep = np.ones(max(track.point_count() - 1, 0), dtype=bool)
    keep[track.segment_starts() - 1] = False
    return keep


def length_2d(track: Track) -> float:
    """Sum of great-circle distances between consecutive points.

    Pairs never span segment boundaries: segments represent recording pauses
    and bridging them would inflate the length.
    """
    return _running_sum(leg_lengths(track.lat, track.lon)[_within_segments(track)])


@dataclass
class ElevationStats:
    highest: float
    lowest: float
    uphill: float
    downhill: float


def elevation_stats(track: Track, deadband_m: float) -> ElevationStats:
    """Highest/lowest elevation and cumulative gain/loss in meters.

    With a non-zero deadband, consecutive changes accumulate against an
    anchor elevation and only count once they exceed the deadband, which
    suppresses sensor jitter.  A deadband of 0 gives the raw sums
    of positive and negative deltas.  The anchor resets at each segment
    boundary.  Every point must carry an elevation (run the DEM backfill
    first).
    """
    elevations = track.ele
    if not len(elevations):
        raise ValueError("track has no points")
    if np.isnan(elevations).any():
        raise ValueError("every point needs an elevation before computing stats")

    if deadband_m > 0.0:
        uphill = 0.0
        downhill = 0.0
        for segment in np.split(elevations, track.segment_starts()):
            anchor, *values = segment.tolist()
            for value in values:
                delta = value - anchor
                if abs(delta) > deadband_m:
                    if delta > 0:
                        uphill += delta
                    else:
                        downhill -= delta
                    anchor = value
    else:
        # Without a deadband the anchor is always the previous point.
        deltas = np.diff(elevations)[_within_segments(track)]
        uphill = _running_sum(deltas[deltas > 0])
        downhill = _running_sum(-deltas[deltas < 0])

    return ElevationStats(highest=float(elevations.max()), lowest=float(elevations.min()),
                          uphill=uphill, downhill=downhill)


def _endpoints(track: Track) -> tuple[tuple[float, float], tuple[float, float]]:
    """(lat, lon) of the track's first point and of its last point."""
    if not track.point_count():
        raise ValueError("track has no points")
    return ((float(track.lat[0]), float(track.lon[0])),
            (float(track.lat[-1]), float(track.lon[-1])))


def is_circular(track: Track, radius_m: float) -> bool:
    """True when the first and last points lie within radius_m (inclusive).

    The endpoints span segments: the first point of the first segment and
    the last point of the last one.
    """
    start, end = _endpoints(track)
    return haversine_m(*start, *end) <= radius_m


@dataclass
class TrackMetrics:
    length_2d: float
    length_3d: float
    elev_highest: float
    elev_lowest: float
    uphill: float
    downhill: float
    is_circular: bool


def compute_track_metrics(track: Track, circular_radius_m: float,
                          deadband_m: float) -> TrackMetrics:
    """All geometric properties of a fully backfilled track in one pass.

    Every point must carry an elevation (``elevation_stats`` raises
    ValueError otherwise), so each leg's 3D length accounts for its climb.
    """
    stats = elevation_stats(track, deadband_m=deadband_m)
    keep = _within_segments(track)
    legs = leg_lengths(track.lat, track.lon)[keep]
    climb = np.diff(track.ele)[keep]
    return TrackMetrics(
        length_2d=_running_sum(legs),
        length_3d=_running_sum(np.hypot(legs, climb)),
        elev_highest=stats.highest,
        elev_lowest=stats.lowest,
        uphill=stats.uphill,
        downhill=stats.downhill,
        is_circular=is_circular(track, radius_m=circular_radius_m),
    )


# --- country assignment -----------------------------------------------------

Ring = list[tuple[float, float]]  # closed ring of (lon, lat) vertices


class BoundaryFileError(Exception):
    """Boundaries file is malformed (bad JSON, missing names, unclosed rings)."""


@dataclass
class CountryShape:
    name: str
    # MultiPolygon structure: polygons -> rings (outer first, then holes)
    polygons: list[list[Ring]]
    bbox: tuple[float, float, float, float]  # (min_lon, min_lat, max_lon, max_lat)


def _on_segment(px: float, py: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    if cross != 0.0:
        return False
    return min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2)


def point_in_polygon(lon: float, lat: float, rings: list[Ring]) -> bool:
    """Even-odd ray-casting test over a polygon's rings, holes included.

    Rings are closed sequences of (lon, lat) vertices.  A point exactly on
    any ring edge counts as inside (consistent tie-break for border points).
    """
    inside = False
    for ring in rings:
        for i in range(len(ring) - 1):
            x1, y1 = ring[i]
            x2, y2 = ring[i + 1]
            if _on_segment(lon, lat, x1, y1, x2, y2):
                return True
            if (y1 > lat) != (y2 > lat):
                x_cross = (x2 - x1) * (lat - y1) / (y2 - y1) + x1
                if lon < x_cross:
                    inside = not inside
    return inside


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise BoundaryFileError(f"{what} is not a JSON object")
    return value


def _vertex(raw: object, name: str) -> tuple[float, float]:
    """(lon, lat) of a vertex: a JSON array starting with two finite numbers."""
    if (isinstance(raw, list) and len(raw) >= 2
            and all(type(c) in (int, float) for c in raw[:2])):
        lon, lat = float(raw[0]), float(raw[1])
        if math.isfinite(lon) and math.isfinite(lat):
            return lon, lat
    raise BoundaryFileError(f"{name}: malformed vertex {raw!r:.40}")


def load_boundaries(path: str | Path) -> list[CountryShape]:
    """Load named country polygons from a GeoJSON FeatureCollection.

    Each feature needs a "shapeName" or "name" property and a Polygon or
    MultiPolygon geometry whose rings are closed (first vertex equals last)
    and whose vertices are JSON arrays starting with two finite numbers
    (not strings, booleans, NaN or infinities).  Anything else raises
    BoundaryFileError.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise BoundaryFileError(f"cannot read boundaries file {path}: {exc}") from exc
    features = _object(data, f"boundaries file {path}").get("features", [])
    if not isinstance(features, list):
        raise BoundaryFileError(f"boundaries file {path}: features is not a list")

    shapes: list[CountryShape] = []
    for feature in features:
        feature = _object(feature, "feature")
        properties = _object(feature.get("properties") or {}, "feature properties")
        name = properties.get("shapeName") or properties.get("name")
        if not name:
            raise BoundaryFileError("feature without shapeName/name property")

        geometry = _object(feature.get("geometry") or {}, f"{name}: geometry")
        gtype = geometry.get("type")
        coords = geometry.get("coordinates")
        if gtype == "Polygon":
            raw_polygons = [coords]
        elif gtype == "MultiPolygon":
            raw_polygons = coords
        else:
            raise BoundaryFileError(f"{name}: unsupported geometry type {gtype!r}")

        polygons: list[list[Ring]] = []
        try:
            for raw_rings in raw_polygons:
                rings: list[Ring] = []
                for raw_ring in raw_rings:
                    ring: Ring = [_vertex(v, name) for v in raw_ring]
                    if len(ring) < 4 or ring[0] != ring[-1]:
                        raise BoundaryFileError(f"{name}: unclosed ring")
                    rings.append(ring)
                polygons.append(rings)
        except (TypeError, ValueError, IndexError, KeyError, OverflowError) as exc:
            raise BoundaryFileError(f"{name}: malformed coordinates: {exc}") from exc

        vertices = [v for polygon in polygons for ring in polygon for v in ring]
        if not vertices:
            raise BoundaryFileError(f"{name}: geometry has no vertices")
        bbox = (min(v[0] for v in vertices), min(v[1] for v in vertices),
                max(v[0] for v in vertices), max(v[1] for v in vertices))
        shapes.append(CountryShape(name=str(name), polygons=polygons, bbox=bbox))
    return shapes


def find_countries(lon: float, lat: float, boundaries: list[CountryShape]) -> list[str]:
    """Names of all shapes containing the point, in file order."""
    matches = []
    for shape in boundaries:
        min_lon, min_lat, max_lon, max_lat = shape.bbox
        if not (min_lon <= lon <= max_lon and min_lat <= lat <= max_lat):
            continue
        if any(point_in_polygon(lon, lat, rings) for rings in shape.polygons):
            matches.append(shape.name)
    return matches


def first_point_countries(track: Track, boundaries: list[CountryShape]) -> list[str]:
    """Names of all shapes containing the track's first point, in file order."""
    (lat, lon), _ = _endpoints(track)
    return find_countries(lon, lat, boundaries)


def pick_country(matches: list[str]) -> str:
    """The country for a point inside the shapes ``matches`` (file order).

    Border points falling inside several shapes resolve to the first shape
    in file order; "Unknown" when nothing matches.
    """
    return matches[0] if matches else "Unknown"
