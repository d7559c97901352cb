"""GPX document model: track / segment / point hierarchy parsed from raw XML bytes.

Accepts GPX 1.0, GPX 1.1 and namespace-less documents.  Route files
(<rte>/<rtept>) are folded into the same track model, one segment per route.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator
from xml.etree import ElementTree

# A track that loses more than this fraction of its points to coordinate
# validation is discarded entirely: lengths computed from the remainder
# would be unreliable.
MAX_INVALID_POINT_RATIO = 0.01


class GpxParseError(Exception):
    """Payload is not a usable GPX document."""


@dataclass
class TrackPoint:
    lat: float
    lon: float
    ele: float | None = None


@dataclass
class Segment:
    points: list[TrackPoint] = field(default_factory=list)


@dataclass
class Track:
    name: str | None = None
    desc: str | None = None
    segments: list[Segment] = field(default_factory=list)

    def iter_points(self) -> Iterator[TrackPoint]:
        for segment in self.segments:
            yield from segment.points

    def point_count(self) -> int:
        return sum(len(segment.points) for segment in self.segments)


@dataclass
class GpxDocument:
    tracks: list[Track]
    source_url: str
    content_hash: bytes  # sha256 over the exact payload bytes


@dataclass
class ParseStats:
    """Counters for data dropped during parsing; surfaced in pipeline stats."""

    points_dropped: int = 0
    tracks_dropped: int = 0


def _local(tag: str) -> str:
    # "{http://www.topografix.com/GPX/1/1}trk" -> "trk"
    return tag.rpartition("}")[2]


def _child_text(element: ElementTree.Element, name: str) -> str | None:
    for child in element:
        if _local(child.tag) == name:
            return child.text
    return None


def _read_point(element: ElementTree.Element) -> TrackPoint | None:
    try:
        lat = float(element.get("lat", ""))
        lon = float(element.get("lon", ""))
    except (TypeError, ValueError):
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None

    ele: float | None = None
    ele_text = _child_text(element, "ele")
    if ele_text is not None:
        try:
            ele = float(ele_text)
        except ValueError:
            ele = None

    return TrackPoint(lat=lat, lon=lon, ele=ele)


def _read_points(parent: ElementTree.Element, point_tag: str, stats: ParseStats) -> tuple[list[TrackPoint], int]:
    points: list[TrackPoint] = []
    dropped = 0
    for element in parent:
        if _local(element.tag) != point_tag:
            continue
        point = _read_point(element)
        if point is None:
            dropped += 1
            stats.points_dropped += 1
        else:
            points.append(point)
    return points, dropped


def _read_track(element: ElementTree.Element, stats: ParseStats) -> Track | None:
    segments: list[Segment] = []
    kept = 0
    dropped = 0
    for child in element:
        if _local(child.tag) != "trkseg":
            continue
        points, seg_dropped = _read_points(child, "trkpt", stats)
        kept += len(points)
        dropped += seg_dropped
        if points:
            segments.append(Segment(points=points))

    if dropped and dropped / (dropped + kept) > MAX_INVALID_POINT_RATIO:
        stats.tracks_dropped += 1
        return None
    return Track(name=_strip_or_none(_child_text(element, "name")),
                 desc=_child_text(element, "desc"),
                 segments=segments)


def _read_route(element: ElementTree.Element, stats: ParseStats) -> Track | None:
    points, dropped = _read_points(element, "rtept", stats)
    if dropped and dropped / (dropped + len(points)) > MAX_INVALID_POINT_RATIO:
        stats.tracks_dropped += 1
        return None
    segments = [Segment(points=points)] if points else []
    return Track(name=_strip_or_none(_child_text(element, "name")),
                 desc=_child_text(element, "desc"),
                 segments=segments)


def _strip_or_none(text: str | None) -> str | None:
    if text is None:
        return None
    stripped = text.strip()
    return stripped or None


def parse_gpx(payload: bytes, url: str, stats: ParseStats | None = None) -> GpxDocument:
    """Parse raw GPX bytes into the track hierarchy.

    Reads trk/trkseg/trkpt plus trk-level name and desc; the ele child is
    optional per point.  Unknown elements (extensions, waypoints, point
    timestamps) are ignored.  Points with unparsable or out-of-range lat/lon are dropped and
    counted in ``stats``; a track losing more than 1% of its points that way
    is dropped entirely.  Routes become single-segment tracks.  Descriptions
    fall back to the document-level <desc> (GPX 1.0) or <metadata><desc>
    (GPX 1.1) when the track carries none.

    Raises GpxParseError for non-XML payloads or a non-<gpx> root.
    """
    if stats is None:
        stats = ParseStats()
    try:
        root = ElementTree.fromstring(payload)
    except ElementTree.ParseError as exc:
        raise GpxParseError(f"not parseable XML: {exc}") from exc
    if _local(root.tag) != "gpx":
        raise GpxParseError(f"root element is <{_local(root.tag)}>, expected <gpx>")

    doc_desc: str | None = None
    tracks: list[Track] = []
    for child in root:
        tag = _local(child.tag)
        if tag == "metadata":
            doc_desc = doc_desc or _strip_or_none(_child_text(child, "desc"))
        elif tag == "desc":
            doc_desc = doc_desc or _strip_or_none(child.text)
        elif tag == "trk":
            track = _read_track(child, stats)
            if track is not None:
                tracks.append(track)
        elif tag == "rte":
            track = _read_route(child, stats)
            if track is not None:
                tracks.append(track)

    if doc_desc:
        for track in tracks:
            if track.desc is None:
                track.desc = doc_desc

    return GpxDocument(tracks=tracks, source_url=url,
                       content_hash=hashlib.sha256(payload).digest())


def extract_single_track(doc: GpxDocument) -> Track | None:
    """Return the document's track iff exactly one track has any points.

    Empty tracks do not count toward the total.  Documents with zero or two
    or more populated tracks yield None (multi-track recordings are out of
    scope).  The returned track has empty segments removed.
    """
    populated = [track for track in doc.tracks if track.point_count() > 0]
    if len(populated) != 1:
        return None
    track = populated[0]
    return Track(name=track.name, desc=track.desc,
                 segments=[s for s in track.segments if s.points])

