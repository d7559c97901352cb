"""GPX document model: track / segment hierarchy parsed from raw XML bytes.

A segment holds its points as three parallel float64 arrays, ``lat``, ``lon``
and ``ele``, with NaN meaning "no elevation"; no per-point object exists.
Accepts GPX 1.0, GPX 1.1 and namespace-less documents.  Route files
(<rte>/<rtept>) are folded into the same track model, one segment per route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from xml.etree import ElementTree

import numpy as np

# A track that loses more than this fraction of its points to coordinate
# validation is discarded entirely: lengths computed from the remainder
# would be unreliable.
MAX_INVALID_POINT_RATIO = 0.01


class GpxParseError(Exception):
    """Payload is not a usable GPX document."""


@dataclass(eq=False)
class Segment:
    """One uninterrupted recording: point i is ``(lat[i], lon[i], ele[i])``.

    Any sequences are accepted and stored as float64 arrays; ``None`` or NaN
    in ``ele`` means that point has no elevation, and an omitted ``ele``
    means none has.
    """

    lat: np.ndarray
    lon: np.ndarray
    ele: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.lat = np.asarray(self.lat, dtype=np.float64)
        self.lon = np.asarray(self.lon, dtype=np.float64)
        self.ele = (np.full(self.lat.shape, np.nan) if self.ele is None
                    else np.asarray(self.ele, dtype=np.float64))
        if self.lat.ndim != 1 or not self.lat.shape == self.lon.shape == self.ele.shape:
            raise ValueError(f"segment arrays must be 1-D and equally long, got "
                             f"{self.lat.shape}, {self.lon.shape}, {self.ele.shape}")

    def __len__(self) -> int:
        return len(self.lat)


@dataclass
class Track:
    name: str | None = None
    desc: str | None = None
    segments: list[Segment] = field(default_factory=list)

    def point_count(self) -> int:
        return sum(len(segment) for segment in self.segments)


@dataclass
class GpxDocument:
    tracks: list[Track]
    source_url: str


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


def _read_points(parent: ElementTree.Element, point_tag: str,
                 stats: ParseStats) -> tuple[Segment, int]:
    """The parent's ``point_tag`` children as a segment, and how many were dropped.

    A point is dropped when lat or lon is unparsable or out of range.  The
    elevation is the point's ``<ele>`` child in the point's own namespace; an
    absent, unparsable or non-finite one is NaN.
    """
    lats: list[float] = []
    lons: list[float] = []
    eles: list[float] = []
    unparsable = 0
    ele_tags: dict[str, str | None] = {}  # child tag -> its <ele> tag, None if not a point
    for element in parent:
        tag = element.tag
        try:
            ele_tag = ele_tags[tag]
        except KeyError:
            ele_tag = ele_tags[tag] = (tag[:len(tag) - len(point_tag)] + "ele"
                                       if _local(tag) == point_tag else None)
        if ele_tag is None:
            continue
        try:
            lat = float(element.get("lat", ""))
            lon = float(element.get("lon", ""))
        except ValueError:
            unparsable += 1
            continue
        ele_text = element.findtext(ele_tag)
        try:
            ele = np.nan if ele_text is None else float(ele_text)
        except ValueError:
            ele = np.nan
        lats.append(lat)
        lons.append(lon)
        eles.append(ele)

    lat = np.array(lats, dtype=np.float64)
    lon = np.array(lons, dtype=np.float64)
    ele = np.array(eles, dtype=np.float64)
    ele = np.where(np.isfinite(ele), ele, np.nan)
    # NaN coordinates fail these comparisons too, so they are dropped.
    valid = (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)
    dropped = unparsable + len(valid) - int(np.count_nonzero(valid))
    stats.points_dropped += dropped
    return Segment(lat[valid], lon[valid], ele[valid]), dropped


def _read_track(element: ElementTree.Element, stats: ParseStats) -> Track | None:
    segments: list[Segment] = []
    kept = 0
    dropped = 0
    for child in element:
        if _local(child.tag) != "trkseg":
            continue
        segment, seg_dropped = _read_points(child, "trkpt", stats)
        kept += len(segment)
        dropped += seg_dropped
        if len(segment):
            segments.append(segment)

    if dropped and dropped / (dropped + kept) > MAX_INVALID_POINT_RATIO:
        stats.tracks_dropped += 1
        return None
    return Track(name=_strip_or_none(_child_text(element, "name")),
                 desc=_child_text(element, "desc"),
                 segments=segments)


def _read_route(element: ElementTree.Element, stats: ParseStats) -> Track | None:
    segment, dropped = _read_points(element, "rtept", stats)
    if dropped and dropped / (dropped + len(segment)) > MAX_INVALID_POINT_RATIO:
        stats.tracks_dropped += 1
        return None
    segments = [segment] if len(segment) else []
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

    Reads trk/trkseg/trkpt plus trk-level name and desc into per-segment
    lat/lon/ele arrays; the ele child is optional per point, and a missing,
    unparsable or non-finite one (``nan``, ``inf``, ``1e400``) is NaN, i.e.
    no elevation.  Unknown elements (extensions, waypoints, point timestamps)
    are ignored.  Points with unparsable or out-of-range lat/lon are dropped
    and counted in ``stats``; a track losing more than 1% of its points that
    way is dropped entirely.  Routes become single-segment tracks.  Descriptions
    fall back to the document-level <desc> (GPX 1.0) or <metadata><desc>
    (GPX 1.1) when the track carries none.

    Raises GpxParseError for non-XML payloads, an XML declaration naming an
    encoding expat cannot read, or a non-<gpx> root.
    """
    if stats is None:
        stats = ParseStats()
    try:
        root = ElementTree.fromstring(payload)
    # An unknown declared encoding raises LookupError; a multi-byte one, or
    # one whose codec fails on the bytes, raises ValueError.
    except (ElementTree.ParseError, LookupError, ValueError) as exc:
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

    return GpxDocument(tracks=tracks, source_url=url)


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
                 segments=[s for s in track.segments if len(s)])

