"""GPX document model: tracks parsed from raw XML bytes.

A track holds its points as three parallel float64 arrays over all of its
segments, ``lat``, ``lon`` and ``ele``, with NaN meaning "no elevation", plus
the point count of each segment in order; no per-point or per-segment object
exists.  The pipeline stores a track as just these: ``tracks.f64`` holds the
track's own ``lat``, ``lon`` and ``ele`` arrays back to back.  Accepts GPX 1.0,
GPX 1.1 and namespace-less documents.  Route files (<rte>/<rtept>) are folded
into the same track model, one segment per route.

Each GPX element is read by its exact tag in the root element's namespace,
under whatever prefix the document binds to it; an element in any other
namespace (``<o:trk>``, ``<o:trkpt>``, ``<o:ele>``, ``<o:desc>``) is skipped,
as extensions are.

Most of a GPX file is its points, and building an element for every point,
elevation and timestamp is most of what parsing costs.  So ``parse_gpx``
first scans the payload bytes for point blocks: literal ``<trkseg>``
elements whose whole body is points of one strict form, ``<trkpt lat="N"
lon="N">``, an optional ``<ele>N</ele>``, an optional ``<time>`` of ASCII
letters, digits and ``:.+-``, and ``</trkpt>``, with only spaces, tabs and
line breaks between tags, and ``<ele>`` on every point of the block or on
none.  Each block's lat and lon texts are read by one ``orjson.loads`` and
its ele texts by another, and ElementTree parses only the skeleton left
when each block's body is cut out and its ``<trkseg>`` tagged with the
block's index.

The scan is exact, giving the same tracks, stats and errors as the tree
reader (``_read_points``, one point of the element tree at a time), so it
applies only where the bytes leave no room for doubt:
the payload starts with no byte-order mark, may start with ``<?xml
version="1.x" encoding="UTF-8"?>``, and outside the blocks it cuts holds no
other ``<?``, no ``<!`` (comment, CDATA or DOCTYPE), no NUL and not the
tag's attribute name.  Searching only outside the blocks is exact: a body
of the block form holds no NUL, ``!`` or ``?``, and the attribute name
could sit only in a ``<time>`` text, which the scan discards.  The bytes
up to each ``<trkseg>`` are searched before its body is matched, so a
``<!DOCTYPE`` declines the scan before any block is read.  So every
literal ``<trkseg>`` is a tag of a UTF-8 document and every point's text
is as written; each number is a JSON number of at most ``_MAX_NUMBER_CHARS``
characters other than a bare ``-0`` (which orjson reads as the int 0), so
orjson reads the value ``float`` reads (``tests/test_gpx_model.py`` checks a
seeded corpus of such texts bit for bit).  A block that is not of that form
stays in the skeleton for the tree reader; a payload that is not, or a
number orjson refuses, or a skeleton ElementTree refuses, is parsed whole
and read by the tree reader, so a malformed payload's error text is the
same.  Either way each segment's values go through the same finite, range
and drop rules (``_kept_points``).
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass
from xml.etree import ElementTree

import numpy as np
import orjson

# A track that loses more than this fraction of its points to coordinate
# validation is discarded entirely: lengths computed from the remainder
# would be unreliable.
MAX_INVALID_POINT_RATIO = 0.01


class GpxParseError(Exception):
    """Payload is not a usable GPX document."""


@dataclass(eq=False)
class Track:
    """Point i is ``(lat[i], lon[i], ele[i])``; the first ``segment_lengths[0]``
    points are the first uninterrupted recording, the next ones the second.

    Any sequences are accepted and stored as float64 arrays; ``None`` or NaN
    in ``ele`` means that point has no elevation, and an omitted ``ele``
    means none has.  Every segment length is positive and they sum to the
    point count; an omitted ``segment_lengths`` makes all points one segment.
    """

    lat: np.ndarray
    lon: np.ndarray
    ele: np.ndarray | None = None
    segment_lengths: list[int] | None = None
    desc: str | None = None

    def __post_init__(self) -> None:
        self.lat = np.asarray(self.lat, dtype=np.float64)
        self.lon = np.asarray(self.lon, dtype=np.float64)
        self.ele = (np.full(self.lat.shape, np.nan) if self.ele is None
                    else np.asarray(self.ele, dtype=np.float64))
        if self.lat.ndim != 1 or not self.lat.shape == self.lon.shape == self.ele.shape:
            raise ValueError(f"track arrays must be 1-D and equally long, got "
                             f"{self.lat.shape}, {self.lon.shape}, {self.ele.shape}")
        points = len(self.lat)
        if self.segment_lengths is None:
            self.segment_lengths = [points] if points else []
        if any(length <= 0 for length in self.segment_lengths):
            raise ValueError(f"segment lengths must be positive, got {self.segment_lengths}")
        if sum(self.segment_lengths) != points:
            raise ValueError(f"segment lengths {self.segment_lengths} do not sum to "
                             f"the {points} points")

    def point_count(self) -> int:
        return len(self.lat)

    def segment_starts(self) -> np.ndarray:
        """The index of the first point of every segment but the first, as
        ``np.split`` takes them."""
        return np.cumsum(self.segment_lengths[:-1], dtype=np.intp)


@dataclass
class GpxDocument:
    tracks: list[Track]


@dataclass
class ParseStats:
    """Counters for data dropped during parsing; surfaced in pipeline stats."""

    points_dropped: int = 0
    tracks_dropped: int = 0


def _local(tag: str) -> str:
    # "{http://www.topografix.com/GPX/1/1}trk" -> "trk"
    return tag.rpartition("}")[2]


def _read_points(parent: ElementTree.Element, point_tag: str, ele_tag: str,
                 stats: ParseStats, blocks: list[_Block]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The points of a <trkseg> or <rte> as lat, lon and ele arrays, and how
    many were dropped.

    A <trkseg> the scan tagged takes its points from ``blocks``; without
    blocks the payload was parsed whole, and an attribute of that name is the
    payload's own.  Otherwise every child tagged exactly ``point_tag`` is a
    point, read one at a time, and every other child is skipped.  A point is
    dropped when its lat or lon does not convert to a float or is out of
    range.  The elevation is the point's first child tagged exactly
    ``ele_tag``; an absent, unparsable or non-finite one is NaN.
    """
    block = parent.get(_BLOCK_ATTRIBUTE) if blocks else None
    if block is not None:
        return _kept_points(*blocks[int(block)], 0, stats)
    lats: list[float] = []
    lons: list[float] = []
    eles: list[float] = []
    unparsable = 0
    for element in parent.iterfind(point_tag):
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
    return _kept_points(lats, lons, eles, unparsable, stats)


def _kept_points(lats, lons, eles, unparsable: int, stats: ParseStats
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One segment's points as lat, lon and ele arrays, and how many were
    dropped, from its read values and the count of points already dropped as
    unparsable.

    A point is dropped when lat or lon is out of range (NaN included); a
    non-finite elevation is NaN.  The tree reader and the point-block scan
    both end here.
    """
    lat = np.asarray(lats, dtype=np.float64)
    lon = np.asarray(lons, dtype=np.float64)
    ele = np.asarray(eles, dtype=np.float64)
    ele = np.where(np.isfinite(ele), ele, np.nan)
    # NaN coordinates fail these comparisons too, so they are dropped.
    valid = (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)
    dropped = unparsable + len(valid) - int(np.count_nonzero(valid))
    stats.points_dropped += dropped
    return lat[valid], lon[valid], ele[valid], dropped


# --- the point-block scan (see the module docstring) ---------------------------

# The longest number text the scan reads; the corpus test in
# tests/test_gpx_model.py covers texts up to this length.
_MAX_NUMBER_CHARS = 40

# The attribute that tags a cut-out block's <trkseg> in the skeleton with the
# block's index; a payload that already holds the name is not scanned.
_BLOCK_ATTRIBUTE = "gpx-harvest-block"
_TAGGED_SEGMENT = f'<trkseg {_BLOCK_ATTRIBUTE}="%d"></trkseg>'.encode()

_SPACE = rb"[ \t\r\n]*"

# A block's lat, lon and ele arrays.
_Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _number(end: bytes) -> bytes:
    """A number text followed by ``end``: characters of JSON numbers only, and
    never a bare ``-0``.  orjson refuses the texts of these characters that
    are no JSON number (``+1``, ``1.``, ``.5``, ``01``)."""
    return rb"(?!-0" + end + rb")[-+.0-9eE]{1,%d}" % _MAX_NUMBER_CHARS


def _block_body(ele: bytes) -> re.Pattern[bytes]:
    """The body of a point block and its ``</trkseg>``, each point holding
    ``ele`` before its optional ``<time>``."""
    point = (rb'<trkpt lat="' + _number(b'"') + rb'" lon="' + _number(b'"') + rb'">' + _SPACE
             + ele + rb"(?:<time>[0-9A-Za-z:.+-]*</time>" + _SPACE + rb")?</trkpt>" + _SPACE)
    return re.compile(_SPACE + rb"(?:" + point + rb")*</trkseg>")


# A block whose points all hold an <ele>, and one whose points hold none.
_BLOCK_WITH_ELE = _block_body(rb"<ele>" + _number(b"<") + rb"</ele>" + _SPACE)
_BLOCK_WITHOUT_ELE = _block_body(b"")
_ELE_TEXT = re.compile(rb"<ele>([^<]*)")
_DECLARATION = re.compile(rb'<\?xml version="1\.[0-9]" encoding="UTF-8"\?>')
# What the skeleton's own bytes may not hold.  None of these can straddle a
# literal <trkseg> or the end of a block's </trkseg>, so each stretch of them
# between two is searched on its own.
_UNSCANNABLE = (b"\0", b"<!", b"<?", _BLOCK_ATTRIBUTE.encode())


def _numbers(texts: list[bytes]) -> np.ndarray:
    """The values of JSON number texts, by one ``orjson.loads``.  Raises
    orjson's JSONDecodeError, a ValueError, for a text that is no JSON number
    or overflows a float."""
    return np.array(orjson.loads(b"[" + b",".join(texts) + b"]"), dtype=np.float64)


def _unscannable(payload: bytes, start: int, end: int | None = None) -> bool:
    """Whether ``payload[start:end]`` holds any of ``_UNSCANNABLE``."""
    return any(payload.find(text, start, end) >= 0 for text in _UNSCANNABLE)


def _scan_blocks(payload: bytes) -> tuple[bytes, list[_Block]] | None:
    """The skeleton of ``payload`` and the lat, lon and ele arrays of its point
    blocks, in order; None when the payload holds no block, is not one the
    scan reads exactly, or holds a number text orjson refuses.

    The skeleton is the payload with each block's body cut out and its
    ``<trkseg>`` tagged with the block's index in ``_BLOCK_ATTRIBUTE``.  Only
    the bytes left in the skeleton are searched for what the scan declines
    (``_UNSCANNABLE``), each once: those up to a ``<trkseg>`` before its body
    is matched, the rest after the last block.
    """
    if payload.startswith(codecs.BOM_UTF8):
        return None
    declaration = _DECLARATION.match(payload)
    checked = declaration.end() if declaration else 0
    pieces: list[bytes] = []
    blocks: list[_Block] = []
    copied = 0
    start = payload.find(b"<trkseg>")
    while start >= 0:
        if _unscannable(payload, checked, start):
            return None
        checked = start
        body_start = start + len(b"<trkseg>")
        block = _BLOCK_WITH_ELE.match(payload, body_start)
        with_ele = block is not None
        block = block or _BLOCK_WITHOUT_ELE.match(payload, body_start)
        if block is None:
            start = payload.find(b"<trkseg>", body_start)
            continue
        body = payload[body_start:block.end() - len(b"</trkseg>")]
        # Quotes hold only the lat and lon texts, so every second piece is
        # one, lat and lon by turns.
        try:
            lat, lon = _numbers(body.split(b'"')[1::2]).reshape(-1, 2).T
            ele = (_numbers(_ELE_TEXT.findall(body)) if with_ele
                   else np.full(len(lat), np.nan))
        except ValueError:  # no JSON number (``1.``), or beyond a float (``1e400``)
            return None
        pieces += (payload[copied:start], _TAGGED_SEGMENT % len(blocks))
        blocks.append((lat, lon, ele))
        copied = checked = block.end()
        start = payload.find(b"<trkseg>", copied)
    if not blocks or _unscannable(payload, checked):
        return None
    pieces.append(payload[copied:])
    return b"".join(pieces), blocks


def _track(element: ElementTree.Element, ns: str, stats: ParseStats,
           blocks: list[_Block]) -> Track | None:
    """The <trk> (one segment per non-empty <trkseg>) or <rte> (one segment)
    in the namespace ``ns`` as a track; None when it lost too many points to
    validation."""
    if element.tag == ns + "rte":
        parts = [_read_points(element, ns + "rtept", ns + "ele", stats, blocks)]
    else:
        parts = [_read_points(segment, ns + "trkpt", ns + "ele", stats, blocks)
                 for segment in element.iterfind(ns + "trkseg")]
    lengths = [len(lat) for lat, _, _, _ in parts if len(lat)]
    dropped = sum(part[3] for part in parts)
    if dropped and dropped / (dropped + sum(lengths)) > MAX_INVALID_POINT_RATIO:
        stats.tracks_dropped += 1
        return None
    if len(parts) == 1:
        lat, lon, ele, _ = parts[0]
    else:
        lat, lon, ele = (np.concatenate([np.empty(0)] + [part[axis] for part in parts])
                         for axis in range(3))
    # findtext gives "" for an empty <desc/>, which is no description.
    return Track(lat, lon, ele, segment_lengths=lengths,
                 desc=element.findtext(ns + "desc") or None)


def _xml_root(payload: bytes) -> ElementTree.Element:
    try:
        return ElementTree.fromstring(payload)
    # An unknown declared encoding raises LookupError; a multi-byte one, or
    # one whose codec fails on the bytes, raises ValueError.
    except (ElementTree.ParseError, LookupError, ValueError) as exc:
        raise GpxParseError(f"not parseable XML: {exc}") from exc


def _strip_or_none(text: str | None) -> str | None:
    if text is None:
        return None
    stripped = text.strip()
    return stripped or None


def parse_gpx(payload: bytes, stats: ParseStats | None = None) -> GpxDocument:
    """Parse raw GPX bytes into tracks.

    Reads trk/trkseg/trkpt plus the trk-level desc, each element only by its
    exact tag in the root's namespace (``{uri}trk``, or ``trk`` in a document
    without one); an element of another namespace is skipped with all it
    holds.  (ElementTree's paths read ``{*}`` as any namespace, so in a root
    of the namespace ``*`` the elements inside a <trk> or <rte> are read in
    every namespace.)  Each track's points, over all of its trksegs, become
    one lat, one lon and one ele array, and each non-empty trkseg one entry
    of its ``segment_lengths``.  The ele child is optional per point, and a
    missing, unparsable or non-finite one (``nan``, ``inf``, ``1e400``) is
    NaN, i.e. no elevation.  Unknown elements
    (extensions, waypoints, point timestamps) are ignored.  Points with
    unparsable or out-of-range lat/lon are dropped and counted in ``stats``;
    a track losing more than 1% of its points that way is dropped entirely.
    Routes become single-segment tracks.  Descriptions fall back to the
    document-level <desc> (GPX 1.0) or <metadata><desc> (GPX 1.1) when the
    track carries none.

    Segments in the point-block form are read from the payload bytes, and
    ElementTree builds only the rest (see the module docstring); every other
    segment and route is read one point at a time (``_read_points``).  The
    tracks, stats and errors are those of reading the whole tree.

    Raises GpxParseError for non-XML payloads, an XML declaration naming an
    encoding expat cannot read, or a non-<gpx> root.
    """
    if stats is None:
        stats = ParseStats()
    root, blocks = None, []
    scanned = _scan_blocks(payload)
    if scanned is not None:
        try:
            root, blocks = _xml_root(scanned[0]), scanned[1]
        except GpxParseError:
            pass  # the whole payload is parsed below, for its own error text
    if root is None:
        root = _xml_root(payload)
    if _local(root.tag) != "gpx":
        raise GpxParseError(f"root element is <{_local(root.tag)}>, expected <gpx>")
    ns = root.tag[:-len("gpx")]  # "{uri}", or "" for no namespace

    doc_desc: str | None = None
    tracks: list[Track] = []
    for child in root:
        tag = child.tag
        if tag == ns + "metadata":
            doc_desc = doc_desc or _strip_or_none(child.findtext(ns + "desc"))
        elif tag == ns + "desc":
            doc_desc = doc_desc or _strip_or_none(child.text)
        elif tag == ns + "trk" or tag == ns + "rte":
            track = _track(child, ns, stats, blocks)
            if track is not None:
                tracks.append(track)

    if doc_desc:
        for track in tracks:
            if track.desc is None:
                track.desc = doc_desc

    return GpxDocument(tracks=tracks)


def extract_single_track(doc: GpxDocument) -> tuple[Track | None, str | None]:
    """(the track, None) when exactly one of the document's tracks has any
    points; otherwise (None, "no-track") or (None, "multi-track").

    Empty tracks do not count toward the total.  Multi-track recordings are
    out of scope.
    """
    populated = [track for track in doc.tracks if track.point_count() > 0]
    if len(populated) == 1:
        return populated[0], None
    return None, "multi-track" if populated else "no-track"
