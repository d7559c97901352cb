"""Output records: track filters, deduplication, coordinates text, and export.

A record is a dict of the 16 scalar properties, keyed in
``SCALAR_PROPERTIES`` order, plus ``"geometry"``: the UTF-8 bytes of the
JSON text of a MultiLineString's coordinates, whose vertices are
[lon, lat, elevation] triples, one line string per original segment.
``coordinates_text`` encodes them once, byte for byte as ``json.dumps``
would (with orjson where that is exact); metrics stores those bytes, and
both exports write them as they are, never decoded or copied into a longer
string.  ``export_records`` writes all three files as UTF-8 bytes in one
pass, encoding each record's properties and CSV row once.  Files are written
through ``atomic_files``, so a failed write never leaves a partial file behind.

The properties are written without ``json.dumps``: ``encode_record`` splices
each value's own JSON text into a byte template of the 16 keys, laid out as
``json.dumps`` lays out the dict.  The result is exact because each piece is:
orjson escapes every code point but a lone surrogate as ``json.dumps(...,
ensure_ascii=False)`` does (it refuses those); numbers are written by
``int.__repr__`` and ``float.__repr__``, which is what ``json.dumps`` calls;
and the constants are spelt as ``json.dumps`` spells them.  Any other type,
or a value orjson refuses, sends the record through ``json.dumps`` itself.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
import orjson

from .config import FilterConfig
from .gpx_model import Track

SCALAR_PROPERTIES = (
    "url", "warc_file", "warc_offset", "warc_len", "country",
    "desc", "desc_lang", "desc_en", "elev_source",
    "elev_highest", "elev_lowest", "uphill", "downhill",
    "length_2d", "length_3d", "is_circular",
)
ALL_PROPERTIES = SCALAR_PROPERTIES + ("geometry",)

ROUNDED_PROPERTIES = ("elev_highest", "elev_lowest", "uphill", "downhill",
                      "length_2d", "length_3d")


class RecordAssemblyError(Exception):
    """A pipeline stage handed on a track it should have completed (a bug)."""


def track_exclusion(track: Track, length_2d_m: float, config: FilterConfig) -> str | None:
    """"too-short", "too-long" or "low-density": the first geometry filter the
    track breaks; None when it passes them all.

    Length bounds are inclusive at both ends; density is the total point
    count per 100 m of 2D length, also inclusive at the threshold.
    """
    if length_2d_m < config.min_length_m:
        return "too-short"
    if length_2d_m > config.max_length_m:
        return "too-long"
    if track.point_count() / (length_2d_m / 100.0) < config.min_points_per_100m:
        return "low-density"
    return None


def coordinates_text(track: Track, url: str) -> bytes:
    """The JSON text of the track's MultiLineString coordinates, full precision,
    as UTF-8 bytes.

    The text is exactly what ``json.dumps`` writes of each segment's
    ``[lon, lat, ele]`` lists.  When every value is ±0.0 or has
    ``1e-4 <= |v| < 1e16``, the range where ``repr`` writes a float without
    an exponent, orjson's shortest round-trip writer gives the same digits
    several times faster.  orjson is handed each segment's float64
    ``(points, 3)`` array as it is (``OPT_SERIALIZE_NUMPY``), so no Python
    float is built; its ``,`` separators are widened to ``json.dumps``'s
    ``, ``, which is exact because the text holds nothing but numbers and
    brackets.  Any other value (a subnormal, 0.00001, an elevation of 1e300)
    sends the whole track through ``json.dumps``, of lists.

    Every point must carry an elevation by now; one without is a
    RecordAssemblyError naming ``url``.
    """
    if np.isnan(track.ele).any():
        raise RecordAssemblyError(f"point without elevation in {url}")
    points = np.column_stack((track.lon, track.lat, track.ele))
    # Row slices of the C-ordered points, as orjson's numpy writer requires.
    lines = np.split(points, track.segment_starts()) if track.segment_lengths else []
    magnitudes = np.abs(points)
    if (((magnitudes >= 1e-4) & (magnitudes < 1e16)) | (points == 0)).all():
        return orjson.dumps(lines, option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ")
    return json.dumps([line.tolist() for line in lines]).encode()


def dedup(rows: Iterable[dict], counts: dict | None = None) -> list[dict]:
    """Keep one row per ``"url"``, then one per ``"content_hash"``.

    Rows are processed in ascending (url, crawl_id) order, a missing
    ``"crawl_id"`` sorting first, and the first occurrence survives, so the
    outcome never depends on input order.  Pass a dict as ``counts`` to
    receive the per-pass removal tallies.
    """
    ordered = sorted(rows, key=lambda r: (r["url"], r.get("crawl_id", "")))
    deduped = []
    seen_urls = set()
    seen_hashes = set()
    duplicate_urls = 0
    for row in ordered:
        url = row["url"]
        if url in seen_urls:
            duplicate_urls += 1
            continue
        seen_urls.add(url)
        digest = row["content_hash"]
        if digest in seen_hashes:
            continue
        seen_hashes.add(digest)
        deduped.append(row)

    if counts is not None:
        counts["duplicate-url"] = duplicate_urls
        counts["duplicate-content"] = len(ordered) - duplicate_urls - len(deduped)
    return deduped


def record_properties(record: dict) -> dict:
    """The 16 scalar properties, with metric values rounded to 2 decimals.

    Centimeter precision already exceeds GPS accuracy, and fixed rounding
    keeps re-exports byte-identical.
    """
    properties = {}
    for name in SCALAR_PROPERTIES:
        value = record[name]
        if name in ROUNDED_PROPERTIES:
            value = round(float(value), 2)
        properties[name] = value
    return properties


def _csv_field(value) -> str:
    r"""``value`` as ``csv.writer(lineterminator="\n")`` writes a field under
    QUOTE_MINIMAL: None is empty, any other non-string is ``str(value)``, and
    a field holding ``,``, ``"``, ``\n`` or ``\r`` is quoted with its quotes
    doubled (NUL and the rest stay unquoted).  A ``\r`` is quoted as Python
    3.13's csv quotes it, so that a CSV reader reads the field as one; 3.11's
    leaves it bare, and 3.10's refuses a NUL.  The bytes are the same on
    every Python.  Each character is looked for with ``in``, a scan in C that
    is quicker than one regex search for all four."""
    text = "" if value is None else value if type(value) is str else str(value)
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


# The properties' JSON text as ``json.dumps`` lays out the dict: one ``%b``
# for each value's own text, in ``SCALAR_PROPERTIES`` order.
_PROPERTIES_TEMPLATE = ("{" + ", ".join(f'"{name}": %b' for name in SCALAR_PROPERTIES)
                        + "}").encode()


def _value_text(value) -> bytes:
    """``json.dumps(value, ensure_ascii=False)`` as UTF-8 bytes, for a value
    of exactly str, int, float, bool or None (the module docstring says why
    each text is exact); TypeError for any other type, and for a string
    holding a lone surrogate, which orjson refuses."""
    kind = type(value)
    if kind is str:
        return orjson.dumps(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value).encode()
        return b"NaN" if value != value else b"Infinity" if value > 0 else b"-Infinity"
    if kind is int:
        return int.__repr__(value).encode()
    if kind is bool:
        return b"true" if value else b"false"
    if value is None:
        return b"null"
    raise TypeError(f"no exact JSON text for a {kind.__name__}")


def encode_record(record: dict) -> tuple[bytes, bytes]:
    r"""The record's scalar properties as JSON and as a ``tracks.csv`` row.

    The JSON is exactly what ``json.dumps(..., ensure_ascii=False)`` writes,
    the row what ``csv.writer(lineterminator="\n")`` writes (``_csv_field``);
    each is built and encoded to UTF-8 once.  The JSON is each value's own
    text (``_value_text``) spliced into ``_PROPERTIES_TEMPLATE``.  A value of
    another type (a ``str`` subclass, a numpy scalar, a list) or one
    ``_value_text`` refuses (a lone surrogate, an int past Python's digit
    limit) sends the whole record through ``json.dumps`` itself, so the
    bytes, or the exception, are always ``json.dumps``'s.
    """
    properties = record_properties(record)
    values = tuple(properties.values())
    try:
        text = _PROPERTIES_TEMPLATE % tuple(map(_value_text, values))
    except (TypeError, ValueError):
        text = json.dumps(properties, ensure_ascii=False).encode()
    return text, (",".join(map(_csv_field, values)) + "\n").encode()


@contextmanager
def atomic_files(*files: tuple[Path, str]) -> Iterator[list[IO]]:
    """Open a temp file beside each ``(path, mode)`` and yield their handles.

    ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``.  Only once the block has
    succeeded are the temp files renamed over their targets, in the given
    order; a failure part-way leaves all previous files untouched and no
    temp file.
    """
    temps: list[Path] = []
    try:
        with ExitStack() as stack:
            handles = []
            for path, mode in files:
                path.parent.mkdir(parents=True, exist_ok=True)
                temps.append(path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp"))
                exclusive = mode.replace("w", "x")
                handles.append(stack.enter_context(
                    open(temps[-1], exclusive) if "b" in mode
                    else open(temps[-1], exclusive, encoding="utf-8")))
            yield handles
        for (path, _), temp in zip(files, temps):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def export_paths(out_dir: str | Path) -> dict[str, Path]:
    """The three files ``export_records`` writes into ``out_dir``."""
    out_dir = Path(out_dir)
    return {
        "geojson": out_dir / "tracks.geojson",
        "jsonl": out_dir / "tracks.jsonl",
        "csv": out_dir / "tracks.csv",
    }


# The bytes around a record's properties and coordinates in a GeoJSON Feature
# and a tracks.jsonl line, as ``json.dumps`` spaces them.
_FEATURE_HEAD = b'{"type": "Feature", "properties": '
_GEOMETRY_HEAD = b', "geometry": {"type": "MultiLineString", "coordinates": '


def export_records(records: Iterable[dict], out_dir: str | Path) -> dict[str, Path]:
    """Write the dataset as GeoJSON, line-delimited JSON, and scalar CSV.

    Output order follows the input (dedup survivor order); identical inputs
    produce byte-identical files.  ``records`` is consumed once, each record
    going to all three files before the next is taken, so a generator keeps
    one record in memory at a time.  Each record's coordinates bytes are
    written to both JSON files as they are, one piece among the others.  The
    three files are replaced together or not at all.
    """
    paths = export_paths(out_dir)
    with atomic_files((paths["geojson"], "wb"), (paths["jsonl"], "wb"),
                      (paths["csv"], "wb")) as (geojson, jsonl, csv_file):
        csv_file.write(",".join(SCALAR_PROPERTIES).encode() + b"\n")
        geojson.write(b'{"type": "FeatureCollection", "features": [')
        separator = b""
        for record in records:
            properties, row = encode_record(record)
            geometry = record["geometry"]
            geojson.writelines((separator, _FEATURE_HEAD, properties, _GEOMETRY_HEAD, geometry,
                                b"}}"))
            jsonl.writelines((properties[:-1], _GEOMETRY_HEAD, geometry, b"}}\n"))
            csv_file.write(row)
            separator = b", "
        geojson.write(b"]}")
    return paths
