"""Output records: track filters, deduplication, assembly, and export.

Every exported record carries the same 17 properties; geometry is a
MultiLineString whose vertices are [lon, lat, elevation] triples, one line
string per original segment.  ``assemble_record`` encodes them to JSON text
once; ``final.jsonl`` carries that exact text and both exports splice it in.
Files are written through ``write_atomic``, so a failed write never leaves a
partial file behind.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, TextIO

import numpy as np

from .config import FilterConfig
from .descriptions import CleanDescription
from .geo_metrics import TrackMetrics
from .gpx_model import Track
from .index_scan import CandidateRecord

SCALAR_PROPERTIES = (
    "url", "warc_file", "warc_offset", "warc_len", "country",
    "desc", "desc_lang", "desc_en", "elev_source",
    "elev_highest", "elev_lowest", "uphill", "downhill",
    "length_2d", "length_3d", "is_circular",
)
ALL_PROPERTIES = SCALAR_PROPERTIES + ("geometry",)

_ROUNDED_PROPERTIES = ("elev_highest", "elev_lowest", "uphill", "downhill",
                       "length_2d", "length_3d")


class RecordAssemblyError(Exception):
    """A pipeline stage handed assembly an incomplete component (a bug)."""


@dataclass
class OutputRecord:
    url: str
    warc_file: str
    warc_offset: int
    warc_len: int
    country: str
    desc: str
    desc_lang: str
    desc_en: str
    elev_source: str
    elev_highest: float
    elev_lowest: float
    uphill: float
    downhill: float
    length_2d: float
    length_3d: float
    is_circular: bool
    geometry: str  # JSON text of the coordinates: segments -> [lon, lat, elevation]


def passes_track_filters(track: Track, length_2d_m: float,
                         config: FilterConfig) -> tuple[bool, str | None]:
    """Apply the geometry filters; on failure, name the first broken rule.

    Length bounds are inclusive at both ends; density is the total point
    count per 100 m of 2D length, also inclusive at the threshold.
    """
    if length_2d_m < config.min_length_m:
        return False, "too-short"
    if length_2d_m > config.max_length_m:
        return False, "too-long"
    density = track.point_count() / (length_2d_m / 100.0)
    if density < config.min_points_per_100m:
        return False, "low-density"
    return True, None


def assemble_record(candidate: CandidateRecord, track: Track, metrics: TrackMetrics,
                    desc: CleanDescription, country: str, elev_source: str) -> OutputRecord:
    """Combine all stage outputs into one output record.

    A missing component means a stage was skipped; that is a programming
    error, reported by field name.
    """
    for field_name, value in (("candidate", candidate), ("track", track),
                              ("metrics", metrics), ("desc", desc),
                              ("country", country), ("elev_source", elev_source)):
        if not value:
            raise RecordAssemblyError(f"missing component: {field_name}")

    geometry = []
    for segment in track.segments:
        if np.isnan(segment.ele).any():
            raise RecordAssemblyError(f"point without elevation in {candidate.url}")
        geometry.append(np.column_stack((segment.lon, segment.lat, segment.ele)).tolist())

    return OutputRecord(
        url=candidate.url,
        warc_file=candidate.warc_file,
        warc_offset=candidate.warc_offset,
        warc_len=candidate.warc_len,
        country=country,
        desc=desc.text,
        desc_lang=desc.lang,
        desc_en=desc.text_en,
        elev_source=elev_source,
        elev_highest=metrics.elev_highest,
        elev_lowest=metrics.elev_lowest,
        uphill=metrics.uphill,
        downhill=metrics.downhill,
        length_2d=metrics.length_2d,
        length_3d=metrics.length_3d,
        is_circular=metrics.is_circular,
        geometry=json.dumps(geometry),
    )


def dedup(rows: Iterable[dict], url_key: str = "url", crawl_key: str = "crawl_id",
          hash_key: str = "content_hash", counts: dict | None = None) -> list[dict]:
    """Keep one row per URL, then one per content hash.

    Rows are processed in ascending (url, crawl_id) order and the first
    occurrence survives, so the outcome never depends on input order.  Pass a
    dict as ``counts`` to receive the per-pass removal tallies.
    """
    ordered = sorted(rows, key=lambda r: (r[url_key], r.get(crawl_key, "")))
    survivors = []
    seen_urls = set()
    for row in ordered:
        if row[url_key] in seen_urls:
            continue
        seen_urls.add(row[url_key])
        survivors.append(row)

    deduped = []
    seen_hashes = set()
    for row in survivors:
        digest = row[hash_key]
        if digest in seen_hashes:
            continue
        seen_hashes.add(digest)
        deduped.append(row)

    if counts is not None:
        counts["duplicate-url"] = len(ordered) - len(survivors)
        counts["duplicate-content"] = len(survivors) - len(deduped)
    return deduped


def record_properties(record: OutputRecord) -> dict:
    """The 16 scalar properties, with metric values rounded to 2 decimals.

    Centimeter precision already exceeds GPS accuracy, and fixed rounding
    keeps re-exports byte-identical.
    """
    properties = {}
    for name in SCALAR_PROPERTIES:
        value = getattr(record, name)
        if name in _ROUNDED_PROPERTIES:
            value = round(float(value), 2)
        properties[name] = value
    return properties


def record_json(record: OutputRecord, feature: bool = False) -> str:
    """A ``tracks.jsonl`` line, or with ``feature`` a GeoJSON Feature, exactly as
    ``json.dumps(..., ensure_ascii=False)`` writes it; the stored coordinates
    text is spliced in, never re-encoded."""
    properties = json.dumps(record_properties(record), ensure_ascii=False)
    geometry = f'{{"type": "MultiLineString", "coordinates": {record.geometry}}}'
    if feature:
        return f'{{"type": "Feature", "properties": {properties}, "geometry": {geometry}}}'
    return f'{properties[:-1]}, "geometry": {geometry}}}'


def write_atomic(*files: tuple[Path, Callable[[TextIO], None]]
                 | tuple[Path, Callable[[BinaryIO], None], str]) -> None:
    """Write each ``(path, write)`` pair all-or-nothing, in the given order.

    ``write(handle)`` fills a temp file beside ``path`` through a UTF-8 text
    handle, or through a binary one for a ``(path, write, "b")`` triple.
    Only once every write has succeeded are the temp files renamed over
    their targets.  A failure part-way leaves all previous files untouched
    and no temp file.
    """
    temps: list[Path] = []
    try:
        for path, write, *mode in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            temps.append(path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp"))
            with (open(temps[-1], "xb") if mode == ["b"]
                  else open(temps[-1], "x", encoding="utf-8")) as handle:
                write(handle)
        for (path, *_), temp in zip(files, temps):
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


def export_records(records: Iterable[OutputRecord], out_dir: str | Path) -> dict[str, Path]:
    """Write the dataset as GeoJSON, line-delimited JSON, and scalar CSV.

    Output order follows the input (dedup survivor order); identical inputs
    produce byte-identical files.  The three files are replaced together or
    not at all.
    """
    records = list(records)
    paths = export_paths(out_dir)

    def write_geojson(handle: TextIO) -> None:
        handle.write('{"type": "FeatureCollection", "features": [')
        for index, record in enumerate(records):
            handle.write((", " if index else "") + record_json(record, feature=True))
        handle.write("]}")

    def write_jsonl(handle: TextIO) -> None:
        for record in records:
            handle.write(record_json(record) + "\n")

    def write_csv(handle: TextIO) -> None:
        writer = csv.DictWriter(handle, fieldnames=list(SCALAR_PROPERTIES), lineterminator="\n")
        writer.writeheader()
        for record in records:
            writer.writerow(record_properties(record))

    write_atomic((paths["geojson"], write_geojson), (paths["jsonl"], write_jsonl),
                 (paths["csv"], write_csv))
    return paths
