"""Per-layer metrics computed from one traced run's spans.

Per-call timings give the call count, the busy time summed over threads, the
median, and a tail: the highest of the p99.9/p99/p90/p50 levels that has at
least ten samples beyond it (``tail_pct`` says which; 100 means the maximum,
used below twenty calls).  Stage spans give wall time, self time (wall time
minus the part covered by child spans) and peak-RSS growth.
"""

from __future__ import annotations

import json
from pathlib import Path

from check import STAGES
from spans import text_digest

PER_CALL = ("warc_fetch.get_range", "warc_fetch.extract_payload", "gpx_model.parse_gpx",
            "gpx_model.strip_timestamps", "geo_metrics.length_2d",
            "geo_metrics.compute_track_metrics", "geo_metrics.find_countries",
            "elevation.backfill_elevation", "descriptions.clean_text", "descriptions.mask_pii",
            "language.detect_language")

JUDGE_CALLS = ("judges.judge_quality", "judges.judge_pii", "judges.translate_to_english")

_TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for stage in STAGES:
        units[f"pipeline.{stage}.s"] = "s"
        units[f"pipeline.{stage}.self_s"] = "s"
        units[f"pipeline.{stage}.rss_growth_mb"] = "MB"
    units.update({"pipeline.io.read_s": "s", "pipeline.io.write_s": "s",
                  "pipeline.io.bytes": "bytes", "pipeline.useful_ratio": "ratio"})
    for name in PER_CALL:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.p50_ms": "ms",
                      f"{name}.tail_ms": "ms", f"{name}.tail_pct": "%"})
    units.update({
        "index_scan.lines": "count", "index_scan.candidate_ratio": "ratio",
        "warc_fetch.read_amplification": "ratio", "warc_fetch.retries": "count",
        "warc_fetch.rate_wait_s": "s",
        "gpx_model.points": "count", "gpx_model.us_per_point": "us",
        "geo_metrics.length_2d.calls_per_track": "ratio",
        "elevation.dem_points": "count", "elevation.tile_loads": "count",
        "descriptions.masked_share": "ratio",
        "language.us_per_char": "us", "language.unknown_share": "ratio",
    })
    units.update({f"{name}.calls": "count" for name in JUDGE_CALLS})
    units.update({"judges.useful_ratio": "ratio",
                  "records.dedup.s": "s", "records.export_records.s": "s",
                  "records.export_bytes": "bytes", "records.duplicate_share": "ratio",
                  "trace.run_s": "s", "trace.overhead_s": "s"})
    return units


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _tail(sorted_values: list[float]) -> tuple[float, float]:
    n = len(sorted_values)
    for level in _TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10:
            return sorted_values[min(n - 1, int(n * level / 100.0))], level
    return (sorted_values[-1], 100.0) if sorted_values else (0.0, 100.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[tuple], reports: dict, run_s: float, workdir: Path) -> dict:
    """Per-layer values of one traced run (``trace.overhead_s`` is left to the caller)."""
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        span_id, name, start, end, parent, url, note = span
        by_name.setdefault(name, []).append(span)
        if parent is not None:
            children.setdefault(parent, []).append((start, end))

    def durations(name: str) -> list[float]:
        return sorted(end - start for _, _, start, end, *_ in by_name.get(name, ()))

    def notes(name: str, key: str) -> list:
        return [s[6][key] for s in by_name.get(name, ()) if s[6] and key in s[6]]

    def total(name: str) -> float:
        return sum(durations(name))

    def stage(name: str, key: str) -> int:
        return reports.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in STAGES:
        span = (by_name.get(f"pipeline.{name}") or [None])[0]
        if span is None:
            out.update({f"pipeline.{name}.s": 0.0, f"pipeline.{name}.self_s": 0.0,
                        f"pipeline.{name}.rss_growth_mb": 0.0})
            continue
        span_id, _, start, end, _, _, note = span
        out[f"pipeline.{name}.s"] = end - start
        out[f"pipeline.{name}.self_s"] = (end - start) - _covered(children.get(span_id, []),
                                                                  start, end)
        out[f"pipeline.{name}.rss_growth_mb"] = note.get("rss_growth_mb", 0.0)

    out["pipeline.io.read_s"] = total("pipeline.read_jsonl")
    out["pipeline.io.write_s"] = total("pipeline.write_jsonl")
    out["pipeline.io.bytes"] = float(sum(notes("pipeline.read_jsonl", "bytes"))
                                     + sum(notes("pipeline.write_jsonl", "bytes")))
    out["pipeline.useful_ratio"] = _ratio(stage("export", "outputs"), stage("parse", "outputs"))

    for name in PER_CALL:
        values = durations(name)
        tail, level = _tail(values)
        out[f"{name}.calls"] = float(len(values))
        out[f"{name}.s"] = sum(values)
        out[f"{name}.p50_ms"] = values[len(values) // 2] * 1e3 if values else 0.0
        out[f"{name}.tail_ms"] = tail * 1e3
        out[f"{name}.tail_pct"] = level

    out["index_scan.lines"] = float(stage("index", "inputs"))
    out["index_scan.candidate_ratio"] = _ratio(stage("index", "outputs"), stage("index", "inputs"))

    fetch = next((s[6] for s in by_name.get("pipeline.fetch", ())), {})
    requested = 0
    candidates = workdir / "candidates.jsonl"
    if candidates.exists():
        with open(candidates, encoding="utf-8") as handle:
            requested = sum(json.loads(line)["warc_len"] for line in handle if line.strip())
    out["warc_fetch.read_amplification"] = _ratio(fetch.get("rchar", 0), requested)
    out["warc_fetch.retries"] = float(len(durations("warc_fetch.get_range"))
                                      - stage("fetch", "inputs"))
    out["warc_fetch.rate_wait_s"] = total("warc_fetch.rate_wait")

    points = sum(notes("gpx_model.parse_gpx", "points"))
    out["gpx_model.points"] = float(points)
    out["gpx_model.us_per_point"] = _ratio(total("gpx_model.parse_gpx") * 1e6, points)
    out["geo_metrics.length_2d.calls_per_track"] = _ratio(len(durations("geo_metrics.length_2d")),
                                                          stage("parse", "outputs"))
    out["elevation.dem_points"] = float(sum(notes("elevation.backfill_elevation", "dem_points")))
    out["elevation.tile_loads"] = float(len(durations("elevation.read_hgt")))

    masked = notes("descriptions.mask_pii", "masked")
    out["descriptions.masked_share"] = _ratio(sum(masked), len(masked))
    out["language.us_per_char"] = _ratio(total("language.detect_language") * 1e6,
                                         sum(notes("language.detect_language", "chars")))
    unknown = notes("language.detect_language", "unknown")
    out["language.unknown_share"] = _ratio(sum(unknown), len(unknown))

    # A judge or translator call is useful when its text reaches the export,
    # once per function; repeats on the same text are duplicates' waste.
    exported = set()
    tracks = workdir / "out" / "tracks.jsonl"
    if tracks.exists():
        with open(tracks, encoding="utf-8") as handle:
            exported = {text_digest(json.loads(line)["desc"]) for line in handle if line.strip()}
    calls = useful = 0
    for name in JUDGE_CALLS:
        texts = notes(name, "text")
        out[f"{name}.calls"] = float(len(durations(name)))
        calls += len(durations(name))
        useful += len(set(texts) & exported)
    out["judges.useful_ratio"] = _ratio(useful, calls)

    out["records.dedup.s"] = total("records.dedup")
    out["records.export_records.s"] = total("records.export_records")
    out["records.export_bytes"] = float(sum(notes("records.export_records", "bytes")))
    duplicates = (reports.get("export", {}).get("excluded", {}).get("duplicate-url", 0)
                  + reports.get("export", {}).get("excluded", {}).get("duplicate-content", 0))
    out["records.duplicate_share"] = _ratio(duplicates, stage("export", "inputs"))
    out["trace.run_s"] = run_s
    return out
