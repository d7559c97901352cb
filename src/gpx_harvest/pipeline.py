"""Staged, resumable pipeline: index -> fetch -> parse -> enrich -> metrics -> export.

Each stage reads its predecessor's files under the work directory, writes its
own output plus a manifest, and reports a funnel line (inputs = outputs +
exclusions).  The manifest records the size and sha256 of every output, and a
re-run skips a stage only while each output still matches them.  Once a stage
re-executes, every later stage of the run re-executes too, so deleting,
truncating or editing one stage's output recomputes that stage and those
after it.

Parse, enrich and metrics each do their work once per distinct input and
repeat the outcome for every row carrying that input: parse and metrics per
content hash, enrich per raw description text.  A recrawled or mirrored file
therefore costs one parse, one set of judge and translator calls and one
metrics pass, however many captures carry it.  This is exact because each of
those steps is a deterministic function of its key; exclusions and counters
are still tallied once per row, so reports and exports do not change.

Rows passed up to metrics carry ids, the description and scalars, never
geometry.  Parse is the only stage that reads the ``raw/<sha256>.gpx``
payloads fetch wrote, so ``raw/`` must survive only until parse completes.
Parse appends each accepted track's arrays to one ``tracks.f64`` file of raw
little-endian float64 values (lat block, lon block, ele block, each over all
segments), written together with ``parsed.jsonl``; each row carries the
file's path, the track's byte offset, its segment lengths and the sha256 of
its bytes.  Metrics reads the arrays back from that file and never parses
GPX; a missing file, a short read or a digest mismatch stops it with an
error naming the file.  ``final.jsonl`` then carries each track's
coordinates as the exact JSON text both exports embed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import logging
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np

from . import judges
from .config import PipelineConfig
from .descriptions import (CleanDescription, PiiFlags, clean_text, filter_rare_languages,
                           length_exclusion, mask_pii)
from .elevation import ElevationUnavailableError, TileFileError, TileStore, backfill_elevation
from .geo_metrics import (compute_track_metrics, first_point_countries, length_2d,
                          load_boundaries, pick_country)
from .gpx_model import (GpxParseError, ParseStats, Segment, Track, extract_single_track,
                        parse_gpx)
from .index_scan import CandidateRecord, ScanStats, iter_shard_lines, scan_index
from .language import detect_language
from .records import (OutputRecord, assemble_record, dedup, export_paths, export_records,
                      passes_track_filters, write_atomic)
from .warc_fetch import (FetchFailedError, FixtureTransport, HttpRangeTransport,
                         PayloadDecodeError, PayloadTooLargeError, WarcRecordSkippedError,
                         extract_payload, fetch_many)

logger = logging.getLogger(__name__)

STAGES = ("index", "fetch", "parse", "enrich", "metrics", "export")

# Element type of the tracks file parse writes: raw little-endian float64.
TRACK_DTYPE = np.dtype("<f8")

# Operational problems, as opposed to data-quality exclusions; any of these
# turns the run's exit status into "completed with failures".
FAILURE_REASONS = ("fetch-failed", "judge-unavailable", "translation-failed")


class PipelineError(Exception):
    """A stage cannot run at all (missing inputs, bad configuration)."""


@dataclass
class StageReport:
    stage: str
    inputs: int = 0
    outputs: int = 0
    excluded: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def exclude(self, reason: str, count: int = 1) -> None:
        self.excluded[reason] = self.excluded.get(reason, 0) + count

    def failures(self) -> int:
        return sum(self.excluded.get(reason, 0) for reason in FAILURE_REASONS)

    def to_dict(self) -> dict:
        return {"stage": self.stage, "inputs": self.inputs, "outputs": self.outputs,
                "excluded": dict(sorted(self.excluded.items())),
                "info": dict(sorted(self.info.items()))}

    @classmethod
    def from_dict(cls, raw: dict) -> "StageReport":
        return cls(stage=raw["stage"], inputs=raw["inputs"], outputs=raw["outputs"],
                   excluded=dict(raw.get("excluded", {})), info=dict(raw.get("info", {})))


@dataclass
class PipelinePaths:
    """Stage input/output locations; anything not set lands under workdir."""

    workdir: Path
    candidates: Path | None = None
    raw_dir: Path | None = None
    fetched: Path | None = None
    fetch_failures: Path | None = None
    parsed: Path | None = None
    tracks: Path | None = None
    enriched: Path | None = None
    final: Path | None = None

    def __post_init__(self) -> None:
        self.workdir = Path(self.workdir)
        defaults = {
            "candidates": self.workdir / "candidates.jsonl",
            "raw_dir": self.workdir / "raw",
            "fetched": self.workdir / "fetched.jsonl",
            "fetch_failures": self.workdir / "fetch_failures.jsonl",
            "parsed": self.workdir / "parsed.jsonl",
            "tracks": self.workdir / "tracks.f64",
            "enriched": self.workdir / "enriched.jsonl",
            "final": self.workdir / "final.jsonl",
        }
        for name, default in defaults.items():
            if getattr(self, name) is None:
                setattr(self, name, default)

    def manifest(self, stage: str) -> Path:
        return self.workdir / "manifests" / f"{stage}.json"


def write_json_atomic(path: Path, obj) -> None:
    write_atomic((path, lambda handle: json.dump(obj, handle, ensure_ascii=False, indent=2)))


def _write_rows(handle: TextIO, rows) -> None:
    handle.writelines(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


def write_jsonl(path: Path, rows) -> None:
    write_atomic((path, lambda handle: _write_rows(handle, rows)))


def read_jsonl(path: Path, stage: str) -> list[dict]:
    if not path.exists():
        raise PipelineError(f"stage {stage}: missing input {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _finish_stage(paths: PipelinePaths, report: StageReport, outputs: list[Path]) -> StageReport:
    # Index keeps its line buckets in ``info`` (stats.json publishes them
    # there), so its funnel is not checked here.
    excluded = sum(report.excluded.values())
    if report.stage != "index" and report.inputs != report.outputs + excluded:
        raise PipelineError(f"stage {report.stage}: funnel does not balance: "
                            f"{report.inputs} inputs != {report.outputs} outputs "
                            f"+ {excluded} excluded")
    write_json_atomic(paths.manifest(report.stage), {
        "stage": report.stage,
        "outputs": [_output_entry(p) for p in outputs],
        "report": report.to_dict(),
    })
    return report


def _stage_outputs(cfg: PipelineConfig, paths: PipelinePaths, stage: str) -> list[Path]:
    """The files ``stage`` writes, in the order its manifest lists them."""
    if stage == "export":
        out_dir = cfg.resolved_out_dir()
        return [*export_paths(out_dir).values(), out_dir / "stats.json"]
    return {"index": [paths.candidates],
            "fetch": [paths.fetched, paths.fetch_failures],
            "parse": [paths.parsed, paths.tracks],
            "enrich": [paths.enriched],
            "metrics": [paths.final]}[stage]


def _output_entry(path: Path) -> dict:
    """Path, size and sha256 of one stage output, as its manifest records it."""
    digest = hashlib.sha256()
    size = 0
    # Small blocks: export hashes its files while its input rows are still
    # alive, and a large read buffer would show up in peak RSS.
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
            size += len(block)
    return {"path": str(path), "size": size, "sha256": digest.hexdigest()}


# --- stages ---------------------------------------------------------------------

def stage_index(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    if not cfg.shards:
        raise PipelineError("stage index: no --shards glob configured")
    shard_paths = sorted(glob.glob(cfg.shards))
    if not shard_paths:
        raise PipelineError(f"stage index: no shards match {cfg.shards!r}")

    report = StageReport("index")
    stats = ScanStats()
    rows = []
    for shard in shard_paths:
        try:
            for record in scan_index(iter_shard_lines(shard), stats):
                rows.append(record.__dict__)
        except OSError as exc:
            raise PipelineError(f"stage index: cannot read shard {shard}: {exc}") from exc

    write_jsonl(paths.candidates, rows)
    report.inputs = stats.lines
    report.outputs = stats.candidates
    report.excluded = {}
    report.info = {"shards": len(shard_paths), "not_candidate": stats.not_candidate,
                   "malformed": stats.malformed, "blank": stats.blank}
    logger.info("index: %d lines -> %d candidates (%d malformed)",
                stats.lines, stats.candidates, stats.malformed)
    return _finish_stage(paths, report, _stage_outputs(cfg, paths, "index"))


def stage_fetch(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    rows = read_jsonl(paths.candidates, "fetch")
    candidates = [CandidateRecord(**row) for row in rows]
    transport = (FixtureTransport(cfg.fixture_dir) if cfg.fixture_dir
                 else HttpRangeTransport())

    report = StageReport("fetch")
    report.inputs = len(candidates)
    paths.raw_dir.mkdir(parents=True, exist_ok=True)

    fetched_rows = []
    failure_rows = []
    written = set()
    for candidate, result in fetch_many(candidates, cfg.fetch, transport):
        if isinstance(result, FetchFailedError):
            report.exclude("fetch-failed")
            failure_rows.append({"url": candidate.url, "reason": str(result)})
            continue
        try:
            payload = extract_payload(result)
        except WarcRecordSkippedError as exc:
            report.exclude("skipped-record")
            failure_rows.append({"url": candidate.url, "reason": str(exc)})
            continue
        except PayloadDecodeError as exc:
            report.exclude("decode-error")
            failure_rows.append({"url": candidate.url, "reason": str(exc)})
            continue
        except PayloadTooLargeError as exc:
            report.exclude("payload-too-large")
            failure_rows.append({"url": candidate.url, "reason": str(exc)})
            continue
        digest = hashlib.sha256(payload).hexdigest()
        payload_path = paths.raw_dir / f"{digest}.gpx"
        if digest not in written:
            payload_path.write_bytes(payload)
            written.add(digest)
        fetched_rows.append({**candidate.__dict__, "content_hash": digest,
                             "payload": str(payload_path)})

    write_jsonl(paths.fetched, fetched_rows)
    write_jsonl(paths.fetch_failures, failure_rows)
    report.outputs = len(fetched_rows)
    logger.info("fetch: %d candidates -> %d payloads (%d failed)",
                len(candidates), len(fetched_rows), len(failure_rows))
    return _finish_stage(paths, report, _stage_outputs(cfg, paths, "fetch"))


def stage_parse(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    rows = read_jsonl(paths.fetched, "parse")
    report = StageReport("parse")
    report.inputs = len(rows)
    tracks_path = str(paths.tracks)

    def parse_one(row: dict, tracks: BinaryIO) -> tuple[str | None, dict | None, ParseStats]:
        """(exclusion reason, fields added to the row, what parsing dropped).

        An accepted track's arrays are appended to ``tracks``; the fields
        locate them there.
        """
        stats = ParseStats()
        payload_path = Path(row.get("payload") or paths.raw_dir / f"{row['content_hash']}.gpx")
        if not payload_path.exists():
            raise PipelineError(f"stage parse: missing payload {payload_path}")
        try:
            doc = parse_gpx(payload_path.read_bytes(), row["url"], stats)
        except GpxParseError:
            return "parse-error", None, stats
        track = extract_single_track(doc)
        if track is None:
            populated = sum(1 for t in doc.tracks if t.point_count() > 0)
            return ("multi-track" if populated > 1 else "no-track"), None, stats
        _, reason = passes_track_filters(track, length_2d(track), cfg.filters)
        if reason is not None:
            return reason, None, stats
        segments = track.segments
        values = np.concatenate([s.lat for s in segments] + [s.lon for s in segments]
                                + [s.ele for s in segments]).astype(TRACK_DTYPE, copy=False)
        offset = tracks.tell()
        tracks.write(values)
        return None, {"desc": track.desc, "track_file": tracks_path, "track_offset": offset,
                      "segment_lengths": [len(s) for s in segments],
                      "track_sha256": hashlib.sha256(values).hexdigest()}, stats

    totals = ParseStats()
    parsed_rows = []

    def write_tracks(tracks: BinaryIO) -> None:
        # Parsing runs inside this writer so that each accepted track streams
        # into the tracks file as soon as it is parsed.
        outcomes: dict[str, tuple] = {}
        for row in rows:
            digest = row["content_hash"]
            if digest not in outcomes:
                outcomes[digest] = parse_one(row, tracks)
            reason, fields, stats = outcomes[digest]
            totals.points_dropped += stats.points_dropped
            totals.tracks_dropped += stats.tracks_dropped
            if reason is not None:
                report.exclude(reason)
            else:
                parsed_rows.append({**row, **fields})

    write_atomic((paths.tracks, write_tracks, "b"),
                 (paths.parsed, lambda handle: _write_rows(handle, parsed_rows)))
    report.outputs = len(parsed_rows)
    report.info = {"points_dropped": totals.points_dropped,
                   "tracks_dropped": totals.tracks_dropped}
    logger.info("parse: %d payloads -> %d single-track activities", len(rows), len(parsed_rows))
    return _finish_stage(paths, report, _stage_outputs(cfg, paths, "parse"))


def _read_parsed_track(row: dict, handles: dict[str, BinaryIO], open_files: ExitStack) -> Track:
    """The track parse stored for ``row``, checked against its sha256.

    A tracks file is opened on first use, kept in ``handles`` and closed with
    ``open_files``.
    """
    path, lengths = row["track_file"], row["segment_lengths"]
    if path not in handles:
        try:
            handles[path] = open_files.enter_context(open(path, "rb"))
        except OSError as exc:
            raise PipelineError(f"stage metrics: cannot open tracks file {path}: {exc}") from exc
    points = sum(lengths)
    handles[path].seek(row["track_offset"])
    values = np.fromfile(handles[path], dtype=TRACK_DTYPE, count=3 * points)
    if len(values) != 3 * points:
        raise PipelineError(f"stage metrics: tracks file {path} is truncated")
    if hashlib.sha256(values).hexdigest() != row["track_sha256"]:
        raise PipelineError(f"stage metrics: tracks file {path} changed after parse")
    lat, lon, ele = values.reshape(3, points)
    bounds = np.cumsum(lengths)[:-1]
    return Track(segments=[Segment(*arrays) for arrays in
                           zip(np.split(lat, bounds), np.split(lon, bounds), np.split(ele, bounds))])


def _build_judge(cfg: PipelineConfig):
    if cfg.judge == "stub":
        return judges.StubJudge()
    return judges.ChatEndpointJudge(cfg.judge, model=cfg.judge_model,
                                    api_key=os.environ.get(cfg.judge_api_key_env))


def _build_translator(cfg: PipelineConfig):
    if cfg.translator == "stub":
        return judges.StubTranslator()
    return judges.CommandTranslator(cfg.translator)


def stage_enrich(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    rows = read_jsonl(paths.parsed, "enrich")
    report = StageReport("enrich")
    report.inputs = len(rows)

    judge = _build_judge(cfg)
    translator = _build_translator(cfg)

    def enrich_text(raw: str) -> tuple[str | None, dict | None]:
        """(exclusion reason, description fields replacing the row's ``desc``)."""
        text = clean_text(raw)
        text, pii_flags = mask_pii(text)
        reason = length_exclusion(text, cfg.filters)
        if reason is not None:
            return reason, None
        try:
            if not judges.judge_quality(text, judge):
                return "low-quality", None
            if judges.judge_pii(text, judge):
                return "pii", None
        except judges.JudgeUnavailableError:
            return "judge-unavailable", None
        lang = detect_language(text)
        if lang == "unknown":
            return "unknown-lang", None
        try:
            text_en = judges.translate_to_english(text, lang, translator)
        except judges.TranslationFailedError:
            return "translation-failed", None
        return None, {"desc": text, "desc_lang": lang, "desc_en": text_en,
                      "pii_flags": pii_flags.__dict__}

    texts = list(dict.fromkeys(row.get("desc") or "" for row in rows))
    with ThreadPoolExecutor(max_workers=max(1, cfg.judge_max_parallel)) as pool:
        outcomes = dict(zip(texts, pool.map(enrich_text, texts)))

    kept = []
    for row in rows:
        reason, fields = outcomes[row.get("desc") or ""]
        if reason is not None:
            report.exclude(reason)
        else:
            kept.append({**row, **fields})

    survivors = filter_rare_languages(kept, get_lang=lambda r: r["desc_lang"],
                                      cutoff=cfg.filters.rare_lang_cutoff)
    rare = len(kept) - len(survivors)
    if rare:
        report.exclude("rare-lang", rare)

    write_jsonl(paths.enriched, survivors)
    report.outputs = len(survivors)
    report.info = {"languages": dict(sorted(Counter(r["desc_lang"] for r in survivors).items()))}
    logger.info("enrich: %d tracks -> %d with usable descriptions", len(rows), len(survivors))
    return _finish_stage(paths, report, _stage_outputs(cfg, paths, "enrich"))


def stage_metrics(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    rows = read_jsonl(paths.enriched, "metrics")
    report = StageReport("metrics")
    report.inputs = len(rows)

    tiles = TileStore(cfg.srtm_dir) if cfg.srtm_dir else TileStore(Path(os.devnull))
    boundaries = load_boundaries(cfg.boundaries) if cfg.boundaries else []
    open_files = ExitStack()  # the tracks files, each opened once for the whole stage
    handles: dict[str, BinaryIO] = {}

    def metrics_one(row: dict) -> tuple[str | None, OutputRecord | None, tuple[str, ...]]:
        """(exclusion reason, assembled record, info counters to bump)."""
        track = _read_parsed_track(row, handles, open_files)
        try:
            track, elev_source = backfill_elevation(track, tiles)
        except ElevationUnavailableError:
            return "elevation-unavailable", None, ()
        except TileFileError as exc:
            raise PipelineError(f"stage metrics: {exc}") from exc
        counters = ["elev_gps" if elev_source == "GPS" else "elev_dem"]

        metrics = compute_track_metrics(track,
                                        circular_radius_m=cfg.filters.circular_radius_m,
                                        deadband_m=cfg.filters.elev_deadband_m)

        matches = first_point_countries(track, boundaries)
        country = pick_country(matches)
        if not matches:
            counters.append("country_unknown")
        elif len(matches) > 1:
            counters.append("country_ambiguous")

        candidate = CandidateRecord(url=row["url"], mime_detected=row.get("mime_detected", ""),
                                    warc_file=row["warc_file"], warc_offset=row["warc_offset"],
                                    warc_len=row["warc_len"], crawl_id=row.get("crawl_id", ""))
        desc = CleanDescription(text=row["desc"], lang=row["desc_lang"],
                                text_en=row["desc_en"], pii=PiiFlags(**row["pii_flags"]))
        record = assemble_record(candidate, track, metrics, desc, country, elev_source)
        return None, record, tuple(counters)

    # Everything but the capture fields follows from the content hash, so the
    # record is built once per hash and each row gets its own url/warc_* copy.
    outcomes: dict[str, tuple] = {}
    final_rows = []
    info = Counter()
    with open_files:
        for row in rows:
            digest = row["content_hash"]
            if digest not in outcomes:
                outcomes[digest] = metrics_one(row)
            reason, record, counters = outcomes[digest]
            info.update(counters)
            if reason is not None:
                report.exclude(reason)
                continue
            record = replace(record, url=row["url"], warc_file=row["warc_file"],
                             warc_offset=row["warc_offset"], warc_len=row["warc_len"])
            final_rows.append({"url": row["url"], "crawl_id": row.get("crawl_id", ""),
                               "content_hash": row["content_hash"],
                               "record": record.__dict__})

    write_jsonl(paths.final, final_rows)
    report.outputs = len(final_rows)
    report.info = dict(sorted(info.items()))
    logger.info("metrics: %d tracks -> %d records", len(rows), len(final_rows))
    return _finish_stage(paths, report, _stage_outputs(cfg, paths, "metrics"))


def stage_export(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    rows = read_jsonl(paths.final, "export")
    report = StageReport("export")
    report.inputs = len(rows)

    counts: dict[str, int] = {}
    survivors = dedup(rows, counts=counts)
    for reason, count in counts.items():
        if count:
            report.exclude(reason, count)

    out_dir = cfg.resolved_out_dir()
    try:
        export_records([OutputRecord(**row["record"]) for row in survivors], out_dir)
    except OSError as exc:
        raise PipelineError(f"stage export: cannot write to {out_dir}: {exc}") from exc
    report.outputs = len(survivors)

    write_json_atomic(out_dir / "stats.json", _collect_stats(paths, report).to_dict())
    logger.info("export: %d records -> %s", len(survivors), out_dir)
    return _finish_stage(paths, report, _stage_outputs(cfg, paths, "export"))


_STAGE_FUNCTIONS = {
    "index": stage_index,
    "fetch": stage_fetch,
    "parse": stage_parse,
    "enrich": stage_enrich,
    "metrics": stage_metrics,
    "export": stage_export,
}


# --- orchestration ----------------------------------------------------------------

@dataclass
class PipelineStats:
    reports: dict[str, StageReport]
    executed: list[str]

    def records(self) -> int:
        return self.reports["export"].outputs if "export" in self.reports else 0

    def failures(self) -> int:
        return sum(report.failures() for report in self.reports.values())

    def exclusions(self) -> dict[str, int]:
        merged: Counter = Counter()
        for report in self.reports.values():
            merged.update(report.excluded)
        return dict(sorted(merged.items()))

    def to_dict(self) -> dict:
        return {"stages": {name: report.to_dict() for name, report in self.reports.items()},
                "exclusions": self.exclusions(),
                "records": self.records(),
                "failures": self.failures()}

    def format_table(self) -> str:
        lines = [f"{'stage':<8} {'in':>7} {'out':>7}  exclusions"]
        for name, report in self.reports.items():
            excluded = ", ".join(f"{reason}={count}"
                                 for reason, count in sorted(report.excluded.items()))
            lines.append(f"{name:<8} {report.inputs:>7} {report.outputs:>7}  {excluded}")
        lines.append(f"records: {self.records()}   failures: {self.failures()}")
        return "\n".join(lines)


def _collect_stats(paths: PipelinePaths, current: StageReport | None = None) -> PipelineStats:
    reports = {}
    for stage in STAGES:
        if current is not None and stage == current.stage:
            reports[stage] = current
            continue
        manifest = paths.manifest(stage)
        if manifest.exists():
            raw = json.loads(manifest.read_text(encoding="utf-8"))
            reports[stage] = StageReport.from_dict(raw["report"])
    return PipelineStats(reports=reports, executed=[])


def _stage_is_complete(cfg: PipelineConfig, paths: PipelinePaths, stage: str) -> bool:
    manifest = paths.manifest(stage)
    if not manifest.exists():
        return False
    try:
        raw = json.loads(manifest.read_text(encoding="utf-8"))
        # A manifest without sizes and digests (a bare path list) is incomplete,
        # and so is one listing other files than the stage writes now, such as
        # one written before the stage gained an output.
        recorded = [entry["path"] for entry in raw["outputs"]]
        if recorded != [str(path) for path in _stage_outputs(cfg, paths, stage)]:
            return False
        return all(_output_entry(Path(entry["path"])) == entry for entry in raw["outputs"])
    except (json.JSONDecodeError, KeyError, TypeError, OSError):
        return False


def run_pipeline(cfg: PipelineConfig, stages: list[str] | None = None,
                 resume: bool = True, paths: PipelinePaths | None = None) -> PipelineStats:
    """Run the requested stages (all six by default) and gather the report.

    With resume enabled, stages whose outputs still match their manifest
    are skipped until the first stage that has to run; from there on every
    stage runs.  The returned stats carry the saved reports of skipped
    stages plus the list of stages actually executed this run.
    """
    selected = list(STAGES) if stages is None else list(stages)
    for stage in selected:
        if stage not in _STAGE_FUNCTIONS:
            raise PipelineError(f"unknown stage {stage!r}")

    if paths is None:
        paths = PipelinePaths(workdir=Path(cfg.workdir))
    paths.workdir.mkdir(parents=True, exist_ok=True)

    executed = []
    for stage in selected:
        # A stage that re-ran may have written other rows, and manifests do
        # not record inputs, so nothing after it can be trusted as up to date.
        if resume and not executed and _stage_is_complete(cfg, paths, stage):
            logger.info("%s: up to date, skipping", stage)
            continue
        _STAGE_FUNCTIONS[stage](cfg, paths)
        executed.append(stage)

    stats = _collect_stats(paths)
    stats.executed = executed
    return stats
