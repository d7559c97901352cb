"""Staged, resumable pipeline: index -> fetch -> parse -> enrich -> metrics -> export.

Every stage file has a fixed name under the work directory (``PipelinePaths``);
only the exports go to ``cfg.out_dir``.  Each stage reads its predecessor's
files there, writes its own output plus a manifest, and reports a funnel line
(inputs = outputs + exclusions).  The manifest records the config values the
stage reads (its thresholds, sources and judges, not its retries or
parallelism) and the name, size and sha256 of every output, and a re-run
skips a stage only while the config still holds those values and each output
still matches.  No row and no manifest holds a path, so a work directory
resumes however it is spelled, from any directory, and after a move.
Each manifest also records the sha256 of the previous one (``after``), so
the manifests form a hash chain: a stage whose settings or outputs changed
re-executes, and the next one does too only if the new manifest differs
(early cutoff).  A stage command writes no other stage's manifest.

Parse, enrich and metrics each do their work once per distinct input and
repeat the outcome for every row carrying that input: parse and metrics per
content hash, enrich per raw description text.  A recrawled or mirrored file
therefore costs one parse, one set of judge and translator calls and one
metrics pass, however many captures carry it.  This is exact because each of
those steps is a deterministic function of its key; ``_kept_rows`` still
tallies exclusions and counters once per row, so reports and exports do not change.
``_kept_rows`` runs each key's work with the cyclic garbage collector paused
and restores it to its state on entry afterwards.  On a payload in the point
block form the work builds few objects the collector tracks (the skeleton
tree's elements, one list per block that orjson decodes, a few dicts; numpy
arrays are not tracked), and there the pause is within noise.  It is kept for
a payload the scan declines, which ElementTree parses whole into one element
per point and per point child, and whose collections would otherwise walk
them over and over.  None of those objects forms a reference cycle, so
reference counting frees them all when the work returns, and a cycle made
inside the work waits one key at most.

What a row of each stage file holds is declared once, in ``ROW_TABLES``;
``read_jsonl`` checks every row whole against its file's table.

Each stage row is one compact JSON object per line, encoded by
``orjson.dumps`` and decoded by ``orjson.loads``: UTF-8, no spaces, integers
within 64 bits (``CandidateRecord`` keeps ``warc_offset`` below 2**63 so that
index can write every candidate it finds).  Rows that ``json.dumps`` wrote
read back equal, so an older work directory resumes.  A line that is not
UTF-8, or not JSON (NaN, say), is a line that is no JSON object.  Manifests
are written with ``json.dump`` and read with ``json.loads``; they are read a
few times per run, not once per row.

Fetch appends each distinct payload once to ``payloads.bin``, written
together with ``fetched.jsonl``; each row carries the payload's byte offset
and its length there, and its ``content_hash`` is the sha256 of those bytes.
Fetch's manifest lists ``payloads.bin`` by size only, as parse checks each
payload's sha256: a deleted or truncated file makes the next run fetch again.

Rows passed up to metrics carry ids, the description and scalars, never
geometry.  Parse appends each accepted track's own ``lat``, ``lon`` and
``ele`` arrays back to back to ``tracks.f64``, as raw little-endian float64
values, written together with ``parsed.jsonl``; each row carries the track's
byte offset there, its segment lengths and the sha256 of its bytes.  Metrics
reads the arrays back from that file and never parses GPX.

Metrics writes each content hash's coordinates once, as the UTF-8 bytes of
the exact JSON text both exports embed, to ``geometry.jsonl`` (one text per
line), written together with ``final.jsonl`` and listed in metrics'
manifest.  Each ``final.jsonl`` row carries the scalar record plus the text's
byte offset in that file, its length and its sha256, never the text.  The
scalar record is the dict every export encodes: the 16 properties, keyed in
``records.SCALAR_PROPERTIES`` order.  Export dedups those thin rows and then
reads each survivor's bytes by offset, adding them to the record as
``"geometry"``, one record at a time.  The coordinates stay bytes from
``coordinates_text`` to the export files: no stage decodes them.

Fetch's ranged reads and enrich's judge and translator calls go through
``map_ordered``: with one worker (``fetch.max_parallel`` or
``judge_max_parallel`` of 1) they run on the calling thread, with no
executor, futures or look-ahead queue; with more, in a bounded thread pool.
Either way results come back in input order, so the files are the same.

Payloads, tracks and coordinates texts are all read back through
``StoredFiles``: a missing file, a range past its end, a short read or bytes
that no longer match the row's sha256 stop the reading stage with an error
naming the file.  Each record's bytes are hashed again as they are read,
except within one ``run_pipeline`` call that found the file's writer up to
date: that check has just hashed every byte of the file against the sha256
in the writer's manifest (``RunRecord.matched``), so ``tracks.f64`` after an
up-to-date parse and ``geometry.jsonl`` after an up-to-date metrics are read
without a digest per record, as the rows of every stage file are.  Every
other read hashes each record: a stage command run on its own, a run with
``resume=False``, a file whose writer executes in the same call, and
``payloads.bin`` always, as its manifest lists it by size only.  The gap
left open is a writer that changes a matched file between the check and the
read, the same gap every row file has.
Every stage but export streams its rows (enrich reads its input twice); DEM
tiles are read by row window (see ``elevation``).
"""

from __future__ import annotations

import gc
import glob
import hashlib
import json
import logging
import math
import os
import reprlib
import time
import zlib
from collections import Counter
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

import numpy as np
import orjson

from . import judges
from .config import PipelineConfig
from .descriptions import clean_text, common_languages, length_exclusion, mask_pii
from .elevation import ElevationUnavailableError, TileFileError, TileStore, backfill_elevation
from .geo_metrics import (compute_track_metrics, first_point_countries, length_2d,
                          load_boundaries, pick_country)
from .gpx_model import GpxParseError, ParseStats, Track, extract_single_track, parse_gpx
from .index_scan import CandidateRecord, ScanStats, iter_shard_lines, scan_index
from .language import detect_language
from .records import (ROUNDED_PROPERTIES, SCALAR_PROPERTIES, atomic_files, coordinates_text,
                      dedup, export_paths, export_records, track_exclusion)
from .warc_fetch import (FetchFailedError, FixtureTransport, HttpRangeTransport,
                         PayloadDecodeError, PayloadTooLargeError, WarcRecordSkippedError,
                         extract_payload, fetch_many, map_ordered)

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
        """The report ``to_dict`` wrote; ValueError when a count is no integer."""
        report = cls(stage=raw["stage"], inputs=raw["inputs"], outputs=raw["outputs"],
                     excluded=dict(raw.get("excluded", {})), info=dict(raw.get("info", {})))
        if not all(type(count) is int
                   for count in (report.inputs, report.outputs, *report.excluded.values())):
            raise ValueError(f"stage {report.stage}: a report count is not an integer")
        return report


def _stage_file(name: str) -> property:
    return property(lambda self: self.workdir / name, doc=f"``<workdir>/{name}``")


@dataclass
class RunRecord:
    """What one ``run_pipeline`` call has learned, for the stages it runs later.

    ``reports`` holds the report of each stage the call checked or ran, or
    whose manifest it read for stats, as that manifest holds it.
    ``matched`` holds every output of a stage the call found up to date
    whose manifest entry carries a sha256: the check has just hashed every
    byte of it against that digest.  An output listed by size only never
    joins, and a stage that executes takes its own outputs out before it
    writes them.
    """

    reports: dict[str, StageReport] = field(default_factory=dict)
    matched: set[Path] = field(default_factory=set)


@dataclass(frozen=True)
class PipelinePaths:
    """The stage files: one fixed name each under the work directory.

    ``run`` is the ``RunRecord`` of the ``run_pipeline`` call that made these
    paths; paths made anywhere else carry an empty one, so a stage called on
    its own learns nothing from earlier checks.
    """

    workdir: Path
    run: RunRecord = field(default_factory=RunRecord, compare=False, repr=False)

    candidates = _stage_file("candidates.jsonl")
    payloads = _stage_file("payloads.bin")
    fetched = _stage_file("fetched.jsonl")
    fetch_failures = _stage_file("fetch_failures.jsonl")
    parsed = _stage_file("parsed.jsonl")
    tracks = _stage_file("tracks.f64")
    enriched = _stage_file("enriched.jsonl")
    final = _stage_file("final.jsonl")
    geometry = _stage_file("geometry.jsonl")

    def manifest(self, stage: str) -> Path:
        return self.workdir / "manifests" / f"{stage}.json"


def write_json_atomic(path: Path, obj) -> None:
    with atomic_files((path, "w")) as (handle,):
        json.dump(obj, handle, ensure_ascii=False, indent=2)


def _write_rows(handle: BinaryIO, rows: Iterable[dict], stage: str) -> None:
    """Write each row as one JSON line.  orjson refuses some values that
    ``json.dumps`` writes (a lone surrogate, more than 255 levels of
    nesting), so a row it refuses is a PipelineError."""
    for row in rows:
        try:
            line = orjson.dumps(row, option=orjson.OPT_APPEND_NEWLINE)
        except TypeError as exc:  # orjson's JSONEncodeError
            raise PipelineError(f"stage {stage}: cannot write a row: {exc}") from exc
        handle.write(line)


@dataclass(frozen=True)
class Kind:
    """What one key of a stage row holds, and the words an error uses for it."""

    accepts: Callable[[Any], bool]
    words: str


class RowTable:
    """Every key an object of a stage file holds, in the order its writer
    writes them, and each key's kind: a ``Kind``, or a ``RowTable`` for an
    object inside the row.  The check list is built once."""

    words = "an object"

    def __init__(self, kinds: dict[str, Kind | RowTable]) -> None:
        self.kinds = kinds
        self._checks = tuple((name, kind.accepts) for name, kind in kinds.items())

    def accepts(self, row) -> bool:
        """Whether ``row`` is an object of exactly this table's keys, each of its kind."""
        if type(row) is not dict or row.keys() != self.kinds.keys():
            return False
        for name, accepts in self._checks:
            if not accepts(row[name]):
                return False
        return True

    def refusal(self, row: dict, owner: str | None = None) -> str:
        """Why ``accepts`` refuses ``row``, an object: the first key it lacks, in
        table order, its other keys, or its first value of the wrong kind.
        ``owner`` is the key of the row that holds ``row``, if any."""
        if missing := next((name for name in self.kinds if name not in row), None):
            return f"{owner} has no property {missing!r}" if owner else f"has no field {missing!r}"
        if extra := sorted(row.keys() - self.kinds.keys()):
            problem = (f"{owner} has unexpected properties {extra}" if owner
                       else f"unexpected fields {extra}")
        else:
            name, kind = next((name, kind) for name, kind in self.kinds.items()
                              if not kind.accepts(row[name]))
            value = row[name]
            if isinstance(kind, RowTable) and type(value) is dict:
                problem = kind.refusal(value, owner=name)
            else:
                key = f"{owner} property {name!r}" if owner else f"field {name!r}"
                problem = f"{key} must be {kind.words}, not {reprlib.repr(value)}"
        return problem if owner else f"is not a valid row ({problem})"


_STRING = Kind(lambda value: type(value) is str, "a string")
# bool is an int subclass, but true/false is no count.
_COUNT = Kind(lambda value: type(value) is int and value >= 0, "an int >= 0")
_BOOL = Kind(lambda value: type(value) is bool, "a bool")
# type(), not isinstance: true/false is no number.
_NUMBER = Kind(lambda value: type(value) in (int, float), "a number")
_STRING_OR_NULL = Kind(lambda value: value is None or type(value) is str, "a string or null")
_LENGTHS = Kind(lambda value: type(value) is list and bool(value) and all(
    type(length) is int and length > 0 for length in value), "a non-empty list of ints > 0")

# A fetched, parsed or enriched row holds the row its stage read: ``{**row, **fields}``.
_CANDIDATE_ROW = {"url": _STRING, "mime_detected": _STRING, "warc_file": _STRING,
                  "warc_offset": _COUNT, "warc_len": _COUNT, "crawl_id": _STRING}
_FETCHED_ROW = {**_CANDIDATE_ROW, "content_hash": _STRING, "payload_offset": _COUNT,
                "payload_length": _COUNT}
_PARSED_ROW = {**_FETCHED_ROW, "desc": _STRING_OR_NULL, "track_offset": _COUNT,
               "segment_lengths": _LENGTHS, "track_sha256": _STRING}
# Enrich keeps a row only with a description, cleaned in place.
_ENRICHED_ROW = {**_PARSED_ROW, "desc": _STRING, "desc_lang": _STRING, "desc_en": _STRING,
                 "pii_flags": RowTable(dict.fromkeys(("email", "url", "phone"), _BOOL))}
# A record holds the 16 ``SCALAR_PROPERTIES``, which export writes as they are.
_RECORD = {"url": _STRING, "warc_file": _STRING, "warc_offset": _COUNT, "warc_len": _COUNT,
           "country": _STRING, "desc": _STRING, "desc_lang": _STRING, "desc_en": _STRING,
           "elev_source": _STRING, **dict.fromkeys(ROUNDED_PROPERTIES, _NUMBER),
           "is_circular": _BOOL}

# The one table of each stage file of rows: a row read from it must hold
# exactly these keys, each of its kind, or the stage reading it stops.
ROW_TABLES = {name: RowTable(kinds) for name, kinds in {
    "candidates.jsonl": _CANDIDATE_ROW,
    "fetched.jsonl": _FETCHED_ROW,
    "fetch_failures.jsonl": {"url": _STRING, "reason": _STRING},
    "parsed.jsonl": _PARSED_ROW,
    "enriched.jsonl": _ENRICHED_ROW,
    "final.jsonl": {"url": _STRING, "crawl_id": _STRING, "content_hash": _STRING,
                    "record": RowTable(_RECORD), "geometry_offset": _COUNT,
                    "geometry_length": _COUNT, "geometry_sha256": _STRING},
}.items()}


def read_jsonl(path: Path, stage: str, convert: Callable[[dict], Any] | None = None) -> Iterator:
    """``path``'s rows, read as iterated; a line that is no JSON object, or a
    row that its file's table in ``ROW_TABLES`` refuses, is a PipelineError
    naming the file, the line and the stage to run again.  With ``convert``,
    each row is yielded as ``convert(row)``, and a row it refuses with a
    TypeError or ValueError is a PipelineError too."""
    if not path.exists():
        raise PipelineError(f"stage {stage}: missing input {path}")
    writer = STAGES[STAGES.index(stage) - 1]
    table = ROW_TABLES[path.name]

    def rows() -> Iterator[dict]:
        # Decoded line by line, so that a line that is not UTF-8, or not JSON
        # (NaN, say), is one more bad line.
        with open(path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    row = orjson.loads(line)
                except orjson.JSONDecodeError:
                    row = None
                if not table.accepts(row):
                    problem = (table.refusal(row) if type(row) is dict
                               else "is not a JSON object")
                    raise PipelineError(f"stage {stage}: {path} line {number} {problem}; "
                                        f"run {writer} again")
                if convert is not None:
                    try:
                        row = convert(row)
                    except (TypeError, ValueError) as exc:
                        raise PipelineError(f"stage {stage}: {path} line {number} is not a "
                                            f"valid row ({exc}); run {writer} again") from exc
                yield row
    return rows()


def _finish_stage(cfg: PipelineConfig, paths: PipelinePaths, report: StageReport) -> StageReport:
    # Index keeps its line buckets in ``info`` (stats.json publishes them
    # there), so its funnel is not checked here.
    excluded = sum(report.excluded.values())
    if report.stage != "index" and report.inputs != report.outputs + excluded:
        raise PipelineError(f"stage {report.stage}: funnel does not balance: "
                            f"{report.inputs} inputs != {report.outputs} outputs "
                            f"+ {excluded} excluded")
    logger.info("%s: %d in -> %d out, excluded %s", report.stage, report.inputs,
                report.outputs, dict(sorted(report.excluded.items())))
    write_json_atomic(paths.manifest(report.stage),
                      {**_stage_state(cfg, paths, report.stage), "report": report.to_dict()})
    return report


def _stage_state(cfg: PipelineConfig, paths: PipelinePaths, stage: str) -> dict:
    """``stage``'s manifest, report aside, as it must read for the stage to be
    up to date; ``after`` is the sha256 of the previous stage's manifest."""
    position = STAGES.index(stage)
    previous = paths.manifest(STAGES[position - 1]) if position else None
    after = (hashlib.sha256(previous.read_bytes()).hexdigest()
             if previous is not None and previous.exists() else None)
    return {"stage": stage, "settings": _stage_settings(cfg, stage), "after": after,
            "outputs": [_output_entry(p, hashed=p != paths.payloads)
                        for p in _stage_outputs(cfg, paths, stage)]}


def _stage_settings(cfg: PipelineConfig, stage: str) -> dict:
    """The config values ``stage`` reads, as its manifest records them.

    Retries, back-off, parallelism and the judge's key variable are left
    out: none of them is a rule that decides which rows a stage keeps.
    """
    filters = cfg.filters
    settings = {
        "index": {"shards": cfg.shards},
        "fetch": {"fixture_dir": cfg.fixture_dir, "base_url": cfg.fetch.base_url},
        "parse": {"min_length_m": filters.min_length_m, "max_length_m": filters.max_length_m,
                  "min_points_per_100m": filters.min_points_per_100m},
        "enrich": {"desc_min_chars": filters.desc_min_chars,
                   "desc_max_chars_exclusive": filters.desc_max_chars_exclusive,
                   "rare_lang_cutoff": filters.rare_lang_cutoff, "judge": cfg.judge,
                   "judge_model": cfg.judge_model, "translator": cfg.translator},
        "metrics": {"circular_radius_m": filters.circular_radius_m,
                    "elev_deadband_m": filters.elev_deadband_m, "srtm_dir": cfg.srtm_dir,
                    "boundaries": cfg.boundaries},
        "export": {},
    }[stage]
    # Paths become strings, as they read back from the manifest.
    return json.loads(json.dumps(settings, default=str))


def _stage_outputs(cfg: PipelineConfig, paths: PipelinePaths, stage: str) -> list[Path]:
    """The files ``stage`` writes, in the order its manifest lists them."""
    if stage == "export":
        out_dir = cfg.resolved_out_dir()
        return [*export_paths(out_dir).values(), out_dir / "stats.json"]
    return {"index": [paths.candidates],
            "fetch": [paths.payloads, paths.fetched, paths.fetch_failures],
            "parse": [paths.parsed, paths.tracks],
            "enrich": [paths.enriched],
            "metrics": [paths.final, paths.geometry]}[stage]


def _output_entry(path: Path, hashed: bool = True) -> dict:
    """Name, size and sha256 (if ``hashed``) of one stage output, as its
    manifest records it."""
    if not hashed:  # payloads.bin: parse checks each payload's sha256
        return {"name": path.name, "size": path.stat().st_size}
    digest = hashlib.sha256()
    size = 0
    # Small blocks: export hashes its files while its input rows are still
    # alive, and a large read buffer would show up in peak RSS.
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
            size += len(block)
    return {"name": path.name, "size": size, "sha256": digest.hexdigest()}


# --- stages ---------------------------------------------------------------------

def stage_index(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    if not cfg.shards:
        raise PipelineError("stage index: no --shards glob configured")
    shard_paths = sorted(glob.glob(cfg.shards))
    if not shard_paths:
        raise PipelineError(f"stage index: no shards match {cfg.shards!r}")

    stats = ScanStats()
    # Each candidate streams to candidates.jsonl as the scan yields it.
    with atomic_files((paths.candidates, "wb")) as (candidates,):
        for shard in shard_paths:
            _write_rows(candidates, (record.__dict__
                                     for record in scan_index(_shard_lines(shard), stats)),
                        "index")
    return _finish_stage(cfg, paths, StageReport(
        "index", inputs=stats.lines, outputs=stats.candidates,
        info={"shards": len(shard_paths), "not_candidate": stats.not_candidate,
              "malformed": stats.malformed, "blank": stats.blank}))


def _shard_lines(shard: str) -> Iterator[str]:
    """``iter_shard_lines``, with a failure to read the shard as a PipelineError:
    an unreadable file, bad gzip data or a stream cut before its end."""
    try:
        yield from iter_shard_lines(shard)
    except (OSError, EOFError, zlib.error) as exc:
        raise PipelineError(f"stage index: cannot read shard {shard}: {exc}") from exc


def stage_fetch(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    # CandidateRecord checks what the table does not: the URL and the ranges' bounds.
    candidates = read_jsonl(paths.candidates, "fetch", lambda row: CandidateRecord(**row))
    transport = (FixtureTransport(cfg.fixture_dir) if cfg.fixture_dir
                 else HttpRangeTransport())

    report = StageReport("fetch")
    offsets: dict[str, int] = {}  # content hash -> where its bytes start in payloads.bin
    # Each result streams to fetched.jsonl or fetch_failures.jsonl as it
    # arrives, and each distinct payload to payloads.bin; the three files are
    # replaced together once every candidate is done.  The transport is closed
    # when fetching ends, releasing a live transport's connections.
    with (closing(transport),
          atomic_files((paths.payloads, "wb"), (paths.fetched, "wb"),
                       (paths.fetch_failures, "wb")) as (payloads, fetched, failures)):
        for candidate, result in fetch_many(candidates, cfg.fetch, transport):
            report.inputs += 1
            if isinstance(result, FetchFailedError):
                reason, problem = "fetch-failed", result
            else:
                try:
                    payload = extract_payload(result)
                except WarcRecordSkippedError as exc:
                    reason, problem = "skipped-record", exc
                except PayloadDecodeError as exc:
                    reason, problem = "decode-error", exc
                except PayloadTooLargeError as exc:
                    reason, problem = "payload-too-large", exc
                else:
                    reason = None
            if reason is not None:
                report.exclude(reason)
                _write_rows(failures, [{"url": candidate.url, "reason": str(problem)}], "fetch")
                continue
            digest = hashlib.sha256(payload).hexdigest()
            if digest not in offsets:
                offsets[digest] = payloads.tell()
                payloads.write(payload)
            _write_rows(fetched, [{**candidate.__dict__, "content_hash": digest,
                                   "payload_offset": offsets[digest],
                                   "payload_length": len(payload)}], "fetch")
            report.outputs += 1

    return _finish_stage(cfg, paths, report)


def _kept_rows(report: StageReport, rows: Iterable[dict], key: Callable[[dict], str],
               work: Callable[[dict], tuple]) -> Iterator[tuple[dict, Any]]:
    """Each row ``work`` keeps, with its fields: ``work(row)`` returns (exclusion
    reason or None, fields, info counts) and runs once per distinct ``key(row)``,
    with the cyclic garbage collector paused (see the module docstring).
    Every row counts as an input of ``report``, adds the info counts, and is
    excluded or kept."""
    outcomes: dict[str, tuple] = {}
    for row in rows:
        report.inputs += 1
        if (name := key(row)) not in outcomes:
            enabled = gc.isenabled()
            gc.disable()
            try:
                outcomes[name] = work(row)
            finally:
                if enabled:
                    gc.enable()
        reason, fields, info = outcomes[name]
        for counter, count in info.items():
            report.info[counter] = report.info.get(counter, 0) + count
        if reason is not None:
            report.exclude(reason)
        else:
            report.outputs += 1
            yield row, fields


def stage_parse(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    rows = read_jsonl(paths.fetched, "parse")
    report = StageReport("parse", info=vars(ParseStats()))

    def parse_one(row: dict) -> tuple[str | None, dict | None, dict]:
        """(exclusion reason, fields added to the row, what parsing dropped).

        An accepted track's arrays are appended to ``tracks``, opened below;
        the fields locate them there.
        """
        stats = ParseStats()
        payload = payloads.read(row["payload_offset"], row["payload_length"],
                                row["content_hash"])
        try:
            doc = parse_gpx(payload, stats)
        except GpxParseError:
            return "parse-error", None, vars(stats)
        track, reason = extract_single_track(doc)
        if track is not None:
            reason = track_exclusion(track, length_2d(track), cfg.filters)
        if reason is not None:
            return reason, None, vars(stats)
        values = np.concatenate((track.lat, track.lon, track.ele)).astype(TRACK_DTYPE, copy=False)
        offset = tracks.tell()
        tracks.write(values)
        return None, {"desc": track.desc, "track_offset": offset,
                      "segment_lengths": track.segment_lengths,
                      "track_sha256": hashlib.sha256(values).hexdigest()}, vars(stats)

    # Each accepted track and its row stream to their files as soon as it is parsed.
    with (StoredFiles(paths.payloads, "parse", "payload", "fetch",
                      paths.run.matched) as payloads,
          atomic_files((paths.tracks, "wb"), (paths.parsed, "wb")) as (tracks, parsed)):
        _write_rows(parsed, ({**row, **fields} for row, fields in _kept_rows(
            report, rows, itemgetter("content_hash"), parse_one)), "parse")

    return _finish_stage(cfg, paths, report)


class StoredFiles(ExitStack):
    """Checked reads from a file an earlier stage wrote, opened at the first read.

    ``read`` returns the ``size`` bytes at ``offset`` as one ``bytes`` object
    and checks them against the sha256 the row recorded, unless ``path`` is
    in ``matched`` (a file this run's check has just hashed whole; see the
    module docstring); a file that cannot be opened, a range past its end, a
    short read or a digest mismatch is a ``PipelineError`` naming the file.
    The range is checked against the file's size before it is read, as a
    damaged row may claim any size.  Leaving the ``with`` block closes the
    file.
    """

    def __init__(self, path: Path, stage: str, kind: str, writer: str,
                 matched: set[Path]) -> None:
        super().__init__()
        self.path, self.writer = path, writer
        self.where = f"stage {stage}: {kind} file {path}"
        self._per_record = path not in matched
        self._handle: BinaryIO | None = None
        self._size = 0

    def read(self, offset: int, size: int, sha256: str) -> bytes:
        try:
            if self._handle is None:
                self._handle = self.enter_context(open(self.path, "rb"))
                self._size = os.fstat(self._handle.fileno()).st_size
            if offset + size > self._size:
                raise PipelineError(f"{self.where} is truncated")
            self._handle.seek(offset)
            data = self._handle.read(size)
        except OSError as exc:
            raise PipelineError(f"{self.where} cannot be read: {exc}") from exc
        if len(data) != size:
            raise PipelineError(f"{self.where} is truncated")
        if self._per_record and hashlib.sha256(data).hexdigest() != sha256:
            raise PipelineError(f"{self.where} changed after {self.writer}")
        return data


def _read_parsed_track(row: dict, tracks: StoredFiles) -> Track:
    """The track parse stored for ``row``, checked against its sha256."""
    lengths = row["segment_lengths"]
    points = sum(lengths)
    data = tracks.read(row["track_offset"], 3 * points * TRACK_DTYPE.itemsize,
                       row["track_sha256"])
    lat, lon, ele = np.frombuffer(data, dtype=TRACK_DTYPE).reshape(3, points)
    return Track(lat, lon, ele, segment_lengths=lengths)


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
    def desc_text(row: dict) -> str:
        return row["desc"] or ""

    # A first pass counts the rows of each text; the second writes the kept rows.
    rows_per_text = Counter(map(desc_text, read_jsonl(paths.parsed, "enrich")))
    report = StageReport("enrich")

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

    outcomes = dict(map_ordered(enrich_text, rows_per_text, max(1, cfg.judge_max_parallel)))

    # The rare-language cut, decided from every row the judges kept.
    languages = Counter()
    for text, (reason, fields) in outcomes.items():
        if reason is None:
            languages[fields["desc_lang"]] += rows_per_text[text]
    common = common_languages(languages, cfg.filters.rare_lang_cutoff)

    def enrich_one(row: dict) -> tuple[str | None, dict | None, dict]:
        reason, fields = outcomes[desc_text(row)]
        rare = reason is None and fields["desc_lang"] not in common
        return ("rare-lang" if rare else reason), fields, {}

    with atomic_files((paths.enriched, "wb")) as (enriched,):
        _write_rows(enriched, ({**row, **fields} for row, fields in _kept_rows(
            report, read_jsonl(paths.parsed, "enrich"), desc_text, enrich_one)),
                    "enrich")

    report.info = {"languages": {lang: languages[lang] for lang in sorted(common)}}
    return _finish_stage(cfg, paths, report)


def stage_metrics(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    rows = read_jsonl(paths.enriched, "metrics")
    report = StageReport("metrics")

    tiles = TileStore(cfg.srtm_dir) if cfg.srtm_dir else TileStore(Path(os.devnull))
    boundaries = load_boundaries(cfg.boundaries) if cfg.boundaries else []

    def metrics_one(row: dict) -> tuple[str | None, tuple[dict, dict] | None, dict]:
        """(exclusion reason, (record without geometry, where its geometry is),
        info counters to bump).

        The record's coordinates text is appended to ``geometry``, opened
        below; the ``geometry_*`` fields of the location point at it there.
        """
        track = _read_parsed_track(row, tracks)
        try:
            track, elev_source = backfill_elevation(track, tiles)
        except ElevationUnavailableError:
            return "elevation-unavailable", None, {}
        except TileFileError as exc:
            raise PipelineError(f"stage metrics: {exc}") from exc
        counters = {"elev_gps" if elev_source == "GPS" else "elev_dem": 1}

        # Elevations are finite but unbounded, so a climb between two of them
        # (1e308 and -1e308) can overflow.  A metric that is not finite excludes
        # the track: orjson would write it as null, which export refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            metrics = compute_track_metrics(track,
                                            circular_radius_m=cfg.filters.circular_radius_m,
                                            deadband_m=cfg.filters.elev_deadband_m)
        if not all(math.isfinite(getattr(metrics, name)) for name in ROUNDED_PROPERTIES):
            return "non-finite-metric", None, {}

        matches = first_point_countries(track, boundaries)
        country = pick_country(matches)
        if not matches:
            counters["country_unknown"] = 1
        elif len(matches) > 1:
            counters["country_ambiguous"] = 1

        fields = {**row, **vars(metrics), "country": country, "elev_source": elev_source}
        record = {name: fields[name] for name in SCALAR_PROPERTIES}
        text = coordinates_text(track, row["url"])
        offset = geometry.tell()
        geometry.write(text + b"\n")
        return None, (record, {"geometry_offset": offset, "geometry_length": len(text),
                               "geometry_sha256": hashlib.sha256(text).hexdigest()}), counters

    # Each row gets its own url/warc_* copy of its content hash's record.
    with (StoredFiles(paths.tracks, "metrics", "tracks", "parse",
                      paths.run.matched) as tracks,
          atomic_files((paths.geometry, "wb"), (paths.final, "wb")) as (geometry, final)):
        for row, (record, location) in _kept_rows(report, rows, itemgetter("content_hash"),
                                                  metrics_one):
            capture = {name: row[name] for name in ("url", "warc_file", "warc_offset", "warc_len")}
            _write_rows(final, [{"url": row["url"], "crawl_id": row["crawl_id"],
                                 "content_hash": row["content_hash"],
                                 "record": {**record, **capture}, **location}], "metrics")

    return _finish_stage(cfg, paths, report)


def stage_export(cfg: PipelineConfig, paths: PipelinePaths) -> StageReport:
    rows = list(read_jsonl(paths.final, "export"))
    report = StageReport("export")
    report.inputs = len(rows)

    counts: dict[str, int] = {}
    survivors = dedup(rows, counts=counts)
    for reason, count in counts.items():
        if count:
            report.exclude(reason, count)

    out_dir = cfg.resolved_out_dir()
    with StoredFiles(paths.geometry, "export", "geometry", "metrics",
                     paths.run.matched) as geometry:
        # Each survivor's coordinates are read only as export reaches it, and
        # written as the bytes metrics stored.
        records = ({**row["record"], "geometry": geometry.read(
            row["geometry_offset"], row["geometry_length"], row["geometry_sha256"])}
                   for row in survivors)
        try:
            export_records(records, out_dir)
        except OSError as exc:
            raise PipelineError(f"stage export: cannot write to {out_dir}: {exc}") from exc
    report.outputs = len(survivors)

    # The reports read for stats.json join the run's, so that run_pipeline
    # does not read them again.
    paths.run.reports["export"] = report
    write_json_atomic(out_dir / "stats.json", _collect_stats(paths, paths.run.reports).to_dict())
    return _finish_stage(cfg, paths, report)


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


def _read_manifest(paths: PipelinePaths, stage: str) -> tuple[dict, StageReport] | None:
    """``stage``'s manifest without its report, and the report; None when the
    manifest is missing or unreadable, is not a JSON object or holds no usable
    report.  A manifest nested too deep to decode is unreadable too."""
    try:
        raw = json.loads(paths.manifest(stage).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        return None
    if not (isinstance(raw, dict) and isinstance(raw.get("report"), dict)):
        return None
    try:
        return raw, StageReport.from_dict(raw.pop("report"))
    except (KeyError, TypeError, ValueError):  # a report field is missing or malformed
        return None


def _collect_stats(paths: PipelinePaths,
                   held: dict[str, StageReport] | None = None) -> PipelineStats:
    """Every stage's report, in stage order: the one in ``held`` where it
    holds one, else the one its manifest holds, which then joins ``held``; a
    stage with neither is left out."""
    held = {} if held is None else held
    for stage in STAGES:
        if stage not in held and (manifest := _read_manifest(paths, stage)) is not None:
            held[stage] = manifest[1]
    return PipelineStats(reports={stage: held[stage] for stage in STAGES if stage in held},
                         executed=[])


def _up_to_date_report(cfg: PipelineConfig, paths: PipelinePaths,
                       stage: str) -> StageReport | None:
    """The report ``stage``'s manifest holds when the rest of it equals
    ``_stage_state``, whose sha256s were just taken over every byte of the
    outputs, so each output listed with one joins ``paths.run.matched``;
    None when the stage must run."""
    manifest = _read_manifest(paths, stage)
    if manifest is None:
        return None
    try:
        state = _stage_state(cfg, paths, stage)
    except OSError:  # an output is missing
        return None
    if manifest[0] != state:
        return None
    paths.run.matched.update(path for path, entry in zip(_stage_outputs(cfg, paths, stage),
                                                         state["outputs"])
                             if "sha256" in entry)
    return manifest[1]


def run_pipeline(cfg: PipelineConfig, stages: list[str] | None = None,
                 resume: bool = True) -> PipelineStats:
    """Run the requested stages (all six by default) and gather the report.

    With resume enabled, a stage is skipped while its manifest, report aside,
    equals ``_stage_state``: its settings, its outputs and the previous
    manifest's sha256.  The returned stats carry the saved reports of skipped
    stages plus the list of stages actually executed this run.  A report the
    run already holds (the one a skipped stage's check read, or the one an
    executed stage returned and wrote) is not read again, neither for the
    returned stats nor for export's ``stats.json``; only a stage the run
    neither checked nor ran has its manifest read, once.  The paths the
    stages get carry the call's ``RunRecord``: those reports, and the files
    the checks matched whole, which ``StoredFiles`` then reads without a
    digest per record (see the module docstring).  Each executed
    stage's wall time and input rate are logged, and kept out of manifests
    and ``stats.json``, whose bytes must not depend on the run's speed.
    """
    selected = list(STAGES) if stages is None else list(stages)
    for stage in selected:
        if stage not in _STAGE_FUNCTIONS:
            raise PipelineError(f"unknown stage {stage!r}")

    paths = PipelinePaths(workdir=Path(cfg.workdir))
    try:
        paths.workdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PipelineError(f"cannot create work directory {paths.workdir}: {exc}") from exc

    run = paths.run
    executed = []
    for stage in selected:
        if resume and (report := _up_to_date_report(cfg, paths, stage)) is not None:
            logger.info("%s: up to date, skipping", stage)
        else:
            run.matched.difference_update(_stage_outputs(cfg, paths, stage))
            started = time.perf_counter()
            report = _STAGE_FUNCTIONS[stage](cfg, paths)
            seconds = time.perf_counter() - started
            logger.info("%s: %.3f s, %.0f inputs/s", stage, seconds,
                        report.inputs / seconds if seconds > 0 else 0.0)
            executed.append(stage)
        run.reports[stage] = report

    stats = _collect_stats(paths, run.reports)
    stats.executed = executed
    return stats
