import gc
import gzip
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import orjson
import pytest

from gpx_harvest import pipeline as pipeline_module
from gpx_harvest import records as records_module
from gpx_harvest.cli import main
from gpx_harvest.config import FilterConfig, PipelineConfig, load_config
from gpx_harvest.pipeline import (ROW_TABLES, STAGES, PipelineError, PipelinePaths, read_jsonl,
                                  run_pipeline, write_json_atomic)
from gpx_harvest.synthetic import build_demo_crawl, write_index_shard
from gpx_harvest.warc_fetch import FetchPolicy, FixtureTransport, RateLimiter


@pytest.fixture()
def crawl(tmp_path):
    return build_demo_crawl(tmp_path / "crawl")


def run_config(crawl, tmp_path, name):
    cfg = load_config(crawl.config)
    cfg.workdir = tmp_path / name
    cfg.out_dir = None
    return cfg


def test_golden_run_produces_two_records(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    stats = run_pipeline(cfg)

    assert stats.records() == 2
    assert stats.failures() == 0
    exclusions = stats.exclusions()
    for reason in ("multi-track", "too-short", "low-density", "desc-too-short"):
        assert exclusions.get(reason) == 1, f"{reason}: {exclusions}"

    collection = json.loads((cfg.resolved_out_dir() / "tracks.geojson").read_text("utf-8"))
    by_url = {f["properties"]["url"]: f["properties"] for f in collection["features"]}
    uk = by_url[crawl.urls["valid_en"]]
    de = by_url[crawl.urls["valid_de"]]

    assert uk["country"] == "United Kingdom"
    assert uk["desc_lang"] == "en"
    assert uk["elev_source"] == "GPS"
    assert uk["is_circular"] is False
    assert de["country"] == "Germany"
    assert de["desc_lang"] == "de"
    assert de["elev_source"] == "DEM"
    assert de["is_circular"] is True
    assert de["elev_highest"] == 250.0


def test_each_executed_stage_logs_its_wall_time_and_input_rate(crawl, tmp_path, caplog):
    def timed_stages():
        lines = [re.fullmatch(r"(\w+): \d+\.\d{3} s, \d+ inputs/s", record.getMessage())
                 for record in caplog.records if record.name == "gpx_harvest.pipeline"]
        caplog.clear()
        return [line[1] for line in lines if line]

    cfg = run_config(crawl, tmp_path, "w1")
    with caplog.at_level(logging.INFO, logger="gpx_harvest.pipeline"):
        run_pipeline(cfg)
        assert timed_stages() == list(STAGES)
        run_pipeline(cfg)
        assert timed_stages() == []
        run_pipeline(cfg, stages=["export"], resume=False)
        assert timed_stages() == ["export"]


def test_returned_stats_equal_the_reports_read_back_from_disk(crawl, tmp_path):
    # run_pipeline keeps the reports it already holds: each skipped stage's
    # from its check, each executed stage's as returned.  They must read as
    # the manifests on disk do.
    cfg = run_config(crawl, tmp_path, "w")
    paths = PipelinePaths(workdir=cfg.workdir)

    def check(stats, executed):
        on_disk = pipeline_module._collect_stats(paths)
        assert stats.executed == executed
        assert list(stats.reports) == list(STAGES)
        assert stats.to_dict() == on_disk.to_dict()
        assert stats.format_table() == on_disk.format_table()
        assert stats.failures() == on_disk.failures()
        return stats

    check(run_pipeline(cfg), list(STAGES))
    shutil.rmtree(cfg.resolved_out_dir())
    check(run_pipeline(cfg), ["export"])
    check(run_pipeline(cfg, resume=False), list(STAGES))
    check(run_pipeline(cfg, stages=["parse"]), [])
    check(run_pipeline(cfg, stages=["parse"], resume=False), ["parse"])
    # A copy of a candidate pointing past the end of its WARC file makes fetch
    # fail one, so the failure count is compared too.
    first = json.loads(paths.candidates.read_bytes().splitlines()[0])
    with open(paths.candidates, "ab") as handle:
        handle.write(json.dumps({**first, "warc_offset": 10_000_000}).encode() + b"\n")
    stats = check(run_pipeline(cfg, stages=list(STAGES[1:]), resume=False), list(STAGES[1:]))
    assert stats.failures() == 1


def test_a_run_reads_a_manifest_only_for_a_stage_it_neither_checked_nor_ran(crawl, tmp_path,
                                                                            monkeypatch):
    cfg = run_config(crawl, tmp_path, "w")
    run_pipeline(cfg)
    read = []
    read_manifest = pipeline_module._read_manifest
    monkeypatch.setattr(pipeline_module, "_read_manifest",
                        lambda paths, stage: read.append(stage) or read_manifest(paths, stage))
    assert run_pipeline(cfg).executed == []
    assert read == list(STAGES)  # each by its stage's check
    read.clear()
    assert run_pipeline(cfg, stages=["parse"]).executed == []
    assert read == ["parse", *[stage for stage in STAGES if stage != "parse"]]
    read.clear()
    assert run_pipeline(cfg, stages=["parse"], resume=False).executed == ["parse"]
    assert read == [stage for stage in STAGES if stage != "parse"]
    # Export writes stats.json from the reports the run holds too, so a
    # resume that re-runs it reads each manifest once, by its stage's check.
    read.clear()
    shutil.rmtree(cfg.resolved_out_dir())
    assert run_pipeline(cfg).executed == ["export"]
    assert read == list(STAGES)
    # Export alone reads the other manifests for stats.json, and the run's
    # closing stats take those reports rather than reading them again.
    others = [stage for stage in STAGES if stage != "export"]
    read.clear()
    assert run_pipeline(cfg, stages=["export"], resume=False).executed == ["export"]
    assert read == others
    read.clear()
    shutil.rmtree(cfg.resolved_out_dir())
    assert run_pipeline(cfg, stages=["export"]).executed == ["export"]
    assert read == ["export", *others]


def test_golden_run_stage_conservation(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    stats = run_pipeline(cfg)
    for name, report in stats.reports.items():
        # Index keeps its line buckets in ``info``, as stats.json publishes them.
        excluded = (report.info["not_candidate"] + report.info["malformed"] + report.info["blank"]
                    if name == "index" else sum(report.excluded.values()))
        assert report.inputs == report.outputs + excluded, name


def test_exported_records_pass_filters_when_rechecked(crawl, tmp_path):
    from gpx_harvest.descriptions import length_exclusion
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    filters = FilterConfig()
    lines = (cfg.resolved_out_dir() / "tracks.jsonl").read_text("utf-8").splitlines()
    assert lines
    for line in lines:
        obj = json.loads(line)
        assert filters.min_length_m <= obj["length_2d"] <= filters.max_length_m
        assert length_exclusion(obj["desc"], filters) is None
        point_count = sum(len(seg) for seg in obj["geometry"]["coordinates"])
        assert point_count / (obj["length_2d"] / 100.0) >= filters.min_points_per_100m
        assert obj["desc_lang"] != "unknown"


def test_golden_run_byte_identical_across_runs(crawl, tmp_path):
    cfg1 = run_config(crawl, tmp_path, "w1")
    cfg2 = run_config(crawl, tmp_path, "w2")
    run_pipeline(cfg1)
    run_pipeline(cfg2)
    for name in ("tracks.geojson", "tracks.jsonl", "tracks.csv", "stats.json"):
        first = (cfg1.resolved_out_dir() / name).read_bytes()
        second = (cfg2.resolved_out_dir() / name).read_bytes()
        assert first == second, name


# sha256 of the demo crawl's exports.  Refactors and speed-ups must keep every
# byte; only a deliberate change to the output format updates these.
GOLDEN_SHA256 = {
    "tracks.geojson": "3e0b04f67a16e77dcfffdeb7db072302341df22c366f9f84649183d18a1f307f",
    "tracks.jsonl": "f061e641d7b10261a2f904aef0a5d1ee11a0d1fc4e3223a85bd1d39ad7e9f79a",
    "tracks.csv": "958d25e906725371bea59c1d759c5badc8971cbc70347b140213795dd87656f9",
    "stats.json": "59683fa6accb136fe46b0cb534df41ca39a56e024a7ad77e39e5550aa5758322",
}


def test_golden_run_exports_match_pinned_digests(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    digests = {name: hashlib.sha256((cfg.resolved_out_dir() / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


# sha256 of the demo crawl's final.jsonl ``record`` objects, one json.dumps
# line each, so key order and unrounded metric values are pinned too.
FINAL_RECORDS_SHA256 = "2749c02c848e0a8d85dec3bc862318c2e3f15d001bd0e4a06dd4fe55385dd9df"


def test_golden_run_final_records_match_pinned_digest(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    lines = PipelinePaths(workdir=cfg.workdir).final.read_text("utf-8").splitlines()
    text = "".join(json.dumps(json.loads(line)["record"], ensure_ascii=False) + "\n"
                   for line in lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FINAL_RECORDS_SHA256


def test_resume_skips_completed_stages(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    first = run_pipeline(cfg)
    assert first.executed == list(STAGES)

    again = run_pipeline(cfg)
    assert again.executed == []

    (cfg.resolved_out_dir() / "tracks.geojson").unlink()
    third = run_pipeline(cfg)
    assert third.executed == ["export"]
    assert third.records() == 2


EXPORTS = ("tracks.geojson", "tracks.jsonl", "tracks.csv", "stats.json")


def assert_same_exports(cfg, reference):
    for name in EXPORTS:
        assert ((cfg.resolved_out_dir() / name).read_bytes()
                == (reference.resolved_out_dir() / name).read_bytes()), name


def drop_manifest_key(paths, key):
    """Rewrite every stage's manifest without ``key``."""
    for stage in STAGES:
        manifest = json.loads(paths.manifest(stage).read_text("utf-8"))
        del manifest[key]
        write_json_atomic(paths.manifest(stage), manifest)


@pytest.mark.parametrize("drop_exports", [False, True])
def test_resume_recomputes_a_truncated_output(crawl, tmp_path, drop_exports):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)

    final = PipelinePaths(workdir=cfg.workdir).final
    lines = final.read_text("utf-8").splitlines(keepends=True)
    assert len(lines) == 2
    final.write_text(lines[0], encoding="utf-8")
    if drop_exports:
        for name in EXPORTS:
            (cfg.resolved_out_dir() / name).unlink()

    resumed = run_pipeline(cfg)
    # Metrics rebuilds the same files, so export is up to date unless its own
    # files are gone.
    assert resumed.executed == (["metrics", "export"] if drop_exports else ["metrics"])
    assert resumed.records() == 2
    assert_same_exports(cfg, fresh)


def test_resume_recomputes_an_output_edited_in_place(crawl, tmp_path):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    parsed = PipelinePaths(workdir=cfg.workdir).parsed
    data = bytearray(parsed.read_bytes())
    data[data.index(b'"url"') + 1] = ord("U")  # same size, other bytes
    parsed.write_bytes(bytes(data))

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["parse"]
    assert parsed.read_bytes() == PipelinePaths(workdir=fresh.workdir).parsed.read_bytes()
    assert_same_exports(cfg, fresh)


def test_resume_recomputes_from_parse_when_the_tracks_file_is_edited(crawl, tmp_path):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    tracks = PipelinePaths(workdir=cfg.workdir).tracks
    data = bytearray(tracks.read_bytes())
    data[-1] ^= 0x01  # the last elevation: same size, other value
    tracks.write_bytes(bytes(data))

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["parse"]
    assert tracks.read_bytes() == PipelinePaths(workdir=fresh.workdir).tracks.read_bytes()
    assert_same_exports(cfg, fresh)


def test_manifest_without_output_digests_counts_as_incomplete(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    paths = PipelinePaths(workdir=cfg.workdir)
    manifest = json.loads(paths.manifest("export").read_text("utf-8"))
    assert {"name", "size", "sha256"} <= manifest["outputs"][0].keys()
    manifest["outputs"] = [entry["name"] for entry in manifest["outputs"]]
    write_json_atomic(paths.manifest("export"), manifest)

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["export"]


def test_work_directory_from_before_the_tracks_file_reruns_parse(crawl, tmp_path):
    # Parse used to write only parsed.jsonl, with no track location fields,
    # and its manifest listed that one file.  No manifest held ``after`` then.
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    paths = PipelinePaths(workdir=cfg.workdir)
    track_fields = ("track_offset", "segment_lengths", "track_sha256")
    for stage, path in (("parse", paths.parsed), ("enrich", paths.enriched)):
        rows = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        path.write_text("".join(json.dumps({k: v for k, v in row.items() if k not in track_fields},
                                           ensure_ascii=False) + "\n" for row in rows), "utf-8")
        manifest = json.loads(paths.manifest(stage).read_text("utf-8"))
        data = path.read_bytes()
        manifest["outputs"] = [{"name": path.name, "size": len(data),
                                "sha256": hashlib.sha256(data).hexdigest()}]
        write_json_atomic(paths.manifest(stage), manifest)
    paths.tracks.unlink()
    paths.final.unlink()
    drop_manifest_key(paths, "after")

    resumed = run_pipeline(cfg)
    assert resumed.executed == list(STAGES)
    assert_same_exports(cfg, fresh)


def test_resume_recomputes_from_metrics_when_the_geometry_file_is_edited(crawl, tmp_path):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    geometry = PipelinePaths(workdir=cfg.workdir).geometry
    data = bytearray(geometry.read_bytes())
    data[3] ^= 0x01  # the first longitude's first digit: same size, other value
    geometry.write_bytes(bytes(data))

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["metrics"]
    assert geometry.read_bytes() == PipelinePaths(workdir=fresh.workdir).geometry.read_bytes()
    assert_same_exports(cfg, fresh)


def stored_digests(monkeypatch) -> Counter:
    """The digests ``StoredFiles.read`` takes from now on, counted by the name
    of the file it reads, through a spy on the ``hashlib.sha256`` it calls."""
    counts = Counter()
    sha256 = hashlib.sha256

    def spy(*args):
        caller = sys._getframe(1)
        if caller.f_code is pipeline_module.StoredFiles.read.__code__:
            counts[caller.f_locals["self"].path.name] += 1
        return sha256(*args)
    monkeypatch.setattr(pipeline_module.hashlib, "sha256", spy)
    return counts


def per_record_digests(cfg, stats) -> Counter:
    """The digests ``StoredFiles`` takes when it checks every record it reads:
    one per distinct payload parse reads, one per distinct track metrics reads
    and one per record export writes."""
    paths = PipelinePaths(workdir=cfg.workdir)

    def distinct_contents(path):
        return len({orjson.loads(line)["content_hash"] for line in path.read_bytes().splitlines()})
    return Counter({"payloads.bin": distinct_contents(paths.fetched),
                    "tracks.f64": distinct_contents(paths.enriched),
                    "geometry.jsonl": stats.records()})


def test_a_resume_reads_the_coordinates_its_metrics_check_matched_without_hashing_them(
        crawl, tmp_path, monkeypatch):
    cfg = run_config(crawl, tmp_path, "w")
    run_pipeline(cfg)
    out_dir = cfg.resolved_out_dir()
    exports = {name: (out_dir / name).read_bytes() for name in EXPORTS}
    shutil.rmtree(out_dir)

    digests = stored_digests(monkeypatch)
    assert run_pipeline(cfg).executed == ["export"]
    assert digests == {}
    assert {name: (out_dir / name).read_bytes() for name in EXPORTS} == exports


def test_export_run_on_its_own_hashes_each_survivor_and_refuses_an_edited_text(
        crawl, tmp_path, monkeypatch):
    cfg = run_config(crawl, tmp_path, "w")
    run_pipeline(cfg)
    shutil.rmtree(cfg.resolved_out_dir())

    digests = stored_digests(monkeypatch)
    stats = run_pipeline(cfg, stages=["export"])
    assert stats.executed == ["export"]
    assert digests == {"geometry.jsonl": stats.records()} == {"geometry.jsonl": 2}

    geometry = PipelinePaths(workdir=cfg.workdir).geometry
    data = bytearray(geometry.read_bytes())
    first_digit = next(i for i, byte in enumerate(data) if chr(byte).isdigit())
    data[first_digit] ^= 0x01  # in the first survivor's text: same size, other value
    geometry.write_bytes(bytes(data))
    with pytest.raises(PipelineError, match=r"geometry file .*geometry\.jsonl changed after metrics"):
        run_pipeline(cfg, stages=["export"], resume=False)


@pytest.mark.parametrize("rerun", ["fresh", "no-resume", "changed-min-length"])
def test_a_run_hashes_each_record_of_a_file_no_check_of_its_own_matched(crawl, tmp_path,
                                                                         monkeypatch, rerun):
    # A fresh run and a run without resume match no file.  A changed parse
    # setting re-runs parse, whose tracks metrics then reads, while fetch stays
    # up to date: but fetch's manifest lists payloads.bin by size only.
    cfg = run_config(crawl, tmp_path, "w")
    if rerun != "fresh":
        run_pipeline(cfg)
    digests = stored_digests(monkeypatch)
    if rerun == "changed-min-length":
        cfg.filters.min_length_m = 1000.0
        stats = run_pipeline(cfg)
        assert stats.executed == list(STAGES[2:])
    else:
        stats = run_pipeline(cfg, resume=rerun == "fresh")
        assert stats.executed == list(STAGES)
    assert digests == per_record_digests(cfg, stats)
    assert all(count > 0 for count in digests.values())


def test_a_file_matched_earlier_in_a_run_is_hashed_per_record_once_its_writer_reruns(
        crawl, tmp_path, monkeypatch):
    # Metrics' first check sees enrich's manifest, which a changed parse
    # setting has not reached yet, so it matches geometry.jsonl; parse and
    # enrich then re-run, and the second metrics rewrites geometry.jsonl.
    cfg = run_config(crawl, tmp_path, "w")
    run_pipeline(cfg)
    cfg.filters.min_length_m = 1000.0
    digests = stored_digests(monkeypatch)
    stats = run_pipeline(cfg, stages=["metrics", "parse", "enrich", "metrics", "export"])
    assert stats.executed == ["parse", "enrich", "metrics", "export"]
    assert digests["geometry.jsonl"] == stats.records() > 0


def test_metrics_rerun_under_a_new_setting_reads_the_matched_tracks_without_hashing_them(
        crawl, tmp_path, monkeypatch):
    fresh = run_config(crawl, tmp_path, "fresh")
    cfg = run_config(crawl, tmp_path, "w")
    run_pipeline(cfg)
    for changed in (fresh, cfg):
        changed.filters.circular_radius_m = 10.0
    run_pipeline(fresh)

    digests = stored_digests(monkeypatch)
    resumed = run_pipeline(cfg)
    assert resumed.executed == ["metrics", "export"]
    # Metrics wrote geometry.jsonl in this run, so export checks each text.
    assert digests == {"geometry.jsonl": resumed.records()}
    assert_same_work_files(cfg, fresh)


def test_work_directory_from_before_the_geometry_file_reruns_metrics(crawl, tmp_path):
    # Metrics used to write each row's coordinates text into final.jsonl, and
    # its manifest listed that one file.  No manifest held ``after`` then.
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    paths = PipelinePaths(workdir=cfg.workdir)
    rows = []
    for line in paths.final.read_text("utf-8").splitlines():
        row = json.loads(line)
        with open(paths.geometry, "rb") as handle:
            handle.seek(row.pop("geometry_offset"))
            text = handle.read(row.pop("geometry_length")).decode("utf-8")
        del row["geometry_sha256"]
        rows.append({**row, "record": {**row["record"], "geometry": text}})
    paths.final.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
                           "utf-8")
    manifest = json.loads(paths.manifest("metrics").read_text("utf-8"))
    data = paths.final.read_bytes()
    manifest["outputs"] = [{"name": paths.final.name, "size": len(data),
                            "sha256": hashlib.sha256(data).hexdigest()}]
    write_json_atomic(paths.manifest("metrics"), manifest)
    paths.geometry.unlink()
    drop_manifest_key(paths, "after")

    resumed = run_pipeline(cfg)
    assert resumed.executed == list(STAGES)
    assert_same_exports(cfg, fresh)


def work_files(workdir):
    """Every file under ``workdir``, by its relative name, with its bytes."""
    return {path.relative_to(workdir).as_posix(): path.read_bytes()
            for path in workdir.rglob("*") if path.is_file()}


def assert_same_work_files(cfg, reference):
    files = work_files(cfg.workdir)
    assert {"manifests/metrics.json", "final.jsonl", "out/tracks.geojson"} <= files.keys()
    assert files.keys() == work_files(reference.workdir).keys()
    for name, data in files.items():
        assert data == (reference.workdir / name).read_bytes(), name


def test_two_work_directories_from_one_crawl_hold_identical_files(crawl, tmp_path):
    first = run_config(crawl, tmp_path, "w1")
    second = run_config(crawl, tmp_path, "w2")
    run_pipeline(first)
    run_pipeline(second)
    assert_same_work_files(second, first)


def with_workers(cfg, workers):
    """``cfg`` with ``workers`` fetch threads and ``workers`` judge threads."""
    cfg.fetch.max_parallel = cfg.judge_max_parallel = workers
    return cfg


def test_one_worker_and_three_workers_write_identical_files(crawl, tmp_path):
    one = with_workers(run_config(crawl, tmp_path, "one"), 1)
    three = with_workers(run_config(crawl, tmp_path, "three"), 3)
    run_pipeline(one)
    run_pipeline(three)
    assert_same_work_files(three, one)


@pytest.mark.parametrize("workers", [1, 3])
def test_one_worker_fetches_and_judges_on_the_calling_thread(crawl, tmp_path, monkeypatch,
                                                             workers):
    threads = {"fetch": set(), "judge": set()}
    get_range = FixtureTransport.get_range

    def recording_get_range(self, *args):
        threads["fetch"].add(threading.current_thread())
        return get_range(self, *args)

    build_judge = pipeline_module._build_judge

    def recording_judge(cfg):
        judge = build_judge(cfg)

        def call(*args, **kwargs):
            threads["judge"].add(threading.current_thread())
            return judge(*args, **kwargs)
        return call

    monkeypatch.setattr(FixtureTransport, "get_range", recording_get_range)
    monkeypatch.setattr(pipeline_module, "_build_judge", recording_judge)
    assert run_pipeline(with_workers(run_config(crawl, tmp_path, "w"), workers)).records() == 2
    for seen in threads.values():
        assert seen
        if workers == 1:
            assert seen == {threading.current_thread()}
        else:
            assert threading.current_thread() not in seen


@pytest.mark.parametrize("damage", ["deleted", "truncated"])
def test_a_payload_file_lost_after_parse_makes_the_next_run_fetch_again(crawl, tmp_path,
                                                                       damage):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    paths = PipelinePaths(workdir=cfg.workdir)
    if damage == "deleted":
        paths.payloads.unlink()
    else:
        paths.payloads.write_bytes(paths.payloads.read_bytes()[:-1])
    paths.parsed.unlink()

    resumed = run_pipeline(cfg)
    # Fetch and parse rebuild the same files, so later stages stay up to date.
    assert resumed.executed == ["fetch", "parse"]
    assert_same_work_files(cfg, fresh)


class InjectedFault(Exception):
    """Raised by a patched layer at the call a test chose."""


def inject_fault(monkeypatch, stage, k):
    """Make the layer ``stage``'s work calls raise InjectedFault at its k-th
    call (never when k is 0); returns a function giving the calls so far."""
    calls = [0]
    lock = threading.Lock()  # the judge is called from the pool's threads

    def failing(function):
        def wrapper(*args, **kwargs):
            with lock:
                calls[0] += 1
                call = calls[0]
            if call == k:
                raise InjectedFault(f"{stage}: call {k}")
            return function(*args, **kwargs)
        return wrapper

    if stage == "enrich":
        build_judge = pipeline_module._build_judge
        monkeypatch.setattr(pipeline_module, "_build_judge",
                            lambda cfg: failing(build_judge(cfg)))
    else:
        module, name = {"fetch": (pipeline_module, "extract_payload"),
                        "parse": (pipeline_module, "parse_gpx"),
                        "metrics": (pipeline_module, "backfill_elevation"),
                        "export": (records_module, "encode_record")}[stage]
        monkeypatch.setattr(module, name, failing(getattr(module, name)))
    return lambda: calls[0]


@pytest.mark.parametrize("stage", ["fetch", "parse", "enrich", "metrics", "export"])
@pytest.mark.parametrize("which", ["first", "second", "last"])
def test_a_fault_part_way_through_a_stage_leaves_its_files_and_resumes_to_a_fresh_run(
        crawl, tmp_path, monkeypatch, stage, which):
    fresh = run_config(crawl, tmp_path, "fresh")
    with monkeypatch.context() as patch:
        calls = inject_fault(patch, stage, 0)
        run_pipeline(fresh)
    k = {"first": 1, "second": 2, "last": calls()}[which]
    assert calls() >= k

    # A run stopped in the stage leaves neither its outputs nor its manifest.
    cfg = run_config(crawl, tmp_path, "w1")
    paths = PipelinePaths(workdir=cfg.workdir)
    with monkeypatch.context() as patch, pytest.raises(InjectedFault):
        inject_fault(patch, stage, k)
        run_pipeline(cfg)
    assert gc.isenabled()
    names = set(work_files(cfg.workdir))
    outputs = {path.relative_to(cfg.workdir).as_posix()
               for path in pipeline_module._stage_outputs(cfg, paths, stage)}
    assert not names & {f"manifests/{stage}.json", *outputs}
    assert not [name for name in names if name.endswith(".tmp")]
    run_pipeline(cfg)
    assert_same_work_files(cfg, fresh)

    # A stage command stopped part-way over complete files changes none of them.
    before = work_files(cfg.workdir)
    with monkeypatch.context() as patch, pytest.raises(InjectedFault):
        inject_fault(patch, stage, k)
        run_pipeline(cfg, stages=[stage], resume=False)
    assert gc.isenabled()
    assert work_files(cfg.workdir) == before
    assert run_pipeline(cfg).executed == []


def record_collector_state(monkeypatch):
    """Make parse's and metrics' per-key layers record whether the cyclic
    garbage collector is enabled at each call; returns the (name, enabled) list."""
    calls = []

    def recording(function):
        def wrapper(*args, **kwargs):
            calls.append((function.__name__, gc.isenabled()))
            return function(*args, **kwargs)
        return wrapper

    for name in ("parse_gpx", "coordinates_text"):
        monkeypatch.setattr(pipeline_module, name, recording(getattr(pipeline_module, name)))
    return calls


def test_per_key_work_runs_with_the_collector_paused(crawl, tmp_path, monkeypatch):
    calls = record_collector_state(monkeypatch)
    assert gc.isenabled()
    run_pipeline(run_config(crawl, tmp_path, "w1"))
    assert {name for name, _ in calls} == {"parse_gpx", "coordinates_text"}
    assert not [name for name, enabled in calls if enabled]
    assert gc.isenabled()


@pytest.fixture()
def collector_disabled():
    gc.disable()
    yield
    gc.enable()


def test_per_key_work_leaves_a_collector_its_caller_disabled_off(crawl, tmp_path, monkeypatch,
                                                                collector_disabled):
    calls = record_collector_state(monkeypatch)
    run_pipeline(run_config(crawl, tmp_path, "w1"))
    assert calls and not [name for name, enabled in calls if enabled]
    assert not gc.isenabled()


def test_a_stage_command_reads_earlier_stages_from_another_directory(crawl, tmp_path,
                                                                     monkeypatch):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "a")
    for stage in ("index", "fetch", "parse", "enrich"):
        assert main([stage, "--config", str(crawl.config), "--workdir", "work"]) == 0
    monkeypatch.chdir(tmp_path / "b")
    for stage in ("metrics", "export"):
        assert main([stage, "--config", str(crawl.config), "--workdir", "../a/work"]) == 0
    assert_same_exports(run_config(crawl, tmp_path, "a/work"), fresh)


@pytest.mark.parametrize("respelling", ["absolute", "moved"])
def test_a_work_directory_resumes_however_it_is_spelled(crawl, tmp_path, monkeypatch,
                                                        respelling):
    monkeypatch.chdir(tmp_path)
    cfg = run_config(crawl, tmp_path, "unused")
    cfg.workdir = Path("work")
    assert run_pipeline(cfg).executed == list(STAGES)
    if respelling == "absolute":
        cfg.workdir = tmp_path / "work"
    else:
        (tmp_path / "elsewhere").mkdir()
        cfg.workdir = (tmp_path / "work").rename(tmp_path / "elsewhere" / "moved")

    resumed = run_pipeline(cfg)
    assert resumed.executed == []
    assert resumed.records() == 2


def test_no_resume_runs_everything(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    rerun = run_pipeline(cfg, resume=False)
    assert rerun.executed == list(STAGES)


def test_a_stage_run_on_its_own_makes_the_next_run_recompute_later_stages(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    assert run_pipeline(cfg).records() == 2

    # What `gpx-harvest parse` does, here with a threshold no demo track meets.
    cfg.filters.min_length_m = 5000
    alone = run_pipeline(cfg, stages=["parse"], resume=False)
    assert alone.executed == ["parse"]
    assert alone.reports["parse"].outputs == 0
    paths = PipelinePaths(workdir=cfg.workdir)
    assert all(paths.manifest(stage).exists() for stage in ("enrich", "metrics", "export"))

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["enrich", "metrics", "export"]
    assert resumed.reports["enrich"].inputs == 0
    assert resumed.records() == 0
    assert json.loads((cfg.resolved_out_dir() / "tracks.geojson").read_text("utf-8"))[
        "features"] == []


def test_a_stage_that_rebuilds_the_same_files_leaves_later_stages_up_to_date(crawl,
                                                                              tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    assert run_pipeline(cfg, stages=["parse"], resume=False).executed == ["parse"]

    assert run_pipeline(cfg).executed == []


def test_a_stage_run_on_its_own_under_other_settings_reruns_only_that_stage(crawl, tmp_path):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    cfg.filters.min_length_m = 5000
    run_pipeline(cfg, stages=["parse"], resume=False)

    cfg.filters.min_length_m = FilterConfig().min_length_m
    resumed = run_pipeline(cfg)
    assert resumed.executed == ["parse"]
    assert resumed.records() == 2
    assert_same_exports(cfg, fresh)


def test_manifests_without_a_link_to_the_previous_one_rerun_every_stage(crawl, tmp_path):
    # Manifests written before each one recorded ``after``: the next run starts over.
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    drop_manifest_key(PipelinePaths(workdir=cfg.workdir), "after")

    resumed = run_pipeline(cfg)
    assert resumed.executed == list(STAGES)
    assert_same_exports(cfg, fresh)


def _with_report_field(text, name, value):
    """A manifest's text with its report's ``name`` set to ``value``, where the
    string "DEEP" stands for 100,000 nested arrays, too deep for a recursive
    decoder."""
    raw = json.loads(text)
    raw["report"][name] = value
    return json.dumps(raw).replace('"DEEP"', "[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("damage", [
    lambda text: json.dumps([text]),
    lambda text: json.dumps(text),
    lambda text: text[:len(text) // 2],
    lambda text: "[" * 100_000,
], ids=["array", "string", "truncated", "deeply-nested"])
def test_a_damaged_manifest_reruns_its_stage(crawl, tmp_path, damage):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    manifest = PipelinePaths(workdir=cfg.workdir).manifest("metrics")
    manifest.write_text(damage(manifest.read_text("utf-8")), "utf-8")

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["metrics"]
    assert resumed.records() == 2
    assert_same_exports(cfg, fresh)


@pytest.mark.parametrize("damage", [
    lambda text: json.dumps([text]),
    lambda text: json.dumps(text),
    lambda text: text[:len(text) // 2],
    lambda text: "[" * 100_000,
    lambda text: _with_report_field(text, "info", {"elev_dem": "DEEP"}),
    lambda text: _with_report_field(text, "stage", "DEEP"),
    lambda text: json.dumps({**json.loads(text), "report": {"stage": "metrics"}}),
    lambda text: json.dumps({**json.loads(text), "report": {
        "stage": "metrics", "inputs": 2, "outputs": 1, "excluded": {"pii": "1"}}}),
], ids=["array", "string", "truncated", "deeply-nested", "deeply-nested-info",
        "deeply-nested-stage", "report-without-counts", "report-with-a-text-count"])
def test_stage_commands_treat_another_stages_damaged_manifest_as_missing(crawl, tmp_path,
                                                                         damage):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    manifest = PipelinePaths(workdir=cfg.workdir).manifest("metrics")
    manifest.write_text(damage(manifest.read_text("utf-8")), "utf-8")

    for stage in ("parse", "export"):
        assert main([stage, "--config", str(crawl.config), "--workdir", str(cfg.workdir)]) == 0
    stats = json.loads((cfg.resolved_out_dir() / "stats.json").read_text("utf-8"))
    assert "metrics" not in stats["stages"]

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["metrics", "export"]
    assert resumed.records() == 2
    assert_same_exports(cfg, fresh)


@pytest.mark.parametrize("section,name,value,first", [
    ("filters", "min_length_m", 5000, "parse"),
    ("filters", "desc_min_chars", 180, "enrich"),
    ("filters", "circular_radius_m", 10.0, "metrics"),
])
def test_a_changed_setting_recomputes_from_the_stage_that_reads_it(crawl, tmp_path, section,
                                                                   name, value, first):
    fresh = run_config(crawl, tmp_path, "fresh")
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    for changed in (fresh, cfg):
        setattr(getattr(changed, section), name, value)
    run_pipeline(fresh)

    resumed = run_pipeline(cfg)
    assert resumed.executed == list(STAGES[STAGES.index(first):])
    assert_same_exports(cfg, fresh)


@pytest.mark.parametrize("section,name,value", [
    ("fetch", "max_parallel", 1),
    ("fetch", "max_retries", 1),
    ("fetch", "backoff_base_s", 0.5),
    (None, "judge_max_parallel", 1),
    (None, "judge_api_key_env", "OTHER_KEY"),
])
def test_a_changed_retry_or_parallelism_setting_recomputes_nothing(crawl, tmp_path, section,
                                                                   name, value):
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    setattr(getattr(cfg, section) if section else cfg, name, value)
    resumed = run_pipeline(cfg)
    assert resumed.executed == []
    assert resumed.records() == 2


def test_a_manifest_without_settings_counts_as_incomplete(crawl, tmp_path):
    # Manifests written before they recorded settings: the next run starts over.
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    drop_manifest_key(PipelinePaths(workdir=cfg.workdir), "settings")

    resumed = run_pipeline(cfg)
    assert resumed.executed == list(STAGES)
    assert_same_exports(cfg, fresh)


def test_every_public_name_resolves_under_a_star_import():
    import gpx_harvest

    namespace: dict = {}
    exec("from gpx_harvest import *", namespace)
    assert set(gpx_harvest.__all__) <= namespace.keys()


_OFFLINE_RUN = """
import json, sys
import gpx_harvest, gpx_harvest.cli
from gpx_harvest.config import load_config
from gpx_harvest.synthetic import build_demo_crawl

cfg = load_config(build_demo_crawl(sys.argv[1]).config)
records = gpx_harvest.run_pipeline(cfg).records()
print(json.dumps({"records": records, "loaded": sorted(
    name for name in ("requests", "urllib3", "charset_normalizer", "subprocess")
    if name in sys.modules)}))
"""


def test_an_offline_run_never_imports_the_http_stack_or_subprocess(tmp_path):
    # pytest itself has loaded subprocess, so only a fresh interpreter can tell.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _OFFLINE_RUN, str(tmp_path / "crawl")],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {"records": 2, "loaded": []}


def test_empty_candidates_file_gives_empty_outputs(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    paths = PipelinePaths(workdir=cfg.workdir)
    cfg.workdir.mkdir(parents=True)
    paths.candidates.write_text("")
    stats = run_pipeline(cfg, stages=["fetch", "parse", "enrich", "metrics", "export"])
    assert stats.records() == 0
    assert all(report.inputs == 0 for report in stats.reports.values())
    collection = json.loads((cfg.resolved_out_dir() / "tracks.geojson").read_text("utf-8"))
    assert collection["features"] == []


def test_fetch_failure_logged_and_run_continues(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    # corrupt one candidate: point its offset past the end of the warc file
    cfg.workdir.mkdir(parents=True)
    paths = PipelinePaths(workdir=cfg.workdir)
    run_pipeline(cfg, stages=["index"])
    rows = [json.loads(line) for line in paths.candidates.read_text("utf-8").splitlines()]
    victim = next(r for r in rows if r["url"] == crawl.urls["too_short"])
    victim["warc_offset"] = 10_000_000
    paths.candidates.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    stats = run_pipeline(cfg, stages=["fetch", "parse", "enrich", "metrics", "export"])
    assert stats.reports["fetch"].excluded.get("fetch-failed") == 1
    assert stats.failures() == 1
    assert stats.records() == 2  # the two valid tracks still export

    failures = [json.loads(line)
                for line in paths.fetch_failures.read_text("utf-8").splitlines()]
    assert len(failures) == 1
    assert failures[0]["url"] == crawl.urls["too_short"]


def test_missing_input_is_fatal(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path / "w")
    with pytest.raises(PipelineError, match="stage fetch"):
        run_pipeline(cfg, stages=["fetch"])
    with pytest.raises(PipelineError, match="stage index"):
        run_pipeline(cfg, stages=["index"])  # no shards configured


def test_unknown_stage_rejected(tmp_path):
    with pytest.raises(PipelineError, match="unknown stage"):
        run_pipeline(PipelineConfig(workdir=tmp_path), stages=["compress"])


def test_stats_json_matches_report(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    stats = run_pipeline(cfg)
    on_disk = json.loads((cfg.resolved_out_dir() / "stats.json").read_text("utf-8"))
    assert on_disk == stats.to_dict()
    assert on_disk["records"] == 2
    assert on_disk["stages"]["parse"]["excluded"]["multi-track"] == 1


def test_write_json_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "file.json"
    write_json_atomic(target, {"a": 1})
    assert json.loads(target.read_text("utf-8")) == {"a": 1}
    assert [p.name for p in target.parent.iterdir()] == ["file.json"]


# --- command line ----------------------------------------------------------------

def test_cli_run_and_stage_commands(crawl, tmp_path, capsys):
    workdir = tmp_path / "cli-work"
    code = main(["run", "--config", str(crawl.config), "--workdir", str(workdir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "records: 2" in out
    assert (workdir / "out" / "tracks.geojson").exists()

    # stage command reruns just the export
    code = main(["export", "--config", str(crawl.config), "--workdir", str(workdir)])
    assert code == 0


def test_cli_index_stage_with_flags(crawl, tmp_path):
    code = main(["index", "--shards", str(crawl.shard), "--workdir", str(tmp_path / "w")])
    assert code == 0
    candidates = PipelinePaths(workdir=tmp_path / "w").candidates
    rows = [json.loads(line) for line in candidates.read_text("utf-8").splitlines()]
    assert len(rows) == 6


def test_cli_fetch_with_fixture_dir(crawl, tmp_path):
    workdir = tmp_path / "w"
    assert main(["index", "--shards", str(crawl.shard), "--workdir", str(workdir)]) == 0
    assert main(["fetch", "--workdir", str(workdir),
                 "--fixture-dir", str(crawl.warc_dir)]) == 0
    rows = [json.loads(line) for line in (workdir / "fetched.jsonl").read_text("utf-8").splitlines()]
    data = (workdir / "payloads.bin").read_bytes()
    payloads = {data[row["payload_offset"]:row["payload_offset"] + row["payload_length"]]
                for row in rows}
    assert len(payloads) == 6
    assert len(data) == sum(map(len, payloads))
    assert not (workdir / "raw").exists()


@pytest.mark.parametrize("argv", [["run", "--no-such-flag"], ["parse", "--out", "x"],
                                  ["export", "--in", "x"], ["fetch", "--candidates", "x"]])
def test_cli_usage_error_exit_code(argv, capsys):
    # 2 is "completed with failures", so a usage error exits 1.
    with pytest.raises(SystemExit) as usage:
        main(argv)
    assert usage.value.code == 1
    assert "error: unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as help_:
        main([argv[0], "--help"])
    assert help_.value.code == 0


def test_cli_fatal_error_exit_code(tmp_path):
    assert main(["index", "--shards", str(tmp_path / "nope-*"),
                 "--workdir", str(tmp_path / "w")]) == 1


@pytest.mark.parametrize("config, workdir", [
    ('{"filters": 5}', "w"),
    ("[]", "w"),
    ('{"filters": {"min_length_m": "500"}}', "w"),
    ('{"fetch": {"max_parallel": "2"}}', "w"),
    ('{"workdir": 5}', "w"),
    ("{}", "afile/work"),
    ("[" * 100_000, "w"),
    ('{"filters": {"min_length_m": 1%s}}' % ("0" * 400), "w"),
    ('{"fetch": {"rate_limit_per_s": 1%s}}' % ("0" * 400), "w"),
], ids=["section-not-an-object", "document-not-an-object", "string-threshold",
        "string-parallelism", "numeric-workdir", "workdir-under-a-file", "nested-too-deep",
        "threshold-beyond-a-float", "rate-beyond-a-float"])
def test_cli_reports_a_fatal_setup_error_on_one_line(tmp_path, capsys, config, workdir):
    (tmp_path / "c.json").write_text(config, "utf-8")
    (tmp_path / "afile").write_text("", "utf-8")
    code = main(["run", "--config", str(tmp_path / "c.json"), "--workdir",
                 str(tmp_path / workdir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_each_stage_flag_shows_its_help_in_its_stage_and_in_run(capsys):
    from gpx_harvest.cli import _FLAGS

    assert sorted(flag for _, flag, *_ in _FLAGS) == [
        "--base-url", "--boundaries", "--fixture-dir", "--judge", "--out-dir", "--shards",
        "--srtm-dir", "--translator", "--workdir"]
    for taker, flag, _, _, flag_help in _FLAGS:
        for command in (taker or "parse", "run"):
            with pytest.raises(SystemExit) as help_:
                main([command, "--help"])
            assert help_.value.code == 0
            # argparse wraps long help texts over several lines.
            out = " ".join(capsys.readouterr().out.split())
            assert f"{flag} " in out and flag_help in out, (command, flag)


@pytest.mark.parametrize("tile_name, content", [
    ("N49E006.hgt", b"\x00" * 100),
    ("N49E006.hgt.gz", b"\x1f\x8b not really gzip"),
], ids=["short-hgt", "corrupt-gzip"])
def test_cli_reports_corrupt_dem_tile(crawl, tmp_path, capsys, tile_name, content):
    for tile in crawl.srtm_dir.iterdir():
        tile.unlink()
    (crawl.srtm_dir / tile_name).write_bytes(content)
    code = main(["run", "--config", str(crawl.config), "--workdir", str(tmp_path / "w")])
    assert code == 1
    assert f"error: stage metrics: {crawl.srtm_dir / tile_name}" in capsys.readouterr().err


DAMAGED_ROWS = {"not-json": b'{"url": "x", broken', "not-an-object": b'["url", "x"]',
                "not-utf-8": b'{"url": "\xff"}', "missing-field": b'{"url": "x"}',
                "deeply-nested": b"[" * 100_000}
STAGE_INPUTS = [("fetch", "candidates.jsonl"), ("parse", "fetched.jsonl"),
                ("enrich", "parsed.jsonl"), ("metrics", "enriched.jsonl"),
                ("export", "final.jsonl")]


def _record_with(**change):
    """A function of a ``final.jsonl`` row: the row, with ``change`` made to its record."""
    return lambda row: {**row, "record": {**row["record"], **change}}


# A copy of a real row of a stage's input with one change (fields to
# replace, or a function of the row), and the problem the stage names.  The
# copy repeats its original's content hash and text, so it is caught where it
# is read, not where its key's work runs.
DAMAGED_FIELDS = {
    "bad-value": ("fetch", {"warc_offset": -1},
                  "field 'warc_offset' must be an int >= 0, not -1"),
    "extra-key": ("fetch", {"extra": 1}, "unexpected fields ['extra']"),
    "wrong-type": ("fetch", {"warc_offset": "12"},
                   "field 'warc_offset' must be an int >= 0, not '12'"),
    # A value of its kind that ``CandidateRecord`` refuses.
    "zero-length": ("fetch", {"warc_len": 0}, "warc_len must be > 0, got 0"),
    "offset-as-text": ("parse", {"payload_offset": "12"},
                       "field 'payload_offset' must be an int >= 0, not '12'"),
    "negative-length": ("parse", {"payload_length": -5},
                        "field 'payload_length' must be an int >= 0, not -5"),
    "desc-as-number": ("enrich", {"desc": 5}, "field 'desc' must be a string or null, not 5"),
    "lengths-as-text": ("metrics", {"segment_lengths": "x"},
                        "field 'segment_lengths' must be a non-empty list of ints > 0, not 'x'"),
    "track-offset-as-text": ("metrics", {"track_offset": "0"},
                             "field 'track_offset' must be an int >= 0, not '0'"),
    "geometry-offset-as-text": ("export", {"geometry_offset": "1"},
                                "field 'geometry_offset' must be an int >= 0, not '1'"),
    "record-as-number": ("export", {"record": 5}, "field 'record' must be an object, not 5"),
    "url-as-number": ("export", {"url": 5}, "field 'url' must be a string, not 5"),
    "crawl-id-null": ("export", {"crawl_id": None},
                      "field 'crawl_id' must be a string, not None"),
    "empty-record": ("export", {"record": {}}, "record has no property 'url'"),
    "length-2d-as-text": ("export", _record_with(length_2d="abc"),
                          "record property 'length_2d' must be a number, not 'abc'"),
    "length-2d-null": ("export", _record_with(length_2d=None),
                       "record property 'length_2d' must be a number, not None"),
    "length-2d-as-bool": ("export", _record_with(length_2d=True),
                          "record property 'length_2d' must be a number, not True"),
    "is-circular-as-text": ("export", _record_with(is_circular="yes"),
                            "record property 'is_circular' must be a bool, not 'yes'"),
    "warc-offset-as-list": ("export", _record_with(warc_offset=[1]),
                            "record property 'warc_offset' must be an int >= 0, not [1]"),
    "desc-en-null": ("export", _record_with(desc_en=None),
                     "record property 'desc_en' must be a string, not None"),
    # The capture and description fields that metrics copies into a record.
    "capture-offset-as-list": ("metrics", {"warc_offset": [1]},
                               "field 'warc_offset' must be an int >= 0, not [1]"),
    "capture-length-negative": ("metrics", {"warc_len": -1},
                                "field 'warc_len' must be an int >= 0, not -1"),
    "capture-file-as-number": ("metrics", {"warc_file": 5},
                               "field 'warc_file' must be a string, not 5"),
    "language-as-number": ("metrics", {"desc_lang": 7},
                           "field 'desc_lang' must be a string, not 7"),
    "translation-null": ("metrics", {"desc_en": None},
                         "field 'desc_en' must be a string, not None"),
    # Fields metrics copies into a final row, and enrich's own.
    "enriched-desc-null": ("metrics", {"desc": None}, "field 'desc' must be a string, not None"),
    "enriched-crawl-id-as-list": ("metrics", {"crawl_id": [1]},
                                  "field 'crawl_id' must be a string, not [1]"),
    "enriched-mime-null": ("metrics", {"mime_detected": None},
                           "field 'mime_detected' must be a string, not None"),
    "pii-flags-as-number": ("metrics", {"pii_flags": 5},
                            "field 'pii_flags' must be an object, not 5"),
    "pii-flag-as-number": ("metrics", {"pii_flags": {"email": 1, "url": False, "phone": False}},
                           "pii_flags property 'email' must be a bool, not 1"),
    # A key no table holds, in every file after candidates.jsonl.
    "fetched-extra-key": ("parse", {"extra": 1}, "unexpected fields ['extra']"),
    "parsed-extra-key": ("enrich", {"extra": 1}, "unexpected fields ['extra']"),
    "enriched-extra-key": ("metrics", {"extra": 1}, "unexpected fields ['extra']"),
    "final-extra-key": ("export", {"extra": 1}, "unexpected fields ['extra']"),
    "record-extra-property": ("export", _record_with(extra=1),
                              "record has unexpected properties ['extra']"),
}


@pytest.mark.parametrize("damage, stage, name", [
    *[(damage, stage, name) for damage in DAMAGED_ROWS for stage, name in STAGE_INPUTS],
    *[(damage, stage, dict(STAGE_INPUTS)[stage])
      for damage, (stage, _, _) in DAMAGED_FIELDS.items()],
], ids=lambda value: value)
def test_cli_reports_a_damaged_stage_row_on_one_line(crawl, tmp_path, capsys, stage, name,
                                                     damage):
    workdir = tmp_path / "w"
    assert main(["run", "--config", str(crawl.config), "--workdir", str(workdir)]) == 0
    if damage in DAMAGED_FIELDS:
        _, change, problem = DAMAGED_FIELDS[damage]
        real = json.loads((workdir / name).read_bytes().splitlines()[-1])
        row = json.dumps(change(real) if callable(change) else {**real, **change}).encode()
        problem = f"is not a valid row ({problem})"
    else:
        row = DAMAGED_ROWS[damage]
    with open(workdir / name, "ab") as handle:
        handle.write(row + b"\n")
    line = len((workdir / name).read_bytes().splitlines())
    capsys.readouterr()

    code = main([stage, "--config", str(crawl.config), "--workdir", str(workdir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    writer = STAGES[STAGES.index(stage) - 1]
    if damage == "missing-field":
        # The first key, in the order of its file's table, that the row lacks.
        missing = {"fetch": "mime_detected", "parse": "mime_detected", "enrich": "mime_detected",
                   "metrics": "mime_detected", "export": "crawl_id"}[stage]
        problem = f"has no field {missing!r}"
    elif damage in DAMAGED_ROWS:
        problem = "is not a JSON object"
    assert f"{workdir / name} line {line} {problem}; run {writer} again" in err


@pytest.mark.parametrize("stage, name, change", [
    ("parse", "fetched.jsonl", {"payload_length": 2 ** 62}),
    ("metrics", "enriched.jsonl", {"segment_lengths": [2 ** 60]}),
    ("export", "final.jsonl", {"geometry_length": 2 ** 62}),
], ids=["payload", "track", "geometry"])
def test_cli_reports_a_stored_range_past_the_end_of_its_file_on_one_line(crawl, tmp_path, capsys,
                                                                       stage, name, change):
    # Lengths no memory can hold: the range is refused before any buffer is allocated.
    workdir = tmp_path / "w"
    assert main(["run", "--config", str(crawl.config), "--workdir", str(workdir)]) == 0
    rows = [{**json.loads(line), **change} for line in (workdir / name).read_bytes().splitlines()]
    (workdir / name).write_text("".join(json.dumps(row) + "\n" for row in rows), "utf-8")
    capsys.readouterr()

    code = main([stage, "--config", str(crawl.config), "--workdir", str(workdir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: stage {stage}: ") and err.endswith(" is truncated\n")
    assert err.count("\n") == 1


# The files whose lines are stage rows: every stage input, plus fetch's failures.
ROW_FILES = [name for _, name in STAGE_INPUTS] + ["fetch_failures.jsonl"]


def test_every_stage_row_decodes_the_same_with_orjson_and_json(crawl, tmp_path):
    workdir = tmp_path / "w"
    assert main(["run", "--config", str(crawl.config), "--workdir", str(workdir)]) == 0
    lines = 0
    for name in ROW_FILES:
        for line in (workdir / name).read_bytes().splitlines():
            assert orjson.loads(line) == json.loads(line), name
            lines += 1
    assert lines > 0


def test_every_row_a_stage_writes_holds_exactly_its_files_table(crawl, tmp_path):
    # A writer that drifts from its file's table fails here, not in the stage
    # that reads its rows.  A copy of a candidate pointing past the end of its
    # WARC file makes fetch write a failure row too.
    cfg = run_config(crawl, tmp_path, "w")
    run_pipeline(cfg, stages=["index"])
    candidates = PipelinePaths(workdir=cfg.workdir).candidates
    first = json.loads(candidates.read_bytes().splitlines()[0])
    with open(candidates, "ab") as handle:
        handle.write(json.dumps({**first, "warc_offset": 10_000_000}).encode() + b"\n")
    assert run_pipeline(cfg, stages=list(STAGES[1:])).failures() == 1
    for name in ROW_FILES:
        table = ROW_TABLES[name]
        rows = [orjson.loads(line) for line in (cfg.workdir / name).read_bytes().splitlines()]
        assert rows, name
        for row in rows:
            assert list(row) == list(table.kinds), name
            assert table.accepts(row), (name, table.refusal(row))


def test_the_readme_lists_the_keys_of_every_stage_file_table():
    # Each row of README's "Stage files" table: the file (and the key of an
    # object inside its rows), the writer, and the keys in table order.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n### Stage files\n", 1)[1].split("\n#", 1)[0]
    listed = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            where, _, keys = line.strip("| ").split(" | ")
            listed[tuple(re.findall(r"`([^`]+)`", where))] = re.findall(r"`([^`]+)`", keys)
    tables = {(name,): table for name, table in ROW_TABLES.items()}
    tables.update({(name, key): kind for (name,), table in list(tables.items())
                   for key, kind in table.kinds.items()
                   if isinstance(kind, pipeline_module.RowTable)})
    assert listed == {where: list(table.kinds) for where, table in tables.items()}


def test_rows_written_by_json_dumps_read_back_equal_and_export_the_same(crawl, tmp_path):
    # A work directory written before rows were compact: each stage reads its
    # input rewritten in json.dumps's spacing and writes the same manifest as
    # a fresh run, so the same outputs, by their sha256s.
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    for stage, name in STAGE_INPUTS:
        path = cfg.workdir / name
        rows = list(read_jsonl(path, stage))
        path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
                        "utf-8")
        assert path.read_bytes() != (fresh.workdir / name).read_bytes()
        assert list(read_jsonl(path, stage)) == rows
        assert main([stage, "--config", str(crawl.config), "--workdir", str(cfg.workdir)]) == 0
        manifest = PipelinePaths(workdir=cfg.workdir).manifest(stage).read_bytes()
        assert manifest == PipelinePaths(workdir=fresh.workdir).manifest(stage).read_bytes()
    assert_same_exports(cfg, fresh)


BEYOND_64_BITS = str(2 ** 64).encode()
_real_orjson_loads = orjson.loads


def _decoding_beyond_64_bits_as_a_float(data):
    return _real_orjson_loads(data.replace(BEYOND_64_BITS, b"1.8446744073709552e19"))


def _refusing_beyond_64_bits(data):
    if BEYOND_64_BITS in data:
        raise orjson.JSONDecodeError("integer beyond 64 bits", data.decode("utf-8"),
                                     data.index(BEYOND_64_BITS))
    return _real_orjson_loads(data)


@pytest.mark.parametrize("decoding", ["installed", "as-float", "refused"])
@pytest.mark.parametrize("stage, name, field, as_float", [
    ("fetch", "candidates.jsonl", "warc_offset",
     "field 'warc_offset' must be an int >= 0, not 1.8446744073709552e+19"),
    ("parse", "fetched.jsonl", "payload_offset",
     "field 'payload_offset' must be an int >= 0, not 1.8446744073709552e+19"),
], ids=["candidate", "fetched"])
def test_an_integer_beyond_64_bits_in_a_row_is_one_error_line(crawl, tmp_path, capsys,
                                                            monkeypatch, decoding, stage, name,
                                                            field, as_float):
    # orjson 3.8 decodes such an integer as a float, and later releases refuse
    # it; either way the row is refused, on one line.
    workdir = tmp_path / "w"
    assert main(["run", "--config", str(crawl.config), "--workdir", str(workdir)]) == 0
    path = workdir / name
    lines = path.read_bytes().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), field: 2 ** 64}).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    if decoding != "installed":
        monkeypatch.setattr(orjson, "loads", _decoding_beyond_64_bits_as_a_float
                            if decoding == "as-float" else _refusing_beyond_64_bits)
    capsys.readouterr()

    code = main([stage, "--config", str(crawl.config), "--workdir", str(workdir)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    problems = {"as-float": [f"is not a valid row ({as_float})"],
                "refused": ["is not a JSON object"]}
    expected = problems.get(decoding, [*problems["as-float"], *problems["refused"]])
    writer = STAGES[STAGES.index(stage) - 1]
    assert any(f"{path} line 1 {problem}; run {writer} again" in err for problem in expected)


def _nested(depth):
    """A JSON text of ``depth`` nested arrays: more than orjson writes, but
    less than a recursive decoder refuses."""
    return json.loads("[" * depth + "]" * depth)


@pytest.mark.parametrize("stage, name, field, problem", [
    ("parse", "fetched.jsonl", "extra", "unexpected fields ['extra']"),
    ("enrich", "parsed.jsonl", "warc_file",
     "field 'warc_file' must be a string, not [[[[[[[...]]]]]]]"),
    ("metrics", "enriched.jsonl", "crawl_id",
     "field 'crawl_id' must be a string, not [[[[[[[...]]]]]]]"),
], ids=["extra-field", "capture-field", "final-row-field"])
def test_a_row_field_nested_too_deep_to_write_is_one_error_line(crawl, tmp_path, capsys, stage,
                                                               name, field, problem):
    # Each stage would copy the field into its output row, which orjson cannot
    # write; the stage's table refuses it where the row is read.
    workdir = tmp_path / "w"
    assert main(["run", "--config", str(crawl.config), "--workdir", str(workdir)]) == 0
    path = workdir / name
    lines = path.read_bytes().splitlines()
    lines = [json.dumps({**json.loads(line), field: _nested(300)}).encode() for line in lines]
    path.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()

    code = main([stage, "--config", str(crawl.config), "--workdir", str(workdir)])
    err = capsys.readouterr().err
    assert code == 1
    writer = STAGES[STAGES.index(stage) - 1]
    assert err == (f"error: stage {stage}: {path} line 1 is not a valid row ({problem}); "
                   f"run {writer} again\n")


def test_an_index_line_with_a_lone_surrogate_is_malformed_and_the_run_completes(crawl, tmp_path):
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    lines = gzip.decompress(crawl.shard.read_bytes()).decode("utf-8").splitlines()
    lines.append('example,a)/x.gpx 20240210120000 {"url": "http://a.example/\\ud800.gpx", '
                 '"filename": "crawl-data/CC-MAIN-2024-10/x.warc.gz", "offset": "1", '
                 '"length": "2"}')
    write_index_shard(crawl.shard, lines)

    workdir = tmp_path / "w"
    assert main(["run", "--config", str(crawl.config), "--workdir", str(workdir)]) == 0
    stats = json.loads((workdir / "out" / "stats.json").read_text("utf-8"))
    reference = json.loads((fresh.resolved_out_dir() / "stats.json").read_text("utf-8"))
    index, before = stats["stages"]["index"], reference["stages"]["index"]
    assert (index["inputs"], index["outputs"]) == (before["inputs"] + 1, before["outputs"])
    assert index["info"]["malformed"] == before["info"]["malformed"] + 1
    for name in EXPORTS[:3]:
        assert (workdir / "out" / name).read_bytes() == (fresh.resolved_out_dir()
                                                         / name).read_bytes()


def test_cli_failure_exit_code(crawl, tmp_path):
    workdir = tmp_path / "w"
    paths = PipelinePaths(workdir=workdir)
    assert main(["index", "--shards", str(crawl.shard), "--workdir", str(workdir)]) == 0
    rows = [json.loads(line) for line in paths.candidates.read_text("utf-8").splitlines()]
    for row in rows:
        row["warc_offset"] = 10_000_000
    paths.candidates.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code = main(["fetch", "--config", str(crawl.config), "--workdir", str(workdir),
                 "--fixture-dir", str(crawl.warc_dir)])
    assert code == 2


# --- config --------------------------------------------------------------------

def test_load_config_merges_partial_sections(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"filters": {"rare_lang_cutoff": 0},
                                "fetch": {"max_parallel": 2},
                                "judge": "stub"}))
    cfg = load_config(path)
    assert cfg.filters.rare_lang_cutoff == 0
    assert cfg.filters.min_length_m == 500.0
    assert cfg.fetch.max_parallel == 2
    assert cfg.fetch.max_retries == 3


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"filters": {"bogus_threshold": 3}}))
    with pytest.raises(ValueError, match="bogus_threshold"):
        load_config(path)


@pytest.mark.parametrize("config, message", [
    ('{"filters": {"min_length_m": 1%s}}' % ("0" * 400), "config.filters.min_length_m"),
    ('{"filters": {"desc_min_chars": -1%s}}' % ("0" * 400), "config.filters.desc_min_chars"),
    ('{"fetch": {"rate_limit_per_s": 1%s}}' % ("0" * 400), "config.fetch.rate_limit_per_s"),
])
def test_load_config_refuses_a_number_beyond_a_float(tmp_path, config, message):
    # Refused on loading, before any stage: a rate limit this large would
    # otherwise fail only when fetch builds its limiter, after index ran.
    path = tmp_path / "config.json"
    path.write_text(config)
    with pytest.raises(ValueError, match=message):
        load_config(path)


def test_load_config_keeps_a_large_number_within_a_float_as_written(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"filters": {"max_length_m": 1%s}}' % ("0" * 300))
    assert load_config(path).filters.max_length_m == 10 ** 300  # an int, not rounded


def test_filter_config_validation(tmp_path):
    with pytest.raises(ValueError):
        FilterConfig(min_length_m=0)
    with pytest.raises(ValueError):
        FilterConfig(min_length_m=500, max_length_m=400)
    with pytest.raises(ValueError):
        FilterConfig(desc_min_chars=100, desc_max_chars_exclusive=50)
    for name in ("min_length_m", "max_length_m", "min_points_per_100m", "circular_radius_m",
                 "elev_deadband_m"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                FilterConfig(**{name: value})
    path = tmp_path / "config.json"
    path.write_text('{"filters": {"max_length_m": NaN}}')
    with pytest.raises(ValueError, match="max_length_m"):
        load_config(path)


def test_fetch_policy_validation_and_env_base_url(monkeypatch):
    with pytest.raises(ValueError):
        FetchPolicy(max_parallel=0)
    with pytest.raises(ValueError):
        FetchPolicy(rate_limit_per_s=0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rate_limit_per_s"):
            FetchPolicy(rate_limit_per_s=value)
        with pytest.raises(ValueError, match="per_second"):
            RateLimiter(value)
    for value in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="backoff_base_s"):
            FetchPolicy(backoff_base_s=value)
    assert FetchPolicy(backoff_base_s=0).backoff_base_s == 0
    monkeypatch.setenv("GPX_HARVEST_BASE_URL", "https://mirror.example")
    assert FetchPolicy().base_url == "https://mirror.example"
    assert FetchPolicy(base_url="https://explicit.example").base_url == "https://explicit.example"
    monkeypatch.delenv("GPX_HARVEST_BASE_URL")
    assert FetchPolicy().base_url == "https://data.commoncrawl.org"
