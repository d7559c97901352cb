import hashlib
import json

import pytest

from gpx_harvest.cli import main
from gpx_harvest.config import FilterConfig, PipelineConfig, load_config
from gpx_harvest.pipeline import (STAGES, PipelineError, PipelinePaths, run_pipeline,
                                  write_json_atomic)
from gpx_harvest.synthetic import build_demo_crawl
from gpx_harvest.warc_fetch import FetchPolicy


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


def test_golden_run_stage_conservation(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    stats = run_pipeline(cfg)
    for name, report in stats.reports.items():
        if name == "index":
            continue  # index counts lines in, candidates out
        assert report.inputs == report.outputs + sum(report.excluded.values()), name


def test_exported_records_pass_filters_when_rechecked(crawl, tmp_path):
    from gpx_harvest.descriptions import passes_length_bounds
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    filters = FilterConfig()
    lines = (cfg.resolved_out_dir() / "tracks.jsonl").read_text("utf-8").splitlines()
    assert lines
    for line in lines:
        obj = json.loads(line)
        assert filters.min_length_m <= obj["length_2d"] <= filters.max_length_m
        assert passes_length_bounds(obj["desc"], filters)
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
    assert resumed.executed == ["metrics", "export"]
    assert resumed.records() == 2
    assert_same_exports(cfg, fresh)


def test_resume_recomputes_an_output_edited_in_place(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    parsed = PipelinePaths(workdir=cfg.workdir).parsed
    data = bytearray(parsed.read_bytes())
    data[data.index(b'"url"') + 1] = ord("U")  # same size, other bytes
    parsed.write_bytes(bytes(data))

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["parse", "enrich", "metrics", "export"]


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
    assert resumed.executed == ["parse", "enrich", "metrics", "export"]
    assert tracks.read_bytes() == PipelinePaths(workdir=fresh.workdir).tracks.read_bytes()
    assert_same_exports(cfg, fresh)


def test_manifest_without_output_digests_counts_as_incomplete(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    paths = PipelinePaths(workdir=cfg.workdir)
    manifest = json.loads(paths.manifest("export").read_text("utf-8"))
    assert {"path", "size", "sha256"} <= manifest["outputs"][0].keys()
    manifest["outputs"] = [entry["path"] for entry in manifest["outputs"]]
    write_json_atomic(paths.manifest("export"), manifest)

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["export"]


def test_work_directory_from_before_the_tracks_file_reruns_parse(crawl, tmp_path):
    # Parse used to write only parsed.jsonl, with no track location fields,
    # and its manifest listed that one file.
    fresh = run_config(crawl, tmp_path, "fresh")
    run_pipeline(fresh)
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    paths = PipelinePaths(workdir=cfg.workdir)
    track_fields = ("track_file", "track_offset", "segment_lengths", "track_sha256")
    for stage, path in (("parse", paths.parsed), ("enrich", paths.enriched)):
        rows = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        path.write_text("".join(json.dumps({k: v for k, v in row.items() if k not in track_fields},
                                           ensure_ascii=False) + "\n" for row in rows), "utf-8")
        manifest = json.loads(paths.manifest(stage).read_text("utf-8"))
        data = path.read_bytes()
        manifest["outputs"] = [{"path": str(path), "size": len(data),
                                "sha256": hashlib.sha256(data).hexdigest()}]
        write_json_atomic(paths.manifest(stage), manifest)
    paths.tracks.unlink()
    paths.final.unlink()

    resumed = run_pipeline(cfg)
    assert resumed.executed == ["parse", "enrich", "metrics", "export"]
    assert_same_exports(cfg, fresh)


def test_no_resume_runs_everything(crawl, tmp_path):
    cfg = run_config(crawl, tmp_path, "w1")
    run_pipeline(cfg)
    rerun = run_pipeline(cfg, resume=False)
    assert rerun.executed == list(STAGES)


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
    out_file = tmp_path / "candidates.jsonl"
    code = main(["index", "--shards", str(crawl.shard), "--out", str(out_file),
                 "--workdir", str(tmp_path / "w")])
    assert code == 0
    rows = [json.loads(line) for line in out_file.read_text("utf-8").splitlines()]
    assert len(rows) == 6


def test_cli_fetch_with_fixture_dir(crawl, tmp_path):
    workdir = tmp_path / "w"
    assert main(["index", "--shards", str(crawl.shard), "--workdir", str(workdir)]) == 0
    assert main(["fetch", "--workdir", str(workdir),
                 "--fixture-dir", str(crawl.warc_dir)]) == 0
    raw = list((workdir / "raw").glob("*.gpx"))
    assert len(raw) == 6


def test_cli_fatal_error_exit_code(tmp_path):
    assert main(["index", "--shards", str(tmp_path / "nope-*"),
                 "--workdir", str(tmp_path / "w")]) == 1


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


def test_cli_enrich_with_dir_style_paths(crawl, tmp_path):
    workdir = tmp_path / "w"
    for stage in ("index", "fetch", "parse"):
        assert main([stage, "--config", str(crawl.config), "--workdir", str(workdir)]) == 0
    out_dir = tmp_path / "enriched-out"
    out_dir.mkdir()
    code = main(["enrich", "--config", str(crawl.config), "--workdir", str(workdir),
                 "--in", str(workdir) + "/", "--out", str(out_dir) + "/",
                 "--judge", "stub", "--translator", "stub"])
    assert code == 0
    assert (out_dir / "enriched.jsonl").exists()


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


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(min_length_m=0)
    with pytest.raises(ValueError):
        FilterConfig(min_length_m=500, max_length_m=400)
    with pytest.raises(ValueError):
        FilterConfig(desc_min_chars=100, desc_max_chars_exclusive=50)


def test_fetch_policy_validation_and_env_base_url(monkeypatch):
    with pytest.raises(ValueError):
        FetchPolicy(max_parallel=0)
    with pytest.raises(ValueError):
        FetchPolicy(rate_limit_per_s=0)
    monkeypatch.setenv("GPX_HARVEST_BASE_URL", "https://mirror.example")
    assert FetchPolicy().base_url == "https://mirror.example"
    assert FetchPolicy(base_url="https://explicit.example").base_url == "https://explicit.example"
    monkeypatch.delenv("GPX_HARVEST_BASE_URL")
    assert FetchPolicy().base_url == "https://data.commoncrawl.org"
