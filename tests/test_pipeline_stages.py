"""Stage-level exclusion paths not exercised by the golden fixture."""

import gzip
import hashlib
import json
import re
import zlib
from pathlib import Path
from types import SimpleNamespace

import pytest

from gpx_harvest import judges
from gpx_harvest import pipeline as pipeline_module
from gpx_harvest.config import FilterConfig, PipelineConfig
from gpx_harvest.pipeline import (PipelineError, PipelinePaths, StageReport, run_pipeline,
                                  stage_enrich, stage_export, stage_fetch, stage_index,
                                  stage_metrics, stage_parse)
from gpx_harvest.records import ALL_PROPERTIES, SCALAR_PROPERTIES, atomic_files
from gpx_harvest.synthetic import (build_demo_crawl, constant_tile, gpx_xml, line_points,
                                   warc_response_member)
from gpx_harvest.warc_fetch import FetchPolicy, FixtureTransport

GOOD_DESC = ("A long and rewarding walk through the valley and up to the old "
             "watchtower, with a steady climb and a fine descent through the woods.")


def test_index_stage_stops_on_an_unreadable_shard(tmp_path):
    shard = tmp_path / "cdx-00000.gz"
    shard.write_bytes(b"\x1f\x8b not really gzip")
    cfg = PipelineConfig(workdir=tmp_path, shards=str(tmp_path / "cdx-*.gz"))
    paths = PipelinePaths(workdir=tmp_path)
    with pytest.raises(PipelineError, match=re.escape(f"stage index: cannot read shard {shard}")):
        stage_index(cfg, paths)
    assert not paths.candidates.exists()


@pytest.mark.parametrize("damage, cause", [
    (lambda data: data[:-12], EOFError),
    # The first deflate block's type set to 3, which no stream may use.
    (lambda data: data[:10] + bytes([data[10] | 0b110]) + data[11:], zlib.error),
], ids=["cut", "bad-block-type"])
def test_index_stage_stops_on_a_damaged_gzip_shard(tmp_path, damage, cause):
    crawl = build_demo_crawl(tmp_path / "crawl")
    data = crawl.shard.read_bytes()
    assert data[3] == 0  # no optional header fields: the deflate data starts at byte 10
    crawl.shard.write_bytes(damage(data))
    cfg = PipelineConfig(workdir=tmp_path / "w", shards=str(crawl.shard))
    paths = PipelinePaths(workdir=cfg.workdir)
    with pytest.raises(PipelineError, match=re.escape(
            f"stage index: cannot read shard {crawl.shard}: ")) as raised:
        stage_index(cfg, paths)
    assert isinstance(raised.value.__cause__, cause)
    assert not paths.candidates.exists()


def write_rows(path, rows):
    """Write a stage input file: one JSON object per line."""
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), "utf-8")


def seed_fetched(paths, payloads):
    """Write the payloads file plus the fetched.jsonl the parse stage reads."""
    rows = []
    offset = 0
    for i, payload in enumerate(payloads):
        rows.append({"url": f"http://t.example/{i}.gpx", "mime_detected": "application/gpx+xml",
                     "warc_file": "crawl-data/CC-MAIN-2024-10/w.warc.gz",
                     "warc_offset": i * 1000, "warc_len": 999,
                     "crawl_id": "CC-MAIN-2024-10",
                     "content_hash": hashlib.sha256(payload).hexdigest(),
                     "payload_offset": offset,
                     "payload_length": len(payload)})
        offset += len(payload)
    paths.payloads.write_bytes(b"".join(payloads))
    write_rows(paths.fetched, rows)
    return rows


def stored_geometry(paths, row):
    """The coordinates text a final.jsonl row points at in the geometry file."""
    with open(paths.geometry, "rb") as handle:
        handle.seek(row["geometry_offset"])
        return handle.read(row["geometry_length"]).decode("utf-8")


def good_track_payload(desc=GOOD_DESC):
    return gpx_xml([{"name": "ok", "desc": desc,
                     "segments": [line_points(50.0, 6.0, 30, 50.0, ele=100.0)]}])


def test_parse_stage_counts_parse_error_and_no_track(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path)
    paths = PipelinePaths(workdir=tmp_path)
    seed_fetched(paths, [
        b"<html>error page served with a .gpx name</html>",
        gpx_xml([{"segments": [[]]}]),  # a track with zero points
        good_track_payload(),
    ])
    report = stage_parse(cfg, paths)
    assert report.excluded == {"parse-error": 1, "no-track": 1}
    assert report.outputs == 1


@pytest.mark.parametrize("damage", ["missing", "truncated", "edited"])
def test_parse_stage_needs_the_payload_file_unchanged(tmp_path, damage):
    cfg = PipelineConfig(workdir=tmp_path)
    paths = PipelinePaths(workdir=tmp_path)
    rows = seed_fetched(paths, [good_track_payload(), good_track_payload(GOOD_DESC + " Twice.")])
    payloads = paths.payloads
    data = bytearray(payloads.read_bytes())
    if damage == "missing":
        payloads.unlink()
    elif damage == "truncated":
        payloads.write_bytes(data[:-1])
    else:  # one byte inside the second payload, same size
        data[rows[1]["payload_offset"] + rows[1]["payload_length"] // 2] ^= 0x01
        payloads.write_bytes(bytes(data))
    with pytest.raises(PipelineError, match=re.escape(str(payloads))):
        stage_parse(cfg, paths)
    assert not paths.manifest("parse").exists()
    assert not paths.parsed.exists() and not paths.tracks.exists()


def test_parse_stage_asks_for_fetch_again_on_rows_without_a_payload_file(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path)
    paths = PipelinePaths(workdir=tmp_path)
    [row] = seed_fetched(paths, [good_track_payload()])
    del row["payload_offset"], row["payload_length"]
    write_rows(paths.fetched, [{**row, "payload": str(tmp_path / "raw" / "old.gpx")}])
    with pytest.raises(PipelineError, match="run fetch again"):
        stage_parse(cfg, paths)
    assert not paths.parsed.exists()


def seed_parsed(paths, descs):
    """Write a parsed.jsonl of whole rows, one per description; enrich never
    reads the payloads or tracks they point at."""
    rows = []
    for i, desc in enumerate(descs):
        rows.append({"url": f"http://t.example/{i}.gpx", "mime_detected": "",
                     "warc_file": "w.warc.gz", "warc_offset": 0, "warc_len": 9,
                     "crawl_id": "c", "content_hash": f"h{i}", "payload_offset": 0,
                     "payload_length": 9, "desc": desc, "track_offset": 0,
                     "segment_lengths": [2], "track_sha256": f"t{i}"})
    write_rows(paths.parsed, rows)
    return rows


class KeywordJudge:
    """Quality false when the text mentions 'boring'; PII true on 'named'."""

    def __call__(self, prompt):
        if prompt.startswith(judges.PII_PROMPT_TEMPLATE[:60]):
            return "True" if "named" in prompt else "False"
        return "False" if "boring" in prompt else "True"


def test_enrich_stage_exclusion_reasons(tmp_path, monkeypatch):
    from gpx_harvest import pipeline as pipeline_module

    cfg = PipelineConfig(workdir=tmp_path)
    cfg.filters.rare_lang_cutoff = 0
    paths = PipelinePaths(workdir=tmp_path)
    seed_parsed(paths, [
        GOOD_DESC,                                      # kept
        "too short",                                    # desc-too-short
        "x" * 2500,                                     # desc-too-long
        GOOD_DESC + " boring",                          # low-quality
        GOOD_DESC + " named",                           # pii
        "zzkw qqpt xxvr mmjq bbfd ggxx " * 3,           # unknown-lang
    ])
    monkeypatch.setattr(pipeline_module, "_build_judge", lambda cfg: KeywordJudge())
    report = stage_enrich(cfg, paths)
    assert report.excluded == {"desc-too-short": 1, "desc-too-long": 1,
                               "low-quality": 1, "pii": 1, "unknown-lang": 1}
    assert report.outputs == 1


def test_enrich_stage_judge_unavailable(tmp_path, monkeypatch):
    from gpx_harvest import pipeline as pipeline_module

    def broken_judge(prompt):
        raise judges.JudgeUnavailableError("endpoint down")

    cfg = PipelineConfig(workdir=tmp_path)
    paths = PipelinePaths(workdir=tmp_path)
    seed_parsed(paths, [GOOD_DESC, GOOD_DESC])
    monkeypatch.setattr(pipeline_module, "_build_judge", lambda cfg: broken_judge)
    report = stage_enrich(cfg, paths)
    assert report.excluded == {"judge-unavailable": 2}
    assert report.outputs == 0
    assert report.failures() == 2


def test_enrich_stage_translation_failed(tmp_path, monkeypatch):
    from gpx_harvest import pipeline as pipeline_module

    german = ("Eine lange und lohnende Wanderung durch das Tal hinauf zum alten "
              "Wachturm, mit stetigem Anstieg und schönem Abstieg durch den Wald.")

    def broken_translator(text, lang):
        raise judges.TranslationFailedError("model missing")

    cfg = PipelineConfig(workdir=tmp_path)
    cfg.filters.rare_lang_cutoff = 0
    paths = PipelinePaths(workdir=tmp_path)
    seed_parsed(paths, [german])
    monkeypatch.setattr(pipeline_module, "_build_translator", lambda cfg: broken_translator)
    report = stage_enrich(cfg, paths)
    assert report.excluded == {"translation-failed": 1}


def test_a_translation_the_row_writer_refuses_is_a_pipeline_error(tmp_path, monkeypatch):
    # A live endpoint's JSON reply may decode to a lone surrogate, which a
    # UTF-8 row cannot hold; the error repeats the encoder's own reason.
    german = ("Eine lange und lohnende Wanderung durch das Tal hinauf zum alten "
              "Wachturm, mit stetigem Anstieg und schönem Abstieg durch den Wald.")
    cfg = PipelineConfig(workdir=tmp_path)
    cfg.filters.rare_lang_cutoff = 0
    paths = PipelinePaths(workdir=tmp_path)
    seed_parsed(paths, [german])
    monkeypatch.setattr(pipeline_module, "_build_translator",
                        lambda cfg: lambda text, lang: "A walk \ud800")
    with pytest.raises(PipelineError, match=re.escape(
            "stage enrich: cannot write a row: str is not valid UTF-8")):
        stage_enrich(cfg, paths)
    assert not paths.enriched.exists()


def test_enrich_stage_rare_language_cut(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path)  # default cutoff 5
    paths = PipelinePaths(workdir=tmp_path)
    seed_parsed(paths, [GOOD_DESC] * 3)  # three English rows, cutoff five
    report = stage_enrich(cfg, paths)
    assert report.excluded == {"rare-lang": 3}
    assert report.outputs == 0


def seed_enriched(paths, *tracks, desc_lang="en"):
    """Parse one payload per track (a list of segments) through the parse stage,
    then write the enriched.jsonl metrics reads."""
    seed_fetched(paths, [gpx_xml([{"name": "t", "desc": GOOD_DESC, "segments": segments}])
                         for segments in tracks])
    report = stage_parse(PipelineConfig(workdir=paths.workdir,
                                        filters=FilterConfig(min_points_per_100m=0.1)), paths)
    assert report.outputs == len(tracks)
    rows = [{**json.loads(line), "desc_lang": desc_lang, "desc_en": GOOD_DESC,
             "pii_flags": {"email": False, "url": False, "phone": False}}
            for line in paths.parsed.read_text("utf-8").splitlines()]
    write_rows(paths.enriched, rows)
    return rows


def test_metrics_stage_elevation_unavailable_without_tiles(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path)  # no srtm_dir configured
    paths = PipelinePaths(workdir=tmp_path)
    seed_enriched(paths, [[[50.0, 6.0, None], [50.01, 6.0, None]]])
    report = stage_metrics(cfg, paths)
    assert report.excluded == {"elevation-unavailable": 1}
    assert report.outputs == 0


def test_metrics_stage_country_unknown_without_boundaries(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path)  # no boundaries file
    paths = PipelinePaths(workdir=tmp_path)
    seed_enriched(paths, [[[50.0, 6.0, 100.0], [50.01, 6.0, 110.0]]])
    report = stage_metrics(cfg, paths)
    assert report.outputs == 1
    assert report.info.get("country_unknown") == 1
    record = json.loads(paths.final.read_text("utf-8").splitlines()[0])["record"]
    assert record["country"] == "Unknown"
    assert record["elev_source"] == "GPS"


def test_metrics_stage_records_carry_the_17_properties(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path, out_dir=tmp_path / "out")
    paths = PipelinePaths(workdir=tmp_path)
    segments = [[[50.0, 6.0, 100.0], [50.01, 6.0, 110.0]],
                [[50.02, 6.0, 120.0], [50.03, 6.0, 90.0]]]
    (row,) = seed_enriched(paths, segments, desc_lang="de")
    assert stage_metrics(cfg, paths).outputs == 1
    record = json.loads(paths.final.read_text("utf-8"))["record"]
    assert list(record) == list(SCALAR_PROPERTIES)
    assert {name: record[name] for name in ("url", "warc_file", "warc_offset", "warc_len",
                                            "desc", "desc_lang", "desc_en")} == {
        "url": row["url"], "warc_file": row["warc_file"], "warc_offset": row["warc_offset"],
        "warc_len": row["warc_len"], "desc": GOOD_DESC, "desc_lang": "de", "desc_en": GOOD_DESC}
    assert (record["country"], record["elev_source"]) == ("Unknown", "GPS")

    stage_export(cfg, paths)
    line = json.loads((cfg.out_dir / "tracks.jsonl").read_text("utf-8"))
    assert list(line) == list(ALL_PROPERTIES)
    assert line["geometry"]["coordinates"] == [[[lon, lat, ele] for lat, lon, ele in segment]
                                               for segment in segments]


def test_metrics_stage_reads_the_tracks_file_without_the_raw_payloads(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path)
    paths = PipelinePaths(workdir=tmp_path)
    split = [[[50.0, 6.0, 100.0], [50.01, 6.0, 110.0]],
             [[50.02, 6.0, 120.0], [50.03, 6.0, 90.0], [50.04, 6.0, 95.0]]]
    rows = seed_enriched(paths, split, [[[51.0, 6.0, 100.0], [51.01, 6.0, 105.0]]])
    assert [row["segment_lengths"] for row in rows] == [[2, 3], [2]]
    assert rows[1]["track_offset"] == 3 * 5 * 8
    assert paths.tracks.stat().st_size == 3 * 7 * 8
    paths.payloads.unlink()

    report = stage_metrics(cfg, paths)
    assert report.outputs == 2
    final = [json.loads(line) for line in paths.final.read_text("utf-8").splitlines()]
    assert "geometry" not in final[0]["record"]
    assert json.loads(stored_geometry(paths, final[0])) == [
        [[lon, lat, ele] for lat, lon, ele in segment] for segment in split]


@pytest.mark.parametrize("damage", ["missing", "truncated", "edited"])
def test_metrics_stage_needs_the_tracks_file_unchanged(tmp_path, damage):
    cfg = PipelineConfig(workdir=tmp_path)
    paths = PipelinePaths(workdir=tmp_path)
    rows = seed_enriched(paths, [[[50.0, 6.0, 100.0], [50.01, 6.0, 110.0]]],
                         [[[51.0, 6.0, 100.0], [51.01, 6.0, 105.0]]])
    tracks = paths.tracks
    data = bytearray(tracks.read_bytes())
    if damage == "missing":
        tracks.unlink()
    elif damage == "truncated":
        tracks.write_bytes(data[:-8])
    else:  # one elevation of the second track, same size
        data[rows[1]["track_offset"] + 4 * 8] ^= 0x01
        tracks.write_bytes(bytes(data))
    with pytest.raises(PipelineError, match=re.escape(str(tracks))):
        stage_metrics(cfg, paths)
    assert not paths.manifest("metrics").exists()
    assert not paths.final.exists()


@pytest.mark.parametrize("damage", ["missing", "truncated", "edited"])
def test_export_stage_needs_the_geometry_file_unchanged(tmp_path, damage):
    cfg = PipelineConfig(workdir=tmp_path, out_dir=tmp_path / "out")
    paths = PipelinePaths(workdir=tmp_path)
    seed_enriched(paths, [[[50.0, 6.0, 100.0], [50.01, 6.0, 110.0]]],
                  [[[51.0, 6.0, 100.0], [51.01, 6.0, 105.0]]])
    assert stage_metrics(cfg, paths).outputs == 2
    rows = [json.loads(line) for line in paths.final.read_text("utf-8").splitlines()]
    geometry = paths.geometry
    data = bytearray(geometry.read_bytes())
    if damage == "missing":
        geometry.unlink()
    elif damage == "truncated":
        geometry.write_bytes(data[:-2])
    else:  # the second track's first longitude digit, same size
        data[rows[1]["geometry_offset"] + 3] ^= 0x01
        geometry.write_bytes(bytes(data))
    with pytest.raises(PipelineError, match=re.escape(str(geometry))):
        stage_export(cfg, paths)
    assert not paths.manifest("export").exists()
    assert not cfg.out_dir.exists() or not any(cfg.out_dir.iterdir())


def test_metrics_stage_stops_on_a_tile_truncated_after_it_was_opened(tmp_path, monkeypatch):
    from gpx_harvest import elevation

    tile = constant_tile(tmp_path / "srtm", "N50E006", 321)
    read_hgt = elevation.read_hgt

    def read_then_truncate(path):
        opened = read_hgt(path)
        Path(path).write_bytes(Path(path).read_bytes()[:1000])
        return opened

    monkeypatch.setattr(elevation, "read_hgt", read_then_truncate)
    cfg = PipelineConfig(workdir=tmp_path, srtm_dir=tmp_path / "srtm")
    paths = PipelinePaths(workdir=tmp_path)
    seed_enriched(paths, [[[50.0, 6.0, None], [50.01, 6.0, None]]])
    with pytest.raises(PipelineError, match=re.escape(str(tile))):
        stage_metrics(cfg, paths)
    assert not paths.manifest("metrics").exists()
    assert not paths.final.exists() and not paths.geometry.exists()


def test_non_finite_ele_is_backfilled_and_exports_valid_json(tmp_path):
    def reject(constant):
        raise ValueError(f"invalid JSON constant {constant}")

    constant_tile(tmp_path / "srtm", "N50E006", 321)
    cfg = PipelineConfig(workdir=tmp_path, srtm_dir=tmp_path / "srtm",
                         filters=FilterConfig(rare_lang_cutoff=0))
    elevations = ["nan", "inf", "1e400", 100.0]
    seed_fetched(PipelinePaths(workdir=tmp_path), [gpx_xml([{
        "name": "t", "desc": GOOD_DESC,
        "segments": [line_points(50.0, 6.0, 30, 50.0, ele=lambda i: elevations[i % 4])]}])])

    stats = run_pipeline(cfg, stages=["parse", "enrich", "metrics", "export"])
    assert stats.records() == 1
    out_dir = cfg.resolved_out_dir()
    record = json.loads((out_dir / "tracks.jsonl").read_text("utf-8"), parse_constant=reject)
    collection = json.loads((out_dir / "tracks.geojson").read_text("utf-8"),
                            parse_constant=reject)
    assert collection["features"][0]["properties"] == {
        k: v for k, v in record.items() if k != "geometry"}
    assert record["elev_source"] == "DEM"
    assert record["elev_highest"] == record["elev_lowest"] == 321.0
    assert {position[2] for line in record["geometry"]["coordinates"]
            for position in line} == {321.0}


def test_a_metric_that_overflows_excludes_its_track_and_export_completes(tmp_path):
    # Elevations of ±1e308 are finite, so parse keeps them, but the climb
    # between two of them overflows to infinity, which no row can hold.
    cfg = PipelineConfig(workdir=tmp_path, filters=FilterConfig(rare_lang_cutoff=0))
    paths = PipelinePaths(workdir=tmp_path)
    hostile = gpx_xml([{"name": "t", "desc": GOOD_DESC, "segments": [
        line_points(50.0, 6.0, 30, 50.0, ele=lambda i: (-1) ** i * 1e308)]}])
    seed_fetched(paths, [hostile, good_track_payload()])

    stats = run_pipeline(cfg, stages=["parse", "enrich", "metrics", "export"])
    assert stats.reports["parse"].outputs == 2
    assert stats.reports["metrics"].excluded == {"non-finite-metric": 1}
    assert stats.records() == 1
    assert b"null" not in paths.final.read_bytes()
    assert stage_export(cfg, paths).outputs == 1

def test_atomic_files_keep_previous_file_when_rows_fail(tmp_path):
    path = tmp_path / "parsed.jsonl"
    write_rows(path, [{"url": "http://t.example/0.gpx"}])
    before = path.read_bytes()

    def rows():
        yield {"url": "http://t.example/1.gpx"}
        raise RuntimeError("crash part-way through a re-run")

    with pytest.raises(RuntimeError), atomic_files((path, "wb")) as (handle,):
        pipeline_module._write_rows(handle, rows(), "parse")
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_finish_stage_rejects_unbalanced_funnel(tmp_path):
    paths = PipelinePaths(workdir=tmp_path)
    report = StageReport("parse", inputs=3, outputs=1, excluded={"too-short": 1})
    with pytest.raises(PipelineError, match="3 inputs != 1 outputs \\+ 1 excluded"):
        pipeline_module._finish_stage(PipelineConfig(workdir=tmp_path), paths, report)
    assert not paths.manifest("parse").exists()


def test_enrich_stage_with_command_translator(tmp_path):
    import sys

    german = ("Eine lange und lohnende Wanderung durch das Tal hinauf zum alten "
              "Wachturm, mit stetigem Anstieg und schönem Abstieg durch den Wald.")
    cfg = PipelineConfig(workdir=tmp_path)
    cfg.filters.rare_lang_cutoff = 0
    cfg.translator = (f'{sys.executable} -c "import sys; '
                      f"sys.stdout.write('[{{lang}}] ' + sys.stdin.read().upper())\"")
    paths = PipelinePaths(workdir=tmp_path)
    seed_parsed(paths, [german])
    report = stage_enrich(cfg, paths)
    assert report.outputs == 1
    row = json.loads(paths.enriched.read_text("utf-8").splitlines()[0])
    assert row["desc_lang"] == "de"
    assert row["desc_en"].startswith("[de] EINE LANGE")


WARC_FILE = "crawl-data/CC-MAIN-2024-10/segments/0/warc/w.warc.gz"


def seed_candidates(tmp_path, paths, captures):
    """Write one WARC file holding the given (url, crawl_id, gzip member)
    captures, plus the candidates.jsonl the fetch stage reads."""
    cfg = PipelineConfig(workdir=tmp_path, fixture_dir=tmp_path / "warc",
                         out_dir=tmp_path / "out")
    cfg.fetch = FetchPolicy(max_retries=1, backoff_base_s=0.0, max_parallel=1,
                            rate_limit_per_s=10_000.0, base_url="https://data.example")
    warc = cfg.fixture_dir / WARC_FILE
    warc.parent.mkdir(parents=True)
    rows = []
    offset = 0
    with open(warc, "wb") as handle:
        for url, crawl_id, member in captures:
            handle.write(member)
            rows.append({"url": url, "mime_detected": "application/gpx+xml",
                         "warc_file": WARC_FILE, "warc_offset": offset,
                         "warc_len": len(member), "crawl_id": crawl_id})
            offset += len(member)
    write_rows(paths.candidates, rows)
    return cfg, rows


def test_fetch_stage_counts_bad_warc_content_length_as_decode_error(tmp_path):
    paths = PipelinePaths(workdir=tmp_path)
    http = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"
    bad = gzip.compress(b"WARC/1.0\r\nWARC-Type: response\r\nContent-Length: twelve\r\n\r\n"
                        + http)
    cfg, _ = seed_candidates(tmp_path, paths, [
        ("http://t.example/bad.gpx", "CC-MAIN-2024-10", bad),
        ("http://t.example/ok.gpx", "CC-MAIN-2024-10",
         warc_response_member("http://t.example/ok.gpx", good_track_payload())),
    ])
    report = stage_fetch(cfg, paths)
    assert report.excluded == {"decode-error": 1}
    assert report.outputs == 1
    failure = json.loads(paths.fetch_failures.read_text("utf-8"))
    assert failure == {"url": "http://t.example/bad.gpx", "reason": "bad WARC Content-Length"}


def test_fetch_stage_fails_a_candidate_whose_warc_path_leaves_the_fixture_dir(tmp_path):
    paths = PipelinePaths(workdir=tmp_path)
    member = warc_response_member("http://t.example/ok.gpx", good_track_payload())
    cfg, rows = seed_candidates(tmp_path, paths, [("http://t.example/ok.gpx", "CC-MAIN-2024-10",
                                                   member)])
    (cfg.fixture_dir.parent / "outside.bin").write_bytes(member)
    write_rows(paths.candidates, rows + [{**rows[0], "url": "http://t.example/outside.gpx",
                                           "warc_file": "../outside.bin"}])
    report = stage_fetch(cfg, paths)
    assert report.excluded == {"fetch-failed": 1}
    assert report.outputs == 1
    failure = json.loads(paths.fetch_failures.read_text("utf-8"))
    assert failure == {"url": "http://t.example/outside.gpx",
                       "reason": "http://t.example/outside.gpx: http status 404"}


def test_fetch_stage_counts_corrupt_deflate_data_as_decode_error(tmp_path):
    paths = PipelinePaths(workdir=tmp_path)
    corrupt = bytearray(warc_response_member("http://t.example/bad.gpx", good_track_payload()))
    for i in range(12, 40):  # inside the deflate stream, past the gzip header
        corrupt[i] ^= 0xFF
    cfg, _ = seed_candidates(tmp_path, paths, [
        ("http://t.example/bad.gpx", "CC-MAIN-2024-10", bytes(corrupt)),
        ("http://t.example/ok.gpx", "CC-MAIN-2024-10",
         warc_response_member("http://t.example/ok.gpx", good_track_payload())),
    ])
    report = stage_fetch(cfg, paths)
    assert report.excluded == {"decode-error": 1}
    assert report.outputs == 1


def test_fetch_stage_closes_its_live_sessions_when_it_ends(tmp_path, monkeypatch):
    import requests

    paths = PipelinePaths(workdir=tmp_path)
    cfg, _ = seed_candidates(tmp_path, paths, [
        ("http://t.example/ok.gpx", "CC-MAIN-2024-10",
         warc_response_member("http://t.example/ok.gpx", good_track_payload())),
    ])
    archive = FixtureTransport(cfg.fixture_dir)
    cfg.fixture_dir = None  # fetch builds the live transport
    sessions = []

    class Session:
        """Serves the ranges from the fixture directory, as the archive would."""

        def __init__(self):
            self.closed = False
            sessions.append(self)

        def get(self, url, headers, timeout):
            first, last = map(int, headers["Range"].removeprefix("bytes=").split("-"))
            status, content = archive.get_range(url, first, last - first + 1)
            return SimpleNamespace(status_code=status, content=content)

        def close(self):
            self.closed = True

    monkeypatch.setattr(requests, "Session", Session)
    report = stage_fetch(cfg, paths)
    assert report.outputs == 1
    assert len(sessions) == 1 and sessions[0].closed


def test_fetch_stage_excludes_an_oversized_record(tmp_path, monkeypatch):
    from gpx_harvest import warc_fetch

    paths = PipelinePaths(workdir=tmp_path)
    small = warc_response_member("http://t.example/ok.gpx", b"<gpx/>")
    big = warc_response_member("http://t.example/big.gpx", good_track_payload())
    cfg, _ = seed_candidates(tmp_path, paths, [
        ("http://t.example/big.gpx", "CC-MAIN-2024-10", big),
        ("http://t.example/ok.gpx", "CC-MAIN-2024-10", small),
    ])
    monkeypatch.setattr(warc_fetch, "MAX_DECOMPRESSED_BYTES", len(gzip.decompress(small)))
    report = stage_fetch(cfg, paths)
    assert report.excluded == {"payload-too-large": 1}
    assert report.outputs == 1
    failure = json.loads(paths.fetch_failures.read_text("utf-8"))
    assert failure["url"] == "http://t.example/big.gpx"


class CountingJudge(KeywordJudge):
    """KeywordJudge that keeps every prompt it was asked."""

    def __init__(self):
        self.prompts = []

    def __call__(self, prompt):
        self.prompts.append(prompt)
        return super().__call__(prompt)


def test_stages_share_work_per_payload_and_description(tmp_path, monkeypatch):
    walk = [line_points(50.0, 6.0, 30, 50.0, ele=100.0)]
    edited = [line_points(50.1, 6.0, 30, 50.0, ele=100.0)]
    glitch = [line_points(50.2, 6.0, 100, 50.0, ele=100.0) + [(95.0, 6.0, 100.0)]]
    stub = [line_points(50.3, 6.0, 5, 10.0, ele=100.0)]
    boring = GOOD_DESC + " boring"
    payloads = {name: gpx_xml([{"name": name, "desc": desc, "segments": segments}])
                for name, desc, segments in (("walk", GOOD_DESC, walk),
                                             ("edited", GOOD_DESC, edited),
                                             ("glitch", boring, glitch),
                                             ("stub", boring, stub))}
    captures = [  # (url, crawl_id, payload): recrawls and mirrors of four files
        ("http://a.example/walk.gpx", "CC-MAIN-2024-10", "walk"),
        ("http://a.example/walk.gpx", "CC-MAIN-2024-18", "walk"),
        ("http://mirror.example/walk.gpx", "CC-MAIN-2024-10", "walk"),
        ("http://b.example/edited.gpx", "CC-MAIN-2024-10", "edited"),
        ("http://c.example/glitch.gpx", "CC-MAIN-2024-10", "glitch"),
        ("http://mirror.example/glitch.gpx", "CC-MAIN-2024-18", "glitch"),
        ("http://d.example/stub.gpx", "CC-MAIN-2024-10", "stub"),
        ("http://d.example/stub.gpx", "CC-MAIN-2024-18", "stub"),
    ]
    paths = PipelinePaths(workdir=tmp_path)
    cfg, candidates = seed_candidates(
        tmp_path, paths,
        [(url, crawl, warc_response_member(url, payloads[name])) for url, crawl, name in captures])
    cfg.filters.rare_lang_cutoff = 0

    report = stage_fetch(cfg, paths)
    assert (report.inputs, report.outputs, report.excluded) == (8, 8, {})
    # Each distinct payload is stored once, in capture order, and every
    # capture of it points at that one copy.
    assert paths.payloads.read_bytes() == b"".join(payloads.values())
    fetched = [json.loads(line) for line in paths.fetched.read_text("utf-8").splitlines()]
    offsets = {}
    for row, (_, _, name) in zip(fetched, captures):
        assert row["content_hash"] == hashlib.sha256(payloads[name]).hexdigest()
        assert row["payload_length"] == len(payloads[name])
        assert offsets.setdefault(row["content_hash"], row["payload_offset"]) == row["payload_offset"]
    assert len(offsets) == len(payloads)

    parsed = []
    parse_gpx = pipeline_module.parse_gpx
    monkeypatch.setattr(pipeline_module, "parse_gpx",
                        lambda payload, *args: parsed.append(payload) or parse_gpx(payload, *args))
    report = stage_parse(cfg, paths)
    assert len(parsed) == len({bytes(payload) for payload in parsed}) == 4
    assert (report.inputs, report.outputs) == (8, 6)
    assert report.excluded == {"too-short": 2}
    assert report.info == {"points_dropped": 2, "tracks_dropped": 0}
    rows = paths.parsed.read_text("utf-8").splitlines()
    assert rows and all("segments" not in json.loads(line) for line in rows)

    judge = CountingJudge()
    monkeypatch.setattr(pipeline_module, "_build_judge", lambda cfg: judge)
    report = stage_enrich(cfg, paths)
    assert len(judge.prompts) == len(set(judge.prompts)) == 3  # two texts, one fails quality
    assert (report.inputs, report.outputs) == (6, 4)
    assert report.excluded == {"low-quality": 2}
    rows = paths.enriched.read_text("utf-8").splitlines()
    assert rows and all("segments" not in json.loads(line) for line in rows)

    parsed.clear()
    measured = []
    compute = pipeline_module.compute_track_metrics
    monkeypatch.setattr(pipeline_module, "compute_track_metrics",
                        lambda track, **kw: measured.append(track) or compute(track, **kw))
    report = stage_metrics(cfg, paths)
    assert len(measured) == 2
    assert parsed == []  # metrics reads the tracks file parse wrote
    assert (report.inputs, report.outputs, report.excluded) == (4, 4, {})
    assert report.info == {"country_unknown": 4, "elev_gps": 4}
    final = [json.loads(line) for line in paths.final.read_text("utf-8").splitlines()]
    by_capture = {(c["url"], c["crawl_id"]): c for c in candidates}
    for row in final:
        capture = by_capture[row["url"], row["crawl_id"]]
        assert {k: row["record"][k] for k in ("url", "warc_file", "warc_offset", "warc_len")} \
            == {k: capture[k] for k in ("url", "warc_file", "warc_offset", "warc_len")}
    # One coordinates text per content hash, shared by that hash's rows.
    locations = [(row["geometry_offset"], row["geometry_length"]) for row in final]
    assert locations[0] == locations[1]
    assert len(set(locations)) == 2
    texts = dict.fromkeys(stored_geometry(paths, row) for row in final)
    assert paths.geometry.read_bytes() == "".join(text + "\n" for text in texts).encode("utf-8")

    report = stage_export(cfg, paths)
    assert report.excluded == {"duplicate-url": 1, "duplicate-content": 1}
    exported = [json.loads(line)["url"]
                for line in (cfg.out_dir / "tracks.jsonl").read_text("utf-8").splitlines()]
    assert exported == ["http://a.example/walk.gpx", "http://b.example/edited.gpx"]
