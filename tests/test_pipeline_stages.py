"""Stage-level exclusion paths not exercised by the golden fixture."""

import gzip
import hashlib
import json
import re
from pathlib import Path

import pytest

from gpx_harvest import judges
from gpx_harvest import pipeline as pipeline_module
from gpx_harvest.config import FilterConfig, PipelineConfig
from gpx_harvest.pipeline import (PipelineError, PipelinePaths, StageReport, run_pipeline,
                                  stage_enrich, stage_export, stage_fetch, stage_metrics,
                                  stage_parse, write_jsonl)
from gpx_harvest.synthetic import constant_tile, gpx_xml, line_points, warc_response_member
from gpx_harvest.warc_fetch import FetchPolicy

GOOD_DESC = ("A long and rewarding walk through the valley and up to the old "
             "watchtower, with a steady climb and a fine descent through the woods.")


def seed_fetched(paths, payloads):
    """Write payload files plus the fetched.jsonl the parse stage reads."""
    paths.raw_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, payload in enumerate(payloads):
        digest = hashlib.sha256(payload).hexdigest()
        payload_path = paths.raw_dir / f"{digest}.gpx"
        payload_path.write_bytes(payload)
        rows.append({"url": f"http://t.example/{i}.gpx", "mime_detected": "application/gpx+xml",
                     "warc_file": "crawl-data/CC-MAIN-2024-10/w.warc.gz",
                     "warc_offset": i * 1000, "warc_len": 999,
                     "crawl_id": "CC-MAIN-2024-10", "content_hash": digest,
                     "payload": str(payload_path)})
    write_jsonl(paths.fetched, rows)
    return rows


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


def seed_parsed(paths, descs):
    rows = []
    for i, desc in enumerate(descs):
        rows.append({"url": f"http://t.example/{i}.gpx", "mime_detected": "",
                     "warc_file": "w.warc.gz", "warc_offset": 0, "warc_len": 9,
                     "crawl_id": "c", "content_hash": f"h{i}", "desc": desc})
    write_jsonl(paths.parsed, rows)
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


def test_enrich_stage_rare_language_cut(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path)  # default cutoff 5
    paths = PipelinePaths(workdir=tmp_path)
    seed_parsed(paths, [GOOD_DESC] * 3)  # three English rows, cutoff five
    report = stage_enrich(cfg, paths)
    assert report.excluded == {"rare-lang": 3}
    assert report.outputs == 0


def seed_enriched(paths, segments, desc_lang="en"):
    """Write the track's raw payload plus the enriched.jsonl metrics reads."""
    payload = gpx_xml([{"name": "t", "desc": GOOD_DESC, "segments": segments}])
    digest = hashlib.sha256(payload).hexdigest()
    payload_path = paths.raw_dir / f"{digest}.gpx"
    paths.raw_dir.mkdir(parents=True, exist_ok=True)
    payload_path.write_bytes(payload)
    rows = [{"url": "http://t.example/0.gpx", "mime_detected": "", "warc_file": "w",
             "warc_offset": 0, "warc_len": 9, "crawl_id": "c", "content_hash": digest,
             "payload": str(payload_path), "desc": GOOD_DESC, "desc_lang": desc_lang,
             "desc_en": GOOD_DESC, "pii_flags": {"email": False, "url": False, "phone": False}}]
    write_jsonl(paths.enriched, rows)
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


def test_metrics_stage_needs_the_raw_payload_unchanged(tmp_path):
    cfg = PipelineConfig(workdir=tmp_path)
    paths = PipelinePaths(workdir=tmp_path)
    payload_path = Path(seed_enriched(paths, [[[50.0, 6.0, 100.0], [50.01, 6.0, 110.0]]])[0]
                        ["payload"])
    payload_path.write_bytes(b"<html>replaced after parse</html>")
    with pytest.raises(PipelineError, match=re.escape(str(payload_path))):
        stage_metrics(cfg, paths)
    payload_path.unlink()
    with pytest.raises(PipelineError, match=re.escape(str(payload_path))):
        stage_metrics(cfg, paths)
    assert not paths.manifest("metrics").exists()


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

def test_write_jsonl_keeps_previous_file_when_rows_fail(tmp_path):
    path = tmp_path / "parsed.jsonl"
    write_jsonl(path, [{"url": "http://t.example/0.gpx"}])
    before = path.read_bytes()

    def rows():
        yield {"url": "http://t.example/1.gpx"}
        raise RuntimeError("crash part-way through a re-run")

    with pytest.raises(RuntimeError):
        write_jsonl(path, rows())
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_finish_stage_rejects_unbalanced_funnel(tmp_path):
    paths = PipelinePaths(workdir=tmp_path)
    report = StageReport("parse", inputs=3, outputs=1, excluded={"too-short": 1})
    with pytest.raises(PipelineError, match="3 inputs != 1 outputs \\+ 1 excluded"):
        pipeline_module._finish_stage(paths, report, [])
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
    write_jsonl(paths.candidates, rows)
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

    writes = []
    write_bytes = Path.write_bytes
    monkeypatch.setattr(Path, "write_bytes",
                        lambda path, data: writes.append(path.name) or write_bytes(path, data))
    report = stage_fetch(cfg, paths)
    monkeypatch.undo()
    assert (report.inputs, report.outputs, report.excluded) == (8, 8, {})
    assert sorted(writes) == sorted(f"{hashlib.sha256(p).hexdigest()}.gpx"
                                    for p in payloads.values())

    parsed = []
    parse_gpx = pipeline_module.parse_gpx
    monkeypatch.setattr(pipeline_module, "parse_gpx",
                        lambda payload, *args: parsed.append(payload) or parse_gpx(payload, *args))
    report = stage_parse(cfg, paths)
    assert len(parsed) == len(set(parsed)) == 4
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
    assert len(parsed) == len(set(parsed)) == 2  # metrics re-reads each distinct payload once
    assert (report.inputs, report.outputs, report.excluded) == (4, 4, {})
    assert report.info == {"country_unknown": 4, "elev_gps": 4}
    final = [json.loads(line) for line in paths.final.read_text("utf-8").splitlines()]
    by_capture = {(c["url"], c["crawl_id"]): c for c in candidates}
    for row in final:
        capture = by_capture[row["url"], row["crawl_id"]]
        assert {k: row["record"][k] for k in ("url", "warc_file", "warc_offset", "warc_len")} \
            == {k: capture[k] for k in ("url", "warc_file", "warc_offset", "warc_len")}
    assert final[0]["record"]["geometry"] == final[1]["record"]["geometry"]

    report = stage_export(cfg, paths)
    assert report.excluded == {"duplicate-url": 1, "duplicate-content": 1}
    exported = [json.loads(line)["url"]
                for line in (cfg.out_dir / "tracks.jsonl").read_text("utf-8").splitlines()]
    assert exported == ["http://a.example/walk.gpx", "http://b.example/edited.gpx"]
