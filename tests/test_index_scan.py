import gzip
import json

import pytest

from gpx_harvest.index_scan import (CandidateRecord, ScanStats, is_gpx_candidate,
                                    iter_shard_lines, parse_index_line, scan_index)


def cdxj(url, mime="application/gpx+xml", filename="crawl-data/CC-MAIN-2024-10/seg/warc/x.warc.gz",
         offset="3215", length="1091", **extra):
    payload = {"url": url, "mime-detected": mime, "filename": filename,
               "offset": offset, "length": length, **extra}
    return f"example,a)/t.gpx 20240210120000 {json.dumps(payload)}"


def test_parse_index_line_roundtrips_fields():
    record = parse_index_line(cdxj("http://a.example/t.gpx"))
    assert record == CandidateRecord(
        url="http://a.example/t.gpx",
        mime_detected="application/gpx+xml",
        warc_file="crawl-data/CC-MAIN-2024-10/seg/warc/x.warc.gz",
        warc_offset=3215,
        warc_len=1091,
        crawl_id="CC-MAIN-2024-10",
    )


def test_parse_index_line_degenerate_inputs():
    assert parse_index_line("") is None
    assert parse_index_line("   \n") is None
    assert parse_index_line("no json payload here") is None
    assert parse_index_line("key 20240101000000 {broken json") is None
    assert parse_index_line('key 20240101000000 ["not", "a", "dict"]') is None


def test_parse_index_line_missing_fields():
    line = 'key 20240101000000 {"url": "http://a.example/t.gpx", "filename": "f.warc.gz", "length": "10"}'
    assert parse_index_line(line) is None  # no offset
    assert parse_index_line(cdxj("not-an-absolute-url")) is None
    assert parse_index_line(cdxj("http://a.example/t.gpx", length="0")) is None
    assert parse_index_line(cdxj("http://a.example/t.gpx", offset="-1")) is None
    assert parse_index_line(cdxj("http://a.example/t.gpx", offset="12.5")) is None


def test_parse_index_line_mime_fallback():
    line = ('key 20240101000000 ' +
            json.dumps({"url": "http://a.example/t.gpx", "mime": "TEXT/XML",
                        "filename": "f.warc.gz", "offset": "0", "length": "5"}))
    record = parse_index_line(line)
    assert record.mime_detected == "text/xml"
    assert record.crawl_id == ""


def make_record(url="http://x.example/route", mime="text/html"):
    return CandidateRecord(url=url, mime_detected=mime, warc_file="f.warc.gz",
                           warc_offset=0, warc_len=1, crawl_id="")


def test_is_gpx_candidate_mime_clause():
    assert is_gpx_candidate(make_record(mime="application/gpx+xml"))


def test_is_gpx_candidate_extension_clause_with_query():
    record = make_record(url="http://x/y/track.GPX?dl=1", mime="text/xml")
    assert is_gpx_candidate(record)


def test_is_gpx_candidate_rejects_neither_clause():
    assert not is_gpx_candidate(make_record(url="http://x/gpx-tips.html"))


def test_is_gpx_candidate_extension_needs_path_suffix():
    # "gpx" in the query string alone is not an extension match
    assert not is_gpx_candidate(make_record(url="http://x/page.html?file=gpx"))
    assert not is_gpx_candidate(make_record(url="http://x/page.html#gpx"))


def test_is_gpx_candidate_case_insensitive():
    base = make_record(url="http://x/a/track.gpx", mime="application/gpx+xml")
    for mime in ("APPLICATION/GPX+XML", "Application/Gpx+Xml"):
        for url in ("http://x/a/TRACK.GPX", "http://x/a/track.GpX"):
            assert is_gpx_candidate(make_record(url=url, mime=mime)) == is_gpx_candidate(base)


def test_candidate_record_invariants():
    with pytest.raises(ValueError):
        make_record(url="relative/path")
    with pytest.raises(ValueError):
        CandidateRecord(url="http://x/a", mime_detected="", warc_file="f",
                        warc_offset=-1, warc_len=1, crawl_id="")
    with pytest.raises(ValueError):
        CandidateRecord(url="http://x/a", mime_detected="", warc_file="f",
                        warc_offset=0, warc_len=0, crawl_id="")


def shard_lines(gpx_positions, total):
    lines = []
    for i in range(total):
        if i in gpx_positions:
            lines.append(cdxj(f"http://site{i}.example/track{i}.gpx"))
        else:
            lines.append(cdxj(f"http://site{i}.example/page{i}.html", mime="text/html"))
    return lines


def test_scan_index_yields_matches_in_order():
    lines = shard_lines({10, 40, 77}, 100)
    stats = ScanStats()
    records = list(scan_index(lines, stats))
    assert [r.url for r in records] == [f"http://site{i}.example/track{i}.gpx" for i in (10, 40, 77)]
    assert (stats.lines, stats.candidates, stats.malformed) == (100, 3, 0)
    assert stats.not_candidate == 97


def test_scan_index_empty_source():
    stats = ScanStats()
    assert list(scan_index([], stats)) == []
    assert stats == ScanStats()


def test_scan_index_counts_malformed():
    lines = shard_lines({0, 1}, 4)
    lines.insert(2, "key 20240101000000 {definitely broken")
    stats = ScanStats()
    records = list(scan_index(lines, stats))
    assert len(records) == 2
    assert stats.lines == 5
    assert stats.malformed == 1
    assert stats.candidates + stats.not_candidate == 4


@pytest.mark.parametrize("payload", [
    '{"a":' * 100_000,
    '{"url": "http://a.example/t.gpx", "filename": "f", "offset": ' + "1" * 5000
    + ', "length": 3}',
], ids=["deeply-nested", "over-long-integer"])
def test_scan_index_counts_hostile_json_as_malformed(payload):
    assert parse_index_line(f"key 20240101000000 {payload}") is None
    stats = ScanStats()
    assert list(scan_index([f"key 20240101000000 {payload}"], stats)) == []
    assert stats.malformed == 1


def test_scan_index_blank_lines_not_malformed():
    stats = ScanStats()
    list(scan_index(["", "   ", cdxj("http://a.example/t.gpx")], stats))
    assert stats.blank == 2
    assert stats.malformed == 0


def test_scan_index_output_never_exceeds_input():
    lines = shard_lines({1, 2, 3}, 10)
    assert len(list(scan_index(lines))) <= len(lines)


def test_scan_index_deterministic():
    lines = shard_lines({0, 5, 9}, 10)
    first = [r.url for r in scan_index(lines)]
    second = [r.url for r in scan_index(lines)]
    assert first == second


def test_iter_shard_lines_plain_and_gzip(tmp_path):
    lines = shard_lines({0}, 3)
    text = "\n".join(lines) + "\n"
    plain = tmp_path / "shard-0"
    plain.write_text(text, encoding="utf-8")
    gz = tmp_path / "shard-0.gz"
    gz.write_bytes(gzip.compress(text.encode("utf-8")))

    from_plain = [r.url for r in scan_index(iter_shard_lines(plain))]
    from_gz = [r.url for r in scan_index(iter_shard_lines(gz))]
    assert from_plain == from_gz == ["http://site0.example/track0.gpx"]
