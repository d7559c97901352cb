"""Correctness check of one measured run against the crawl's ground truth."""

from __future__ import annotations

import json
from pathlib import Path

STAGES = ("index", "fetch", "parse", "enrich", "metrics", "export")
EXPORTS = ("tracks.geojson", "tracks.jsonl", "tracks.csv")
LENGTH_TOLERANCE_M = 0.006  # exports round length_2d to 2 decimals
FIELDS = ("warc_file", "warc_offset", "elev_source", "country", "desc_lang", "desc")


def check_funnel(stats: dict, truth: dict) -> list[str]:
    """inputs == outputs + sum(excluded) at every stage, chained stage to stage."""
    problems = []
    reports = stats["stages"]
    if list(reports) != list(STAGES):
        return [f"stage reports {list(reports)}, expected {list(STAGES)}"]
    index = reports["index"]
    info = index["info"]
    observed = {"lines": index["inputs"], "candidates": index["outputs"],
                **{key: info.get(key) for key in ("not_candidate", "malformed", "blank")}}
    if observed != truth["index"]:
        problems.append(f"index counts {observed}, expected {truth['index']}")
    if index["inputs"] != (index["outputs"] + info.get("not_candidate", 0)
                           + info.get("malformed", 0) + info.get("blank", 0)):
        problems.append(f"index funnel does not add up: {index}")
    for before, name in zip(STAGES, STAGES[1:]):
        report = reports[name]
        if report["inputs"] != reports[before]["outputs"]:
            problems.append(f"{name} read {report['inputs']} rows, {before} wrote "
                            f"{reports[before]['outputs']}")
        if report["inputs"] != report["outputs"] + sum(report["excluded"].values()):
            problems.append(f"{name} funnel does not add up: {report}")
    if stats["exclusions"] != truth["exclusions"]:
        problems.append(f"exclusions {stats['exclusions']}, expected {truth['exclusions']}")
    if stats["records"] != truth["records"]:
        problems.append(f"{stats['records']} records, expected {truth['records']}")
    return problems


def check_records(out_dir: Path, truth: dict) -> list[str]:
    """The exported URL set and each record's fields match the ground truth."""
    expected = {c["url"]: c for c in truth["candidates"] if c["outcome"] == "export"}
    with open(out_dir / "tracks.jsonl", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    got = {r["url"]: r for r in records}
    problems = []
    if len(got) != len(records):
        problems.append("tracks.jsonl repeats a URL")
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))[:3]
        extra = sorted(set(got) - set(expected))[:3]
        return problems + [f"exported URLs differ: missing {missing}, unexpected {extra}"]
    for url, want in expected.items():
        record = got[url]
        for field in FIELDS:
            if record[field] != want[field]:
                problems.append(f"{url}: {field}={record[field]!r}, expected {want[field]!r}")
        if record["desc_en"] != want["desc"]:  # the stub translator is the identity
            problems.append(f"{url}: desc_en differs from desc")
        if abs(record["length_2d"] - want["length_2d"]) > LENGTH_TOLERANCE_M:
            problems.append(f"{url}: length_2d={record['length_2d']}, "
                            f"expected {want['length_2d']:.3f}")
        lines = record["geometry"]["coordinates"]
        if [len(line) for line in lines] != want["points"]:
            problems.append(f"{url}: segment sizes {[len(line) for line in lines]}, "
                            f"expected {want['points']}")
        elif any(len(vertex) != 3 or vertex[2] is None for line in lines for vertex in line):
            problems.append(f"{url}: a vertex lacks elevation")
    collection = json.loads((out_dir / "tracks.geojson").read_text(encoding="utf-8"))
    if len(collection["features"]) != len(records):
        problems.append(f"tracks.geojson has {len(collection['features'])} features, "
                        f"tracks.jsonl {len(records)} records")
    csv_rows = (out_dir / "tracks.csv").read_text(encoding="utf-8").count("\n") - 1
    if csv_rows != len(records):
        problems.append(f"tracks.csv has {csv_rows} rows, tracks.jsonl {len(records)} records")
    return problems[:10]


def check_run(result: dict, truth: dict) -> list[str]:
    """Every problem with one worker result; empty when the run is correct."""
    problems = []
    if result["executed"] != list(STAGES):
        problems.append(f"first run executed {result['executed']}")
    if result["resume_executed"] != ["export"]:
        problems.append(f"resume executed {result['resume_executed']}, expected ['export']")
    if sorted(result["hashes"]) != sorted(EXPORTS):
        problems.append(f"exports written: {sorted(result['hashes'])}")
    if result["resume_hashes"] != result["hashes"]:
        problems.append("resumed export is not byte-identical to the first")
    problems += check_funnel(result["stats"], truth)
    if result["resume_stats"] != result["stats"]:
        problems.append("resume reports differ from the first run's")
    if not problems:
        problems += check_records(Path(result["out_dir"]), truth)
    return problems
