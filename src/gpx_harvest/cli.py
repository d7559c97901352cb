"""Command line entry point.

    gpx-harvest <index|fetch|parse|enrich|metrics|export|run> --config <file>

Flags override config file values, which override defaults.  Exit codes:
0 = success, 1 = fatal error, 2 = completed but some items failed (fetch,
judge, or translation problems; see the stats table).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import PipelineConfig, load_config
from .geo_metrics import BoundaryFileError
from .pipeline import STAGES, PipelineError, PipelinePaths, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpx-harvest",
        description="Mine annotated GPS tracks from web-archive crawl indexes.")
    parser.add_argument("--verbose", "-v", action="store_true", help="Debug logging")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_stage(name: str, help_text: str) -> argparse.ArgumentParser:
        stage = sub.add_parser(name, help=help_text)
        stage.add_argument("--config", help="JSON config file")
        stage.add_argument("--workdir", help="Directory for stage outputs and manifests")
        return stage

    index = add_stage("index", "Scan index shards for GPX candidates")
    index.add_argument("--shards", help="Glob of CDX-J shard files (plain or .gz)")
    index.add_argument("--out", help="Candidates file (default <workdir>/candidates.jsonl)")

    fetch = add_stage("fetch", "Fetch candidate payloads by byte range")
    fetch.add_argument("--candidates", help="Candidates file from the index stage")
    fetch.add_argument("--out", help="File the payloads are appended to, or a directory "
                                     "for payloads.bin (default <workdir>/payloads.bin)")
    fetch.add_argument("--fixture-dir", help="Serve WARC ranges from this local directory")
    fetch.add_argument("--base-url", help="Archive endpoint (or set GPX_HARVEST_BASE_URL)")

    parse = add_stage("parse", "Parse payloads, keep single-track activities in bounds")
    parse.add_argument("--in", dest="in_path", help="Fetched-payload listing")
    parse.add_argument("--out", help="Parsed tracks file")

    enrich = add_stage("enrich", "Clean descriptions, judge, detect language, translate")
    enrich.add_argument("--in", dest="in_path", help="Parsed tracks file")
    enrich.add_argument("--out", help="Enriched tracks file")
    enrich.add_argument("--judge", help='"stub" or a chat-completions endpoint URL')
    enrich.add_argument("--translator", help='"stub" or a translation command template')

    metrics = add_stage("metrics", "Backfill elevation, compute metrics, assign country")
    metrics.add_argument("--in", dest="in_path", help="Enriched tracks file")
    metrics.add_argument("--out", help="Final records file")
    metrics.add_argument("--srtm-dir", help="Directory of <TILE>.hgt[.gz] files")
    metrics.add_argument("--boundaries", help="GeoJSON FeatureCollection of countries")

    export = add_stage("export", "Deduplicate and write GeoJSON/JSONL/CSV")
    export.add_argument("--in", dest="in_path", help="Final records file")
    export.add_argument("--out-dir", help="Export directory (default <workdir>/out)")

    run = add_stage("run", "Run all stages, resuming completed ones")
    run.add_argument("--shards")
    run.add_argument("--fixture-dir")
    run.add_argument("--base-url")
    run.add_argument("--judge")
    run.add_argument("--translator")
    run.add_argument("--srtm-dir")
    run.add_argument("--boundaries")
    run.add_argument("--out-dir")
    run.add_argument("--no-resume", action="store_true",
                     help="Re-run every stage even when outputs look complete")

    return parser


def _apply_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    mapping = {
        "workdir": ("workdir", Path),
        "shards": ("shards", str),
        "fixture_dir": ("fixture_dir", Path),
        "srtm_dir": ("srtm_dir", Path),
        "boundaries": ("boundaries", Path),
        "judge": ("judge", str),
        "translator": ("translator", str),
        "out_dir": ("out_dir", Path),
    }
    for arg_name, (field_name, cast) in mapping.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            setattr(cfg, field_name, cast(value))
    if getattr(args, "base_url", None):
        cfg.fetch.base_url = args.base_url
    return cfg


def _file_arg(value: str, default_name: str) -> Path:
    # Directory arguments (trailing slash or existing dir) get the
    # conventional file name inside them.
    path = Path(value)
    if value.endswith(("/", "\\")) or path.is_dir():
        return path / default_name
    return path


def _build_paths(cfg: PipelineConfig, args: argparse.Namespace) -> PipelinePaths:
    paths = PipelinePaths(workdir=Path(cfg.workdir))
    command = args.command
    in_path = getattr(args, "in_path", None)
    out = getattr(args, "out", None)

    if command == "index" and out:
        paths.candidates = _file_arg(out, "candidates.jsonl")
    if command == "fetch":
        if getattr(args, "candidates", None):
            paths.candidates = Path(args.candidates)
        if out:
            paths.payloads = _file_arg(out, "payloads.bin")
    if command == "parse":
        if in_path:
            paths.fetched = _file_arg(in_path, "fetched.jsonl")
        if out:
            paths.parsed = _file_arg(out, "parsed.jsonl")
    if command == "enrich":
        if in_path:
            paths.parsed = _file_arg(in_path, "parsed.jsonl")
        if out:
            paths.enriched = _file_arg(out, "enriched.jsonl")
    if command == "metrics":
        if in_path:
            paths.enriched = _file_arg(in_path, "enriched.jsonl")
        if out:
            paths.final = _file_arg(out, "final.jsonl")
    if command == "export" and in_path:
        paths.final = _file_arg(in_path, "final.jsonl")
    return paths


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = load_config(args.config) if args.config else PipelineConfig()
    except (OSError, ValueError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 1
    cfg = _apply_overrides(cfg, args)

    stages = list(STAGES) if args.command == "run" else [args.command]
    resume = args.command == "run" and not args.no_resume

    try:
        stats = run_pipeline(cfg, stages=stages, resume=resume,
                             paths=_build_paths(cfg, args))
    except (PipelineError, BoundaryFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(stats.format_table())
    return 2 if stats.failures() else 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
