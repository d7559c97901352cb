"""Command line entry point.

    gpx-harvest <index|fetch|parse|enrich|metrics|export|run> --config <file>

Flags override config file values, which override defaults.  Every stage
file has a fixed name under ``--workdir``; the exports go to ``--out-dir``
(default ``<workdir>/out``).  Exit codes: 0 = success, 1 = fatal or usage
error, 2 = completed but some items failed (fetch, judge, or translation
problems; see the stats table).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import PipelineConfig, load_config
from .geo_metrics import BoundaryFileError
from .pipeline import STAGES, PipelineError, run_pipeline


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error; 2 means "completed with failures"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpx-harvest",
        description="Mine annotated GPS tracks from web-archive crawl indexes.")
    parser.add_argument("--verbose", "-v", action="store_true", help="Debug logging")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_stage(name: str, help_text: str) -> argparse.ArgumentParser:
        stage = sub.add_parser(name, help=help_text)
        stage.add_argument("--config", help="JSON config file")
        stage.add_argument("--workdir",
                           help="Work directory holding every stage's files and manifests")
        return stage

    index = add_stage("index", "Scan index shards for GPX candidates (candidates.jsonl)")
    index.add_argument("--shards", help="Glob of CDX-J shard files (plain or .gz)")

    fetch = add_stage("fetch", "Fetch candidate payloads by byte range "
                               "(payloads.bin, fetched.jsonl)")
    fetch.add_argument("--fixture-dir", help="Serve WARC ranges from this local directory")
    fetch.add_argument("--base-url", help="Archive endpoint (or set GPX_HARVEST_BASE_URL)")

    add_stage("parse", "Parse payloads, keep single-track activities in bounds "
                       "(parsed.jsonl, tracks.f64)")

    enrich = add_stage("enrich", "Clean descriptions, judge, detect language, translate "
                                 "(enriched.jsonl)")
    enrich.add_argument("--judge", help='"stub" or a chat-completions endpoint URL')
    enrich.add_argument("--translator", help='"stub" or a translation command template')

    metrics = add_stage("metrics", "Backfill elevation, compute metrics, assign country "
                                   "(final.jsonl, geometry.jsonl)")
    metrics.add_argument("--srtm-dir", help="Directory of <TILE>.hgt[.gz] files")
    metrics.add_argument("--boundaries", help="GeoJSON FeatureCollection of countries")

    export = add_stage("export", "Deduplicate and write GeoJSON/JSONL/CSV to --out-dir")
    export.add_argument("--out-dir", help="Export directory (default <workdir>/out)")

    run = add_stage("run", "Run all stages, resuming completed ones")
    run.add_argument("--shards")
    run.add_argument("--fixture-dir")
    run.add_argument("--base-url")
    run.add_argument("--judge")
    run.add_argument("--translator")
    run.add_argument("--srtm-dir")
    run.add_argument("--boundaries")
    run.add_argument("--out-dir", help="Export directory (default <workdir>/out)")
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
        stats = run_pipeline(cfg, stages=stages, resume=resume)
    except (PipelineError, BoundaryFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(stats.format_table())
    return 2 if stats.failures() else 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
