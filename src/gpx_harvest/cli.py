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


_COMMANDS = {
    "index": "Scan index shards for GPX candidates (candidates.jsonl)",
    "fetch": "Fetch candidate payloads by byte range (payloads.bin, fetched.jsonl)",
    "parse": "Parse payloads, keep single-track activities in bounds (parsed.jsonl, tracks.f64)",
    "enrich": "Clean descriptions, judge, detect language, translate (enriched.jsonl)",
    "metrics": "Backfill elevation, compute metrics, assign country "
               "(final.jsonl, geometry.jsonl)",
    "export": "Deduplicate and write GeoJSON/JSONL/CSV to --out-dir",
    "run": "Run all stages, resuming completed ones",
}

# Every flag that overrides a config value, declared once: the command that
# takes it (None for every command; ``run`` takes them all), the flag, the
# config field it sets, its type and its help text.
_FLAGS = (
    (None, "--workdir", "workdir", Path,
     "Work directory holding every stage's files and manifests"),
    ("index", "--shards", "shards", str, "Glob of CDX-J shard files (plain or .gz)"),
    ("fetch", "--fixture-dir", "fixture_dir", Path, "Serve WARC ranges from this local directory"),
    ("fetch", "--base-url", "fetch.base_url", str,
     "Archive endpoint (or set GPX_HARVEST_BASE_URL)"),
    ("enrich", "--judge", "judge", str, '"stub" or a chat-completions endpoint URL'),
    ("enrich", "--translator", "translator", str, '"stub" or a translation command template'),
    ("metrics", "--srtm-dir", "srtm_dir", Path, "Directory of <TILE>.hgt[.gz] files"),
    ("metrics", "--boundaries", "boundaries", Path, "GeoJSON FeatureCollection of countries"),
    ("export", "--out-dir", "out_dir", Path, "Export directory (default <workdir>/out)"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpx-harvest",
        description="Mine annotated GPS tracks from web-archive crawl indexes.")
    parser.add_argument("--verbose", "-v", action="store_true", help="Debug logging")

    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        stage = sub.add_parser(command, help=help_text)
        stage.add_argument("--config", help="JSON config file")
        for taker, flag, _, kind, flag_help in _FLAGS:
            if taker in (None, command) or command == "run":
                stage.add_argument(flag, type=kind, help=flag_help)
    sub.choices["run"].add_argument("--no-resume", action="store_true",
                                    help="Re-run every stage even when outputs look complete")
    return parser


def _apply_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    for _, flag, field, _, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            owner, _, name = field.rpartition(".")
            setattr(getattr(cfg, owner) if owner else cfg, name, value)
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
