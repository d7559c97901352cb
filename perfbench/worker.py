"""One measured pipeline run in a fresh interpreter.

    python3 perfbench/worker.py CONFIG WORKDIR RESULT [--trace SPANS] [--setup-only]

Times importing ``gpx_harvest`` plus ``load_config`` (set-up), one full
``run_pipeline`` on an empty ``WORKDIR/work`` (run), and, twice, a further
``run_pipeline`` after deleting only the export directory (resume).  Peak RSS
is this process's high-water mark right after the run; the crawl was
generated by another process.  With ``--trace`` the run drives the six
stages one at a time through ``run_pipeline(stages=[...])`` with the layer
tracer installed, writes the spans to SPANS and adds the per-layer metrics.
The result is one JSON object written to RESULT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

from check import EXPORTS

HERE = Path(__file__).resolve().parent
RESUMES = 2  # resume is short, so each run times two of them


def export_hashes(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in EXPORTS if (out_dir / name).exists()}


def traced_run(cfg, run_pipeline, stages, spans_path: Path):
    from layers import layer_metrics
    from spans import Tracer, max_rss_mb, read_chars

    tracer = Tracer()
    tracer.install()
    executed = []
    try:
        started = time.perf_counter()
        for stage in stages:
            rss, rchar = max_rss_mb(), read_chars()
            with tracer.span(f"pipeline.{stage}") as (span_id, note):
                tracer.stage = span_id
                stats = run_pipeline(cfg, stages=[stage])
            tracer.stage = None
            note.update(rss_growth_mb=max_rss_mb() - rss, rchar=read_chars() - rchar)
            executed += stats.executed
        run_s = time.perf_counter() - started
    finally:
        tracer.restore()
    stats.executed = executed
    tracer.write(spans_path)
    reports = {name: report.to_dict() for name, report in stats.reports.items()}
    return stats, run_s, layer_metrics(tracer.spans, reports, run_s, Path(cfg.workdir))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--trace", type=Path, help="write spans here and add layer metrics")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    started = time.perf_counter()
    import gpx_harvest
    cfg = gpx_harvest.load_config(args.config)
    result = {"setup_s": time.perf_counter() - started}
    if args.setup_only:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    from gpx_harvest.pipeline import STAGES
    from spans import max_rss_mb

    cfg.workdir = args.workdir / "work"
    cfg.out_dir = None
    if args.trace:
        stats, run_s, result["layers"] = traced_run(cfg, gpx_harvest.run_pipeline, STAGES,
                                                    args.trace)
    else:
        started = time.perf_counter()
        stats = gpx_harvest.run_pipeline(cfg)
        run_s = time.perf_counter() - started
    result["run_s"] = run_s
    result["peak_rss_mb"] = max_rss_mb()

    out_dir = cfg.resolved_out_dir()
    result["hashes"] = export_hashes(out_dir)
    resumes = []
    for _ in range(RESUMES):
        shutil.rmtree(out_dir)
        started = time.perf_counter()
        resumed = gpx_harvest.run_pipeline(cfg)
        resumes.append(time.perf_counter() - started)
    result["resume_s"] = resumes
    result["resume_hashes"] = export_hashes(out_dir)

    result.update(executed=stats.executed, resume_executed=resumed.executed,
                  stats=stats.to_dict(), resume_stats=resumed.to_dict(),
                  out_dir=str(out_dir))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
