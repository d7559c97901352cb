"""The gpx-harvest benchmark: offline synthetic crawls through the real pipeline.

    python3 perfbench/run.py --workload long-tracks --seed 1 --seconds 35 --trace 0

Builds the workload's crawl from the seed (not timed), then for ``--seconds``
seconds repeats one measured run in a fresh interpreter (``worker.py``): set-up,
a full six-stage run, and two resumes after deleting the export directory.
Every run is checked against the crawl's ground truth.  Load comes from this one
process's worker, which uses one fetch and one judge thread.

With ``--trace 0`` it reports the end-to-end metrics as medians over the runs,
with the run and resume times scaled to the reference machine speed: between
two workers ``calibrate.py`` times a fixed task, and a run's times are
multiplied by ``REFERENCE_S`` over the median of the task's times just before
and just after its worker.  The wall-clock medians are printed too.
With ``--trace 1`` untraced and traced runs alternate; it reports the
per-layer metrics as medians over the traced runs, plus the tracing overhead,
and keeps the last traced run's spans under ``.perfbench_work/spans/``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (runs), ``failed`` (runs that crashed or failed the check) and
``metrics``.  Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_RUNS = 3  # of each kind, so a median exists even when runs are slow
# Fixes the unit of the scaled times: seconds on a machine where calibrate.py's
# task takes this long.  The task took about 0.11 s on the VM the baseline was
# measured on, so there the scaled times read about a third above wall clock.
REFERENCE_S = 0.15
WORKER_TIMEOUT_S = 100  # keeps a hung run inside the 180 s an invocation may take

END_TO_END = {"setup_s": "s", "run_s": "s", "candidates_per_s": "1/s", "resume_s": "s",
              "peak_rss_mb": "MB", "failed_share": "ratio"}
# Scaled to the reference speed.  Set-up is left as measured: it is mostly
# loading modules and shared libraries, which follows the reference task less
# closely than the runs do, and scaling made its median drift more, not less.
TIMES = ("run_s", "resume_s")


def run_worker(config: Path, rundir: Path, spans: Path | None = None,
               setup_only: bool = False) -> tuple[dict | None, str]:
    """One worker process; returns its result, or None and the reason it failed."""
    rundir.mkdir(parents=True)
    result_path = rundir / "result.json"
    command = [sys.executable, str(HERE / "worker.py"), str(config), str(rundir), str(result_path)]
    if spans is not None:
        command += ["--trace", str(spans)]
    if setup_only:
        command.append("--setup-only")
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(result_path.read_text(encoding="utf-8")), ""


def scaled(value, scale: float):
    """A time, or a list of times, multiplied by ``scale``."""
    return [v * scale for v in value] if isinstance(value, list) else value * scale


def calibrate() -> tuple[list[float], str]:
    """Timings of the fixed reference task, or none and the reason it failed.

    The shared host this was tuned on changes speed by up to half over tens
    of seconds, as its neighbours come and go, which moved the median run time
    of one invocation by a third.  The task is timed in its own interpreter
    between workers, so the program cannot change it; a run divided by the
    task's time next to it is steady to a few percent.
    """
    try:
        proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [], f"calibration timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return [], f"calibration exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout), ""


def median_metrics(rows: list[dict], units: dict[str, str]) -> dict:
    """Median of each metric over all runs, pooling runs that time several samples."""
    def samples(name):
        return [v for row in rows for v in (row[name] if isinstance(row[name], list)
                                             else [row[name]])]
    return {name: {"value": statistics.median(samples(name)), "unit": unit}
            for name, unit in units.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("long-tracks", "described-mix", "recrawl-dups"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated benchmark unwinds like an interrupted one: subprocess.run
    # kills and waits for the running worker, and the scratch files go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gpx_harvest" / "__init__.py").is_file():
        print(f"gpx_harvest source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from check import check_run
    from crawl import build_crawl
    from layers import metric_units

    base = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        truth = build_crawl(args.workload, args.seed, base / "crawl")
        config = base / "crawl" / "config.json"
        candidates = truth["index"]["candidates"]
        # Compiles bytecode once, as an installed package would have it.
        _, error = run_worker(config, base / "warmup", setup_only=True)
        if error:
            print(error, file=sys.stderr)
            return 1

        plain, traced, problems = [], [], []
        spans = WORK / "spans" / f"{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + args.seconds
        attempted = failed = 0
        before, error = ([], "") if args.trace else calibrate()
        if error:
            print(error, file=sys.stderr)
            return 1
        while (time.monotonic() < deadline or len(plain) < MIN_RUNS
               or (args.trace and len(traced) < MIN_RUNS)):
            tracing = bool(args.trace) and attempted % 2 == 1
            rundir = base / f"run{attempted}"
            result, error = run_worker(config, rundir, spans if tracing else None)
            attempted += 1
            if not args.trace:
                after, cal_error = calibrate()
                if cal_error:
                    print(cal_error, file=sys.stderr)
                    return 1
                if result is not None:
                    scale = REFERENCE_S / statistics.median(before + after)
                    result["wall"] = {name: result[name] for name in TIMES}
                    result.update({name: scaled(result[name], scale) for name in TIMES})
                before = after
            found = [error] if result is None else check_run(result, truth)
            if found:
                failed += 1
                problems += [f"run {attempted - 1}: {p}" for p in found]
            if result is not None:
                # failures: fetch-failed + judge-unavailable + translation-failed
                result["failed_share"] = (1.0 if found
                                          else result["stats"]["failures"] / candidates)
                result["candidates_per_s"] = candidates / result["run_s"]
                (traced if tracing else plain).append(result)
                hashes = " ".join(f"{k}={v}" for k, v in sorted(result["hashes"].items()))
                wall = f" (wall clock {result['wall']['run_s']:.4f})" if "wall" in result else ""
                print(f"run {attempted - 1}{' traced' if tracing else ''}: "
                      f"run_s={result['run_s']:.4f}{wall} sha256 {hashes}")
            shutil.rmtree(rundir, ignore_errors=True)
            if failed and failed == attempted and attempted >= MIN_RUNS:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for problem in problems[:20]:
        print("CHECK FAILED", problem)
    metrics = {}
    if args.trace and traced and plain:
        units = metric_units()
        overhead_unit = units.pop("trace.overhead_s")
        metrics = median_metrics([r["layers"] for r in traced], units)
        metrics["trace.overhead_s"] = {"value": statistics.median(r["run_s"] for r in traced)
                                       - statistics.median(r["run_s"] for r in plain),
                                       "unit": overhead_unit}
    elif not args.trace and plain:
        metrics = median_metrics(plain, END_TO_END)
        wall = median_metrics([r["wall"] for r in plain], {name: "s" for name in TIMES})
        print("wall-clock medians, not scaled: "
              + ", ".join(f"{name}={m['value']:.4f} s" for name, m in wall.items()))
    for name, metric in metrics.items():
        print(f"{name:<45} {metric['value']:>16.6f} {metric['unit']}")
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
