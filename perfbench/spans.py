"""In-memory span tracing of gpx_harvest layers, installed from outside ``src/``.

``Tracer.install`` replaces each traced function, wherever a ``gpx_harvest``
module holds a reference to it, with a wrapper that records a span; class
methods are replaced on their class.  ``restore`` puts every original back.
A function a later version of the package no longer has is skipped, and its
metrics read zero.

A span is (id, name, start, end, parent, url, note).  The parent is the
innermost open span of the same thread, or the running stage for work done on
pool threads.  ``note`` holds what the layer metrics need from the call's
arguments or result, such as the points a parse returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path


def _url(args, index):
    return args[index] if len(args) > index and isinstance(args[index], str) else None


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def text_digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8", "surrogatepass")).hexdigest()


# span name -> (module, attribute path, url from args, note from (args, result))
TARGETS = {
    "pipeline.read_jsonl": ("pipeline", "read_jsonl", None,
                            lambda a, r: {"bytes": _size(a[0])}),
    "pipeline.write_jsonl": ("pipeline", "write_jsonl", None,
                             lambda a, r: {"bytes": _size(a[0])}),
    "warc_fetch.get_range": ("warc_fetch", "FixtureTransport.get_range", 1, None),
    "warc_fetch.rate_wait": ("warc_fetch", "RateLimiter.acquire", None, None),
    "warc_fetch.extract_payload": ("warc_fetch", "extract_payload", None, None),
    "gpx_model.parse_gpx": ("gpx_model", "parse_gpx", 1,
                            lambda a, r: {"points": sum(t.point_count() for t in r.tracks)}),
    "gpx_model.strip_timestamps": ("gpx_model", "strip_timestamps", None, None),
    "geo_metrics.length_2d": ("geo_metrics", "length_2d", None, None),
    "geo_metrics.compute_track_metrics": ("geo_metrics", "compute_track_metrics", None, None),
    "geo_metrics.find_countries": ("geo_metrics", "find_countries", None, None),
    "elevation.backfill_elevation": ("elevation", "backfill_elevation", None,
                                     lambda a, r: {"dem_points": r[0].point_count()
                                                   if r[1] != "GPS" else 0}),
    "elevation.read_hgt": ("elevation", "read_hgt", None, None),
    "descriptions.clean_text": ("descriptions", "clean_text", None, None),
    "descriptions.mask_pii": ("descriptions", "mask_pii", None,
                              lambda a, r: {"masked": any(vars(r[1]).values())}),
    "language.detect_language": ("language", "detect_language", None,
                                 lambda a, r: {"chars": len(a[0]), "unknown": r == "unknown"}),
    "judges.judge_quality": ("judges", "judge_quality", None,
                             lambda a, r: {"text": text_digest(a[0])}),
    "judges.judge_pii": ("judges", "judge_pii", None,
                         lambda a, r: {"text": text_digest(a[0])}),
    "judges.translate_to_english": ("judges", "translate_to_english", None,
                                    lambda a, r: {"text": text_digest(a[0])}),
    "records.dedup": ("records", "dedup", None, None),
    "records.export_records": ("records", "export_records", None,
                               lambda a, r: {"bytes": sum(_size(p) for p in r.values())}),
}


def max_rss_mb() -> float:
    """This process's peak resident set size so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_chars() -> int:
    """Bytes this process has read through read() calls (Linux /proc/self/io)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    """Thread-safe span recorder with the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.stage: int | None = None  # id of the open stage span, for pool threads

    def _open(self, name: str) -> tuple[int, int | None]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else self.stage
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, name, start, parent, url, note) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self.spans.append((span_id, name, start, end, parent, url, note))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; yields (span id, note dict)."""
        span_id, parent = self._open(name)
        note: dict = {}
        start = time.perf_counter()
        try:
            yield span_id, note
        finally:
            self._close(span_id, name, start, parent, None, note)

    def _wrap(self, name: str, fn, url_index, noter):
        tracer = self

        def traced(*args, **kwargs):
            span_id, parent = tracer._open(name)
            start = time.perf_counter()
            result = note = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if noter is not None and result is not None:
                    try:
                        note = noter(args, result)
                    except (AttributeError, TypeError, IndexError, KeyError):
                        note = None  # the layer changed shape; its counts read zero
                tracer._close(span_id, name, start, parent,
                              _url(args, url_index) if url_index is not None else None, note)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gpx_harvest" or n.startswith("gpx_harvest."))]
        for name, (module, attr, url_index, noter) in TARGETS.items():
            owner = sys.modules.get(f"gpx_harvest.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                if owner is None or method not in vars(owner):
                    continue
                self._patch(owner, method, self._wrap(name, vars(owner)[method], url_index, noter))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, url_index, noter)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, url, note in sorted(self.spans):
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "url": url,
                                         "note": note}))
                handle.write("\n")
