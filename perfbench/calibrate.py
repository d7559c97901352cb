"""Times a fixed reference task, to measure how fast the machine runs right now.

    python3 perfbench/calibrate.py

Prints one JSON list: the seconds each of ``REPEATS`` runs of the task took,
after one untimed run that lets the interpreter's allocator take its memory
from the system, which fresh processes pay at very different speeds.
The task does, in small, the kinds of work the pipeline spends its time on:
parsing XML with ``ElementTree``, float arithmetic, JSON, regular expressions
and n-gram counting on text, and zlib.  It never changes, so its time moves
only with the machine.  It imports nothing from ``gpx_harvest`` and runs in
its own interpreter while no worker runs, so nothing the program does can
change it.
"""

from __future__ import annotations

import json
import math
import re
import time
import zlib
from collections import Counter
from xml.etree import ElementTree

REPEATS = 3
POINTS = 8_000
WORDS = ("the path climbs gently through the forest and follows the ridge towards "
         "the old chapel from the top you can see the lake and the village").split()
TAG_RE = re.compile(r"<[^>]+>|\[[^]]*\]")
MAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
SPACE_RE = re.compile(r"\s+")


def document() -> bytes:
    points = "".join(f'<trkpt lat="{46 + i * 1e-5:.6f}" lon="{7 + i * 2e-5:.6f}">'
                     f"<ele>{400 + i % 300 * 0.5:.1f}</ele></trkpt>" for i in range(POINTS))
    return f"<gpx><trk><trkseg>{points}</trkseg></trk></gpx>".encode()


def text() -> str:
    parts = []
    for i in range(6_000):
        parts.append(WORDS[i * 7 % len(WORDS)])
        if i % 50 == 0:
            parts.append(f"<b>[App {i}]</b> hiker{i}@mail.example")
    return " ".join(parts)


def reference_task(payload: bytes, prose: str) -> tuple[float, int, int]:
    root = ElementTree.fromstring(zlib.decompress(zlib.compress(payload)))
    points = [(float(p.get("lat")), float(p.get("lon")), float(p.findtext("ele")))
              for p in root.iter("trkpt")]
    length = 0.0
    for (lat1, lon1, _), (lat2, lon2, _) in zip(points, points[1:]):
        dlat = math.radians(lat2 - lat1)
        dlon = math.radians(lon2 - lon1) * math.cos(math.radians(lat1))
        length += 6_371_000.0 * math.sqrt(dlat * dlat + dlon * dlon)
    rows = json.loads(json.dumps([{"lat": lat, "lon": lon, "ele": ele}
                                  for lat, lon, ele in points]))
    clean = SPACE_RE.sub(" ", MAIL_RE.sub("<EMAIL>", TAG_RE.sub(" ", prose)))
    grams = Counter(clean[i:i + n] for n in (1, 2, 3) for i in range(len(clean) - n + 1))
    return length, len(rows), len(grams)


def main() -> None:
    payload, prose = document(), text()
    reference_task(payload, prose)
    timings = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        reference_task(payload, prose)
        timings.append(time.perf_counter() - started)
    print(json.dumps(timings))


if __name__ == "__main__":
    main()
