"""Scaled synthetic crawls for the benchmark, with their ground truth.

Every file is built with the ``gpx_harvest.synthetic`` helpers.  All
randomness comes from one ``random.Random(seed)``, so a seed always gives the
same crawl byte for byte.  ``build_crawl`` writes index shards, WARC files,
DEM tiles, a boundaries file and a pipeline config under ``root`` and
returns the ground truth, which it also writes to ``root/truth.json``: one
entry per index candidate naming the stage exclusion it must hit, or the
fields its exported record must carry.

Workloads:

- ``long-tracks``: a few multi-thousand-point tracks, half without <ele>.
- ``described-mix``: many short tracks with descriptions in all sixteen
  profile languages and a fixed share of documents per exclusion path.
- ``recrawl-dups``: a few hundred documents, each captured under several
  crawl ids and mirror URLs, packed into large WARC files.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path

from corpus import SENTENCES
from gpx_harvest.synthetic import (box_feature, cdxj_line, constant_tile, gpx_xml,
                                   line_points, loop_points, warc_response_member,
                                   write_boundaries, write_index_shard)

EARTH_RADIUS_M = 6_371_000.0
BASE_URL = "https://data.example"
# One fetch and one judge thread.  Fixture reads and stub judges have no
# latency to overlap, so a second thread would only hand the interpreter lock
# back and forth, and on a shared two-vCPU host that times the neighbours'
# load on the second vCPU rather than the program.
THREADS = 1
CRAWLS = ("CC-MAIN-2024-10", "CC-MAIN-2024-18", "CC-MAIN-2024-26", "CC-MAIN-2024-33")
CRAWL_TIMESTAMPS = {"CC-MAIN-2024-10": "20240305101500", "CC-MAIN-2024-18": "20240502090000",
                    "CC-MAIN-2024-26": "20240620141000", "CC-MAIN-2024-33": "20240812170500"}

# 1x1 degree cells named by their south-west corner.  Cells with a name get a
# country box in the boundaries file; the "Alps" box overlaps two of them and
# comes last, so the first box in file order must win the tie.
REGIONS = ((46, 7, "Switzerland"), (47, 11, "Austria"), (45, 6, "France"),
           (49, 6, "Germany"), (52, 5, None))
OVERLAP_BOX = ("Alps", 7.0, 46.0, 12.0, 48.0)

# Below these lengths the detector confuses the Scandinavian languages and
# Dutch with each other, so their valid descriptions are never that short.
MIN_PROSE_CHARS = {"nl": 130, "sv": 130, "da": 130, "no": 130}
MIN_DESC_CHARS = 50  # filters.desc_min_chars
MAX_DESC_CHARS = 2000  # filters.desc_max_chars_exclusive
RARE_LANG_CUTOFF = 5  # filters.rare_lang_cutoff


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def path_length(segments: list[list[tuple]]) -> float:
    return sum(haversine_m(a[0], a[1], b[0], b[1])
               for seg in segments for a, b in zip(seg, seg[1:]))


def staircase(rng: random.Random, lat: float, lon: float, count: int, spacing_m: float,
              ele: bool, times: bool) -> list[tuple]:
    """``count`` points along alternating east and north legs of line_points."""
    phase = rng.uniform(0.0, 6.0)
    base = rng.uniform(300.0, 1500.0)
    points: list[tuple] = []
    while len(points) < count:
        leg = min(rng.randint(40, 400), count - len(points))
        offset = len(points)
        profile = (lambda i, k=offset: round(base + 40.0 * math.sin(phase + (k + i) / 60.0), 1))
        bearing = rng.choice(("east", "north"))
        new = line_points(lat, lon, leg + 1, spacing_m, bearing=bearing,
                          ele=profile if ele else None, times=times)
        points.extend(new[1:] if points else new[:leg])
        lat, lon = points[-1][0], points[-1][1]
    return points


def split_track(rng: random.Random, lat: float, lon: float, total: int, spacing_m: float,
                ele: bool, times: bool, max_segments: int) -> list[list[tuple]]:
    """1..max_segments segments, each resuming a short gap after the last."""
    n = rng.randint(1, max_segments)
    sizes = [total // n] * n
    sizes[-1] += total - sum(sizes)
    segments = []
    for size in sizes:
        seg = staircase(rng, lat, lon, size, spacing_m, ele, times)
        segments.append(seg)
        lat, lon = seg[-1][0] + 0.0005, seg[-1][1] + 0.0005
    return segments


def prose(rng: random.Random, lang: str, target: int) -> str:
    """Whole sentences of ``lang`` cut at a word boundary near ``target`` chars."""
    sentences = SENTENCES[lang]
    start = rng.randrange(len(sentences))
    parts: list[str] = []
    while sum(len(p) + 1 for p in parts) < target:
        parts.append(sentences[(start + len(parts)) % len(sentences)])
    text = " ".join(parts)
    if len(text) > target:
        text = text[:target].rsplit(" ", 1)[0]
    return text


class Description:
    """A raw description and the text clean_text + mask_pii must turn it into."""

    def __init__(self) -> None:
        self.raw: list[str] = []
        self.clean: list[str] = []

    def add(self, raw: str, clean: str) -> None:
        self.raw.append(raw)
        if clean:
            self.clean.append(clean)

    @property
    def raw_text(self) -> str:
        return " ".join(self.raw)

    @property
    def clean_text(self) -> str:
        return " ".join(self.clean)


DECORATIONS = (
    lambda rng, k: ("<p>Tip</p>", "Tip"),
    lambda rng, k: ("[Garmin Connect]", ""),
    lambda rng, k: ("{route:app}", ""),
    lambda rng, k: ("<br/>", ""),
    lambda rng, k: ("&amp;", "&"),
    lambda rng, k: (f"hiker{k}@trailmail.example", "<EMAIL>"),
    lambda rng, k: (f"https://maps.example/route/{k}?ref=share", "<URL>"),
    lambda rng, k: (f"www.hutbooking.example/h{k}", "<URL>"),
    lambda rng, k: (f"+49 170 {rng.randint(1000000, 9999999)}", "<TELEPHONE>"),
    lambda rng, k: (f"(0{rng.randint(20, 89)}) {rng.randint(100, 999)}-{rng.randint(1000, 9999)}",
                    "<TELEPHONE>"),
)


def described(rng: random.Random, lang: str, target: int, k: int, decorate: bool) -> Description:
    """Prose of about ``target`` chars in ``lang``, unique through a "#k" tag.

    With ``decorate``, HTML, app tags, an entity and personal data are woven
    between the sentences, each with the text cleaning must leave behind.
    """
    desc = Description()
    text = prose(rng, lang, target)
    sentences = text.split(". ")
    for i, sentence in enumerate(sentences):
        sentence = sentence if i == len(sentences) - 1 else sentence + "."
        desc.add(f"<b>{sentence}</b>" if decorate and i == 0 else sentence, sentence)
        if decorate and i < len(sentences) - 1:
            raw, clean = rng.choice(DECORATIONS)(rng, k)
            desc.add(raw, clean)
    desc.add(f"#{k}", f"#{k}")
    return desc


class CrawlBuilder:
    """Accumulates WARC records, index lines and per-candidate ground truth."""

    def __init__(self, root: Path, rng: random.Random) -> None:
        self.root = root
        self.rng = rng
        self.warcs: dict[str, list[bytes]] = {}
        self.sizes: Counter = Counter()
        self.lines: list[str] = []
        self.index = Counter()
        self.candidates: list[dict] = []
        self.dem_cells: set[tuple[int, int]] = set()

    @staticmethod
    def warc_name(crawl: str, part: int) -> str:
        stamp = CRAWL_TIMESTAMPS[crawl][:8]
        return (f"crawl-data/{crawl}/segments/1707{part:06d}.0/warc/"
                f"{crawl.replace('-', '')}-{stamp}-{part:05d}.warc.gz")

    def store(self, filename: str, member: bytes) -> tuple[int, int]:
        offset = self.sizes[filename]
        self.warcs.setdefault(filename, []).append(member)
        self.sizes[filename] += len(member)
        return offset, len(member)

    def candidate(self, url: str, filename: str, offset: int, length: int, crawl: str,
                  outcome: str, mime: str = "application/gpx+xml", **fields) -> None:
        self.lines.append(cdxj_line(url, filename, offset, length, mime=mime,
                                    timestamp=CRAWL_TIMESTAMPS[crawl]))
        self.index["candidates"] += 1
        self.candidates.append({"url": url, "crawl_id": crawl, "warc_file": filename,
                                "warc_offset": offset, "outcome": outcome, **fields})

    def capture(self, url: str, payload: bytes, crawl: str, filename: str, outcome: str,
                http_status: str = "200 OK", warc_type: str = "response",
                mime: str = "application/gpx+xml", **fields) -> None:
        member = warc_response_member(url, payload, http_status=http_status, warc_type=warc_type)
        offset, length = self.store(filename, member)
        self.candidate(url, filename, offset, length, crawl, outcome, mime=mime, **fields)

    def exported(self, segments: list[list[tuple]], desc: Description, lang: str) -> dict:
        """The fields an exported record for this geometry and text must carry."""
        first = segments[0][0]
        with_ele = all(p[2] is not None for seg in segments for p in seg)
        if not with_ele:
            self.dem_cells.add((math.floor(first[0]), math.floor(first[1])))
        return {"elev_source": "GPS" if with_ele else "DEM",
                "country": country_of(first[0], first[1]),
                "desc_lang": lang, "desc": desc.clean_text,
                "length_2d": path_length(segments),
                "points": [len(seg) for seg in segments]}

    def filler(self, filename: str, crawl: str, count: int) -> None:
        """Non-GPX captures (incompressible image bytes) that bulk up a WARC file.

        Real WARC files are mostly other content, so fetching one GPX record
        from them is a small read in a large file.
        """
        for size in stratified(self.rng, 20_000, 120_000, count):
            n = self.index["not_candidate"]
            url = f"https://photos{n % 11}.example/img/{n}.jpg"
            offset, length = self.store(filename, warc_response_member(
                url, self.rng.randbytes(size), content_type="image/jpeg"))
            self.lines.append(cdxj_line(url, filename, offset, length, mime="image/jpeg",
                                        timestamp=CRAWL_TIMESTAMPS[crawl]))
            self.index["not_candidate"] += 1

    def noise_lines(self, not_candidate: int, malformed: int, blank: int) -> None:
        """Index lines that are not GPX candidates, malformed, or blank."""
        filename = next(iter(self.warcs))
        for k in range(not_candidate):
            self.lines.append(cdxj_line(f"https://walks{k % 7}.example/page/{k}.html", filename,
                                        0, 100, mime="text/html"))
        broken = ('this line has no json payload',
                  'com,example)/x.gpx 20240210120000 {"url": "https://example.com/x.gpx"}',
                  'com,example)/y.gpx 20240210120000 {"url": "https://example.com/y.gpx", '
                  '"filename": "a.warc.gz", "offset": "12a", "length": "10"}',
                  'com,example)/z.gpx 20240210120000 {"url": "https://exa')
        for k in range(malformed):
            self.lines.append(broken[k % len(broken)])
        self.lines.extend([""] * blank)
        self.index.update(not_candidate=not_candidate, malformed=malformed, blank=blank)

    def write(self, shards: int) -> None:
        for filename, members in self.warcs.items():
            path = self.root / "warc" / filename
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"".join(members))
        self.rng.shuffle(self.lines)
        per_shard = math.ceil(len(self.lines) / shards)
        for k in range(shards):
            write_index_shard(self.root / "index" / f"shard-{k:05d}.gz",
                              self.lines[k * per_shard:(k + 1) * per_shard])
        for lat, lon in sorted(self.dem_cells):
            constant_tile(self.root / "srtm", f"N{lat:02d}E{lon:03d}", 200 + 37 * (lat + lon) % 900)
        features = [box_feature(name, lon, lat, lon + 1, lat + 1)
                    for lat, lon, name in REGIONS if name]
        features.append(box_feature(*OVERLAP_BOX))
        write_boundaries(self.root / "boundaries.geojson", features)
        (self.root / "config.json").write_text(json.dumps({
            "workdir": str(self.root / "work"),
            "shards": str(self.root / "index" / "shard-*.gz"),
            "fixture_dir": str(self.root / "warc"),
            "srtm_dir": str(self.root / "srtm"),
            "boundaries": str(self.root / "boundaries.geojson"),
            "judge": "stub",
            "translator": "stub",
            "judge_max_parallel": THREADS,
            # Never binds: fetch measures the program, not sleep().
            "fetch": {"rate_limit_per_s": 1e6, "backoff_base_s": 0.0, "max_retries": 3,
                      "max_parallel": THREADS, "base_url": BASE_URL},
        }, indent=2), encoding="utf-8")

    def truth(self) -> dict:
        lines = len(self.lines)
        outcomes = Counter(c["outcome"] for c in self.candidates)
        return {"index": {"lines": lines, **self.index},
                "exclusions": {k: v for k, v in sorted(outcomes.items()) if k != "export"},
                "records": outcomes["export"],
                "candidates": self.candidates}


def country_of(lat: float, lon: float) -> str:
    boxes = [(name, lon0, lat0, lon0 + 1, lat0 + 1) for lat0, lon0, name in REGIONS if name]
    for name, min_lon, min_lat, max_lon, max_lat in boxes + [OVERLAP_BOX]:
        if min_lon <= lon <= max_lon and min_lat <= lat <= max_lat:
            return name
    return "Unknown"


def stratified(rng: random.Random, low: int, high: int, n: int) -> list[int]:
    """n sizes evenly spread over [low, high] in seeded order.

    Sizes vary inside a crawl but their sum does not vary between seeds, so
    a seed changes which inputs are large, not how much work a run does.
    """
    sizes = [round(low + (high - low) * (i + 0.5) / n) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def region_start(rng: random.Random, region: int | None = None) -> tuple[float, float]:
    lat, lon, _ = REGIONS[region % len(REGIONS)] if region is not None else rng.choice(REGIONS)
    return lat + rng.uniform(0.05, 0.5), lon + rng.uniform(0.05, 0.5)


def missing_captures(b: CrawlBuilder, count: int) -> None:
    """Candidates whose WARC file does not exist: each must end fetch-failed."""
    filename = b.warc_name(CRAWLS[-1], 99999)
    for k in range(count):
        b.candidate(f"https://lost{k}.example/tracks/{k}.gpx", filename,
                    b.rng.randrange(0, 10**6), b.rng.randint(2000, 9000), CRAWLS[-1],
                    "fetch-failed")


# --- workloads -------------------------------------------------------------------

def long_tracks(b: CrawlBuilder) -> None:
    rng = b.rng
    # Each size appears once with and once without <ele>, and DEM tracks
    # visit every region, so the DEM work is the same for every seed.
    sizes = stratified(rng, 2000, 3500, 6)
    tracks = [(size, ele) for size in sizes for ele in (True, False)]
    regions = rng.randrange(len(REGIONS))
    for k, (size, ele) in enumerate(tracks):
        lat, lon = region_start(rng, regions + k // 2)
        segments = split_track(rng, lat, lon, size, rng.uniform(3.0, 6.0),
                               ele=ele, times=True, max_segments=3)
        desc = described(rng, "en", rng.randint(80, 300), k, decorate=False)
        url = f"https://tracks{k % 3}.example/activity/{k}.gpx"
        payload = gpx_xml([{"name": f"Long ride {k}", "desc": desc.raw_text, "segments": segments}])
        filename = b.warc_name(CRAWLS[0], k % 4)
        b.capture(url, payload, CRAWLS[0], filename, "export", **b.exported(segments, desc, "en"))
    missing_captures(b, 1)
    b.noise_lines(not_candidate=6, malformed=2, blank=1)


def described_mix(b: CrawlBuilder) -> None:
    rng = b.rng
    langs = sorted(SENTENCES)
    rare = rng.choice(langs)
    valid = [lang for lang in langs for _ in range(3 if lang == rare else 7)]
    rng.shuffle(valid)
    lengths = stratified(rng, MIN_DESC_CHARS, MAX_DESC_CHARS - 1, len(valid))
    points = stratified(rng, 40, 120, len(valid))
    files = [b.warc_name(CRAWLS[1], part) for part in range(3)]
    k = 0

    def short_track(count: int = 60, spacing: float | None = None, loop: bool = False):
        lat, lon = region_start(rng)
        if loop:
            spacing, base = rng.uniform(15.0, 30.0), rng.uniform(100.0, 900.0)
            return [loop_points(lat, lon, spacing * (count // 4), spacing,
                                ele=lambda i: round(base + 0.3 * i, 1))]
        if spacing is not None:
            return split_track(rng, lat, lon, count, spacing, ele=True, times=False,
                               max_segments=1)
        return split_track(rng, lat, lon, count, rng.uniform(20.0, 40.0),
                           ele=True, times=False, max_segments=2)

    def doc(outcome: str, segments, desc: Description, lang: str = "en",
            extra_tracks=(), **capture) -> None:
        nonlocal k
        url = rng.choice((f"https://wander{k % 5}.example/touren/{k}.gpx",
                          f"https://hike{k % 5}.example/export/{k}?format=gpx",
                          f"https://maps{k % 5}.example/t/{k}.GPX?download=1"))
        tracks = [{"name": f"Tour {k}", "desc": desc.raw_text, "segments": segments},
                  *extra_tracks]
        fields = b.exported(segments, desc, lang) if outcome == "export" else {}
        mime = "application/gpx+xml" if "format=gpx" in url else rng.choice(
            ("application/gpx+xml", "application/octet-stream"))
        b.capture(url, capture.pop("payload", None) or gpx_xml(tracks), CRAWLS[1],
                  rng.choice(files), outcome, mime=mime, **capture, **fields)
        k += 1

    def text(lang: str, low: int, high: int, decorate: bool | None = None,
             target: int | None = None) -> Description:
        """A description whose cleaned length lies in [low, high), near ``target``."""
        target = max(target or rng.randint(low, high - 1), MIN_PROSE_CHARS.get(lang, low))
        while True:
            desc = described(rng, lang, target, k,
                             decorate=target >= 300 if decorate is None else decorate)
            if len(desc.clean_text) < low:
                target += 10
            elif len(desc.clean_text) >= high:
                target -= 50
            else:
                return desc

    for i, lang in enumerate(valid):
        desc = text(lang, MIN_DESC_CHARS, MAX_DESC_CHARS, target=lengths[i])
        doc("rare-lang" if lang == rare else "export",
            short_track(points[i], loop=i % 4 == 0), desc, lang)

    per = 4
    for _ in range(per):
        doc("multi-track", short_track(), text("en", 80, 400),
            extra_tracks=({"name": "Return", "segments": short_track()},))
        doc("no-track", [], text("de", 80, 400))
        doc("too-short", short_track(count=8, spacing=40.0), text("fr", 80, 400))
        doc("too-long", short_track(count=2, spacing=120_000.0), text("it", 80, 400))
        doc("low-density", short_track(count=4, spacing=400.0), text("es", 80, 400))
        doc("parse-error", short_track(), text("en", 80, 400),
            payload=rng.choice((b"<html><body>Not found</body></html>", b"\x00\x01 not xml")))
        short = Description()
        words = rng.choice(("Nice loop.", "Great ride!", "Short walk"))
        short.add(f"<i>{words}</i>", words)
        short.add("[Strava]", "")
        doc("desc-too-short", short_track(), short)
        doc("desc-too-long", short_track(), text("pl", MAX_DESC_CHARS + 10, MAX_DESC_CHARS + 600,
                                                  decorate=False))
        symbols = Description()
        soup = " ".join(rng.choice("~#*=+|^%") * rng.randint(2, 5)
                        for _ in range(rng.randint(20, 40)))
        symbols.add(soup, soup)
        doc("unknown-lang", short_track(), symbols)
        doc("skipped-record", short_track(), text("en", 80, 400), http_status="404 Not Found")
        doc("skipped-record", short_track(), text("en", 80, 400), warc_type="request")

    # Undecodable records: the index length stops short of the gzip trailer.
    for _ in range(per):
        payload = gpx_xml([{"name": "Cut", "desc": prose(rng, "en", 200),
                            "segments": short_track()}])
        filename = rng.choice(files)
        offset, length = b.store(filename, warc_response_member(f"https://cut.example/{k}.gpx",
                                                                payload))
        b.candidate(f"https://cut.example/{k}.gpx", filename, offset, length - 9, CRAWLS[1],
                    "decode-error")
        k += 1
    missing_captures(b, per)
    b.noise_lines(not_candidate=40, malformed=12, blank=6)


def recrawl_dups(b: CrawlBuilder) -> None:
    rng = b.rng
    documents = 40
    langs = ("en", "de", "fr", "it", "es", "nl")
    hosts = ("alpentouren.example", "www.trailmap.example", "routes.example",
             "bikepacking.example", "ostrails.example", "zugspitz.example")
    points = stratified(rng, 100, 300, documents)
    lengths = stratified(rng, 150, 300, documents)
    # Capture patterns cycle, so every seed has the same number of captures.
    crawl_counts = [2 + d % 3 for d in range(documents)]
    mirror_counts = [d % 3 for d in range(documents)]
    rng.shuffle(crawl_counts)
    rng.shuffle(mirror_counts)
    for d in range(documents):
        lat, lon = region_start(rng)
        segments = split_track(rng, lat, lon, points[d], rng.uniform(8.0, 15.0),
                               ele=d % 2 == 0, times=d % 4 < 2, max_segments=2)
        lang = langs[d % len(langs)]
        desc = described(rng, lang, lengths[d], d, decorate=True)
        track = {"name": f"Route {d}", "desc": desc.raw_text, "segments": segments}
        original = gpx_xml([track])
        revised = gpx_xml([dict(track, name=f"Route {d} (revised)")])

        canonical = f"https://{hosts[d % len(hosts)]}/tracks/{d}.gpx"
        mirrors = [f"https://mirror{m}.example/{hosts[d % len(hosts)]}/{d}.gpx"
                   for m in rng.sample(range(4), mirror_counts[d])]
        survivor = min([canonical] + mirrors)
        fields = b.exported(segments, desc, lang)

        captures = [(canonical, sorted(rng.sample(CRAWLS, crawl_counts[d])))]
        captures += [(m, sorted(rng.sample(CRAWLS, 1 + j % 2))) for j, m in enumerate(mirrors)]
        for url, crawls in captures:
            for i, crawl in enumerate(crawls):
                # Later captures of the canonical URL are sometimes edited;
                # the earliest (url, crawl_id) wins URL dedup regardless.
                edited = url == canonical and i > 0 and rng.random() < 0.3
                filename = b.warc_name(crawl, 0)
                if i > 0:
                    outcome = "duplicate-url"
                elif url == survivor:
                    outcome = "export"
                else:
                    outcome = "duplicate-content"
                b.capture(url, revised if edited else original, crawl, filename, outcome,
                          **(fields if outcome == "export" else {}))
    for crawl in CRAWLS:
        b.filler(b.warc_name(crawl, 0), crawl, 100)
    missing_captures(b, 3)
    b.noise_lines(not_candidate=30, malformed=6, blank=3)


BUILDERS = {"long-tracks": long_tracks, "described-mix": described_mix,
            "recrawl-dups": recrawl_dups}
SHARDS = {"long-tracks": 1, "described-mix": 3, "recrawl-dups": 4}


def build_crawl(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's crawl under ``root``; return its ground truth."""
    root = Path(root)
    builder = CrawlBuilder(root, random.Random(f"{workload}:{seed}"))
    BUILDERS[workload](builder)
    builder.write(SHARDS[workload])
    truth = builder.truth()
    (root / "truth.json").write_text(json.dumps(truth, ensure_ascii=False, indent=1),
                                     encoding="utf-8")
    return truth
