"""Parse GPX payloads and apply the single-track and geometry filters.

Only documents with exactly one populated track survive (multi-track files
are typically multi-day events).  Survivors must be 0.5-100 km long with at
least one point per 100 m on average.
"""

from gpx_harvest import (FilterConfig, extract_single_track, length_2d, parse_gpx,
                         track_exclusion)
from gpx_harvest.synthetic import gpx_xml, line_points, loop_points

config = FilterConfig()

documents = {
    "good loop": gpx_xml([{"name": "Loop", "desc": "A fine loop.",
                           "segments": [loop_points(49.3, 6.8, side_m=600, spacing_m=40)]}]),
    "two tracks": gpx_xml([{"segments": [line_points(47.0, 10.0, 30, 50)]},
                           {"segments": [line_points(47.5, 10.5, 30, 50)]}]),
    "too short": gpx_xml([{"segments": [line_points(50.0, 6.0, 8, 40)]}]),
    "sparse points": gpx_xml([{"segments": [line_points(50.0, 6.0, 3, 900)]}]),
}

for label, payload in documents.items():
    doc = parse_gpx(payload, f"https://walks.example/{label.replace(' ', '-')}.gpx")
    track, reason = extract_single_track(doc)
    if track is None:
        print(f"{label:14s} -> rejected: {reason} ({len(doc.tracks)} tracks)")
        continue
    flat = length_2d(track)
    reason = track_exclusion(track, flat, config)
    verdict = "kept" if reason is None else f"rejected: {reason}"
    print(f"{label:14s} -> {verdict}  ({flat:7.0f} m, {track.point_count()} points)")
