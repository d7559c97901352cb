"""Geometric properties of a track: lengths, climb statistics, circularity,
and country assignment by point-in-polygon against named boundaries.
"""

import tempfile
from pathlib import Path

from gpx_harvest import (FilterConfig, Track, compute_track_metrics, first_point_countries,
                         haversine_m, load_boundaries, pick_country)
from gpx_harvest.synthetic import box_feature, loop_points, write_boundaries

print("one degree along the equator:",
      f"{haversine_m(0.0, 0.0, 0.0, 1.0):,.2f} m")

points = loop_points(49.35, 6.85, side_m=900.0, spacing_m=45.0)
# synthesize a hill profile over the loop
with_ele = [(lat, lon, 250.0 + 80.0 * min(i, len(points) - i) / len(points), None)
            for i, (lat, lon, _, _) in enumerate(points)]
lat, lon, ele, _ = zip(*with_ele)
track = Track(lat=lat, lon=lon, ele=ele)

config = FilterConfig()
metrics = compute_track_metrics(track, circular_radius_m=config.circular_radius_m,
                                deadband_m=config.elev_deadband_m)
print(f"length_2d    {metrics.length_2d:10.1f} m")
print(f"length_3d    {metrics.length_3d:10.1f} m")
print(f"elev range   {metrics.elev_lowest:.1f} .. {metrics.elev_highest:.1f} m")
print(f"uphill       {metrics.uphill:10.1f} m")
print(f"downhill     {metrics.downhill:10.1f} m")
print(f"is_circular  {metrics.is_circular}")

with tempfile.TemporaryDirectory() as tmp:
    boundaries_path = Path(tmp) / "countries.geojson"
    write_boundaries(boundaries_path, [
        box_feature("France", -5.0, 42.0, 8.2, 51.0),
        box_feature("Germany", 5.8, 47.2, 15.0, 55.0),
    ])
    boundaries = load_boundaries(boundaries_path)
    print("country:", pick_country(first_point_countries(track, boundaries)))
    print("(first point wins; file order breaks border ties)")
