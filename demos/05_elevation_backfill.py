"""Sample a DEM tile and backfill a track that lacks device elevation.

Tiles are standard HGT grids (big-endian 16-bit meters, one file per degree
cell, -32768 marking voids).  Queries interpolate bilinearly between the four
surrounding nodes; void corners drop out and the remaining weights
renormalize.  A track with any missing elevation is re-sampled entirely from
the DEM so its provenance stays a single value, GPS or DEM.
"""

import tempfile
from pathlib import Path

import numpy as np

from gpx_harvest import (TileStore, Track, backfill_elevation, read_hgt, sample_elevation,
                         tile_name_for, write_hgt)

print("tile containing central London:", tile_name_for(51.5, -0.1))
print("tile containing Cape Town:     ", tile_name_for(-33.9, 18.4))

with tempfile.TemporaryDirectory() as tmp:
    # a synthetic cell that rises from 100 m in the south to 400 m in the north
    n = 1201
    rows = np.linspace(400, 100, n).astype(np.int16)
    grid = np.repeat(rows[:, None], n, axis=1)
    write_hgt(Path(tmp) / "N49E006.hgt", grid)

    tile = read_hgt(Path(tmp) / "N49E006.hgt")
    for lat in (49.0, 49.25, 49.5, 49.75, 50.0):
        print(f"elevation at ({lat:5.2f}, 6.5) = {sample_elevation(tile, lat, 6.5):7.2f} m")

    store = TileStore(tmp)
    # a track is stored as one lat/lon/ele array each; no ele means NaN
    bare = Track(lat=[49.2, 49.3, 49.4], lon=[6.5, 6.5, 6.5])
    filled, source = backfill_elevation(bare, store)
    print(f"\nbackfilled from {source}:", [round(ele, 1) for ele in filled.ele.tolist()])

    device = Track(lat=[49.2, 49.3], lon=[6.5, 6.5], ele=[210.0, 230.0])
    _, source = backfill_elevation(device, store)
    print(f"device-recorded track keeps its data, source={source}")
