"""SRTM elevation tiles and DEM backfill for tracks without device elevation.

``sample_elevation`` reads one point; ``backfill_elevation`` samples a whole
track's lat/lon arrays in one batch per tile, with identical values.

Tiles are the standard HGT layout: one file per 1x1 degree cell named after
its south-west corner, a square grid of big-endian 16-bit signed meters with
row 0 along the northern edge and -32768 marking voids.
"""

from __future__ import annotations

import gzip
import math
import re
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gpx_model import Segment, Track

VOID_VALUE = -32768
_GRID_SIZES = (1201, 3601)  # SRTM3 and SRTM1
_TILE_NAME_RE = re.compile(r"^([NS])(\d{2})([EW])(\d{3})$")

GPS_SOURCE = "GPS"
DEM_SOURCE = "DEM"


class ElevationUnavailableError(Exception):
    """A point's elevation cannot be resolved (missing tile or void cell)."""


class TileFileError(ValueError):
    """A tile file cannot be read or is not a valid HGT grid."""


@dataclass
class SrtmTile:
    sw_lat: int
    sw_lon: int
    n: int
    samples: np.ndarray  # (n, n) int16, row 0 = northern edge


def tile_name_for(lat: float, lon: float) -> str:
    """HGT tile identifier for the 1-degree cell containing the point."""
    cell_lat = math.floor(lat)
    cell_lon = math.floor(lon)
    ns = "N" if cell_lat >= 0 else "S"
    ew = "E" if cell_lon >= 0 else "W"
    return f"{ns}{abs(cell_lat):02d}{ew}{abs(cell_lon):03d}"


def parse_tile_name(name: str) -> tuple[int, int]:
    match = _TILE_NAME_RE.match(name)
    if not match:
        raise ValueError(f"not a tile name: {name!r}")
    lat = int(match.group(2)) * (1 if match.group(1) == "N" else -1)
    lon = int(match.group(4)) * (1 if match.group(3) == "E" else -1)
    return lat, lon


def read_hgt(path: str | Path) -> SrtmTile:
    """Load a .hgt or .hgt.gz tile; the grid size is derived from file size."""
    path = Path(path)
    compressed = path.name.endswith(".gz")
    try:
        data = gzip.decompress(path.read_bytes()) if compressed else path.read_bytes()
    except (OSError, EOFError, zlib.error) as exc:
        raise TileFileError(f"{path}: cannot read tile: {exc}") from exc
    stem = path.name[:-len(".hgt.gz")] if compressed else path.stem
    n = math.isqrt(len(data) // 2)
    if n not in _GRID_SIZES or 2 * n * n != len(data):
        raise TileFileError(f"{path}: {len(data)} bytes is not a valid HGT grid")
    sw_lat, sw_lon = parse_tile_name(stem)
    samples = np.frombuffer(data, dtype=">i2").reshape(n, n)
    return SrtmTile(sw_lat=sw_lat, sw_lon=sw_lon, n=n, samples=samples)


def write_hgt(path: str | Path, samples: np.ndarray) -> None:
    """Write a grid as a big-endian .hgt file (gzip when the name ends .gz)."""
    n = samples.shape[0]
    if samples.shape != (n, n) or n not in _GRID_SIZES:
        raise ValueError(f"grid must be 1201x1201 or 3601x3601, got {samples.shape}")
    data = samples.astype(">i2").tobytes()
    path = Path(path)
    if path.name.endswith(".gz"):
        path.write_bytes(gzip.compress(data, mtime=0))
    else:
        path.write_bytes(data)


def sample_elevation(tile: SrtmTile, lat: float, lon: float) -> float | None:
    """Bilinear elevation at (lat, lon), in meters.

    Void corners are excluded and the remaining weights renormalized; when
    no corner contributes (all four void, or the query sits exactly on a
    void node) there is no value.  The point must lie inside the tile's
    1-degree cell.
    """
    x = (lon - tile.sw_lon) * (tile.n - 1)
    y = (tile.sw_lat + 1 - lat) * (tile.n - 1)
    if not (-1e-7 <= x <= tile.n - 1 + 1e-7 and -1e-7 <= y <= tile.n - 1 + 1e-7):
        raise ValueError(f"point ({lat}, {lon}) outside tile "
                         f"{tile_name_for(tile.sw_lat, tile.sw_lon)}")
    # Snap sub-micrometer residue onto grid nodes so queries at node
    # coordinates collapse to the stored value despite float rounding.
    if abs(x - round(x)) < 1e-7:
        x = float(round(x))
    if abs(y - round(y)) < 1e-7:
        y = float(round(y))

    col = min(max(int(math.floor(x)), 0), tile.n - 2)
    row = min(max(int(math.floor(y)), 0), tile.n - 2)
    fx = x - col
    fy = y - row

    corners = (
        (tile.samples[row, col], (1 - fx) * (1 - fy)),
        (tile.samples[row, col + 1], fx * (1 - fy)),
        (tile.samples[row + 1, col], (1 - fx) * fy),
        (tile.samples[row + 1, col + 1], fx * fy),
    )
    total_weight = 0.0
    weighted = 0.0
    for value, weight in corners:
        if value == VOID_VALUE:
            continue
        total_weight += weight
        weighted += weight * float(value)
    if total_weight <= 0.0:
        return None
    return weighted / total_weight


class TileStore:
    """Read-only tile cache over a directory of <TILE>.hgt[.gz] files.

    Each tile loads at most once; lookups for absent files are cached too.
    Safe for concurrent readers.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._tiles: dict[str, SrtmTile | None] = {}
        self._lock = threading.Lock()
        self.loads = 0  # diagnostic: number of files actually read

    def get(self, lat: float, lon: float) -> SrtmTile | None:
        name = tile_name_for(lat, lon)
        with self._lock:
            if name in self._tiles:
                return self._tiles[name]
            tile: SrtmTile | None = None
            for suffix in (".hgt", ".hgt.gz"):
                path = self.root / f"{name}{suffix}"
                if path.exists():
                    tile = read_hgt(path)
                    self.loads += 1
                    break
            self._tiles[name] = tile
            return tile


def sample_tile(tile: SrtmTile, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """``sample_elevation`` for arrays of points inside the tile's cell.

    One batched bilinear sample with the same arithmetic, in the same order,
    as the scalar function, so every value is identical to it; NaN where it
    would return None.
    """
    last = tile.n - 1
    x = (lon - tile.sw_lon) * last
    y = (tile.sw_lat + 1 - lat) * last
    inside = (x >= -1e-7) & (x <= last + 1e-7) & (y >= -1e-7) & (y <= last + 1e-7)
    if not inside.all():
        outside = np.argmin(inside)
        raise ValueError(f"point ({lat[outside]}, {lon[outside]}) outside tile "
                         f"{tile_name_for(tile.sw_lat, tile.sw_lon)}")
    for grid in (x, y):
        node = np.round(grid)
        snap = np.abs(grid - node) < 1e-7
        grid[snap] = node[snap]

    col = np.clip(np.floor(x), 0, last - 1).astype(np.intp)
    row = np.clip(np.floor(y), 0, last - 1).astype(np.intp)
    fx = x - col
    fy = y - row

    corners = (
        (tile.samples[row, col], (1 - fx) * (1 - fy)),
        (tile.samples[row, col + 1], fx * (1 - fy)),
        (tile.samples[row + 1, col], (1 - fx) * fy),
        (tile.samples[row + 1, col + 1], fx * fy),
    )
    # Adding 0.0 for a void corner leaves the sums as skipping it would:
    # they start at 0.0 and so are never -0.0.
    total_weight = np.zeros(len(lat))
    weighted = np.zeros(len(lat))
    for value, weight in corners:
        usable = value != VOID_VALUE
        total_weight += np.where(usable, weight, 0.0)
        weighted += np.where(usable, weight * value.astype(np.float64), 0.0)
    covered = total_weight > 0.0
    return np.divide(weighted, total_weight, out=np.full(len(lat), np.nan), where=covered)


def _sample_points(lat: np.ndarray, lon: np.ndarray, tiles: TileStore) -> np.ndarray:
    """DEM elevation of every point, one ``sample_tile`` call per 1-degree cell.

    Cells are visited in the order their first point appears.
    """
    cell_lat = np.floor(lat)
    cell_lon = np.floor(lon)
    elevations = np.empty(len(lat))
    pending = np.ones(len(lat), dtype=bool)
    while pending.any():
        head = int(np.argmax(pending))
        tile = tiles.get(float(lat[head]), float(lon[head]))
        if tile is None:
            raise ElevationUnavailableError(
                f"no tile {tile_name_for(lat[head], lon[head])} "
                f"for point ({lat[head]}, {lon[head]})")
        members = (cell_lat == cell_lat[head]) & (cell_lon == cell_lon[head])
        values = sample_tile(tile, lat[members], lon[members])
        void = np.isnan(values)
        if void.any():
            point = np.flatnonzero(members)[np.argmax(void)]
            raise ElevationUnavailableError(
                f"void DEM cell at ({lat[point]}, {lon[point]})")
        elevations[members] = values
        pending &= ~members
    return elevations


def backfill_elevation(track: Track, tiles: TileStore) -> tuple[Track, str]:
    """Ensure every point has an elevation; report where it came from.

    Tracks whose points all carry device elevation pass through unchanged
    with source "GPS".  Otherwise every point is re-sampled from the DEM
    (never a mix, so the per-track source stays truthful) and the source is
    "DEM".  Points are sampled in batches, one per tile, with the same
    values ``sample_elevation`` gives.  A point over a missing tile or an
    all-void cell raises ElevationUnavailableError.
    """
    segments = track.segments
    if track.point_count() and not any(np.isnan(s.ele).any() for s in segments):
        return track, GPS_SOURCE

    lat = np.concatenate([np.empty(0)] + [s.lat for s in segments])
    lon = np.concatenate([np.empty(0)] + [s.lon for s in segments])
    elevations = _sample_points(lat, lon, tiles)
    bounds = np.cumsum([len(s) for s in segments])[:-1]
    return Track(name=track.name, desc=track.desc,
                 segments=[Segment(s.lat, s.lon, ele)
                           for s, ele in zip(segments, np.split(elevations, bounds))]), DEM_SOURCE
