import gzip
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpx_harvest.elevation import (DEM_SOURCE, GPS_SOURCE, VOID_VALUE,
                                   ElevationUnavailableError, SrtmTile, TileFileError, TileStore,
                                   _sample_points, backfill_elevation, parse_tile_name, read_hgt,
                                   sample_elevation, sample_tile, tile_name_for, write_hgt)
from gpx_harvest.gpx_model import Track

N = 1201
STEP = 1.0 / (N - 1)


def tile_with(corners=None, fill=0, sw_lat=49, sw_lon=6):
    samples = np.full((N, N), fill, dtype=np.int16)
    if corners is not None:
        (samples[0, 0], samples[0, 1]), (samples[1, 0], samples[1, 1]) = corners
    return SrtmTile(sw_lat=sw_lat, sw_lon=sw_lon, n=N, samples=samples)


# --- naming -----------------------------------------------------------------

def test_tile_name_for_london():
    assert tile_name_for(51.5, -0.1) == "N51W001"


def test_tile_name_for_southern_hemisphere():
    assert tile_name_for(-33.9, 18.4) == "S34E018"


def test_tile_name_for_origin():
    assert tile_name_for(0.0, 0.0) == "N00E000"


def test_parse_tile_name_roundtrip():
    for lat, lon in ((51.5, -0.1), (-33.9, 18.4), (0.0, 0.0), (-0.5, -0.5)):
        name = tile_name_for(lat, lon)
        sw = parse_tile_name(name)
        assert tile_name_for(sw[0] + 0.5, sw[1] + 0.5) == name
    with pytest.raises(ValueError):
        parse_tile_name("X99Y999")


# --- sampling ----------------------------------------------------------------

def test_sample_exact_at_grid_node():
    tile = tile_with(fill=0)
    tile.samples[3, 7] = 132
    lat = 50.0 - 3 * STEP  # row 3 south of the northern edge
    lon = 6.0 + 7 * STEP
    assert sample_elevation(tile, lat, lon) == 132.0


def test_sample_midpoint_of_four_corners():
    tile = tile_with(corners=((100, 100), (200, 200)))
    value = sample_elevation(tile, 50.0 - STEP / 2, 6.0 + STEP / 2)
    assert value == pytest.approx(150.0, abs=1e-9)


def test_sample_all_void_yields_nothing():
    tile = tile_with(fill=VOID_VALUE)
    assert sample_elevation(tile, 49.5, 6.5) is None


def test_sample_void_corners_renormalize():
    tile = tile_with(corners=((100, VOID_VALUE), (VOID_VALUE, VOID_VALUE)))
    # dead center of the cell: only the single valid corner contributes
    assert sample_elevation(tile, 50.0 - STEP / 2, 6.0 + STEP / 2) == pytest.approx(100.0)


def test_sample_within_corner_range():
    rng = np.random.default_rng(3)
    tile = tile_with(fill=0)
    tile.samples[:] = rng.integers(-100, 3000, size=(N, N), dtype=np.int16)
    for _ in range(200):
        lat = 49.0 + float(rng.uniform(0, 1))
        lon = 6.0 + float(rng.uniform(0, 1))
        value = sample_elevation(tile, lat, lon)
        assert float(tile.samples.min()) <= value <= float(tile.samples.max())


def test_sample_continuous_across_node_lines():
    rng = np.random.default_rng(11)
    tile = tile_with(fill=0)
    tile.samples[:] = rng.integers(0, 500, size=(N, N), dtype=np.int16)
    eps = STEP * 1e-6
    for k in (100, 600, 1100):
        lon = 6.0 + k * STEP  # exactly on a column line
        below = sample_elevation(tile, 49.5, lon - eps)
        above = sample_elevation(tile, 49.5, lon + eps)
        assert abs(above - below) < 1e-2


def test_sample_outside_tile_is_contract_violation():
    tile = tile_with(fill=0)
    with pytest.raises(ValueError):
        sample_elevation(tile, 51.5, 6.5)


# --- file io -------------------------------------------------------------------

def test_hgt_roundtrip_byte_exact(tmp_path):
    rng = np.random.default_rng(8)
    grid = rng.integers(-500, 4000, size=(N, N)).astype(np.int16)
    path = tmp_path / "N49E006.hgt"
    write_hgt(path, grid)
    assert path.stat().st_size == 2 * N * N == 2_884_802
    tile = read_hgt(path)
    assert (tile.sw_lat, tile.sw_lon, tile.n) == (49, 6, N)
    assert np.array_equal(tile.rows(0, tile.n), grid)

    rewritten = tmp_path / "rewrite.bin"
    rewritten.write_bytes(tile.rows(0, tile.n).astype(">i2").tobytes())
    assert rewritten.read_bytes() == path.read_bytes()


def test_hgt_gzip_variant(tmp_path):
    grid = np.full((N, N), 77, dtype=np.int16)
    path = tmp_path / "S34E018.hgt.gz"
    write_hgt(path, grid)
    tile = read_hgt(path)
    assert (tile.sw_lat, tile.sw_lon) == (-34, 18)
    assert np.array_equal(tile.samples, grid)
    # the payload really is gzip
    assert gzip.decompress(path.read_bytes()) == grid.astype(">i2").tobytes()


def test_read_hgt_rejects_wrong_size(tmp_path):
    path = tmp_path / "N00E000.hgt"
    path.write_bytes(b"\x00" * 1000)
    with pytest.raises(ValueError, match="not a valid HGT grid"):
        read_hgt(path)


def test_srtm1_resolution_detected_by_size(tmp_path):
    n1 = 3601
    grid = np.zeros((n1, n1), dtype=np.int16)
    grid[0, 0] = 42
    path = tmp_path / "N47E011.hgt"
    write_hgt(path, grid)
    assert path.stat().st_size == 25_934_402
    tile = read_hgt(path)
    assert tile.n == n1
    assert sample_elevation(tile, 48.0, 11.0) == 42.0


def test_big_endian_on_disk(tmp_path):
    grid = np.zeros((N, N), dtype=np.int16)
    grid[0, 0] = 0x0102
    path = tmp_path / "N10E010.hgt"
    write_hgt(path, grid)
    assert path.read_bytes()[:2] == b"\x01\x02"


# --- tile store -------------------------------------------------------------------

def test_tile_store_caches_loads(tmp_path):
    write_hgt(tmp_path / "N49E006.hgt", np.full((N, N), 5, dtype=np.int16))
    store = TileStore(tmp_path)
    assert store.get(49.2, 6.7) is not None
    assert store.get(49.9, 6.1) is not None
    assert store.loads == 1
    assert store.get(50.5, 6.5) is None  # missing tile
    assert store.get(50.5, 6.5) is None  # negative result cached too
    assert store.loads == 1


# --- backfill ----------------------------------------------------------------------

def track_with_points(points):
    lat, lon, ele = zip(*points)
    return Track(lat=lat, lon=lon, ele=ele, desc="d")


def test_backfill_keeps_device_elevation(tmp_path):
    store = TileStore(tmp_path)  # empty store; must not be consulted
    track = track_with_points([(49.2, 6.5, 100.0), (49.3, 6.5, 110.0)])
    result, source = backfill_elevation(track, store)
    assert source == GPS_SOURCE
    assert result is track


def test_backfill_resamples_from_dem(tmp_path):
    write_hgt(tmp_path / "N49E006.hgt", np.full((N, N), 250, dtype=np.int16))
    store = TileStore(tmp_path)
    track = track_with_points([(49.2, 6.5, None), (49.3, 6.6, None)])
    result, source = backfill_elevation(track, store)
    assert source == DEM_SOURCE
    assert result.segment_lengths == [2]
    assert result.ele.tolist() == [250.0, 250.0]
    assert list(zip(result.lat.tolist(), result.lon.tolist())) == [(49.2, 6.5), (49.3, 6.6)]


def test_backfill_mixed_elevation_resamples_everything(tmp_path):
    write_hgt(tmp_path / "N49E006.hgt", np.full((N, N), 250, dtype=np.int16))
    store = TileStore(tmp_path)
    track = track_with_points([(49.2, 6.5, 987.0), (49.3, 6.6, None)])
    result, source = backfill_elevation(track, store)
    assert source == DEM_SOURCE
    # one provenance per track: the device value is replaced, not mixed
    assert result.ele.tolist() == [250.0, 250.0]


def test_backfill_missing_tile_excludes_track(tmp_path):
    write_hgt(tmp_path / "N49E006.hgt", np.full((N, N), 250, dtype=np.int16))
    store = TileStore(tmp_path)
    track = track_with_points([(49.2, 6.5, None), (50.5, 6.5, None)])  # second point off-tile
    with pytest.raises(ElevationUnavailableError, match="N50E006"):
        backfill_elevation(track, store)


def test_backfill_void_cell_excludes_track(tmp_path):
    write_hgt(tmp_path / "N49E006.hgt", np.full((N, N), VOID_VALUE, dtype=np.int16))
    store = TileStore(tmp_path)
    track = track_with_points([(49.2, 6.5, None)])
    with pytest.raises(ElevationUnavailableError, match="void"):
        backfill_elevation(track, store)


def test_backfill_preserves_structure(tmp_path):
    write_hgt(tmp_path / "N49E006.hgt", np.full((N, N), 9, dtype=np.int16))
    store = TileStore(tmp_path)
    track = Track(lat=[49.1, 49.2, 49.3], lon=[6.1, 6.2, 6.3], segment_lengths=[2, 1], desc="d")
    result, _ = backfill_elevation(track, store)
    assert result.segment_lengths == [2, 1]
    assert result.desc == "d"
    assert result.lat.tolist() == [49.1, 49.2, 49.3] and result.lon.tolist() == [6.1, 6.2, 6.3]


# --- batched sampling against the scalar oracle --------------------------------

def noisy_tile(seed, sw_lat=49, sw_lon=6, void_share=0.0):
    rng = np.random.default_rng(seed)
    samples = rng.integers(-400, 4000, size=(N, N)).astype(np.int16)
    samples[rng.random((N, N)) < void_share] = VOID_VALUE
    return SrtmTile(sw_lat=sw_lat, sw_lon=sw_lon, n=N, samples=samples)


VOIDED = noisy_tile(11, void_share=0.05)


def assert_matches_scalar(tile, lat, lon):
    """sample_tile gives exactly sample_elevation's value, NaN where that is None."""
    batched = sample_tile(tile, np.array(lat), np.array(lon)).tolist()
    scalar = [sample_elevation(tile, a, b) for a, b in zip(lat, lon)]
    assert len(batched) == len(scalar)
    for got, expected in zip(batched, scalar):
        assert math.isnan(got) if expected is None else got == expected


# Cell offsets: anywhere, exactly on a grid node, or at (or a hair inside) a tile edge.
_offsets = st.one_of(st.floats(0.0, 1.0), st.integers(0, N - 1).map(lambda k: k / (N - 1)),
                     st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12, STEP / 2, 1.0 - STEP]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_offsets, _offsets), min_size=1, max_size=40))
def test_sample_tile_equals_scalar_sampling(offsets):
    assert_matches_scalar(VOIDED, [VOIDED.sw_lat + 1 - dy for dy, _ in offsets],
                          [VOIDED.sw_lon + dx for _, dx in offsets])


def test_sample_tile_equals_scalar_sampling_on_random_points():
    rng = np.random.default_rng(12)
    rows, cols = np.nonzero(VOIDED.samples == VOID_VALUE)
    on_void = rng.choice(len(rows), 50)
    lat = np.concatenate([VOIDED.sw_lat + rng.random(20_000),
                          VOIDED.sw_lat + 1 - rows[on_void] / (N - 1)])
    lon = np.concatenate([VOIDED.sw_lon + rng.random(20_000),
                          VOIDED.sw_lon + cols[on_void] / (N - 1)])
    # Void corners are exercised both renormalized and as the whole answer.
    row = np.minimum(((VOIDED.sw_lat + 1 - lat) * (N - 1)).astype(int), N - 2)
    col = np.minimum(((lon - VOIDED.sw_lon) * (N - 1)).astype(int), N - 2)
    void_corner = (VOIDED.samples[row, col] == VOID_VALUE) | (VOIDED.samples[row + 1, col + 1]
                                                              == VOID_VALUE)
    assert void_corner.mean() > 0.05
    assert np.isnan(sample_tile(VOIDED, lat, lon)).sum() >= 50
    assert_matches_scalar(VOIDED, lat.tolist(), lon.tolist())


def test_backfill_segment_across_two_tiles_matches_scalar(tmp_path):
    write_hgt(tmp_path / "N49E006.hgt", noisy_tile(13).samples)
    write_hgt(tmp_path / "N49E007.hgt", noisy_tile(14, sw_lon=7).samples)
    store = TileStore(tmp_path)
    lon = [6.9, 6.95, 6.999999, 7.0, 7.05, 6.97, 7.1]
    lat = [49.5 + 0.01 * i for i in range(len(lon))]
    track = Track(lat=lat, lon=lon)
    result, source = backfill_elevation(track, store)
    assert source == DEM_SOURCE
    assert result.ele.tolist() == [
        sample_elevation(store.get(a, b), a, b) for a, b in zip(lat, lon)]
    assert store.loads == 2


def test_backfill_missing_tile_mid_segment_excludes_track(tmp_path):
    write_hgt(tmp_path / "N49E006.hgt", np.full((N, N), 250, dtype=np.int16))
    write_hgt(tmp_path / "N49E008.hgt", np.full((N, N), 250, dtype=np.int16))
    store = TileStore(tmp_path)
    track = Track(lat=[49.5, 49.5, 49.5], lon=[6.5, 7.5, 8.5])
    with pytest.raises(ElevationUnavailableError, match="N49E007"):
        backfill_elevation(track, store)


def test_tile_store_thread_safe_single_load(tmp_path):
    import threading

    write_hgt(tmp_path / "N49E006.hgt", np.full((N, N), 8, dtype=np.int16))
    store = TileStore(tmp_path)
    results = []

    def worker():
        tile = store.get(49.5, 6.5)
        results.append(sample_elevation(tile, 49.5, 6.5))

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [8.0] * 16
    assert store.loads == 1


# --- row windows of tiles kept on disk ------------------------------------------

# Tile name -> grid size; N49E006 and N49E007 share an edge.
DISK_TILES = {"N49E006": 1201, "N49E007": 1201, "N50E006": 3601}


@pytest.fixture(scope="module")
def disk_tiles(tmp_path_factory):
    """A tile store over noisy, 5% void tiles plus the same grids held in memory."""
    root = tmp_path_factory.mktemp("srtm")
    in_memory = {}
    for seed, (name, n) in enumerate(DISK_TILES.items()):
        rng = np.random.default_rng(seed)
        samples = rng.integers(-400, 4000, size=(n, n), dtype=np.int16)
        samples[rng.integers(0, 20, size=(n, n), dtype=np.int8) == 0] = VOID_VALUE
        write_hgt(root / f"{name}.hgt", samples)
        sw_lat, sw_lon = parse_tile_name(name)
        in_memory[name] = SrtmTile(sw_lat=sw_lat, sw_lon=sw_lon, n=n, samples=samples)
    return TileStore(root), in_memory


def assert_window_matches_whole_tile(store, tile, lat, lon):
    """Points sampled by row window from disk equal sample_tile on the whole grid."""
    lat, lon = np.array(lat), np.array(lon)
    on_disk = store.get(tile.sw_lat + 0.5, tile.sw_lon + 0.5)
    assert on_disk.samples is None and on_disk.n == tile.n
    from_disk = sample_tile(on_disk, lat, lon)
    assert np.array_equal(from_disk, sample_tile(tile, lat, lon), equal_nan=True)


def _cell_offsets(n):
    # Anywhere, exactly on a grid node (rows 0 and n - 1 included), or at a tile edge.
    return st.one_of(st.floats(0.0, 1.0), st.integers(0, n - 1).map(lambda k: k / (n - 1)),
                     st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.5 / (n - 1)]))


@pytest.mark.parametrize("name", ["N49E006", "N50E006"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_window_sampling_equals_whole_tile_sampling(disk_tiles, name, data):
    store, in_memory = disk_tiles
    tile = in_memory[name]
    offsets = data.draw(st.lists(st.tuples(_cell_offsets(tile.n), _cell_offsets(tile.n)),
                                 min_size=1, max_size=40))
    assert_window_matches_whole_tile(store, tile, [tile.sw_lat + 1 - dy for dy, _ in offsets],
                                     [tile.sw_lon + dx for _, dx in offsets])


def test_row_window_sampling_covers_edge_rows_nodes_and_voids(disk_tiles):
    store, in_memory = disk_tiles
    for name in ("N49E006", "N50E006"):
        tile = in_memory[name]
        last = tile.n - 1
        rows, cols = np.nonzero(tile.samples[1:-1, 1:-1] == VOID_VALUE)
        lat = [tile.sw_lat + 1, tile.sw_lat, tile.sw_lat + 1 - (rows[0] + 1) / last,
               tile.sw_lat + 1 - (rows[1] + 1.5) / last]
        lon = [tile.sw_lon + 0.5, tile.sw_lon + 0.25, tile.sw_lon + (cols[0] + 1) / last,
               tile.sw_lon + (cols[1] + 1.5) / last]
        whole = sample_tile(tile, np.array(lat), np.array(lon))
        assert np.isnan(whole[2])  # exactly on a void node
        assert_window_matches_whole_tile(store, tile, lat, lon)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(49.0, 50.0, exclude_max=True), st.floats(6.9, 7.1)),
                min_size=1, max_size=40))
def test_row_window_sampling_of_a_track_across_two_tiles(disk_tiles, points):
    store, in_memory = disk_tiles
    lat, lon = (np.array(values) for values in zip(*points))
    expected = np.array([sample_tile(in_memory[tile_name_for(a, b)], np.array([a]),
                                     np.array([b]))[0] for a, b in points])
    if np.isnan(expected).any():
        with pytest.raises(ElevationUnavailableError, match="void"):
            _sample_points(lat, lon, store)
    else:
        assert np.array_equal(_sample_points(lat, lon, store), expected)


def test_backfill_reads_only_the_rows_a_track_spans(tmp_path, monkeypatch):
    write_hgt(tmp_path / "N49E006.hgt", noisy_tile(13).samples)
    store = TileStore(tmp_path)
    reads = []
    fromfile = np.fromfile
    monkeypatch.setattr(np, "fromfile",
                        lambda *args, **kw: reads.append(kw["count"]) or fromfile(*args, **kw))
    track = Track(lat=[49.5, 49.51, 49.505], lon=[6.2, 6.3, 6.4])
    result, source = backfill_elevation(track, store)
    assert source == DEM_SOURCE
    rows = round(0.01 * (N - 1)) + 2
    assert reads == [rows * N]  # one read of the rows between the points
    assert result.ele.tolist() == [
        sample_elevation(noisy_tile(13), a, b) for a, b in [(49.5, 6.2), (49.51, 6.3),
                                                            (49.505, 6.4)]]


@pytest.mark.parametrize("damage", ["truncated", "missing"])
def test_tile_damaged_after_the_store_opened_it_is_a_tile_file_error(tmp_path, damage):
    path = tmp_path / "N49E006.hgt"
    write_hgt(path, np.full((N, N), 250, dtype=np.int16))
    store = TileStore(tmp_path)
    assert store.get(49.5, 6.5).samples is None
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[:N * N])
    else:
        path.unlink()
    track = track_with_points([(49.1, 6.5, None), (49.2, 6.5, None)])
    with pytest.raises(TileFileError, match=str(path)):
        backfill_elevation(track, store)


def test_compressed_tiles_are_held_whole(tmp_path):
    write_hgt(tmp_path / "N49E006.hgt.gz", np.full((N, N), 7, dtype=np.int16))
    store = TileStore(tmp_path)
    tile = store.get(49.5, 6.5)
    assert tile.samples is not None and tile.samples.shape == (N, N)
    (tmp_path / "N49E006.hgt.gz").unlink()
    assert sample_elevation(tile, 49.5, 6.5) == 7.0
