"""gpx_harvest: mine annotated GPS tracks from web-archive crawl data.

The package turns crawl index shards into a clean dataset of single-track
outdoor activities: each record pairs a MultiLineString-Z geometry with a
cleaned, PII-masked description in its original language and in English,
plus length/elevation metrics and a country.
"""

from .config import FilterConfig, PipelineConfig, load_config
from .descriptions import PiiFlags, clean_text, common_languages, length_exclusion, mask_pii
from .elevation import (DEM_SOURCE, GPS_SOURCE, ElevationUnavailableError, SrtmTile,
                        TileStore, backfill_elevation, read_hgt, sample_elevation,
                        tile_name_for, write_hgt)
from .geo_metrics import (EARTH_RADIUS_M, CountryShape, TrackMetrics, compute_track_metrics,
                          elevation_stats, find_countries, first_point_countries,
                          haversine_m, is_circular, length_2d, load_boundaries,
                          pick_country, point_in_polygon)
from .gpx_model import GpxDocument, GpxParseError, Track, extract_single_track, parse_gpx
from .index_scan import (CandidateRecord, ScanStats, is_gpx_candidate, iter_shard_lines,
                         parse_index_line, scan_index)
from .judges import (ChatEndpointJudge, CommandTranslator, JudgeUnavailableError,
                     StubJudge, StubTranslator, TranslationFailedError,
                     judge_pii, judge_quality, parse_verdict, translate_to_english)
from .language import detect_language, profile_languages
from .pipeline import PipelineError, PipelinePaths, PipelineStats, run_pipeline
from .records import RecordAssemblyError, dedup, export_records, track_exclusion
from .warc_fetch import (FetchFailedError, FetchPolicy, FixtureTransport,
                         HttpRangeTransport, PayloadDecodeError, RateLimiter,
                         WarcRecordSkippedError, build_range_header,
                         extract_payload, fetch_candidate, fetch_many)

__version__ = "0.1.0"

__all__ = [
    "FilterConfig", "PipelineConfig", "load_config",
    "PiiFlags", "clean_text", "common_languages", "length_exclusion", "mask_pii",
    "DEM_SOURCE", "GPS_SOURCE", "ElevationUnavailableError", "SrtmTile", "TileStore",
    "backfill_elevation", "read_hgt", "sample_elevation", "tile_name_for", "write_hgt",
    "EARTH_RADIUS_M", "CountryShape", "TrackMetrics", "compute_track_metrics",
    "elevation_stats", "find_countries", "first_point_countries", "haversine_m",
    "is_circular", "length_2d", "load_boundaries", "pick_country", "point_in_polygon",
    "GpxDocument", "GpxParseError", "Track",
    "extract_single_track", "parse_gpx",
    "CandidateRecord", "ScanStats", "is_gpx_candidate", "iter_shard_lines",
    "parse_index_line", "scan_index",
    "ChatEndpointJudge", "CommandTranslator", "JudgeUnavailableError", "StubJudge",
    "StubTranslator", "TranslationFailedError", "judge_pii", "judge_quality",
    "parse_verdict", "translate_to_english",
    "detect_language", "profile_languages",
    "PipelineError", "PipelinePaths", "PipelineStats", "run_pipeline",
    "RecordAssemblyError", "dedup", "export_records", "track_exclusion",
    "FetchFailedError", "FetchPolicy", "FixtureTransport", "HttpRangeTransport",
    "PayloadDecodeError", "RateLimiter", "WarcRecordSkippedError",
    "build_range_header", "extract_payload", "fetch_candidate", "fetch_many",
    "__version__",
]
