"""Pipeline configuration: filter thresholds and run settings.

The config file is JSON; every section is optional and merges over the
defaults below.  CLI flags override file values.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .warc_fetch import FetchPolicy


@dataclass
class FilterConfig:
    """Every numeric threshold the filtering stages apply."""

    min_length_m: float = 500.0
    max_length_m: float = 100_000.0
    min_points_per_100m: float = 1.0
    desc_min_chars: int = 50
    desc_max_chars_exclusive: int = 2000
    circular_radius_m: float = 350.0
    rare_lang_cutoff: int = 5
    elev_deadband_m: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison below, so it is caught here first.
        for threshold in dataclasses.fields(self):
            if not math.isfinite(getattr(self, threshold.name)):
                raise ValueError(f"{threshold.name} must be finite")
        if self.min_length_m <= 0 or self.max_length_m <= self.min_length_m:
            raise ValueError("need 0 < min_length_m < max_length_m")
        if self.min_points_per_100m <= 0:
            raise ValueError("min_points_per_100m must be > 0")
        if self.desc_min_chars <= 0 or self.desc_max_chars_exclusive <= self.desc_min_chars:
            raise ValueError("need 0 < desc_min_chars < desc_max_chars_exclusive")
        if self.circular_radius_m <= 0:
            raise ValueError("circular_radius_m must be > 0")
        if self.rare_lang_cutoff < 0:
            raise ValueError("rare_lang_cutoff must be >= 0")
        if self.elev_deadband_m < 0:
            raise ValueError("elev_deadband_m must be >= 0")


@dataclass
class PipelineConfig:
    filters: FilterConfig = field(default_factory=FilterConfig)
    fetch: FetchPolicy = field(default_factory=FetchPolicy)
    workdir: Path = Path("work")
    out_dir: Path | None = None  # defaults to <workdir>/out
    shards: str | None = None  # glob of index shard files
    fixture_dir: Path | None = None  # serve WARC ranges from this directory
    srtm_dir: Path | None = None
    boundaries: Path | None = None
    judge: str = "stub"  # "stub" or a chat-completions endpoint URL
    judge_model: str = ""
    judge_api_key_env: str = "GPX_HARVEST_JUDGE_KEY"
    judge_max_parallel: int = 4
    translator: str = "stub"  # "stub" or a shell command template

    def resolved_out_dir(self) -> Path:
        return self.out_dir if self.out_dir is not None else self.workdir / "out"


def _build(cls, raw: dict):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**raw)


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config file; missing keys keep their defaults."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    filters = _build(FilterConfig, raw.pop("filters", {}))
    fetch = _build(FetchPolicy, raw.pop("fetch", {}))
    for key in ("workdir", "out_dir", "fixture_dir", "srtm_dir", "boundaries"):
        if raw.get(key) is not None:
            raw[key] = Path(raw[key])
    return _build(PipelineConfig, {"filters": filters, "fetch": fetch, **raw})
