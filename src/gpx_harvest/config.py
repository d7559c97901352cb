"""Pipeline configuration: filter thresholds and run settings.

The config file is JSON; every section is optional and merges over the
defaults below.  CLI flags override file values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import typing
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


# The JSON types a value of each field type may take; a Path is a string.
_JSON_TYPES = {float: (int, float), int: int, str: str, Path: str}


def _build(cls, raw, where: str):
    """``cls`` built from the JSON object ``raw``; ``where`` names it in errors."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    return cls(**{key: _value(hints[key], value, f"{where}.{key}") for key, value in raw.items()})


def _value(hint, value, where: str):
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, where)
    kinds = typing.get_args(hint) or (hint,)  # (T, NoneType) for ``T | None``
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    # bool is an int subclass, but true/false is no number.
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{where} must be a {kind.__name__}, not {json.dumps(value)}")
    # JSON integers have no bound, but the thresholds' isfinite check and the
    # rate limiter's 1 / rate raise OverflowError beyond a float's range,
    # and no setting needs such a number.
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{where} is beyond a float's range")
    return Path(value) if kind is Path else value


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config file; missing keys keep their defaults, and a wrong
    type or key, a number beyond a float's range or a document nested too
    deep to decode is a ValueError."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path} is nested too deep to decode") from None
    return _build(PipelineConfig, raw, "config")
