"""Run configuration: JSON round-trippable, strictly validated."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .control import ControlConfig
from .data import DATASET_KINDS, SplitConfig
from .errors import ConfigError
from .federation import FederationSection
from .nn import ADAM, SGD
from .nn.layers import EXU, RELU


@dataclass
class DatasetConfig:
    kind: str = "heart"
    csv: str = ""
    target_col: str | None = None
    iris_binary: bool = False

    def __post_init__(self) -> None:
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {self.kind!r}")


@dataclass
class ModelConfig:
    hidden_layers: int = 3
    hidden_units: int = 20
    unit_kind: str = RELU
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.unit_kind not in (RELU, EXU):
            raise ConfigError(f"model.unit_kind must be 'relu' or 'exu', got {self.unit_kind!r}")
        for key in ("hidden_layers", "hidden_units"):
            if getattr(self, key) < 1:
                raise ConfigError(f"model.{key} must be >= 1, got {getattr(self, key)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"model.dropout must be in [0,1), got {self.dropout}")


@dataclass
class OptimizerConfig:
    kind: str = ADAM
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        if self.kind not in (SGD, ADAM):
            raise ConfigError(f"optimizer.kind must be 'sgd' or 'adam', got {self.kind!r}")
        if not self.learning_rate > 0:
            raise ConfigError("optimizer.learning_rate must be > 0")


@dataclass
class GridConfig:
    """The four searched hyperparameters; the full Cartesian product is run."""

    dropout: list[float] = field(default_factory=lambda: [0.0, 0.1, 0.3])
    learning_rate: list[float] = field(default_factory=lambda: [1e-2, 1e-3])
    hidden_layers: list[int] = field(default_factory=lambda: [2, 3])
    batch_size: list[int] = field(default_factory=lambda: [16, 32])

    def __post_init__(self) -> None:
        # each value gets the check of the field it sets in a trial's config
        checks = {
            "dropout": lambda v: ModelConfig(dropout=v),
            "learning_rate": lambda v: OptimizerConfig(learning_rate=v),
            "hidden_layers": lambda v: ModelConfig(hidden_layers=v),
            "batch_size": _check_batch_size,
        }
        for name, check in checks.items():
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"grid.{name} must be non-empty")
            for value in values:
                try:
                    check(value)
                except ConfigError as exc:
                    raise ConfigError(f"grid.{name}: {exc}") from exc


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    federation: FederationSection = field(default_factory=FederationSection)
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    batch_size: int = 32
    threshold: float = 0.5
    out_dir: str = "runs/out"
    seed: int = 0
    jobs: int = 1
    svg: bool = False

    def __post_init__(self) -> None:
        _check_batch_size(self.batch_size)
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must be in (0,1)")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


_SECTIONS = {
    "dataset": DatasetConfig,
    "split": SplitConfig,
    "federation": FederationSection,
    "model": ModelConfig,
    "optimizer": OptimizerConfig,
    "control": ControlConfig,
    "grid": GridConfig,
}


def _type_matches(value, hint) -> bool:
    """Whether a JSON value fits a field's type; an int fits a float field if
    a double can hold it, a bool fits only a bool field."""
    args = get_args(hint)
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_type_matches(v, args[0]) for v in value)
    if args:  # a union such as `str | None`
        return any(_type_matches(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, float) or isinstance(value, int) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _finite(value) -> bool:
    """Whether a JSON value holds no NaN or infinite float, itself or in its list."""
    values = value if isinstance(value, list) else [value]
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def _build(cls, doc: dict, where: str | None = None):
    """Instantiate a config dataclass from a JSON object, checking keys and value types.

    `where` names the section; None is the top level.
    """
    if not isinstance(doc, dict):
        what = where or "config root"
        raise ConfigError(f"{what} must be a JSON object")
    hints = get_type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        label = f"keys in {where}" if where else "config keys"
        raise ConfigError(f"unknown {label}: {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        name = f"{where}.{key}" if where else key
        if where is None and key in _SECTIONS:
            value = _build(_SECTIONS[key], value, key)
        elif not _type_matches(value, hints[key]):
            hint = hints[key]
            expected = str(hint) if get_origin(hint) or get_args(hint) else hint.__name__
            raise ConfigError(f"{name} must be of type {expected}, got {json.dumps(value)}")
        elif not _finite(value):
            # JSON's NaN and Infinity load as floats that pass every range check
            raise ConfigError(f"{name} must be finite, got {json.dumps(value)}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where or 'config'}: {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    """Build and validate a RunConfig; unknown keys and mistyped values anywhere are rejected."""
    return _build(RunConfig, doc)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict(doc)


def save_config(config: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(config), indent=1, sort_keys=True))
