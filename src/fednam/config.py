"""Run configuration: JSON round-trippable, strictly validated."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, is_dataclass, replace
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
        if "\0" in self.csv:  # the OS takes no path with one
            raise ConfigError(f"dataset.csv must not hold a NUL byte, got {self.csv!r}")


@dataclass
class ModelConfig:
    hidden_layers: int = 3
    hidden_units: int = 20
    unit_kind: str = RELU
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.unit_kind not in (RELU, EXU):
            raise ConfigError(f"model.unit_kind must be 'relu' or 'exu', got {self.unit_kind!r}")
        # the caps refuse a size at config load, before any data is read
        for key, most in (("hidden_layers", 64), ("hidden_units", 1024)):
            value = getattr(self, key)
            if value < 1:
                raise ConfigError(f"model.{key} must be >= 1, got {value}")
            if value > most:
                raise ConfigError(f"model.{key} must be <= {most}, got {value}")
        weights = (self.hidden_layers - 1) * self.hidden_units**2  # per feature net
        if weights > 2**21:
            raise ConfigError(f"model.hidden_layers and model.hidden_units give {weights} "
                              f"hidden-to-hidden weights per feature net, more than {2**21}")
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


# `tune` runs one federation per grid point, with up to MAX_JOBS worker processes
MAX_GRID_POINTS = 4096
MAX_JOBS = 64

# the RunConfig field each searched hyperparameter sets, in the grid's product order
GRID_FIELDS = {
    "dropout": "model.dropout",
    "learning_rate": "optimizer.learning_rate",
    "hidden_layers": "model.hidden_layers",
    "batch_size": "batch_size",
}


@dataclass
class GridConfig:
    """The four searched hyperparameters; the full Cartesian product is run."""

    dropout: list[float] = field(default_factory=lambda: [0.0, 0.1, 0.3])
    learning_rate: list[float] = field(default_factory=lambda: [1e-2, 1e-3])
    hidden_layers: list[int] = field(default_factory=lambda: [2, 3])
    batch_size: list[int] = field(default_factory=lambda: [16, 32])

    def __post_init__(self) -> None:
        for name in GRID_FIELDS:
            if not getattr(self, name):
                raise ConfigError(f"grid.{name} must be non-empty")
        points = math.prod(len(getattr(self, name)) for name in GRID_FIELDS)
        if points > MAX_GRID_POINTS:
            raise ConfigError(f"grid has {points} points, more than {MAX_GRID_POINTS}")
        # each value gets the check of the field it sets in a trial's config
        trial = RunConfig(grid=self)
        for name, dotted in GRID_FIELDS.items():
            values = getattr(self, name)
            if len(set(values)) < len(values):  # a repeated value repeats a trial
                repeated = next(v for i, v in enumerate(values) if v in values[:i])
                raise ConfigError(f"grid.{name} repeats the value {repeated!r}")
            for value in values:
                try:
                    with_field(trial, dotted, value)
                except ConfigError as exc:
                    raise ConfigError(f"grid.{name}: {exc}") from exc


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
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0,1), got {self.threshold}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.jobs > MAX_JOBS:
            raise ConfigError(f"jobs must be <= {MAX_JOBS}, got {self.jobs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if "\0" in self.out_dir:  # the OS takes no path with one
            raise ConfigError(f"out_dir must not hold a NUL byte, got {self.out_dir!r}")
        for layers in self.grid.hidden_layers:  # a trial's depth, at this config's width
            try:
                replace(self.model, hidden_layers=layers)
            except ConfigError as exc:
                raise ConfigError(f"grid.hidden_layers: {exc}") from exc


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
        hint = hints[key]
        if is_dataclass(hint):  # a section
            value = _build(hint, value, name)
        elif not _type_matches(value, hint):
            expected = str(hint) if get_origin(hint) or get_args(hint) else hint.__name__
            raise ConfigError(f"{name} must be of type {expected}, got {json.dumps(value)}")
        elif not _finite(value):
            # JSON's NaN and Infinity load as floats that pass every range check
            raise ConfigError(f"{name} must be finite, got {json.dumps(value)}")
        kwargs[key] = value
    return cls(**kwargs)


def with_field(config, dotted: str, value):
    """`config` with its field `dotted` ("model.dropout", "seed") set to `value`,
    through each dataclass's checks."""
    name, _, rest = dotted.partition(".")
    value = with_field(getattr(config, name), rest, value) if rest else value
    return replace(config, **{name: value})


def config_from_dict(doc: dict) -> RunConfig:
    """Build and validate a RunConfig; unknown keys and mistyped values anywhere are rejected."""
    return _build(RunConfig, doc)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict(doc)


def save_config(config: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(config), indent=1, sort_keys=True))
