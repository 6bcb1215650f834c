"""Run configuration: strict JSON loading, dotted overrides, manifests.

Unknown keys are rejected everywhere, and every value must have the type
of its field's default (``ConfigError`` names key, value and type). The
``data`` section is the generator's own ``GeneratorConfig`` plus the
dataset seed and an optional container path, and the ``optimizer`` section
is ``numerics.AdamWConfig``, which ``AdamWState`` extends. A run manifest
embeds the fully resolved config under a ``config`` key, and the loader
accepts either a bare config object or such a manifest, so a manifest can
be re-fed as ``--config`` to reproduce a run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .datagen import GeneratorConfig
from .numerics import AdamWConfig, finite_number


class ConfigError(ValueError):
    """A user-facing configuration problem (CLI exit code 1)."""


@dataclass
class DataConfig(GeneratorConfig):
    seed: int = 0
    path: str | None = None  # optional pre-generated feature container

    def generator(self) -> GeneratorConfig:
        return GeneratorConfig(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(GeneratorConfig)}
        )


@dataclass
class ModelConfig:
    arch: str = "come"  # come | dense
    heads: int = 4
    n_experts: int = 8
    expert_hidden_ratio: int = 4
    attention_residual: bool = False
    structure_expert: bool = True
    semantic_expert: bool = True


@dataclass
class ClusteringConfig:
    strategy: str = "fine2coarse"  # fine2coarse | none
    fine_clusters: int = 16
    coarse_clusters: int = 8


@dataclass
class RouterConfig:
    top_k: int = 1
    capacity_factor: float = 1.25
    renormalize_topk: bool = False


@dataclass
class LossConfig:
    tb_weight: float = 1.0
    balance_weight: float = 0.1


@dataclass
class TrainingConfig:
    steps: int = 2000
    batch_size: int = 8
    log_every: int = 100
    eval_batches: int = 16


@dataclass
class RunConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    losses: LossConfig = field(default_factory=LossConfig)
    optimizer: AdamWConfig = field(default_factory=AdamWConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def validate(self):
        leaves = dict(_leaves(self))
        for key, choices in (
            ("model.arch", ("come", "dense")),
            ("clustering.strategy", ("fine2coarse", "none")),
        ):
            if leaves[key] not in choices:
                raise ConfigError(f"{key} must be {'|'.join(choices)}, got {leaves[key]!r}")
        if not 1 <= self.router.top_k <= self.model.n_experts:
            raise ConfigError(
                f"router.top_k={self.router.top_k} outside [1, {self.model.n_experts}]"
            )
        for bound, holds, keys in (
            ("> 0", lambda v: v > 0, ("router.capacity_factor",)),
            (">= 0", lambda v: v >= 0,
             ("seed", "data.seed", "losses.tb_weight", "losses.balance_weight", "training.steps")),
            (">= 1", lambda v: v >= 1,
             ("model.heads", "model.expert_hidden_ratio", "training.batch_size",
              "training.log_every", "training.eval_batches")),
        ):
            for key in keys:
                if not holds(leaves[key]):
                    raise ConfigError(f"{key} must be {bound}, got {leaves[key]}")
        if self.model.arch == "come" and self.model.n_experts < self.data.n_sources:
            # traceability (computed even at weight 0) needs every source to own an expert
            raise ConfigError(
                f"traceability needs n_experts >= n_sources "
                f"({self.model.n_experts} < {self.data.n_sources})"
            )
        if self.data.width % self.model.heads:
            raise ConfigError(
                f"model.heads={self.model.heads} does not divide data.width={self.data.width}"
            )
        fine, coarse = self.clustering.fine_clusters, self.clustering.coarse_clusters
        if not fine > coarse >= 1:
            raise ConfigError(
                f"clustering needs fine_clusters > coarse_clusters >= 1, got {fine} and {coarse}"
            )
        for key, value in leaves.items():
            if isinstance(_DEFAULTS[key], (float, list)):
                numbers = value if isinstance(value, list) else [value]
                if not all(map(finite_number, numbers)):
                    raise ConfigError(f"{key} must be finite, got {value!r}")
        try:
            self.data.validate()
        except ValueError as exc:
            raise ConfigError(f"data: {exc}") from exc
        return self


def _leaves(cfg: RunConfig, prefix: str = ""):
    """(dotted key, value) for every leaf of a config, in field order."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# a value's accepted types, keyed by the type of its field's default
_TYPES = {
    bool: ("a bool", lambda v: isinstance(v, bool)),
    int: ("an int", lambda v: _number(v) and isinstance(v, int)),
    float: ("a number", _number),
    list: ("a list of numbers", lambda v: isinstance(v, list) and all(map(_number, v))),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string or null", lambda v: v is None or isinstance(v, str)),
}

_DEFAULTS = dict(_leaves(RunConfig()))
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig) if f.name != "seed"}


def config_from_dict(data: dict) -> RunConfig:
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]  # accept a run manifest
    allowed = {"seed"} | set(_SECTIONS)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
    kwargs = {"seed": data.get("seed", 0)}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
        unknown = set(section) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in {name}")
        kwargs[name] = cls(**section)
    cfg = RunConfig(**kwargs)
    for key, value in _leaves(cfg):
        expected, accepts = _TYPES[type(_DEFAULTS[key])]
        if not accepts(value):
            raise ConfigError(f"{key} must be {expected}, got {value!r}")
    return cfg


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"{p}: cannot read the config ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: config root must be an object")
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings pass through


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply repeatable ``--set section.key=value`` pairs (strict keys)."""
    data = config_to_dict(cfg)
    for raw in overrides or []:
        if "=" not in raw:
            raise ConfigError(f"override {raw!r} must be key=value")
        dotted, value = raw.split("=", 1)
        key = dotted.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        section, _, leaf = key.rpartition(".")
        (data[section] if section else data)[leaf] = _parse_value(value.strip())
    return config_from_dict(data)
