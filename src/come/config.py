"""Run configuration: strict JSON loading, dotted overrides, manifests.

Unknown keys are rejected everywhere. A run manifest embeds the fully
resolved config under a ``config`` key, and the loader accepts either a
bare config object or such a manifest, so a manifest can be re-fed as
``--config`` to reproduce a run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .datagen import GeneratorConfig


class ConfigError(ValueError):
    """A user-facing configuration problem (CLI exit code 1)."""


@dataclass
class DataConfig:
    seed: int = 0
    path: str | None = None  # optional pre-generated feature container
    n_sources: int = 4
    width: int = 32
    tokens_per_sample: int = 16
    n_classes: int = 3
    shared_rank: int = 4
    source_rank: int = 2
    n_samples: int = 4000
    source_weights: list = field(default_factory=lambda: [4.0, 2.0, 1.0, 1.0])
    mean_scale: float = 2.0
    shared_scale: float = 1.0
    source_scale: float = 1.0
    noise_scale: float = 0.5
    label_shared_scale: float = 1.5
    label_source_scale: float = 1.0
    source_basis_mode: str = "shared"
    train_fraction: float = 0.8

    def generator(self) -> GeneratorConfig:
        fields = {f.name for f in dataclasses.fields(GeneratorConfig)}
        return GeneratorConfig(
            **{k: v for k, v in dataclasses.asdict(self).items() if k in fields}
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
    frozen_scale: float = 0.3  # keeps the frozen priors out of tanh saturation


@dataclass
class ClusteringConfig:
    strategy: str = "fine2coarse"  # fine2coarse | multistep | none
    fine_clusters: int = 16
    coarse_clusters: int = 8
    steps: int = 5
    clusters: int = 4  # k for the multistep strategy
    min_cluster_fraction: float = 0.01
    max_iters: int = 50


@dataclass
class RouterConfig:
    top_k: int = 1
    capacity_factor: float = 1.25
    temperature: float = 1.0
    renormalize_topk: bool = False


@dataclass
class LossConfig:
    tb_weight: float = 1.0
    balance_weight: float = 0.1
    tb_average: bool = True
    load_mode: str = "literal"  # literal | margin
    load_noise_scale: float = 1.0


@dataclass
class OptimizerConfig:
    lr: float = 1.4e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


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
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def validate(self):
        if self.model.arch not in ("come", "dense"):
            raise ConfigError(f"model.arch must be come|dense, got {self.model.arch!r}")
        if self.clustering.strategy not in ("fine2coarse", "multistep", "none"):
            raise ConfigError(
                f"clustering.strategy must be fine2coarse|multistep|none, "
                f"got {self.clustering.strategy!r}"
            )
        if self.losses.load_mode not in ("literal", "margin"):
            raise ConfigError(
                f"losses.load_mode must be literal|margin, got {self.losses.load_mode!r}"
            )
        if not 1 <= self.router.top_k <= self.model.n_experts:
            raise ConfigError(
                f"router.top_k={self.router.top_k} outside [1, {self.model.n_experts}]"
            )
        for key, value in (
            ("router.capacity_factor", self.router.capacity_factor),
            ("router.temperature", self.router.temperature),
            ("losses.load_noise_scale", self.losses.load_noise_scale),
        ):
            if not value > 0:
                raise ConfigError(f"{key} must be > 0, got {value}")
        for key, value in (
            ("losses.tb_weight", self.losses.tb_weight),
            ("losses.balance_weight", self.losses.balance_weight),
            ("training.steps", self.training.steps),
        ):
            if not value >= 0:
                raise ConfigError(f"{key} must be >= 0, got {value}")
        fraction = self.clustering.min_cluster_fraction
        if not 0 <= fraction < 1:
            raise ConfigError(f"clustering.min_cluster_fraction must be in [0, 1), got {fraction}")
        if self.model.arch == "come" and self.losses.tb_weight > 0.0:
            # every source must own at least one expert for supervision
            if self.model.n_experts < self.data.n_sources:
                raise ConfigError(
                    f"traceability needs n_experts >= n_sources "
                    f"({self.model.n_experts} < {self.data.n_sources})"
                )
        for key, value in (
            ("model.heads", self.model.heads),
            ("model.expert_hidden_ratio", self.model.expert_hidden_ratio),
            ("clustering.clusters", self.clustering.clusters),
            ("clustering.steps", self.clustering.steps),
            ("training.batch_size", self.training.batch_size),
            ("training.log_every", self.training.log_every),
            ("training.eval_batches", self.training.eval_batches),
            ("clustering.max_iters", self.clustering.max_iters),
        ):
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if self.data.width % self.model.heads:
            raise ConfigError(
                f"model.heads={self.model.heads} does not divide data.width={self.data.width}"
            )
        fine, coarse = self.clustering.fine_clusters, self.clustering.coarse_clusters
        if not fine > coarse >= 1:
            raise ConfigError(
                f"clustering needs fine_clusters > coarse_clusters >= 1, got {fine} and {coarse}"
            )
        try:
            self.data.generator().validate()
        except ValueError as exc:
            raise ConfigError(f"data: {exc}") from exc
        return self


_SECTIONS = {
    "data": DataConfig,
    "model": ModelConfig,
    "clustering": ClusteringConfig,
    "router": RouterConfig,
    "losses": LossConfig,
    "optimizer": OptimizerConfig,
    "training": TrainingConfig,
}


def _build_section(cls, data: dict, path: str):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path}")
    return cls(**data)


def config_from_dict(data: dict) -> RunConfig:
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]  # accept a run manifest
    allowed = {"seed"} | set(_SECTIONS)
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
    kwargs = {"seed": int(data.get("seed", 0))}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
        kwargs[name] = _build_section(cls, section, name)
    return RunConfig(**kwargs)


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})")
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
        parts = dotted.strip().split(".")
        cursor = data
        for part in parts[:-1]:
            if part not in cursor or not isinstance(cursor[part], dict):
                raise ConfigError(f"unknown config section {dotted!r}")
            cursor = cursor[part]
        leaf = parts[-1]
        if leaf not in cursor:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(cursor[leaf], dict):
            raise ConfigError(f"{dotted!r} is a section, not a value")
        cursor[leaf] = _parse_value(value.strip())
    return config_from_dict(data)
