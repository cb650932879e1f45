"""Declarative experiment configuration tree.

One :class:`ExperimentConfig` describes a full run — data, model, ``i×j×k``
parallelism, training hyper-parameters and serving shape — as a tree of
frozen dataclasses.  Every node validates at construction, serializes with
``to_dict()`` / ``from_dict()`` and round-trips through JSON byte-
identically (``to_json`` sorts keys), so a config can live in a file, a
queue message or a checkpoint directory and always rebuild the same run::

    cfg = ExperimentConfig(
        data=DataConfig(dataset="wikipedia", scale=0.01),
        parallel=ParallelConfig.parse("1x2x4"),
        train=TrainConfig(epochs=10, batch_size=100),
    )
    cfg2 = ExperimentConfig.from_json(cfg.to_json())
    assert cfg2 == cfg

Component choices (``dataset``, ``model``, ``sampler``, ``updater``,
``policy``) are string keys validated against the registries in
``repro.api.registry``, so registering a new component makes it instantly
addressable from a config file.  Unknown mapping keys raise with the
offending key name — a typo'd hyper-parameter must never be ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Mapping, Optional

from ..parallel.config import ParallelConfig
from ..serve.batcher import DEFAULT_MAX_DELAY
from . import registry as _reg


class ConfigBase:
    """Shared ``to_dict``/``from_dict``/JSON plumbing for config nodes."""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_dict() if hasattr(value, "to_dict") else value
        return out

    @classmethod
    def from_dict(cls, data: Mapping):
        if not isinstance(data, Mapping):
            raise TypeError(f"{cls.__name__}.from_dict needs a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(
                    f"{cls.__name__}: unknown key {key!r}; known keys: {sorted(known)}"
                )
        return cls(**dict(data))

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON (sorted keys): equal configs ⇒ equal bytes."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class DataConfig(ConfigBase):
    """Which dataset to generate/load, at what scale, with what seed."""

    dataset: str = "wikipedia"
    scale: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dataset not in _reg.DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; "
                f"available: {list(_reg.DATASETS.available())}"
            )
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class ModelConfig(ConfigBase):
    """TGN architecture knobs; component choices are registry keys."""

    model: str = "tgn"
    memory_dim: int = 32
    time_dim: int = 16
    embed_dim: int = 32
    static_dim: int = 0
    num_neighbors: int = 10
    num_heads: int = 2
    updater: str = "gru"
    sampler: str = "recent"

    def __post_init__(self) -> None:
        for name in ("memory_dim", "time_dim", "embed_dim", "num_neighbors", "num_heads"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.static_dim < 0:
            raise ValueError(f"static_dim must be >= 0, got {self.static_dim}")
        if self.model not in _reg.MODELS:
            raise ValueError(
                f"unknown model {self.model!r}; available: {list(_reg.MODELS.available())}"
            )
        if self.updater not in _reg.MEMORY_UPDATERS:
            raise ValueError(
                f"unknown updater {self.updater!r}; "
                f"available: {list(_reg.MEMORY_UPDATERS.available())}"
            )
        if self.sampler not in _reg.SAMPLERS:
            raise ValueError(
                f"unknown sampler {self.sampler!r}; "
                f"available: {list(_reg.SAMPLERS.available())}"
            )


@dataclass(frozen=True)
class TrainConfig(ConfigBase):
    """Optimization hyper-parameters (scaled-down §4.0.1 defaults)."""

    epochs: int = 10                  # single-GPU-equivalent epochs (§4.0.1)
    batch_size: int = 200
    base_lr: float = 5e-4
    lr_scale_with_world: bool = True
    grad_clip: float = 10.0
    num_negative_groups: int = 10
    eval_candidates: int = 49
    static_pretrain_epochs: int = 10
    comb: str = "recent"
    seed: int = 0
    fused: bool = True
    prep_cache_batches: int = 256
    eval_prefetch_workers: int = 1
    checkpoint_every: int = 0         # block boundaries between mid-run
                                      # snapshots (0 = disabled); fit() needs
                                      # a checkpoint_dir for them to land
    compile: bool = False             # trace-and-replay step compiler
                                      # (repro.nn.tape); REPRO_COMPILE=1/0
                                      # overrides at runtime
    topology: str = "star"            # gradient allreduce topology on the
                                      # process/fabric backends (star | ring
                                      # | tree); all three reduce in the
                                      # same rank order, so the choice is
                                      # perf-only — results stay bitwise
    train_frac: float = 0.70          # chronological split boundaries; the
    val_frac: float = 0.15            # continual-learning refit moves them so
                                      # drained WAL events land in the train
                                      # region instead of the held-out tail

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if not self.base_lr > 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not (0 < self.train_frac < 1 and 0 < self.val_frac < 1
                and self.train_frac + self.val_frac < 1):
            raise ValueError(
                "train_frac/val_frac must be in (0, 1) and sum below 1, got "
                f"{self.train_frac}/{self.val_frac}"
            )
        if self.comb not in ("recent", "mean"):
            raise ValueError(f"comb must be 'recent' or 'mean', got {self.comb!r}")
        if self.topology not in ("star", "ring", "tree"):
            raise ValueError(
                f"topology must be 'star', 'ring' or 'tree', got {self.topology!r}"
            )
        if self.eval_prefetch_workers < 1:
            raise ValueError(
                f"eval_prefetch_workers must be >= 1, got {self.eval_prefetch_workers}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class ServeConfig(ConfigBase):
    """Shape of the serving deployment built by ``Session.serve``.

    ``max_delay_ms`` is the micro-batch window; its default is the serving
    stack's (:data:`repro.serve.batcher.DEFAULT_MAX_DELAY`).  That default,
    0, makes replicas work-conserving: a poll that finds queued requests
    flushes them, so batch size follows load (requests that queue while a
    batch computes ride the next one) and no request idles out a timer.  A positive window holds work so more
    requests join one batch — more dedup per flush at the price of latency
    under light load; a very large one leaves flushing to
    ``max_batch_pairs`` and explicit flushes, which pins batch composition
    (what byte-equality checks need: scores move at the last ulp with it).

    The elastic/SLO/continual knobs are all off by default (``None`` / 0),
    so a plain deployment behaves exactly like the fixed-k cluster:

    * ``min_replicas``/``max_replicas`` bound the fleet for a
      :class:`repro.serve.ReplicaAutoscaler`;
    * ``deadline_ms`` gives every request a completion budget — requests
      whose budget cannot be met are shed at admission (deadline-aware
      shedding) or expired in the queue;
    * ``hedge_quantile`` arms hedged dispatch: a request in flight longer
      than that latency percentile is duplicated onto a second replica
      (first result wins, the loser is cancelled);
    * ``wal_auto_truncate`` lets the cluster drop WAL batches every
      consumer (replicas + held cursors) has passed;
    * ``refit_interval_events``/``refit_epochs`` pace the
      :class:`repro.serve.ContinualLearner` train-while-serve loop.
    """

    replicas: int = 2
    policy: str = "round_robin"
    admission_limit: Optional[int] = None
    max_batch_pairs: int = 256
    max_delay_ms: float = DEFAULT_MAX_DELAY * 1e3
    stream_chunk: int = 100
    dedup: bool = True
    memoize_time: bool = True
    min_replicas: Optional[int] = None
    max_replicas: Optional[int] = None
    scale_up_queue: float = 8.0
    scale_down_queue: float = 1.0
    scale_interval_ms: float = 50.0
    deadline_ms: Optional[float] = None
    hedge_quantile: Optional[float] = None
    hedge_min_ms: float = 0.5
    wal_auto_truncate: bool = False
    refit_interval_events: int = 0
    refit_epochs: int = 1

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.policy not in _reg.ROUTERS:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"available: {list(_reg.ROUTERS.available())}"
            )
        if self.admission_limit is not None and self.admission_limit < 1:
            raise ValueError("admission_limit must be positive (or None)")
        if self.max_batch_pairs < 1:
            raise ValueError("max_batch_pairs must be positive")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if self.stream_chunk < 1:
            raise ValueError("stream_chunk must be positive")
        if (self.min_replicas is None) != (self.max_replicas is None):
            raise ValueError(
                "min_replicas and max_replicas must be set together"
            )
        if self.min_replicas is not None:
            if self.min_replicas < 1:
                raise ValueError("min_replicas must be >= 1")
            if self.max_replicas < self.min_replicas:
                raise ValueError("max_replicas must be >= min_replicas")
            if not (self.min_replicas <= self.replicas <= self.max_replicas):
                raise ValueError(
                    f"replicas={self.replicas} outside autoscale bounds "
                    f"[{self.min_replicas}, {self.max_replicas}]"
                )
        if self.scale_up_queue <= 0 or self.scale_down_queue < 0:
            raise ValueError("scale_up_queue must be > 0, scale_down_queue >= 0")
        if self.scale_down_queue >= self.scale_up_queue:
            raise ValueError("scale_down_queue must be below scale_up_queue")
        if self.scale_interval_ms < 0:
            raise ValueError("scale_interval_ms must be non-negative")
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.hedge_quantile is not None and not (0 < self.hedge_quantile < 100):
            raise ValueError("hedge_quantile must be in (0, 100) (or None)")
        if self.hedge_min_ms < 0:
            raise ValueError("hedge_min_ms must be non-negative")
        if self.refit_interval_events < 0:
            raise ValueError("refit_interval_events must be >= 0")
        if self.refit_epochs < 1:
            raise ValueError("refit_epochs must be >= 1")


@dataclass(frozen=True)
class ObsConfig(ConfigBase):
    """Telemetry switches (all observability is off by default).

    ``trace_dir`` non-empty enables span tracing: every process of the run
    writes ``trace-<lane>.jsonl`` there and the launcher merges them into
    ``trace.merged.jsonl`` (the ``REPRO_TRACE_DIR`` env var overrides this
    field).  ``histogram_reservoir`` caps every registry histogram's sample
    reservoir, bounding memory under sustained traffic.
    """

    trace_dir: str = ""
    histogram_reservoir: int = 8192

    def __post_init__(self) -> None:
        if self.histogram_reservoir < 16:
            raise ValueError(
                f"histogram_reservoir must be >= 16, got {self.histogram_reservoir}"
            )


@dataclass(frozen=True)
class ExperimentConfig(ConfigBase):
    """The whole experiment: one serializable object, one Session."""

    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)

    _SECTIONS = {
        "data": DataConfig,
        "model": ModelConfig,
        "parallel": ParallelConfig,
        "train": TrainConfig,
        "serve": ServeConfig,
        "obs": ObsConfig,
    }

    def __post_init__(self) -> None:
        for name, section_cls in self._SECTIONS.items():
            value = getattr(self, name)
            if not isinstance(value, section_cls):
                raise TypeError(
                    f"ExperimentConfig.{name} must be a {section_cls.__name__}, "
                    f"got {type(value).__name__}"
                )

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise TypeError(
                f"ExperimentConfig.from_dict needs a mapping, got {type(data).__name__}"
            )
        kwargs = {}
        for key, value in data.items():
            section_cls = cls._SECTIONS.get(key)
            if section_cls is None:
                raise ValueError(
                    f"ExperimentConfig: unknown key {key!r}; "
                    f"known keys: {sorted(cls._SECTIONS)}"
                )
            if isinstance(value, section_cls):
                kwargs[key] = value
            elif key == "parallel" and isinstance(value, str):
                # the paper's compact 'ixjxk[@machines]' notation is accepted
                # anywhere a parallel section can appear
                kwargs[key] = ParallelConfig.parse(value)
            else:
                kwargs[key] = section_cls.from_dict(value)
        return cls(**kwargs)

    # ------------------------------------------------------------- factories
    def trainer_spec(self):
        """Materialize the low-level :class:`repro.train.TrainerSpec`."""
        from ..train.distributed import TrainerSpec

        m, t = self.model, self.train
        return TrainerSpec(
            batch_size=t.batch_size,
            memory_dim=m.memory_dim,
            time_dim=m.time_dim,
            embed_dim=m.embed_dim,
            static_dim=m.static_dim,
            num_neighbors=m.num_neighbors,
            num_heads=m.num_heads,
            base_lr=t.base_lr,
            lr_scale_with_world=t.lr_scale_with_world,
            grad_clip=t.grad_clip,
            num_negative_groups=t.num_negative_groups,
            eval_candidates=t.eval_candidates,
            static_pretrain_epochs=t.static_pretrain_epochs,
            comb=t.comb,
            seed=t.seed,
            fused=t.fused,
            prep_cache_batches=t.prep_cache_batches,
            eval_prefetch_workers=t.eval_prefetch_workers,
            model=m.model,
            sampler=m.sampler,
            updater=m.updater,
            compile=t.compile,
            train_frac=t.train_frac,
            val_frac=t.val_frac,
        )

    def build_dataset(self):
        """Resolve and invoke the dataset factory for the data section."""
        factory = _reg.DATASETS.get(self.data.dataset)
        return factory(scale=self.data.scale, seed=self.data.seed)
