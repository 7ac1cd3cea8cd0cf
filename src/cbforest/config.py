"""Run configuration: schema validation and defaults for a training run."""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .elastic_net import MAX_ITER, TOL, check_solver_settings
from .metrics import MetricError, MetricSpec


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


_LABEL_KINDS = ("binary", "continuous")
_BOOSTER_MIXES = ("alternate", "gbtree", "gblinear")
_DIRECTIONS = ("greater_is_positive", "less_is_positive")


def _require(d, key, types, where=""):
    name = f"{where}{key}"
    if key not in d:
        raise ConfigError(f"missing required field {name!r}")
    v = d[key]
    if not isinstance(v, types) or isinstance(v, bool) and bool not in _astuple(types):
        raise ConfigError(f"field {name!r} has wrong type")
    return v


def _astuple(t):
    return t if isinstance(t, tuple) else (t,)


def _optional(d, key, types, default, where=""):
    if key not in d:
        return default
    v = d[key]
    if v is None:
        return default
    if bool not in _astuple(types) and isinstance(v, bool):
        raise ConfigError(f"field {where}{key!r} has wrong type")
    if not isinstance(v, types):
        raise ConfigError(f"field {where}{key!r} has wrong type")
    return v


def _reject_unknown(d, allowed, where):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def metric_spec_from_dict(d, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(d, ("kind", "t", "alpha", "n_bins"), where)
    try:
        return MetricSpec(
            kind=_require(d, "kind", str, where=where + "."),
            t=_optional(d, "t", (int, float), None, where=where + "."),
            alpha=_optional(d, "alpha", (int, float), None, where=where + "."),
            n_bins=_optional(d, "n_bins", int, 10, where=where + "."))
    except MetricError as e:
        raise ConfigError(f"{where}: {e}")


@dataclass(frozen=True)
class LabelConfig:
    kinds: tuple
    file_label: str = "binary"
    threshold: float | None = None
    direction: str = "greater_is_positive"
    csv_label_column: str = "label"

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("label must be an object")
        _reject_unknown(d, ("kinds", "file_label", "threshold", "direction",
                            "csv_label_column"), "label")
        kinds = _require(d, "kinds", list, where="label.")
        if not kinds or any(k not in _LABEL_KINDS for k in kinds) \
                or len(set(kinds)) != len(kinds):
            raise ConfigError(
                "label.kinds must be a non-empty subset of ['binary', 'continuous']")
        file_label = _optional(d, "file_label", str, "binary", where="label.")
        if file_label not in _LABEL_KINDS:
            raise ConfigError("label.file_label must be 'binary' or 'continuous'")
        threshold = _optional(d, "threshold", (int, float), None, where="label.")
        direction = _optional(d, "direction", str, "greater_is_positive",
                              where="label.")
        if direction not in _DIRECTIONS:
            raise ConfigError(f"label.direction must be one of {_DIRECTIONS}")
        if file_label == "binary" and kinds != ["binary"]:
            raise ConfigError(
                "label.kinds can only be ['binary'] when the file carries binary labels")
        if file_label == "continuous" and threshold is None:
            raise ConfigError(
                "label.threshold is required when the file carries continuous labels")
        return cls(kinds=tuple(kinds), file_label=file_label,
                   threshold=None if threshold is None else float(threshold),
                   direction=direction,
                   csv_label_column=_optional(d, "csv_label_column", str,
                                              "label", where="label."))


@dataclass(frozen=True)
class Layer2Config:
    """Layer-2 solver settings: `max_iter` bounds the Newton iterations of
    each elastic-net fit and `tol` the KKT residual at which it converges."""

    max_iter: int = MAX_ITER
    tol: float = TOL

    def __post_init__(self):
        try:
            check_solver_settings(self.max_iter, self.tol)
        except ValueError as e:
            raise ConfigError(f"layer2: {e}") from None

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("layer2 must be an object")
        _reject_unknown(d, ("max_iter", "tol"), "layer2")
        return cls(
            max_iter=_optional(d, "max_iter", int, MAX_ITER, where="layer2."),
            tol=float(_optional(d, "tol", (int, float), TOL, where="layer2.")))


@dataclass(frozen=True)
class RunConfig:
    train_path: str
    label: LabelConfig
    H: int
    test_path: str | None = None
    test_fraction: float = 0.1
    K: int = 5
    seed: int = 0
    stop_metric: MetricSpec = field(
        default_factory=lambda: MetricSpec(kind="ef", t=0.01))
    selection_metric: MetricSpec = field(
        default_factory=lambda: MetricSpec(kind="auc_prc"))
    booster_mix: str = "alternate"
    patience: int = 100
    max_rounds: int = 2000
    sampling_ranges: dict = field(default_factory=dict)
    layer2: Layer2Config = field(default_factory=Layer2Config)
    workers: int | None = None
    output_dir: str = "."

    def __post_init__(self):
        if self.H < 1:
            raise ConfigError("field 'H' must be at least 1")
        if self.K < 2:
            raise ConfigError("field 'K' must be at least 2")
        if not (0.0 <= self.test_fraction < 1.0):
            raise ConfigError("field 'test_fraction' must lie in [0, 1)")
        if self.booster_mix not in _BOOSTER_MIXES:
            raise ConfigError(f"field 'booster_mix' must be one of {_BOOSTER_MIXES}")
        if self.patience < 1 or self.max_rounds < 1:
            raise ConfigError("'patience' and 'max_rounds' must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("field 'workers' must be at least 1")

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        allowed = ("train_path", "test_path", "test_fraction", "label", "H",
                   "K", "seed", "stop_metric", "selection_metric",
                   "booster_mix", "patience", "max_rounds", "sampling_ranges",
                   "layer2", "workers", "output_dir")
        _reject_unknown(d, allowed, "config")
        label = LabelConfig.from_dict(_require(d, "label", dict))
        stop = d.get("stop_metric")
        sel = d.get("selection_metric")
        ranges = _optional(d, "sampling_ranges", dict, {})
        return cls(
            train_path=_require(d, "train_path", str),
            label=label,
            H=_require(d, "H", int),
            test_path=_optional(d, "test_path", str, None),
            test_fraction=float(_optional(d, "test_fraction", (int, float), 0.1)),
            K=_optional(d, "K", int, 5),
            seed=_optional(d, "seed", int, 0),
            stop_metric=(MetricSpec(kind="ef", t=0.01) if stop is None
                         else metric_spec_from_dict(stop, "stop_metric")),
            selection_metric=(MetricSpec(kind="auc_prc") if sel is None
                              else metric_spec_from_dict(sel, "selection_metric")),
            booster_mix=_optional(d, "booster_mix", str, "alternate"),
            patience=_optional(d, "patience", int, 100),
            max_rounds=_optional(d, "max_rounds", int, 2000),
            sampling_ranges=ranges,
            layer2=Layer2Config.from_dict(_optional(d, "layer2", dict, {})),
            workers=_optional(d, "workers", int, None),
            output_dir=_optional(d, "output_dir", str, "."))

    def effective_workers(self):
        if self.workers is not None:
            return self.workers
        return min(os.cpu_count() or 1, 8)

    def validate_paths(self):
        if not Path(self.train_path).exists():
            raise ConfigError(f"train_path does not exist: {self.train_path}")
        if self.test_path is not None and not Path(self.test_path).exists():
            raise ConfigError(f"test_path does not exist: {self.test_path}")

    def to_dict(self):
        """JSON-serializable snapshot, sufficient to re-run identically."""
        def metric_d(m):
            # only the parameters a config would set
            return {k: v for k, v in asdict(m).items()
                    if v is not None and (k, v) != ("n_bins", 10)}
        out = asdict(self)
        out["label"]["kinds"] = list(self.label.kinds)
        out["stop_metric"] = metric_d(self.stop_metric)
        out["selection_metric"] = metric_d(self.selection_metric)
        return out
