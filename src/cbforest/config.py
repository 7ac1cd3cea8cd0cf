"""Run configuration: frozen dataclasses whose fields are the JSON keys of a
run, each default stated once, in its field, and each value checked when the
config is loaded."""
from __future__ import annotations

import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .data import DIRECTIONS, GREATER_IS_POSITIVE, LabelMapping
from .elastic_net import MAX_ITER, TOL, ElasticNetParams, check_solver_settings
from .gbm import LinearHyperParams, TreeHyperParams
from .metrics import MetricError, MetricSpec


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


_LABEL_KINDS = ("binary", "continuous")
_BOOSTER_MIXES = ("alternate", "gbtree", "gblinear")

# Sampling ranges for the randomized hyper-parameter draws. Encodings:
#   ("log", lo, hi)                log-uniform
#   ("uniform", lo, hi)            uniform
#   ("int", lo, hi)                uniform integer, inclusive
#   ("zero_or_log", p0, lo, hi)    0 with probability p0, else log-uniform
#   ("zero_or_uniform", p0, lo, hi)
# A sample draws its group's parameters in the order listed here, which
# overrides keep.
DEFAULT_RANGES = {
    "tree": {
        "learning_rate": ("log", 0.01, 0.3),
        "max_depth": ("int", 3, 10),
        "min_child_weight": ("log", 1.0, 64.0),
        "gamma": ("zero_or_log", 0.5, 1e-3, 10.0),
        "subsample": ("uniform", 0.5, 1.0),
        "colsample_bytree": ("uniform", 0.5, 1.0),
        "colsample_bylevel": ("uniform", 0.5, 1.0),
        "reg_lambda": ("log", 0.1, 100.0),
        "reg_alpha": ("zero_or_log", 0.5, 1e-3, 10.0),
        "max_delta_step": ("zero_or_uniform", 0.75, 1.0, 10.0),
    },
    "linear": {
        "reg_lambda": ("log", 1e-3, 100.0),
        "reg_alpha": ("log", 1e-3, 100.0),
        "reg_lambda_bias": ("log", 1e-3, 100.0),
        "learning_rate": ("log", 0.01, 0.3),
    },
    "layer2": {
        "lambda1": ("log", 1e-6, 1.0),
        "lambda2": ("log", 1e-6, 1.0),
    },
}
_RANGE_PARAMS = {"tree": TreeHyperParams, "linear": LinearHyperParams,
                 "layer2": ElasticNetParams}
_RANGE_KINDS = ("log", "uniform", "int", "zero_or_log", "zero_or_uniform")


def _is_number(v):
    """A finite JSON number; huge integers are not finite floats."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _check_range(spec, params, name, where):
    """`spec` as a tuple, once it is a list (or tuple) of a known kind with its
    finite bounds, lo <= hi, log bounds above 0, a zero probability in
    [0, 1], integer bounds for an integer parameter, and `params` accepts
    each endpoint (and 0 for a zero_or_* kind). Nothing is drawn."""
    if not isinstance(spec, (list, tuple)) or not spec \
            or spec[0] not in _RANGE_KINDS:
        raise ConfigError(f"{where}: must be a list [kind, bounds...] with "
                          f"kind one of {list(_RANGE_KINDS)}")
    kind, *bounds = spec
    zero_or = kind.startswith("zero_or_")
    if len(bounds) != 2 + zero_or or not all(map(_is_number, bounds)):
        raise ConfigError(f"{where}: {kind!r} takes {2 + zero_or} finite numbers")
    if zero_or and not 0 <= bounds.pop(0) <= 1:
        raise ConfigError(f"{where}: the probability of 0 must lie in [0, 1]")
    lo, hi = bounds
    if lo > hi:
        raise ConfigError(f"{where}: lower bound {lo} exceeds upper bound {hi}")
    if kind.endswith("log") and lo <= 0:
        raise ConfigError(f"{where}: log bounds must be above 0")
    if kind == "int" and not all(isinstance(b, int) for b in bounds):
        raise ConfigError(f"{where}: 'int' bounds must be integers")
    if kind != "int" and get_type_hints(params)[name] is int:
        raise ConfigError(f"{where}: an integer parameter takes the 'int' kind")
    try:
        for v in (lo, hi, 0) if zero_or else (lo, hi):
            params(**{name: v})
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None
    return tuple(spec)


def draw(rng, spec):
    """One value drawn by the numpy Generator `rng` from a checked spec."""
    kind, *bounds = spec
    zero = kind.startswith("zero_or_") and rng.random() < bounds.pop(0)
    lo, hi = bounds
    if kind == "int":
        return int(rng.integers(lo, hi + 1))
    if kind.endswith("log"):
        v = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    else:
        v = float(rng.uniform(lo, hi))
    return 0.0 if zero else v


def merge_ranges(overrides):
    """DEFAULT_RANGES with the checked specs of `overrides`, a
    {group: {name: spec}} object, in place of the defaults they name."""
    ranges = {grp: dict(DEFAULT_RANGES[grp]) for grp in DEFAULT_RANGES}
    for grp, specs in (overrides or {}).items():
        if grp not in ranges:
            raise ConfigError(f"unknown sampling_ranges group {grp!r}")
        if not isinstance(specs, dict):
            raise ConfigError(f"sampling_ranges.{grp} must be a JSON object")
        for name, spec in specs.items():
            if name not in ranges[grp]:
                raise ConfigError(f"unknown sampling_ranges entry {grp}.{name}")
            ranges[grp][name] = _check_range(
                spec, _RANGE_PARAMS[grp], name, f"sampling_ranges.{grp}.{name}")
    return ranges


def _read(annotation, v, path):
    """The JSON value `v` of the field at `path`, checked against its
    `annotation` (T or T | None): a nested config is read from an object, a
    tuple from a list and a float from any number."""
    typ = next(t for t in get_args(annotation) or (annotation,)
               if t is not type(None))
    if is_dataclass(typ) and isinstance(v, dict):
        return _from_dict(typ, v, path)
    if typ is float and isinstance(v, int) and not isinstance(v, bool):
        if not _is_number(v):
            raise ConfigError(f"field {path!r} is out of range")
        v = float(v)
    if isinstance(v, bool) or not isinstance(v, list if typ is tuple else typ):
        raise ConfigError(f"field {path!r} has wrong type")
    return tuple(v) if typ is tuple else v


def _from_dict(cls, d, where):
    """The config dataclass `cls` read from the JSON object `d` found at the
    dotted path `where` ("" for the whole config). A key absent or null
    takes its field's default."""
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: "
                          f"{sorted(unknown)}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        if d.get(f.name) is None and (f.default is not MISSING or
                                      f.default_factory is not MISSING):
            continue
        if f.name not in d:
            raise ConfigError(f"missing required field {path!r}")
        values[f.name] = _read(hints[f.name], d[f.name], path)
    try:
        return cls(**values)
    except MetricError as e:
        raise ConfigError(f"{where}: {e}") from None


@dataclass(frozen=True)
class LabelConfig:
    """How the training file's label column becomes the run's labels."""

    kinds: tuple
    file_label: str = "binary"
    threshold: float | None = None
    direction: str = GREATER_IS_POSITIVE
    csv_label_column: str = "label"

    def __post_init__(self):
        if not self.kinds or any(k not in _LABEL_KINDS for k in self.kinds) \
                or len(set(self.kinds)) != len(self.kinds):
            raise ConfigError(
                "label.kinds must be a non-empty subset of ['binary', 'continuous']")
        if self.file_label not in _LABEL_KINDS:
            raise ConfigError("label.file_label must be 'binary' or 'continuous'")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"label.direction must be one of {DIRECTIONS}")
        if self.file_label == "binary" and tuple(self.kinds) != ("binary",):
            raise ConfigError(
                "label.kinds can only be ['binary'] when the file carries binary labels")
        if self.file_label == "continuous" and self.threshold is None:
            raise ConfigError(
                "label.threshold is required when the file carries continuous labels")
        if self.threshold is not None and not _is_number(self.threshold):
            raise ConfigError("label.threshold must be finite")

    @property
    def mapping(self) -> LabelMapping | None:
        """The rule that binarizes the file's labels; None for binary files."""
        if self.file_label == "binary":
            return None
        return LabelMapping(self.threshold, self.direction)


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
        if self.seed < 0:
            raise ConfigError("field 'seed' must be at least 0")
        if not (0.0 <= self.test_fraction < 1.0):
            raise ConfigError("field 'test_fraction' must lie in [0, 1)")
        if self.booster_mix not in _BOOSTER_MIXES:
            raise ConfigError(f"field 'booster_mix' must be one of {_BOOSTER_MIXES}")
        if self.patience < 1 or self.max_rounds < 1:
            raise ConfigError("'patience' and 'max_rounds' must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("field 'workers' must be at least 1")
        merge_ranges(self.sampling_ranges)

    @classmethod
    def from_dict(cls, d):
        """The run config of a parsed JSON object."""
        return _from_dict(cls, d, "")

    def effective_workers(self):
        if self.workers is not None:
            return self.workers
        return min(os.cpu_count() or 1, 8)

    def validate_paths(self):
        if not Path(self.train_path).exists():
            raise ConfigError(f"train_path does not exist: {self.train_path}")
        if self.test_path is not None and not Path(self.test_path).exists():
            raise ConfigError(f"test_path does not exist: {self.test_path}")
        out = Path(self.output_dir)
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise ConfigError(f"output_dir is not a directory: {out}")

    def to_dict(self):
        """JSON-serializable snapshot, sufficient to re-run identically."""
        def metric_d(m):
            # only the parameters a config would set
            return {f.name: getattr(m, f.name) for f in fields(m)
                    if getattr(m, f.name) != f.default}
        out = asdict(self)
        out["label"]["kinds"] = list(self.label.kinds)
        out["stop_metric"] = metric_d(self.stop_metric)
        out["selection_metric"] = metric_d(self.selection_metric)
        return out
