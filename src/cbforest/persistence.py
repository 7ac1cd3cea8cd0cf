"""Model archive: a self-describing JSON document with a content checksum.

The archive holds a `CbfModel`, which is only what `predict_cbf` reads: per
bundle its label kind and base models (each tree as its flat node arrays, a
gblinear model's deltas as one), the layer-2 coefficient vectors and the
column order. It also holds the run config. What training learned besides
the model is the run's `TrainingRecord`; its reports live in the TSV files
beside the archive. Trees are checked on load, so a walk of any loaded tree
ends at one of its leaves, and so is the rest of the model: every bundle has
base models, each base model has a known booster and loss, learners of its
booster's kind and finite numbers wherever the scorer reads one, and every
layer-2 vector has an intercept and one finite coefficient per column of
the manifest.

Floats round-trip exactly through Python's json (repr-based), so a saved
model reproduces its in-memory predictions bit for bit.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .ensemble import CbfModel, Layer1Bundle
from .gbm import (GBLINEAR, GBTREE, LOGISTIC, QUADRATIC, DecisionTree,
                  GbmModel, LinearDelta)

FORMAT_VERSION = 3


class PersistenceError(ValueError):
    """Corrupt, truncated, or incompatible model archive."""


def _learner_to_dict(learner):
    if isinstance(learner, DecisionTree):
        return {"tree": {name: getattr(learner, name).tolist()
                         for name in DecisionTree.ARRAYS}}
    return {"bias": learner.bias, "weights": learner.weights.tolist()}


# numpy dtype kinds a stored tree array may take: integer, float, bool
_TREE_KINDS = {"feature": "i", "threshold": "if", "default_left": "b",
               "left": "i", "value": "if"}


def _malformed_tree(reason):
    return PersistenceError(f"malformed archive: malformed tree: {reason}")


def _tree_from_dict(d, n_cols) -> DecisionTree:
    """A stored tree, checked so that every walk of it ends at one of its
    leaves, having read only features below `n_cols`, and that no threshold
    is NaN and every value is finite."""
    if not isinstance(d, dict) or set(d) != set(_TREE_KINDS):
        raise _malformed_tree("expected the arrays "
                              + ", ".join(DecisionTree.ARRAYS))
    arrays = {name: np.asarray(d[name]) for name in DecisionTree.ARRAYS}
    n = arrays["left"].size
    if n == 0 or any(a.shape != (n,) or a.dtype.kind not in _TREE_KINDS[name]
                     for name, a in arrays.items()):
        raise _malformed_tree("its arrays differ in length or hold entries "
                              "of the wrong type")
    tree = DecisionTree(
        feature=arrays["feature"].astype(np.int64),
        threshold=arrays["threshold"].astype(np.float64),
        default_left=arrays["default_left"],
        left=arrays["left"].astype(np.int64),
        value=arrays["value"].astype(np.float64))
    split = np.flatnonzero(tree.left != -1)
    child = tree.left[split]
    if ((child <= split) | (child + 1 >= n)).any():
        raise _malformed_tree("a child index is out of range or does not "
                              "point past its parent")
    f = tree.feature[split]
    if ((f < 0) | (f >= n_cols)).any():
        raise _malformed_tree(f"a split feature is not below n_cols {n_cols}")
    if np.isnan(tree.threshold).any() or not np.isfinite(tree.value).all():
        raise _malformed_tree("a threshold is NaN or a value is not finite")
    return tree


def _is_finite_number(x):
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _linear_from_dict(d, n_cols) -> LinearDelta:
    weights = np.asarray(d["weights"])
    if not _is_finite_number(d["bias"]):
        raise PersistenceError("malformed archive: a linear learner's bias is "
                               "not a finite number")
    if (weights.shape != (n_cols,) or weights.dtype.kind not in "if"
            or not np.isfinite(weights).all()):
        raise PersistenceError(f"malformed archive: a linear learner's "
                               f"weights are not {n_cols} finite numbers")
    return LinearDelta(bias=d["bias"], weights=weights)


# the keys of a stored learner of each booster
_LEARNER_KEYS = {GBTREE: {"tree"}, GBLINEAR: {"bias", "weights"}}


def _gbm_to_dict(m: GbmModel):
    return {"booster": m.booster, "loss": m.loss, "base_score": m.base_score,
            "learning_rate": m.learning_rate, "n_cols": m.n_cols,
            "learners": [_learner_to_dict(l) for l in m.learners]}


def _gbm_from_dict(d):
    """A stored base model, checked so that the scorer can score it: a known
    booster and loss, learners of the booster's kind, and finite numbers
    wherever it reads one."""
    booster, loss, n_cols = d["booster"], d["loss"], d["n_cols"]
    if booster not in _LEARNER_KEYS:
        raise PersistenceError(
            f"malformed archive: a base model has unknown booster {booster!r}")
    if loss not in (LOGISTIC, QUADRATIC):
        raise PersistenceError(
            f"malformed archive: a base model has unknown loss {loss!r}")
    for name in ("base_score", "learning_rate"):
        if not _is_finite_number(d[name]):
            raise PersistenceError(f"malformed archive: a base model's {name} "
                                   f"is not a finite number")
    if any(set(l) != _LEARNER_KEYS[booster] for l in d["learners"]):
        raise PersistenceError(f"malformed archive: a {booster} model holds a "
                               f"learner of another booster")
    return GbmModel(booster=booster, loss=loss, base_score=d["base_score"],
                    learning_rate=d["learning_rate"],
                    learners=[_tree_from_dict(l["tree"], n_cols)
                              if booster == GBTREE
                              else _linear_from_dict(l, n_cols)
                              for l in d["learners"]],
                    n_cols=n_cols)


def model_to_dict(model: CbfModel):
    return {
        "bundles": [{"label_kind": b.label_kind,
                     "models": [[_gbm_to_dict(m) for m in row]
                                for row in b.models]}
                    for b in model.bundles],
        "layer2_betas": [b.tolist() for b in model.layer2_betas],
        "column_order": [list(c) for c in model.column_order],
    }


def model_from_dict(d) -> CbfModel:
    """The model a stored document describes. An older archive may also hold
    `use_layer2_refit`; when true its one beta is a refit, which predicts as
    the average of one model, so the key is ignored."""
    if not d["bundles"]:
        raise PersistenceError("malformed archive: it has no bundles")
    if not all(b["models"] and all(b["models"]) for b in d["bundles"]):
        raise PersistenceError("malformed archive: a bundle has no base models")
    # prediction scores all base models together and averages K per row
    if len({(len(row), m["n_cols"]) for b in d["bundles"]
            for row in b["models"] for m in row}) > 1:
        raise PersistenceError("malformed archive: its rows of base models "
                               "differ in fold count or column count")
    width = 1 + len(d["column_order"])
    if not d["layer2_betas"]:
        raise PersistenceError(
            "malformed archive: it has no layer-2 coefficient vector")
    for b in d["layer2_betas"]:
        if len(b) != width:
            raise PersistenceError(
                f"malformed archive: a layer-2 coefficient vector has length "
                f"{len(b)}, not 1 + {width - 1} columns")
        if not all(map(_is_finite_number, b)):
            raise PersistenceError("malformed archive: a layer-2 coefficient "
                                   "is not a finite number")
    return CbfModel(
        bundles=[Layer1Bundle(label_kind=b["label_kind"],
                              models=[[_gbm_from_dict(m) for m in row]
                                      for row in b["models"]])
                 for b in d["bundles"]],
        layer2_betas=[np.asarray(b) for b in d["layer2_betas"]],
        column_order=[tuple(c) for c in d["column_order"]])


def _payload_checksum(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@contextmanager
def replaced_atomically(path):
    """A text file written beside `path`, synced and moved over it when the
    block ends; a failed write leaves `path` as it was and no file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_archive(path, model: CbfModel, config_dict):
    """Write the archive atomically (`replaced_atomically`)."""
    payload = {"format_version": FORMAT_VERSION, "config": config_dict,
               "model": model_to_dict(model)}
    doc = dict(payload)
    doc["checksum"] = _payload_checksum(payload)
    with replaced_atomically(path) as f:
        # json.dumps, unlike json.dump, runs the C encoder
        f.write(json.dumps(doc, sort_keys=True) + "\n")


def load_archive(path):
    """Load and checksum-verify an archive; returns (model, config_dict)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise PersistenceError(f"cannot read archive: {e}")
    if not isinstance(doc, dict) or "checksum" not in doc:
        raise PersistenceError("archive has no checksum")
    stored = doc.pop("checksum")
    if doc.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported archive format_version {doc.get('format_version')!r}")
    if _payload_checksum(doc) != stored:
        raise PersistenceError("archive checksum mismatch")
    try:
        return model_from_dict(doc["model"]), doc["config"]
    except PersistenceError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise PersistenceError(f"malformed archive: {e!r}") from e
