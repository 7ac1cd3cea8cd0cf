"""CLI surface, run-config schema, and archive persistence tests."""
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import cbforest
from cbforest import cli
from cbforest.cli import main
from cbforest.config import (DEFAULT_RANGES, ConfigError, LabelConfig,
                             Layer2Config, RunConfig)
from cbforest.elastic_net import fit_elastic_net
from cbforest.ensemble import CbfModel, predict_cbf
from cbforest.gbm import (GBLINEAR, GBTREE, QUADRATIC, DecisionTree,
                          TreeHyperParams, grad_hess, predict_gbm,
                          predict_tree)
from cbforest.metrics import MetricSpec
from cbforest.persistence import (PersistenceError, load_archive,
                                  model_to_dict, save_archive)

from _oracles import breadth_first, depth_first_tree_oracle
from conftest import tiny_config_dict


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


# ---------------------------------------------------------------- config

def test_config_requires_h_at_least_one(tiny_dataset):
    with pytest.raises(ConfigError, match="H"):
        RunConfig.from_dict(tiny_config_dict(tiny_dataset, H=0))


def test_config_rejects_unknown_keys(tiny_dataset):
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_dict(tiny_config_dict(tiny_dataset, bogus=1))


def test_config_label_validation(tiny_dataset):
    bad = tiny_config_dict(tiny_dataset)
    bad["label"] = {"kinds": ["binary", "continuous"], "file_label": "binary"}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)
    bad["label"] = {"kinds": ["continuous"], "file_label": "continuous"}
    with pytest.raises(ConfigError, match="threshold"):
        RunConfig.from_dict(bad)


def test_config_unknown_metric_kind(tiny_dataset):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(tiny_config_dict(
            tiny_dataset, stop_metric={"kind": "f1"}))


def test_config_round_trip(tiny_dataset):
    cfg = RunConfig.from_dict(tiny_config_dict(tiny_dataset))
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_to_dict_of_a_full_config():
    """Every field appears once; metric specs keep only what is set."""
    full = {
        "train_path": "train.svm", "test_path": "test.svm",
        "test_fraction": 0.2,
        "label": {"kinds": ["binary", "continuous"],
                  "file_label": "continuous", "threshold": 1.5,
                  "direction": "less_is_positive",
                  "csv_label_column": "activity"},
        "H": 4, "K": 3, "seed": 7,
        "stop_metric": {"kind": "ef", "t": 0.05},
        "selection_metric": {"kind": "reliability_score", "n_bins": 5},
        "booster_mix": "gbtree", "patience": 10, "max_rounds": 50,
        "sampling_ranges": {"tree": {"max_depth": ["int", 2, 4]}},
        "layer2": {"max_iter": 50, "tol": 1e-4},
        "workers": 2, "output_dir": "out"}
    assert RunConfig.from_dict(full).to_dict() == full
    bed = dict(full, selection_metric={"kind": "auc_bed", "alpha": 80.0})
    assert RunConfig.from_dict(bed).to_dict() == bed
    # a JSON integer for a float field is stored as a float
    integral = dict(bed, selection_metric={"kind": "auc_bed", "alpha": 80})
    assert (json.dumps(RunConfig.from_dict(integral).to_dict(), sort_keys=True)
            == json.dumps(bed, sort_keys=True))
    minimal = {"train_path": "train.svm", "label": {"kinds": ["binary"]},
               "H": 1}
    assert RunConfig.from_dict(minimal).to_dict() == {
        "train_path": "train.svm", "test_path": None, "test_fraction": 0.1,
        "label": {"kinds": ["binary"], "file_label": "binary",
                  "threshold": None, "direction": "greater_is_positive",
                  "csv_label_column": "label"},
        "H": 1, "K": 5, "seed": 0,
        "stop_metric": {"kind": "ef", "t": 0.01},
        "selection_metric": {"kind": "auc_prc"},
        "booster_mix": "alternate", "patience": 100, "max_rounds": 2000,
        "sampling_ranges": {},
        "layer2": {"max_iter": 1000, "tol": 1e-6},
        "workers": None, "output_dir": "."}
    for removed in ("penalize_intercept", "refit"):
        with pytest.raises(ConfigError, match=removed):
            RunConfig.from_dict(dict(full, layer2={removed: False}))


def test_config_missing_path_rejected(tiny_dataset):
    cfg = RunConfig.from_dict(tiny_config_dict(
        tiny_dataset, train_path="/nonexistent/file.svm"))
    with pytest.raises(ConfigError, match="train_path"):
        cfg.validate_paths()


MINIMAL_CONFIG = {"train_path": "train.svm", "label": {"kinds": ["binary"]},
                  "H": 1}


def test_layer2_config_defaults():
    cfg = RunConfig.from_dict(MINIMAL_CONFIG).layer2
    solver = inspect.signature(fit_elastic_net).parameters
    assert ((cfg.max_iter, cfg.tol)
            == (solver["max_iter"].default, solver["tol"].default)
            == (1000, 1e-6))


@pytest.mark.parametrize("key, value, path", [
    ("K", "3", "K"),
    ("label", ["binary"], "label"),
    ("label", {"kinds": ["binary"], "direction": 1}, "label.direction"),
    ("stop_metric", {"kind": "ef", "t": "0.01"}, "stop_metric.t"),
    ("layer2", {"tol": "1e-6"}, "layer2.tol")])
def test_wrong_type_names_the_dotted_path(key, value, path):
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(dict(MINIMAL_CONFIG, **{key: value}))
    assert str(exc.value) == f"field {path!r} has wrong type"


def test_readme_config_reference_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    reference = readme.split("#### Config reference", 1)[1].split("\n### ", 1)[0]
    listed = set(re.findall(r"^\| `(\w+)` \|", reference, re.MULTILINE))
    for cls in (RunConfig, LabelConfig, Layer2Config, MetricSpec):
        missing = {f.name for f in fields(cls)} - listed
        assert not missing, f"{cls.__name__}: {sorted(missing)}"
    for group, specs in DEFAULT_RANGES.items():
        for name, spec in specs.items():
            row = f"| `{group}` | `{name}` | `{json.dumps(list(spec))}` |"
            assert row in reference


# ------------------------------------------------------------ persistence

def test_archive_round_trip_bit_exact(tiny_run, tmp_path):
    config, result = tiny_run
    path = tmp_path / "model.cbf"
    save_archive(path, result.model, config.to_dict())
    loaded, cfg = load_archive(path)
    assert cfg == config.to_dict()
    assert np.array_equal(predict_cbf(loaded, result.train_data),
                          predict_cbf(result.model, result.train_data))


def _read_archive(path):
    """The header and the payload of an archive, each as parsed JSON."""
    header, payload = path.read_text().split("\n", 1)
    return json.loads(header), json.loads(payload)


def _write_archive(path, header, payload):
    """Write an archive of `payload`, encoded as `save_archive` encodes it,
    under `header` with the payload's checksum stored."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    header = dict(header, sha256=hashlib.sha256(blob.encode()).hexdigest())
    path.write_text(json.dumps(header) + "\n" + blob)


def test_archive_rejects_unknown_format_version(tiny_run, tmp_path):
    config, result = tiny_run
    path = tmp_path / "model.cbf"
    save_archive(path, result.model, config.to_dict())
    header, payload = _read_archive(path)
    _write_archive(path, dict(header, format_version=999), payload)
    with pytest.raises(PersistenceError, match="format_version 999"):
        load_archive(path)


def _json_keys(node):
    if isinstance(node, dict):
        for k, v in node.items():
            yield k
            yield from _json_keys(v)
    elif isinstance(node, list):
        for v in node:
            yield from _json_keys(v)


def test_archive_holds_only_prediction_state(tiny_run, tmp_path):
    config, result = tiny_run
    path = tmp_path / "model.cbf"
    save_archive(path, result.model, config.to_dict())
    header, doc = _read_archive(path)
    assert header["format_version"] == 4
    assert set(doc) == {"config", "model"}
    boosters, past_optimum = set(), 0
    for bundle, record, stored in zip(result.model.bundles,
                                      result.record.bundles,
                                      doc["model"]["bundles"], strict=True):
        for row, logs, stored_row in zip(bundle.models, record.logs,
                                         stored["models"], strict=True):
            for m, log, sm in zip(row, logs, stored_row, strict=True):
                boosters.add(m.booster)
                past_optimum += len(log.scores) - 1 - log.optimal_round
                kept = (log.optimal_round if m.booster == GBTREE
                        else min(log.optimal_round, 1))
                assert len(m.learners) == len(sm["learners"]) == kept
    assert boosters == {GBTREE, GBLINEAR}
    assert past_optimum > 0
    training_only = {"training_log", "logs", "scores", "optimal_round",
                     "oof_columns", "fold_of_row", "samples", "cv_per_fold"}
    assert not training_only & set(_json_keys(doc))
    assert [f.name for f in fields(CbfModel) if f.compare] == [
        "bundles", "layer2_betas", "column_order"]


def _assert_same(a, b, where="model"):
    """`a` and `b` hold equal values field for field, arrays compared by
    `array_equal`."""
    if is_dataclass(a):
        assert type(a) is type(b), where
        for f in fields(a):
            if f.compare:
                _assert_same(getattr(a, f.name), getattr(b, f.name),
                             f"{where}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and np.array_equal(a, b), where
    else:
        assert a == b, where


def test_loaded_model_equals_the_trained_model(tiny_run, tmp_path):
    config, result = tiny_run
    path = tmp_path / "model.cbf"
    save_archive(path, result.model, config.to_dict())
    loaded, _ = load_archive(path)
    boosters = {m.booster for b in result.model.bundles
                for row in b.models for m in row}
    assert boosters == {GBTREE, GBLINEAR}
    assert [b.label_kind for b in loaded.bundles] == ["binary", "continuous"]
    _assert_same(result.model, loaded)


def test_failed_save_keeps_the_previous_archive(tiny_run, tmp_path,
                                                monkeypatch):
    config, result = tiny_run
    path = tmp_path / "model.cbf"
    save_archive(path, result.model, config.to_dict())
    before = path.read_bytes()

    def fail(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="no space"):
        save_archive(path, result.model, config.to_dict())
    monkeypatch.undo()
    assert path.read_bytes() == before
    load_archive(path)
    assert [p.name for p in tmp_path.iterdir()] == ["model.cbf"]


def _edited_archive(tiny_run, tmp_path, edit):
    """Save the tiny run's archive, apply `edit` to its payload, and store the
    checksum of the edited payload."""
    config, result = tiny_run
    path = tmp_path / "model.cbf"
    save_archive(path, result.model, config.to_dict())
    header, payload = _read_archive(path)
    edit(payload)
    _write_archive(path, header, payload)
    return path


def _single_line_archive(tiny_run, tmp_path, version):
    """The tiny run's model in the single-line layout of formats 1 to 3: one
    JSON document holding the format version, the payload and its checksum."""
    config, result = tiny_run
    doc = {"format_version": version, "config": config.to_dict(),
           "model": model_to_dict(result.model)}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(blob.encode()).hexdigest()
    path = tmp_path / "model.cbf"
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def _predict_exit_code(path, tiny_dataset, tmp_path):
    return run_cli(["predict", "--model", str(path), "--input",
                    tiny_dataset["path"], "--output",
                    str(tmp_path / "scores.tsv")])


def test_predict_rejects_a_format_1_archive(tiny_run, tiny_dataset, tmp_path,
                                            capsys):
    path = _single_line_archive(tiny_run, tmp_path, 1)
    assert _predict_exit_code(path, tiny_dataset, tmp_path) == 2
    assert "format_version 1" in capsys.readouterr().err


def test_predict_rejects_a_format_2_archive(tiny_run, tiny_dataset, tmp_path,
                                            capsys):
    path = _single_line_archive(tiny_run, tmp_path, 2)
    assert _predict_exit_code(path, tiny_dataset, tmp_path) == 2
    assert "format_version 2" in capsys.readouterr().err


def _flip_a_payload_digit(path, tiny_run):
    raw = bytearray(path.read_bytes())
    i = raw.index(b'"base_score":') + len(b'"base_score":')
    raw[i] = ord("9") if raw[i] != ord("9") else ord("8")
    path.write_bytes(bytes(raw))


def _flip_a_checksum_digit(path, tiny_run):
    header, payload = path.read_bytes().split(b"\n", 1)
    i = header.index(b'"sha256": "') + len(b'"sha256": "')
    header = bytearray(header)
    header[i] = ord("0") if header[i] != ord("0") else ord("1")
    path.write_bytes(bytes(header) + b"\n" + payload)


def _cut_the_payload_short(path, tiny_run):
    path.write_bytes(path.read_bytes()[:-100])


def _empty_the_file(path, tiny_run):
    path.write_bytes(b"")


def _header_not_json(path, tiny_run):
    payload = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(b"cbforest model\n" + payload)


def _written_by_format_3(path, tiny_run):
    _single_line_archive(tiny_run, path.parent, 3)


@pytest.mark.parametrize("damage, message", [
    (_flip_a_payload_digit, "archive checksum mismatch"),
    (_flip_a_checksum_digit, "archive checksum mismatch"),
    (_cut_the_payload_short, "archive checksum mismatch"),
    (_empty_the_file, "cannot read archive: "),
    (_header_not_json, "cannot read archive: "),
    (_written_by_format_3, "unsupported archive format_version 3"),
], ids=["payload_digit", "checksum_digit", "payload_cut_short", "empty_file",
        "header_not_json", "format_3"])
def test_predict_rejects_a_damaged_or_older_archive(
        tiny_run, tiny_dataset, tmp_path, capsys, damage, message):
    config, result = tiny_run
    path = tmp_path / "model.cbf"
    save_archive(path, result.model, config.to_dict())
    damage(path, tiny_run)
    assert _predict_exit_code(path, tiny_dataset, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"archive error: {message}")
    assert err.count("\n") == 1


def _first_stored_tree(doc):
    for bundle in doc["model"]["bundles"]:
        for row in bundle["models"]:
            for m in row:
                for learner in m["learners"]:
                    if "tree" in learner and max(learner["tree"]["left"]) > 0:
                        return learner["tree"]
    raise AssertionError("the archive stores no tree with a split")


def _split_node(tree):
    return next(i for i, c in enumerate(tree["left"]) if c >= 0)


def _child_out_of_range(doc):
    tree = _first_stored_tree(doc)
    tree["left"][_split_node(tree)] = len(tree["left"]) - 1


def _child_before_parent(doc):
    tree = _first_stored_tree(doc)
    i = _split_node(tree)
    tree["left"][i] = i


def _arrays_differ_in_length(doc):
    _first_stored_tree(doc)["threshold"].append(0.5)


def _threshold_entry_is_a_list(doc):
    tree = _first_stored_tree(doc)
    tree["threshold"][0] = [tree["threshold"][0]]


def _feature_past_n_cols(doc):
    tree = _first_stored_tree(doc)
    tree["feature"][_split_node(tree)] = doc["model"]["bundles"][0][
        "models"][0][0]["n_cols"]


def test_predict_rejects_a_tree_child_out_of_range(tiny_run, tiny_dataset,
                                                   tmp_path, capsys):
    path = _edited_archive(tiny_run, tmp_path, _child_out_of_range)
    assert _predict_exit_code(path, tiny_dataset, tmp_path) == 2
    assert "child index" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [_child_out_of_range, _child_before_parent,
                                  _arrays_differ_in_length,
                                  _threshold_entry_is_a_list,
                                  _feature_past_n_cols])
def test_archive_rejects_malformed_trees(tiny_run, tmp_path, edit):
    path = _edited_archive(tiny_run, tmp_path, edit)
    with pytest.raises(PersistenceError, match="malformed tree"):
        load_archive(path)


def _all_predictions(model, data):
    """Every base model's predictions, then the stack's, as bytes."""
    base = [predict_gbm(m, data) for b in model.bundles for row in b.models
            for m in row]
    return np.concatenate(base + [predict_cbf(model, data)]).tobytes()


def test_depth_first_and_breadth_first_trees_load_and_predict_alike(
        tiny_run, tmp_path):
    """A tree numbered depth-first, with a node's children at the next two
    free ids in preorder, loads and predicts bit for bit as its breadth-first
    twin: a walk needs only that children follow their parent."""
    config, result = tiny_run
    data = result.train_data
    r = np.random.default_rng(3)
    g, h = grad_hess(QUADRATIC, r.normal(size=data.n_rows),
                     np.zeros(data.n_rows))
    depth_first = depth_first_tree_oracle(
        g, h, data, TreeHyperParams(max_depth=4, min_child_weight=0.0),
        np.random.default_rng(0))
    trees = [depth_first, breadth_first(depth_first)]
    assert trees[0].left.tolist() != trees[1].left.tolist()
    assert (predict_tree(trees[0], data).tobytes()
            == predict_tree(trees[1], data).tobytes())
    predictions = []
    for tree in trees:
        def put(doc):
            _first_stored_tree(doc).update(
                {name: getattr(tree, name).tolist()
                 for name in DecisionTree.ARRAYS})
        loaded, _ = load_archive(_edited_archive(tiny_run, tmp_path, put))
        predictions.append(_all_predictions(loaded, data))
    assert predictions[0] == predictions[1]
    assert predictions[0] != _all_predictions(result.model, data)


def test_archive_rejects_a_missing_field(tiny_run, tmp_path):
    def drop_n_cols(doc):
        del doc["model"]["bundles"][0]["models"][0][0]["n_cols"]
    path = _edited_archive(tiny_run, tmp_path, drop_n_cols)
    with pytest.raises(PersistenceError, match="malformed archive"):
        load_archive(path)


def _no_bundles(doc):
    doc["model"]["bundles"] = []


def _empty_fold_row(doc):
    doc["model"]["bundles"][-1]["models"][-1] = []


def _no_layer2_betas(doc):
    doc["model"]["layer2_betas"] = []


def _short_layer2_beta(doc):
    doc["model"]["layer2_betas"][0].pop()


def _short_fold_row(doc):
    doc["model"]["bundles"][-1]["models"][-1].pop()


def _wider_base_model(doc):
    doc["model"]["bundles"][0]["models"][0][0]["n_cols"] += 1


def _base_model(doc, booster):
    """The first stored base model of `booster` that has learners."""
    return next(m for b in doc["model"]["bundles"] for row in b["models"]
                for m in row if m["booster"] == booster and m["learners"])


def _short_linear_weights(doc):
    _base_model(doc, "gblinear")["learners"][0]["weights"].pop()


def _string_linear_bias(doc):
    _base_model(doc, "gblinear")["learners"][0]["bias"] = "0.5"


def _linear_learner_in_a_tree_model(doc):
    _base_model(doc, "gbtree")["learners"].append(
        _base_model(doc, "gblinear")["learners"][0])


def _dart_booster(doc):
    _base_model(doc, "gbtree")["booster"] = "dart"


def _hinge_loss(doc):
    _base_model(doc, "gbtree")["loss"] = "hinge"


def _null_base_score(doc):
    _base_model(doc, "gbtree")["base_score"] = None


def _string_learning_rate(doc):
    _base_model(doc, "gblinear")["learning_rate"] = "0.1"


def _nan_leaf_value(doc):
    tree = _first_stored_tree(doc)
    tree["value"][tree["left"].index(-1)] = float("nan")


def _nan_layer2_coefficient(doc):
    doc["model"]["layer2_betas"][0][1] = float("nan")


def _huge_base_score(doc):
    _base_model(doc, "gbtree")["base_score"] = 10**400


def _huge_layer2_coefficient(doc):
    doc["model"]["layer2_betas"][0][1] = 10**400


def _nan_threshold(doc):
    tree = _first_stored_tree(doc)
    tree["threshold"][_split_node(tree)] = float("nan")


@pytest.mark.parametrize("edit, message", [
    (_no_bundles, "it has no bundles"),
    (_empty_fold_row, "a bundle has no base models"),
    (_no_layer2_betas, "it has no layer-2 coefficient vector"),
    (_short_layer2_beta, "a layer-2 coefficient vector has length"),
    (_short_fold_row, "its rows of base models differ in fold count"),
    (_wider_base_model, "its rows of base models differ in fold count or "
                        "column count"),
    (_short_linear_weights, "a linear learner's weights are not 64 finite "
                            "numbers"),
    (_string_linear_bias, "a linear learner's bias is not a finite number"),
    (_linear_learner_in_a_tree_model, "a gbtree model holds a learner of "
                                      "another booster"),
    (_dart_booster, "a base model has unknown booster 'dart'"),
    (_hinge_loss, "a base model has unknown loss 'hinge'"),
    (_null_base_score, "a base model's base_score is not a finite number"),
    (_huge_base_score, "a base model's base_score is not a finite number"),
    (_string_learning_rate, "a base model's learning_rate is not a finite "
                            "number"),
    (_nan_leaf_value, "malformed tree: a threshold is NaN or a value is not "
                      "finite"),
    (_nan_threshold, "malformed tree: a threshold is NaN or a value is not "
                     "finite"),
    (_nan_layer2_coefficient, "a layer-2 coefficient is not a finite number"),
    (_huge_layer2_coefficient, "a layer-2 coefficient is not a finite number"),
])
def test_predict_rejects_an_archive_it_cannot_score_with(
        tiny_run, tiny_dataset, tmp_path, capsys, edit, message):
    path = _edited_archive(tiny_run, tmp_path, edit)
    assert _predict_exit_code(path, tiny_dataset, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"archive error: malformed archive: {message}")
    assert err.count("\n") == 1


def test_model_dict_is_json_serializable(tiny_run):
    _, result = tiny_run
    json.dumps(model_to_dict(result.model))


# -------------------------------------------------------------- cmd_train

@pytest.mark.parametrize("report", ["cv_scores.tsv", "metrics.tsv",
                                    "reliability.tsv"])
def test_failed_report_write_keeps_the_previous_report(report, tiny_run,
                                                       tmp_path, capsys,
                                                       monkeypatch):
    """A train whose write of a report fails midway exits 1 and leaves the
    reports of the previous train as they were, and no temporary file
    behind."""
    config, result = tiny_run
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(config.to_dict(),
                                    output_dir=str(tmp_path / "out"))))
    monkeypatch.setattr(cli, "run_cbf", lambda config: result)
    assert run_cli(["train", "--config", str(path)]) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    # _fmt formats each cell; the reports are written in this order
    cells = {"cv_scores.tsv": len(result.record.layer2.candidates)
             * (result.record.folds.K + 5),
             "metrics.tsv": 4 * len(result.metrics_report),
             "reliability.tsv": 4 * len(result.reliability.counts)}
    order = list(cells)
    fail_at = sum(cells[r] for r in order[:order.index(report)]) + 5
    fmt, calls = cli._fmt, []

    def failing_fmt(v):
        calls.append(v)
        if len(calls) == fail_at:
            raise OSError("no space left on device")
        return fmt(v)

    monkeypatch.setattr(cli, "_fmt", failing_fmt)
    assert run_cli(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (f"cannot write output: "
                                       f"{tmp_path / 'out' / report}: "
                                       f"no space left on device\n")
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "out").iterdir()} == before


@pytest.mark.parametrize("name", ["model.cbf", "cv_scores.tsv"])
def test_train_output_that_cannot_be_written_exits_one(
        name, tiny_run, tmp_path, capsys, monkeypatch):
    """An output that is a directory ends the train with one
    `cannot write output:` line naming it, not a traceback."""
    config, result = tiny_run
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(config.to_dict(),
                                    output_dir=str(tmp_path / "out"))))
    (tmp_path / "out" / name).mkdir(parents=True)
    monkeypatch.setattr(cli, "run_cbf", lambda config: result)
    assert run_cli(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write output: {tmp_path / 'out' / name}: ")
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def cli_train(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_train")
    cfg = tiny_config_dict(tiny_dataset, H=2, K=2, max_rounds=30, patience=10,
                           output_dir=str(out))
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["train", "--config", str(cfg_path)])
    return code, out, cfg


def test_train_writes_all_artifacts(cli_train):
    code, out, _ = cli_train
    assert code == 0
    for name in ("model.cbf", "cv_scores.tsv", "metrics.tsv",
                 "reliability.tsv"):
        assert (out / name).exists(), name


def test_readme_names_the_artifacts_train_writes(cli_train):
    _, out, _ = cli_train
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Artifacts land in `output_dir`:", 1)[1]
    listed = listed.split("\n\n", 1)[0]
    written = {p.name for p in out.iterdir()} - {"config.json"}
    assert set(re.findall(r"`([\w.]+\.\w+)`", listed)) == written
    predict_models = re.findall(r"--model out/(\S+)", readme)
    assert predict_models
    assert set(predict_models) <= written


def test_train_report_shapes(cli_train):
    _, out, cfg = cli_train
    cv_lines = (out / "cv_scores.tsv").read_text().strip().split("\n")
    assert cv_lines[0].split("\t") == [
        "candidate", "lambda1", "lambda2", "cv_fold_0", "cv_fold_1",
        "cv_mean", "selected"]
    assert len(cv_lines) == 1 + cfg["H"]
    selected = [line.split("\t")[-1] for line in cv_lines[1:]]
    assert selected.count("1") == 1

    metric_lines = (out / "metrics.tsv").read_text().strip().split("\n")
    assert metric_lines[0].split("\t") == ["metric", "train", "valid", "test"]
    assert len(metric_lines) == 7  # header + six metrics

    rel_lines = (out / "reliability.tsv").read_text().strip().split("\n")
    assert rel_lines[0].split("\t") == ["bin", "count", "mean_predicted",
                                        "positive_rate"]


def test_train_rerun_byte_identical(cli_train, tiny_dataset, tmp_path):
    _, first_out, cfg = cli_train
    rerun_cfg = dict(cfg, output_dir=str(tmp_path))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(rerun_cfg))
    assert run_cli(["train", "--config", str(cfg_path)]) == 0
    assert ((tmp_path / "cv_scores.tsv").read_bytes()
            == (first_out / "cv_scores.tsv").read_bytes())
    assert ((tmp_path / "metrics.tsv").read_bytes()
            == (first_out / "metrics.tsv").read_bytes())


# SHA-256 of what `cbforest train` writes for the tiny fixture. A change that
# moves a bit of a trained model shows here; one that changes the numbers on
# purpose records the new digests with the reason. They hold for the float
# arithmetic of the numpy and scipy builds the suite runs on (numpy 2.4.6,
# scipy 1.17.1, x86-64).
TRAIN_DIGESTS = {
    "model.cbf":
        "334815af72b134ca26115a015f12823066a17e197c3ac0aec79f1e0b1956e804",
    "cv_scores.tsv":
        "c2298303aa9a9fd0247b79e49128eb06af44f9562d0665552d6937f86af2e012",
    "metrics.tsv":
        "629e1a010406ce4116c41320390220d5b1dbfd945d35d2dafadb102a4e3da28b",
}


def test_train_outputs_match_recorded_digests(tiny_dataset, tmp_path,
                                              monkeypatch):
    # relative paths, since the archive stores the run config
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(tiny_dataset["path"], "train.svm")
    cfg = tiny_config_dict(dict(tiny_dataset, path="train.svm", dir="out"))
    assert cfg["workers"] == 1
    Path("config.json").write_text(json.dumps(cfg))
    assert run_cli(["train", "--config", "config.json"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes())
               .hexdigest() for name in TRAIN_DIGESTS}
    assert digests == TRAIN_DIGESTS


def test_train_h_zero_exits_one(tiny_dataset, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_config_dict(tiny_dataset, H=0)))
    assert run_cli(["train", "--config", str(cfg_path)]) == 1
    assert "H" in capsys.readouterr().err


def test_train_rejects_a_layer2_learning_rate_range(tiny_dataset, tmp_path,
                                                    capsys):
    cfg = tiny_config_dict(tiny_dataset, sampling_ranges={
        "layer2": {"learning_rate": ["log", 0.01, 10.0]}})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["train", "--config", str(cfg_path)]) == 1
    assert ("unknown sampling_ranges entry layer2.learning_rate"
            in capsys.readouterr().err)


def test_train_rejects_too_narrow_layer2_ranges_before_training(
        tiny_dataset, tmp_path, capsys, monkeypatch):
    """Ranges that allow fewer than H distinct layer-2 candidates are a
    config error, found before any base model trains."""
    def no_training(*args, **kwargs):
        raise AssertionError("a base model trained")

    monkeypatch.setattr("cbforest.ensemble.train_layer1", no_training)
    cfg = tiny_config_dict(tiny_dataset, H=2, sampling_ranges={
        "layer2": {"lambda1": ["log", 1, 1], "lambda2": ["log", 1, 1]}})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: could not draw a unique layer-2 "
                          "candidate")
    assert "Traceback" not in err


@pytest.mark.parametrize("layer2", [
    {"tol": 0}, {"max_iter": 0}, {"penalize_intercept": False},
    {"refit": True}], ids=["tol", "max_iter", "penalize_intercept", "refit"])
def test_train_rejects_a_bad_layer2_config_before_training(
        tiny_dataset, tmp_path, capsys, monkeypatch, layer2):
    def no_training(config):
        raise AssertionError("training started")

    monkeypatch.setattr("cbforest.cli.run_cbf", no_training)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_config_dict(
        tiny_dataset, layer2=layer2, output_dir=str(tmp_path / "out"))))
    assert run_cli(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert list(layer2)[0] in err


CONTINUOUS_LABEL = {"kinds": ["binary"], "file_label": "continuous"}


def _ranges(group, name, spec):
    return {"sampling_ranges": {group: {name: spec}}}


@pytest.mark.parametrize("override, named", [
    pytest.param(_ranges("tree", "min_child_weight", ["log", 1]),
                 "sampling_ranges.tree.min_child_weight", id="too_few_bounds"),
    pytest.param(_ranges("tree", "learning_rate", ["log", -1, 0.3]),
                 "sampling_ranges.tree.learning_rate", id="log_bound_below_zero"),
    pytest.param(_ranges("tree", "max_depth", ["int", 5, 2]),
                 "sampling_ranges.tree.max_depth", id="int_lo_above_hi"),
    pytest.param(_ranges("tree", "subsample", ["uniform", 0.5, 2.0]),
                 "sampling_ranges.tree.subsample", id="subsample_above_one"),
    pytest.param({"sampling_ranges": {"tree": []}}, "sampling_ranges.tree",
                 id="group_not_an_object"),
    pytest.param(_ranges("linear", "reg_alpha", ["uniform", -5, -1]),
                 "sampling_ranges.linear.reg_alpha", id="negative_linear_alpha"),
    pytest.param(_ranges("layer2", "lambda1", ["uniform", -1, -0.5]),
                 "sampling_ranges.layer2.lambda1", id="negative_lambda1"),
    pytest.param(_ranges("tree", "max_depth", "deep"),
                 "sampling_ranges.tree.max_depth", id="spec_not_a_list"),
    pytest.param(_ranges("tree", "gamma", ["bogus", 1, 2]),
                 "sampling_ranges.tree.gamma", id="unknown_kind"),
    pytest.param(_ranges("tree", "max_depth", ["uniform", 2, 5]),
                 "sampling_ranges.tree.max_depth", id="max_depth_not_int_kind"),
    pytest.param(_ranges("tree", "max_depth", ["int", 2.5, 4]),
                 "sampling_ranges.tree.max_depth", id="int_kind_float_bound"),
    pytest.param(_ranges("tree", "reg_lambda", ["uniform", 0, float("inf")]),
                 "sampling_ranges.tree.reg_lambda", id="infinite_bound"),
    pytest.param({"label": dict(CONTINUOUS_LABEL, threshold=float("nan"))},
                 "label.threshold", id="threshold_nan"),
    pytest.param({"label": dict(CONTINUOUS_LABEL, threshold=float("inf"))},
                 "label.threshold", id="threshold_infinity"),
    pytest.param({"label": dict(CONTINUOUS_LABEL, threshold=10**400)},
                 "field 'label.threshold'", id="threshold_past_float"),
    pytest.param({"selection_metric": {"kind": "auc_bed", "alpha": float("nan")}},
                 "selection_metric", id="alpha_nan"),
    pytest.param({"seed": -1}, "field 'seed'", id="negative_seed"),
])
def test_train_rejects_a_bad_config_value_at_load(
        tiny_dataset, tmp_path, capsys, monkeypatch, override, named):
    def no_training(config):
        raise AssertionError("training started")

    monkeypatch.setattr("cbforest.cli.run_cbf", no_training)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(tiny_config_dict(
        tiny_dataset, output_dir=str(tmp_path / "out"), **override)))
    assert run_cli(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}")
    assert "Traceback" not in err


def test_train_rejects_an_output_dir_that_is_a_file(tiny_dataset, tmp_path,
                                                   capsys, monkeypatch):
    """An output_dir that names a file, or lies under one, is a config error
    found before any data is read."""
    def no_training(config):
        raise AssertionError("training started")

    monkeypatch.setattr("cbforest.cli.run_cbf", no_training)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    for out in (taken, taken / "sub"):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config_dict(
            tiny_dataset, output_dir=str(out))))
        assert run_cli(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: output_dir is not a directory: {out}\n"
    assert taken.read_text() == "not a directory"


def test_train_invalid_json_exits_one(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{not json")
    assert run_cli(["train", "--config", str(cfg_path)]) == 1


def _train_on_bytes(tmp_path, raw, cfg):
    data = tmp_path / "train.svm"
    data.write_bytes(raw)
    cfg = dict(cfg, train_path=str(data), output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return run_cli(["train", "--config", str(cfg_path)])


BINARY_FILE_CONFIG = {"label": {"kinds": ["binary"], "file_label": "binary"},
                      "H": 1, "K": 2}


def test_train_non_finite_binary_label_exits_two(tmp_path, capsys):
    assert _train_on_bytes(tmp_path, b"inf 0:1\n", BINARY_FILE_CONFIG) == 2
    assert "non-binary label inf at line 1" in capsys.readouterr().err


def test_train_infinite_continuous_label_exits_two(tiny_dataset, tmp_path,
                                                   capsys):
    lines = Path(tiny_dataset["path"]).read_bytes().split(b"\n")
    lines[4] = b" ".join([b"-inf"] + lines[4].split(b" ")[1:])
    code = _train_on_bytes(tmp_path, b"\n".join(lines),
                           tiny_config_dict(tiny_dataset))
    assert code == 2
    assert "infinite label -inf in row 5 of" in capsys.readouterr().err


def test_undecodable_input_exits_two(cli_train, tmp_path, capsys):
    raw = b"1 0:1\n0 0:\xff\n"
    assert _train_on_bytes(tmp_path, raw, BINARY_FILE_CONFIG) == 2
    assert "train.svm is not UTF-8 text" in capsys.readouterr().err
    _, out, _ = cli_train
    assert run_cli(["predict", "--model", str(out / "model.cbf"),
                    "--input", str(tmp_path / "train.svm"),
                    "--output", str(tmp_path / "scores.tsv")]) == 2
    assert "train.svm is not UTF-8 text" in capsys.readouterr().err


def test_train_feature_index_past_int64_exits_two(tmp_path, capsys):
    raw = b"1 99999999999999999999:1\n0 0:1\n"
    assert _train_on_bytes(tmp_path, raw, BINARY_FILE_CONFIG) == 2
    assert ("data error: feature index 99999999999999999999 exceeds"
            in capsys.readouterr().err)


def test_predict_unreadable_input_exits_two(cli_train, tmp_path, capsys):
    _, out, _ = cli_train
    for path in (tmp_path / "missing.svm", tmp_path):
        assert run_cli(["predict", "--model", str(out / "model.cbf"),
                        "--input", str(path),
                        "--output", str(tmp_path / "scores.tsv")]) == 2
        assert (capsys.readouterr().err.startswith(
            f"data error: cannot read {path}: "))


# ------------------------------------------------------------ cmd_predict

def test_predict_unwritable_output_exits_one(cli_train, tiny_dataset,
                                             tmp_path, capsys):
    _, out, _ = cli_train
    for path in (tmp_path / "missing" / "scores.tsv", tmp_path):
        assert run_cli(["predict", "--model", str(out / "model.cbf"),
                        "--input", tiny_dataset["path"],
                        "--output", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ")
        assert str(path) in err and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_failed_predict_write_keeps_the_previous_output(
        cli_train, tiny_dataset, tmp_path, capsys, monkeypatch):
    _, out, _ = cli_train
    path = tmp_path / "scores.tsv"
    argv = ["predict", "--model", str(out / "model.cbf"),
            "--input", tiny_dataset["path"], "--output", str(path)]
    assert run_cli(argv) == 0
    before = path.read_bytes()

    def fail(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", fail)
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == (f"cannot write output: {path}: "
                                       f"no space left on device\n")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scores.tsv"]


def test_predict_writes_through_a_symbolic_link(cli_train, tiny_dataset,
                                                tmp_path):
    _, out, _ = cli_train
    (tmp_path / "link.tsv").symlink_to(tmp_path / "scores.tsv")
    assert run_cli(["predict", "--model", str(out / "model.cbf"),
                    "--input", tiny_dataset["path"],
                    "--output", str(tmp_path / "link.tsv")]) == 0
    assert (tmp_path / "link.tsv").is_symlink()
    assert (tmp_path / "scores.tsv").read_text().startswith(
        "row_id\tprobability\n")


def test_predict_writes_into_a_pipe(cli_train, tiny_dataset, tmp_path):
    """An `--output` that is a named pipe is written in place, not replaced
    by a file."""
    _, out, _ = cli_train
    argv = ["predict", "--model", str(out / "model.cbf"),
            "--input", tiny_dataset["path"]]
    assert run_cli(argv + ["--output", str(tmp_path / "scores.tsv")]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a read-write end held open here lets both ends open without waiting
    hold = os.open(fifo, os.O_RDWR)
    got = []
    with open(fifo, "rb") as f:
        reader = threading.Thread(target=lambda: got.append(f.read()),
                                  daemon=True)
        reader.start()
        try:
            code = run_cli(argv + ["--output", str(fifo)])
        finally:
            os.close(hold)
            reader.join(60)
    assert code == 0
    assert got == [(tmp_path / "scores.tsv").read_bytes()]
    assert fifo.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "scores.tsv"]


def test_predict_writes_to_dev_stdout(cli_train, tiny_dataset, tmp_path):
    _, out, _ = cli_train
    argv = ["predict", "--model", str(out / "model.cbf"),
            "--input", tiny_dataset["path"]]
    assert run_cli(argv + ["--output", str(tmp_path / "scores.tsv")]) == 0
    src = str(Path(cbforest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cbforest.cli import main; "
         "main(sys.argv[1:])", *argv, "--output", "/dev/stdout"],
        capture_output=True, env=env, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (tmp_path / "scores.tsv").read_bytes()


def test_predict_contract(cli_train, tiny_dataset, tmp_path):
    _, out, _ = cli_train
    out_path = tmp_path / "scores.tsv"
    code = run_cli(["predict", "--model", str(out / "model.cbf"),
                    "--input", tiny_dataset["path"],
                    "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "row_id\tprobability"
    n_input = len(Path(tiny_dataset["path"]).read_text().strip().split("\n"))
    assert len(lines) == 1 + n_input
    assert [line.split("\t")[0] for line in lines[1:]] == [
        f"r{i}" for i in range(n_input)]
    probs = [float(line.split("\t")[1]) for line in lines[1:]]
    assert all(0.0 < p < 1.0 for p in probs)


def test_tsv_cells_format_floats_by_repr_and_nan_as_na():
    assert cli._fmt(np.float64(0.1)) == "0.1"
    assert cli._fmt(0.1) == "0.1"
    assert cli._fmt(float("nan")) == "NA"
    assert cli._fmt(np.float64("nan")) == "NA"
    assert cli._fmt(3) == "3"
    assert cli._fmt("r7") == "r7"


def test_predict_corrupted_archive_exits_two(cli_train, tiny_dataset,
                                             tmp_path):
    _, out, _ = cli_train
    bad = tmp_path / "bad.cbf"
    raw = bytearray((out / "model.cbf").read_bytes())
    idx = raw.index(b'"base_score"') + 20
    raw[idx:idx + 1] = b"7" if raw[idx:idx + 1] != b"7" else b"3"
    bad.write_bytes(bytes(raw))
    code = run_cli(["predict", "--model", str(bad),
                    "--input", tiny_dataset["path"],
                    "--output", str(tmp_path / "x.tsv")])
    assert code == 2


def test_an_unmapped_exception_exits_four_with_one_line(
        tiny_dataset, tmp_path, capsys, monkeypatch):
    """A fault that no command maps to a code, such as running out of
    memory, exits 4, not the config-error code 1, and prints one line, not a
    traceback."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(tiny_config_dict(
        tiny_dataset, output_dir=str(tmp_path / "out"))))

    def fail(config):
        raise RuntimeError("no model\nfor you")

    monkeypatch.setattr(cli, "run_cbf", fail)
    assert run_cli(["train", "--config", str(cfg_path)]) == 4
    assert capsys.readouterr().err == ("internal error: RuntimeError: no model "
                                       "for you\n")
    assert not (tmp_path / "out").exists()


# Runs the CLI on its arguments, then prints its exit code and the modules
# the process loaded as the last line of stdout.
_MODULES_AFTER_CLI = """
import json, sys
from cbforest.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    print(json.dumps([exc.code, sorted(sys.modules)]))
"""


def test_train_and_predict_load_neither_scipy_stats_nor_optimize(
        tiny_dataset, tmp_path):
    # each would cost a run that never calls it time and memory at start-up
    cfg = tiny_config_dict(tiny_dataset, H=2, K=2, max_rounds=30,
                           patience=10, output_dir=str(tmp_path))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(cbforest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for argv in (["train", "--config", str(cfg_path)],
                 ["predict", "--model", str(tmp_path / "model.cbf"),
                  "--input", tiny_dataset["path"],
                  "--output", str(tmp_path / "scores.tsv")]):
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_AFTER_CLI, *argv],
            capture_output=True, text=True, env=env, timeout=600, check=False)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.strip().split("\n")[-1])
        assert code == 0, proc.stderr
        assert "cbforest.metrics" in modules
        assert "cbforest.elastic_net" in modules
        assert [m for m in modules
                if m.split(".")[:2] in (["scipy", "stats"],
                                        ["scipy", "optimize"])] == []


# ----------------------------------------------------------- cmd_evaluate

def write_lines(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def test_evaluate_scores_equal_labels(tmp_path, capsys):
    labels = [1, 0, 1, 0, 0, 0, 1, 0]
    write_lines(tmp_path / "s.txt", labels)
    write_lines(tmp_path / "l.txt", labels)
    assert run_cli(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--labels", str(tmp_path / "l.txt"), "--auc-roc"]) == 0
    out = capsys.readouterr().out
    assert "auc_roc\t1.0" in out


def test_evaluate_ef_frozen_example(tmp_path, capsys):
    scores = list(np.linspace(1.0, 0.01, 100))
    labels = [0] * 100
    labels[0] = 1
    for i in range(50, 59):
        labels[i] = 1
    write_lines(tmp_path / "s.txt", scores)
    write_lines(tmp_path / "l.txt", labels)
    assert run_cli(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--labels", str(tmp_path / "l.txt"), "--ef", "0.01"]) == 0
    assert "ef@0.01\t10.0" in capsys.readouterr().out


def test_evaluate_unknown_metric_flag(tmp_path, capsys):
    write_lines(tmp_path / "s.txt", [1, 0])
    write_lines(tmp_path / "l.txt", [1, 0])
    assert run_cli(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--labels", str(tmp_path / "l.txt"), "--auc-xyz"]) == 1
    assert "usage" in capsys.readouterr().err


def test_evaluate_length_mismatch(tmp_path):
    write_lines(tmp_path / "s.txt", [1, 0, 1])
    write_lines(tmp_path / "l.txt", [1, 0])
    assert run_cli(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--labels", str(tmp_path / "l.txt"), "--auc-roc"]) == 2


def test_evaluate_unreadable_input_exits_two(tmp_path, capsys):
    write_lines(tmp_path / "l.txt", [1, 0])
    (tmp_path / "bad.txt").write_bytes(b"0.5\n0.\xff\n")
    for path, message in ((tmp_path / "missing.txt", "cannot read {}: "),
                          (tmp_path, "cannot read {}: "),
                          (tmp_path / "bad.txt", "{} is not UTF-8 text")):
        for scores, labels in ((path, tmp_path / "l.txt"),
                               (tmp_path / "l.txt", path)):
            assert run_cli(["evaluate", "--scores", str(scores),
                            "--labels", str(labels), "--auc-roc"]) == 2
            assert capsys.readouterr().err.startswith(
                "error: " + message.format(path))


def test_evaluate_reliability_table(tmp_path, capsys):
    g = np.random.default_rng(0)
    scores = g.random(40)
    labels = (g.random(40) < 0.4).astype(int)
    write_lines(tmp_path / "s.txt", list(scores))
    write_lines(tmp_path / "l.txt", list(labels))
    assert run_cli(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--labels", str(tmp_path / "l.txt"),
                    "--reliability"]) == 0
    out = capsys.readouterr().out
    assert "bin\tcount\tmean_predicted\tpositive_rate" in out
    assert len(out.strip().split("\n")) >= 11


@pytest.mark.parametrize("flag", ["--reliability", "--reliability-score"])
@pytest.mark.parametrize("n_bins", ["0", "-1"])
def test_evaluate_n_bins_below_one_is_a_usage_error(tmp_path, capsys, flag,
                                                    n_bins):
    write_lines(tmp_path / "s.txt", [0.1, 0.9, 0.3, 0.7])
    write_lines(tmp_path / "l.txt", [0, 1, 0, 1])
    assert run_cli(["evaluate", "--scores", str(tmp_path / "s.txt"),
                    "--labels", str(tmp_path / "l.txt"), flag,
                    "--n-bins", n_bins]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: argument --n-bins: must be at least 1, got {n_bins}"
            in captured.err)


# -------------------------------------------------------------- cmd_synth

def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.svm", tmp_path / "b.svm"
    for path in (a, b):
        assert run_cli(["synth", "--out", str(path), "--n", "500",
                        "--pos-rate", "0.05", "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_positive_count_within_binomial_bound(tmp_path):
    path = tmp_path / "d.svm"
    assert run_cli(["synth", "--out", str(path), "--n", "5000",
                    "--pos-rate", "0.01", "--seed", "1"]) == 0
    meta = json.loads((tmp_path / "d.svm.meta.json").read_text())
    assert 25 <= meta["n_positive"] <= 75


def test_synth_invalid_rate(tmp_path):
    assert run_cli(["synth", "--out", str(tmp_path / "d.svm"), "--n", "100",
                    "--pos-rate", "1.5"]) == 2
