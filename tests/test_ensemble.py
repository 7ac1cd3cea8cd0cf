"""Stacking pipeline tests: sampling, layer-1 grids, MD assembly, layer-2."""
import dataclasses
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import sparse

from cbforest import ensemble
from cbforest.config import ConfigError, RunConfig
from cbforest.data import (DataError, LabelMapping, SparseDataset, binarize,
                           stratified_kfold)
from cbforest.elastic_net import predict_proba
from cbforest.ensemble import (CbfModel, CvScore, Layer1Bundle, Layer1Record,
                               Layer2Data, assemble_md, derive_seed, layer1_cv,
                               layer1_feature_matrix, predict_cbf, run_cbf,
                               sample_hyperparams, sample_layer2_params,
                               train_layer1, train_layer2)
from cbforest.gbm import (BLOCK_ROWS, GBLINEAR, GBTREE, LOGISTIC, QUADRATIC,
                          GbmModel, LinearHyperParams, TreeHyperParams,
                          predict_gbm, train_gbm)
from cbforest.metrics import MetricSpec, logloss
from cbforest.persistence import load_archive, save_archive

from _oracles import per_model_boosting_oracle
from conftest import tiny_config_dict


def make_binary_dataset(n=200, n_features=20, seed=0):
    g = np.random.default_rng(seed)
    X = (g.random((n, n_features)) < 0.25).astype(float)
    z = 2.0 * X[:, 0] + X[:, 1] - X[:, 2] + g.normal(0, 0.5, n)
    y = (z > 1.0).astype(int)
    if y.sum() < 2:
        y[:2] = 1
    if y.sum() > n - 2:
        y[-2:] = 0
    rows = [[(j, v) for j, v in enumerate(r) if v != 0.0] for r in X]
    return SparseDataset.from_rows(rows, n_cols=n_features, binary_labels=y)


# ------------------------------------------------------ hyperparameters

def test_sample_hyperparams_deterministic_and_distinct():
    a = sample_hyperparams(3, seed=5)
    b = sample_hyperparams(3, seed=5)
    assert a == b
    assert len(set(a)) == 3


def test_sample_hyperparams_alternate_mix():
    samples = sample_hyperparams(4, seed=2)
    assert [type(s) for s in samples] == [TreeHyperParams, LinearHyperParams,
                                          TreeHyperParams, LinearHyperParams]


def test_sample_hyperparams_single_sample_is_gbtree():
    samples = sample_hyperparams(1, seed=9)
    assert isinstance(samples[0], TreeHyperParams)


def test_sample_hyperparams_seed_sensitivity():
    assert sample_hyperparams(2, seed=0) != sample_hyperparams(2, seed=1)


def test_sample_hyperparams_fixed_booster_mix():
    samples = sample_hyperparams(3, seed=0, booster_mix=GBLINEAR)
    assert all(isinstance(s, LinearHyperParams) for s in samples)


def test_sample_hyperparams_ranges_within_bounds():
    for p in sample_hyperparams(20, seed=3):
        if isinstance(p, TreeHyperParams):
            assert 0.01 <= p.learning_rate <= 0.3
            assert 3 <= p.max_depth <= 10
            assert 0.5 <= p.subsample <= 1.0
            assert 0.1 <= p.reg_lambda <= 100.0
            assert p.gamma == 0.0 or 1e-3 <= p.gamma <= 10.0
        else:
            assert isinstance(p, LinearHyperParams)
            assert 1e-3 <= p.reg_lambda <= 100.0


def test_sample_hyperparams_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_hyperparams(0, seed=0)
    with pytest.raises(ConfigError):
        sample_hyperparams(1, seed=0, ranges={"nope": {}})
    with pytest.raises(ConfigError):
        sample_hyperparams(1, seed=0, ranges={"tree": {"bogus": ("log", 1, 2)}})


def test_derive_seed_deterministic_and_key_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(0, 1) != derive_seed(1, 0)


# ------------------------------------------------------------- layer 1

@pytest.fixture(scope="module")
def small_layer1():
    ds = make_binary_dataset(n=160, seed=4)
    folds = stratified_kfold(ds.binary_labels, 2, seed=0)
    samples = sample_hyperparams(1, seed=7)
    [bundle], [record] = train_layer1(ds, ["binary"], folds, samples,
                                      MetricSpec(kind="auc_roc"), patience=10,
                                      max_rounds=30, master_seed=7)
    return ds, folds, bundle, record


def test_layer1_h1_k2_structure(small_layer1):
    ds, folds, bundle, record = small_layer1
    assert len(bundle.models) == 1
    assert len(bundle.models[0]) == 2
    assert len(record.logs) == 1 and len(record.logs[0]) == 2
    assert record.oof_columns.shape == (ds.n_rows, 1)


def test_layer1_out_of_fold_purity(small_layer1):
    ds, folds, bundle, record = small_layer1
    for k in range(folds.K):
        va = folds.valid_rows(k)
        expected = predict_gbm(bundle.models[0][k], ds.subset(va))
        assert np.array_equal(record.oof_columns[va, 0], expected)


def test_layer1_binary_scores_in_unit_interval(small_layer1):
    record = small_layer1[3]
    col = record.oof_columns[:, 0]
    assert (col > 0.0).all() and (col < 1.0).all()


@pytest.fixture(scope="module")
def dual_layer1():
    """Both label kinds trained in one call, on one worker and on two."""
    g = np.random.default_rng(5)
    X = (g.random((160, 12)) < 0.3).astype(float)
    z = 2.0 * X[:, 0] - X[:, 1] + g.normal(0, 0.5, 160)
    rows = [[(j, v) for j, v in enumerate(r) if v != 0.0] for r in X]
    ds = SparseDataset.from_rows(
        rows, n_cols=12, continuous_labels=z,
        binary_labels=binarize(z, LabelMapping(0.8, "greater_is_positive")))
    folds = stratified_kfold(ds.binary_labels, 2, seed=0)
    samples = sample_hyperparams(2, seed=7)
    runs = {w: train_layer1(ds, ["binary", "continuous"], folds, samples,
                            MetricSpec(kind="auc_roc"), patience=10,
                            max_rounds=30, master_seed=7, workers=w)
            for w in (1, 2)}
    return ds, folds, samples, runs


def test_layer1_worker_count_independence(dual_layer1):
    _, _, _, runs = dual_layer1
    (_, r1), (b2, r2) = runs[1], runs[2]
    assert [r.label_kind for r in r1] == ["binary", "continuous"]
    assert [b.label_kind for b in b2] == ["binary", "continuous"]
    for a, b in zip(r1, r2):
        assert np.array_equal(a.oof_columns, b.oof_columns)
        assert a.logs == b.logs


def test_layer1_model_seed_is_kind_position_h_k(dual_layer1):
    """Model (kind, h, k) is `train_gbm` seeded from (master_seed, position
    of its kind, h, k), with its kind's loss."""
    ds, folds, samples, runs = dual_layer1
    bundles, records = runs[1]
    for tag, loss in enumerate((LOGISTIC, QUADRATIC)):
        for h, k in ((0, 1), (1, 0)):
            tr, va = folds.train_rows(k), folds.valid_rows(k)
            model, log = train_gbm(ds.subset(tr), ds.subset(va), samples[h],
                                   loss, MetricSpec(kind="auc_roc"),
                                   patience=10, max_rounds=30,
                                   seed=derive_seed(7, tag, h, k))
            assert records[tag].logs[h][k] == log
            assert bundles[tag].models[h][k].loss == loss
            assert np.array_equal(records[tag].oof_columns[va, h],
                                  predict_gbm(model, ds.subset(va)))


def test_layer1_matches_per_model_boosting(dual_layer1):
    """Every base model of both kinds, its log and its out-of-fold column
    are, bit for bit, those of the model boosted alone over its fold's
    subsets by the previous per-model loop, seeded from (master_seed,
    position of its kind, h, k)."""
    ds, folds, samples, runs = dual_layer1
    bundles, records = runs[1]
    for tag, loss in enumerate((LOGISTIC, QUADRATIC)):
        for h, params in enumerate(samples):
            for k in range(folds.K):
                va = folds.valid_rows(k)
                model, log = per_model_boosting_oracle(
                    ds.subset(folds.train_rows(k)), ds.subset(va), params,
                    loss, MetricSpec(kind="auc_roc"), patience=10,
                    max_rounds=30, seed=derive_seed(7, tag, h, k))
                assert records[tag].logs[h][k] == log
                assert (pickle.dumps(bundles[tag].models[h][k])
                        == pickle.dumps(model))
                assert (records[tag].oof_columns[va, h].tobytes()
                        == predict_gbm(model, ds.subset(va)).tobytes())


def test_layer1_pool_has_at_most_one_worker_per_task(small_layer1,
                                                     monkeypatch):
    """The pool gets one task per (label kind, sample), whose folds split
    into contiguous groups only when there are more workers than such
    tasks, and no more workers than tasks. Two samples of one kind and
    K = 2: two tasks of two folds at `workers = 2`; four of one fold at 3,
    in a pool of 3, and at 8, in a pool of 4. The results do not depend on
    it."""
    ds, folds, _, _ = small_layer1
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            # each task's folds, as (train rows, valid rows) pairs
            pools[-1].append([len(t[1]) for t in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", RecordingPool)
    samples = sample_hyperparams(2, seed=7)
    runs = [train_layer1(ds, ["binary"], folds, samples,
                         MetricSpec(kind="auc_roc"), patience=10,
                         max_rounds=30, master_seed=7, workers=w)
            for w in (1, 2, 3, 8)]
    assert pools == [[2, [2, 2]], [3, [1, 1, 1, 1]], [4, [1, 1, 1, 1]]]
    (serial_bundle, [serial]) = runs[0]
    for bundles, [pooled] in runs[1:]:
        assert serial.logs == pooled.logs
        assert serial.oof_columns.tobytes() == pooled.oof_columns.tobytes()
        assert (pickle.dumps(serial_bundle[0].models)
                == pickle.dumps(bundles[0].models))


def test_layer1_pool_results_are_their_six_fields(dual_layer1):
    """A base model sent back by a pool worker carries nothing but its six
    fields: it pickles to the bytes of the model rebuilt from them."""
    ds, folds, _, runs = dual_layer1
    bundles, records = runs[2]
    models = [m for b in bundles for row in b.models for m in row]
    assert {m.booster for m in models if m.learners} == {GBTREE, GBLINEAR}
    for m in models:
        rebuilt = GbmModel(booster=m.booster, loss=m.loss,
                           base_score=m.base_score,
                           learning_rate=m.learning_rate, learners=m.learners,
                           n_cols=m.n_cols)
        assert pickle.dumps(m) == pickle.dumps(rebuilt)
    va = folds.valid_rows(0)
    assert np.array_equal(predict_gbm(bundles[0].models[0][0], ds.subset(va)),
                          records[0].oof_columns[va, 0])


def test_layer1_cv_mean_property(small_layer1):
    ds, folds, _, record = small_layer1
    cv = layer1_cv(record, folds, ds.binary_labels, MetricSpec(kind="auc_roc"))
    assert cv.per_fold.shape == (1, 2)
    assert cv.mean[0] == pytest.approx(cv.per_fold[0].mean(), abs=1e-15)


# ---------------------------------------------------------- assemble_md

def fake_bundle(kind, cols):
    return Layer1Record(label_kind=kind, samples=[], logs=[],
                        oof_columns=np.asarray(cols, dtype=float))


def test_assemble_md_dual_bundle_width_and_order():
    n = 4
    binary = fake_bundle("binary", np.full((n, 5), 0.25))
    cont = fake_bundle("continuous", np.full((n, 5), 7.0))
    y = np.array([1, 0, 1, 0])
    md = assemble_md([cont, binary], y)  # binary columns must come first
    assert md.X.shape == (4, 10)
    assert (md.X[:, :5] == 0.25).all()
    assert (md.X[:, 5:] == 7.0).all()
    assert md.columns[0] == ("binary", 0)
    assert md.columns[5] == ("continuous", 0)
    assert np.array_equal(md.y, y)


def test_assemble_md_single_binary_bundle():
    md = assemble_md([fake_bundle("binary", np.zeros((6, 3)))],
                     np.array([1, 0, 0, 1, 0, 0]))
    assert md.X.shape == (6, 3)


def test_assemble_md_row_mismatch():
    with pytest.raises(DataError):
        assemble_md([fake_bundle("binary", np.zeros((6, 2)))],
                    np.array([1, 0, 0]))


# -------------------------------------------------------------- layer 2

def make_md(seed=0, n=300, width=2):
    g = np.random.default_rng(seed)
    y = (g.random(n) < 0.25).astype(int)
    y[0], y[1] = 1, 0
    X = np.clip(0.1 + 0.6 * y[:, None] + g.normal(0, 0.15, (n, width)),
                0.001, 0.999)
    return Layer2Data(X=X, y=y, columns=[("binary", h) for h in range(width)])


def test_train_layer2_h1_selects_only_candidate():
    md = make_md()
    folds = stratified_kfold(md.y, 3, seed=1)
    sel = train_layer2(md, folds, sample_layer2_params(1, seed=0),
                       metric=MetricSpec(kind="auc_prc"), tol=1e-6,
                       max_iter=20000)
    assert sel.selected_index == 0
    assert len(sel.fold_models) == 3
    assert sel.cv.per_fold.shape == (1, 3)


def test_train_layer2_tie_breaks_to_lowest_index():
    # a constant score column makes every candidate's CV identical
    g = np.random.default_rng(2)
    y = (g.random(120) < 0.3).astype(int)
    y[0], y[1] = 1, 0
    md = Layer2Data(X=np.full((120, 1), 0.5), y=y, columns=[("binary", 0)])
    folds = stratified_kfold(y, 2, seed=0)
    sel = train_layer2(md, folds, sample_layer2_params(3, seed=0),
                       metric=MetricSpec(kind="auc_prc"), tol=1e-6,
                       max_iter=20000)
    assert (sel.cv.mean == sel.cv.mean[0]).all()
    assert sel.selected_index == 0


def test_train_layer2_selection_is_argmax_of_mean(tiny_run):
    _, result = tiny_run
    sel = result.record.layer2
    oriented = sel.cv.mean  # selection metric auc_prc: larger is better
    assert sel.selected_index == int(np.argmax(oriented))
    assert np.array_equal(sel.cv.mean, sel.cv.per_fold.mean(axis=1))


def test_train_layer2_converges_on_every_fit(tiny_run, monkeypatch):
    config, result = tiny_run
    fit, fits = ensemble.fit_elastic_net, []

    def recording_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(ensemble, "fit_elastic_net", recording_fit)
    md = assemble_md(result.record.bundles, result.train_data.binary_labels)
    candidates = sample_layer2_params(config.H, derive_seed(config.seed, 4))
    sel = train_layer2(md, result.record.folds, candidates,
                       config.selection_metric,
                       max_iter=config.layer2.max_iter, tol=config.layer2.tol)
    assert len(fits) == config.H * config.K
    assert all(m.converged for m in fits)
    assert np.array_equal(sel.cv.per_fold, result.record.layer2.cv.per_fold)


def test_train_layer2_calibration_sanity():
    # one column already equals the true Bernoulli parameter; the stacked
    # calibration should not lose more than 1% logloss against it
    g = np.random.default_rng(13)
    n = 4000
    p = g.uniform(0.05, 0.6, n)
    y = (g.random(n) < p).astype(int)
    md = Layer2Data(X=p[:, None], y=y, columns=[("binary", 0)])
    folds = stratified_kfold(y, 3, seed=0)
    sel = train_layer2(md, folds, sample_layer2_params(2, seed=1),
                       metric=MetricSpec(kind="logloss"), tol=1e-6,
                       max_iter=20000)
    p_test = g.uniform(0.05, 0.6, n)
    y_test = (g.random(n) < p_test).astype(int)
    preds = np.mean([predict_proba(m.beta, p_test[:, None])
                     for m in sel.fold_models], axis=0)
    assert logloss(preds, y_test) <= 1.01 * logloss(p_test, y_test)


def test_train_layer2_column_permutation_invariance():
    md = make_md(seed=5, width=3)
    folds = stratified_kfold(md.y, 2, seed=0)
    kwargs = dict(candidates=sample_layer2_params(2, seed=3),
                  metric=MetricSpec(kind="auc_prc"), tol=1e-6, max_iter=20000)
    sel = train_layer2(md, folds, **kwargs)
    perm = Layer2Data(X=md.X[:, [2, 0, 1]], y=md.y,
                      columns=[md.columns[i] for i in (2, 0, 1)])
    sel_p = train_layer2(perm, folds, **kwargs)
    assert np.allclose(sel.cv.per_fold, sel_p.cv.per_fold, atol=1e-9)
    assert sel.selected_index == sel_p.selected_index


# ------------------------------------------------------------ prediction

def test_fold_averaging_arithmetic():
    # two zero-learner quadratic fold models with base scores 0.2 and 0.4
    def stub(base):
        return GbmModel(booster=GBTREE, loss=QUADRATIC, base_score=base,
                        learning_rate=0.1, learners=[], n_cols=3)
    bundle = Layer1Bundle(label_kind="continuous",
                          models=[[stub(0.2), stub(0.4)]])
    model = CbfModel(bundles=[bundle], layer2_betas=[np.zeros(2)],
                     column_order=[("continuous", 0)])
    ds = SparseDataset.from_rows([[(0, 1.0)], []], n_cols=3,
                                 binary_labels=[1, 0])
    X = layer1_feature_matrix(model, ds)
    assert np.allclose(X, 0.3)


def test_predict_cbf_output_contract(tiny_run):
    _, result = tiny_run
    preds = predict_cbf(result.model, result.train_data)
    assert preds.shape == (result.train_data.n_rows,)
    assert (preds > 0.0).all() and (preds < 1.0).all()


def test_layer1_rows_one_at_a_time_equal_the_batch(tiny_run):
    # more rows than one value-lookup block, so the batch spans two blocks
    _, result = tiny_run
    train = result.train_data
    data = train.subset(np.arange(BLOCK_ROWS + 100) % train.n_rows)
    batch = layer1_feature_matrix(result.model, data)
    one_by_one = np.vstack([layer1_feature_matrix(result.model,
                                                  data.subset([i]))
                            for i in range(data.n_rows)])
    assert np.array_equal(one_by_one, batch)


def test_predict_cbf_rows_one_at_a_time_equal_the_batch(tiny_run):
    _, result = tiny_run
    model = result.model
    data = result.train_data
    batch = predict_cbf(model, data)
    one_by_one = [predict_cbf(model, data.subset([i]))[0]
                  for i in range(data.n_rows)]
    assert np.array_equal(one_by_one, batch)


def test_rows_one_at_a_time_equal_the_batch_with_eight_folds(tiny_dataset):
    """With K >= 8, a mean over K values adds them pairwise for one row and
    in order for a batch; prediction adds them in order for both."""
    result = run_cbf(RunConfig.from_dict(tiny_config_dict(tiny_dataset,
                                                          K=8)))
    model, data = result.model, result.train_data
    assert len(model.layer2_betas) == len(model.bundles[0].models[0]) == 8
    X = layer1_feature_matrix(model, data)
    batch = predict_cbf(model, data)
    for i in range(data.n_rows):
        row = data.subset([i])
        assert layer1_feature_matrix(model, row).tobytes() == X[i].tobytes()
        assert predict_cbf(model, row).tobytes() == batch[i].tobytes()


def test_loaded_model_builds_its_scorer_once(tiny_run, tmp_path,
                                             monkeypatch):
    config, result = tiny_run
    save_archive(tmp_path / "model.cbf", result.model, config.to_dict())
    model, _ = load_archive(tmp_path / "model.cbf")
    built = []

    class CountingScorer(ensemble._Scorer):
        def __init__(self, models):
            built.append(len(models))
            super().__init__(models)

    monkeypatch.setattr(ensemble, "_Scorer", CountingScorer)
    train_pred = predict_cbf(model, result.train_data)
    test_pred = predict_cbf(model, result.test_data)
    assert built == [sum(len(row) for b in model.bundles for row in b.models)]
    assert train_pred.tobytes() == result.train_pred.tobytes()
    assert test_pred.tobytes() == result.test_pred.tobytes()


def test_predict_cbf_reads_csr_arrays_only(tiny_run, monkeypatch):
    """The scorer fills its tables from the dataset's CSR arrays, for one
    row and for a library of two blocks: neither the dataset's CSC nor
    scipy's conversion to it is ever built."""
    _, result = tiny_run
    data = result.test_data
    library = data.subset(np.arange(BLOCK_ROWS + 100) % data.n_rows)
    expected = predict_cbf(result.model, library)

    def no_csc(self):
        raise AssertionError("the scorer built a CSC")

    monkeypatch.setattr(SparseDataset, "to_csc", no_csc)
    monkeypatch.setattr(sparse.csr_matrix, "tocsc", no_csc)
    fresh = dataclasses.replace(result.model)   # builds its own scorer
    assert predict_cbf(fresh, library).tobytes() == expected.tobytes()
    row = predict_cbf(fresh, library.subset([BLOCK_ROWS + 7]))
    assert row.tobytes() == expected[BLOCK_ROWS + 7:BLOCK_ROWS + 8].tobytes()


def test_predict_cbf_differs_from_oof_training_values(tiny_run):
    # OOF columns come from the opposite folds' models; prediction averages
    # all folds, so they differ wherever the base models learned anything
    _, result = tiny_run
    oof = np.column_stack([b.oof_columns for b in result.record.bundles])
    X = layer1_feature_matrix(result.model, result.train_data)
    informative = [c for c in range(X.shape[1]) if X[:, c].std() > 0]
    assert informative
    for c in informative:
        assert not np.array_equal(X[:, c], oof[:, c])


def test_predict_cbf_manifest_mismatch(tiny_run):
    _, result = tiny_run
    model = result.model
    broken = dataclasses.replace(
        model, column_order=list(reversed(model.column_order)))
    with pytest.raises(DataError):
        predict_cbf(broken, result.train_data)


# ---------------------------------------------------------------- run_cbf

def test_run_cbf_dual_label_width(tiny_run):
    config, result = tiny_run
    assert len(result.model.column_order) == 2 * config.H
    binary_cols = [c for c in result.model.column_order if c[0] == "binary"]
    assert result.model.column_order[:len(binary_cols)] == binary_cols


def test_run_cbf_reports_all_six_metrics(tiny_run):
    _, result = tiny_run
    assert set(result.metrics_report) == {
        "auc_roc", "auc_prc", "auc_bed(alpha=20)", "ef@0.01", "logloss",
        "reliability_score"}
    for row in result.metrics_report.values():
        assert set(row) == {"train", "valid", "test"}


def test_run_cbf_binary_only_width(tiny_dataset):
    cfg = tiny_config_dict(
        tiny_dataset, H=1, max_rounds=30, patience=10,
        label={"kinds": ["binary"], "file_label": "continuous",
               "threshold": tiny_dataset["threshold"]})
    result = run_cbf(RunConfig.from_dict(cfg))
    assert len(result.model.column_order) == 1
    assert result.model.column_order[0][0] == "binary"


def test_run_cbf_deterministic(tiny_dataset):
    cfg = RunConfig.from_dict(tiny_config_dict(tiny_dataset, H=1,
                                               max_rounds=30, patience=10))
    a = run_cbf(cfg)
    b = run_cbf(cfg)
    assert np.array_equal(a.test_pred, b.test_pred)
    assert np.array_equal(a.record.layer2.cv.per_fold,
                          b.record.layer2.cv.per_fold)


def test_run_cbf_trains_layer1_in_one_pool(tiny_dataset, monkeypatch):
    """A dual-label run with two workers trains both label kinds' grids in
    one process pool."""
    pools = []

    def counted_pool(*args, **kwargs):
        pools.append(kwargs)
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", counted_pool)
    cfg = tiny_config_dict(tiny_dataset, H=1, max_rounds=30, patience=10,
                           workers=2)
    result = run_cbf(RunConfig.from_dict(cfg))
    assert [b.label_kind for b in result.model.bundles] == ["binary",
                                                            "continuous"]
    assert pools == [{"max_workers": 2}]


def test_run_cbf_record_is_independent_of_worker_count(tiny_dataset, tiny_run):
    config, result = tiny_run
    assert config.workers == 1
    again = run_cbf(RunConfig.from_dict(tiny_config_dict(tiny_dataset,
                                                         workers=2)))
    a, b = result.record, again.record
    assert len(a.bundles) == len(b.bundles) == 2
    for ra, rb in zip(a.bundles, b.bundles):
        # each TrainingLog: per-round valid scores and optimal round
        assert ra.logs == rb.logs
        assert np.array_equal(ra.oof_columns, rb.oof_columns)
    assert np.array_equal(a.layer2.cv.per_fold, b.layer2.cv.per_fold)
    assert a.layer2.selected_index == b.layer2.selected_index
    assert ([(f.converged, f.n_iter) for f in a.layer2.fold_models]
            == [(f.converged, f.n_iter) for f in b.layer2.fold_models])
