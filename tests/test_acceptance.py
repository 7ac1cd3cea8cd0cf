"""End-to-end acceptance gate.

Each test exercises one release criterion and appends a PASS/FAIL verdict
line to the terminal summary (see conftest.ACCEPTANCE_LINES). The later
criteria train full ensembles over several seeds, so this file is by far
the slowest in the suite; run it separately when iterating.
"""
import dataclasses
import json
import os
import time

import numpy as np
import pytest

from cbforest.config import RunConfig
from cbforest.data import stratified_kfold
from cbforest.elastic_net import (ElasticNetParams, fit_elastic_net,
                                  predict_proba, smooth_gradient,
                                  smooth_objective)
from cbforest.ensemble import (CbfModel, assemble_md, derive_seed, layer1_cv,
                               predict_cbf, predict_gbm, run_cbf,
                               sample_hyperparams, sample_layer2_params,
                               train_layer1, train_layer2, _split_test)
from cbforest.gbm import LOGISTIC, QUADRATIC, grad_hess
from cbforest.metrics import (MetricSpec, auc_bed, auc_prc, auc_roc,
                              enrichment_factor, logloss, reliability_score)
from cbforest.persistence import load_archive, save_archive
from cbforest.synth import write_synthetic

from conftest import ACCEPTANCE_LINES, tiny_config_dict
from _oracles import (auc_bed_oracle, auc_prc_oracle, auc_roc_oracle,
                      enrichment_factor_oracle, logloss_oracle, make_rng,
                      random_instance, reliability_score_oracle)


def record(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    assert ok, line


# ------------------------------------------------- 1: metric oracle parity

def test_criterion_1_metric_oracle_equivalence():
    rng = make_rng(2026)
    t0 = time.time()
    worst = {m: 0.0 for m in ("auc_roc", "auc_prc", "auc_bed", "ef",
                              "logloss", "reliability_score")}
    for _ in range(500):
        scores, labels = random_instance(rng)
        s = np.asarray(scores)
        y = np.asarray(labels)
        t = rng.choice([0.01, 0.05, 0.1, 0.25])
        pairs = [
            ("auc_roc", auc_roc(s, y), auc_roc_oracle(scores, labels)),
            ("auc_prc", auc_prc(s, y), auc_prc_oracle(scores, labels)),
            ("auc_bed", auc_bed(s, y, alpha=20.0),
             auc_bed_oracle(scores, labels, alpha=20.0)),
            ("ef", enrichment_factor(s, y, t),
             enrichment_factor_oracle(scores, labels, t)),
            ("logloss", logloss(s, y), logloss_oracle(scores, labels)),
            ("reliability_score", reliability_score(s, y),
             reliability_score_oracle(scores, labels)),
        ]
        for name, got, want in pairs:
            worst[name] = max(worst[name], abs(got - want))
    elapsed = time.time() - t0
    ok = (worst["auc_roc"] <= 1e-12
          and all(v <= 1e-10 for k, v in worst.items() if k != "auc_roc")
          and elapsed < 60.0)
    detail = ("500 instances, max |impl - oracle|: "
              + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
              + f", {elapsed:.1f}s")
    record(1, "metric oracle equivalence", ok, detail)


# --------------------------------------------------- 2: gradient correctness

def test_criterion_2_gradient_finite_differences():
    g = np.random.default_rng(41)
    worst = 0.0

    def check(got, want):
        nonlocal worst
        denom = max(abs(want), 1e-3)
        worst = max(worst, abs(got - want) / denom)

    def loss_value(loss, y, r):
        if loss == LOGISTIC:
            return float(np.logaddexp(0.0, r) - y * r)
        return 0.5 * (r - y) ** 2

    for loss in (LOGISTIC, QUADRATIC):
        for _ in range(100):
            y = float(g.integers(0, 2)) if loss == LOGISTIC else g.normal()
            r = g.normal(scale=2.0)
            grad, hess = grad_hess(loss, np.array([y]), np.array([r]))
            e = 1e-6
            fd1 = (loss_value(loss, y, r + e)
                   - loss_value(loss, y, r - e)) / (2 * e)
            check(grad[0], fd1)
            # the hessian is the derivative of the (just-verified) gradient;
            # differencing the gradient avoids double cancellation noise
            gp = grad_hess(loss, np.array([y]), np.array([r + e]))[0][0]
            gm = grad_hess(loss, np.array([y]), np.array([r - e]))[0][0]
            check(hess[0], (gp - gm) / (2 * e))

    X1 = np.hstack([np.ones((40, 1)), g.random((40, 3))])
    yv = (g.random(40) < 0.4).astype(float)
    pen = np.array([0.0, 1.0, 1.0, 1.0])
    for _ in range(100):
        beta = g.normal(size=4)
        grad = smooth_gradient(beta, X1, yv, 0.3, pen)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            fd = (smooth_objective(beta + e, X1, yv, 0.3, pen)
                  - smooth_objective(beta - e, X1, yv, 0.3, pen)) / 2e-6
            check(grad[j], fd)

    ok = worst <= 1e-6
    record(2, "gradient correctness", ok,
           f"100 points per loss + 100 meta-gradient points, "
           f"max relative error {worst:.2e}")


# ---------------------------------------------------- 3: stacking structure

def test_criterion_3_stacking_structure(tmp_path):
    t0 = time.time()
    path = tmp_path / "stack.svm"
    ds, _ = write_synthetic(str(path), n=2000, n_features=96, pos_rate=0.05,
                            signal=16, seed=7)
    K, H = 5, 2
    folds = stratified_kfold(ds.binary_labels, K, derive_seed(7, 1))
    samples = sample_hyperparams(H, derive_seed(7, 2))
    bundles, records = train_layer1(
        ds, ["binary", "continuous"], folds, samples,
        MetricSpec(kind="auc_roc"), patience=10, max_rounds=40, master_seed=7)
    trained = list(zip(bundles, records))
    md = assemble_md(records, ds.binary_labels)

    width_ok = md.X.shape == (2000, 2 * H)
    order_ok = [c[0] for c in md.columns] == ["binary"] * H + ["continuous"] * H
    purity_ok = True
    for b, rec in trained:
        for h in range(H):
            for k in range(K):
                va = folds.valid_rows(k)
                direct = predict_gbm(b.models[h][k], ds.subset(va))
                if not np.array_equal(direct, rec.oof_columns[va, h]):
                    purity_ok = False
    elapsed = time.time() - t0
    ok = width_ok and order_ok and purity_ok and elapsed < 120.0
    record(3, "stacking structure", ok,
           f"MD shape {md.X.shape} (want (2000, 4)), binary-first order "
           f"{order_ok}, out-of-fold purity {purity_ok}, {elapsed:.0f}s")


# ------------------------------------------------------ 4: calibration gain

def _rare_event_run(tmp_path, seed):
    """Dual-label CBF on rare-event data plus the CV-best uncalibrated GBM."""
    path = tmp_path / f"rare{seed}.svm"
    ds, thr = write_synthetic(str(path), n=5000, n_features=128,
                              pos_rate=0.02, signal=20, seed=seed)
    cfg = RunConfig.from_dict({
        "train_path": str(path),
        "label": {"kinds": ["binary", "continuous"],
                  "file_label": "continuous", "threshold": thr},
        "H": 1, "K": 3, "seed": seed, "max_rounds": 100, "patience": 25,
        "test_fraction": 0.2, "stop_metric": {"kind": "auc_roc"},
        "workers": 1, "output_dir": str(tmp_path)})
    r = run_cbf(cfg)
    bundle = r.model.bundles[0]     # binary-label bundle
    cv = layer1_cv(r.record.bundles[0], r.record.folds,
                   r.train_data.binary_labels, MetricSpec(kind="auc_prc"))
    best_h = int(np.argmax(cv.mean))
    gbm_pred = np.mean([predict_gbm(m, r.test_data)
                        for m in bundle.models[best_h]], axis=0)
    return r, gbm_pred


def test_criterion_4_calibration_improvement(tmp_path):
    rs_cbf, rs_gbm = [], []
    for seed in range(5):
        r, gbm_pred = _rare_event_run(tmp_path, seed)
        y = r.test_data.binary_labels
        rs_cbf.append(reliability_score(r.test_pred, y))
        rs_gbm.append(reliability_score(gbm_pred, y))
    med_cbf = float(np.median(rs_cbf))
    med_gbm = float(np.median(rs_gbm))
    ok = med_cbf <= 0.5 * med_gbm
    record(4, "calibration improvement", ok,
           f"median reliability score: calibrated {med_cbf:.3f} vs "
           f"best uncalibrated base model {med_gbm:.3f} "
           f"(ratio {med_cbf / med_gbm:.3f}, gate 0.5)")


# ------------------------------------------------------- 5: dual-label gain

def _dual_label_trial(tmp_path, seed):
    """Test AUC-PRC of a dual-label vs binary-only stack sharing layer 1."""
    path = tmp_path / f"dual{seed}.svm"
    ds, _ = write_synthetic(str(path), n=3000, n_features=96, pos_rate=0.05,
                            signal=16, seed=100 + seed, noise=2.5)
    train, test = _split_test(ds, 0.2, seed)
    folds = stratified_kfold(train.binary_labels, 3, derive_seed(seed, 1))
    samples = sample_hyperparams(1, derive_seed(seed, 2))
    bb, cb = zip(*train_layer1(train, ["binary", "continuous"], folds, samples,
                               MetricSpec(kind="auc_roc"), patience=25,
                               max_rounds=100, master_seed=seed))
    out = {}
    for name, trained in (("both", [bb, cb]), ("binary", [bb])):
        md = assemble_md([rec for _, rec in trained], train.binary_labels)
        sel = train_layer2(md, folds,
                           sample_layer2_params(1, derive_seed(seed, 4)),
                           metric=MetricSpec(kind="auc_prc"), tol=1e-6,
                           max_iter=20000)
        model = CbfModel(bundles=[b for b, _ in trained],
                         layer2_betas=[m.beta for m in sel.fold_models],
                         column_order=md.columns)
        out[name] = auc_prc(predict_cbf(model, test), test.binary_labels)
    return out


def test_criterion_5_dual_label_gain(tmp_path):
    both, binary = [], []
    for seed in range(5):
        out = _dual_label_trial(tmp_path, seed)
        both.append(out["both"])
        binary.append(out["binary"])
    wins = sum(b > o for b, o in zip(both, binary))
    floor_ok = np.mean(both) >= np.mean(binary) - 0.005
    ok = floor_ok and wins >= 3
    record(5, "dual-label gain", ok,
           f"mean test AUC-PRC both-labels {np.mean(both):.3f} vs "
           f"binary-only {np.mean(binary):.3f} (floor -0.005), "
           f"strictly better in {wins}/5 seeds (gate 3)")


# ------------------------------------------------- 6: scaling the grid width

def _subset_bundle(b, rec, h):
    """The first h base models of a bundle, and its record with matching
    columns."""
    return (dataclasses.replace(b, models=b.models[:h]),
            dataclasses.replace(rec, samples=rec.samples[:h],
                                logs=rec.logs[:h],
                                oof_columns=rec.oof_columns[:, :h]))


def _h_scaling_trial(tmp_path, seed):
    path = tmp_path / f"scale{seed}.svm"
    ds, _ = write_synthetic(str(path), n=2000, n_features=96, pos_rate=0.05,
                            signal=16, seed=200 + seed, noise=1.5)
    train, test = _split_test(ds, 0.2, seed)
    folds = stratified_kfold(train.binary_labels, 3, derive_seed(seed, 1))
    samples = sample_hyperparams(10, derive_seed(seed, 2))
    [bb], [rec] = train_layer1(train, ["binary"], folds, samples,
                               MetricSpec(kind="auc_roc"), patience=20,
                               max_rounds=80, master_seed=seed)
    sel_metric = MetricSpec(kind="auc_prc")
    cv = layer1_cv(rec, folds, train.binary_labels, sel_metric)
    out, gbm_ap = {}, {}
    for h in (1, 5, 10):
        # comparator: a single GBM, CV-selected from the same candidate pool
        best = int(np.argmax(cv.mean[:h]))
        single = predict_gbm(bb.models[best][0], test)
        gbm_ap[h] = auc_prc(single, test.binary_labels)
        sub, sub_rec = _subset_bundle(bb, rec, h)
        md = assemble_md([sub_rec], train.binary_labels)
        sel = train_layer2(md, folds,
                           sample_layer2_params(h, derive_seed(seed, 4)),
                           metric=sel_metric, tol=1e-6, max_iter=20000)
        model = CbfModel(bundles=[sub],
                         layer2_betas=[m.beta for m in sel.fold_models],
                         column_order=md.columns)
        out[h] = auc_prc(predict_cbf(model, test), test.binary_labels)
    return gbm_ap, out


def test_criterion_6_h_scaling(tmp_path):
    t0 = time.time()
    gbm, c1, c5, c10 = [], [], [], []
    for seed in range(5):
        g, out = _h_scaling_trial(tmp_path, seed)
        gbm.append(g[5])
        c1.append(out[1])
        c5.append(out[5])
        c10.append(out[10])
    elapsed = time.time() - t0
    wins5 = sum(c >= g for c, g in zip(c5, gbm))
    floor_ok = np.mean(c10) >= np.mean(c1) - 0.005
    ok = wins5 >= 4 and floor_ok and elapsed < 1800.0
    record(6, "H scaling", ok,
           f"5-model stack >= best base model in {wins5}/5 seeds (gate 4); "
           f"mean test AUC-PRC 10-model {np.mean(c10):.3f} vs 1-model "
           f"{np.mean(c1):.3f} (floor -0.005); {elapsed:.0f}s")


# --------------------------------------------------- 7: early-stopping log

def test_criterion_7_early_stopping_contract(tiny_run):
    _, result = tiny_run
    checked = 0
    ok = True
    for bundle in result.record.bundles:
        for per_candidate in bundle.logs:
            for log in per_candidate:
                valid = log.scores
                opt = log.optimal_round
                if valid[opt] != max(valid):
                    ok = False
                # patience window after the optimum never beats it
                window = valid[opt + 1:]
                if any(v > valid[opt] for v in window):
                    ok = False
                checked += 1
    record(7, "early stopping contract", ok and checked > 0,
           f"{checked} training logs: optimum is the max and no later "
           f"round in the patience window exceeds it")


# ------------------------------------------- 8: determinism and persistence

def test_criterion_8_determinism_and_persistence(tiny_dataset, tiny_run,
                                                 tmp_path):
    outputs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        cfg = tiny_config_dict(tiny_dataset, workers=workers,
                               output_dir=str(out))
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            from cbforest.cli import main
            main(["train", "--config", str(cfg_path)])
        assert exc.value.code == 0
        outputs[workers] = (out / "cv_scores.tsv").read_bytes()
    workers_ok = outputs[1] == outputs[4]

    config, result = tiny_run
    archive = tmp_path / "model.json"
    save_archive(str(archive), result.model, tiny_config_dict(tiny_dataset))
    loaded, _ = load_archive(str(archive))
    data = tiny_dataset["dataset"]
    roundtrip_ok = np.array_equal(predict_cbf(result.model, data),
                                  predict_cbf(loaded, data))
    ok = workers_ok and roundtrip_ok
    record(8, "determinism & persistence", ok,
           f"cv_scores.tsv byte-identical across workers 1 vs 4: {workers_ok}; "
           f"save/load/predict bit-exact: {roundtrip_ok}")


# ------------------------------------- 9: calibration preserves the ranking

def test_criterion_9_calibration_order_invariance():
    g = np.random.default_rng(77)
    checked = 0
    ok = True
    for _ in range(20):
        n = int(g.integers(100, 400))
        y = (g.random(n) < g.uniform(0.05, 0.4)).astype(float)
        if y.sum() in (0, n):
            continue
        # a single informative score column, as a one-column stacked matrix
        scores = np.clip(g.uniform(0.05, 0.3) + g.uniform(0.3, 0.7) * y
                         + g.normal(0, 0.08, n), 1e-6, 1 - 1e-6)
        X = scores.reshape(-1, 1)
        m = fit_elastic_net(X, y, ElasticNetParams(lambda1=1e-3, lambda2=1e-3),
                            tol=1e-8)
        if m.beta[1] <= 0:
            continue
        p = predict_proba(m.beta, X)
        if not np.array_equal(np.argsort(p, kind="stable"),
                              np.argsort(scores, kind="stable")):
            ok = False
        checked += 1
    ok = ok and checked >= 10
    record(9, "calibration order invariance", ok,
           f"{checked} single-column fits with positive coefficient, "
           f"argsort(calibrated) == argsort(input) in all")
