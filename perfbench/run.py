"""Lifecycle benchmark for cbforest: train, save, load and score.

    python3 perfbench/run.py --workload fp-binary --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. One run:

1. set-up: generates the workload's training set (the same for every seed)
   and the library (from `--seed`) and writes them with the run config
   (repeated, median reported);
2. `cbforest train` through `cbforest.cli.main`, in-process;
3. for `--seconds`, whole rounds of: `load_archive` on the written
   model.cbf, `cbforest predict` over the library, and one-row
   `predict_cbf` calls on distinct library rows with the loaded model;
4. checks the outputs against independent computations (checks.py).

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` the run first trains once untraced, then installs the span
hooks of tracing.py and reports per-layer metrics instead. The traced run uses
`workers=1` for both trains, because spans are recorded in this process only.
"""
import os

# Pin BLAS to one thread in this process and in forked pool workers, and keep
# the run seed the config gives: CBF_SEED would override it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CBF_SEED", None)

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

# The speed of a shared machine drifts by tens of percent over seconds, so
# every short operation is sampled across the whole scoring window: each round
# is one load, one predict and a slice of the one-row calls.
SETUP_REPEATS = 5
MIN_ROUNDS = 10
ONE_ROW_PER_ROUND = 20   # MIN_ROUNDS * 20 = 200 samples: 10 beyond the p95
LAYERS = ("cli", "data", "ensemble", "gbm", "elastic_net", "metrics",
          "persistence")
PREDICT_LAYERS = ("cli", "data", "ensemble", "gbm", "persistence")


def _import_program():
    if not (SRC / "cbforest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cbforest sources at {SRC}; run from the "
                 "root of a source checkout")
    sys.path.insert(0, str(SRC))
    import cbforest
    if Path(cbforest.__file__).resolve().parent != SRC / "cbforest":
        sys.exit(f"perfbench: imported cbforest from {cbforest.__file__}, "
                 f"not from {SRC}")


def _parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


class Ops:
    """Counts the lifecycle operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def cli(self, cli, argv):
        """Run one cbforest subcommand in-process; returns (seconds, ok)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                cli.main(argv)
            code = 0
        except SystemExit as e:
            code = e.code
        dt = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            print(f"perfbench: cbforest {argv[0]} exited {code}",
                  file=sys.stderr)
        return dt, code == 0


def _learners(model):
    """Learners in the model `save_archive` stores; 0 if its layout changed."""
    try:
        return sum(len(m.learners) for b in model.bundles for row in b.models
                   for m in row)
    except (AttributeError, TypeError):
        return 0


def _unit(name):
    if name.endswith("_ms") or name == "gbm.ms_per_tree":
        return "ms"
    if name == "elastic_net.s_per_fit":
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def layer_metrics(tracer, n_library, train_wall, untraced_train_s,
                  learners_stored):
    """Per-layer metrics from the spans of one traced train and the traced
    `cbforest predict` calls (averaged per call)."""
    summary = tracer.summarize()
    train, pred = "cli.train", "cli.predict"

    def get(phase, name, key="self_s"):
        return summary.get((phase, name), {}).get(key, 0)

    n_pred = max(get(pred, pred, "calls"), 1)
    fits = get(train, "elastic_net.fit_elastic_net", "calls")
    fit_s = get(train, "elastic_net.fit_elastic_net")
    trees = get(train, "gbm.build_tree", "calls")
    tree_s = get(train, "gbm.build_tree")
    parse_s = get(pred, "data.load_svmlight", "total_s") / n_pred
    loads = [t1 - t0 for name, t0, t1, _ in tracer.spans
             if name == "persistence.load_archive"]
    c = tracer.counts
    m = {
        "elastic_net.fit_s": fit_s,
        "elastic_net.fits": fits,
        "elastic_net.fits_converged": c["elastic_net.fits_converged"],
        "elastic_net.iterations": c["elastic_net.iterations"],
        "elastic_net.s_per_fit": fit_s / fits if fits else 0.0,
        "gbm.build_tree_s": tree_s,
        "gbm.trees_built": trees,
        "gbm.ms_per_tree": 1000 * tree_s / trees if trees else 0.0,
        "gbm.build_linear_s": get(train, "gbm.build_linear_delta"),
        "gbm.linear_rounds": get(train, "gbm.build_linear_delta", "calls"),
        "gbm.train_gbm_s": get(train, "gbm.train_gbm"),
        "gbm.predict_tree_s": get(train, "gbm.predict_tree"),
        "gbm.stop_metric_s": get(train, "metrics.oriented_score", "total_s"),
        "gbm.rounds_trained": c["gbm.rounds_trained"],
        "gbm.rounds_past_optimum": c["gbm.rounds_past_optimum"],
        "ensemble.train_layer1_s": get(train, "ensemble.train_layer1",
                                       "total_s"),
        "ensemble.base_models": get(train, "gbm.train_gbm", "calls"),
        "ensemble.train_layer2_s": get(train, "ensemble.train_layer2",
                                       "total_s"),
        "ensemble.predict_cbf_s": get(pred, "ensemble.predict_cbf",
                                      "total_s") / n_pred,
        "data.load_svmlight_s": parse_s,
        "data.rows_parsed_per_s": n_library / parse_s if parse_s else 0.0,
        "metrics.evaluate_s": get(train, "metrics.evaluate", "total_s"),
        "persistence.save_s": get(train, "persistence.save_archive"),
        "persistence.load_s": statistics.median(loads) if loads else 0.0,
        "persistence.learners_stored": learners_stored,
    }

    def layer_self(phase, layer):
        return sum(row["self_s"] for (ph, name), row in summary.items()
                   if ph == phase and name.startswith(layer + "."))

    for layer in LAYERS:
        m[f"{layer}.train_self_s"] = layer_self(train, layer)
    for layer in PREDICT_LAYERS:
        m[f"{layer}.predict_self_s"] = layer_self(pred, layer) / n_pred
    train_self = sum(m[f"{layer}.train_self_s"] for layer in LAYERS)
    m["trace.train_s"] = train_wall
    m["trace.untraced_train_s"] = untraced_train_s
    m["trace.overhead_s"] = train_wall - untraced_train_s
    m["trace.span_cost_s"] = tracer.span_cost() * len(tracer.spans)
    m["trace.unaccounted_s"] = train_wall - train_self
    m["trace.spans"] = len(tracer.spans)
    m["trace.absent_hooks"] = len(tracer.absent)
    return m


def main():
    args = _parse_args()
    _import_program()

    import numpy as np
    from cbforest import cli, ensemble, persistence

    import checks as chk
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workers = 1 if args.trace else w.workers

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        train_ds, threshold, library = workloads.generate(w, args.seed)
        paths = workloads.write_inputs(w, train_ds, threshold, library, work,
                                       workers)
        setup_times.append(time.perf_counter() - t0)

    ops = Ops()
    train_argv = ["train", "--config", str(paths["config"])]
    tracer = None
    untraced_train_s = None
    if args.trace:
        untraced_train_s, ok = ops.cli(cli, train_argv)
        if not ok:
            sys.exit("perfbench: untraced training run failed")
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True

    # Keep the in-memory result of the training run for the checks.
    captured = []
    run_cbf = cli.run_cbf

    def capture(config):
        captured.append(run_cbf(config))
        return captured[-1]

    cli.run_cbf = capture
    train_s, ok = ops.cli(cli, train_argv)
    cli.run_cbf = run_cbf
    if not ok:
        sys.exit("perfbench: training run failed")
    result = captured[-1]
    archive = paths["out"] / "model.cbf"
    archive_bytes = archive.stat().st_size

    scores = work / "scores.tsv"
    predict_argv = ["predict", "--model", str(archive),
                    "--input", str(paths["library"]), "--output", str(scores)]
    loads, predicts, one_row_s = [], [], []
    one_row_pred, one_row_idx = [], []
    batch, batch_digest = None, None
    model = None
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        ops.attempted += 1
        model = None     # hold one loaded model at a time
        t0 = time.perf_counter()
        model, _ = persistence.load_archive(archive)
        loads.append(time.perf_counter() - t0)

        dt, ok = ops.cli(cli, predict_argv)
        predicts.append(dt)
        if ok:
            digest = hashlib.sha256(scores.read_bytes()).hexdigest()
            if batch is None:
                batch, batch_digest = chk.read_scores_tsv(scores), digest
            elif digest != batch_digest:
                sys.exit("perfbench: repeated predict wrote different scores")

        if tracer:
            tracer.active = False
        for j in range(ONE_ROW_PER_ROUND):
            i = (rounds * ONE_ROW_PER_ROUND + j) % library.n_rows
            row = library.subset([i])
            ops.attempted += 1
            t0 = time.perf_counter()
            p = ensemble.predict_cbf(model, row)
            one_row_s.append(time.perf_counter() - t0)
            one_row_pred.append(float(p[0]))
            one_row_idx.append(i)
        if tracer:
            tracer.active = True
        rounds += 1
    scoring_s = time.perf_counter() - start
    if tracer:
        tracer.active = False

    # ---- correctness, untimed
    checks = chk.Checks()
    in_memory = result.model
    test_loaded = ensemble.predict_cbf(model, result.test_data)
    chk.check_bitwise(checks, "loaded archive predicts the test split like "
                      "the in-memory model", test_loaded, result.test_pred)
    chk.check_test_metrics(checks, paths["out"] / "metrics.tsv", test_loaded,
                           result.test_data.binary_labels)
    if batch is None:
        checks.add("cbforest predict wrote scores", False)
    else:
        chk.check_bitwise(checks, "predict TSV equals in-memory predict_cbf "
                          "on the generated library", batch,
                          ensemble.predict_cbf(in_memory, library))
        quality = chk.check_library(
            checks, batch, library.binary_labels,
            workloads.library_signal(w, args.seed, library), w.n_train)
        chk.check_one_row(checks, np.array(one_row_pred), batch[one_row_idx])
    for line in checks.failures():
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    one_ms = [1000 * t for t in one_row_s]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "train_s": train_s,
        "archive_bytes": archive_bytes,
        "model_load_s": statistics.median(loads),
        "score_rows_per_s": library.n_rows / statistics.median(predicts),
        "predict_one_ms": statistics.median(one_ms),
        "predict_one_p95_ms": statistics.quantiles(one_ms, n=20)[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    units = {"archive_bytes": "bytes", "score_rows_per_s": "rows/s",
             "peak_rss_mb": "MB"}
    if tracer:
        metrics = layer_metrics(tracer, library.n_rows, train_s,
                                untraced_train_s, _learners(in_memory))
    out = {"correct": checks.ok, "attempted": ops.attempted,
           "failed": ops.failed,
           "metrics": {k: {"value": v, "unit": units.get(k, _unit(k))}
                       for k, v in metrics.items()}}

    report = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "scoring_s": scoring_s,
              "setup_times_s": setup_times, "one_row_samples": len(one_ms),
              "checks": checks.results,
              "quality": quality if batch is not None else None, **out}
    with open(work / "result.json", "w") as f:
        json.dump(report, f, indent=1)
    if tracer:
        tracer.uninstall()
        tracer.write(work / "trace.json", {"per_layer": metrics,
                                           "summary": [
            {"phase": ph, "name": nm, **row}
            for (ph, nm), row in sorted(tracer.summarize().items())]})
    for name in ("train.svm", "library.svm", "scores.tsv", "out/model.cbf"):
        (work / name).unlink(missing_ok=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
