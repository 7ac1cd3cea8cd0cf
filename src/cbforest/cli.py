"""Command-line surface: train, predict, evaluate, synth."""
from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .data import DataError, _decode, _read_bytes, load_svmlight
from .ensemble import predict_cbf, run_cbf
from .gbm import TrainingError
from .metrics import (MetricError, MetricSpec, evaluate, logloss,
                      reliability_bins)
from .persistence import (PersistenceError, load_archive, replaced_atomically,
                          save_archive)
from .synth import write_synthetic

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_TRAINING = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with code 1 and usage text on stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _at_least_one(text):
    """An argparse type: an int of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _fmt(v):
    if isinstance(v, float):
        # float() so that an np.float64 prints as a plain float.
        return "NA" if v != v else repr(float(v))
    return str(v)


def _write_tsv(f, header, rows):
    f.write("\t".join(header) + "\n")
    for row in rows:
        f.write("\t".join(map(_fmt, row)) + "\n")


def _cannot_write(path, e):
    """Report a failed write of `path` by the name the user gave."""
    print(f"cannot write output: {path}: {e.strerror or e}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_train(args):
    try:
        with open(args.config) as f:
            raw = json.load(f)
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as e:
        print(f"config is not valid JSON: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = RunConfig.from_dict(raw)
        config.validate_paths()
        result = run_cbf(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, MetricError) as e:
        print(f"training error: {e}", file=sys.stderr)
        return EXIT_TRAINING

    sel = result.record.layer2
    rel = result.reliability
    reports = {
        "cv_scores.tsv": (
            ["candidate", "lambda1", "lambda2"]
            + [f"cv_fold_{k}" for k in range(result.record.folds.K)]
            + ["cv_mean", "selected"],
            [[h, cand.lambda1, cand.lambda2] + list(sel.cv.per_fold[h])
             + [float(sel.cv.mean[h]), 1 if h == sel.selected_index else 0]
             for h, cand in enumerate(sel.candidates)]),
        "metrics.tsv": (
            ["metric", "train", "valid", "test"],
            [[name, row["train"], row["valid"], row["test"]]
             for name, row in result.metrics_report.items()]),
        "reliability.tsv": (
            ["bin", "count", "mean_predicted", "positive_rate"],
            [[b, int(rel.counts[b]), float(rel.mean_predicted[b]),
              float(rel.positive_rate[b])] for b in range(len(rel.counts))])}

    out = path = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        path = out / "model.cbf"
        save_archive(path, result.model, config.to_dict())
        for name, (header, rows) in reports.items():
            path = out / name
            with replaced_atomically(path) as f:
                _write_tsv(f, header, rows)
    except OSError as e:
        return _cannot_write(path, e)
    print(f"wrote model and reports to {out} "
          f"(reliability table computed on the {result.reliability_split} split)")
    return 0


def cmd_predict(args):
    try:
        model, _config = load_archive(args.model)
    except PersistenceError as e:
        print(f"archive error: {e}", file=sys.stderr)
        return EXIT_DATA
    n_cols = model.bundles[0].models[0][0].n_cols
    try:
        data = load_svmlight(args.input, expect_label="continuous",
                             n_cols=n_cols)
        preds = predict_cbf(model, data)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        with replaced_atomically(args.output) as f:
            _write_tsv(f, ["row_id", "probability"],
                       [[f"r{i}", p] for i, p in enumerate(preds.tolist())])
    except OSError as e:
        return _cannot_write(args.output, e)
    return 0


def _read_column(path, what):
    vals = []
    lines = io.StringIO(_decode(_read_bytes(path), path), newline=None)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split("\t")[-1].split()[-1]
        if lineno == 1 and tok in ("probability", "label", "score"):
            continue  # header row from a predict output
        try:
            vals.append(float(tok))
        except ValueError:
            raise DataError(f"non-numeric {what} at line {lineno}: {tok!r}")
    if not vals:
        raise DataError(f"no {what} values in {path}")
    return np.asarray(vals)


def cmd_evaluate(args):
    try:
        scores = _read_column(args.scores, "score")
        labels = _read_column(args.labels, "label")
        if len(scores) != len(labels):
            raise DataError(
                f"length mismatch: {len(scores)} scores vs {len(labels)} labels")
        if not np.isin(labels, (0.0, 1.0)).all():
            raise DataError("labels must be 0 or 1")
        labels = labels.astype(np.int8)

        requested = []
        if args.auc_roc:
            requested.append(MetricSpec(kind="auc_roc"))
        if args.auc_prc:
            requested.append(MetricSpec(kind="auc_prc"))
        if args.auc_bed is not None:
            requested.append(MetricSpec(kind="auc_bed", alpha=args.auc_bed))
        if args.ef is not None:
            requested.append(MetricSpec(kind="ef", t=args.ef))
        if args.logloss:
            requested.append(MetricSpec(kind="logloss"))
        if args.reliability_score:
            requested.append(MetricSpec(kind="reliability_score",
                                        n_bins=args.n_bins))
        if not requested and not args.reliability:
            print("no metrics requested", file=sys.stderr)
            return EXIT_CONFIG

        print("metric\tvalue")
        for spec in requested:
            if spec.kind == "logloss" and args.mean:
                v = logloss(scores, labels, mean=True)
            else:
                v = evaluate(spec, scores, labels)
            print(f"{spec.label()}\t{_fmt(float(v))}")
        if args.reliability:
            rel = reliability_bins(scores, labels, n_bins=args.n_bins)
            print("bin\tcount\tmean_predicted\tpositive_rate")
            for b in range(len(rel.counts)):
                print(f"{b}\t{int(rel.counts[b])}\t"
                      f"{_fmt(float(rel.mean_predicted[b]))}\t"
                      f"{_fmt(float(rel.positive_rate[b]))}")
    except (DataError, MetricError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    return 0


def cmd_synth(args):
    try:
        ds, threshold = write_synthetic(
            args.out, args.n, args.n_features, args.pos_rate, args.signal,
            args.seed, density=args.density, noise=args.noise)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    print(f"wrote {args.out} ({ds.n_rows} rows, "
          f"{int(ds.binary_labels.sum())} positives, "
          f"threshold {threshold:.6g})")
    return 0


def build_parser():
    parser = _Parser(prog="cbforest",
                     description="Stacked boosting ensemble with calibrated "
                                 "probability output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score new rows with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="compute metrics for a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--auc-roc", action="store_true")
    p.add_argument("--auc-prc", action="store_true")
    p.add_argument("--auc-bed", type=float, metavar="ALPHA")
    p.add_argument("--ef", type=float, metavar="T")
    p.add_argument("--logloss", action="store_true")
    p.add_argument("--reliability-score", action="store_true")
    p.add_argument("--reliability", action="store_true",
                   help="also print the quantile bin table")
    p.add_argument("--n-bins", type=_at_least_one, default=10)
    p.add_argument("--mean", action="store_true",
                   help="report logloss as a mean instead of a sum")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="write a synthetic screening dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-features", type=int, default=128)
    p.add_argument("--pos-rate", type=float, required=True)
    p.add_argument("--signal", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.1)
    p.add_argument("--noise", type=float, default=1.0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except Exception as e:
        # a fault no command maps to a code of its own, such as running out
        # of memory: one line, not a traceback, and not a config error's code
        message = " ".join(str(e).splitlines())
        print(f"internal error: {type(e).__name__}: {message}",
              file=sys.stderr)
        code = EXIT_INTERNAL
    raise SystemExit(code)


if __name__ == "__main__":
    main()
