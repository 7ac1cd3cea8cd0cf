"""Span tracing installed from outside the program.

`Tracer.install` replaces each hooked public function of cbforest with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span. The replacement is made in every loaded cbforest module
that holds the same function object, so calls through `from .gbm import
train_gbm` style imports are traced too. Spans stay in memory until
`write` is called at the end of the run.

A hook whose target no longer exists is listed in `absent` and skipped, so a
refactor that removes or renames a function does not break the traced run; so
is a counter whose field is gone from the returned object.

Spans are only recorded while `active` is true; worker processes of a
process pool keep their own copy, so the traced run uses `workers=1`.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name). An attribute "Class.method" hooks a method.
HOOKS = (
    ("cbforest.data", "load_svmlight", "data.load_svmlight"),
    ("cbforest.data", "SparseDataset.subset", "data.subset"),
    ("cbforest.gbm", "train_gbm", "gbm.train_gbm"),
    ("cbforest.gbm", "build_tree", "gbm.build_tree"),
    ("cbforest.gbm", "build_linear_delta", "gbm.build_linear_delta"),
    ("cbforest.gbm", "predict_tree", "gbm.predict_tree"),
    ("cbforest.gbm", "predict_gbm", "gbm.predict_gbm"),
    ("cbforest.ensemble", "run_cbf", "ensemble.run_cbf"),
    ("cbforest.ensemble", "train_layer1", "ensemble.train_layer1"),
    ("cbforest.ensemble", "train_layer2", "ensemble.train_layer2"),
    ("cbforest.ensemble", "predict_cbf", "ensemble.predict_cbf"),
    ("cbforest.elastic_net", "fit_elastic_net", "elastic_net.fit_elastic_net"),
    ("cbforest.metrics", "evaluate", "metrics.evaluate"),
    ("cbforest.metrics", "oriented_score", "metrics.oriented_score"),
    ("cbforest.persistence", "save_archive", "persistence.save_archive"),
    ("cbforest.persistence", "load_archive", "persistence.load_archive"),
    ("cbforest.cli", "cmd_train", "cli.train"),
    ("cbforest.cli", "cmd_predict", "cli.predict"),
)


def _count_fit(result):
    return {"elastic_net.fits_converged": int(bool(result.converged)),
            "elastic_net.iterations": int(result.n_iter)}


def _count_gbm(result):
    n = len(result.learners)
    return {"gbm.rounds_trained": n,
            "gbm.rounds_past_optimum": n - int(result.optimal_round)}


# Counters derived from a hooked call's return value, keyed by span name.
RESULT_COUNTERS = {
    "elastic_net.fit_elastic_net": _count_fit,
    "gbm.train_gbm": _count_gbm,
}


def _noop():
    return None


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.absent = []
        self.active = False
        self._stack = []
        self._undo = []

    def install(self):
        for modname, attr, name in HOOKS:
            module = sys.modules.get(modname)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None)
            if module is None or owner is None or not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, name)
            if owner_name:
                self._replace(owner, fn_name, wrapper)
                continue
            for mname, mod in list(sys.modules.items()):
                if mname.split(".")[0] != "cbforest":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _replace(self, owner, key, wrapper):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name):
        counter = RESULT_COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    self.counts.update(counter(result))
                except (AttributeError, TypeError):
                    # the returned model no longer has the counted field
                    if name not in self.absent:
                        self.absent.append(name)
            return result
        return wrapper

    def summarize(self):
        """Per span name and root phase: calls, total and self seconds.

        The phase of a span is the name of its outermost ancestor. Self time
        is the span's duration minus that of its direct children; spans are
        recorded in one process and nest, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        phase = [None] * len(self.spans)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            phase[i] = name if parent < 0 else phase[parent]
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out[(phase[i], name)]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[i]
        return dict(out)

    def span_cost(self, calls=20000):
        """Seconds one recorded span adds to a call, timed on a no-op."""
        probe = Tracer()
        probe.active = True
        wrapped = probe._wrap(_noop, "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            _noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / calls

    def write(self, path, extra=None):
        doc = {"absent_hooks": self.absent, "counts": dict(self.counts),
               "span_fields": ["name", "start_s", "end_s", "parent"],
               "spans": self.spans}
        doc.update(extra or {})
        with open(path, "w") as f:
            json.dump(doc, f)
