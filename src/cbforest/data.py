"""Sparse dataset container, label transforms, stratified folds, and file IO."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse


class DataError(ValueError):
    """Malformed input data or inconsistent dataset contents."""


GREATER_IS_POSITIVE = "greater_is_positive"
LESS_IS_POSITIVE = "less_is_positive"
DIRECTIONS = (GREATER_IS_POSITIVE, LESS_IS_POSITIVE)


@dataclass(frozen=True)
class LabelMapping:
    """Threshold rule converting a continuous label into a binary one.

    The boundary value (label exactly equal to the threshold) is always
    negative: the comparison is strict in both directions. Many toolkits
    use >= here; this one deliberately does not.
    """

    threshold: float
    direction: str = GREATER_IS_POSITIVE

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise DataError("label mapping threshold must be finite")
        if self.direction not in DIRECTIONS:
            raise DataError(f"unknown direction {self.direction!r}")


def binarize(labels, mapping: LabelMapping) -> np.ndarray:
    """Map continuous labels to {0, 1} through a strict threshold rule."""
    labels = np.asarray(labels, dtype=float)
    if labels.size and np.isnan(labels).any():
        raise DataError("NaN label cannot be binarized")
    if mapping.direction == GREATER_IS_POSITIVE:
        out = labels > mapping.threshold
    else:
        out = labels < mapping.threshold
    return out.astype(np.int8)


class SparseDataset:
    """Row-sparse feature matrix with optional continuous/binary label vectors.

    Rows are stored CSR-style (indptr/indices/values). Feature indices are
    strictly increasing within a row; a missing index means the feature is
    absent (which tree learners treat as missing, linear learners as zero).
    """

    def __init__(self, n_rows, n_cols, indptr, indices, values,
                 continuous_labels=None, binary_labels=None):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.continuous_labels = (
            None if continuous_labels is None
            else np.asarray(continuous_labels, dtype=np.float64))
        self.binary_labels = (
            None if binary_labels is None
            else np.asarray(binary_labels, dtype=np.int8))
        self._csr = None
        self._csc = None
        self._validate()

    def _validate(self):
        if len(self.indptr) != self.n_rows + 1:
            raise DataError("indptr length does not match n_rows")
        if self.indices.size != self.values.size:
            raise DataError("indices and values length mismatch")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n_cols:
                raise DataError("feature index out of range")
            d = np.diff(self.indices)
            boundary = np.zeros(d.size, dtype=bool)
            inner = self.indptr[1:-1]
            boundary[inner[(inner > 0) & (inner < self.indices.size)] - 1] = True
            if not (d[~boundary] > 0).all():
                raise DataError("feature indices not strictly increasing within a row")
        if self.values.size and not np.isfinite(self.values).all():
            raise DataError("non-finite feature value")
        for name, lab in (("continuous", self.continuous_labels),
                          ("binary", self.binary_labels)):
            if lab is not None and len(lab) != self.n_rows:
                raise DataError(f"{name} label length does not match n_rows")
        if self.binary_labels is not None and self.binary_labels.size:
            if not np.isin(self.binary_labels, (0, 1)).all():
                raise DataError("binary labels must be 0 or 1")

    @classmethod
    def from_rows(cls, rows, n_cols=None, **kwargs):
        """Build from a list of per-row [(feature_index, value), ...] pairs."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indices, values = [], []
        for i, pairs in enumerate(rows):
            for j, v in pairs:
                indices.append(j)
                values.append(v)
            indptr[i + 1] = len(indices)
        if n_cols is None:
            n_cols = (max(indices) + 1) if indices else 0
        return cls(len(rows), n_cols, indptr,
                   np.asarray(indices, dtype=np.int64),
                   np.asarray(values, dtype=np.float64), **kwargs)

    def row_pairs(self, i):
        s, e = self.indptr[i], self.indptr[i + 1]
        return list(zip(self.indices[s:e].tolist(), self.values[s:e].tolist()))

    def to_csr(self):
        if self._csr is None:
            self._csr = sparse.csr_matrix(
                (self.values, self.indices, self.indptr),
                shape=(self.n_rows, self.n_cols))
        return self._csr

    def to_csc(self):
        if self._csc is None:
            self._csc = self.to_csr().tocsc()
        return self._csc

    def subset(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        m = self.to_csr()[rows]
        return SparseDataset(
            len(rows), self.n_cols, m.indptr, m.indices, m.data,
            continuous_labels=None if self.continuous_labels is None
            else self.continuous_labels[rows],
            binary_labels=None if self.binary_labels is None
            else self.binary_labels[rows])

    def save_svmlight(self, path, label_kind, zero_based=True):
        if label_kind == "binary":
            if self.binary_labels is None:
                raise DataError("dataset has no binary labels")
            labels = [str(v) for v in self.binary_labels.tolist()]
        elif label_kind == "continuous":
            if self.continuous_labels is None:
                raise DataError("dataset has no continuous labels")
            labels = [repr(v) for v in self.continuous_labels.tolist()]
        else:
            raise DataError(f"unknown label kind {label_kind!r}")
        off = 0 if zero_based else 1
        # Each distinct value is formatted once; -0.0 and 0.0 both print 0.
        distinct, which = np.unique(self.values, return_inverse=True)
        text = [_fmt(v) for v in distinct.tolist()]
        values = [text[k] for k in which.tolist()]
        indices = (self.indices + off).tolist()
        bounds = self.indptr.tolist()
        with open(path, "w") as f:
            for i, label in enumerate(labels):
                s, e = bounds[i], bounds[i + 1]
                f.write(" ".join([label] + [
                    f"{j}:{v}" for j, v in zip(indices[s:e], values[s:e])])
                    + "\n")


def _fmt(v):
    v = float(v)
    return (str(int(v)) if math.isfinite(v) and v == int(v) and abs(v) < 1e15
            else repr(v))


def _read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None


def _decode(raw, path):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e.reason} "
                        f"at byte {e.start}") from None


def load_svmlight(path, expect_label, zero_based=True, n_cols=None):
    """Parse an SVMLight text file (`<label> <idx>:<val> ...` per line).

    The file is read once and parsed in bulk by array operations. A file
    that fails a check raises the DataError of its first faulty token, in
    file order, or one about the whole file when no line is at fault.
    """
    if expect_label not in ("continuous", "binary"):
        raise DataError(f"unknown expect_label {expect_label!r}")
    raw = _read_bytes(path)
    # NUL and non-ASCII bytes make their token malformed, but a file that
    # holds any must still be UTF-8 text.
    odd = not raw.isascii() or b"\0" in raw
    if odd:
        _decode(raw, path)
    buf = np.frombuffer(raw, dtype=np.uint8)
    cls = _BYTE_CLASS[buf]
    edges = np.flatnonzero(np.diff(cls <= _COLON, prepend=False, append=False))
    start, stop = edges[0::2], edges[1::2]
    if not start.size:
        raise DataError(f"no rows in {path}")
    # The first token of each non-blank line is its label. A "\r\n" counts
    # as two line ends here, which only adds a blank line.
    line_ends = np.flatnonzero(cls == _LINE_END)
    line = np.searchsorted(line_ends, start)
    is_label = np.ones(start.size, dtype=bool)
    is_label[1:] = line[1:] != line[:-1]
    is_feature = ~is_label
    fstart, fstop = start[is_feature], stop[is_feature]
    # A feature token holds exactly one colon. One that does not is
    # malformed, and its fields are split at its start.
    colons = np.flatnonzero(cls == _COLON)
    first_colon = np.searchsorted(colons, fstart)
    bad_feature = np.searchsorted(colons, fstop) - first_colon != 1
    colon = (np.where(bad_feature, fstart, np.append(colons, 0)[first_colon])
             if bad_feature.any() else colons[first_colon])
    labels, bad_label = _cast_fields(raw, buf, start[is_label],
                                     stop[is_label], float, odd)
    raw_idx, bad_idx = _cast_fields(raw, buf, fstart, colon, int, odd)
    values, bad_value = _cast_fields(raw, buf, colon + 1, fstop, float, odd)
    for bad in (bad_idx, bad_value):
        if bad is not None:
            bad_feature |= bad
    off = 0 if zero_based else 1
    # (message, on label tokens, fault mask) in the order the checks run on
    # one token. The base is checked before it is subtracted, which would
    # wrap -2**63 around.
    checks = [(_MALFORMED_LABEL, True, bad_label),
              (_NON_BINARY, True, np.isin(labels, (0.0, 1.0), invert=True)
               if expect_label == "binary" else None),
              (_MALFORMED_FEATURE, False, bad_feature),
              (_BELOW_BASE, False, raw_idx < off)]
    indices = raw_idx - off
    label_at = np.flatnonzero(is_label)
    if not any(mask is not None and mask.any() for _, _, mask in checks):
        if expect_label == "binary":
            kwargs = {"binary_labels": labels.astype(np.int8)}
        else:
            kwargs = {"continuous_labels": labels}
        # Row r's features follow its label, the (r + 1)-th label token.
        indptr = np.append(label_at - np.arange(label_at.size), indices.size)
        try:
            return SparseDataset(
                label_at.size,
                int(indices.max(initial=-1)) + 1 if n_cols is None else n_cols,
                indptr, indices, values, **kwargs)
        except (DataError, OverflowError):  # also an index past int64
            pass
    # The file has a fault. Name its first faulty token, for the first
    # check that token fails.
    fline = line[is_feature]
    unsorted = np.zeros(indices.size, dtype=bool)
    unsorted[1:] = (fline[1:] == fline[:-1]) & (indices[1:] <= indices[:-1])
    checks += [(_UNSORTED, False, unsorted), (_NAN, False, np.isnan(values))]
    feature_at = np.flatnonzero(is_feature)
    hits = [(message, (label_at if on_label else feature_at)[mask])
            for message, on_label, mask in checks if mask is not None]
    hits = [(message, int(at[0])) for message, at in hits if at.size]
    if hits:
        t = min(at for _, at in hits)
        message = next(message for message, at in hits if at == t)
        text = raw[start[t]:stop[t]].decode()
        if message is _NON_BINARY:
            text = _fmt(float(text))
        lineno = (np.searchsorted(line_ends, start[t])
                  - raw.count(b"\r\n", 0, start[t]) + 1)
        raise DataError(message.format(lineno, text))
    max_idx = max(indices.tolist(), default=-1)
    if n_cols is None and max_idx > _MAX_INDEX:
        raise DataError(f"feature index {max_idx} exceeds the largest "
                        f"supported index {_MAX_INDEX}")
    if n_cols is not None and max_idx >= n_cols:
        raise DataError(f"feature index {max_idx} exceeds n_cols={n_cols}")
    # The one check of SparseDataset's that no fault above accounts for.
    raise DataError("non-finite feature value")


# Byte classes of the parser. Blanks are the ASCII characters str.split()
# separates tokens on, line ends those a text-mode file ends lines on.
# Every other byte, NUL and non-ASCII ones too, is a token byte.
_TOKEN, _COLON, _BLANK, _LINE_END = range(4)
_BYTE_CLASS = np.full(256, _TOKEN, dtype=np.uint8)
_BYTE_CLASS[[c for c in range(128) if chr(c).isspace()]] = _BLANK
_BYTE_CLASS[list(b"\n\r")] = _LINE_END
_BYTE_CLASS[ord(":")] = _COLON
# Fields are padded to the longest one for numpy's cast, so a longer field
# is malformed rather than multiply its memory.
_MAX_FIELD = 64
# A run of at most this many digits is below 10**18, so int64 holds it.
_MAX_DIGITS = 18
# Feature indices are stored as int64.
_MAX_INDEX = np.iinfo(np.int64).max
# What the first faulty token is reported as, given its line number and text.
_MALFORMED_LABEL = "malformed label at line {0}: {1!r}"
_NON_BINARY = "non-binary label {1} at line {0}"
_MALFORMED_FEATURE = "malformed feature at line {0}: {1!r}"
_BELOW_BASE = "feature index below base at line {0}: {1!r}"
_UNSORTED = "unsorted or duplicate feature index at line {0}: {1!r}"
_NAN = "NaN feature value at line {0}"


def _cast_fields(raw, buf, start, stop, kind, odd):
    """Convert every field raw[start[i]:stop[i]] with `kind`, int or float.

    Returns the values and a mask of the malformed fields, None if there are
    none. Both paths below give what Python's int() and float() give.

    A field of 1 to _MAX_DIGITS ASCII digits is read by arithmetic: a Horner
    loop over its bytes sums it exactly in int64, and the int64 to float
    conversion rounds to nearest, as float() rounds the same decimal. numpy
    casts every other field (signs, "_", ".", exponents, inf and nan, longer
    digit runs, empty fields) by the rules of int() and float(). Where that
    raises, or the file holds NUL or non-ASCII bytes (`odd`), each field is
    converted alone: it is malformed if kind() rejects it, it holds such a
    byte or it is longer than _MAX_FIELD. An int past int64 is then kept as
    a Python int.
    """
    width = max(int((stop - start).max(initial=0)), 1)
    if width <= _MAX_FIELD and not odd:
        length = stop - start
        chars = np.zeros((start.size, width), dtype=np.uint8)
        value = np.zeros(start.size, dtype=np.int64)
        plain = (length > 0) & (length <= _MAX_DIGITS)
        digit = np.empty(start.size, dtype=np.uint8)
        for j in range(width):
            live = length > j
            column = chars[:, j]
            column[live] = buf[start[live] + j]
            if j < _MAX_DIGITS and plain.any():
                # value = value * 10 + digit; fields found not plain get
                # the cast's value below.
                np.subtract(column, ord("0"), out=digit)
                plain &= (digit < 10) | ~live
                np.multiply(value, 10, out=value, where=live)
                np.add(value, digit, out=value, where=live)
        text = chars.view(f"S{width}")[:, 0]
        try:
            if not plain.any():  # cast the whole text, with no copy
                return text.astype(kind), None
            out = value.astype(kind, copy=False)
            other = ~plain
            out[other] = text[other].astype(kind)
            return out, None
        except (ValueError, OverflowError):
            pass
    out, bad = [], np.zeros(start.size, dtype=bool)
    for i, (a, b) in enumerate(zip(start.tolist(), stop.tolist())):
        field = raw[a:b]
        try:
            if b - a > _MAX_FIELD or not field.isascii() or b"\0" in field:
                raise ValueError(field)
            out.append(kind(field))
        except ValueError:
            out.append(0)
            bad[i] = True
    return np.array(out, dtype=object if kind is int else float), bad


def load_csv(path, label_column, expect_label="binary"):
    """Load a dense numeric CSV; zero-valued cells become absent features."""
    text = _decode(_read_bytes(path), path)
    reader = csv.reader(io.StringIO(text, newline=None))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"no rows in {path}")
    if label_column not in header:
        raise DataError(f"missing label column {label_column!r}")
    repeated = [c for i, c in enumerate(header) if c in header[:i]]
    if repeated:
        raise DataError(f"repeated column {repeated[0]!r} in the header")
    label_i = header.index(label_column)
    feat_i = [i for i, c in enumerate(header) if c != label_column]
    rows, labels = [], []
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) < 2 and not "".join(rec).strip():
            continue  # a blank line
        try:
            label = float(rec[label_i])
            vals = [float(rec[i]) for i in feat_i]
        except (ValueError, IndexError):
            raise DataError(f"non-numeric or missing cell at line {lineno}")
        if expect_label == "binary" and label not in (0.0, 1.0):
            raise DataError(f"non-binary label {_fmt(label)} at line {lineno}")
        if np.isnan(vals).any():
            raise DataError(f"NaN feature value at line {lineno}")
        rows.append([(j, v) for j, v in enumerate(vals) if v != 0.0])
        labels.append(label)
    if not rows:
        raise DataError(f"no rows in {path}")
    kwargs = {}
    if expect_label == "binary":
        kwargs["binary_labels"] = np.asarray(labels, dtype=np.int8)
    else:
        kwargs["continuous_labels"] = np.asarray(labels, dtype=float)
    return SparseDataset.from_rows(rows, n_cols=len(feat_i), **kwargs)


@dataclass(frozen=True)
class FoldAssignment:
    """Stratified K-fold assignment; immutable once built."""

    K: int
    fold_of_row: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fold_of_row",
                           np.asarray(self.fold_of_row, dtype=np.int64))
        if self.K < 2:
            raise DataError("K must be at least 2")
        counts = np.bincount(self.fold_of_row, minlength=self.K)
        if len(counts) > self.K or (counts == 0).any():
            raise DataError("every fold must be non-empty")

    def valid_rows(self, k):
        return np.flatnonzero(self.fold_of_row == k)

    def train_rows(self, k):
        return np.flatnonzero(self.fold_of_row != k)


def stratified_kfold(binary_labels, K, seed) -> FoldAssignment:
    """Deal shuffled rows of each class round-robin onto K folds.

    The round-robin counter continues across classes so that both total fold
    sizes and per-class fold counts differ by at most one.
    """
    labels = np.asarray(binary_labels)
    n = len(labels)
    if K < 2:
        raise DataError("K must be at least 2")
    if K > n:
        raise DataError(f"K={K} exceeds number of rows {n}")
    n_pos = int((labels == 1).sum())
    if n_pos < 1:
        raise DataError("cannot stratify: no positive labels")
    if n_pos == n:
        raise DataError("cannot stratify: no negative labels")
    rng = np.random.default_rng(seed)
    fold = np.empty(n, dtype=np.int64)
    counter = 0
    for cls in (1, 0):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        fold[idx] = (counter + np.arange(idx.size)) % K
        counter += idx.size
    return FoldAssignment(K, fold)
