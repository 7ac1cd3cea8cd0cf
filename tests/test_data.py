"""Data loading, label mapping, and stratified fold tests."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbforest.data import (DataError, FoldAssignment, LabelMapping,
                           SparseDataset, binarize, load_csv, load_svmlight,
                           stratified_kfold)
from cbforest.synth import make_synthetic

from _oracles import save_svmlight_oracle, svmlight_lines_oracle


# ------------------------------------------------------------ svmlight

def test_load_svmlight_basic(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text("1 0:1 4:1\n0 2:1\n")
    ds = load_svmlight(p, expect_label="binary")
    assert ds.n_rows == 2
    assert ds.n_cols == 5
    assert list(ds.binary_labels) == [1, 0]
    assert ds.row_pairs(0) == [(0, 1.0), (4, 1.0)]
    assert ds.row_pairs(1) == [(2, 1.0)]


def test_load_svmlight_empty_file(tmp_path):
    p = tmp_path / "empty.svm"
    p.write_text("")
    with pytest.raises(DataError, match="no rows"):
        load_svmlight(p, expect_label="binary")


def test_load_svmlight_non_binary_label(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text("0.5 1:2.0\n")
    with pytest.raises(DataError, match="non-binary label 0.5 at line 1"):
        load_svmlight(p, expect_label="binary")


def test_load_svmlight_continuous_labels(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text("5.25 0:1\n-3.5 1:0.5\n")
    ds = load_svmlight(p, expect_label="continuous")
    assert list(ds.continuous_labels) == [5.25, -3.5]
    assert ds.binary_labels is None


def test_load_svmlight_malformed_line_reports_number(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text("1 0:1\n0 not-a-pair\n")
    with pytest.raises(DataError, match="line 2"):
        load_svmlight(p, expect_label="binary")


def test_load_svmlight_unsorted_indices_rejected(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text("1 4:1 0:1\n")
    with pytest.raises(DataError):
        load_svmlight(p, expect_label="binary")


def test_load_svmlight_one_based_indexing(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text("1 1:1 5:1\n")
    ds = load_svmlight(p, expect_label="binary", zero_based=False)
    assert ds.row_pairs(0) == [(0, 1.0), (4, 1.0)]
    assert ds.n_cols == 5


def test_load_svmlight_n_cols_override(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text("1 0:1\n")
    ds = load_svmlight(p, expect_label="binary", n_cols=64)
    assert ds.n_cols == 64


def test_svmlight_round_trip(tmp_path):
    g = np.random.default_rng(9)
    rows = []
    for _ in range(30):
        cols = np.sort(g.choice(40, size=g.integers(0, 6), replace=False))
        rows.append([(int(c), float(g.choice([1.0, 0.5, 2.25]))) for c in cols])
    labels = g.random(30) * 10 - 5
    ds = SparseDataset.from_rows(rows, n_cols=40, continuous_labels=labels)
    p = tmp_path / "rt.svm"
    ds.save_svmlight(p, label_kind="continuous")
    back = load_svmlight(p, expect_label="continuous", n_cols=40)
    assert back.n_rows == ds.n_rows
    for i in range(ds.n_rows):
        assert back.row_pairs(i) == ds.row_pairs(i)
    assert np.array_equal(back.continuous_labels, ds.continuous_labels)


def test_save_svmlight_writes_the_per_token_writers_bytes(tmp_path):
    rows = [[(0, -0.0), (1, 1e15), (2, 1e16), (3, 0.1), (5, 7.0)],
            [],
            [(1, 0.0), (4, -3.0), (6, 1e16), (7, 2.5)],
            [(0, 0.1), (7, -1e15)]]
    ds = SparseDataset.from_rows(
        rows, n_cols=8, continuous_labels=[-0.0, 1e16, 0.1, 3.0],
        binary_labels=[1, 0, 0, 1])
    for label_kind in ("binary", "continuous"):
        for zero_based in (True, False):
            ds.save_svmlight(tmp_path / "new.svm", label_kind, zero_based)
            save_svmlight_oracle(ds, tmp_path / "old.svm", label_kind,
                                 zero_based)
            new = (tmp_path / "new.svm").read_bytes()
            assert new == (tmp_path / "old.svm").read_bytes()
    assert new.splitlines()[:2] == [
        b"-0.0 1:0 2:1000000000000000.0 3:1e+16 4:0.1 6:7", b"1e+16"]


# ------------------------------------- bulk parse vs the line-loop oracle

def _assert_same_dataset(a, b):
    assert (a.n_rows, a.n_cols) == (b.n_rows, b.n_cols)
    for name in ("indptr", "indices", "values", "continuous_labels",
                 "binary_labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


# Blanks are every ASCII character str.split() separates on that does not
# end a line of a text-mode file.
_BLANKS = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
_BINARY_LABELS = ["0", "1", "+1", "-0", "1.0", "0e3", "1_0e-1", ".0", "1E0"]
_NUMBER_SHAPES = ["-0", "+5", "1_5.25", "7.", ".5", "-2.5e-3", "1", "1"]
_MAX_COL = 40


# Runs of 1 to 20 digits, leading zeros included: up to 18 digits they are
# read by arithmetic, past that by numpy's cast.
_DIGIT_RUN = st.text("0123456789", min_size=1, max_size=20)


@st.composite
def _number(draw):
    v = draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    return draw(st.sampled_from(
        [repr(v), f"{v:+.4e}", f"{v:.6g}", f"{v:E}", draw(_DIGIT_RUN)]
        + _NUMBER_SHAPES))


@st.composite
def _index(draw, i):
    s = str(i)
    return draw(st.sampled_from(
        [s, "+" + s, "0" + s, s[0] + "_" + s[1:] if len(s) > 1 else s,
         s.zfill(draw(st.integers(1, 20)))]))


@st.composite
def _rows(draw, binary, base, min_rows=1):
    """Token lists [label, "idx:val", ...] of well-formed rows."""
    rows = []
    for _ in range(draw(st.integers(min_rows, 6))):
        label = draw(st.sampled_from(_BINARY_LABELS) if binary else _number())
        cols = sorted(draw(st.sets(st.integers(0, _MAX_COL - 1), max_size=6)))
        rows.append([label] + [f"{draw(_index(c + base))}:{draw(_number())}"
                               for c in cols])
    return rows


@st.composite
def _render(draw, rows):
    """File text and the line number of each row, with blank lines between
    rows and blanks around tokens; one line-end style per file."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    blank = st.text(_BLANKS, max_size=2)
    lines, linenos = [], []
    for toks in rows:
        lines += [draw(blank) for _ in range(draw(st.integers(0, 1)))]
        seps = [draw(st.text(_BLANKS, min_size=1, max_size=2))
                for _ in toks[1:]] + [draw(blank)]
        lines.append(draw(blank) + "".join(
            t + s for t, s in zip(toks, seps)))
        linenos.append(len(lines))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, linenos


@settings(max_examples=150, deadline=None)
@given(data=st.data(), binary=st.booleans(), zero_based=st.booleans(),
       override=st.booleans())
def test_bulk_parse_equals_line_loop(tmp_path_factory, data, binary,
                                     zero_based, override):
    base = 0 if zero_based else 1
    rows = data.draw(_rows(binary, base))
    raw = data.draw(_render(rows))[0].encode("ascii")
    label = "binary" if binary else "continuous"
    n_cols = _MAX_COL + 3 if override else None
    path = tmp_path_factory.getbasetemp() / "rows.svm"
    path.write_bytes(raw)
    _assert_same_dataset(
        load_svmlight(path, label, zero_based=zero_based, n_cols=n_cols),
        svmlight_lines_oracle(raw, path, label, zero_based, n_cols))


# Fields at the edges of the digit path: leading zeros, a sign, "_", 2**53 + 1
# (which rounds to even as a float), and 17, 18 and 19 digits, the last one
# past int64 as an index.
_DIGIT_EDGES = ["0", "00", "007", "-0", "+1", "1_0", "9007199254740993",
                "12345678901234567", "99999999999999999",
                "123456789012345678", "999999999999999999",
                "1234567890123456789", "9223372036854775807",
                "9999999999999999999"]


@pytest.mark.parametrize("field", _DIGIT_EDGES)
def test_digit_edges_parse_as_the_line_loop(tmp_path, field):
    """The field as a label, a value and an index: load_svmlight gives the
    line-loop oracle's dataset or its DataError."""
    raw = f"{field} 0:{field} 1:1\n1 {field}:1\n".encode("ascii")
    path = tmp_path / "d.svm"
    path.write_bytes(raw)
    for zero_based in (True, False):
        for n_cols in (None, 64):
            try:
                expected = svmlight_lines_oracle(raw, path, "continuous",
                                                 zero_based, n_cols)
            except DataError as e:
                with pytest.raises(DataError) as exc:
                    load_svmlight(path, "continuous", zero_based=zero_based,
                                  n_cols=n_cols)
                assert str(exc.value) == str(e)
                continue
            ds = load_svmlight(path, "continuous", zero_based=zero_based,
                               n_cols=n_cols)
            _assert_same_dataset(ds, expected)
            assert ds.continuous_labels[0] == ds.values[0] == float(field)
            assert (np.signbit(ds.values[0]) == np.signbit(
                ds.continuous_labels[0]) == field.startswith("-"))


_BAD_LABELS = ["abc", "1:1", "--1", "0x1", "1_", "nan(1)", "1\x00", "\x7f"]
_NON_BINARY = {"2": "2", "0.5": "0.5", "-1": "-1", "nan": "nan", "inf": "inf",
               "-1e400": "-inf", "2.5e15": "2500000000000000.0"}
_BAD_FEATURES = ["5", "a:1", "1.5:1", ":1", "1:", "1:x", "1:2:3", "0x1:1",
                 "1e1:1", "1:1\x00", "1:" + "1" * 70 + "x"]
_N_COLS = _MAX_COL + 8
# Faults the line loop finds on their own line, and faults it finds after
# reading every line, in the order it checks them.
_LINE_FAULTS = ["label", "non_binary", "feature", "below_base", "order",
                "nan"]
_FILE_FAULTS = ["n_cols", "inf"]


def _inject(draw, kind, toks, base):
    """Make the row `toks` hold one fault of `kind`. Returns its message as a
    function of the line number, or None for a fault found after reading
    every line."""
    last = int(toks[-1].split(":")[0]) if len(toks) > 1 else None
    after = base if last is None else last + 1
    if kind == "label":
        toks[0] = tok = draw(st.sampled_from(_BAD_LABELS))
        return lambda n: f"malformed label at line {n}: {tok!r}"
    if kind == "non_binary":
        toks[0] = tok = draw(st.sampled_from(sorted(_NON_BINARY)))
        return lambda n: f"non-binary label {_NON_BINARY[tok]} at line {n}"
    if kind == "feature":
        tok = draw(st.sampled_from(_BAD_FEATURES))
        toks.append(tok)
        return lambda n: f"malformed feature at line {n}: {tok!r}"
    if kind == "below_base":
        tok = draw(st.sampled_from(
            [f"{base - 1}:1", f"{base - 2}:1", "-9223372036854775808:1"]))
        toks.append(tok)
        return lambda n: f"feature index below base at line {n}: {tok!r}"
    if kind == "order":
        if last is None:
            toks.append(f"{after}:1")
            last = after
        tok = f"{draw(st.integers(base, last))}:{draw(_number())}"
        toks.append(tok)
        return lambda n: (f"unsorted or duplicate feature index "
                          f"at line {n}: {tok!r}")
    if kind == "nan":
        toks.append(f"{after}:{draw(st.sampled_from(['nan', 'NaN', '-nan']))}")
        return lambda n: f"NaN feature value at line {n}"
    if kind == "n_cols":
        toks.append(f"{_N_COLS + base + draw(st.integers(0, 3))}:1")
        return None
    inf = draw(st.sampled_from(["inf", "-Infinity", "1e400"]))
    toks.append(f"{after}:{inf}")
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data(), binary=st.booleans(), zero_based=st.booleans(),
       override=st.booleans())
def test_bulk_parse_declines_what_the_line_loop_rejects(
        tmp_path_factory, data, binary, zero_based, override):
    """A fault at a random line, then a different one on a later line:
    load_svmlight reports the first fault of each file, with the message
    the line-loop oracle raises."""
    base = 0 if zero_based else 1
    kinds = [k for k in _LINE_FAULTS + _FILE_FAULTS
             if binary or k != "non_binary"]
    first = data.draw(st.sampled_from(kinds))
    second = data.draw(st.sampled_from([k for k in kinds if k != first]))
    rows = data.draw(_rows(binary, base, min_rows=2))
    i = data.draw(st.integers(0, len(rows) - 2))
    j = data.draw(st.integers(i + 1, len(rows) - 1))
    label = "binary" if binary else "continuous"
    n_cols = _N_COLS if override or "n_cols" in (first, second) else None
    path = tmp_path_factory.getbasetemp() / "faults.svm"

    injected = []
    for kind, row in ((first, i), (second, j)):
        injected.append((kind, row, _inject(data.draw, kind, rows[row], base)))
        text, linenos = data.draw(_render(rows))
        on_lines = [(row, message) for kind, row, message in injected
                    if kind in _LINE_FAULTS]
        if on_lines:
            row, message = on_lines[0]
            expected = message(linenos[row])
        elif "n_cols" in [kind for kind, _, _ in injected]:
            max_idx = max(int(t.split(":")[0]) - base
                          for toks in rows for t in toks[1:])
            expected = f"feature index {max_idx} exceeds n_cols={n_cols}"
        else:
            expected = "non-finite feature value"
        raw = text.encode("ascii")
        path.write_bytes(raw)
        with pytest.raises(DataError) as exc:
            load_svmlight(path, label, zero_based=zero_based, n_cols=n_cols)
        assert str(exc.value) == expected
        with pytest.raises(DataError) as exc:
            svmlight_lines_oracle(raw, path, label, zero_based, n_cols)
        assert str(exc.value) == expected


@pytest.mark.parametrize("n_features, density, counts", [
    (96, 0.1, False),     # fp-binary
    (32, 0.1, True),      # fp-counts
    (1024, 0.05, False),  # fp-wide
])
def test_bulk_parse_of_benchmark_shaped_files(tmp_path, n_features, density,
                                              counts):
    ds, _ = make_synthetic(300, n_features, 0.05, 16, seed=5, density=density,
                           noise=2.5)
    if counts:
        ds.values = np.random.default_rng(6).integers(
            1, 6, size=ds.values.size).astype(float)
    path = tmp_path / "lib.svm"
    ds.save_svmlight(path, "continuous")
    raw = path.read_bytes()
    for n_cols in (None, n_features):
        bulk = load_svmlight(path, "continuous", n_cols=n_cols)
        _assert_same_dataset(
            bulk, svmlight_lines_oracle(raw, path, "continuous", True, n_cols))
    _assert_same_dataset(bulk, SparseDataset(
        ds.n_rows, n_features, ds.indptr, ds.indices, ds.values,
        continuous_labels=ds.continuous_labels))


@pytest.mark.parametrize("text, label", [
    ("\uff11 0:1\n", 1.0),               # a full-width digit
    ("1\u00a00:1\u2003\n", 1.0),         # non-ASCII blanks
    ("0." + "0" * 70 + "1 0:1\n", 1e-71),   # a field too long to pad
])
def test_line_loop_reads_what_the_bulk_parser_declines(tmp_path, text, label):
    """Numbers are ASCII and at most 64 bytes long: load_svmlight rejects
    these three rows, which the line-loop oracle reads."""
    raw = text.encode("utf-8")
    path = tmp_path / "d.svm"
    path.write_bytes(raw)
    ds = svmlight_lines_oracle(raw, path, "continuous", True, None)
    assert list(ds.continuous_labels) == [label]
    assert ds.row_pairs(0) == [(0, 1.0)]
    # ASCII blanks alone separate tokens, so each label token runs up to
    # the first ASCII space or the line end.
    token = text.split(" ")[0].rstrip("\n")
    with pytest.raises(DataError) as exc:
        load_svmlight(path, expect_label="continuous")
    assert str(exc.value) == f"malformed label at line 1: {token!r}"


def test_undecodable_input_is_a_data_error(tmp_path):
    p = tmp_path / "d.svm"
    p.write_bytes(b"1 0:1\n1 0:\xff\n")
    with pytest.raises(DataError, match=r"d\.svm is not UTF-8 text"):
        load_svmlight(p, expect_label="binary")
    p = tmp_path / "d.csv"
    p.write_bytes(b"label,f0\n1,\xff\n")
    with pytest.raises(DataError, match=r"d\.csv is not UTF-8 text"):
        load_csv(p, "label")


def test_unreadable_input_is_a_data_error(tmp_path):
    for path in (tmp_path / "missing.svm", tmp_path):
        message = re.escape(f"cannot read {path}: ")
        with pytest.raises(DataError, match=message):
            load_svmlight(path, expect_label="binary")
        with pytest.raises(DataError, match=message):
            load_csv(path, "label")


def test_feature_index_past_int64_is_a_data_error(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text(f"1 {2**63}:1\n0 0:1\n")
    with pytest.raises(DataError,
                       match=f"feature index {2**63} exceeds the largest"):
        load_svmlight(p, expect_label="binary")
    with pytest.raises(DataError,
                       match=f"feature index {2**63} exceeds n_cols"):
        load_svmlight(p, expect_label="binary", n_cols=64)
    # one-based, the same token is the largest index an int64 holds
    p.write_text(f"1 {2**63}:1\n0 1:1\n")
    ds = load_svmlight(p, expect_label="binary", zero_based=False)
    assert ds.row_pairs(0) == [(2**63 - 1, 1.0)]


# ----------------------------------------------------------------- csv

def test_load_csv_drops_zero_cells(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,f0,f1\n1,1.5,0\n0,0,2.0\n0,3.0,4.0\n")
    ds = load_csv(p, "label")
    assert ds.n_rows == 3
    assert ds.row_pairs(0) == [(0, 1.5)]
    assert ds.row_pairs(1) == [(1, 2.0)]
    assert ds.row_pairs(2) == [(0, 3.0), (1, 4.0)]
    assert list(ds.binary_labels) == [1, 0, 0]


def test_load_csv_missing_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="label"):
        load_csv(p, "label")


def test_load_csv_all_zero_features(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,f0,f1\n1,0,0\n0,0,0\n")
    ds = load_csv(p, "label")
    assert ds.n_rows == 2
    assert ds.row_pairs(0) == []
    assert ds.row_pairs(1) == []


@pytest.mark.parametrize("header, name", [("a,a,label", "a"),
                                          ("label,a,label", "label")])
def test_load_csv_rejects_a_repeated_column_name(tmp_path, header, name):
    p = tmp_path / "d.csv"
    p.write_text(f"{header}\n1,2,0\n3,4,1\n")
    with pytest.raises(DataError, match=f"repeated column '{name}'"):
        load_csv(p, "label")


def test_load_csv_non_numeric_cell(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,f0\n1,abc\n")
    with pytest.raises(DataError):
        load_csv(p, "label")


def test_load_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,f0\n1,2\n\n \n0,0\n\n")
    ds = load_csv(p, "label")
    assert ds.n_rows == 2
    assert ds.row_pairs(0) == [(0, 2.0)]
    assert ds.row_pairs(1) == []
    assert list(ds.binary_labels) == [1, 0]


def test_load_csv_non_finite_binary_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,f0\n1,1\n-inf,2\n")
    with pytest.raises(DataError, match="^non-binary label -inf at line 3$"):
        load_csv(p, "label")


# ----------------------------------------------------------- binarize

def test_binarize_boundary_is_negative():
    mapping = LabelMapping(5.0, "greater_is_positive")
    assert list(binarize([5.1, 5.0, 4.9], mapping)) == [1, 0, 0]


def test_binarize_empty():
    mapping = LabelMapping(0.0, "greater_is_positive")
    assert len(binarize([], mapping)) == 0


def test_binarize_less_is_positive():
    mapping = LabelMapping(-2.0, "less_is_positive")
    assert list(binarize([-1.0, -3.0], mapping)) == [0, 1]


def test_binarize_nan_rejected():
    mapping = LabelMapping(0.0, "greater_is_positive")
    with pytest.raises(DataError):
        binarize([1.0, float("nan")], mapping)


def test_binarize_idempotent_on_binary_output():
    mapping = LabelMapping(3.0, "greater_is_positive")
    half = LabelMapping(0.5, "greater_is_positive")
    labels = [2.0, 3.0, 3.5, 10.0]
    once = binarize(labels, mapping)
    assert list(binarize(once, half)) == list(once)


def test_label_mapping_requires_finite_threshold():
    with pytest.raises((DataError, ValueError)):
        LabelMapping(float("inf"), "greater_is_positive")


# ---------------------------------------------------- stratified_kfold

def test_stratified_kfold_balanced_counts():
    y = np.zeros(100, dtype=int)
    y[:10] = 1
    folds = stratified_kfold(y, 5, seed=0)
    for k in range(5):
        rows = folds.valid_rows(k)
        assert len(rows) == 20
        assert y[rows].sum() == 2


def test_stratified_kfold_deterministic():
    y = (np.random.default_rng(1).random(57) < 0.3).astype(int)
    a = stratified_kfold(y, 5, seed=42)
    b = stratified_kfold(y, 5, seed=42)
    assert np.array_equal(a.fold_of_row, b.fold_of_row)


def test_stratified_kfold_scarce_positives():
    y = np.zeros(50, dtype=int)
    y[[3, 17, 40]] = 1
    folds = stratified_kfold(y, 5, seed=7)
    counts = sorted(int(y[folds.valid_rows(k)].sum()) for k in range(5))
    assert counts == [0, 0, 1, 1, 1]


def test_stratified_kfold_errors():
    with pytest.raises(DataError):
        stratified_kfold(np.zeros(20, dtype=int), 5, seed=0)  # no positives
    y = np.array([1, 0, 1])
    with pytest.raises(DataError):
        stratified_kfold(y, 5, seed=0)  # K > n_rows


def test_fold_train_valid_complement():
    y = (np.random.default_rng(2).random(83) < 0.2).astype(int)
    folds = stratified_kfold(y, 4, seed=5)
    for k in range(4):
        tr = set(folds.train_rows(k).tolist())
        va = set(folds.valid_rows(k).tolist())
        assert tr | va == set(range(83))
        assert tr & va == set()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=10, max_value=120),
       k=st.integers(min_value=2, max_value=5),
       seed=st.integers(min_value=0, max_value=1000))
def test_fold_partition_property(n, k, seed):
    g = np.random.default_rng(seed)
    y = (g.random(n) < 0.4).astype(int)
    if y.sum() == 0:
        y[0] = 1
    if y.sum() == n:
        y[0] = 0
    folds = stratified_kfold(y, k, seed=seed)
    all_rows = np.concatenate([folds.valid_rows(j) for j in range(k)])
    assert sorted(all_rows.tolist()) == list(range(n))
    sizes = [len(folds.valid_rows(j)) for j in range(k)]
    assert max(sizes) - min(sizes) <= 1
    for cls in (0, 1):
        per_fold = [int((y[folds.valid_rows(j)] == cls).sum())
                    for j in range(k)]
        assert max(per_fold) - min(per_fold) <= 1


# ------------------------------------------------------- SparseDataset

def test_dataset_validation_rejects_nan():
    with pytest.raises(DataError):
        SparseDataset.from_rows([[(0, float("nan"))]], n_cols=2,
                                binary_labels=[1])


def test_dataset_validation_rejects_bad_binary_labels():
    with pytest.raises(DataError):
        SparseDataset.from_rows([[(0, 1.0)]], n_cols=2, binary_labels=[2])


def test_dataset_subset_preserves_rows():
    rows = [[(0, 1.0)], [(1, 2.0)], [(0, 1.0), (1, 1.0)]]
    ds = SparseDataset.from_rows(rows, n_cols=2, binary_labels=[1, 0, 1])
    sub = ds.subset(np.array([2, 0]))
    assert sub.n_rows == 2
    assert sub.row_pairs(0) == [(0, 1.0), (1, 1.0)]
    assert sub.row_pairs(1) == [(0, 1.0)]
    assert list(sub.binary_labels) == [1, 1]
