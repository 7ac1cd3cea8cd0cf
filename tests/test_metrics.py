"""Metric unit tests against frozen values and from-definition oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbforest.metrics import (MetricError, MetricSpec, auc_bed, auc_prc,
                              auc_roc, enrichment_factor, evaluate, logloss,
                              oriented_score, reliability_bins,
                              reliability_score)

from _oracles import (auc_bed_oracle, auc_prc_oracle, auc_roc_oracle,
                      auc_roc_rankdata_oracle, enrichment_factor_oracle,
                      logloss_oracle, make_rng, random_instance,
                      reliability_score_oracle)

# High-precision constants frozen from an independent evaluator (mpmath,
# 40 significant digits) before the implementation was finalized.
SIGMOID_2 = 0.8807970779778823
LOGLOSS_08_04 = 0.7339691750802004      # -ln 0.8 - ln 0.6
FOUR_LN_2 = 2.772588722239781           # 4 * ln 2
BEDROC_RANKS_3_7 = 0.016137662299662350  # N=10, positives at ranks 3 and 7, a=20


# ---------------------------------------------------------------- auc_roc

def test_auc_roc_perfect_separation():
    assert auc_roc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0


def test_auc_roc_mixed_ranking():
    # 4 pos-neg pairs, 3 correctly ordered
    assert auc_roc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75


def test_auc_roc_all_ties_is_half():
    assert auc_roc([0.4] * 6, [1, 0, 1, 0, 0, 0]) == 0.5


def test_auc_roc_single_class_raises():
    with pytest.raises(MetricError):
        auc_roc([0.1, 0.2], [1, 1])
    with pytest.raises(MetricError):
        auc_roc([0.1, 0.2], [0, 0])


def test_auc_roc_matches_pair_counting_exactly():
    rng = make_rng(401)
    for _ in range(100):
        scores, labels = random_instance(rng)
        ours = auc_roc(np.array(scores), np.array(labels))
        assert ours == pytest.approx(auc_roc_oracle(scores, labels), abs=1e-12)


# Values that tie, compare equal with different bits (±0.0), sort to either
# end (±inf) or compare with nothing (NaN).
_AUC_EDGE_VALUES = [0.0, -0.0, 1.0, 0.5, -2.5, math.inf, -math.inf, math.nan]


@st.composite
def _scored_rows(draw):
    n = draw(st.integers(2, 40))
    value = st.one_of(st.sampled_from(_AUC_EDGE_VALUES), st.floats())
    if draw(st.booleans()):
        scores = [draw(value)] * n
    else:
        scores = draw(st.lists(value, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                  .filter(lambda l: 0 < sum(l) < n))
    return scores, labels


@settings(max_examples=1000, deadline=None)
@given(_scored_rows())
def test_auc_roc_equals_the_rankdata_sum_bit_for_bit(rows):
    scores, labels = rows
    ours = auc_roc(scores, labels)
    theirs = auc_roc_rankdata_oracle(scores, labels)
    assert math.isnan(ours) == any(math.isnan(s) for s in scores)
    assert math.isnan(theirs) == math.isnan(ours)
    if not math.isnan(ours):
        assert ours == theirs


# ---------------------------------------------------------------- auc_prc

def test_auc_prc_perfect_ranking():
    assert auc_prc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_auc_prc_single_positive_rank_two():
    assert auc_prc([0.9, 0.8, 0.7], [0, 1, 0]) == 0.5


def test_auc_prc_random_scores_near_prevalence():
    # with uninformative scores AP concentrates near the positive rate
    vals = []
    for seed in range(10):
        g = np.random.default_rng(seed)
        n = 20000
        scores = g.random(n)
        labels = (g.random(n) < 0.01).astype(int)
        vals.append(auc_prc(scores, labels))
    assert abs(np.mean(vals) - 0.01) < 0.005


def test_auc_prc_matches_oracle():
    rng = make_rng(402)
    for _ in range(100):
        scores, labels = random_instance(rng)
        ours = auc_prc(np.array(scores), np.array(labels))
        assert ours == pytest.approx(auc_prc_oracle(scores, labels), abs=1e-10)


# ---------------------------------------------------------------- auc_bed

def test_auc_bed_frozen_value():
    scores = np.linspace(1.0, 0.1, 10)
    labels = np.zeros(10)
    labels[[2, 6]] = 1  # ranks 3 and 7
    assert auc_bed(scores, labels, 20.0) == pytest.approx(
        BEDROC_RANKS_3_7, abs=1e-12)


def test_auc_bed_perfect_retrieval_is_one():
    scores = np.linspace(1.0, 0.1, 10)
    labels = np.zeros(10)
    labels[[0, 1]] = 1
    assert auc_bed(scores, labels, 20.0) == pytest.approx(1.0, abs=1e-12)


def test_auc_bed_extremal_arrangements():
    g = np.random.default_rng(7)
    scores = np.linspace(1.0, 0.0, 30)
    best = np.zeros(30)
    best[:3] = 1
    worst = np.zeros(30)
    worst[-3:] = 1
    hi = auc_bed(scores, best)
    lo = auc_bed(scores, worst)
    for _ in range(100):
        labels = g.permutation(best)
        v = auc_bed(scores, labels)
        assert lo <= v <= hi


def test_auc_bed_matches_oracle():
    rng = make_rng(403)
    for _ in range(100):
        scores, labels = random_instance(rng)
        ours = auc_bed(np.array(scores), np.array(labels), 20.0)
        assert ours == pytest.approx(auc_bed_oracle(scores, labels, 20.0),
                                     abs=1e-10)


def test_auc_bed_bad_alpha():
    with pytest.raises(MetricError):
        auc_bed([0.1, 0.9], [0, 1], alpha=0.0)


# ---------------------------------------------------- enrichment_factor

def test_ef_top_record_positive():
    scores = np.linspace(1.0, 0.01, 100)
    labels = np.zeros(100)
    labels[0] = 1
    labels[50:59] = 1  # 10 positives total
    assert enrichment_factor(scores, labels, 0.01) == 10.0


def test_ef_no_positives_in_top():
    scores = np.linspace(1.0, 0.01, 100)
    labels = np.zeros(100)
    labels[90:] = 1
    assert enrichment_factor(scores, labels, 0.05) == 0.0


def test_ef_scores_equal_labels_maximal():
    g = np.random.default_rng(11)
    labels = (g.random(200) < 0.1).astype(int)
    scores = labels.astype(float)
    for t in (0.01, 0.05, 0.1, 0.5):
        ours = enrichment_factor(scores, labels, t)
        assert ours == pytest.approx(
            enrichment_factor_oracle(list(scores), list(labels), t), abs=1e-12)
        # can never beat perfect enrichment
        assert ours <= 1.0 / (labels.sum() / len(labels)) + 1e-12


def test_ef_matches_oracle():
    rng = make_rng(404)
    for _ in range(100):
        scores, labels = random_instance(rng)
        t = rng.choice([0.01, 0.05, 0.2, 0.5])
        ours = enrichment_factor(np.array(scores), np.array(labels), t)
        assert ours == pytest.approx(
            enrichment_factor_oracle(scores, labels, t), abs=1e-10)


def test_ef_bad_t():
    with pytest.raises(MetricError):
        enrichment_factor([0.5, 0.4], [1, 0], 0.0)
    with pytest.raises(MetricError):
        enrichment_factor([0.5, 0.4], [1, 0], 1.0)


# ---------------------------------------------------------------- logloss

def test_logloss_all_half():
    assert logloss([0.5] * 4, [1, 0, 1, 0]) == pytest.approx(FOUR_LN_2,
                                                             abs=1e-12)


def test_logloss_exact_scores_clipping_bound():
    v = logloss([1.0, 0.0, 1.0, 0.0], [1, 0, 1, 0])
    assert 0.0 < v <= 4 * 1e-15 * (1 + 1e-3)


def test_logloss_frozen_value():
    assert logloss([0.8, 0.4], [1, 0]) == pytest.approx(LOGLOSS_08_04,
                                                        abs=1e-12)


def test_logloss_mean_flag():
    assert logloss([0.5] * 4, [1, 0, 1, 0], mean=True) == pytest.approx(
        math.log(2), abs=1e-12)


def test_logloss_rejects_out_of_range():
    with pytest.raises(MetricError):
        logloss([1.2, 0.5], [1, 0])


def test_logloss_matches_oracle():
    rng = make_rng(405)
    for _ in range(100):
        scores, labels = random_instance(rng)
        ours = logloss(np.array(scores), np.array(labels))
        assert ours == pytest.approx(logloss_oracle(scores, labels), abs=1e-10)


# ------------------------------------------------------- reliability bins

def test_reliability_bins_even_split():
    g = np.random.default_rng(3)
    bins = reliability_bins(g.random(20), (g.random(20) < 0.5).astype(int), 10)
    assert list(bins.counts) == [2] * 10


def test_reliability_bins_remainder_to_early_bins():
    g = np.random.default_rng(4)
    bins = reliability_bins(g.random(23), (g.random(23) < 0.5).astype(int), 10)
    assert list(bins.counts) == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]
    assert bins.counts.sum() == 23


def test_reliability_bins_all_tied_scores():
    bins = reliability_bins([0.3] * 20, [1] * 6 + [0] * 14, 10)
    assert bins.counts.sum() == 20
    assert np.allclose(bins.mean_predicted, 0.3)


def test_reliability_bins_too_few_rows():
    with pytest.raises(MetricError):
        reliability_bins([0.5] * 5, [1, 0, 1, 0, 1], 10)


@pytest.mark.parametrize("n_bins", [0, -1])
def test_reliability_bins_need_at_least_one_bin(n_bins):
    with pytest.raises(MetricError, match="n_bins must be at least 1"):
        reliability_bins([0.5] * 5, [1, 0, 1, 0, 1], n_bins)


def test_reliability_score_perfectly_calibrated():
    # every bin's mean prediction equals its positive rate exactly
    scores = np.repeat([0.0, 0.5, 1.0], 4)
    labels = np.array([0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1])
    assert reliability_score(scores, labels, 3) == 0.0


def test_reliability_score_constant_base_rate_predictor():
    labels = np.array([1, 0, 0, 0, 0] * 4)  # rate 0.2 in every bin of 5
    scores = np.full(20, 0.2)
    assert reliability_score(scores, labels, 4) == 0.0


def test_reliability_score_frozen_example():
    scores = 0.05 * np.arange(1, 21)
    labels = np.array([0] * 16 + [1, 0, 1, 0])
    assert reliability_score(scores, labels, 10) == pytest.approx(4.25,
                                                                  abs=1e-12)


def test_reliability_score_zero_positives():
    with pytest.raises(MetricError):
        reliability_score(np.linspace(0, 1, 20), np.zeros(20), 10)


def test_reliability_score_matches_oracle():
    rng = make_rng(406)
    for _ in range(100):
        scores, labels = random_instance(rng)
        ours = reliability_score(np.array(scores), np.array(labels), 10)
        assert ours == pytest.approx(
            reliability_score_oracle(scores, labels, 10), abs=1e-10)


# ---------------------------------------------------- shared properties

def test_ranking_metrics_invariant_under_monotone_transforms():
    g = np.random.default_rng(21)
    scores = g.random(150)
    labels = (g.random(150) < 0.2).astype(int)
    labels[0], labels[1] = 1, 0
    for transform in (lambda x: x ** 3, lambda x: 1 / (1 + np.exp(-5 * x))):
        ts = transform(scores)
        assert auc_roc(ts, labels) == pytest.approx(auc_roc(scores, labels),
                                                    abs=1e-12)
        assert auc_prc(ts, labels) == pytest.approx(auc_prc(scores, labels),
                                                    abs=1e-12)
        assert auc_bed(ts, labels) == pytest.approx(auc_bed(scores, labels),
                                                    abs=1e-12)
        assert enrichment_factor(ts, labels, 0.05) == pytest.approx(
            enrichment_factor(scores, labels, 0.05), abs=1e-12)


def test_probability_metrics_sensitive_to_monotone_transforms():
    g = np.random.default_rng(22)
    scores = g.random(100) * 0.8 + 0.1
    labels = (g.random(100) < 0.3).astype(int)
    labels[0], labels[1] = 1, 0
    for transform in (lambda x: x ** 3, lambda x: 1 / (1 + np.exp(-5 * x))):
        ts = transform(scores)
        assert logloss(ts, labels) != pytest.approx(logloss(scores, labels),
                                                    abs=1e-6)
        assert reliability_score(ts, labels) != pytest.approx(
            reliability_score(scores, labels), abs=1e-6)


def test_reliability_bins_partition_property():
    rng = make_rng(407)
    for _ in range(30):
        scores, labels = random_instance(rng, n_max=100)
        bins = reliability_bins(np.array(scores), np.array(labels), 10)
        assert bins.counts.sum() == len(scores)
        assert (np.abs(bins.counts - bins.counts.mean()) <= 1).all()


# ---------------------------------------------------------- MetricSpec

def test_metric_spec_validation():
    with pytest.raises(MetricError):
        MetricSpec(kind="unknown")
    with pytest.raises(MetricError):
        MetricSpec(kind="ef")            # t required
    with pytest.raises(MetricError):
        MetricSpec(kind="ef", t=1.5)
    with pytest.raises(MetricError):
        MetricSpec(kind="auc_bed", alpha=-1.0)


def test_metric_spec_labels():
    assert MetricSpec(kind="ef", t=0.01).label() == "ef@0.01"
    assert MetricSpec(kind="auc_bed", alpha=20.0).label() == "auc_bed(alpha=20)"
    assert MetricSpec(kind="auc_roc").label() == "auc_roc"


def test_evaluate_and_orientation():
    scores = np.array([0.9, 0.8, 0.3, 0.2])
    labels = np.array([1, 1, 0, 0])
    assert evaluate(MetricSpec(kind="auc_roc"), scores, labels) == 1.0
    spec = MetricSpec(kind="logloss")
    assert oriented_score(spec, scores, labels) == -evaluate(spec, scores,
                                                             labels)
