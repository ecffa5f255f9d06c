import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from labelaudit.data import Dataset, LabeledExample, PredictiveDistribution
from labelaudit.pipeline import config_from_dict
from labelaudit.policy import (
    KEEP,
    NEGATIVE,
    OVERWRITE,
    POSITIVE,
    REMOVE,
    ApplyReport,
    Decision,
    FilterThresholds,
    OverwriteThresholds,
    QuantileThresholds,
    apply_decisions,
    decide_filter,
    decide_overwrite,
    decide_quantile,
    load_decisions,
    rule_histogram,
    save_decisions,
    thresholds_from_section,
    thresholds_to_section,
)
from labelaudit.uncertainty import UncertaintySummary


def _summary(mean, std, example_id="e"):
    mean = np.asarray(mean, float)
    std = np.asarray(std, float)
    return UncertaintySummary(mean, std, 0.0, int(mean.argmax()), (0,), example_id)


FILTER_TH = FilterThresholds()  # t1=0.75 s1=0.2 t2=0.7 s2=0.2
OVERWRITE_TH = OverwriteThresholds()  # t1=0.3 s1=0.15 t2=0.75 s2=0.15


def test_default_thresholds_match_operating_points():
    assert (FILTER_TH.t1, FILTER_TH.s1, FILTER_TH.t2, FILTER_TH.s2) == (0.75, 0.2, 0.7, 0.2)
    assert (OVERWRITE_TH.t1, OVERWRITE_TH.s1, OVERWRITE_TH.t2, OVERWRITE_TH.s2) == (
        0.3,
        0.15,
        0.75,
        0.15,
    )
    q = QuantileThresholds(ordering=(0, 1), good_set={1}, bad_set={0})
    assert (q.q1, q.q2) == (0.9, 0.1)


def test_filter_removes_refuted_positive():
    # evidence channels: (supports_positive, supports_negative)
    d = decide_filter(_summary([0.1, 0.8], [0.05, 0.15]), POSITIVE, FILTER_TH)
    assert d.verdict == REMOVE
    assert d.rule == "filter:positive-refuted"


def test_filter_keeps_boundary_mean():
    d = decide_filter(_summary([0.1, 0.75], [0.05, 0.1]), POSITIVE, FILTER_TH)
    assert d.verdict == KEEP  # strict >: 0.75 is not above t1


def test_filter_keeps_when_std_not_below():
    d = decide_filter(_summary([0.9, 0.05], [0.3, 0.1]), NEGATIVE, FILTER_TH)
    assert d.verdict == KEEP  # std 0.3 fails the strict < s2


def test_filter_removes_supported_negative():
    d = decide_filter(_summary([0.8, 0.1], [0.1, 0.05]), NEGATIVE, FILTER_TH)
    assert d.verdict == REMOVE
    assert d.rule == "filter:negative-supported"


def test_filter_needs_two_channels():
    with pytest.raises(ValueError):
        decide_filter(_summary([0.5, 0.3, 0.2], [0.1, 0.1, 0.1]), POSITIVE, FILTER_TH)


def test_overwrite_false_positive_flips_to_negative():
    d = decide_overwrite(_summary([0.8, 0.2], [0.1, 0.1]), POSITIVE, OVERWRITE_TH)
    assert d.verdict == OVERWRITE
    assert d.new_label == NEGATIVE
    assert d.rule == "overwrite:false-positive"


def test_overwrite_false_negative_flips_to_positive():
    d = decide_overwrite(_summary([0.2, 0.8], [0.1, 0.1]), NEGATIVE, OVERWRITE_TH)
    assert d.verdict == OVERWRITE
    assert d.new_label == POSITIVE


def test_overwrite_boundary_mean_keeps():
    d = decide_overwrite(_summary([0.7, 0.3], [0.1, 0.1]), POSITIVE, OVERWRITE_TH)
    assert d.verdict == KEEP  # strict <: 0.3 is not below t1


def test_overwrite_needs_binary_summary():
    with pytest.raises(ValueError):
        decide_overwrite(_summary([0.5, 0.3, 0.2], [0.1] * 3), POSITIVE, OVERWRITE_TH)


def test_overwrite_threshold_ordering_enforced():
    with pytest.raises(ValueError):
        OverwriteThresholds(t1=0.8, t2=0.5)


ORDERING = (2, 1, 0)  # bad < neutral < good; classes: good=0, neutral=1, bad=2
QUANTILE_TH = QuantileThresholds(ordering=ORDERING, good_set={0}, bad_set={1, 2})


def _cat_dist(argmaxes, example_id="e"):
    rows = np.zeros((len(argmaxes), 3))
    for i, cls in enumerate(argmaxes):
        rows[i, cls] = 1.0
    return PredictiveDistribution(example_id, rows)


def test_quantile_rejects_demoted_good():
    dist = _cat_dist([1] * 9 + [0])
    d = decide_quantile(dist, 0, QUANTILE_TH)  # label good
    assert d.verdict == REMOVE
    assert d.rule == "quantile:good-demoted"


def test_quantile_rejects_promoted_bad():
    dist = _cat_dist([0] * 10)
    d = decide_quantile(dist, 2, QUANTILE_TH)  # label bad, unanimous good
    assert d.verdict == REMOVE
    assert d.rule == "quantile:bad-promoted"


def test_quantile_keeps_confident_good():
    dist = _cat_dist([0] * 8 + [1] * 2)
    d = decide_quantile(dist, 0, QUANTILE_TH)
    assert d.verdict == KEEP


def test_quantile_label_outside_sets():
    th = QuantileThresholds(ordering=ORDERING, good_set={0}, bad_set={2})
    with pytest.raises(ValueError):
        decide_quantile(_cat_dist([0]), 1, th)


def test_quantile_threshold_validation():
    with pytest.raises(ValueError):
        QuantileThresholds(ordering=ORDERING, good_set={0}, bad_set={0, 1})
    with pytest.raises(ValueError):
        QuantileThresholds(ordering=ORDERING, good_set={0}, bad_set={1}, q1=0.1, q2=0.9)


def _dataset(n, label=1):
    return Dataset.from_examples(
        2,
        tuple(
            LabeledExample(id=f"x{i}", label=label, features=(float(i),)) for i in range(n)
        ),
    )


def test_apply_remove_counts():
    ds = _dataset(100)
    decisions = [Decision(f"x{i}", REMOVE, rule="r") for i in range(7)]
    cleaned, report = apply_decisions(ds, decisions, "filter_only")
    assert report == ApplyReport(kept=93, removed=7, overwritten=0)
    assert len(cleaned) == 93


def test_apply_overwrite_counts():
    ds = _dataset(100, label=1)
    decisions = [Decision(f"x{i}", OVERWRITE, new_label=0, rule="r") for i in range(7)]
    cleaned, report = apply_decisions(ds, decisions, "overwrite")
    assert report == ApplyReport(kept=100, removed=0, overwritten=7)
    assert sum(1 for ex in cleaned.examples if ex.label == 0) == 7


def test_apply_rejects_overwrite_in_filter_only_mode():
    ds = _dataset(3)
    with pytest.raises(ValueError, match="filter_only"):
        apply_decisions(ds, [Decision("x0", OVERWRITE, new_label=0)], "filter_only")


def test_apply_rejects_unknown_id_and_duplicates():
    ds = _dataset(3)
    with pytest.raises(ValueError, match="unknown"):
        apply_decisions(ds, [Decision("zz", REMOVE)], "filter_only")
    with pytest.raises(ValueError, match="duplicate"):
        apply_decisions(ds, [Decision("x0", REMOVE), Decision("x0", KEEP)], "filter_only")


def test_apply_rejects_no_op_overwrite():
    ds = _dataset(3, label=1)
    with pytest.raises(ValueError, match="change"):
        apply_decisions(ds, [Decision("x0", OVERWRITE, new_label=1)], "overwrite")


def test_undecided_examples_pass_through():
    ds = _dataset(5)
    cleaned, report = apply_decisions(ds, [Decision("x1", REMOVE)], "filter_only")
    assert report.kept == 4
    assert {ex.id for ex in cleaned.examples} == {"x0", "x2", "x3", "x4"}


@given(st.lists(st.sampled_from([KEEP, REMOVE, OVERWRITE]), min_size=0, max_size=30))
@settings(max_examples=100, deadline=None)
def test_apply_count_identity(verdicts):
    ds = _dataset(len(verdicts), label=1)
    decisions = [
        Decision(f"x{i}", v, new_label=0 if v == OVERWRITE else None)
        for i, v in enumerate(verdicts)
    ]
    cleaned, report = apply_decisions(ds, decisions, "overwrite")
    assert report.kept + report.removed == len(ds)
    assert report.kept == len(cleaned)
    assert report.overwritten <= report.kept


def test_decision_invariants():
    with pytest.raises(ValueError):
        Decision("a", OVERWRITE)  # overwrite needs a new label
    with pytest.raises(ValueError):
        Decision("a", KEEP, new_label=1)
    with pytest.raises(ValueError):
        Decision("a", "unknown")


def test_decision_file_roundtrip(tmp_path):
    decisions = [
        Decision("a", KEEP),
        Decision("b", REMOVE, rule="filter:positive-refuted"),
        Decision("c", OVERWRITE, new_label=0, rule="overwrite:false-positive"),
    ]
    path = tmp_path / "decisions.jsonl"
    save_decisions(decisions, str(path))
    assert load_decisions(str(path)) == decisions


def test_rule_histogram():
    decisions = [Decision("a", KEEP), Decision("b", REMOVE, rule="r"), Decision("c", REMOVE, rule="r")]
    assert rule_histogram(decisions) == {"none": 1, "r": 2}


def test_threshold_config_sections():
    docs = {
        "filter": {"t1": 0.8},
        "overwrite": {},
        "quantile": {"ordering": [0, 1], "good_set": [1], "bad_set": [0], "q1": 0.8},
    }
    sections = {kind: thresholds_from_section(kind, doc) for kind, doc in docs.items()}
    assert sections["filter"].t1 == 0.8
    assert sections["filter"].s1 == 0.2  # omitted fields take defaults
    assert sections["overwrite"] == OverwriteThresholds()
    assert sections["quantile"].q1 == 0.8
    assert sections["quantile"].q2 == 0.1
    for kind in ("filter", "overwrite", "quantile"):
        section = thresholds_to_section(sections[kind])
        assert thresholds_from_section(kind, section) == sections[kind]
        # the run config's thresholds section is the same named section
        config = config_from_dict({"dataset": "d.jsonl", "policy": kind, "thresholds": {kind: docs[kind]}})
        assert config.thresholds == sections[kind]
    with pytest.raises(ValueError, match="unknown filter threshold fields"):
        thresholds_from_section("filter", {"q1": 0.5})
    with pytest.raises(ValueError, match="need ordering, good_set, bad_set"):
        thresholds_from_section("quantile", {"q1": 0.8})


def test_monotonicity_tightening_never_grows_removals(rng):
    # spot check; the acceptance suite runs the full 1000-trial version
    for _ in range(100):
        mean_neg = rng.random()
        std_neg = rng.random() * 0.5
        s = _summary([1 - mean_neg, mean_neg], [std_neg, std_neg])
        th = FilterThresholds(t1=0.5, s1=0.3, t2=0.5, s2=0.3)
        tight = FilterThresholds(t1=0.7, s1=0.2, t2=0.7, s2=0.2)
        before = decide_filter(s, POSITIVE, th).verdict
        after = decide_filter(s, POSITIVE, tight).verdict
        assert not (before == KEEP and after == REMOVE)
