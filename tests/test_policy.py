import json

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from labelaudit.config import config_from_dict
from labelaudit.data import Dataset, PredictiveDistribution
from labelaudit.noisebench import NoiseMask, detection_scores
from labelaudit.policy import (
    KEEP,
    NEGATIVE,
    OVERWRITE,
    POSITIVE,
    REMOVE,
    VERDICTS,
    ApplyReport,
    Decision,
    Decisions,
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
    return Dataset(2, [f"x{i}" for i in range(n)], [label] * n, np.arange(n, dtype=float)[:, None])


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


def _mixed_decisions() -> list[Decision]:
    return [
        Decision("x3", REMOVE, rule="filter:positive-refuted"),
        Decision("x0", KEEP),
        Decision("x4", OVERWRITE, new_label=0, rule="overwrite:false-positive"),
        Decision("x1", OVERWRITE, new_label=0, rule="overwrite:false-positive"),
        Decision("x2", KEEP),
    ]


def test_decisions_behave_as_their_list_form():
    records = _mixed_decisions()
    columns = Decisions.from_records(records)
    assert len(columns) == len(records)
    assert list(columns) == records
    for i in range(-len(records), len(records)):
        assert columns[i] == records[i]
    with pytest.raises(IndexError):
        columns[len(records)]
    for key in (slice(1, None), slice(None, -1), slice(None, None, 2), slice(3, 1), slice(None)):
        part = columns[key]
        assert isinstance(part, Decisions)
        assert len(part) == len(records[key]) and list(part) == records[key]
    assert Decisions.of(columns) is columns
    assert columns.flagged.tolist() == [d.verdict != KEEP for d in records]
    assert columns.where(OVERWRITE).tolist() == [2, 3]
    assert not columns.verdicts.flags.writeable and not columns.new_labels.flags.writeable
    empty = Decisions.from_records([])
    assert len(empty) == 0 and list(empty) == [] and list(empty[1:]) == []


def test_decisions_take_over_the_ids_they_are_given():
    records = _mixed_decisions()
    ids = tuple(d.example_id for d in records)
    assert Decisions.from_records(records, ids).ids is ids
    with pytest.raises(ValueError, match="do not follow"):
        Decisions.from_records(records, ids[::-1])
    with pytest.raises(ValueError, match="5 entries"):
        Decisions(ids, [0] * 4, [-1] * 5, ["none"] * 5)
    with pytest.raises(ValueError, match="verdict codes"):
        Decisions(ids[:1], [3], [-1], ["none"])


def _apply_reference(dataset, records, mode):
    """The per-example loop that ``apply_decisions`` replaces: (ids, labels, report) or the error text."""
    by_id = {}
    for d in records:
        if d.example_id in by_id:
            return f"duplicate decision for example {d.example_id!r}"
        by_id[d.example_id] = d
    position = {exid: j for j, exid in enumerate(dataset.ids)}
    unknown = set(by_id) - set(position)
    if unknown:
        return f"decision for unknown example {sorted(unknown)[0]!r}"
    labels = dataset.labels.tolist()
    removed, overwritten = set(), 0
    for d in sorted(by_id.values(), key=lambda d: position[d.example_id]):
        j = position[d.example_id]
        if d.verdict == REMOVE:
            removed.add(j)
        elif d.verdict == OVERWRITE:
            if mode == "filter_only":
                return f"overwrite decision for {d.example_id!r} not allowed in filter_only mode"
            if d.new_label == labels[j]:
                return f"overwrite for {d.example_id!r} does not change the label"
            labels[j] = d.new_label
            overwritten += 1
    kept = [j for j in range(len(dataset)) if j not in removed]
    report = ApplyReport(kept=len(kept), removed=len(removed), overwritten=overwritten)
    return [dataset.ids[j] for j in kept], [labels[j] for j in kept], report


def _apply_outcome(dataset, decisions, mode):
    try:
        cleaned, report = apply_decisions(dataset, decisions, mode)
    except ValueError as err:
        return str(err)
    return list(cleaned.ids), cleaned.labels.tolist(), report


def test_apply_reads_a_list_and_its_columns_alike(rng):
    ds = _dataset(30)
    for _ in range(40):
        codes = rng.integers(0, 3, size=len(ds))
        new_labels = rng.integers(0, 2, size=len(ds))
        records = [
            Decision(exid, VERDICTS[c], new_label=int(nl) if c == 2 else None)
            for exid, c, nl in zip(ds.ids, codes, new_labels)
        ]
        every = Decisions.from_records(records, ds.ids)  # the dataset's own ids: no join
        picked = rng.permutation(len(ds))[: rng.integers(0, len(ds) + 1)]
        partial = [records[j] for j in picked]  # part of the dataset, in any order
        for mode in ("overwrite", "filter_only"):
            expected = _apply_reference(ds, records, mode)
            assert _apply_outcome(ds, records, mode) == _apply_outcome(ds, every, mode) == expected
            expected = _apply_reference(ds, partial, mode)
            assert _apply_outcome(ds, partial, mode) == expected
            assert _apply_outcome(ds, Decisions.from_records(partial), mode) == expected


@pytest.mark.parametrize(
    "records, mode, message",
    [
        ([Decision("x0", REMOVE)], "bogus", "unknown apply mode 'bogus', expected one of ('filter_only', 'overwrite')"),
        (
            [Decision("x0", REMOVE), Decision("x1", KEEP), Decision("x0", KEEP)],
            "filter_only",
            "duplicate decision for example 'x0'",
        ),
        (
            [Decision("zz", REMOVE), Decision("x0", KEEP), Decision("yy", REMOVE)],
            "overwrite",
            "decision for unknown example 'yy'",
        ),
        (
            [Decision("x2", OVERWRITE, new_label=0), Decision("x1", OVERWRITE, new_label=0)],
            "filter_only",
            "overwrite decision for 'x1' not allowed in filter_only mode",
        ),
        (
            [Decision("x2", OVERWRITE, new_label=1), Decision("x1", OVERWRITE, new_label=1)],
            "overwrite",
            "overwrite for 'x1' does not change the label",
        ),
        ([Decision("x1", OVERWRITE, new_label=2)], "overwrite", "example 'x1': label 2 out of range for class_count 2"),
        (
            [Decision("x1", OVERWRITE, new_label=-1)],
            "overwrite",
            "example 'x1': label -1 out of range for class_count 2",
        ),
        (
            [Decision("x1", OVERWRITE, new_label=2**70)],
            "overwrite",
            "example 'x1': label 1180591620717411303424 out of range for class_count 2",
        ),
    ],
    ids=["mode", "duplicate", "unknown", "filter-only", "no-op", "label-range", "negative-label", "beyond-int64"],
)
def test_apply_refusals_read_the_same_from_a_list_and_its_columns(records, mode, message):
    ds = _dataset(3)
    outcomes = [_apply_outcome(ds, decisions, mode) for decisions in (records, Decisions.from_records(records))]
    assert outcomes == [message, message]
    if len(records) == 1:  # a single decision over the dataset's own ids takes no join
        aligned = [records[0] if exid == records[0].example_id else Decision(exid, KEEP) for exid in ds.ids]
        assert _apply_outcome(ds, Decisions.from_records(aligned, ds.ids), mode) == message


def test_save_decisions_histogram_and_detection_read_a_list_and_its_columns_alike(tmp_path, rng):
    records = _mixed_decisions()
    columns = Decisions.from_records(records)
    paths = [tmp_path / "list.jsonl", tmp_path / "columns.jsonl"]
    for decisions, path in zip((records, columns), paths):
        save_decisions(decisions, str(path))
    expected = "".join(
        json.dumps(
            {"example_id": d.example_id, "verdict": d.verdict, "rule": d.rule}
            | ({"new_label": d.new_label} if d.verdict == OVERWRITE else {}),
            sort_keys=True,
        )
        + "\n"
        for d in records
    )
    assert paths[0].read_text() == paths[1].read_text() == expected
    assert rule_histogram(records) == rule_histogram(columns) == {
        "filter:positive-refuted": 1,
        "none": 2,
        "overwrite:false-positive": 2,
    }
    for _ in range(50):
        n = int(rng.integers(1, 30))
        codes = rng.integers(0, 3, size=n)
        records = [
            Decision(f"x{i}", VERDICTS[c], new_label=int(rng.integers(0, 2)) if c == 2 else None, rule=f"r{c}")
            for i, c in enumerate(codes)
        ]
        corrupted = {f"x{i}": int(rng.integers(0, 2)) for i in range(n) if rng.random() < 0.4}
        mask = NoiseMask(set(corrupted), corrupted)
        assert detection_scores(records, mask) == detection_scores(Decisions.from_records(records), mask)
        assert rule_histogram(records) == rule_histogram(Decisions.from_records(records))


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
