import pytest

from labelaudit.data import load_dataset, save_dataset
from labelaudit.noisebench import (
    NoiseMask,
    NoiseSpec,
    detection_scores,
    inject_noise,
    load_noise_mask,
    make_blobs,
    save_noise_mask,
)
from labelaudit.policy import Decision, KEEP, OVERWRITE, REMOVE


def test_make_blobs_splits_classes_evenly():
    ds = make_blobs(100, 2, 2, [(-2, 0), (2, 0)], 1.0, 7)
    labels = [ex.label for ex in ds.examples]
    assert labels.count(0) == 50 and labels.count(1) == 50
    assert all(ex.gold_label == ex.label for ex in ds.examples)


def test_make_blobs_remainder_goes_to_low_classes():
    ds = make_blobs(10, 1, 3, [(-2.0,), (0.0,), (2.0,)], 1.0, 7)
    labels = [ex.label for ex in ds.examples]
    assert [labels.count(c) for c in range(3)] == [4, 3, 3]


def test_make_blobs_zero_spread_hits_centers():
    ds = make_blobs(4, 2, 2, [(-2, 0), (2, 0)], 0.0, 7)
    for ex in ds.examples:
        center = (-2.0, 0.0) if ex.label == 0 else (2.0, 0.0)
        assert ex.features == center


def test_make_blobs_is_deterministic():
    a = make_blobs(50, 2, 2, [(-2, 0), (2, 0)], 1.0, 7)
    b = make_blobs(50, 2, 2, [(-2, 0), (2, 0)], 1.0, 7)
    assert a.examples == b.examples
    assert a.examples != make_blobs(50, 2, 2, [(-2, 0), (2, 0)], 1.0, 8).examples


def test_make_blobs_validates_centers():
    with pytest.raises(ValueError):
        make_blobs(10, 2, 2, [(-2, 0)], 1.0, 0)
    with pytest.raises(ValueError):
        make_blobs(10, 2, 2, [(-2,), (2,)], 1.0, 0)


def test_inject_zero_rate_is_identity():
    ds = make_blobs(20, 2, 2, [(-2, 0), (2, 0)], 1.0, 1)
    noisy, mask = inject_noise(ds, NoiseSpec(0.0, "symmetric", seed=3))
    assert noisy.examples == ds.examples
    assert not mask.corrupted_ids


def test_inject_exact_count():
    ds = make_blobs(1000, 2, 2, [(-2, 0), (2, 0)], 1.0, 1)
    noisy, mask = inject_noise(ds, NoiseSpec(0.3, "symmetric", seed=3))
    assert len(mask.corrupted_ids) == 300
    changed = {ex.id for ex, orig in zip(noisy.examples, ds.examples) if ex.label != orig.label}
    assert changed == mask.corrupted_ids


def test_inject_touches_nothing_but_labels():
    ds = make_blobs(50, 2, 2, [(-2, 0), (2, 0)], 1.0, 1)
    noisy, mask = inject_noise(ds, NoiseSpec(0.2, "symmetric", seed=3))
    for before, after in zip(ds.examples, noisy.examples):
        assert before.id == after.id
        assert before.features == after.features
        assert before.gold_label == after.gold_label
        if after.id in mask.corrupted_ids:
            assert mask.original_label_of[after.id] == before.label
            assert after.label != before.label
        else:
            assert after.label == before.label


def test_symmetric_binary_flips_to_the_other_class():
    ds = make_blobs(40, 1, 2, [(-2.0,), (2.0,)], 1.0, 2)
    noisy, mask = inject_noise(ds, NoiseSpec(0.5, "symmetric", seed=4))
    by_id = {ex.id: ex for ex in noisy.examples}
    for exid in mask.corrupted_ids:
        assert by_id[exid].label == 1 - mask.original_label_of[exid]


def test_asymmetric_transition_directs_flips():
    ds = make_blobs(60, 1, 2, [(-2.0,), (2.0,)], 1.0, 5)
    spec = NoiseSpec(0.4, "asymmetric", seed=6, transition=((0.0, 1.0), (1.0, 0.0)))
    noisy, mask = inject_noise(ds, spec)
    by_id = {ex.id: ex for ex in noisy.examples}
    for exid in mask.corrupted_ids:
        # every corrupted example lands on the only class its row supports
        assert by_id[exid].label == 1 - mask.original_label_of[exid]
    assert len(mask.corrupted_ids) == 24


def test_asymmetric_immune_row_never_corrupts_that_class():
    ds = make_blobs(60, 1, 2, [(-2.0,), (2.0,)], 1.0, 5)
    spec = NoiseSpec(0.3, "asymmetric", seed=6, transition=((0.0, 0.0), (1.0, 0.0)))
    noisy, mask = inject_noise(ds, spec)
    assert len(mask.corrupted_ids) == 18
    for exid in mask.corrupted_ids:
        assert mask.original_label_of[exid] == 1  # only class 1 flips (directional)


def test_asymmetric_three_class_uses_rows():
    ds = make_blobs(90, 1, 3, [(-2.0,), (0.0,), (2.0,)], 1.0, 5)
    transition = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    noisy, mask = inject_noise(ds, NoiseSpec(0.5, "asymmetric", seed=7, transition=transition))
    by_id = {ex.id: ex for ex in noisy.examples}
    expected = {0: 1, 1: 2, 2: 0}
    for exid in mask.corrupted_ids:
        assert by_id[exid].label == expected[mask.original_label_of[exid]]


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(1.0, "symmetric", seed=0)
    with pytest.raises(ValueError):
        NoiseSpec(0.2, "asymmetric", seed=0)  # missing transition
    with pytest.raises(ValueError):
        NoiseSpec(0.2, "asymmetric", seed=0, transition=((0.5, 0.5), (1.0, 0.0)))  # diagonal
    with pytest.raises(ValueError):
        NoiseSpec(0.2, "asymmetric", seed=0, transition=((0.0, 0.5), (1.0, 0.0)))  # row sum


def test_inject_requires_gold_labels():
    ds = make_blobs(10, 1, 2, [(-2.0,), (2.0,)], 1.0, 1).strip_gold()
    with pytest.raises(ValueError, match="gold"):
        inject_noise(ds, NoiseSpec(0.1, "symmetric", seed=0))


def test_inject_rejects_count_beyond_eligible_pool():
    ds = make_blobs(10, 1, 2, [(-2.0,), (2.0,)], 1.0, 1)
    spec = NoiseSpec(0.8, "asymmetric", seed=0, transition=((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError, match="eligible"):
        inject_noise(ds, spec)


def test_noisy_dataset_roundtrip_keeps_mask_consistent(tmp_path):
    ds = make_blobs(30, 2, 2, [(-2, 0), (2, 0)], 1.0, 9)
    noisy, mask = inject_noise(ds, NoiseSpec(0.3, "symmetric", seed=9))
    path = tmp_path / "noisy.jsonl"
    save_dataset(noisy, str(path))
    loaded = load_dataset(str(path))
    for ex in loaded.examples:
        if ex.id in mask.corrupted_ids:
            assert ex.label != ex.gold_label
            assert mask.original_label_of[ex.id] == ex.gold_label
        else:
            assert ex.label == ex.gold_label


def test_detection_perfect():
    decisions = [Decision("a", REMOVE), Decision("b", OVERWRITE, new_label=0), Decision("c", KEEP)]
    mask = NoiseMask({"a", "b"}, {"a": 1, "b": 0})
    report = detection_scores(decisions, mask)
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.overwrite_accuracy == 1.0


def test_detection_counting():
    decisions = [Decision(f"f{i}", REMOVE) for i in range(10)]
    decisions += [Decision(f"c{i}", KEEP) for i in range(20)]
    corrupted = {f"f{i}": 0 for i in range(8)} | {f"c{i}": 0 for i in range(12)}
    report = detection_scores(decisions, NoiseMask(set(corrupted), corrupted))
    assert report.precision == pytest.approx(0.8)
    assert report.recall == pytest.approx(0.4)


def test_detection_zero_flagged_convention():
    decisions = [Decision("a", KEEP), Decision("b", KEEP)]
    mask = NoiseMask({"a"}, {"a": 1})
    report = detection_scores(decisions, mask)
    assert report.precision == 1.0
    assert report.recall == 0.0
    assert report.overwrite_accuracy == 1.0


def test_detection_empty_mask_convention():
    decisions = [Decision("a", REMOVE)]
    report = detection_scores(decisions, NoiseMask(set(), {}))
    assert report.precision == 0.0  # flagged but nothing corrupted
    assert report.recall == 0.0


def test_detection_overwrite_accuracy_counts_restorations():
    decisions = [
        Decision("a", OVERWRITE, new_label=1),  # restores
        Decision("b", OVERWRITE, new_label=0),  # wrong target
        Decision("c", OVERWRITE, new_label=1),  # not corrupted at all
    ]
    mask = NoiseMask({"a", "b"}, {"a": 1, "b": 1})
    report = detection_scores(decisions, mask)
    assert report.overwrite_accuracy == pytest.approx(1 / 3)


def test_detection_requires_decisions_for_corrupted_ids():
    with pytest.raises(ValueError, match="no decision"):
        detection_scores([Decision("a", KEEP)], NoiseMask({"zz"}, {"zz": 0}))


def test_detection_matches_set_oracle(rng):
    # spot check; the acceptance suite runs the full 1000-trial version
    for _ in range(100):
        n = int(rng.integers(1, 30))
        ids = [f"x{i}" for i in range(n)]
        verdicts = rng.integers(0, 3, size=n)
        decisions = [
            Decision(ids[i], (KEEP, REMOVE, OVERWRITE)[verdicts[i]],
                     new_label=1 if verdicts[i] == 2 else None)
            for i in range(n)
        ]
        corrupted = {ids[i]: 0 for i in range(n) if rng.random() < 0.4}
        report = detection_scores(decisions, NoiseMask(set(corrupted), corrupted))
        flagged = {d.example_id for d in decisions if d.verdict != KEEP}
        inter = flagged & set(corrupted)
        assert report.precision == (len(inter) / len(flagged) if flagged else 1.0)
        assert report.recall == (len(inter) / len(corrupted) if corrupted else 0.0)


def test_mask_file_roundtrip(tmp_path):
    mask = NoiseMask({"a", "b"}, {"a": 1, "b": 0})
    path = tmp_path / "mask.json"
    save_noise_mask(mask, str(path))
    assert load_noise_mask(str(path)) == mask


def test_mask_consistency_enforced():
    with pytest.raises(ValueError):
        NoiseMask({"a"}, {"b": 0})
