import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from labelaudit.data import DataFormatError, PassStack, PredictiveDistribution, save_distributions
from labelaudit.mlp import ModelSpec, TrainConfig
from labelaudit.noisebench import make_blobs
from labelaudit.sentinel import (
    LabelSpaceMapping,
    build_cv_sentinel,
    ingest_external_dump,
    map_to_evidence,
)

SPEC = ModelSpec(2, (6,), 2, dropout_rate=0.1)
CFG = TrainConfig(0.2, 3, 16, seed=5)


def test_cv_folds_are_near_equal_and_cover_everyone():
    ds = make_blobs(100, 2, 2, [(-2, 0), (2, 0)], 1.0, 1)
    dists, assignment = build_cv_sentinel(ds, 5, SPEC, CFG, 4, seed=2)
    assert len(dists) == 100
    assert assignment.k == 5
    sizes = [list(assignment.fold_of.values()).count(f) for f in range(5)]
    assert sizes == [20] * 5
    assert {d.example_id for d in dists} == {ex.id for ex in ds.examples}
    assert all(d.t_count == 4 for d in dists)


def test_cv_handles_uneven_split():
    ds = make_blobs(3, 1, 2, [(-2.0,), (2.0,)], 0.5, 3)
    _, assignment = build_cv_sentinel(ds, 2, ModelSpec(1, (3,), 2), CFG, 2, seed=0)
    sizes = sorted(list(assignment.fold_of.values()).count(f) for f in range(2))
    assert sizes == [1, 2]


def test_cv_is_deterministic_and_seed_sensitive():
    ds = make_blobs(30, 2, 2, [(-2, 0), (2, 0)], 1.0, 4)
    d1, a1 = build_cv_sentinel(ds, 3, SPEC, CFG, 3, seed=9)
    d2, a2 = build_cv_sentinel(ds, 3, SPEC, CFG, 3, seed=9)
    d3, a3 = build_cv_sentinel(ds, 3, SPEC, CFG, 3, seed=10)
    assert a1 == a2
    for x, y in zip(d1, d2):
        assert x.passes.tobytes() == y.passes.tobytes()
    assert a1.fold_of != a3.fold_of


def test_cv_never_reads_gold_labels():
    ds = make_blobs(30, 2, 2, [(-2, 0), (2, 0)], 1.0, 4)
    with_gold, _ = build_cv_sentinel(ds, 3, SPEC, CFG, 3, seed=9)
    without_gold, _ = build_cv_sentinel(ds.strip_gold(), 3, SPEC, CFG, 3, seed=9)
    for a, b in zip(with_gold, without_gold):
        assert a.passes.tobytes() == b.passes.tobytes()


def test_cv_validates_fold_count():
    ds = make_blobs(4, 2, 2, [(-2, 0), (2, 0)], 1.0, 5)
    with pytest.raises(ValueError):
        build_cv_sentinel(ds, 1, SPEC, CFG, 2, seed=0)
    with pytest.raises(ValueError):
        build_cv_sentinel(ds, 5, SPEC, CFG, 2, seed=0)
    with pytest.raises(ValueError, match="t_count must be >= 1"):
        build_cv_sentinel(ds, 2, SPEC, CFG, -1, seed=0)


def _rows(t, c, rng):
    raw = rng.random((t, c)) + 1e-9
    return raw / raw.sum(axis=1, keepdims=True)


def test_ingest_external_dump(tmp_path, rng):
    path = tmp_path / "dump.jsonl"
    dists = [
        PredictiveDistribution("a", _rows(10, 3, rng)),
        PredictiveDistribution("b", _rows(10, 3, rng)),
    ]
    save_distributions(dists, str(path))
    loaded = ingest_external_dump(str(path), 10, 3)
    assert [d.example_id for d in loaded] == ["a", "b"]


def test_ingest_rejects_wrong_t(tmp_path, rng):
    path = tmp_path / "dump.jsonl"
    save_distributions([PredictiveDistribution("bad-id", _rows(9, 3, rng))], str(path))
    with pytest.raises(DataFormatError, match="bad-id"):
        ingest_external_dump(str(path), 10, 3)


def test_ingest_rejects_wrong_width(tmp_path, rng):
    path = tmp_path / "dump.jsonl"
    save_distributions([PredictiveDistribution("a", _rows(10, 2, rng))], str(path))
    with pytest.raises(DataFormatError, match="classes"):
        ingest_external_dump(str(path), 10, 3)


def test_ingest_rejects_bad_probability_rows(tmp_path):
    path = tmp_path / "dump.jsonl"
    path.write_text('{"example_id": "a", "passes": [[0.5, 0.3]]}\n')
    with pytest.raises(DataFormatError, match="sums") as info:
        ingest_external_dump(str(path), 1, 2)
    assert str(info.value).startswith(f"{path}: distribution 'a': row 0")


NLI_STYLE = LabelSpaceMapping(
    ("entailment", "neutral", "contradiction"),
    ("supports_positive", "abstain", "supports_negative"),
)


def test_map_to_evidence_nli_style():
    dist = PredictiveDistribution("a", [[0.7, 0.2, 0.1]])
    ev = map_to_evidence(dist, NLI_STYLE)
    assert np.allclose(ev, [[0.7, 0.1]])


def test_map_to_evidence_drops_abstain_mass():
    dist = PredictiveDistribution("a", [[0.0, 1.0, 0.0]])
    ev = map_to_evidence(dist, NLI_STYLE)
    assert np.allclose(ev, [[0.0, 0.0]])  # not renormalized


def test_map_to_evidence_identity_on_matching_binary_mapping():
    mapping = LabelSpaceMapping(("pos", "neg"), ("supports_positive", "supports_negative"))
    rows = [[0.3, 0.7], [0.9, 0.1]]
    ev = map_to_evidence(PredictiveDistribution("a", rows), mapping)
    assert np.array_equal(ev, np.array(rows))


def test_binary_target_mapping_swaps_columns():
    rows = [[0.3, 0.7]]
    ev = map_to_evidence(PredictiveDistribution("a", rows), LabelSpaceMapping.binary_target())
    assert np.allclose(ev, [[0.7, 0.3]])  # (supports_positive, supports_negative)


def test_map_to_evidence_equals_boolean_mask_sums(rng):
    roles = ("supports_positive", "abstain", "supports_negative", "supports_positive", "supports_negative")
    mapping = LabelSpaceMapping(tuple("abcde"), roles)
    role_array = np.array(roles)
    for t in (1, 7, 10):
        dist = PredictiveDistribution("a", _rows(t, 5, rng))
        expected = np.column_stack(
            [
                dist.passes[:, role_array == "supports_positive"].sum(axis=1),
                dist.passes[:, role_array == "supports_negative"].sum(axis=1),
            ]
        )
        assert map_to_evidence(dist, mapping).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "roles",
    [
        ("supports_positive", "abstain", "supports_negative"),
        ("supports_positive", "abstain", "supports_negative", "supports_positive", "supports_negative"),
        # 13 positive columns: more than numpy's 8-wide unrolled summation block
        ("supports_positive",) * 13 + ("supports_negative",) * 9 + ("abstain",) * 2,
    ],
    ids=["one-column-each", "two-columns-each", "many-columns"],
)
def test_map_to_evidence_on_a_stack_equals_the_per_row_results(rng, roles):
    mapping = LabelSpaceMapping(tuple(f"c{i}" for i in range(len(roles))), roles)
    role_array = np.array(roles)
    for n, t in ((1, 1), (7, 10), (300, 4)):
        stack = PassStack([f"e{i}" for i in range(n)], [_rows(t, len(roles), rng) for _ in range(n)])
        evidence = map_to_evidence(stack, mapping)
        assert evidence.shape == (n, t, 2)
        for i, dist in enumerate(stack):
            expected = np.column_stack(
                [
                    dist.passes[:, role_array == "supports_positive"].sum(axis=1),
                    dist.passes[:, role_array == "supports_negative"].sum(axis=1),
                ]
            )
            assert evidence[i].tobytes() == map_to_evidence(dist, mapping).tobytes() == expected.tobytes()


def test_cv_sentinel_refuses_overflowing_output(monkeypatch):
    ds = make_blobs(12, 2, 2, [(-2, 0), (2, 0)], 1.0, 4)
    monkeypatch.setattr(
        "labelaudit.sentinel.mcd_predict",
        lambda model, x, t, seed, example_id="": PredictiveDistribution(example_id, np.full((t, 2), np.nan)),
    )
    with pytest.raises(ValueError, match="not a probability distribution: distribution 'ex00000': row 0") as info:
        build_cv_sentinel(ds, 3, SPEC, CFG, 2, seed=0)
    assert not isinstance(info.value, DataFormatError)  # a model fault, not malformed input


def test_map_to_evidence_width_mismatch():
    with pytest.raises(ValueError):
        map_to_evidence(PredictiveDistribution("a", [[0.5, 0.5]]), NLI_STYLE)


def test_mapping_requires_both_roles():
    with pytest.raises(ValueError):
        LabelSpaceMapping(("a", "b"), ("supports_positive", "abstain"))
    with pytest.raises(ValueError):
        LabelSpaceMapping(("a",), ("supports_positive", "supports_negative"))


@given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=100, deadline=None)
def test_evidence_mass_bounds(t, seed):
    rng = np.random.default_rng(seed)
    rows = _rows(t, 3, rng)
    ev = map_to_evidence(PredictiveDistribution("a", rows), NLI_STYLE)
    assert np.all(ev >= 0.0) and np.all(ev <= 1.0)
    assert np.all(ev.sum(axis=1) <= 1.0 + 1e-6)
