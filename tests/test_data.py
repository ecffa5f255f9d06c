import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from labelaudit.data import (
    DataFormatError,
    Dataset,
    LabeledExample,
    PredictiveDistribution,
    TaggedToken,
    load_dataset,
    load_distributions,
    save_dataset,
    save_distributions,
    validate_distribution,
)


def _write(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_two_feature_records(tmp_path):
    path = _write(
        tmp_path,
        [
            '{"class_count": 2}',
            '{"id": "a", "label": 0, "features": [1.0, 2.0]}',
            '{"id": "b", "label": 1, "features": [3.0, 4.0]}',
        ],
    )
    ds = load_dataset(path, expected_schema="features")
    assert len(ds) == 2
    assert ds.examples[0].features == (1.0, 2.0)
    assert ds.examples[1].label == 1


def test_duplicate_id_names_offender(tmp_path):
    path = _write(
        tmp_path,
        [
            '{"class_count": 2}',
            '{"id": "x1", "label": 0, "features": [1.0]}',
            '{"id": "x1", "label": 1, "features": [2.0]}',
        ],
    )
    with pytest.raises(DataFormatError, match="x1"):
        load_dataset(path)


def test_label_out_of_range(tmp_path):
    path = _write(
        tmp_path,
        ['{"class_count": 3}', '{"id": "a", "label": 5, "features": [1.0]}'],
    )
    with pytest.raises(DataFormatError, match="label 5"):
        load_dataset(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = _write(
        tmp_path,
        ['{"class_count": 2}', '{"id": "a", "label": 0, "features": [1.0]}', "{not json"],
    )
    with pytest.raises(DataFormatError, match="line 3"):
        load_dataset(path)


def test_mixed_schemas_rejected(tmp_path):
    path = _write(
        tmp_path,
        [
            '{"class_count": 2}',
            '{"id": "a", "label": 0, "features": [1.0]}',
            '{"id": "b", "label": 0, "tokens": [{"text": "hi", "pos": "other"}]}',
        ],
    )
    with pytest.raises(DataFormatError, match="schema"):
        load_dataset(path)


def test_expected_schema_enforced(tmp_path):
    path = _write(
        tmp_path,
        ['{"class_count": 2}', '{"id": "a", "label": 0, "features": [1.0]}'],
    )
    with pytest.raises(DataFormatError, match="tokens"):
        load_dataset(path, expected_schema="tokens")


def test_empty_file_and_missing_header(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DataFormatError, match="header"):
        load_dataset(str(path))


def test_header_only_is_valid_empty_dataset(tmp_path):
    path = _write(tmp_path, ['{"class_count": 2}'])
    ds = load_dataset(path)
    assert len(ds) == 0
    out = tmp_path / "roundtrip.jsonl"
    save_dataset(ds, str(out))
    assert load_dataset(str(out)) == ds


def test_feature_dim_must_be_uniform():
    with pytest.raises(DataFormatError, match="dimension"):
        Dataset(
            2,
            (
                LabeledExample("a", 0, features=(1.0, 2.0)),
                LabeledExample("b", 1, features=(1.0,)),
            ),
        )


def test_class_names_length_checked():
    with pytest.raises(DataFormatError, match="class_names"):
        Dataset(3, (), class_names=("a", "b"))


def test_example_needs_exactly_one_payload():
    with pytest.raises(DataFormatError):
        LabeledExample("a", 0)
    with pytest.raises(DataFormatError):
        LabeledExample("a", 0, features=(1.0,), tokens=(TaggedToken("hi", "other"),))


def test_compound_head_requires_noun():
    with pytest.raises(DataFormatError):
        TaggedToken("runs", "verb", is_compound_head=True)
    TaggedToken("berry", "noun", is_compound_head=True)


def test_strip_gold_removes_every_gold_label():
    ds = Dataset(
        2,
        (
            LabeledExample("a", 0, features=(1.0,), gold_label=1),
            LabeledExample("b", 1, features=(2.0,)),
        ),
    )
    view = ds.strip_gold()
    assert all(ex.gold_label is None for ex in view.examples)
    assert [ex.label for ex in view.examples] == [0, 1]


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def feature_datasets(draw):
    class_count = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 10))
    examples = []
    for i in range(n):
        gold = draw(st.one_of(st.none(), st.integers(0, class_count - 1)))
        examples.append(
            LabeledExample(
                id=f"e{i}",
                label=draw(st.integers(0, class_count - 1)),
                features=tuple(draw(finite_floats) for _ in range(dim)),
                gold_label=gold,
            )
        )
    return Dataset(class_count, tuple(examples))


@st.composite
def token_datasets(draw):
    class_count = draw(st.integers(2, 3))
    n = draw(st.integers(1, 6))
    examples = []
    for i in range(n):
        tokens = []
        for _ in range(draw(st.integers(1, 6))):
            pos = draw(st.sampled_from(("noun", "propn", "verb", "other")))
            head = draw(st.booleans()) if pos in ("noun", "propn") else False
            tokens.append(
                TaggedToken(
                    text=draw(st.text(alphabet="abcdefg", min_size=1, max_size=5)),
                    pos=pos,
                    is_compound_head=head,
                    is_entity=draw(st.booleans()),
                )
            )
        examples.append(
            LabeledExample(id=f"t{i}", label=draw(st.integers(0, class_count - 1)), tokens=tuple(tokens))
        )
    return Dataset(class_count, tuple(examples))


@given(feature_datasets())
@settings(max_examples=60, deadline=None)
def test_save_load_roundtrip_features(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ds.jsonl")
        save_dataset(ds, path)
        assert load_dataset(path) == ds


@given(token_datasets())
@settings(max_examples=40, deadline=None)
def test_save_load_roundtrip_tokens(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ds.jsonl")
        save_dataset(ds, path)
        assert load_dataset(path) == ds


def test_gold_label_preserved_on_roundtrip(tmp_path):
    ds = Dataset(2, (LabeledExample("a", 0, features=(0.5,), gold_label=1),))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, str(path))
    loaded = load_dataset(str(path))
    assert loaded.examples[0].gold_label == 1


def test_validate_distribution_accepts_valid_rows():
    validate_distribution(PredictiveDistribution("a", [[0.9, 0.1], [0.3, 0.7]]))
    validate_distribution(PredictiveDistribution("b", [[1.0, 0.0]]))  # boundary entries


def test_validate_distribution_reports_first_bad_row():
    dist = PredictiveDistribution("a", [[0.9, 0.2]])
    with pytest.raises(DataFormatError, match="row 0"):
        validate_distribution(dist)
    dist = PredictiveDistribution("b", [[0.5, 0.5], [0.9, 0.3]])
    with pytest.raises(DataFormatError, match="row 1"):
        validate_distribution(dist)


@pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0]])
def test_validate_distribution_rejects_non_finite_rows(row):
    dist = PredictiveDistribution("a", [[0.5, 0.5], row])
    with pytest.raises(DataFormatError, match="row 1"):
        validate_distribution(dist)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_features_rejected(tmp_path, value):
    path = _write(
        tmp_path,
        [
            '{"class_count": 2}',
            '{"id": "a", "label": 0, "features": [1.0, 2.0]}',
            f'{{"id": "b", "label": 1, "features": [{value}, 2.0]}}',
        ],
    )
    with pytest.raises(DataFormatError, match="line 3: features must be finite"):
        load_dataset(path)


def test_distribution_shape_invariants():
    with pytest.raises(DataFormatError):
        PredictiveDistribution("a", [[0.9]])  # C < 2
    with pytest.raises(DataFormatError):
        PredictiveDistribution("a", np.empty((0, 2)))  # T < 1
    dist = PredictiveDistribution("a", [[0.5, 0.5]])
    with pytest.raises(ValueError):
        dist.passes[0, 0] = 0.1  # read-only after construction


def test_distribution_file_roundtrip(tmp_path):
    dists = [
        PredictiveDistribution("a", [[0.25, 0.75], [0.5, 0.5]]),
        PredictiveDistribution("b", [[1.0, 0.0], [0.0, 1.0]]),
    ]
    path = tmp_path / "dists.jsonl"
    save_distributions(dists, str(path))
    loaded = load_distributions(str(path))
    assert [d.example_id for d in loaded] == ["a", "b"]
    for orig, back in zip(dists, loaded):
        assert np.array_equal(orig.passes, back.passes)


def test_distribution_file_reports_bad_line(tmp_path):
    path = tmp_path / "dists.jsonl"
    path.write_text('{"example_id": "a", "passes": [[0.5, 0.5]]}\nnot json\n')
    with pytest.raises(DataFormatError, match="line 2"):
        load_distributions(str(path))
