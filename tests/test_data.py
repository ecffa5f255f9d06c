import ast
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import labelaudit
from labelaudit.data import (
    NO_GOLD,
    DataFormatError,
    Dataset,
    PROB_TOL,
    LabeledExample,
    PassStack,
    PredictiveDistribution,
    TaggedToken,
    load_dataset,
    load_distributions,
    save_dataset,
    save_distributions,
    validate_distribution,
)
from labelaudit.mlp import load_model
from labelaudit.noisebench import load_noise_mask
from labelaudit.policy import KEEP, Decision, load_decisions, save_decisions
from labelaudit.sentinel import LabelSpaceMapping


def _fields(ds):
    """What a dataset holds, as comparable values."""
    return ds.class_count, ds.class_names, ds.examples


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
    with pytest.raises(DataFormatError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: duplicate example id 'x1'"


def test_label_out_of_range(tmp_path):
    path = _write(
        tmp_path,
        ['{"class_count": 3}', '{"id": "a", "label": 5, "features": [1.0]}'],
    )
    with pytest.raises(DataFormatError, match="label 5"):
        load_dataset(path)


def test_malformed_line_reports_line_number(tmp_path):
    bad_lines = {
        "{not json": "malformed JSON",
        "[1, 2]": "expected a JSON object",
        '{"label": 0, "features": [1.0]}': "missing field 'id'",
        '{"id": "b", "label": "1", "features": [1.0]}': "label and gold_label must be integers",
        '{"id": "b", "label": 1, "features": 2.0}': "not iterable",
        '{"id": "b", "label": 1, "tokens": [{"text": "hi"}]}': "missing field 'pos'",
    }
    for line, message in bad_lines.items():
        path = _write(tmp_path, ['{"class_count": 2}', '{"id": "a", "label": 0, "features": [1.0]}', line])
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"{path}: line 3: ") and message in str(info.value)


def test_mixed_schemas_rejected(tmp_path):
    path = _write(
        tmp_path,
        [
            '{"class_count": 2}',
            '{"id": "a", "label": 0, "features": [1.0]}',
            '{"id": "b", "label": 0, "tokens": [{"text": "hi", "pos": "other"}]}',
        ],
    )
    with pytest.raises(DataFormatError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: line 3: example 'b': mixed schemas (tokens after features)"


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
    assert _fields(load_dataset(str(out))) == _fields(ds)


def test_feature_dim_must_be_uniform(tmp_path):
    path = _write(
        tmp_path,
        [
            '{"class_count": 2}',
            '{"id": "a", "label": 0, "features": [1.0, 2.0]}',
            "",
            '{"id": "b", "label": 1, "features": [1.0]}',
        ],
    )
    with pytest.raises(DataFormatError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: line 4: example 'b': feature dimension 1 differs from 2"


def test_class_names_length_checked():
    with pytest.raises(DataFormatError, match="class_names"):
        Dataset(3, (), class_names=("a", "b"))


def test_example_needs_exactly_one_payload(tmp_path):
    for record in ('{"id": "a", "label": 0}', '{"id": "a", "label": 0, "features": [1.0], "tokens": []}'):
        path = _write(tmp_path, ['{"class_count": 2}', record])
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: line 2: record needs exactly one of features/tokens"


@pytest.mark.parametrize(
    "record, message",
    [
        (
            '{"id": "b", "label": 1, "tokens": [{"text": "hi", "pos": "other"}]}',
            "record schema tokens does not match expected features",
        ),
        # a malformed token line reports its own error before any schema check
        ('{"id": "b", "label": 1, "tokens": [{"text": "hi"}]}', "missing field 'pos'"),
    ],
    ids=["expected-schema", "token-error-first"],
)
def test_expected_schema_is_checked_at_the_line_after_its_payload(tmp_path, record, message):
    path = _write(tmp_path, ['{"class_count": 2}', '{"id": "a", "label": 0, "features": [1.0]}', record])
    with pytest.raises(DataFormatError) as info:
        load_dataset(path, expected_schema="features")
    assert str(info.value) == f"{path}: line 3: {message}"


def test_compound_head_requires_noun():
    with pytest.raises(DataFormatError):
        TaggedToken("runs", "verb", is_compound_head=True)
    TaggedToken("berry", "noun", is_compound_head=True)


def test_strip_gold_removes_every_gold_label():
    ds = Dataset(2, ("a", "b"), [0, 1], [[1.0], [2.0]], gold=[1, NO_GOLD])
    view = ds.strip_gold()
    assert all(ex.gold_label is None for ex in view.examples)
    assert [ex.label for ex in view.examples] == [0, 1]


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def feature_datasets(draw):
    class_count = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 10))
    if n == 0:
        return Dataset(class_count)
    classes = st.integers(0, class_count - 1)
    labels = [draw(classes) for _ in range(n)]
    features = [[draw(finite_floats) for _ in range(dim)] for _ in range(n)]
    golds = [draw(st.one_of(st.just(NO_GOLD), classes)) for _ in range(n)]
    gold = golds if golds.count(NO_GOLD) != n else None  # a file without gold labels loads without the column
    return Dataset(class_count, [f"e{i}" for i in range(n)], labels, features, gold=gold)


@st.composite
def token_datasets(draw):
    class_count = draw(st.integers(2, 3))
    n = draw(st.integers(1, 6))
    labels, sequences = [], []
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
        labels.append(draw(st.integers(0, class_count - 1)))
        sequences.append(tuple(tokens))
    return Dataset(class_count, [f"t{i}" for i in range(n)], labels, tokens=sequences)


@given(feature_datasets())
@settings(max_examples=60, deadline=None)
def test_save_load_roundtrip_features(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ds.jsonl")
        save_dataset(ds, path)
        assert _fields(load_dataset(path)) == _fields(ds)


@given(token_datasets())
@settings(max_examples=40, deadline=None)
def test_save_load_roundtrip_tokens(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ds.jsonl")
        save_dataset(ds, path)
        assert _fields(load_dataset(path)) == _fields(ds)


def test_gold_label_preserved_on_roundtrip(tmp_path):
    ds = Dataset(2, ("a",), [0], [[0.5]], gold=[1])
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


def _first_bad_row(stack: PassStack) -> str | None:
    """The message of the first bad (record, row), found one row at a time."""
    for i, exid in enumerate(stack.ids):
        for t, row in enumerate(stack.passes[i]):
            if not all(0.0 <= v <= 1.0 for v in row):
                return f"distribution {exid!r}: row {t} has entries outside [0, 1]"
            total = row.sum()
            if not abs(total - 1.0) <= PROB_TOL:
                return f"distribution {exid!r}: row {t} sums to {float(total)}, expected 1 within {PROB_TOL}"
    return None


def _validation_message(dists) -> str | None:
    try:
        validate_distribution(dists)
    except DataFormatError as err:
        return str(err)
    return None


def test_stack_validation_names_the_first_bad_row_of_a_per_record_loop(rng):
    n, t, c = 40, 6, 3
    corruptions = (np.nan, -0.25, 1.5, "sum")
    found = 0
    for _ in range(200):
        passes = rng.dirichlet((1.0,) * c, size=(n, t))
        for _ in range(rng.integers(0, 4)):
            i, row, col = rng.integers(n), rng.integers(t), rng.integers(c)
            kind = corruptions[rng.integers(len(corruptions))]
            if kind == "sum":
                passes[i, row] *= 1.0 + 10 * PROB_TOL * rng.choice((-1, 1))
            else:
                passes[i, row, col] = kind
        stack = PassStack([f"e{i}" for i in range(n)], passes)
        expected = _first_bad_row(stack)
        per_record = next(filter(None, map(_validation_message, stack)), None)
        assert _validation_message(stack) == per_record == expected
        found += expected is not None
    assert found > 100  # most dumps carry a bad row


def test_pass_stack_rows_are_read_only_distributions():
    passes = [[[0.25, 0.75], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]
    stack = PassStack(["a", "b"], passes)
    assert (len(stack), stack.t_count, stack.class_count) == (2, 2, 2)
    assert [d.example_id for d in stack] == ["a", "b"]
    assert stack[1].example_id == "b" and stack[1].passes.tolist() == passes[1]
    with pytest.raises(ValueError):
        stack.passes[0, 0, 0] = 0.1
    assert len(PassStack((), np.empty((0, 0, 0)))) == 0
    with pytest.raises(DataFormatError, match="for 1 ids"):
        PassStack(["a"], passes)
    with pytest.raises(DataFormatError, match="C >= 2"):
        PassStack(["a"], [[[1.0]]])


@pytest.mark.parametrize("count", [1, 3, 7])
def test_distribution_file_loads_across_blocks(tmp_path, monkeypatch, rng, count):
    monkeypatch.setattr("labelaudit.data._BLOCK_BYTES", 100)  # 3 records of 2 x 2 per block
    raw = rng.random((count, 2, 2)) + 1e-9
    dists = [PredictiveDistribution(f"e{i}", r / r.sum(axis=1, keepdims=True)) for i, r in enumerate(raw)]
    path = tmp_path / "dists.jsonl"
    save_distributions(dists, str(path))
    stack = load_distributions(str(path))
    assert stack.ids == tuple(d.example_id for d in dists)
    assert stack.passes.tobytes() == np.stack([d.passes for d in dists]).tobytes()


def test_distribution_file_rejects_a_record_of_another_shape(tmp_path):
    path = tmp_path / "dists.jsonl"
    path.write_text(
        '{"example_id": "a", "passes": [[0.5, 0.5], [0.5, 0.5]]}\n\n'
        '{"example_id": "b", "passes": [[0.5, 0.5]]}\n'
    )
    with pytest.raises(DataFormatError) as info:
        load_distributions(str(path))
    assert str(info.value) == f"{path}: line 3: distribution 'b': passes have shape (1, 2), the first record's (2, 2)"
    path.write_text('{"example_id": "a", "passes": [0.5, 0.5]}\n')
    with pytest.raises(DataFormatError, match="line 1: distribution 'a': passes must be a T x C matrix"):
        load_distributions(str(path))
    path.write_text("")
    assert len(load_distributions(str(path))) == 0


def test_distribution_file_rejects_a_repeated_id_at_its_line(tmp_path):
    path = tmp_path / "dists.jsonl"
    record = '{"example_id": "a", "passes": [[0.5, 0.5]]}\n'
    path.write_text(record + '{"example_id": "b", "passes": [[0.5, 0.5]]}\n\n' + record)
    with pytest.raises(DataFormatError) as info:
        load_distributions(str(path))
    assert str(info.value) == f"{path}: line 4: duplicate distribution for example 'a'"


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


@pytest.mark.parametrize(
    "values, shown",
    [('["0.5", 1.0]', "'0.5'"), ("[0.5, true]", "True"), ("[false, 0.5]", "False"), ("[0.5, null]", "None")],
    ids=["string", "true-after-a-float", "false", "null"],
)
def test_non_number_features_are_refused_naming_file_line_and_id(tmp_path, values, shown):
    # float() and numpy turn a numeric string or a boolean into a float, so
    # the entries are checked as JSON values before any conversion
    path = _write(
        tmp_path,
        [
            '{"class_count": 2}',
            '{"id": "a", "label": 0, "features": [1.0, 2.0]}',
            "",
            f'{{"id": "b", "label": 1, "features": {values}}}',
        ],
    )
    with pytest.raises(DataFormatError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: line 4: example 'b': features must be numbers, got {shown}"


@pytest.mark.parametrize(
    "rows, shown",
    [
        ('[["0.5", "0.5"], [0.5, 0.5]]', "'0.5'"),
        ("[[0.5, 0.5], [true, false]]", "True"),
        ("[[1, 0], [0.5, true]]", "True"),  # numpy would upcast this one to float64
        ("[[0.5, 0.5], [null, 1.0]]", "None"),
    ],
    ids=["strings", "booleans", "boolean-among-numbers", "null"],
)
def test_non_number_passes_are_refused_naming_file_line_and_id(tmp_path, rows, shown):
    path = tmp_path / "dump.jsonl"
    path.write_text(f'{{"example_id": "a", "passes": [[0.5, 0.5], [1, 0]]}}\n{{"example_id": "b", "passes": {rows}}}\n')
    with pytest.raises(DataFormatError) as info:
        load_distributions(str(path))
    assert str(info.value) == f"{path}: line 2: distribution 'b': passes must be numbers, got {shown}"
    path.write_text(f'{{"example_id": "b", "passes": {rows}}}\n')  # the record that fixes the shape
    with pytest.raises(DataFormatError, match="line 1: distribution 'b': passes must be numbers"):
        load_distributions(str(path))


def test_an_integer_too_large_for_a_float_is_refused_at_its_line(tmp_path):
    huge = "1" + "0" * 400
    path = _write(tmp_path, ['{"class_count": 2}', f'{{"id": "a", "label": 0, "features": [{huge}, 1.0]}}'])
    with pytest.raises(DataFormatError, match="line 2: int too large to convert to float"):
        load_dataset(path)
    dump = tmp_path / "dump.jsonl"
    dump.write_text(f'{{"example_id": "a", "passes": [[0.5, 0.5]]}}\n{{"example_id": "b", "passes": [[{huge}, 0]]}}\n')
    with pytest.raises(DataFormatError, match="line 2: int too large to convert to float"):
        load_distributions(str(dump))


def test_a_failure_before_any_record_is_located_at_the_file(tmp_path):
    path = tmp_path / "dump.jsonl"
    path.write_bytes(b"\n\xff\n")
    with pytest.raises(DataFormatError) as info:
        load_distributions(str(path))
    assert str(info.value).startswith(f"{path}: 'utf-8' codec can't decode")


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
    path.write_text('{"example_id": "a", "passes": [[0.5, 0.5]]}\n\n{"example_id": "b"}\n')
    with pytest.raises(DataFormatError, match="line 3: missing field 'passes'"):
        load_distributions(str(path))


@pytest.mark.parametrize(
    "reader, name, text, message",
    [
        (LabelSpaceMapping.from_file, "mapping.json", '{"classes": ["a", "b"]}', "missing field 'roles'"),
        (load_model, "model.json", '{"format": "labelaudit-model-v1"}', "missing field 'spec'"),
        (
            load_decisions,
            "decisions.jsonl",
            '{"example_id": "a", "verdict": "keep"}\n\n'
            '{"example_id": "b", "verdict": "overwrite", "new_label": "1"}\n',
            "line 3: new_label must be an integer",
        ),
        (load_decisions, "decisions.jsonl", "[1, 2]\n", "line 1: expected a JSON object"),
        (load_noise_mask, "mask.json", '{"corrupted_ids": []}', "missing field 'original_label_of'"),
    ],
    ids=["mapping", "model", "decision-new-label", "decision-not-object", "noise-mask"],
)
def test_readers_locate_malformed_records(tmp_path, reader, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DataFormatError) as info:
        reader(str(path))
    assert str(info.value) == f"{path}: {message}"


def _interrupted(records):
    yield from records
    raise RuntimeError("interrupted")


@pytest.mark.parametrize(
    "save, records",
    [
        (save_decisions, [Decision(f"e{i}", KEEP) for i in range(2000)]),
        (save_distributions, [PredictiveDistribution(f"e{i}", [[0.5, 0.5]] * 10) for i in range(2000)]),
    ],
    ids=["decisions", "distributions"],
)
def test_interrupted_write_keeps_previous_file(tmp_path, save, records):
    path = tmp_path / "artifact.jsonl"
    save(records[:3], str(path))
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="interrupted"):
        save(_interrupted(records), str(path))  # raises after far more than a write buffer
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.jsonl"]
    save(records, str(path))
    assert len(path.read_text().splitlines()) == len(records)
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.jsonl"]


def test_only_data_module_opens_files():
    """File formats and the location rule live in data.py: no other module opens,
    reads or writes a file itself (``json.loads``/``json.dumps`` of strings are fine)."""
    offenders = []
    for module in sorted(Path(labelaudit.__file__).parent.glob("*.py")):
        if module.name == "data.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name) and func.id == "open":
                offenders.append(f"{module.name}:{node.lineno}: open")
            elif isinstance(func, ast.Attribute) and (
                func.attr in ("open", "read_text", "write_text")
                or (func.attr in ("load", "dump") and getattr(func.value, "id", None) == "json")
            ):
                offenders.append(f"{module.name}:{node.lineno}: {func.attr}")
    assert offenders == []


FEATURE_LINES = [
    '{"class_count": 3, "class_names": ["a", "b", "c"]}',
    '{"features": [1.5, -2.0, 0.1], "gold_label": 2, "id": "e0", "label": 0}',
    '{"features": [1e-300, 3.0, 7.25], "id": "e1", "label": 2}',
    '{"features": [0.0, -0.0, 123456789.123], "gold_label": 0, "id": "e2", "label": 1}',
]
FEATURE_RECORDS = (
    LabeledExample("e0", 0, features=(1.5, -2.0, 0.1), gold_label=2),
    LabeledExample("e1", 2, features=(1e-300, 3.0, 7.25)),
    LabeledExample("e2", 1, features=(0.0, -0.0, 123456789.123), gold_label=0),
)
TOKEN_LINES = [
    '{"class_count": 2}',
    '{"gold_label": 1, "id": "t0", "label": 0, "tokens": [{"is_compound_head": false, "is_entity": true, '
    '"pos": "propn", "text": "Paris"}, {"is_compound_head": false, "is_entity": false, "pos": "verb", "text": "is"}]}',
    '{"id": "t1", "label": 1, "tokens": [{"is_compound_head": true, "is_entity": false, "pos": "noun", "text": "berry"}]}',
]
TOKEN_RECORDS = (
    LabeledExample("t0", 0, tokens=(TaggedToken("Paris", "propn", is_entity=True), TaggedToken("is", "verb")), gold_label=1),
    LabeledExample("t1", 1, tokens=(TaggedToken("berry", "noun", is_compound_head=True),)),
)


@pytest.mark.parametrize("lines, records", [(FEATURE_LINES, FEATURE_RECORDS), (TOKEN_LINES, TOKEN_RECORDS)])
def test_load_then_save_is_byte_identical_and_examples_are_the_records(tmp_path, lines, records):
    path = _write(tmp_path, lines)
    ds = load_dataset(path)
    out = tmp_path / "again.jsonl"
    save_dataset(ds, str(out))
    assert out.read_bytes() == Path(path).read_bytes()
    assert ds.examples == records


def _columns_of(ds):
    """A dataset's columns as comparable values, dtypes and feature bytes included."""
    features = None if ds.features is None else (ds.features.shape, ds.features.tobytes())
    gold = None if ds.gold is None else (ds.gold.dtype, ds.gold.tolist())
    return ds.class_count, ds.class_names, ds.ids, ds.labels.dtype, ds.labels.tolist(), gold, features, ds.tokens


@pytest.mark.parametrize(
    "lines, records", [(FEATURE_LINES, FEATURE_RECORDS), (TOKEN_LINES, TOKEN_RECORDS)], ids=["features", "tokens"]
)
def test_load_dataset_builds_no_records_and_holds_the_records_as_columns(tmp_path, monkeypatch, lines, records):
    path = _write(tmp_path, lines)
    built = []
    record_new = LabeledExample.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return record_new(cls, *args, **kwargs)

    monkeypatch.setattr(LabeledExample, "__new__", counted_new)
    ds = load_dataset(path)
    assert built == []
    assert ds.examples == records and len(built) == len(records)  # the counter is live
    ids, labels, features, tokens, golds = zip(*records)
    gold = [NO_GOLD if g is None else g for g in golds] if any(g is not None for g in golds) else None
    if features[0] is None:
        expected = Dataset(ds.class_count, ids, labels, tokens=tokens, gold=gold, class_names=ds.class_names)
    else:
        expected = Dataset(ds.class_count, ids, labels, features, gold=gold, class_names=ds.class_names)
    assert _columns_of(ds) == _columns_of(expected)


def test_derived_datasets_share_the_feature_matrix(tmp_path):
    ds = load_dataset(_write(tmp_path, FEATURE_LINES))
    assert ds.strip_gold().features is ds.features
    picked = ds.subset([2, 0])
    assert np.shares_memory(picked.features, ds.features)
    assert picked.examples == (FEATURE_RECORDS[2], FEATURE_RECORDS[0])
    assert picked.subset([1]).examples == (FEATURE_RECORDS[0],)
    relabeled = ds.with_labels([1, 1, 1])
    assert relabeled.features is ds.features and relabeled.labels.tolist() == [1, 1, 1]
    with pytest.raises(DataFormatError, match="example 'e1': label 3 out of range for class_count 3"):
        ds.with_labels([0, 3, 0])
    assert not any(a.flags.writeable for a in (ds.features, ds.labels, ds.gold, picked.labels, picked.rows))


def test_predictive_distribution_takes_over_a_float_array():
    passes = np.full((3, 2), 0.5)
    dist = PredictiveDistribution("a", passes)
    assert dist.passes is passes and not passes.flags.writeable
