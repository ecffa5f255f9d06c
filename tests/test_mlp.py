import json

import numpy as np
import pytest

from labelaudit import mlp
from labelaudit.data import Dataset, PredictiveDistribution
from labelaudit.mlp import (
    Model,
    ModelSpec,
    TrainConfig,
    cross_entropy_loss,
    init_model,
    load_model,
    loss_gradients,
    mcd_predict,
    predict,
    save_model,
    train,
)
from labelaudit.noisebench import make_blobs
from labelaudit.seeding import generator, keep_mask, mix64, pass_seed_words


def test_init_shapes_chain():
    model = init_model(ModelSpec(2, (8,), 2), seed=0)
    assert model.weights[0].shape == (8, 2)
    assert model.weights[1].shape == (2, 8)
    assert model.biases[0].shape == (8,)


def test_init_is_deterministic_and_seed_sensitive():
    spec = ModelSpec(3, (4, 5), 2, dropout_rate=0.2)
    a = init_model(spec, seed=7)
    b = init_model(spec, seed=7)
    c = init_model(spec, seed=8)
    for wa, wb in zip(a.weights, b.weights):
        assert wa.tobytes() == wb.tobytes()
    assert any(wa.tobytes() != wc.tobytes() for wa, wc in zip(a.weights, c.weights))


def test_init_respects_fan_in_bound():
    model = init_model(ModelSpec(16, (8,), 2), seed=3)
    bound = 1.0 / np.sqrt(16)
    assert np.all(np.abs(model.weights[0]) <= bound)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(0, (4,), 2)
    with pytest.raises(ValueError):
        ModelSpec(2, (4,), 2, dropout_rate=1.0)
    with pytest.raises(ValueError):
        ModelSpec(2, (0,), 2)


def test_model_shape_mismatch_rejected():
    spec = ModelSpec(2, (3,), 2)
    good = init_model(spec, 0)
    with pytest.raises(ValueError):
        Model(spec, (good.weights[0].T, good.weights[1]), good.biases)


def test_predict_is_softmax_and_deterministic():
    model = init_model(ModelSpec(3, (6,), 4), seed=1)
    x = [0.3, -1.2, 2.0]
    p = predict(model, x)
    assert p.shape == (4,)
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p > 0) and np.all(p < 1)
    assert np.array_equal(p, predict(model, x))


def test_zero_weights_give_uniform_output():
    spec = ModelSpec(2, (4,), 3)
    zero = Model(
        spec,
        tuple(np.zeros_like(w) for w in init_model(spec, 0).weights),
        tuple(np.zeros_like(b) for b in init_model(spec, 0).biases),
    )
    p = predict(zero, [5.0, -3.0])
    assert np.allclose(p, [1 / 3] * 3)


def test_predict_dimension_mismatch():
    model = init_model(ModelSpec(2, (4,), 2), seed=0)
    with pytest.raises(ValueError):
        predict(model, [1.0, 2.0, 3.0])


def _blob_dataset(n=200, seed=5):
    return make_blobs(n, 2, 2, [(-3.0, 0.0), (3.0, 0.0)], 0.5, seed)


def test_train_reaches_high_accuracy_on_separable_blobs():
    # widely separated blobs: 50 epochs is plenty (verified empirically)
    ds = _blob_dataset()
    spec = ModelSpec(2, (8,), 2, dropout_rate=0.1)
    model = train(init_model(spec, 1), ds, TrainConfig(0.3, 50, 32, seed=1))
    correct = sum(
        1 for ex in ds.examples if int(np.argmax(predict(model, ex.features))) == ex.label
    )
    assert correct / len(ds) >= 0.95


def test_train_is_deterministic():
    ds = _blob_dataset(n=60)
    spec = ModelSpec(2, (6,), 2, dropout_rate=0.2)
    cfg = TrainConfig(0.1, 5, 16, seed=9)
    a = train(init_model(spec, 2), ds, cfg)
    b = train(init_model(spec, 2), ds, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert wa.tobytes() == wb.tobytes()


def test_train_zero_epochs_returns_model_unchanged():
    ds = _blob_dataset(n=20)
    spec = ModelSpec(2, (4,), 2)
    model = init_model(spec, 0)
    out = train(model, ds, TrainConfig(0.1, 0, 8, seed=0))
    for w0, w1 in zip(model.weights, out.weights):
        assert np.array_equal(w0, w1)


def test_train_rejects_empty_and_mismatched_data():
    spec = ModelSpec(2, (4,), 2)
    model = init_model(spec, 0)
    with pytest.raises(ValueError):
        train(model, Dataset(2), TrainConfig(0.1, 1, 8, seed=0))
    bad = Dataset(2, ("a",), [0], [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        train(model, bad, TrainConfig(0.1, 1, 8, seed=0))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(0.0, 1, 8, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(0.1, -1, 8, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(0.1, 1, 0, seed=0)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"learning_rate must be finite, got {rate}"):
            TrainConfig(rate, 1, 8, seed=0)
    TrainConfig(0.1, 0, 8, seed=0)  # zero epochs allowed: degenerate no-op training


def test_mcd_with_zero_dropout_equals_predict():
    model = init_model(ModelSpec(2, (5, 5), 2, dropout_rate=0.0), seed=4)
    x = [0.5, -0.5]
    dist = mcd_predict(model, x, 7, seed=11)
    base = predict(model, x)
    for row in dist.passes:
        assert np.array_equal(row, base)


def test_mcd_default_settings_vary_rows():
    model = init_model(ModelSpec(2, (16, 16), 2, dropout_rate=0.1), seed=4)
    dist = mcd_predict(model, [0.5, -0.5], 10, seed=11)
    assert dist.passes.shape == (10, 2)
    assert len({row.tobytes() for row in dist.passes}) > 1


def test_mcd_is_deterministic():
    model = init_model(ModelSpec(2, (8,), 2, dropout_rate=0.3), seed=4)
    a = mcd_predict(model, [1.0, 2.0], 6, seed=21, example_id="e")
    b = mcd_predict(model, [1.0, 2.0], 6, seed=21, example_id="e")
    assert a.passes.tobytes() == b.passes.tobytes()
    c = mcd_predict(model, [1.0, 2.0], 6, seed=22)
    assert a.passes.tobytes() != c.passes.tobytes()


def test_mcd_validates_arguments():
    model = init_model(ModelSpec(2, (4,), 2), seed=0)
    with pytest.raises(ValueError):
        mcd_predict(model, [1.0, 2.0], 0, seed=0)
    with pytest.raises(ValueError):
        mcd_predict(model, [1.0], 5, seed=0)


def _mcd_reference(model, x, t_count, seed):
    """One pass at a time: pass t draws one mask per hidden layer, in order, from
    generator(seed, t), then runs a 1-row forward."""
    p = model.spec.dropout_rate
    rows = []
    for t in range(t_count):
        rng = generator(seed, t)
        a = np.asarray(x, dtype=float)[None, :]
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            a = np.maximum(a @ w.T + b, 0.0)
            if p > 0.0:
                a = a * ((rng.random(w.shape[0]) >= p) / (1.0 - p))
        z = a @ model.weights[-1].T + model.biases[-1]
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        rows.append((e / e.sum(axis=-1, keepdims=True))[0])
    return np.array(rows)


@pytest.mark.parametrize(
    "spec, t_count",
    [
        (ModelSpec(2, (32, 32), 2, dropout_rate=0.1), 10),
        (ModelSpec(16, (32, 32), 2, dropout_rate=0.1), 10),
        (ModelSpec(3, (5, 5), 2, dropout_rate=0.0), 6),
        (ModelSpec(4, (9,), 3, dropout_rate=0.5), 1),
        (ModelSpec(5, (7, 3, 11), 4, dropout_rate=0.3), 12),
    ],
    ids=["stock", "scale", "no-dropout", "one-pass", "three-hidden"],
)
def test_mcd_predict_is_bit_identical_to_per_pass_loop(spec, t_count):
    rng = np.random.default_rng(31)
    model = init_model(spec, seed=8)
    for i in range(25):
        x = rng.normal(scale=3.0, size=spec.input_dim)
        got = mcd_predict(model, x, t_count, seed=mix64(5, i)).passes
        assert got.tobytes() == _mcd_reference(model, x, t_count, mix64(5, i)).tobytes()


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(2, (32, 32), 2, dropout_rate=0.1), ModelSpec(3, (5, 5), 2, dropout_rate=0.0)],
    ids=["stock", "no-dropout"],
)
def test_mcd_predict_gives_the_same_passes_for_a_seed_and_its_words(spec):
    # the non-int seed is the keep mask of the seed's words, as mcd_passes draws it
    model = init_model(spec, seed=8)
    x = np.linspace(-1.0, 1.0, spec.input_dim)
    hidden = sum(spec.hidden_dims)
    for seed in (0, 2**32, 2**64 - 1, mix64(5, 3)):
        words = pass_seed_words(np.array([seed, 1], dtype=np.uint64), 6)
        by_seed = mcd_predict(model, x, 6, seed=seed).passes
        keep = keep_mask(words, hidden, spec.dropout_rate)
        assert mcd_predict(model, x, 6, seed=keep[0]).passes.tobytes() == by_seed.tobytes()
        strided = np.asfortranarray(keep[0])
        assert mcd_predict(model, x, 6, seed=strided).passes.tobytes() == by_seed.tobytes()


def test_mcd_predict_refuses_a_keep_mask_of_another_type_or_shape():
    model = init_model(ModelSpec(2, (4, 3), 2), seed=1)
    keep = keep_mask(pass_seed_words(np.array([3], dtype=np.uint64), 5)[0], 7, 0.1)
    with pytest.raises(ValueError, match="bool"):
        mcd_predict(model, [0.5, -0.5], 5, seed=keep.astype(float))
    with pytest.raises(ValueError, match="shape"):
        mcd_predict(model, [0.5, -0.5], 4, seed=keep)
    with pytest.raises(ValueError, match="shape"):
        mcd_predict(model, [0.5, -0.5], 5, seed=keep[:, :4])


def test_mcd_predict_runs_one_forward_and_builds_no_generator(monkeypatch, generators_built):
    # a work count, not a timing: a per-pass forward loop or a per-pass
    # generator fails this on any host
    calls = {"_forward": 0, "pass_seed_words": 0, "keep_mask": 0}

    def counted(name):
        original = getattr(mlp, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mlp, name, counted(name))
    model = init_model(ModelSpec(2, (8, 8), 2, dropout_rate=0.1), seed=4)
    generators_built.clear()
    for t_count in (1, 4, 10):
        calls.update(dict.fromkeys(calls, 0))
        mcd_predict(model, [0.5, -0.5], t_count, seed=3)
        assert calls == {"_forward": 1, "pass_seed_words": 1, "keep_mask": 1}
        keep = keep_mask(pass_seed_words(np.array([3], dtype=np.uint64), t_count)[0], 16, 0.1)
        calls.update(dict.fromkeys(calls, 0))
        mcd_predict(model, [0.5, -0.5], t_count, seed=keep)
        assert calls == {"_forward": 1, "pass_seed_words": 0, "keep_mask": 0}
    assert generators_built == []


def _numeric_gradients(model, x, y, masks, h=1e-5):
    num_w, num_b = [], []
    for layer in range(len(model.weights)):
        gw = np.zeros_like(model.weights[layer])
        for idx in np.ndindex(*gw.shape):
            wp = [w.copy() for w in model.weights]
            wm = [w.copy() for w in model.weights]
            wp[layer][idx] += h
            wm[layer][idx] -= h
            lp = cross_entropy_loss(Model(model.spec, tuple(wp), model.biases), x, y, masks)
            lm = cross_entropy_loss(Model(model.spec, tuple(wm), model.biases), x, y, masks)
            gw[idx] = (lp - lm) / (2 * h)
        num_w.append(gw)
        gb = np.zeros_like(model.biases[layer])
        for idx in np.ndindex(*gb.shape):
            bp = [b.copy() for b in model.biases]
            bm = [b.copy() for b in model.biases]
            bp[layer][idx] += h
            bm[layer][idx] -= h
            lp = cross_entropy_loss(Model(model.spec, model.weights, tuple(bp)), x, y, masks)
            lm = cross_entropy_loss(Model(model.spec, model.weights, tuple(bm)), x, y, masks)
            gb[idx] = (lp - lm) / (2 * h)
        num_b.append(gb)
    return num_w, num_b


def _gradient_relative_error(model, x, y, masks=None):
    g_w, g_b = loss_gradients(model, x, y, masks)
    n_w, n_b = _numeric_gradients(model, x, y, masks)
    analytic = np.concatenate([g.ravel() for g in g_w + g_b])
    numeric = np.concatenate([g.ravel() for g in n_w + n_b])
    return float(
        np.linalg.norm(analytic - numeric)
        / max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    spec = ModelSpec(3, (5,), 2, dropout_rate=0.0)
    model = init_model(spec, 13)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    assert _gradient_relative_error(model, x, y) < 1e-4


def test_gradients_match_with_fixed_dropout_masks():
    rng = np.random.default_rng(78)
    spec = ModelSpec(2, (4, 4), 3, dropout_rate=0.25)
    model = init_model(spec, 14)
    x = rng.normal(size=(5, 2))
    y = rng.integers(0, 3, size=5)
    keep = 1 - spec.dropout_rate
    masks = [(rng.random((5, w)) >= spec.dropout_rate) / keep for w in spec.hidden_dims]
    assert _gradient_relative_error(model, x, y, masks) < 1e-4


def _reference_gradients(weights, biases, x, y, masks):
    """The backward pass as it was before it became one loop over every layer:
    the output layer on its own, and a delta propagated into the input too."""
    inputs, pres, a = [], [], x
    for layer in range(len(weights) - 1):
        inputs.append(a)
        z = a @ weights[layer].T + biases[layer]
        pres.append(z)
        a = np.maximum(z, 0.0)
        if masks is not None:
            a = a * masks[layer]
    inputs.append(a)
    logits = a @ weights[-1].T + biases[-1]
    n = x.shape[0]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    delta = e / e.sum(axis=-1, keepdims=True)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    n_layers = len(weights)
    g_w = [None] * n_layers
    g_b = [None] * n_layers
    g_w[-1] = delta.T @ inputs[-1]
    g_b[-1] = delta.sum(axis=0)
    back = delta @ weights[-1]
    for layer in range(n_layers - 2, -1, -1):
        if masks is not None:
            back = back * masks[layer]
        dz = back * (pres[layer] > 0)
        g_w[layer] = dz.T @ inputs[layer]
        g_b[layer] = dz.sum(axis=0)
        back = dz @ weights[layer]
    return g_w, g_b


def _reference_train(model, dataset, config):
    """The SGD loop of ``train``, step for step, over ``_reference_gradients``."""
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    shuffle_rng, mask_rng = generator(config.seed, 1), generator(config.seed, 2)
    p = model.spec.dropout_rate
    x, y = dataset.matrix(), dataset.labels
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(y))
        for start in range(0, len(y), config.batch_size):
            idx = order[start : start + config.batch_size]
            masks = None
            if p > 0.0:
                masks = [(mask_rng.random((len(idx), width)) >= p) / (1.0 - p) for width in model.spec.hidden_dims]
            g_w, g_b = _reference_gradients(weights, biases, x[idx], y[idx], masks)
            for layer in range(len(weights)):
                weights[layer] -= config.learning_rate * g_w[layer]
                biases[layer] -= config.learning_rate * g_b[layer]
    return weights, biases


@pytest.mark.parametrize(
    "spec, batch_size, subset",
    [
        (ModelSpec(2, (8,), 2, dropout_rate=0.0), 16, False),
        (ModelSpec(2, (6, 5), 2, dropout_rate=0.2), 7, False),
        (ModelSpec(2, (7, 3, 5), 3, dropout_rate=0.3), 11, False),
        (ModelSpec(2, (32, 32), 2, dropout_rate=0.1), 64, True),
        (ModelSpec(16, (32, 32), 2, dropout_rate=0.1), 64, True),
        (ModelSpec(2, (8, 4), 2, dropout_rate=0.0), 16, True),
    ],
    ids=[
        "one-hidden-no-dropout",
        "two-hidden",
        "three-hidden-three-classes",
        "stock-on-a-subset",
        "scale-on-a-subset",
        "no-dropout-on-a-subset",
    ],
)
def test_train_and_gradients_match_the_reference_bit_for_bit(spec, batch_size, subset):
    # an oracle, not a self-comparison: any reordering of the SGD step's
    # arithmetic changes these bytes
    pad = (0.0,) * (spec.input_dim - 2)
    centers = [c + pad for c in [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.0)][: spec.class_count]]
    ds = make_blobs(150, spec.input_dim, spec.class_count, centers, 1.0, seed=3)
    if subset:
        ds = ds.subset(np.random.default_rng(4).permutation(150)[:110])
    assert len(ds) % batch_size
    model = init_model(spec, seed=5)
    config = TrainConfig(0.3, 3, batch_size, seed=6)
    got = train(model, ds, config)
    weights, biases = _reference_train(model, ds, config)
    assert [w.tobytes() for w in got.weights] == [w.tobytes() for w in weights]
    assert [b.tobytes() for b in got.biases] == [b.tobytes() for b in biases]
    rng = np.random.default_rng(7)
    x, y = ds.matrix(np.arange(batch_size)), ds.labels[:batch_size]
    p = spec.dropout_rate
    masks = [(rng.random((batch_size, width)) >= p) / (1.0 - p) for width in spec.hidden_dims]
    for fixed in (None, masks):
        g_w, g_b = loss_gradients(got, x, y, fixed)
        r_w, r_b = _reference_gradients(got.weights, got.biases, x, y, fixed)
        assert [g.tobytes() for g in g_w + g_b] == [g.tobytes() for g in r_w + r_b]


def _reference_loss(weights, biases, x, y, masks):
    """Mean cross-entropy over the forward of ``_reference_gradients``, each bias added out of place."""
    a = x
    for layer in range(len(weights) - 1):
        a = np.maximum(a @ weights[layer].T + biases[layer], 0.0)
        if masks is not None:
            a = a * masks[layer]
    logits = a @ weights[-1].T + biases[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_norm - shifted[np.arange(len(shifted)), y]))


def test_loss_and_gradients_match_the_reference_and_leave_their_inputs_untouched():
    rng = np.random.default_rng(12)
    spec = ModelSpec(5, (7, 6), 3, dropout_rate=0.25)
    model = init_model(spec, seed=2)
    x = rng.normal(scale=2.0, size=(9, 5))
    y = rng.integers(0, 3, size=9)
    masks = [(rng.random((9, w)) >= 0.25) / 0.75 for w in spec.hidden_dims]
    before = [a.tobytes() for a in (x, y, *masks)]
    for fixed in (None, masks):
        loss = cross_entropy_loss(model, x, y, fixed)
        assert np.float64(loss).tobytes() == np.float64(_reference_loss(model.weights, model.biases, x, y, fixed)).tobytes()
        g_w, g_b = loss_gradients(model, x, y, fixed)
        r_w, r_b = _reference_gradients(model.weights, model.biases, x, y, fixed)
        assert [g.tobytes() for g in g_w + g_b] == [g.tobytes() for g in r_w + r_b]
    assert [a.tobytes() for a in (x, y, *masks)] == before


def test_predict_batch_leaves_a_read_only_input_untouched():
    model = init_model(ModelSpec(4, (6, 5), 3), seed=3)
    x = np.random.default_rng(5).normal(size=(8, 4))
    x.flags.writeable = False
    before = x.tobytes()
    probs = mlp.predict_batch(model, x)
    assert x.tobytes() == before and not x.flags.writeable
    assert probs.shape == (8, 3) and np.allclose(probs.sum(axis=1), 1.0)
    assert probs.tobytes() == mlp.predict_batch(model, x.copy()).tobytes()


def test_mcd_predict_returns_the_distribution_its_constructor_would_build():
    # the result skips the dataclass __init__, so check that it is what __init__ makes
    spec = ModelSpec(3, (6, 5), 2, dropout_rate=0.2)
    model = init_model(spec, seed=4)
    no_dropout = init_model(ModelSpec(3, (6, 5), 2, dropout_rate=0.0), seed=4)
    x = [0.4, -1.0, 2.0]
    keep = keep_mask(pass_seed_words(np.array([9], dtype=np.uint64), 5)[0], 11, 0.2)
    for m, seed in ((model, 9), (model, keep), (no_dropout, 9)):
        got = mcd_predict(m, x, 5, seed, example_id="e7")
        built = PredictiveDistribution("e7", _mcd_reference(m, x, 5, 9))
        assert type(got) is PredictiveDistribution
        assert vars(got).keys() == vars(built).keys()
        assert got.example_id == built.example_id == "e7"
        assert got.passes.dtype == built.passes.dtype and got.passes.shape == built.passes.shape == (5, 2)
        assert got.passes.tobytes() == built.passes.tobytes()
        assert not got.passes.flags.writeable
        with pytest.raises(ValueError):
            got.passes[0, 0] = 0.5


def test_mcd_mean_tracks_deterministic_predict():
    # inverted-dropout scaling check: large-T stochastic mean stays near predict
    ds = _blob_dataset(n=120, seed=3)
    spec = ModelSpec(2, (12,), 2, dropout_rate=0.1)
    model = train(init_model(spec, 6), ds, TrainConfig(0.2, 20, 32, seed=6))
    for x in ([0.5, 0.1], [-2.5, 0.4], [2.8, -0.2]):
        dist = mcd_predict(model, x, 2000, seed=99)
        assert np.all(np.abs(dist.passes.mean(axis=0) - predict(model, x)) < 0.05)


def test_checkpoint_roundtrip_is_exact(tmp_path):
    model = init_model(ModelSpec(3, (7, 5), 4, dropout_rate=0.15), seed=21)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.spec == model.spec
    for wa, wb in zip(model.weights, loaded.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(model.biases, loaded.biases):
        assert np.array_equal(ba, bb)


def test_model_rejects_non_finite_weights():
    model = init_model(ModelSpec(2, (4,), 2), seed=0)
    bad = model.biases[1].copy()
    bad[0] = np.inf
    with pytest.raises(ValueError, match="layer 1: non-finite weights"):
        Model(model.spec, model.weights, (model.biases[0], bad))


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model(ModelSpec(2, (3,), 2), seed=0), str(path))
    doc = json.loads(path.read_text())
    del doc["spec"]["dropout_rate"]
    refusals = (
        ('{"format": "something-else"}', "unknown checkpoint format 'something-else'"),
        (json.dumps(doc), "missing field 'dropout_rate'"),
    )
    for text, message in refusals:
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: {message}"


def test_mix64_spreads_streams():
    seeds = {mix64(1, s) for s in range(100)}
    assert len(seeds) == 100
    assert mix64(1, 0) != mix64(2, 0)
