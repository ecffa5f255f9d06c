"""Feed-forward rectifier classifier trained from scratch with mini-batch SGD.

Dropout follows the inverted convention: surviving hidden activations are scaled
by 1/(1-p) at masking time, so plain inference needs no correction.  Stochastic
multi-pass inference (``mcd_predict``) re-applies fresh masks per pass to an
already trained model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, PredictiveDistribution, feature_matrix, label_vector, read_json, write_json
from .seeding import generator, mix64

CHECKPOINT_FORMAT = "labelaudit-model-v1"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: input_dim -> hidden_dims (rectified, dropout-masked) -> class_count."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    class_count: int
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ValueError("all layer widths must be >= 1")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.class_count)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True, eq=False)
class Model:
    """Immutable weights; W_l has shape (fan_out, fan_in), b_l has shape (fan_out,)."""

    spec: ModelSpec
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        dims = self.spec.layer_dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError(f"expected {len(dims) - 1} layers, got {len(self.weights)}")
        ws, bs = [], []
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.array(w, dtype=float)
            b = np.array(b, dtype=float)
            if w.shape != (dims[layer + 1], dims[layer]) or b.shape != (dims[layer + 1],):
                raise ValueError(
                    f"layer {layer}: shapes {w.shape}/{b.shape} do not chain {dims}"
                )
            w.flags.writeable = False
            b.flags.writeable = False
            ws.append(w)
            bs.append(b)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "biases", tuple(bs))


def init_model(spec: ModelSpec, seed: int) -> Model:
    """Draw weights then biases per layer, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    All draws come from one generator seeded via ``mix64(seed, 0)``, in layer
    order, so identical seeds give bit-identical models.
    """
    rng = generator(seed, 0)
    dims = spec.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return Model(spec, tuple(weights), tuple(biases))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(weights, biases, x: np.ndarray, masks):
    """Return (layer inputs, hidden pre-activations, logits).

    ``masks`` holds one scaled keep-mask per hidden layer (or None for plain
    inference); masks multiply the rectified activations.
    """
    inputs = []
    pres = []
    a = x
    n_hidden = len(weights) - 1
    for layer in range(n_hidden):
        inputs.append(a)
        z = a @ weights[layer].T + biases[layer]
        pres.append(z)
        a = _relu(z)
        if masks is not None:
            a = a * masks[layer]
    inputs.append(a)
    logits = a @ weights[-1].T + biases[-1]
    return inputs, pres, logits


def _loss(weights, biases, x, y, masks) -> float:
    logits = _forward(weights, biases, x, masks)[2]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(y)), y]
    return float(np.mean(log_norm - picked))


def _gradients(weights, biases, x, y, masks):
    inputs, pres, logits = _forward(weights, biases, x, masks)
    n = x.shape[0]
    delta = _softmax(logits)
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


def cross_entropy_loss(model: Model, x: np.ndarray, y: np.ndarray, masks=None) -> float:
    """Mean cross-entropy of the model on a batch; ``masks`` fixes dropout masks."""
    return _loss(model.weights, model.biases, np.asarray(x, float), np.asarray(y, int), masks)


def loss_gradients(model: Model, x: np.ndarray, y: np.ndarray, masks=None):
    """Analytic gradients of ``cross_entropy_loss`` w.r.t. every weight and bias."""
    return _gradients(model.weights, model.biases, np.asarray(x, float), np.asarray(y, int), masks)


def train(model: Model, dataset: Dataset, config: TrainConfig) -> Model:
    """Mini-batch SGD on mean cross-entropy with dropout active.

    Epoch shuffles come from stream 1 of ``config.seed`` and dropout masks from
    stream 2 (one mask entry per example per hidden unit), so identical inputs
    and seed reproduce the final weights bit-for-bit.  ``epochs == 0`` returns
    the model unchanged.
    """
    if not dataset.examples:
        raise ValueError("cannot train on an empty dataset")
    x = feature_matrix(dataset)
    y = label_vector(dataset)
    spec = model.spec
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dimension {x.shape[1]} does not match input_dim {spec.input_dim}")
    if int(y.max()) >= spec.class_count:
        raise ValueError(f"label {int(y.max())} out of range for class_count {spec.class_count}")
    if config.epochs == 0:
        return model
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    shuffle_rng = generator(config.seed, 1)
    mask_rng = generator(config.seed, 2)
    p = spec.dropout_rate
    keep = 1.0 - p
    n = len(y)
    lr = config.learning_rate
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            masks = None
            if p > 0.0:
                masks = [
                    (mask_rng.random((len(idx), width)) >= p) / keep
                    for width in spec.hidden_dims
                ]
            g_w, g_b = _gradients(weights, biases, x[idx], y[idx], masks)
            for layer in range(len(weights)):
                weights[layer] -= lr * g_w[layer]
                biases[layer] -= lr * g_b[layer]
    return Model(spec, tuple(weights), tuple(biases))


def predict(model: Model, features) -> np.ndarray:
    """Deterministic class probabilities for one feature vector: a 1-row ``predict_batch``."""
    return predict_batch(model, np.asarray(features, dtype=float)[None])[0]


def predict_batch(model: Model, x: np.ndarray) -> np.ndarray:
    """Deterministic class probabilities (no masks, no rescaling, softmax output)
    for an (n, d) feature matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.spec.input_dim:
        raise ValueError(f"feature matrix shape {x.shape} does not match input_dim")
    return _softmax(_forward(model.weights, model.biases, x, None)[2])


def mcd_predict(
    model: Model, features, t_count: int, seed: int, example_id: str = ""
) -> PredictiveDistribution:
    """T stochastic forward passes with fresh Bernoulli(1-p) masks on every hidden layer.

    Pass ``t`` draws its masks from a generator seeded ``mix64(seed, t)``, one
    mask per hidden layer in order, so passes are reproducible and independently
    recomputable.  With dropout_rate 0 every row equals ``predict``.
    """
    if t_count < 1:
        raise ValueError("t_count must be >= 1")
    x = np.asarray(features, dtype=float)
    if x.shape != (model.spec.input_dim,):
        raise ValueError(f"features shape {x.shape} does not match input_dim {model.spec.input_dim}")
    p = model.spec.dropout_rate
    keep = 1.0 - p
    rows = np.empty((t_count, model.spec.class_count))
    batch = x[None, :]
    for t in range(t_count):
        masks = None
        if p > 0.0:
            rng = generator(seed, t)
            masks = [(rng.random(width) >= p) / keep for width in model.spec.hidden_dims]
        logits = _forward(model.weights, model.biases, batch, masks)[2]
        rows[t] = _softmax(logits)[0]
    return PredictiveDistribution(example_id, rows)


def save_model(model: Model, path: str) -> None:
    """Version-tagged JSON checkpoint with row-major weight arrays."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "spec": {
            "input_dim": model.spec.input_dim,
            "hidden_dims": list(model.spec.hidden_dims),
            "class_count": model.spec.class_count,
            "dropout_rate": model.spec.dropout_rate,
        },
        "layers": [
            {"weight": w.tolist(), "bias": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
    }
    write_json(path, doc)


def _model_from_doc(doc: dict) -> Model:
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unknown checkpoint format {doc.get('format')!r}")
    spec = ModelSpec(
        input_dim=doc["spec"]["input_dim"],
        hidden_dims=tuple(doc["spec"]["hidden_dims"]),
        class_count=doc["spec"]["class_count"],
        dropout_rate=doc["spec"]["dropout_rate"],
    )
    weights = tuple(np.array(layer["weight"], dtype=float) for layer in doc["layers"])
    biases = tuple(np.array(layer["bias"], dtype=float) for layer in doc["layers"])
    return Model(spec, weights, biases)


def load_model(path: str) -> Model:
    return read_json(path, _model_from_doc)
