"""Feed-forward rectifier classifier trained from scratch with mini-batch SGD.

Dropout follows the inverted convention: surviving hidden activations are scaled
by 1/(1-p) at masking time, so plain inference needs no correction.  Stochastic
multi-pass inference (``mcd_predict``) re-applies fresh masks per pass to an
already trained model: pass t's masks are still the draws of numpy's
``default_rng(mix64(seed, t))``, which callers may compute in bulk with the
vectorized PCG64 of ``seeding.keep_mask`` (tested against the installed
numpy), and all T passes then run as one stacked forward.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, PredictiveDistribution, read_json, write_json
from .seeding import _MASK64, generator, keep_mask, pass_seed_words

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
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
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
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {layer}: non-finite weights")
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


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place: every caller hands over fresh logits."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


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
        z = a @ weights[layer].T
        z += biases[layer]
        pres.append(z)
        a = np.maximum(z, 0.0)
        if masks is not None:
            a = a * masks[layer]
    inputs.append(a)
    logits = a @ weights[-1].T
    logits += biases[-1]
    return inputs, pres, logits


def _gradients(weights, biases, x, y, masks, out=None):
    """Backpropagate mean cross-entropy into every layer's (weight, bias) gradients,
    output layer first: its delta is softmax minus one-hot over the batch size, and a
    delta passed down is gated by the layer's scaled keep-mask, then its rectifier;
    no delta is formed for the input features.  ``out``, a (weight, bias) pair of
    per-layer array lists, receives the gradients in place of new arrays."""
    inputs, pres, logits = _forward(weights, biases, x, masks)
    n = x.shape[0]
    back = _softmax(logits)
    back[np.arange(n), y] -= 1.0
    back /= n
    g_w, g_b = out or ([np.empty_like(w) for w in weights], [np.empty_like(b) for b in biases])
    for layer in range(len(weights) - 1, -1, -1):
        np.matmul(back.T, inputs[layer], out=g_w[layer])
        np.add.reduce(back, axis=0, out=g_b[layer])
        if layer > 0:
            back = back @ weights[layer]
            if masks is not None:
                back *= masks[layer - 1]
            back *= pres[layer - 1] > 0
    return g_w, g_b


def cross_entropy_loss(model: Model, x: np.ndarray, y: np.ndarray, masks=None) -> float:
    """Mean cross-entropy of the model on a batch; ``masks`` fixes dropout masks."""
    logits = _forward(model.weights, model.biases, np.asarray(x, float), masks)[2]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(shifted)), np.asarray(y, int)]
    return float(np.mean(log_norm - picked))


def loss_gradients(model: Model, x: np.ndarray, y: np.ndarray, masks=None):
    """Analytic gradients of ``cross_entropy_loss`` w.r.t. every weight and bias."""
    return _gradients(model.weights, model.biases, np.asarray(x, float), np.asarray(y, int), masks)


def train(model: Model, dataset: Dataset, config: TrainConfig) -> Model:
    """Mini-batch SGD on mean cross-entropy with dropout active.

    Epoch shuffles come from stream 1 of ``config.seed`` and dropout masks from
    stream 2 (one mask entry per example per hidden unit), so identical inputs
    and seed reproduce the final weights bit-for-bit.  ``epochs == 0`` returns
    the model unchanged.  Each batch is gathered from the dataset's feature
    matrix, so a subset is never copied whole.
    """
    if not len(dataset):
        raise ValueError("cannot train on an empty dataset")
    dim = dataset.feature_dim
    if dim is None:
        raise ValueError("the dataset has no feature vectors")
    y = dataset.labels
    spec = model.spec
    if dim != spec.input_dim:
        raise ValueError(f"feature dimension {dim} does not match input_dim {spec.input_dim}")
    if int(y.max()) >= spec.class_count:
        raise ValueError(f"label {int(y.max())} out of range for class_count {spec.class_count}")
    if config.epochs == 0:
        return model
    # every weight and bias is a view into one flat buffer, and so is its gradient
    layers = (*model.weights, *model.biases)
    cuts = np.cumsum([a.size for a in layers])[:-1]
    params = np.concatenate([a.ravel() for a in layers])
    grads = np.empty_like(params)
    depth = len(model.weights)
    views = [[part.reshape(a.shape) for part, a in zip(np.split(buf, cuts), layers)] for buf in (params, grads)]
    weights, biases = views[0][:depth], views[0][depth:]
    out = (views[1][:depth], views[1][depth:])
    shuffle_rng = generator(config.seed, 1)
    mask_rng = generator(config.seed, 2)
    p = spec.dropout_rate
    keep = 1.0 - p
    ends = np.cumsum(spec.hidden_dims).tolist()  # one past each hidden layer's last unit
    n = len(y)
    lr = config.learning_rate
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            masks = None
            if p > 0.0:
                # one draw per batch holds each layer's (batch, width) block in turn
                b = len(idx)
                draws = mask_rng.random(b * ends[-1])
                np.divide(draws >= p, keep, out=draws)
                masks = [draws[b * (end - w) : b * end].reshape(b, w) for w, end in zip(spec.hidden_dims, ends)]
            _gradients(weights, biases, dataset.matrix(idx), y[idx], masks, out)
            grads *= lr
            params -= grads
    try:
        return Model(spec, tuple(weights), tuple(biases))
    except ValueError as err:
        raise ValueError(f"training diverged at learning_rate {lr}: {err}") from None


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
    model: Model, features, t_count: int, seed: int | np.ndarray, example_id: str = ""
) -> PredictiveDistribution:
    """T stochastic forward passes with fresh Bernoulli(1-p) masks on every hidden layer.

    Pass ``t`` keeps the hidden units, first layer first, where numpy's
    ``default_rng(mix64(seed, t))`` draws at least p, so passes are
    reproducible and independently recomputable.  ``seed`` is an int, whose
    (T, sum(hidden_dims)) bool keep mask ``seeding.keep_mask`` draws here, or
    that mask, which callers draw in bulk for many examples; both give the
    same bits.  Every pass shares the input, so the first hidden layer runs
    once as a 1-row product; the masked passes then run as one forward over a
    (T, 1, h) stack, which rounds exactly as T separate 1-row forwards would.
    With dropout_rate 0 every row equals ``predict``.
    """
    if t_count < 1:
        raise ValueError("t_count must be >= 1")
    x = np.asarray(features, dtype=float)
    if x.shape != (model.spec.input_dim,):
        raise ValueError(f"features shape {x.shape} does not match input_dim {model.spec.input_dim}")
    hidden = sum(model.spec.hidden_dims)
    p = model.spec.dropout_rate
    if isinstance(seed, (int, np.integer)):
        keep = keep_mask(pass_seed_words(np.array([int(seed) & _MASK64], dtype=np.uint64), t_count)[0], hidden, p)
    else:
        keep = np.asarray(seed)
        if keep.dtype != bool or keep.shape != (t_count, hidden):
            raise ValueError(f"keep mask must be bool of shape ({t_count}, {hidden}), got {keep.dtype} {keep.shape}")
    masks = None
    if p > 0.0:
        scaled = keep[:, None, :] / (1.0 - p)
        masks, lo = [], 0
        for width in model.spec.hidden_dims:
            masks.append(scaled[..., lo : lo + width])
            lo += width
    # a (1, 1, d) input broadcasts against the (T, 1, h) masks, so each later
    # layer runs every pass's 1-row product inside one matmul call; a 2-D
    # (T, h) batch would go through gemm and round differently
    logits = _forward(model.weights, model.biases, x[None, None, :], masks)[2]
    probs = _softmax(logits)[:, 0]
    if masks is None:  # one unmasked row stands for every pass
        probs = np.broadcast_to(probs, (t_count, probs.shape[-1]))
    probs.flags.writeable = False
    dist = object.__new__(PredictiveDistribution)  # a valid (T, C) float array: skip the frozen __init__
    dist.__dict__.update(example_id=example_id, passes=probs)
    return dist


def save_model(model: Model, path: str) -> None:
    """Version-tagged JSON checkpoint with row-major weight arrays."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "spec": asdict(model.spec),
        "layers": [
            {"weight": w.tolist(), "bias": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
    }
    write_json(path, doc)


def _model_from_doc(doc: dict) -> Model:
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unknown checkpoint format {doc.get('format')!r}")
    spec = ModelSpec(**{f.name: doc["spec"][f.name] for f in fields(ModelSpec)})
    weights = tuple(np.array(layer["weight"], dtype=float) for layer in doc["layers"])
    biases = tuple(np.array(layer["bias"], dtype=float) for layer in doc["layers"])
    return Model(spec, weights, biases)


def load_model(path: str) -> Model:
    return read_json(path, _model_from_doc)
