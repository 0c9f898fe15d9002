"""Learning tasks, federated data generation, and local training.

Three task families cover the simulator's needs: a least-squares problem
with a closed-form optimum (exact curvature constants, suboptimality as
the error metric), multinomial logistic regression on Gaussian class
blobs (the workhorse for robustness experiments), and a one-hidden-layer
tanh network for a non-convex smoke case. Models are flat float64 vectors
so sketching and aggregation never care which task produced them; tasks
may pad with inert trailing coordinates to reach a requested dimension.

The classification tasks read a design matrix: the generator stores
each sample's p features followed by a constant 1.0, the input bias
column, in the client shards `(n, m, p+1)` and the held-out set
`(N, p+1)`, so no training step or evaluation rebuilds that column. The
quadratic task's data has no such column.

A task's `grad` and `error_rate` take one model `(dim,)` or a stack
`(n, dim)` with matching leading axes on the data, so every node of a
round trains and is scored in lockstep. Stacks go through `np.matmul`,
which makes the same BLAS call on each slice as on a single model, so a
stacked result is bitwise the per-model one. `einsum` does not keep
those bits. Folding a block of models' classes into the M side of one
GEMM against a shared held-out set does: each score is still one dot
product over the same p+1 terms in the same order, and
`tests/test_blas_determinism.py` pins the folded scores, whole and by
block, against the per-model products at one and two BLAS threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalDivergenceError
from .sketch import combine64

TASK_KINDS = ("quadratic", "logistic", "tiny-mlp")


@dataclass(frozen=True)
class TaskSpec:
    kind: str = "logistic"
    features: int = 32
    classes: int = 10
    hidden: int = 16              # tiny-mlp only
    samples_per_client: int = 200
    test_samples: int = 2000
    concentration: float = 1.0    # label skew (classification) / optimum drift (quadratic); larger is more IID
    dim: int = 0                  # 0 = natural size; larger pads with inert coordinates
    separation: float = 5.0       # class-mean scale (classification)
    noise: float = 0.1            # target noise std (quadratic)

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(
                f"unknown task kind {self.kind!r}, expected one of {TASK_KINDS}"
            )
        if self.features < 1:
            raise ConfigurationError(f"features must be >= 1, got {self.features}")
        if self.kind != "quadratic" and self.classes < 2:
            raise ConfigurationError(f"classes must be >= 2, got {self.classes}")
        if self.kind == "tiny-mlp" and not 1 <= self.hidden <= 64:
            raise ConfigurationError(f"hidden must be in [1, 64], got {self.hidden}")
        if self.samples_per_client < 1:
            raise ConfigurationError("samples_per_client must be >= 1")
        if self.test_samples < 1:
            raise ConfigurationError("test_samples must be >= 1")
        if self.concentration <= 0:
            raise ConfigurationError(f"concentration must be > 0, got {self.concentration}")
        if self.dim < 0:
            raise ConfigurationError(f"dim must be >= 0, got {self.dim}")
        if self.noise < 0:
            raise ConfigurationError(f"noise must be >= 0, got {self.noise}")


@dataclass
class FederatedData:
    """Client i's shard is features[i] and labels[i] (m,): every shard
    lives in one (n_clients, m, ·) array. For the classification tasks the
    feature rows are design rows of p+1 values, the sample's p features
    then exactly 1.0 (the input bias), in the shards (n_clients, m, p+1)
    and the held-out set (N, p+1); the quadratic task's rows are its p
    features. labels holds class ids for classification tasks and float
    regression targets for the quadratic task."""

    features: np.ndarray
    labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    spec: TaskSpec
    seed: int


def _natural_dim(spec: TaskSpec) -> int:
    if spec.kind == "quadratic":
        return spec.features
    if spec.kind == "logistic":
        return spec.classes * (spec.features + 1)
    return spec.hidden * (spec.features + 1) + spec.classes * (spec.hidden + 1)


def _resolve_dim(spec: TaskSpec) -> tuple[int, int]:
    natural = _natural_dim(spec)
    if spec.dim == 0:
        return natural, natural
    if spec.dim < natural:
        raise ConfigurationError(
            f"requested dim {spec.dim} is below the task's natural size {natural}"
        )
    return spec.dim, natural


def _T(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_minus_one_hot(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """softmax(logits) minus each row's one-hot label, in place in `logits`,
    a C-contiguous (..., C) product. The row max is taken one class column
    at a time, so no numpy loop runs over rows of C values. A max is exact;
    where its zero's sign differs from `logits.max`'s, only `x - 0` at
    x = ±0 changes, and `exp` maps both signs to 1. Every other step is
    `_softmax`'s in its order, so the bits are those of `_softmax(logits)`
    with 1 subtracted at each label."""
    C = logits.shape[-1]
    top = logits[..., 0].copy()
    for c in range(1, C):
        np.maximum(top, logits[..., c], out=top)
    logits -= top[..., None]
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    rows = np.reshape(logits, (-1, C), copy=False)
    rows[np.arange(len(rows)), y.reshape(-1)] -= 1.0
    return logits


def _mean_cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    picked = np.take_along_axis(_softmax(logits), y[..., None].astype(np.int64), axis=-1)
    return -np.mean(np.log(np.maximum(picked[..., 0], 1e-12)), axis=-1)


def _class_scores(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Class-major scores (..., C, N) of weights W (..., C, K) on design
    rows X: one set (N, K) shared by every model, or one set per model
    (..., N, K). A shared set is one GEMM, every model's classes folded
    into its M side; per-model sets are one stacked product."""
    if X.ndim == 2:
        return (W.reshape(-1, X.shape[-1]) @ X.T).reshape(*W.shape[:-1], len(X))
    return W @ _T(X)


def _error_fraction(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fraction of samples whose argmax class is not the label, for
    class-major scores (..., C, N) and labels (N,) or (..., N): exactly
    `np.mean(np.argmax(scores, axis=-2) != y, axis=-1)`.

    A sample is wrong where its label's score is below the top score. Only
    where the top is tied or NaN does argmax's first-index rule decide, so
    only those samples go through `np.argmax`; ties are counted class by
    class into one (..., N) array rather than a (..., C, N) mask."""
    lead, (C, N) = scores.shape[:-2], scores.shape[-2:]
    s = scores.reshape(-1, C, N)
    y = np.reshape(y, (-1, N))   # (1, N) for a shared set: broadcast, never copied
    at = np.arange(len(s))[:, None] * C + y   # flat index of each label's score
    at *= N
    at += np.arange(N)
    mine = s.reshape(-1).take(at)
    del at
    top = np.maximum.reduce(s, axis=1)
    wrong = mine < top
    del mine
    hits = np.zeros(top.shape, dtype=np.min_scalar_type(C))
    for c in range(C):
        hits += s[:, c] == top
    m, t = np.nonzero(hits != 1)   # tied, or NaN (equal to nothing)
    wrong[m, t] = np.argmax(s[m, :, t], axis=-1) != np.broadcast_to(y, wrong.shape)[m, t]
    return np.mean(wrong.reshape(*lead, N), axis=-1)


class QuadraticTask:
    """Federated least squares: f_i(w) = ||A_i w - b_i||^2 / (2 m_i).

    Keeps references to every client shard so the global objective, its
    exact optimum, and the curvature extremes (mu, lipschitz) are available.
    The error metric is normalized suboptimality clamped to [0, 1]; the
    held-out set is ignored for that metric, so it has no per-shard score.
    """

    kind = "quadratic"
    metric_name = "suboptimality"
    eval_width = 1  # keeps no per-sample values: any block size will do

    def __init__(self, spec: TaskSpec, data: FederatedData):
        if not len(data.labels):
            raise ConfigurationError("quadratic task needs at least one client shard")
        self.spec = spec
        self.dim, self.active_dim = _resolve_dim(spec)
        self._shards = list(zip(data.features, data.labels))
        p = spec.features
        hessian = np.zeros((p, p))
        rhs = np.zeros(p)
        for X, y in self._shards:
            m = len(y)
            hessian += X.T @ X / m
            rhs += X.T @ y / m
        hessian /= len(self._shards)
        rhs /= len(self._shards)
        self.hessian = hessian
        eigvals = np.linalg.eigvalsh(hessian)
        self.mu = float(eigvals[0])
        self.lipschitz = float(eigvals[-1])
        if self.mu <= 0:
            raise ConfigurationError(
                "client shards give a singular average Hessian; need samples >= features"
            )
        self.optimum = np.zeros(self.dim)
        self.optimum[:p] = np.linalg.solve(hessian, rhs)
        self.optimal_loss = self.global_loss(self.optimum)

    def init_model(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)

    def _residual(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """X w - y as a (..., m, 1) column per model."""
        return X @ w[..., : self.spec.features, None] - y[..., None]

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = self._residual(w, X, y)
        return (_T(r) @ r)[..., 0, 0] / (2 * y.shape[-1])

    def grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient over the active coordinates (padding has none)."""
        return (_T(X) @ self._residual(w, X, y) / y.shape[-1])[..., 0]

    def global_loss(self, w: np.ndarray) -> np.ndarray:
        """Mean loss over the client shards; one value per model."""
        losses = [self.loss(w, X, y) for X, y in self._shards]
        return np.mean(np.stack(losses, axis=-1), axis=-1)

    def error_rate(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Suboptimality of each model; X and y are not read."""
        gap = (self.global_loss(w) - self.optimal_loss) / (1.0 + abs(self.optimal_loss))
        return np.minimum(1.0, np.fmax(0.0, gap))


class LogisticTask:
    """Multinomial logistic regression; model is the flattened (classes,
    features+1) weight matrix plus any inert padding."""

    kind = "logistic"
    metric_name = "test_error_rate"

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        self.dim, self.active_dim = _resolve_dim(spec)
        # C class scores, then the label's score beside the top score
        self.eval_width = spec.classes + 2

    def _weights(self, w: np.ndarray) -> np.ndarray:
        s = self.spec
        return w[..., : self.active_dim].reshape(*w.shape[:-1], s.classes, s.features + 1)

    def init_model(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _mean_cross_entropy(X @ _T(self._weights(w)), y)

    def grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient over the active coordinates (padding has none); X holds
        design rows (..., b, p+1)."""
        probs = _softmax_minus_one_hot(X @ _T(self._weights(w)), y)
        g = _T(probs) @ X
        g /= y.shape[-1]
        return g.reshape(*w.shape[:-1], -1)

    def error_rate(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _error_fraction(_class_scores(self._weights(w), X), y)


class TinyMlpTask:
    """One tanh hidden layer, softmax output. Non-convex smoke-test task."""

    kind = "tiny-mlp"
    metric_name = "test_error_rate"

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        self.dim, self.active_dim = _resolve_dim(spec)
        self._n1 = spec.hidden * (spec.features + 1)
        # values per sample at each step's peak: the bias-augmented
        # activations beside the class scores, and the scores beside each
        # sample's label and top score
        h, c = spec.hidden, spec.classes
        self.eval_width = max(h + 1 + c, c + 2)

    def _unpack(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s, lead = self.spec, w.shape[:-1]
        w1 = w[..., : self._n1].reshape(*lead, s.hidden, s.features + 1)
        w2 = w[..., self._n1 : self.active_dim].reshape(*lead, s.classes, s.hidden + 1)
        return w1, w2

    def init_model(self, rng: np.random.Generator) -> np.ndarray:
        s = self.spec
        w = np.zeros(self.dim)
        scale1 = 1.0 / np.sqrt(s.features + 1)
        scale2 = 1.0 / np.sqrt(s.hidden + 1)
        w[: self._n1] = rng.normal(0, scale1, self._n1)
        w[self._n1 : self.active_dim] = rng.normal(0, scale2, self.active_dim - self._n1)
        return w

    def _hidden(self, w, X):
        """(output-layer weights, bias-augmented hidden activations) for
        design rows X."""
        w1, w2 = self._unpack(w)
        h = self.spec.hidden
        lead = np.broadcast_shapes(w1.shape[:-2], X.shape[:-2])
        # tanh in place in one buffer: h + 1 values per sample (eval_width)
        hb = np.empty((*lead, X.shape[-2], h + 1))
        act = hb[..., :h]
        np.tanh(np.matmul(X, _T(w1), out=act), out=act)
        hb[..., h] = 1.0
        return w2, hb

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        w2, hb = self._hidden(w, X)
        return _mean_cross_entropy(hb @ _T(w2), y)

    def grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient over the active coordinates (padding has none); X holds
        design rows (..., b, p+1)."""
        w2, hb = self._hidden(w, X)
        probs = _softmax_minus_one_hot(hb @ _T(w2), y)
        probs /= y.shape[-1]
        g2 = _T(probs) @ hb
        back = (probs @ w2[..., :-1]) * (1 - hb[..., :-1] ** 2)
        g1 = _T(back) @ X
        lead = w.shape[:-1]
        return np.concatenate([g1.reshape(*lead, -1), g2.reshape(*lead, -1)], axis=-1)

    def error_rate(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _error_fraction(_class_scores(*self._hidden(w, X)), y)


def generate_federated_data(spec: TaskSpec, n_clients: int, seed: int) -> FederatedData:
    """Deterministic per-client shards plus one shared held-out set.

    Classification: Gaussian class blobs with Dirichlet(concentration)
    label skew per client; the held-out set cycles through classes evenly.
    Feature rows are stored as design rows, the p features then 1.0.
    Quadratic: client optima drift from a shared one by
    concentration**-0.5, which is what makes shards heterogeneous.
    """
    if n_clients < 1:
        raise ConfigurationError(f"n_clients must be >= 1, got {n_clients}")
    m, p = spec.samples_per_client, spec.features
    # Each branch draws the held-out set before it allocates the client
    # stack. The other order faults in the whole stack afresh on every run
    # (about 1000 page faults per run at desk scale) instead of reusing
    # the memory the previous run freed.
    if spec.kind == "quadratic":
        rng = np.random.Generator(np.random.PCG64(combine64(seed, 1)))
        w_true = rng.normal(size=p)
        trng = np.random.Generator(np.random.PCG64(combine64(seed, 3)))
        X_t = trng.normal(size=(spec.test_samples, p))
        y_t = X_t @ w_true + spec.noise * trng.normal(size=spec.test_samples)
        drift = spec.concentration**-0.5
        features, labels = np.empty((n_clients, m, p)), np.empty((n_clients, m))
        for i in range(n_clients):
            crng = np.random.Generator(np.random.PCG64(combine64(seed, 2, i)))
            features[i] = crng.normal(size=(m, p))
            w_i = w_true + drift * crng.normal(size=p)
            labels[i] = features[i] @ w_i + spec.noise * crng.normal(size=m)
        return FederatedData(features, labels, X_t, y_t, spec, seed)

    C = spec.classes
    mrng = np.random.Generator(np.random.PCG64(combine64(seed, 1)))
    means = spec.separation * mrng.normal(size=(C, p)) / np.sqrt(p)
    trng = np.random.Generator(np.random.PCG64(combine64(seed, 4)))
    y_t = np.arange(spec.test_samples) % C
    X_t = np.empty((spec.test_samples, p + 1))
    np.add(means[y_t], trng.normal(size=(spec.test_samples, p)), out=X_t[:, :p])
    X_t[:, p] = 1.0
    lrng = np.random.Generator(np.random.PCG64(combine64(seed, 2)))
    proportions = lrng.dirichlet(np.full(C, spec.concentration), size=n_clients)
    features = np.empty((n_clients, m, p + 1))
    labels = np.empty((n_clients, m), dtype=np.int64)
    for i in range(n_clients):
        crng = np.random.Generator(np.random.PCG64(combine64(seed, 3, i)))
        counts = crng.multinomial(m, proportions[i])
        y = np.repeat(np.arange(C), counts)
        feats = means[y]
        feats += crng.normal(size=(m, p))
        order = crng.permutation(m)
        features[i, :, :p] = feats[order]
        labels[i] = y[order]
    features[..., p] = 1.0
    return FederatedData(features, labels, X_t, y_t, spec, seed)


def make_task(spec: TaskSpec, data: FederatedData):
    if spec.kind == "quadratic":
        return QuadraticTask(spec, data)
    if spec.kind == "logistic":
        return LogisticTask(spec)
    return TinyMlpTask(spec)


def local_update(
    task,
    models: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    lr: float,
    epochs: int,
    batch_size: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Minibatch SGD for n clients in lockstep. Row i of the (n, dim)
    `models` stack trains on client i's shard, `features[i]` and
    `labels[i]` (m,), and draws a fresh shuffle each epoch from `rngs[i]`,
    so every row takes exactly the steps it would take alone. Each step
    makes one `task.grad` call for the whole stack and moves only the
    active coordinates, whose padding gradient is exactly zero.

    `models`, a writable float64 stack, is trained in place and returned;
    a caller that needs the untrained models passes a copy. lr=0 leaves
    every value as it was."""
    if lr < 0:
        raise ConfigurationError(f"learning rate must be >= 0, got {lr}")
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    active = models[:, : task.active_dim]
    n, m = labels.shape
    rows = np.arange(n)[:, None]
    step = min(batch_size, m)
    for _ in range(epochs):
        order = np.stack([rng.permutation(m) for rng in rngs])
        for start in range(0, m, step):
            idx = order[:, start : start + step]
            g = task.grad(models, features[rows, idx], labels[rows, idx])
            g *= lr  # in place, the bits of `active -= lr * g`
            active -= g
    for i, row in enumerate(models):
        if not np.isfinite(row).all():
            raise NumericalDivergenceError(
                f"client {i} produced non-finite coordinates "
                f"(lr={lr}, epochs={epochs})"
            )
    return models


EVAL_BLOCK_BYTES = 4 << 20


def _eval_block(task, n_samples: int) -> int:
    """Models per evaluation block: the most whose `task.eval_width`
    float64 values per held-out sample fit in EVAL_BLOCK_BYTES, and at
    least one."""
    return max(1, EVAL_BLOCK_BYTES // (8 * task.eval_width * n_samples))


def test_error_rate(task, models: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The task's error metric for each model of an (n, dim) stack, on one
    shared set X (N, ·), y (N,) or on one set per model, X (n, N, ·), y (n, N),
    whose rows are laid out as `FederatedData` stores them.

    Models are scored in blocks of consecutive rows. A block holds
    `task.eval_width` float64 values per model and held-out sample at its
    peak (its class scores among them), and that stays within
    EVAL_BLOCK_BYTES, so the memory evaluation needs does not grow with n.
    Each model's score is computed as it would be alone, so the blocks
    give the bits of one call over the whole stack.

    Tasks read only `models[..., :task.active_dim]`, so a caller may pass
    just those columns: the padding never changes a score."""
    if models.ndim != 2:
        raise ConfigurationError(f"models must be an (n, dim) stack, got shape {models.shape}")
    N = y.shape[-1]
    if N == 0:
        raise ConfigurationError("empty held-out set")
    block = _eval_block(task, N)
    shared = y.ndim == 1
    out = np.empty(len(models))
    for start in range(0, len(models), block):
        rows = slice(start, start + block)
        out[rows] = task.error_rate(models[rows], X if shared else X[rows],
                                    y if shared else y[rows])
    return out
