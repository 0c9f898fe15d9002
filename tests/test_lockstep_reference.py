"""The lockstep kernels against the per-node code they replaced, byte for byte.

`local_update` trains a whole (n, dim) stack with one `task.grad` call per
step, and `test_error_rate` scores a stack in one call. Both must give
exactly the bytes of training and scoring each node on its own. The
per-node reference below is that code: one model at a time, the bias
column appended per minibatch to the raw features `X[..., :features]`
(the generator's own ones column is checked separately), the gradient
written into a full-dimension zero vector. CI runs this file at
`OPENBLAS_NUM_THREADS=1` as well.
"""
import numpy as np
import pytest

from sketchdfl.learning import TaskSpec, generate_federated_data, local_update, make_task
from sketchdfl.learning import test_error_rate as stacked_error_rate  # dodge collection

N_CLIENTS = 12  # more than 8, so the quadratic metric's mean over shards is pairwise


def ref_with_bias(X):
    return np.hstack([X, np.ones((len(X), 1))])


def ref_design(task, X):
    """The raw features of design rows, with the reference's own bias column."""
    return ref_with_bias(X[..., : task.spec.features])


def ref_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_mlp_unpack(task, w):
    s = task.spec
    n1 = s.hidden * (s.features + 1)
    w1 = w[:n1].reshape(s.hidden, s.features + 1)
    w2 = w[n1 : task.active_dim].reshape(s.classes, s.hidden + 1)
    return n1, w1, w2


def ref_grad(task, w, X, y):
    s = task.spec
    g = np.zeros(task.dim)
    if task.kind == "quadratic":
        p = s.features
        g[:p] = X.T @ (X @ w[:p] - y) / len(y)
    elif task.kind == "logistic":
        Xb = ref_design(task, X)
        W = w[: task.active_dim].reshape(s.classes, s.features + 1)
        probs = ref_softmax(Xb @ W.T)
        probs[np.arange(len(y)), y.astype(np.int64)] -= 1.0
        g[: task.active_dim] = (probs.T @ Xb / len(y)).ravel()
    else:
        n1, w1, w2 = ref_mlp_unpack(task, w)
        Xb = ref_design(task, X)
        hidden = np.tanh(Xb @ w1.T)
        hb = ref_with_bias(hidden)
        probs = ref_softmax(hb @ w2.T)
        probs[np.arange(len(y)), y.astype(np.int64)] -= 1.0
        probs /= len(y)
        g2 = probs.T @ hb
        back = (probs @ w2[:, :-1]) * (1 - hidden**2)
        g1 = back.T @ Xb
        g[:n1] = g1.ravel()
        g[n1 : task.active_dim] = g2.ravel()
    return g


def ref_local_update(task, model, X, y, lr, epochs, batch_size, rng):
    w = np.array(model, dtype=np.float64, copy=True)
    m = len(y)
    step = min(batch_size, m)
    for _ in range(epochs):
        order = rng.permutation(m)
        for start in range(0, m, step):
            idx = order[start : start + step]
            w -= lr * ref_grad(task, w, X[idx], y[idx])
    return w


def ref_global_loss(task, data, w):
    p = task.spec.features
    losses = []
    for X, y in zip(data.features, data.labels):
        r = X @ w[:p] - y
        losses.append(float(r @ r) / (2 * len(y)))
    return float(np.mean(losses))


def ref_error_rate(task, data, w, X, y):
    if task.kind == "quadratic":
        optimal = ref_global_loss(task, data, task.optimum)
        gap = ref_global_loss(task, data, w) - optimal
        return float(min(1.0, max(0.0, gap / (1.0 + abs(optimal)))))
    if task.kind == "logistic":
        s = task.spec
        W = w[: task.active_dim].reshape(s.classes, s.features + 1)
        logits = ref_design(task, X) @ W.T
    else:
        _, w1, w2 = ref_mlp_unpack(task, w)
        logits = ref_with_bias(np.tanh(ref_design(task, X) @ w1.T)) @ w2.T
    return float(np.mean(np.argmax(logits, axis=1) != y.astype(np.int64)))


SPECS = {
    "quadratic": TaskSpec(kind="quadratic", features=9, samples_per_client=30,
                          test_samples=50, dim=40),
    "logistic": TaskSpec(kind="logistic", features=9, classes=4, samples_per_client=30,
                         test_samples=50, concentration=0.5, dim=64),
    "tiny-mlp": TaskSpec(kind="tiny-mlp", features=9, classes=4, hidden=5,
                         samples_per_client=30, test_samples=50, concentration=0.5, dim=90),
}
# (batch_size, epochs) over 30 samples per client
SCHEDULES = {
    "remainder-batch": (8, 1),
    "batch-over-m": (50, 1),
    "three-epochs": (8, 3),
}


def setup(kind):
    spec = SPECS[kind]
    data = generate_federated_data(spec, N_CLIENTS, seed=23)
    task = make_task(spec, data)
    assert task.dim > task.active_dim  # padded
    if kind != "quadratic":  # design rows: the raw features, then exactly 1.0
        assert data.features.shape[-1] == data.test_features.shape[-1] == spec.features + 1
        assert (data.features[..., -1] == 1.0).all()
        assert (data.test_features[..., -1] == 1.0).all()
    rng = np.random.default_rng(5)
    models = rng.normal(0, 0.3, (N_CLIENTS, task.dim))  # distinct rows, padding included
    return data, task, models


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_local_update_matches_per_node_loop_bytewise(kind, schedule):
    data, task, models = setup(kind)
    batch_size, epochs = SCHEDULES[schedule]
    lr = 0.05

    def rngs():
        return [np.random.default_rng([11, i]) for i in range(N_CLIENTS)]

    got = local_update(task, models.copy(), data.features, data.labels, lr, epochs, batch_size,
                       rngs())
    want = np.stack([
        ref_local_update(task, models[i], data.features[i], data.labels[i],
                         lr, epochs, batch_size, rng)
        for i, rng in enumerate(rngs())
    ])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.array_equal(got, models)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_stacked_gradient_matches_per_node_bytewise(kind):
    data, task, models = setup(kind)
    idx = np.random.default_rng(6).permutation(30)[:20]
    X, y = data.features[:, idx], data.labels[:, idx]
    got = task.grad(models, X, y)
    want = np.stack([ref_grad(task, models[i], X[i], y[i]) for i in range(N_CLIENTS)])
    assert got.tobytes() == want[:, : task.active_dim].tobytes()
    assert not want[:, task.active_dim :].any()


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_stacked_error_rate_matches_per_model_bytewise(kind):
    data, task, models = setup(kind)
    models = models * np.linspace(0.5, 2.0, N_CLIENTS)[:, None]  # spread the rates
    got = stacked_error_rate(task, models, data.test_features, data.test_labels)
    want = [ref_error_rate(task, data, w, data.test_features, data.test_labels) for w in models]
    assert got.tobytes() == np.array(want).tobytes()
    assert len(set(want)) > 1
    if kind != "quadratic":  # per-client shards, one evaluation set per model
        got = stacked_error_rate(task, models, data.features, data.labels)
        want = [ref_error_rate(task, data, w, X, y)
                for w, X, y in zip(models, data.features, data.labels)]
        assert got.tobytes() == np.array(want).tobytes()
