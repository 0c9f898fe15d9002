"""Tasks, data generation, and local training.

Gradients are checked against central finite differences computed here,
independent of the analytic implementations.
"""
import hashlib
import tracemalloc

import numpy as np
import pytest

import sketchdfl.learning as learning
from sketchdfl.errors import ConfigurationError, NumericalDivergenceError
from sketchdfl.learning import (
    EVAL_BLOCK_BYTES,
    LogisticTask,
    TaskSpec,
    _error_fraction,
    _softmax_minus_one_hot,
    generate_federated_data,
    local_update,
    make_task,
)
from sketchdfl.learning import test_error_rate as held_out_error  # dodge collection


def train_one(task, w, X, y, lr, epochs, batch_size, rng):
    """local_update on a one-row copy of w, so w itself stays untrained."""
    return local_update(task, w[None].copy(), X[None], y[None], lr, epochs, batch_size, [rng])[0]


def fd_grad(fn, w, coords, h=1e-6):
    out = {}
    for i in coords:
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        out[i] = (fn(up) - fn(down)) / (2 * h)
    return out


def build(kind, **kw):
    spec = TaskSpec(kind=kind, **kw)
    data = generate_federated_data(spec, n_clients=4, seed=17)
    return spec, data, make_task(spec, data)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "tiny-mlp"])
def test_gradients_match_finite_differences(kind):
    _, data, task = build(kind, features=6, classes=3, hidden=5, samples_per_client=30)
    rng = np.random.default_rng(1)
    w = rng.normal(0, 0.5, task.dim)
    X, y = data.features[0], data.labels[0]
    g = task.grad(w, X, y)
    coords = rng.choice(task.active_dim, size=min(10, task.active_dim), replace=False)
    for i, want in fd_grad(lambda v: task.loss(v, X, y), w, coords).items():
        assert g[i] == pytest.approx(want, rel=1e-4, abs=1e-7)


def test_quadratic_optimum_is_stationary_and_minimal():
    _, data, task = build("quadratic", features=8, samples_per_client=40)
    g = np.zeros(task.dim)
    for X, y in zip(data.features, data.labels):
        g += task.grad(task.optimum, X, y)
    assert np.linalg.norm(g / len(data.labels)) < 1e-9
    rng = np.random.default_rng(2)
    for _ in range(5):
        assert task.global_loss(task.optimum + 0.1 * rng.normal(size=task.dim)) > task.optimal_loss


def test_quadratic_curvature_bounds_random_directions():
    _, data, task = build("quadratic", features=8, samples_per_client=40)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=task.spec.features)
        quad = v @ task.hessian @ v
        assert task.mu * (v @ v) - 1e-9 <= quad <= task.lipschitz * (v @ v) + 1e-9


def test_quadratic_needs_enough_samples():
    spec = TaskSpec(kind="quadratic", features=50, samples_per_client=3)
    data = generate_federated_data(spec, n_clients=2, seed=0)
    with pytest.raises(ConfigurationError):
        make_task(spec, data)


def test_padding_is_inert():
    _, data, task = build("logistic", features=5, classes=3, dim=64, samples_per_client=20)
    assert task.dim == 64 and task.active_dim == 18
    rng = np.random.default_rng(4)
    w = rng.normal(size=64)
    g = task.grad(w, data.features[0], data.labels[0])
    assert g.shape == (task.active_dim,)  # padding has no gradient coordinates
    assert g.any()
    w2 = train_one(task, w, data.features[0], data.labels[0], lr=0.1, epochs=2, batch_size=8,
                   rng=np.random.default_rng(0))
    np.testing.assert_array_equal(w2[task.active_dim :], w[task.active_dim :])


def test_dim_below_natural_rejected():
    spec = TaskSpec(kind="logistic", features=5, classes=3, dim=4)
    data = generate_federated_data(spec, n_clients=2, seed=0)
    with pytest.raises(ConfigurationError):
        make_task(spec, data)


def test_generation_is_deterministic_and_client_distinct():
    spec = TaskSpec(kind="logistic", features=10, classes=4, samples_per_client=50)
    a = generate_federated_data(spec, 5, seed=9)
    b = generate_federated_data(spec, 5, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.test_features, b.test_features)
    assert not np.array_equal(a.features[0], a.features[1])
    c = generate_federated_data(spec, 5, seed=10)
    assert not np.array_equal(a.features[0], c.features[0])


# SHA-256 of features, labels, test_features and test_labels for five
# clients at seed 29, taken when the classification arrays held only the p
# raw features; they now carry a trailing ones column after those bits
GENERATOR_SPECS = {
    "logistic": (TaskSpec(kind="logistic", features=7, classes=4, samples_per_client=25,
                          test_samples=40, concentration=0.5), (
        "da410b5740a5e0f423dc85eb1c0b478bc441a5581e5a4d626de73642a0849eea",
        "9f8e84217537338b2a437bd1e0a906425d4a399862787734489ce93dc16e94a3",
        "0abab74d66633c368e278d7b0d1b3340c263e9f9e56c730e745dedd502f590c6",
        "df62bf67da549684ae37f6202d158f7f6a9226e093c5c9461e2aa7617755c633",
    )),
    "quadratic": (TaskSpec(kind="quadratic", features=6, samples_per_client=30,
                           test_samples=40, concentration=0.5), (
        "97f2e8f367f07b0c5143eb6b7cc26ec459d83ad8fb73914841bac0726d23911f",
        "db66cb70593ee3461d97263a5ff6b2046dafd7d8d77431e752e6d6ef52e18a0f",
        "9277443759205b90618e4dacce12b2ba953699c7addddd2b62934daf8a04d6e8",
        "bb4cdff2b193dd9458c4a1e6ffcac2e22506a05d350b814ae1a44e337ef485ad",
    )),
    "tiny-mlp": (TaskSpec(kind="tiny-mlp", features=5, classes=3, hidden=4,
                          samples_per_client=20, test_samples=30, concentration=0.3), (
        "5de3abc377e57f4f2555e2dd61a42118491a11e3e5ad3186cc7f5e8e972e4228",
        "5795b149bfd9300d6abb529042a0c2ce2dcd6c3f983fd1c3c7286c52bd4f3fd8",
        "97a3bfb7e706dc88dc47954b792532bb73140901d9426291b68bd44c2d239d15",
        "ed509249095e809153e426afcd0edf8205cb06944f3e3289bf67f4901a8be9ee",
    )),
}


@pytest.mark.digest
@pytest.mark.parametrize("kind", sorted(GENERATOR_SPECS))
def test_generated_data_matches_pinned_digests(kind):
    spec, digests = GENERATOR_SPECS[kind]
    data = generate_federated_data(spec, 5, seed=29)
    p = spec.features
    width = p if kind == "quadratic" else p + 1
    assert data.features.shape == (5, spec.samples_per_client, width)
    assert data.test_features.shape == (spec.test_samples, width)
    arrays = (data.features[..., :p], data.labels, data.test_features[..., :p], data.test_labels)
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays)
    assert got == digests
    if kind != "quadratic":
        assert (data.features[..., p] == 1.0).all()
        assert (data.test_features[..., p] == 1.0).all()


def test_low_concentration_skews_labels():
    skewed = generate_federated_data(
        TaskSpec(kind="logistic", features=4, classes=10, samples_per_client=100,
                 concentration=0.1), 20, seed=3)
    iid = generate_federated_data(
        TaskSpec(kind="logistic", features=4, classes=10, samples_per_client=100,
                 concentration=100.0), 20, seed=3)
    def dominant(data):
        return np.mean([np.bincount(y, minlength=10).max() / 100 for y in data.labels])
    assert dominant(skewed) > 0.5
    assert dominant(iid) < 0.25


def test_test_set_is_label_balanced():
    data = generate_federated_data(
        TaskSpec(kind="logistic", features=4, classes=5, test_samples=1000), 3, seed=1)
    counts = np.bincount(data.test_labels, minlength=5)
    assert counts.tolist() == [200] * 5


def test_quadratic_concentration_controls_client_drift():
    def spread(conc):
        spec = TaskSpec(kind="quadratic", features=6, samples_per_client=60,
                        concentration=conc)
        data = generate_federated_data(spec, 6, seed=5)
        opts = [np.linalg.solve(X.T @ X, X.T @ y) for X, y in zip(data.features, data.labels)]
        return np.std(np.stack(opts), axis=0).mean()
    assert spread(0.25) > 3 * spread(100.0)


def test_local_update_full_batch_single_epoch_is_one_gradient_step():
    _, data, task = build("quadratic", features=6, samples_per_client=30)
    w = np.ones(task.dim)
    X, y = data.features[0], data.labels[0]
    got = train_one(task, w, X, y, lr=0.05, epochs=1, batch_size=10**6,
                    rng=np.random.default_rng(0))
    want = w - 0.05 * task.grad(w, X, y)
    np.testing.assert_array_equal(got, want)


def test_local_update_zero_lr_is_identity_and_does_not_mutate():
    _, data, task = build("logistic", features=5, classes=3, samples_per_client=20)
    w = np.full(task.dim, 0.25)
    stack = np.stack([w, 2 * w])
    got = local_update(task, stack, data.features[:2], data.labels[:2], lr=0.0, epochs=3,
                       batch_size=4, rngs=[np.random.default_rng(0), np.random.default_rng(1)])
    assert got is stack  # trained in place
    assert stack.tobytes() == np.stack([w, 2 * w]).tobytes()


def test_training_and_evaluation_temporaries_stay_below_two_design_stacks():
    # logistic at desk scale: a step gathers one (n, b, p+1) minibatch
    # stack and an evaluation reads the (N, p+1) held-out design rows in
    # place; a second copy of either (rebuilding the bias column, say)
    # pushes the peak past 1.75 of them
    spec = TaskSpec(kind="logistic", features=127, classes=10, samples_per_client=200)
    n, b = 20, 64
    data = generate_federated_data(spec, n, seed=3)
    task = make_task(spec, data)
    models = np.random.default_rng(0).normal(0, 0.01, (n, task.dim))
    rngs = [np.random.default_rng(i) for i in range(n)]

    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    train = peak_bytes(lambda: local_update(task, models, data.features, data.labels,
                                            0.05, 3, b, rngs))
    assert train < 1.75 * n * b * (spec.features + 1) * 8
    scored = peak_bytes(lambda: held_out_error(task, models[:16], data.test_features,
                                               data.test_labels))
    assert scored < 1.75 * spec.test_samples * (spec.features + 1) * 8

    # 48 wide models: all their class scores at once take 7.3 MiB, so
    # evaluation scores them in blocks that stay within the block budget
    wide = TaskSpec(kind="logistic", dim=100_000)
    data = generate_federated_data(wide, 4, seed=3)
    task = make_task(wide, data)
    models = np.random.default_rng(1).normal(0, 0.01, (48, task.dim))
    scored = peak_bytes(lambda: held_out_error(task, models, data.test_features,
                                               data.test_labels))
    assert scored < EVAL_BLOCK_BYTES + data.test_features.nbytes

    # tiny-mlp at h = 16, C = 10: a block peaks at eval_width = h + 1 + C
    # values per model and sample (its activations beside its scores); a
    # tanh output held beside its bias-augmented copy would need 2h + 1
    mlp = TaskSpec(kind="tiny-mlp", hidden=16, classes=10)
    data = generate_federated_data(mlp, 4, seed=3)
    task = make_task(mlp, data)
    assert task.eval_width == 27
    models = np.random.default_rng(1).normal(0, 0.1, (48, task.dim))
    scored = peak_bytes(lambda: held_out_error(task, models, data.test_features,
                                               data.test_labels))
    block = learning._eval_block(task, mlp.test_samples)
    assert block == 9
    assert scored < block * mlp.test_samples * (task.eval_width + 1) * 8


def test_local_update_seed_determinism():
    _, data, task = build("logistic", features=5, classes=3, samples_per_client=40)
    w = np.zeros(task.dim)
    runs = [
        train_one(task, w, data.features[0], data.labels[0], lr=0.1, epochs=2, batch_size=8,
                  rng=np.random.default_rng(7))
        for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0], runs[1])
    other = train_one(task, w, data.features[0], data.labels[0], lr=0.1, epochs=2, batch_size=8,
                      rng=np.random.default_rng(8))
    assert not np.array_equal(runs[0], other)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_local_update_divergence_names_client():
    _, data, task = build("quadratic", features=6, samples_per_client=30)
    with pytest.raises(NumericalDivergenceError, match="client 0"):
        train_one(task, np.ones(task.dim), data.features[0], data.labels[0], lr=1e6, epochs=50,
                  batch_size=10**6, rng=np.random.default_rng(0))
    # clients 1 and 3 of a stack of four see 10^4 times larger features, so the
    # shared lr overshoots on their shards only; the lower id is named
    features = data.features.copy()
    features[[1, 3]] *= 1e4
    rngs = [np.random.default_rng(i) for i in range(4)]
    with pytest.raises(NumericalDivergenceError, match=r"^client 1 produced"):
        local_update(task, np.zeros((4, task.dim)), features, data.labels, lr=0.05,
                     epochs=50, batch_size=10**6, rngs=rngs)
    healthy = local_update(task, np.zeros((2, task.dim)), features[[0, 2]],
                           data.labels[[0, 2]], lr=0.05, epochs=50, batch_size=10**6,
                           rngs=rngs[:2])
    assert np.isfinite(healthy).all()


def test_local_update_validation():
    _, data, task = build("quadratic", features=4, samples_per_client=20)
    w = np.zeros(task.dim)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        train_one(task, w, data.features[0], data.labels[0], lr=-0.1, epochs=1, batch_size=4, rng=rng)
    with pytest.raises(ConfigurationError):
        train_one(task, w, data.features[0], data.labels[0], lr=0.1, epochs=0, batch_size=4, rng=rng)
    with pytest.raises(ConfigurationError):
        train_one(task, w, data.features[0], data.labels[0], lr=0.1, epochs=1, batch_size=0, rng=rng)


def test_logistic_trains_to_low_error_on_separable_blobs():
    spec = TaskSpec(kind="logistic", features=16, classes=4, samples_per_client=150,
                    concentration=100.0)
    data = generate_federated_data(spec, 1, seed=2)
    task = make_task(spec, data)
    w = task.init_model(np.random.default_rng(0))
    start = held_out_error(task, w, data.test_features, data.test_labels)
    for _ in range(8):
        w = train_one(task, w, data.features[0], data.labels[0], lr=0.2, epochs=1, batch_size=32,
                      rng=np.random.default_rng(1))
    end = held_out_error(task, w, data.test_features, data.test_labels)
    assert start > 0.5  # all-zero model guesses a fixed class
    assert end < 0.1


def test_tiny_mlp_init_breaks_symmetry_and_error_in_range():
    spec = TaskSpec(kind="tiny-mlp", features=6, classes=3, hidden=4, samples_per_client=30)
    data = generate_federated_data(spec, 2, seed=6)
    task = make_task(spec, data)
    w = task.init_model(np.random.default_rng(5))
    assert np.std(w[: task.active_dim]) > 0
    ter = held_out_error(task, w, data.test_features, data.test_labels)
    assert 0.0 <= ter <= 1.0


def argmax_error(logits, y):
    """Reference error fraction: a plain argmax over row-major (..., N, C)
    logits."""
    return np.mean(np.argmax(logits, axis=-1) != y, axis=-1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_class_major_error_fraction_is_argmax_on_ties_nan_and_inf():
    rng = np.random.default_rng(8)
    logits = rng.integers(-2, 3, size=(6, 400, 5)).astype(float)
    top2 = np.sort(logits, axis=-1)[..., -2:]
    assert (top2[..., 0] == top2[..., 1]).mean() > 0.2  # ties are common
    logits[0, :4, 2] = np.nan                  # a NaN before, at and after the label
    logits[1, 4] = np.nan
    logits[2, 5:9, [1, 3]] = np.inf
    logits[3, 9:13, [0, 4]] = -np.inf
    logits[4, 13] = -np.inf
    logits[5, 14:18] = [-0.0, 0.0, -0.0, 0.0, -1.0]
    y = rng.integers(0, 5, size=400)
    y[:4] = [0, 2, 3, 2]
    per_model = rng.integers(0, 5, size=(6, 400))
    scores = np.ascontiguousarray(logits.swapaxes(-1, -2))
    for labels in (y, per_model):
        want = argmax_error(logits, labels)
        assert _error_fraction(scores.copy(), labels).tobytes() == want.tobytes()
    want = argmax_error(logits[0], y)
    assert _error_fraction(scores[0].copy(), y).tobytes() == want.tobytes()


def test_logistic_error_rate_is_argmax_on_integer_models_and_features():
    # integer weights and features give exact scores with many ties, so
    # argmax's first-index rule decides a large share of the samples
    spec = TaskSpec(kind="logistic", features=3, classes=4, dim=20)
    task = LogisticTask(spec)
    rng = np.random.default_rng(9)
    models = rng.integers(-1, 2, size=(5, task.dim)).astype(float)
    W = models[:, : task.active_dim].reshape(5, 4, 4)

    def design(*shape):
        X = rng.integers(-1, 2, size=(*shape, 4)).astype(float)
        X[..., -1] = 1.0
        return X

    X, y = design(300), rng.integers(0, 4, size=300)
    want = argmax_error(X @ W.swapaxes(-1, -2), y)
    assert held_out_error(task, models, X, y).tobytes() == want.tobytes()
    assert held_out_error(task, models[2], X, y).tobytes() == want[2].tobytes()
    Xs, ys = design(5, 300), rng.integers(0, 4, size=(5, 300))
    want = argmax_error(Xs @ W.swapaxes(-1, -2), ys)
    assert held_out_error(task, models, Xs, ys).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "tiny-mlp"])
@pytest.mark.parametrize("count", [1, 3, 4])   # one model, one block, one block plus 1
def test_blocked_scores_are_bitwise_one_call(monkeypatch, kind, count):
    _, data, task = build(kind, features=5, classes=3, hidden=4, samples_per_client=24,
                          test_samples=50, dim=120)
    models = np.random.default_rng(11).normal(0, 0.5, (count, task.dim))
    sets = [(data.test_features, data.test_labels)]
    if kind != "quadratic":  # the quadratic metric has no per-client score
        sets.append((data.features[:count], data.labels[:count]))
    for X, y in sets:
        # a budget of three models per block at this set's sample count
        per_model = 8 * task.eval_width * y.shape[-1]
        monkeypatch.setattr(learning, "EVAL_BLOCK_BYTES", 3 * per_model + per_model // 2)
        got = held_out_error(task, models, X, y)
        assert got.shape == (count,)
        assert got.tobytes() == task.error_rate(models, X, y).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_column_max_softmax_is_bitwise_the_row_max_expression():
    special = [[-0.0, 0.0, -1.0], [0.0, -0.0, -3.0], [-0.0, -0.0, -0.0], [0.0, 2.0, -0.0],
               [np.inf, 1.0, 2.0], [np.inf, np.inf, 0.0], [-np.inf, 0.0, 1.0],
               [-np.inf, -np.inf, -np.inf], [np.nan, 1.0, 0.0], [1.0, 2.0, np.nan]]
    rng = np.random.default_rng(10)
    logits = np.concatenate([special, rng.normal(size=(22, 3))]).reshape(2, 16, 3)
    y = rng.integers(0, 3, size=(2, 16))
    want = logits - logits.max(axis=-1, keepdims=True)
    want = np.exp(want)
    want /= want.sum(axis=-1, keepdims=True)
    want[(*np.indices(y.shape, sparse=True), y)] -= 1.0
    assert _softmax_minus_one_hot(logits.copy(), y).tobytes() == want.tobytes()


def test_error_rate_rejects_empty_test_set():
    _, data, task = build("logistic", features=4, classes=3)
    with pytest.raises(ConfigurationError):
        held_out_error(task, np.zeros(task.dim), data.test_features[:0], data.test_labels[:0])


def test_task_spec_validation():
    for bad in (
        dict(kind="conv-net"),
        dict(features=0),
        dict(kind="logistic", classes=1),
        dict(kind="tiny-mlp", hidden=65),
        dict(samples_per_client=0),
        dict(concentration=0.0),
        dict(noise=-1.0),
    ):
        with pytest.raises(ConfigurationError):
            TaskSpec(**bad)


def test_quadratic_satisfies_polyak_lojasiewicz_exactly():
    # ||grad F(w)||^2 >= 2 mu (F(w) - F(w*)) for every w, by the spectrum
    spec = TaskSpec(kind="quadratic", features=12, samples_per_client=60)
    data = generate_federated_data(spec, 5, seed=9)
    task = make_task(spec, data)
    rng = np.random.default_rng(31)
    for _ in range(20):
        w = rng.normal(scale=rng.uniform(0.1, 10.0), size=task.dim)
        grad = np.mean(
            [task.grad(w, X, y) for X, y in zip(data.features, data.labels)], axis=0
        )
        lhs = float(grad @ grad)
        rhs = 2.0 * task.mu * (task.global_loss(w) - task.optimal_loss)
        assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def test_minibatch_gradient_variance_scales_inversely_with_batch():
    spec = TaskSpec(kind="quadratic", features=10, samples_per_client=400)
    data = generate_federated_data(spec, 1, seed=13)
    task = make_task(spec, data)
    X, y = data.features[0], data.labels[0]
    rng = np.random.default_rng(17)
    w = rng.normal(size=task.dim)
    full = task.grad(w, X, y)

    def variance(batch):
        sq = 0.0
        for _ in range(400):
            idx = rng.permutation(len(y))[:batch]
            g = task.grad(w, X[idx], y[idx])
            sq += float(np.sum((g - full) ** 2))
        return sq / 400

    v5, v20, v80 = variance(5), variance(20), variance(80)
    assert np.isfinite([v5, v20, v80]).all()
    assert v5 > v20 > v80 > 0
    # 4x batch growth shrinks variance ~4x (finite-population drag aside)
    assert 3.0 < v5 / v20 < 5.5
    assert 3.0 < v20 / v80 < 5.5
