"""Tasks, data generation, and local training.

Gradients are checked against central finite differences computed here,
independent of the analytic implementations.
"""
import numpy as np
import pytest

from sketchdfl.errors import ConfigurationError, NumericalDivergenceError
from sketchdfl.learning import (
    TaskSpec,
    generate_federated_data,
    local_update,
    make_task,
)
from sketchdfl.learning import test_error_rate as held_out_error  # dodge collection


def train_one(task, w, X, y, lr, epochs, batch_size, rng):
    """local_update on a stack of one shard."""
    return local_update(task, w[None], X[None], y[None], lr, epochs, batch_size, [rng])[0]


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
    np.testing.assert_array_equal(got, stack)
    np.testing.assert_array_equal(stack, np.stack([w, 2 * w]))
    assert got is not stack
    # a broadcast start (every node at one init) still trains into C-ordered
    # rows, which the per-row sketch and mixing kernels downstream rely on
    shared = local_update(task, np.broadcast_to(w, (2, task.dim)), data.features[:2],
                          data.labels[:2], lr=0.1, epochs=1, batch_size=4,
                          rngs=[np.random.default_rng(0), np.random.default_rng(1)])
    assert shared.flags.c_contiguous


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "tiny-mlp"])
def test_local_update_into_out_is_bitwise_the_allocating_call(kind):
    _, data, task = build(kind, features=5, classes=3, hidden=4, samples_per_client=24, dim=200)
    rng = np.random.default_rng(3)
    dense, shared = rng.normal(size=(4, task.dim)), rng.normal(size=task.dim)
    for models in (dense, np.broadcast_to(shared, (4, task.dim))):
        before = models.tobytes()
        args = (task, models, data.features, data.labels, 0.05, 2, 8)
        want = local_update(*args, [np.random.default_rng(i) for i in range(4)])
        buf = np.full((4, task.dim), np.nan)
        got = local_update(*args, [np.random.default_rng(i) for i in range(4)], out=buf)
        assert got is buf
        assert got.tobytes() == want.tobytes()
        assert models.tobytes() == before


def test_local_update_rejects_out_sharing_memory_with_models():
    _, data, task = build("logistic", features=5, classes=3, samples_per_client=20)
    models = np.zeros((3, task.dim))
    args = (task, models, data.features[:3], data.labels[:3], 0.1, 1, 4,
            [np.random.default_rng(i) for i in range(3)])
    for out in (models, models[::-1], np.broadcast_to(models, (3, task.dim))):
        with pytest.raises(ConfigurationError, match="share memory"):
            local_update(*args, out=out)
    np.testing.assert_array_equal(models, 0.0)


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
