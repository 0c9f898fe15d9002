"""Transmission attacks and their sketch behavior."""
from dataclasses import replace

import numpy as np
import pytest

import sketchdfl.attacks as attacks
import sketchdfl.engine as engine
from sketchdfl.aggregation import AggregatorSpec
from sketchdfl.attacks import (
    AttackSpec,
    apply_attack,
    attacker_message,
    colluding_vector,
    round_start_mean,
)
from sketchdfl.engine import SimConfig, run_simulation
from sketchdfl.errors import ConfigurationError
from sketchdfl.learning import TaskSpec
from sketchdfl.sketch import SketchParams, compute_sketch, verify_model_against_sketch
from sketchdfl.topology import TopologySpec


def honest_models(rng, m, dim):
    """m models whose magnitudes span 16 decades, so summation order shows."""
    return [rng.normal(size=dim) * 10.0 ** rng.uniform(-8, 8, size=dim) for _ in range(m)]


def honest_rows(dim, m):
    """(trained, round-start) rows of m honest nodes."""
    rng = np.random.default_rng(0)
    return honest_models(rng, m, dim), honest_models(rng, m, dim)


def colluding(dim=20, m=4, lam=2.0):
    spec = AttackSpec(kind="directed-deviation", lam=lam)
    trained, start = honest_rows(dim, m)
    return colluding_vector(spec, trained, round_start_mean(spec, start))


class Sealed:
    """A colluding vector that must never be read: numpy reading it as
    an array, or anything reading an attribute of it, raises."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("colluding vector was read")

    def __getattr__(self, name):
        raise AssertionError(f"colluding vector's {name} was read")


def test_none_attack_returns_input_unchanged():
    w = np.arange(8.0)
    out = apply_attack(AttackSpec(kind="none"), w, None, np.random.default_rng(0))
    np.testing.assert_array_equal(out, w)


def test_gaussian_attack_adds_seeded_noise():
    w = np.zeros(500)
    spec = AttackSpec(kind="gaussian", sigma=2.0)
    a = apply_attack(spec, w, None, np.random.default_rng(42))
    b = apply_attack(spec, w, None, np.random.default_rng(42))
    c = apply_attack(spec, w, None, np.random.default_rng(43))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(a.std() - 2.0) < 0.3
    assert abs(a.mean()) < 0.3


@pytest.mark.parametrize("sigma", [1.0, 0.3])
def test_gaussian_attack_is_bitwise_honest_plus_scaled_noise(sigma):
    rng = np.random.default_rng(7)
    w = rng.normal(size=5_000) * 10.0 ** rng.uniform(-8, 8, size=5_000)
    before = w.copy()
    got = apply_attack(AttackSpec(kind="gaussian", sigma=sigma), w, None,
                       np.random.default_rng(8))
    want = w + sigma * np.random.default_rng(8).standard_normal(w.shape)
    assert got.tobytes() == want.tobytes()
    assert w.tobytes() == before.tobytes()


@pytest.mark.parametrize("spec", [AttackSpec(kind="gaussian", sigma=1.0),
                                  AttackSpec(kind="gaussian", sigma=0.3),
                                  AttackSpec(kind="directed-deviation", lam=0.7)],
                         ids=["gaussian-1.0", "gaussian-0.3", "directed-deviation"])
def test_attack_into_out_row_is_bitwise_the_allocating_call(spec):
    # the engine writes each attacker's transmission into its row of the
    # stack that settlement writes
    rng = np.random.default_rng(9)
    w = rng.normal(size=5_000) * 10.0 ** rng.uniform(-8, 8, size=5_000)
    before = w.copy()
    c = colluding(5_000, lam=spec.lam) if spec.kind == "directed-deviation" else None
    want = apply_attack(spec, w, c, np.random.default_rng(4))
    stack = np.full((3, 5_000), np.nan)
    got = apply_attack(spec, w, c, np.random.default_rng(4), out=stack[1])
    assert np.shares_memory(got, stack[1]) and got.shape == (5_000,)
    assert got.tobytes() == stack[1].tobytes() == want.tobytes()
    assert np.isnan(stack[[0, 2]]).all()
    assert w.tobytes() == before.tobytes()


def test_none_attack_writes_nothing_into_out():
    w, out = np.arange(8.0), np.full(8, np.nan)
    assert apply_attack(AttackSpec(kind="none"), w, None, np.random.default_rng(0),
                        out=out) is w
    assert np.isnan(out).all()


def test_gaussian_attackers_are_independent():
    w = np.zeros(100)
    spec = AttackSpec(kind="gaussian", sigma=1.0)
    one = apply_attack(spec, w, None, np.random.default_rng(1))
    two = apply_attack(spec, w, None, np.random.default_rng(2))
    assert not np.array_equal(one, two)


def test_directed_deviation_formula_and_collusion():
    trained, start = honest_rows(30, 4)
    mean_now, mean_start = np.mean(trained, axis=0), np.mean(start, axis=0)
    c = colluding(30, lam=2.5)
    spec = AttackSpec(kind="directed-deviation", lam=2.5)
    honest_a = np.random.default_rng(5).normal(size=30)
    honest_b = np.random.default_rng(6).normal(size=30)
    out_a = apply_attack(spec, honest_a, c, np.random.default_rng(1))
    out_b = apply_attack(spec, honest_b, c, np.random.default_rng(2))
    want = mean_now - 2.5 * np.sign(mean_now - mean_start)
    np.testing.assert_array_equal(out_a, want)
    np.testing.assert_array_equal(out_a, out_b)  # colluding: same vector for all
    assert not np.shares_memory(out_a, c)  # each attacker sends its own copy


@pytest.mark.parametrize("m, dim", [(3, 5), (14, 1280), (12, 20_000)])
def test_directed_deviation_matches_stacked_mean_bitwise(m, dim):
    trained, start = honest_rows(dim, m)
    spec = AttackSpec(kind="directed-deviation", lam=0.3)
    c = colluding_vector(spec, trained, round_start_mean(spec, start))
    out = apply_attack(spec, np.zeros(dim), c, np.random.default_rng(0))
    mean_now = np.stack(trained).mean(axis=0)
    direction = mean_now - np.stack(start).mean(axis=0)
    want = mean_now - 0.3 * np.sign(direction)
    assert c.tobytes() == want.tobytes()
    assert out.tobytes() == want.tobytes()
    with pytest.raises(ValueError):  # read-only: attackers can only copy it
        c[0] = 0.0


class Unreadable(list):
    """Rows that must never be read."""

    def __iter__(self):
        raise AssertionError("round-start rows were read")

    def __getitem__(self, index):
        raise AssertionError("round-start rows were read")


@pytest.mark.parametrize("m, dim", [(3, 5), (14, 1280)])
def test_round_start_mean_is_read_only_by_directed_deviation(m, dim):
    trained, start = honest_rows(dim, m)
    for kind in ("none", "gaussian"):
        assert round_start_mean(AttackSpec(kind=kind), Unreadable(start)) is None
        assert colluding_vector(AttackSpec(kind=kind), Unreadable(trained), None) is None
    got = round_start_mean(AttackSpec(kind="directed-deviation"), start)
    assert got.tobytes() == np.stack(start).mean(axis=0).tobytes()


@pytest.mark.parametrize("kind", ["none", "gaussian"])
def test_independent_attacks_never_read_collusion_state(kind):
    w = np.arange(20.0)
    apply_attack(AttackSpec(kind=kind), w, Sealed(), np.random.default_rng(0))


def test_engine_builds_collusion_state_only_for_directed_deviation(monkeypatch):
    # one round-start mean, one trained mean and one read-only colluding
    # vector a round, all taken before any attacker runs, and every
    # attacker of the round handed that same vector, however many threads
    # run the attackers; other attacks take no mean and are handed None
    events, vectors = [], []
    mean, build, attack = attacks._mean, engine.colluding_vector, engine.apply_attack

    def counted(rows):
        events.append(("mean", len(rows)))
        return mean(rows)

    def built(*args):
        vectors.append(build(*args))
        events.append("build")
        return vectors[-1]

    def attacked(spec, update, colluding, *args, **kwargs):
        events.append(("attack", colluding is vectors[-1]))
        return attack(spec, update, colluding, *args, **kwargs)

    monkeypatch.setattr(attacks, "_mean", counted)
    monkeypatch.setattr(engine, "colluding_vector", built)
    monkeypatch.setattr(engine, "apply_attack", attacked)
    config = SimConfig(
        task=TaskSpec(kind="quadratic", features=8, samples_per_client=16, test_samples=16),
        topology=TopologySpec(kind="full"),
        aggregator=AggregatorSpec(kind="dfedavg"),
        attack=AttackSpec(kind="gaussian"),
        n_nodes=5,
        byz_fraction=0.4,
        rounds=2,
        local_epochs=1,
        batch_size=8,
    )
    attackers = [("attack", True)] * 2  # 3 honest and 2 Byzantine nodes
    for threads in (1, 2):
        events.clear()
        vectors.clear()
        run_simulation(replace(config, threads=threads))
        assert events == ["build", *attackers] * config.rounds
        assert vectors == [None] * config.rounds
        events.clear()
        vectors.clear()
        run_simulation(replace(config, threads=threads,
                               attack=AttackSpec(kind="directed-deviation")))
        assert events == [("mean", 3), ("mean", 3), "build", *attackers] * config.rounds
        assert not any(v.flags.writeable for v in vectors)


def test_attack_spec_validation():
    with pytest.raises(ConfigurationError):
        AttackSpec(kind="label-flip")
    with pytest.raises(ConfigurationError):
        AttackSpec(kind="gaussian", sigma=0.0)
    with pytest.raises(ConfigurationError):
        AttackSpec(kind="directed-deviation", lam=-1.0)


def test_consistent_sketch_survives_verification():
    params = SketchParams(dim=200, width=64, seed=11)
    rng = np.random.default_rng(11)
    pre = rng.normal(size=200)
    sent = pre + 5.0
    sk = attacker_message(
        AttackSpec(kind="gaussian", consistent_sketch=True), params, sent,
        compute_sketch(params, pre))
    assert verify_model_against_sketch(params, sent, sk)


def test_inconsistent_sketch_is_caught_by_verification():
    params = SketchParams(dim=200, width=64, seed=11)
    rng = np.random.default_rng(12)
    pre = rng.normal(size=200)
    sent = pre + 5.0
    own = compute_sketch(params, pre)
    sk = attacker_message(
        AttackSpec(kind="gaussian", consistent_sketch=False), params, sent, own)
    assert sk is own  # advertises the innocent model's sketch, folded once
    assert verify_model_against_sketch(params, pre, sk)
    assert not verify_model_against_sketch(params, sent, sk)
