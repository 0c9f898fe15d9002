"""Transmission attacks and their sketch behavior."""
from dataclasses import replace

import numpy as np
import pytest

import sketchdfl.engine as engine
from sketchdfl.aggregation import AggregatorSpec
from sketchdfl.attacks import AttackContext, AttackSpec, apply_attack, attacker_message
from sketchdfl.engine import SimConfig, run_simulation
from sketchdfl.errors import ConfigurationError
from sketchdfl.learning import TaskSpec
from sketchdfl.sketch import SketchParams, compute_sketch, verify_model_against_sketch
from sketchdfl.topology import TopologySpec


def honest_models(rng, m, dim):
    """m models whose magnitudes span 16 decades, so summation order shows."""
    return [rng.normal(size=dim) * 10.0 ** rng.uniform(-8, 8, size=dim) for _ in range(m)]


def ctx(dim=20, m=4, cls=AttackContext):
    rng = np.random.default_rng(0)
    return cls(honest_models(rng, m, dim), honest_models(rng, m, dim))


class Sealed(AttackContext):
    """A context whose collusion statistics must never be read."""

    @property
    def honest_mean(self):
        raise AssertionError("honest_mean was read")

    @property
    def honest_direction(self):
        raise AssertionError("honest_direction was read")


def test_none_attack_returns_input_unchanged():
    w = np.arange(8.0)
    out = apply_attack(AttackSpec(kind="none"), w, ctx(8), np.random.default_rng(0))
    np.testing.assert_array_equal(out, w)


def test_gaussian_attack_adds_seeded_noise():
    w = np.zeros(500)
    spec = AttackSpec(kind="gaussian", sigma=2.0)
    a = apply_attack(spec, w, ctx(500), np.random.default_rng(42))
    b = apply_attack(spec, w, ctx(500), np.random.default_rng(42))
    c = apply_attack(spec, w, ctx(500), np.random.default_rng(43))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(a.std() - 2.0) < 0.3
    assert abs(a.mean()) < 0.3


@pytest.mark.parametrize("sigma", [1.0, 0.3])
def test_gaussian_attack_is_bitwise_honest_plus_scaled_noise(sigma):
    rng = np.random.default_rng(7)
    w = rng.normal(size=5_000) * 10.0 ** rng.uniform(-8, 8, size=5_000)
    before = w.copy()
    got = apply_attack(AttackSpec(kind="gaussian", sigma=sigma), w, ctx(5_000),
                       np.random.default_rng(8))
    want = w + sigma * np.random.default_rng(8).standard_normal(w.shape)
    assert got.tobytes() == want.tobytes()
    assert w.tobytes() == before.tobytes()


def test_gaussian_attackers_are_independent():
    w = np.zeros(100)
    spec = AttackSpec(kind="gaussian", sigma=1.0)
    one = apply_attack(spec, w, ctx(100), np.random.default_rng(1))
    two = apply_attack(spec, w, ctx(100), np.random.default_rng(2))
    assert not np.array_equal(one, two)


def test_directed_deviation_formula_and_collusion():
    c = ctx(30)
    spec = AttackSpec(kind="directed-deviation", lam=2.5)
    honest_a = np.random.default_rng(5).normal(size=30)
    honest_b = np.random.default_rng(6).normal(size=30)
    out_a = apply_attack(spec, honest_a, c, np.random.default_rng(1))
    out_b = apply_attack(spec, honest_b, c, np.random.default_rng(2))
    want = c.honest_mean - 2.5 * np.sign(c.honest_direction)
    np.testing.assert_array_equal(out_a, want)
    np.testing.assert_array_equal(out_a, out_b)  # colluding: same vector for all


@pytest.mark.parametrize("m, dim", [(3, 5), (14, 1280), (12, 20_000)])
def test_directed_deviation_matches_stacked_mean_bitwise(m, dim):
    c = ctx(dim, m)
    spec = AttackSpec(kind="directed-deviation", lam=0.3)
    out = apply_attack(spec, np.zeros(dim), c, np.random.default_rng(0))
    mean_now = np.stack(c.trained).mean(axis=0)
    direction = mean_now - np.stack(c.previous).mean(axis=0)
    want = mean_now - 0.3 * np.sign(direction)
    assert out.tobytes() == want.tobytes()
    assert c.honest_mean is c.honest_mean  # computed once, then shared by all attackers


@pytest.mark.parametrize("kind", ["none", "gaussian"])
def test_independent_attacks_never_read_collusion_state(kind):
    w = np.arange(20.0)
    apply_attack(AttackSpec(kind=kind), w, ctx(cls=Sealed), np.random.default_rng(0))


def test_engine_builds_collusion_state_only_for_directed_deviation(monkeypatch):
    monkeypatch.setattr(engine, "AttackContext", Sealed)
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
    run_simulation(config)
    with pytest.raises(AssertionError, match="honest_mean was read"):
        run_simulation(replace(config, attack=AttackSpec(kind="directed-deviation")))


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
