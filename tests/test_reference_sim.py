"""The engine against `reference_sim`, README's Protocol one receiver at a
time: every CSV byte, every `agg_ops_mean` and every final model byte.

The grid draws the aggregator, attack, topology, task and thread count;
the explicit examples pin the cases that must run whatever is drawn: a
stale-sketch gaussian sketchfilter run, whose attackers only download
verification catches, and the overflow configs of test_engine.py, whose
sigma = 1e308 draws overflow to +-inf.
"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_sim
from sketchdfl.aggregation import AGGREGATOR_KINDS, AggregatorSpec
from sketchdfl.attacks import ATTACK_KINDS, AttackSpec
from sketchdfl.engine import Seeds, SimConfig, metrics_rows, run_simulation
from sketchdfl.io import metrics_csv_text
from sketchdfl.learning import TASK_KINDS, TaskSpec
from sketchdfl.topology import TopologySpec
from test_engine import _overflow_config

STALE_GAUSSIAN = SimConfig(
    task=TaskSpec(kind="logistic", features=6, classes=3, samples_per_client=24,
                  test_samples=60, concentration=0.3),
    topology=TopologySpec(kind="k-regular", degree=4),
    aggregator=AggregatorSpec(kind="sketchfilter", sketch_size=8, gamma=1.0, kappa=2.0),
    attack=AttackSpec(kind="gaussian", sigma=1.0, consistent_sketch=False),
    n_nodes=10,
    byz_fraction=0.3,
    rounds=4,
    local_epochs=1,
    lr=0.2,
    batch_size=8,
)


@st.composite
def configs(draw) -> SimConfig:
    n = draw(st.integers(3, 16))
    task = draw(st.sampled_from(TASK_KINDS))
    topology = TopologySpec(kind=draw(st.sampled_from(["ring", "erdos-renyi", "k-regular"])),
                            p=draw(st.sampled_from([0.3, 0.6])),
                            degree=draw(st.integers(1, n - 1)))
    seed = draw(st.integers(0, 2**16))
    return SimConfig(
        task=TaskSpec(kind=task, features=draw(st.integers(2, 5)), classes=draw(st.integers(2, 4)),
                      hidden=3, samples_per_client=draw(st.integers(6, 20)), test_samples=30,
                      concentration=draw(st.sampled_from([0.3, 2.0])),
                      dim=draw(st.sampled_from([0, 72]))),
        topology=topology,
        aggregator=AggregatorSpec(
            kind=draw(st.sampled_from(AGGREGATOR_KINDS)),
            gamma=draw(st.floats(0.05, 3.0)),
            kappa=draw(st.floats(0.0, 3.0)),
            alpha=draw(st.floats(0.0, 1.0)),
            sketch_size=draw(st.sampled_from([0, 3, 8])),
        ),
        attack=AttackSpec(kind=draw(st.sampled_from(ATTACK_KINDS)),
                          sigma=draw(st.sampled_from([0.3, 3.0])),
                          lam=draw(st.sampled_from([0.1, 2.0])),
                          consistent_sketch=draw(st.booleans())),
        n_nodes=n,
        byz_fraction=draw(st.sampled_from([0.0, 0.2, 0.3, 0.45])),
        rounds=draw(st.integers(1, 3)),
        local_epochs=1,
        lr=draw(st.sampled_from([0.05, 0.3])),
        batch_size=8,
        threads=draw(st.sampled_from([1, 3])),
        verification=draw(st.booleans()),
        per_client_eval=task != "quadratic" and draw(st.booleans()),
        seeds=Seeds(data=seed, topology=seed + 1, byzantine=seed + 2, training=seed + 3,
                    attack=seed + 4, sketch=seed + 5),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # narrow sketches, disconnected honest
@settings(max_examples=300)
@given(configs())
@example(STALE_GAUSSIAN)
@example(_overflow_config("sketchfilter", TopologySpec(kind="ring"), 0.25, 3))
@example(_overflow_config("balance", TopologySpec(kind="k-regular", degree=4), 0.4, 1))
@example(_overflow_config("krum", TopologySpec(kind="k-regular", degree=4), 0.25, 1))
def test_engine_matches_the_per_receiver_reference(config):
    try:
        result = run_simulation(config)
    except Exception as err:  # the reference must refuse the config the same way
        with pytest.raises(type(err)):
            reference_sim.simulate(config)
        return
    expected = reference_sim.simulate(config)
    frac = config.byz_fraction
    assert (metrics_csv_text(metrics_rows("oracle", 0, frac, result.metrics))
            == metrics_csv_text([("oracle", 0, frac, *row) for row in expected.rows]))
    assert [m.agg_ops_mean for m in result.metrics] == expected.agg_ops_mean
    assert result.final_models.tobytes() == expected.final_models.tobytes()
