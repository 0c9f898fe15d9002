"""Pinned output digests: a refactor of the round loop must not move a byte.

Each case runs a small simulation and hashes three things with SHA-256:
the metrics-CSV bytes, `final_models.tobytes()`, and the newline-joined
`repr` of every round's `agg_ops_mean` (which the CSV does not carry).
The cases cover every aggregator on the logistic task, one quadratic and
one tiny-mlp case, per-client evaluation, and Krum on two nodes.
The digests were taken with numpy 2.4.6 on x86-64; another numpy or BLAS
build may round differently and need them re-taken from a known-good tree.
The thresholds are tight enough that the sketch and balance cases see
partial acceptance, fallbacks and, under attack, verification failures.
"""
import hashlib

import pytest

from sketchdfl.aggregation import AggregatorSpec
from sketchdfl.attacks import AttackSpec
from sketchdfl.engine import SimConfig, metrics_rows, run_simulation
from sketchdfl.io import metrics_csv_text
from sketchdfl.learning import TaskSpec
from sketchdfl.topology import TopologySpec


def golden_config(kind: str, attacked: bool, **overrides) -> SimConfig:
    base = dict(
        task=TaskSpec(kind="logistic", features=6, classes=3, samples_per_client=24,
                      test_samples=60, concentration=0.3),
        topology=TopologySpec(kind="k-regular", degree=4),
        aggregator=AggregatorSpec(kind=kind, sketch_size=8, gamma=1.0, kappa=2.0),
        attack=(AttackSpec(kind="gaussian", sigma=1.0, consistent_sketch=False)
                if attacked else AttackSpec()),
        n_nodes=10,
        byz_fraction=0.3 if attacked else 0.0,
        rounds=4,
        local_epochs=1,
        lr=0.2,
        batch_size=8,
    )
    base.update(overrides)
    return SimConfig(**base)


DIRECTED = AttackSpec(kind="directed-deviation", lam=0.5)
# the other two tasks, each padded past its natural size, with a remainder
# minibatch (30 samples in batches of 8); tiny-mlp also takes two epochs
QUADRATIC = TaskSpec(kind="quadratic", features=6, samples_per_client=30, test_samples=60,
                     concentration=0.5, dim=16)
TINY_MLP = TaskSpec(kind="tiny-mlp", features=6, classes=3, hidden=4, samples_per_client=30,
                    test_samples=60, concentration=0.3, dim=60)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CASES = {
    "sketchfilter-clean": (golden_config("sketchfilter", False), (
        "d637ef1315bf4c812dd1357aeedfb52b5679be8c41ac20ffff81d85961625d22",
        "3d5ed8f1399a405cbabcf4d91c09b9fc26639d89caa9736efd74a479e2d5e5a3",
        "e2728213b925fb4842ca0d307880f3a8be83c791548a8ec33ba5f6e7ad8a44a0",
    )),
    "sketchfilter-gaussian": (golden_config("sketchfilter", True), (
        "a246550f2f7b1a4147abcd0d906f02bab8cdad44d22f44b778042cb3f6ad74d0",
        "6ddf94fabd3a1c4557c1bacc681cb59d56118977a399cdb2af1629e07b18fe8d",
        "287456a0b08c09ea3c71d55ba379a39dad8991c8e0108797f29098d9cde0efac",
    )),
    "balance-clean": (golden_config("balance", False), (
        "3f9d828dbca240706d6fc08938754f5c20f84982bf49bb2f1f1da8a0981fec03",
        "a769964a7fb46aa4bc0182ec0f309081c03d09ea9f8d4d3b1c77cef716c909cd",
        "df5d2c1589f59d63a7b843cc638ea10630c08ccd05eb4d6646c1ecadb9d64af4",
    )),
    "balance-gaussian": (golden_config("balance", True), (
        "fec5650ec51b809b8d034ba3bd98ac71b4e29b58c847cb9c00614327ee9d7664",
        "d0e484faff9279bd46160efb7bdd0d04d3c189496792cf486d0b00fa6c9c5e16",
        "42e18dc56de812dccffee5e21c25db915b40fe547474f270d28d4b1c578c37c7",
    )),
    "dfedavg-clean": (golden_config("dfedavg", False), (
        "b695d8671df90066764737a61b8fd58849d8c319fed4b3299347126aba1bb4ff",
        "02ada3347cfc5d03b80fef1920beb4f8fde8b6e1d1e22b099b6d7e2fac14fea0",
        "b38ac5d8fc7667469162271f59ed4bd61cb41d19fe5ed986c46f6424fa7f1688",
    )),
    "dfedavg-gaussian": (golden_config("dfedavg", True), (
        "4f00ffcbf02c2c792e4266c736575eb7c93677454e4eddd1b8e70fcc02f8fd82",
        "65967ce35c24a5e40e86108ef8059fbc11a86607726a93beaf182f3360bf56c6",
        "b38ac5d8fc7667469162271f59ed4bd61cb41d19fe5ed986c46f6424fa7f1688",
    )),
    "krum-clean": (golden_config("krum", False), (
        "8a2be292677c33716fbd9847676531d3d000c5d4d4c1c95f33104eabba59e24a",
        "c2e5c760ed34631f8aa0ff6e1d2498ed338ba7b2f9f860192ee960d2805b1e7a",
        "843cab5822b63e0c0f387784bca082e4112bc4429897b20853d7d9a33976390d",
    )),
    "krum-gaussian": (golden_config("krum", True), (
        "c2a66d72c59a2081dff12abeef45975a8637b2db9582936ddace6306dea71a84",
        "a48710c1ff79e9fcce61d204ea4d4618458e374f47640cfcba233b65bcdca658",
        "843cab5822b63e0c0f387784bca082e4112bc4429897b20853d7d9a33976390d",
    )),
    "sketchfilter-gaussian-unverified": (golden_config("sketchfilter", True, verification=False), (
        "05ef08b16c57a92d75e3436dcdd3a3ef652058693b20db79a935ce606f0c6e25",
        "a91f4daca5198e1001f1df0ca89827bb7415b3c153e122b042ce2438cb8f07da",
        "5420185d07e46eaa0daebdaed85649e9e226c82f6448ed31acbd37721334d2f0",
    )),
    # directed-deviation: every attacker sends the honest mean minus lam times
    # the sign of the honest direction. Both filters reject it here (balance's
    # bytes equal "balance-gaussian"), while dfedavg mixes it into every
    # neighbor of an attacker, so its models carry the collusion vector's bits.
    "sketchfilter-directed": (golden_config("sketchfilter", True, attack=DIRECTED), (
        "9d7d1a91bc2596ec9788c000e304562b5fefc2a6e90695a630ee20ab7e22f872",
        "5a6ae9237c83ae952b1ace9dba0341fa785bc29a445569e7ff47b2eb335abd5f",
        "408eaa5726751a54e7f1738e2963a4a7e9ab6f528fbdd35ddfa2f48b03e041c3",
    )),
    "balance-directed": (golden_config("balance", True, attack=DIRECTED), (
        "fec5650ec51b809b8d034ba3bd98ac71b4e29b58c847cb9c00614327ee9d7664",
        "d0e484faff9279bd46160efb7bdd0d04d3c189496792cf486d0b00fa6c9c5e16",
        "42e18dc56de812dccffee5e21c25db915b40fe547474f270d28d4b1c578c37c7",
    )),
    "dfedavg-directed": (golden_config("dfedavg", True, attack=DIRECTED), (
        "f43b3e1c6ced09da0258781a4ac7dc9e50c26ef6ecfb5a2c2212ec95f458f5f8",
        "5eadcbb8cefcf086b00ec4dde2ee8e8a32791565409c42c3e10b66b9366bb35e",
        "b38ac5d8fc7667469162271f59ed4bd61cb41d19fe5ed986c46f6424fa7f1688",
    )),
    # same digests as "sketchfilter-gaussian": the thread budget changes nothing
    "sketchfilter-gaussian-threads2": (golden_config("sketchfilter", True, threads=2), (
        "a246550f2f7b1a4147abcd0d906f02bab8cdad44d22f44b778042cb3f6ad74d0",
        "6ddf94fabd3a1c4557c1bacc681cb59d56118977a399cdb2af1629e07b18fe8d",
        "287456a0b08c09ea3c71d55ba379a39dad8991c8e0108797f29098d9cde0efac",
    )),
    "quadratic-sketchfilter-gaussian": (
        golden_config("sketchfilter", True, task=QUADRATIC, lr=0.1), (
            "3a824f08a76b6e69d1435a59e6b81733eb0b71eed60083d87ebd8bc0188c5712",
            "5f5b33813ba9ab269f76c45be5dde265a0bd4ce9be756a1752dcc9adc8399bcc",
            "3fc0dd3251be222ca14ec356dc75f50bd7d65a5107e316b4543880f1fa6ad3d9",
        )),
    "tiny-mlp-balance-gaussian": (
        golden_config("balance", True, task=TINY_MLP, local_epochs=2), (
            "776a1a0645e21ec3ae5930d3e0a5cb3eb638b48d339642819367cfecc104313d",
            "8baade63cbd56f8d72534da289f4d4c3830515b262356ceb9256ec6f25b20f29",
            "84560b4a7a3c9ea8812a8d299dd40a5347ef4405875c7986d6885078c87e303f",
        )),
    # models and agg_ops as "sketchfilter-gaussian": only the scoring set moves
    "sketchfilter-gaussian-per-client-eval": (
        golden_config("sketchfilter", True, per_client_eval=True), (
            "99c054c0c41f4ebf230719d9625a69892ffbdb2e425562061e815049c0bc3235",
            "6ddf94fabd3a1c4557c1bacc681cb59d56118977a399cdb2af1629e07b18fe8d",
            "287456a0b08c09ea3c71d55ba379a39dad8991c8e0108797f29098d9cde0efac",
        )),
    # a pool of 2 models is below Krum's minimum of 3, so each node keeps its own
    "krum-two-nodes": (
        golden_config("krum", False, topology=TopologySpec(kind="full"), n_nodes=2), (
            "a63d181df683e412ce435d670b3924d95bb0b6cf293c05f1ab1ec0b82eb5e09a",
            "9693d3745e29dd1eca25da7d091c9e666b67be07cac61905b5cb44f352ef87b1",
            "843cab5822b63e0c0f387784bca082e4112bc4429897b20853d7d9a33976390d",
        )),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name):
    config, (csv_digest, models_digest, agg_ops_digest) = CASES[name]
    result = run_simulation(config, run_id="golden")
    rows = metrics_rows("golden", 0, config.byz_fraction, result.metrics)
    agg_ops = "\n".join(repr(m.agg_ops_mean) for m in result.metrics)
    assert sha(metrics_csv_text(rows).encode()) == csv_digest
    assert sha(result.final_models.tobytes()) == models_digest
    assert sha(agg_ops.encode()) == agg_ops_digest
