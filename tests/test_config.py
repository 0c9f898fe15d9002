"""INI config parsing, validation messages, and emission round-trips."""
import math
from dataclasses import replace
from pathlib import Path

import pytest

from sketchdfl.aggregation import AggregatorSpec
from sketchdfl.attacks import AttackSpec
from sketchdfl.config import _SCHEMA, _finite, emit_config, parse_config, parse_config_text
from sketchdfl.engine import Seeds, SimConfig
from sketchdfl.errors import ConfigurationError
from sketchdfl.learning import TaskSpec
from sketchdfl.topology import TopologySpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_empty_text_is_the_default_config():
    assert parse_config_text("") == SimConfig()


def test_partial_file_overrides_only_named_keys():
    cfg = parse_config_text(
        """
        [run]
        nodes = 8
        lr = 0.125

        [aggregator]
        kind = balance
        gamma = 3.5
        """
    )
    assert cfg.n_nodes == 8
    assert cfg.lr == 0.125
    assert cfg.aggregator.kind == "balance"
    assert cfg.aggregator.gamma == 3.5
    assert cfg.rounds == SimConfig().rounds
    assert cfg.task == TaskSpec()


def test_inline_comments_and_case_insensitive_bools():
    cfg = parse_config_text(
        """
        [run]
        verification = FALSE  # switched off for this probe
        threads = 4 ; inline too
        """
    )
    assert cfg.verification is False
    assert cfg.threads == 4


def test_keys_bools_and_none_ignore_case_but_sections_and_kinds_do_not():
    cfg = parse_config_text(
        """
        [task]
        KIND = quadratic
        [run]
        Verification = FALSE
        [aggregator]
        krum_f = None
        """
    )
    assert cfg.task.kind == "quadratic"
    assert cfg.verification is False
    assert cfg.aggregator.krum_f is None
    with pytest.raises(ConfigurationError, match=r"unknown section \[Task\]"):
        parse_config_text("[Task]\nkind = logistic\n")
    with pytest.raises(ConfigurationError, match="unknown task kind 'Logistic'"):
        parse_config_text("[task]\nkind = Logistic\n")


def test_krum_f_and_sketch_seed_accept_none():
    cfg = parse_config_text(
        """
        [aggregator]
        kind = krum
        krum_f = none
        sketch_seed = 7
        """
    )
    assert cfg.aggregator.krum_f is None
    assert cfg.aggregator.sketch_seed == 7


def test_unknown_section_is_named():
    with pytest.raises(ConfigurationError, match=r"unknown section \[model\]"):
        parse_config_text("[model]\nkind = quadratic\n")


def test_unknown_key_is_named_with_path():
    with pytest.raises(ConfigurationError, match="unknown key run.node_count"):
        parse_config_text("[run]\nnode_count = 5\n")


def test_type_errors_name_the_key_path():
    with pytest.raises(ConfigurationError, match="run.nodes: expected an integer"):
        parse_config_text("[run]\nnodes = many\n")
    with pytest.raises(ConfigurationError, match="aggregator.gamma: expected a number"):
        parse_config_text("[aggregator]\ngamma = big\n")
    with pytest.raises(ConfigurationError, match="run.verification: expected a boolean"):
        parse_config_text("[run]\nverification = maybe\n")


NON_FINITE_KEYS = [("task", "concentration"), ("run", "lr"),
                   ("aggregator", "gamma"), ("attack", "sigma")]


@pytest.mark.parametrize("section, key", NON_FINITE_KEYS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected_with_their_path(section, key, raw):
    # nan fails every comparison, so no range check in the dataclasses
    # would catch it; the converter names the key instead
    with pytest.raises(ConfigurationError, match=rf"{section}\.{key}: expected a finite number"):
        parse_config_text(f"[{section}]\n{key} = {raw}\n")


FLOAT_FIELDS = [(section, name) for section, keys in _SCHEMA.items()
                for name, convert in keys.values() if convert is _finite]


@pytest.mark.parametrize("section, name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_library_configs_refuse_non_finite_floats(section, name, value):
    # what parse_config refuses a library caller may not build either, or
    # emit_config would write text that does not replay; the nested spec is
    # built past its own range checks, which a nan slips through anyway
    if section == "run":
        kwargs, path = {name: value}, name
    else:
        spec = replace(getattr(SimConfig(), section))
        object.__setattr__(spec, name, value)
        kwargs, path = {section: spec}, f"{section}.{name}"
    with pytest.raises(ConfigurationError, match=rf"^{path} must be finite"):
        SimConfig(**kwargs)


def test_out_of_range_alpha_names_section_and_field():
    with pytest.raises(ConfigurationError, match=r"\[aggregator\] alpha must be in \[0, 1\]"):
        parse_config_text("[aggregator]\nalpha = 1.5\n")


def test_ubar_is_an_unknown_aggregator():
    with pytest.raises(ConfigurationError, match=r"\[aggregator\] unknown aggregator 'ubar'"):
        parse_config_text("[aggregator]\nkind = ubar\n")


def test_run_section_errors_are_prefixed():
    with pytest.raises(ConfigurationError, match=r"\[run\] byz_fraction"):
        parse_config_text("[run]\nbyz_fraction = 0.9\n")


def test_malformed_ini_reports_origin():
    with pytest.raises(ConfigurationError, match="probe.ini"):
        parse_config_text("nodes = 5\n", origin="probe.ini")


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        parse_config(tmp_path / "absent.ini")


def test_emit_round_trips_defaults():
    cfg = SimConfig()
    assert parse_config_text(emit_config(cfg)) == cfg


def test_emit_round_trips_a_contorted_config():
    cfg = SimConfig(
        task=TaskSpec(kind="tiny-mlp", features=11, classes=4, hidden=9,
                      samples_per_client=33, test_samples=77,
                      concentration=0.125, dim=640, separation=2.5, noise=0.3),
        topology=TopologySpec(kind="k-regular", degree=6),
        aggregator=AggregatorSpec(kind="krum", gamma=1.75, kappa=0.0,
                                  alpha=1.0, krum_f=2, sketch_size=32,
                                  sketch_seed=1234, rel_tol=1e-7),
        attack=AttackSpec(kind="directed-deviation", sigma=2.0, lam=3.25,
                          consistent_sketch=False),
        n_nodes=9,
        byz_fraction=0.25,
        rounds=4,
        local_epochs=2,
        lr=0.0625,
        batch_size=5,
        threads=3,
        verification=False,
        per_client_eval=True,
        seeds=Seeds(data=10, topology=20, byzantine=30, training=40,
                    attack=50, sketch=60),
    )
    assert parse_config_text(emit_config(cfg)) == cfg


def test_emit_writes_every_key():
    text = emit_config(SimConfig())
    for needle in ("[task]", "[topology]", "[aggregator]", "[attack]",
                   "[run]", "[seeds]", "krum_f = none", "sketch_seed = none",
                   "verification = true", "nodes = 20"):
        assert needle in text


def test_reference_config_files_parse(tmp_path):
    cfg = parse_config(CONFIGS / "default.ini")
    assert cfg == SimConfig()
    fixture = parse_config(CONFIGS / "robustness.ini")
    assert fixture.n_nodes == 20
    assert fixture.task.kind == "logistic"
    assert fixture.aggregator.sketch_size == 256
    assert fixture.attack.kind == "gaussian"
