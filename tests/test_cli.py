"""CLI subcommands, exit codes, and the built-in check suites."""
import json
from pathlib import Path

import pytest

from sketchdfl.checks import run_checks
from sketchdfl.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_INVARIANT,
    EXIT_OK,
    _parse_fractions,
    _parse_masters,
    main,
)
from sketchdfl.config import parse_config_text
from sketchdfl.errors import ConfigurationError

TINY = """
[task]
kind = quadratic
features = 8
samples_per_client = 32
test_samples = 16

[topology]
kind = full

[aggregator]
kind = sketchfilter
sketch_size = 8

[run]
nodes = 5
rounds = 2
local_epochs = 1
batch_size = 16
"""


def tiny_file(tmp_path: Path, extra: str = "") -> Path:
    path = tmp_path / "tiny.ini"
    path.write_text(TINY + extra)
    return path


# ----------------------------------------------------------------- run

def test_run_writes_metrics_and_manifest(tmp_path, capsys):
    cfg = tiny_file(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # header + one row per round
    assert lines[0].startswith("run_id,seed,byz_fraction,round,mean_ter")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run_id"] == "sketchfilter-none-b0"
    assert manifest["config"]["n_nodes"] == 5
    # the embedded INI replays to the same config
    assert parse_config_text(manifest["resolved_config_ini"]).n_nodes == 5
    assert "final mean_ter" in capsys.readouterr().out


def test_run_id_flag_overrides_default(tmp_path):
    cfg = tiny_file(tmp_path)
    out = tmp_path / "results"
    main(["run", "--config", str(cfg), "--out", str(out), "--run-id", "probe7"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run_id"] == "probe7"
    first_cell = (out / "metrics.csv").read_text().splitlines()[1].split(",")[0]
    assert first_cell == "probe7"


def test_threads_flag_does_not_change_bytes(tmp_path):
    cfg = tiny_file(tmp_path)
    out1, out8 = tmp_path / "r1", tmp_path / "r8"
    main(["run", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
    main(["run", "--config", str(cfg), "--out", str(out8), "--threads", "8"])
    assert (out1 / "metrics.csv").read_bytes() == (out8 / "metrics.csv").read_bytes()


def test_manifest_does_not_depend_on_working_directory(tmp_path, monkeypatch):
    # a calibration table in the working directory must not leak into the run
    cfg = tiny_file(tmp_path)
    manifests = []
    for name, table in (("bare", None), ("calibrated", "k,epsilon_hat,violation_rate\n")):
        cwd = tmp_path / name
        cwd.mkdir()
        if table is not None:
            (cwd / "calibration").mkdir()
            (cwd / "calibration" / "k_epsilon.csv").write_text(table)
        monkeypatch.chdir(cwd)
        out = tmp_path / f"out-{name}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.ini")])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_invalid_config_value_exits_2(tmp_path, capsys):
    cfg = tiny_file(tmp_path, "alpha = 1.5\n")  # appended to [run]: unknown key
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    cfg2 = tmp_path / "bad.ini"
    cfg2.write_text("[aggregator]\nalpha = 1.5\n")
    assert main(["run", "--config", str(cfg2)]) == EXIT_CONFIG
    assert "aggregator" in capsys.readouterr().err


def test_infeasible_degree_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "odd.ini"
    cfg.write_text(
        "[topology]\nkind = k-regular\ndegree = 3\n\n[run]\nnodes = 5\nrounds = 1\n"
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "n*degree must be even" in capsys.readouterr().err


def test_unbuildable_topology_exits_3(tmp_path, capsys):
    # p this small never yields a connected graph within the attempt budget
    cfg = tmp_path / "sparse.ini"
    cfg.write_text(
        "[topology]\nkind = erdos-renyi\np = 0.001\n\n[run]\nnodes = 20\nrounds = 1\n"
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


def test_per_client_eval_on_quadratic_exits_2(tmp_path, capsys):
    # the quadratic metric is global suboptimality: it has no per-shard score
    cfg = tiny_file(tmp_path, "per_client_eval = true\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "per_client_eval needs a classification task" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_divergence_exits_4(tmp_path, capsys):
    cfg = tiny_file(tmp_path, "lr = 1e150\n")  # overflows within one round
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_DIVERGENCE
    assert "numerical divergence" in capsys.readouterr().err


# ----------------------------------------------------------------- sweep

def test_sweep_writes_combined_csv(tmp_path, capsys):
    cfg = tiny_file(tmp_path)
    out = tmp_path / "sw"
    code = main(["sweep", "--config", str(cfg), "--byz", "0:0.2:0.1",
                 "--seeds", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 2 * 2  # fractions x seeds x rounds
    runs = json.loads((out / "manifests.json").read_text())["runs"]
    assert len(runs) == 6
    assert "6 runs" in capsys.readouterr().out


def test_parse_fractions_range_is_inclusive():
    assert _parse_fractions("0:0.8:0.1") == pytest.approx(
        [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    )
    assert _parse_fractions("0.1,0.5") == [0.1, 0.5]
    with pytest.raises(ConfigurationError, match="LO:HI:STEP"):
        _parse_fractions("0:0.8")
    with pytest.raises(ConfigurationError, match="empty or reversed"):
        _parse_fractions("0.8:0:0.1")
    with pytest.raises(ConfigurationError, match="cannot parse"):
        _parse_fractions("lots")


def test_parse_masters_count_or_list():
    assert _parse_masters("3") == [0, 1, 2]
    assert _parse_masters("5,7") == [5, 7]
    with pytest.raises(ConfigurationError, match="cannot parse"):
        _parse_masters("x")


def test_sweep_fraction_out_of_range_exits_2(tmp_path, capsys):
    cfg = tiny_file(tmp_path)
    code = main(["sweep", "--config", str(cfg), "--byz", "0.9", "--seeds", "1",
                 "--out", str(tmp_path / "sw")])
    assert code == EXIT_CONFIG
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize("byz, seeds", [(",", "1"), ("0.0", ",")])
def test_sweep_empty_list_exits_2(tmp_path, capsys, byz, seeds):
    cfg = tiny_file(tmp_path)
    code = main(["sweep", "--config", str(cfg), "--byz", byz, "--seeds", seeds,
                 "--out", str(tmp_path / "sw")])
    assert code == EXIT_CONFIG
    assert "at least one" in capsys.readouterr().err
    assert not (tmp_path / "sw" / "sweep.csv").exists()


# ----------------------------------------------------------------- bench

def test_bench_degree_mode_cli(tmp_path, capsys):
    out = tmp_path / "b"
    assert main(["bench", "--mode", "degree", "--out", str(out)]) == EXIT_OK
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "mode,x_value,aggregator,screen_ops,agg_ops,params_tx"
    assert len(lines) == 1 + 3 * 2  # ladder rungs x aggregators
    assert "wrote" in capsys.readouterr().out


# ----------------------------------------------------------------- check

def test_check_command_passes(capsys):
    assert main(["check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "0 failed" in out


def test_check_single_suite(capsys):
    assert main(["check", "--suite", "sketch"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sketch:" in out
    assert "engine:" not in out


def test_check_unknown_suite_exits_2(capsys):
    assert main(["check", "--suite", "quantum"]) == EXIT_CONFIG
    assert "unknown suite" in capsys.readouterr().err


def test_run_checks_reports_failures_without_raising(monkeypatch):
    import sketchdfl.checks as checks

    def boom():
        raise AssertionError("deliberate")

    monkeypatch.setitem(checks.SUITES, "sketch", [("boom", boom)])
    passed, failed, lines = run_checks("sketch")
    assert failed == 1
    assert any(line.startswith("FAIL sketch:boom") for line in lines)


# ----------------------------------------------------------------- calibrate

def test_calibrate_writes_table(tmp_path, capsys):
    out = tmp_path / "cal" / "table.csv"
    code = main(["calibrate", "--out", str(out), "--pairs", "40"])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "k,epsilon_hat,violation_rate"
    assert len(lines) == 1 + 7  # default width ladder
    assert "fitted coefficient" in capsys.readouterr().out


def test_calibrate_rejects_bad_pairs(capsys):
    assert main(["calibrate", "--pairs", "0"]) == EXIT_CONFIG
    assert "--pairs" in capsys.readouterr().err


# ----------------------------------------------------------------- plumbing

def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["teleport"])
    assert exc.value.code == 2
