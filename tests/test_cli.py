"""CLI subcommands, argument parsing and exit codes."""
import json
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest

import sketchdfl.cli as cli
import sketchdfl.engine as engine
from sketchdfl.aggregation import AGGREGATOR_KINDS
from sketchdfl.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_INVARIANT,
    EXIT_OK,
    MAX_RANGE_VALUES,
    _build_parser,
    _parse_fractions,
    _parse_masters,
    main,
)
from sketchdfl.config import _SCHEMA, parse_config, parse_config_text
from sketchdfl.engine import sweep
from sketchdfl.errors import ConfigurationError
from sketchdfl.io import metrics_csv_text

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

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
    # [run] threads, the one way to set the thread budget
    for threads in (1, 8):
        cfg = tiny_file(tmp_path, f"threads = {threads}\n")
        main(["run", "--config", str(cfg), "--out", str(tmp_path / f"r{threads}")])
        manifest = json.loads((tmp_path / f"r{threads}" / "manifest.json").read_text())
        assert manifest["config"]["threads"] == threads
    one, eight = (tmp_path / f"r{threads}" / "metrics.csv" for threads in (1, 8))
    assert one.read_bytes() == eight.read_bytes()


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


def test_unreadable_config_exits_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes("[task]\n# caf\xe9\n".encode("latin-1"))
    for path in (tmp_path, latin1):  # a directory, and a file that is not UTF-8
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and str(path) in err


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--byz", "0.0", "--seeds", "1"],
])
def test_out_that_is_a_file_exits_2_before_simulating(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(cli, "run_simulation", refuse)
    monkeypatch.setattr(engine, "run_simulation", refuse)
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    argv = [command[0], "--config", str(tiny_file(tmp_path)), *command[1:], "--out", str(taken)]
    assert main(argv) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err
    assert taken.read_text() == "keep me"


def test_invalid_config_value_exits_2(tmp_path, capsys):
    cfg = tiny_file(tmp_path, "alpha = 1.5\n")  # appended to [run]: unknown key
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    cfg2 = tmp_path / "bad.ini"
    cfg2.write_text("[aggregator]\nalpha = 1.5\n")
    assert main(["run", "--config", str(cfg2)]) == EXIT_CONFIG
    assert "aggregator" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("task", "concentration"), ("run", "lr"),
                                          ("aggregator", "gamma"), ("attack", "sigma")])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, section, key, raw):
    # before they were refused: a numpy ValueError (exit 1), a "divergence"
    # (exit 4), or a silent run (exit 0)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert f"{section}.{key}: expected a finite number" in capsys.readouterr().err


def test_infeasible_degree_is_a_config_error(tmp_path, capsys):
    # an odd degree sum, and a perfect matching, which no attempt connects
    for degree, nodes, message in ((3, 5, "n*degree must be even"),
                                   (1, 4, "never connected")):
        cfg = tmp_path / f"d{degree}.ini"
        cfg.write_text(f"[topology]\nkind = k-regular\ndegree = {degree}\n\n"
                       f"[run]\nnodes = {nodes}\nrounds = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


def test_unbuildable_topology_exits_3(tmp_path, capsys):
    # p this small never yields a connected graph within the attempt budget
    cfg = tmp_path / "sparse.ini"
    cfg.write_text(
        "[topology]\nkind = erdos-renyi\np = 0.001\n\n[run]\nnodes = 20\nrounds = 1\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_INVARIANT
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


@pytest.mark.parametrize("byz, message", [
    ("a:0.8:0.1", "cannot parse --byz value 'a:0.8:0.1'"),
    # about 8e299 values: refused by its count, before any value is built
    ("0:0.8:1e-300", "has 8e\\+299 values, more than 10000"),
])
def test_sweep_bad_byz_range_exits_2_at_once(tmp_path, capsys, byz, message):
    cfg = tiny_file(tmp_path)
    start = time.perf_counter()
    code = main(["sweep", "--config", str(cfg), "--byz", byz, "--seeds", "1",
                 "--out", str(tmp_path / "sw")])
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "sw" / "sweep.csv").exists()


def test_parse_fractions_range_holds_at_most_max_range_values():
    assert len(_parse_fractions("0:0.9999:0.0001")) == MAX_RANGE_VALUES
    with pytest.raises(ConfigurationError, match="has 10001 values"):
        _parse_fractions("0:1:0.0001")
    with pytest.raises(ConfigurationError, match="has inf values"):
        _parse_fractions("0:0.8:5e-324")   # the step count overflows to inf


def test_parse_masters_count_or_list():
    assert _parse_masters("3") == [0, 1, 2]
    assert _parse_masters("5,7") == [5, 7]
    with pytest.raises(ConfigurationError, match="cannot parse"):
        _parse_masters("x")
    assert len(_parse_masters(str(MAX_RANGE_VALUES))) == MAX_RANGE_VALUES
    with pytest.raises(ConfigurationError, match="count 10001 is more than 10000"):
        _parse_masters(str(MAX_RANGE_VALUES + 1))


def test_sweep_huge_seed_count_exits_2_at_once(tmp_path, capsys):
    # refused by its count, before a list of 10**12 seeds is built
    cfg = tiny_file(tmp_path)
    start = time.perf_counter()
    code = main(["sweep", "--config", str(cfg), "--byz", "0", "--seeds", "1000000000000",
                 "--out", str(tmp_path / "sw")])
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_CONFIG
    assert "--seeds count 1000000000000" in capsys.readouterr().err
    assert not (tmp_path / "sw" / "sweep.csv").exists()


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


# ----------------------------------------------------------------- plumbing

def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command_is_rejected():
    # run reports the costs bench printed; the pytest suites replace check
    for command in ("teleport", "bench", "check"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2


def test_readme_names_only_commands_that_exist(capsys):
    # a subcommand at the start of a code line or inside backticks, and any
    # --set SECTION.KEY, which must be a key of the config file
    text = README.read_text()
    commands = set(re.findall(r"(?:^|`)sketchdfl ([a-z][\w-]*)", text, re.MULTILINE))
    assert commands, "the pattern no longer finds the README's commands"
    for command in sorted(commands):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0, f"README names unknown subcommand {command!r}"
    keys = set(re.findall(r"--set ([a-z_]+)\.([a-z_]+)=", text))  # not the SECTION.KEY placeholder
    assert [f"{s}.{k}" for s, k in sorted(keys) if k not in _SCHEMA.get(s, {})] == []


ROBUSTNESS_INI = ROOT / "configs" / "robustness.ini"


def test_sweep_set_writes_rows_and_a_table_column_per_value(tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(["sweep", "--config", str(ROBUSTNESS_INI), "--set", "aggregator.kind=sketchfilter,balance",
                 "--byz", "0,0.2", "--seeds", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    base = parse_config(ROBUSTNESS_INI)
    for kind in ("sketchfilter", "balance"):
        # 2 fractions x 2 seeds x 10 rounds: the rows of a one-kind sweep,
        # equal in every column but the run id, which names the cell
        mine = [line.split(",", 1) for line in lines[1:] if
                line.split(",", 1)[0].endswith(f"-aggregator.kind={kind}")]
        alone = sweep(replace(base, aggregator=replace(base.aggregator, kind=kind)), [0.0, 0.2], [0, 1])[0]
        expected = metrics_csv_text(alone).splitlines()[1:]
        assert len(mine) == len(expected) == 40
        assert [rest for _, rest in mine] == [line.split(",", 1)[1] for line in expected]
        assert [run_id for run_id, _ in mine] == [f"{line.split(',', 1)[0]}-aggregator.kind={kind}"
                                                for line in expected]
    stdout = capsys.readouterr().out
    assert "2 cells x 2 fractions x 2 seeds = 8 runs" in stdout
    header, *table = stdout.split("byz_frac", 1)[1].splitlines()  # the rows under the header
    assert header.split() == ["sketchfilter", "balance"]
    assert [row.split()[0] for row in table] == ["0.00", "0.20"]


def test_sweep_set_runs_every_listed_kind(tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(["sweep", "--config", str(ROBUSTNESS_INI), "--set",
                 "aggregator.kind=" + ",".join(AGGREGATOR_KINDS), "--byz", "0", "--seeds", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    runs = json.loads((out / "manifests.json").read_text())["runs"]
    assert [run["config"]["aggregator"]["kind"] for run in runs] == list(AGGREGATOR_KINDS)
    header = capsys.readouterr().out.split("byz_frac", 1)[1].splitlines()[0]
    assert header.split() == list(AGGREGATOR_KINDS)


@pytest.mark.parametrize("sets, message", [
    (["aggregator.kind=sketchfilter,median"], "unknown aggregator 'median'"),  # after a valid name
    (["aggregator.kind= , "], "--set aggregator.kind lists no value"),
    # the sweep sets these per run; seeds.sketch, which derive_seeds keeps, stays settable
    (["run.byz_fraction=0.1"], "--set run.byz_fraction: the sweep sets this key itself"),
    (["seeds.data=7"], "--set seeds.data: the sweep sets this key itself"),
    (["aggregator.gama=1"], "--set: unknown key aggregator.gama"),
    (["run.lr=0.1", "run.LR=0.2"], "--set run.lr given twice"),
], ids=["unknown-kind", "no-value", "byz-fraction", "data-seed", "unknown-key", "key-twice"])
def test_sweep_set_config_error_exits_2_before_any_run(tmp_path, capsys, monkeypatch, sets,
                                                        message):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before checking every cell")

    monkeypatch.setattr(engine, "run_simulation", refuse)
    out = tmp_path / "grid"
    argv = ["sweep", "--config", str(ROBUSTNESS_INI), "--byz", "0", "--seeds", "1", "--out", str(out)]
    for setting in sets:
        argv += ["--set", setting]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: {message}")
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_sweep_set_unbuildable_topology_exits_3(tmp_path, capsys):
    # p this small never yields a connected graph within the attempt budget
    cfg = tmp_path / "sparse.ini"
    cfg.write_text("[topology]\nkind = erdos-renyi\np = 0.001\n\n[run]\nnodes = 20\nrounds = 1\n")
    code = main(["sweep", "--config", str(cfg), "--set", "aggregator.kind=balance", "--byz", "0",
                 "--seeds", "1", "--out", str(tmp_path / "grid")])
    assert code == EXIT_INVARIANT
    assert capsys.readouterr().err.startswith("invariant violation: no connected Erdos-Renyi graph")


def test_sweep_set_threads_changes_only_the_run_id(tmp_path):
    out = tmp_path / "grid"
    code = main(["sweep", "--config", str(tiny_file(tmp_path)), "--set", "run.threads=1,3",
                 "--byz", "0,0.4", "--seeds", "2", "--out", str(out)])
    assert code == EXIT_OK
    rows = [line.split(",", 1) for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    one, three = rows[:len(rows) // 2], rows[len(rows) // 2:]
    assert len(one) == 2 * 2 * 2
    assert all(run_id.endswith("-run.threads=1") for run_id, _ in one)
    assert [rest for _, rest in one] == [rest for _, rest in three]
