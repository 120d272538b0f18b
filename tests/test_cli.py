import filecmp
import json
from pathlib import Path

import pytest
import yaml

from hawkeslob.cli import main, run
from hawkeslob.rng import SeedManifest

from test_config import MINIMAL_MICRO


def _micro_config(tmp_path):
    path = tmp_path / "micro.yaml"
    path.write_text(MINIMAL_MICRO)
    return path


@pytest.fixture
def micro_config(tmp_path):
    return _micro_config(tmp_path)


def _limit_config(tmp_path, n_paths=2):
    doc = yaml.safe_load(MINIMAL_MICRO)
    doc["model"] = "limit"
    doc["grid"] = {"horizon": 0.1, "dt": 0.002, "n_x": 31}
    doc["limit"] = {"n_paths": n_paths}
    path = tmp_path / "limit.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def _dirs_byte_identical(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def test_simulate_micro_artifacts(micro_config, tmp_path):
    out = tmp_path / "out"
    assert run("simulate-micro", micro_config, out) == 0
    for name in ("events.csv", "prices.csv", "profiles.csv", "diagnostics.csv",
                 "manifest.json", "summary.json"):
        assert (out / name).exists()
    assert (out / "events.csv").read_text().splitlines()[0] == "t,label,x,z"
    assert (out / "prices.csv").read_text().splitlines()[0] == "t,p_a,p_b"
    man = SeedManifest.read(out / "manifest.json")
    assert man.master_seed == 42


def test_rerun_is_byte_identical(micro_config, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run("simulate-micro", micro_config, out1) == 0
    assert run("simulate-micro", micro_config, out2) == 0
    assert _dirs_byte_identical(out1, out2)


def test_seed_flag_overrides_config(micro_config, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run("simulate-micro", micro_config, out1, seed=7)
    run("simulate-micro", micro_config, out2, seed=8)
    assert not _dirs_byte_identical(out1, out2)
    assert SeedManifest.read(out1 / "manifest.json").master_seed == 7


def test_manifest_replays_previous_run(micro_config, tmp_path):
    out1 = tmp_path / "o1"
    run("simulate-micro", micro_config, out1, seed=1234)
    out2 = tmp_path / "o2"
    code = main([
        "simulate-micro", "--config", str(micro_config), "--out", str(out2),
        "--manifest", str(out1 / "manifest.json"),
    ])
    assert code == 0
    assert _dirs_byte_identical(out1, out2)


def test_manifest_restores_the_level(micro_config, tmp_path):
    out1 = tmp_path / "o1"
    assert run("simulate-micro", micro_config, out1, seed=99, level=2) == 0
    assert SeedManifest.read(out1 / "manifest.json").level == 2
    out2 = tmp_path / "o2"
    code = main([
        "simulate-micro", "--config", str(micro_config), "--out", str(out2),
        "--manifest", str(out1 / "manifest.json"),
    ])
    assert code == 0
    assert _dirs_byte_identical(out1, out2)
    assert json.loads((out2 / "summary.json").read_text())["level"] == 2


def test_manifest_level_mismatch_exits_2(micro_config, tmp_path):
    out1 = tmp_path / "o1"
    assert run("simulate-micro", micro_config, out1, level=1) == 0
    with pytest.raises(SystemExit) as exc:
        main([
            "simulate-micro", "--config", str(micro_config), "--out", str(tmp_path / "o2"),
            "--manifest", str(out1 / "manifest.json"), "--level", "0",
        ])
    assert exc.value.code == 2


def test_manifest_seed_mismatch_exits_2(micro_config, tmp_path):
    out1 = tmp_path / "o1"
    assert run("simulate-micro", micro_config, out1, seed=1234) == 0
    with pytest.raises(SystemExit) as exc:
        main([
            "simulate-micro", "--config", str(micro_config), "--out", str(tmp_path / "o2"),
            "--manifest", str(out1 / "manifest.json"), "--seed", "5",
        ])
    assert exc.value.code == 2
    assert not (tmp_path / "o2").exists()
    # a matching seed is accepted and replays the run
    out3 = tmp_path / "o3"
    code = main([
        "simulate-micro", "--config", str(micro_config), "--out", str(out3),
        "--manifest", str(out1 / "manifest.json"), "--seed", "1234",
    ])
    assert code == 0
    assert _dirs_byte_identical(out1, out3)


def test_solve_limit_artifacts(tmp_path):
    cfg = _limit_config(tmp_path)
    out = tmp_path / "out"
    assert run("solve-limit", cfg, out) == 0
    lines = (out / "intensities.csv").read_text().splitlines()
    assert lines[0] == "t,slot,node_x,value"
    assert any(line.split(",")[1] == "a_lo" for line in lines[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_paths"] == 2


def test_invalid_config_exits_2_with_report(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL_MICRO.replace("delta_v: 0.05", "delta_v: 0.4"))
    out = tmp_path / "out"
    assert run("simulate-micro", bad, out) == 2
    report = json.loads((out / "error.json").read_text())
    assert report["error"] == "configuration invalid"
    assert any("delta_v" in d["path"] for d in report["details"])


@pytest.mark.parametrize("command,model", [("simulate-micro", "micro"),
                                           ("solve-limit", "limit")])
def test_crossed_start_book_exits_2(tmp_path, command, model):
    doc = yaml.safe_load(MINIMAL_MICRO)
    doc["model"] = model
    doc["scaling"]["book"]["ask_price"] = 0.0
    cfg = tmp_path / "crossed.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert run(command, cfg, out) == 2
    report = json.loads((out / "error.json").read_text())
    assert [d["path"] for d in report["details"]] == ["scaling.book.ask_price"]


def test_unknown_command_exits_2(tmp_path, micro_config):
    assert run("simulate-everything", micro_config, tmp_path / "o") == 2


def test_missing_config_file_exits_2(tmp_path):
    assert run("simulate-micro", tmp_path / "nope.yaml", tmp_path / "o") == 2


def test_oracle_check_cli(tmp_path):
    cfg = tmp_path / "cir.yaml"
    cfg.write_text(
        "schema_version: 1\nmodel: oracle\nseed: 5\n"
        "oracle: {check: cir, x0: 0.5, a: 1.0, b: 0.0, c: 1.0, horizon: 0.5, dt: 0.005, paths: 500}\n"
    )
    out = tmp_path / "out"
    assert run("oracle-check", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["check"] == "cir"
    assert rep["passed"] is True
    assert rep["zero_hits"] == 0


def test_resolvent_cli(tmp_path):
    cfg = tmp_path / "res.yaml"
    cfg.write_text(
        "schema_version: 1\nmodel: resolvent\nseed: 1\n"
        "resolvent: {family: exponential, c: 0.5, kappa: 1.0, horizon: 1.0, dt: 0.001}\n"
    )
    out = tmp_path / "out"
    assert run("resolvent", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["residual_sup"] <= 1e-6
    assert "alternate_form_sup_diff" in rep
    assert (out / "resolvent.csv").exists()


def test_converge_cli_small(tmp_path):
    doc = yaml.safe_load(MINIMAL_MICRO)
    doc["model"] = "converge"
    doc["grid"] = {"horizon": 0.3, "dt": 0.003, "n_x": 31}
    doc["experiment"] = {
        "levels": [0, 1, 2], "replicates": 100, "limit_paths": 200,
        "test_fns": [{"name": "g1", "family": "gaussian", "amplitude": 1.0, "center": 0.5}],
    }
    cfg = tmp_path / "conv.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert run("converge", cfg, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert {"convergence", "moments"} <= set(rep)
    table = (out / "tables.csv").read_text().splitlines()
    assert table[0] == "level,statistic,error,se"
    assert len(table) > 9


def test_threads_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--config", str(tmp_path / "conv.yaml"), "--out",
              str(tmp_path / "out"), "--threads", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_environment_does_not_set_the_seed(micro_config, tmp_path, monkeypatch):
    monkeypatch.setenv("HAWKESLOB_SEED", "5")
    out = tmp_path / "o"
    assert main(["simulate-micro", "--config", str(micro_config), "--out", str(out)]) == 0
    seed = yaml.safe_load(micro_config.read_text())["seed"]
    assert seed != 5 and SeedManifest.read(out / "manifest.json").master_seed == seed


def test_converge_manifest_lists_the_streams_it_drew(tmp_path):
    doc = yaml.safe_load(MINIMAL_MICRO)
    doc["model"] = "converge"
    doc["grid"] = {"horizon": 0.05, "dt": 0.005, "n_x": 31}
    doc["experiment"] = {"levels": [0, 1, 2], "replicates": 100, "limit_paths": 100}
    cfg = tmp_path / "conv.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert run("converge", cfg, out, seed=9) == 0
    man = SeedManifest.read(out / "manifest.json")
    assert man.command == "converge" and man.master_seed == 9
    # one limit stream, one micro stream per replicate (shared across
    # levels) and the bootstrap stream
    assert man.streams == [
        {"role": "limit", "replicates": 1},
        {"role": "micro", "replicates": 100},
        {"role": "harness", "replicates": 1},
    ]


def _oracle_config(tmp_path):
    path = tmp_path / "cir.yaml"
    path.write_text(
        "schema_version: 1\nmodel: oracle\nseed: 5\n"
        "oracle: {check: cir, x0: 0.5, a: 1.0, b: 0.0, c: 1.0, horizon: 0.1, dt: 0.005, paths: 50}\n"
    )
    return path


def _resolvent_config(tmp_path):
    path = tmp_path / "res.yaml"
    path.write_text(
        "schema_version: 1\nmodel: resolvent\nseed: 1\n"
        "resolvent: {family: exponential, c: 0.5, kappa: 1.0, horizon: 0.1, dt: 0.01}\n"
    )
    return path


@pytest.mark.parametrize("command, make_config, streams", [
    ("simulate-micro", _micro_config, [{"role": "micro", "replicates": 1}]),
    ("solve-limit", _limit_config, [{"role": "limit", "replicates": 1}]),
    ("oracle-check", _oracle_config, [{"role": "oracle", "replicates": 1}]),
    ("resolvent", _resolvent_config, []),  # deterministic: draws nothing
])
def test_manifest_lists_the_streams_it_drew(tmp_path, command, make_config, streams):
    out = tmp_path / "out"
    assert run(command, make_config(tmp_path), out, seed=3) == 0
    man = SeedManifest.read(out / "manifest.json")
    assert man.command == command and man.master_seed == 3
    assert man.streams == streams
